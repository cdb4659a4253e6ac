"""Property-based invariants over randomized parameter families."""

import numpy as np
from hypothesis import given, settings, strategies as st

from domechain import (
    DisorderConfig,
    DisorderTarget,
    DomeParams,
    check_pst_spacing,
    dome_hamiltonian,
    dome_spectrum,
    perturb,
    reconstruct,
    reduce_to_sites,
    solve_fst_phase,
    state_fidelity,
)
from domechain.cascade import segment_lengths

SETTINGS = settings(max_examples=60, deadline=None)

sizes = st.integers(min_value=2, max_value=64)
curvatures = st.integers(min_value=0, max_value=1000)


@SETTINGS
@given(N=sizes, m=curvatures)
def test_spectrum_is_strictly_increasing_with_arithmetic_gap_growth(N, m):
    lam = dome_spectrum(N, m).values
    gaps = np.diff(lam)
    assert np.all(gaps > 0)
    np.testing.assert_allclose(gaps, 1 + np.arange(N - 1) * m, rtol=1e-12)


@SETTINGS
@given(N=sizes, m=curvatures, J=st.floats(min_value=1e-3, max_value=1e9))
def test_spectrum_sum_matches_frequency_sum(N, m, J):
    params = DomeParams(N=N, m=m, J=J)
    ham = dome_hamiltonian(params)
    lam = dome_spectrum(N, m, J).physical_values()
    scale = max(np.abs(lam).max(), 1.0)
    assert abs(lam.sum() - ham.omegas.sum() * J) <= 1e-12 * scale * N


@SETTINGS
@given(
    N=st.integers(min_value=2, max_value=24),
    m=st.sampled_from([0, 2, 4, 6, 10, 102]),
)
def test_reconstruction_round_trip(N, m):
    spec = dome_spectrum(N, m)
    ham = reconstruct(spec)
    back = np.linalg.eigvalsh(ham.matrix())
    scale = np.abs(spec.values).max()
    np.testing.assert_allclose(back, spec.values, atol=1e-8 * scale)


@SETTINGS
@given(N=st.integers(min_value=2, max_value=20), m=st.integers(0, 30))
def test_closed_forms_are_mirror_symmetric_with_positive_couplings(N, m):
    ham = dome_hamiltonian(DomeParams(N=N, m=m))
    np.testing.assert_array_equal(ham.omegas, ham.omegas[::-1])
    np.testing.assert_array_equal(ham.couplings, ham.couplings[::-1])
    assert np.all(ham.couplings > 0)


@SETTINGS
@given(N=st.integers(min_value=3, max_value=16), m=st.integers(0, 40))
def test_capability_class_matches_phase_solver(N, m):
    # N = 2 is excluded: its spectrum is +-1/2 for every m, so the pair
    # always splits at quarter period regardless of the curvature class.
    # Classes by m: odd m revive only at T, even m give PST at T/2, and
    # m = 2 (mod 4) also give FST at T/4.
    spec = dome_spectrum(N, m)
    period = 2 * np.pi
    assert check_pst_spacing(spec, period / 2) == (m % 2 == 0)
    phase = solve_fst_phase(spec, period / 4)
    if m % 4 == 2:
        assert phase is not None
        assert abs(phase.theta - np.pi / 4) < 1e-9
    elif m % 2 == 0 and phase is not None:
        # No genuine splitting: any quarter-period solution is degenerate.
        assert phase.theta < 1e-9 or abs(phase.theta - np.pi / 2) < 1e-9


@SETTINGS
@given(
    N=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    keep=st.integers(min_value=1, max_value=3),
)
def test_reduced_states_are_physical(N, seed, keep):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    psi /= np.linalg.norm(psi)
    sites = list(range(1, min(keep, N) + 1))
    rho = reduce_to_sites(psi[None], sites)[0]
    assert rho.shape == (2 ** len(sites),) * 2
    assert abs(np.trace(rho) - 1.0) < 1e-12
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


@SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    index=st.integers(min_value=0, max_value=500),
    sigma=st.floats(min_value=0.0, max_value=3.0),
    target=st.sampled_from(list(DisorderTarget)),
)
def test_perturbation_is_deterministic_and_targeted(seed, index, sigma, target):
    ham = dome_hamiltonian(DomeParams(N=6, m=2))
    cfg = DisorderConfig(target=target, sigma=sigma, seed=seed)
    a = perturb(ham, cfg, index)
    b = perturb(ham, cfg, index)
    np.testing.assert_array_equal(a.omegas, b.omegas)
    np.testing.assert_array_equal(a.couplings, b.couplings)
    if target is DisorderTarget.COUPLINGS:
        np.testing.assert_array_equal(a.omegas, ham.omegas)
    elif target is DisorderTarget.MIDDLE_FREQUENCIES:
        np.testing.assert_array_equal(a.couplings, ham.couplings)
        np.testing.assert_array_equal(a.omegas[[0, -1]], ham.omegas[[0, -1]])
    elif target is DisorderTarget.EDGE_FREQUENCIES:
        np.testing.assert_array_equal(a.couplings, ham.couplings)
        np.testing.assert_array_equal(a.omegas[1:-1], ham.omegas[1:-1])


@SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=6),
)
def test_state_fidelity_is_bounded_and_symmetric_on_pure_states(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    f = state_fidelity(np.outer(a, a.conj()), b)
    assert -1e-12 <= f <= 1 + 1e-12
    assert abs(f - state_fidelity(np.outer(b, b.conj()), a)) < 1e-12
    assert abs(state_fidelity(np.outer(a, a.conj()), a) - 1.0) < 1e-12


@SETTINGS
@given(N=st.integers(min_value=2, max_value=500), data=st.data())
def test_segment_lengths_partition_the_chain(N, data):
    k = data.draw(st.integers(min_value=1, max_value=N - 1))
    lengths = segment_lengths(N, k)
    assert len(lengths) == k
    assert sum(lengths) == N + k - 1  # adjacent segments share a site
    assert min(lengths) >= 2
    assert max(lengths) - min(lengths) <= 1
    assert lengths == tuple(sorted(lengths, reverse=True))
