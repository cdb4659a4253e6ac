"""Property-based invariants over randomized parameter families."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from domechain import (
    DisorderConfig,
    DisorderTarget,
    DomeParams,
    check_pst_spacing,
    dome_hamiltonian,
    dome_spectrum,
    solve_fst_phase,
    synthesize,
)
from domechain import noise
from domechain.cascade import _segment_lengths
from domechain.cli import _fmt, _json_text, _table_bytes, main
from domechain.metrics import _readout_fidelity
from domechain.models import _SiteModel
from dense_oracles import brute_force_reduce, entrywise_reduce, target_overlap
from test_noise import unit_rows

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
    lam = dome_spectrum(N, m).values * J
    scale = max(np.abs(lam).max(), 1.0)
    assert abs(lam.sum() - ham.omegas.sum() * J) <= 1e-12 * scale * N


@SETTINGS
@given(
    N=st.integers(min_value=2, max_value=24),
    m=st.sampled_from([0, 2, 4, 6, 10, 102]),
)
def test_reconstruction_round_trip(N, m):
    spec = dome_spectrum(N, m)
    ham = synthesize(spec)[0]
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
    # The two partial-trace oracles give one physical state.
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    psi /= np.linalg.norm(psi)
    sites = list(range(1, min(keep, N) + 1))
    rho = brute_force_reduce(psi, N, sites)
    np.testing.assert_allclose(entrywise_reduce(np.outer(psi, psi.conj()), sites), rho,
                               rtol=0, atol=1e-12)
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
    params = DomeParams(N=6, m=2)
    ham = dome_hamiltonian(params)
    cfg = DisorderConfig(target=target, sigmas=(sigma,), seed=seed, samples=1)
    model = _SiteModel.of(params)
    targeted, unit = unit_rows(model, cfg, [index])
    a = noise._perturbed(model, targeted, sigma * unit, [0])[0]
    b = noise._perturbed(model, targeted, sigma * unit_rows(model, cfg, [index])[1], [0])[0]
    np.testing.assert_array_equal(a, b)
    omegas, couplings = np.diag(a), np.diag(a, 1)
    if target is DisorderTarget.COUPLINGS:
        np.testing.assert_array_equal(omegas, ham.omegas)
    elif target is DisorderTarget.MIDDLE_FREQUENCIES:
        np.testing.assert_array_equal(couplings, ham.couplings)
        np.testing.assert_array_equal(omegas[[0, -1]], ham.omegas[[0, -1]])
    elif target is DisorderTarget.EDGE_FREQUENCIES:
        np.testing.assert_array_equal(couplings, ham.couplings)
        np.testing.assert_array_equal(omegas[1:-1], ham.omegas[1:-1])


@SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=6),
)
def test_state_fidelity_is_bounded_and_symmetric_on_pure_states(seed, dim):
    # The readout scorer reads a state as (1 - p)|vac><vac| + |a><a|, its
    # readout amplitudes a without vacuum coherence, and a target b by its
    # readout amplitudes and vacuum weight: it is <b|rho_a|b> with rho_a the
    # state's vacuum coherences removed, bounded, symmetric in the two
    # states, and 1 on a state without vacuum amplitude against itself.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=dim + 1) + 1j * rng.normal(size=dim + 1)
    b = rng.normal(size=dim + 1) + 1j * rng.normal(size=dim + 1)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)

    def fidelity(state, target):
        return _readout_fidelity(state[1:], target[1:], abs(target[0]) ** 2)

    def mixed(state):  # the state's vacuum coherences removed
        rho = np.outer(state, state.conj())
        rho[0, 1:] = rho[1:, 0] = 0.0
        return rho

    f = fidelity(a, b)
    assert -1e-12 <= f <= 1 + 1e-12
    assert abs(f - fidelity(b, a)) < 1e-12
    assert abs(f - target_overlap(mixed(a), b)) < 1e-12
    a[0] = 0.0
    a /= np.linalg.norm(a)
    assert abs(fidelity(a, a) - 1.0) < 1e-12


@SETTINGS
@given(N=st.integers(min_value=2, max_value=500), data=st.data())
def test_segment_lengths_partition_the_chain(N, data):
    k = data.draw(st.integers(min_value=1, max_value=N - 1))
    lengths = _segment_lengths(N, k)
    assert len(lengths) == k
    assert sum(lengths) == N + k - 1  # adjacent segments share a site
    assert min(lengths) >= 2
    assert max(lengths) - min(lengths) <= 1
    assert lengths == tuple(sorted(lengths, reverse=True))


# JSON values as json.loads returns them, plus the awkward cases of the
# writer's C-encoder path: escapes and non-ASCII in keys and strings, big
# ints, signed zero, extreme and non-finite floats, empty containers.
_KEYS = st.text() | st.sampled_from(["", "a\nb", '"q"\\', "\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f"])
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([-0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, 5e-324])
    | _KEYS
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(_KEYS, inner, max_size=6),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(value=_JSON_VALUES)
def test_json_writer_equals_indented_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# Magnitudes from 1e-300 to 8e307, and zero: the spans stay finite, so
# Spectrum accepts every list and synth must handle it.
_MAGNITUDES = st.floats(min_value=1e-300, max_value=8e307)
_SPECTRA = st.lists(
    st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda x: -x)),
    min_size=2, max_size=8, unique=True,
).map(sorted).filter(lambda v: all(a < b for a, b in zip(v, v[1:])))


@SETTINGS
@example(values=[-1e300, 1e300])
@example(values=[-8e307, 0.0, 8e307])
@example(values=[-1e-300, 0.0, 1e-300])
@example(values=[-1e-300, 0.0, 1e300])
@example(values=[-1e-150, 0.0, 1e150])
@example(values=[-1e-170, 0.0, 1e170])
@given(values=_SPECTRA)
def test_synth_writes_finite_json_or_exits_3(values):
    # synth either writes a finite synth.json and prints nothing on stderr,
    # or refuses with exit 3, exactly one numerical-error JSON line on stderr
    # and nothing written: never an artifact holding NaN or Infinity, and no
    # RuntimeWarning (the suite turns those into errors, which exit 1).
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        out = Path(tmp) / "synth.json"
        code = main(["synth", "--set", f"spectrum={json.dumps(values)}", "--output", str(out)])
        if code == 3:
            [line] = err.getvalue().splitlines()
            assert json.loads(line)["error"] == "numerical"
            assert list(Path(tmp).iterdir()) == []
            return
        assert (code, err.getvalue()) == (0, "")
        data = json.loads(out.read_text(), parse_constant=_refuse_constant)
    for key in ("spectrum", "weights", "omegas", "couplings", "eigenvectors"):
        assert np.all(np.isfinite(np.asarray(data[key], dtype=float))), key


@pytest.mark.parametrize("scale", [1e150, 1e170, 1e300])
def test_three_site_spectra_spanning_many_decades(scale):
    # [-1/s, 0, s] is the mirror chain omega = [0, s - 1/s, 0], J = [1, 1]/sqrt(2).
    # Its couplings are far below 1e-14 max|lambda|, which is not a
    # collapse: at s = 1e150 synth writes that chain.  At s = 1e170 and
    # 1e300 the outer weight (about s^-2) underflows and -1/s scaled by
    # max|lambda| is below the smallest subnormal, so the recurrence sees
    # two nodes and collapses at degree 1: exit 3, nothing written.
    values = [-1 / scale, 0.0, scale]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        out = Path(tmp) / "synth.json"
        code = main(["synth", "--set", f"spectrum={json.dumps(values)}", "--output", str(out)])
        if scale > 1e150:
            assert code == 3 and list(Path(tmp).iterdir()) == []
            assert json.loads(err.getvalue()) == {
                "error": "numerical", "detail": "recurrence norm collapsed at degree 1"}
            return
        assert (code, err.getvalue()) == (0, "")
        data = json.loads(out.read_text())
    np.testing.assert_allclose(data["couplings"], [np.sqrt(0.5)] * 2, rtol=1e-12)
    np.testing.assert_allclose(data["omegas"], [0.0, scale, 0.0], rtol=1e-12, atol=1e-150)


# 10^k (1 - 5e-13) and 10^k (1 - 4e-13), and their neighbours: the 12 digits
# tie or round up into the next decade there, which moves the exponent and
# may switch %g's form.
_NEAR_DECADES = [float(v) for k in (-5, -4, -1, 0, 11, 12, 15, 300) for d in (5e-13, 4e-13)
                 for x in [10.0**k * (1 - d)] for v in (np.nextafter(x, 0), x, np.nextafter(x, 2 * x))]
# Exact 13-digit values ending in 5: %g rounds them half to even.
_TIES = [999999999999.5, 999999999998.5, 123456789012.5, 1234567890125.0, 1234567890135.0,
         2.0**-18, -(2.0**-18)]


@settings(max_examples=300, deadline=None)
@example(row=_NEAR_DECADES)
@example(row=_TIES)
@example(row=[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1e-297])
@given(row=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=8))
def test_block_formatter_equals_fmt_on_every_float(row):
    # Called directly: at any size, each cell and tail prints as _fmt prints it.
    rows = [row, row[::-1]]
    tails = ["", _fmt(row[0])]
    want = "".join("".join(f"{_fmt(x)}," for x in r) + tail + "\n" for r, tail in zip(rows, tails))
    assert b"".join(_table_bytes(np.array(rows), {1: row[0]})) == want.encode()


_ROW_KINDS = st.sampled_from(["random", "failed", "constant", "one_kept", "all_failed"])


@settings(max_examples=200, deadline=None)
@example(kinds=["random", "constant"], samples=1, seed=0)
@example(kinds=["one_kept", "failed", "all_failed"], samples=2, seed=1)
@given(kinds=st.lists(_ROW_KINDS, min_size=1, max_size=12), samples=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_point_statistics_equal_per_row_numpy(kinds, samples, seed):
    # The one-pass statistics of sweep_coherent against np.mean and
    # np.std(ddof=1) of each row's kept samples, bit for bit; std is 0 for
    # rows of equal values or fewer than two kept.
    rng = np.random.default_rng(seed)
    fids = 1.0 - rng.random((len(kinds), samples)) * 10.0 ** rng.uniform(-12, 0, (len(kinds), 1))
    for row, kind in zip(fids, kinds):
        if kind == "failed":
            row[rng.random(samples) < rng.random()] = np.nan
        elif kind == "constant":
            row[:] = row[0]
        elif kind == "one_kept":
            row[np.arange(samples) != rng.integers(samples)] = np.nan
        elif kind == "all_failed":
            row[:] = np.nan
    ok = ~np.isnan(fids)
    mean, std = noise._statistics(fids, ok)
    for i, x in enumerate(f[o] for f, o in zip(fids, ok)):
        want_mean = np.mean(x) if x.size else np.nan
        want_std = np.std(x, ddof=1) if x.size > 1 and x.min() < x.max() else 0.0
        np.testing.assert_array_equal(mean[i], want_mean)
        np.testing.assert_array_equal(std[i], want_std)
