"""Spectral synthesis: weights, recurrence, reconstruction, eigenvectors.

Every check runs on `synthesize`, the one route `synth` takes.
"""

import numpy as np
import pytest
import scipy.linalg

from domechain.inverse_eigen import (
    ReconstructionError,
    _check_spectrum,
    _recurrence,
    _weights,
    synthesize,
)
from domechain.models import DomeParams, dome_hamiltonian
from domechain.spectrum import Spectrum, dome_spectrum


def test_weights_positive_and_normalized():
    w = _weights(dome_spectrum(9, 3))
    assert np.all(w > 0)
    assert abs(w.sum() - 1.0) < 1e-12


def test_weights_two_site():
    w = _weights(Spectrum(values=np.array([-0.5, 0.5])))
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_weights_line_three_site():
    # lambda = (-1, 0, 1): derivative magnitudes (2, 1, 2) invert to
    # weights (1/4, 1/2, 1/4), the squared end components of the chain.
    w = _weights(Spectrum(values=np.array([-1.0, 0.0, 1.0])))
    np.testing.assert_allclose(w, [0.25, 0.5, 0.25], atol=1e-14)


def test_weights_symmetric_spectrum_gives_symmetric_weights():
    w = _weights(Spectrum(values=np.array([-3.0, -1.0, 1.0, 3.0])))
    np.testing.assert_allclose(w, w[::-1], atol=1e-14)


def test_reconstruct_two_site_example():
    ham = synthesize(Spectrum(values=np.array([-0.5, 0.5])))[0]
    np.testing.assert_allclose(ham.omegas, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(ham.couplings, [0.5], atol=1e-12)


def test_reconstruct_matches_closed_forms():
    for N in range(2, 11):
        for m in (0, 1, 2, 5, 10):
            ham = synthesize(dome_spectrum(N, m))[0]
            ref = dome_hamiltonian(DomeParams(N=N, m=m))
            scale = max(1.0, np.max(np.abs(ref.omegas)), np.max(np.abs(ref.couplings)))
            assert np.max(np.abs(ham.omegas - ref.omegas)) / scale < 1e-9
            assert np.max(np.abs(ham.couplings - ref.couplings)) / scale < 1e-9


def test_reconstruct_round_trip_eigenvalues():
    for N in (2, 7, 16, 24):
        for m in (0, 2, 10, 102):
            spec = dome_spectrum(N, m)
            ham = synthesize(spec)[0]
            ev = scipy.linalg.eigh_tridiagonal(
                ham.omegas, ham.couplings, eigvals_only=True
            )
            scale = max(1.0, float(np.max(np.abs(spec.values))))
            assert np.max(np.abs(ev - spec.values)) / scale < 1e-8


def is_mirror_symmetric(ham) -> bool:
    """Mirror symmetric to 1e-9 of the largest |omega| or |J| (at least 1)."""
    scale = max(1.0, float(np.max(np.abs(ham.omegas))),
                float(np.max(np.abs(ham.couplings), initial=0.0)))
    ok_om = np.allclose(ham.omegas, ham.omegas[::-1], atol=1e-9 * scale, rtol=0)
    ok_cp = np.allclose(ham.couplings, ham.couplings[::-1], atol=1e-9 * scale, rtol=0)
    return bool(ok_om and ok_cp)


def test_reconstruct_is_mirror_symmetric():
    for N in (5, 8, 13):
        ham = synthesize(dome_spectrum(N, 4))[0]
        assert is_mirror_symmetric(ham)
        assert np.all(ham.couplings > 0)


def test_reconstruct_single_eigenvalue():
    ham = synthesize(Spectrum(values=np.array([2.5])))[0]
    np.testing.assert_allclose(ham.omegas, [2.5])
    assert ham.couplings.size == 0


def test_reconstruct_arbitrary_spectrum_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        vals = np.sort(rng.normal(0.0, 3.0, 6))
        if np.min(np.diff(vals)) < 1e-3:
            continue
        ham = synthesize(Spectrum(values=vals))[0]
        ev = scipy.linalg.eigh_tridiagonal(ham.omegas, ham.couplings, eigvals_only=True)
        np.testing.assert_allclose(ev, vals, atol=1e-8, rtol=1e-8)


def test_eigenvectors_orthonormal_rows():
    W = synthesize(dome_spectrum(7, 2))[2]
    np.testing.assert_allclose(W @ W.T, np.eye(7), atol=1e-12)


def test_eigenvectors_diagonalize_the_chain():
    spec = dome_spectrum(6, 3)
    ham, _, W = synthesize(spec)
    np.testing.assert_allclose(W @ ham.matrix() @ W.T, np.diag(spec.values), atol=1e-10)


def test_eigenvectors_first_column_is_sqrt_weight():
    for spec in (dome_spectrum(5, 2), Spectrum(values=np.array([-4.0, -1.5, 0.0, 2.0, 3.0]))):
        W = synthesize(spec)[2]
        np.testing.assert_allclose(W[:, 0], np.sqrt(_weights(spec)), atol=1e-12)


def test_eigenvectors_end_site_sign_alternation():
    # End-site coefficients alternate in sign across ascending eigenvalues.
    last = synthesize(dome_spectrum(6, 2))[2][:, -1]
    assert np.all(last[::2] * last[1::2] < 0)


@pytest.mark.parametrize("m", [0, 2, 10, 102])
@pytest.mark.parametrize("N", [27, 32, 64, 128, 256])
def test_eigenvectors_of_long_chains_match_mrrr_oracle(N, m):
    # A forward site recurrence loses about a digit every two sites; the
    # eigenvectors must keep every property at 1e-12 at any N.  The oracle
    # is LAPACK's MRRR tridiagonal solver; its QR driver (stev) is off by
    # up to 1e-9 here, from conditioning.  Rows whose first component is
    # below eigh's accuracy carry no pinned sign, so rows are compared up
    # to sign.
    spec = dome_spectrum(N, m)
    ham, _, W = synthesize(spec)
    lam = spec.values
    scale = max(1.0, float(np.max(np.abs(lam))))
    assert W.shape == (N, N)
    assert np.max(np.abs(W @ W.T - np.eye(N))) <= 1e-12
    assert np.max(np.abs(ham.matrix() @ W.T - W.T * lam)) / scale <= 1e-12
    _, V = scipy.linalg.eigh_tridiagonal(ham.omegas, ham.couplings, lapack_driver="stemr")
    signs = np.where(np.sum(W * V.T, axis=1) < 0, -1.0, 1.0)
    assert np.max(np.abs(W - signs[:, None] * V.T)) <= 1e-12
    assert np.all(W[:, 0] >= 0)
    assert np.max(np.abs(W[:, 0] ** 2 - _weights(spec))) <= 1e-12
    mirror = (-1.0) ** (N + np.arange(1, N + 1))
    assert np.max(np.abs(W[:, -1] - mirror * W[:, 0])) <= 1e-12


@pytest.mark.parametrize("spec", [dome_spectrum(2, 0), dome_spectrum(5, 2), dome_spectrum(64, 10),
                                  Spectrum(values=np.array([-4.0, -1.5, 0.0, 2.0, 3.0]))])
def test_synthesize_equals_reconstruct_weights_and_eigenvectors(spec):
    # One pass gives what the separate steps give: _weights' weights
    # and one signed eigh of the chain, bit for bit, with the chain carrying
    # the spectrum (eigvalsh) and the rows its eigen-residual, both to 1e-8.
    ham, weights, W = synthesize(spec)
    H = ham.matrix()
    _, V = np.linalg.eigh(H)
    V *= np.where(V[0] < 0, -1.0, 1.0)
    scale = max(1.0, float(np.max(np.abs(spec.values))))
    np.testing.assert_array_equal(weights, _weights(spec))
    np.testing.assert_array_equal(W, V.T)
    assert np.max(np.abs(np.linalg.eigvalsh(H) - spec.values)) / scale <= 1e-8
    assert np.max(np.abs(H @ W.T - W.T * spec.values)) / scale <= 1e-8


def test_synthesize_fails_as_reconstruct_does():
    cases = [
        # Two tight clusters: the recurrence survives, but the chain misses
        # the spectrum by about 1e-6.
        (np.r_[1e-11 * np.arange(5), 1 + 1e-11 * np.arange(5)], "1.22e-06"),
    ]
    for values, deviation in cases:
        with pytest.raises(ReconstructionError) as refused:
            synthesize(Spectrum(values=values))
        assert str(refused.value) == (
            f"synthesized chain eigenvalues deviate by {deviation} relative; "
            "spectrum outside the validated double-precision range"
        )
    # A NaN deviation must fail the bound, not slip past it.
    with pytest.raises(ReconstructionError, match="deviate by nan"):
        _check_spectrum(np.array([np.nan, 1.0]), Spectrum(values=np.array([0.0, 1.0])))


def test_overflowed_recurrence_is_refused_without_warnings():
    # synthesize scales the spectrum first, so the guard is reached only by
    # running the recurrence on unscaled values: the first coupling
    # overflows to inf and is refused where it happens, by name, not run on
    # into NaN (warnings fail the suite).
    for values in ([-1e300, 1e300], [-1e300, 0.0, 1e300], [-8e307, 8e307]):
        spec = Spectrum(values=np.array(values))
        with pytest.raises(ReconstructionError, match="^recurrence overflowed at degree 1$"):
            _recurrence(spec.values, _weights(spec), spec.n - 1)
