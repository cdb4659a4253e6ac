"""Spectral synthesis: weights, recurrence, reconstruction, eigenvectors."""

import numpy as np
import pytest
import scipy.linalg

from domechain.inverse_eigen import (
    ReconstructionError,
    compute_weights,
    eigenvectors,
    reconstruct,
)
from domechain.models import DomeParams, dome_hamiltonian
from domechain.spectrum import Spectrum, dome_spectrum


def test_weights_positive_and_normalized():
    w = compute_weights(dome_spectrum(9, 3))
    assert np.all(w > 0)
    assert abs(w.sum() - 1.0) < 1e-12


def test_weights_two_site():
    w = compute_weights(Spectrum(values=np.array([-0.5, 0.5])))
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_weights_line_three_site():
    # lambda = (-1, 0, 1): derivative magnitudes (2, 1, 2) invert to
    # weights (1/4, 1/2, 1/4), the squared end components of the chain.
    w = compute_weights(Spectrum(values=np.array([-1.0, 0.0, 1.0])))
    np.testing.assert_allclose(w, [0.25, 0.5, 0.25], atol=1e-14)


def test_weights_symmetric_spectrum_gives_symmetric_weights():
    w = compute_weights(Spectrum(values=np.array([-3.0, -1.0, 1.0, 3.0])))
    np.testing.assert_allclose(w, w[::-1], atol=1e-14)


def test_reconstruct_two_site_example():
    ham = reconstruct(Spectrum(values=np.array([-0.5, 0.5])))
    np.testing.assert_allclose(ham.omegas, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(ham.couplings, [0.5], atol=1e-12)


def test_reconstruct_matches_closed_forms():
    for N in range(2, 11):
        for m in (0, 1, 2, 5, 10):
            ham = reconstruct(dome_spectrum(N, m))
            ref = dome_hamiltonian(DomeParams(N=N, m=m))
            scale = max(1.0, np.max(np.abs(ref.omegas)), np.max(np.abs(ref.couplings)))
            assert np.max(np.abs(ham.omegas - ref.omegas)) / scale < 1e-9
            assert np.max(np.abs(ham.couplings - ref.couplings)) / scale < 1e-9


def test_reconstruct_round_trip_eigenvalues():
    for N in (2, 7, 16, 24):
        for m in (0, 2, 10, 102):
            spec = dome_spectrum(N, m)
            ham = reconstruct(spec)
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
        ham = reconstruct(dome_spectrum(N, 4))
        assert is_mirror_symmetric(ham)
        assert np.all(ham.couplings > 0)


def test_reconstruct_carries_rate():
    ham = reconstruct(dome_spectrum(5, 2, J=3.0e6))
    assert ham.rate_J == 3.0e6


def test_reconstruct_single_eigenvalue():
    ham = reconstruct(Spectrum(values=np.array([2.5])))
    np.testing.assert_allclose(ham.omegas, [2.5])
    assert ham.couplings.size == 0


def test_reconstruct_arbitrary_spectrum_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        vals = np.sort(rng.normal(0.0, 3.0, 6))
        if np.min(np.diff(vals)) < 1e-3:
            continue
        ham = reconstruct(Spectrum(values=vals))
        ev = scipy.linalg.eigh_tridiagonal(ham.omegas, ham.couplings, eigvals_only=True)
        np.testing.assert_allclose(ev, vals, atol=1e-8, rtol=1e-8)


def test_eigenvectors_orthonormal_rows():
    spec = dome_spectrum(7, 2)
    W = eigenvectors(reconstruct(spec), spec)
    np.testing.assert_allclose(W @ W.T, np.eye(7), atol=1e-12)


def test_eigenvectors_diagonalize_the_chain():
    spec = dome_spectrum(6, 3)
    ham = reconstruct(spec)
    W = eigenvectors(ham, spec)
    np.testing.assert_allclose(W @ ham.matrix() @ W.T, np.diag(spec.values), atol=1e-10)


def test_eigenvectors_first_column_is_sqrt_weight():
    for spec in (dome_spectrum(5, 2), Spectrum(values=np.array([-4.0, -1.5, 0.0, 2.0, 3.0]))):
        W = eigenvectors(reconstruct(spec), spec)
        np.testing.assert_allclose(W[:, 0], np.sqrt(compute_weights(spec)), atol=1e-12)


def test_eigenvectors_end_site_sign_alternation():
    # End-site coefficients alternate in sign across ascending eigenvalues.
    spec = dome_spectrum(6, 2)
    last = eigenvectors(reconstruct(spec), spec)[:, -1]
    assert np.all(last[::2] * last[1::2] < 0)


def test_eigenvectors_reject_mismatched_pair():
    spec = dome_spectrum(5, 2)
    wrong = dome_hamiltonian(DomeParams(N=5, m=4))
    with pytest.raises(ReconstructionError, match="eigen-residual"):
        eigenvectors(wrong, spec)
    with pytest.raises(ValueError, match="size"):
        eigenvectors(reconstruct(dome_spectrum(4, 2)), spec)


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
    ham = reconstruct(spec)
    W = eigenvectors(ham, spec)
    lam = spec.values
    scale = max(1.0, float(np.max(np.abs(lam))))
    assert W.shape == (N, N)
    assert np.max(np.abs(W @ W.T - np.eye(N))) <= 1e-12
    assert np.max(np.abs(ham.matrix() @ W.T - W.T * lam)) / scale <= 1e-12
    _, V = scipy.linalg.eigh_tridiagonal(ham.omegas, ham.couplings, lapack_driver="stemr")
    signs = np.where(np.sum(W * V.T, axis=1) < 0, -1.0, 1.0)
    assert np.max(np.abs(W - signs[:, None] * V.T)) <= 1e-12
    assert np.all(W[:, 0] >= 0)
    assert np.max(np.abs(W[:, 0] ** 2 - compute_weights(spec))) <= 1e-12
    mirror = (-1.0) ** (N + np.arange(1, N + 1))
    assert np.max(np.abs(W[:, -1] - mirror * W[:, 0])) <= 1e-12
