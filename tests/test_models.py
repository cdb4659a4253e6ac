"""Closed-form chains, 2D grids, and the large-m two-site reduction."""

import numpy as np
import pytest

from domechain.models import (
    DomeParams,
    Grid2D,
    PerturbativeBreakdownError,
    dome_hamiltonian,
    schrieffer_wolff_reduce,
    single_excitation_matrix,
)
from domechain.spectrum import check_pst_spacing, dome_spectrum


def test_dome_closed_forms_n5_m2():
    ham = dome_hamiltonian(DomeParams(N=5, m=2))
    np.testing.assert_allclose(ham.omegas, [0, 6, 8, 6, 0], atol=1e-12)
    np.testing.assert_allclose(
        ham.couplings,
        [np.sqrt(7), 1.5 * np.sqrt(10), 1.5 * np.sqrt(10), np.sqrt(7)],
        atol=1e-12,
    )


def test_line_model_couplings():
    ham = dome_hamiltonian(DomeParams(N=6, m=0))
    n = np.arange(1, 6)
    np.testing.assert_allclose(ham.couplings, 0.5 * np.sqrt(n * (6 - n)), atol=1e-14)
    np.testing.assert_allclose(ham.omegas, 0.0, atol=1e-14)


def test_dome_mirror_symmetry_and_positivity():
    # Exact by construction, so nothing re-checks it at run time: the
    # integer products are exact in floats and 0.5 * a * b == 0.5 * b * a.
    for N in range(2, 513):
        for m in (0, 1, 2, 3, 10, 102, 1000):
            ham = dome_hamiltonian(DomeParams(N=N, m=m))
            np.testing.assert_array_equal(ham.omegas, ham.omegas[::-1])
            np.testing.assert_array_equal(ham.couplings, ham.couplings[::-1])
            assert np.all(ham.couplings > 0)


def test_dome_eigenvalues_match_spectrum():
    # The closed forms realize the dome spectrum; independent of synthesis.
    for N in (2, 5, 9, 14):
        for m in (0, 2, 3, 10):
            ham = dome_hamiltonian(DomeParams(N=N, m=m))
            ev = np.linalg.eigvalsh(ham.matrix())
            spec = dome_spectrum(N, m).values
            scale = max(1.0, np.max(np.abs(spec)))
            assert np.max(np.abs(ev - spec)) / scale < 1e-9


def test_dome_params_validation_and_capability():
    with pytest.raises(ValueError):
        DomeParams(N=1, m=2)
    with pytest.raises(ValueError):
        DomeParams(N=5, m=-1)
    with pytest.raises(ValueError):
        DomeParams(N=5, m=2, J=0.0)
    p = DomeParams(N=5, m=2, J=2.0)
    assert check_pst_spacing(dome_spectrum(p.N, p.m), np.pi)  # even m: PST at T/2
    assert abs(p.period * p.J - 2 * np.pi) < 1e-15


def test_matrix_physical_scaling():
    ham = dome_hamiltonian(DomeParams(N=4, m=2, J=5.0))
    np.testing.assert_allclose(ham.matrix(physical=True), ham.matrix() * 5.0)


def test_grid_requires_two_by_two():
    with pytest.raises(ValueError):
        Grid2D(rows=1, cols=4, m_x=2, m_y=2)
    with pytest.raises(ValueError):
        Grid2D(rows=3, cols=4, m_x=-1, m_y=2)


def test_grid_frequency_table_adds_row_and_column_profiles():
    grid = Grid2D(3, 4, 2, 2)
    wx = dome_hamiltonian(DomeParams(N=4, m=2)).omegas
    wy = dome_hamiltonian(DomeParams(N=3, m=2)).omegas
    table = np.diag(single_excitation_matrix(grid)).reshape(3, 4)
    for r in range(3):
        for c in range(4):
            assert abs(table[r, c] - (wx[c] + wy[r])) < 1e-12


def test_grid_corner_indices_row_major():
    grid = Grid2D(3, 4, 2, 2)
    assert grid.corner_indices() == [0, 3, 8, 11]


def test_grid_matrix_is_symmetric_with_correct_bonds():
    grid = Grid2D(3, 4, 2, 1)
    H = single_excitation_matrix(grid)
    assert H.shape == (12, 12)
    np.testing.assert_allclose(H, H.T, atol=0)
    jx = dome_hamiltonian(DomeParams(N=4, m=2)).couplings
    jy = dome_hamiltonian(DomeParams(N=3, m=1)).couplings
    assert abs(H[0, 1] - jx[0]) < 1e-12  # (0,0)-(0,1) horizontal bond
    assert abs(H[0, 4] - jy[0]) < 1e-12  # (0,0)-(1,0) vertical bond
    assert H[0, 5] == 0.0  # no diagonal bonds


def test_grid_spectrum_is_kronecker_sum():
    grid = Grid2D(3, 4, 2, 2)
    ev = np.sort(np.linalg.eigvalsh(single_excitation_matrix(grid)))
    lx = dome_spectrum(4, 2).values
    ly = dome_spectrum(3, 2).values
    pair_sums = np.sort((ly[:, None] + lx[None, :]).ravel())
    np.testing.assert_allclose(ev, pair_sums, atol=1e-9)


def loop_grid_matrix(table, xb, yb) -> np.ndarray:
    """Grid site matrix filled site by site, bond by bond."""
    R, C = table.shape
    H = np.zeros((R * C, R * C))
    for r in range(R):
        for c in range(C):
            H[r * C + c, r * C + c] = table[r, c]
            if c + 1 < C:
                H[r * C + c, r * C + c + 1] = H[r * C + c + 1, r * C + c] = xb[r, c]
            if r + 1 < R:
                H[r * C + c, (r + 1) * C + c] = H[(r + 1) * C + c, r * C + c] = yb[r, c]
    return H


def test_grid_matrix_matches_site_by_site_fill():
    # Tables from the row and column dome chains: omega_x[c] + omega_y[r],
    # the x couplings on every row, the y couplings across every column.
    for R, C, mx, my in ((2, 2, 0, 0), (3, 4, 2, 1), (5, 3, 102, 2)):
        row = dome_hamiltonian(DomeParams(N=C, m=mx))
        col = dome_hamiltonian(DomeParams(N=R, m=my))
        table = row.omegas[None, :] + col.omegas[:, None]
        xb = np.tile(row.couplings, (R, 1))
        yb = np.repeat(col.couplings[:, None], C, axis=1)
        ref = loop_grid_matrix(table, xb, yb)
        grid = Grid2D(R, C, mx, my, J=3.0)
        np.testing.assert_array_equal(single_excitation_matrix(grid), ref)
        np.testing.assert_array_equal(single_excitation_matrix(grid, physical=True), ref * 3.0)


def test_grid_matrix_physical_scaling():
    grid = Grid2D(2, 3, 2, 2, J=7.0)
    np.testing.assert_allclose(
        single_excitation_matrix(grid, physical=True),
        single_excitation_matrix(grid) * 7.0,
    )


def test_schrieffer_wolff_large_m_limits():
    for N in (3, 4, 5):
        red = schrieffer_wolff_reduce(dome_hamiltonian(DomeParams(N=N, m=1000)))
        target = 0.5 if N % 2 == 0 else -0.5
        assert abs(red.j_eff - target) < 2e-2
        assert abs(red.omega1_eff + (N - 2) / 2.0) < 2e-2
        assert abs(red.omega1_eff - red.omegaN_eff) < 1e-9


def test_schrieffer_wolff_sign_pattern():
    # m large enough that every N <= 8 clears the gap guard.
    for N in range(3, 9):
        red = schrieffer_wolff_reduce(dome_hamiltonian(DomeParams(N=N, m=1000)))
        assert np.sign(red.j_eff) == (-1) ** N


def test_schrieffer_wolff_eigenvalues_track_full_chain():
    # The two end-dominated (lowest) eigenvalues converge as 1/m.
    errors = []
    for m in (100, 1000, 10000):
        ham = dome_hamiltonian(DomeParams(N=5, m=m))
        full = np.linalg.eigvalsh(ham.matrix())[:2]
        eff = schrieffer_wolff_reduce(ham).eigenvalues()
        errors.append(np.max(np.abs(full - eff)))
    slope = np.polyfit(np.log([100, 1000, 10000]), np.log(errors), 1)[0]
    assert abs(slope + 1.0) < 0.5


def test_schrieffer_wolff_breakdown_at_small_m():
    with pytest.raises(PerturbativeBreakdownError):
        schrieffer_wolff_reduce(dome_hamiltonian(DomeParams(N=5, m=1)))


def test_schrieffer_wolff_needs_middle_sites():
    with pytest.raises(ValueError):
        schrieffer_wolff_reduce(dome_hamiltonian(DomeParams(N=2, m=10)))


def test_schrieffer_wolff_jeff_bounded_by_parent_coupling():
    ham = dome_hamiltonian(DomeParams(N=4, m=500))
    red = schrieffer_wolff_reduce(ham)
    assert abs(red.j_eff) <= np.max(ham.couplings)
