"""Dome spectrum values and the PST/FST spectral predicates."""

import math

import numpy as np
import pytest

from domechain.spectrum import (
    FstPhase,
    Spectrum,
    check_pst_spacing,
    dome_spectrum,
    solve_fst_phase,
)


def test_dome_spectrum_n5_m2_values():
    spec = dome_spectrum(5, 2)
    np.testing.assert_allclose(spec.values, [-2, -1, 2, 7, 14], atol=1e-12)


def test_dome_spectrum_gap_law():
    # Gap s -> s+1 is 1 + (s - 1) m in units of J.
    for N in (2, 5, 9, 16):
        for m in (0, 1, 2, 7, 10):
            gaps = np.diff(dome_spectrum(N, m).values)
            s = np.arange(1, N)
            np.testing.assert_allclose(gaps, 1 + (s - 1) * m, atol=1e-12)
            assert np.all(gaps > 0)


def test_dome_spectrum_m0_is_linear():
    spec = dome_spectrum(6, 0)
    np.testing.assert_allclose(np.diff(spec.values), 1.0, atol=1e-15)
    assert abs(spec.values.sum()) < 1e-12


def test_trace_identity_matches_frequency_sum():
    # Sum of eigenvalues equals the sum of the on-site frequencies.
    for N in (3, 5, 8, 13):
        for m in (0, 1, 2, 6, 10):
            lam_sum = dome_spectrum(N, m).values.sum()
            n = np.arange(1, N + 1)
            om_sum = np.sum((n - 1) * (N - n) * m)
            scale = max(1.0, abs(om_sum))
            assert abs(lam_sum - om_sum) / scale < 1e-12


def test_spectrum_requires_increasing_values():
    with pytest.raises(ValueError):
        Spectrum(values=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        Spectrum(values=np.array([1.0, 0.0]))


def test_dome_spectrum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dome_spectrum(0, 2)
    with pytest.raises(ValueError):
        dome_spectrum(5, -1)
    with pytest.raises(ValueError, match="N must be an integer >= 1, got 5.5"):
        dome_spectrum(5.5, 2)
    with pytest.raises(ValueError, match="m must be an integer >= 0, got inf"):
        dome_spectrum(5, math.inf)
    with pytest.raises(ValueError, match="m must be an integer >= 0, got nan"):
        dome_spectrum(5, math.nan)


def test_pst_spacing_even_m_half_period():
    # Gaps 1 + (s-1)m are odd integers for even m, so tau = pi/J works.
    for m in (0, 2, 4, 6, 10, 102):
        spec = dome_spectrum(7, m)
        assert check_pst_spacing(spec, math.pi)
    for m in (1, 3, 5):
        assert not check_pst_spacing(dome_spectrum(7, m), math.pi)


def test_pst_spacing_fails_at_full_period():
    # At tau = T the phases all return to 1: a revival, not a transfer.
    assert not check_pst_spacing(dome_spectrum(5, 2), 2 * math.pi)


def test_pst_spacing_scales_with_the_gaps():
    # Gaps four times the dome's move PST from tau = pi to pi/4 (units of 1/J).
    spec = Spectrum(values=dome_spectrum(5, 2).values * 4.0)
    assert check_pst_spacing(spec, math.pi / 4.0)
    assert not check_pst_spacing(spec, math.pi)


def test_fst_phase_quarter_period_is_bell_angle():
    sol = solve_fst_phase(dome_spectrum(5, 2), math.pi / 2)
    assert sol is not None
    assert abs(sol.theta - math.pi / 4) < 1e-9


def test_fst_phase_half_period_is_pst():
    sol = solve_fst_phase(dome_spectrum(5, 2), math.pi)
    assert sol is not None
    assert sol.theta == 0.0


def test_fst_phase_full_period_is_return():
    sol = solve_fst_phase(dome_spectrum(5, 3), 2 * math.pi)
    assert sol is not None
    assert abs(sol.theta - math.pi / 2) < 1e-9


def test_fst_phase_none_for_odd_m_at_transfer_times():
    spec = dome_spectrum(5, 3)
    assert solve_fst_phase(spec, math.pi) is None
    assert solve_fst_phase(spec, math.pi / 2) is None


def test_fst_phase_none_for_pst_only_m_at_quarter_period():
    for m in (0, 4, 8):
        sol = solve_fst_phase(dome_spectrum(5, m), math.pi / 2)
        assert sol is None or not (0.0 < sol.theta < math.pi / 2)


def test_fst_phase_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        solve_fst_phase(dome_spectrum(5, 2), 0.0)
    with pytest.raises(ValueError):
        check_pst_spacing(dome_spectrum(5, 2), -1.0)


def test_fst_phase_dataclass_bounds():
    with pytest.raises(ValueError):
        FstPhase(theta=2.0, psi=0.0, phi=0.0)


def test_capability_predicates_agree_with_classification():
    # The module's classification by m: even m give PST at T/2, and
    # m = 2 (mod 4) also give the Bell split at T/4.
    for m in range(0, 13):
        spec = dome_spectrum(6, m)
        pst = check_pst_spacing(spec, math.pi)
        fst = solve_fst_phase(spec, math.pi / 2)
        bell = fst is not None and abs(fst.theta - math.pi / 4) < 1e-9
        assert (pst, bell) == (m % 2 == 0, m % 4 == 2)
