"""Segmentation arithmetic, budget feasibility, and plan execution.

Plans are executed by `run_cascade`, a dense `scipy.linalg.expm` of each
segment's window in turn, which shares no code with the package's
propagators.
"""

import numpy as np
import pytest
import scipy.linalg

from domechain.cascade import (
    CascadeInfeasibleError,
    ChainKind,
    CouplingBudget,
    TransferMode,
    feasible_N,
    max_coupling,
    plan_cascade,
    segment_lengths,
)
from domechain.models import DomeParams, dome_hamiltonian


def budget(j_max=1000.0, j_min=1.0):
    return CouplingBudget(j_max=j_max, j_min=j_min)


def test_segment_lengths_examples():
    assert segment_lengths(40, 4) == (11, 11, 11, 10)
    assert segment_lengths(10, 1) == (10,)
    assert segment_lengths(10, 9) == (2,) * 9
    assert segment_lengths(9, 2) == (5, 5)


def test_segment_lengths_cover_all_sites():
    for N in (5, 17, 64, 401):
        for k in (1, 2, 3, 7):
            if k > N - 1:
                continue
            lengths = segment_lengths(N, k)
            assert sum(lengths) == N + k - 1
            assert min(lengths) >= 2
            assert max(lengths) - min(lengths) <= 1


def test_segment_lengths_validation():
    with pytest.raises(ValueError):
        segment_lengths(5, 0)
    with pytest.raises(ValueError):
        segment_lengths(5, 5)


def test_max_coupling_line():
    assert abs(max_coupling(ChainKind.LINE, 400) - 100.0) < 1e-12  # midpoint of an even line
    assert abs(max_coupling(ChainKind.LINE, 64, J=2.0) - 32.0) < 1e-12


def test_max_coupling_dome():
    # Below the large-N envelope m N^2 / 8.
    assert 0 < max_coupling(ChainKind.DOME, 9, m=10) < 10 * 81 / 8.0
    with pytest.raises(ValueError):
        max_coupling(ChainKind.DOME, 9, m=0)


def test_budget_validation():
    with pytest.raises(ValueError):
        CouplingBudget(j_max=1.0, j_min=1.0)
    with pytest.raises(ValueError):
        CouplingBudget(j_max=1.0, j_min=-1.0)


def test_plan_boundary_rate_is_feasible():
    # N = 400 line at ratio 100: the segment rate lands exactly on j_min.
    plan = plan_cascade(400, 1, budget(j_max=100.0, j_min=1.0), ChainKind.LINE)
    assert plan.rates[0] == pytest.approx(1.0, rel=1e-12)
    assert plan.durations[0] == pytest.approx(np.pi, rel=1e-12)
    assert plan.lengths == (400,)


def test_plan_infeasible_names_limiting_segment():
    with pytest.raises(CascadeInfeasibleError) as exc:
        plan_cascade(401, 1, budget(j_max=100.0, j_min=1.0), ChainKind.LINE)
    assert exc.value.segment_index == 0
    assert exc.value.length == 401
    assert exc.value.required_rate < 1.0


def test_plan_rates_hit_the_ceiling():
    plan = plan_cascade(40, 4, budget(), ChainKind.DOME, m=10)
    for L, rate in zip(plan.lengths, plan.rates):
        assert abs(rate * max_coupling(ChainKind.DOME, L, m=10) - 1000.0) < 1e-9


def test_plan_durations_pst_and_fst():
    pst = plan_cascade(9, 2, budget(), ChainKind.LINE)
    fst = plan_cascade(9, 2, budget(), ChainKind.LINE, mode=TransferMode.FST)
    assert pst.durations[0] == pytest.approx(np.pi / pst.rates[0])
    assert fst.durations[0] == pytest.approx(np.pi / (2 * fst.rates[0]))
    assert fst.durations[1] == pytest.approx(pst.durations[1])


def test_swap_limit_total_time():
    # k = N - 1 two-site segments: total = pi (N - 1) / (2 j_max) exactly.
    N, j_max = 12, 50.0
    plan = plan_cascade(N, N - 1, budget(j_max=j_max, j_min=1e-6), ChainKind.LINE)
    assert plan.total_duration == pytest.approx(np.pi * (N - 1) / (2 * j_max), rel=1e-12)


def test_asymptotic_line_total_is_k_independent():
    totals = [
        plan_cascade(64, k, budget(), ChainKind.LINE).asymptotic_duration
        for k in (1, 2, 4, 8)
    ]
    np.testing.assert_allclose(totals, totals[0], rtol=1e-12)


def test_asymptotic_dome_total_scales_as_one_over_k():
    loose = budget(j_max=1000.0, j_min=1e-9)
    base = plan_cascade(64, 1, loose, ChainKind.DOME, m=10).asymptotic_duration
    for k in (2, 4, 8):
        tk = plan_cascade(64, k, loose, ChainKind.DOME, m=10).asymptotic_duration
        assert tk / base == pytest.approx(1.0 / k, rel=1e-12)


def test_asymptotic_fst_deduction():
    pst = plan_cascade(64, 4, budget(), ChainKind.DOME, m=10).asymptotic_duration
    fst = plan_cascade(
        64, 4, budget(), ChainKind.DOME, m=10, mode=TransferMode.FST
    ).asymptotic_duration
    assert fst == pytest.approx(pst * (1 - 1 / 8.0), rel=1e-12)


def test_feasible_n_at_ratio_100():
    b = budget(j_max=100.0, j_min=1.0)
    assert feasible_N(b, ChainKind.LINE) == 400
    assert feasible_N(b, ChainKind.DOME, m=10) == 9


def run_cascade(plan) -> np.ndarray:
    """Final (n_sites + 1)-amplitude state of the plan run from site 1.

    The active segment's chain evolves the amplitudes in its site window
    for its planned duration while all other couplings are off.
    """
    psi = np.zeros(plan.n_sites + 1, dtype=complex)
    psi[1] = 1.0
    start = 1
    for L, rate, tau in zip(plan.lengths, plan.rates, plan.durations):
        H = dome_hamiltonian(DomeParams(N=L, m=plan.m, J=rate)).matrix(physical=True)
        psi[start : start + L] = scipy.linalg.expm(-1j * H * tau) @ psi[start : start + L]
        start += L - 1
    return psi


def test_execute_pst_cascade_transfers_end_to_end():
    for kind, m, N, k in [
        (ChainKind.LINE, 0, 10, 3),
        (ChainKind.LINE, 0, 7, 1),
        (ChainKind.DOME, 2, 12, 2),
        (ChainKind.DOME, 10, 9, 4),
    ]:
        plan = plan_cascade(N, k, budget(j_max=1e4, j_min=1e-9), kind, m=m)
        psi = run_cascade(plan)
        assert abs(abs(psi[N]) ** 2 - 1.0) < 1e-6
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_execute_fst_cascade_splits_end_amplitudes():
    # Fractional transfer needs m = 2 (mod 4); the first segment splits
    # the excitation 50/50 and later segments relay the moving half.
    plan = plan_cascade(
        9, 2, budget(j_max=1e4, j_min=1e-9), ChainKind.DOME, m=2,
        mode=TransferMode.FST,
    )
    psi = run_cascade(plan)
    assert abs(abs(psi[1]) ** 2 - 0.5) < 1e-6
    assert abs(abs(psi[9]) ** 2 - 0.5) < 1e-6
    assert abs(psi[0]) < 1e-9


def test_plan_records_inputs():
    plan = plan_cascade(40, 4, budget(), ChainKind.DOME, m=10)
    assert plan.n_sites == 40
    assert plan.k == 4
    assert plan.m == 10
    assert plan.kind is ChainKind.DOME
    assert plan.lengths == (11, 11, 11, 10)
    assert plan.total_duration == pytest.approx(sum(plan.durations))
