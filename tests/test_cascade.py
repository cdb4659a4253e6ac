"""Segmentation arithmetic, budget feasibility, and plan execution.

Plans are executed by `run_cascade`, a dense `scipy.linalg.expm` of each
segment's window in turn, which shares no code with the package's
propagators.  `plan_per_segment`, which evaluates the peak coupling once
per segment, is the reference for `plan_cascade`, which evaluates it once
per distinct segment length.
"""

import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from domechain import cascade, cli
from domechain.cascade import (
    CascadeInfeasibleError,
    CascadePlan,
    CouplingBudget,
    TransferMode,
    feasible_N,
    max_coupling,
    plan_cascade,
    _segment_lengths,
)
from domechain.models import DomeParams, single_excitation_matrix

PST = TransferMode.PST


def budget(j_max=1000.0, j_min=1.0):
    return CouplingBudget(j_max=j_max, j_min=j_min)


def test_segment_lengths_examples():
    assert _segment_lengths(40, 4) == (11, 11, 11, 10)
    assert _segment_lengths(10, 1) == (10,)
    assert _segment_lengths(10, 9) == (2,) * 9
    assert _segment_lengths(9, 2) == (5, 5)


def test_segment_lengths_cover_all_sites():
    for N in (5, 17, 64, 401):
        for k in (1, 2, 3, 7):
            if k > N - 1:
                continue
            lengths = _segment_lengths(N, k)
            assert sum(lengths) == N + k - 1
            assert min(lengths) >= 2
            assert max(lengths) - min(lengths) <= 1


def test_segment_lengths_validation():
    with pytest.raises(ValueError):
        _segment_lengths(5, 0)
    with pytest.raises(ValueError):
        _segment_lengths(5, 5)


@pytest.mark.parametrize("N, k", [(10.5, 2), (10, 2.5), (np.nan, 2), (10, np.inf)],
                         ids=["fractional-N", "fractional-k", "nan-N", "inf-k"])
def test_plan_refuses_non_integer_or_small_sizes(N, k):
    # Before the sizes were read as integers, N = 10.5 planned segments of
    # 6.0 sites and k = 2.5 died with a TypeError.
    with pytest.raises(ValueError):
        plan_cascade(N, k, CouplingBudget(1e9, 1), 2, mode=PST)


def test_plan_stores_integral_float_sizes_as_ints():
    plan = plan_cascade(10.0, np.int64(2), CouplingBudget(1e9, 1), 2, mode=PST)
    assert (plan.n_sites, plan.k, plan.lengths) == (10, 2, (6, 5))
    assert all(type(v) is int for v in (plan.n_sites, plan.k, *plan.lengths))


def test_max_coupling_line():
    assert abs(max_coupling(400) - 100.0) < 1e-12  # midpoint of an even line
    assert abs(max_coupling(64) - 16.0) < 1e-12


def test_max_coupling_dome():
    # Below the large-N envelope m N^2 / 8.
    assert 0 < max_coupling(9, m=10) < 10 * 81 / 8.0
    # The one shape parameter is an integer >= 0 at every entry point.
    for m in (-1, 2.5):
        with pytest.raises(ValueError, match="m must be an integer >= 0"):
            max_coupling(9, m=m)
        with pytest.raises(ValueError, match="m must be an integer >= 0"):
            plan_cascade(9, 2, budget(), m, mode=PST)
        with pytest.raises(ValueError, match="m must be an integer >= 0"):
            feasible_N(budget(), m)


def test_budget_validation():
    with pytest.raises(ValueError):
        CouplingBudget(j_max=1.0, j_min=1.0)
    with pytest.raises(ValueError):
        CouplingBudget(j_max=1.0, j_min=-1.0)
    # A rate that overflowed to inf is named, not read as a budget order.
    with pytest.raises(ValueError, match="j_max must be finite"):
        CouplingBudget(j_max=np.inf, j_min=1.0)
    with pytest.raises(ValueError, match="j_max must be finite"):
        CouplingBudget(j_max=np.inf, j_min=np.inf)


def test_plan_boundary_rate_is_feasible():
    # N = 400 line at ratio 100: the segment rate lands exactly on j_min.
    plan = plan_cascade(400, 1, budget(j_max=100.0, j_min=1.0), mode=PST)
    assert plan.rates[0] == pytest.approx(1.0, rel=1e-12)
    assert plan.durations[0] == pytest.approx(np.pi, rel=1e-12)
    assert plan.lengths == (400,)


def test_plan_infeasible_names_limiting_segment():
    with pytest.raises(CascadeInfeasibleError) as exc:
        plan_cascade(401, 1, budget(j_max=100.0, j_min=1.0), mode=PST)
    assert exc.value.segment_index == 0
    assert exc.value.length == 401
    assert exc.value.required_rate < 1.0


def test_plan_rates_hit_the_ceiling():
    plan = plan_cascade(40, 4, budget(), m=10, mode=PST)
    for L, rate in zip(plan.lengths, plan.rates):
        assert abs(rate * max_coupling(L, m=10) - 1000.0) < 1e-9


def test_plan_durations_pst_and_fst():
    pst = plan_cascade(9, 2, budget(), mode=PST)
    fst = plan_cascade(9, 2, budget(), mode=TransferMode.FST)
    assert pst.durations[0] == pytest.approx(np.pi / pst.rates[0])
    assert fst.durations[0] == pytest.approx(np.pi / (2 * fst.rates[0]))
    assert fst.durations[1] == pytest.approx(pst.durations[1])


def test_swap_limit_total_time():
    # k = N - 1 two-site segments: total = pi (N - 1) / (2 j_max) exactly.
    N, j_max = 12, 50.0
    plan = plan_cascade(N, N - 1, budget(j_max=j_max, j_min=1e-6), mode=PST)
    assert plan.total_duration == pytest.approx(np.pi * (N - 1) / (2 * j_max), rel=1e-12)


def test_asymptotic_line_total_is_k_independent():
    totals = [
        plan_cascade(64, k, budget(), mode=PST).asymptotic_duration
        for k in (1, 2, 4, 8)
    ]
    np.testing.assert_allclose(totals, totals[0], rtol=1e-12)


def test_asymptotic_dome_total_scales_as_one_over_k():
    loose = budget(j_max=1000.0, j_min=1e-9)
    base = plan_cascade(64, 1, loose, m=10, mode=PST).asymptotic_duration
    for k in (2, 4, 8):
        tk = plan_cascade(64, k, loose, m=10, mode=PST).asymptotic_duration
        assert tk / base == pytest.approx(1.0 / k, rel=1e-12)


def test_asymptotic_fst_deduction():
    pst = plan_cascade(64, 4, budget(), m=10, mode=PST).asymptotic_duration
    fst = plan_cascade(
        64, 4, budget(), m=10, mode=TransferMode.FST
    ).asymptotic_duration
    assert fst == pytest.approx(pst * (1 - 1 / 8.0), rel=1e-12)


def test_feasible_n_at_ratio_100():
    b = budget(j_max=100.0, j_min=1.0)
    assert feasible_N(b) == 400
    assert feasible_N(b, m=10) == 9


def run_cascade(plan) -> np.ndarray:
    """Final (n_sites + 1)-amplitude state of the plan run from site 1.

    The active segment's chain evolves the amplitudes in its site window
    for its planned duration while all other couplings are off.
    """
    psi = np.zeros(plan.n_sites + 1, dtype=complex)
    psi[1] = 1.0
    start = 1
    for L, rate, tau in zip(plan.lengths, plan.rates, plan.durations):
        H = single_excitation_matrix(DomeParams(N=L, m=plan.m, J=rate), physical=True)
        psi[start : start + L] = scipy.linalg.expm(-1j * H * tau) @ psi[start : start + L]
        start += L - 1
    return psi


def test_execute_pst_cascade_transfers_end_to_end():
    # m = 0 is the line.
    for m, N, k in [(0, 10, 3), (0, 7, 1), (2, 12, 2), (10, 9, 4)]:
        plan = plan_cascade(N, k, budget(j_max=1e4, j_min=1e-9), m=m, mode=PST)
        psi = run_cascade(plan)
        assert abs(abs(psi[N]) ** 2 - 1.0) < 1e-6
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_execute_fst_cascade_splits_end_amplitudes():
    # Fractional transfer needs m = 2 (mod 4); the first segment splits
    # the excitation 50/50 and later segments relay the moving half.
    plan = plan_cascade(
        9, 2, budget(j_max=1e4, j_min=1e-9), m=2,
        mode=TransferMode.FST,
    )
    psi = run_cascade(plan)
    assert abs(abs(psi[1]) ** 2 - 0.5) < 1e-6
    assert abs(abs(psi[9]) ** 2 - 0.5) < 1e-6
    assert abs(psi[0]) < 1e-9


def test_plan_records_inputs():
    plan = plan_cascade(40, 4, budget(), m=10, mode=PST)
    assert plan.n_sites == 40
    assert plan.k == 4
    assert plan.m == 10
    assert plan.lengths == (11, 11, 11, 10)
    assert plan.total_duration == pytest.approx(sum(plan.durations))


def plan_per_segment(N, k, budget, m=0, mode=TransferMode.PST):
    """Reference plan: one `max_coupling` evaluation per segment, in order."""
    lengths = _segment_lengths(N, k)
    rates = []
    for i, L in enumerate(lengths):
        rate = budget.j_max / max_coupling(L, m)
        if rate < budget.j_min * (1.0 - 1e-12):
            raise CascadeInfeasibleError(i, L, rate, budget.j_min)
        rates.append(rate)
    durations = [np.pi / r for r in rates]
    if mode is TransferMode.FST:
        durations[0] /= 2.0
    return CascadePlan(
        mode=mode,
        n_sites=N,
        m=m,
        k=k,
        budget=budget,
        lengths=lengths,
        rates=tuple(rates),
        durations=tuple(durations),
        total_duration=float(sum(durations)),
        asymptotic_duration=cascade._asymptotic_total(N, m, k, budget.j_max, mode),
    )


_CHAINS = [("line", 0)] + [("dome", m) for m in (1, 2, 10, 102)]
_MHZ = 2 * np.pi * 1e6


def _ks(N):
    return sorted({k for k in (1, 2, N // 10, N - 1) if 1 <= k <= N - 1})


def _cli_run(monkeypatch, capsys, planner, argv):
    """Exit code, plan JSON bytes and stderr of `domechain cascade` planned by planner."""
    monkeypatch.setattr(cli, "plan_cascade", planner)
    path = Path(os.environ["DOMECHAIN_OUTDIR"]) / "plan.json"
    code = cli.main(["cascade", *argv, "--output", str(path)])
    data = path.read_bytes() if code == 0 else None
    path.unlink(missing_ok=True)
    return code, data, capsys.readouterr().err


def _cascade_argv(kind, m, mode, N, k, j_max_MHz, j_min_MHz):
    argv = ["--set", f"kind={kind}", "--set", f"N={N}", "--set", f"k={k}",
            "--set", f"mode={mode.value}", "--set", f"j_max_MHz={j_max_MHz!r}",
            "--set", f"j_min_MHz={j_min_MHz!r}"]
    return argv + (["--set", f"m={m}"] if kind == "dome" else [])


def assert_same_plan(plan, want):
    assert plan == want
    for field in ("rates", "durations", "total_duration", "asymptotic_duration"):
        assert np.asarray(getattr(plan, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()


@pytest.mark.parametrize("mode", list(TransferMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("kind, m", _CHAINS, ids=[f"{kind}-{m}" for kind, m in _CHAINS])
def test_plan_matches_per_segment_planning(tmp_path, monkeypatch, capsys, kind, m, mode):
    # Every plan field bitwise and the CLI plan JSON byte for byte, from
    # N = 2 to N = 2000 and k from 1 to N - 1.
    monkeypatch.setenv("DOMECHAIN_OUTDIR", str(tmp_path))
    j_max_MHz, j_min_MHz = 50.0, 1e-9
    b = CouplingBudget(j_max=_MHZ * j_max_MHz, j_min=_MHZ * j_min_MHz)
    for N in (2, 3, 17, 400, 2000):
        for k in _ks(N):
            assert_same_plan(plan_cascade(N, k, b, m, mode=mode), plan_per_segment(N, k, b, m, mode))
            argv = _cascade_argv(kind, m, mode, N, k, j_max_MHz, j_min_MHz)
            got = _cli_run(monkeypatch, capsys, plan_cascade, argv)
            assert got[0] == 0
            assert got == _cli_run(monkeypatch, capsys, plan_per_segment, argv)


@pytest.mark.parametrize("mode", list(TransferMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("kind, m", _CHAINS, ids=[f"{kind}-{m}" for kind, m in _CHAINS])
def test_infeasible_plan_matches_per_segment_planning(tmp_path, monkeypatch, capsys, kind, m, mode):
    # A floor between the two segment rates (only the longer segments fail)
    # and one above both: the same limiting segment, length and rate, and
    # the same exit-3 JSON.
    monkeypatch.setenv("DOMECHAIN_OUTDIR", str(tmp_path))
    j_max_MHz = 50.0
    loose = CouplingBudget(j_max=_MHZ * j_max_MHz, j_min=1e-9)
    for N, k in [(17, 2), (17, 3), (400, 7), (400, 8), (2000, 199), (2000, 285)]:
        rates = sorted(set(plan_per_segment(N, k, loose, m, mode).rates))
        floors = [(rates[-1] + loose.j_max) / 2]
        if len(rates) == 2:
            floors.append(np.sqrt(rates[0] * rates[1]))
        for j_min in floors:
            j_min_MHz = float(j_min / _MHZ)
            b = CouplingBudget(j_max=_MHZ * j_max_MHz, j_min=_MHZ * j_min_MHz)
            with pytest.raises(CascadeInfeasibleError) as want:
                plan_per_segment(N, k, b, m, mode)
            with pytest.raises(CascadeInfeasibleError) as got:
                plan_cascade(N, k, b, m, mode=mode)
            assert (got.value.segment_index, got.value.length, got.value.required_rate) == (
                want.value.segment_index, want.value.length, want.value.required_rate)
            assert str(got.value) == str(want.value)
            argv = _cascade_argv(kind, m, mode, N, k, j_max_MHz, j_min_MHz)
            cli_got = _cli_run(monkeypatch, capsys, plan_cascade, argv)
            assert cli_got[0] == 3
            assert cli_got == _cli_run(monkeypatch, capsys, plan_per_segment, argv)


@pytest.mark.parametrize("k", [8, 399])
def test_plan_evaluates_each_segment_length_once(monkeypatch, k):
    # N = 400 at k = 8 has two segment lengths (50 and 51), at k = 399 one.
    calls = []
    peak = cascade.max_coupling
    monkeypatch.setattr(cascade, "max_coupling", lambda *args: calls.append(args) or peak(*args))
    plan = plan_cascade(400, k, budget(j_min=1e-9), m=10, mode=PST)
    assert len(calls) == len(set(plan.lengths)) <= 2
