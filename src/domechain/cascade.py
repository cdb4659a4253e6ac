"""Coupling-budget planning for cascaded long-distance transfer.

Hardware caps the largest realizable coupling at j_max while decoherence
floors the usable rate at j_min.  A length-N transfer is split into k
segments that share boundary sites (k segments cover N distinct sites
with N + k - 1 site slots); each segment runs as an independent chain
whose rate is pushed up until its largest coupling hits j_max.  The chain
is the dome of shape m, and m alone names it: m = 0 is the engineered
line, m >= 1 a dome.  Line chains gain nothing from splitting (their
segment time is linear in length), while dome chains gain a factor of k
(quadratic in length).

Totals are reported two ways: exactly, from each segment's true maximum
coupling, and asymptotically, from the large-N envelopes

    m = 0:  tau = pi N / (4 j_max)        (k independent)
    m >= 1: tau = pi m N^2 / (8 k j_max)

with a half-segment deduction when the first segment is a fractional
transfer (it runs T/4 instead of T/2).  Segment lengths take at most
two values for any k, so a plan costs one closed-form evaluation per
distinct length and sweeping k up to N - 1 is cheap.  Plans are not
executed here: running one means evolving each segment's window in turn
with `dynamics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import DomeParams, _dome_entries
from .spectrum import _integer

__all__ = [
    "TransferMode",
    "CouplingBudget",
    "CascadePlan",
    "CascadeInfeasibleError",
    "max_coupling",
    "plan_cascade",
    "feasible_N",
]


class TransferMode(Enum):
    PST = "pst"
    FST = "fst"


@dataclass(frozen=True)
class CouplingBudget:
    """Hardware coupling ceiling and decoherence rate floor, in rad/s."""

    j_max: float
    j_min: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.j_max):  # a finite j_max > j_min bounds j_min
            raise ValueError(f"j_max must be finite, got {self.j_max!r}")
        if not self.j_max > self.j_min > 0:
            raise ValueError("budget requires j_max > j_min > 0")


class CascadeInfeasibleError(RuntimeError):
    """Some segment would need a rate below the budget floor."""

    def __init__(self, segment_index: int, length: int, required_rate: float, j_min: float):
        self.segment_index = segment_index
        self.length = length
        self.required_rate = required_rate
        super().__init__(
            f"segment {segment_index} (length {length}) needs rate "
            f"{required_rate:.6g} rad/s below the floor {j_min:.6g} rad/s"
        )


def max_coupling(N: int, m: int = 0) -> float:
    """Largest coupling of a length-N dome chain of shape m, in units of J.

    The maximum of the closed-form coupling array; planning divides the
    ceiling by it.  Its large-N envelopes (N / 4 for the m = 0 line,
    m N^2 / 8 for domes) give the plan's asymptotic total.  `DomeParams`
    checks N and m.
    """
    chain = DomeParams(N=N, m=m)
    return float(np.max(_dome_entries(chain.N, chain.m)[1]))


def _segment_lengths(N: int, k: int) -> tuple[int, ...]:
    """Segment site counts; consecutive segments share one boundary site.

    The N - 1 bonds are split as evenly as possible with the remainder
    given to the earliest segments, so site counts sum to N + k - 1.  N
    (at least 2) and k (at least 1) follow `spectrum._integer`.
    """
    N, k = _integer("N", N, 2), _integer("k", k, 1)
    if N - 1 < k:
        raise ValueError("each segment needs at least one bond (k <= N - 1)")
    q, r = divmod(N - 1, k)
    return tuple(q + 2 if i < r else q + 1 for i in range(k))


def _asymptotic_total(N: int, m: int, k: int, j_max: float, mode: TransferMode) -> float:
    if m == 0:
        total = np.pi * N / (4.0 * j_max)
    else:
        total = np.pi * m * N**2 / (8.0 * k * j_max)
    if mode is TransferMode.FST:
        total -= total / (2.0 * k)
    return float(total)


@dataclass(frozen=True)
class CascadePlan:
    """Feasible segmentation with per-segment rates and durations."""

    mode: TransferMode
    n_sites: int
    m: int
    k: int
    budget: CouplingBudget
    lengths: tuple[int, ...]
    rates: tuple[float, ...]
    durations: tuple[float, ...]
    total_duration: float
    asymptotic_duration: float


def plan_cascade(
    N: int, k: int, budget: CouplingBudget, m: int = 0, *, mode: TransferMode
) -> CascadePlan:
    """Size k segments and push each rate to the coupling ceiling.

    Each segment's rate is j_max divided by its unit-rate maximum
    coupling, so its largest coupling lands exactly on the ceiling.  A
    fractional-transfer plan runs its first segment for a quarter period
    instead of half.  Every segment is a dome of shape m, the line at
    m = 0; `max_coupling` refuses an m that is negative or not integral.
    Raises CascadeInfeasibleError (naming the limiting segment) if any rate
    falls below j_min.
    """
    lengths = _segment_lengths(N, k)
    peaks = {L: max_coupling(L, m) for L in set(lengths)}
    rates = []
    for i, L in enumerate(lengths):
        rate = budget.j_max / peaks[L]
        if rate < budget.j_min * (1.0 - 1e-12):
            raise CascadeInfeasibleError(i, L, rate, budget.j_min)
        rates.append(rate)
    durations = [np.pi / r for r in rates]
    if mode is TransferMode.FST:
        durations[0] /= 2.0
    return CascadePlan(
        mode=mode,
        n_sites=int(N),
        m=int(m),
        k=int(k),
        budget=budget,
        lengths=lengths,
        rates=tuple(rates),
        durations=tuple(durations),
        total_duration=float(sum(durations)),
        asymptotic_duration=_asymptotic_total(N, m, k, budget.j_max, mode),
    )


def feasible_N(budget: CouplingBudget, m: int = 0) -> int:
    """Largest single-segment N whose peak coupling fits the budget.

    Uses the asymptotic envelopes at rate j_min: N = 4 j_max / j_min for
    the m = 0 line and N = sqrt(8 j_max / (m j_min)) for domes, rounded to
    the nearest integer.  It builds no chain, so it checks m itself, by
    the rule `DomeParams` applies.
    """
    m = _integer("m", m, 0)
    ratio = budget.j_max / budget.j_min
    if m == 0:
        return int(round(4.0 * ratio))
    return int(round(np.sqrt(8.0 * ratio / m)))
