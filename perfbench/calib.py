"""CPU-speed calibration shared by the parent and the workload process.

On shared cloud VMs (2-core Intel Xeon, where this was tuned) the effective
CPU speed drifts by up to 2x within a minute, while process CPU time still
equals wall time.  Every timed region is therefore bracketed by a short,
fixed reference computation (pure-Python arithmetic plus small dense
linear algebra, the same mix the domechain commands execute), and times are
reported as calibrated seconds:

    calibrated = raw * speed,   speed ~ REF_NOMINAL_S / reference_seconds

from reference samples taken before, during and after the region, i.e.
the time the work would have taken at the speed where the reference
takes REF_NOMINAL_S.  A slower domechain still reads slower; a slower host
does not.  Raw seconds are printed alongside for inspection.
"""

from __future__ import annotations

import collections
import signal
import statistics
import subprocess
import time

import numpy as np

# Reference duration at nominal speed (about its fast-phase time on a
# 2-core Xeon VM).  Only a unit: comparisons never depend on it.
REF_NOMINAL_S = 0.004

_M = np.add.outer(np.arange(8.0), np.arange(8.0)) / 7.0 + np.diag(np.arange(8.0))


def reference_seconds() -> float:
    """Wall time of one fixed reference computation (about 4 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += (i * i) % 7
    for _ in range(160):
        w, v = np.linalg.eigh(_M)
        acc += float(np.abs(v @ np.exp(1j * w)).sum())
    return time.perf_counter() - t0


# Interpreter start-up is dominated by file reads, unmarshalling and
# shared-library loading, which the in-process reference above does not
# track (measured: it doubled the spread of setup times).  Set-up is
# calibrated instead against a fresh interpreter importing numpy and a few
# stdlib modules, spawned before and after each measured set-up.
SPAWN_REF_NOMINAL_S = 0.12
SPAWN_REF_CODE = "import numpy, json, csv, argparse, fractions, decimal"


def spawn_seconds(argv, env) -> float:
    """Wall time of running argv to completion."""
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def calibrated_setups(argv, env, python: str, count: int) -> tuple[list[float], list[float]]:
    """(calibrated, raw) wall times of `count` runs of argv."""
    ref = [python, "-c", SPAWN_REF_CODE]
    spawn_seconds(argv, env)  # compile bytecode and fill the page cache, untimed
    before = spawn_seconds(ref, env)
    cal, raw = [], []
    for _ in range(count):
        t = spawn_seconds(argv, env)
        after = spawn_seconds(ref, env)
        raw.append(t)
        cal.append(t * SPAWN_REF_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return cal, raw


class Calibrator:
    """Calibrates consecutive timed regions against reference samples.

    References are taken after every region and every SAMPLE_INTERVAL_S
    during it (from a SIGALRM handler in the main thread; the handler's
    time is subtracted from the region).  A region with at least
    MIN_DURING samples gets the mean speed over them and its bracketing
    references: the time average of a speed that drifts while it runs.
    A shorter region gets the median over the last HISTORY references
    (the one after it and those after the regions before it) and any
    taken during it, so one noisy reference does not throw it off.  Main
    thread only.
    """

    SAMPLE_INTERVAL_S = 0.25
    HISTORY = 4
    MIN_DURING = 2

    def __init__(self) -> None:
        self._recent = collections.deque(maxlen=self.HISTORY)
        self._recent.append(REF_NOMINAL_S / reference_seconds())

    def timed(self, fn):
        """Run fn(); return (result, raw_s, calibrated_s)."""
        during = []
        spent = 0.0

        def sample(signum, frame):
            nonlocal spent
            h0 = time.perf_counter()
            during.append(REF_NOMINAL_S / reference_seconds())
            spent += time.perf_counter() - h0

        previous = signal.signal(signal.SIGALRM, sample)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - spent
        before = self._recent[-1]
        self._recent.append(REF_NOMINAL_S / reference_seconds())
        if len(during) >= self.MIN_DURING:
            speed = statistics.fmean([before, *during, self._recent[-1]])
        else:
            speed = statistics.median([*self._recent, *during])
        return result, raw, raw * speed
