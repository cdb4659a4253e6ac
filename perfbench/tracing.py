"""Spans around domechain's layer boundaries, installed from outside.

The package binds names with `from .x import y`, so a function is wrapped
at every module attribute (and class attribute, for methods) bound to it,
not only where it is defined.  Spans carry name, start, end and parent,
stay in memory, and are written out when the run ends.  A function that
no longer exists is reported as absent; its counters stay at zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute path) of every wrapped public function, grouped by
# the layer (module of src/domechain) that owns it.
TARGETS = (
    ("cli", "main"),
    ("noise", "sweep_coherent"),
    ("noise", "sweep_decoherence"),
    ("noise", "perturb"),
    ("dynamics", "eigendecompose"),
    ("dynamics", "ClosedPropagator.apply"),
    ("dynamics", "evolve_closed"),
    ("dynamics", "evolve_lindblad"),
    ("metrics", "simulate_qpt"),
    ("metrics", "process_matrix"),
    ("metrics", "reduce_to_sites"),
    ("metrics", "state_fidelity"),
    ("models", "dome_hamiltonian"),
    ("models", "single_excitation_matrix"),
    ("inverse_eigen", "reconstruct"),
    ("inverse_eigen", "compute_weights"),
    ("inverse_eigen", "eigenvectors"),
    ("cascade", "plan_cascade"),
    ("cascade", "max_coupling"),
    ("spectrum", "dome_spectrum"),
    ("chain", "TridiagonalHamiltonian.matrix"),
)
MODULES = tuple(dict.fromkeys(m for m, _ in TARGETS))
SPAN_NAMES = tuple(f"{m}.{a}" for m, a in TARGETS)


def _resolve(module: str, path: str):
    """(owner object, attribute name, original) or None if absent."""
    try:
        owner = importlib.import_module(f"domechain.{module}")
    except ImportError:
        return None
    *parents, leaf = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, leaf, None)
    return None if original is None else (owner, leaf, original)


class Tracer:
    """Collects spans and per-function counters while installed."""

    def __init__(self) -> None:
        self.spans: list = []  # (id, target index, start ns, end ns, parent id)
        self.calls = [0] * len(TARGETS)
        self.errors = [0] * len(TARGETS)
        self.self_ns = [0] * len(TARGETS)
        self.rhs_evals = 0
        self.absent = []
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)  # reserve the id (slot + 1); filled in on exit
            parent = stack[-1][0] if stack else 0
            frame = [slot + 1, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[index] += 1
                self.self_ns[index] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[slot] = (slot + 1, index, start, end, parent)

        return wrapper

    def install(self) -> None:
        """Wrap every target at each domechain attribute bound to it."""
        self.absent = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "domechain"]
        for index, (module, path) in enumerate(TARGETS):
            found = _resolve(module, path)
            if found is None:
                self.absent.append(SPAN_NAMES[index])
                continue
            owner, leaf, original = found
            wrapper = self._wrap(index, original)
            holders = [owner] if "." in path else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, value))
                        setattr(holder, attr, wrapper)
        dynamics = sys.modules.get("domechain.dynamics")
        solve_ivp = getattr(dynamics, "solve_ivp", None)
        if solve_ivp is None:
            self.absent.append("dynamics.solve_ivp")
            return

        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            self.rhs_evals += int(sol.nfev)
            return sol

        self._patches.append((dynamics, "solve_ivp", solve_ivp))
        dynamics.solve_ivp = counted

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches = []

    def module_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(MODULES, 0)
        for (module, _), ns in zip(TARGETS, self.self_ns):
            out[module] += ns
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: id, name, start_ns, end_ns, parent id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span_id, index, start, end, parent in self.spans:
                fh.write(json.dumps([span_id, SPAN_NAMES[index], start, end, parent]) + "\n")
