"""One workload run inside a fresh interpreter (started by run.py).

Drives `domechain.cli.main` in-process as a closed loop with one caller,
repeats the workload's job list for the measured window, runs the small
companion lists of the other workloads briefly (so every end-to-end metric
is reported on every workload), checks each distinct output against its
oracle, and prints one JSON line: a record per execution and, for
--trace 1, the per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib
import workloads
from oracles import OracleMiss
from tracing import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
DEFECT_TIMEOUT_S = 3.0
# Time spent on each other workload's small job list (at least one pass).
COMPANION_S = 4.0


def call_cli(cli, argv) -> tuple[int, str]:
    """`domechain.cli.main(argv)` with its output captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a harness error
        rc = 1
        err.write(traceback.format_exc())
    return rc, err.getvalue()


class Runner:
    """Runs jobs, keeps their first output, and records every execution."""

    def __init__(self, cli, outdir: Path) -> None:
        self.cli = cli
        self.outdir = outdir
        self.cal = calib.Calibrator()
        self.first: dict[str, bytes] = {}
        self.jobs: dict[str, workloads.Job] = {}
        self.records: list[dict] = []
        self.errors: list[str] = []

    def run(self, job: workloads.Job, key: str) -> dict:
        """Execute one job, timed and calibrated; returns its record."""
        path = self.outdir / job.output
        path.unlink(missing_ok=True)
        argv = (*job.argv, "--output", job.output)
        (rc, err), raw, cal = self.cal.timed(lambda: call_cli(self.cli, argv))
        ok = rc == 0
        if ok:
            data = path.read_bytes()
            if key not in self.first:
                self.first[key], self.jobs[key] = data, job
            elif data != self.first[key]:
                ok = False
                self.errors.append(f"{key}: output differs from the first run of the same input")
        else:
            self.errors.append(f"{key}: exit {rc}: {err.strip()[-300:]}")
        rec = {"metric": job.metric, "key": key, "raw": raw, "cal": cal, "ok": ok,
               "samples": job.samples}
        self.records.append(rec)
        return rec

    def iteration(self, jobs, tag: str) -> dict:
        recs = [self.run(job, f"{tag}:{i}") for i, job in enumerate(jobs)]
        return {"raw": sum(r["raw"] for r in recs), "cal": sum(r["cal"] for r in recs)}

    def check_outputs(self) -> bool:
        """Oracle-check each distinct output; a miss fails every execution of it."""
        correct = True
        for key, data in self.first.items():
            try:
                self.jobs[key].check(data)
            except OracleMiss as exc:
                correct = False
                self.errors.append(f"{key}: oracle miss: {exc}")
                for rec in self.records:
                    if rec["key"] == key:
                        rec["ok"] = False
        return correct


def defect_probes(cli) -> dict:
    """Known defects, reported but not counted: refusal (exit 2) is success."""
    rc, _ = call_cli(cli, (*workloads.DEFECT_SYNTH, "--output", "defect_synth.json"))
    out = {"synth_N32_m2": {"exit": rc, "ok": rc == 0}}
    code = "import sys\nfrom domechain.cli import main\nsys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, *workloads.DEFECT_NO_RATE, "--output", "defect_evolve.csv"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=DEFECT_TIMEOUT_S)
        probe = {"exit": proc.returncode, "timed_out": False, "ok": proc.returncode == 2}
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        probe = {"exit": None, "timed_out": True, "ok": False}
    probe["seconds"] = time.perf_counter() - t0
    out["evolve_deco_without_rate"] = probe
    return out


def _window_loop(seconds: float, step) -> int:
    """Call step(i) until another call would overrun the window; at least once."""
    t0 = time.perf_counter()
    i = 0
    while True:
        step(i)
        i += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / i > seconds:
            return i


def measure(args, runner: Runner) -> dict:
    primary = workloads.jobs_for(args.workload, args.seed, args.size)
    iters = []
    _window_loop(args.seconds, lambda i: iters.append(runner.iteration(primary, "primary")))
    smoke = args.size == "smoke"
    for other in workloads.WORKLOADS:
        if other != args.workload:
            jobs = workloads.jobs_for(other, args.seed, "smoke" if smoke else "small")
            _window_loop(args.seconds if smoke else COMPANION_S,
                         lambda i: runner.iteration(jobs, other))
    return {"iterations": [it["cal"] for it in iters], "iterations_raw": [it["raw"] for it in iters]}


def measure_traced(args, runner: Runner) -> dict:
    """Alternate untraced and traced passes; per-layer numbers per pass."""
    primary = workloads.jobs_for(args.workload, args.seed, args.size)
    tracer = Tracer()
    plain, traced, factors = [], [], []

    def step(i: int) -> None:
        if i % 2 == 0:
            plain.append(runner.iteration(primary, "primary"))
            return
        tracer.install()
        try:
            it = runner.iteration(primary, "primary")
        finally:
            tracer.uninstall()
        traced.append(it)
        factors.append(it["cal"] / it["raw"])

    n = _window_loop(args.seconds, step)
    if n < 2:
        step(1)
    passes = len(traced)
    scale = statistics.median(factors) / 1e9 / passes
    layer = {}
    for index, name in enumerate(SPAN_NAMES):
        layer[f"{name}.calls"] = tracer.calls[index] / passes
        layer[f"{name}.self_s"] = tracer.self_ns[index] * scale
        layer[f"{name}.errors"] = tracer.errors[index] / passes
    for module, ns in tracer.module_self_ns().items():
        layer[f"{module}.self_s"] = ns * scale
    layer["dynamics.rhs_evals"] = tracer.rhs_evals / passes
    layer["trace.overhead_share"] = (
        statistics.median(it["cal"] for it in traced) / statistics.median(it["cal"] for it in plain) - 1.0
    )
    trace_file = ROOT / ".perfbench" / "traces" / f"{args.workload}.jsonl.gz"
    tracer.write(trace_file)
    return {"layer": layer, "absent": tracer.absent, "trace_file": str(trace_file),
            "passes": {"untraced": len(plain), "traced": passes}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args(argv)

    import domechain
    import domechain.cli as cli
    import numpy
    import scipy

    src = ROOT / "src"
    if src not in Path(domechain.__file__).resolve().parents:
        print(f"domechain imported from {domechain.__file__}, not {src}", file=sys.stderr)
        return 2
    # Warm-up: lazy imports and schema compilation, untimed and unrecorded.
    for name in workloads.WORKLOADS:
        for job in workloads.jobs_for(name, args.seed, "smoke"):
            call_cli(cli, (*job.argv, "--output", "warmup_" + job.output))
    runner = Runner(cli, Path(os.environ["DOMECHAIN_OUTDIR"]))

    result = (measure_traced if args.trace else measure)(args, runner)
    result["correct"] = runner.check_outputs()
    if args.workload == "design_scale":
        result["defects"] = defect_probes(cli)
    result["records"] = runner.records
    result["errors"] = runner.errors[:20]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
