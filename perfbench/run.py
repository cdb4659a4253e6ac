"""domechain benchmark: end-to-end CLI metrics and a traced per-layer run.

    python3 perfbench/run.py --workload open_scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from a checkout of the repository (the package is imported from its
`src/`, nothing needs installing).  Each workload runs in a fresh child
interpreter with BLAS/OpenMP pinned to one thread; all outputs go to a
temporary DOMECHAIN_OUTDIR under `.perfbench/` in the checkout.  The last
stdout line is the result JSON; the line before it holds run metadata,
raw (uncalibrated) times, known-defect probes and errors.  See
perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
from collections import defaultdict
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("open_scan", "disorder_mc", "design_scale")
SETUP_SPAWNS = 3
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "decoherence_bell_s": "s",
    "decoherence_qpt_s": "s",
    "evolve_open_s": "s",
    "bell_samples_per_s": "1/s",
    "w_samples_per_s": "1/s",
    "qpt_samples_per_s": "1/s",
    "synth_p50_ms": "ms",
    "evolve_closed_p50_ms": "ms",
    "cascade_p50_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    from tracing import MODULES, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.errors": "count"})
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({"dynamics.rhs_evals": "count", "trace.overhead_share": "share"})
    return units


def child_env(workdir: Path, outdir: Path) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.update(PYTHONPATH=str(ROOT / "src"), DOMECHAIN_OUTDIR=str(outdir),
               TMPDIR=str(workdir / "tmp"), PYTHONHASHSEED="0")
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(res: dict, setup: list[float]) -> dict[str, float]:
    by = defaultdict(list)
    for r in res["records"]:
        by[r["metric"]].append(r)

    def latency(metric: str, scale: float = 1.0) -> float:
        # A failed command counts as infinite latency.
        return statistics.median(r["cal"] * scale if r["ok"] else float("inf") for r in by[metric])

    def throughput(metric: str) -> float:
        return statistics.median(r["samples"] / r["cal"] if r["ok"] else 0.0 for r in by[metric])

    attempted = len(res["records"])
    failed = sum(not r["ok"] for r in res["records"])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(res["iterations"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_share": 1.0 - failed / attempted,
        "decoherence_bell_s": latency("decoherence_bell_s"),
        "decoherence_qpt_s": latency("decoherence_qpt_s"),
        "evolve_open_s": latency("evolve_open_s"),
        "bell_samples_per_s": throughput("bell_samples_per_s"),
        "w_samples_per_s": throughput("w_samples_per_s"),
        "qpt_samples_per_s": throughput("qpt_samples_per_s"),
        "synth_p50_ms": latency("synth_p50_ms", 1e3),
        "evolve_closed_p50_ms": latency("evolve_closed_p50_ms", 1e3),
        "cascade_p50_ms": latency("cascade_p50_ms", 1e3),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One measured run; returns {"info": ..., "result": ...}."""
    started = time.perf_counter()
    workdir = ROOT / ".perfbench"
    outdir = workdir / "tmp" / f"out-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    env = child_env(workdir, outdir)
    try:
        # set-up: fresh interpreter to `domechain.cli` imported
        setup_argv = [sys.executable, "-c", "import domechain.cli"]
        setup, setup_raw = ([], []) if trace else calib.calibrated_setups(
            setup_argv, env, sys.executable, 1 if smoke else SETUP_SPAWNS)
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--size", "smoke" if smoke else "full"]
        limit = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=limit)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    attempted = len(res["records"])
    failed = sum(not r["ok"] for r in res["records"])
    if trace:
        units = per_layer_units()
        values = res["layer"]
    else:
        units = END_TO_END_UNITS
        values = end_to_end(res, setup)
    raw_iters = res.get("iterations_raw", [])
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "nproc": os.cpu_count(), "commit": git_commit(),
        "versions": {**res["versions"], "domechain": domechain_version()},
        "blas_threads": 1, "records": attempted,
        "raw_wall_s": statistics.median(raw_iters) if raw_iters else None,
        "raw_setup_s": statistics.median(setup_raw) if setup_raw else None,
        "defects": res.get("defects"), "absent": res.get("absent"),
        "trace_file": res.get("trace_file"), "passes": res.get("passes"),
        "errors": res["errors"],
    }
    result = {
        "correct": bool(res["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return {"info": info, "result": result}


def domechain_version() -> str:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["version"]


def smoke(seconds: float) -> int:
    """Tiny run of every workload in both modes, checked against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = run_workload(workload, 1, seconds, trace, smoke=True)
            res = out["result"]
            emitted = {k: v["unit"] for k, v in res["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{workload}/trace{trace}: metrics differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload}/trace{trace}: {out['info']['errors']}")
            print(json.dumps({"workload": workload, "trace": trace, "correct": res["correct"],
                              "attempted": res["attempted"], "failed": res["failed"]}))
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, self-check")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "domechain" / "cli.py").is_file():
        print(f"no domechain sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(min(args.seconds, 1.0))
    if args.workload is None:
        p.error("--workload is required")
    out = run_workload(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
