"""The experiment scripts run as the README shows them, at small sizes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_population_dynamics_with_decoherence(tmp_path):
    proc = run_script(
        "run_population_dynamics.py",
        ["--sites", "3", "--m", "2", "--t1-us", "30", "--tphi-us", "5"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "population_dynamics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_over_T", "P_1", "P_2", "P_3", "bell_fidelity"]
    assert len(rows) == 202
    pops = [sum(float(v) for v in row[1:4]) for row in rows[1:]]
    assert all(0.0 <= p <= 1.0 + 1e-9 for p in pops)
    assert pops[-1] < pops[0]  # relaxation leaks population into the vacuum
