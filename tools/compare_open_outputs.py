"""Byte-compare the outputs of this checkout and another one.

    python tools/compare_open_outputs.py OTHER_CHECKOUT

Runs the same commands against this checkout's `src/` and OTHER_CHECKOUT's
`src/`, one fresh interpreter each, and compares every file they write byte
for byte:

- `domechain evolve` CSV and JSON tables, closed and open with T1 only,
  Tphi only and both: chains N = 2..9 with m in {0, 2, 102}, 2x3 and 3x4
  grids, a square 3x3 grid (whose closed evolve runs one chain for both
  axes), a 5x3 grid with m_x != m_y, and one 6x7 grid, whose open evolves
  are above the dense-generator bound, so the sparse branch;
- decoherence scans (`sweep kind=decoherence`) with the Bell and QPT
  metrics, CSVs and config sidecars;
- coherent sweeps (`sweep kind=coherent`) of every disorder target with
  every metric a system takes: chains N = 2, 5, 9 with the Bell and QPT
  metrics, 2x3 and 3x4 grids with the corner metric, m in {2, 102}, at 20
  samples (one thread) and 250 (split over the CPUs from N = 5 on), two
  seeds, CSV and JSON tables with their config sidecars.  N = 2 has no
  middle site, so its middle-frequency sweeps draw nothing;
- `evolve_lindblad`'s full (D+1) x (D+1) states from a rho0 with vacuum
  coherences, for one site block and for a stack with a config list, saved
  with `np.save`;
- every `domechain` command of README's "Command line" block, and every
  job of the three perfbench workloads at seed 1 (their full job lists),
  sweep sidecars included.

Each differing file is printed with the largest absolute change of a
number in it (`.npy` entries, or the numeric cells of a text file whose
other tokens agree).  Exit status 0 when every file is identical and both
trees wrote the same files, 1 otherwise.  The commands run with BLAS on
one thread.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECOHERENCE = {"closed": [], "t1": ["decoherence.t1_us=30"], "tphi": ["decoherence.tphi_us=5"],
               "both": ["decoherence.t1_us=30", "decoherence.tphi_us=5"]}
TARGETS = ("middle_frequencies", "edge_frequencies", "couplings", "all")


def _commands() -> list[tuple[str, list[str]]]:
    """(output name, argv without --output) of every CLI command compared."""
    systems = [(f"N{n}_m{m}", [f"N={n}", f"m={m}"]) for n in range(2, 10) for m in (0, 2, 102)]
    systems += [(f"grid{r}x{c}", [f"rows={r}", f"cols={c}", f"m_x={mx}", f"m_y={my}"])
                for r, c, mx, my in ((2, 3, 2, 1), (3, 4, 2, 1), (3, 3, 2, 2), (5, 3, 102, 2))]
    out = []
    for name, sets in systems:
        for deco, extra in DECOHERENCE.items():
            for fmt in ("csv", "json"):
                argv = ["evolve", "--format", fmt]
                for s in [*sets, "rate_MHz=5", *extra]:
                    argv += ["--set", s]
                out.append((f"evolve_{name}_{deco}.{fmt}", argv))
    for deco, extra in DECOHERENCE.items():  # 42 sites: open, the sparse branch
        argv = ["evolve"]
        for s in ["rows=6", "cols=7", "m_x=2", "m_y=2", "points=3", "n_periods=0.01",
                  "rate_MHz=5", *extra]:
            argv += ["--set", s]
        out.append((f"evolve_grid6x7_{deco}.csv", argv))
    for metric in ("bell_at_quarter_t", "qpt_at_half_t"):
        for n in (3, 5, 9):
            argv = ["sweep"]
            for s in ["kind=decoherence", f"metric={metric}", f"N={n}", "m_values=[2,102]",
                      "t1_us_values=[3,30,300]", "tphi_us_values=[0.5,5,50]", "rate_MHz=5"]:
                argv += ["--set", s]
            out.append((f"scan_{metric}_N{n}.csv", argv))
    coherent = [(f"N{n}", [f"N={n}"], metric) for n in (2, 5, 9)
                for metric in ("bell_at_quarter_t", "qpt_at_half_t")]
    coherent += [(f"grid{r}x{c}", [f"rows={r}", f"cols={c}"], "w_at_quarter_t")
                 for r, c in ((2, 3), (3, 4))]
    for (name, sets, metric), target, samples, seed, fmt in itertools.product(
            coherent, TARGETS, (20, 250), (7, 2**64 - 1), ("csv", "json")):
        argv = ["sweep", "--seed", str(seed), "--format", fmt]
        for s in [*sets, "kind=coherent", f"metric={metric}", f"target={target}",
                  "m_values=[2,102]", "sigmas=[0.25,0.5,1.0]", f"samples={samples}", "rate_MHz=5"]:
            argv += ["--set", s]
        out.append((f"coherent_{name}_{metric}_{target}_{samples}_{seed}.{fmt}", argv))
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = block.split("```bash", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    readme = [shlex.split(line, comments=True) for line in block.splitlines()]
    out += [(f"readme_{i}.out", argv[1:])
            for i, argv in enumerate(a for a in readme if a and a[0] == "domechain")]
    sys.path.append(str(ROOT / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS:
        for i, job in enumerate(workloads.jobs_for(workload, 1, "full")):
            out.append((f"perfbench_{workload}_{i}_{job.output}", list(job.argv)))
    return out


def _lindblad_states(outdir: Path) -> None:
    """Full states of `evolve_lindblad` from seeded rho0 with vacuum coherences."""
    import numpy as np

    from domechain.dynamics import DecoherenceConfig, evolve_lindblad
    from domechain.models import DomeParams, single_excitation_matrix

    rng = np.random.default_rng(20260)
    decos = [DecoherenceConfig(t1=30e-6), DecoherenceConfig(t_phi=5e-6),
             DecoherenceConfig(t1=30e-6, t_phi=5e-6), DecoherenceConfig(t1=3e-6, t_phi=0.5e-6)]
    for n in (2, 3, 5, 9):
        g = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        rho0 = g @ g.conj().T
        rho0 /= np.trace(rho0).real
        params = [DomeParams(N=n, m=m, J=2 * np.pi * 5e6) for m in (0, 2, 102)]
        H = np.stack([single_excitation_matrix(p, physical=True) for p in params])
        times = np.linspace(0.0, params[0].period, 41)
        np.save(outdir / f"lindblad_N{n}_one.npy", evolve_lindblad(H[1], rho0, times, decos[2]))
        np.save(outdir / f"lindblad_N{n}_stack.npy", evolve_lindblad(H, rho0, times, decos))


def _run(outdir: Path) -> None:
    """Write every compared file into outdir with the domechain on sys.path."""
    from domechain import cli

    if Path(cli.__file__).resolve().parents[1] != Path(sys.path[0]).resolve():
        raise SystemExit(f"domechain imported from {cli.__file__}, not {sys.path[0]}")
    os.environ[cli.OUTDIR_ENV] = str(outdir)
    for name, argv in _commands():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([*argv, "--output", name])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {err.getvalue()}")
    _lindblad_states(outdir)


def _largest_change(a: Path, b: Path) -> str:
    """The largest absolute change between the numbers of two files, or why there is none."""
    import numpy as np

    if a.suffix == ".npy":
        x, y = np.load(a), np.load(b)
        return f"{np.max(np.abs(x - y)):.3g}" if x.shape == y.shape else "shapes differ"
    split = lambda p: re.split(r"[\s,\[\]{}:\"]+", p.read_text())
    x, y = split(a), split(b)
    if len(x) != len(y):
        return "layouts differ"
    change = 0.0
    for s, t in zip(x, y):
        if s != t:
            try:
                change = max(change, abs(float(s) - float(t)))
            except ValueError:
                return f"text differs: {s!r} / {t!r}"
    return f"{change:.3g}"


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--run":  # worker: --run SRC OUTDIR
        sys.path.insert(0, argv[1])
        _run(Path(argv[2]))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"this": ROOT, "other": Path(argv[0]).resolve()}
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {}
        for side, root in trees.items():
            dirs[side] = Path(tmp) / side
            dirs[side].mkdir()
            subprocess.run([sys.executable, __file__, "--run", str(root / "src"), str(dirs[side])],
                           env=env, check=True)
        names = {side: sorted(p.name for p in d.iterdir()) for side, d in dirs.items()}
        differ = [n for n in names["this"]
                  if (dirs["other"] / n).is_file()
                  and (dirs["this"] / n).read_bytes() != (dirs["other"] / n).read_bytes()]
        for n in differ:
            print(f"differs: {n} (largest change {_largest_change(dirs['this'] / n, dirs['other'] / n)})")
        if names["this"] != names["other"]:
            print(f"file lists differ: {sorted(set(names['this']) ^ set(names['other']))}")
        print(f"compared {len(names['this'])} files, {len(differ)} differ")
        return int(bool(differ) or names["this"] != names["other"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
