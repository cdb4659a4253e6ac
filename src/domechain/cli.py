"""Command line front end: synth, evolve, sweep, cascade.

Configs are JSON documents validated against strict schemas (unknown
keys rejected); `--set path.key=value` applies dotted overrides before
validation and `--seed/--format/--output` override the
corresponding config fields.  All physical inputs carry units in their
field names (rate_MHz is J/2pi; t1_us, tphi_us are microseconds) and are
converted to angular frequency internally.

Artifacts are written atomically (temp file then rename), CSV output is
RFC 4180 with LF line endings, and every command is deterministic given
(config, seed): reruns produce byte-identical primary outputs.  Exit
codes: 0 success, 2 config validation failure, 3 numerical breakdown or
infeasible plan, with a machine-readable error JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np

from .cascade import (
    CascadeInfeasibleError,
    ChainKind,
    CouplingBudget,
    TransferMode,
    plan_cascade,
)
from .dynamics import (
    DecoherenceConfig,
    default_time_grid,
    evolve_closed,
    evolve_lindblad,
    site_state,
)
from .inverse_eigen import ReconstructionError, compute_weights, eigenvectors, reconstruct
from .metrics import chain_bell_target, corner_w_target, simulate_qpt, subset_fidelities
from .models import (
    DomeParams,
    Grid2D,
    PerturbativeBreakdownError,
    dome_hamiltonian,
    single_excitation_matrix,
)
from .noise import DisorderConfig, DisorderTarget, SweepMetric, sweep_coherent, sweep_decoherence
from .spectrum import Spectrum, dome_spectrum

OUTDIR_ENV = "DOMECHAIN_OUTDIR"

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_SEED = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}

SYNTH_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "N": {"type": "integer", "minimum": 2},
        "m": {"type": "integer", "minimum": 0},
        "rate_MHz": _POSITIVE,
        "spectrum": {"type": "array", "items": {"type": "number"}, "minItems": 2},
        "output": {"type": "string"},
        "format": {"enum": ["csv", "json"]},
    },
}

EVOLVE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "N": {"type": "integer", "minimum": 2},
        "m": {"type": "integer", "minimum": 0},
        "rows": {"type": "integer", "minimum": 2},
        "cols": {"type": "integer", "minimum": 2},
        "m_x": {"type": "integer", "minimum": 0},
        "m_y": {"type": "integer", "minimum": 0},
        "rate_MHz": _POSITIVE,
        "decoherence": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"t1_us": _POSITIVE, "tphi_us": _POSITIVE},
        },
        "n_periods": _POSITIVE,
        "points": {"type": "integer", "minimum": 2},
        "output": {"type": "string"},
        "format": {"enum": ["csv", "json"]},
    },
}

_TARGETS = [t.value for t in DisorderTarget]
_METRICS = [m.value for m in SweepMetric]

SWEEP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "metric"],
    "properties": {
        "kind": {"enum": ["coherent", "decoherence"]},
        "metric": {"enum": _METRICS},
        "N": {"type": "integer", "minimum": 2},
        "rows": {"type": "integer", "minimum": 2},
        "cols": {"type": "integer", "minimum": 2},
        "m_values": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "target": {"enum": _TARGETS},
        "sigma": {"type": "number", "minimum": 0},
        "sigmas": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 1,
        },
        "samples": {"type": "integer", "minimum": 1},
        "seed": _SEED,
        "t1_us_values": {"type": "array", "items": _POSITIVE, "minItems": 1},
        "tphi_us_values": {"type": "array", "items": _POSITIVE, "minItems": 1},
        "fixed_t1_us": _POSITIVE,
        "fixed_tphi_us": _POSITIVE,
        "rate_MHz": _POSITIVE,
        "output": {"type": "string"},
        "format": {"enum": ["csv", "json"]},
    },
}

CASCADE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "N", "j_max_MHz", "j_min_MHz"],
    "properties": {
        "kind": {"enum": ["line", "dome"]},
        "N": {"type": "integer", "minimum": 2},
        "k": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 0},
        "mode": {"enum": ["pst", "fst"]},
        "j_max_MHz": _POSITIVE,
        "j_min_MHz": _POSITIVE,
        "output": {"type": "string"},
        "format": {"enum": ["json"]},
    },
}

SCHEMAS = {
    "synth": SYNTH_SCHEMA,
    "evolve": EVOLVE_SCHEMA,
    "sweep": SWEEP_SCHEMA,
    "cascade": CASCADE_SCHEMA,
}

# Compiled once; the suite checks each schema against its metaschema.
_VALIDATORS = {k: jsonschema.validators.validator_for(s)(s) for k, s in SCHEMAS.items()}


class ConfigError(ValueError):
    """Config rejected before execution (exit code 2)."""


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _rate_rad_per_s(cfg: dict) -> float:
    """Angular frequency J from rate_MHz; 1 rad/s when unspecified."""
    if "rate_MHz" in cfg:
        return 2.0 * np.pi * cfg["rate_MHz"] * 1e6
    return 1.0


def _resolve_output(cfg: dict, command: str, fmt: str) -> Path:
    name = cfg.get("output") or f"{command}.{fmt}"
    path = Path(name)
    if not path.is_absolute():
        path = Path(os.environ.get(OUTDIR_ENV, ".")) / path
    return path


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_text(header, rows) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_synth(cfg: dict) -> Path:
    """Reconstruct a chain from its spectrum and write all artifacts."""
    has_dome = "N" in cfg or "m" in cfg
    has_spec = "spectrum" in cfg
    if has_dome == has_spec:
        raise ConfigError("provide either N and m, or an explicit spectrum")
    rate = _rate_rad_per_s(cfg)
    if has_dome:
        if "N" not in cfg or "m" not in cfg:
            raise ConfigError("dome synthesis needs both N and m")
        spec = dome_spectrum(cfg["N"], cfg["m"], rate)
    else:
        values = np.asarray(cfg["spectrum"], dtype=float)
        spec = Spectrum(values=values, rate_J=rate)
    ham = reconstruct(spec)
    ws = compute_weights(spec)
    basis = eigenvectors(ham, ws)
    fmt = cfg.get("format", "json")
    path = _resolve_output(cfg, "synth", fmt)
    if fmt == "json":
        _write_json(
            path,
            {
                "rate_J_rad_per_s": rate,
                "spectrum": spec.values.tolist(),
                "weights": ws.weights.tolist(),
                "omegas": ham.omegas.tolist(),
                "couplings": ham.couplings.tolist(),
                "eigenvectors": basis.matrix.tolist(),
            },
        )
    else:
        rows = []
        for i, v in enumerate(ham.omegas, start=1):
            rows.append(["omega", i, "", _fmt(v)])
        for i, v in enumerate(ham.couplings, start=1):
            rows.append(["coupling", i, "", _fmt(v)])
        for s, v in enumerate(spec.values, start=1):
            rows.append(["lambda", s, "", _fmt(v)])
        for s, v in enumerate(ws.weights, start=1):
            rows.append(["weight", s, "", _fmt(v)])
        for s in range(basis.matrix.shape[0]):
            for n in range(basis.matrix.shape[1]):
                rows.append(["eigenvector", s + 1, n + 1, _fmt(basis.matrix[s, n])])
        _write_atomic(path, _csv_text(["quantity", "i", "j", "value"], rows))
    return path


def _evolve_system(cfg: dict):
    """(site matrix in rad/s, period, n_sites, bell target or W target, grid?)."""
    chain_keys = {"N", "m"} & cfg.keys()
    grid_keys = {"rows", "cols", "m_x", "m_y"} & cfg.keys()
    rate = _rate_rad_per_s(cfg)
    if chain_keys and not grid_keys:
        if chain_keys != {"N", "m"}:
            raise ConfigError("chain evolution needs both N and m")
        ham = dome_hamiltonian(DomeParams(N=cfg["N"], m=cfg["m"], J=rate))
        return ham, ham.matrix(physical=True), ham.period, ham.n, None
    if grid_keys and not chain_keys:
        if grid_keys != {"rows", "cols", "m_x", "m_y"}:
            raise ConfigError("grid evolution needs rows, cols, m_x, and m_y")
        grid = Grid2D(cfg["rows"], cfg["cols"], cfg["m_x"], cfg["m_y"], J=rate)
        H = single_excitation_matrix(grid, physical=True)
        return grid, H, grid.period, grid.rows * grid.cols, grid
    raise ConfigError("provide either chain keys (N, m) or grid keys")


def _evolve_times(cfg: dict, period: float) -> tuple[np.ndarray, list[float]]:
    """Output grid with T/4 and T/2 placed exactly, and those marked times."""
    n_periods = cfg.get("n_periods", 1.0)
    if "points" in cfg:
        times = np.linspace(0.0, period * n_periods, cfg["points"])
    else:
        times = default_time_grid(period, n_periods)
    marked = [t for t in (period / 4, period / 2) if t <= times[-1] + 1e-15]
    for t in marked:
        times[int(np.argmin(np.abs(times - t)))] = t
    return times, marked


def _table_lines(table: np.ndarray, tails) -> list[str]:
    """Each row of `table` as comma-joined _fmt cells, then a comma and its tail cell.

    One %-template per row prints what _fmt prints; no numeric cell needs
    CSV quoting, so the lines equal csv.writer's.
    """
    template = "%.12g," * table.shape[1]
    return [template % tuple(row) + tail for row, tail in zip(table.tolist(), tails)]


def cmd_evolve(cfg: dict) -> Path:
    """Propagate |site 1> and write the population/fidelity trajectory."""
    if "decoherence" in cfg and "rate_MHz" not in cfg:
        # The default rate (J = 1 rad/s) is meaningless against microsecond T1/Tphi.
        raise ConfigError("decoherence needs rate_MHz")
    system, H, period, n_sites, grid = _evolve_system(cfg)
    times, marked = _evolve_times(cfg, period)

    deco = None
    if "decoherence" in cfg:
        d = cfg["decoherence"]
        deco = DecoherenceConfig(
            t1=d["t1_us"] * 1e-6 if "t1_us" in d else None,
            t_phi=d["tphi_us"] * 1e-6 if "tphi_us" in d else None,
        )

    psi0 = site_state(n_sites, 1)
    if deco is None:
        traj = evolve_closed(H, psi0, times)
        frames = traj.states
    else:
        traj = evolve_lindblad(H, np.outer(psi0, psi0.conj()), times, deco)
        frames = traj.rhos

    if grid is None:
        sites, target = (1, n_sites), chain_bell_target(n_sites)
        fidelity_name = "bell_fidelity"
    else:
        sites = tuple(i + 1 for i in grid.corner_indices())
        target = corner_w_target(grid.rows, grid.cols)
        fidelity_name = "w_fidelity"
    table = np.column_stack(
        [times / period, traj.site_populations(), subset_fidelities(frames, sites, target)]
    )

    qpt = {}
    if grid is None:
        for t in marked:
            _, fid = simulate_qpt(system, deco, t_end=t)
            qpt[t] = _fmt(fid)

    fmt = cfg.get("format", "csv")
    path = _resolve_output(cfg, "evolve", fmt)
    header = ["t_over_T"] + [f"P_{n}" for n in range(1, n_sites + 1)]
    header += [fidelity_name, "qpt_fidelity"]
    lines = _table_lines(table, [qpt.get(t, "") for t in times.tolist()])
    if fmt == "csv":
        _write_atomic(path, "".join(f"{line}\n" for line in [",".join(header), *lines]))
    else:
        _write_json(path, {"columns": header, "rows": [line.split(",") for line in lines]})
    return path


def _sweep_coherent(cfg: dict):
    metric = SweepMetric(cfg["metric"])
    if "target" not in cfg or "seed" not in cfg:
        raise ConfigError("coherent sweeps need target and seed")
    if "sigma" not in cfg and "sigmas" not in cfg:
        raise ConfigError("coherent sweeps need sigma or sigmas")
    sigmas = cfg.get("sigmas", [cfg.get("sigma")])
    dcfg = DisorderConfig(
        target=DisorderTarget(cfg["target"]),
        sigma=float(sigmas[0]),
        seed=cfg["seed"],
        samples=cfg.get("samples"),
    )
    m_values = cfg.get("m_values", [2, 102])
    rate = _rate_rad_per_s(cfg)
    rows = []
    for m in m_values:
        if metric is SweepMetric.W_AT_QUARTER_T:
            if "rows" not in cfg or "cols" not in cfg:
                raise ConfigError("the corner metric needs rows and cols")
            system = Grid2D(cfg["rows"], cfg["cols"], m, m, J=rate)
        else:
            if "N" not in cfg:
                raise ConfigError("chain sweeps need N")
            system = DomeParams(N=cfg["N"], m=m, J=rate)
        result = sweep_coherent(system, dcfg, metric, sigmas=sigmas)
        for j in range(result.axis.size):
            rows.append(
                [
                    "coherent",
                    cfg["metric"],
                    m,
                    "sigma_over_J",
                    _fmt(result.axis[j]),
                    "",
                    "",
                    _fmt(result.mean[j]),
                    _fmt(result.std[j]),
                    int(result.samples[j]),
                    int(result.failures[j]),
                ]
            )
    return rows


def _sweep_decoherence(cfg: dict):
    metric = SweepMetric(cfg["metric"])
    if "N" not in cfg:
        raise ConfigError("decoherence scans need N")
    kwargs = {}
    if "m_values" in cfg:
        kwargs["m_values"] = cfg["m_values"]
    if "t1_us_values" in cfg:
        kwargs["t1_values_us"] = cfg["t1_us_values"]
    if "tphi_us_values" in cfg:
        kwargs["tphi_values_us"] = cfg["tphi_us_values"]
    for key in ("fixed_t1_us", "fixed_tphi_us", "rate_MHz"):
        if key in cfg:
            kwargs[key] = cfg[key]
    scan = sweep_decoherence(cfg["N"], metric, **kwargs)
    rows = []
    for i, m in enumerate(scan.m_values):
        for j, t1 in enumerate(scan.t1_values_us):
            rows.append(
                ["decoherence", cfg["metric"], m, "t1_us", _fmt(t1), "",
                 _fmt(scan.fixed_tphi_us), _fmt(scan.t1_scan[i, j]), "", 1, 0]
            )
        for j, tphi in enumerate(scan.tphi_values_us):
            rows.append(
                ["decoherence", cfg["metric"], m, "tphi_us", _fmt(tphi),
                 _fmt(scan.fixed_t1_us), "", _fmt(scan.tphi_scan[i, j]), "", 1, 0]
            )
    return rows


SWEEP_HEADER = [
    "sweep_kind",
    "metric",
    "m",
    "axis_name",
    "axis_value",
    "fixed_t1_us",
    "fixed_tphi_us",
    "mean",
    "std",
    "samples",
    "failures",
]


def cmd_sweep(cfg: dict) -> Path:
    """Run a disorder or decoherence sweep; CSV plus a config sidecar."""
    rows = _sweep_coherent(cfg) if cfg["kind"] == "coherent" else _sweep_decoherence(cfg)
    fmt = cfg.get("format", "csv")
    path = _resolve_output(cfg, "sweep", fmt)
    if fmt == "csv":
        _write_atomic(path, _csv_text(SWEEP_HEADER, rows))
    else:
        _write_json(path, {"columns": SWEEP_HEADER, "rows": rows})
    _write_json(Path(str(path) + ".config.json"), {"command": "sweep", "config": cfg})
    return path


def cmd_cascade(cfg: dict) -> Path:
    """Plan a cascaded transfer and write the plan JSON."""
    budget = CouplingBudget(
        j_max=2 * np.pi * cfg["j_max_MHz"] * 1e6,
        j_min=2 * np.pi * cfg["j_min_MHz"] * 1e6,
    )
    plan = plan_cascade(
        N=cfg["N"],
        k=cfg.get("k", 1),
        budget=budget,
        kind=ChainKind(cfg["kind"]),
        m=cfg.get("m", 0),
        mode=TransferMode(cfg.get("mode", "pst")),
    )
    path = _resolve_output(cfg, "cascade", "json")
    _write_json(
        path,
        {
            "kind": plan.kind.value,
            "mode": plan.mode.value,
            "n_sites": plan.n_sites,
            "m": plan.m,
            "k": plan.k,
            "budget": {"j_max_MHz": cfg["j_max_MHz"], "j_min_MHz": cfg["j_min_MHz"]},
            "segment_lengths": list(plan.lengths),
            "segment_rates_rad_per_s": list(plan.rates),
            "segment_durations_s": list(plan.durations),
            "total_duration_s": plan.total_duration,
            "asymptotic_duration_s": plan.asymptotic_duration,
            "first_segment": plan.first_segment.value,
            "feasible": True,
        },
    )
    return path


COMMANDS = {
    "synth": cmd_synth,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
    "cascade": cmd_cascade,
}


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} crosses a non-object value")
    node[parts[-1]] = value


def _error(kind: str, detail: str, **extra) -> None:
    payload = {"error": kind, "detail": detail}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by later calls.

    Parsing leaves it unchanged: `append` copies its default list.
    """
    parser = argparse.ArgumentParser(
        prog="domechain",
        description="Synthesize, evolve, sweep, and plan transfer chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--seed", type=int)
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--output", type=Path)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg: dict = {}
        if args.config is not None:
            try:
                cfg = json.loads(args.config.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            if not isinstance(cfg, dict):
                raise ConfigError("config root must be a JSON object")
        for assignment in args.set:
            _apply_set(cfg, assignment)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.format is not None:
            cfg["format"] = args.format
        if args.output is not None:
            cfg["output"] = str(args.output)
        error = jsonschema.exceptions.best_match(_VALIDATORS[args.command].iter_errors(cfg))
        if error is not None:
            raise ConfigError(error.message)
        path = COMMANDS[args.command](cfg)
    except (ConfigError, ValueError, TypeError) as exc:
        _error("validation", str(exc))
        return 2
    except CascadeInfeasibleError as exc:
        _error(
            "infeasible",
            str(exc),
            limiting_segment=exc.segment_index,
            segment_length=exc.length,
            required_rate_rad_per_s=exc.required_rate,
        )
        return 3
    except (ReconstructionError, PerturbativeBreakdownError, RuntimeError) as exc:
        _error("numerical", str(exc))
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
