"""Command line front end: synth, evolve, sweep, cascade.

Configs are JSON documents; `--set path.key=value` applies dotted
overrides before validation and `--format/--output` (and, for `sweep`,
`--seed`) override the corresponding config fields.

`_parse` reads argv in one loop over its tokens, without argparse (whose
import and parser build cost a fresh process about 5 ms): the command
first, then options from a fixed table, each as `--opt value` or
`--opt=value`, the last one winning but for `--set`, which collects.  A
value is any token that argparse would not take for an option, and no
option may be abbreviated.  A command line outside this grammar exits 2
with an error JSON of kind "usage" and argparse's wording; -h/--help, at
top level or after a command, prints the usage text and exits 0.

Each command has a
few variants (synth: dome or spectrum; evolve: chain or grid; sweep:
coherent chain, coherent corner or decoherence; cascade: line or dome).
`_variant` picks one from the config, and that variant's strict schema
then requires every key it needs and refuses every key it does not read.
The library planner takes the dome shape m alone, with m = 0 as the line:
a line cascade plans m = 0 and a dome cascade needs m >= 1.
The schemas are the one table of defaults (JSON Schema `default`
annotations); `resolve` fills them in once, after validation, and every
command runs from that resolved config, which the sweep sidecar records.
All physical inputs carry units in their field names (rate_MHz is J/2pi;
t1_us, tphi_us are microseconds).  `_rad_per_s` alone turns MHz into rad/s;
the rate goes into the systems only, as spectra and synthesized chains are
in units of J.  Integral floats in integer fields (`N=5.0`) are accepted, as
JSON Schema does, and read as ints.  NaN, Infinity and numbers that
overflow a float are refused while parsing, before any schema check, and
an `evolve` whose end, the period times n_periods, overflows is refused
before its time grid is built.

The schemas use a small subset of JSON Schema, checked by `_schema_error`.
Its exit-2 messages are the ones jsonschema's `best_match` reports for
the same config (the test suite compares the two on random configs), but
the package itself does not depend on jsonschema.

Every command that simulates resolves its chains or grids with one
`_systems(cfg)`, one per m; the sweeps in `noise` take the same systems.
An `evolve` builds the one system model, `models._SiteModel`, once and
reads off it the matrix, the readout sites (chain ends or grid corners),
the T/4 target and whether a transfer column exists.  One scorer,
`metrics._readout_fidelity`, reads the readout amplitudes when closed,
the readout block of rho when open.  A closed grid, H_col kron 1 + 1 kron
H_row, runs on its column and row chains, whose outer products give its
populations and corners (`_closed_columns`).  An open grid builds the
(rows cols)^2 matrix, as dephasing does not factor.

Artifacts are written atomically (temp file then rename) from byte chunks;
the temp file is one `os.open` beside the target with mkstemp's flags and
mode, and the output directory is made only when that open finds it missing.
CSV is RFC 4180 with LF line endings and numbers as `_fmt` (%.12g) prints
them: an `evolve` table of 500 cells or more goes straight to bytes, one
24-byte slot per cell, in row blocks of about 8k cells that drop their NUL
padding and are written as they are made (see `_table_bytes`), so no writer
buffer grows with the table.  JSON artifacts are 2-space indented with
sorted keys and a final newline, byte for byte what
`json.dumps(payload, indent=2, sort_keys=True)` gives (`_json_text` gets
there through json's C encoder; an `evolve` table's through its CSV
blocks), and every command is deterministic given (config, seed): reruns
produce byte-identical primary outputs.  Exit
codes: 0 success, 1 internal error (a bug: the error JSON carries the
traceback), 2 config rejected by the schema or by a domain check that
raises ValueError, 3 numerical breakdown (numpy's LinAlgError included)
or infeasible plan.  Every failure prints a machine-readable error JSON
on stderr.
"""

from __future__ import annotations

import errno
import functools
import itertools
import json
import math
import os
import re
import sys
import tempfile
import traceback
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np

from .cascade import (
    CascadeInfeasibleError,
    CouplingBudget,
    TransferMode,
    plan_cascade,
)
from .dynamics import (
    DecoherenceConfig,
    _amplitudes,
    _open_parts,
    evolve_closed,
    site_state,
)
from .inverse_eigen import ReconstructionError, synthesize
from .metrics import _quarter_period_ket, _readout_fidelity, transfer_fidelity
from .models import DomeParams, Grid2D, _SiteModel
from .noise import DisorderConfig, DisorderTarget, SweepMetric, sweep_coherent, sweep_decoherence
from .spectrum import Spectrum, dome_spectrum

OUTDIR_ENV = "DOMECHAIN_OUTDIR"

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_POSITIVES = {"type": "array", "items": _POSITIVE, "minItems": 1}

# The schema of every config key but `kind` and `metric`, whose values pick
# the variant.  Each variant takes a subset of these keys.
_FIELDS = {
    "N": {"type": "integer", "minimum": 2},
    "m": {"type": "integer", "minimum": 0},
    "rows": {"type": "integer", "minimum": 2},
    "cols": {"type": "integer", "minimum": 2},
    "m_x": {"type": "integer", "minimum": 0},
    "m_y": {"type": "integer", "minimum": 0},
    "spectrum": {"type": "array", "items": {"type": "number"}, "minItems": 2},
    "rate_MHz": _POSITIVE,
    "decoherence": {
        "type": "object",
        "additionalProperties": False,
        "properties": {"t1_us": _POSITIVE, "tphi_us": _POSITIVE},
    },
    "n_periods": {**_POSITIVE, "maximum": 2000},
    "points": {"type": "integer", "minimum": 2, "maximum": 10**6},
    "m_values": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
    "target": {"enum": [t.value for t in DisorderTarget]},
    "sigma": {"type": "number", "minimum": 0},
    "sigmas": {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1},
    "samples": {"type": "integer", "minimum": 1},
    "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
    "t1_us_values": _POSITIVES,
    "tphi_us_values": _POSITIVES,
    "fixed_t1_us": _POSITIVE,
    "fixed_tphi_us": _POSITIVE,
    "k": {"type": "integer", "minimum": 1},
    "mode": {"enum": ["pst", "fst"]},
    "j_max_MHz": _POSITIVE,
    "j_min_MHz": _POSITIVE,
    "output": {"type": "string"},
    "format": {"enum": ["csv", "json"]},
}


def _strict(required, optional, defaults, **enums) -> dict:
    """Schema taking exactly `required`, `optional`, the keys of `defaults`
    (format among them) and output.

    Each key of `defaults` carries its value as a JSON Schema `default`
    annotation, which validation ignores and `resolve` fills in.  Each
    keyword argument limits that key to the listed values.
    """
    properties = {name: {"enum": enums[name]} if name in enums else _FIELDS[name]
                  for name in [*required, *optional, *defaults, "output"]}
    for name, value in defaults.items():
        properties[name] = {**properties[name], "default": value}
    return {"type": "object", "additionalProperties": False, "required": list(required),
            "properties": properties}


# The working point of the paper's studies: dome chains at m = 2 and 102,
# J/2pi = 5 MHz for decoherence scans, and the scans' T1 and Tphi cuts
# (microseconds; `_sweep_decoherence` lays them out as one config list)
# around T1 = 30 and Tphi = 5, where one period is 200 ns.
_M_VALUES = [2, 102]
_SCAN = {"t1_us_values": [3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0],
         "tphi_us_values": [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0],
         "fixed_t1_us": 30.0, "fixed_tphi_us": 5.0}
_EVOLVE = ("rate_MHz", "decoherence", "points")
_COHERENT = ("sigma", "sigmas", "samples", "rate_MHz")
_CASCADE = ("kind", "N", "j_max_MHz", "j_min_MHz")
_CHAIN_METRICS = [SweepMetric.BELL_AT_QUARTER_T.value, SweepMetric.QPT_AT_HALF_T.value]
_EVOLVE_DEFAULTS = {"n_periods": 1.0, "format": "csv"}
_COHERENT_DEFAULTS = {"m_values": _M_VALUES, "format": "csv"}
_CASCADE_DEFAULTS = {"k": 1, "mode": TransferMode.PST.value, "format": "json"}

# One strict schema per command variant: a key that the variant does not
# read is refused, one that it needs is required, and every default of the
# CLI is one of their `default` annotations.  `resolve` derives the rest:
# `points` from n_periods, `samples` from metric and `output` from format.
SCHEMAS = {
    "synth": {
        "dome": _strict(["N", "m"], ["rate_MHz"], {"format": "json"}),
        "spectrum": _strict(["spectrum"], ["rate_MHz"], {"format": "json"}),
    },
    "evolve": {
        "chain": _strict(["N", "m"], _EVOLVE, _EVOLVE_DEFAULTS),
        "grid": _strict(["rows", "cols", "m_x", "m_y"], _EVOLVE, _EVOLVE_DEFAULTS),
    },
    "sweep": {
        "chain": _strict(["kind", "metric", "N", "target", "seed"], _COHERENT, _COHERENT_DEFAULTS,
                         kind=["coherent"], metric=_CHAIN_METRICS),
        "corner": _strict(["kind", "metric", "rows", "cols", "target", "seed"], _COHERENT,
                          _COHERENT_DEFAULTS, kind=["coherent"],
                          metric=[SweepMetric.W_AT_QUARTER_T.value]),
        "decoherence": _strict(["kind", "metric", "N"], (),
                               {**_SCAN, "m_values": _M_VALUES, "rate_MHz": 5.0, "format": "csv"},
                               kind=["decoherence"], metric=[m.value for m in SweepMetric]),
    },
    "cascade": {
        "line": _strict(_CASCADE, (), _CASCADE_DEFAULTS, kind=["line"], format=["json"]),
        "dome": _strict([*_CASCADE, "m"], (), _CASCADE_DEFAULTS, kind=["dome"], format=["json"]),
    },
}

# Monte Carlo samples per sigma of a coherent sweep that names no `samples`.
_SAMPLES = {SweepMetric.BELL_AT_QUARTER_T.value: 100, SweepMetric.QPT_AT_HALF_T.value: 50,
            SweepMetric.W_AT_QUARTER_T.value: 50}


def _variant(command: str, cfg: dict) -> str:
    """The SCHEMAS[command] variant that cfg asks for."""
    if command == "synth":
        return "spectrum" if "spectrum" in cfg else "dome"
    if command == "evolve":
        return "grid" if cfg.keys() & {"rows", "cols", "m_x", "m_y"} else "chain"
    if command == "sweep":
        if cfg.get("kind") == "decoherence":
            return "decoherence"
        return "corner" if cfg.get("metric") == SweepMetric.W_AT_QUARTER_T.value else "chain"
    return "dome" if cfg.get("kind") == "dome" else "line"


def _is_type(value, name: str) -> bool:
    """JSON Schema's type test on json.loads output: bools are not numbers."""
    if isinstance(value, bool) and name in ("integer", "number"):
        return False
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    kinds = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}
    return isinstance(value, kinds[name])


def _violations(schema: dict, value, path: tuple = ()):
    """(path, value has the schema's type, message) for each failed keyword.

    Implements the keywords SCHEMAS use: type, enum, minimum,
    exclusiveMinimum, maximum, minItems, items, required, properties and
    additionalProperties (false only).  Keywords are visited in schema
    order and nested values where they appear, as jsonschema visits them,
    and each message is worded as jsonschema words it.
    """
    typed = "type" in schema and _is_type(value, schema["type"])
    number, array, obj = _is_type(value, "number"), isinstance(value, list), isinstance(value, dict)
    for key, arg in schema.items():
        if key == "properties" and obj:
            for name, sub in arg.items():
                if name in value:
                    yield from _violations(sub, value[name], (*path, name))
        elif key == "items" and array:
            for i, item in enumerate(value):
                yield from _violations(arg, item, (*path, i))
        elif key == "required" and obj:
            for name in arg:
                if name not in value:
                    yield path, typed, f"{name!r} is a required property"
        elif key == "additionalProperties" and obj:
            extras = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
            if extras:
                listed = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                yield path, typed, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        elif key == "type" and not typed:
            yield path, typed, f"{value!r} is not of type {arg!r}"
        elif key == "enum" and value not in arg:
            yield path, typed, f"{value!r} is not one of {arg!r}"
        elif key == "minimum" and number and value < arg:
            yield path, typed, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum" and number and value <= arg:
            yield path, typed, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "maximum" and number and value > arg:
            yield path, typed, f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "minItems" and array and len(value) < arg:
            yield path, typed, f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")


def _schema_error(schema: dict, cfg) -> str | None:
    """Message of the most relevant violation of `schema` by cfg, or None.

    Relevance is jsonschema's `best_match` order: the shallowest path, then
    the greatest path among equals, then a value not of its schema's type;
    the first violation wins a tie.
    """
    best = max(_violations(schema, cfg), key=lambda v: (-len(v[0]), v[0], not v[1]), default=None)
    return None if best is None else best[2]


def _filled(schema: dict, value):
    """A valid value with its schema's defaults filled in and integral floats
    in integer fields turned into ints."""
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict):
        properties = schema["properties"]
        value = {k: p["default"] for k, p in properties.items() if "default" in p} | value
        return {k: _filled(properties[k], v) for k, v in value.items()}
    if isinstance(value, list):
        return [_filled(schema["items"], v) for v in value]
    return value


def resolve(command: str, cfg: dict) -> dict:
    """The config that `command` runs from: cfg, once its variant's schema
    accepts it (ConfigError otherwise), with every default filled in.

    Integral floats in integer fields become ints.  Besides the schema
    defaults it derives points, samples and output, and turns a coherent
    sweep's sigma into sigmas = [sigma].  The result passes its variant's
    schema and resolves to itself.
    """
    variant = _variant(command, cfg)
    schema = SCHEMAS[command][variant]
    error = _schema_error(schema, cfg)
    if error is not None:
        raise ConfigError(error)
    cfg = _filled(schema, cfg)
    if cfg.get("decoherence") == {}:  # no channel: that is the closed evolve
        raise ConfigError("decoherence needs t1_us or tphi_us")
    if cfg.get("kind") == "dome" and cfg["m"] == 0:  # the planner reads m = 0 as the line
        raise ConfigError("cascade kind=dome needs m >= 1; use kind=line for m = 0")
    if "decoherence" in cfg and "rate_MHz" not in cfg:
        # Natural units (J = 1 rad/s) are meaningless against microsecond T1/Tphi.
        raise ConfigError("decoherence needs rate_MHz")
    if "n_periods" in cfg and "points" not in cfg:
        # 401 points a period resolve the fastest dome modes used in practice.
        cfg["points"] = math.ceil(401 * cfg["n_periods"]) + 1
    if command == "sweep" and variant != "decoherence":
        if ("sigma" in cfg) == ("sigmas" in cfg):
            raise ConfigError("coherent sweeps need either sigma or sigmas, not both")
        if "sigma" in cfg:
            cfg["sigmas"] = [cfg.pop("sigma")]
        cfg.setdefault("samples", _SAMPLES[cfg["metric"]])
    cfg["output"] = cfg.pop("output", "") or f"{command}.{cfg['format']}"
    return cfg


class ConfigError(ValueError):
    """Config rejected before execution (exit code 2)."""


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _rad_per_s(cfg: dict, key: str = "rate_MHz") -> float:
    """2 pi 10^6 cfg[key] in rad/s of a field in MHz, 1 if absent; ConfigError if not finite."""
    if key not in cfg:
        return 1.0
    value = 2.0 * np.pi * cfg[key] * 1e6
    if not math.isfinite(value):
        raise ConfigError(f"{key.removesuffix('_MHz')} must be finite, got {value!r} rad/s "
                          f"from {key} = {cfg[key]!r}")
    return value


def _output_path(cfg: dict) -> Path:
    path = Path(cfg["output"])
    if not path.is_absolute():
        path = Path(os.environ.get(OUTDIR_ENV, ".")) / path
    return path


# tempfile.mkstemp's flags for a new temp file, without its read access.
_TEMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0)
               | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0))


def _open_temp(folder: Path) -> tuple[int, str]:
    """A new mode-0600 temp file in folder, named tmp<random>.tmp, as mkstemp
    makes it: a name that exists already is drawn again."""
    for _ in range(tempfile.TMP_MAX):
        tmp = os.path.join(folder, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, _TEMP_FLAGS, 0o600), tmp
        except FileExistsError:
            continue
    raise FileExistsError(errno.EEXIST, "no usable temporary file name found", str(folder))


def _write_atomic(path: Path, chunks) -> None:
    """Write the byte chunks of an iterable to a temp file beside path, then
    rename it over path; on any error the temp file goes and path is untouched.
    A path that is a directory is refused with ConfigError.

    The temp file costs one `os.open`; the output directory is made only
    when that open finds it missing.
    """
    try:
        fd, tmp = _open_temp(path.parent)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = _open_temp(path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and path.is_dir():  # `--output ""` names the directory "."
            raise ConfigError(f"output {str(path)!r} is a directory") from exc
        raise


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _json_encoder(item_separator: str):
    """json's compact C encoder with the given item separator and sorted keys.

    It is built once per separator; `JSONEncoder.encode` would build a new
    one on every call, which costs more than encoding a short list.
    """
    if c_make_encoder is None:  # no C accelerator: the same text, more slowly
        return json.JSONEncoder(separators=(item_separator, ": "), sort_keys=True).encode
    # (markers: no circular check, default, string encoder, indent, key and
    # item separators, sort_keys, skipkeys, allow_nan), as JSONEncoder passes them.
    encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                            ": ", item_separator, True, False, True)
    return lambda value: "".join(encode(value, 0))


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), at nesting `indent`.

    json.dumps with an indent runs json's pure-Python encoder, so here
    only dicts and lists that hold containers are walked in Python.  A container of scalars is
    one C-encoder call with newline-and-indent as its item separator; the
    scalars beside containers are encoded in one call and split at its
    newline separators, which no encoded scalar contains.  Keys are str.
    It pays on synth's eigenvector payloads: json.dumps took 0.49 and 0.57
    ms for N = 24 and 26, this 0.33 and 0.38 ms, about 17% of a 0.94-1.03 ms
    in-process synth (Python 3.11, 2-core Xeon VM).
    """
    if not isinstance(value, _CONTAINERS):
        return _json_encoder("")(value)
    is_dict = isinstance(value, dict)
    brackets = "{}" if is_dict else "[]"
    if not value:
        return brackets
    inner = indent + "  "
    children = value.values() if is_dict else value
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, children))):
        body = _json_encoder(",\n" + inner)(value)[1:-1]
    else:
        if is_dict:
            keys, children = zip(*sorted(value.items()))
        scalars = [v for v in children if not isinstance(v, _CONTAINERS)]
        encoded = iter(_json_encoder("\n")(scalars)[1:-1].split("\n"))
        parts = [_json_text(v, inner) if isinstance(v, _CONTAINERS) else next(encoded)
                 for v in children]
        if is_dict:
            parts = [f"{encode_basestring_ascii(k)}: {p}" for k, p in zip(keys, parts)]
        body = (",\n" + inner).join(parts)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _write_json(path: Path, payload) -> None:
    """Write payload as json.dumps(payload, indent=2, sort_keys=True) + newline."""
    _write_atomic(path, [(_json_text(payload) + "\n").encode()])


def cmd_synth(cfg: dict) -> Path:
    """Reconstruct a chain (in units of J) from its spectrum and write all artifacts."""
    rate = _rad_per_s(cfg)
    if "spectrum" in cfg:
        spec = Spectrum(values=np.asarray(cfg["spectrum"], dtype=float))
    else:
        spec = dome_spectrum(cfg["N"], cfg["m"])
    ham, weights, W = synthesize(spec)
    path = _output_path(cfg)
    if cfg["format"] == "json":
        _write_json(
            path,
            {
                "rate_J_rad_per_s": rate,
                "spectrum": spec.values.tolist(),
                "weights": weights.tolist(),
                "omegas": ham.omegas.tolist(),
                "couplings": ham.couplings.tolist(),
                "eigenvectors": W.tolist(),
            },
        )
    else:
        # One %-template per row, as small evolve tables: the lines csv.writer
        # writes for [quantity, i, j or "", _fmt(value)].
        lines = ["quantity,i,j,value\n"]
        for quantity, values in (("omega", ham.omegas), ("coupling", ham.couplings),
                                 ("lambda", spec.values), ("weight", weights)):
            lines += [f"{quantity},%d,,%.12g\n" % row for row in enumerate(values.tolist(), 1)]
        for s, row in enumerate(W.tolist(), 1):
            lines += [f"eigenvector,{s},%d,%.12g\n" % cell for cell in enumerate(row, 1)]
        _write_atomic(path, ["".join(lines).encode()])
    return path


def _systems(cfg: dict) -> list:
    """The config's dome chains or grids at its rate, one per m of
    `m_values`, or the one of an `evolve`."""
    rate = _rad_per_s(cfg)
    if "N" in cfg:
        return [DomeParams(cfg["N"], m, rate) for m in cfg.get("m_values") or [cfg["m"]]]
    shapes = [(m, m) for m in cfg["m_values"]] if "m_values" in cfg else [(cfg["m_x"], cfg["m_y"])]
    return [Grid2D(cfg["rows"], cfg["cols"], m_x, m_y, rate) for m_x, m_y in shapes]


def _closed_columns(grid: Grid2D, times: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Closed evolution of a grid from site 1 on its column and row chains:
    fill the (T, D) `populations` and return the (T, 4) corner amplitudes.

    Grid site r * cols + c holds psi_col(t)[r] psi_row(t)[c], so its
    populations and corners are outer products of the two chains' own.
    """
    def evolve(chain: DomeParams):
        H = _SiteModel.of(chain).matrices()[0]
        states = evolve_closed(H, site_state(chain.N, 1), times)
        return np.abs(states[:, 1:]) ** 2, states[:, [1, -1]]

    col, ends_col = evolve(grid.column_chain())
    square = (grid.rows, grid.m_y) == (grid.cols, grid.m_x)  # one chain for both axes
    row, ends_row = (col, ends_col) if square else evolve(grid.row_chain())
    # Splitting the contiguous site axis is always a view, so this writes into populations.
    np.einsum("tr,tc->trc", col, row, out=populations.reshape(times.size, grid.rows, grid.cols))
    return (ends_col[:, :, None] * ends_row[:, None, :]).reshape(times.size, 4)


def _evolve_times(cfg: dict, period: float) -> tuple[np.ndarray, dict[int, float]]:
    """Output grid and the {row: time} marks that place T/4 and T/2 exactly.

    Each marked time takes the row of its nearest grid point, T/4 first.
    The t=0 row is never marked, so a marked time nearest to it, or past the
    end by more than a few ulps, is left out; T/2 takes over a row it
    shares with T/4.  Marks are in row order, as T/2's row is never before T/4's.
    """
    end = period * cfg["n_periods"]  # linspace ends on it exactly
    if not math.isfinite(end):
        raise ConfigError(f"the evolve's end, period {period!r} s times n_periods = "
                          f"{cfg['n_periods']!r}, overflows a float")
    grid = np.linspace(0.0, end, cfg["points"])
    marks = {}
    for t in (period / 4, period / 2):
        i = int(np.argmin(np.abs(grid - t)))
        if t <= end * (1 + 1e-15) and i > 0:
            marks[i] = t
    return grid, marks


@functools.cache
def _cell_tables():
    """_table_bytes' lookup tables, by decimal exponent + 330 or by table index."""
    word = lambda text: int.from_bytes(text.encode(), "little")
    exps = range(-330, 330)
    fixed = [-4 <= x < 12 for x in exps]  # %g's choice of fixed over scientific form
    # Lead forms: "0." and f = -X-1 zeros (X = -1..-4), or the digit and a point if more follow.
    form = np.array([-x - 1 if f and x < 0 else 4 for x, f in zip(exps, fixed)]) * 80
    # 10^(11-X), correctly rounded; NaN where the point falls among the digits.
    scale = np.array([math.nan if f and x > 0 else float(f"1e{11 - x}") for x, f in zip(exps, fixed)])
    lead = np.array([word("," * sep + "-" * neg + ("0." + "0" * f if f < 4 else "") + str(d)
                          + "." * (f == 4 and more)) for f in range(5) for neg in (0, 1)
                     for d in range(10) for more in (0, 1) for sep in (0, 1)], np.uint64)
    expo = np.array([0 if f else word(f"e{x:+03d}".rjust(8, "\0"))
                     for x, f in zip(exps, fixed)], np.uint64)
    quads = [f"{g:04d}" for g in range(10000)]
    digits = np.array([word(q) for q in quads] + [word(q.rstrip("0")) for q in quads], np.uint64)
    return form, scale, lead, expo, digits


def _table_bytes(table: np.ndarray, tails: dict):
    """Each row of `table` as _fmt cells, each followed by a comma, then _fmt
    of tails[row] if given, and a newline, yielded as one chunk per row
    block; no cell needs CSV quoting.

    Numpy fills a 24-byte slot per cell and row end, one block of about 8k
    cells at a time: the comma, sign, lead and first digit of M = rint(y),
    y = |x| 10^(11-X) exact to 2.5e-4, then 11 digits but trailing zeros,
    then the exponent.  Cells with M within 1e-3 of a tie or outside
    [1e11, 1e12), or x 0, inf, nan, under 1e-297 or in [10, 1e12), and the
    block's tails, are _fmt text in their slots.  Each block drops its NUL
    padding once, so no buffer grows with the table.
    """
    form, scale, lead, expo, digits = _cell_tables()
    rows, cols = table.shape
    step = max(1, 8192 // cols)  # a block's temporaries stay in cache
    slots = np.empty((min(step, rows), cols + 1, 3), np.uint64)  # one block's, reused by each
    for i in range(0, rows, step):
        x = table[i:i + step]
        block = slots[:len(x)]
        out = block[:, :cols]
        block[:, cols] = [ord(",") | ord("\n") << 8, 0, 0]  # also over the last block's tails
        with np.errstate(all="ignore"):
            # Truncation floors the log; 0, inf and nan give clipped garbage.
            e = (np.log10(np.abs(x)) + 330).astype(np.intp)
            y = np.abs(x) * scale.take(e, mode="clip")
            m = np.rint(y)
            M = m.astype(np.int64)
            ok = (np.abs(y - m) <= 0.499) & ((M - 10**11).view(np.uint64) < 9 * 10**11)
        d1 = M // 10**11
        r = (M - d1 * 10**11) * 10  # the other 11 digits and a 0, in three groups of 4
        hi = r // 10000
        g2 = r - hi * 10000
        g0 = hi // 10000
        g1 = hi - g0 * 10000
        s1 = (g2 == 0) * 10000  # groups from the last nonzero one on drop trailing zeros
        s0 = (g1 == 0) * s1
        k = form.take(e, mode="clip") + np.signbit(x) * 40 + d1 * 4 + (r != 0) * 2
        k[:, 1:] += 1
        out[..., 0] = lead.take(k, mode="clip")
        out[..., 1] = digits.take(g0 + s0, mode="clip") | digits.take(g1 + s1, mode="clip") << 32
        out[..., 2] = digits.take(g2 + 10000, mode="clip") | expo.take(e, mode="clip")
        hard = np.flatnonzero(~ok)
        placed = [(row - i, value) for row, value in tails.items() if i <= row < i + step]
        texts = [("," if j % cols else "") + _fmt(x.flat[j]) for j in hard.tolist()]
        texts += [f",{_fmt(value)}\n" for _, value in placed]
        at = [*(hard + hard // cols).tolist(), *(row * (cols + 1) + cols for row, _ in placed)]
        block.reshape(-1, 3)[at] = np.array(texts, "S24").view(np.uint64).reshape(-1, 3)
        yield block.tobytes().translate(None, b"\0")


def cmd_evolve(cfg: dict) -> Path:
    """Propagate |site 1> and write the population/fidelity trajectory."""
    (system,) = _systems(cfg)
    model = _SiteModel.of(system)
    chain = len(model.lengths) == 1  # chains add the transfer channel's column
    n_sites = model.freqs.shape[1]
    period = system.period
    uniform, marks = _evolve_times(cfg, period)
    rows = list(marks)
    times = uniform.copy()
    times[rows] = list(marks.values())

    d = cfg.get("decoherence")  # never empty: `resolve` refuses {}
    deco = None if d is None else _decoherence(d.get("t1_us"), d.get("tphi_us"))

    table = np.empty((times.size, n_sites + 2))
    table[:, 0] = times / period
    psi0 = site_state(n_sites, 1)
    if deco is None and chain:
        states = evolve_closed(model.matrices()[0], psi0, times)
        table[:, 1:-1] = np.abs(states[:, 1:]) ** 2
        readout = states[:, model.edges + 1]
    elif deco is None:  # a closed grid, H_col kron 1 + 1 kron H_row, runs on its two chains
        readout = _closed_columns(system, times, table[:, 1:-1])
    else:
        # Dephasing does not factor over the grid's chains: grids take the dense matrix.
        H = model.matrices()[0]
        # T/4 and T/2 branch off the uniform run into their rows; rho_s is (T, D, D).
        rho_s = _open_parts(H, np.outer(psi0, psi0.conj()), uniform, (deco,), marks)[0][0, 0]
        table[:, 1:-1] = np.real(np.einsum("tii->ti", rho_s))
        readout = rho_s[:, model.edges[:, None], model.edges]
    # The T/4 target's entries on the single-excitation bitstrings, first readout site leftmost.
    target = _quarter_period_ket(*model.lengths)
    ket = target[1 << np.arange(model.edges.size)[::-1]]
    table[:, -1] = _readout_fidelity(readout, ket, abs(target[0]) ** 2, block=deco is not None)

    qpt = {}
    if chain:
        # The transfer channel at the marked rows: p is the P_N column, c the
        # closed amplitude psi_N(t) times the decay of vacuum coherences.
        if deco is None:
            c = readout[rows, -1]
        else:
            t = times[rows]
            u = _amplitudes(H[None], psi0[1:], t, [n_sites - 1])[0, 0]
            c = np.exp(-deco.vacuum_coherence_rate * t) * u
        qpt = dict(zip(rows, transfer_fidelity(table[rows, n_sites], c).tolist()))

    path = _output_path(cfg)
    header = ["t_over_T", *(f"P_{n}" for n in range(1, n_sites + 1)),
              "bell_fidelity" if chain else "w_fidelity", "qpt_fidelity"]
    if table.size < 500:  # twice the measured crossover of the two paths
        template = "%.12g," * table.shape[1]
        blocks = ["".join([template % tuple(row) + (_fmt(qpt[i]) if i in qpt else "") + "\n"
                           for i, row in enumerate(table.tolist())]).encode()]
    else:
        blocks = _table_bytes(table, qpt)
    if cfg["format"] == "csv":
        _write_atomic(path, itertools.chain([f"{','.join(header)}\n".encode()], blocks))
    else:
        _write_atomic(path, _json_table(header, blocks))
    return path


def _json_table(header: list, blocks):
    """The chunks of json.dumps({"columns": header, "rows": rows}, indent=2,
    sort_keys=True) + newline, where `blocks` yields the rows as CSV lines.

    No cell needs escaping; "]" holds each block's newlines meanwhile.
    """
    head, end = (_json_text({"columns": header, "rows": [[""]]}) + "\n").encode().split(b'""')
    row_break = b'"\n    ],\n    [\n      "'
    yield head
    sep = b'"'
    for block in blocks:
        rows = block[:-1].replace(b"\n", b"]").replace(b",", b'",\n      "')
        yield sep
        yield rows.replace(b"]", row_break)
        sep = row_break
    yield b'"' + end


def _sweep_coherent(cfg: dict):
    dcfg = DisorderConfig(DisorderTarget(cfg["target"]), cfg["sigmas"], cfg["seed"], cfg["samples"])
    result = sweep_coherent(_systems(cfg), dcfg, SweepMetric(cfg["metric"]))
    return [
        ["coherent", cfg["metric"], m, "sigma_over_J", _fmt(sigma), "", "",
         _fmt(result.mean[i, j]), _fmt(result.std[i, j]), int(result.samples[i, j]),
         int(result.failures[i, j])]
        for i, m in enumerate(cfg["m_values"])
        for j, sigma in enumerate(cfg["sigmas"])
    ]


def _decoherence(t1_us, tphi_us) -> DecoherenceConfig:
    """The config of T1 and Tphi in microseconds; None leaves a channel off."""
    return DecoherenceConfig(t1=None if t1_us is None else t1_us * 1e-6,
                             t_phi=None if tphi_us is None else tphi_us * 1e-6)


def _sweep_decoherence(cfg: dict):
    # The T1 cut at fixed Tphi, then the Tphi cut at fixed T1, as one list of
    # (t1_us, tphi_us, row cells from axis_name to fixed_tphi_us) points.
    fixed_t1, fixed_tphi = cfg["fixed_t1_us"], cfg["fixed_tphi_us"]
    points = [(t1, fixed_tphi, ["t1_us", _fmt(t1), "", _fmt(fixed_tphi)]) for t1 in cfg["t1_us_values"]]
    points += [(fixed_t1, tphi, ["tphi_us", _fmt(tphi), _fmt(fixed_t1), ""]) for tphi in cfg["tphi_us_values"]]
    fids = sweep_decoherence(_systems(cfg), SweepMetric(cfg["metric"]),
                             [_decoherence(t1, tphi) for t1, tphi, _ in points])
    return [["decoherence", cfg["metric"], m, *cells, _fmt(fid), "", 1, 0]
            for m, row in zip(cfg["m_values"], fids) for (_, _, cells), fid in zip(points, row)]


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
    path = _output_path(cfg)
    if cfg["format"] == "csv":
        # No sweep field needs CSV quoting: the lines equal csv.writer's.
        lines = [",".join(map(str, row)) for row in [SWEEP_HEADER, *rows]]
        _write_atomic(path, ["".join(f"{line}\n" for line in lines).encode()])
    else:
        _write_json(path, {"columns": SWEEP_HEADER, "rows": rows})
    _write_json(Path(str(path) + ".config.json"), {"command": "sweep", "config": cfg})
    return path


def cmd_cascade(cfg: dict) -> Path:
    """Plan a cascaded transfer and write the plan JSON."""
    budget = CouplingBudget(j_max=_rad_per_s(cfg, "j_max_MHz"), j_min=_rad_per_s(cfg, "j_min_MHz"))
    plan = plan_cascade(N=cfg["N"], k=cfg["k"], budget=budget, m=cfg.get("m", 0),
                        mode=TransferMode(cfg["mode"]))
    path = _output_path(cfg)
    _write_json(
        path,
        {
            "kind": cfg["kind"],
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
            "first_segment": plan.mode.value,
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


def _finite(text: str) -> float:
    """A JSON number or NaN/Infinity literal as a float, refused unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} is not allowed")
    return value


# Configs and --set values are decoded by one shared decoder that refuses
# NaN, Infinity and numbers that overflow a float.
_JSON = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    try:
        value = _JSON.decode(raw)
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


# The options of every command; `sweep` also takes --seed.  Each takes one
# value, as `--opt value` or `--opt=value`.
_OPTIONS = ("--config", "--set", "--format", "--output")
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative-number test

_USAGE = """\
usage: domechain {command} [--config PATH] [--set KEY=VALUE ...]
           [--format {{csv,json}}] [--output PATH] [--seed INT]

Synthesize, evolve, sweep, and plan transfer chains.  Each option takes
one value, as --opt VALUE or --opt=VALUE, and the last one given wins but
for --set, which applies each KEY=VALUE in order after --config.  Only
sweep takes --seed, and no option may be abbreviated."""


class _UsageError(Exception):
    """Command line outside the grammar (exit code 2)."""


def _is_option(token: str, known: tuple) -> bool:
    """Whether token is an option rather than a value, by argparse's rule:
    it starts with "-" and is a known option (or one with "=value"), or is
    none of "-", a negative number and a text with a space."""
    if token[:1] != "-" or token == "-":
        return False
    if token.partition("=")[0] in known:
        return True
    return not (_NEGATIVE.match(token) or " " in token)


def _parse(argv: list) -> tuple[str | None, dict | None]:
    """The command of argv and its options; no options when argv asks for
    help, and then the command is None unless help follows one.

    The options map each option given to its last value, --seed's as an
    int, and --set to the list of its values in order.  A usage error
    raises _UsageError with argparse's wording, as soon as argparse would:
    a missing value or a bad --format or --seed at once, and unknown or
    abbreviated options and stray values once argv is read.
    """
    command, takes, known, extras = None, (), _HELP, []
    options: dict = {"--set": []}
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token in _HELP:
            return command, None
        if not _is_option(token, known):
            if command is not None:
                extras.append(token)
            elif token in COMMANDS:
                command = token
                takes = (*_OPTIONS, "--seed") if token == "sweep" else _OPTIONS
                known = (*_HELP, *takes)
            else:
                choices = ", ".join(map(repr, COMMANDS))
                raise _UsageError(f"argument command: invalid choice: {token!r} (choose from {choices})")
            continue
        name, eq, value = token.partition("=")
        if name not in takes:
            extras.append(token)
            continue
        if not eq:
            if i == len(argv) or _is_option(argv[i], known):
                raise _UsageError(f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        if name == "--set":
            options[name].append(value)
            continue
        if name == "--format" and value not in ("csv", "json"):
            raise _UsageError(f"argument --format: invalid choice: {value!r} (choose from 'csv', 'json')")
        if name == "--seed":
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument --seed: invalid int value: {value!r}") from None
        options[name] = value
    if command is None:
        raise _UsageError("the following arguments are required: command")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return command, options


def main(argv=None) -> int:
    try:
        command, options = _parse(sys.argv[1:] if argv is None else argv)
        if options is None:
            print(_USAGE.format(command=command or "{" + ",".join(COMMANDS) + "}"))
            return 0
        cfg: dict = {}
        if "--config" in options:
            try:
                cfg = _JSON.decode(Path(options["--config"]).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            if not isinstance(cfg, dict):
                raise ConfigError("config root must be a JSON object")
        for assignment in options["--set"]:
            _apply_set(cfg, assignment)
        if "--seed" in options:
            cfg["seed"] = options["--seed"]
        if "--format" in options:
            cfg["format"] = options["--format"]
        if "--output" in options:
            cfg["output"] = str(Path(options["--output"]))  # normalized: "./a//b" is "a/b"
        path = COMMANDS[command](resolve(command, cfg))
    except _UsageError as exc:
        _error("usage", str(exc))
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
    except (np.linalg.LinAlgError, ReconstructionError, RuntimeError) as exc:
        _error("numerical", str(exc))
        return 3
    except ValueError as exc:  # ConfigError and domain input checks
        _error("validation", str(exc))
        return 2
    except Exception as exc:
        _error("internal", f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
