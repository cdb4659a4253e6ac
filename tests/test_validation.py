"""Config validation: the in-house schema check against jsonschema as an oracle.

`cli._schema_error` must report exactly the message jsonschema's
`best_match` reports (or None when jsonschema finds nothing) for every
variant schema, `cli._variant` must reach every variant, and integral
floats in integer fields must behave as their int form.  Every optional
key has a `default` or a meaning when absent, and every config that
`cli.resolve` returns passes its own variant's schema.
"""

import json
import random

import jsonschema
import pytest

from domechain import cli
from domechain.cli import SCHEMAS, main

# The keywords `cli._violations` implements (its docstring); `additionalProperties` only as false.
IMPLEMENTED = {
    "type", "enum", "minimum", "exclusiveMinimum", "maximum", "minItems", "items",
    "required", "additionalProperties", "properties",
}
# Annotations, which validation ignores (in jsonschema as in `_violations`)
# and `cli.resolve` reads.
ANNOTATIONS = {"default"}

SCALARS = [
    0, 1, 2, 3, -1, 5, 2.0, 0.0, -0.0, 2.5, -0.5, 1e-9, True, False, None, "", "x",
    "csv", "json", "line", "dome", "coherent", "all", 2**64 - 1, 2**64, 1e300,
    float("nan"), float("inf"), -float("inf"),
]


def _keywords(schema):
    for key, arg in schema.items():
        yield key, arg
        if key == "properties":
            for sub in arg.values():
                yield from _keywords(sub)
        elif key == "items":
            yield from _keywords(arg)


def _any_value(rng, depth=0):
    r = rng.random()
    if r < 0.6 or depth > 1:
        return rng.choice(SCALARS)
    if r < 0.85:
        return [_any_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    keys = ["t1_us", "tphi_us", "zz", "N"]
    return {rng.choice(keys): _any_value(rng, depth + 1) for _ in range(rng.randrange(3))}


def _near(rng, schema):
    """A random instance mostly shaped like `schema`: wrong types, bools,
    integral floats, bounds, extra keys, empty arrays and non-object roots."""
    if rng.random() < 0.15:
        return _any_value(rng)
    if "enum" in schema:
        return rng.choice(schema["enum"])
    kind = schema.get("type")
    if kind == "object":
        out = {k: _near(rng, sub) for k, sub in schema["properties"].items() if rng.random() < 0.3}
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            out[rng.choice(["threads", "zz", "n", "seed2"])] = _any_value(rng)
        return dict(rng.sample(list(out.items()), len(out)))
    if kind == "array":
        return [_near(rng, schema["items"]) for _ in range(rng.choice([0, 1, 1, 2, 3]))]
    if kind in ("integer", "number"):
        lo = schema.get("minimum", schema.get("exclusiveMinimum", 0))
        return rng.choice([lo - 1, lo, lo + 1, float(lo), float(lo + 2), lo + 0.5, lo - 0.5])
    return rng.choice(SCALARS)


VARIANTS = [(c, v) for c in sorted(SCHEMAS) for v in SCHEMAS[c]]


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schemas_use_only_implemented_keywords(command):
    for schema in SCHEMAS[command].values():
        used = list(_keywords(schema))
        assert {key for key, _ in used} <= IMPLEMENTED | ANNOTATIONS
        assert all(arg is False for key, arg in used if key == "additionalProperties")


@pytest.mark.parametrize("seed", range(4))
def test_messages_match_jsonschema_best_match(seed):
    rng = random.Random(seed)
    schemas = {(c, v): SCHEMAS[c][v] for c, v in VARIANTS}
    validators = {k: jsonschema.validators.validator_for(s)(s) for k, s in schemas.items()}
    verdicts = set()
    for _ in range(2500):
        variant = rng.choice(VARIANTS)
        cfg = _near(rng, schemas[variant])
        best = jsonschema.exceptions.best_match(validators[variant].iter_errors(cfg))
        want = None if best is None else best.message
        assert cli._schema_error(schemas[variant], cfg) == want, (variant, cfg)
        if want is None:  # a config that a variant accepts is routed to it
            assert cli._variant(variant[0], cfg) == variant[1], (variant, cfg)
        verdicts.add(want is None)
    assert verdicts == {True, False}


# One small valid config per variant; between them they set every integer
# field of every variant.
INTEGER_CASES = {
    "synth": {"dome": {"N": 5, "m": 2}, "spectrum": {"spectrum": [-0.5, 0.5]}},
    "evolve": {
        "chain": {"N": 3, "m": 2, "points": 9},
        "grid": {"rows": 2, "cols": 3, "m_x": 0, "m_y": 2, "points": 9},
    },
    "sweep": {
        "chain": {"kind": "coherent", "metric": "bell_at_quarter_t", "N": 3, "m_values": [0, 2],
                  "target": "all", "sigma": 0.1, "samples": 3, "seed": 7},
        "corner": {"kind": "coherent", "metric": "w_at_quarter_t", "rows": 2, "cols": 3,
                   "m_values": [2], "target": "edge_frequencies", "sigma": 0.1, "samples": 2,
                   "seed": 7},
        "decoherence": {"kind": "decoherence", "metric": "qpt_at_half_t", "N": 3,
                        "m_values": [2], "t1_us_values": [30], "tphi_us_values": [5],
                        "rate_MHz": 5},
    },
    "cascade": {
        "line": {"kind": "line", "N": 40, "k": 2, "j_max_MHz": 50, "j_min_MHz": 0.01},
        "dome": {"kind": "dome", "N": 40, "k": 2, "m": 2, "j_max_MHz": 50, "j_min_MHz": 0.01},
    },
}


def test_variant_reaches_every_schema_and_every_field_is_used():
    for command, variant in VARIANTS:
        cfg = INTEGER_CASES[command][variant]
        assert cli._variant(command, cfg) == variant
        assert cli._schema_error(SCHEMAS[command][variant], cfg) is None
    used = {name for c, v in VARIANTS for name in SCHEMAS[c][v]["properties"]}
    assert set(cli._FIELDS) <= used


# The optional keys with no `default`: each one's absence has a meaning.  A
# missing rate_MHz means natural units (J = 1 rad/s) and a missing
# decoherence a closed system; a coherent sweep takes sigma or sigmas; and
# points, samples and output are derived from n_periods, metric and format.
NO_DEFAULT = {"rate_MHz", "decoherence", "sigma", "sigmas", "points", "samples", "output"}


@pytest.mark.parametrize("command, variant", VARIANTS)
def test_every_optional_key_has_a_default_or_a_meaning_when_absent(command, variant):
    schema = SCHEMAS[command][variant]
    optional = schema["properties"].keys() - set(schema["required"])
    assert {key for key in optional if "default" not in schema["properties"][key]} <= NO_DEFAULT


def _required_only(command, variant):
    cfg = INTEGER_CASES[command][variant]
    out = {key: cfg[key] for key in SCHEMAS[command][variant]["required"]}
    return out | ({"sigma": cfg["sigma"]} if "sigma" in cfg else {})


@pytest.mark.parametrize("command, variant", VARIANTS)
def test_resolved_configs_pass_their_own_schema(command, variant):
    schema = SCHEMAS[command][variant]
    validator = jsonschema.validators.validator_for(schema)(schema)
    for cfg in (INTEGER_CASES[command][variant], _required_only(command, variant)):
        resolved = cli.resolve(command, cfg)
        assert cli._schema_error(schema, resolved) is None
        assert validator.is_valid(resolved)
        assert cli._variant(command, resolved) == variant
        assert {key for key, sub in schema["properties"].items() if "default" in sub} <= resolved.keys()
        assert cli.resolve(command, resolved) == resolved


def _integer_fields(schema):
    for name, sub in schema["properties"].items():
        if "integer" in (sub.get("type"), sub.get("items", {}).get("type")):
            yield name


INTEGER_FIELDS = sorted({(c, f) for c, v in VARIANTS for f in _integer_fields(SCHEMAS[c][v])})


def _outputs(outdir, tmp_path, command, cfg):
    for old in outdir.glob(f"{command}.*"):
        old.unlink()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 0, cfg
    return {p.name: p.read_bytes() for p in outdir.glob(f"{command}.*")}


@pytest.mark.parametrize("command, field", INTEGER_FIELDS, ids=[f"{c}-{f}" for c, f in INTEGER_FIELDS])
def test_integral_floats_in_integer_fields_act_as_ints(tmp_path, monkeypatch, command, field):
    outdir = tmp_path / "out"
    monkeypatch.setenv("DOMECHAIN_OUTDIR", str(outdir))
    variants = [v for v, schema in SCHEMAS[command].items() if field in _integer_fields(schema)]
    cases = [INTEGER_CASES[command][v] for v in variants]
    assert all(field in cfg for cfg in cases), f"a {command} variant's case leaves out {field}"
    for cfg in cases:
        value = cfg[field]
        as_float = [float(v) for v in value] if isinstance(value, list) else float(value)
        want = _outputs(outdir, tmp_path, command, cfg)
        assert _outputs(outdir, tmp_path, command, {**cfg, field: as_float}) == want
