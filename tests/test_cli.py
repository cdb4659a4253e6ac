"""End-to-end CLI checks: configs, outputs, exit codes, determinism."""

import csv
import json
import shlex
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from domechain.cli import SCHEMAS, SWEEP_HEADER, _csv_text, _fmt, _table_lines, main

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("DOMECHAIN_OUTDIR", str(tmp_path))
    return tmp_path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run(argv):
    return main(argv)


def test_synth_dome_json(outdir):
    assert run(["synth", "--set", "N=5", "--set", "m=2"]) == 0
    data = json.loads((outdir / "synth.json").read_text())
    np.testing.assert_allclose(data["spectrum"], [-2, -1, 2, 7, 14], atol=1e-9)
    np.testing.assert_allclose(data["omegas"], [0, 6, 8, 6, 0], atol=1e-9)
    expected_j = [np.sqrt(7), 1.5 * np.sqrt(10), 1.5 * np.sqrt(10), np.sqrt(7)]
    np.testing.assert_allclose(data["couplings"], expected_j, rtol=1e-9)
    assert sum(data["weights"]) == pytest.approx(1.0, abs=1e-12)
    assert len(data["eigenvectors"]) == 5
    assert data["rate_J_rad_per_s"] == 1.0


def test_synth_from_explicit_spectrum(outdir):
    assert run(["synth", "--set", "spectrum=[-0.5, 0.5]"]) == 0
    data = json.loads((outdir / "synth.json").read_text())
    np.testing.assert_allclose(data["omegas"], [0, 0], atol=1e-12)
    np.testing.assert_allclose(data["couplings"], [0.5], rtol=1e-12)


def test_synth_csv_long_format(outdir):
    assert run(["synth", "--set", "N=3", "--set", "m=0", "--format", "csv"]) == 0
    header, rows = read_csv(outdir / "synth.csv")
    assert header == ["quantity", "i", "j", "value"]
    counts = {}
    for quantity, *_ in rows:
        counts[quantity] = counts.get(quantity, 0) + 1
    assert counts == {
        "omega": 3, "coupling": 2, "lambda": 3, "weight": 3, "eigenvector": 9,
    }


def test_synth_rejects_single_site(outdir, capsys):
    assert run(["synth", "--set", "N=1", "--set", "m=2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"


def test_unknown_config_key_rejected(outdir):
    assert run(["synth", "--set", "N=5", "--set", "m=2", "--set", "bogus=1"]) == 2


def test_synth_requires_exactly_one_source(outdir):
    # Dome parameters and an explicit spectrum are mutually exclusive.
    assert run(["synth", "--set", "N=5", "--set", "m=2",
                "--set", "spectrum=[-0.5,0.5]"]) == 2
    assert run(["synth"]) == 2


def test_evolve_marked_rows_chain(outdir):
    assert run([
        "evolve", "--set", "N=5", "--set", "m=2", "--set", "points=21",
        "--output", "ev.csv",
    ]) == 0
    header, rows = read_csv(outdir / "ev.csv")
    assert header == [
        "t_over_T", "P_1", "P_2", "P_3", "P_4", "P_5",
        "bell_fidelity", "qpt_fidelity",
    ]
    by_t = {r[0]: r for r in rows}
    quarter = by_t["0.25"]
    assert float(quarter[1]) == pytest.approx(0.5, abs=1e-9)
    assert float(quarter[5]) == pytest.approx(0.5, abs=1e-9)
    assert float(quarter[6]) == pytest.approx(1.0, abs=1e-8)
    assert quarter[7] != ""
    half = by_t["0.5"]
    assert float(half[5]) == pytest.approx(1.0, abs=1e-9)
    assert float(half[7]) == pytest.approx(1.0, abs=1e-6)
    unmarked = [r for r in rows if r[0] not in ("0.25", "0.5")]
    assert all(r[7] == "" for r in unmarked)


def test_evolve_uniform_line_has_pst_but_no_bell(outdir):
    assert run([
        "evolve", "--set", "N=5", "--set", "m=0", "--set", "points=21",
        "--output", "line.csv",
    ]) == 0
    _, rows = read_csv(outdir / "line.csv")
    by_t = {r[0]: r for r in rows}
    assert float(by_t["0.5"][5]) == pytest.approx(1.0, abs=1e-9)
    assert float(by_t["0.25"][6]) < 0.99


def test_evolve_grid_w_state(outdir):
    assert run([
        "evolve", "--set", "rows=3", "--set", "cols=4",
        "--set", "m_x=2", "--set", "m_y=2", "--set", "points=9",
        "--output", "grid.csv",
    ]) == 0
    header, rows = read_csv(outdir / "grid.csv")
    assert header[0] == "t_over_T"
    assert header[1:13] == [f"P_{i}" for i in range(1, 13)]
    assert header[13:] == ["w_fidelity", "qpt_fidelity"]
    by_t = {r[0]: r for r in rows}
    assert float(by_t["0.25"][13]) == pytest.approx(1.0, abs=1e-6)
    assert all(r[14] == "" for r in rows)  # no process tomography on grids


def test_evolve_with_decoherence_matches_known_fidelity(outdir):
    assert run([
        "evolve", "--set", "N=5", "--set", "m=2", "--set", "points=9",
        "--set", "rate_MHz=5",
        "--set", "decoherence.t1_us=3", "--set", "decoherence.tphi_us=5",
        "--output", "deco.csv",
    ]) == 0
    _, rows = read_csv(outdir / "deco.csv")
    by_t = {r[0]: r for r in rows}
    assert float(by_t["0.25"][6]) == pytest.approx(0.971561972299, abs=1e-6)


def test_evolve_decoherence_without_rate_is_refused(outdir, capsys):
    # J would default to 1 rad/s against microsecond T1 and Tphi.
    assert run([
        "evolve", "--set", "N=5", "--set", "m=2",
        "--set", "decoherence.t1_us=30", "--set", "decoherence.tphi_us=5",
    ]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "rate_MHz" in err["detail"]
    assert not (outdir / "evolve.csv").exists()


def test_sweep_coherent_csv_and_sidecar(outdir):
    args = [
        "sweep", "--set", "kind=coherent", "--set", "metric=bell_at_quarter_t",
        "--set", "N=5", "--set", "target=middle_frequencies",
        "--set", "sigmas=[0.0]", "--set", "samples=4", "--set", "m_values=[2]",
        "--seed", "11", "--output", "sw.csv",
    ]
    assert run(args) == 0
    header, rows = read_csv(outdir / "sw.csv")
    assert header == SWEEP_HEADER
    assert len(rows) == 1
    kind, metric, m, axis_name, sigma, _, _, mean, _, samples, failures = rows[0]
    assert (kind, metric, m) == ("coherent", "bell_at_quarter_t", "2")
    assert (axis_name, sigma) == ("sigma_over_J", "0")
    assert float(mean) == pytest.approx(1.0, abs=1e-12)
    assert (samples, failures) == ("4", "0")
    sidecar = json.loads((outdir / "sw.csv.config.json").read_text())
    assert sidecar["command"] == "sweep"
    assert sidecar["config"]["seed"] == 11


def test_sweep_is_deterministic(outdir):
    base = [
        "sweep", "--set", "kind=coherent", "--set", "metric=bell_at_quarter_t",
        "--set", "N=5", "--set", "target=couplings",
        "--set", "sigmas=[0.5]", "--set", "samples=6", "--set", "m_values=[2]",
        "--seed", "3",
    ]
    assert run(base + ["--output", "a.csv"]) == 0
    assert run(base + ["--output", "b.csv"]) == 0
    assert (outdir / "a.csv").read_bytes() == (outdir / "b.csv").read_bytes()


def test_sweep_decoherence_rows(outdir):
    assert run([
        "sweep", "--set", "kind=decoherence", "--set", "metric=bell_at_quarter_t",
        "--set", "N=5", "--set", "m_values=[2]",
        "--set", "t1_us_values=[3]", "--set", "tphi_us_values=[50]",
        "--set", "rate_MHz=5",
        "--output", "swd.csv",
    ]) == 0
    header, rows = read_csv(outdir / "swd.csv")
    assert header == SWEEP_HEADER
    by_axis = {(r[3], r[4]): r for r in rows}
    t1_row = by_axis[("t1_us", "3")]
    assert t1_row[6] == "5"  # scans T1 with the dephasing time pinned
    assert float(t1_row[7]) == pytest.approx(0.971561972299, abs=1e-6)
    tphi_row = by_axis[("tphi_us", "50")]
    assert tphi_row[5] == "30"
    assert float(tphi_row[7]) == pytest.approx(0.997117215625, abs=1e-6)


def test_cascade_line_at_budget_boundary(outdir):
    assert run([
        "cascade", "--set", "kind=line", "--set", "N=400", "--set", "k=1",
        "--set", "j_max_MHz=50", "--set", "j_min_MHz=0.5",
        "--output", "plan.json",
    ]) == 0
    plan = json.loads((outdir / "plan.json").read_text())
    assert plan["feasible"] is True
    assert plan["segment_lengths"] == [400]
    assert plan["total_duration_s"] == pytest.approx(1e-6, rel=1e-9)
    assert plan["first_segment"] == "pst"


def test_cascade_infeasible_exit_code(outdir, capsys):
    assert run([
        "cascade", "--set", "kind=line", "--set", "N=401", "--set", "k=1",
        "--set", "j_max_MHz=50", "--set", "j_min_MHz=0.5",
    ]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "infeasible"
    assert err["limiting_segment"] == 0
    assert err["segment_length"] == 401


def test_cascade_dome_asymptotic_quartering(outdir):
    common = [
        "cascade", "--set", "kind=dome", "--set", "N=40", "--set", "m=10",
        "--set", "j_max_MHz=50", "--set", "j_min_MHz=0.0001",
    ]
    assert run(common + ["--set", "k=1", "--output", "k1.json"]) == 0
    assert run(common + ["--set", "k=4", "--output", "k4.json"]) == 0
    t1 = json.loads((outdir / "k1.json").read_text())["asymptotic_duration_s"]
    t4 = json.loads((outdir / "k4.json").read_text())["asymptotic_duration_s"]
    assert t4 / t1 == pytest.approx(0.25, rel=1e-12)
    plan4 = json.loads((outdir / "k4.json").read_text())
    assert plan4["segment_lengths"] == [11, 11, 11, 10]


def test_cascade_rejects_csv_format(outdir):
    assert run([
        "cascade", "--set", "kind=line", "--set", "N=10", "--set", "k=1",
        "--set", "j_max_MHz=50", "--set", "j_min_MHz=0.5", "--format", "csv",
    ]) == 2


def test_config_file_with_set_override(outdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "m": 2}))
    assert run(["synth", "--config", str(cfg), "--set", "N=5"]) == 0
    data = json.loads((outdir / "synth.json").read_text())
    assert len(data["omegas"]) == 5


def test_missing_required_keys_exit_2(outdir):
    assert run(["sweep", "--set", "kind=coherent"]) == 2


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schemas_satisfy_their_metaschema(command):
    schema = SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_threads_key_is_refused(outdir, capsys):
    cfg = ["--set", "kind=coherent", "--set", "metric=bell_at_quarter_t", "--set", "N=3",
           "--set", "target=all", "--set", "sigma=0.1", "--set", "samples=2", "--seed", "1"]
    assert run(["sweep", *cfg, "--set", "threads=2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "validation",
        "detail": "Additional properties are not allowed ('threads' was unexpected)",
    }
    with pytest.raises(SystemExit) as exc:
        run(["sweep", *cfg, "--threads", "2"])
    assert exc.value.code == 2


def test_output_path_is_printed(outdir, capsys):
    assert run(["synth", "--set", "N=3", "--set", "m=1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == str(outdir / "synth.json")


def test_evolve_rerun_is_byte_identical(outdir):
    args = ["evolve", "--set", "N=4", "--set", "m=2", "--set", "points=11"]
    assert run(args + ["--output", "e1.csv"]) == 0
    assert run(args + ["--output", "e2.csv"]) == 0
    assert (outdir / "e1.csv").read_bytes() == (outdir / "e2.csv").read_bytes()


def test_open_system_reruns_are_byte_identical(outdir):
    evolve = ["evolve", "--set", "N=5", "--set", "m=2", "--set", "points=11",
              "--set", "rate_MHz=5", "--set", "decoherence.t1_us=30",
              "--set", "decoherence.tphi_us=5"]
    sweep = ["sweep", "--set", "kind=decoherence", "--set", "metric=qpt_at_half_t",
             "--set", "N=3", "--set", "m_values=[2,102]",
             "--set", "t1_us_values=[3,300]", "--set", "tphi_us_values=[0.5]"]
    for argv in (evolve, sweep):
        assert run(argv + ["--output", "r1.csv"]) == 0
        assert run(argv + ["--output", "r2.csv"]) == 0
        assert (outdir / "r1.csv").read_bytes() == (outdir / "r2.csv").read_bytes()


def test_successive_calls_do_not_share_parser_state(outdir, tmp_path):
    # The parser is built once; an earlier --set list must not leak into a
    # later call, with or without --set of its own.
    assert run(["synth", "--set", "N=5", "--set", "m=2", "--output", "a.json"]) == 0
    assert run(["synth", "--set", "N=3", "--output", "b.json", "--set", "m=0"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "m": 1}))
    assert run(["synth", "--config", str(cfg), "--output", "c.json"]) == 0
    lengths = [len(json.loads((outdir / f"{n}.json").read_text())["omegas"]) for n in "abc"]
    assert lengths == [5, 3, 4]


def test_table_lines_equal_csv_writer_with_fmt():
    table = np.array([
        [-0.0, 1e-300, 3.0, 0.1],
        [1.0, -2.0, 1e16, 2.5e-7],
        [0.25, 123456789012345.0, -1e-310, 1 / 3],
    ])
    tails = [_fmt(float("nan")), "", _fmt(0.999999999999)]
    header = ["a", "b", "c", "d", "e"]
    rows = [[_fmt(x) for x in row] + [tail] for row, tail in zip(table, tails)]
    got = "".join(f"{line}\n" for line in [",".join(header), *_table_lines(table, tails)])
    assert got == _csv_text(header, rows)
    assert got.splitlines()[1] == "-0,1e-300,3,0.1,nan"


def _readme_commands():
    """Every `domechain ...` command in README's Command line block, as argv."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [shlex.split(c, comments=True) for c in block.replace("\\\n", " ").splitlines()]
    return [c[1:] for c in commands if c and c[0] == "domechain"]


def test_readme_commands_run(outdir, capsys):
    commands = _readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert run(argv) == 0, argv
        path = Path(capsys.readouterr().out.strip())
        assert path.parent == outdir and path.stat().st_size > 0, argv
