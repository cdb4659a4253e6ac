"""End-to-end CLI checks: configs, outputs, exit codes, determinism."""

import contextlib
import csv
import functools
import io
import json
import os
import shlex
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import domechain
from domechain import cli
from domechain.cli import SCHEMAS, SWEEP_HEADER, _fmt, _table_bytes, main

_OPEN = ["--set", "rate_MHz=5", "--set", "decoherence.t1_us=30", "--set", "decoherence.tphi_us=5"]

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


def test_synth_long_chain_json_and_csv_agree(outdir):
    # N=32 is past where a forward site recurrence loses the eigenvectors.
    args = ["synth", "--set", "N=32", "--set", "m=2"]
    assert run(args) == 0
    assert run(args + ["--format", "csv"]) == 0
    W = np.array(json.loads((outdir / "synth.json").read_text())["eigenvectors"])
    assert W.shape == (32, 32)
    np.testing.assert_allclose(W @ W.T, np.eye(32), atol=1e-12)
    _, rows = read_csv(outdir / "synth.csv")
    cells = {(int(i), int(j)): v for quantity, i, j, v in rows if quantity == "eigenvector"}
    assert cells == {(s + 1, n + 1): _fmt(W[s, n]) for s in range(32) for n in range(32)}


def test_synth_rerun_is_byte_identical(outdir):
    args = ["synth", "--set", "N=64", "--set", "m=10"]
    assert run(args + ["--output", "s1.json"]) == 0
    assert run(args + ["--output", "s2.json"]) == 0
    assert (outdir / "s1.json").read_bytes() == (outdir / "s2.json").read_bytes()


def _json_oracle(payload) -> str:
    """Artifact text of the earlier writer: json's own indented encoder."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_writer_text(header, rows) -> str:
    """The CSV text csv.writer makes of the header and rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _synth_csv_oracle(spec, ham, weights, W) -> str:
    """Artifact text of the earlier synth CSV writer: one csv.writer row per value."""
    rows = [["omega", i, "", _fmt(v)] for i, v in enumerate(ham.omegas, start=1)]
    rows += [["coupling", i, "", _fmt(v)] for i, v in enumerate(ham.couplings, start=1)]
    rows += [["lambda", s, "", _fmt(v)] for s, v in enumerate(spec.values, start=1)]
    rows += [["weight", s, "", _fmt(v)] for s, v in enumerate(weights, start=1)]
    rows += [["eigenvector", s + 1, n + 1, _fmt(W[s, n])]
             for s in range(W.shape[0]) for n in range(W.shape[1])]
    return _csv_writer_text(["quantity", "i", "j", "value"], rows)


@pytest.mark.parametrize("sets", [["N=2", "m=2"], ["N=5", "m=2"], ["N=24", "m=2"], ["N=256", "m=2"],
                                  ["spectrum=[-3.5, -0.25, 1e-7, 2, 40.125]", "rate_MHz=7"]])
def test_synth_artifacts_equal_the_earlier_writers(outdir, sets):
    # The oracle rebuilds every value through synthesize and writes them
    # as the earlier code did.
    from domechain.inverse_eigen import synthesize
    from domechain.spectrum import Spectrum, dome_spectrum

    argv = ["synth", *[arg for s in sets for arg in ("--set", s)]]
    assert run(argv) == 0
    assert run(argv + ["--format", "csv"]) == 0
    cfg = dict(s.split("=", 1) for s in sets)
    rate = 2 * np.pi * float(cfg["rate_MHz"]) * 1e6 if "rate_MHz" in cfg else 1.0
    if "spectrum" in cfg:
        spec = Spectrum(values=np.array(json.loads(cfg["spectrum"]), dtype=float))
    else:
        spec = dome_spectrum(int(cfg["N"]), int(cfg["m"]))
    ham, weights, W = synthesize(spec)
    payload = {
        "rate_J_rad_per_s": rate,
        "spectrum": spec.values.tolist(),
        "weights": weights.tolist(),
        "omegas": ham.omegas.tolist(),
        "couplings": ham.couplings.tolist(),
        "eigenvectors": W.tolist(),
    }
    assert (outdir / "synth.json").read_text() == _json_oracle(payload)
    assert (outdir / "synth.csv").read_text() == _synth_csv_oracle(spec, ham, weights, W)


_SWEEPS = {
    "chain": ["--set", "kind=coherent", "--set", "metric=qpt_at_half_t", "--set", "N=4",
              "--set", "target=all", "--set", "sigmas=[0, 0.3]", "--set", "samples=3",
              "--set", "m_values=[2]", "--seed", "5"],
    "corner": ["--set", "kind=coherent", "--set", "metric=w_at_quarter_t", "--set", "rows=2",
               "--set", "cols=3", "--set", "target=edge_frequencies", "--set", "sigma=0.2",
               "--set", "samples=2", "--set", "m_values=[2]", "--seed", "7"],
    "decoherence": ["--set", "kind=decoherence", "--set", "metric=bell_at_quarter_t",
                    "--set", "N=3", "--set", "m_values=[2]", "--set", "t1_us_values=[30]",
                    "--set", "tphi_us_values=[5]", "--set", "rate_MHz=5"],
}


@pytest.mark.parametrize("argv", [
    pytest.param(["cascade", "--set", "kind=line", "--set", "N=40", "--set", "k=3", "--set", "mode=fst",
                  "--set", "j_max_MHz=50", "--set", "j_min_MHz=0.01"], id="cascade-line"),
    pytest.param(["cascade", "--set", "kind=dome", "--set", "N=400", "--set", "m=10", "--set", "k=8",
                  "--set", "j_max_MHz=50", "--set", "j_min_MHz=0.01"], id="cascade-dome"),
    pytest.param(["evolve", "--set", "N=6", "--set", "m=2", "--format", "json"], id="evolve-chain"),
    pytest.param(["evolve", "--set", "rows=2", "--set", "cols=3", "--set", "m_x=2", "--set", "m_y=2",
                  "--format", "json"], id="evolve-grid"),
    pytest.param(["evolve", "--set", "N=4", "--set", "m=2", *_OPEN, "--format", "json"],
                 id="evolve-open"),
    *[pytest.param(["sweep", *args, *fmt], id=f"sweep-{name}{'-json' if fmt else ''}")
      for name, args in _SWEEPS.items() for fmt in ([], ["--format", "json"])],
])
def test_json_artifacts_equal_the_earlier_writer(outdir, monkeypatch, argv):
    # Every payload a command writes, sweep sidecars included, is compared
    # with what the earlier writer makes of the same payload.
    written = []
    write_json = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda path, payload: written.append((path, payload))
                        or write_json(path, payload))
    assert run(argv) == 0
    if argv[0] == "evolve":
        # evolve prints its JSON from the CSV body without a payload; the
        # earlier writer must make the same text of the payload read back.
        text = (outdir / "evolve.json").read_text()
        assert not written and text == _json_oracle(json.loads(text))
        return
    # sweep writes its .config.json sidecar beside the CSV or JSON table
    assert len(written) == 1 + (argv[0] == "sweep" and "json" in argv)
    for path, payload in written:
        assert path.read_text() == _json_oracle(payload)


def test_json_writer_without_c_accelerator(monkeypatch):
    # Where json has no C encoder, its pure-Python one gives the same text.
    monkeypatch.setattr(cli, "c_make_encoder", None)
    monkeypatch.setattr(cli, "_json_encoder", functools.cache(cli._json_encoder.__wrapped__))
    payload = {"b": [1.5, -0.0, float("nan")], "a": {"z": None, "\u00e9": [[], {}, [True, "x\ny"]]}}
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_synth_numerical_breakdown_exits_3(outdir, capsys):
    # A spectrum this wide breaks the recurrence (its outer weight underflows,
    # so degree 1 sees two nodes); its norm test must not overflow into an
    # internal error.  Dome spectra as wide as N=5, m=10**200 synthesize: a
    # coupling small against max|lambda| is not a collapse, and the
    # spectrum check accepts the chain.
    assert run(["synth", "--set", "spectrum=[-1e-170,0,1e170]"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert run(["synth", "--set", "N=5", "--set", f"m={10**200}"]) == 0


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


def _evolve_columns(outdir, cfg):
    """The numeric columns of the closed `evolve` of cfg, read back from its
    CSV and from its JSON, which must hold the same cells; '' reads as nan."""
    args = [a for k, v in cfg.items() for a in ("--set", f"{k}={v}")]
    assert run(["evolve", *args]) == 0
    assert run(["evolve", *args, "--format", "json"]) == 0
    header, rows = read_csv(outdir / "evolve.csv")
    data = json.loads((outdir / "evolve.json").read_text())
    assert (data["columns"], data["rows"]) == (header, rows)
    return np.array([[float(x) if x else np.nan for x in r] for r in rows])


def _dense_frames(H, times):
    """expm(-i H t)|site 1> with a zero vacuum slot, one row per time."""
    import scipy.linalg

    return np.array([np.r_[0.0, scipy.linalg.expm(-1j * H * t)[:, 0]] for t in times])


def _placed_times(cfg, period):
    """`cmd_evolve`'s output times and marked rows: its grid with each
    marked time placed in its row."""
    grid, marks = cli._evolve_times(cfg, period)
    grid[list(marks)] = list(marks.values())
    return grid, list(marks)


@pytest.mark.parametrize("rows, cols, m_x, m_y", [
    pytest.param(*g, id="{}x{}-{}-{}".format(*g))
    for g in [(2, 2, 0, 0), (3, 4, 2, 1), (5, 3, 102, 2), (2, 7, 0, 102), (4, 4, 2, 2),
              (3, 3, 2, 102), (3, 3, 102, 2)]
])
def test_closed_grid_matches_the_dense_exponential(outdir, rows, cols, m_x, m_y):
    # The populations and corner amplitudes of the axes' product, and the
    # P_n and w_fidelity columns the CLI prints from them, against
    # expm(-i H t)|1, 1> of the dense grid matrix, reduced to the corners.
    # H is the Kronecker sum of the closed-form chains, row major, built
    # without the system model; square grids whose axes differ in m must not
    # share one axis.
    from domechain.models import DomeParams, Grid2D, _SiteModel, dome_hamiltonian
    from dense_oracles import corner_indices, entrywise_reduce, quarter_period_ket, target_overlap

    cfg = {"rows": rows, "cols": cols, "m_x": m_x, "m_y": m_y, "points": 21}
    grid = Grid2D(rows, cols, m_x, m_y)
    times, _ = _placed_times(cli.resolve("evolve", cfg), grid.period)
    H_col = dome_hamiltonian(DomeParams(rows, m_y)).matrix()
    H_row = dome_hamiltonian(DomeParams(cols, m_x)).matrix()
    frames = _dense_frames(np.kron(H_col, np.eye(cols)) + np.kron(np.eye(rows), H_row), times)
    corners = [i + 1 for i in corner_indices(rows, cols)]
    populations = np.full((times.size, rows * cols), np.nan)
    readout = cli._closed_readout(_SiteModel.of(grid), times, populations)
    assert np.max(np.abs(readout - frames[:, corners])) <= 1e-12
    assert np.max(np.abs(populations - np.abs(frames[:, 1:]) ** 2)) <= 1e-12

    got = _evolve_columns(outdir, cfg)
    assert np.all(np.isnan(got[:, -1]))  # no process tomography on grids
    w = [target_overlap(entrywise_reduce(np.outer(f, f.conj()), corners),
                        quarter_period_ket(rows, cols)) for f in frames]
    # 1e-12 from the propagation, 5e-13 from printing 12 significant digits.
    np.testing.assert_allclose(got[:, 1:-1], np.column_stack([np.abs(frames[:, 1:]) ** 2, w]),
                               rtol=0, atol=1.5e-12)


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 8])  # every Bell phase, N mod 4
@pytest.mark.parametrize("m", [0, 2, 102])
def test_closed_chain_matches_the_dense_exponential(outdir, n_sites, m):
    # The P_n, bell_fidelity and qpt_fidelity columns against expm(-i H t)|1>
    # of the dense chain matrix, reduced to the end pair.
    from domechain.metrics import transfer_fidelity
    from domechain.models import DomeParams, dome_hamiltonian
    from dense_oracles import brute_force_reduce, quarter_period_ket, target_overlap

    cfg = {"N": n_sites, "m": m, "points": 21}
    params = DomeParams(N=n_sites, m=m)
    times, marked = _placed_times(cli.resolve("evolve", cfg), params.period)
    frames = _dense_frames(dome_hamiltonian(params).matrix(), times)
    bell = [target_overlap(brute_force_reduce(f, n_sites, (1, n_sites)),
                           quarter_period_ket(n_sites)) for f in frames]
    end = frames[:, n_sites]
    qpt = np.full(times.size, np.nan)
    qpt[marked] = transfer_fidelity(np.abs(end[marked]) ** 2, end[marked])
    expected = np.column_stack([np.abs(frames[:, 1:]) ** 2, bell, qpt])

    got = _evolve_columns(outdir, cfg)
    assert np.sum(~np.isnan(got[:, -1])) == len(marked) == 2
    np.testing.assert_allclose(got[:, 1:], expected, rtol=0, atol=1.5e-12)


@pytest.mark.parametrize("shape", [dict(N=n, m=m) for n in (2, 3, 5, 8, 9) for m in (0, 2, 102)]
                         + [dict(rows=2, cols=3, m_x=2, m_y=1)],
                         ids=lambda shape: "-".join(map(str, shape.values())))
def test_open_evolve_fidelity_matches_the_full_reduction(outdir, monkeypatch, shape):
    # The open populations and Bell or W column against two oracles: on
    # unmarked rows, the states evolve_lindblad reaches on the uniform grid,
    # bit for bit (the fidelity against the entrywise 2^k x 2^k reduction,
    # <t|.|t>, within 1e-14); on the T/4 and T/2 rows, which branch off that
    # run, the dense (D+1)^2 Liouvillian within 1e-12.
    from domechain.dynamics import DecoherenceConfig, evolve_lindblad, site_state
    from domechain.models import _SiteModel
    from dense_oracles import (corner_indices, entrywise_reduce, expm_evolve,
                               quarter_period_ket, target_overlap)

    tables = []
    table_bytes = cli._table_bytes
    monkeypatch.setattr(cli, "_table_bytes",
                        lambda table, tails: tables.append(table.copy()) or table_bytes(table, tails))
    argv = [a for k, v in shape.items() for a in ("--set", f"{k}={v}")]
    assert run(["evolve", *argv, *_OPEN]) == 0
    cfg = cli.resolve("evolve", {**shape, "rate_MHz": 5,
                                 "decoherence": {"t1_us": 30, "tphi_us": 5}})
    (system,) = cli._systems(cfg)
    grid, marks = cli._evolve_times(cfg, system.period)
    assert len(marks) == 2
    if "N" in shape:
        sites, target = (1, system.N), quarter_period_ket(system.N)
    else:
        sites = tuple(i + 1 for i in corner_indices(system.rows, system.cols))
        target = quarter_period_ket(system.rows, system.cols)
    H = _SiteModel.of(system).matrices()[0]
    psi0 = site_state(H.shape[0], 1)
    deco = DecoherenceConfig(30 * 1e-6, 5 * 1e-6)
    rhos = evolve_lindblad(H, np.outer(psi0, psi0), grid, deco)
    (table,) = tables
    unmarked = np.setdiff1d(np.arange(grid.size), list(marks))
    np.testing.assert_array_equal(table[unmarked, 1:-1], np.real(np.einsum("tii->ti", rhos))[unmarked, 1:])
    np.testing.assert_allclose(
        table[unmarked, -1], [target_overlap(entrywise_reduce(rhos[k], sites), target) for k in unmarked],
        rtol=0, atol=1e-14)
    for row, t in marks.items():
        rho = expm_evolve(H, np.outer(psi0, psi0), t, deco)
        np.testing.assert_allclose(table[row, 1:-1], np.real(np.diag(rho))[1:], rtol=0, atol=1e-12)
        assert table[row, -1] == pytest.approx(target_overlap(entrywise_reduce(rho, sites), target),
                                               abs=1e-12)


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


def test_evolve_empty_decoherence_is_refused(outdir, capsys):
    # An empty object names no channel; it would run the closed evolve
    # through the open propagator, whose bits differ from the closed path's.
    assert run(["evolve", "--set", "N=9", "--set", "m=2", "--set", "rate_MHz=5",
                "--set", "decoherence={}"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "detail": "decoherence needs t1_us or tphi_us"}
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


@pytest.mark.parametrize(
    "metric, layout",
    [
        ("bell_at_quarter_t", dict(N=5)),
        ("qpt_at_half_t", dict(N=6)),
        ("w_at_quarter_t", dict(rows=2, cols=3)),
    ],
    ids=["bell", "qpt", "w"],
)
def test_coherent_sweep_csv_equals_per_m_calls(outdir, metric, layout):
    from domechain.models import DomeParams, Grid2D
    from domechain.noise import DisorderConfig, DisorderTarget, SweepMetric, sweep_coherent

    m_values, sigmas = [0, 2, 102], [0.25, 0.5, 1.0]
    sets = [f"{key}={value}" for key, value in layout.items()]
    sets += ["kind=coherent", f"metric={metric}", "target=all", f"sigmas={sigmas}",
             f"m_values={m_values}", "samples=6", "rate_MHz=5"]
    argv = ["sweep", "--seed", "5", "--output", "sw.csv"]
    assert run(argv + [arg for item in sets for arg in ("--set", item)]) == 0
    # The oracle: one single-system call per m.
    rate = 2.0 * np.pi * 5 * 1e6
    c = DisorderConfig(target=DisorderTarget.ALL, sigmas=sigmas, seed=5, samples=6)
    lines = [",".join(SWEEP_HEADER)]
    for m in m_values:
        if "N" in layout:
            system = DomeParams(N=layout["N"], m=m, J=rate)
        else:
            system = Grid2D(layout["rows"], layout["cols"], m, m, J=rate)
        res = sweep_coherent(system, c, SweepMetric(metric))
        for j in range(len(sigmas)):
            lines.append(
                f"coherent,{metric},{m},sigma_over_J,{sigmas[j]:.12g},,,"
                f"{res.mean[j]:.12g},{res.std[j]:.12g},{res.samples[j]},{res.failures[j]}"
            )
    assert (outdir / "sw.csv").read_text() == "".join(f"{line}\n" for line in lines)


# Each sweep variant with only the keys it requires (and a coherent sweep's sigma).
_REQUIRED_ONLY_SWEEPS = {
    "bell": ("chain", ["kind=coherent", "metric=bell_at_quarter_t", "N=3", "target=all",
                       "sigma=0.5"]),
    "qpt": ("chain", ["kind=coherent", "metric=qpt_at_half_t", "N=4", "target=couplings",
                      "sigma=0.5"]),
    "corner": ("corner", ["kind=coherent", "metric=w_at_quarter_t", "rows=2", "cols=3",
                          "target=edge_frequencies", "sigma=0.5"]),
    "decoherence": ("decoherence", ["kind=decoherence", "metric=qpt_at_half_t", "N=3"]),
}


@pytest.mark.parametrize("case", list(_REQUIRED_ONLY_SWEEPS))
def test_sweep_sidecar_reruns_the_same_sweep(outdir, monkeypatch, case):
    # The sidecar holds the resolved config: every defaulted key of the
    # variant, and a config that reruns to the same table byte for byte.
    variant, sets = _REQUIRED_ONLY_SWEEPS[case]
    seed = [] if variant == "decoherence" else ["--seed", "4"]
    assert run(["sweep", *seed, *[a for kv in sets for a in ("--set", kv)]]) == 0
    sidecar = json.loads((outdir / "sweep.csv.config.json").read_text())
    config, schema = sidecar["config"], SCHEMAS["sweep"][variant]
    defaulted = {key for key, sub in schema["properties"].items() if "default" in sub}
    assert defaulted <= config.keys()
    assert cli._schema_error(schema, config) is None
    rerun = outdir / "rerun"
    rerun.mkdir()
    (rerun / "config.json").write_text(json.dumps(config))
    monkeypatch.setenv("DOMECHAIN_OUTDIR", str(rerun))
    assert run(["sweep", "--config", str(rerun / "config.json")]) == 0
    assert (rerun / "sweep.csv").read_bytes() == (outdir / "sweep.csv").read_bytes()
    assert json.loads((rerun / "sweep.csv.config.json").read_text()) == sidecar


@pytest.mark.parametrize("m_values", [[2], [2, 102], [0, 2, 10, 102]], ids=["1m", "2m", "4m"])
def test_coherent_sweep_draws_once(outdir, monkeypatch, m_values):
    from domechain import noise

    calls = []
    unit_normals = noise._unit_normals
    monkeypatch.setattr(noise, "_unit_normals", lambda *a: calls.append(a) or unit_normals(*a))
    assert run([
        "sweep", "--set", "kind=coherent", "--set", "metric=bell_at_quarter_t",
        "--set", "N=5", "--set", "target=all", "--set", "sigmas=[0.5, 1.0]",
        "--set", "samples=4", "--set", f"m_values={m_values}", "--seed", "2",
    ]) == 0
    assert len(calls) == 1


def test_sweep_decoherence_rows(outdir):
    from domechain.dynamics import DecoherenceConfig
    from domechain.noise import SweepMetric, sweep_decoherence
    from test_noise import scan_chains

    assert run([
        "sweep", "--set", "kind=decoherence", "--set", "metric=bell_at_quarter_t",
        "--set", "N=5", "--set", "m_values=[2,102]",
        "--set", "t1_us_values=[3,300]", "--set", "tphi_us_values=[50,0.5]",
        "--set", "rate_MHz=5",
        "--output", "swd.csv",
    ]) == 0
    header, rows = read_csv(outdir / "swd.csv")
    assert header == SWEEP_HEADER
    by_axis = {(r[2], r[3], r[4]): r for r in rows}
    t1_row = by_axis[("2", "t1_us", "3")]
    assert t1_row[6] == "5"  # scans T1 with the dephasing time pinned
    assert float(t1_row[7]) == pytest.approx(0.971561972299, abs=1e-6)
    tphi_row = by_axis[("2", "tphi_us", "50")]
    assert tphi_row[5] == "30"
    assert float(tphi_row[7]) == pytest.approx(0.997117215625, abs=1e-6)
    # Each row's mean is the library's value at the config its cells name,
    # bit for bit: the rows of each m, in CSV order, are the scanned list.
    assert [r[2] for r in rows] == ["2"] * 4 + ["102"] * 4
    assert [r[3:7] for r in rows[4:]] == [r[3:7] for r in rows[:4]]
    points = [(r[4], r[6]) if r[3] == "t1_us" else (r[5], r[4]) for r in rows[:4]]
    decos = [DecoherenceConfig(t1=float(t1) * 1e-6, t_phi=float(tphi) * 1e-6) for t1, tphi in points]
    fids = sweep_decoherence(scan_chains(5), SweepMetric.BELL_AT_QUARTER_T, decos)
    assert [r[7] for r in rows] == [_fmt(f) for f in fids.ravel()]


@pytest.mark.parametrize("metric", ["bell_at_quarter_t", "qpt_at_half_t"])
def test_sweep_decoherence_keeps_repeated_m(outdir, metric):
    # The stacked scan must not collapse repeated m values into one block.
    base = ["sweep", "--set", "kind=decoherence", "--set", f"metric={metric}", "--set", "N=4",
            "--set", "t1_us_values=[3,30]", "--set", "tphi_us_values=[0.5,5]",
            "--set", "rate_MHz=5"]
    assert run(base + ["--set", "m_values=[2,2]", "--output", "twice.csv"]) == 0
    assert run(base + ["--set", "m_values=[2]", "--output", "once.csv"]) == 0
    _, twice = read_csv(outdir / "twice.csv")
    _, once = read_csv(outdir / "once.csv")
    assert len(once) == 4
    assert twice == once + once


def test_scan_point_positivity_failure_exits_3(outdir, monkeypatch, capsys):
    # One non-positive state at one (m, T1, Tphi) point fails the whole scan.
    from domechain import dynamics
    from domechain.noise import SweepMetric, sweep_decoherence
    from test_noise import scan_chains, scan_configs

    evolve_open = dynamics._evolve_open

    def corrupted(H, rho0, times, decos, marks):
        # The state diag(1.5, -0.5, 0, ...) in the parts layout: site block, vacuum column, rho_00.
        sites, col, rho00 = evolve_open(H, rho0, times, decos, marks)
        sites[1, 2, -1] = np.diag(np.r_[-0.5, np.zeros(sites.shape[-1] - 1)])
        rho00[1, 2, -1] = 1.5
        return sites, col, rho00

    monkeypatch.setattr(dynamics, "_evolve_open", corrupted)
    with pytest.raises(RuntimeError, match="positivity"):
        sweep_decoherence(scan_chains(3), SweepMetric.QPT_AT_HALF_T,
                          scan_configs(t1_us_values=(3.0, 30.0), tphi_us_values=(0.5, 5.0)))
    assert run(["sweep", "--set", "kind=decoherence", "--set", "metric=bell_at_quarter_t",
                "--set", "N=3", "--set", "m_values=[2,102]", "--set", "t1_us_values=[3,30]",
                "--set", "tphi_us_values=[0.5,5]", "--set", "rate_MHz=5"]) == 3
    assert "positivity" in capsys.readouterr().err


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
    for schema in SCHEMAS[command].values():
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
    assert run(["sweep", *cfg, "--threads", "2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "usage", "detail": "unrecognized arguments: --threads 2"}


_CASCADE = ["cascade", "--set", "N=10", "--set", "j_max_MHz=50", "--set", "j_min_MHz=0.0001"]
_DECOHERENCE = ["sweep", "--set", "kind=decoherence", "--set", "metric=bell_at_quarter_t",
                "--set", "N=3"]
_COHERENT = ["sweep", "--set", "kind=coherent", "--set", "metric=bell_at_quarter_t",
             "--set", "N=3", "--set", "target=all", "--set", "samples=2", "--seed", "1"]


def test_seed_is_a_sweep_option_only(outdir, capsys):
    # Only sweeps read a seed, so only `sweep` offers --seed.
    for argv in (["synth", "--set", "N=5", "--set", "m=2"],
                 ["evolve", "--set", "N=3", "--set", "m=2"],
                 [*_CASCADE, "--set", "kind=line"]):
        assert run([*argv, "--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "usage", "detail": "unrecognized arguments: --seed 1"}
        assert run(argv) == 0
    assert run([*_COHERENT, "--set", "sigma=0.1", "--output", "sw.csv"]) == 0
    assert json.loads((outdir / "sw.csv.config.json").read_text())["config"]["seed"] == 1


_SYNTH = ["synth", "--set", "N=5", "--set", "m=2"]


@pytest.mark.parametrize(
    "argv, detail",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' "
                    "(choose from 'synth', 'evolve', 'sweep', 'cascade')"),
        ([*_SYNTH, "--bogus"], "unrecognized arguments: --bogus"),
        ([*_SYNTH, "stray"], "unrecognized arguments: stray"),
        ([*_SYNTH, "--set"], "argument --set: expected one argument"),
        ([*_SYNTH, "--output", "--format", "json"], "argument --output: expected one argument"),
        ([*_COHERENT, "--set", "sigma=0.1", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
        ([*_COHERENT, "--set", "sigma=0.1", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        ([*_SYNTH, "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["evolve", "--set", "N=3", "--set", "m=2", "--seed=1"], "unrecognized arguments: --seed=1"),
        ([*_CASCADE, "--set", "kind=line", "--seed", "1"], "unrecognized arguments: --seed 1"),
        # argparse took a prefix of an option for the option; nothing does now.
        ([*_SYNTH, "--out", "x.json"], "unrecognized arguments: --out x.json"),
        (["--set", "N=5", "synth"], "argument command: invalid choice: 'N=5' "
                                    "(choose from 'synth', 'evolve', 'sweep', 'cascade')"),
    ],
    ids=["no_command", "unknown_command", "unknown_option", "stray_positional", "set_without_value",
         "option_as_value", "format_xml", "seed_abc", "seed_on_synth", "seed_on_evolve",
         "seed_on_cascade", "prefix_abbreviation", "option_before_command"],
)
def test_usage_errors_exit_2(outdir, capsys, argv, detail):
    # One JSON line on stderr, nothing on stdout and no file, as for any refusal.
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "usage", "detail": detail}
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("output", ["", "sub"], ids=["empty", "directory"])
def test_output_naming_a_directory_exits_2(outdir, capsys, output):
    # `--output ""` is the directory "."; the rename onto it fails, and is refused.
    (outdir / "sub").mkdir()
    assert run([*_SYNTH, "--output", output]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and err["detail"].endswith("is a directory")
    assert [p.name for p in outdir.iterdir()] == ["sub"] and list((outdir / "sub").iterdir()) == []


def test_option_value_forms_write_the_same_bytes(outdir):
    spaced = [*_COHERENT, "--set", "sigma=0.1", "--format", "json", "--seed", "7"]
    joined = [f"{o}={v}" for o, v in zip(spaced[1::2], spaced[2::2])]
    assert run([*spaced, "--output", "spaced.json"]) == 0
    assert run(["sweep", *joined, "--output=joined.json"]) == 0
    for suffix in ("", ".config.json"):
        spaced_bytes = (outdir / f"spaced.json{suffix}").read_bytes()
        assert (outdir / f"joined.json{suffix}").read_bytes() == spaced_bytes.replace(b"spaced", b"joined")
    # The last value given wins, and --set collects every assignment in order.
    assert run([*_SYNTH, "--format", "csv", "--set", "m=0", "--format=json", "--output", "a",
                "--output", "last.json"]) == 0
    assert run(["synth", "--set", "N=5", "--set", "m=0", "--output", "m0.json"]) == 0
    assert (outdir / "last.json").read_bytes() == (outdir / "m0.json").read_bytes()
    assert sorted(p.name for p in outdir.iterdir()) == [
        "joined.json", "joined.json.config.json", "last.json", "m0.json", "spaced.json",
        "spaced.json.config.json"]


@pytest.mark.parametrize("before", [[], *([c] for c in cli.COMMANDS)], ids=["top", *cli.COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_and_exits_0(outdir, capsys, before, flag):
    assert run([*before, flag, "--bogus"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"usage: domechain {before[0] if before else '{synth'}")
    for option in ("--config PATH", "--set KEY=VALUE", "--format {csv,json}", "--output PATH",
                   "--seed INT"):
        assert option in out
    assert list(outdir.iterdir()) == []


# Tokens for drawn command lines: every option in both forms, values that
# are valid, invalid or look like options, and a few config keys whose
# commands run in milliseconds (no decoherence scan is reachable).
_OPTION_TOKENS = ["--config", "--set", "--format", "--output", "--seed"]
_ARGV_TOKENS = [*cli.COMMANDS, "bogus", *_OPTION_TOKENS, "-h", "--help", "--set=N=3", "--set=m=2",
                "--format=json", "--format=xml", "--seed=7", "--output=o.csv", "N=3", "m=2",
                "points=3", "kind=line", "j_max_MHz=50", "j_min_MHz=1", "kind=coherent",
                "metric=bell_at_quarter_t", "target=all", "sigma=0.1", "samples=1", "csv", "json",
                "xml", "7", "-5", "-0.5", "abc", "o.json", "missing.json", "a b", "-a b", "-",
                "--bogus", "-x", ""]


_TOKEN = st.sampled_from(_ARGV_TOKENS)
# Command lines of those tokens; most start with a command and pair options with values.
_ARGVS = st.tuples(
    st.sampled_from([[], *([c] for c in cli.COMMANDS for _ in range(2))]),
    st.lists(st.one_of(st.tuples(_TOKEN), st.tuples(st.sampled_from(_OPTION_TOKENS), _TOKEN)),
             max_size=6),
).map(lambda drawn: drawn[0] + [t for group in drawn[1] for t in group])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGVS)
def test_drawn_command_lines_fail_only_with_one_json_line(outdir, capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    if code:
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] in (
            "usage", "validation", "numerical", "infeasible")
    else:
        assert err == "" and out


def _argparse_oracle(argv):
    """What the argparse parser that `_parse` replaced made of argv:
    ("help",), ("error", message) or ("ok", command, options), options as
    `_parse` reports them but with --config and --output as paths."""
    import argparse

    parser = argparse.ArgumentParser(prog="domechain")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in cli.COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path)
        p.add_argument("--set", action="append", default=[])
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--output", type=Path)
        if name == "sweep":
            p.add_argument("--seed", type=int)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            ns = parser.parse_args(argv)
    except SystemExit as exc:
        return ("help",) if exc.code == 0 else ("error", err.getvalue().splitlines()[-1].split(": error: ", 1)[1])
    options = {f"--{k}": str(v) if isinstance(v, Path) else v
               for k, v in vars(ns).items() if k != "command" and v is not None}
    return "ok", ns.command, options


@settings(max_examples=400, deadline=None)
@given(argv=_ARGVS)
def test_parse_reads_argv_as_argparse_did(argv):
    # The same grammar, less prefix abbreviations (which no drawn token is)
    # and -h/--help with "=value" (which neither draws).
    try:
        command, options = cli._parse(argv)
    except cli._UsageError as exc:
        got = ("error", str(exc))
    else:
        paths = {k: str(Path(v)) for k, v in (options or {}).items() if k in ("--config", "--output")}
        got = ("help",) if options is None else ("ok", command, {**options, **paths})
    assert got == _argparse_oracle(argv)


@pytest.mark.parametrize(
    "argv, detail",
    [
        (_CASCADE + ["--set", "kind=dome", "--set", "m=0", "--set", "k=2"],
         "kind=dome needs m >= 1; use kind=line"),
        (_CASCADE + ["--set", "kind=line", "--set", "k=10"], "k <= N - 1"),
        (_CASCADE + ["--set", "kind=line", "--set", "j_min_MHz=50"], "j_max > j_min"),
        (["synth", "--set", "spectrum=[0.5,-0.5]"], "strictly increasing"),
        (["sweep", "--set", "kind=decoherence", "--set", "metric=w_at_quarter_t",
          "--set", "N=5"], "defined for chain metrics"),
        (_COHERENT + ["--set", "sigma=0.1", "--set", "sigmas=[0.2]"], "not both"),
        # Finite MHz that overflow once converted to rad/s.
        (["synth", "--set", "N=3", "--set", "m=2", "--set", "rate_MHz=1e308"],
         "rate must be finite, got inf rad/s from rate_MHz = 1e+308"),
        (_CASCADE + ["--set", "kind=line", "--set", "k=1", "--set", "j_max_MHz=1e308",
                     "--set", "j_min_MHz=1"], "j_max must be finite, got inf"),
        (_CASCADE + ["--set", "kind=line", "--set", "k=1", "--set", "j_max_MHz=1e308",
                     "--set", "j_min_MHz=1e307"], "must be finite, got inf"),
    ],
    ids=["dome_m0", "k_above_N_minus_1", "j_max_not_above_j_min",
         "decreasing_spectrum", "decoherence_w_metric", "sigma_with_sigmas",
         "synth_infinite_rate", "cascade_infinite_j_max", "cascade_infinite_j_min"],
)
def test_domain_input_errors_exit_2(outdir, capsys, argv, detail):
    # Schema-valid configs that a domain check rejects with ValueError.
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and detail in err["detail"]


def _unexpected(*keys):
    verb = "was" if len(keys) == 1 else "were"
    return f"Additional properties are not allowed ({', '.join(map(repr, keys))} {verb} unexpected)"


# A key that the chosen variant does not read, or a missing key that it needs.
_SCHEMA_REFUSALS = {
    **{f"decoherence_{key}": (_DECOHERENCE + ["--set", f"{key}={value}"], _unexpected(key))
       for key, value in [("sigma", "0.1"), ("sigmas", "[0.1]"), ("samples", "5"),
                          ("target", "all"), ("rows", "2"), ("seed", "1")]},
    **{f"coherent_{key}": (_COHERENT + ["--set", "sigma=0.1", "--set", f"{key}={value}"],
                           _unexpected(key))
       for key, value in [("t1_us_values", "[30]"), ("tphi_us_values", "[5]"),
                          ("fixed_t1_us", "30"), ("fixed_tphi_us", "5")]},
    "chain_sweep_cols": (_COHERENT + ["--set", "sigma=0.1", "--set", "cols=3"], _unexpected("cols")),
    "corner_sweep_N": (_COHERENT + ["--set", "sigma=0.1", "--set", "metric=w_at_quarter_t",
                                    "--set", "rows=2", "--set", "cols=3"], _unexpected("N")),
    "line_cascade_m": (_CASCADE + ["--set", "kind=line", "--set", "m=7"], _unexpected("m")),
    "decoherence_seed_flag": (_DECOHERENCE + ["--seed", "1"], _unexpected("seed")),
    "synth_both_sources": (["synth", "--set", "N=5", "--set", "m=2",
                            "--set", "spectrum=[-0.5,0.5]"], _unexpected("N", "m")),
    "evolve_chain_and_grid": (["evolve", "--set", "N=5", "--set", "m=2", "--set", "rows=2",
                               "--set", "cols=2", "--set", "m_x=0", "--set", "m_y=0"],
                              _unexpected("N", "m")),
    "synth_empty": (["synth"], "'N' is a required property"),
    "evolve_grid_without_m_y": (["evolve", "--set", "rows=2", "--set", "cols=3",
                                 "--set", "m_x=0"], "'m_y' is a required property"),
    "coherent_without_seed": (_COHERENT[:-2] + ["--set", "sigma=0.1"],
                              "'seed' is a required property"),
    "corner_without_cols": (["sweep", "--set", "kind=coherent", "--set", "metric=w_at_quarter_t",
                             "--set", "rows=2", "--set", "target=all", "--set", "sigma=0.1",
                             "--seed", "1"], "'cols' is a required property"),
    "decoherence_without_N": (_DECOHERENCE[:-2], "'N' is a required property"),
    "dome_cascade_without_m": (["cascade", "--set", "kind=dome", "--set", "N=10",
                                "--set", "j_max_MHz=50", "--set", "j_min_MHz=1"],
                               "'m' is a required property"),
    # Time grids that cannot be built: 401 n_periods overflows a float, and
    # 1e11 points would take a 745 GiB array.
    "evolve_n_periods_overflow": (["evolve", "--set", "N=3", "--set", "m=2",
                                   "--set", "n_periods=1e307"],
                                  "1e+307 is greater than the maximum of 2000"),
    "evolve_points_out_of_memory": (["evolve", "--set", "N=3", "--set", "m=2",
                                     "--set", "points=100000000000"],
                                    "100000000000 is greater than the maximum of 1000000"),
}


@pytest.mark.parametrize("argv, detail", _SCHEMA_REFUSALS.values(), ids=_SCHEMA_REFUSALS)
def test_schema_refusals_exit_2(outdir, capsys, argv, detail):
    # The chosen variant's schema message, worded as jsonschema words it.
    assert run(argv) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "validation", "detail": detail}
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--set", "N=3", "--set", "m=2", "--set", "n_periods=NaN", "--set", "points=3"],
        ["evolve", "--set", "N=3", "--set", "m=2", "--set", "n_periods=Infinity",
         "--set", "points=3"],
        ["sweep", "--set", "kind=coherent", "--set", "metric=bell_at_quarter_t", "--set", "N=5",
         "--set", "target=all", "--set", "sigma=NaN", "--seed", "1"],
        ["evolve", "--set", "N=3", "--set", "m=2", "--set", "rate_MHz=-1e999"],
        ["evolve", "--config", "nan.json"],
    ],
    ids=["n_periods_nan", "n_periods_infinity", "sigma_nan", "overflow", "config_file"],
)
def test_non_finite_numbers_exit_2(outdir, capsys, argv):
    config = outdir / "nan.json"
    config.write_text('{"N": 3, "m": 2, "decoherence": {"t1_us": -Infinity}}')
    argv = [str(config) if a == "nan.json" else a for a in argv]
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "non-finite number" in err["detail"]
    assert [p.name for p in outdir.iterdir()] == ["nan.json"]


@pytest.mark.parametrize("exc_type", [TypeError, KeyError])
def test_internal_errors_exit_1_with_traceback(outdir, capsys, monkeypatch, exc_type):
    def broken_command(cfg):
        raise exc_type("planted")

    monkeypatch.setitem(cli.COMMANDS, "synth", broken_command)
    assert run(["synth", "--set", "N=3", "--set", "m=1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "internal"
    assert err["detail"].startswith(exc_type.__name__)
    assert "broken_command" in err["traceback"]


def test_linalg_error_exits_3(outdir, capsys, monkeypatch):
    # LinAlgError is a ValueError, but it reports a numerical failure, not a bad
    # config.  It is raised here by the closed propagator's eigh.
    def broken(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    assert run(["evolve", "--set", "N=3", "--set", "m=2", "--set", "points=5"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "numerical", "detail": "Eigenvalues did not converge"}
    assert list(outdir.iterdir()) == []


def test_bare_runtime_error_exits_1_with_traceback(outdir, capsys, monkeypatch):
    # Only NumericalBreakdownError, ReconstructionError and LinAlgError read
    # as numerical (exit 3); a library call that raises a bare RuntimeError
    # is a bug, reported as internal.
    def broken(H):
        raise RuntimeError("planted")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    assert run(["evolve", "--set", "N=3", "--set", "m=2", "--set", "points=5"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["detail"]) == ("internal", "RuntimeError: planted")
    assert "broken" in err["traceback"]
    assert list(outdir.iterdir()) == []


def test_wide_and_narrow_spectra_synthesize_without_warnings(outdir):
    # The recurrence runs on the spectrum scaled by a power of two, so spectra
    # whose unscaled recurrence overflows or collapses synthesize cleanly:
    # exit 0, nothing on stderr even under -W error, and a chain whose
    # eigenvalues match the spectrum to 1e-8 relative.
    src = str(Path(domechain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for spectrum in ("[-1e300,1e300]", "[-1e300,0,1e300]", "[-8e307,8e307]", "[-8e307,0,8e307]",
                     "[-1e300,-3e299,1e299,1e300]", "[-1e-300,0,1e-300]"):
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "domechain.cli", "synth",
             "--set", f"spectrum={spectrum}", "--output", "synth.json"],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, ""), spectrum
        data = json.loads((outdir / "synth.json").read_text())
        lam = np.array(json.loads(spectrum))
        assert data["spectrum"] == lam.tolist()
        c = np.array(data["couplings"])
        ev = np.linalg.eigvalsh(np.diag(data["omegas"]) + np.diag(c, 1) + np.diag(c, -1))
        scale = np.max(np.abs(lam))
        assert np.max(np.abs(ev / scale - lam / scale)) <= 1e-8, spectrum


def test_overflowing_disorder_fails_samples_without_warnings(outdir):
    # Noise of 1e308 J overflows the site matrices of all 3 samples of seed 1
    # and of 1981 in 2000: each is a counted failure, with nothing on stderr,
    # in a small sweep and in a large one (2000 samples, 100000 matrix entries).
    src = str(Path(domechain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for samples in (3, 2000):
        done = subprocess.run(
            [sys.executable, "-m", "domechain.cli", "sweep", "--set", "kind=coherent",
             "--set", "metric=bell_at_quarter_t", "--set", "N=5", "--set", "target=all",
             "--set", "seed=1", "--set", "sigmas=[1e308]", "--set", f"samples={samples}"],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, ""), samples
        header, rows = read_csv(outdir / "sweep.csv")
        failed = {3: 3, 2000: 1981}[samples]
        assert [r[header.index("failures")] for r in rows] == [str(failed)] * 2
        assert [r[header.index("samples")] for r in rows] == [str(samples - failed)] * 2


def test_overflowing_spectrum_span_exits_2_and_writes_nothing(outdir):
    # The span itself overflows: the spectrum is refused as input, with no
    # numpy warning and before any weights or recurrence run.
    src = str(Path(domechain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for spectrum, text in (("[-1.7e308,1.7e308]", "1.7e+308 - (-1.7e+308)"),
                           ("[-1e308,1e308]", "1e+308 - (-1e+308)")):
        done = subprocess.run(
            [sys.executable, "-m", "domechain.cli", "synth", "--set", f"spectrum={spectrum}"],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2, done.stderr
        [line] = done.stderr.splitlines()
        assert json.loads(line) == {
            "error": "validation", "detail": f"spectrum span {text} overflows a float",
        }
        assert list(outdir.iterdir()) == []


def test_size_past_float_range_exits_2_and_writes_nothing(outdir):
    # A 400-digit N once escaped as OverflowError: exit 1 with a traceback.
    src = str(Path(domechain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "domechain.cli", "synth", "--set", f"N={10**399}", "--set", "m=2"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 2, done.stderr
    [line] = done.stderr.splitlines()
    assert json.loads(line) == {
        "error": "validation", "detail": "N must be an integer >= 1 of magnitude below 2^1024",
    }
    assert list(outdir.iterdir()) == []


_SWEEP_AT = ["sweep", "--set", "kind=coherent", "--set", "target=all", "--set", "sigma=0.1",
             "--set", "samples=3", "--set", "seed=1"]
# Finite rates whose period 2 pi / J (1e-320 MHz) or scaled site matrices
# (1e300 and 1e301 MHz) overflow a float.
_OVERFLOWING_RATES = {
    "evolve-1e301": ["evolve", "--set", "N=3", "--set", "m=2", "--set", "rate_MHz=1e301",
                     "--set", "points=3"],
    "evolve-m102-1e300": ["evolve", "--set", "N=5", "--set", "m=102", "--set", "rate_MHz=1e300"],
    "bell-sweep-1e300": [*_SWEEP_AT, "--set", "metric=bell_at_quarter_t", "--set", "N=5",
                         "--set", "rate_MHz=1e300"],
    "evolve-1e-320": ["evolve", "--set", "N=3", "--set", "m=2", "--set", "rate_MHz=1e-320",
                      "--set", "points=3"],
    "qpt-sweep-1e-320": [*_SWEEP_AT, "--set", "metric=qpt_at_half_t", "--set", "N=3",
                         "--set", "rate_MHz=1e-320"],
    "open-evolve-1e-320": ["evolve", "--set", "N=3", "--set", "m=2", "--set", "rate_MHz=1e-320",
                           "--set", "points=3", "--set", "decoherence.t1_us=30"],
    "scan-1e-320": ["sweep", "--set", "kind=decoherence", "--set", "metric=bell_at_quarter_t",
                    "--set", "N=3", "--set", "rate_MHz=1e-320"],
}


def test_overflowing_rates_exit_2_without_warnings(outdir):
    # These once wrote NaN tables, counted every sample failed, or warned
    # before exiting 2 or 3.  The systems refuse them: one error line, and
    # no artifact.
    src = str(Path(domechain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, argv in _OVERFLOWING_RATES.items():
        done = subprocess.run([sys.executable, "-m", "domechain.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 2, (name, done.stderr)
        [line] = done.stderr.splitlines()
        error = json.loads(line)
        assert error["error"] == "validation", name
        if name.endswith("1e-320"):
            assert error["detail"] == ("J must be finite and positive with a finite 2 pi / J, "
                                       "got 6.283032818e-314"), name
        else:
            assert error["detail"].endswith("rad/s scales the site matrix past a float"), name
        assert list(outdir.iterdir()) == [], name


@pytest.mark.parametrize("extra", [[], ["--set", "decoherence.t1_us=30"]], ids=["closed", "open"])
def test_evolve_end_past_a_float_exits_2_without_warnings(outdir, extra):
    # The period 2 pi / J of 1e-312 MHz is finite, 1e306 s, but 2000 periods
    # are not: the closed evolve wrote inf and NaN times and the open one
    # warned before exiting 2.  Now both stop before the time grid.
    src = str(Path(domechain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "domechain.cli", "evolve", "--set", "N=3", "--set", "m=2",
         "--set", "rate_MHz=1e-312", "--set", "n_periods=2000", "--set", "points=3", *extra],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 2, done.stderr
    [line] = done.stderr.splitlines()
    assert json.loads(line) == {
        "error": "validation",
        "detail": "the evolve's end, period 1.0000000000012069e+306 s times n_periods = 2000, "
                  "overflows a float",
    }
    assert list(outdir.iterdir()) == []


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
    # An earlier --set list must not leak into a later call, with or without
    # --set of its own.
    assert run(["synth", "--set", "N=5", "--set", "m=2", "--output", "a.json"]) == 0
    assert run(["synth", "--set", "N=3", "--output", "b.json", "--set", "m=0"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "m": 1}))
    assert run(["synth", "--config", str(cfg), "--output", "c.json"]) == 0
    lengths = [len(json.loads((outdir / f"{n}.json").read_text())["omegas"]) for n in "abc"]
    assert lengths == [5, 3, 4]


def test_table_lines_equal_csv_writer_with_fmt(outdir):
    table = np.array([
        [-0.0, 1e-300, 3.0, 0.1],
        [1.0, -2.0, 1e16, 2.5e-7],
        [0.25, 123456789012345.0, -1e-310, 1 / 3],
    ])
    tails = {0: float("nan"), 2: 0.999999999999}
    header = ["a", "b", "c", "d", "e"]
    rows = [[_fmt(x) for x in row] + [_fmt(tails[i]) if i in tails else ""]
            for i, row in enumerate(table)]
    got = f"{','.join(header)}\n" + b"".join(_table_bytes(table, tails)).decode()
    assert got == _csv_writer_text(header, rows)
    assert got.splitlines()[1] == "-0,1e-300,3,0.1,nan"
    # Above the gate, in row blocks of 8192 // 3 = 2730 rows: the 3000 rows
    # straddle a block boundary, the hard cells print as _fmt, also in the
    # first and last slot of a row, and rows 2729 and 2731 on either side of
    # the boundary carry tails.
    rng = np.random.default_rng(17)
    big = rng.standard_normal((3000, 3)) * 10.0 ** rng.integers(-30, 30, (3000, 3))
    big[2729:2731] = [[0.0, -np.inf, 999999999999.5], [np.nan, 5e-324, -1e-300]]
    tails = {i: x for i, x in enumerate(big[:, 0].tolist()) if i % 7}
    assert {2729, 2731} <= tails.keys()
    rows = [[_fmt(x) for x in row] + [_fmt(tails[i]) if i in tails else ""]
            for i, row in enumerate(big)]
    got = f"{','.join(header[1:])}\n" + b"".join(_table_bytes(big, tails)).decode()
    assert got == _csv_writer_text(header[1:], rows)
    # Sweep CSVs are joined the same way: csv.writer on the JSON table's rows.
    for name in ("chain", "decoherence"):
        assert main(["sweep", *_SWEEPS[name], "--output", f"{name}.csv"]) == 0
        assert main(["sweep", *_SWEEPS[name], "--output", f"{name}.json", "--format", "json"]) == 0
        written = json.loads((outdir / f"{name}.json").read_text())
        text = (outdir / f"{name}.csv").read_text()
        assert text == _csv_writer_text(written["columns"], written["rows"]), name


def test_block_formatter_equals_percent_g_on_random_bits_and_decades():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64).reshape(100, 100, 100)
    decades = np.array([float(f"1e{k}") for k in range(-320, 309)])
    cells = np.concatenate([decades, np.nextafter(decades, 0), np.nextafter(decades, np.inf)])
    for block in [*bits, np.concatenate([cells, -cells]).reshape(6, -1)]:
        want = "".join("".join("%.12g," % x for x in row) + "\n" for row in block.tolist())
        assert b"".join(_table_bytes(block, {})) == want.encode()


def test_table_chunks_are_row_blocks(outdir):
    # One chunk per block of 8192 // 7 = 1170 rows, each ending a row; the
    # tails land in their own blocks, on either side of a boundary.
    table = np.arange(3000 * 7, dtype=float).reshape(3000, 7) / 7
    tails = {0: 0.5, 1169: 1.5, 1170: 2.5, 2999: 3.5}
    chunks = list(_table_bytes(table, tails))
    assert [chunk.count(b"\n") for chunk in chunks] == [1170, 1170, 660]
    assert b"".join(chunks) == _per_row_table_bytes(table, tails)[0]


def test_failed_stream_leaves_the_artifact_and_no_temp_file(outdir):
    path = outdir / "evolve.csv"
    path.write_bytes(b"old artifact\n")

    def chunks():
        yield b"first block\n"
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        cli._write_atomic(path, chunks())
    assert path.read_bytes() == b"old artifact\n"
    assert list(outdir.glob("*.tmp")) == []


def test_atomic_write_makes_missing_directories_and_a_private_file(outdir):
    # One os.open makes the temp file; a missing output directory, nested
    # two deep here, is made when that open fails, and the artifact gets
    # the mode mkstemp gives (0600 under the umask).
    path = outdir / "new" / "nested" / "sweep.csv"
    cli._write_atomic(path, [b"a,b\n", b"1,2\n"])
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert list(outdir.rglob("*.tmp")) == []
    fd, reference = tempfile.mkstemp(dir=outdir)
    os.close(fd)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(os.stat(reference).st_mode) == 0o600


def test_table_writer_memory_does_not_grow_with_the_table(outdir):
    # 200 000 x 7 random floats are 21 MB of CSV; writing them whole took a
    # 111 MB peak.  Streamed, the writer holds one row block and its temporaries.
    import tracemalloc

    table = np.random.default_rng(3).random((200_000, 7))
    cli._cell_tables()  # the lookup tables are built once per process, not per table
    tracemalloc.start()
    try:
        cli._write_atomic(outdir / "big.csv", _table_bytes(table, {1: 0.25, 199_999: 0.75}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert (outdir / "big.csv").stat().st_size > 10**7


def _per_row_table_bytes(table, tails):
    """_table_bytes as one %-template per row, in one chunk."""
    template = "%.12g," * table.shape[1]
    return ["".join(template % tuple(row) + (_fmt(tails[i]) if i in tails else "") + "\n"
                    for i, row in enumerate(table.tolist())).encode()]


_TABLE_EVOLVES = {  # cells of the evolve table, then its --set arguments
    "chain_128": (402 * 130, ["N=128", "m=2", "rate_MHz=5"]),
    "grid_10x10": (402 * 102, ["rows=10", "cols=10", "m_x=2", "m_y=2", "rate_MHz=5"]),
    "chain_5_m102_4_periods": (1605 * 7, ["N=5", "m=102", "rate_MHz=5", "n_periods=4"]),
    "open_5": (402 * 7, ["N=5", "m=2", "rate_MHz=5", "decoherence.t1_us=30",
                         "decoherence.tphi_us=5"]),
    "open_5_below_gate": (11 * 7, ["N=5", "m=2", "rate_MHz=5", "decoherence.t1_us=30",
                                   "decoherence.tphi_us=5", "n_periods=0.25", "points=11"]),
}


@pytest.mark.parametrize("case", list(_TABLE_EVOLVES))
def test_evolve_tables_equal_the_per_row_template(outdir, monkeypatch, case):
    cells, sets = _TABLE_EVOLVES[case]
    printed = []
    monkeypatch.setattr(cli, "_table_bytes",
                        lambda table, tails: printed.append(table.size) or _table_bytes(table, tails))
    argv = ["evolve", *(a for kv in sets for a in ("--set", kv))]
    for fmt in ("csv", "json"):
        assert run([*argv, "--format", fmt, "--output", f"new.{fmt}"]) == 0
    with monkeypatch.context() as oracle:
        oracle.setattr(cli, "_table_bytes", _per_row_table_bytes)
        assert run([*argv, "--output", "old.csv"]) == 0
    old = (outdir / "old.csv").read_bytes()
    assert (outdir / "new.csv").read_bytes() == old
    # The JSON table is the per-row CSV split at its commas, as json.dumps writes it.
    header, *lines = old.decode().splitlines()
    payload = {"columns": header.split(","), "rows": [line.split(",") for line in lines]}
    assert (outdir / "new.json").read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # Each format printed the table through the slot pass iff it is above the gate.
    assert sum(printed) == (2 * cells if cells >= 500 else 0)


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


def test_readme_defaults_table_matches_the_schemas():
    section = README.read_text().split("### Config defaults", 1)[1]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    documented = {
        (key.strip(" `"), variant.strip(), json.dumps(json.loads(default.strip(" `"))))
        for key, variants, default in rows for variant in variants.split(",")
    }
    assert documented == {
        (key, f"{command} {variant}", json.dumps(sub["default"]))
        for command, variants in SCHEMAS.items() for variant, schema in variants.items()
        for key, sub in schema["properties"].items() if "default" in sub
    }


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert 0.98 < namespace["fidelity"] <= 1.0


_LAZY_CASES = {
    "synth": ["synth", "--set", "N=26", "--set", "m=2"],
    "evolve_closed": ["evolve", "--set", "N=5", "--set", "m=2", "--set", "points=9"],
    "sweep_coherent": ["sweep", "--set", "kind=coherent", "--set", "metric=qpt_at_half_t",
                       "--set", "N=3", "--set", "target=all", "--set", "sigma=0.1",
                       "--set", "samples=2", "--seed", "1"],
    "cascade": ["cascade", "--set", "kind=dome", "--set", "N=40", "--set", "m=10",
                "--set", "k=4", "--set", "j_max_MHz=50", "--set", "j_min_MHz=0.01"],
    "evolve_open": ["evolve", "--set", "N=3", "--set", "m=2", "--set", "points=9",
                    "--set", "rate_MHz=5", "--set", "decoherence.t1_us=30"],
    # 42 sites, above DENSE_GENERATOR_MAX_SITES: the expm_multiply branch.
    "evolve_open_sparse": ["evolve", "--set", "rows=6", "--set", "cols=7", "--set", "m_x=2",
                           "--set", "m_y=2", "--set", "points=3", "--set", "n_periods=0.01",
                           "--set", "rate_MHz=5", "--set", "decoherence.t1_us=30"],
}


def _modules_after(argv, tables=None):
    """Names in sys.modules after a fresh interpreter imports domechain.cli
    and runs cli.main(argv) unless argv is None.

    `tables`, if given, is how many times _table_bytes' lookup tables must
    have been built by then.
    """
    src = str(Path(domechain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import json, sys\nfrom domechain import cli\n"
            + ("" if argv is None else f"assert cli.main({argv!r}) == 0\n")
            + "print(json.dumps([sorted(sys.modules), cli._cell_tables.cache_info().currsize]))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    modules, built = json.loads(done.stdout.splitlines()[-1])
    assert tables is None or built == tables
    return set(modules)


# Modules a closed command never imports: scipy and jsonschema are heavy, and
# argparse and gettext cost a fresh process about 2 ms that `cli._parse` saves.
_NOT_IMPORTED = {"scipy", "jsonschema", "argparse", "gettext"}


@pytest.mark.parametrize("case", ["synth", "evolve_closed", "sweep_coherent", "cascade"])
def test_closed_commands_import_neither_scipy_nor_jsonschema(case):
    loaded = {name.split(".")[0] for name in _modules_after(_LAZY_CASES[case])}
    assert not loaded & _NOT_IMPORTED


def test_cli_import_builds_no_formatter_tables():
    # Import time is set-up time: the tables are built by the first table
    # above the gate, and the import loads no more than a closed command does.
    imported = _modules_after(None, tables=0)
    assert imported <= _modules_after(_LAZY_CASES["evolve_closed"], tables=0)
    assert not {name.split(".")[0] for name in imported} & _NOT_IMPORTED
    assert "concurrent.futures" not in imported  # its import costs about 6 ms of set-up
    _modules_after(["evolve", "--set", "N=5", "--set", "m=2", "--set", "points=200"], tables=1)


def test_open_evolve_imports_scipy_linalg():
    # Only the sparse branch needs scipy; a dense open evolve runs on numpy.
    from domechain.dynamics import DENSE_GENERATOR_MAX_SITES

    assert 6 * 7 > DENSE_GENERATOR_MAX_SITES
    assert "scipy.linalg" in _modules_after(_LAZY_CASES["evolve_open_sparse"])
    loaded = {name.split(".")[0] for name in _modules_after(_LAZY_CASES["evolve_open"])}
    assert not loaded & {"scipy", "jsonschema"}


def counted_eighs(monkeypatch) -> list:
    """The (D, D) matrix shape of every later np.linalg.eigh call, one entry a call."""
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: shapes.append(H.shape[-2:]) or eigh(H))
    return shapes


def test_closed_evolve_diagonalizes_once(outdir, monkeypatch):
    calls = counted_eighs(monkeypatch)
    assert run(["evolve", "--set", "N=6", "--set", "m=2", "--set", "points=21"]) == 0
    assert len(calls) == 1


def test_closed_grid_evolve_diagonalizes_its_two_chains(outdir, monkeypatch):
    # A closed grid is the product of its column and row chains: one system
    # model, then one closed-form pass and one small diagonalization per
    # distinct axis, and no site matrix from the model.  A square grid shares
    # one axis only when m_x = m_y.  An open grid still needs the dense
    # matrix, because dephasing does not factor over the chains.
    from domechain import models

    eighs, built, matrices = counted_eighs(monkeypatch), [], models._SiteModel.matrices
    monkeypatch.setattr(models._SiteModel, "matrices",
                        lambda *a, **k: built.append(matrices(*a, **k).shape) or matrices(*a, **k))
    passes, of, entries = [], models._SiteModel.of, models._dome_entries
    monkeypatch.setattr(models._SiteModel, "of", lambda system: passes.append("of") or of(system))
    monkeypatch.setattr(models, "_dome_entries", lambda N, m: passes.append(N) or entries(N, m))
    grid = ["evolve", "--set", "rows=3", "--set", "cols=5", "--set", "m_x=2", "--set", "m_y=1",
            "--set", "rate_MHz=5", "--set", "points=21"]
    for extra, axes in (([], [3, 5]), (["--set", "rows=5", "--set", "m_y=2"], [5]),
                        (["--set", "rows=5"], [5, 5])):
        eighs.clear()
        passes.clear()
        assert run([*grid, *extra]) == 0
        assert (eighs, built, passes) == ([(n, n) for n in axes], [], ["of", *axes])
    assert run([*grid, "--set", "decoherence.t1_us=30", "--set", "decoherence.tphi_us=5"]) == 0
    assert built == [(1, 15, 15)]


def test_synth_diagonalizes_once_with_one_weights_pass(outdir, monkeypatch):
    from domechain import inverse_eigen

    calls = {"eigh": 0, "eigvalsh": 0, "_weights": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(inverse_eigen, "_weights", counted("_weights", inverse_eigen._weights))
    for argv in (["synth", "--set", "N=24", "--set", "m=2"],
                 ["synth", "--set", "spectrum=[-1, 0.5, 2]", "--format", "csv"]):
        calls.update(dict.fromkeys(calls, 0))
        assert run(argv) == 0
        assert calls == {"eigh": 1, "eigvalsh": 0, "_weights": 1}


def test_open_evolve_makes_no_extra_propagation(outdir, monkeypatch):
    # The default grid is one uniform run with T/4 and T/2 branched off it:
    # 3 step exponentials (the grid step and the two offsets) for each of the
    # chain's two mirror blocks; |1><1| has no vacuum coherences to propagate, so the one
    # diagonalization is the QPT column's closed amplitudes.
    # One stacked expm call carries several maps, so matrices are counted.
    from domechain import dynamics
    from test_dynamics import exponentiated

    expms, eighs, expm = [], counted_eighs(monkeypatch), dynamics._expm
    monkeypatch.setattr(dynamics, "_expm", lambda A: expms.append(A) or expm(A))
    assert run(["evolve", "--set", "N=5", "--set", "m=2", "--set", "rate_MHz=5",
                "--set", "decoherence.t1_us=30", "--set", "decoherence.tphi_us=5"]) == 0
    assert (exponentiated(expms), len(eighs)) == (2 * 3, 1)


@pytest.mark.parametrize(
    "n_sites, m, extra",
    [pytest.param(n, m, [], id=f"{n}-{m}") for n, m in [(2, 0), (3, 2), (5, 2), (6, 10), (17, 102)]]
    + [pytest.param(5, m, _OPEN, id=f"5-{m}-open") for m in (2, 102)],
)
def test_closed_evolve_qpt_column_matches_tomography(outdir, n_sites, m, extra):
    from domechain.dynamics import DecoherenceConfig
    from domechain.models import DomeParams, dome_hamiltonian
    from dense_oracles import simulate_qpt

    assert run(["evolve", "--set", f"N={n_sites}", "--set", f"m={m}", "--set", "points=21",
                *extra, "--output", "qpt.csv"]) == 0
    _, rows = read_csv(outdir / "qpt.csv")
    cells = {r[0]: float(r[-1]) for r in rows if r[-1]}
    if extra:
        params = DomeParams(N=n_sites, m=m, J=2 * np.pi * 5e6)
        deco = DecoherenceConfig(t1=30e-6, t_phi=5e-6)
    else:
        params, deco = DomeParams(N=n_sites, m=m), None
    assert sorted(cells) == ["0.25", "0.5"]
    for key, frac in (("0.25", 0.25), ("0.5", 0.5)):
        _, fid = simulate_qpt(dome_hamiltonian(params).matrix() * params.J, frac * params.period,
                              deco)
        assert cells[key] == pytest.approx(fid, abs=1e-11)


@pytest.mark.parametrize(
    "n_periods, points",
    [(None, 402), (1.0, 402), (2, 803), (0.25, 102), (0.3, 122), (4.0, 1605)],
)
def test_resolved_points_are_401_per_period(n_periods, points):
    cfg = {"N": 5, "m": 2} if n_periods is None else {"N": 5, "m": 2, "n_periods": n_periods}
    resolved = cli.resolve("evolve", cfg)
    assert resolved["points"] == points
    assert cli.resolve("evolve", {**cfg, "points": 7})["points"] == 7


def test_default_evolve_grid_spans_one_period():
    grid, marks = cli._evolve_times(cli.resolve("evolve", {"N": 5, "m": 2}), 2 * np.pi)
    assert grid.size == 402
    assert grid[0] == 0.0
    assert abs(grid[-1] - 2 * np.pi) < 1e-15
    np.testing.assert_array_equal(grid, np.linspace(0.0, 2 * np.pi, 402))
    assert list(marks.values()) == [np.pi / 2, np.pi]


@pytest.mark.parametrize(
    "cfg, marked",
    [
        ({"points": 2, "n_periods": 0.5}, [0.5]),  # T/4 is nearest to t=0: left out
        ({"points": 3, "n_periods": 1.0}, [0.5]),
        ({"points": 2, "n_periods": 1.0}, []),  # T/2 ties with t=0 and T
        ({"points": 3, "n_periods": 0.8}, [0.5]),  # T/2 takes over the T/4 row
        ({"points": 21, "n_periods": 1.0}, [0.25, 0.5]),
        ({"points": 11, "n_periods": 0.3}, [0.25]),
    ],
)
def test_evolve_times_keep_t0_and_mark_each_row_once(cfg, marked):
    times, got = _placed_times(cli.resolve("evolve", {"N": 2, "m": 0, **cfg}), 1.0)
    grid = np.linspace(0.0, cfg["n_periods"], cfg["points"])
    assert times[0] == 0.0 and times[got].tolist() == marked
    assert np.all(np.diff(times) > 0)
    rows = np.isin(times, marked)
    assert rows.sum() == len(marked) and np.flatnonzero(rows).tolist() == got
    np.testing.assert_array_equal(times[~rows], grid[~rows])


@pytest.mark.parametrize("rate", [{}, {"rate_MHz": 100000}], ids=["natural", "100GHz"])
@pytest.mark.parametrize("n_periods, marked", [(0.2499, []), (0.25, [0.25]), (0.5, [0.25, 0.5])])
def test_evolve_ends_at_n_periods_on_any_time_scale(outdir, rate, n_periods, marked):
    # At J/2pi = 100 GHz a period is 1e-11 s, so T/4 lies 1e-15 s past a
    # 0.2499-period grid: a marked time may overrun the end by ulps only.
    cfg = {"N": 5, "m": 2, **rate, "n_periods": n_periods, "points": 5}
    assert run(["evolve", *(a for k, v in cfg.items() for a in ("--set", f"{k}={v}"))]) == 0
    _, rows = read_csv(outdir / "evolve.csv")
    assert rows[-1][0] == _fmt(n_periods)
    assert [r[0] for r in rows if r[-1]] == [_fmt(x) for x in marked]
    period = 2 * np.pi / cli._rad_per_s(rate)
    times, got = _placed_times(cli.resolve("evolve", cfg), period)
    assert times[got].tolist() == [period * x for x in marked]
    assert times[-1] == period * n_periods


@pytest.mark.parametrize("extra", [[], ["--set", "rate_MHz=5", "--set", "decoherence.t1_us=30"]],
                         ids=["closed", "open"])
def test_evolve_keeps_t0_row_when_quarter_period_is_nearest_to_it(outdir, extra):
    assert run(["evolve", "--set", "N=3", "--set", "m=2", "--set", "points=2",
                "--set", "n_periods=0.5", *extra, "--output", "e.csv"]) == 0
    _, rows = read_csv(outdir / "e.csv")
    assert [r[0] for r in rows] == ["0", "0.5"]
    assert rows[0][-1] == "" and rows[1][-1] != ""
