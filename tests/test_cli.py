"""Command-line behavior: config validation, artifacts, reproducibility."""

import errno
import json
import math
import os
from concurrent.futures import Future

import pytest

from vhjlab import cli, solver
from vhjlab.cli import ConfigError, main, resolve_experiment
from vhjlab.config import build_profile
from vhjlab.exponents import ProblemParams


BASE = {
    "problem": {"N": 1, "p": 2.0, "q": 0.5},
    "ic": {"kind": "bump", "m": 1.0 / 96.0, "R0": 1.0},
    "grid": {"r_max": 4.0, "M": 128},
    "regularization": {"eps": 1e-7},
    "solver": {"t_end": 0.3, "tol_ext": 1e-7, "tol_pos": 1e-7,
               "snapshot_times": [0.05]},
}


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_derive_prints_constants_json(capsys):
    assert main(["derive", "1", "2.0", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "single_point"
    assert out["constants"]["omega"] == pytest.approx(3.0)


def test_derive_out_of_scope_is_not_an_error(capsys):
    assert main(["derive", "1", "2.5", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "out_of_scope"
    assert out["constants"] is None


@pytest.mark.parametrize("q", ["nan", "inf"])
def test_derive_of_a_non_finite_q_is_out_of_scope(capsys, q):
    assert main(["derive", "1", "2.0", q]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["regime"], out["constants"]) == ("out_of_scope", None)
    assert "need a finite q > 0" in out["note"]


def test_type_error_names_the_key_path(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["grid"]["M"] = "lots"
    code = main(["simulate", write_config(tmp_path, doc)])
    assert code == 2
    assert "grid.M" in capsys.readouterr().err


def test_unknown_keys_are_rejected_with_their_path(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["solver"]["hteng"] = 1.0
    code = main(["simulate", write_config(tmp_path, doc)])
    assert code == 2
    assert "solver.hteng" in capsys.readouterr().err


def test_missing_required_key_is_reported(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    del doc["solver"]["t_end"]
    code = main(["simulate", write_config(tmp_path, doc)])
    assert code == 2
    assert "solver.t_end" in capsys.readouterr().err


def test_invalid_json_exits_with_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_simulate_writes_run_directory(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["output"] = {"dir": str(tmp_path / "run")}
    assert main(["simulate", write_config(tmp_path, doc)]) == 0
    run = tmp_path / "run"
    assert (run / "resolved-config.json").exists()
    assert (run / "series.csv").exists()
    assert (run / "summary.json").exists()
    assert (run / "snapshots" / "index.csv").exists()
    summary = json.loads((run / "summary.json").read_text())
    assert sorted(summary) == sorted([
        "outcome", "T_e_est", "t_final", "n_steps", "sup0", "tol_ext", "tol_pos",
        "scheme", "ic", "n_series", "n_snapshots"])
    assert summary["outcome"] == "extinct"
    resolved = json.loads((run / "resolved-config.json").read_text())
    assert summary["ic"] == resolved["ic"]
    header = (run / "series.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["t", "sup", "support_radius"]


# a fast_decay experiment with eps, both tolerances and the snapshot times
# given, so no value of its resolved config comes from a power
GOLDEN_DOC = {
    "problem": {"N": 1, "p": 2.0, "q": 0.5},
    "ic": {"kind": "fast_decay", "C": 0.5, "theta": 2.0},
    "grid": {"r_max": 8.0, "M": 16},
    "regularization": {"eps": 1e-7},
    "solver": {"t_end": 0.01, "tol_ext": 1e-9, "tol_pos": 1e-5,
               "snapshot_times": [0.0025, 0.005]},
    "output": {"dir": "run"},
}
GOLDEN_RESOLVED = """\
{
  "analysis": {
    "domination": [],
    "j_R0": null
  },
  "grid": {
    "M": 16,
    "r_max": 8.0
  },
  "ic": {
    "C": 0.5,
    "kind": "fast_decay",
    "theta": 2.0
  },
  "output": {
    "dir": "run"
  },
  "problem": {
    "N": 1,
    "p": 2.0,
    "q": 0.5
  },
  "regularization": {
    "counterterm": true,
    "eps": 1e-07
  },
  "solver": {
    "lift": 0.0,
    "scheme": "explicit",
    "series_gradient_floor": 0.0,
    "series_gradient_power": null,
    "series_stride": 8,
    "snapshot_times": [
      0.0025,
      0.005
    ],
    "t_end": 0.01,
    "tol_ext": 1e-09,
    "tol_pos": 1e-05
  }
}
"""


def test_resolved_config_text_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", write_config(tmp_path, GOLDEN_DOC)]) == 0
    assert (tmp_path / "run" / "resolved-config.json").read_text() == GOLDEN_RESOLVED


def test_simulate_exits_3_on_a_diverged_run(tmp_path, capsys, monkeypatch):
    # steps of 50 times the explicit bound drive the scheme unstable; the
    # run directory is still written
    bound, step = solver.SCHEMES["explicit"]
    monkeypatch.setitem(solver.SCHEMES, "explicit",
                        (lambda *args: 50.0 * bound(*args), step))
    doc = json.loads(json.dumps(BASE))
    doc["output"] = {"dir": str(tmp_path / "run")}
    assert main(["simulate", write_config(tmp_path, doc)]) == 3
    assert capsys.readouterr().out.startswith("diverged: ")
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["outcome"] == "diverged"


def test_simulate_exits_3_when_the_step_budget_runs_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "MAX_STEPS", 5)
    doc = json.loads(json.dumps(BASE))
    doc["output"] = {"dir": str(tmp_path / "run")}
    assert main(["simulate", write_config(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.startswith("runtime error: step budget 5 exhausted at t = ")
    assert not (tmp_path / "run").exists()


def test_two_runs_are_byte_identical(tmp_path):
    for name in ("a", "b"):
        doc = json.loads(json.dumps(BASE))
        doc["output"] = {"dir": str(tmp_path / name)}
        assert main(["simulate", write_config(tmp_path, doc, f"{name}.json")]) == 0
    assert ((tmp_path / "a" / "series.csv").read_bytes()
            == (tmp_path / "b" / "series.csv").read_bytes())
    assert ((tmp_path / "a" / "snapshots" / "snap-0001.csv").read_bytes()
            == (tmp_path / "b" / "snapshots" / "snap-0001.csv").read_bytes())


def test_resolved_config_reproduces_the_run(tmp_path):
    doc = json.loads(json.dumps(BASE))
    doc["output"] = {"dir": str(tmp_path / "orig")}
    assert main(["simulate", write_config(tmp_path, doc)]) == 0

    resolved = json.loads((tmp_path / "orig" / "resolved-config.json").read_text())
    resolved["output"]["dir"] = str(tmp_path / "redo")
    assert main(["simulate", write_config(tmp_path, resolved, "redo.json")]) == 0

    assert ((tmp_path / "orig" / "series.csv").read_bytes()
            == (tmp_path / "redo" / "series.csv").read_bytes())
    orig = json.loads((tmp_path / "orig" / "summary.json").read_text())
    redo = json.loads((tmp_path / "redo" / "summary.json").read_text())
    assert orig == redo


def test_analyze_reports_fits_on_a_run(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["output"] = {"dir": str(tmp_path / "run")}
    doc["analysis"] = {"j_R0": 1.0}
    assert main(["simulate", write_config(tmp_path, doc)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "run")]) == 0
    report = json.loads(capsys.readouterr().out)
    quantities = {f["quantity"] for f in report["fits"]}
    assert quantities == {"sup", "support_radius"}
    sup_fit = next(f for f in report["fits"] if f["quantity"] == "sup")
    # the quantity and FitResult's fields
    assert set(sup_fit) == {"quantity", "exponent", "intercept", "n_points",
                            "t_window", "max_log_residual"}
    assert 1.0 < sup_fit["exponent"] < 2.5
    assert report["j_diagnostic"]["passed"] is True
    assert (tmp_path / "run" / "analysis-report.json").exists()


def test_simulate_into_a_used_run_directory_leaves_no_stale_artifacts(tmp_path, capsys):
    # a second run into the same directory, with fewer snapshots and
    # another lifetime: the first run's extra snapshots and its analysis
    # report go, files the run directory does not own stay
    run_dir = tmp_path / "run"
    doc = json.loads(json.dumps(BASE))
    doc["solver"]["snapshot_times"] = [0.02, 0.05, 0.09]
    doc["output"] = {"dir": str(run_dir)}
    assert main(["simulate", write_config(tmp_path, doc)]) == 0
    assert main(["analyze", str(run_dir)]) == 0
    (run_dir / "notes.txt").write_text("kept\n")
    doc["ic"]["m"] = 1.0 / 192.0
    doc["solver"]["snapshot_times"] = []
    assert main(["simulate", write_config(tmp_path, doc)]) == 0
    assert sorted(path.name for path in (run_dir / "snapshots").iterdir()) == [
        "index.csv", "snap-0000.csv", "snap-0001.csv"]
    assert not (run_dir / "analysis-report.json").exists()
    assert (run_dir / "notes.txt").read_text() == "kept\n"
    capsys.readouterr()
    assert main(["analyze", str(run_dir)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert json.loads(capsys.readouterr().out)["T_e_est"] == summary["T_e_est"]


def test_analyze_reports_the_gradient_envelope(tmp_path, capsys):
    # a run with a gradient column: analyze reads the (t, quotient) pair
    doc = json.loads(json.dumps(BASE))
    doc["grid"]["M"] = 64
    doc["solver"]["series_gradient_power"] = 0.5
    doc["output"] = {"dir": str(tmp_path / "run")}
    assert main(["simulate", write_config(tmp_path, doc)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "run")]) == 0
    envelope = json.loads(capsys.readouterr().out)["gradient_envelope"]
    assert envelope["n_points"] > 0
    assert 0.0 < envelope["sup_quotient"] < math.inf


def test_analyze_rejects_a_non_run_directory(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 2
    assert "resolved-config.json" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["summary.json", "series.csv", "snapshots/index.csv",
                                  "snapshots/snap-0001.csv"])
def test_analyze_rejects_an_incomplete_run_directory(tmp_path, capsys, name):
    cfg = write_config(tmp_path, BASE)
    assert main(["simulate", cfg]) == 0
    run_dir = tmp_path / "exp"
    (run_dir / name).unlink()
    capsys.readouterr()
    assert main(["analyze", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"not a run directory (missing {name})" in captured.err


def test_analyze_takes_a_directory_in_a_file_s_place_as_a_missing_file(tmp_path, capsys):
    assert main(["simulate", write_config(tmp_path, BASE)]) == 0
    (tmp_path / "exp" / "snapshots" / "snap-0001.csv").unlink()
    (tmp_path / "exp" / "snapshots" / "snap-0001.csv").mkdir()
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "exp")]) == 2
    assert capsys.readouterr().err == (f"config error: {tmp_path / 'exp'}: not a run "
                                       "directory (missing snapshots/snap-0001.csv)\n")


def _damage(path, old, new):
    path.write_text(path.read_text().replace(old, new, 1))


def _drop_last_row(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _replace_line(path, i, line):
    lines = path.read_text().split("\n")
    lines[i] = line
    path.write_text("\n".join(lines))


def _no_series(summary_path):
    # a consistent but empty series: n_series 0 and a header-only csv
    series = summary_path.parent / "series.csv"
    series.write_text(series.read_text().splitlines(keepends=True)[0])
    summary = json.loads(summary_path.read_text())
    assert summary["T_e_est"] is not None
    summary_path.write_text(json.dumps({**summary, "n_series": 0}))


@pytest.mark.parametrize("name, damage, message", [
    ("summary.json", lambda p: p.write_text("{"), "not valid JSON"),
    ("summary.json", lambda p: p.write_text("[]"), "expected a JSON object"),
    ("summary.json", lambda p: _damage(p, '"outcome"', '"result"'),
     "missing key 'outcome'"),
    ("summary.json",
     lambda p: p.write_text(json.dumps({**json.loads(p.read_text()), "T_e_est": "soon"})),
     "T_e_est: expected a number, got 'soon'"),
    ("summary.json",
     lambda p: p.write_text(json.dumps({**json.loads(p.read_text()),
                                        "outcome": "not-an-outcome"})),
     "outcome: expected 'extinct' or 'horizon_reached' or 'diverged', "
     "got 'not-an-outcome'"),
    ("series.csv", lambda p: p.write_text(""), "empty file"),
    ("series.csv", lambda p: _damage(p, "support_radius", "radius"),
     "missing column 'support_radius'"),
    ("series.csv", lambda p: _damage(p, "\n0,", "\nzero,"),
     "could not convert string to float"),
    ("series.csv", lambda p: _damage(p, "\n0,", "\n"), "line 2 has 3 cells"),
    ("series.csv", lambda p: _drop_last_row(p), "rows, summary.json has n_series"),
    ("snapshots/index.csv", lambda p: _damage(p, "k,t", "t"),
     "missing column 'k'"),
    ("snapshots/index.csv", lambda p: _damage(p, "\n1,", "\n1.5,"),
     "row 1 has k = 1.5, not its own index 1"),
    ("snapshots/index.csv", lambda p: _damage(p, "\n1,", "\n1e400,"),
     "row 1 has k = inf, not its own index 1"),
    ("snapshots/index.csv", lambda p: _damage(p, "\n0,", "\n2,"),
     "row 0 has k = 2, not its own index 0"),
    ("snapshots/index.csv", lambda p: _drop_last_row(p),
     "2 rows, summary.json has n_snapshots 3"),
    ("snapshots/snap-0001.csv", lambda p: _damage(p, "\n", ",1\n"),
     "has 2 cells, the header 3"),
    ("snapshots/snap-0001.csv",
     lambda p: p.write_text("\n".join(p.read_text().split("\n")[:30])),
     "29 rows, the grid has 128 cells"),
    ("summary.json", _no_series, "n_series is 0, but a run records at least"),
    # numpy's reader skips a blank line and refuses 1_0, which float()
    # reads as 10: the verdicts stay those of the row-by-row reader
    ("series.csv", lambda p: _replace_line(p, 1, ""), "line 2 has 1 cells, the header 4"),
    ("series.csv", lambda p: _replace_line(p, 3, "  \t"),
     "line 4 has 1 cells, the header 4"),
    ("snapshots/index.csv", lambda p: _damage(p, "\n1,", "\n1_0,"),
     "row 1 has k = 10, not its own index 1"),
    # a well-formed file but for a header that names sup twice, whose
    # last column the reader once took silently
    ("series.csv", lambda p: p.write_text(
        p.read_text().replace("\n", ",7\n").replace("mass,7", "mass,sup", 1)),
     "column 'sup' appears twice in the header"),
], ids=["summary-not-json", "summary-not-object", "summary-missing-key",
        "summary-bad-value", "summary-bad-outcome", "series-empty", "series-missing-column",
        "series-non-numeric", "series-ragged", "series-truncated", "index-missing-k",
        "index-fractional-k", "index-overflowing-k", "index-repeated-k",
        "index-truncated", "snapshot-ragged", "snapshot-short", "summary-no-series",
        "series-blank-line", "series-whitespace-line", "index-underscored-k",
        "series-repeated-column"])
def test_analyze_rejects_a_damaged_run_directory(tmp_path, capsys, name, damage, message):
    cfg = write_config(tmp_path, BASE)
    assert main(["simulate", cfg]) == 0
    run_dir = tmp_path / "exp"
    damage(run_dir / name)
    capsys.readouterr()
    assert main(["analyze", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {run_dir / name}: ")
    assert message in captured.err
    assert not (run_dir / "analysis-report.json").exists()


def test_csv_cells_are_written_as_fmt_writes_them(tmp_path):
    import numpy as np
    from vhjlab.cli import _fmt, _write_csv
    values = np.array([0.0, -0.0, 5e-324, 2.5e-310, 1e300, 1 / 3])
    index = np.arange(len(values))
    path = tmp_path / "cells.csv"
    _write_csv(path, ["k", "x"], [index, values])
    lines = ["k,x"] + [f"{_fmt(k)},{_fmt(x)}" for k, x in zip(index, values)]
    assert path.read_text() == "\n".join(lines) + "\n"
    assert path.read_text().splitlines()[1:4] == ["0,0", "1,-0", "2,4.9406564584124654e-324"]
    # across the 1024-row chunks, and with no rows at all
    rng = np.random.default_rng(2048)
    for n in (2 * 1024 + 3, 0):
        index, values = np.arange(n), rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        _write_csv(path, ["k", "x"], [index, values])
        lines = ["k,x"] + [f"{_fmt(k)},{_fmt(x)}" for k, x in zip(index, values)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _series_columns(n):
    import numpy as np
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.random(n)) * 1e-5
    return [t - t[0], rng.random(n), 4.0 * rng.random(n), 1e-2 * rng.random(n)]


def test_csv_files_are_streamed(tmp_path):
    # the series of a 7 614-row job: neither side holds the file's text
    # as Python objects (a list of rows of cells took 9x its size, a
    # joined text 4x)
    import tracemalloc
    from vhjlab.cli import _SERIES, _read_csv, _write_csv
    n, columns, path = 7614, _series_columns(7614), tmp_path / "series.csv"
    _write_csv(path, list(_SERIES), columns)
    size = path.stat().st_size

    def peak(call):
        # the most memory call holds at once, over the file's size
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - base) / size
        finally:
            tracemalloc.stop()

    assert peak(lambda: _write_csv(path, list(_SERIES), columns)) <= 1.0
    assert peak(lambda: _read_csv(path, _SERIES, n, "expected")) <= 1.5


def test_csv_reader_keeps_the_row_by_row_readers_values(tmp_path):
    # numpy's reader returns float()'s values; where it refuses a file
    # float() reads, or skips lines, the row-by-row reader reads it
    from vhjlab.cli import _SERIES, _read_csv, _read_csv_text, _write_csv
    path = tmp_path / "series.csv"
    _write_csv(path, list(_SERIES), _series_columns(3000))
    text = path.read_text()
    header, body = text.split("\n", 1)
    for damaged in (text, text.replace("\n0,", "\n0_0,", 1), "\n" + text + "\n \n",
                    text.replace("\n0,", "\n\uff10,", 1),
                    header + "\n" + body.replace(",", " ,\t")):
        path.write_text(damaged)
        read, expected = (reader(path, _SERIES, 3000, "expected")
                          for reader in (_read_csv, _read_csv_text))
        assert list(read) == list(_SERIES)
        for name in _SERIES:
            assert read[name].tobytes() == expected[name].tobytes()


def test_residual_pass_and_fail_exit_codes(tmp_path, capsys):
    ok = {"problem": {"N": 1, "p": 2.0, "q": 0.5},
          "profile": {"kind": "barrier"},
          "box": [0.0, 1.0, 0.001, 1000.0],
          "sense": "super"}
    assert main(["residual", write_config(tmp_path, ok, "ok.json")]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["passed"] is True

    bad = dict(ok, profile={"kind": "tail_floor", "T": 2.0},
               box=[0.0, 1.9, 0.001, 100.0])
    assert main(["residual", write_config(tmp_path, bad, "bad.json")]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["passed"] is False


def test_residual_reports_a_bad_sense_with_its_key_path(tmp_path, capsys):
    doc = {"problem": {"N": 1, "p": 2.0, "q": 0.5},
           "profile": {"kind": "barrier"},
           "box": [0.0, 1.0, 0.001, 1000.0], "sense": "sideways"}
    assert main(["residual", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("config error: sense: expected 'super' or 'sub', got 'sideways'"
            in captured.err)


@pytest.mark.parametrize("key, value", [("n_t", 0), ("n_t", -3), ("n_r", 0)])
def test_residual_rejects_an_empty_sample_lattice(tmp_path, capsys, key, value):
    doc = {"problem": {"N": 1, "p": 2.0, "q": 0.5},
           "profile": {"kind": "barrier"},
           "box": [0.0, 1.0, 0.001, 1000.0], "sense": "super", key: value}
    assert main(["residual", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {key} must be at least 1, got {value}" in captured.err


@pytest.mark.parametrize("key, value, message", [
    ("seed", -1, "seed: expected a non-negative integer, got -1"),
    ("seed", 1.5, "seed: expected an integer, got 1.5"),
    ("tol", 1e-10, "tol: unknown key"),     # certify_sign's CERT_TOL
])
def test_residual_key_errors_name_their_key(tmp_path, capsys, key, value, message):
    doc = {"problem": {"N": 1, "p": 2.0, "q": 0.5},
           "profile": {"kind": "barrier"},
           "box": [0.0, 1.0, 0.001, 1000.0], "sense": "super", key: value}
    assert main(["residual", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}\n" == captured.err


@pytest.mark.parametrize("box", [
    [0.0, 1.0, 0.0, 1000.0],            # r_lo on the origin
    [0.0, 1.0, -1e-3, 1000.0],          # r_lo below it
    [1.0, 0.0, 0.001, 1000.0],          # t range reversed
    [0.5, 0.5, 0.001, 1000.0],          # t range empty
    [0.0, 1.0, 1000.0, 0.001],          # r range reversed
])
def test_residual_rejects_a_malformed_box(tmp_path, capsys, box):
    doc = {"problem": {"N": 1, "p": 2.0, "q": 0.5},
           "profile": {"kind": "barrier"}, "box": box, "sense": "super"}
    assert main(["residual", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: box" in captured.err


# profile parameters outside their domain, each with its message
P2 = {"N": 1, "p": 2.0, "q": 0.5}
SINGULAR = {"N": 2, "p": 1.8, "q": 0.6}
SHRINK = {"kind": "shrink_envelope", "decay_C": 1.0, "decay_theta": 3.0, "sup_u0": 1.0}
BAD_PROFILES = [
    (P2, dict(SHRINK, sup_u0=0.0), "need sup_u0 > 0, got sup_u0 = 0.0"),
    (P2, dict(SHRINK, sup_u0=-1.0), "need sup_u0 > 0, got sup_u0 = -1.0"),
    (P2, dict(SHRINK, decay_C=-1.0), "need decay_C > 0, got decay_C = -1.0"),
    (P2, {"kind": "tail_floor", "T": 0.0}, "need T > 0, got T = 0.0"),
    (P2, {"kind": "tail_floor", "T": -1.0}, "need T > 0, got T = -1.0"),
    (SINGULAR, {"kind": "decaying_envelope", "T": 0.0}, "need T > 0, got T = 0.0"),
    (SINGULAR, {"kind": "decaying_envelope", "T": -1.0}, "need T > 0, got T = -1.0"),
    (SINGULAR, {"kind": "decaying_envelope", "T": 1.0, "A": 0.0}, "need A > 0, got A = 0.0"),
    (SINGULAR, {"kind": "decaying_envelope", "T": 1.0, "A": -1e-3},
     "need A > 0, got A = -0.001"),
]
BAD_PROFILE_IDS = [f"{i}-{profile['kind']}" for i, (_, profile, _) in enumerate(BAD_PROFILES)]


@pytest.mark.parametrize("problem, profile, message", BAD_PROFILES, ids=BAD_PROFILE_IDS)
def test_residual_refuses_a_profile_outside_its_domain(tmp_path, capsys, problem,
                                                         profile, message):
    doc = {"problem": problem, "profile": profile,
           "box": [0.1, 0.5, 0.001, 10.0], "sense": "super"}
    assert main(["residual", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: profile: {message}\n"


@pytest.mark.parametrize("problem, profile, message", BAD_PROFILES, ids=BAD_PROFILE_IDS)
def test_simulate_refuses_a_profile_outside_its_domain(tmp_path, capsys, problem,
                                                         profile, message):
    doc = json.loads(json.dumps(BASE))
    doc["problem"] = problem
    doc["output"] = {"dir": str(tmp_path / "run")}
    doc["analysis"] = {"domination": [{"sense": "upper", "tol": 1e-3, "profile": profile}]}
    assert main(["simulate", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: analysis.domination[0].profile: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("problem, profile, box, horizon", [
    (SINGULAR, {"kind": "decaying_envelope", "T": 1.0}, [0.5, 2.0, 0.001, 10.0], 1.0),
    (P2, {"kind": "tail_floor", "T": 1.0}, [0.5, 2.0, 0.001, 10.0], 1.0),
    (P2, SHRINK, [-0.01, 0.5, 2.0, 10.0], math.inf),
    (P2, {"kind": "barrier"}, [-1.0, 1.0, 0.001, 1000.0], math.inf),
], ids=["decaying_envelope-past-T", "tail_floor-past-T", "shrink_envelope-before-0",
        "barrier-before-0"])
def test_residual_refuses_a_box_outside_the_profile_s_time_domain(
        tmp_path, capsys, problem, profile, box, horizon):
    doc = {"problem": problem, "profile": profile, "box": box, "sense": "super"}
    assert main(["residual", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: box must satisfy 0 <= t_lo < t_hi <= "
                            f"{horizon} and 0 < r_lo < r_hi, got {box}\n")


def test_verify_algebra_suite_passes(tmp_path, capsys):
    out_json = tmp_path / "results.json"
    assert main(["verify", "algebra", "--json", str(out_json)]) == 0
    assert "criterion  1 PASS" in capsys.readouterr().out
    results = json.loads(out_json.read_text())
    assert results[0]["number"] == 1 and results[0]["passed"] is True


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "everything"])
    assert err.value.code == 2


def test_verify_rejects_a_negative_seed_as_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "all", "--seed", "-1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed: expected a non-negative integer, got '-1'" in captured.err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_rejects_a_worker_count_below_one(tmp_path, workers):
    with pytest.raises(SystemExit) as err:
        main(["sweep", str(tmp_path / "fan.json"), "--workers", workers])
    assert err.value.code == 2


def test_sweep_runs_the_cartesian_product(tmp_path, capsys):
    doc = {"base": json.loads(json.dumps(BASE)),
           "sweep": {"grid.M": [96, 128], "problem.q": [0.5, 0.6]},
           "dir": str(tmp_path / "fan")}
    assert main(["sweep", write_config(tmp_path, doc), "--workers", "2"]) == 0
    summary = json.loads((tmp_path / "fan" / "sweep-summary.json").read_text())
    assert len(summary) == 4
    assert all(row["outcome"] == "extinct" for row in summary)
    dirs = {row["dir"].rsplit("/", 1)[-1] for row in summary}
    assert dirs == {"M=96_q=0.5", "M=96_q=0.6", "M=128_q=0.5", "M=128_q=0.6"}


class InlinePool:
    """ProcessPoolExecutor's stand-in: records each max_workers it is made
    with and runs every job in this process, at submit."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


def test_sweep_starts_no_more_workers_than_jobs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "made", [])
    base = json.loads(json.dumps(BASE))
    base["solver"].update(t_end=0.01, snapshot_times=[])
    doc = {"base": base, "sweep": {"problem.q": [0.5, 0.6]}, "dir": str(tmp_path / "fan")}
    path = write_config(tmp_path, doc)
    for flags in (["--workers", "500"], [], ["--workers", "1"]):
        assert main(["sweep", path] + flags) == 0
    assert InlinePool.made == [2, 2, 1]
    summary = json.loads((tmp_path / "fan" / "sweep-summary.json").read_text())
    assert [row["status"] for row in summary] == ["ok", "ok"]


@pytest.mark.parametrize("axes", [
    {"problem.q": [0.5, 0.5]},
    {"problem.q": [0.5, "0.5"]},
], ids=["repeated-value", "same-text"])
def test_sweep_rejects_jobs_that_share_a_run_directory(tmp_path, capsys, axes):
    doc = {"base": json.loads(json.dumps(BASE)), "sweep": axes,
           "dir": str(tmp_path / "fan")}
    assert main(["sweep", write_config(tmp_path, doc), "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep: ")
    assert "problem.q" in err and f"share the run directory {tmp_path / 'fan' / 'q=0.5'}" in err
    assert not (tmp_path / "fan").exists()


_AXIS_MESSAGE = ("sweep: expected a non-empty object mapping dotted key paths "
                 "to value lists")


@pytest.mark.parametrize("doc, message", [
    ({"sweep": {"problem.q": [0.5]}}, "base: required key is missing"),
    ({"base": [], "sweep": {"problem.q": [0.5]}}, "base: expected an experiment object"),
    ({"base": "exp.json", "sweep": {"problem.q": [0.5]}},
     "base: expected an experiment object"),
    ({"base": BASE}, "sweep: required key is missing"),
    ({"base": BASE, "sweep": {}}, _AXIS_MESSAGE),
    ({"base": BASE, "sweep": [["problem.q", [0.5]]]}, _AXIS_MESSAGE),
    ({"base": BASE, "sweep": "problem.q"}, _AXIS_MESSAGE),
    ({"base": BASE, "sweep": {"problem.q": 0.5}},
     "sweep.problem.q: expected a non-empty list"),
    ({"base": BASE, "sweep": {"problem.q": [0.5], "grid.M": []}},
     "sweep.grid.M: expected a non-empty list"),
    ({"base": BASE, "sweep": {"problem.q": {"0": 0.5}}},
     "sweep.problem.q: expected a non-empty list"),
], ids=["base-missing", "base-list", "base-string", "sweep-missing", "sweep-empty",
        "sweep-list", "sweep-string", "axis-number", "axis-empty", "axis-object"])
def test_sweep_document_errors_name_their_key(tmp_path, capsys, doc, message):
    doc = {**json.loads(json.dumps(doc)), "dir": str(tmp_path / "fan")}
    assert main(["sweep", write_config(tmp_path, doc), "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")
    assert not (tmp_path / "fan").exists()


def test_build_profile_rejects_unknown_kind():
    problem = ProblemParams(1, 2.0, 0.5)
    with pytest.raises(ConfigError, match="profile.kind"):
        build_profile(problem, {"kind": "mystery"})


def test_resolve_experiment_materializes_defaults():
    exp = resolve_experiment(json.loads(json.dumps(BASE)))
    solver = exp.resolved["solver"]
    assert solver["scheme"] == "explicit"
    assert solver["series_stride"] == 8
    assert exp.resolved["regularization"] == {"eps": 1e-7, "counterterm": True}
    assert exp.resolved["analysis"] == {"j_R0": None, "domination": []}
    assert sorted(exp.resolved) == ["analysis", "grid", "ic", "output", "problem",
                                    "regularization", "solver"]


# keys that are constants of the library now, not config keys
REMOVED_KEYS = ({("solver", key) for key in
                 ("safety", "fixed_dt", "max_dt", "max_steps", "divergence_factor")}
                | {("regularization", "gamma_lift"), ("analysis", "fit_frac"),
                   ("analysis", "fit_skip_end"), ("analysis", "j_delta_probe"),
                   ("", "seed")})


@pytest.mark.parametrize("section, key, value", [
    ("solver", "scheme", "crank_nicolson"),
    ("solver", "safety", -0.5),
    ("regularization", "gamma_lift", 5.0),
    ("analysis", "fit_frac", 0.0),
    ("analysis", "fit_skip_end", -1),
    ("analysis", "j_delta_probe", -1.0),
    ("", "seed", -1),
    ("ic", "m", math.nan),
    ("solver", "t_end", math.inf),
    ("problem", "q", math.nan),
    ("solver", "fixed_dt", 0.0),
    ("solver", "fixed_dt", -1e-3),
    ("solver", "max_dt", 0.0),
    ("solver", "max_dt", -1.0),
    ("solver", "max_steps", 0),
    ("solver", "divergence_factor", 0.5),
    ("solver", "divergence_factor", 1.0),
    ("solver", "lift", -1.0),
    ("solver", "tol_ext", -1e-7),
    ("solver", "tol_pos", -1e-7),
    ("solver", "series_gradient_floor", -1e-5),
    ("ic", "power", -1.0),
    ("ic", "power", 0.0),
])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(BASE))
    (doc.setdefault(section, {}) if section else doc)[key] = value
    assert main(["simulate", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    if (section, key) in REMOVED_KEYS:
        path = f"{section}.{key}" if section else key
        assert f"config error: {path}: unknown key" in err
    elif isinstance(value, float) and not math.isfinite(value):
        # json writes NaN and Infinity, and reads them back
        assert f"config error: {section}.{key}: expected a finite number, got {value}" in err
    else:
        assert f"config error: {section}: " in err and key in err
    assert not (tmp_path / "exp").exists()


def test_a_negative_tolerance_is_a_config_error(tmp_path, capsys):
    # zero asks for exact extinction; below it a run would never end
    doc = json.loads(json.dumps(BASE))
    doc["solver"]["tol_ext"] = -1e-7
    assert main(["simulate", write_config(tmp_path, doc)]) == 2
    assert ("config error: solver: tol_ext must be nonnegative, got -1e-07\n"
            == capsys.readouterr().err)
    assert not (tmp_path / "exp").exists()


# N = 2, p = 1.8, q = 0.85: complete extinction, no single-point constructions
COMPLETE = {"N": 2, "p": 1.8, "q": 0.85}
NOT_SINGLE_POINT = ("needs the single-point regime (q < p-1); "
                    "N=2, p=1.8, q=0.85 is complete_extinction\n")


def test_simulate_refuses_a_j_diagnostic_outside_the_single_point_regime(
        tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["problem"] = COMPLETE
    doc["ic"]["power"] = 2.0
    doc["analysis"] = {"j_R0": 1.0}
    assert main(["simulate", write_config(tmp_path, doc)]) == 2
    assert (f"config error: analysis.j_R0: J diagnostic {NOT_SINGLE_POINT}"
            == capsys.readouterr().err)
    assert not (tmp_path / "exp").exists()


def test_residual_names_the_self_similar_bound_outside_its_regime(tmp_path, capsys):
    doc = {"problem": COMPLETE, "profile": {"kind": "decaying_envelope", "T": 1.0},
           "box": [0.0, 0.5, 0.001, 10.0], "sense": "super"}
    assert main(["residual", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: profile: self-similar bound {NOT_SINGLE_POINT}" == captured.err


@pytest.mark.parametrize("q, ic, message", [
    (1.0, {"kind": "fast_decay", "C": 1.0, "theta": 3.0},
     "ic: tail data needs q < 1, got q = 1.0"),
    (1.0, {"kind": "fat_tail", "C": 1.0, "rho": 0.5},
     "ic: tail data needs q < 1, got q = 1.0"),
    (1.5, {"kind": "bump", "m": 0.01, "R0": 1.0, "power": 2.0},
     "problem: the positivity lift needs q < 1, got q = 1.5"),
])
def test_runs_at_q_one_and_above_are_config_errors(tmp_path, capsys, q, ic, message):
    doc = json.loads(json.dumps(BASE))
    doc["problem"]["q"], doc["ic"] = q, ic
    assert main(["simulate", write_config(tmp_path, doc)]) == 2
    assert f"config error: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("section, key", [
    ("grid", "N"), ("ic", "problem"), ("ic", "consts"),
])
def test_parameters_supplied_by_the_caller_are_not_keys(section, key):
    doc = json.loads(json.dumps(BASE))
    doc[section][key] = 1
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown key$"):
        resolve_experiment(doc)


@pytest.mark.parametrize("key", ["a_factor", "consts"])
def test_tail_floor_takes_only_its_config_keys(key):
    problem = ProblemParams(1, 2.0, 0.5)
    with pytest.raises(ConfigError, match=rf"^profile\.{key}: unknown key$"):
        build_profile(problem, {"kind": "tail_floor", "T": 2.0, key: 3.0})


def test_sweep_finishes_the_other_jobs_when_one_fails(tmp_path, capsys):
    doc = {"base": json.loads(json.dumps(BASE)),
           "sweep": {"problem.q": [0.5, 1.2]},
           "dir": str(tmp_path / "fan")}
    assert main(["sweep", write_config(tmp_path, doc), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert "q=1.2" in err and "ic: " in err
    summary = json.loads((tmp_path / "fan" / "sweep-summary.json").read_text())
    rows = {row["dir"].rsplit("/", 1)[-1]: row for row in summary}
    assert set(rows) == {"q=0.5", "q=1.2"}
    assert rows["q=0.5"]["status"] == "ok" and rows["q=0.5"]["error"] is None
    assert rows["q=0.5"]["outcome"] == "extinct"
    assert rows["q=1.2"]["status"] == "failed" and rows["q=1.2"]["outcome"] is None
    assert rows["q=1.2"]["error"].startswith("ConfigError: ic: ")
    assert (tmp_path / "fan" / "q=0.5" / "summary.json").exists()


def test_analyze_reports_a_bad_domination_check_as_a_config_error(tmp_path, capsys):
    # simulate refuses such a check (below); a run directory whose config
    # was edited afterwards gets the same error from analyze
    doc = json.loads(json.dumps(BASE))
    doc["output"] = {"dir": str(tmp_path / "run")}
    assert main(["simulate", write_config(tmp_path, doc)]) == 0
    capsys.readouterr()
    path = tmp_path / "run" / "resolved-config.json"
    resolved = json.loads(path.read_text())
    resolved["analysis"]["domination"] = [
        {"sense": "sideways", "tol": 1e-3, "profile": {"kind": "barrier"}}]
    path.write_text(json.dumps(resolved))
    assert main(["analyze", str(tmp_path / "run")]) == 2
    assert ("config error: analysis.domination[0].sense: expected 'upper' or "
            "'lower', got 'sideways'") in capsys.readouterr().err


BAD_DOMINATION = [
    ([5], "analysis.domination[0]: expected an object"),
    ([{"profile": {"kind": "nope"}}], "analysis.domination[0].sense: required key"),
    ([{"sense": "upper", "tol": 1e-3, "profile": {"kind": "nope"}}],
     "analysis.domination[0].profile.kind: unknown kind 'nope'"),
    ([{"sense": "sideways", "tol": 1e-3, "profile": {"kind": "barrier"}}],
     "analysis.domination[0].sense: expected 'upper' or 'lower', got 'sideways'"),
    ([{"sense": "upper", "tol": 1e-3, "profile": {"kind": "barrier"}, "color": 1}],
     "analysis.domination[0].color: unknown key"),
    ([{"sense": "upper", "tol": 1e-3, "profile": {"kind": "barrier", "r1": 1.0}}],
     "analysis.domination[0].profile.r1: unknown key"),
    ({"sense": "upper"}, "analysis.domination: expected a list"),
    ([{"sense": "upper", "tol": 1e-3, "r_window": [1.0], "profile": {"kind": "barrier"}}],
     "analysis.domination[0]: r_window must be two numbers lo < hi, got [1.0]"),
    ([{"sense": "upper", "tol": 1e-3, "r_window": [3.0, 1.0],
       "profile": {"kind": "barrier"}}],
     "analysis.domination[0]: r_window must be two numbers lo < hi, got [3.0, 1.0]"),
    ([{"sense": "upper", "tol": 1e-3, "r_window": [5.0, 6.0],
       "profile": {"kind": "barrier"}}],
     "analysis.domination[0]: r_window [5.0, 6.0] holds no cell centre of the grid "
     "on [0, 4.0]"),
]


@pytest.mark.parametrize("domination, message", BAD_DOMINATION)
def test_simulate_rejects_a_bad_domination_check_before_running(
        tmp_path, capsys, domination, message):
    doc = json.loads(json.dumps(BASE))
    doc["output"] = {"dir": str(tmp_path / "run")}
    doc["analysis"] = {"domination": domination}
    assert main(["simulate", write_config(tmp_path, doc)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("domination, message", BAD_DOMINATION[2:4] + BAD_DOMINATION[7:])
def test_sweep_rejects_a_bad_domination_check_before_any_job(
        tmp_path, capsys, domination, message):
    base = json.loads(json.dumps(BASE))
    base["analysis"] = {"domination": domination}
    doc = {"base": base, "sweep": {"problem.q": [0.5, 0.6]},
           "dir": str(tmp_path / "fan")}
    assert main(["sweep", write_config(tmp_path, doc), "--workers", "2"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "fan").exists()


# ----- output that cannot be written --------------------------------------

RESIDUAL_OK = {"problem": {"N": 1, "p": 2.0, "q": 0.5}, "profile": {"kind": "barrier"},
               "box": [0.0, 1.0, 0.001, 1000.0], "sense": "super"}


def _write_error(exc_type, path) -> str:
    """The line main prints for a write that raised exc_type at path."""
    code = {IsADirectoryError: errno.EISDIR, NotADirectoryError: errno.ENOTDIR}[exc_type]
    return f"write error: {exc_type(code, os.strerror(code), str(path))}\n"


def test_residual_refuses_an_output_in_a_missing_directory_before_certifying(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "certify_sign", lambda **kw: pytest.fail("certified"))
    doc = dict(RESIDUAL_OK, output=str(tmp_path / "missing" / "cert.json"))
    assert main(["residual", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: output: no directory "
                            f"{str(tmp_path / 'missing')!r}\n")


def test_residual_prints_the_certificate_when_its_output_cannot_be_written(
        tmp_path, capsys):
    (tmp_path / "cert.json").mkdir()
    doc = dict(RESIDUAL_OK, output=str(tmp_path / "cert.json"))
    assert main(["residual", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is True
    assert captured.err == _write_error(IsADirectoryError, tmp_path / "cert.json")


def test_verify_refuses_a_json_path_in_a_missing_directory_before_the_suite(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: pytest.fail("ran"))
    path = tmp_path / "missing" / "v.json"
    assert main(["verify", "algebra", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: --json: no directory "
                            f"{str(tmp_path / 'missing')!r}\n")


def test_verify_reports_a_json_file_it_cannot_write(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: [])
    (tmp_path / "v.json").mkdir()
    assert main(["verify", "algebra", "--json", str(tmp_path / "v.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "0/0 criteria passed\n"
    assert captured.err == _write_error(IsADirectoryError, tmp_path / "v.json")


def test_simulate_reports_a_run_directory_it_cannot_make(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    doc = json.loads(json.dumps(BASE))
    doc["output"] = {"dir": str(tmp_path / "file" / "run")}
    assert main(["simulate", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == _write_error(
        NotADirectoryError, tmp_path / "file" / "run" / "snapshots")


def test_sweep_reports_a_summary_it_cannot_write(tmp_path, capsys):
    (tmp_path / "fan" / "sweep-summary.json").mkdir(parents=True)
    doc = {"base": json.loads(json.dumps(BASE)), "sweep": {"grid.M": [64]},
           "dir": str(tmp_path / "fan")}
    assert main(["sweep", write_config(tmp_path, doc), "--workers", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out.split() == ["extinct", str(tmp_path / "fan" / "M=64")]
    assert captured.err == _write_error(IsADirectoryError,
                                        tmp_path / "fan" / "sweep-summary.json")


def test_analyze_reports_a_report_it_cannot_write(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["output"] = {"dir": str(tmp_path / "run")}
    assert main(["simulate", write_config(tmp_path, doc)]) == 0
    capsys.readouterr()
    (tmp_path / "run" / "analysis-report.json").mkdir()
    assert main(["analyze", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == _write_error(
        IsADirectoryError, tmp_path / "run" / "analysis-report.json")
