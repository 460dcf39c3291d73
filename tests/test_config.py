"""The config reader and the battery's recipe table."""

import ast
import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import vhjlab
from vhjlab import config
from vhjlab.acceptance import RECIPES, Battery
from vhjlab.cli import main, write_run_dir
from vhjlab.config import resolve_experiment, with_overrides


def test_the_config_schema_is_pinned():
    # every config key, section by section: adding or removing one is an
    # edit here
    def names(keys):
        return [key.name for key in keys]
    assert {section: names(keys) for section, (_, keys) in (
        ("problem", config._PROBLEM), ("grid", config._GRID),
        ("regularization", config._REG), ("solver", config._SOLVER))} == {
        "problem": ["N", "p", "q"],
        "grid": ["r_max", "M"],
        "regularization": ["eps", "counterterm"],
        "solver": ["t_end", "scheme", "tol_ext", "tol_pos", "series_stride",
                   "snapshot_times", "lift", "series_gradient_power",
                   "series_gradient_floor"],
    }
    assert {kind: names(keys) for kind, (_, keys) in config._IC.items()} == {
        "bump": ["m", "R0", "power"], "fast_decay": ["C", "theta"],
        "fat_tail": ["C", "rho"]}
    assert {kind: names(keys) for kind, (_, keys) in config._PROFILES.items()} == {
        "barrier": ["r0", "amplitude"],
        "shrink_envelope": ["decay_C", "decay_theta", "sup_u0"],
        "tail_floor": ["T", "b", "a"], "decaying_envelope": ["T", "A"]}
    assert names(config._ANALYSIS) == ["j_R0"]          # and domination
    assert names(config._DOMINATION) == ["sense", "tol", "r_window"]  # and profile
    assert names(config._OUTPUT) == ["dir"]
    assert names(config._RESIDUAL) == ["box", "sense", "n_t", "n_r", "seed", "output"]
    assert names(config._SWEEP_DIR) == ["dir"]
    # analyze's keys of summary.json: RunResult fields, then the row counts
    assert names(config._SUMMARY) == ["outcome", "T_e_est", "sup0", "tol_pos",
                                      "n_series", "n_snapshots"]


def test_the_command_line_imports_no_private_name_of_config():
    # config owns the documents' schemas; the command line reads them
    # through its public readers
    tree = ast.parse(Path(vhjlab.__file__).with_name("cli.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("config", "vhjlab.config")
                for alias in node.names]
    assert "resolve_experiment" in imported
    assert [name for name in imported if name.startswith("_")] == []


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_every_recipe_resolves_and_round_trips(name):
    resolved = resolve_experiment(copy.deepcopy(RECIPES[name])).resolved
    again = json.loads(json.dumps(resolved))
    assert again == resolved
    assert resolve_experiment(again).resolved == resolved


def test_acceptance_does_not_import_the_command_line():
    src = str(Path(vhjlab.__file__).resolve().parents[1])
    code = ("import sys, vhjlab.acceptance; "
            "print('vhjlab.config' in sys.modules, 'vhjlab.cli' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("name", ["fat", "bump_b"])
def test_simulate_on_a_recipe_writes_the_battery_run(tmp_path, name):
    # one explicit run with snapshots, one semi-implicit with a gradient column
    doc = with_overrides(RECIPES[name], {"grid.M": 64})
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 0
    res = Battery().run(name, **{"grid.M": 64})
    write_run_dir(tmp_path / "battery", resolve_experiment(doc), res)

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    simulated = tmp_path / name
    assert files(simulated) == files(tmp_path / "battery")
    assert len(files(simulated)) > 5
    for rel in files(simulated):
        assert (simulated / rel).read_bytes() == (tmp_path / "battery" / rel).read_bytes()


def test_battery_runs_once_per_resolved_config(monkeypatch):
    # the recipe's own M spelled out as an override is the same run
    import vhjlab.solver as solver
    calls = []
    monkeypatch.setattr(solver, "run", lambda *args: calls.append(args) or len(calls))
    battery = Battery()
    assert battery.run("bump_a") == battery.run("bump_a", **{"grid.M": 2048}) == 1
    assert battery.run("bump_a", **{"grid.M": 4096}) == 2
    assert len(calls) == 2
