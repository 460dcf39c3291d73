"""The config reader and the battery's recipe table."""

import ast
import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import vhjlab
from vhjlab import closedform, config
from vhjlab.acceptance import RECIPES, Battery
from vhjlab.cli import main, write_run_dir
from vhjlab.config import build_profile, jsonable, resolve_experiment, with_overrides


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


def _readme_config():
    text = (Path(vhjlab.__file__).resolve().parents[2] / "README.md").read_text()
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


# a singular-diffusion run with a check against each of two profiles, the
# self-similar one without its amplitude, which find_A0 supplies
DOMINATED = {
    "problem": {"N": 2, "p": 1.8, "q": 0.6},
    "ic": {"kind": "bump", "m": 1.0 / 96.0, "R0": 1.0},
    "grid": {"r_max": 4.0, "M": 64},
    "regularization": {"eps": 1e-6},
    "solver": {"t_end": 0.05, "tol_ext": 1e-8, "snapshot_times": [0.01, 0.02]},
    "analysis": {"domination": [
        {"sense": "upper", "tol": 1e-6,
         "profile": {"kind": "decaying_envelope", "T": 0.5}},
        {"sense": "upper", "tol": 1e-6, "r_window": [0.5, 2.0],
         "profile": {"kind": "barrier", "r0": 1.0}}]},
}
# no eps, tol_pos, analysis or output: each comes from a default
MINIMAL = {"problem": {"N": 1, "p": 2.0, "q": 0.5},
           "ic": {"kind": "bump", "m": 1.0 / 96.0, "R0": 1.0},
           "grid": {"r_max": 4.0, "M": 64}, "solver": {"t_end": 0.1, "tol_ext": 1e-7}}
DOCS = {**{f"recipe-{name}": doc for name, doc in RECIPES.items()},
        "readme": _readme_config(), "minimal": MINIMAL, "dominated": DOMINATED}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_the_experiment_holds_what_resolved_config_json_writes(name):
    exp = resolve_experiment(copy.deepcopy(DOCS[name]))
    resolved = exp.resolved
    assert jsonable(exp.cfg) == resolved["solver"]
    assert exp.j_R0 == resolved["analysis"]["j_R0"]
    assert exp.out_dir == resolved["output"]["dir"]
    specs = resolved["analysis"]["domination"]
    assert len(exp.domination) == len(specs)
    for (profile, kw), spec in zip(exp.domination, specs):
        spec = dict(spec)
        profile_spec = spec.pop("profile")
        assert jsonable(kw) == {"r_window": None, **spec}
        assert type(profile) is type(build_profile(exp.problem, profile_spec))
        assert all(getattr(profile, key) == value
                   for key, value in profile_spec.items() if key != "kind")


def test_analyze_builds_each_domination_profile_once(tmp_path, monkeypatch, capsys):
    doc = {**DOMINATED, "output": {"dir": str(tmp_path / "run")}}
    path = tmp_path / "dominated.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 0
    calls = []
    find_A0 = closedform.find_A0
    monkeypatch.setattr(closedform, "find_A0", lambda *a: calls.append(a) or find_A0(*a))
    assert main(["analyze", str(tmp_path / "run")]) == 0
    assert len(calls) == 1
    report = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert len(report["domination"]) == 2


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
