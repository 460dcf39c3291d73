"""The benchmark's hooks and inputs: every name bench/spans.py patches
still exists, and every workload of bench/workloads.py builds its inputs.

The benchmark traces vhjlab from outside by replacing module attributes
and RadialGrid properties by name, and builds its workloads from the
battery's constants, SolverConfig's keywords, Bump and the config schema;
a break in either would otherwise only show in a benchmark run.  spans.py
and workloads.py are loaded read-only from bench/; no workload is run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from vhjlab import config, gridop, solver

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name: str, **siblings):
    """bench/<name>.py as a module; siblings stand in for the bench
    modules it imports by name, the rest are imported from bench/."""
    sys.path.insert(0, str(BENCH))  # spans imports its sibling hostspeed
    sys.modules.update(siblings)
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        for sibling in siblings:
            del sys.modules[sibling]
    return module


spans = _load_bench("spans")
workloads = _load_bench("workloads", spans=spans)
# solver.run and cli._sweep_one are patched on every install
HOOKS = ([(module, attr) for module, attr, _ in spans.SPANNED + spans.COUNTED]
         + [("solver", "run"), ("cli", "_sweep_one")])


@pytest.mark.parametrize("module, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_spanned_and_counted_hooks_are_callables(module, attr):
    assert module in spans.MODULES
    assert callable(getattr(importlib.import_module(f"vhjlab.{module}"), attr))


@pytest.mark.parametrize("attr", spans.STEP_CLOCK)
def test_step_clock_names_are_solver_callables(attr):
    assert callable(getattr(solver, attr))


@pytest.mark.parametrize("attr", spans.GEOMETRY)
def test_geometry_hooks_are_grid_properties(attr):
    assert isinstance(gridop.RadialGrid.__dict__[attr], property)


SIZES = ("smoke", "full")


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", ["explicit_p2", "semi_implicit_singular"])
def test_solver_workloads_build_their_inputs(name, size):
    work = workloads.SolverWorkload(name, size)
    problem, grid, reg, ic, cfg = work.inputs
    assert grid.M == work.ref["M"] and isinstance(ic, solver.Bump)
    assert work.params()["scheme"] == cfg.scheme


@pytest.mark.parametrize("size", SIZES)
def test_the_lab_sweep_writes_and_resolves_its_documents(tmp_path, size):
    work = workloads.LabSweep(2901, size, tmp_path, 1)
    shape = workloads.REFERENCES["lab_sweep"][size]
    assert len(work.jobs) == shape["n_q"] * len(shape["M"])
    base, axes, out_root = config.read_sweep(json.loads(work.fan_path.read_text()))
    assert config.resolve_experiment(base).j_R0 == workloads.acc.BUMP_R0
    assert sorted(axes) == ["grid.M", "problem.q"] and out_root == str(work.runs_dir)
    kw, output = config.read_residual(json.loads(work.residual_path.read_text()))
    assert kw["sense"] == "super" and output is None
