"""The benchmark's hooks: every name bench/spans.py patches still exists.

The benchmark traces vhjlab from outside by replacing module attributes
and RadialGrid properties by name; a renamed one would otherwise only
show in a benchmark run.  spans.py is loaded read-only from bench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from vhjlab import gridop, solver

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_spans():
    sys.path.insert(0, str(BENCH))  # spans imports its sibling hostspeed
    try:
        spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


spans = _load_spans()
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
