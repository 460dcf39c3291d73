"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_smoke_reports_every_metric_without_failures():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr


def test_solver_inputs_reproduce_the_battery_runs():
    from vhjlab.acceptance import Battery
    battery = Battery()
    for name, recipe in (("explicit_p2", battery.run_bump_a),
                         ("semi_implicit_singular", battery.run_bump_b)):
        work = workloads.SolverWorkload(name, "smoke")
        tracer = spans.Tracer(full=False)
        rep = work.rep(tracer)
        ref = recipe(work.ref["M"])
        assert rep.failed == 0
        assert rep.steps == ref.n_steps == work.ref["n_steps"]


def test_lab_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.LabSweep(3, "full", tmp_path / "a", 1)
    b = workloads.LabSweep(3, "full", tmp_path / "b", 1)
    c = workloads.LabSweep(4, "full", tmp_path / "c", 1)
    assert a.params() == b.params() != c.params()
    assert (a.fan_path.read_text().replace(str(a.workdir), "")
            == b.fan_path.read_text().replace(str(b.workdir), ""))
    lo, hi = workloads.Q_BAND
    assert all(lo <= q <= hi for q in a.qs + c.qs)


def test_tracer_restores_what_it_patched():
    import vhjlab.cli as cli
    import vhjlab.gridop as gridop
    import vhjlab.solver as solver
    before = (solver.stable_dt, solver.run, cli._sweep_one, gridop.RadialGrid.r_cells)
    tracer = spans.Tracer(full=True)
    tracer.install()
    assert solver.stable_dt is not before[0] and cli._sweep_one is spans.sweep_job
    tracer.uninstall()
    after = (solver.stable_dt, solver.run, cli._sweep_one, gridop.RadialGrid.r_cells)
    assert all(x is y for x, y in zip(before, after))


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer(full=False)
    tracer.spans = [["cli.main", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0],
                    ["inner", 6.0, 7.0, 0], ["solver.run", 8.0, 9.0, 0]]
    agg = tracer.aggregate()["spans"]
    assert agg["cli.main"]["self_s"] == 5.0
    assert agg["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    # entry spans (cli.main, solver.run) do not count as layer coverage
    assert tracer.covered_s(0.0, 10.0) == 4.0
    assert tracer.covered_s(3.0, 6.5) == 2.5


def test_step_clock_leaves_the_kernel_out_of_its_segments():
    clock = hostspeed.StepClock("explicit")
    for _ in range(2 * hostspeed.SEGMENT_STEPS + 1):
        clock.tick()
    assert [n for n, _, _ in clock.segments] == [hostspeed.SEGMENT_STEPS] * 2
    # three kernel readings, each far longer than 2048 empty ticks
    assert sum(sec for _, sec, _ in clock.segments) < clock.kernel_total / 3
    assert clock.rates() == [n * s / sec for n, sec, s in clock.segments]
    inside = sum(sec for _, sec, _ in clock.segments)
    assert clock.normalized_s(inside) == sum(sec / s for _, sec, s in clock.segments)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "explicit_p2",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["bench"]
