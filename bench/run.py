"""vhjlab benchmark: one run of one workload, result as the last stdout line.

    python3 bench/run.py --workload explicit_p2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke          # every workload at toy size, checked

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` repeats the workload for about ``--seconds`` and reports the
end-to-end metrics: medians over repetitions, and for ``steps_per_s`` the
median over segments of 2048 solver steps.  Every time among them is
divided by the host's slowdown while it was taken (see ``hostspeed.py``).
``--trace 1`` spends half the time untraced and half traced and reports
the per-layer metrics, as measured, except ``trace.overhead_s``: the
difference of the two halves' normalized median repetition times.
The line before the result carries machine info, the workload's
parameters, raw and normalized per-repetition times, the slowdowns and the
artifact digest.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("explicit_p2", "semi_implicit_singular", "lab_sweep")
SETUP_PROBES = 7


def pin_threads():
    for key in THREAD_ENV:
        os.environ[key] = "1"


def import_program():
    """Import vhjlab from this checkout's src/, or exit non-zero."""
    if not (SRC / "vhjlab" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'vhjlab'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import vhjlab
    if Path(vhjlab.__file__).resolve().parent != (SRC / "vhjlab").resolve():
        sys.exit(f"bench: imported vhjlab from {vhjlab.__file__}, not {SRC}")
    return vhjlab


def machine_info() -> dict:
    import numpy
    import scipy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {key: os.environ.get(key) for key in THREAD_ENV}}


def sweep_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    wd = ROOT / ".bench_work" / str(os.getpid())
    try:
        yield wd
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        with contextlib.suppress(OSError):
            wd.parent.rmdir()       # only when no other run is using it


# ----- set-up -------------------------------------------------------------

def setup_probe(name: str, seed: int, size: str) -> float:
    """Import the program and build one workload's inputs; seconds taken."""
    import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    with workdir() as wd:
        workloads.make(name, seed, size, wd, sweep_workers())
        return time.perf_counter() - T_START


def measure_setup(name: str, seed: int, size: str, n: int) -> list:
    """(seconds, host slowdown) of n set-ups, each in a fresh process."""
    import hostspeed
    probes = []
    for _ in range(n):
        # set-up is interpreter-bound work, as an explicit step is
        before = hostspeed.slowdown("explicit")
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--size", size],
            capture_output=True, text=True, timeout=120, check=True)
        slow = 0.5 * (before + hostspeed.slowdown("explicit"))
        probes.append((float(out.stdout.strip().splitlines()[-1]), slow))
    return probes


# ----- one run --------------------------------------------------------------

def layer_metrics(rep, agg: dict, tracer) -> dict:
    """Per-layer metrics of one traced repetition."""
    sp = agg["spans"]
    steps = agg["counts"].get("solver.run.steps", 0)

    def get(name, key):
        return sp.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    def per_call(self_s, calls):
        return 1e6 * self_s / calls if calls else 0.0

    out = {}
    for name in ("gridop.discrete_rhs", "gridop.stable_dt", "gridop.source_rate"):
        calls, self_s = get(name, "calls"), get(name, "self_s")
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.us_per_call"] = per_call(self_s, calls)
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    out["gridop.face_gradient.calls_per_step"] = per_step(
        agg["counts"].get("gridop.face_gradient", 0))
    out["gridop.RadialGrid.geometry_calls_per_step"] = per_step(
        agg["counts"].get("gridop.RadialGrid.geometry", 0))
    calls = get("solver.banded_solve.solve", "calls")
    self_s = get("solver.banded_solve.solve", "self_s") + get("solver.banded_solve.matrix", "self_s")
    out["solver.banded_solve.calls"] = calls
    out["solver.banded_solve.self_s"] = self_s
    out["solver.banded_solve.us_per_call"] = per_call(self_s, calls)
    out["solver.run.steps"] = steps
    out["solver.run.loop_self_us_per_step"] = per_step(1e6 * get("solver.run", "self_s"))
    out["solver.record.calls"] = agg["record_calls"]
    out["analysis.support_radius.us_per_call"] = per_call(
        get("analysis.support_radius", "self_s"), get("analysis.support_radius", "calls"))
    out["cli.resolve_experiment.self_s"] = get("cli.resolve_experiment", "self_s")
    out["cli.write_run_dir.self_s"] = get("cli.write_run_dir", "self_s")
    out["cli.write_run_dir.bytes"] = rep.write_bytes
    out["cli.analyze_run_dir.self_s"] = get("cli.analyze_run_dir", "self_s")
    out["closedform.certify_sign.self_s"] = get("closedform.certify_sign", "self_s")
    out["exponents.derive_constants.calls"] = get("exponents.derive_constants", "calls")
    out["cli.sweep.worker_busy_frac"] = rep.busy_frac

    # share of process time outside every layer span below the entry
    # spans: the parent's repetition minus its sweep, plus every job
    window = rep.wall_s
    covered = tracer.covered_s(rep.t0, rep.t0 + rep.wall_s)
    if rep.sweep_span is not None:
        window -= rep.sweep_span[1] - rep.sweep_span[0]
        covered -= tracer.covered_s(*rep.sweep_span)
    window += sum(j["job_s"] for j in rep.jobs)
    covered += sum(j["covered_s"] for j in rep.jobs)
    out["trace.uncovered_frac"] = (window - covered) / window
    return out


def run_reps(work, spans_mod, full: bool, budget: float):
    """Repeat the workload for about the budget, at least once.

    Another repetition starts only if it is expected to end less than
    half a repetition past the budget.
    """
    import hostspeed
    tracer = spans_mod.Tracer(full=full, kernel=work.kernel)
    tracer.install()
    reps, layers = [], []
    try:
        start = time.perf_counter()
        while True:
            tracer.reset()
            before = hostspeed.slowdown(work.kernel)
            rep = work.rep(tracer)
            rep.around = [before, hostspeed.slowdown(work.kernel)]
            reps.append(rep)
            if full:
                agg = tracer.aggregate()
                for job in rep.jobs:
                    spans_mod.merge(agg, job)
                layers.append(layer_metrics(rep, agg, tracer))
            if time.perf_counter() - start + 0.5 * rep.wall_s >= budget:
                break
    finally:
        tracer.uninstall()
    return reps, layers


def run_once(name: str, seed: int, seconds: float, trace: bool, size: str,
             setup_probes: int) -> tuple:
    """Returns (result line dict, info dict)."""
    import_program()
    sys.path.insert(0, str(HERE))
    import hostspeed
    import spans
    import workloads

    for kind in hostspeed.KERNELS:  # a first run pays lazy set-up
        hostspeed.kernel_s(kind)
    with workdir() as wd:
        work = workloads.make(name, seed, size, wd, sweep_workers())
        work.warmup()
        if trace:
            plain, _ = run_reps(work, spans, False, seconds / 2)
            traced, layers = run_reps(work, spans, True, seconds / 2)
            reps = plain + traced
        else:
            reps, _ = run_reps(work, spans, False, seconds)

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "lab_sweep":
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    walls = [r.wall_s for r in reps]
    info = {"workload": name, "seed": seed, "size": size, "trace": int(trace),
            "params": work.params(), "machine": machine_info(),
            "rep_wall_s": walls, "digest": reps[0].digest,
            "digests_agree": len({r.digest for r in reps}) == 1,
            "errors": sorted({e for r in reps for e in r.errors})}

    # repetition times divided by the host's slowdown while they ran
    slow = [statistics.median(r.slowdowns or r.around) for r in reps]
    norm = [r.norm_s or r.wall_s / s for r, s in zip(reps, slow)]
    info.update(rep_slowdown=slow, rep_normalized_s=norm)
    if trace:
        untraced = statistics.median(norm[:len(plain)])
        traced_wall = statistics.median(norm[len(plain):])
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = traced_wall - untraced
        metrics["failed_frac"] = failed / attempted
    else:
        rates = [x for r, s in zip(reps, slow)
                 for x in (r.rates or [r.steps * s / r.solver_s])]
        setups = measure_setup(name, seed, size, setup_probes)
        info.update(step_rate_segments=len(rates), setup_probe=setups)
        metrics = {
            "wall_s": statistics.median(norm),
            "steps_per_s": statistics.median(rates),
            "runs_per_s": statistics.median(r.runs / t for r, t in zip(reps, norm)),
            "setup_s": statistics.median(t / s for t, s in setups),
            "peak_rss_mb": usage / 1024.0,
        }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in bench[key]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size and check the metrics")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_threads()

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.size))
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    result, info = run_once(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.size, SETUP_PROBES)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at toy size, both modes; checks names and failures."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in bench["end_to_end"]},
              1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, info = run_once(name, 1, 0.0, bool(trace), "smoke", 1)
            got = set(result["metrics"])
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: missing {sorted(wanted[trace] - got)}"
                                f", extra {sorted(got - wanted[trace])}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={trace}: failed {result['failed']}"
                                f"/{result['attempted']}: {info['errors']}")
            print(f"{name:24s} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
