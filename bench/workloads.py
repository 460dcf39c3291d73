"""The benchmark's workloads: inputs, one timed repetition, and its checks.

explicit_p2             the battery's ``run_bump_a`` recipe at M = 1024
semi_implicit_singular  the battery's ``run_bump_b`` recipe at M = 4096
lab_sweep               derive, residual, sweep and analyze through cli.main

The two solver workloads take their inputs from the battery's constants
and are checked against stored seed-commit references (outcome, T_e).
lab_sweep draws its fan of q values and the certificate's sampling seed
from ``--seed``; it is checked by exit codes, the sweep summary, the
analysis read-back and the config round trip.  Checks run after the
timed region, with the tracer paused.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

import vhjlab.acceptance as acc
import vhjlab.cli as cli
import vhjlab.solver as solver
from vhjlab.gridop import RadialGrid, Regularization

import spans

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())["references"]

# criterion 5's refinement-drift bar on T_e
T_E_DRIFT = 0.03


class Rep:
    """Measurements and check results of one timed repetition."""

    def __init__(self, t0: float, t1: float):
        self.t0 = t0
        self.wall_s = t1 - t0
        self.steps = 0
        self.solver_s = 0.0
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None
        self.write_bytes = 0
        self.busy_frac = 0.0
        self.slowdowns = []         # host slowdowns read during the repetition
        self.around = []            # ... and just before and after it
        self.rates = []             # step rates per segment, host-normalized
        self.norm_s = None          # wall_s, host-normalized segment by segment
        self.jobs = []              # aggregates reported by sweep workers
        self.sweep_span = None      # (start, end) of the sweep command

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


# ----- solver workloads ---------------------------------------------------

class SolverWorkload:
    """One reference run of the battery, integrated through solver.run."""

    def __init__(self, name: str, size: str):
        self.name = name
        self.kernel = "explicit" if name == "explicit_p2" else "banded"
        self.ref = REFERENCES[name][size]
        self.inputs = self.build(self.ref["M"])

    def build(self, M: int):
        if self.name == "explicit_p2":
            # Battery.run_bump_a
            problem, eps = acc.PROBLEM_A, acc.EPS_REFERENCE
            cfg = dict(t_end=0.3, scheme="explicit", tol_ext=1e-7, tol_pos=1e-7,
                       series_gradient_floor=1e-5)
        else:
            # Battery.run_bump_b
            problem, eps = acc.PROBLEM_B, acc.EPS_SINGULAR
            cfg = dict(t_end=2.0, scheme="semi_implicit", tol_ext=1e-8,
                       tol_pos=1e-8, series_gradient_floor=1e-4)
        grid = RadialGrid(problem.N, 4.0, M)
        reg = Regularization(eps=eps)
        ic = solver.Bump(problem, m=acc.BUMP_M, R0=acc.BUMP_R0)
        ic.sample(grid.r_cells)
        gp = (problem.p - problem.q - 1.0) / (problem.p - problem.q)
        return (problem, grid, reg, ic,
                solver.SolverConfig(series_stride=4, series_gradient_power=gp, **cfg))

    def params(self) -> dict:
        problem, grid, reg, _, cfg = self.inputs
        return {"N": problem.N, "p": problem.p, "q": problem.q, "M": grid.M,
                "eps": reg.eps, "scheme": cfg.scheme}

    def warmup(self):
        solver.run(*self.build(32))

    def rep(self, tracer: spans.Tracer) -> Rep:
        tracer.active = True
        t0 = time.perf_counter()
        result = solver.run(*self.inputs)
        t1 = time.perf_counter()
        tracer.active = False
        rep = Rep(t0, t1)
        if tracer.clock is not None:
            rep.wall_s -= tracer.clock.kernel_total
            rep.slowdowns += [s for _, _, s in tracer.clock.segments]
            rep.rates = tracer.clock.rates()
            rep.norm_s = tracer.clock.normalized_s(rep.wall_s)
        rep.steps, rep.solver_s, rep.runs = result.n_steps, rep.wall_s, 1
        ok = result.outcome.value == self.ref["outcome"]
        rep.check(ok, f"outcome {result.outcome.value}, reference {self.ref['outcome']}")
        if ok:
            drift = abs(result.T_e_est - self.ref["T_e"]) / self.ref["T_e"]
            rep.check(drift <= T_E_DRIFT,
                      f"T_e {result.T_e_est} drifts {drift:.3g} from {self.ref['T_e']}")
        h = hashlib.sha256()
        for key in sorted(result.series):
            h.update(key.encode())
            h.update(np.asarray(result.series[key], dtype=float).tobytes())
        h.update(np.asarray(result.snapshots["t"], dtype=float).tobytes())
        for u in result.snapshots["u"]:
            h.update(np.asarray(u, dtype=float).tobytes())
        rep.digest = h.hexdigest()
        return rep


# ----- lab session --------------------------------------------------------

# q is drawn in a narrow band around the battery's 0.5, one draw per
# stratum: T_e, and with it the step count, grows steeply with q, and
# stratifying keeps the fan's total work within about 1 % across seeds.
# The fan lists the longest jobs (large M, large q) first, so the pool's
# makespan varies less with which worker picks up which job.
Q_BAND = (0.46, 0.54)


class LabSweep:
    """A user session run through cli.main, seeded by --seed."""

    kernel = "explicit"             # its sweep runs explicit steps

    def __init__(self, seed: int, size: str, workdir: Path, workers: int):
        self.workdir = workdir
        self.workers = workers
        self.shape = REFERENCES["lab_sweep"][size]
        rng = np.random.default_rng(seed)
        k = self.shape["n_q"]
        width = (Q_BAND[1] - Q_BAND[0]) / k
        self.qs = [round(Q_BAND[0] + width * (i + rng.random()), 6)
                   for i in reversed(range(k))]
        self.q_cert = round(float(rng.uniform(0.2, 0.8)), 6)
        self.cert_seed = int(rng.integers(0, 2**31))
        self.build()

    def build(self):
        """Write the session's config files and resolve every job's config."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        snaps = np.linspace(0.004, self.shape["t_snap"], 18).round(6).tolist()
        self.base = {
            "problem": {"N": 1, "p": 2.0, "q": 0.5},
            "ic": {"kind": "bump", "m": acc.BUMP_M, "R0": acc.BUMP_R0},
            "grid": {"r_max": 4.0, "M": self.shape["M"][0]},
            "regularization": {"eps": acc.EPS_REFERENCE},
            "solver": {"t_end": 0.3, "scheme": "explicit", "tol_ext": 1e-7,
                       "tol_pos": 1e-7, "series_stride": 1,
                       "snapshot_times": snaps},
            "analysis": {"j_R0": acc.BUMP_R0, "domination": [
                {"sense": "upper", "tol": 1e-6,
                 "profile": {"kind": "barrier", "r0": acc.BUMP_R0}}]},
        }
        self.runs_dir = self.workdir / "runs"
        fan = {"base": self.base, "dir": str(self.runs_dir),
               "sweep": {"problem.q": self.qs, "grid.M": self.shape["M"]}}
        self.fan_path = self.workdir / "fan.json"
        self.fan_path.write_text(json.dumps(fan, indent=2))
        self.jobs = []              # run directories, named as cmd_sweep names them
        for M in self.shape["M"]:
            for q in self.qs:
                doc = json.loads(json.dumps(self.base))
                doc["problem"]["q"], doc["grid"]["M"] = q, M
                cli.resolve_experiment(doc)
                self.jobs.append(self.runs_dir / f"M={M}_q={q}")
        residual = {
            "problem": {"N": 1, "p": 2.0, "q": self.q_cert},
            "profile": {"kind": "barrier"}, "box": [0.1, 1.0, 1e-3, 10.0],
            "sense": "super", "seed": self.cert_seed, "n_t": 48, "n_r": 192,
        }
        self.residual_path = self.workdir / "residual.json"
        self.residual_path.write_text(json.dumps(residual, indent=2))

    def params(self) -> dict:
        return {"q": self.qs, "M": self.shape["M"], "q_certificate": self.q_cert,
                "certificate_seed": self.cert_seed, "workers": self.workers}

    @staticmethod
    def _cli(argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span("cli.main") as rec:
                code = cli.main(argv)
        return code, out.getvalue(), err.getvalue(), rec

    def warmup(self):
        """Nothing to warm: every repetition starts its own worker pool."""

    def rep(self, tracer: spans.Tracer) -> Rep:
        shutil.rmtree(self.runs_dir, ignore_errors=True)
        jobs_dir = self.workdir / "jobs"
        shutil.rmtree(jobs_dir, ignore_errors=True)
        jobs_dir.mkdir()
        os.environ[spans.JOBS_ENV] = str(jobs_dir)
        os.environ[spans.TRACE_ENV] = "1" if tracer.full else "0"

        tracer.active = True
        t0 = time.perf_counter()
        derive = self._cli(["derive", "1", "2.0", str(self.q_cert)], tracer)
        residual = self._cli(["residual", str(self.residual_path)], tracer)
        sweep = self._cli(["sweep", str(self.fan_path), "--workers",
                           str(self.workers)], tracer)
        analyses = [self._cli(["analyze", str(d)], tracer) for d in self.jobs]
        t1 = time.perf_counter()
        tracer.active = False

        rep = Rep(t0, t1)
        rep.sweep_span = (sweep[3][1], sweep[3][2])
        rep.check(derive[0] == 0 and json.loads(derive[1])["regime"] == "single_point",
                  f"derive: exit {derive[0]} {derive[2].strip()}")
        rep.check(residual[0] == 0, f"residual: exit {residual[0]} {residual[2].strip()}")
        summary_path = self.runs_dir / "sweep-summary.json"
        summary = {}
        if sweep[0] == 0 and summary_path.exists():
            summary = {Path(e["dir"]).name: e for e in json.loads(summary_path.read_text())}
        h = hashlib.sha256()
        for job, (code, out, err, _) in zip(self.jobs, analyses):
            entry = summary.get(job.name)
            rep.check(entry is not None,
                      f"sweep: exit {sweep[0]}, {job.name} missing {sweep[2].strip()}")
            report = json.loads(out) if code == 0 else None
            rep.check(entry is not None and report is not None
                      and report["outcome"] == entry["outcome"]
                      and report["T_e_est"] == entry["T_e_est"],
                      f"analyze {job.name}: exit {code}, read-back differs {err.strip()}")
            resolved_ok = False
            cfg_path = job / "resolved-config.json"
            if cfg_path.exists():
                resolved = json.loads(cfg_path.read_text())
                again = json.loads(json.dumps(cli.resolve_experiment(resolved).resolved))
                resolved_ok = again == resolved
            rep.check(resolved_ok, f"{job.name}: resolved config does not round-trip")
            for path in sorted(job.rglob("*")):
                if path.is_file() and path.name != "analysis-report.json":
                    rep.write_bytes += path.stat().st_size
                if path.suffix == ".csv":
                    h.update(path.relative_to(self.runs_dir).as_posix().encode())
                    h.update(path.read_bytes())
        rep.digest = h.hexdigest()

        for path in sorted(jobs_dir.glob("*.json")):
            rep.jobs.append(json.loads(path.read_text()))
        rep.runs = len(rep.jobs)
        rep.steps = sum(j["counts"].get("solver.run.steps", 0) for j in rep.jobs)
        rep.solver_s = sum(j["spans"].get("solver.run", {}).get("total_s", 0.0)
                           - j["kernel_s"] for j in rep.jobs)
        for j in rep.jobs:
            rep.slowdowns += [s for _, _, s in j["segments"]]
            rep.rates += [n * s / sec for n, sec, s in j["segments"]]
        sweep_wall = rep.sweep_span[1] - rep.sweep_span[0]
        rep.busy_frac = sum(j["job_s"] for j in rep.jobs) / (self.workers * sweep_wall)
        return rep


def make(name: str, seed: int, size: str, workdir: Path, workers: int):
    if name == "lab_sweep":
        return LabSweep(seed, size, workdir, workers)
    return SolverWorkload(name, size)
