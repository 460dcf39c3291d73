"""The numbered verification battery behind ``vhjlab verify``.

Thirteen criteria, each measuring one advertised behavior of the package
end to end: exponent algebra, closed-form certificates, one-step scheme
structure, and the extinction phenomenology of three reference
configurations.  Each reference run is an experiment document in
RECIPES, resolved by the same config reader as ``vhjlab simulate``, so
``simulate`` can rerun any of them.  A Battery instance caches the runs
so criteria that share a simulation do not pay for it twice; the full
battery finishes in minutes on one desktop core.

Every quantitative bar lives here, spelled out at the check site, so a
failure message always names the measured value and the band it missed.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import solver
from .analysis import (
    check_domination,
    fit_exponent,
    gradient_quotient,
    j_diagnostic,
    localization_radius,
    support_radius,
)
from .closedform import (
    SelfSimSuper,
    certify_sign,
    find_A0,
    make_shrink_super,
    make_tail_sub,
    operator_terms,
)
from .config import jsonable, resolve_experiment, with_overrides
from .exponents import ProblemParams, derive_constants
from .gridop import RadialGrid, Regularization, StepTerms, default_eps, stable_dt
from .solver import Bump, Outcome, explicit_step

PROBLEM_A = ProblemParams(1, 2.0, 0.5)
PROBLEM_B = ProblemParams(2, 1.8, 0.6)
PROBLEM_C = ProblemParams(2, 1.8, 0.85)

# Regularization for the reference runs.  The grid-tied default
# (dr^(2/3), about 1.6e-2 at M = 2048) is a continuation schedule, not a
# production setting: at that size the smoothed absorption is blunted
# near the support edge and the matching extinction tolerance lands
# above the bump's own amplitude.  A fixed 1e-7 sits four decades below
# the smallest gradients these runs resolve, so the regularized and
# ideal dynamics are indistinguishable at the tolerances checked here.
EPS_REFERENCE = 1e-7
# Runs built on the singular diffusion (p < 2) go through the
# semi-implicit scheme, whose step size is limited by the absorption
# slope ~ eps^(q-1); 1e-6 keeps those runs fast.  Their extinction time
# belongs to the regularization at this eps, not to the flow: bump_b's
# T_e reads 0.5946, 0.1454 and 0.0848 at eps = 1e-6, 1e-7 and 1e-8
# (M = 1024).  No criterion bars the T_e of a p < 2 run.
EPS_SINGULAR = 1e-6

BUMP_M = 1.0 / 96.0
BUMP_R0 = 1.0


def _recipe(problem: ProblemParams, ic: dict, r_max: float, eps: float,
            **solver) -> dict:
    """An experiment document at the battery's resolution, M = 2048."""
    return {"problem": asdict(problem), "ic": ic, "grid": {"r_max": r_max, "M": 2048},
            "regularization": {"eps": eps}, "solver": solver}


def _gradient_column(problem: ProblemParams, floor: float) -> dict:
    """Solver keys that record the steepness of u^((p-q-1)/(p-q))."""
    return {"series_gradient_power": (problem.p - problem.q - 1.0) / (problem.p - problem.q),
            "series_gradient_floor": floor}


# The battery's reference runs, one experiment document each, in the
# schema ``vhjlab simulate`` reads; Battery.run resolves and runs them.
RECIPES = {
    # the flat bump on the p = 2 configuration, gradient column on
    "bump_a": _recipe(PROBLEM_A, {"kind": "bump", "m": BUMP_M, "R0": BUMP_R0}, 4.0,
                      EPS_REFERENCE, t_end=0.3, scheme="explicit", tol_ext=1e-7,
                      tol_pos=1e-7, series_stride=2,
                      **_gradient_column(PROBLEM_A, 1e-5)),
    # the same bump on the singular-diffusion configuration
    "bump_b": _recipe(PROBLEM_B, {"kind": "bump", "m": BUMP_M, "R0": BUMP_R0}, 4.0,
                      EPS_SINGULAR, t_end=2.0, scheme="semi_implicit", tol_ext=1e-8,
                      tol_pos=1e-8, series_stride=4,
                      **_gradient_column(PROBLEM_B, 1e-4)),
    # slow-decay data, positive across the whole truncated grid
    "shrink": _recipe(PROBLEM_A, {"kind": "fast_decay", "C": 1.0, "theta": 3.0}, 32.0,
                      EPS_REFERENCE, t_end=0.05, scheme="explicit", tol_ext=1e-9,
                      tol_pos=1e-5, series_stride=16,
                      snapshot_times=[0.005, 0.01, 0.02]),
    # fat-tail data, run past its certified floor's horizon
    "fat": _recipe(PROBLEM_A, {"kind": "fat_tail", "C": 1.0, "rho": 0.5}, 16.0,
                   EPS_REFERENCE, t_end=1.0, scheme="explicit", tol_ext=1e-9,
                   tol_pos=1e-9, series_stride=32,
                   snapshot_times=np.linspace(0.1, 1.0, 10).tolist()),
    # tail decay exactly on the fast/fat threshold, singular configuration
    "border": _recipe(PROBLEM_B, {"kind": "fast_decay", "C": 1.0,
                                  "theta": derive_constants(PROBLEM_B).decay_threshold},
                      16.0, EPS_SINGULAR, t_end=50.0, scheme="semi_implicit",
                      tol_ext=1e-8, tol_pos=1e-8, series_stride=64,
                      snapshot_times=[0.5, 1.0, 2.0, 4.0, 8.0]),
    # complete extinction; the probe that dates T_e for Battery.complete
    "complete": _recipe(PROBLEM_C, {"kind": "bump", "m": 1.0, "R0": 1.0, "power": 2}, 4.0,
                        EPS_SINGULAR, t_end=10.0, scheme="semi_implicit", tol_ext=1e-6,
                        tol_pos=1e-6, series_stride=64),
}


@dataclass
class CriterionResult:
    """One criterion's verdict; ``verify --json`` writes these fields."""

    number: int
    title: str
    passed: bool
    elapsed: float
    details: dict

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} {flag} [{self.elapsed:7.1f}s] {self.title}"


SUITES = {
    "algebra": (1,),
    "closedform": (2, 3),
    "scheme": (4,),
    "phenomena": (5, 6, 7, 8, 9, 10, 11, 12, 13),
    "all": tuple(range(1, 14)),
}


# number -> title of every criterion, filled in by _criterion
CRITERIA: dict = {}


def _criterion(number: int, title: str):
    """Register a Battery method that returns (passed, details) as
    criterion number: calling it times the check and returns its
    CriterionResult, the details in JSON form.  A check that raises
    fails, with details {"error": "<Type>: <message>"}."""
    if number in CRITERIA:
        raise ValueError(f"criterion {number} is registered twice")
    CRITERIA[number] = title

    def harness(check):
        @functools.wraps(check)
        def timed(self) -> CriterionResult:
            t0 = time.time()
            try:
                passed, details = check(self)
            except Exception as exc:    # one broken check must not cost the others
                passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
            return CriterionResult(number, title, bool(passed), time.time() - t0,
                                   jsonable(details))
        return timed
    return harness


class Battery:
    """Runs numbered criteria, sharing the reference simulations."""

    def __init__(self, seed: int = 17):
        self.seed = seed
        self._cache: dict = {}

    def _memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # ----- shared reference runs ---------------------------------------

    def run(self, name: str, **overrides):
        """RECIPES[name] with dotted overrides (``**{"grid.M": 4096}``),
        simulated once per resolved config."""
        exp = resolve_experiment(with_overrides(RECIPES[name], overrides))
        key = json.dumps(exp.resolved, sort_keys=True)
        return self._memo(key, lambda: solver.run(exp.problem, exp.grid, exp.reg,
                                                  exp.ic, exp.cfg))

    # bench/test_bench.py reaches the two bump runs by these names
    def run_bump_a(self, M: int):
        return self.run("bump_a", **{"grid.M": M})

    def run_bump_b(self, M: int):
        return self.run("bump_b", **{"grid.M": M})

    def lifted(self, M: int):
        """bump_a at M plus a constant positivity lift, counterterm off,
        to 0.9 of bump_a's T_e.

        The lift eps^0.249 stays inside the admissible lift window while
        leaving the bump two decades above the positivity filter, and
        switching the counterterm off makes the flat background decay at
        the exact rate eps^q, so the filter drift over the run is known.
        """
        t_end = 0.9 * self.run("bump_a", **{"grid.M": M}).T_e_est
        lift = EPS_REFERENCE ** 0.249
        snaps = [float(f) * t_end for f in np.linspace(0.05, 1.0, 20)]
        return self.run("bump_a", **{
            "grid.M": M, "regularization.counterterm": False,
            "solver": {"t_end": t_end, "scheme": "explicit", "tol_ext": 1e-9,
                       "tol_pos": (lift + 1e-5) / 10.0, "series_stride": 64,
                       "snapshot_times": snaps, "lift": lift}})

    def complete(self):
        """The complete-extinction run, snapshots at fractions of its
        probe's T_e (the probe itself if it did not go extinct)."""
        probe = self.run("complete")
        if probe.outcome is not Outcome.EXTINCT:
            return probe
        snaps = [float(f) * probe.T_e_est for f in np.linspace(0.05, 0.95, 19)]
        return self.run("complete", **{"solver.snapshot_times": snaps})

    def shrink_super(self):
        return self._memo("sigma", lambda: make_shrink_super(
            PROBLEM_A, decay_C=1.0, decay_theta=3.0, sup_u0=1.0))

    def horizon_profile(self):
        """Certified decaying envelope for the border-decay run."""
        def build():
            A0 = find_A0(PROBLEM_B)
            A = 0.5 * A0
            # initial ordering W(0, .) >= u0 is tightest at the origin,
            # where it reads T^2 A >= 1; five percent of headroom
            T = 1.05 * (1.0 / A) ** 0.5
            return SelfSimSuper(PROBLEM_B, A=A, T=T), A0
        return self._memo("horizon", build)

    # ----- criteria -----------------------------------------------------

    @_criterion(1, "derived-exponent identities")
    def criterion_1(self):
        """Derived-exponent identities across the single-point range."""
        rng = np.random.default_rng(self.seed)
        n_triples = 10_000
        worst = 0.0
        worst_triple = None
        for _ in range(n_triples):
            N = int(rng.integers(1, 6))
            p_lo = max(2.0 * N / (N + 1.0), 1.0) + 0.05
            p = float(rng.uniform(p_lo, 2.0))
            q = float(rng.uniform(0.05 * (p - 1.0), 0.95 * (p - 1.0)))
            c = derive_constants(ProblemParams(N, p, q))
            pairs = (
                (c.omega, c.gamma_sigma),
                (c.omega * c.alpha1, q / (1.0 - q)),
                (c.alpha_ss - 1.0, q * (c.alpha_ss + c.beta_ss)),
            )
            for a, b in pairs:
                err = abs(a - b) / max(1.0, abs(a), abs(b))
                if err > worst:
                    worst, worst_triple = err, (N, p, q)
        passed = worst <= 1e-12
        return passed, {"n_triples": n_triples, "worst_error": worst,
                        "tolerance": 1e-12, "worst_triple": worst_triple}

    @_criterion(2, "steady barrier solves the operator exactly")
    def criterion_2(self):
        """The steady power-law barrier solves the operator exactly."""
        rng = np.random.default_rng(self.seed + 1)
        from .closedform import Barrier
        n_sets = 100
        worst = 0.0
        worst_at = None
        for _ in range(n_sets):
            N = int(rng.integers(1, 6))
            p_lo = max(2.0 * N / (N + 1.0) + 0.05, 1.3)
            p = float(rng.uniform(p_lo, 2.0))
            q = float(rng.uniform(0.05, p - 1.0 - 0.15))
            barrier = Barrier(ProblemParams(N, p, q))
            r = 10.0 ** rng.uniform(-3.0, 3.0, size=200)
            (dt, diff, drift, absorb), _ = operator_terms(barrier, 1.0, r)
            scale = np.abs(dt) + np.abs(diff) + np.abs(drift) + np.abs(absorb)
            rel = np.abs(dt + diff + drift + absorb) / scale
            k = int(np.argmax(rel))
            if rel[k] > worst:
                worst, worst_at = float(rel[k]), (N, p, q, float(r[k]))
        passed = worst <= 1e-12
        return passed, {"n_sets": n_sets, "points_per_set": 200,
                        "worst_residual": worst, "tolerance": 1e-12,
                        "worst_at": worst_at}

    @_criterion(3, "closed-form sign certificates")
    def criterion_3(self):
        """Sign certificates for the three comparison profiles."""
        rng = np.random.default_rng(self.seed + 2)
        sigma = self.shrink_super()
        cert_sigma = certify_sign(
            sigma, box=(1e-3, 0.999 * sigma.t0, 1.0001 * sigma.R, 1e3),
            sense="super", rng=rng)
        tail = make_tail_sub(PROBLEM_A, T=2.0)
        cert_tail = certify_sign(
            tail, box=(1e-3, 0.999 * 2.0, 1e-3, 1e3),
            sense="sub", rng=rng)
        W, A0 = self.horizon_profile()
        W2 = SelfSimSuper(PROBLEM_B, A=0.5 * A0, T=2.0)
        cert_w = certify_sign(
            W2, box=(1e-3, 0.999 * 2.0, 1e-4, 1e3),
            sense="super", rng=rng)
        passed = cert_sigma.passed and cert_tail.passed and cert_w.passed
        return passed, {"shrink_envelope": cert_sigma, "tail_floor": cert_tail,
                        "decaying_envelope": cert_w}

    # -- one-step scheme structure --

    @staticmethod
    def _smooth_states(rng, grid: RadialGrid, n: int):
        """Nonnegative piecewise-linear fields on 9 knots with log-uniform
        amplitude."""
        kr = np.linspace(0.0, grid.r_max, 9)
        vals = rng.uniform(-0.4, 1.0, size=(n, 9))
        amp = 10.0 ** rng.uniform(-3.0, 0.0, size=(n, 1))
        rows = np.asarray([np.interp(grid.r_cells, kr, v) for v in vals])
        return np.clip(rows, 0.0, None) * amp

    @_criterion(4, "one-step scheme structure on random data")
    def criterion_4(self):
        """Comparison, maximum principle, shape preservation, per step.

        One step of the solver's own explicit scheme (explicit_step)
        under the stability bound, the least of the compared states'
        own, checked on random data for both
        reference parameter sets; four properties, a thousand trials
        each, slack 1e-10 relative to the field size.  Each worst is also
        taken over the cells where the two sides differ alone (None if none).
        """
        rng = np.random.default_rng(self.seed + 3)
        slack = 1e-10
        trials_per_config = 500
        stats = {"comparison": 0.0, "max_principle": 0.0,
                 "radial_monotone": 0.0, "single_cell_ordering": 0.0}
        apart = dict.fromkeys(stats, -np.inf)

        def note(name, excess):
            """Fold the largest excess into stats[name], and the largest
            nonzero one (where the two sides differ) into apart[name]."""
            stats[name] = max(stats[name], float(excess.max()))
            apart[name] = max(apart[name], float(excess[excess != 0.0].max(initial=-np.inf)))

        for problem in (PROBLEM_A, PROBLEM_B):
            grid = RadialGrid(problem.N, 4.0, 256)
            reg = Regularization(eps=default_eps(grid))
            n = trials_per_config
            terms = StepTerms(grid, problem, reg)

            def bound(*stacks):
                """One dt for every state: the least of their own bounds."""
                return min(stable_dt(terms.fill(x)) for states in stacks for x in states)

            def step(states, dt):
                """One explicit step of each state by dt, in a new array."""
                out = states.copy()
                for x in out:
                    explicit_step(terms.fill(x), x, dt)
                return out

            def ordering(name, u, v):
                """Step an ordered pair u <= v by one shared dt; record the
                largest (T u - T v) / max(1, max v) under name."""
                dt = bound(u, v)
                scale = np.maximum(1.0, v.max(axis=1, keepdims=True))
                note(name, (step(u, dt) - step(v, dt)) / scale)

            # ordered fields stay ordered
            u = self._smooth_states(rng, grid, n)
            ordering("comparison", u, u + self._smooth_states(rng, grid, n))

            # bounds: nonnegative, and the sup can only creep by the
            # counterterm's eps^q dt
            w = self._smooth_states(rng, grid, n)
            dtw = bound(w)
            w1 = step(w, dtw)
            allowance = reg.eps ** problem.q * dtw
            over = (w1.max(axis=1) - w.max(axis=1) - allowance) / np.maximum(
                1.0, w.max(axis=1))
            note("max_principle", over)
            note("max_principle", -w1)

            # radially decreasing data stays decreasing
            s = np.sort(self._smooth_states(rng, grid, n), axis=1)[:, ::-1]
            dts = bound(s)
            s1 = step(s, dts)
            scale = np.maximum(1.0, s.max(axis=1, keepdims=True))
            note("radial_monotone", np.diff(s1, axis=1) / scale)

            # the update is monotone in every single input cell
            a = self._smooth_states(rng, grid, n)
            b = a.copy()
            cols = rng.integers(0, grid.M, size=n)
            b[np.arange(n), cols] += rng.uniform(0.01, 0.5, size=n)
            ordering("single_cell_ordering", a, b)

        passed = all(v <= slack for v in stats.values())
        return passed, {"worst_violation": stats, "slack": slack, "worst_where_sides_differ":
                        {k: v if v > -np.inf else None for k, v in apart.items()},
                        "trials_per_property": 2 * trials_per_config, "M": 256}

    @_criterion(5, "reference bump goes extinct at the fitted rate")
    def criterion_5(self):
        """Reference bump dies in finite time at the fitted rate."""
        res2 = self.run("bump_a")
        res4 = self.run("bump_a", **{"grid.M": 4096})
        extinct = (res2.outcome is Outcome.EXTINCT
                   and res4.outcome is Outcome.EXTINCT)
        fit = fit_exponent(res2.series["t"], res2.series["sup"], res2.T_e_est)
        in_band = 1.4 <= fit.exponent <= 2.1
        drift = abs(res4.T_e_est - res2.T_e_est) / res2.T_e_est if extinct else np.inf
        passed = extinct and in_band and drift <= 0.03
        return passed, {"outcome": res2.outcome, "T_e": res2.T_e_est,
                        "T_e_refined": res4.T_e_est, "T_e_drift": drift,
                        "T_e_drift_bar": 0.03, "sup_exponent": fit.exponent,
                        "exponent_band": (1.4, 2.1), "fit_points": fit.n_points}

    @_criterion(6, "support collapses to a point at the fitted rate")
    def criterion_6(self):
        """Support collapses to a point at the fitted rate."""
        res = self.run("bump_a")
        fit = fit_exponent(res.series["t"], res.series["support_radius"],
                           res.T_e_est)
        lo, hi = 1.0 / 6.0 - 0.1, 2.0 / 3.0 + 0.1
        final_support = float(res.series["support_radius"][-1])
        bar = 5.0 * res.grid.dr
        passed = (lo <= fit.exponent <= hi) and final_support <= bar
        return passed, {"support_exponent": fit.exponent, "exponent_band": (lo, hi),
                        "final_support": final_support, "final_support_bar": bar,
                        "fit_points": fit.n_points}

    @_criterion(7, "support never leaves the initial ball")
    def criterion_7(self):
        """Support never leaves the initial ball, at every stored step.

        The details set the measured support beside the a-priori
        localization bound R0 + (sup u0 / kappa)^(1/omega), which holds
        for any data in the ball, flat or not.
        """
        res = self.run("bump_a")
        bar = BUMP_R0 + 2.0 * res.grid.dr
        worst = float(np.max(res.series["support_radius"]))
        ic = Bump(PROBLEM_A, m=BUMP_M, R0=BUMP_R0)
        passed = ic.flat_certified and worst <= bar
        return passed, {
            "flat_certified": ic.flat_certified, "max_support": worst,
            "localization_radius": localization_radius(PROBLEM_A, ic.sup(), BUMP_R0),
            "bar": bar, "n_steps_checked": len(res.series["t"])}

    @_criterion(8, "slow-decay tail shrinks to a bounded set")
    def criterion_8(self):
        """Everywhere-positive slow-decay data shrinks to a bounded set.

        Four checks: the data clears the positivity tolerance on the
        whole grid, the support radius decreases through every stored
        step, the certified envelope dominates the run on its validity
        box, and the support has dropped below half the domain by
        t = 0.01.  The last check measures an honest failure: at that
        time this data has burned its tail to about 2e-4 at half-domain,
        an order of magnitude above the largest admissible positivity
        tolerance, so the support genuinely is still wider.  The details
        date the half-domain crossing on the shrink recipe run to t = 0.1,
        because the criterion's own run stops at t = 0.05, just before it.
        """
        res = self.run("shrink")
        grid = res.grid
        u0 = np.asarray(res.snapshots["u"][0])
        data_positive = bool(np.min(u0) > res.tol_pos)

        rad = res.series["support_radius"]
        decreasing = bool(np.all(np.diff(rad) <= 1e-12))

        k = int(np.argmin(np.abs(res.snapshots["t"] - 0.01)))
        support_at_probe = support_radius(grid, res.snapshots["u"][k], res.tol_pos)
        target = grid.r_max / 2.0
        early_enough = support_at_probe < target

        # first series time at which the support is inside the target
        long = self.run("shrink", **{"solver.t_end": 0.1,
                                        "solver.snapshot_times": []})
        inside = np.nonzero(long.series["support_radius"] < target)[0]
        cross_time = float(long.series["t"][inside[0]]) if inside.size else None

        sigma = self.shrink_super()
        dom = check_domination(
            grid, res.snapshots["t"], np.asarray(res.snapshots["u"]), sigma,
            sense="upper", tol=10.0 * EPS_REFERENCE ** PROBLEM_A.q,
            r_window=(1.0001 * sigma.R, grid.r_max))

        passed = data_positive and decreasing and early_enough and dom.passed
        return passed, {"data_positive": data_positive, "support_decreasing": decreasing,
                        "support_at_t0.01": support_at_probe, "target": target,
                        "probe_ok": early_enough, "half_domain_cross_time": cross_time,
                        "domination": dom}

    @_criterion(9, "fat-tail data survives past the horizon")
    def criterion_9(self):
        """Fat-tail data stays positive past the horizon."""
        res = self.run("fat")
        grid = res.grid
        T = 2.0
        # the tail floor must start below the data everywhere on the
        # grid; the binding cell fixes the offset, with five percent of
        # margin and never less than twice the certified minimum
        tail0 = make_tail_sub(PROBLEM_A, T=T)
        b = tail0.b
        need = float(np.max((T ** 2 * (1.0 + grid.r_cells ** 2) ** 0.25) ** 2
                            - b * grid.r_cells ** 2))
        tail = make_tail_sub(PROBLEM_A, T=T, a=max(2.0 * tail0.a_min, 1.05 * need))
        u0 = np.asarray(res.snapshots["u"][0])
        ordering = float(np.min(u0 - tail.value(0.0, grid.r_cells)))

        dom = check_domination(
            grid, res.snapshots["t"], np.asarray(res.snapshots["u"]), tail,
            sense="lower", tol=10.0 * EPS_REFERENCE ** PROBLEM_A.q,
            r_window=(0.0, grid.r_max / 2.0))
        half = grid.r_cells <= grid.r_max / 2.0
        final_min = float(np.asarray(res.snapshots["u"][-1])[half].min())
        survived = res.outcome is Outcome.HORIZON_REACHED
        passed = (ordering >= 0.0 and dom.passed and final_min > 0.0
                  and survived)
        return passed, {"outcome": res.outcome, "initial_ordering_margin": ordering,
                        "tail_offset": tail.a, "domination": dom,
                        "min_at_horizon_inner_half": final_min,
                        "floor_at_horizon_center": tail.value(1.0, np.array([1e-9]))[0]}

    @_criterion(10, "complete extinction keeps the ball positive")
    def criterion_10(self):
        """Complete extinction keeps the whole ball positive to the end."""
        res = self.complete()
        extinct = res.outcome is Outcome.EXTINCT
        grid = res.grid
        half = grid.r_cells <= grid.r_max / 2.0
        checked, failures = 0, 0
        first_min = None
        if extinct:
            for tt, uu in zip(res.snapshots["t"], res.snapshots["u"]):
                if tt <= 0.0:
                    continue
                uu = np.asarray(uu)
                if first_min is None:
                    first_min = float(uu[half].min())
                if uu.max() <= 1e3 * res.tol_ext:
                    continue       # near extinction, positivity released
                checked += 1
                if uu[half].min() <= res.tol_pos:
                    failures += 1
        passed = extinct and checked > 0 and failures == 0 and (
            first_min is not None and first_min > res.tol_pos)
        return passed, {"outcome": res.outcome, "T_e": res.T_e_est,
                        "snapshots_checked": checked, "positivity_failures": failures,
                        "min_at_first_snapshot": first_min, "tol_pos": res.tol_pos}

    @_criterion(11, "gradient envelope is refinement-stable")
    def criterion_11(self):
        """Gradient envelope is finite and refinement-stable, both configs."""
        details = {}
        passed = True
        for label, name, problem in (("p2", "bump_a", PROBLEM_A),
                                     ("singular", "bump_b", PROBLEM_B)):
            envs = {}
            for M in (2048, 4096):
                res = self.run(name, **{"grid.M": M})
                quot = gradient_quotient(res.series["t"], res.series["grad_pow_sup"],
                                         res.sup0, problem)
                envs[M] = float(np.max(quot))
            drift = abs(envs[4096] / envs[2048] - 1.0)
            ok = np.isfinite(envs[2048]) and np.isfinite(envs[4096]) and drift <= 0.2
            passed = passed and bool(ok)
            details[label] = {"envelope_M2048": envs[2048],
                              "envelope_M4096": envs[4096],
                              "drift": drift, "drift_bar": 0.2}
        return passed, details

    @_criterion(12, "flatness floor and flux balance persist")
    def criterion_12(self):
        """Flatness floor persists and the probed flux balance holds."""
        details = {}
        ratios = {}
        probes_ok = True
        for M in (2048, 4096):
            res = self.lifted(M)
            diag = j_diagnostic(res.grid, PROBLEM_A, res.snapshots["t"],
                                res.snapshots["u"], res.tol_pos, R0=BUMP_R0)
            later = diag.delta[diag.t > 0.0]
            ratios[M] = float(np.min(later) / diag.delta[0])
            probes_ok = probes_ok and diag.passed
            details[f"M{M}"] = {"delta0": float(diag.delta[0]),
                                "inf_delta": float(np.min(later)),
                                "ratio": ratios[M],
                                "probe_max_excess": diag.max_excess,
                                "probe_passed": diag.passed,
                                "delta_probe": diag.delta_probe}
        floor_ok = all(r >= 0.5 for r in ratios.values())
        drift = abs(ratios[4096] / ratios[2048] - 1.0)
        details["ratio_drift"] = drift
        details["ratio_drift_bar"] = 0.2
        passed = floor_ok and drift <= 0.2 and probes_ok
        return passed, details

    @_criterion(13, "extinction beats the certified horizon")
    def criterion_13(self):
        """Borderline-decay run dies before the certified horizon."""
        W, _ = self.horizon_profile()
        rng = np.random.default_rng(self.seed + 4)
        cert = certify_sign(W, box=(1e-3, 0.999 * W.T, 1e-4, 50.0),
                            sense="super", rng=rng)
        res = self.run("border")
        grid = res.grid
        u0 = np.asarray(res.snapshots["u"][0])
        ordering = float(np.min(W.value(0.0, grid.r_cells) - u0))
        dom = check_domination(
            grid, res.snapshots["t"], np.asarray(res.snapshots["u"]), W,
            sense="upper", tol=10.0 * EPS_SINGULAR ** PROBLEM_B.q)
        extinct = res.outcome is Outcome.EXTINCT
        bounded = extinct and res.T_e_est <= W.T
        passed = cert.passed and ordering >= 0.0 and dom.passed and bounded
        return passed, {"outcome": res.outcome, "T_e": res.T_e_est,
                        "horizon": W.T, "initial_ordering_margin": ordering,
                        "certificate": cert, "domination": dom}

    # ----- orchestration -------------------------------------------------

    def run_criteria(self, numbers) -> list:
        return [getattr(self, f"criterion_{n}")() for n in numbers]


def run_suite(name: str, seed: int = 17) -> list:
    """Run one named suite and return its CriterionResults."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return Battery(seed=seed).run_criteria(SUITES[name])
