"""Time integration of the regularized radial flow.

Each scheme is one row of the table SCHEMES: a step bound, bound(terms),
giving the largest safe dt, and a step function, step(terms, u, dt),
advancing the state u by dt and clamping it at zero.  terms is the run's
StepTerms workspace, which holds one state, filled once per step from u;
grid, problem and regularization come from it.

explicit       stable_dt(terms): SAFETY over the largest own-cell rate
               of the update, the diffusion row sum in every cell plus
               the gradient source's own-cell derivative at the symmetry
               cell; then forward Euler in place (explicit_step).
               Monotone under the default eps = dr^(2/3) tie, cheapest
               at p = 2, where the diffusion rows are the grid's.
semi_implicit  SAFETY / max source_rate(terms), capped at dr, then
               backward Euler on the diffusion with mobilities frozen at
               the current gradients and the gradient source kept
               explicit; each row times its cell measure, the couplings
               the face weights times dt/dr, so LAPACK's dptsv solves a
               symmetric positive definite system in place, its inputs
               checked finite first (semi_implicit_step).  A stack of
               states in u is a ValueError.
               Removes the eps^(p-2) diffusion restriction that
               strangles explicit stepping at p < 2 with small eps.

run looks its scheme up once and has one loop with one exit.  Every step
takes the scheme's own bound, clipped at the next snapshot time and at
the horizon.  A run ends in one of three ways: the sup norm falls below
tol_ext (extinct, with the crossing time estimated by log-linear
interpolation; data already below it is extinct at time zero and takes
no step), the horizon t_end arrives first, or the state escapes upward
past DIVERGENCE_FACTOR times its initial sup (diverged: the scheme was
driven outside its stability region).  A run that takes MAX_STEPS steps
without ending raises RuntimeError.  The clamp at zero removes the
negative undershoots at the support edge; the continuum solution is
nonnegative and the clamp keeps the discrete one comparable.

The series records t and sup of every series_stride-th state and of the
last one.  Each recorded state is copied into a block of K = max(1,
RECORD_BLOCK_CELLS // M) rows; when the block is full, and once when the
run ends, one pass over the block measures its support radius, mass and,
if asked for, gradient column (one face_gradient call, over the columns
up to the block's last cell above series_gradient_floor and one more:
the faces beyond are masked anyway).  Each row equals the per-state
formula to the last bit: the mass is a row-wise pairwise sum, as np.sum
of one state is, and the gradient maximum is a masked reduction from
0.0 over the faces between two cells above the floor.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dptsv

from .exponents import ProblemParams, RegimeMismatch, decay_threshold, single_point_constants
from .gridop import (
    SAFETY,
    RadialGrid,
    Regularization,
    StepTerms,
    face_gradient,
    discrete_rhs,
    source_rate,
    stable_dt,
)
from .analysis import default_domination_tol, support_radius


# cells in one buffer of the series' record blocks: 64 KiB of float64
RECORD_BLOCK_CELLS = 8192
# a sup above this multiple of the initial sup ends a run as diverged
DIVERGENCE_FACTOR = 2.0
# steps a run may take before it is abandoned with a RuntimeError
MAX_STEPS = 200_000_000


class DataShapeError(ValueError):
    """Initial data incompatible with the requested tail class."""


# --------------------------------------------------------------------------
# initial data
# --------------------------------------------------------------------------

class Bump:
    """Compactly supported cap m (R0^2 - r^2)_+^power.

    In the single-point regime the default power is the barrier exponent
    omega, and the data is certified flat (single-point extinction
    territory) when m <= kappa / (2 R0)^omega: then u0 lies below every
    translate of the critical cone along its support edge.  Outside that
    regime a power must be given explicitly and no certificate attaches.
    """

    kind = "bump"

    def __init__(self, problem: ProblemParams, m: float, R0: float,
                 power: Optional[float] = None):
        if m <= 0 or R0 <= 0:
            raise DataShapeError(f"need m > 0 and R0 > 0, got m = {m}, R0 = {R0}")
        if power is not None and not power > 0:
            raise DataShapeError(f"need power > 0, got {power}")
        self.problem = problem
        self.m = float(m)
        self.R0 = float(R0)
        self.flat_certified = False
        self.amplitude_bound = None
        try:
            c = single_point_constants(problem, "the barrier exponent")
        except RegimeMismatch:      # no default power and no certificate
            c = None
        if power is None and c is None:
            raise RegimeMismatch(
                "default bump power is the barrier exponent, defined only for "
                "q < p-1; give power explicitly")
        self.power = float(c.omega if power is None else power)
        # certificate attaches whenever the resolved power is the barrier
        # exponent, however it was requested
        if c is not None and self.power == c.omega:
            self.amplitude_bound = c.kappa / (2.0 * R0) ** c.omega
            self.flat_certified = self.m <= self.amplitude_bound

    def sample(self, r):
        core = np.maximum(self.R0 ** 2 - np.asarray(r, dtype=float) ** 2, 0.0)
        return self.m * core ** self.power

    def sup(self) -> float:
        return self.m * self.R0 ** (2.0 * self.power)


class _AlgebraicTail:
    """Tail data C (1 + r^2)^(-x/2): FastDecay and FatTail name x and
    bound it by the threshold q/(1-q) that _admit returns."""

    def _admit(self, problem: ProblemParams, C: float) -> float:
        if not problem.q < 1.0:
            raise DataShapeError(f"tail data needs q < 1, got q = {problem.q}")
        if C <= 0:
            raise DataShapeError(f"need C > 0, got {C}")
        self.problem, self.C = problem, float(C)
        return decay_threshold(problem.q)

    def sample(self, r):
        return self.C * (1.0 + np.asarray(r, dtype=float) ** 2) ** (-self._x / 2.0)

    def sup(self) -> float:
        return self.C


class FastDecay(_AlgebraicTail):
    """Algebraic tail C (1 + r^2)^(-theta/2) with theta at or above q/(1-q).

    Fast enough for instantaneous shrinking (strictly above the threshold)
    and for the borderline finite-time extinction bound (equality allowed).
    """

    kind = "fast_decay"

    def __init__(self, problem: ProblemParams, C: float, theta: float):
        thr = self._admit(problem, C)
        if theta < thr:
            raise DataShapeError(
                f"tail exponent {theta} below the fast-decay threshold q/(1-q) = {thr}")
        self.theta = self._x = float(theta)


class FatTail(_AlgebraicTail):
    """Algebraic tail C (1 + r^2)^(-rho/2) with rho strictly below q/(1-q):
    too much mass at infinity for extinction in finite time."""

    kind = "fat_tail"

    def __init__(self, problem: ProblemParams, C: float, rho: float):
        thr = self._admit(problem, C)
        if not 0.0 <= rho < thr:
            raise DataShapeError(
                f"fat-tail exponent must sit in [0, q/(1-q)) = [0, {thr}), got {rho}")
        self.rho = self._x = float(rho)


# --------------------------------------------------------------------------
# run configuration and result
# --------------------------------------------------------------------------

class Outcome(Enum):
    EXTINCT = "extinct"
    HORIZON_REACHED = "horizon_reached"
    DIVERGED = "diverged"


@dataclass
class SolverConfig:
    """Knobs for a single run; None tolerances resolve against eps.

    tol_ext defaults to 10 eps^default_gamma_lift(problem), the floor
    below which the regularized dynamics cannot distinguish a state from
    zero; tol_pos defaults to tol_ext.  series_stride thins the time
    series, snapshots are taken at the listed times (plus start and final
    state).
    lift adds a constant floor to the data (for diagnostics on strictly
    positive states).  The tolerances, lift and series_gradient_floor
    must be nonnegative.
    """

    t_end: float
    scheme: str = "explicit"
    tol_ext: Optional[float] = None
    tol_pos: Optional[float] = None
    series_stride: int = 8
    snapshot_times: tuple = ()
    lift: float = 0.0
    series_gradient_power: Optional[float] = None
    series_gradient_floor: float = 0.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.series_stride < 1:
            raise ValueError("series_stride must be >= 1")
        # a zero tolerance asks for exact extinction or the exact support
        for name in ("tol_ext", "tol_pos", "lift", "series_gradient_floor"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    def resolve_tols(self, problem: ProblemParams, reg: Regularization) -> tuple:
        te = self.tol_ext if self.tol_ext is not None else default_domination_tol(problem, reg)
        tp = self.tol_pos if self.tol_pos is not None else te
        return float(te), float(tp)


@dataclass
class RunResult:
    outcome: Outcome
    T_e_est: Optional[float]
    t_final: float
    n_steps: int
    sup0: float
    tol_ext: float
    tol_pos: float
    series: dict                   # t, sup, support_radius, mass (+ grad columns)
    snapshots: dict                # {"t": [...], "u": [arrays]}
    problem: ProblemParams
    grid: RadialGrid


def detect_extinction(t1: float, s1: float, t2: float, s2: float, tol: float) -> float:
    """Log-linear estimate of the time the sup norm crossed tol.

    s1 > tol >= s2 is assumed; a vanished s2 dates the crossing at t2.
    """
    if s2 <= 0.0:
        return t2
    f = (np.log(s1) - np.log(tol)) / (np.log(s1) - np.log(s2))
    return t1 + f * (t2 - t1)


def _semi_implicit_matrix(terms: StepTerms, dt: float) -> np.ndarray:
    """m (I - dt D), m the cell measures, with mobilities frozen at the
    state terms holds, rebuilt in terms.bands in solveh_banded's layout.

    With the face weights w and lambda = dt / dr, row i is m_i + lambda
    (w_i + w_(i+1)) on the diagonal and -lambda w_(i+1) off it: symmetric,
    and positive definite as every m_i > 0 and every w >= 0.
    """
    # w_0 = 0: no flux crosses the symmetry face; w_M meets the zero ghost
    w, lam, ab = terms.weights, dt / terms.grid.dr, terms.bands
    np.multiply(w[1:-1], -lam, out=ab[0, 1:])
    diagonal = np.add(w[:-1], w[1:], out=ab[1])
    diagonal *= lam
    diagonal += terms.metric_cells
    return ab


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite tridiagonal system in ab for b.

    ab is laid out as for scipy.linalg.solveh_banded(ab, b), whose x this
    is to the last bit: LAPACK's dptsv, called directly, factors the
    bands of a float64 ab as L D L^T in place, without pivoting, and
    solves in place into a float64 b; it never reads the corner ab[0, 0].
    A non-finite entry anywhere in ab or b is a ValueError, as with
    scipy's check_finite; a LinAlgError says ab is not positive definite.
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = dptsv(ab[1], ab[0, 1:], b, 1, 1, 1)
    if info > 0:
        raise LinAlgError("matrix not positive definite")
    return x


def _explicit_bound(terms: StepTerms) -> float:
    return stable_dt(terms)


def _semi_implicit_bound(terms: StepTerms) -> float:
    rate = float(source_rate(terms).max())
    # even with implicit diffusion, do not outrun the state's own
    # relaxation scale by more than a factor of the grid
    return min(SAFETY / rate if rate > 0 else np.inf, terms.grid.dr)


def explicit_step(terms: StepTerms, u: np.ndarray, dt: float) -> np.ndarray:
    """Forward Euler in place on the state u, clamped at zero; terms is
    filled from u."""
    rhs = discrete_rhs(terms)
    terms.dt[()] = dt
    rhs *= terms.dt
    u += rhs
    return np.maximum(u, terms.zero, out=u)


def semi_implicit_step(terms: StepTerms, u: np.ndarray, dt: float) -> np.ndarray:
    """Backward Euler on the diffusion, each row times its cell measure,
    in place on u, clamped at zero; terms is filled from u.  u is one
    state: a stack is a ValueError."""
    if u.ndim != 1:
        raise ValueError(f"semi_implicit_step takes one state, not a stack: "
                         f"u has shape {u.shape}")
    src = terms.absorption()
    terms.dt[()] = dt
    src *= terms.dt
    u -= src
    u *= terms.metric_cells
    # dptsv overwrites the bands, rebuilt each step, and solves into u, the
    # right-hand side; a non-finite system is an error
    x = solve_banded(_semi_implicit_matrix(terms, dt), u)
    return np.maximum(x, terms.zero, out=u)


# scheme -> (bound, step); both reach the gridop layers and the banded
# solve through this module's names, looked up at call time
SCHEMES = {"explicit": (_explicit_bound, explicit_step),
           "semi_implicit": (_semi_implicit_bound, semi_implicit_step)}


def run(problem: ProblemParams, grid: RadialGrid, reg: Regularization,
        ic, cfg: SolverConfig) -> RunResult:
    """Integrate from ic until extinction, divergence, or the horizon."""
    terms = StepTerms(grid, problem, reg)
    tol_ext, tol_pos = cfg.resolve_tols(problem, reg)
    u = np.asarray(ic.sample(grid.r_cells), dtype=float) + cfg.lift
    if np.any(u < 0) or not np.all(np.isfinite(u)):
        raise DataShapeError("initial data must be finite and nonnegative")
    sup0 = float(u.max())
    metric = grid.metric_cells
    bound, step = SCHEMES[cfg.scheme]

    # the columns grow as packed doubles, 8 bytes a value
    ser_t, ser_sup, ser_rad, ser_mass, ser_grad = (array("d") for _ in range(5))
    snap_t, snap_u = [0.0], [u.copy()]
    gp, floor = cfg.series_gradient_power, cfg.series_gradient_floor
    # recorded states wait in a block of K rows and are measured a block
    # at a time; a buffer holds K M cells, at most RECORD_BLOCK_CELLS (the
    # gradient's face buffers K (M + 1))
    K = max(1, RECORD_BLOCK_CELLS // grid.M)
    block, scratch = np.empty((K, grid.M)), np.empty((K, grid.M))
    if gp is not None:
        g_block = np.empty((K, grid.M + 1))
    filled = 0

    def flush():
        nonlocal filled
        if not filled:
            return
        rows = block[:filled]
        ser_rad.frombytes(support_radius(grid, rows, tol_pos).tobytes())
        # row-wise pairwise summation, np.sum of each row to the bit (@ and
        # dot round differently)
        ser_mass.frombytes(np.add.reduce(
            np.multiply(rows, metric, out=scratch[:filled]), axis=-1).tobytes())
        if gp is not None:
            # only faces between two cells above the floor: the steepness
            # of the state's interior, not of tolerance-level fringe (a NaN
            # cell is above no floor).  No face past the block's last column
            # above the floor passes, so the columns stop there; neither the
            # symmetry face nor the face at the cut, against the next column
            # or the zero ghost (floor >= 0), passes in any row, and a row
            # where no face passes reads 0.0
            above = rows > floor
            cols = np.flatnonzero(above.any(axis=0))
            cut = int(cols[-1]) + 1 if cols.size else 1
            v = np.power(rows[:, :cut], gp, out=scratch[:filled, :cut])
            g = face_gradient(grid, v, out=g_block[:filled, :cut + 1])[:, 1:cut]
            np.abs(g, out=g)
            ser_grad.frombytes(np.maximum.reduce(
                g, axis=-1, where=above[:, :cut - 1] & above[:, 1:cut], initial=0.0).tobytes())
        filled = 0

    def record(t, u, sup):
        nonlocal filled
        if ser_t and ser_t[-1] == t:
            return
        ser_t.append(t)
        ser_sup.append(sup)
        block[filled] = u
        filled += 1
        if filled == K:
            flush()

    record(0.0, u, sup0)
    t_end, stride = cfg.t_end, cfg.series_stride
    # a time within slack of an event has reached it
    slack = 1e-12 * t_end
    horizon, sup_cap = t_end - slack, DIVERGENCE_FACTOR * sup0
    pending = sorted(t for t in cfg.snapshot_times if 0.0 < t <= t_end)
    t, n = 0.0, 0
    sup_prev, t_prev = sup0, 0.0
    # data already below tol_ext is extinct at time zero and takes no step
    outcome, T_e = (Outcome.EXTINCT, 0.0) if sup0 <= tol_ext else (None, None)

    while outcome is None:
        if n >= MAX_STEPS:
            raise RuntimeError(f"step budget {MAX_STEPS} exhausted at t = {t}")
        dt = bound(terms.fill(u))
        # min(dt, time to the next event) without the builtin's call: a NaN
        # dt stays NaN, as with min.  The horizon is the last event, every
        # pending time lies at or before it, and subtraction rounds
        # monotonically, so t_end - t is never the smaller clip
        t_next_event = pending[0] if pending else t_end
        to_event = t_next_event - t
        dt = to_event if to_event < dt else dt
        # each step updates u, this run's own array, in place
        u = step(terms, u, dt)
        t += dt
        n += 1

        # a float64, by the reduction u.max() runs, without its wrapper
        sup = np.maximum.reduce(u)
        if not math.isfinite(sup) or sup > sup_cap:
            outcome = Outcome.DIVERGED
        else:
            while pending and t >= pending[0] - slack:
                pending.pop(0)
                snap_t.append(t)
                snap_u.append(u.copy())
            if sup <= tol_ext:
                outcome = Outcome.EXTINCT
                T_e = detect_extinction(t_prev, sup_prev, t, sup, tol_ext)
            elif t >= horizon:
                outcome = Outcome.HORIZON_REACHED
        if outcome is not None or n % stride == 0:
            record(t, u, sup)
        sup_prev, t_prev = sup, t

    snap_t.append(t)
    snap_u.append(u.copy())
    flush()
    series = {"t": np.array(ser_t), "sup": np.array(ser_sup),
              "support_radius": np.array(ser_rad), "mass": np.array(ser_mass)}
    if ser_grad:
        series["grad_pow_sup"] = np.array(ser_grad)
    return RunResult(
        outcome=outcome, T_e_est=T_e, t_final=t, n_steps=n, sup0=sup0,
        tol_ext=tol_ext, tol_pos=tol_pos, series=series,
        snapshots={"t": np.asarray(snap_t), "u": snap_u}, problem=problem, grid=grid)
