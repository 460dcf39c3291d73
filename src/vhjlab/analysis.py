"""Measurements on computed states and series.

Everything here is array-in, array-out; nothing integrates.  The fitting
helpers turn extinction series into exponents, the domination check
compares a numerical state with a closed-form profile over a declared
window, and the flatness diagnostics quantify how steep the state is
relative to the power balance that separates single-point extinction
from bulk vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .exponents import ProblemParams, RegimeMismatch, single_point_constants
from .gridop import RadialGrid, face_gradient


class InsufficientPoints(ValueError):
    """Too few usable samples inside the requested fit window."""


class EmptySupport(ValueError):
    """No snapshot has any cell above the positivity filter."""


def support_radius(grid: RadialGrid, u: np.ndarray, tol: float):
    """Outermost cell center where the state exceeds tol; 0.0 if none does.

    One state, shape (M,), gives a float; a stack of states, shape
    (..., M), gives an array of the leading shape, one radius per state.
    """
    above = np.asarray(u) > tol
    # the last cell above tol is the first one in reversed order
    last = above.shape[-1] - 1 - np.argmax(above[..., ::-1], axis=-1)
    radius = np.where(above.any(axis=-1), grid.r_cells[last], 0.0)
    return float(radius) if radius.ndim == 0 else radius


def localization_radius(problem: ProblemParams, sup_u0: float, R0: float) -> float:
    """A priori support bound R0 + (sup u0 / kappa)^(1/omega) for data in B_R0.

    Sliding the critical power cone along the sphere of radius R0 caps the
    support of the evolution for all time: beyond this radius every cone
    translate lies above the data and stays above the flow.
    """
    c = single_point_constants(problem, "localization bound")
    return R0 + (sup_u0 / c.kappa) ** (1.0 / c.omega)


@dataclass
class FitResult:
    exponent: float
    intercept: float          # log-space offset: log y ~ intercept + exponent log(T-t)
    n_points: int
    t_window: tuple
    max_log_residual: float


def fit_exponent(t, y, T_e: float) -> FitResult:
    """Least-squares slope of log y against log(T_e - t) near extinction.

    The window starts at T_e - 0.4 (T_e - t[0]) (the last 40% of the
    lifetime) and drops the final 5 samples, whose T_e - t is at
    stepping noise level; nonpositive samples, which have no logarithm,
    are dropped.  Fewer than 8 usable samples raise InsufficientPoints.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size != y.size:
        raise ValueError("t and y must have matching length")
    lo = T_e - 0.4 * (T_e - t[0])
    keep = (t >= lo) & (t < T_e) & (y > 0.0)
    keep[np.nonzero(keep)[0][-5:]] = False
    n = int(keep.sum())
    if n < 8:
        raise InsufficientPoints(
            f"{n} usable samples in [{lo}, {T_e}) without the final 5 and "
            "the nonpositive ones; need 8")
    x = np.log(T_e - t[keep])
    z = np.log(y[keep])
    slope, intercept = np.polyfit(x, z, 1)
    resid = np.max(np.abs(z - (intercept + slope * x)))
    return FitResult(exponent=float(slope), intercept=float(intercept), n_points=n,
                     t_window=(float(t[keep][0]), float(t[keep][-1])),
                     max_log_residual=float(resid))


@dataclass
class DominationReport:
    sense: str
    tol: float
    n_points: int
    max_violation: float      # positive means the ordering failed by that much
    worst_t: float
    worst_r: float
    passed: bool


def window_cells(grid: RadialGrid, r_window: tuple) -> np.ndarray:
    """Mask of the cells whose centres r satisfy lo <= r <= hi.

    The window must be two numbers lo < hi (else ValueError) holding at
    least one cell centre (else InsufficientPoints).
    """
    if len(r_window) != 2 or not r_window[0] < r_window[1]:
        raise ValueError(f"r_window must be two numbers lo < hi, got {list(r_window)}")
    r = grid.r_cells
    mask = (r >= r_window[0]) & (r <= r_window[1])
    if not mask.any():
        raise InsufficientPoints(f"r_window {list(r_window)} holds no cell centre "
                                 f"of the grid on [0, {grid.r_max}]")
    return mask


def check_domination(grid: RadialGrid, snap_t, snap_u, profile,
                     sense: Literal["upper", "lower"], tol: float,
                     r_window: Optional[tuple] = None) -> DominationReport:
    """Verify profile >= state ('upper') or profile <= state ('lower') on
    every snapshot, within tol, over the cells whose centers lie in
    r_window (all cells when it is None)."""
    if sense not in ("upper", "lower"):
        raise ValueError(f"sense must be 'upper' or 'lower', got {sense!r}")
    sgn = 1.0 if sense == "upper" else -1.0
    r = grid.r_cells
    if r_window is None:
        rmask = np.ones_like(r, dtype=bool)
    else:
        rmask = window_cells(grid, r_window)
    worst = -np.inf
    worst_t = worst_r = np.nan
    n = 0
    for tk, uk in zip(snap_t, snap_u):
        gap = sgn * (np.asarray(uk) - profile.value(tk, r))
        gap = np.where(rmask, gap, -np.inf)
        n += int(rmask.sum())
        k = int(np.argmax(gap))
        if gap[k] > worst:
            worst, worst_t, worst_r = float(gap[k]), float(tk), float(r[k])
    if n == 0:
        raise InsufficientPoints("no snapshot samples inside the requested window")
    return DominationReport(sense=sense, tol=tol, n_points=n, max_violation=worst,
                            worst_t=worst_t, worst_r=worst_r, passed=bool(worst <= tol))


def gradient_quotient(t, grad_sup, sup0: float, problem: ProblemParams):
    """Pointwise quotient of the measured steepness of u^((p-q-1)/(p-q))
    against the universal envelope shape 1 + sup0^((p-2q)/(p(p-q))) t^(-1/p).

    A bounded quotient uniformly in resolution is the discrete trace of
    the interior gradient bound.  Returns the quotient over the samples
    with t > 0 only (the envelope blows up at t = 0).
    """
    p, q = problem.p, problem.q
    t = np.asarray(t, dtype=float)
    g = np.asarray(grad_sup, dtype=float)
    live = t > 0.0
    shape = 1.0 + sup0 ** ((p - 2.0 * q) / (p * (p - q))) * t[live] ** (-1.0 / p)
    return g[live] / shape


def _cell_gradient(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """gbar, the mean of each cell's two face gradients, as StepTerms.fill
    takes it."""
    g = face_gradient(grid, u)
    return (g[:-1] + g[1:]) * 0.5


def _floor(problem: ProblemParams, r, u, gbar, elig) -> tuple:
    """flatness_floor's (delta, n_eligible) from the cell gradient."""
    p, q = problem.p, problem.q
    n = int(elig.sum())
    if n == 0:
        return float("nan"), 0
    ratio = (np.abs(gbar[elig])
             / (r[elig] ** (1.0 / (p - 1.0 - q)) * u[elig] ** (1.0 / (p - q)))) ** (p - 1.0)
    return float(np.min(ratio)), n


def _balance_parts(problem: ProblemParams, c, r, u, gbar, delta) -> tuple:
    """flux_balance's two terms: r^(N-1)|gbar|^(p-2) gbar and
    delta r^lambda u^beta, with c the single-point constants."""
    # |g|^(p-2) g written as sign(g)|g|^(p-1): regular at g = 0 since p > 1
    flux = np.sign(gbar) * np.abs(gbar) ** (problem.p - 1.0)
    return r ** (problem.N - 1.0) * flux, delta * r ** c.lambda_j * u ** c.beta_j


def flatness_floor(grid: RadialGrid, problem: ProblemParams, u: np.ndarray,
                   r_window: tuple, u_floor: float) -> tuple:
    """Worst-case steepness ratio over the eligible cells.

    For each cell with u above u_floor and center inside r_window, form
      ratio_i = [ |gbar_i| / (r_i^(1/(p-1-q)) u_i^(1/(p-q))) ]^(p-1);
    the minimum is the largest coefficient delta for which the inward flux
    dominates delta r^lambda u^beta on all eligible cells.  Returns
    (delta, n_eligible); delta is nan when nothing is eligible.
    """
    if problem.p - 1.0 - problem.q <= 0:
        raise RegimeMismatch("steepness ratio is a single-point-regime notion")
    u = np.asarray(u, dtype=float)
    r = grid.r_cells
    elig = (u > u_floor) & (r > r_window[0]) & (r < r_window[1])
    return _floor(problem, r, u, _cell_gradient(grid, u), elig)


def flux_balance(grid: RadialGrid, problem: ProblemParams, u: np.ndarray,
                 delta: float) -> np.ndarray:
    """Per-cell balance r^(N-1)|gbar|^(p-2) gbar + delta r^lambda u^beta.

    Nonpositive values mean the inward gradient flux still dominates the
    calibrated power of the state: the structure that pins extinction to
    the origin.  lambda and beta are the matched homogeneity exponents.
    """
    c = single_point_constants(problem, "flux balance")
    u = np.asarray(u, dtype=float)
    flux_part, probe_part = _balance_parts(problem, c, grid.r_cells, u,
                                           _cell_gradient(grid, u), delta)
    return flux_part + probe_part


@dataclass
class JDiagnostic:
    """Flatness-floor trace plus a flux-balance probe over snapshots."""

    t: np.ndarray             # times of snapshots with admitted cells
    delta: np.ndarray         # flatness floor per such snapshot
    n_cells: np.ndarray
    delta_probe: float
    max_excess: float         # max of J - 10 tol_pos scale over admitted cells
    worst_t: float
    passed: bool


def j_diagnostic(grid: RadialGrid, problem: ProblemParams, snap_t, snap_u,
                 tol_pos: float, R0: float) -> JDiagnostic:
    """Track the flatness floor over a run and probe the flux balance.

    A cell is admitted when u > 10 tol_pos and 2 dr < r < R0: the factor
    of ten keeps tolerance-level fringe out, the inner cut drops the
    cells where the discrete gradient of a radial profile is 0/0 noise.
    The probe coefficient delta_probe is half the floor of the first
    admitted snapshot.  The probe passes when the balance J stays at or
    below 10 tol_pos scale on every admitted cell, scale being the sum of
    the magnitudes of J's two parts.  Raises EmptySupport when no
    snapshot has an admitted cell.
    """
    c = single_point_constants(problem, "J diagnostic")
    u_floor = 10.0 * tol_pos
    r_window = (2.0 * grid.dr, R0)
    r = grid.r_cells
    ts, deltas, counts = [], [], []
    delta_probe = None
    max_excess, worst_t = -np.inf, float("nan")
    for tt, uu in zip(snap_t, snap_u):
        uu = np.asarray(uu, dtype=float)
        gbar = _cell_gradient(grid, uu)
        elig = (uu > u_floor) & (r > r_window[0]) & (r < r_window[1])
        d, n = _floor(problem, r, uu, gbar, elig)
        if n == 0:
            continue
        ts.append(float(tt))
        deltas.append(d)
        counts.append(n)
        if delta_probe is None:
            delta_probe = 0.5 * d
        flux_part, probe_part = _balance_parts(problem, c, r, uu, gbar, delta_probe)
        balance = flux_part + probe_part
        scale = np.abs(balance - probe_part) + probe_part
        excess = balance[elig] - 10.0 * tol_pos * scale[elig]
        k = int(np.argmax(excess))
        if excess[k] > max_excess:
            max_excess, worst_t = float(excess[k]), float(tt)
    if not ts:
        raise EmptySupport("no cells above the positivity filter in any snapshot")
    return JDiagnostic(t=np.asarray(ts), delta=np.asarray(deltas),
                       n_cells=np.asarray(counts), delta_probe=float(delta_probe),
                       max_excess=max_excess, worst_t=worst_t,
                       passed=bool(max_excess <= 0.0))
