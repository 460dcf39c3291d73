"""Closed-form comparison profiles and their residuals under the radial operator

    L z = z_t - (p-1)|z_r|^(p-2) z_rr - (N-1)/r |z_r|^(p-2) z_r + |z_r|^q.

Four families.  Each states its profile once, in value; derivs gives
its three exact derivatives (z_t, z_r, z_rr), so the operator can be
evaluated analytically:

Barrier        kappa*|r - r0|^omega, an exact solution (L = 0) for r0 = 0;
               pins the flatness threshold below which compact supports wait.
ShrinkSuper    [A/(1+r^alpha) - eta(t)]_+^gamma, a supersolution outside a
               ball: its collapsing positivity set forces instantaneous
               shrinking of fast-decaying tails.
TailSub        (T-t)^(1/(1-q)) (a + b r^theta)^(-gamma), a subsolution for
               small b and large a: fat tails cannot go extinct before T.
SelfSimSuper   (T-t)^alpha A (1 + r^2 (T-t)^(2 beta))^(-gamma), a global
               supersolution for small A (p < 2 only): borderline tails
               still die in finite time.

Sign certification samples L over a (t, r) box in the profile's time
domain and reports the worst relative margin; each threshold ("a large
enough", "A small enough") is the closed-form root of its power laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .exponents import ProblemParams, single_point_constants


class DecayTooSlow(ValueError):
    """Initial tail is too fat for the shrinking-envelope construction."""


class NotApplicable(ValueError):
    """Construction does not exist for these parameters."""


def _positive(**values):
    """Refuse a parameter that is not positive, naming it and its value."""
    for name, value in values.items():
        if not value > 0.0:
            raise ValueError(f"need {name} > 0, got {name} = {value}")


# --------------------------------------------------------------------------
# profile families
# --------------------------------------------------------------------------

class Barrier:
    """Stationary power barrier kappa*|r - r0|^omega.

    For r0 = 0 this solves L z = 0 exactly in any dimension: the absorption
    term balances the diffusion term identically in r.  For r0 != 0 the
    profile is the radial section of the off-center barrier and is used for
    pointwise domination only (the N-dimensional operator identity holds
    about the off-center point, not about the origin).
    """

    family = "barrier"

    def __init__(self, problem: ProblemParams, r0: float = 0.0,
                 amplitude: Optional[float] = None):
        c = single_point_constants(problem, "barrier")
        self.problem = problem
        self.r0 = float(r0)
        self.kappa = float(amplitude) if amplitude is not None else c.kappa
        self.omega = c.omega

    def value(self, t, r):
        s = np.abs(np.asarray(r, dtype=float) - self.r0)
        return self.kappa * s ** self.omega

    def derivs(self, t, r):
        d = np.asarray(r, dtype=float) - self.r0
        s = np.abs(d)
        dr = self.kappa * self.omega * s ** (self.omega - 1.0) * np.sign(d)
        drr = self.kappa * self.omega * (self.omega - 1.0) * s ** (self.omega - 2.0)
        return np.zeros_like(dr), dr, drr

    def exclude_mask(self, t, r):
        # the tip r = r0 is the only non-smooth point
        return np.abs(np.asarray(r, dtype=float) - self.r0) < 1e-12 * (1.0 + abs(self.r0))

    def params_dict(self):
        return {"r0": self.r0, "kappa": self.kappa, "omega": self.omega}


class ShrinkSuper:
    """Collapsing envelope [A/(1 + r^alpha) - eta(t)]_+^gamma.

    eta solves eta' = (alpha*gamma)^q/(2*gamma) * A^(-q/alpha) * eta^beta,
    eta(0) = 0, i.e. eta(t) = eta_coef * t^(1/(1-beta)) with
    beta = (alpha*(1 + q*gamma - gamma) + q)/alpha in (0, 1).
    Supersolution on r > R for t < t0; make_shrink_super builds it and
    sets t0, which is infinite on a bare construction.
    """

    family = "shrink_super"

    def __init__(self, problem: ProblemParams, A: float, alpha: float, R: float = 1.0):
        c = single_point_constants(problem, "shrinking envelope")
        q = problem.q
        self.problem = problem
        self.A = float(A)
        self.alpha = float(alpha)
        self.gamma = c.gamma_sigma
        self.R = float(R)
        self.t0 = np.inf
        g, a = self.gamma, self.alpha
        self.beta = (a * (1.0 + q * g - g) + q) / a
        if not 0.0 < self.beta < 1.0:
            raise NotApplicable(f"alpha = {a} gives eta-exponent beta = {self.beta} outside (0, 1)")
        # eta(t) = eta_coef * t^(1/(1-beta)) integrates the eta ODE from 0
        rate = (a * g) ** q / (2.0 * g) * self.A ** (-q / a)
        self.eta_coef = (rate * (1.0 - self.beta)) ** (1.0 / (1.0 - self.beta))

    def eta(self, t):
        return self.eta_coef * np.asarray(t, dtype=float) ** (1.0 / (1.0 - self.beta))

    def eta_rate(self, t):
        b = self.beta
        return self.eta_coef / (1.0 - b) * np.asarray(t, dtype=float) ** (b / (1.0 - b))

    def _core(self, t, r):
        r = np.asarray(r, dtype=float)
        ra = r ** self.alpha
        s = self.A / (1.0 + ra)
        y = s - self.eta(t)
        return r, ra, s, y

    def value(self, t, r):
        _, _, _, y = self._core(t, r)
        return np.maximum(y, 0.0) ** self.gamma

    def derivs(self, t, r):
        r, ra, s, y = self._core(t, r)
        g, a, A = self.gamma, self.alpha, self.A
        yp = np.maximum(y, 0.0)
        ds = -A * a * r ** (a - 1.0) / (1.0 + ra) ** 2
        dss = -A * a * r ** (a - 2.0) * ((a - 1.0) - (a + 1.0) * ra) / (1.0 + ra) ** 3
        live = yp > 0.0
        yg1 = np.where(live, yp, 1.0) ** (g - 1.0) * live
        yg2 = np.where(live, yp, 1.0) ** (g - 2.0) * live
        dt = -g * yg1 * self.eta_rate(t)
        dr = g * yg1 * ds
        drr = g * (g - 1.0) * yg2 * ds ** 2 + g * yg1 * dss
        return dt, dr, drr

    def exclude_mask(self, t, r):
        # samples within 1e-6 A of the positive-part kink y = 0
        _, _, _, y = self._core(t, r)
        return np.abs(y) < 1e-6 * self.A

    def support_radius(self, t):
        """Outer edge of the positivity set at time t."""
        e = self.eta(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore"):
            return np.where(e > 0.0, (np.maximum(self.A / np.maximum(e, 1e-300) - 1.0, 0.0)) ** (1.0 / self.alpha), np.inf)

    def params_dict(self):
        return {"A": self.A, "alpha": self.alpha, "gamma": self.gamma, "R": self.R,
                "t0": self.t0, "beta_eta": self.beta, "eta_coef": self.eta_coef}


class TailSub:
    """Separable lower bound (T-t)^(1/(1-q)) * (a + b r^theta)^(-gamma).

    Subsolution of L on (0, T) x (0, inf) when b < b0_sub and a exceeds the
    threshold tail_sub_min_a; keeps fat-tailed data positive up
    to the horizon T.
    """

    family = "tail_sub"

    def __init__(self, problem: ProblemParams, a: float, b: float, T: float):
        c = single_point_constants(problem, "tail subsolution")
        self.problem = problem
        self.a = float(a)
        self.b = float(b)
        self.T = float(T)
        self.theta = c.theta_sub
        self.gamma = c.gamma_sub
        # the time factor's power 1/(1-q) and its derivative's, q/(1-q)
        self.rate, self.rate_dt = c.rate_lower, c.decay_threshold

    def value(self, t, r):
        r = np.asarray(r, dtype=float)
        tt = np.maximum(self.T - np.asarray(t, dtype=float), 0.0)
        return tt ** self.rate * (self.a + self.b * r ** self.theta) ** (-self.gamma)

    def derivs(self, t, r):
        g, th, b = self.gamma, self.theta, self.b
        r = np.asarray(r, dtype=float)
        tt = self.T - np.asarray(t, dtype=float)
        w = self.a + b * r ** th
        pw = tt ** self.rate
        dt = -self.rate * tt ** self.rate_dt * w ** (-g)
        dr = -g * th * b * pw * r ** (th - 1.0) * w ** (-g - 1.0)
        drr = -g * th * b * pw * r ** (th - 2.0) * w ** (-g - 2.0) * ((th - 1.0) * w - (g + 1.0) * th * b * r ** th)
        return dt, dr, drr

    def exclude_mask(self, t, r):
        return np.zeros(np.broadcast(np.asarray(t), np.asarray(r)).shape, dtype=bool)

    def params_dict(self):
        return {"a": self.a, "b": self.b, "T": self.T, "theta": self.theta, "gamma": self.gamma}


class SelfSimSuper:
    """Self-similar upper bound (T-t)^alpha * A * (1 + y^2)^(-gamma), y = r (T-t)^beta.

    Supersolution on (0, T) x (0, inf) for amplitudes below the threshold
    found by find_A0; exists only for p < 2 in the single-point regime.
    """

    family = "selfsim_super"

    def __init__(self, problem: ProblemParams, A: float, T: float):
        c = single_point_constants(problem, "self-similar bound")
        if problem.p >= 2.0:
            raise NotApplicable("self-similar upper bound is a p < 2 construction")
        _positive(A=A, T=T)
        self.problem = problem
        self.A = float(A)
        self.T = float(T)
        self.alpha = c.alpha_ss
        self.beta = c.beta_ss
        self.gamma = c.gamma_super

    def _profile(self, y):
        A, g = self.A, self.gamma
        base = 1.0 + y * y
        f = A * base ** (-g)
        df = -2.0 * A * g * y * base ** (-g - 1.0)
        ddf = -2.0 * A * g * base ** (-g - 2.0) * (base - 2.0 * (g + 1.0) * y * y)
        return f, df, ddf

    def value(self, t, r):
        tt = self.T - np.asarray(t, dtype=float)
        r = np.asarray(r, dtype=float)
        live = tt > 0.0
        ttl = np.where(live, tt, 1.0)
        y = r * ttl ** self.beta
        out = ttl ** self.alpha * self.A * (1.0 + y * y) ** (-self.gamma)
        return np.where(live, out, 0.0)

    def derivs(self, t, r):
        a, b = self.alpha, self.beta
        tt = self.T - np.asarray(t, dtype=float)
        y = np.asarray(r, dtype=float) * tt ** b
        f, df, ddf = self._profile(y)
        dt = -tt ** (a - 1.0) * (a * f + b * y * df)
        dr = tt ** (a + b) * df
        drr = tt ** (a + 2.0 * b) * ddf
        return dt, dr, drr

    def exclude_mask(self, t, r):
        return np.zeros(np.broadcast(np.asarray(t), np.asarray(r)).shape, dtype=bool)

    def params_dict(self):
        return {"A": self.A, "T": self.T, "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}


# --------------------------------------------------------------------------
# operator evaluation
# --------------------------------------------------------------------------

def operator_terms(profile, t, r):
    """The four terms of L, vectorized: (dt, -diffusion, -drift, +absorption).

    Returns (terms, dr) where terms sum to L z.  No singularity checks;
    certify_sign skips positive-part kinks and, at p < 2, flat points.
    """
    prm = profile.problem
    p, q, N = prm.p, prm.q, prm.N
    dt, dr, drr = profile.derivs(t, r)
    g = np.abs(dr)
    with np.errstate(divide="ignore", invalid="ignore"):
        mob = np.ones_like(g) if p == 2.0 else g ** (p - 2.0)
        diff = -(p - 1.0) * mob * drr
        if N == 1:
            drift = np.zeros_like(diff)
        else:
            drift = -(N - 1.0) / np.asarray(r, dtype=float) * mob * dr
        absorb = g ** q
    return (dt, diff, drift, absorb), dr


# relative margin a certificate forgives: L may miss its sign by this
# fraction of the local operator scale (floating-point cancellation)
CERT_TOL = 1e-10


@dataclass
class CertReport:
    """Outcome of sampling sign(L z) over a box."""

    family: str
    params: dict
    box: tuple            # (t_lo, t_hi, r_lo, r_hi)
    sense: str            # "super" wants L >= 0, "sub" wants L <= 0
    tol: float
    n_samples: int
    n_skipped: int
    min_margin: float     # min over samples of sense-adjusted L / local scale
    worst_point: tuple
    passed: bool


def certify_sign(profile, box: tuple, sense: Literal["super", "sub"],
                 n_t: int = 24, n_r: int = 96, rng=None):
    """Sample L z over box = (t_lo, t_hi, r_lo, r_hi) and certify its sign.

    Margins are measured relative to the local operator scale (the sum of
    the magnitudes of the four terms), so a certificate means "L has the
    right sign up to CERT_TOL of the sizes actually involved".
    Kink-adjacent samples are excluded and counted.  The radial lattice is
    logarithmic when the box spans more than a factor 50 in r, linear
    otherwise.  rng adds jitter inside the sample lattice; without it the
    lattice is deterministic.
    """
    t_lo, t_hi, r_lo, r_hi = box
    t_end = getattr(profile, "T", math.inf)     # TailSub and SelfSimSuper end at T
    if not (0.0 <= t_lo < t_hi <= t_end and 0.0 < r_lo < r_hi):
        raise ValueError(f"box must satisfy 0 <= t_lo < t_hi <= {t_end} and 0 < r_lo < r_hi, "
                         f"got {list(box)}")
    if sense not in ("super", "sub"):
        raise ValueError(f"sense must be 'super' or 'sub', got {sense!r}")
    for name, n in (("n_t", n_t), ("n_r", n_r)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    sgn = 1.0 if sense == "super" else -1.0
    log_r = r_hi / r_lo > 50.0
    tg = t_lo + (t_hi - t_lo) * (np.arange(n_t) + 0.5) / n_t
    if log_r:
        rg = np.exp(np.linspace(np.log(r_lo), np.log(r_hi), n_r))
    else:
        rg = np.linspace(r_lo, r_hi, n_r)
    T, R = np.meshgrid(tg, rg, indexing="ij")
    if rng is not None:
        T = T + (t_hi - t_lo) / n_t * (rng.random(T.shape) - 0.5) * 0.98
        T = np.clip(T, t_lo + 1e-12 * (t_hi - t_lo), t_hi - 1e-12 * (t_hi - t_lo))
        if log_r:
            R = R * np.exp((np.log(r_hi / r_lo) / n_r) * (rng.random(R.shape) - 0.5))
        else:
            R = R + (r_hi - r_lo) / n_r * (rng.random(R.shape) - 0.5) * 0.98
        R = np.clip(R, r_lo, r_hi)

    skip = profile.exclude_mask(T, R)
    terms, dr = operator_terms(profile, T, R)
    if profile.problem.p < 2.0:
        skip = skip | (np.asarray(dr) == 0.0)
    L = terms[0] + terms[1] + terms[2] + terms[3]
    scale = sum(np.abs(tm) for tm in terms)
    scale = np.maximum(scale, 1e-300)
    margin = np.where(skip, np.inf, sgn * L / scale)

    k = int(np.argmin(margin))
    worst = (float(T.ravel()[k]), float(R.ravel()[k]))
    mn = float(margin.ravel()[k])
    n_skip = int(skip.sum())
    n_live = margin.size - n_skip
    return CertReport(
        family=profile.family, params=profile.params_dict(), box=tuple(map(float, box)),
        sense=sense, tol=CERT_TOL, n_samples=n_live, n_skipped=n_skip,
        min_margin=mn, worst_point=worst, passed=bool(n_live > 0 and mn >= -CERT_TOL),
    )


# --------------------------------------------------------------------------
# constructions
# --------------------------------------------------------------------------

def _least_root(name: str, table) -> float:
    """Least root of coef x^k = const (coef >= 0, k < 0: coef x^k >= const
    below it) over table's entries with const > 0; NotApplicable unless it
    is a positive finite float."""
    roots = []
    for coef, k, const in table:
        if const > 0.0:
            ratio = const / coef if coef > 0.0 else math.inf
            try:
                roots.append(ratio ** (1.0 / k))
            except (OverflowError, ZeroDivisionError):  # a root past the floats
                roots.append(math.inf)
    x = min(roots)
    if not 0.0 < x < math.inf:
        raise NotApplicable(f"{name} = {x} lies outside the float range")
    return x


def make_shrink_super(problem: ProblemParams, decay_C: float, decay_theta: float,
                      sup_u0: float) -> ShrinkSuper:
    """Build a certified collapsing envelope above data with tail C(1+r)^(-theta).

    Needs theta > q/(1-q) (else DecayTooSlow).  Tail exponents at or above
    gamma*alpha2 are clamped to the admissible window's midpoint; the
    envelope then dominates the even faster-decaying data a fortiori.
    Returns a ShrinkSuper whose R, A satisfy the construction inequalities
    with margins recorded in .achieved.
    """
    c = single_point_constants(problem, "shrinking envelope")
    _positive(decay_C=decay_C, sup_u0=sup_u0)
    p, q = problem.p, problem.q
    g = c.gamma_sigma
    thr = c.decay_threshold
    if decay_theta <= thr:
        raise DecayTooSlow(f"tail exponent {decay_theta} <= q/(1-q) = {thr}")
    hi = g * c.alpha2
    theta_eff = decay_theta if decay_theta < hi else 0.5 * (thr + hi)
    alpha = theta_eff / g
    s = sup_u0 ** (1.0 / g)

    # R: power-compatibility with the data tail, then the steepness bound
    first = decay_C ** (1.0 / g) / (2.0 ** (alpha - 1.0) * s) - 1.0
    R = max(1.0, first ** (1.0 / alpha) * 1.01 if first > 0 else 1.0)
    steep = 2.0 * (2.0 * (p - 1.0) * (1.0 + alpha * g) * (alpha * g) ** (p - 1.0 - q)) ** (1.0 / (p - q))
    while R ** (alpha + 1.0) <= steep * (1.0 + R ** alpha) * s:
        R *= 1.25
    A = 1.5 * (1.0 + R ** alpha) * s

    prof = ShrinkSuper(problem, A=A, alpha=alpha, R=R)
    # t0: latest time the envelope still clears sup u0 on the lateral boundary,
    # shaved by 1% so the certificate box stays strictly inside
    eta_at_t0 = A / (1.0 + R ** alpha) - s
    t0 = 0.99 * (eta_at_t0 / prof.eta_coef) ** (1.0 - prof.beta)
    prof.t0 = float(t0)
    prof.achieved = {
        "alpha": alpha,
        "alpha_window": (c.alpha1, c.alpha2),
        "steepness_margin": R ** ((alpha + 1.0) * (p - q))
        - 2.0 * (1.0 + alpha * g) * (p - 1.0) * (alpha * g) ** (p - 1.0 - q) * A ** (p - q),
        "amplitude_margin": A - decay_C ** (1.0 / g) / 2.0 ** (alpha - 1.0),
        "lateral_margin": eta_at_t0,
    }
    if not (c.alpha1 < alpha < c.alpha2):
        raise NotApplicable(f"constructed alpha = {alpha} left window ({c.alpha1}, {c.alpha2})")
    return prof


def tail_sub_min_a(problem: ProblemParams, b: float, T: float) -> float:
    """Threshold offset above which TailSub(a, b, T) is a certified subsolution:
    the root a = (1 / (2 (1-q) K))^(1/e) of the defining inequality
      K a^e  <  1 / (2 (1-q)),   e = (2-p) gamma - p + 1 < 0,
      K = (gamma*theta*b)^(p-1) T^((p-1-q)/(1-q)) ((1+gamma) p + N - 1).
    """
    c = single_point_constants(problem, "tail subsolution")
    p, q, N = problem.p, problem.q, problem.N
    g, th = c.gamma_sub, c.theta_sub
    if not 0.0 < b < c.b0_sub:
        raise NotApplicable(f"need 0 < b < b0 = {c.b0_sub}, got b = {b}")
    _positive(T=T)
    e = (2.0 - p) * g - p + 1.0  # < 0 in the admissible range
    K = (g * th * b) ** (p - 1.0) * T ** ((p - 1.0 - q) / (1.0 - q)) * ((1.0 + g) * p + N - 1.0)
    return _least_root("tail threshold a_min", [(K, e, 1.0 / (2.0 * (1.0 - q)))])


def make_tail_sub(problem: ProblemParams, T: float, b: Optional[float] = None,
                  a: Optional[float] = None) -> TailSub:
    """TailSub with certified defaults: b = b0/2 and a = twice the threshold."""
    if b is None:
        b = 0.5 * single_point_constants(problem, "tail subsolution").b0_sub
    a_min = tail_sub_min_a(problem, b, T)
    if a is None:
        a = 2.0 * a_min
    elif a <= a_min:
        raise NotApplicable(f"a = {a} below subsolution threshold {a_min}")
    prof = TailSub(problem, a=a, b=b, T=T)
    prof.a_min = a_min
    return prof


def make_selfsim_super(problem: ProblemParams, T: float,
                       A: Optional[float] = None) -> SelfSimSuper:
    """SelfSimSuper with the certified default amplitude A = A0/2 (see find_A0)."""
    if A is None:
        A = 0.5 * find_A0(problem)
    return SelfSimSuper(problem, A=A, T=T)


def _selfsim_table(problem: ProblemParams) -> dict:
    """SelfSimSuper's four certificates coef A^k - const, k < 0, as (coef, k,
    const).  Splitting radius y0 separates the near field (diffusion
    controlled by the time term) from the far field (by half the absorption)."""
    c = single_point_constants(problem, "self-similar bound")
    p, q = problem.p, problem.q
    if p >= 2.0:
        raise NotApplicable("self-similar upper bound is a p < 2 construction")
    a, b, g = c.alpha_ss, c.beta_ss, c.gamma_super
    y0 = (4.0 * (g + 1.0)) ** -0.5
    tg = 2.0 * g
    return {
        "absorption_vs_time": (tg ** q / 2.0, q - 1.0, a - 2.0 * b * g),
        "near_diffusion": ((p - 1.0) * tg ** (p - 1.0) * y0 ** (p - 2.0) / 2.0, p - 2.0, a),
        "far_absorption": (tg ** q * y0 ** 2 / 4.0, q - 1.0, a),
        "far_diffusion": (tg ** (q - p + 1.0) * y0 ** ((p - 2.0 * q) / (1.0 - q)) / 4.0, q - p + 1.0,
                          2.0 * (p - 1.0) * (g + 1.0) * ((1.0 + y0 ** 2) / y0 ** 2) ** ((2.0 - p) * (g + 1.0))),
    }


def selfsim_certificates(problem: ProblemParams, A: float) -> dict:
    """The four certificates, decreasing in A, whose joint nonnegativity
    makes SelfSimSuper(A, T) a supersolution for every horizon T."""
    return {name: coef * A ** k - const
            for name, (coef, k, const) in _selfsim_table(problem).items()}


def find_A0(problem: ProblemParams) -> float:
    """Largest amplitude whose certificates all hold, the least root
    (const/coef)^(1/k) of those with const > 0 (an entry with const <= 0
    holds at every A); NotApplicable at p = 2 or outside the float range."""
    return _least_root("self-similar threshold A0", _selfsim_table(problem).values())
