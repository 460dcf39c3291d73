"""Exponent algebra for the viscous Hamilton-Jacobi equation

    u_t - div(|Du|^(p-2) Du) + |Du|^q = 0   on R^N,

with singular diffusion p in (p_c, 2], p_c = 2N/(N+1), and sublinear
gradient absorption q in (0, 1).  Everything observable about extinction
(rates, support shrinkage, admissible initial tails) is controlled by a
small family of algebraic exponents in (N, p, q); this module derives
them and classifies the parameter regime.

Regimes
-------
single_point        0 < q < p-1          extinction at a single point
complete_extinction p-1 <= q < p/2, p<2  positivity up to the extinction time
no_extinction       q >= p/2             solutions stay positive forever
out_of_scope        p <= p_c or invalid

The flatness constant kappa and barrier exponent omega make
kappa*|x - x0|^omega an exact stationary solution; they exist only in the
single_point regime (they need q < p - 1), as does everything built on
them.  single_point_constants, the one place that decides that regime,
hands their constants out and refuses other triples by RegimeMismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class NonIntegerDimension(ValueError):
    """Spatial dimension must be a positive integer."""


class ExponentOutOfRange(ValueError):
    """(p, q) outside the admissible window, message says which bound."""


class RegimeMismatch(ValueError):
    """A constant was requested outside its regime of validity."""


class Regime(Enum):
    SINGLE_POINT = "single_point"
    COMPLETE_EXTINCTION = "complete_extinction"
    NO_EXTINCTION = "no_extinction"
    OUT_OF_SCOPE = "out_of_scope"


@dataclass(frozen=True)
class ProblemParams:
    """Validated problem triple (N, p, q)."""

    N: int
    p: float
    q: float

    @property
    def p_crit(self) -> float:
        return 2.0 * self.N / (self.N + 1.0)


def validate_params(N, p, q) -> ProblemParams:
    """Check a raw (N, p, q) triple and return an immutable record.

    Enforces N integer >= 1, 1 < p <= 2 with p above the critical value
    p_c = 2N/(N+1), and a finite q > 0.  Raises NonIntegerDimension or
    ExponentOutOfRange with the offending bound in the message.
    """
    if isinstance(N, bool) or not float(N).is_integer():
        raise NonIntegerDimension(f"N must be a positive integer, got {N!r}")
    N = int(N)
    if N < 1:
        raise NonIntegerDimension(f"N must be >= 1, got {N}")
    params = ProblemParams(N=N, p=float(p), q=float(q))
    p, q, p_c = params.p, params.q, params.p_crit
    if not 1.0 < p <= 2.0:
        raise ExponentOutOfRange(f"need 1 < p <= 2, got p = {p}")
    if p <= p_c:
        raise ExponentOutOfRange(f"p <= p_c = {p_c} (fast-diffusion range requires p > 2N/(N+1))")
    if not 0.0 < q < math.inf:
        raise ExponentOutOfRange(f"need a finite q > 0, got q = {q}")
    return params


def classify_regime(N, p, q) -> Regime:
    """Tag a raw triple.  Accepts anything; a triple validate_params
    rejects is out_of_scope.

    The three in-scope tags partition {p in (p_c, 2], q > 0}: note that
    [p-1, p/2) is empty at p = 2, so for the plain Laplacian the
    complete-extinction window disappears.
    """
    try:
        params = validate_params(N, p, q)
    except (TypeError, ValueError):
        return Regime.OUT_OF_SCOPE
    p, q = params.p, params.q
    if q < p - 1.0:
        return Regime.SINGLE_POINT
    if q < p / 2.0:
        # needs p < 2 to be non-empty, guaranteed since q >= p-1
        return Regime.COMPLETE_EXTINCTION
    return Regime.NO_EXTINCTION


@dataclass(frozen=True)
class DerivedConstants:
    """All derived exponents for a parameter triple.

    Fields that are undefined in the triple's regime are None: in the
    complete-extinction range only p_crit, decay_threshold and the
    self-similar pair (alpha_ss, beta_ss) survive, since every other
    formula has a p-1-q denominator or a proof that needs q < p-1.
    rate_upper_p2 is the improved amplitude upper bound available only
    at p = 2.
    """

    p_crit: float
    decay_threshold: Optional[float] = None  # q/(1-q), tail exponent separating fast/fat
    alpha_ss: Optional[float] = None         # (p-q)/(p-2q)
    beta_ss: Optional[float] = None          # (q-p+1)/(p-2q)
    kappa: Optional[float] = None            # flatness constant of the exact barrier
    omega: Optional[float] = None            # (p-q)/(p-1-q), barrier power
    sigma: Optional[float] = None            # support lower-inclusion exponent
    nu: Optional[float] = None               # support upper-inclusion exponent
    gamma_sigma: Optional[float] = None      # shrinking-envelope power (== omega)
    alpha1: Optional[float] = None           # envelope tail window, lower edge
    alpha2: Optional[float] = None           # envelope tail window, upper edge
    theta_sub: Optional[float] = None        # p/(p-1), tail-subsolution shape power
    gamma_sub: Optional[float] = None        # q(p-1)/(p(1-q))
    b0_sub: Optional[float] = None           # largest admissible tail coefficient
    gamma_super: Optional[float] = None      # q/(2(1-q)), self-similar profile power
    rate_lower: Optional[float] = None       # 1/(1-q)
    rate_upper_p2: Optional[float] = None    # (2-q)/(2-2q), p = 2 only
    lambda_j: Optional[float] = None         # N + q/(p-1-q), gradient-diagnostic weight
    beta_j: Optional[float] = None           # (p-1)/(p-q)


def decay_threshold(q: float) -> float:
    """q/(1-q): the tail exponent that separates instantaneous shrinking
    (faster algebraic decay) from fat tails (slower), for any q < 1."""
    return q / (1.0 - q)


def derive_constants(params: ProblemParams) -> DerivedConstants:
    """Evaluate every derived exponent defined for the params' regime.

    Raises RegimeMismatch outside the two extinction regimes; in the
    complete-extinction range returns the partial record (see
    DerivedConstants).
    """
    N, p, q = params.N, params.p, params.q
    regime = classify_regime(N, p, q)

    if regime not in (Regime.SINGLE_POINT, Regime.COMPLETE_EXTINCTION):
        raise RegimeMismatch(f"no derived constants for regime {regime.value} (N={N}, p={p}, q={q})")

    shared = dict(
        p_crit=params.p_crit,
        decay_threshold=decay_threshold(q),
        alpha_ss=(p - q) / (p - 2.0 * q),
        beta_ss=(q - p + 1.0) / (p - 2.0 * q),
    )
    if regime is Regime.COMPLETE_EXTINCTION:
        return DerivedConstants(**shared)

    # single-point regime: q < p - 1, all denominators below are positive
    omega = (p - q) / (p - 1.0 - q)
    d = omega * (1.0 - q) - 1.0
    theta_sub = p / (p - 1.0)
    gamma_sub = q * (p - 1.0) / (p * (1.0 - q))
    return DerivedConstants(
        **shared,
        kappa=(p - 1.0 - q) / (p - q) * ((p - 1.0) / (p - 1.0 - q) + N - 1.0) ** (-1.0 / (p - 1.0 - q)),
        omega=omega,
        sigma=(p - q - 1.0) / ((p - q) * (1.0 - q)),
        nu=p * (p - q - 1.0) ** 2 / (2.0 * (p - q) * (p - 2.0 * q)),
        gamma_sigma=omega,
        alpha1=q / (omega * (1.0 - q)),
        alpha2=min(q / d, 1.0) if d > 0.0 else 1.0,
        theta_sub=theta_sub,
        gamma_sub=gamma_sub,
        b0_sub=(2.0 * (1.0 - q) * (gamma_sub * theta_sub) ** q) ** (-theta_sub / q),
        gamma_super=q / (2.0 * (1.0 - q)),
        rate_lower=1.0 / (1.0 - q),
        rate_upper_p2=(2.0 - q) / (2.0 - 2.0 * q) if p == 2.0 else None,
        lambda_j=N + q / (p - 1.0 - q),
        beta_j=(p - 1.0) / (p - q),
    )


def single_point_constants(problem: ProblemParams, what: str) -> DerivedConstants:
    """derive_constants(problem) in the single-point regime q < p-1.

    Anywhere else raises RegimeMismatch naming what needs the regime and
    the regime the triple is in.
    """
    N, p, q = problem.N, problem.p, problem.q
    regime = classify_regime(N, p, q)
    if regime is not Regime.SINGLE_POINT:
        raise RegimeMismatch(f"{what} needs the single-point regime (q < p-1); "
                             f"N={N}, p={p}, q={q} is {regime.value}")
    return derive_constants(problem)
