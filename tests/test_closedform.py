"""Closed-form profiles: exact derivatives, operator residuals, constructions."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from vhjlab.analysis import flux_balance, j_diagnostic, localization_radius
from vhjlab.exponents import (ProblemParams, RegimeMismatch, classify_regime,
                              derive_constants, single_point_constants)
from vhjlab.gridop import RadialGrid
from vhjlab.closedform import (
    Barrier,
    DecayTooSlow,
    NotApplicable,
    SelfSimSuper,
    ShrinkSuper,
    TailSub,
    certify_sign,
    find_A0,
    make_shrink_super,
    make_tail_sub,
    operator_terms,
    selfsim_certificates,
    tail_sub_min_a,
)

P_A = ProblemParams(1, 2.0, 0.5)
P_B = ProblemParams(2, 1.8, 0.6)


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


# --------------------------------------------------------------------------
# derivative consistency
# --------------------------------------------------------------------------

def _fd_check(profile, pts, h1=1e-5, h2=1e-4, tol=1e-6):
    """Centered differences of value() against the analytic derivs()."""
    for t, r in pts:
        val, dt, dr, drr = (float(z) for z in profile.derivs(t, r))
        ht = h1 * max(1.0, abs(t))
        hr = h1 * max(1.0, abs(r))
        fd_t = (profile.value(t + ht, r) - profile.value(t - ht, r)) / (2 * ht)
        fd_r = (profile.value(t, r + hr) - profile.value(t, r - hr)) / (2 * hr)
        hr2 = h2 * max(1.0, abs(r))
        fd_rr = (profile.value(t, r + hr2) - 2 * val + profile.value(t, r - hr2)) / hr2 ** 2
        scale = abs(val) + abs(dt) + abs(dr) + abs(drr) + 1e-12
        assert abs(fd_t - dt) <= tol * scale, (profile.family, "dt", t, r, fd_t, dt)
        assert abs(fd_r - dr) <= tol * scale, (profile.family, "dr", t, r, fd_r, dr)
        # second difference loses ~h^2 to roundoff; same budget, larger h
        assert abs(fd_rr - drr) <= 10 * tol * scale, (profile.family, "drr", t, r, fd_rr, drr)


def test_barrier_derivatives_fd():
    rng = np.random.default_rng(11)
    prof = Barrier(P_B)
    pts = [(rng.uniform(0, 2), rng.uniform(0.2, 20)) for _ in range(40)]
    _fd_check(prof, pts)


def test_shrink_derivatives_fd():
    rng = np.random.default_rng(12)
    prof = make_shrink_super(P_A, decay_C=1.0, decay_theta=2.0, sup_u0=1.0)
    # stay clearly on the positive side of the kink
    pts = []
    while len(pts) < 40:
        t = rng.uniform(0.01, prof.t0)
        r = rng.uniform(prof.R, 2 * prof.R)
        if prof.A / (1 + r ** prof.alpha) - prof.eta(t) > 0.05 * prof.A:
            pts.append((t, r))
    _fd_check(prof, pts)


def test_tail_derivatives_fd():
    rng = np.random.default_rng(13)
    for prm in (P_A, P_B):
        prof = TailSub(prm, a=3.0, b=0.4, T=1.0)
        pts = [(rng.uniform(0.0, 0.9), rng.uniform(0.1, 30)) for _ in range(40)]
        _fd_check(prof, pts)


def test_selfsim_derivatives_fd():
    rng = np.random.default_rng(14)
    prof = SelfSimSuper(P_B, A=1e-3, T=2.0)
    pts = [(rng.uniform(0.0, 1.9), rng.uniform(0.05, 10)) for _ in range(40)]
    _fd_check(prof, pts)


# --------------------------------------------------------------------------
# barrier: exact solution and the amplitude dichotomy
# --------------------------------------------------------------------------

def test_barrier_is_exact_solution():
    # residual at machine precision across 100 parameter sets and 6 decades of r
    rng = np.random.default_rng(2024)
    r = np.geomspace(1e-3, 1e3, 60)
    n_done = 0
    while n_done < 100:
        N = int(rng.integers(1, 5))
        p = rng.uniform(max(2.0 * N / (N + 1) + 0.05, 1.25), 2.0)
        q = rng.uniform(0.05, p - 1.0 - 0.15)
        prof = Barrier(ProblemParams(N, p, q))
        terms, _ = operator_terms(prof, 0.0, r)
        L = terms[0] + terms[1] + terms[2] + terms[3]
        scale = sum(np.abs(tm) for tm in terms)
        assert np.all(np.abs(L) <= 1e-12 * scale)
        n_done += 1


def test_barrier_amplitude_dichotomy():
    # below the critical amplitude the power cone is a supersolution,
    # above it a subsolution; equality only at the exact coefficient
    r = np.geomspace(1e-2, 1e2, 50)
    for prm in (P_A, P_B):
        c = derive_constants(prm)
        lo = Barrier(prm, amplitude=0.5 * c.kappa)
        hi = Barrier(prm, amplitude=2.0 * c.kappa)
        assert np.all(sum(operator_terms(lo, 0.0, r)[0]) > 0)
        assert np.all(sum(operator_terms(hi, 0.0, r)[0]) < 0)


def test_offcenter_barrier_value_and_tip():
    prof = Barrier(P_A, r0=2.0)
    assert prof.value(0.0, 2.0) == 0.0
    assert rel(float(prof.value(0.0, 4.0)), P_A.p and derive_constants(P_A).kappa * 2.0 ** 3) <= 1e-15
    # a certificate skips the tip, and counts it, rather than sampling it
    rep = certify_sign(prof, (0.0, 1.0, 1.0, 3.0), "super", n_t=1, n_r=3)
    assert (rep.n_skipped, rep.n_samples) == (1, 2)


# --------------------------------------------------------------------------
# shrinking envelope
# --------------------------------------------------------------------------

def test_shrink_construction_frozen_example():
    prof = make_shrink_super(P_A, decay_C=1.0, decay_theta=2.0, sup_u0=1.0)
    assert rel(prof.alpha, 2.0 / 3.0) <= 1e-15
    assert rel(prof.beta, 0.25) <= 1e-12
    assert rel(prof.A, 1.5 * (1 + prof.R ** prof.alpha)) <= 1e-15
    c = derive_constants(P_A)
    assert c.alpha1 < prof.alpha < c.alpha2
    assert all(v > 0 for v in prof.achieved.values() if np.isscalar(v) and not isinstance(v, tuple))


def test_shrink_eta_solves_its_ode():
    prof = make_shrink_super(P_A, decay_C=1.0, decay_theta=2.0, sup_u0=1.0)
    t = np.linspace(1e-4, prof.t0, 200)
    q, g, a = P_A.q, prof.gamma, prof.alpha
    rhs = (a * g) ** q / (2 * g) * prof.A ** (-q / a) * prof.eta(t) ** prof.beta
    assert np.max(np.abs(prof.eta_rate(t) - rhs) / rhs) <= 1e-10


def test_shrink_is_certified_supersolution():
    prof = make_shrink_super(P_A, decay_C=1.0, decay_theta=2.0, sup_u0=1.0)
    rep = certify_sign(prof, (1e-6, prof.t0, prof.R, 64.0), "super",
                       rng=np.random.default_rng(3))
    assert rep.passed, rep
    assert rep.n_samples > 1000
    json.dumps(asdict(rep))  # report must serialize as-is


def test_shrink_lateral_and_collapse():
    prof = make_shrink_super(P_A, decay_C=1.0, decay_theta=2.0, sup_u0=1.0)
    t = np.linspace(0.0, prof.t0, 50)
    # the envelope clears the data's sup on the lateral boundary up to t0
    assert np.all(prof.value(t, prof.R) >= 1.0 - 1e-12)
    # and its positivity set is strictly shrinking
    s = prof.support_radius(t[1:])
    assert np.all(np.diff(s) < 0)
    assert np.all(np.isfinite(s))


def test_shrink_rejects_fat_tails_and_clamps_steep_ones():
    with pytest.raises(DecayTooSlow):
        make_shrink_super(P_A, decay_C=1.0, decay_theta=1.0, sup_u0=1.0)
    # the threshold exponent is q/(1-q) = 1 here; just above is admissible
    prof = make_shrink_super(P_A, decay_C=1.0, decay_theta=1.05, sup_u0=1.0)
    assert rel(prof.alpha, 1.05 / 3.0) <= 1e-15
    # very steep tails reuse the window midpoint
    steep = make_shrink_super(P_A, decay_C=1.0, decay_theta=7.0, sup_u0=1.0)
    assert rel(steep.alpha, 2.0 / 3.0) <= 1e-15


def test_certify_sign_flags_wrong_sense():
    prof = make_shrink_super(P_A, decay_C=1.0, decay_theta=2.0, sup_u0=1.0)
    rep = certify_sign(prof, (1e-6, prof.t0, prof.R, 64.0), "sub",
                       rng=np.random.default_rng(4))
    assert not rep.passed
    assert rep.min_margin < 0
    t_w, r_w = rep.worst_point
    assert 0 <= t_w <= prof.t0 and prof.R <= r_w <= 64.0


def test_certify_sign_catches_broken_envelope():
    # inflate the sink tenfold: eta no longer solves its ODE and the
    # profile decays too fast to stay a supersolution
    prof = make_shrink_super(P_A, decay_C=1.0, decay_theta=2.0, sup_u0=1.0)
    prof.eta_coef *= 10.0
    prof.t0 /= 10.0
    rep = certify_sign(prof, (1e-6, prof.t0, prof.R, 64.0), "super",
                       rng=np.random.default_rng(5))
    assert not rep.passed and rep.min_margin < 0


# --------------------------------------------------------------------------
# tail subsolution
# --------------------------------------------------------------------------

def test_tail_threshold_closed_form_anchor():
    # at p = 2 the threshold inequality is linear in 1/a:
    # a_min = 2(1-q) (gamma theta b)^(p-1) T^((p-1-q)/(1-q)) ((1+gamma)p + N-1)
    # which for (N,p,q) = (1,2,0.5), T = 1, b = 0.5 is exactly 1.5
    assert rel(tail_sub_min_a(P_A, b=0.5, T=1.0), 1.5) <= 1e-10


def test_tail_frozen_value():
    prof = make_tail_sub(P_A, T=1.0, b=0.5)
    assert rel(prof.a, 3.0) <= 1e-10          # 2 * a_min
    v = float(prof.value(0.5, 1.0))
    assert rel(v, 0.25 / np.sqrt(3.5)) <= 1e-12


def test_tail_is_certified_subsolution():
    for prm in (P_A, P_B):
        prof = make_tail_sub(prm, T=1.0)
        rep = certify_sign(prof, (0.0, 0.999, 1e-3, 200.0), "sub",
                           rng=np.random.default_rng(6))
        assert rep.passed, (prm, rep)


def test_tail_parameter_windows():
    c = derive_constants(P_A)
    with pytest.raises(NotApplicable):
        tail_sub_min_a(P_A, b=c.b0_sub, T=1.0)
    with pytest.raises(NotApplicable):
        make_tail_sub(P_A, T=1.0, b=0.5, a=1.0)  # below the 1.5 threshold


def test_tail_vanishes_at_horizon():
    prof = make_tail_sub(P_A, T=1.0, b=0.5)
    assert float(prof.value(1.0, 3.0)) == 0.0
    assert np.all(prof.value(1.0 - 1e-9, np.geomspace(0.01, 100, 20)) > 0)


# --------------------------------------------------------------------------
# self-similar upper bound
# --------------------------------------------------------------------------

def test_selfsim_threshold_frozen():
    A0, certs_half = find_A0(P_B)
    assert rel(A0, 6.734316139664072e-11) <= 1e-6
    assert all(v > 0 for v in certs_half.values())
    at_double = selfsim_certificates(P_B, 2 * A0)
    assert min(at_double.values()) < 0
    # the far-field diffusion condition is the binding one at this corner
    at_A0 = selfsim_certificates(P_B, A0)
    assert min(at_A0, key=lambda k: at_A0[k]) == "far_diffusion"


def test_selfsim_certificates_decrease_in_amplitude():
    A0, _ = find_A0(P_B)
    c4 = selfsim_certificates(P_B, A0 / 4.0)
    c2 = selfsim_certificates(P_B, A0 / 2.0)
    for k in c2:
        assert c4[k] > c2[k]


def test_selfsim_is_certified_supersolution():
    A0, _ = find_A0(P_B)
    prof = SelfSimSuper(P_B, A=A0 / 2.0, T=2.0)
    rep = certify_sign(prof, (1e-6, 2.0 - 1e-6, 1e-4, 50.0), "super",
                       rng=np.random.default_rng(7))
    assert rep.passed, rep
    assert float(prof.value(2.0, 1.0)) == 0.0


def test_selfsim_requires_singular_diffusion():
    with pytest.raises(NotApplicable):
        SelfSimSuper(P_A, A=1e-3, T=1.0)
    with pytest.raises(NotApplicable):
        find_A0(P_A)


# --------------------------------------------------------------------------
# operator guards
# --------------------------------------------------------------------------

def test_operator_guards():
    # certify_sign skips, and counts, a flat point at p < 2, where the
    # diffusivity |z_r|^(p-2) is infinite; at p = 2 the mobility factor is
    # identically one and the same points are sampled
    for prm, skipped in ((P_B, 8), (P_A, 0)):
        prof = make_shrink_super(prm, decay_C=1.0, decay_theta=3.0, sup_u0=1.0)
        t = 0.5 * prof.t0
        r = 2.0 * float(prof.support_radius(t))      # outside the support
        rep = certify_sign(prof, (t, 1.01 * t, r, 2.0 * r), "super", n_t=2, n_r=4)
        assert (rep.n_skipped, rep.n_samples) == (skipped, 8 - skipped)
        assert rep.passed == (skipped == 0)


def test_certify_sense_validation():
    bar = Barrier(P_A)
    with pytest.raises(ValueError):
        certify_sign(bar, (0.0, 1.0, 0.1, 1.0), "upper")


# --------------------------------------------------------------------------
# the single-point gate
# --------------------------------------------------------------------------

SINGLE_POINT_ONLY = [     # (name, build from (problem, grid, state))
    ("barrier", lambda prm, grid, u: Barrier(prm)),
    ("shrinking envelope", lambda prm, grid, u: ShrinkSuper(prm, A=1.0, alpha=1.0)),
    ("shrinking envelope", lambda prm, grid, u: make_shrink_super(
        prm, decay_C=1.0, decay_theta=50.0, sup_u0=1.0)),
    ("tail subsolution", lambda prm, grid, u: TailSub(prm, a=1.0, b=0.1, T=1.0)),
    ("tail subsolution", lambda prm, grid, u: tail_sub_min_a(prm, b=0.1, T=1.0)),
    ("tail subsolution", lambda prm, grid, u: make_tail_sub(prm, T=1.0)),
    ("self-similar bound", lambda prm, grid, u: SelfSimSuper(prm, A=1.0, T=1.0)),
    ("self-similar bound", lambda prm, grid, u: selfsim_certificates(prm, A=1.0)),
    ("localization bound", lambda prm, grid, u: localization_radius(prm, 1.0, 1.0)),
    ("flux balance", lambda prm, grid, u: flux_balance(grid, prm, u, 0.1)),
    ("J diagnostic", lambda prm, grid, u: j_diagnostic(grid, prm, [0.0], [u], 1e-9, R0=1.0)),
]


@pytest.mark.parametrize("prm", [ProblemParams(2, 1.8, 0.85), ProblemParams(1, 2.0, 1.5)],
                         ids=["complete_extinction", "no_extinction"])
@pytest.mark.parametrize("name, build", SINGLE_POINT_ONLY,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(SINGLE_POINT_ONLY)])
def test_single_point_constructions_refuse_other_regimes(prm, name, build):
    # one gate decides, and its message names what asked and the regime found
    regime = classify_regime(prm.N, prm.p, prm.q).value
    grid = RadialGrid(prm.N, 4.0, 32)
    with pytest.raises(RegimeMismatch) as info:
        build(prm, grid, np.exp(-grid.r_cells ** 2))
    assert str(info.value) == (f"{name} needs the single-point regime (q < p-1); "
                               f"N={prm.N}, p={prm.p}, q={prm.q} is {regime}")


def test_single_point_gate_passes_the_derived_constants():
    for prm in (P_A, P_B):
        assert single_point_constants(prm, "barrier") == derive_constants(prm)
