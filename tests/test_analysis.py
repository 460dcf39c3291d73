"""Measurement helpers: fits, support, domination, flatness diagnostics."""

import numpy as np
import pytest

from vhjlab.exponents import ProblemParams, RegimeMismatch, derive_constants
from vhjlab.gridop import RadialGrid
from vhjlab.closedform import Barrier
from vhjlab.solver import Bump
from vhjlab.analysis import (
    EmptySupport,
    InsufficientPoints,
    check_domination,
    fit_exponent,
    flatness_floor,
    flux_balance,
    gradient_quotient,
    j_diagnostic,
    localization_radius,
    support_radius,
)

P_A = ProblemParams(1, 2.0, 0.5)
P_C = ProblemParams(2, 1.8, 0.85)


def test_fit_recovers_power_laws():
    rng = np.random.default_rng(31)
    for _ in range(100):
        T_e = rng.uniform(0.05, 3.0)
        a = rng.uniform(0.2, 3.0)
        amp = 10.0 ** rng.uniform(-3, 2)
        t = np.linspace(0.0, 0.999 * T_e, 600)
        y = amp * (T_e - t) ** a
        fit = fit_exponent(t, y, T_e)
        assert abs(fit.exponent - a) <= 1e-4
        assert fit.n_points >= 8
        assert fit.max_log_residual <= 1e-8


def test_fit_tolerates_mild_noise():
    rng = np.random.default_rng(32)
    t = np.linspace(0.0, 0.998, 400)
    y = (1.0 - t) ** 2.0 * np.exp(rng.normal(0.0, 0.01, t.size))
    fit = fit_exponent(t, y, 1.0)
    assert abs(fit.exponent - 2.0) <= 0.05


def test_fit_raises_when_window_is_starved():
    t = np.linspace(0.0, 0.5, 200)
    y = (1.0 - t) ** 2
    dropped = r"without the final 5 and the nonpositive ones; need 8"
    with pytest.raises(InsufficientPoints, match=r"^0 usable samples in \[0\.6, 1\.0\) "
                       + dropped):
        fit_exponent(t, y, 1.0)          # all samples far from T_e
    t2 = np.linspace(0.9, 0.999, 10)
    with pytest.raises(InsufficientPoints, match=r"^0 usable samples .* " + dropped):
        fit_exponent(t2, np.zeros_like(t2), 1.0)   # no logarithm to fit


def test_support_radius_basics():
    grid = RadialGrid(1, 4.0, 512)
    u = Bump(P_A, m=1 / 96, R0=1.0).sample(grid.r_cells)
    r_tiny = support_radius(grid, u, 1e-15)
    assert abs(r_tiny - 1.0) <= 2 * grid.dr
    tols = np.geomspace(1e-14, 1e-3, 12)
    radii = [support_radius(grid, u, tol) for tol in tols]
    assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:]))
    assert support_radius(grid, u, 1.0) == 0.0


def test_support_radius_of_a_stack_is_its_per_state_radii():
    grid = RadialGrid(1, 4.0, 64)
    rng = np.random.default_rng(7)
    stack = rng.random((3, 5, grid.M)) * (rng.random((3, 5, grid.M)) < 0.3)
    stack[0, 0] = 0.0                    # no cell above tol
    stack[0, 1] = 1e-3                   # every cell at tol, none above
    stack[1, 2, -1] = 1.0                # the outermost cell
    stack[2, 3, :] = 0.0
    stack[2, 3, 0] = 1.0                 # only the innermost cell
    radii = support_radius(grid, stack, 1e-3)
    assert radii.shape == (3, 5)
    per_state = [[support_radius(grid, u, 1e-3) for u in rows] for rows in stack]
    assert radii.tolist() == per_state
    # the rule itself: the last index above tol, 0.0 when there is none
    last = [[np.nonzero(u > 1e-3)[0][-1:] for u in rows] for rows in stack]
    assert per_state == [[float(grid.r_cells[i[0]]) if i.size else 0.0 for i in rows]
                         for rows in last]
    assert radii[0, 0] == radii[0, 1] == 0.0
    assert radii[1, 2] == grid.r_cells[-1] and radii[2, 3] == grid.r_cells[0]
    assert isinstance(support_radius(grid, stack[1, 1], 1e-3), float)


def test_localization_radius_frozen_example():
    # (sup/kappa)^(1/omega) = ((1/96)/(1/12))^(1/3) = 1/2 on top of R0 = 1
    assert abs(localization_radius(P_A, 1 / 96, 1.0) - 1.5) <= 1e-14
    with pytest.raises(RegimeMismatch):
        localization_radius(P_C, 1.0, 1.0)


def test_check_domination_senses():
    grid = RadialGrid(1, 4.0, 256)
    prof = Barrier(P_A)
    vals = prof.value(0.0, grid.r_cells)
    state = 0.9 * vals
    times = [0.0, 0.1]
    states = [state, state]
    up = check_domination(grid, times, states, prof, "upper", tol=1e-12,
                          r_window=(0.5, 3.0))
    assert up.passed and up.max_violation < 0
    low = check_domination(grid, times, states, prof, "lower", tol=1e-12,
                           r_window=(0.5, 3.0))
    assert not low.passed
    assert low.max_violation > 0.05 * np.max(vals[grid.r_cells <= 3.0])
    with pytest.raises(ValueError):
        check_domination(grid, times, states, prof, "above", tol=1e-12)
    with pytest.raises(InsufficientPoints):
        check_domination(grid, times, states, prof, "upper", tol=1e-12,
                         r_window=(5.0, 6.0))    # beyond r_max = 4
    for r_window in [(1.0,), (3.0, 1.0), (1.0, 1.0), (0.5, 1.0, 2.0)]:
        with pytest.raises(ValueError, match="r_window must be two numbers lo < hi"):
            check_domination(grid, times, states, prof, "upper", tol=1e-12,
                             r_window=r_window)


def test_gradient_quotient_inverts_envelope():
    t = np.linspace(0.0, 2.0, 50)
    sup0 = 0.3
    p, q = P_A.p, P_A.q
    shape = 1.0 + sup0 ** ((p - 2 * q) / (p * (p - q))) * np.maximum(t, 1e-300) ** (-1 / p)
    quot = gradient_quotient(t, 2.0 * shape, sup0, P_A)
    assert quot.size == t.size - 1          # t = 0 dropped
    assert np.max(np.abs(quot - 2.0)) <= 1e-12


def test_flatness_floor_matches_bump_closed_form():
    # for the cap m (R0^2 - r^2)^omega the steepness ratio is exactly
    # (2 omega m^(1/omega) r^(2-omega))^(p-1): the state-power cancels the
    # gradient-power and only the radius survives.  Checked away from the
    # support edge, where the centered gradient is clean.
    grid = RadialGrid(1, 4.0, 2048)
    m, R0 = 1 / 96, 1.0
    u = Bump(P_A, m=m, R0=R0).sample(grid.r_cells)
    c = derive_constants(P_A)
    coef = (2 * c.omega * m ** (1 / c.omega)) ** (P_A.p - 1)
    hi = 0.8
    delta, n = flatness_floor(grid, P_A, u, (2 * grid.dr, hi), 1e-12)
    assert n > 100
    # the minimum sits on the outermost admitted cell
    r_star = grid.r_cells[grid.r_cells < hi][-1]
    closed = coef * r_star ** ((2 - c.omega) * (P_A.p - 1))
    assert abs(delta - closed) / closed <= 1e-3


def test_flatness_floor_flags_plateaus():
    grid = RadialGrid(1, 4.0, 256)
    u = np.where(grid.r_cells < 1.0, 0.5, 0.0)
    delta, n = flatness_floor(grid, P_A, u, (2 * grid.dr, 1.0), 1e-12)
    assert delta == 0.0 and n > 0
    nothing, n0 = flatness_floor(grid, P_A, u, (2 * grid.dr, 1.0), 10.0)
    assert np.isnan(nothing) and n0 == 0
    with pytest.raises(RegimeMismatch):
        flatness_floor(grid, P_C, u, (0.0, 1.0), 1e-12)


def test_flux_balance_equivalence_with_ratio():
    # J_i <= 0 exactly when delta <= ratio_i on inward-sloping positive cells
    grid = RadialGrid(1, 4.0, 512)
    u = Bump(P_A, m=1 / 96, R0=1.0).sample(grid.r_cells)
    delta, _ = flatness_floor(grid, P_A, u, (2 * grid.dr, 1.0), 1e-12)
    r = grid.r_cells
    elig = (u > 1e-12) & (r > 2 * grid.dr) & (r < 1.0)
    J_ok = flux_balance(grid, P_A, u, 0.5 * delta)
    assert np.all(J_ok[elig] <= 0.0)
    J_bad = flux_balance(grid, P_A, u, 2.0 * delta)
    assert np.any(J_bad[elig] > 0.0)
    with pytest.raises(RegimeMismatch):
        flux_balance(grid, P_C, u, 0.1)


def test_j_diagnostic_traces_floor_and_probes_balance():
    grid = RadialGrid(1, 4.0, 512)
    bump = Bump(P_A, m=1 / 96, R0=1.0)
    tol_pos = 1e-9
    # two rescaled copies standing in for snapshots of a shrinking state
    snaps = [bump.sample(grid.r_cells), 0.25 * bump.sample(grid.r_cells / 0.5)]
    diag = j_diagnostic(grid, P_A, [0.0, 0.1], snaps, tol_pos, R0=1.0)
    assert diag.t.shape == (2,) and np.all(diag.n_cells > 0)
    d0, _ = flatness_floor(grid, P_A, snaps[0], (2 * grid.dr, 1.0), 10 * tol_pos)
    assert diag.delta[0] == pytest.approx(d0, rel=1e-12)
    assert diag.delta_probe == pytest.approx(0.5 * d0, rel=1e-12)
    # half the floor keeps the balance nonpositive everywhere admitted
    assert diag.passed and diag.max_excess <= 0.0

    # a later snapshot far flatter than half the first floor pushes the
    # balance positive: u scaled by 1e-3 scales the floor by (1e-3)^(1/3)
    flat = [snaps[0], 1e-3 * snaps[0]]
    hot = j_diagnostic(grid, P_A, [0.0, 0.1], flat, tol_pos, R0=1.0)
    assert hot.delta[1] < 0.5 * hot.delta[0] == hot.delta_probe
    assert not hot.passed and hot.max_excess > 0.0 and hot.worst_t == 0.1

    with pytest.raises(EmptySupport):
        j_diagnostic(grid, P_A, [0.0], [np.zeros(grid.M)], tol_pos, R0=1.0)
