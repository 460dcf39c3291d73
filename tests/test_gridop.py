"""Discretization: gradients, fluxes, stability bound, structural invariants."""

import math
import pickle
import re

import numpy as np
import pytest

from vhjlab.acceptance import PROBLEM_A, PROBLEM_B
from vhjlab.exponents import ExponentOutOfRange, ProblemParams
from vhjlab.closedform import Barrier
from vhjlab.gridop import (
    SAFETY,
    GridMismatch,
    RadialGrid,
    Regularization,
    StepTerms,
    default_eps,
    default_gamma_lift,
    discrete_rhs,
    face_gradient,
    source_rate,
    stable_dt,
)

P_A = ProblemParams(1, 2.0, 0.5)


# reference coefficient laws, written out once, independent of StepTerms
def mobility(z, p, eps):
    """a_eps(z) = (z + eps^2)^((p-2)/2); exactly 1 at p = 2."""
    if p == 2.0:
        return np.ones_like(np.asarray(z, dtype=float))
    return (np.asarray(z, dtype=float) + eps * eps) ** ((p - 2.0) / 2.0)


def absorption_law(z, q, eps):
    """b_eps(z) = (z + eps^2)^(q/2)."""
    return (np.asarray(z, dtype=float) + eps * eps) ** (q / 2.0)


def test_face_gradient_exact_on_quadratic():
    grid = RadialGrid(2, 4.0, 64)
    u = grid.r_cells ** 2
    g = face_gradient(grid, u)
    # centered differences of r^2 across a face hit the exact slope 2 rf
    assert g[0] == 0.0
    assert np.max(np.abs(g[1:-1] - 2.0 * grid.r_faces[1:-1])) <= 1e-13
    assert abs(g[-1] - (0.0 - u[-1]) / grid.dr) == 0.0


def test_rhs_consistency_on_exact_solution():
    # the stationary barrier solves the continuum equation exactly, so the
    # discrete rhs on its samples is pure truncation error: second order
    prof = Barrier(P_A)
    reg = Regularization(eps=1e-12)
    errs = []
    for M in (128, 256, 512):
        grid = RadialGrid(1, 4.0, M)
        u = prof.value(0.0, grid.r_cells)
        rhs = discrete_rhs(StepTerms.of(grid, P_A, reg, u))
        sel = (grid.r_cells > 0.5) & (grid.r_cells < 3.0)
        errs.append(np.max(np.abs(rhs[sel])))
    assert errs[0] / errs[1] > 3.2
    assert errs[1] / errs[2] > 3.2


def test_stable_dt_zero_field_arithmetic():
    # flat state, N = 1: mobility is eps^(p-2) = 10 on every face and the
    # gradient source has zero Lipschitz bound, so dt = SAFETY dr^2 / (2*10)
    # with SAFETY = 0.5
    grid = RadialGrid(1, 1.0, 64)
    prm = ProblemParams(1, 1.5, 0.5)
    reg = Regularization(eps=1e-2)
    dt = stable_dt(StepTerms.of(grid, prm, reg, np.zeros(grid.M)))
    expect = 0.5 * grid.dr ** 2 / 20.0
    assert abs(dt - expect) <= 1e-15 * expect


def test_diffusion_conserves_mass():
    # the interior fluxes telescope: the mass changes only by the flux
    # through the outer (Dirichlet) face
    rng = np.random.default_rng(21)
    for N in (1, 2, 3):
        grid = RadialGrid(N, 4.0, 128)
        prm = ProblemParams(N, 1.8, 0.3)
        reg = Regularization(eps=1e-3)
        u = np.exp(-grid.r_cells ** 2) * (1.0 + 0.1 * rng.random(grid.M))
        terms = StepTerms.of(grid, prm, reg, u)
        rhs = discrete_rhs(terms) + terms.absorption()
        drift = float(np.sum(rhs * grid.metric_cells))
        g = face_gradient(grid, u)
        outflow = grid.metric_faces[-1] * mobility(g[-1] ** 2, prm.p, reg.eps) * g[-1]
        scale = float(np.sum(np.abs(u) * grid.metric_cells))
        assert abs(drift - outflow) <= 1e-12 * scale


def test_constant_state_is_steady_inside():
    grid = RadialGrid(2, 4.0, 64)
    prm = ProblemParams(2, 1.8, 0.6)
    reg = Regularization(eps=1e-2, counterterm=True)
    u = np.full(grid.M, 0.7)
    # absorbing boundary: only the last cell sees the ghost
    rhs = discrete_rhs(StepTerms.of(grid, prm, reg, u))
    assert np.max(np.abs(rhs[:-1])) == 0.0
    assert rhs[-1] < 0.0


@pytest.mark.parametrize("q", [0.3, 0.48, 0.5, 0.6, 0.9])
@pytest.mark.parametrize("eps", [1e-7, 1e-6])
@pytest.mark.parametrize("N, p", [(1, 2.0), (2, 1.8)], ids=["N1_p2", "N2_p1.8"])
def test_uniform_states_are_exactly_steady_with_the_counterterm(N, p, eps, q):
    # a flat state has zero gradients off the outer face, so only the last
    # cell sees the zero ghost; everywhere else the counterterm must cancel
    # the absorption b_eps(0) to the bit, or the flat state would move
    grid = RadialGrid(N, 4.0, 64)
    prm = ProblemParams(N, p, q)
    u = np.full(grid.M, 0.3)
    on = discrete_rhs(StepTerms.of(grid, prm, Regularization(eps=eps), u))
    assert np.all(on[:-1] == 0.0)
    off = discrete_rhs(StepTerms.of(grid, prm, Regularization(eps=eps, counterterm=False), u))
    assert np.all(off[:-1] == -absorption_law(np.zeros(grid.M - 1), q, eps))


def test_counterterm_sign():
    grid = RadialGrid(1, 4.0, 64)
    reg_on = Regularization(eps=1e-2, counterterm=True)
    reg_off = Regularization(eps=1e-2, counterterm=False)
    u = np.exp(-grid.r_cells)
    on = discrete_rhs(StepTerms.of(grid, P_A, reg_on, u))
    off = discrete_rhs(StepTerms.of(grid, P_A, reg_off, u))
    diff = on - off
    assert np.all(diff >= 0.0)
    assert np.max(np.abs(diff - reg_on.eps ** P_A.q)) <= 1e-15


def test_explicit_step_is_monotone_under_default_tie():
    # comparison structure of one explicit step: ordered states stay ordered
    rng = np.random.default_rng(22)
    grid = RadialGrid(1, 4.0, 128)
    reg = Regularization(eps=default_eps(grid))
    for _ in range(20):
        base = np.interp(grid.r_cells, np.linspace(0, 4, 9), rng.random(9))
        bump = np.interp(grid.r_cells, np.linspace(0, 4, 9), rng.random(9))
        u = base
        v = base + 0.5 * bump
        tu, tv = StepTerms.of(grid, P_A, reg, u), StepTerms.of(grid, P_A, reg, v)
        dt = min(stable_dt(tu), stable_dt(tv))
        un = u + dt * discrete_rhs(tu)
        vn = v + dt * discrete_rhs(tv)
        assert np.all(vn - un >= -1e-12)


def test_grid_mass_and_validation():
    grid = RadialGrid(2, 4.0, 128)
    # sum of r_i dr over the uniform cell centers telescopes to r_max^2 / 2
    assert abs(grid.metric_cells.sum() - 8.0) <= 1e-12
    with pytest.raises(GridMismatch):
        StepTerms.of(grid, P_A, Regularization(eps=1e-3), np.ones(grid.M))
    # an infinite domain would build NaN geometry behind a RuntimeWarning
    for r_max in (-1.0, np.inf, np.nan):
        with pytest.raises(GridMismatch, match="r_max must be positive and finite"):
            RadialGrid(1, r_max, 64)


def test_grid_refuses_a_non_integer_cell_count():
    # 64.5 would build 65 cells, and 64.0 would fail later inside StepTerms;
    # a bool is not a cell count either
    for M in (64.5, 64.0, True):
        with pytest.raises(GridMismatch, match=rf"^cell count must be an integer, got {M!r}$"):
            RadialGrid(1, 4.0, M)
    assert RadialGrid(1, 4.0, np.int64(64)).r_cells.shape == (64,)


def test_grid_refuses_a_non_integer_dimension():
    # 2.0 would compare equal to the grid of N = 2, and True to N = 1;
    # a numpy integer is a dimension, as for the cell count
    for N in (2.0, True, 1.5, 0, -1):
        with pytest.raises(GridMismatch, match=rf"^dimension must be a positive integer, "
                                               rf"got {re.escape(repr(N))}$"):
            RadialGrid(N, 4.0, 64)
    assert RadialGrid(np.int64(2), 4.0, 64) == RadialGrid(2, 4.0, 64)


@pytest.mark.parametrize("shape", [(1, 64), (63,)], ids=["stack_of_one", "short"])
def test_one_shot_workspace_refuses_any_shape_but_one_states(shape):
    # a workspace holds one state of the grid's M cells: not a stack, even
    # of one state (a longer stack is test_semi_implicit_step_refuses_a_stack's
    # terms-stack case), and not a state of another length
    grid = RadialGrid(1, 4.0, 64)
    with pytest.raises(ValueError, match=rf"^a StepTerms workspace holds one state of shape "
                                         rf"\(64,\), not {re.escape(str(shape))}$"):
        StepTerms.of(grid, P_A, Regularization(eps=1e-3), np.ones(shape))


def test_regularization_validation():
    for eps in (0.0, np.inf, np.nan):
        with pytest.raises(ExponentOutOfRange, match="eps must be positive and finite"):
            Regularization(eps=eps)
    assert abs(default_gamma_lift(P_A) - 0.2) <= 1e-15
    # the window (0, min(p/4, q/2, p-1, 1-q)) is empty unless q < 1
    for q in (1.0, 1.5):
        with pytest.raises(ExponentOutOfRange,
                           match=rf"^the positivity lift needs q < 1, got q = {q}$"):
            default_gamma_lift(ProblemParams(1, 2.0, q))


def test_grid_geometry_is_read_only_with_value_semantics():
    grid = RadialGrid(2, 4.0, 64)
    for name in ("r_cells", "r_faces", "metric_cells", "metric_faces"):
        arr = getattr(grid, name)
        assert arr is getattr(grid, name)          # computed once
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert np.array_equal(grid.r_cells, (np.arange(64) + 0.5) * (4.0 / 64))
    same = RadialGrid(2, 4.0, 64)
    assert same == grid and hash(same) == hash(grid)
    assert RadialGrid(2, 4.0, 128) != grid
    back = pickle.loads(pickle.dumps(grid))
    assert back == grid and hash(back) == hash(grid)
    assert np.array_equal(back.metric_faces, grid.metric_faces)
    assert not back.metric_faces.flags.writeable


@pytest.mark.parametrize("N", [1, 2])
def test_p2_shortcut_matches_mobility_reference(N):
    # the operator and the step bound skip the unit mobility at p = 2; the
    # result must equal, bit for bit, the formula written with mobility()
    rng = np.random.default_rng(24 + N)
    grid = RadialGrid(N, 4.0, 96)
    prm = ProblemParams(N, 2.0, 0.5)
    reg = Regularization(eps=default_eps(grid))
    for u in (rng.random(grid.M), *rng.random((3, grid.M))):
        g = face_gradient(grid, u)
        a = mobility(g * g, prm.p, reg.eps)
        flux = grid.metric_faces * a * g
        div = np.diff(flux) / grid.metric_cells
        gbar = 0.5 * (g[:-1] + g[1:])
        source = absorption_law(gbar * gbar, prm.q, reg.eps) - reg.eps ** prm.q
        terms = StepTerms.of(grid, prm, reg, u)
        assert np.array_equal(discrete_rhs(terms), div - source)
        wa = grid.metric_faces * a
        own = (wa[1:] + wa[:-1]) / (grid.metric_cells * grid.dr)
        # the source's own-cell derivative, at the symmetry cell only and
        # only where the state falls there
        gbar0 = gbar[0]
        rate0 = prm.q * np.maximum(-gbar0, 0.0) * absorption_law(gbar0 * gbar0, prm.q - 2.0,
                                                        reg.eps) / grid.dr
        own[0] += 0.5 * rate0
        assert stable_dt(terms) == SAFETY / float(np.max(own))


@pytest.mark.parametrize("prm", [PROBLEM_A, PROBLEM_B, ProblemParams(2, 2.0, 0.5)],
                         ids=["A", "B", "N2_p2"])
def test_stable_dt_keeps_every_own_cell_coefficient_nonnegative(prm):
    # d u_i^new / d u_i of the pre-clamp explicit update, by a forward
    # difference in each u_i: the bound keeps it at least 1 - SAFETY (the
    # frozen rows bound the true own-cell rate), so nonnegative, in every
    # cell of every state.  At p = 2 the rows are exact and the
    # smallest coefficient is 1 - SAFETY: at N = 1 cell 0's row holds only
    # its outer face, and the other rows, 2/dr^2, set dt; at N = 2 every
    # diffusion row is 2/dr^2, and the source's term at the symmetry cell
    # sets dt.  That term counts max(-gbar_0, 0), the source's own-cell
    # rate: where the state rises at the origin (u_1 > u_0) the source
    # lowers the true rate and the term is zero, so the bound is attained
    # on the rising copies as on the falling ones
    rng = np.random.default_rng(31)
    grid = RadialGrid(prm.N, 4.0, 256)
    reg = Regularization(eps=default_eps(grid))
    knots = np.linspace(0.0, grid.r_max, 9)
    h = 1e-7
    terms = StepTerms(grid, prm, reg)
    for _ in range(4):
        u = np.interp(grid.r_cells, knots, rng.random(9) * (1.0 - knots / 4.0))
        falling = u.copy()
        falling[:2] = np.sort(u[:2])[::-1]
        for v in (u, falling):
            dt = stable_dt(terms.fill(v))

            def update(w):
                return w + dt * discrete_rhs(terms.fill(w))

            # the Jacobian's diagonal, one perturbed copy of the state per cell
            base = update(v)
            own = np.empty(grid.M)
            for i in range(grid.M):
                bumped = v.copy()
                bumped[i] += h
                own[i] = (update(bumped)[i] - base[i]) / h
            assert own.min() >= 1.0 - SAFETY - 1e-6
            if prm.p == 2.0:
                assert abs(own.min() - (1.0 - SAFETY)) <= 1e-6


def _cell_0_formula(terms, u):
    """dt of the step bound's formula, written out on floats, and whether
    cell 0's source term sets it: the diffusion rows at the mobilities of
    u's face gradients, and half the term q max(-gbar_0, 0) (Z_0 / z_0) /
    dr, its power the fill's Z over z as in source_rate, added to row 0.
    At p = 2 Python's max leaves the largest row in charge of a NaN term."""
    grid, prm, eps = terms.grid, terms.problem, terms.reg.eps
    gbar, z, Z = terms.gbar.item(0), terms.z.item(0), terms.Z.item(0)
    term = prm.q * max(-gbar, 0.0) * (Z / z) / grid.dr
    g = face_gradient(grid, u)
    wa = grid.metric_faces * mobility(g * g, prm.p, eps)
    rows = (wa[1:] + wa[:-1]) / (grid.metric_cells * grid.dr)
    row_max = float(rows.max())
    if prm.p == 2.0:
        own = max(row_max, float(rows[0]) + 0.5 * term)
    else:
        rows[0] += 0.5 * term
        own = float(rows.max())
    return SAFETY / own, own > row_max


def _straddling_states(grid, prm, reg, rng):
    """N = 1, p = 2 states whose cell-0 term sits within 1e-12 relative of
    the slack row_max - row_0, on both sides: u_1 = 0 and u_0 around the
    value at which the term, by _cell_0_formula, fills the slack (only a
    falling origin has the term)."""
    terms = StepTerms(grid, prm, reg)

    def state(x):
        u = rng.random(grid.M)
        u[:2] = x, 0.0
        return u

    def cell_0_limits(x):
        u = state(x)
        return _cell_0_formula(terms.fill(u), u)[1]

    # the term falls as gbar_0^(q-1) here, far above eps: bracket its root;
    # at N = 1 row 0 is 1/dr^2 and row_max 2/dr^2
    slack = 1.0 / grid.dr ** 2
    x = 2.0 * grid.dr * (2.0 * grid.dr * slack / prm.q) ** (1.0 / (prm.q - 1.0))
    lo, hi = 0.5 * x, 2.0 * x
    assert cell_0_limits(lo) and not cell_0_limits(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cell_0_limits(mid) else (lo, mid)
    xs = lo * (1.0 + 1e-13 * np.arange(-8, 9))
    sides = {cell_0_limits(x) for x in xs}
    assert sides == {True, False}
    return np.array([state(x) for x in xs])


def _cell_0_states(grid, rng, eps, n):
    """n random states on grid with cell 0's gradient near eps, u_1 =
    u_0 - 2 dr eps 10^U(-1, 1): a falling origin, whose source term
    outweighs the diffusion rows at small eps; then n random states and
    four copies of one with u_1 huge or non-finite."""
    states = rng.random((2 * n, grid.M))
    states[:n, 1] = states[:n, 0] - (2.0 * grid.dr * eps) * 10.0 ** rng.uniform(-1, 1, n)
    rows = np.repeat(rng.random((1, grid.M)), 4, axis=0)
    rows[:, 1] = 1e100, 1e300, np.inf, np.nan
    return np.concatenate([states, rows])


@pytest.mark.parametrize("prm", [P_A, ProblemParams(2, 2.0, 0.5), ProblemParams(3, 2.0, 0.5),
                                 ProblemParams(1, 2.0, 6.0), PROBLEM_B,
                                 ProblemParams(3, 1.8, 0.85)],
                         ids=["1", "2", "3", "N1_p2_q6", "B", "N3_q0.85"])
def test_one_states_p2_bound_is_the_cell_0_formula_on_floats(prm):
    # stable_dt is _cell_0_formula's dt to the bit, at p = 2 and below,
    # over enough states that an operation rounding differently in a few
    # percent of inputs shows.  Cell 0's gradients sit near eps, where its
    # source term outweighs the diffusion rows and a one-ulp change in it
    # moves dt; the inputs also hold huge and non-finite cell-0 gradients
    # (at q = 6, Z overflows), and at N = 1 and p = 2 states whose term
    # straddles the slack below the largest row.  A NaN term makes dt NaN
    # below p = 2, and leaves the largest row in charge at p = 2
    rng = np.random.default_rng(53 + prm.N)
    grid = RadialGrid(prm.N, 4.0, 64)
    reg = Regularization(eps=1e-7)
    states = _cell_0_states(grid, rng, reg.eps, 100)
    if prm.N == 1 and prm.p == 2.0 and prm.q < 1.0:
        states = np.concatenate([states, _straddling_states(grid, prm, reg, rng)])
    terms = StepTerms(grid, prm, reg)
    limits, nans = set(), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for u in states:
            dt = stable_dt(terms.fill(u))
            expected, limited = _cell_0_formula(terms, u)
            if math.isnan(expected):
                nans += 1
                assert math.isnan(dt)
            else:
                assert dt == expected
            limits.add(limited)
    assert (nans == 0) == (prm.p == 2.0)
    assert limits == {True, False}


def _float_operand_terms(grid, prm, reg, u):
    """The workspace's terms, the operator, the source rate and the step
    bound by the workspace's expressions, every per-run constant a Python
    float operand: the form the workspace held before it took them as
    0-d float64 arrays."""
    dr, eps2, q, p = grid.dr, reg.eps * reg.eps, prm.q, prm.p
    g = np.zeros(grid.M + 1)
    np.subtract(u[1:], u[:-1], out=g[1:-1])
    g[1:-1] /= dr
    g[-1] = u.item(-1) / -dr
    gbar = np.add(g[:-1], g[1:])
    gbar *= 0.5
    z = np.multiply(gbar, gbar)
    z += eps2
    if p == 2.0:
        w = grid.metric_faces
    else:
        w = np.multiply(g, g)
        w += eps2
        np.power(w, (p - 2.0) / 2.0, out=w)
        w *= grid.metric_faces
    Z = np.power(z, q / 2.0)
    eps_q = np.power(np.full(1, eps2), q / 2.0).item() if reg.counterterm else 0.0
    absorption = np.subtract(Z, eps_q)
    rate = np.abs(gbar)
    rate *= q
    rate *= Z / z
    rate /= dr
    flux = np.multiply(w, g)
    rhs = np.subtract(flux[1:], flux[:-1])
    rhs /= grid.metric_cells
    rhs -= absorption
    g0 = gbar.item(0)
    term = (0.0 if g0 >= 0.0 else -g0) * q * (Z.item(0) / z.item(0)) / dr
    rows = np.add(w[1:], w[:-1])
    rows /= grid.metric_cells * dr
    if p == 2.0:
        own = float(rows[0]) + 0.5 * term
        own = own if own > float(rows.max()) else float(rows.max())
    else:
        rows[0] += 0.5 * term
        own = float(rows.max())
    return {"g": g, "gbar": gbar, "z": z, "Z": Z, "weights": w,
            "absorption": absorption, "source_rate": rate, "discrete_rhs": rhs,
            "stable_dt": np.float64(SAFETY / own)}


@pytest.mark.parametrize("counterterm", [True, False])
@pytest.mark.parametrize("N, p", [(1, 2.0), (2, 2.0), (2, 1.8), (3, 1.8)],
                         ids=["N1_p2", "N2_p2", "N2_p1.8", "N3_p1.8"])
def test_zero_d_constants_give_the_python_float_results(N, p, counterterm):
    # a 0-d float64 operand and a Python float take the same IEEE
    # operation: every term of the workspace, the operator, the source
    # rate and the step bound equal the Python-float expressions to the
    # bit, on states holding huge, tiny, subnormal, -0.0, inf and NaN
    # cells at the symmetry cell, beside it, inside and at the outer cell
    grid = RadialGrid(N, 4.0, 64)
    prm = ProblemParams(N, p, 0.6)
    rng = np.random.default_rng(29 + N)
    terms = StepTerms(grid, prm, Regularization(eps=1e-7, counterterm=counterterm))
    states = [rng.random(grid.M), np.zeros(grid.M), rng.random(grid.M) * 1e-200]
    for x in (1e300, -1e300, 1e-300, 5e-324, -0.0, np.inf, -np.inf, np.nan):
        for i in (0, 1, 31, grid.M - 1):
            u = rng.random(grid.M)
            u[i] = x
            states.append(u)
    readers = {"absorption": lambda t: t.absorption(), "source_rate": source_rate,
               "discrete_rhs": discrete_rhs, "stable_dt": lambda t: np.float64(stable_dt(t))}
    with np.errstate(all="ignore"):
        for u in states:
            expected = _float_operand_terms(grid, prm, terms.reg, u)
            terms.fill(u)
            for name in ("g", "gbar", "z", "Z", "weights"):
                assert getattr(terms, name).tobytes() == expected[name].tobytes(), name
            for name, read in readers.items():
                assert read(terms).tobytes() == expected[name].tobytes(), name


@pytest.mark.parametrize("p", [2.0, 1.8])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_precomputed_gradient_gives_identical_results(N, p):
    # a caller's workspace, allocated once and refilled from each state,
    # stands in for the one-shot workspace each function would build, to
    # the last bit
    rng = np.random.default_rng(7 * N + int(10 * p))
    grid = RadialGrid(N, 4.0, 96)
    prm = ProblemParams(N, p, 0.5)
    reg = Regularization(eps=default_eps(grid))
    terms = StepTerms(grid, prm, reg)
    for _ in range(4):
        u = rng.random(grid.M)
        terms.fill(u)
        assert np.array_equal(terms.g, face_gradient(grid, u))
        fresh = StepTerms.of(grid, prm, reg, u)
        assert stable_dt(terms) == stable_dt(fresh)
        assert np.array_equal(source_rate(terms), source_rate(fresh))
        assert np.array_equal(discrete_rhs(terms), discrete_rhs(fresh))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the reference power form needs x87 extended precision")
@pytest.mark.parametrize("shape", [(), (3,)], ids=["state", "stack"])
@pytest.mark.parametrize("prm", [P_A, PROBLEM_B, ProblemParams(3, 1.8, 0.85)],
                         ids=["N1_p2", "N2_p1.8", "N3_q0.85"])
def test_source_rate_and_absorption_share_one_power(prm, shape):
    # the fill takes Z = z^(q/2) once: absorption is Z less the counterterm,
    # bit for bit, and source_rate's power is Z / z, within 4 ulp of the
    # power form q |gbar| (gbar^2+eps^2)^(q/2-1) / dr, on gradients from
    # 0.1 eps to 10 eps of either sign.  The power form is evaluated in
    # extended precision: in doubles the exponent q/2 - 1 is itself rounded
    # (q = 0.6), which alone moves the power by up to 8 ulp at these z.  A
    # stack's states are filled into one workspace in turn
    grid, eps = RadialGrid(prm.N, 4.0, 256), 1e-3
    rng = np.random.default_rng(prm.N)
    slopes = eps * 10.0 ** rng.uniform(-1.0, 1.0, shape + (grid.M - 1,))
    slopes *= rng.choice([-1.0, 1.0], slopes.shape)
    states = np.concatenate((np.zeros(shape + (1,)), np.cumsum(slopes * grid.dr, axis=-1)),
                            axis=-1)
    terms = StepTerms(grid, prm, Regularization(eps=eps))
    half_q = prm.q / 2.0
    eps_q = np.power(np.full(1, eps * eps), half_q).item()
    L = np.longdouble
    for u in states.reshape(-1, grid.M):
        terms.fill(u)
        inner = np.abs(terms.g[1:-1])
        assert inner.min() >= 0.099 * eps and inner.max() <= 10.01 * eps
        expected = np.power(terms.z, half_q) - eps_q
        assert terms.absorption().tobytes() == expected.tobytes()
        power_form = (L(prm.q) * np.abs(terms.gbar).astype(L)
                      * np.power(terms.z.astype(L), L(prm.q) / 2 - 1) / L(grid.dr))
        rate = source_rate(terms)
        assert rate.shape == (grid.M,)
        ulp = np.spacing(power_form.astype(float)).astype(L)
        assert (np.abs(rate.astype(L) - power_form) <= 4 * ulp).all()
