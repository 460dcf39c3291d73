"""Time stepping: outcomes, comparison structure, scheme agreement."""

import hashlib
import math

import numpy as np
import pytest

from vhjlab.exponents import ProblemParams, RegimeMismatch, derive_constants, validate_params
from vhjlab.gridop import GridMismatch, RadialGrid, Regularization, StepTerms, stable_dt
from vhjlab.solver import (
    SCHEMES,
    Bump,
    DataShapeError,
    FastDecay,
    FatTail,
    Outcome,
    SolverConfig,
    detect_extinction,
    run,
)

P_A = ProblemParams(1, 2.0, 0.5)
P_B = ProblemParams(2, 1.8, 0.6)
P_C = ProblemParams(2, 1.8, 0.85)


def test_zero_data_is_extinct_at_time_zero():
    # data whose sup already sits below tol_ext ends the run before a step
    grid = RadialGrid(1, 4.0, 64)
    ic = Bump(P_A, m=1 / 96, R0=1.0)
    res = run(P_A, grid, Regularization(eps=1e-3), ic,
              SolverConfig(t_end=1.0, tol_ext=2.0 * ic.sup()))
    assert res.outcome is Outcome.EXTINCT
    assert res.T_e_est == 0.0
    assert res.n_steps == 0
    assert res.t_final == 0.0
    assert list(res.snapshots["t"]) == [0.0, 0.0]
    assert len(res.series["t"]) == 1


def test_sup_decreases_and_state_stays_nonnegative():
    grid = RadialGrid(1, 4.0, 256)
    ic = Bump(P_A, m=1 / 96, R0=1.0)
    assert ic.flat_certified
    res = run(P_A, grid, Regularization(eps=1e-5), ic,
              SolverConfig(t_end=0.02, tol_ext=1e-9, snapshot_times=(0.005, 0.01)))
    assert res.outcome is Outcome.HORIZON_REACHED
    assert np.all(np.diff(res.series["sup"]) <= 1e-14)
    for u in res.snapshots["u"]:
        assert np.all(u >= 0.0)


def test_radial_monotonicity_is_preserved():
    grid = RadialGrid(1, 4.0, 256)
    ic = Bump(P_A, m=1 / 96, R0=1.0)
    res = run(P_A, grid, Regularization(eps=1e-5), ic,
              SolverConfig(t_end=0.02, tol_ext=1e-9, snapshot_times=(0.01,)))
    for u in res.snapshots["u"]:
        assert np.all(np.diff(u) <= 1e-12 * res.sup0)


def _states_at_one_dt(scheme, prm, grid, reg, u, dt, n):
    """The n states after u of the scheme's step function, all with one dt."""
    step = SCHEMES[scheme][1]
    terms = StepTerms(grid, prm, reg)
    u = u.copy()
    for _ in range(n):
        u = step(terms.fill(u), u, dt)
        yield u


def test_ordered_data_stays_ordered_with_shared_steps():
    # same dt for both states: the discrete comparison principle
    grid = RadialGrid(1, 4.0, 64)
    reg = Regularization(eps=1e-2)
    lo = Bump(P_A, m=1 / 96, R0=1.0).sample(grid.r_cells)
    hi = Bump(P_A, m=1 / 48, R0=1.0).sample(grid.r_cells)
    dt = 0.25 * min(stable_dt(StepTerms.of(grid, P_A, reg, lo)),
                    stable_dt(StepTerms.of(grid, P_A, reg, hi)))
    n = int(0.008 / dt)
    for ul, uh in zip(_states_at_one_dt("explicit", P_A, grid, reg, lo, dt, n),
                      _states_at_one_dt("explicit", P_A, grid, reg, hi, dt, n)):
        assert np.all(uh - ul >= -1e-10)


def test_semi_implicit_tracks_explicit():
    grid = RadialGrid(1, 4.0, 128)
    reg = Regularization(eps=1e-2)
    u0 = Bump(P_A, m=1 / 96, R0=1.0).sample(grid.r_cells)
    dt = 0.5 * stable_dt(StepTerms.of(grid, P_A, reg, u0))
    n = round(0.01 / dt)
    *_, u_ex = _states_at_one_dt("explicit", P_A, grid, reg, u0, dt, n)
    *_, u_si = _states_at_one_dt("semi_implicit", P_A, grid, reg, u0, dt, n)
    assert np.max(np.abs(u_ex - u_si)) <= 1e-3 * u0.max()


def test_vanishing_regularization_is_cauchy():
    # halving eps repeatedly must contract the end states: the eps-flows
    # converge to a limit rather than drifting
    grid = RadialGrid(1, 4.0, 256)
    ic = Bump(P_A, m=1.0, R0=1.0)
    finals = []
    for eps in (0.016, 0.008, 0.004, 0.002):
        res = run(P_A, grid, Regularization(eps=eps), ic,
                  SolverConfig(t_end=0.05, tol_ext=1e-12))
        assert res.outcome is Outcome.HORIZON_REACHED
        finals.append(res.snapshots["u"][-1])
    d = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
    # the dominant eps-error enters through the absorption near the support
    # edge and scales like eps^q = sqrt(eps): each halving gains ~0.71
    assert d[1] <= 0.8 * d[0]
    assert d[2] <= 0.8 * d[1]


def test_extinction_detection_on_synthetic_history():
    t = np.arange(0.0, 0.79999, 2e-5)
    sup = (0.8 - t) ** 2
    k = int(np.nonzero(sup <= 1e-8)[0][0])
    est = detect_extinction(t[k - 1], sup[k - 1], t[k], sup[k], 1e-8)
    # the crossing itself is at 0.8 - 1e-4; the true vanishing at 0.8
    assert abs(est - 0.7999) <= 2e-5
    assert abs(est - 0.8) <= 1.2e-4
    assert detect_extinction(0.0, 1.0, 1.0, 0.0, 1e-6) == 1.0


def overstep(monkeypatch, scheme):
    """Make run step at 50 times the scheme's own bound."""
    bound, step = SCHEMES[scheme]
    monkeypatch.setitem(SCHEMES, scheme, (lambda *args: 50.0 * bound(*args), step))


def test_divergence_is_reported(monkeypatch):
    grid = RadialGrid(1, 4.0, 64)
    overstep(monkeypatch, "explicit")
    res = run(P_A, grid, Regularization(eps=1e-2), Bump(P_A, m=1 / 96, R0=1.0),
              SolverConfig(t_end=1.0, tol_ext=1e-12))
    assert res.outcome is Outcome.DIVERGED


def test_semi_implicit_extinction_small_eps():
    # the p < 2 path with eps far below the explicit scheme's comfort zone
    grid = RadialGrid(2, 4.0, 256)
    ic = Bump(P_B, m=6e-7, R0=1.0)
    res = run(P_B, grid, Regularization(eps=1e-9), ic,
              SolverConfig(t_end=1.0, scheme="semi_implicit", tol_ext=1e-10))
    assert res.outcome is Outcome.EXTINCT
    assert 0.0 < res.T_e_est < 0.02
    assert np.all(np.diff(res.series["sup"]) <= 1e-16)


def test_snapshots_land_on_requested_times():
    grid = RadialGrid(1, 4.0, 128)
    res = run(P_A, grid, Regularization(eps=1e-3), Bump(P_A, m=1 / 96, R0=1.0),
              SolverConfig(t_end=0.02, tol_ext=1e-12, snapshot_times=(0.004, 0.011)))
    t = res.snapshots["t"]
    assert abs(t[1] - 0.004) <= 1e-12
    assert abs(t[2] - 0.011) <= 1e-12
    assert t[0] == 0.0 and abs(t[-1] - 0.02) <= 1e-12


def test_series_gradient_column():
    grid = RadialGrid(1, 4.0, 128)
    res = run(P_A, grid, Regularization(eps=1e-3), Bump(P_A, m=1 / 96, R0=1.0),
              SolverConfig(t_end=0.01, tol_ext=1e-12, series_gradient_power=0.75))
    col = res.series["grad_pow_sup"]
    assert col.shape == res.series["t"].shape
    assert np.all(np.isfinite(col)) and np.all(col[1:] > 0)


def test_data_validation():
    with pytest.raises(DataShapeError):
        Bump(P_A, m=0.0, R0=1.0)
    with pytest.raises(RegimeMismatch):
        Bump(P_C, m=1.0, R0=1.0)           # no default power outside q < p-1
    assert Bump(P_C, m=1.0, R0=1.0, power=2.0).power == 2.0
    for power in (-1.0, 0.0):              # 0.0 would sample as a constant
        with pytest.raises(DataShapeError, match="power > 0"):
            Bump(P_A, m=1 / 96, R0=1.0, power=power)
    with pytest.raises(DataShapeError):
        FastDecay(P_A, C=1.0, theta=0.9)   # threshold is 1 here
    FastDecay(P_A, C=1.0, theta=1.0)       # equality is the borderline case
    with pytest.raises(DataShapeError):
        FatTail(P_A, C=1.0, rho=1.0)       # fat means strictly below
    FatTail(P_A, C=1.0, rho=0.5)
    with pytest.raises(ValueError, match="lift must be nonnegative"):
        SolverConfig(t_end=0.1, lift=-1.0)
    grid = RadialGrid(1, 4.0, 64)

    class NaNData:                         # any object with a sample method
        def sample(self, r):
            return np.full(np.shape(r), np.nan)

    with pytest.raises(DataShapeError, match="finite and nonnegative"):
        run(P_A, grid, Regularization(eps=1e-3), NaNData(), SolverConfig(t_end=0.1))
    with pytest.raises(GridMismatch, match="problem dimension 2 vs grid dimension 1"):
        run(P_B, grid, Regularization(eps=1e-3),
            Bump(P_B, m=1e-7, R0=1.0), SolverConfig(t_end=0.1))


@pytest.mark.parametrize("N, p, q", [(1, 1.6, 0.8), (1, 1.6, 0.9), (2, 1.5, 0.99)])
def test_tail_data_keeps_its_threshold_where_no_constants_exist(N, p, q):
    # q >= p/2: derive_constants refuses the triple, the tail data does not
    problem = validate_params(N, p, q)
    with pytest.raises(RegimeMismatch):
        derive_constants(problem)
    thr = q / (1.0 - q)
    assert FastDecay(problem, C=1.0, theta=thr).theta == thr
    assert FatTail(problem, C=1.0, rho=0.5 * thr).rho == 0.5 * thr
    below = 0.99 * thr
    with pytest.raises(DataShapeError) as err:
        FastDecay(problem, C=1.0, theta=below)
    assert str(err.value) == (
        f"tail exponent {below} below the fast-decay threshold q/(1-q) = {thr}")
    with pytest.raises(DataShapeError) as err:
        FatTail(problem, C=1.0, rho=thr)
    assert str(err.value) == (
        f"fat-tail exponent must sit in [0, q/(1-q)) = [0, {thr}), got {thr}")


def test_flat_certificate_depends_on_amplitude():
    lo = Bump(P_A, m=1 / 96, R0=1.0)
    hi = Bump(P_A, m=1.0, R0=1.0)
    assert lo.flat_certified and not hi.flat_certified
    assert lo.amplitude_bound == hi.amplitude_bound
    # kappa / (2 R0)^omega with kappa = 1/12, omega = 3
    assert abs(lo.amplitude_bound - 1 / 96) <= 1e-15


def test_reference_bump_trajectories_are_pinned():
    # the battery's reference recipes at M = 128, exact to the last bit:
    # an optimization of the step must not move a single rounding
    from vhjlab.acceptance import Battery
    b = Battery()
    res_a = b.run("bump_a", **{"grid.M": 128})
    assert (res_a.n_steps, res_a.T_e_est) == (396, 0.0964137908239406)
    res_b = b.run("bump_b", **{"grid.M": 128})
    assert (res_b.n_steps, res_b.T_e_est) == (737, 0.6048912776846818)
    # the earlier pins, of the unscaled semi-implicit system and of the
    # bound's direct power z^(q/2-1): scaling each row by its cell measure,
    # and taking that power as Z / z, move T_e by roundoff only
    for earlier in (0.6048912776846821, 0.6048912776846861):
        assert abs(res_b.T_e_est - earlier) <= 1e-12 * earlier




@pytest.mark.parametrize("scheme, bound", [("explicit", "stable_dt"),
                                           ("semi_implicit", "source_rate")])
def test_each_step_calls_its_bound_once_and_one_face_gradient(monkeypatch, scheme, bound):
    # the benchmark's step clock ticks on the solver's own stable_dt and
    # source_rate bindings and counts face_gradient calls per step; the
    # gradient formula itself, _face_differences, runs once a step
    import vhjlab.gridop as gridop
    import vhjlab.solver as solver
    per_step = ("stable_dt", "source_rate", "discrete_rhs",
                "_semi_implicit_matrix", "solve_banded")
    calls = dict.fromkeys(per_step + ("face_gradient", "_face_differences"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in per_step:
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    fg = counted("face_gradient", gridop.face_gradient)
    monkeypatch.setattr(gridop, "face_gradient", fg)
    monkeypatch.setattr(solver, "face_gradient", fg)
    monkeypatch.setattr(gridop, "_face_differences",
                        counted("_face_differences", gridop._face_differences))
    prm, t_end = (P_A, 0.05) if scheme == "explicit" else (P_B, 2.0)
    res = run(prm, RadialGrid(prm.N, 4.0, 64), Regularization(eps=1e-3),
              Bump(prm, m=1 / 96, R0=1.0),
              SolverConfig(t_end=t_end, scheme=scheme, tol_ext=1e-7, tol_pos=1e-7,
                           series_stride=4, series_gradient_power=0.5))
    assert res.n_steps > 20
    other = "source_rate" if bound == "stable_dt" else "stable_dt"
    assert (calls[bound], calls[other]) == (res.n_steps, 0)
    # the benchmark's layer spans: the operator once per explicit step, the
    # matrix and the banded solve once per semi-implicit step
    explicit = res.n_steps if scheme == "explicit" else 0
    assert calls["discrete_rhs"] == explicit
    assert calls["_semi_implicit_matrix"] == calls["solve_banded"] == res.n_steps - explicit
    # one gradient per step, by the workspace's fill on views it made
    # once, and one face_gradient call per block of recorded states with a
    # gradient column (K states a block, the last one partly filled)
    K = max(1, solver.RECORD_BLOCK_CELLS // 64)
    blocks = math.ceil(len(res.series["t"]) / K)
    assert calls["face_gradient"] == blocks
    assert calls["_face_differences"] == res.n_steps + blocks


@pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
@pytest.mark.parametrize("prm", [P_A, P_B], ids=["p2", "singular"])
def test_first_step_of_run_is_the_schemes_step_function(scheme, prm):
    # run takes its dt from the scheme's bound and its state from the
    # scheme's step function, bit for bit; the step updates the state it
    # is given in place, and run steps its own copy, never the array
    # ic.sample returned; criterion 4's one-shot call of the explicit step
    # (on a fresh StepTerms.of) lands on the same bits
    import vhjlab.solver as solver
    grid, reg = RadialGrid(prm.N, 4.0, 64), Regularization(eps=1e-3)
    u0 = Bump(prm, m=1 / 96, R0=1.0).sample(grid.r_cells)
    kept = u0.copy()

    class StoredData:               # the same array on every call
        def sample(self, r):
            return u0

    bound, step = solver.SCHEMES[scheme]
    terms = StepTerms(grid, prm, reg).fill(u0)
    dt = bound(terms)
    u1 = u0.copy()
    assert step(terms, u1, dt) is u1
    res = run(prm, grid, reg, StoredData(),
              SolverConfig(t_end=dt, scheme=scheme, tol_ext=1e-12))
    assert (res.outcome, res.n_steps, res.t_final) == (Outcome.HORIZON_REACHED, 1, dt)
    assert res.snapshots["u"][-1].tobytes() == u1.tobytes()
    assert u0.tobytes() == kept.tobytes()
    if scheme == "explicit":
        one_shot = solver.explicit_step(StepTerms.of(grid, prm, reg, u0), u0.copy(), dt)
        assert one_shot.tobytes() == u1.tobytes()


def _series_digest(res) -> str:
    cols = [np.asarray(res.series[k], dtype=float) for k in sorted(res.series)]
    return hashlib.sha256(np.concatenate(cols).tobytes()).hexdigest()[:16]


def _pinned_path(name):
    from vhjlab.acceptance import BUMP_M, EPS_REFERENCE, Battery
    if name == "lifted":            # counterterm off, positivity lift
        return Battery().lifted(128)
    if name == "N1_singular_explicit":  # the p < 2 mobility at N = 1
        prm = ProblemParams(1, 1.6, 0.4)
        gp = (prm.p - prm.q - 1.0) / (prm.p - prm.q)
        return run(prm, RadialGrid(1, 4.0, 64), Regularization(eps=1e-3),
                   Bump(prm, m=BUMP_M, R0=1.0),
                   SolverConfig(t_end=5.0, tol_ext=1e-4, tol_pos=1e-4,
                                series_gradient_power=gp, series_gradient_floor=1e-4))
    if name == "semi_implicit_p2":  # the bump_a recipe on the other scheme
        gp = (P_A.p - P_A.q - 1.0) / (P_A.p - P_A.q)
        return run(P_A, RadialGrid(1, 4.0, 128), Regularization(eps=EPS_REFERENCE),
                   Bump(P_A, m=BUMP_M, R0=1.0),
                   SolverConfig(t_end=0.3, scheme="semi_implicit", tol_ext=1e-7,
                                tol_pos=1e-7, series_stride=4, series_gradient_power=gp,
                                series_gradient_floor=1e-5))
    N, scheme = int(name[1]), name[3:]
    prm = ProblemParams(N, 2.0, 0.5) if scheme == "explicit" else ProblemParams(N, 1.8, 0.6)
    gp = (prm.p - prm.q - 1.0) / (prm.p - prm.q)
    return run(prm, RadialGrid(N, 4.0, 128), Regularization(eps=1e-3),
               Bump(prm, m=BUMP_M, R0=1.0),
               SolverConfig(t_end=2.0, scheme=scheme, tol_ext=1e-5, tol_pos=1e-5,
                            series_stride=4, series_gradient_power=gp,
                            series_gradient_floor=1e-4))


# earlier T_e of the semi-implicit pins, on the unscaled system (I - dt D)
# and with the bound's direct power z^(q/2-1): scaling each row by its cell
# measure, and taking that power as Z / z, move them by roundoff only
EARLIER_T_E = {"semi_implicit_p2": (0.09680687400538615, 0.09680687400538608),
               "N3_semi_implicit": (0.5491518221848275, 0.549151822184825)}


@pytest.mark.parametrize("name, outcome, n_steps, T_e, digest", [
    ("lifted", "horizon_reached", 360, None, "a842dd88ed73bf64"),
    ("N1_singular_explicit", "extinct", 12717, 0.7835959825520723, "a33c73824073e46b"),
    ("semi_implicit_p2", "extinct", 567, 0.0968068740053861, "143780e91718a125"),
    ("N2_explicit", "horizon_reached", 8219, None, "1b42d633d64f414f"),
    ("N3_explicit", "extinct", 9206, 1.1217743218005896, "b30b781894f6f349"),
    ("N3_semi_implicit", "extinct", 41, 0.549151822184823, "d1fb91cce63fdfd4"),
])
def test_remaining_paths_are_pinned(name, outcome, n_steps, T_e, digest):
    # the paths the reference pins miss, each exact to the last bit: no
    # counterterm with a lift, the explicit scheme at N = 1 and p < 2, the
    # semi-implicit scheme at p = 2, and N = 2, 3
    res = _pinned_path(name)
    assert (res.outcome.value, res.n_steps, res.T_e_est) == (outcome, n_steps, T_e)
    assert _series_digest(res) == digest
    for earlier in EARLIER_T_E.get(name, ()):
        assert abs(T_e - earlier) <= 1e-12 * earlier


def test_singular_explicit_trajectory_is_pinned():
    # the explicit path through the p < 2 mobility, which the reference
    # pins miss, exact to the last bit; the series with its gradient
    # column is pinned too
    from vhjlab.acceptance import BUMP_M
    gp = (P_B.p - P_B.q - 1.0) / (P_B.p - P_B.q)
    res = run(P_B, RadialGrid(2, 4.0, 128), Regularization(eps=1e-3),
              Bump(P_B, m=BUMP_M, R0=1.0),
              SolverConfig(t_end=2.0, tol_ext=1e-5, tol_pos=1e-5,
                           series_gradient_power=gp, series_gradient_floor=1e-4))
    assert (res.n_steps, res.T_e_est) == (29719, 1.8225022700375093)
    assert _series_digest(res) == "136f1e22574d1937"

def test_default_tolerance_is_the_domination_slack():
    from vhjlab.analysis import default_domination_tol
    from vhjlab.exponents import ExponentOutOfRange
    cfg = SolverConfig(t_end=1.0)
    reg = Regularization(eps=1e-4)
    te, tp = cfg.resolve_tols(P_A, reg)
    assert te == tp == default_domination_tol(P_A, reg)
    # the lift's window is empty at q >= 1; an explicit tol_ext needs no lift
    q_high = ProblemParams(1, 2.0, 1.5)
    with pytest.raises(ExponentOutOfRange):
        cfg.resolve_tols(q_high, reg)
    assert SolverConfig(t_end=1.0, tol_ext=1e-6).resolve_tols(q_high, reg) == (1e-6, 1e-6)


def _tridiagonal(seed, M, kind):
    # random symmetric positive definite bands in solve_banded's layout,
    # the unused corner ab[0, 0] included: diagonally dominant with
    # nonpositive couplings, as the scheme's, or L D L^T of a random unit
    # bidiagonal L (|l| < 1, so the factors are well conditioned) and
    # positive D, not dominant in some rows
    rng = np.random.default_rng(seed)
    ab = rng.uniform(-1.0, 1.0, (2, M))
    if kind == "dominant":
        ab[0] = -rng.random(M)
        ab[1] = 2.0 + rng.random(M)
    else:
        d, l = rng.uniform(0.1, 1.0, M), rng.uniform(-0.95, 0.95, M - 1)
        ab[1] = d
        ab[1, 1:] += l * l * d[:-1]
        ab[0, 1:] = l * d[:-1]
    return ab, rng.uniform(-1.0, 1.0, M)


@pytest.mark.parametrize("kind", ["dominant", "factored"])
@pytest.mark.parametrize("M", [4, 97, 4096])
def test_solve_banded_matches_scipy_to_the_bit(M, kind):
    from scipy.linalg import solveh_banded
    from vhjlab.solver import solve_banded
    dominant = []
    for seed in range(5):
        ab, b = _tridiagonal(seed, M, kind)
        off = np.abs(ab[0, 1:])
        dominant.append(ab[1] >= np.append(off, 0.0) + np.insert(off, 0, 0.0))
        expected = solveh_banded(ab, b)
        x = solve_banded(ab.copy(), b.copy())
        assert x.shape == (M,)
        assert x.tobytes() == expected.tobytes()
    assert np.concatenate(dominant).all() == (kind == "dominant")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["upper", "diagonal", "rhs"])
def test_solve_banded_rejects_non_finite_input(where, value):
    from vhjlab.solver import solve_banded
    ab, b = _tridiagonal(0, 16, "dominant")
    if where == "rhs":
        b[7] = value
    else:
        ab[("upper", "diagonal").index(where), 7] = value
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        solve_banded(ab, b)


@pytest.mark.parametrize("M", [5, 64])
def test_solve_banded_reports_a_singular_system(M):
    from scipy.linalg import LinAlgError
    from vhjlab.solver import solve_banded
    # M = 5: tridiag(1, 1, 1), whose determinant vanishes at sizes 2, 5,
    # 8, ...; M = 64: a zero first row and column
    ab = np.ones((2, M))
    if M == 64:
        ab[1, 0] = ab[0, 1] = 0.0
    with pytest.raises(LinAlgError, match="not positive definite"):
        solve_banded(ab, np.ones(M))


@pytest.mark.parametrize("M", [4, 97])
def test_solve_banded_reports_an_indefinite_system(M):
    from scipy.linalg import LinAlgError
    from vhjlab.solver import solve_banded
    # a dominant matrix with one negative diagonal entry: invertible, and
    # indefinite, so no L D L^T with positive D exists
    ab, b = _tridiagonal(1, M, "dominant")
    ab[1, M // 2] = -3.0
    assert np.linalg.eigvalsh(np.diag(ab[1]) + np.diag(ab[0, 1:], 1)
                              + np.diag(ab[0, 1:], -1)).min() < 0
    with pytest.raises(LinAlgError, match="not positive definite"):
        solve_banded(ab, b)


@pytest.mark.parametrize("case", ["terms-stack", "u-stack"])
def test_semi_implicit_step_refuses_a_stack(case):
    # one system per step: a stack of two states is refused by name before
    # anything is written, by StepTerms.of when a workspace would hold it
    # (a workspace holds one state), and by the step when u alone holds it
    import vhjlab.solver as solver
    prm, grid = ProblemParams(1, 1.8, 0.6), RadialGrid(1, 4.0, 64)
    reg = Regularization(eps=1e-3)
    u = np.random.default_rng(3).random((2, grid.M))
    terms = StepTerms.of(grid, prm, reg, u[0])
    before, bands = u.copy(), terms.bands.copy()
    refused, message = {
        "terms-stack": (lambda: StepTerms.of(grid, prm, reg, u),
                        r"^a StepTerms workspace holds one state of shape \(64,\), "
                        r"not \(2, 64\)$"),
        "u-stack": (lambda: solver.semi_implicit_step(terms, u, 1e-4),
                    r"^semi_implicit_step takes one state, not a stack: "
                    r"u has shape \(2, 64\)$"),
    }[case]
    with pytest.raises(ValueError, match=message):
        refused()
    assert (u == before).all() and (terms.bands == bands).all()


@pytest.mark.parametrize("p, q", [(1.8, 0.6), (2.0, 0.5)], ids=["p1.8", "p2"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_semi_implicit_step_solves_the_unscaled_system(N, p, q):
    # the step solves m (I - dt D) x = m (u - dt h), each row scaled by its
    # cell measure m; x is the solution of the unscaled system to roundoff
    from scipy.linalg import solve_banded as scipy_solve_banded
    import vhjlab.solver as solver
    prm, grid = ProblemParams(N, p, q), RadialGrid(N, 4.0, 64)
    rng = np.random.default_rng(10 * N + int(p == 2.0))
    for _ in range(5):
        u = rng.random(grid.M) * (rng.random(grid.M) < 0.8)
        terms = StepTerms(grid, prm, Regularization(eps=1e-3)).fill(u)
        dt = solver._semi_implicit_bound(terms)
        # (I - dt D) in scipy.linalg.solve_banded's (1, 1) layout, from the
        # flux couplings c = weights / dr, divided by the cell measures
        c, m = terms.weights / grid.dr, grid.metric_cells
        ab = np.zeros((3, grid.M))
        ab[0, 1:] = -dt * c[1:-1] / m[:-1]
        ab[1] = 1.0 + dt * (c[:-1] + c[1:]) / m
        ab[2, :-1] = -dt * c[1:-1] / m[1:]
        x = scipy_solve_banded((1, 1), ab, u - dt * terms.absorption())
        expected = np.maximum(x, 0.0)
        new = solver.semi_implicit_step(terms, u, dt)
        np.testing.assert_allclose(new, expected, rtol=1e-12, atol=0.0)
        # the scaled matrix is an M-matrix: a nonnegative right-hand side
        # gives a nonnegative solution, at any dt, here 100 times the bound
        ab = solver._semi_implicit_matrix(terms, 100.0 * dt)
        assert (ab[0, 1:] <= 0.0).all() and (ab[1] > 0.0).all()
        b = rng.random(grid.M) * (rng.random(grid.M) < 0.5)
        assert (solver.solve_banded(ab, b) >= 0.0).all()


def _reference_series(prm, grid, reg, ic, cfg):
    """run's series, one state at a time: the library's bound and step,
    each row measured with the per-state formulas (no snapshots)."""
    import vhjlab.solver as solver
    from vhjlab.gridop import face_gradient
    bound, step = solver.SCHEMES[cfg.scheme]
    tol_ext, tol_pos = cfg.resolve_tols(prm, reg)
    u = ic.sample(grid.r_cells) + cfg.lift
    sup0 = float(u.max())
    terms = StepTerms(grid, prm, reg)
    rows = []

    def record(t, u, sup):
        idx = np.nonzero(u > tol_pos)[0]
        row = [t, sup, float(grid.r_cells[idx[-1]]) if idx.size else 0.0,
               float(np.sum(u * grid.metric_cells))]
        if cfg.series_gradient_power is not None:
            g = np.abs(face_gradient(grid, u ** cfg.series_gradient_power))
            lo = np.concatenate(([u[0]], np.minimum(u[:-1], u[1:]), [min(u[-1], 0.0)]))
            g[~(lo > cfg.series_gradient_floor)] = 0.0
            row.append(float(g.max()))
        rows.append(row)

    record(0.0, u, sup0)
    t, n, done = 0.0, 0, sup0 <= tol_ext
    while not done:
        dt = min(bound(terms.fill(u)), cfg.t_end - t)
        u = step(terms, u, dt)
        t += dt
        n += 1
        sup = float(u.max())
        done = (not np.isfinite(sup) or sup > solver.DIVERGENCE_FACTOR * sup0
                or sup <= tol_ext or t >= cfg.t_end - 1e-12 * cfg.t_end)
        if done or n % cfg.series_stride == 0:
            record(t, u, sup)
    return n, np.array(rows)


@pytest.mark.parametrize("gp", [None, 0.5], ids=["plain", "gradient"])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("case", ["explicit", "semi_implicit", "zero", "diverged", "lifted",
                                  "sunk", "overflow"])
def test_block_recorded_series_equals_the_per_state_formulas(monkeypatch, case, stride, gp):
    # run measures its recorded states a block at a time; every column
    # must equal the per-state formulas bit for bit, across block edges
    # (M = 64: blocks of 128 states; M = 1024: of 8) and in a last, partly
    # filled block.  The gradient column stops at a block's last column
    # with a cell above the floor; a lift keeps the last cell above it,
    # so there that column is the grid's last.  With a floor the state
    # sinks below, a block holds rows with no cell above it (their column
    # reads 0.0) beside rows with some; an overflowing step records a
    # state with infinite cells, whose gradient column is NaN
    import vhjlab.solver as solver
    grid, reg = RadialGrid(P_A.N, 4.0, 64), Regularization(eps=1e-3)
    prm, ic = P_A, Bump(P_A, m=1 / 96, R0=1.0)
    kw = dict(t_end=0.6, tol_ext=1e-7, tol_pos=1e-7, series_stride=stride,
              series_gradient_power=gp, series_gradient_floor=1e-5)
    if case == "semi_implicit":
        prm, ic = P_B, Bump(P_B, m=1 / 96, R0=1.0)
        grid = RadialGrid(P_B.N, 4.0, 1024)
        kw.update(scheme="semi_implicit")
    elif case == "zero":
        kw.update(tol_ext=2.0 * ic.sup())
    elif case == "diverged":
        overstep(monkeypatch, "explicit")
    elif case == "lifted":
        kw.update(lift=1e-3)
    elif case == "sunk":
        kw.update(series_gradient_floor=1e-3)
    elif case == "overflow":
        # a step of 1e308 takes cells of the unit bump to +-inf
        ic = Bump(P_A, m=1.0, R0=1.0)
        monkeypatch.setitem(SCHEMES, "explicit", (lambda terms: 1e308, SCHEMES["explicit"][1]))
        kw.update(t_end=1.5e308)
    cfg = SolverConfig(**kw)
    with np.errstate(over="ignore", invalid="ignore"):
        res = run(prm, grid, reg, ic, cfg)
        n, rows = _reference_series(prm, grid, reg, ic, cfg)
    assert res.n_steps == n
    if case == "zero":
        assert (res.outcome, n) == (Outcome.EXTINCT, 0)
    elif case == "diverged":
        assert res.outcome is Outcome.DIVERGED
    elif case == "overflow":
        assert (res.outcome, n) == (Outcome.DIVERGED, 1)
        assert math.isinf(rows[-1, 1]) and math.isinf(rows[-1, 3])
        if gp is not None:
            assert math.isnan(rows[-1, 4])
    else:
        K = max(1, solver.RECORD_BLOCK_CELLS // grid.M)
        assert len(rows) > K and len(rows) % K
        if case == "sunk" and gp is not None:
            # rows whose sup sits at or below the floor, in a block with a
            # row above it: the column's cut lies past cell 0 there
            sunk = [i for i in np.flatnonzero(rows[:, 1] <= cfg.series_gradient_floor)
                    if (rows[i // K * K:(i // K + 1) * K, 1] > cfg.series_gradient_floor).any()]
            assert sunk and (rows[sunk, 4] == 0.0).all()
    names = ["t", "sup", "support_radius", "mass"] + ["grad_pow_sup"] * (gp is not None)
    assert sorted(res.series) == sorted(names)
    for j, name in enumerate(names):
        assert res.series[name].tobytes() == rows[:, j].tobytes(), name


@pytest.mark.parametrize("scheme, prm, powers", [("explicit", P_A, 1),
                                                 ("semi_implicit", P_B, 2),
                                                 ("semi_implicit", P_A, 1)],
                         ids=["explicit_p2", "semi_implicit_p1.8", "semi_implicit_p2"])
def test_powers_over_a_whole_state_per_step(monkeypatch, scheme, prm, powers):
    # a step takes Z = z^(q/2) once, shared by the absorption and the
    # semi-implicit bound's rate, and at p < 2 the mobility power; the
    # explicit bound's cell-0 power is one cell, not counted here
    import vhjlab.gridop as gridop
    grid = RadialGrid(prm.N, 4.0, 64)
    counted = []

    def power(x, *args, **kwargs):
        if np.shape(x)[-1:] in ((grid.M,), (grid.M + 1,)):
            counted.append(np.shape(x))
        return np.power(x, *args, **kwargs)

    class CountingNumpy:
        def __getattr__(self, name):
            return power if name == "power" else getattr(np, name)

    monkeypatch.setattr(gridop, "np", CountingNumpy())
    res = run(prm, grid, Regularization(eps=1e-3), Bump(prm, m=1 / 96, R0=1.0),
              SolverConfig(t_end=0.05 if scheme == "explicit" else 2.0, scheme=scheme,
                           tol_ext=1e-7))
    assert res.n_steps > 20
    assert len(counted) == powers * res.n_steps
