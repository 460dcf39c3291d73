"""Property tests: regime tags and the config layer's round trip and defaults."""

import json
from dataclasses import asdict, fields

from hypothesis import example, given, settings, strategies as st

from vhjlab.cli import resolve_experiment
from vhjlab.exponents import Regime, classify_regime, validate_params
from vhjlab.solver import SolverConfig

FLOATS = {"allow_nan": False, "allow_infinity": False}


def floats(lo, hi):
    return st.floats(lo, hi, **FLOATS)


def maybe(strategy):
    return st.none() | strategy


@settings(max_examples=400, deadline=None)
@given(N=st.integers(-1, 6), p=floats(0.5, 3.0), q=floats(-0.5, 2.5))
@example(N=1, p=1.0, q=0.5)           # p at p_c = 1
@example(N=2, p=4.0 / 3.0, q=0.1)     # p at p_c = 4/3
@example(N=1, p=2.0, q=1.0)           # q = p - 1 = p/2: window empty at p = 2
@example(N=2, p=1.8, q=0.8)           # q = p - 1
@example(N=2, p=1.8, q=0.9)           # q = p/2
@example(N=1, p=2.0, q=0.0)
@example(N=0, p=2.0, q=0.5)
@example(N=1.5, p=2.0, q=0.5)         # not an integer dimension
@example(N=True, p=2.0, q=0.5)        # a bool is not a dimension
@example(N=1, p=2.0, q=float("nan"))   # a non-finite q is no exponent
@example(N=1, p=2.0, q=float("inf"))
@example(N=2, p=1.99, q=5e-324)        # a subnormal q is no exponent
def test_regimes_partition_the_admissible_set(N, p, q):
    regime = classify_regime(N, p, q)
    try:
        validate_params(N, p, q)
        admissible = True
    except ValueError:
        admissible = False
    assert admissible == (regime is not Regime.OUT_OF_SCOPE)
    if admissible:
        holds = {Regime.SINGLE_POINT: q < p - 1.0,
                 Regime.COMPLETE_EXTINCTION: p - 1.0 <= q < p / 2.0,
                 Regime.NO_EXTINCTION: q >= p / 2.0}
        assert [r for r, ok in holds.items() if ok] == [regime]


@st.composite
def single_point_problems(draw):
    """(N, p, q) with q < p - 1: every initial datum exists."""
    N = draw(st.integers(1, 3))
    p = draw(floats(max(2.0 * N / (N + 1.0), 1.1) + 0.05, 2.0))
    q = draw(floats(0.02, p - 1.05))
    return {"N": N, "p": p, "q": q}


def initial_data(q):
    thr = q / (1.0 - q)
    return st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("bump"), "m": floats(1e-3, 10.0), "R0": floats(0.1, 3.0)},
            optional={"power": maybe(floats(1.0, 5.0))}),
        st.fixed_dictionaries(
            {"kind": st.just("fast_decay"), "C": floats(0.1, 5.0),
             "theta": floats(thr, thr + 5.0)}),
        st.fixed_dictionaries(
            {"kind": st.just("fat_tail"), "C": floats(0.1, 5.0),
             "rho": floats(0.0, 0.99 * thr)}))


SOLVER_OPTIONAL = {
    "scheme": st.sampled_from(["explicit", "semi_implicit"]),
    "tol_pos": maybe(floats(1e-12, 1.0)),
    "series_stride": st.integers(1, 100),
    "snapshot_times": st.lists(floats(0.0, 10.0), max_size=4),
    "lift": floats(0.0, 1.0),
    "series_gradient_power": maybe(floats(0.5, 3.0)),
    "series_gradient_floor": floats(0.0, 1.0),
}


def test_the_solver_strategy_covers_every_field():
    names = {f.name for f in fields(SolverConfig)}
    assert set(SOLVER_OPTIONAL) | {"t_end", "tol_ext"} == names


@st.composite
def experiments(draw):
    problem = draw(single_point_problems())
    return {
        "problem": problem,
        "ic": draw(initial_data(problem["q"])),
        "grid": {"r_max": draw(floats(0.5, 20.0)), "M": draw(st.integers(4, 4096))},
        "regularization": draw(st.fixed_dictionaries({}, optional={
            "eps": maybe(floats(1e-9, 1.0)),
            "counterterm": st.booleans()})),
        "solver": draw(st.fixed_dictionaries({"t_end": floats(1e-3, 10.0),
                                              "tol_ext": floats(1e-12, 1.0)},
                                             optional=SOLVER_OPTIONAL)),
        "analysis": draw(st.fixed_dictionaries({}, optional={
            "j_R0": maybe(floats(0.1, 5.0))})),
    }


def dump(resolved):
    return json.dumps(resolved, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None)
@given(doc=experiments())
def test_a_resolved_config_resolves_to_itself(doc):
    resolved = resolve_experiment(doc).resolved
    assert resolve_experiment(resolved).resolved == resolved
    # byte for byte, as resolved-config.json is written
    again = resolve_experiment(json.loads(dump(resolved))).resolved
    assert dump(again) == dump(resolved)


@settings(max_examples=60, deadline=None)
@given(problem=single_point_problems(), t_end=floats(1e-3, 10.0),
       tol_ext=floats(1e-12, 1.0))
def test_minimal_config_takes_its_defaults_from_the_library(problem, t_end, tol_ext):
    exp = resolve_experiment({
        "problem": problem, "ic": {"kind": "bump", "m": 0.01, "R0": 1.0},
        "grid": {"r_max": 4.0, "M": 64}, "solver": {"t_end": t_end, "tol_ext": tol_ext}})
    cfg = SolverConfig(t_end=t_end, tol_ext=tol_ext)
    assert cfg.tol_pos == tol_ext
    assert exp.resolved["solver"] == {**asdict(cfg), "snapshot_times": []}
    assert exp.resolved["analysis"] == {"j_R0": None, "domination": []}
