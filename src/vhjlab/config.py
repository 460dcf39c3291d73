"""Experiment configs: the schema, its checks, and their assembly.

One JSON document describes an experiment.  resolve_experiment builds
its objects once into an ``Experiment``, which holds each setting in one
place (eps and tol_pos defaulted, the domination profiles built),
and ``Experiment.resolved`` holds their JSON, every default filled in:
resolved-config.json, from which any run can be reproduced.  Unknown
keys are rejected with their full path, and type errors name the
offending key the same way (``grid.M: expected an integer ...``).

Config keys, their types and their defaults are those of the library's
signatures, read once at import, and the same schemas write the resolved
document from the objects built: a parameter's name is the key, its type
hint picks the check (int, float, bool, str, a float list for tuple,
null allowed for Optional, one of its values for Literal; numbers must be
finite) and its default is the key's default; a parameter without one is
a required key.  By section:

problem         N, p, q of ProblemParams, checked by validate_params
ic              kind (bump, fast_decay, fat_tail) and the parameters of
                Bump, FastDecay or FatTail; a bump also accepts the
                notes flat_certified and amplitude_bound, which
                resolved-config.json writes and the reader ignores
grid            r_max, M of RadialGrid (N is the problem's)
regularization  eps, counterterm of Regularization; eps absent or null
                is default_eps of the grid
solver          every field of SolverConfig
analysis        j_R0 (R0 of j_diagnostic, needs q < p-1; null skips it),
                domination: a list of {profile, sense, tol, r_window}
                for check_domination
output          dir (null: the config's path without its suffix)

A profile object (residual, domination) has a kind and the parameters
of its builder: barrier (Barrier), shrink_envelope (make_shrink_super),
tail_floor (make_tail_sub) or decaying_envelope (make_selfsim_super).
A domination r_window is two numbers lo < hi with at least one cell
centre of the grid between them.  The other documents:

residual        problem, profile, box ([t_lo, t_hi, r_lo, r_hi]), sense,
                n_t and n_r of certify_sign, seed (a non-negative integer
                for the sampling jitter) and output (null: print only)
sweep           base (an experiment document), sweep (an object mapping
                dotted key paths to non-empty value lists) and dir (the
                root of the job directories, default sweep-runs)
summary.json    what analyze reads of a run directory's summary: outcome
                (an Outcome value), T_e_est, sup0 and tol_pos of
                RunResult, n_series (at least 1) and n_snapshots; other
                keys are ignored
"""

from __future__ import annotations

import copy
import inspect
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from enum import Enum
from typing import (Callable, Literal, NamedTuple, Optional, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .analysis import check_domination, window_cells
from .closedform import Barrier, certify_sign, make_selfsim_super, \
    make_shrink_super, make_tail_sub
from .exponents import ProblemParams, single_point_constants, validate_params
from .gridop import RadialGrid, Regularization, default_eps
from .solver import Bump, FastDecay, FatTail, RunResult, SolverConfig


class ConfigError(ValueError):
    """Configuration problem; the message starts with the key path."""


_MISSING = inspect.Parameter.empty


# ----- typed config extraction ------------------------------------------

def _label(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _pop(sec: dict, path: str, key: str):
    if key not in sec:
        raise ConfigError(f"{_label(path, key)}: required key is missing")
    return sec.pop(key)


def _as_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label}: expected an integer, got {value!r}")
    return value


def _as_seed(value, label: str) -> int:
    if _as_int(value, label) < 0:
        raise ConfigError(f"{label}: expected a non-negative integer, got {value!r}")
    return value


def _as_float(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:           # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):        # JSON also reads NaN and +-Infinity
        raise ConfigError(f"{label}: expected a finite number, got {value!r}")
    return x


def _as_bool(value, label: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{label}: expected true or false, got {value!r}")
    return value


def _as_str(value, label: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{label}: expected a string, got {value!r}")
    return value


def _as_choice(value, label: str, choices: tuple) -> str:
    if value not in choices:
        raise ConfigError(f"{label}: expected {' or '.join(map(repr, choices))}, "
                          f"got {value!r}")
    return value


def _as_floats(value, label: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{label}: expected a list of numbers, got {value!r}")
    return tuple(_as_float(v, f"{label}[{i}]") for i, v in enumerate(value))


_CHECKS = {int: _as_int, float: _as_float, bool: _as_bool, str: _as_str,
           tuple: _as_floats}


def _check(hint) -> Callable:
    """The check for a type hint; Optional[X] admits null, Literal[...] is a
    choice, an Enum a value of its values' type and then a choice of them."""
    args = get_args(hint)
    if get_origin(hint) is Literal:
        return lambda value, label: _as_choice(value, label, args)
    if isinstance(hint, type) and issubclass(hint, Enum):
        values = tuple(member.value for member in hint)
        typed = _CHECKS[type(values[0])]
        return lambda value, label: _as_choice(typed(value, label), label, values)
    if type(None) not in args:
        return _CHECKS[hint]
    check = _CHECKS[args[0]]
    return lambda value, label: None if value is None else check(value, label)


class _Key(NamedTuple):
    name: str
    check: Callable
    default: object


def _keys(fn, names=None, skip=()) -> tuple:
    """Config keys of fn's parameters: name, type check and default.

    names picks and orders the parameters, skip leaves some out.  The
    schemas below are read once, at import, so rebinding a module
    attribute later (say, wrapping it for tracing) leaves them intact.
    """
    hints = get_type_hints(fn.__init__ if isinstance(fn, type) else fn)
    params = inspect.signature(fn).parameters
    return tuple(_Key(name, _check(hints[name]), params[name].default)
                 for name in names or params if name not in skip)


def _read(sec: dict, path: str, keys) -> dict:
    """Checked values of keys in sec, defaults filled in; other keys are errors."""
    out = {}
    for name, check, default in keys:
        if name in sec or default is _MISSING:
            out[name] = check(_pop(sec, path, name), _label(path, name))
        else:
            out[name] = default
    if sec:
        raise ConfigError(f"{_label(path, sorted(sec)[0])}: unknown key")
    return out


def _written(obj, keys) -> dict:
    """The values obj holds under the names of keys: what _read would
    give back for them, every default resolved."""
    return {key.name: getattr(obj, key.name) for key in keys}


@contextmanager
def config_errors(path: str):
    """Report a library ValueError as a ConfigError under path ("" adds none)."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def _build(make, keys, sec: dict, path: str, *args):
    kw = _read(sec, path, keys)
    with config_errors(path):
        return make(*args, **kw)


def _section(doc: dict, key: str, required: bool = True) -> dict:
    """Remove doc[key] and return a copy of it, which must be an object."""
    sec = doc.pop(key, _MISSING)
    if sec is _MISSING:
        if required:
            raise ConfigError(f"{key}: required section is missing")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{key}: expected an object, got {sec!r}")
    return dict(sec)


def with_overrides(doc: dict, overrides: dict) -> dict:
    """A copy of doc with each dotted key path (``grid.M``) set to its
    value in overrides, making sections on the way."""
    doc = copy.deepcopy(doc)
    for dotted, value in overrides.items():
        *sections, key = dotted.split(".")
        node = doc
        for k in sections:
            if not isinstance(node.get(k), dict):
                node[k] = {}
            node = node[k]
        node[key] = value
    return doc


def jsonable(x):
    """x with dataclasses expanded to dicts of their fields, enums
    replaced by their values, tuples and arrays turned into lists and
    numpy scalars into Python numbers."""
    if is_dataclass(x) and not isinstance(x, type):
        return jsonable(asdict(x))
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    return x


# (builder, keys); the problem is supplied by the caller
_CONTEXT = ("problem",)
_PROBLEM = (validate_params, _keys(ProblemParams))
_GRID = (RadialGrid, _keys(RadialGrid, skip=("N",)))
_REG = (Regularization, _keys(Regularization))
_SOLVER = (SolverConfig, _keys(SolverConfig))
_IC = {cls.kind: (cls, _keys(cls, skip=_CONTEXT))
       for cls in (Bump, FastDecay, FatTail)}
# attributes that resolved-config.json writes beside an ic's keys; the
# reader drops them, since construction recomputes them
_NOTES = {Bump: ("flat_certified", "amplitude_bound")}
_PROFILES = {kind: (make, _keys(make, skip=_CONTEXT))
             for kind, make in (("barrier", Barrier),
                                ("shrink_envelope", make_shrink_super),
                                ("tail_floor", make_tail_sub),
                                ("decaying_envelope", make_selfsim_super))}
_ANALYSIS = (_Key("j_R0", _check(Optional[float]), None),)  # null: no J run
_DOMINATION = _keys(check_domination, ("sense", "tol", "r_window"))
_OUTPUT = (_Key("dir", _check(Optional[str]), None),)
_RESIDUAL = (_keys(certify_sign, ("box", "sense", "n_t", "n_r"))
             + (_Key("seed", _as_seed, 0), _Key("output", _check(Optional[str]), None)))
_SWEEP_DIR = (_Key("dir", _as_str, "sweep-runs"),)
_SUMMARY = (_keys(RunResult, ("outcome", "T_e_est", "sup0", "tol_pos"))
            + (_Key("n_series", _as_int, _MISSING), _Key("n_snapshots", _as_int, _MISSING)))


# ----- experiment assembly ------------------------------------------------

@dataclass
class Experiment:
    """The objects an experiment document builds; resolved is their JSON."""
    problem: ProblemParams
    grid: RadialGrid
    reg: Regularization
    ic: object
    cfg: SolverConfig
    j_R0: Optional[float]        # None: no J diagnostic
    domination: list             # (profile, check_domination keywords)
    out_dir: Optional[str]
    resolved: dict


def _build_kind(kinds: dict, spec, path: str, problem: ProblemParams, expected: str):
    """Construct the object spec's kind names in kinds (kind: (builder,
    keys)); expected ends the message for an unknown kind."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    spec = dict(spec)
    kind = _as_str(_pop(spec, path, "kind"), f"{path}.kind")
    if kind not in kinds:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}{expected}")
    make, keys = kinds[kind]
    for note in _NOTES.get(make, ()):
        spec.pop(note, None)
    return _build(make, keys, spec, path, problem)


def build_profile(problem: ProblemParams, spec: dict, path: str = "profile"):
    """Construct a closed-form comparison profile from a config object."""
    return _build_kind(_PROFILES, spec, path, problem, "")


def resolve_experiment(doc: dict) -> Experiment:
    """Validate a config document and materialize every default."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    doc = dict(doc)
    problem = _build(*_PROBLEM, _section(doc, "problem"), "problem")
    ic = _build_kind(_IC, _section(doc, "ic"), "ic", problem,
                     "; expected bump, fast_decay or fat_tail")
    grid = _build(*_GRID, _section(doc, "grid"), "grid", problem.N)
    reg_sec = _section(doc, "regularization", required=False)
    if reg_sec.get("eps") is None:
        reg_sec["eps"] = default_eps(grid)
    reg = _build(*_REG, reg_sec, "regularization")
    cfg = _build(*_SOLVER, _section(doc, "solver"), "solver")
    an_sec = _section(doc, "analysis", required=False)
    specs = an_sec.pop("domination", [])
    j_R0 = _read(an_sec, "analysis", _ANALYSIS)["j_R0"]
    if j_R0 is not None:
        with config_errors("analysis.j_R0"):
            single_point_constants(problem, "J diagnostic")
    if not isinstance(specs, list):
        raise ConfigError("analysis.domination: expected a list of profile "
                          "check objects")
    domination = []
    for i, spec in enumerate(specs):
        path = f"analysis.domination[{i}]"
        if not isinstance(spec, dict):
            raise ConfigError(f"{path}: expected an object")
        spec = dict(spec)
        profile_spec = _pop(spec, path, "profile")
        kw = _read(spec, path, _DOMINATION)
        if kw["r_window"] is not None:
            with config_errors(path):
                window_cells(grid, kw["r_window"])
        domination.append((build_profile(problem, profile_spec, f"{path}.profile"), kw))
    output = _read(_section(doc, "output", required=False), "output", _OUTPUT)
    _read(doc, "", ())              # a key left at the top level is unknown

    resolved = jsonable({
        "problem": _written(problem, _PROBLEM[1]),
        "ic": {"kind": ic.kind, **_written(ic, _IC[ic.kind][1]),
               **{note: getattr(ic, note) for note in _NOTES.get(type(ic), ())}},
        "grid": _written(grid, _GRID[1]),
        "regularization": _written(reg, _REG[1]),
        "solver": _written(cfg, _SOLVER[1]),
        "analysis": {"j_R0": j_R0, "domination": specs},
        "output": output,
    })
    return Experiment(problem=problem, grid=grid, reg=reg, ic=ic, cfg=cfg, j_R0=j_R0,
                      domination=domination, out_dir=output["dir"], resolved=resolved)


# ----- the other documents ------------------------------------------------

def read_residual(doc: dict) -> tuple:
    """certify_sign's keywords from a residual document, with its profile
    built and rng seeded, and the output path."""
    doc = dict(doc)
    problem = _build(*_PROBLEM, _section(doc, "problem"), "problem")
    profile = build_profile(problem, _pop(doc, "", "profile"))
    kw = _read(doc, "", _RESIDUAL)
    if len(kw["box"]) != 4:
        raise ConfigError("box: expected [t_lo, t_hi, r_lo, r_hi]")
    rng, output = np.random.default_rng(kw.pop("seed")), kw.pop("output")
    return {"profile": profile, **kw, "rng": rng}, output


def read_sweep(doc: dict) -> tuple:
    """A sweep document's base, axes and dir; the base is left to
    resolve_experiment."""
    doc = dict(doc)
    base, axes = _pop(doc, "", "base"), _pop(doc, "", "sweep")
    out_root = _read(doc, "", _SWEEP_DIR)["dir"]
    if not isinstance(base, dict):
        raise ConfigError("base: expected an experiment object")
    if not isinstance(axes, dict) or not axes:
        raise ConfigError("sweep: expected a non-empty object mapping "
                          "dotted key paths to value lists")
    for dotted, values in axes.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{dotted}: expected a non-empty list")
    return base, axes, out_root


def read_summary(doc: dict, path) -> dict:
    """The keys analyze reads of the summary.json at path, checked, as
    doc holds them; the messages start with path."""
    for key in _SUMMARY:
        if key.name not in doc:
            raise ConfigError(f"{path}: missing key {key.name!r}")
        key.check(doc[key.name], f"{path}: {key.name}")
    if doc["n_series"] < 1:
        raise ConfigError(f"{path}: n_series is {doc['n_series']}, "
                          "but a run records at least its initial state")
    return {key.name: doc[key.name] for key in _SUMMARY}
