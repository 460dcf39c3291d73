"""Numerical laboratory for extinction in gradient-absorbing fast diffusion.

The flow under study is radial fast diffusion with a power absorption of
the gradient.  The library derives the exponent laws of the problem,
builds the closed-form comparison profiles those laws admit, integrates
the regularized equation on radial grids, and measures the extinction
phenomenology against the certified profiles: rates, support collapse,
localization, positivity floors, and the flatness diagnostics.

Modules
-------
exponents   parameter validation, regime classification, derived constants
gridop      radial grids, discrete operator, regularization, step control
closedform  comparison profiles with sampled sign certificates
solver      time integration to extinction, divergence, or the horizon
analysis    rate fits, domination checks, envelopes, flux diagnostics
config      the schema and reader of every JSON document the cli takes
acceptance  the numbered verification battery behind ``vhjlab verify``
cli         run directories, the command line: I/O only
"""

from types import ModuleType as _Module

from .exponents import (
    DerivedConstants,
    ExponentOutOfRange,
    NonIntegerDimension,
    ProblemParams,
    Regime,
    RegimeMismatch,
    classify_regime,
    derive_constants,
    validate_params,
)
from .gridop import (
    GridMismatch,
    RadialGrid,
    Regularization,
    StepTerms,
    default_eps,
    discrete_rhs,
    stable_dt,
)
from .closedform import (
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
from .solver import (
    Bump,
    DataShapeError,
    FastDecay,
    FatTail,
    Outcome,
    RunResult,
    SolverConfig,
    run,
)
from .analysis import (
    DominationReport,
    EmptySupport,
    FitResult,
    InsufficientPoints,
    JDiagnostic,
    check_domination,
    fit_exponent,
    flatness_floor,
    flux_balance,
    gradient_quotient,
    j_diagnostic,
    localization_radius,
    support_radius,
)
from .acceptance import SUITES, Battery, CriterionResult, run_suite

__version__ = "0.1.0"

# the public names imported above, not the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module)) + ["__version__"]
