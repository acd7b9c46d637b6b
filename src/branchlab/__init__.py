"""branchlab: exact and Monte Carlo tools for strongly critical
decomposable multitype branching cascades."""

__version__ = "0.1.0"

from .errors import (
    AcceptanceTooLow,
    BranchLabError,
    ConfigError,
    DegenerateVariance,
    HypothesisViolation,
    InvalidMoments,
    MissingLink,
    ModelStructureError,
    NonCritical,
    PrecisionLoss,
    SlowConvergence,
    UnreachableEvent,
)
from .families import Bernoulli, Geometric, PointMass, Poisson
from .model import (
    MomentData,
    ProcessSpec,
    ProductLaw,
    TableLaw,
    Violation,
    check_assumptions,
    survival_map,
    validate_hypothesis_A,
)
from .config import load_model, loads_model

# Loading a model needs only the modules imported above.  Each module
# below loads on first use of its name or of one of the names listed
# with it (the sampler, the one module that needs numpy at import time,
# among them), and every access reads the name from its home module, so
# a name patched there is the one the package serves.
_LAZY = {
    "constants": ("ConstantSet", "constant_set"),
    "pgf": ("HarmonicResult", "SurvivalTable", "WResult",
            "build_survival_table", "censored_transform",
            "conditional_transform", "extinction_time_pmf", "harmonic_U",
            "iterate_point", "terminal_gap", "w_transform",
            "w_weighted_mean"),
    "experiments": ("ConvergenceReport", "ReportRow", "limit_death",
                    "limit_deathfin", "limit_finalstage", "verify_death",
                    "verify_deathfin", "verify_diff_lemmas",
                    "verify_finalstage", "verify_foster", "verify_laplace_W",
                    "verify_local"),
    "zoo": ("STOCK_MODELS", "micro_table", "single_geometric", "stock_model",
            "three_type_chain", "two_type_cascade"),
    "montecarlo": ("Censored", "EstimateWithCI", "SimConfig",
                   "TrajectorySummary", "conditional_estimate",
                   "estimate_pmf_T", "simulate_once"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not ``from . import ...``, which asks this hook first
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | {*_LAZY, *_HOME})
