"""branchlab: exact and Monte Carlo tools for strongly critical
decomposable multitype branching cascades."""

__version__ = "0.1.0"

from .constants import ConstantSet, check_identity_c1N, constant_set
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
    expectation_matrix,
    pgf_eval,
    sample_offspring,
    survival_map,
    validate_hypothesis_A,
)
from .config import load_model, loads_model
from .pgf import (
    HarmonicResult,
    SurvivalTable,
    WResult,
    build_survival_table,
    censored_transform,
    conditional_transform,
    extinction_time_pmf,
    harmonic_U,
    iterate_point,
    terminal_gap,
    w_transform,
    w_weighted_mean,
)
from .experiments import (
    ConvergenceReport,
    ReportRow,
    limit_death,
    limit_deathfin,
    limit_finalstage,
    verify_death,
    verify_deathfin,
    verify_diff_lemmas,
    verify_finalstage,
    verify_foster,
    verify_laplace_W,
    verify_local,
)
from .zoo import (
    STOCK_MODELS,
    micro_table,
    single_geometric,
    stock_model,
    three_type_chain,
    two_type_cascade,
)

# The sampler is the one module that needs numpy at import time, so it
# loads on first use and ``import branchlab`` does not load numpy.
_SAMPLER = ("Censored", "EstimateWithCI", "SimConfig", "TrajectorySummary",
            "conditional_estimate", "estimate_pmf_T", "simulate_once")


def __getattr__(name):
    if name == "montecarlo" or name in _SAMPLER:
        # not ``from . import montecarlo``, which asks this hook first
        from importlib import import_module

        montecarlo = import_module(f"{__name__}.montecarlo")
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["montecarlo", *_SAMPLER])
