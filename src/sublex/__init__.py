"""sublex: exact sublinear-expectation experiments on finite ambiguity sets."""

from .core import (
    ATOL,
    AmbiguitySet,
    AxiomReport,
    SupportGrid,
    axiom_report,
    canonical_set,
    capacity_pair,
    lower_expect,
    seminorm,
    upper_expect,
)
from .errors import CapacityError, CheckError, Error, ParameterError
from .gnormal import (
    GExpectationResult,
    GNormalParams,
    HeatGrid,
    classical_abs_moment,
    default_grid,
    evolve,
    g_expectation,
    g_function,
    semigroup_check,
)
from .iid import (
    SelectionPolicy,
    SumLattice,
    brute_force_oracle,
    capacity_sum_event,
    eval_additive_functional,
    eval_maxabs_functional,
    eval_sum_functional,
    eval_sumsq_functional,
    sum_functional_series,
    sum_lattice,
)
from .lln import (
    DichotomyVerdict,
    MZReport,
    SeriesReport,
    SqsSummary,
    cc_series,
    clt_gap,
    corollary_series,
    dichotomy_diagnosis,
    fit_tail,
    holder_step_check,
    moment_dichotomy_scan,
    mz_check,
    mz_trend_slope,
    slp_series,
    sqs_empirical,
    subadditive_series_check,
    tail_consistency,
)

__version__ = "0.1.0"
