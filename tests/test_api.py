"""The public names of ``sublex``, pinned: a change to the API shows in the diff."""

import ast
import types
from pathlib import Path

import pytest

import sublex as sx

PUBLIC_NAMES = [
    "ATOL", "AmbiguitySet", "AxiomReport", "CapacityError", "CheckError", "DichotomyVerdict",
    "Error", "GExpectationResult", "GNormalParams", "HeatGrid", "MZReport",
    "ParameterError", "SelectionPolicy", "SeriesReport", "SqsSummary", "SumLattice",
    "SupportGrid", "axiom_report", "brute_force_oracle", "canonical_set", "capacity_pair",
    "capacity_sum_event", "cc_series", "classical_abs_moment", "clt_gap", "corollary_series",
    "default_grid", "dichotomy_diagnosis", "eval_additive_functional",
    "eval_maxabs_functional", "eval_sum_functional", "eval_sumsq_functional", "evolve",
    "fit_tail", "g_expectation", "g_function", "holder_step_check", "lower_expect",
    "moment_dichotomy_scan", "mz_check", "mz_trend_slope", "semigroup_check", "seminorm",
    "slp_series", "sqs_empirical", "subadditive_series_check", "sum_functional_series",
    "sum_lattice", "tail_consistency", "upper_expect",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on import order
    names = sorted(
        name for name, value in vars(sx).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def _package_imports(module: str) -> set[str]:
    """The sibling modules that ``sublex/<module>.py`` imports, by ``from .x import``
    or ``from . import x``."""
    tree = ast.parse((Path(sx.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("core", {"errors"}),
        ("iid", {"core", "errors"}),
        ("gnormal", {"core", "errors"}),
        ("lln", {"core", "errors", "gnormal", "iid"}),
    ],
)
def test_layers_import_only_the_layers_below(module, allowed):
    assert _package_imports(module) <= allowed


NAN = float("nan")
PARAMS = sx.GNormalParams(0.5, 1.0)
GRID = sx.HeatGrid(4.0, 11, 0.1)

#: One call per range check, with NaN for the parameter it checks.
NAN_PARAMETER_CALLS = {
    "seminorm-p": lambda fam: sx.seminorm(fam, abs, NAN),
    "axiom_report-lam": lambda fam: sx.axiom_report(fam, abs, abs, NAN, 0.0),
    "HeatGrid-half_width": lambda fam: sx.HeatGrid(NAN, 11, 0.1),
    "HeatGrid-dt": lambda fam: sx.HeatGrid(4.0, 11, NAN),
    "evolve-t": lambda fam: sx.evolve(abs(GRID.x), NAN, PARAMS, GRID),
    "classical_abs_moment-p": lambda fam: sx.classical_abs_moment(NAN, 1.0),
    "semigroup_check-a": lambda fam: sx.semigroup_check(abs, NAN, 1.0, PARAMS, GRID),
    "clt_gap-p": lambda fam: sx.clt_gap(fam, 4, NAN),
    "slp_series-p": lambda fam: sx.slp_series(fam, NAN, 4),
    "mz_check-alpha": lambda fam: sx.mz_check(fam, NAN, [2, 3]),
    "corollary_series-p": lambda fam: sx.corollary_series(fam, NAN, 3.0, 4),
    "corollary_series-beta": lambda fam: sx.corollary_series(fam, 3.0, NAN, 4),
    "subadditive_series_check-beta": lambda fam: sx.subadditive_series_check(fam, NAN, 4),
    "cc_series-eps": lambda fam: sx.cc_series(fam, NAN, 4.0, 10),
    "cc_series-alpha": lambda fam: sx.cc_series(fam, 0.5, NAN, 10),
    "sqs_empirical-beta": lambda fam: sx.sqs_empirical(fam, NAN, 4, 10, 0),
}


@pytest.mark.parametrize("call", list(NAN_PARAMETER_CALLS))
def test_a_nan_parameter_is_a_parameter_error(theta_star, call):
    with pytest.raises(sx.ParameterError):
        NAN_PARAMETER_CALLS[call](theta_star)
