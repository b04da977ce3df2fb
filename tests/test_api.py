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
