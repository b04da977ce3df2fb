import tracemalloc

import numpy as np
# np.unique imports numpy.ma on its first call; loaded here, that import is
# not counted in the traced (tracemalloc) peak of whichever test calls it first
import numpy.ma  # noqa: F401
import pytest
from hypothesis import settings

import sublex as sx
from sublex import gnormal, iid

# a failing randomized test prints the @reproduce_failure line that replays it
settings.register_profile("sublex", print_blob=True)
settings.load_profile("sublex")


@pytest.fixture(scope="session")
def theta_star() -> sx.AmbiguitySet:
    return sx.canonical_set()


@pytest.fixture(scope="session")
def coin() -> sx.AmbiguitySet:
    """Single-measure fair +-1 coin: the classical degenerate case."""
    return sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5),))


@pytest.fixture(scope="session")
def cp_cache():
    """G-normal absolute moments for the canonical variance interval (0.5, 1),
    as the library resolves them (closed form for p >= 1, residual 0), once
    per session."""
    params = sx.GNormalParams(0.5, 1.0)
    grid = sx.default_grid(params)
    cache: dict[float, sx.GExpectationResult] = {}

    def get(p: float) -> sx.GExpectationResult:
        if p not in cache:
            value, residual = gnormal._limit_abs_moment(p, params, grid)
            cache[p] = sx.GExpectationResult(value, grid, residual)
        return cache[p]

    return get


def random_ambiguity(rng: np.random.Generator, max_atoms: int = 5, max_measures: int = 4):
    n_atoms = int(rng.integers(2, max_atoms + 1))
    atoms = np.cumsum(0.2 + rng.random(n_atoms)) - 1.5
    rows = []
    for _ in range(int(rng.integers(1, max_measures + 1))):
        w = rng.random(n_atoms) + 1e-3
        rows.append(w / w.sum())
    return sx.AmbiguitySet.from_rows(atoms, rows)


def random_mean_zero_ambiguity(rng: np.random.Generator, max_measures: int = 3):
    """Atoms {-a, 0, b} with weights balanced to a common zero mean."""
    a = 0.3 + rng.random()
    b = 0.3 + rng.random()
    rows = []
    for _ in range(int(rng.integers(1, max_measures + 1))):
        u = 0.05 + 0.9 * rng.random()
        w_plus = u * a / (a + b)
        w_minus = u * b / (a + b)
        rows.append((w_minus, 1.0 - w_plus - w_minus, w_plus))
    return sx.AmbiguitySet.from_rows((-a, 0.0, b), rows)


def traced_outcomes(call, horizons):
    """Runs ``call(n)`` for increasing n until it raises CapacityError,
    asserting that no run's traced peak passes the budget."""
    outcomes = []
    for n in horizons:
        tracemalloc.start()
        try:
            call(n)
            outcomes.append("built")
        except sx.CapacityError:
            outcomes.append("raised")
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak <= iid.CHAIN_BUDGET_BYTES, (n, peak)
        if outcomes[-1] == "raised":
            break
    return outcomes
