# np.unique imports numpy.ma on its first call; loaded here, that import is
# not counted in the traced (tracemalloc) peak of whichever test calls it first
import numpy.ma  # noqa: F401
import pytest
from hypothesis import settings

import sublex as sx
from sublex import gnormal

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
            value, residual = gnormal._limit_abs_moment(p, params)
            cache[p] = sx.GExpectationResult(value, grid, residual)
        return cache[p]

    return get
