"""Plain helpers shared by the test modules; fixtures live in conftest.py."""

import tracemalloc

import numpy as np

import sublex as sx
from sublex import iid
from sublex.core import _shifted


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


def centred(ambiguity: sx.AmbiguitySet) -> sx.AmbiguitySet:
    """The set shifted by its certified mean: its sums are S_n - n mu."""
    return _shifted(ambiguity, ambiguity.require_mean_certain("centred"))


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
