"""Centred walks are series of shifted sets: ``core._shifted`` against the
subtraction of the mean from the atoms that the recursions ran on before it,
bit for bit."""

import math

import numpy as np
import pytest

import sublex as sx
from sublex.core import _shifted
from sublex.gnormal import GNormalParams, _limit_abs_moment
from sublex.iid import _series

from conftest import centred

# (-0.73, 0.21, 1.37) under a second measure with the first one's mean 0.276
_R = (0.276 - 0.21 + 0.94 * 0.5) / 1.16

#: Mean-certain families: integer and float atoms, a mean far from 0 and
#: one whose float mean is 1.04e-17 rather than 0.
FAMILIES = {
    "canonical": ((-1.0, 0.0, 1.0), ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5))),
    "coin": ((-1.0, 1.0), ((0.5, 0.5),)),
    "mean-0.65": ((-1.0, 0.5, 2.0), ((0.2, 0.5, 0.3), (0.4, 0.1, 0.5))),
    "float-atoms": ((-0.73, 0.21, 1.37), ((0.3, 0.4, 0.3), (0.5, 0.5 - _R, _R))),
    "float-mean": ((-0.3, 0.1, 0.2), ((0.36, 0.2, 0.44), (0.4, 0.0, 0.6))),
}

N = 16


@pytest.fixture(params=list(FAMILIES.values()), ids=list(FAMILIES))
def family(request) -> sx.AmbiguitySet:
    return sx.AmbiguitySet.from_rows(*request.param)


def offsets(family: sx.AmbiguitySet) -> np.ndarray:
    """The centred atoms as the recursions subtracted the mean before ``_shifted``."""
    return family.grid.array - family.require_mean_certain("reference")


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_shifted_keeps_the_weights_on_the_shifted_atoms(family):
    shifted = _shifted(family, 0.1)
    assert bits(shifted.grid.array) == bits(family.grid.array - 0.1)
    assert bits(shifted.weight_matrix) == bits(family.weight_matrix)


def test_a_shift_that_collapses_two_atoms_is_refused():
    # the certified mean 0.5 rounds 0 - 0.5 and 1e-17 - 0.5 to one value
    family = sx.AmbiguitySet.from_rows((0.0, 1e-17, 1.0), [(0.25, 0.25, 0.5)])
    message = r"atoms \(0\.0, 1e-17, 1\.0\) shifted by 0\.5: atoms: must be strictly increasing"
    with pytest.raises(sx.ParameterError, match=message):
        _shifted(family, family.mean)
    with pytest.raises(sx.ParameterError, match=message):
        sx.eval_maxabs_functional(family, 3, lambda m: m)


@pytest.mark.parametrize("maximize", [True, False])
def test_sum_functional_series(family, maximize):
    psi = lambda s: np.abs(s) ** 3
    series = sx.sum_functional_series(centred(family), N, psi, maximize=maximize)
    assert bits(series) == bits(_series(family, offsets(family), range(1, N + 1), psi, maximize))


def test_eval_maxabs_functional(family):
    phi = lambda m: m**3
    value = sx.eval_maxabs_functional(family, 12, phi)
    assert bits(value) == bits(_series(family, offsets(family), [12], phi, running_max=True))


def test_eval_sumsq_functional(family):
    phi = lambda q: q**1.5
    value = sx.eval_sumsq_functional(family, N, phi)
    assert bits(value) == bits(_series(family, offsets(family) ** 2, [N], phi))


def test_mz_check(family):
    alpha, horizons = 4.0, list(range(2, 9))
    report = sx.mz_check(family, alpha, horizons)
    shift = offsets(family)
    lhs = _series(family, shift, horizons, lambda m: m**alpha, running_max=True)
    rhs = _series(family, shift**2, horizons, lambda q: q ** (alpha / 2.0))
    mu = family.mean
    base = max(sx.upper_expect(family, lambda a: a - mu), 0.0) + max(
        -sx.lower_expect(family, lambda a: a - mu), 0.0
    )
    assert bits(report.lhs) == bits(lhs)
    assert bits(report.rhs_core) == bits(rhs)
    assert bits(report.mean_terms) == bits([(n * base) ** alpha for n in horizons])


def test_clt_gap(family):
    root = math.sqrt(N)
    raw = _series(family, offsets(family), range(1, N + 1), lambda s: np.abs(s / root) ** 3.0)
    limit, _ = _limit_abs_moment(3.0, GNormalParams.from_ambiguity(family))
    assert bits(sx.clt_gap(family, N, 3.0)) == bits(abs(float(raw[-1]) - limit))


def test_slp_series(family):
    report = sx.slp_series(family, 3.0, N)
    raw = _series(family, offsets(family), range(1, N + 1), lambda s: np.abs(s) ** 3.0)
    n = np.arange(1, N + 1, dtype=float)
    assert bits(report.terms) == bits(raw / n**3.0)
    assert bits(report.scaled_terms) == bits(raw / n**1.5)


def test_cc_series(family):
    eps, alpha = 0.5, 4.0
    report = sx.cc_series(family, eps, alpha, N)
    raw = _series(family, offsets(family), range(1, N + 1), lambda s: np.abs(s) ** alpha)
    markov = [float(raw[n - 1]) / (float(n) ** alpha * eps**alpha) for n in range(1, N + 1)]
    assert bits(report.reference) == bits(markov)
