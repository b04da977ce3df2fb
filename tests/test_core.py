import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sublex as sx
from sublex.core import _check_stacked

from helpers import random_ambiguity


class TestUpperLower:
    def test_upper_abs(self, theta_star):
        assert sx.upper_expect(theta_star, np.abs) == pytest.approx(1.0, abs=1e-12)

    def test_upper_constant(self, theta_star):
        assert sx.upper_expect(theta_star, lambda x: 3.25) == pytest.approx(3.25, abs=1e-12)

    def test_upper_identity_mean_zero(self, theta_star):
        assert sx.upper_expect(theta_star, lambda x: x) == pytest.approx(0.0, abs=1e-12)

    def test_lower_abs(self, theta_star):
        assert sx.lower_expect(theta_star, np.abs) == pytest.approx(0.5, abs=1e-12)

    def test_lower_square(self, theta_star):
        assert sx.lower_expect(theta_star, lambda x: x * x) == pytest.approx(0.5, abs=1e-12)

    def test_lower_constant(self, theta_star):
        assert sx.lower_expect(theta_star, lambda x: -1.5) == pytest.approx(-1.5, abs=1e-12)

    def test_grid_mismatch(self, theta_star):
        # values for two atoms on a grid of three
        with pytest.raises(sx.ParameterError, match="array of states"):
            sx.upper_expect(theta_star, lambda x: np.ones(2))


class TestCapacity:
    def test_two_point_event(self, theta_star):
        upper, lower = sx.capacity_pair(theta_star, lambda a: a != 0.0)
        assert upper == pytest.approx(1.0, abs=1e-12)
        assert lower == pytest.approx(0.5, abs=1e-12)

    def test_full_and_empty(self, theta_star):
        assert sx.capacity_pair(theta_star, lambda a: True) == (1.0, 1.0)
        assert sx.capacity_pair(theta_star, lambda a: False) == (0.0, 0.0)

    def test_complement_exact(self, theta_star):
        upper, _ = sx.capacity_pair(theta_star, lambda a: a == 1.0)
        _, lower_c = sx.capacity_pair(theta_star, lambda a: a != 1.0)
        assert upper + lower_c == 1.0  # exact, not approximate

    def test_lower_matches_lower_expect(self, theta_star):
        middle = lambda a: a == 0.0
        _, lower = sx.capacity_pair(theta_star, middle)
        assert lower == pytest.approx(sx.lower_expect(theta_star, middle), abs=1e-12)


class TestSeminorm:
    def test_identity_p2(self, theta_star):
        assert sx.seminorm(theta_star, lambda x: x, 2) == pytest.approx(1.0, abs=1e-12)

    def test_identity_p4(self, theta_star):
        assert sx.seminorm(theta_star, lambda x: x, 4) == pytest.approx(1.0, abs=1e-12)

    def test_constant(self, theta_star):
        for p in (1.0, 2.0, 3.7):
            assert sx.seminorm(theta_star, lambda x: -2.5, p) == pytest.approx(2.5, abs=1e-12)

    def test_order_below_one(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.seminorm(theta_star, np.abs, 0.5)


class TestAxiomReport:
    def test_canonical_pair(self, theta_star):
        rep = sx.axiom_report(theta_star, lambda x: x * x, np.abs, lam=2.0, c=3.0)
        assert rep.all_pass
        assert rep.max_residual <= 1e-12

    def test_zero_scaling(self, theta_star):
        rep = sx.axiom_report(theta_star, lambda x: x * x, np.abs, 0.0, 0.0)
        assert rep.positive_homogeneity == 0.0

    def test_equal_payoffs_subadditivity_exact(self, theta_star):
        a = lambda x: x * x
        rep = sx.axiom_report(theta_star, a, a, 1.0, 0.0)
        assert rep.subadditivity == pytest.approx(0.0, abs=1e-15)

    def test_negative_lambda(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.axiom_report(theta_star, np.abs, np.abs, -1.0, 0.0)

    def test_randomized_trials(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ambiguity = random_ambiguity(rng)
            va = rng.uniform(-5, 5, len(ambiguity.grid))
            vb = rng.uniform(-5, 5, len(ambiguity.grid))
            lam, c = float(3 * rng.random()), float(rng.uniform(-5, 5))
            rep = sx.axiom_report(ambiguity, lambda _: va, lambda _: vb, lam, c)
            assert rep.all_pass, rep


def heat_params(family):
    return sx.GNormalParams.from_ambiguity(family)


#: Every entry point of ``core`` and ``gnormal`` that takes a payoff, as (its
#: value on a family for a payoff, that value for x -> x^2 on the canonical
#: set, that value for the constant 2.5 there); ``capacity_pair`` reads the
#: payoff as a predicate.  The ``iid`` entry points are in test_iid.py.
GRID_PAYOFF_ENTRY_POINTS = {
    "upper_expect": (lambda fam, f: sx.upper_expect(fam, f), 1.0, 2.5),
    "lower_expect": (lambda fam, f: sx.lower_expect(fam, f), 0.5, 2.5),
    "seminorm": (lambda fam, f: sx.seminorm(fam, f, 2.0), 1.0, 2.5),
    "capacity_pair": (lambda fam, f: sx.capacity_pair(fam, f), (1.0, 0.5), (1.0, 1.0)),
    "axiom_report": (lambda fam, f: sx.axiom_report(fam, f, f, 2.0, 3.0).all_pass, True, True),
    "g_expectation": (lambda fam, f: sx.g_expectation(f, heat_params(fam)).value, 1.0, 2.5),
    "semigroup_check": (
        lambda fam, f: sx.semigroup_check(f, 0.6, 0.8, heat_params(fam)),
        0.0,
        0.0,
    ),
}


@pytest.mark.parametrize("entry", list(GRID_PAYOFF_ENTRY_POINTS))
def test_grid_payoffs_map_state_arrays(theta_star, entry):
    value_of, square, constant = GRID_PAYOFF_ENTRY_POINTS[entry]
    # an array payoff, and a constant that broadcasts to every state
    assert value_of(theta_star, lambda s: s * s) == pytest.approx(square, abs=1e-9)
    assert value_of(theta_star, lambda s: 2.5) == pytest.approx(constant, abs=1e-12)
    for refused in (lambda s: np.append(s, 0.0), lambda s: 1.0 if s > 0 else 0.0):
        with pytest.raises(sx.ParameterError, match="array of states"):
            value_of(theta_star, refused)


class TestTypeInvariants:
    def test_atoms_must_increase(self):
        with pytest.raises(sx.ParameterError):
            sx.AmbiguitySet.from_rows((0.0, 0.0, 1.0), ((0.25, 0.5, 0.25),))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(sx.ParameterError):
            sx.AmbiguitySet.from_rows((0.0, 1.0), ((0.5, 0.4),))

    def test_weights_nonnegative(self):
        with pytest.raises(sx.ParameterError):
            sx.AmbiguitySet.from_rows((0.0, 1.0), ((1.1, -0.1),))

    def test_measures_match_grid(self):
        with pytest.raises(sx.ParameterError, match=r"measures\[0\]"):
            sx.AmbiguitySet.from_rows((0.0, 1.0), ((1.0,),))
        with pytest.raises(sx.ParameterError, match="3 weights for a grid of 2 atoms"):
            sx.AmbiguitySet(sx.SupportGrid((0.0, 1.0)), np.full((1, 3), 1 / 3))

    def test_empty_family(self):
        with pytest.raises(sx.ParameterError):
            sx.AmbiguitySet.from_rows((0.0, 1.0), ())

    @pytest.mark.parametrize(
        "atoms, rows",
        [
            ((-1.0, 0.0, 1.0), ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5))),
            ((0.0, 0.0, 1.0), ((0.25, 0.5, 0.25),)),
            ((1.0, 0.0, 2.0), ((0.25, 0.5, 0.25),)),
            ((0.0, np.nan, 1.0), ((0.25, 0.5, 0.25),)),
            ((-1.0, 0.0, 1.0), ((1.1, -0.1, 0.0),)),
            ((-1.0, 0.0, 1.0), ((0.25, 0.5, 0.25), (0.5, 0.4, 0.0))),
            ((-1.0, 0.0, 1.0), ((0.5, np.inf, 0.5),)),
            ((-1.0, 0.0, 1.0), ((0.25, 0.5, 0.25 + 2e-12),)),
        ],
    )
    def test_stacked_checks_refuse_what_from_rows_refuses(self, atoms, rows):
        # the checks of the axioms runner, on a stack of the instance and a valid one
        valid = np.array([[-1.0, 0.0, 1.0]]), np.full((1, len(rows), 3), 1 / 3)
        stacked = np.vstack([valid[0], [atoms]]), np.concatenate([valid[1], [rows]])
        try:
            sx.AmbiguitySet.from_rows(atoms, rows)
        except sx.ParameterError:
            with pytest.raises(sx.ParameterError):
                _check_stacked(*stacked)
        else:
            _check_stacked(*stacked)

    def test_canonical_derived_quantities(self, theta_star):
        assert theta_star.is_mean_certain
        assert theta_star.mean == 0.0
        assert theta_star.mean_interval == (0.0, 0.0)
        assert theta_star.variance_interval == (0.5, 1.0)

    def test_mean_uncertain_set(self):
        lopsided = sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5), (0.25, 0.75)))
        assert not lopsided.is_mean_certain
        with pytest.raises(sx.ParameterError):
            lopsided.require_mean_certain("test")


# -- randomized algebra properties -----------------------------------------

sets_strategy = st.integers(min_value=0, max_value=10_000).map(
    lambda s: random_ambiguity(np.random.default_rng(s), max_atoms=4, max_measures=3)
)
values_strategy = st.lists(
    st.floats(min_value=-8, max_value=8, allow_nan=False), min_size=4, max_size=4
)


def tabulated(values):
    """The payoff with ``values`` on the atoms, in their order."""
    arr = np.array(values, dtype=float)
    return lambda atoms: arr


@settings(max_examples=200, deadline=None)
@given(sets_strategy, values_strategy, values_strategy)
def test_lower_never_exceeds_upper(ambiguity, va, vb):
    pa = tabulated(va[: len(ambiguity.grid)])
    assert sx.lower_expect(ambiguity, pa) <= sx.upper_expect(ambiguity, pa) + 1e-12


@settings(max_examples=200, deadline=None)
@given(sets_strategy, values_strategy, values_strategy)
def test_seminorm_triangle(ambiguity, va, vb):
    k = len(ambiguity.grid)
    pa, pb = tabulated(va[:k]), tabulated(vb[:k])
    both = tabulated([x + y for x, y in zip(va[:k], vb[:k])])
    lhs = sx.seminorm(ambiguity, both, 2)
    assert lhs <= sx.seminorm(ambiguity, pa, 2) + sx.seminorm(ambiguity, pb, 2) + 1e-12


@settings(max_examples=200, deadline=None)
@given(sets_strategy, values_strategy)
def test_extra_measure_widens_envelope(ambiguity, va):
    k = len(ambiguity.grid)
    pa = tabulated(va[:k])
    rng = np.random.default_rng(abs(hash(tuple(va[:k]))) % 2**32)
    w = rng.random(k) + 1e-3
    grown = sx.AmbiguitySet(ambiguity.grid, np.vstack([ambiguity.weight_matrix, w / w.sum()]))
    assert sx.upper_expect(grown, pa) >= sx.upper_expect(ambiguity, pa) - 1e-12
    assert sx.lower_expect(grown, pa) <= sx.lower_expect(ambiguity, pa) + 1e-12


@settings(max_examples=100, deadline=None)
@given(sets_strategy, values_strategy)
def test_duplicate_measures_are_harmless(ambiguity, va):
    pa = tabulated(va[: len(ambiguity.grid)])
    doubled = sx.AmbiguitySet(ambiguity.grid, np.vstack([ambiguity.weight_matrix] * 2))
    assert sx.upper_expect(doubled, pa) == pytest.approx(
        sx.upper_expect(ambiguity, pa), abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(sets_strategy)
def test_capacity_complement_and_monotonicity(ambiguity):
    atoms = ambiguity.grid.atoms
    rng = np.random.default_rng(len(atoms) * 101 + len(ambiguity.weight_matrix))
    mask = rng.random(len(atoms)) < 0.5
    upper, lower = sx.capacity_pair(ambiguity, lambda a: mask)
    upper_c, lower_c = sx.capacity_pair(ambiguity, lambda a: ~mask)
    assert -1e-12 <= lower <= upper + 1e-12
    assert upper <= 1.0 + 1e-12
    assert upper + lower_c == 1.0
    assert upper_c + lower == 1.0
    if not mask.all():
        grown = mask.copy()
        grown[np.argmin(mask)] = True  # the first atom of the complement
        grown_upper, grown_lower = sx.capacity_pair(ambiguity, lambda a: grown)
        assert grown_upper >= upper - 1e-12
        assert grown_lower >= lower - 1e-12


def test_single_measure_collapses_envelope():
    rng = np.random.default_rng(3)
    ambiguity = random_ambiguity(rng, max_measures=1)
    assert len(ambiguity.weight_matrix) == 1
    for _ in range(20):
        pa = tabulated(rng.uniform(-5, 5, len(ambiguity.grid)))
        assert sx.upper_expect(ambiguity, pa) == pytest.approx(
            sx.lower_expect(ambiguity, pa), abs=1e-12
        )


def test_distinct_measures_separate_somewhere(theta_star):
    # the converse direction: two distinct measures admit a payoff with a
    # strict upper/lower gap (an indicator of any atom they weight apart)
    gaps = []
    for atom in theta_star.grid.atoms:
        ind = lambda a: a == atom
        gaps.append(sx.upper_expect(theta_star, ind) - sx.lower_expect(theta_star, ind))
    assert max(gaps) > 1e-6
