import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sublex as sx
from sublex.core import TabulatedPayoff, _check_stacked

from conftest import random_ambiguity


def payoff(ambiguity, fn):
    return TabulatedPayoff.from_callable(ambiguity.grid.atoms, fn)


class TestUpperLower:
    def test_upper_abs(self, theta_star):
        assert sx.upper_expect(theta_star, payoff(theta_star, abs)) == pytest.approx(1.0, abs=1e-12)

    def test_upper_constant(self, theta_star):
        c = TabulatedPayoff.constant(theta_star.grid.atoms, 3.25)
        assert sx.upper_expect(theta_star, c) == pytest.approx(3.25, abs=1e-12)

    def test_upper_identity_mean_zero(self, theta_star):
        assert sx.upper_expect(theta_star, payoff(theta_star, lambda x: x)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_lower_abs(self, theta_star):
        assert sx.lower_expect(theta_star, payoff(theta_star, abs)) == pytest.approx(0.5, abs=1e-12)

    def test_lower_square(self, theta_star):
        assert sx.lower_expect(theta_star, payoff(theta_star, lambda x: x * x)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_lower_constant(self, theta_star):
        c = TabulatedPayoff.constant(theta_star.grid.atoms, -1.5)
        assert sx.lower_expect(theta_star, c) == pytest.approx(-1.5, abs=1e-12)

    def test_grid_mismatch(self, theta_star):
        other = TabulatedPayoff((-1.0, 1.0), (1.0, 1.0))
        with pytest.raises(sx.ParameterError):
            sx.upper_expect(theta_star, other)


class TestCapacity:
    def test_two_point_event(self, theta_star):
        upper, lower = sx.capacity_pair(theta_star, [-1.0, 1.0])
        assert upper == pytest.approx(1.0, abs=1e-12)
        assert lower == pytest.approx(0.5, abs=1e-12)

    def test_full_and_empty(self, theta_star):
        assert sx.capacity_pair(theta_star, theta_star.grid.atoms) == (1.0, 1.0)
        assert sx.capacity_pair(theta_star, []) == (0.0, 0.0)

    def test_complement_exact(self, theta_star):
        upper, _ = sx.capacity_pair(theta_star, [1.0])
        _, lower_c = sx.capacity_pair(theta_star, [-1.0, 0.0])
        assert upper + lower_c == 1.0  # exact, not approximate

    def test_off_grid_atom(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.capacity_pair(theta_star, [0.5])

    def test_lower_matches_lower_expect(self, theta_star):
        ind = sx.indicator_payoff(theta_star.grid, [0.0])
        _, lower = sx.capacity_pair(theta_star, [0.0])
        assert lower == pytest.approx(sx.lower_expect(theta_star, ind), abs=1e-12)


class TestSeminorm:
    def test_identity_p2(self, theta_star):
        assert sx.seminorm(theta_star, payoff(theta_star, lambda x: x), 2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_identity_p4(self, theta_star):
        assert sx.seminorm(theta_star, payoff(theta_star, lambda x: x), 4) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_constant(self, theta_star):
        c = TabulatedPayoff.constant(theta_star.grid.atoms, -2.5)
        for p in (1.0, 2.0, 3.7):
            assert sx.seminorm(theta_star, c, p) == pytest.approx(2.5, abs=1e-12)

    def test_order_below_one(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.seminorm(theta_star, payoff(theta_star, abs), 0.5)


class TestAxiomReport:
    def test_canonical_pair(self, theta_star):
        rep = sx.axiom_report(
            theta_star,
            payoff(theta_star, lambda x: x * x),
            payoff(theta_star, abs),
            lam=2.0,
            c=3.0,
        )
        assert rep.all_pass
        assert rep.max_residual <= 1e-12

    def test_zero_scaling(self, theta_star):
        rep = sx.axiom_report(
            theta_star, payoff(theta_star, lambda x: x * x), payoff(theta_star, abs), 0.0, 0.0
        )
        assert rep.positive_homogeneity.residual == 0.0

    def test_equal_payoffs_subadditivity_exact(self, theta_star):
        a = payoff(theta_star, lambda x: x * x)
        rep = sx.axiom_report(theta_star, a, a, 1.0, 0.0)
        assert rep.subadditivity.residual == pytest.approx(0.0, abs=1e-15)

    def test_negative_lambda(self, theta_star):
        a = payoff(theta_star, abs)
        with pytest.raises(sx.ParameterError):
            sx.axiom_report(theta_star, a, a, -1.0, 0.0)

    def test_randomized_trials(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ambiguity = random_ambiguity(rng)
            atoms = ambiguity.grid.atoms
            pa = TabulatedPayoff(atoms, tuple(rng.uniform(-5, 5, len(atoms))))
            pb = TabulatedPayoff(atoms, tuple(rng.uniform(-5, 5, len(atoms))))
            rep = sx.axiom_report(ambiguity, pa, pb, float(3 * rng.random()), float(rng.uniform(-5, 5)))
            assert rep.all_pass, rep


class TestTypeInvariants:
    def test_atoms_must_increase(self):
        with pytest.raises(sx.ParameterError):
            sx.SupportGrid((0.0, 0.0, 1.0))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(sx.ParameterError):
            sx.FiniteMeasure((0.5, 0.4))

    def test_weights_nonnegative(self):
        with pytest.raises(sx.ParameterError):
            sx.FiniteMeasure((1.1, -0.1))

    def test_measures_match_grid(self):
        with pytest.raises(sx.ParameterError):
            sx.AmbiguitySet(sx.SupportGrid((0.0, 1.0)), (sx.FiniteMeasure((1.0,)),))

    def test_empty_family(self):
        with pytest.raises(sx.ParameterError):
            sx.AmbiguitySet(sx.SupportGrid((0.0, 1.0)), ())

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


@settings(max_examples=200, deadline=None)
@given(sets_strategy, values_strategy, values_strategy)
def test_lower_never_exceeds_upper(ambiguity, va, vb):
    k = len(ambiguity.grid)
    pa = TabulatedPayoff(ambiguity.grid.atoms, tuple(va[:k]))
    assert sx.lower_expect(ambiguity, pa) <= sx.upper_expect(ambiguity, pa) + 1e-12


@settings(max_examples=200, deadline=None)
@given(sets_strategy, values_strategy, values_strategy)
def test_seminorm_triangle(ambiguity, va, vb):
    k = len(ambiguity.grid)
    pa = TabulatedPayoff(ambiguity.grid.atoms, tuple(va[:k]))
    pb = TabulatedPayoff(ambiguity.grid.atoms, tuple(vb[:k]))
    both = TabulatedPayoff(ambiguity.grid.atoms, tuple(x + y for x, y in zip(pa.values, pb.values)))
    lhs = sx.seminorm(ambiguity, both, 2)
    assert lhs <= sx.seminorm(ambiguity, pa, 2) + sx.seminorm(ambiguity, pb, 2) + 1e-12


@settings(max_examples=200, deadline=None)
@given(sets_strategy, values_strategy)
def test_extra_measure_widens_envelope(ambiguity, va):
    k = len(ambiguity.grid)
    pa = TabulatedPayoff(ambiguity.grid.atoms, tuple(va[:k]))
    rng = np.random.default_rng(abs(hash(tuple(va[:k]))) % 2**32)
    w = rng.random(k) + 1e-3
    grown = sx.AmbiguitySet(
        ambiguity.grid, ambiguity.measures + (sx.FiniteMeasure(tuple(w / w.sum())),)
    )
    assert sx.upper_expect(grown, pa) >= sx.upper_expect(ambiguity, pa) - 1e-12
    assert sx.lower_expect(grown, pa) <= sx.lower_expect(ambiguity, pa) + 1e-12


@settings(max_examples=100, deadline=None)
@given(sets_strategy, values_strategy)
def test_duplicate_measures_are_harmless(ambiguity, va):
    k = len(ambiguity.grid)
    pa = TabulatedPayoff(ambiguity.grid.atoms, tuple(va[:k]))
    doubled = sx.AmbiguitySet(ambiguity.grid, ambiguity.measures + ambiguity.measures)
    assert sx.upper_expect(doubled, pa) == pytest.approx(
        sx.upper_expect(ambiguity, pa), abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(sets_strategy)
def test_capacity_complement_and_monotonicity(ambiguity):
    atoms = ambiguity.grid.atoms
    rng = np.random.default_rng(len(atoms) * 101 + len(ambiguity.measures))
    mask = rng.random(len(atoms)) < 0.5
    event = [a for a, m in zip(atoms, mask) if m]
    complement = [a for a, m in zip(atoms, mask) if not m]
    upper, lower = sx.capacity_pair(ambiguity, event)
    upper_c, lower_c = sx.capacity_pair(ambiguity, complement)
    assert -1e-12 <= lower <= upper + 1e-12
    assert upper <= 1.0 + 1e-12
    assert upper + lower_c == 1.0
    assert upper_c + lower == 1.0
    if complement:
        grown_upper, grown_lower = sx.capacity_pair(ambiguity, event + [complement[0]])
        assert grown_upper >= upper - 1e-12
        assert grown_lower >= lower - 1e-12


def test_single_measure_collapses_envelope():
    rng = np.random.default_rng(3)
    ambiguity = random_ambiguity(rng, max_measures=1)
    assert len(ambiguity.measures) == 1
    for _ in range(20):
        values = tuple(rng.uniform(-5, 5, len(ambiguity.grid)))
        pa = TabulatedPayoff(ambiguity.grid.atoms, values)
        assert sx.upper_expect(ambiguity, pa) == pytest.approx(
            sx.lower_expect(ambiguity, pa), abs=1e-12
        )


def test_distinct_measures_separate_somewhere(theta_star):
    # the converse direction: two distinct measures admit a payoff with a
    # strict upper/lower gap (an indicator of any atom they weight apart)
    gaps = []
    for atom in theta_star.grid.atoms:
        ind = sx.indicator_payoff(theta_star.grid, [atom])
        gaps.append(sx.upper_expect(theta_star, ind) - sx.lower_expect(theta_star, ind))
    assert max(gaps) > 1e-6
