import numpy as np
import pytest

import sublex as sx
from sublex.core import TabulatedPayoff
from sublex.iid import _brute_force_many

from conftest import random_ambiguity, random_mean_zero_ambiguity


class TestSumFunctional:
    def test_square_two_steps(self, theta_star):
        value, _ = sx.eval_sum_functional(theta_star, 2, lambda s: s * s)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_abs_two_steps(self, theta_star):
        value, _ = sx.eval_sum_functional(theta_star, 2, lambda s: abs(s))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_one_step_reduces_to_upper_expect(self, theta_star):
        fn = lambda s: s**3 - 2 * s + 1
        value, _ = sx.eval_sum_functional(theta_star, 1, fn)
        expected = sx.upper_expect(
            theta_star, TabulatedPayoff.from_callable(theta_star.grid.atoms, fn)
        )
        assert value == pytest.approx(expected, abs=1e-14)

    def test_tabulated_terminal(self, theta_star):
        lattice = sx.sum_lattice(theta_star, 2)
        terminal = TabulatedPayoff.from_callable(lattice.states, lambda s: s * s)
        value, _ = sx.eval_sum_functional(theta_star, 2, terminal)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_missing_state_is_domain_error(self, theta_star):
        incomplete = TabulatedPayoff((-2.0, 0.0, 2.0), (4.0, 0.0, 4.0))
        with pytest.raises(sx.DomainError):
            sx.eval_sum_functional(theta_star, 2, incomplete)

    def test_bad_horizon(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.eval_sum_functional(theta_star, 0, lambda s: s)

    def test_policy_covers_every_step(self, theta_star):
        _, policy = sx.eval_sum_functional(theta_star, 4, lambda s: abs(s))
        assert policy.horizon == 4
        for step, states in enumerate(policy.step_states):
            for s in states:
                assert 0 <= policy.measure_at(step, s) < len(theta_star.measures)

    def test_tie_breaks_to_lowest_index(self, theta_star):
        doubled = sx.AmbiguitySet(theta_star.grid, theta_star.measures + theta_star.measures)
        _, policy = sx.eval_sum_functional(doubled, 3, lambda s: s * s)
        for picks in policy.choices:
            assert all(p < 2 for p in picks)  # never the duplicated copies


def lower_sum(ambiguity, n, terminal):
    value, _ = sx.eval_sum_functional(ambiguity, n, terminal, maximize=False)
    return value


class TestLowerSumFunctional:
    def test_square_two_steps(self, theta_star):
        assert lower_sum(theta_star, 2, lambda s: s * s) == pytest.approx(1.0, abs=1e-12)

    def test_constant(self, theta_star):
        assert lower_sum(theta_star, 5, lambda s: 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_mean_certain_identity(self, theta_star):
        assert lower_sum(theta_star, 3, lambda s: s) == pytest.approx(0.0, abs=1e-12)

    def test_negation_duality(self, theta_star):
        fn = lambda s: abs(s) ** 3 - s
        lower = lower_sum(theta_star, 3, fn)
        upper_neg, _ = sx.eval_sum_functional(theta_star, 3, lambda s: -fn(s))
        assert lower == pytest.approx(-upper_neg, abs=1e-12)


class TestAdditiveFunctional:
    def test_single_stage_degenerates_to_terminal(self, theta_star):
        fn = lambda s: s * s - s
        costs = [lambda s: 0.0, lambda s: 0.0, fn]
        value = sx.eval_additive_functional(theta_star, 3, costs)
        direct, _ = sx.eval_sum_functional(theta_star, 3, fn)
        assert value == pytest.approx(direct, abs=1e-12)

    def test_running_squares(self, theta_star):
        value = sx.eval_additive_functional(theta_star, 2, [lambda s: s * s, lambda s: s * s])
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_zero_costs(self, theta_star):
        assert sx.eval_additive_functional(theta_star, 4, [lambda s: 0.0] * 4) == 0.0

    def test_wrong_cost_count(self, theta_star):
        with pytest.raises(sx.DomainError):
            sx.eval_additive_functional(theta_star, 3, [lambda s: s])


class TestMaxAbsFunctional:
    def test_one_step_is_upper_expect(self, theta_star):
        value = sx.eval_maxabs_functional(theta_star, 1, lambda m: m**4)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_two_step_fourth_power(self, theta_star):
        # frozen from the enumeration oracle (verified below in TestOracle)
        value = sx.eval_maxabs_functional(theta_star, 2, lambda m: m**4)
        assert value == pytest.approx(8.5, abs=1e-12)

    def test_constant(self, theta_star):
        assert sx.eval_maxabs_functional(theta_star, 5, lambda m: 7.0) == pytest.approx(
            7.0, abs=1e-12
        )

    def test_dominates_terminal_abs_power(self, theta_star):
        maxabs = sx.eval_maxabs_functional(theta_star, 6, lambda m: m**4)
        terminal, _ = sx.eval_sum_functional(theta_star, 6, lambda s: abs(s) ** 4)
        assert maxabs >= terminal - 1e-12

    def test_requires_mean_certainty(self):
        lopsided = sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5), (0.25, 0.75)))
        with pytest.raises(sx.PreconditionError):
            sx.eval_maxabs_functional(lopsided, 2, lambda m: m)

    def test_horizon_gate(self, theta_star):
        with pytest.raises(sx.CapacityError):
            sx.eval_maxabs_functional(theta_star, 65, lambda m: m)


class TestSumsqFunctional:
    def test_one_step(self, theta_star):
        assert sx.eval_sumsq_functional(theta_star, 1, lambda q: q) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_three_steps_linear(self, theta_star):
        assert sx.eval_sumsq_functional(theta_star, 3, lambda q: q) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_two_steps_squared(self, theta_star):
        assert sx.eval_sumsq_functional(theta_star, 2, lambda q: q * q) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_zero_payoff(self, theta_star):
        assert sx.eval_sumsq_functional(theta_star, 4, lambda q: 0.0) == 0.0

    def test_requires_mean_certainty(self):
        lopsided = sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5), (0.25, 0.75)))
        with pytest.raises(sx.PreconditionError):
            sx.eval_sumsq_functional(lopsided, 2, lambda q: q)


class TestCapacitySumEvent:
    def test_middle_return(self, theta_star):
        value = sx.capacity_sum_event(theta_star, 2, lambda s: abs(s) < 1e-9)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_whole_space(self, theta_star):
        assert sx.capacity_sum_event(theta_star, 3, lambda s: True) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_empty_event(self, theta_star):
        assert sx.capacity_sum_event(theta_star, 3, lambda s: False) == 0.0

    def test_complement_with_lower_capacity(self, theta_star):
        pred = lambda s: s >= 1.0 - 1e-9
        upper = sx.capacity_sum_event(theta_star, 4, pred)
        lower_c = sx.capacity_sum_event(theta_star, 4, lambda s: not pred(s), maximize=False)
        assert upper + lower_c == pytest.approx(1.0, abs=1e-12)


class TestOracle:
    def test_square_two_steps(self, theta_star):
        value = sx.brute_force_oracle(theta_star, 2, lambda xs: float(np.sum(xs)) ** 2)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_one_step_is_upper_expect(self, theta_star):
        value = sx.brute_force_oracle(theta_star, 1, lambda xs: abs(float(xs[0])))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_single_measure_classical(self, coin):
        value = sx.brute_force_oracle(coin, 3, lambda xs: abs(float(np.sum(xs))))
        assert value == pytest.approx(1.5, abs=1e-12)  # E|S_3| for a fair +-1 coin

    def test_maxabs_frozen_value(self, theta_star):
        value = sx.brute_force_oracle(
            theta_star, 2, lambda xs: float(np.max(np.abs(np.cumsum(xs)))) ** 4
        )
        assert value == pytest.approx(8.5, abs=1e-12)

    def test_size_gates(self, theta_star):
        with pytest.raises(sx.CapacityError):
            sx.brute_force_oracle(theta_star, 5, lambda xs: 0.0)
        # 3 measures over 40 nodes (4 atoms, depth 4) blows the assignment budget
        wide = sx.AmbiguitySet.from_rows(
            (-1.0, 0.0, 1.0, 2.0),
            ((0.25, 0.25, 0.25, 0.25), (0.5, 0.0, 0.5, 0.0), (0.1, 0.2, 0.3, 0.4)),
        )
        with pytest.raises(sx.CapacityError):
            sx.brute_force_oracle(wide, 4, lambda xs: 0.0)

    def test_dp_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            ambiguity = random_ambiguity(rng, max_atoms=3, max_measures=3)
            n = int(rng.integers(1, 4))
            power = float(rng.integers(1, 5))
            dp, _ = sx.eval_sum_functional(ambiguity, n, lambda s: abs(s) ** power)
            bf = sx.brute_force_oracle(
                ambiguity, n, lambda xs: abs(float(np.sum(xs))) ** power
            )
            assert dp == pytest.approx(bf, abs=1e-12)

    def test_additive_matches_enumeration(self, theta_star):
        costs = [lambda s: s * s, lambda s: s * s]
        dp = sx.eval_additive_functional(theta_star, 2, costs)
        bf = sx.brute_force_oracle(
            theta_star, 2, lambda xs: float(np.sum(np.cumsum(xs) ** 2))
        )
        assert dp == pytest.approx(bf, abs=1e-12) == pytest.approx(3.0, abs=1e-12)


class TestSeries:
    def test_matches_per_horizon_dp(self, theta_star):
        raw = sx.sum_functional_series(theta_star, 9, lambda s: np.abs(s) ** 3, centered=True)
        for n in (1, 2, 5, 9):
            direct, _ = sx.eval_sum_functional(theta_star, n, lambda s: abs(s) ** 3)
            assert raw[n - 1] == pytest.approx(direct, abs=1e-12)

    def test_variance_identity(self, theta_star):
        upper = sx.sum_functional_series(theta_star, 40, lambda s: s * s, centered=True)
        lower = sx.sum_functional_series(
            theta_star, 40, lambda s: s * s, centered=True, maximize=False
        )
        n = np.arange(1, 41)
        assert np.max(np.abs(upper - n * 1.0)) <= 1e-12
        assert np.max(np.abs(lower - n * 0.5)) <= 1e-12

    def test_shifted_mean_certain_set(self):
        # atoms {0, 1, 2} with symmetric weights: mean 1, variances about it
        shifted = sx.AmbiguitySet.from_rows(
            (0.0, 1.0, 2.0), ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5))
        )
        assert shifted.mean == pytest.approx(1.0, abs=1e-12)
        upper = sx.sum_functional_series(shifted, 30, lambda s: s * s, centered=True)
        assert np.max(np.abs(upper - np.arange(1, 31))) <= 1e-10

    def test_centered_requires_mean_certainty(self):
        lopsided = sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5), (0.25, 0.75)))
        with pytest.raises(sx.PreconditionError):
            sx.sum_functional_series(lopsided, 3, lambda s: s, centered=True)


class TestInvariantsLifted:
    """Properties of the one-step algebra carried through the recursion."""

    def test_monotone_in_payoff(self, theta_star):
        smaller, _ = sx.eval_sum_functional(theta_star, 4, lambda s: abs(s))
        larger, _ = sx.eval_sum_functional(theta_star, 4, lambda s: abs(s) + 0.25 * s * s)
        assert smaller <= larger + 1e-12

    def test_positive_homogeneity(self, theta_star):
        base, _ = sx.eval_sum_functional(theta_star, 3, lambda s: abs(s) ** 3)
        scaled, _ = sx.eval_sum_functional(theta_star, 3, lambda s: 2.5 * abs(s) ** 3)
        assert scaled == pytest.approx(2.5 * base, abs=1e-12)

    def test_subadditive_in_payoff(self, theta_star):
        fa = lambda s: abs(s)
        fb = lambda s: s * s - s
        both, _ = sx.eval_sum_functional(theta_star, 3, lambda s: fa(s) + fb(s))
        va, _ = sx.eval_sum_functional(theta_star, 3, fa)
        vb, _ = sx.eval_sum_functional(theta_star, 3, fb)
        assert both <= va + vb + 1e-12

    def test_sandwich_by_fixed_measures(self, theta_star):
        fn = lambda s: abs(s) ** 3
        upper, _ = sx.eval_sum_functional(theta_star, 5, fn)
        lower = lower_sum(theta_star, 5, fn)
        for measure in theta_star.measures:
            single = sx.AmbiguitySet(theta_star.grid, (measure,))
            classical, _ = sx.eval_sum_functional(single, 5, fn)
            assert lower - 1e-12 <= classical <= upper + 1e-12

    def test_random_sets_sandwich(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            ambiguity = random_ambiguity(rng, max_atoms=4, max_measures=3)
            fn = lambda s: abs(s - 0.3) ** 2
            upper, _ = sx.eval_sum_functional(ambiguity, 3, fn)
            lower = lower_sum(ambiguity, 3, fn)
            for measure in ambiguity.measures:
                single = sx.AmbiguitySet(ambiguity.grid, (measure,))
                mid, _ = sx.eval_sum_functional(single, 3, fn)
                assert lower - 1e-12 <= mid <= upper + 1e-12

    def test_mean_zero_families_variance_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ambiguity = random_mean_zero_ambiguity(rng)
            lo, hi = ambiguity.variance_interval
            upper = sx.sum_functional_series(ambiguity, 12, lambda s: s * s, centered=True)
            lower = sx.sum_functional_series(
                ambiguity, 12, lambda s: s * s, centered=True, maximize=False
            )
            n = np.arange(1, 13)
            assert np.max(np.abs(upper - n * hi)) <= 1e-10
            assert np.max(np.abs(lower - n * lo)) <= 1e-10


class TestLattice:
    def test_arithmetic_progression_size_bound(self, theta_star):
        for k in (0, 1, 2, 5, 10):
            lattice = sx.sum_lattice(theta_star, k)
            assert len(lattice.states) <= 1 + k * (len(theta_star.grid) - 1)
            assert all(b > a for a, b in zip(lattice.states, lattice.states[1:]))

    def test_one_step_set(self, theta_star):
        lattice = sx.sum_lattice(theta_star, 1)
        assert lattice.states == theta_star.grid.atoms

    def test_merge_tolerance(self):
        tight = sx.AmbiguitySet.from_rows((0.0, 1e-10), ((0.5, 0.5),))
        lattice = sx.sum_lattice(tight, 2)
        assert len(lattice.states) == 1  # 0, 1e-10, 2e-10 all merge at 1e-9


class TestSamplePath:
    def test_deterministic_replay(self, theta_star):
        _, policy = sx.eval_sum_functional(theta_star, 6, lambda s: abs(s) ** 4)
        first = sx.sample_path(theta_star, policy, 6, seed=42)
        second = sx.sample_path(theta_star, policy, 6, seed=42)
        assert first == second
        assert len(first.increments) == 6
        assert all(x in theta_star.grid.atoms for x in first.increments)
        assert first.partial_sums == tuple(np.cumsum(first.increments))

    def test_single_measure_is_classical_sampling(self, coin):
        _, policy = sx.eval_sum_functional(coin, 500, lambda s: s)
        path = sx.sample_path(coin, policy, 500, seed=1)
        values, counts = np.unique(path.increments, return_counts=True)
        assert set(values) == {-1.0, 1.0}
        assert abs(counts[0] - counts[1]) < 120  # ~4.8 sigma for 500 fair flips

    def test_policy_gap(self, theta_star):
        _, policy = sx.eval_sum_functional(theta_star, 3, lambda s: s)
        with pytest.raises(sx.DomainError):
            sx.sample_path(theta_star, policy, 4, seed=0)

    def test_sampling_lower_bounds_dp_value(self, theta_star):
        n = 50
        value, policy = sx.eval_sum_functional(theta_star, n, lambda s: abs(s) ** 4)
        draws = np.empty(10_000)
        for j in range(draws.size):
            path = sx.sample_path(theta_star, policy, n, seed=1000 + j)
            draws[j] = abs(path.partial_sums[-1]) ** 4
        stderr = draws.std(ddof=1) / np.sqrt(draws.size)
        assert draws.mean() <= value + 3.0 * stderr


def test_batched_oracle_matches_single(theta_star):
    payoffs = [
        lambda xs: float(np.sum(xs)) ** 2,
        lambda xs: float(np.max(np.abs(np.cumsum(xs)))) ** 4,
    ]
    batched = _brute_force_many(theta_star, 2, payoffs)
    singles = [sx.brute_force_oracle(theta_star, 2, f) for f in payoffs]
    assert batched == pytest.approx(singles, abs=0.0)
