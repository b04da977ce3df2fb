import gc
import inspect
import itertools
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sublex as sx
from sublex import iid
from sublex.iid import (
    _brute_force_many,
    _commensurable,
    _composition_lattice,
    _CompositionLattice,
    _dense_lattice,
    _IntLattice,
    _lattice,
    _Lattice,
    _merge,
    _recursion,
    _sample_steps,
    SelectionPolicy,
    _tail_sums,
)
from sublex.lln import SAMPLING_Z

from helpers import centred, random_ambiguity, random_mean_zero_ambiguity, traced_outcomes


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
        expected = sx.upper_expect(theta_star, fn)
        assert value == pytest.approx(expected, abs=1e-14)

    def test_bad_horizon(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.eval_sum_functional(theta_star, 0, lambda s: s)

    def test_policy_covers_every_step(self, theta_star):
        _, policy = sx.eval_sum_functional(theta_star, 4, lambda s: abs(s))
        assert policy.horizon == 4
        for step, picks in enumerate(policy.choices):
            assert picks.shape == policy.lattice.states(step).shape
            assert (picks < len(theta_star.weight_matrix)).all()

    def test_tie_breaks_to_lowest_index(self, theta_star):
        doubled = sx.AmbiguitySet(theta_star.grid, np.vstack([theta_star.weight_matrix] * 2))
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
        with pytest.raises(sx.ParameterError):
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
        with pytest.raises(sx.ParameterError):
            sx.eval_maxabs_functional(lopsided, 2, lambda m: m)

    def test_admits_horizons_past_64(self, theta_star):
        # the byte budget, not a horizon gate, bounds the running-max sweep
        maxabs = sx.eval_maxabs_functional(theta_star, 65, lambda m: m**2)
        terminal, _ = sx.eval_sum_functional(theta_star, 65, lambda s: s * s)
        assert maxabs >= terminal - 1e-12

    def test_horizon_256_traces_at_most_32_mb(self, theta_star):
        # a value per node and running max of a dense level, O(n^2) bytes
        tracemalloc.start()
        try:
            value = sx.eval_maxabs_functional(theta_star, 256, lambda m: m**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < value <= 256.0**4
        assert peak <= 32 * 10**6


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
        with pytest.raises(sx.ParameterError):
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
        lower_c = sx.capacity_sum_event(theta_star, 4, lambda s: ~pred(s), maximize=False)
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

    @pytest.mark.parametrize("lo, hi", [(1, 3), (2, 3), (3, 3), (1, 2)])
    def test_exit_obstacle_is_a_stage(self, lo, hi):
        # V and v of {d(S_k/k, M) >= eps for some k in [lo, hi]} solve the
        # optimal stopping recursion V_k = max(1{exit at k}, E-hat V_{k+1})
        # inside the window: an obstacle stage of one sweep, checked against
        # every history-dependent assignment of a mean-uncertain set
        family = sx.AmbiguitySet.from_rows(
            (-1.0, 0.0, 1.0), ((0.3, 0.4, 0.3), (0.5, 0.2, 0.3), (0.3, 0.2, 0.5))
        )
        far = lambda s, k, eps: np.maximum(np.abs(s / k) - 0.2, 0.0) >= eps  # M = [-0.2, 0.2]

        def exits(xs, eps):
            return any(far(s, k, eps) for k, s in enumerate(np.cumsum(xs), 1) if k >= lo)

        epsilons = (0.3, 0.5, 0.8)
        payoffs = []
        for eps in epsilons:
            payoffs.append(lambda xs, e=eps: float(exits(xs, e)))
            payoffs.append(lambda xs, e=eps: float(not exits(xs, e)))
        oracle = _brute_force_many(family, hi, payoffs)  # n = 4 is past _MAX_ASSIGNMENTS
        lattice = _lattice(family.grid.array, hi)
        zero = lambda k: np.zeros(lattice.size(k))
        for eps, upper, complement in zip(epsilons, oracle[::2], oracle[1::2]):
            hit = lambda k: far(lattice.states(k), k, eps).astype(float)
            obstacle = lambda k, v: np.maximum(v, hit(k)[:, None]) if k >= lo else v
            (exit_upper,), _ = _recursion(family, lattice, [hi], zero, stage=obstacle)
            (exit_lower,), _ = _recursion(family, lattice, [hi], zero, False, obstacle)
            assert exit_upper == pytest.approx(upper, abs=1e-12)
            assert exit_lower == pytest.approx(1.0 - complement, abs=1e-12)


class TestSeries:
    def test_matches_per_horizon_dp(self, theta_star):
        raw = sx.sum_functional_series(centred(theta_star), 9, lambda s: np.abs(s) ** 3)
        for n in (1, 2, 5, 9):
            direct, _ = sx.eval_sum_functional(theta_star, n, lambda s: abs(s) ** 3)
            assert raw[n - 1] == pytest.approx(direct, abs=1e-12)

    def test_variance_identity(self, theta_star):
        upper = sx.sum_functional_series(centred(theta_star), 40, lambda s: s * s)
        lower = sx.sum_functional_series(centred(theta_star), 40, lambda s: s * s, maximize=False)
        n = np.arange(1, 41)
        assert np.max(np.abs(upper - n * 1.0)) <= 1e-12
        assert np.max(np.abs(lower - n * 0.5)) <= 1e-12

    def test_shifted_mean_certain_set(self):
        # atoms {0, 1, 2} with symmetric weights: mean 1, variances about it
        shifted = sx.AmbiguitySet.from_rows(
            (0.0, 1.0, 2.0), ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5))
        )
        assert shifted.mean == pytest.approx(1.0, abs=1e-12)
        upper = sx.sum_functional_series(centred(shifted), 30, lambda s: s * s)
        assert np.max(np.abs(upper - np.arange(1, 31))) <= 1e-10

    def test_centered_requires_mean_certainty(self):
        # every entry point that centres the walk refuses a set with no certified mean
        lopsided = sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5), (0.25, 0.75)))
        callers = [
            lambda: sx.eval_maxabs_functional(lopsided, 3, lambda m: m),
            lambda: sx.eval_sumsq_functional(lopsided, 3, lambda q: q),
            lambda: sx.mz_check(lopsided, 4.0, [2, 3]),
            lambda: sx.holder_step_check(lopsided, 3.0, 4.0, 3),
            lambda: sx.subadditive_series_check(lopsided, 3.0, 3),
            lambda: sx.cc_series(lopsided, 0.5, 4.0, 3),
            lambda: sx.slp_series(lopsided, 3.0, 3),
            lambda: sx.clt_gap(lopsided, 3, 1.0),
        ]
        for call in callers:
            with pytest.raises(sx.ParameterError, match="not mean-certain"):
                call()

    def test_centring_is_a_shifted_set(self):
        assert "centered" not in inspect.signature(sx.sum_functional_series).parameters
        # a call that passed the old flag by position fails instead of dropping it
        maximize = inspect.signature(sx.sum_functional_series).parameters["maximize"]
        assert maximize.kind is inspect.Parameter.KEYWORD_ONLY

    def test_one_driver_runs_every_recursion(self):
        # the terminal, additive, many-horizon and at-most recursions are
        # all calls of iid._recursion, which applies the one-step operator itself
        for name in ("_chain_dp", "_horizons_dp", "_additive_dp", "_sweep"):
            assert not hasattr(iid, name), name
        # costs and the running max's raise are stages its callers build
        assert "axis" not in inspect.signature(_recursion).parameters


#: Every entry point that takes a payoff, as (its value at horizon n for a
#: payoff, the same functional of a path for the enumeration oracle).
PAYOFF_ENTRY_POINTS = {
    "eval_sum_functional": (
        lambda fam, n, f: sx.eval_sum_functional(fam, n, f)[0],
        lambda f: lambda xs: f(np.sum(xs)),
    ),
    "eval_additive_functional": (
        lambda fam, n, f: sx.eval_additive_functional(fam, n, [f] * n),
        lambda f: lambda xs: sum(f(s) for s in np.cumsum(xs)),
    ),
    "capacity_sum_event": (
        lambda fam, n, f: sx.capacity_sum_event(fam, n, f),
        lambda f: lambda xs: bool(f(np.sum(xs))),
    ),
    "eval_maxabs_functional": (
        lambda fam, n, f: sx.eval_maxabs_functional(fam, n, f),
        lambda f: lambda xs: f(np.max(np.abs(np.cumsum(xs)))),
    ),
    "eval_sumsq_functional": (
        lambda fam, n, f: sx.eval_sumsq_functional(fam, n, f),
        lambda f: lambda xs: f(np.sum(np.square(xs))),
    ),
    "sum_functional_series": (
        lambda fam, n, f: sx.sum_functional_series(fam, n, f)[-1],
        lambda f: lambda xs: f(np.sum(xs)),
    ),
}


@pytest.mark.parametrize("entry", list(PAYOFF_ENTRY_POINTS))
def test_payoffs_map_state_arrays(theta_star, entry):
    value_of, path_payoff = PAYOFF_ENTRY_POINTS[entry]
    # an array payoff, and a constant that broadcasts to every state
    for payoff in (lambda s: np.abs(s) ** 3 - s, lambda s: 2.5):
        oracle = sx.brute_force_oracle(theta_star, 2, path_payoff(payoff))
        assert value_of(theta_star, 2, payoff) == pytest.approx(oracle, abs=1e-12)
    for refused in (lambda s: np.append(s, 0.0), lambda s: 1.0 if s > 0 else 0.0):
        with pytest.raises(sx.ParameterError, match="array of states"):
            value_of(theta_star, 3, refused)
    if entry == "capacity_sum_event":
        truthy = lambda s: np.where(s > 0, 2.0, np.where(s < 0, 0.5, 0.0))
        assert value_of(theta_star, 3, truthy) == value_of(theta_star, 3, lambda s: s != 0)


#: Entry points whose horizon reaches the lattice before any other use.
LATTICE_HORIZON_ENTRY_POINTS = {
    "eval_sum_functional": lambda fam, n: sx.eval_sum_functional(fam, n, np.abs),
    "capacity_sum_event": lambda fam, n: sx.capacity_sum_event(fam, n, lambda s: s > 0),
    "eval_additive_functional": lambda fam, n: sx.eval_additive_functional(fam, n, [np.abs] * 3),
    "eval_maxabs_functional": lambda fam, n: sx.eval_maxabs_functional(fam, n, np.abs),
    "eval_sumsq_functional": lambda fam, n: sx.eval_sumsq_functional(fam, n, np.abs),
    "subadditive_series_check": lambda fam, n: sx.subadditive_series_check(fam, 3.0, n),
    "sqs_empirical": lambda fam, n: sx.sqs_empirical(fam, 3.0, n, 10, 0),
}


@pytest.mark.parametrize("entry", list(LATTICE_HORIZON_ENTRY_POINTS))
@pytest.mark.parametrize("horizon", [3.0, np.float64(3.0), True], ids=["float", "float64", "bool"])
def test_a_float_horizon_is_a_parameter_error(theta_star, entry, horizon):
    match = r"horizon must be an integer >= 0, got (3\.0|True)"
    with pytest.raises(sx.ParameterError, match=match):
        LATTICE_HORIZON_ENTRY_POINTS[entry](theta_star, horizon)


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
        for row in theta_star.weight_matrix:
            single = sx.AmbiguitySet(theta_star.grid, row[None])
            classical, _ = sx.eval_sum_functional(single, 5, fn)
            assert lower - 1e-12 <= classical <= upper + 1e-12

    def test_random_sets_sandwich(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            ambiguity = random_ambiguity(rng, max_atoms=4, max_measures=3)
            fn = lambda s: abs(s - 0.3) ** 2
            upper, _ = sx.eval_sum_functional(ambiguity, 3, fn)
            lower = lower_sum(ambiguity, 3, fn)
            for row in ambiguity.weight_matrix:
                single = sx.AmbiguitySet(ambiguity.grid, row[None])
                mid, _ = sx.eval_sum_functional(single, 3, fn)
                assert lower - 1e-12 <= mid <= upper + 1e-12

    def test_mean_zero_families_variance_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ambiguity = random_mean_zero_ambiguity(rng)
            lo, hi = ambiguity.variance_interval
            upper = sx.sum_functional_series(centred(ambiguity), 12, lambda s: s * s)
            lower = sx.sum_functional_series(
                centred(ambiguity), 12, lambda s: s * s, maximize=False
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


def one_path(ambiguity, policy, n, seed):
    """The increments and partial sums of one path drawn from ``default_rng(seed)``."""
    steps = list(_sample_steps(ambiguity, [policy], n, [np.random.default_rng(seed)], 1))
    return tuple(float(x[0, 0]) for x, _ in steps), tuple(float(s[0, 0]) for _, s in steps)


class TestSamplePath:
    def test_deterministic_replay(self, theta_star):
        _, policy = sx.eval_sum_functional(theta_star, 6, lambda s: abs(s) ** 4)
        first = one_path(theta_star, policy, 6, seed=42)
        second = one_path(theta_star, policy, 6, seed=42)
        assert first == second
        increments, partial_sums = first
        assert len(increments) == 6
        assert all(x in theta_star.grid.atoms for x in increments)
        assert partial_sums == tuple(np.cumsum(increments))

    def test_single_measure_is_classical_sampling(self, coin):
        _, policy = sx.eval_sum_functional(coin, 500, lambda s: s)
        increments, _ = one_path(coin, policy, 500, seed=1)
        values, counts = np.unique(increments, return_counts=True)
        assert set(values) == {-1.0, 1.0}
        assert abs(counts[0] - counts[1]) < 120  # ~4.8 sigma for 500 fair flips

    def test_policy_gap(self, theta_star):
        _, policy = sx.eval_sum_functional(theta_star, 3, lambda s: s)
        with pytest.raises(sx.ParameterError):
            one_path(theta_star, policy, 4, seed=0)

    def test_batch_of_one_matches_stepwise_reference(self, theta_star):
        def reference(ambiguity, policy, n, seed):
            # one path, one measure lookup and one draw per step; the lookup
            # finds the state's lattice value, the exact sum correctly rounded
            rng = np.random.default_rng(seed)
            atoms = ambiguity.grid.array
            cumw = np.cumsum(ambiguity.weight_matrix, axis=1)
            increments, sums, s, exact = [], [], 0.0, Fraction(0)
            for k in range(n):
                at = np.flatnonzero(policy.lattice.states(k) == float(exact))
                row = cumw[policy.choices[k][at[0]]]
                j = min(int(np.searchsorted(row, rng.random(), side="right")), atoms.size - 1)
                s += atoms[j]
                exact += Fraction(repr(float(atoms[j])))
                increments.append(float(atoms[j]))
                sums.append(float(s))
            return tuple(increments), tuple(sums)

        irregular = sx.AmbiguitySet.from_rows(
            (-0.7, 0.1, 1.3), ((0.2, 0.5, 0.3), (0.6, 0.1, 0.3))
        )
        cases = [
            (theta_star, sx.eval_sum_functional(theta_star, 30, lambda s: abs(s) ** 3)[1], 30),
            (theta_star, sx.eval_sum_functional(theta_star, 30, abs, maximize=False)[1], 17),
            (irregular, sx.eval_sum_functional(irregular, 10, lambda s: abs(s) ** 3)[1], 10),
        ]
        for ambiguity, policy, n in cases:
            for seed in range(40):
                assert one_path(ambiguity, policy, n, seed) == reference(ambiguity, policy, n, seed)

    def test_policy_replay_matches_closed_forms(self, theta_star):
        # E[S_n^4] = n m4 + 3 n (n-1) var^2 for an i.i.d. sum with mean zero
        n = 50
        value, argmax = sx.eval_sum_functional(theta_star, n, lambda s: s**4)
        lattice = argmax.lattice
        quartic = lambda k: lattice.states(k) ** 4
        (replayed,), _ = _recursion(theta_star, lattice, [n], quartic, replay=[argmax])
        assert replayed == value
        for i, (var, m4) in enumerate([(0.5, 0.5), (1.0, 1.0)]):
            constant = sx.SelectionPolicy(lattice, tuple(np.full_like(c, i) for c in argmax.choices))
            (exact,), _ = _recursion(theta_star, lattice, [n], quartic, replay=[constant])
            assert exact == pytest.approx(n * m4 + 3 * n * (n - 1) * var**2, rel=1e-12)

    def test_replay_needs_the_policy_lattice(self, theta_star):
        _, policy = sx.eval_sum_functional(theta_star, 5, abs)
        longer = _lattice(theta_star.grid.array, 6)
        with pytest.raises(sx.ParameterError):
            _recursion(theta_star, longer, [6], lambda k: np.abs(longer.states(k)), replay=[policy])
        wider = _lattice(theta_star.grid.array * 2, 5)
        with pytest.raises(sx.ParameterError):
            _recursion(theta_star, wider, [5], lambda k: np.abs(wider.states(k)), replay=[policy])

    def test_batch_sampling_matches_exact_policy_value(self, theta_star):
        n = 50
        for maximize in (True, False):
            value, policy = sx.eval_sum_functional(theta_star, n, lambda s: s**4, maximize)
            lattice = policy.lattice
            quartic = lambda k: lattice.states(k) ** 4
            (exact,), _ = _recursion(theta_star, lattice, [n], quartic, replay=[policy])
            assert exact == value
            rngs = [np.random.default_rng(1000)]
            for _, sums in _sample_steps(theta_star, [policy], n, rngs, 10_000):
                pass
            draws = sums[0] ** 4
            stderr = draws.std(ddof=1) / np.sqrt(draws.size)
            assert abs(draws.mean() - exact) <= SAMPLING_Z * stderr


#: The tolerance within which the value-lookup sampler located a sum.
LOOKUP_TOL = 1e-6


def located(states, values):
    """Positions of ``values`` on the sorted ``states``, within LOOKUP_TOL:
    the lower neighbour when it is that close, else the upper one."""
    hi = np.searchsorted(states, values)
    lo = np.maximum(hi - 1, 0)
    hi = np.minimum(hi, states.size - 1)
    use_lo = np.abs(states[lo] - values) <= LOOKUP_TOL
    assert (use_lo | (np.abs(states[hi] - values) <= LOOKUP_TOL)).all()
    return np.where(use_lo, lo, hi)


def value_lookup_steps(ambiguity, policy, n, rng, n_paths):
    """The sampler as it was when paths carried only their partial sums: each
    step located every path's sum among the sorted states of the level, within
    LOOKUP_TOL, and took the pick stored at that state."""
    lattice = policy.lattice
    atoms = ambiguity.grid.array
    cumw = np.cumsum(ambiguity.weight_matrix, axis=1)
    s = np.zeros(n_paths)
    for k in range(n):
        states = lattice.states(k)
        order = np.argsort(states, kind="stable")
        rows = cumw[policy.choices[k][order][located(states[order], s)]]
        u = rng.random(n_paths)
        j = np.minimum(np.sum(rows <= u[:, None], axis=1), atoms.size - 1)
        x = atoms[j]
        s = s + x
        yield x, s


def single_policy_steps(ambiguity, policy, n, rng, n_paths):
    """The sampler as it was before it stepped a stack of policies: one
    policy's paths, its byte picks indexing each cumulative weight column
    and the count over all J columns capped at J-1."""
    lattice = policy.lattice
    atoms = ambiguity.grid.array
    cumw = np.cumsum(ambiguity.weight_matrix, axis=1)
    node = np.zeros(n_paths, dtype=np.intp)
    s = np.zeros(n_paths)
    for k in range(n):
        picks = policy.choices[k][node]
        u = rng.random(n_paths)
        j = np.minimum(sum(column[picks] <= u for column in cumw.T), atoms.size - 1)
        x = atoms[j]
        s = s + x
        node = lattice.step(node, j)
        yield x, s


def constant_policy(like, measure):
    """The policy that picks ``measure`` at every node of ``like``'s lattice."""
    picks = (np.broadcast_to(c.dtype.type(measure), c.shape) for c in like.choices)
    return SelectionPolicy(like.lattice, tuple(picks))


#: One grid per lattice a policy can be built on: the canonical dense one, a
#: gapped dense one, float atoms on the composition lattice, and a sparse
#: grid on the composition lattice of its integer shifts.
POLICY_GRIDS = {
    "dense": (-1.0, 0.0, 1.0),
    "gapped": (0.0, 0.5, 1.5),
    "float": (-1.0, -np.sqrt(0.3), 0.1 * np.pi),
    "composition": (0.0, 1.0, 2.0, 2000.0),
}


def grid_policies(atoms, n):
    """Upper and lower policies of a terminal and of an additive functional on ``atoms``."""
    family = two_measures(atoms)
    lattice = _lattice(family.grid.array, n)
    terminal = lambda k: np.abs(lattice.states(k) - 0.3) ** 3
    stage = lambda k, v: v + np.cos(lattice.states(k) + k)[:, None]
    policies = [
        _recursion(family, lattice, [n], terminal, maximize, want_policy=True)[1]
        for maximize in (True, False)
    ]
    policies.append(_recursion(family, lattice, [n], terminal, stage=stage, want_policy=True)[1])
    return family, policies


class TestIndexPolicies:
    def test_grids_cover_every_representation(self):
        kinds = {kind: representation(atoms, 6) for kind, atoms in POLICY_GRIDS.items()}
        assert kinds == {
            "dense": "dense", "gapped": "dense", "float": "float", "composition": "composition"
        }
        # the gapped lattice holds nodes of sums that no k draws reach
        family = two_measures(POLICY_GRIDS["gapped"])
        gapped = _lattice(family.grid.array, 6)
        assert all(gapped.size(k) > len(sx.sum_lattice(family, k).states) for k in range(1, 7))

    def test_choices_must_cover_their_level(self, theta_star):
        _, policy = sx.eval_sum_functional(theta_star, 3, abs)
        for short in (policy.choices[2][:-1], policy.choices[2].astype(float)):
            with pytest.raises(sx.ParameterError, match="every state"):
                SelectionPolicy(policy.lattice, policy.choices[:2] + (short,))

    @pytest.mark.parametrize("kind", list(POLICY_GRIDS))
    def test_index_sampler_matches_value_lookup_bit_for_bit(self, kind):
        n = 12
        family, policies = grid_policies(POLICY_GRIDS[kind], n)
        for policy in policies:
            for seed in range(4):
                steps = _sample_steps(family, [policy], n, [np.random.default_rng(seed)], 300)
                reference = value_lookup_steps(family, policy, n, np.random.default_rng(seed), 300)
                for (x, s), (x_ref, s_ref) in itertools.zip_longest(steps, reference):
                    np.testing.assert_array_equal(x[0], x_ref)
                    np.testing.assert_array_equal(s[0], s_ref)

    @pytest.mark.parametrize("kind", list(POLICY_GRIDS))
    def test_batched_rows_match_the_single_policy_sampler(self, kind):
        # kept policies and measure indices in one batch; each row is its
        # policy's run alone, a measure index run as its constant policy
        n = 12
        family, policies = grid_policies(POLICY_GRIDS[kind], n)
        rows = [*policies, 1, 0]
        alone = [*policies, *(constant_policy(policies[0], i) for i in (1, 0))]
        for seed in range(4):
            streams = np.random.SeedSequence(seed).spawn(len(rows))
            rngs = [np.random.default_rng(stream) for stream in streams]
            batched = _sample_steps(family, rows, n, rngs, 300)
            references = [
                single_policy_steps(family, policy, n, np.random.default_rng(stream), 300)
                for policy, stream in zip(alone, streams)
            ]
            for (x, s), *steps in itertools.zip_longest(batched, *references):
                assert x.shape == s.shape == (len(rows), 300)
                for i, (x_ref, s_ref) in enumerate(steps):
                    np.testing.assert_array_equal(x[i], x_ref)
                    np.testing.assert_array_equal(s[i], s_ref)

    def test_each_row_needs_its_generator(self, theta_star):
        _, policy = sx.eval_sum_functional(theta_star, 4, abs)
        with pytest.raises(sx.ParameterError, match="generators"):
            next(_sample_steps(theta_star, [policy, 0], 4, [np.random.default_rng(0)], 10))


def test_oracle_frees_its_arrays_on_return(theta_star):
    gc.collect()
    gc.disable()
    try:
        sx.brute_force_oracle(theta_star, 3, lambda xs: float(np.sum(xs)) ** 2)
        assert gc.collect() == 0  # nothing left for the cycle collector
    finally:
        gc.enable()


def test_oracle_holds_one_root_measure_slice():
    # 3 measures on 13 decision nodes: 3^13 assignments, 12.2 MiB as one
    # array; a root measure's slice is a third of that
    family = sx.AmbiguitySet.from_rows(
        (-1.0, 0.0, 1.0), ((0.3, 0.4, 0.3), (0.5, 0.2, 0.3), (0.3, 0.2, 0.5))
    )
    tracemalloc.start()
    try:
        value = sx.brute_force_oracle(family, 3, lambda xs: abs(float(np.sum(xs))) ** 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20
    recursion, _ = sx.eval_sum_functional(family, 3, lambda s: np.abs(s) ** 3)
    assert value == pytest.approx(recursion, rel=1e-12)


def test_oracle_matches_an_exact_enumeration():
    # every assignment's expectation in rationals, from the float weights and
    # payoffs; the tower property rounds n weighted sums along each path
    family = sx.AmbiguitySet.from_rows((-1.1, 0.3, 0.95), ((0.2, 0.5, 0.3), (0.4, 0.2, 0.4)))
    atoms, weights = family.grid.array, family.weight_matrix
    payoff = lambda xs: abs(float(np.sum(xs))) ** 3
    exact = max(
        sum(
            Fraction(weights[root][a])
            * Fraction(weights[below[a]][b])
            * Fraction(payoff(atoms[[a, b]]))
            for a in range(3)
            for b in range(3)
        )
        for root, *below in itertools.product(range(2), repeat=4)
    )
    assert sx.brute_force_oracle(family, 2, payoff) == pytest.approx(float(exact), rel=2 * 2**-52)


def test_batched_oracle_matches_single(theta_star):
    payoffs = [
        lambda xs: float(np.sum(xs)) ** 2,
        lambda xs: float(np.max(np.abs(np.cumsum(xs)))) ** 4,
    ]
    batched = _brute_force_many(theta_star, 2, payoffs)
    singles = [sx.brute_force_oracle(theta_star, 2, f) for f in payoffs]
    assert batched == pytest.approx(singles, abs=0.0)


#: Incommensurable atoms: no unit divides their differences.
FLOAT_ATOMS = (-1.0, -np.sqrt(0.3), 0.1 * np.pi, np.e / 2, np.sqrt(2.0))


def two_measures(atoms):
    """A uniform and a tilted measure on ``atoms``."""
    tilt = np.linspace(1.0, 2.0, len(atoms))
    uniform = np.full(len(atoms), 1 / len(atoms))
    return sx.AmbiguitySet.from_rows(atoms, (uniform, tilt / tilt.sum()))


def units_of(atoms):
    return _commensurable(np.asarray(atoms, dtype=float))


def dense(atoms, n):
    """The dense integer lattice of a commensurable grid, whatever its size."""
    return _dense_lattice(units_of(atoms))


def sparse(atoms, n):
    """The composition lattice of a commensurable grid's integer shifts,
    valued by its units."""
    units = units_of(atoms)
    return _composition_lattice(np.array(units.shifts, dtype=float), n, units=units)


@dataclass(frozen=True, eq=False)
class MergedLattice(_Lattice):
    """Merged nodes, as the reference chains build them: ``levels[k]`` holds
    the values of level k and ``maps[k][i, j]`` is the node of level k+1
    that move j reaches from node i of level k."""

    levels: list
    maps: list

    def size(self, k):
        return self.levels[k].size

    def states(self, k):
        return self.levels[k]

    def successors(self, k, values):
        return [values[step_map] for step_map in self.maps[k].T]

    def gathered(self):
        return self.maps[0].shape[1] if self.maps else 0

    def nbytes(self):
        return sum(a.nbytes for a in self.levels + self.maps)


@dataclass(frozen=True, eq=False)
class AtMostChain(MergedLattice):
    """A float chain of the sums of at most k offsets: ``origins[k]`` is the
    node of level k that holds 0."""

    origins: tuple[int, ...] = ()

    def origin(self, k):
        return self.origins[k]


def reference_float_chain(offsets, n, at_most=False, tol=iid.MERGE_TOL):
    """The float sort-and-merge lattice the composition lattice replaced: each
    level's candidate sums sorted, runs closer than ``tol`` fused, and one
    transition map stored per step.  With ``at_most``, a zero offset is put
    first and keeps shorter sums."""
    offsets = np.asarray(offsets, dtype=float)
    if at_most:
        offsets = np.concatenate([np.zeros(1), offsets])
    levels, maps = [np.zeros(1)], []
    for _ in range(n):
        cur = levels[-1]
        reps, gids = _merge((cur[:, None] + offsets[None, :]).ravel(), tol)
        levels.append(reps)
        maps.append(gids.reshape(cur.size, offsets.size))
    if not at_most:
        return MergedLattice(levels, maps)
    origins = [0]
    for step_map in maps[:-1]:
        origins.append(int(step_map[origins[-1], 0]))
    return AtMostChain(levels, [step_map[:, 1:] for step_map in maps], tuple(origins))


def reference_pair_chain(offsets, n, tol):
    """The chain of (sum, running max of |sum|) pairs that the running max ran
    on before it became a value axis: each level's candidate pairs quantized
    at resolution ``tol``, equal ones fused, and one transition map stored
    per step.  Returns the running maxima of every level and the maps."""
    s_cur, m_cur = np.zeros(1, dtype=offsets.dtype), np.zeros(1, dtype=offsets.dtype)
    levels, maps = [m_cur], []
    for _ in range(n):
        s_next = (s_cur[:, None] + offsets[None, :]).ravel()
        m_next = np.maximum(np.repeat(m_cur, offsets.size), np.abs(s_next))
        ks = np.round(s_next / tol).astype(np.int64)
        km = np.round(m_next / tol).astype(np.int64)
        order = np.lexsort((km, ks))
        new = np.empty(order.size, dtype=bool)
        new[0] = True
        new[1:] = (np.diff(ks[order]) != 0) | (np.diff(km[order]) != 0)
        gids = np.empty(order.size, dtype=np.int64)
        gids[order] = np.cumsum(new) - 1
        keep = order[new]
        s_cur, m_cur = s_next[keep], m_next[keep]
        maps.append(gids.reshape(-1, offsets.size))
        levels.append(m_cur)
    return levels, maps


def reference_pair_lattice(offsets, n):
    """Levels 0..n of the pair chain of centered ``offsets``, valued by their
    running maxima: commensurable offsets merge their integer shifts exactly,
    each maximum valued by their units; other offsets merge floats at
    ``MERGE_TOL``."""
    units = _commensurable(np.concatenate([np.zeros(1), offsets]))
    if units is None or n * units.span >= 2**53:
        return MergedLattice(*reference_pair_chain(offsets, n, iid.MERGE_TOL))
    shifts = np.array(units.shifts, dtype=np.int64)
    maxima, maps = reference_pair_chain(shifts[1:] - shifts[0], n, 1)
    return MergedLattice([units.values(0, m) for m in maxima], maps)


#: Mean-certain sets whose running max the oracle and the pair chain check.
RUNNING_MAX_SETS = [
    ((-1.0, 0.0, 1.0), ((0.25, 0.5, 0.25), (0.4, 0.2, 0.4))),
    ((-1.0, 0.5), ((1 / 3, 2 / 3),)),
    ((-0.3, 0.1, 0.2), ((0.36, 0.2, 0.44), (0.4, 0.0, 0.6))),
    ((-0.5, 0.0, 1.0), ((0.4, 0.4, 0.2), (0.6, 0.1, 0.3))),
]


def merged(atoms, n):
    """The float-merge lattice of the grid, whatever its atoms."""
    return reference_float_chain(atoms, n)


def representation(atoms, n):
    lattice = _lattice(np.asarray(atoms, dtype=float), n)
    if isinstance(lattice, _IntLattice):
        return "dense"
    assert isinstance(lattice, _CompositionLattice)
    return "float" if lattice.units is None else "composition"


def relocated(policy, target):
    """``policy``'s picks at the states of the policy ``target``, on its lattice,
    located by value among the sorted states of ``policy``."""
    at = [
        np.searchsorted(policy.lattice.states(k), target.lattice.states(k))
        for k in range(target.horizon)
    ]
    return SelectionPolicy(target.lattice, tuple(c[i] for c, i in zip(policy.choices, at)))


def reached_nodes(dense_lattice, other, k):
    """The nodes of level k of ``dense_lattice`` that hold the distinct sums of
    level k of ``other``, a lattice of reached sums only; asserts that they
    hold exactly those values."""
    reached = np.unique(other.states(k))
    at = np.searchsorted(dense_lattice.states(k), reached)
    assert np.array_equal(dense_lattice.states(k)[at], reached)
    return at


def exact_sum(path):
    """A path's sum over the decimals its atoms are written as."""
    return sum(Fraction(repr(float(x))) for x in path)


def draw_family(draw, atoms):
    """1-3 random measures on ``atoms``."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        sizes = {"min_size": len(atoms), "max_size": len(atoms)}
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), **sizes)))
        rows.append(w / w.sum())
    return sx.AmbiguitySet.from_rows(atoms, rows)


@st.composite
def commensurable_sets(draw, dyadic=False):
    """Grids ``lo + shift * unit`` of decimals (gapped ones included): dyadic
    ones, whose float sums are exact, and others, whose float sums round;
    1-3 random measures.  With ``dyadic``, dyadic ones only."""
    units = ["0.25", "0.5", "1", "2"] if dyadic else ["0.1", "0.25", "0.3", "0.5", "1", "2"]
    unit = Fraction(draw(st.sampled_from(units)))
    shifts = draw(st.lists(st.integers(0, 4), min_size=2, max_size=4, unique=True))
    lo = Fraction(draw(st.integers(-15, 5)), 4 if dyadic else 10)
    atoms = sorted(float(lo + (s - min(shifts)) * unit) for s in shifts)
    return draw_family(draw, atoms)


@st.composite
def float_sets(draw):
    """2-5 float atoms in about [-2, 2], at least 0.05 apart; 1-3 random measures."""
    lo = draw(st.floats(-2.0, 0.0))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    return draw_family(draw, np.cumsum([lo, *gaps]))


def at_most_series(ambiguity, lattice, horizon, psi, maximize=True):
    """The all-horizon values of ``psi(S_n)`` read at the origin of an at-most
    lattice, as ``sum_functional_series`` reads them, from a one-step loop of
    its own: products summed in move order, the best measure elementwise."""
    values = psi(lattice.states(horizon))
    out = np.empty(horizon)
    for k in range(horizon - 1, -1, -1):
        succ = lattice.successors(k, values)
        scored = [sum(nxt * w for nxt, w in zip(succ, row)) for row in ambiguity.weight_matrix]
        values = (np.max if maximize else np.min)(scored, axis=0)
        out[horizon - 1 - k] = values[lattice.origin(k)]
    return out


def graded_rank(tail):
    """The rank of a tail in the combinatorial number system, from its suffix
    sums g_i: sum_i C(g_i + e - i, e - i + 1), i = 1..e."""
    e = len(tail)
    suffix = np.cumsum(tail[::-1])[::-1]
    return sum(math.comb(int(suffix[i]) + e - 1 - i, e - i) for i in range(e))


class TestIndexLattice:
    @pytest.mark.parametrize(
        "atoms, n, kind",
        [
            ((-1.0, 0.0, 1.0), 4, "dense"),
            ((-0.5, 0.0, 1.0), 4, "dense"),
            ((-0.5, 0.0, 1.0), 3, "composition"),  # dense levels 3k+1 outnumber the multisets
            ((0.0, 0.5, 1.5), 2, "composition"),
            ((0.4, 0.6, 1.0), 4, "dense"),
            ((-0.3, 0.1, 0.2), 10, "dense"),  # the unit 1/10 is not dyadic
            ((-0.3, 0.1, 0.2), 4, "composition"),
            ((-0.7, 0.1 * np.pi), 4, "dense"),  # any two atoms are commensurable
            ((-1.0, -0.9995, 0.0, 0.9995, 1.0), 70, "dense"),  # 4000 units wide
            ((0.0, 1.0, 2000.0), 4, "composition"),
            ((-0.7, 0.1, 1.3 * np.sqrt(2.0)), 4, "float"),
            (FLOAT_ATOMS, 4, "float"),
            ((0.0, 1e-10), 4, "float"),  # a unit the float merge would blur
        ],
    )
    def test_representation_follows_the_node_counts(self, atoms, n, kind):
        assert representation(atoms, n) == kind

    def test_gapped_grid_holds_every_node(self):
        gapped = dense([0.0, 0.5, 1.5], 3)
        assert gapped.units.unit_num / gapped.units.den == 0.5
        # 2.5 is a node, but no two draws sum to it
        assert gapped.states(2).tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        for k in range(4):
            at = reached_nodes(gapped, sparse([0.0, 0.5, 1.5], 3), k)
            assert np.array_equal(gapped.states(k)[at], merged([0.0, 0.5, 1.5], 3).states(k))
        assert merged([0.0, 0.5, 1.5], 3).states(3).size < gapped.size(3)
        # 0 + 0 + 1.5 and 0.5 + 0.5 + 0.5 are two nodes of one sum
        distinct = merged([0.0, 0.5, 1.5], 3).states(3).size
        assert sparse([0.0, 0.5, 1.5], 3).states(3).size == distinct + 1

    def test_lattice_values_are_the_written_decimals(self):
        # 4*(-0.3) + 19*0.1 rounds to 0.7000000000000002; the node is 0.7
        reached = [0, 4, 5, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20]
        written = [float(Fraction(i - 12, 10)) for i in reached]
        assert dense((-0.3, 0.1, 0.2), 4).states(4)[reached].tolist() == written
        assert sparse((-0.3, 0.1, 0.2), 4).states(4).tolist() == written

    @pytest.mark.parametrize("build", [dense, sparse])
    def test_threshold_at_a_lattice_value_matches_oracle(self, build):
        ambiguity = two_measures((-0.3, 0.1, 0.2))
        n = 3
        lattice = build(ambiguity.grid.array, n)
        for c in lattice.states(n):
            bound = Fraction(repr(float(c)))
            for event, exact in (
                (lambda s: s >= c, lambda xs: exact_sum(xs) >= bound),
                (lambda s: s <= c, lambda xs: exact_sum(xs) <= bound),
            ):
                terminal = np.array([float(event(s)) for s in lattice.states(n)])
                (value,), _ = _recursion(ambiguity, lattice, [n], lambda k: terminal)
                oracle = sx.brute_force_oracle(ambiguity, n, lambda xs: float(exact(xs)))
                assert value == pytest.approx(oracle, rel=1e-12, abs=1e-15)
                public = sx.capacity_sum_event(ambiguity, n, event)
                assert public == pytest.approx(oracle, rel=1e-12, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(commensurable_sets(), st.integers(1, 6), st.booleans(), st.floats(-1.0, 1.0))
    @example(two_measures((-0.5, 0.0, 1.0)), 5, True, 0.3)
    @example(two_measures((0.0, 0.5, 1.5)), 5, False, 0.1)
    @example(two_measures((-0.3, 0.1, 0.2)), 5, True, 0.2)
    @example(  # the additive value cancels to about -5.17e-05
        sx.AmbiguitySet.from_rows(
            (-0.5, 0.1, 0.4), ([0.3797468840207178, 0.3136076016309336, 0.3066455143483485],)
        ),
        5,
        False,
        1e-14,
    )
    def test_integer_kernels_match_float_merge(self, ambiguity, n, maximize, center):
        atoms = ambiguity.grid.array
        lattices = dense(atoms, n), sparse(atoms, n), merged(atoms, n)
        assert isinstance(lattices[0], _IntLattice)
        dyadic = (units_of(atoms).den & (units_of(atoms).den - 1)) == 0
        for k in range(n + 1):
            # the composition lattice's distinct sums are the reached ones
            reached = lattices[0].states(k)[reached_nodes(lattices[0], lattices[1], k)]
            assert np.allclose(reached, lattices[2].states(k), rtol=0.0, atol=1e-12)
            assert np.array_equal(reached, lattices[2].states(k)) or not dyadic
        payoff = lambda s: np.abs(s - center) ** 3
        stages = [lambda k, v, lat=lat: v + np.cos(lat.states(k) + k)[:, None] for lat in lattices]
        results = []
        for lattice, stage in zip(lattices, stages):
            terminal = lambda k, lat=lattice: payoff(lat.states(k))
            results.append(
                _recursion(ambiguity, lattice, [n], terminal, maximize, stage, want_policy=True)
            )
        ((v_dense,), p_dense), ((v_sparse,), p_sparse), ((v_float,), p_float) = results
        assert v_dense == v_sparse
        # the value sums n stage costs of at most 1 and a terminal; where they
        # nearly cancel, rounding is relative to those magnitudes, not the sum
        close = {"rel": 1e-12, "abs": 1e-12 * (n + np.max(payoff(lattices[0].states(n))))}
        assert v_dense == pytest.approx(v_float, **close)
        for k in range(n):
            # the reached nodes, and the nodes of one sum on the composition
            # lattice: equal values, equal picks
            at = np.searchsorted(lattices[0].states(k), lattices[1].states(k))
            assert np.array_equal(lattices[0].states(k)[at], lattices[1].states(k))
            assert np.array_equal(p_dense.choices[k][at], p_sparse.choices[k])
            # the float merge lists the distinct sums in order
            at = reached_nodes(lattices[0], lattices[1], k)
            assert np.array_equal(p_dense.choices[k][at], p_float.choices[k]) or not dyadic
        # the dense policy, located by value, replays to its value on the others
        others = zip(lattices[1:] if dyadic else lattices[1:2], stages[1:], (p_sparse, p_float))
        for lattice, stage, target in others:
            terminal = lambda k, lat=lattice: payoff(lat.states(k))
            policy = relocated(p_dense, target)
            (replayed,), _ = _recursion(
                ambiguity, lattice, [n], terminal, stage=stage, replay=[policy]
            )
            assert replayed == pytest.approx(v_dense, **close)

    @pytest.mark.parametrize(
        "atoms",
        [(-0.5, 0.0, 1.0), (0.0, 0.5, 1.5), (-1.0, 1.0), (-0.3, 0.1, 0.2), (0.0, 1.0, 2000.0)],
    )
    def test_series_matches_float_merge_per_horizon(self, atoms):
        ambiguity = two_measures(atoms)
        series = sx.sum_functional_series(ambiguity, 8, lambda s: np.abs(s - 0.25) ** 3)
        slow = merged(atoms, 8)
        terminal = lambda k: np.abs(slow.states(k) - 0.25) ** 3
        for n in range(1, 9):
            (value,), _ = _recursion(ambiguity, slow, [n], terminal)
            assert series[n - 1] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("offsets, rows", RUNNING_MAX_SETS)
    def test_running_max_matches_the_oracle(self, offsets, rows):
        # the pair chain on integer shifts, or on floats where the float mean
        # is not exactly 0, against every history-dependent assignment
        ambiguity = sx.AmbiguitySet.from_rows(offsets, rows)
        mu = ambiguity.require_mean_certain("the oracle")
        maxabs = lambda xs: float(np.max(np.abs(np.cumsum(xs - mu)))) ** 3
        for n in range(1, 5 if len(rows) == 1 else 4):
            value = sx.eval_maxabs_functional(ambiguity, n, lambda m: m**3)
            oracle = sx.brute_force_oracle(ambiguity, n, maxabs)
            assert value == pytest.approx(oracle, rel=1e-12, abs=1e-15), n

    @pytest.mark.parametrize(
        "offsets, rows", [((-1.0, 0.0, 1.0), ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5)))] + RUNNING_MAX_SETS
    )
    def test_running_max_matches_the_pair_chain(self, offsets, rows):
        # the running max as a value axis against the pair chain at every
        # horizon: bit for bit where the chain merged integer shifts, within
        # rounding on float offsets (the float mean of the third set is not
        # exactly 0), whose composition lattice runs every n <= 32 in 0.3 s
        ambiguity = sx.AmbiguitySet.from_rows(offsets, rows)
        centered = ambiguity.grid.array - ambiguity.require_mean_certain("the chain")
        exact = units_of(np.concatenate([np.zeros(1), centered])) is not None
        top = 64 if exact else 32
        chain = reference_pair_lattice(centered, top)
        phi = lambda m: m**3
        expected, _ = _recursion(ambiguity, chain, range(1, top + 1), lambda n: phi(chain.states(n)))
        series = iid._series(ambiguity, centered, range(1, top + 1), phi, running_max=True)
        value = sx.eval_maxabs_functional(ambiguity, top, phi)
        assert value == series[-1]
        if exact:
            assert np.array_equal(series, expected)
        else:
            assert np.allclose(series, expected, rtol=1e-12, atol=0.0)

    def test_mean_certain_gapped_running_max(self):
        # offsets {-1, 0.5} and 0 share the unit 0.5: a step moves the sum by 0 or
        # 3 nodes, so the pair lattice is gapped
        lopsided = sx.AmbiguitySet.from_rows((-1.0, 0.5), ((1 / 3, 2 / 3),))
        for n in (1, 2, 4):
            value = sx.eval_maxabs_functional(lopsided, n, lambda m: m**2)
            oracle = sx.brute_force_oracle(
                lopsided, n, lambda xs: float(np.max(np.abs(np.cumsum(xs)))) ** 2
            )
            assert value == pytest.approx(oracle, rel=1e-12)

    def test_wide_pair_grid_is_merged_within_bounded_memory(self):
        # 1024 units between the extreme atoms: the dense (sum, max) grid would
        # hold about 3e8 nodes by n = 12; the merge holds the reached pairs
        atoms = (-0.5, -0.5 + 2**-10, 0.0, 0.5 - 2**-10, 0.5)
        wide = sx.AmbiguitySet.from_rows(atoms, ((0.2, 0.2, 0.2, 0.2, 0.2), (0.1, 0.3, 0.2, 0.3, 0.1)))
        tracemalloc.start()
        try:
            value = sx.eval_maxabs_functional(wide, 12, lambda m: m**2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < value <= 36.0
        assert peak < 32 * 2**20

    def test_sparse_commensurable_grid_runs_on_compositions(self):
        # (0, 1, 2000): the dense levels hold 2000k + 1 nodes, the composition
        # levels C(k + 2, 2); reference: the dense lattice
        family = two_measures((0.0, 1.0, 2000.0))
        n = 400
        event = lambda s: s >= 380_000  # 190 draws of 2000
        tracemalloc.start()
        try:
            value = sx.capacity_sum_event(family, n, event)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert representation(family.grid.array, n) == "composition"
        assert peak < 32 * 2**20
        full = dense(family.grid.array, n)
        terminal = lambda k: (full.states(k) >= 380_000).astype(float)
        (reference,), _ = _recursion(family, full, [n], terminal)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(reference, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("atoms", [None, (0.0, 0.5, 1.5)], ids=["canonical", "gapped"])
    def test_series_memory_is_linear(self, theta_star, atoms):
        family = theta_star if atoms is None else two_measures(atoms)
        tracemalloc.start()
        try:
            series = sx.sum_functional_series(family, 4000, lambda s: np.abs(s) ** 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.shape == (4000,)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize(
        "atoms",
        [FLOAT_ATOMS[:3], FLOAT_ATOMS[:4], (-10.0, 0.1, 7.3)],
        ids=["float-3", "float-4", "units"],
    )
    def test_series_equals_each_horizons_recursion_bit_for_bit(self, atoms, maximize):
        # (-10, 0.1, 7.3) runs on the composition lattice of its integer shifts
        family = two_measures(atoms)
        assert representation(family.grid.array, 40) in ("float", "composition")
        psi = lambda s: np.abs(s) ** 3
        series = sx.sum_functional_series(family, 40, psi, maximize=maximize)
        for n in range(1, 41):
            assert series[n - 1] == sx.eval_sum_functional(family, n, psi, maximize)[0], n

    def test_float_series_adds_no_dimension_for_the_zero_offset(self):
        # the sums of at most 40 draws of 4 float atoms would take C(44, 4)
        # nodes on level 40; a column per horizon takes C(43, 3) there
        family = two_measures(FLOAT_ATOMS[:4])
        tracemalloc.start()
        try:
            sx.sum_functional_series(family, 40, lambda s: np.abs(s) ** 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestCompositionLattice:
    @settings(max_examples=60, deadline=None)
    @given(float_sets(), st.integers(1, 5), st.booleans(), st.floats(-1.0, 1.0))
    @example(two_measures(FLOAT_ATOMS), 4, True, 0.3)
    @example(two_measures((-0.5, 0.0, 0.5)), 5, False, 0.0)  # sums that coincide
    def test_compositions_match_the_float_merge(self, ambiguity, n, maximize, center):
        # the merge moves a node by up to n*MERGE_TOL when distinct sums lie
        # within MERGE_TOL, so such grids are left out; sums that coincide
        # (equal up to rounding) stay in
        atoms = ambiguity.grid.array
        grown = np.concatenate([np.zeros(1), atoms])
        every = _composition_lattice(grown, n).states(n)  # sums of <= n draws
        gaps = np.diff(np.sort(every))
        assume(np.all((gaps <= 1e-14 * n * np.max(np.abs(atoms))) | (gaps > 1e-6)))
        lattices = _composition_lattice(atoms, n), reference_float_chain(atoms, n)
        for k in range(n + 1):
            fused, _ = _merge(lattices[0].states(k), iid.MERGE_TOL)
            expected = lattices[1].states(k)
            assert fused.shape == expected.shape
            scale = max(k, 1) * np.max(np.abs(atoms))
            assert np.allclose(fused, expected, rtol=0.0, atol=1e-12 * scale)
        psi = lambda s: np.abs(s - center) ** 3
        terminal, additive = [], []
        for lattice in lattices:
            payoff = lambda k, lat=lattice: psi(lat.states(k))
            terminal.append(_recursion(ambiguity, lattice, [n], payoff, maximize)[0][0])
            stage = lambda k, v, lat=lattice: v + np.cos(lat.states(k) + k)[:, None]
            zero = lambda k, lat=lattice: np.zeros(lat.size(k))
            additive.append(_recursion(ambiguity, lattice, [n], zero, maximize, stage)[0][0])
        assert terminal[0] == pytest.approx(terminal[1], rel=1e-12, abs=1e-300)
        assert additive[0] == pytest.approx(additive[1], rel=1e-12, abs=1e-12)
        series = [
            sx.sum_functional_series(ambiguity, n, psi, maximize=maximize),
            at_most_series(
                ambiguity, reference_float_chain(atoms, n, at_most=True), n, psi, maximize
            ),
        ]
        assert np.allclose(series[0], series[1], rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(commensurable_sets(dyadic=True), st.integers(1, 6), st.booleans(), st.floats(-1.0, 1.0))
    def test_compositions_equal_integer_lattices_on_dyadic_grids(
        self, ambiguity, n, maximize, center
    ):
        # dyadic sums are exact, so a node's value is its integer lattice
        # node's, and every DP value agrees bit for bit
        atoms = ambiguity.grid.array
        lattices = _composition_lattice(atoms, n), dense(atoms, n)
        for k in range(n + 1):
            reached_nodes(lattices[1], lattices[0], k)
        payoff = lambda s: np.abs(s - center) ** 3
        results = []
        for lattice in lattices:
            terminal = lambda k, lat=lattice: payoff(lat.states(k))
            stage = lambda k, v, lat=lattice: v + np.cos(lat.states(k) + k)[:, None]
            results.append(
                _recursion(ambiguity, lattice, [n], terminal, maximize, stage, want_policy=True)
            )
        ((v_comp,), p_comp), ((v_int,), p_int) = results
        assert v_comp == v_int
        for k in range(n):
            at = np.searchsorted(lattices[1].states(k), lattices[0].states(k))
            assert np.array_equal(lattices[1].states(k)[at], lattices[0].states(k))
            assert np.array_equal(p_int.choices[k][at], p_comp.choices[k])
        # a value column per horizon on the composition lattice, and the sums
        # of at most k draws on the dense one
        grown = np.concatenate([np.zeros(1), atoms])
        psi = lambda s: np.abs(s - center) ** 3
        columns, _ = _recursion(
            ambiguity, lattices[0], range(1, n + 1), lambda k: psi(lattices[0].states(k)), maximize
        )
        at_most = _dense_lattice(units_of(grown), at_most=True)
        assert np.array_equal(columns, at_most_series(ambiguity, at_most, n, psi, maximize))

    @pytest.mark.parametrize("e, n", [(1, 7), (2, 6), (3, 5), (4, 4)])
    def test_ranks_are_a_bijection_on_every_level(self, e, n):
        suffix = np.stack(_tail_sums(e, n), axis=1)
        tails = suffix - np.concatenate([suffix[:, 1:], np.zeros((len(suffix), 1), int)], axis=1)
        assert [graded_rank(t) for t in tails] == list(range(len(tails)))
        for k in range(n + 1):
            prefix = sorted(tuple(t) for t in tails[: math.comb(k + e, e)])
            within = sorted(t for t in itertools.product(range(k + 1), repeat=e) if sum(t) <= k)
            assert prefix == within

    @pytest.mark.parametrize("e, n", [(1, 7), (2, 6), (3, 5), (4, 4)])
    def test_successor_ranks_add_their_offset(self, e, n):
        atoms = np.asarray(FLOAT_ATOMS[: e + 1])
        lattice = _composition_lattice(atoms, n)
        suffix = np.stack(_tail_sums(e, n), axis=1)
        tails = suffix - np.concatenate([suffix[:, 1:], np.zeros((len(suffix), 1), int)], axis=1)
        for k in range(n):
            width = lattice.size(k)
            here, above = lattice.states(k), lattice.states(k + 1)
            for a, moved in zip(atoms, lattice.successors(k, above)):
                assert np.allclose(moved, here + a, rtol=0.0, atol=1e-12 * (k + 1))
            for j, ranks in enumerate(lattice.succ):
                step = np.eye(e, dtype=int)[j]
                assert ranks[:width].tolist() == [graded_rank(t + step) for t in tails[:width]]

    @pytest.mark.parametrize("size, n", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2)])
    def test_float_families_match_the_oracle(self, size, n):
        ambiguity = two_measures(FLOAT_ATOMS[:size])
        assert isinstance(_lattice(ambiguity.grid.array, n), _CompositionLattice)
        threshold = 0.25  # on no lattice of these atoms
        cube, event = _brute_force_many(
            ambiguity,
            n,
            [lambda xs: abs(float(np.sum(xs))) ** 3, lambda xs: float(np.sum(xs) >= threshold)],
        )
        value, _ = sx.eval_sum_functional(ambiguity, n, lambda s: abs(s) ** 3)
        assert value == pytest.approx(cube, rel=1e-12)
        capacity = sx.capacity_sum_event(ambiguity, n, lambda s: s >= threshold)
        assert capacity == pytest.approx(event, rel=1e-12, abs=1e-15)
        series = sx.sum_functional_series(ambiguity, n, lambda s: np.abs(s) ** 3)
        assert series[-1] == pytest.approx(cube, rel=1e-12)


@pytest.mark.parametrize(
    "atoms",
    [
        None,
        (0.0, 0.5, 1.5),
        (0.0, 1.0, 2000.0),
        (-0.7, 0.1, 1.3 * np.sqrt(2.0)),
        FLOAT_ATOMS,
        (0.5,),
    ],
    ids=["dense", "gapped-units", "sparse-units", "float-3", "float-5", "single-atom"],
)
def test_sum_lattice_lists_the_fused_sorted_multiset_sums(theta_star, atoms):
    # a lattice lists its states in node order; sum_lattice sorts and fuses
    # them: the sums of every k-draw multiset, at MERGE_TOL
    family = theta_star if atoms is None else two_measures(atoms)
    grid = family.grid.array
    exact = units_of(grid) is not None  # correctly rounded exact sums
    for k in range(5):
        states = sx.sum_lattice(family, k).array
        assert np.all(np.diff(states) > 0.0)
        draws = itertools.combinations_with_replacement(grid.tolist(), k)
        expected, _ = _merge(np.array([float(exact_sum(d)) for d in draws]), iid.MERGE_TOL)
        assert states.shape == expected.shape
        if exact:
            assert np.array_equal(states, expected)
        else:
            assert np.allclose(states, expected, rtol=0.0, atol=1e-12 * max(k, 1))


class TestFloatBudget:
    def test_float_chain_over_budget_raises_before_allocating(self):
        family = sx.AmbiguitySet.from_rows(FLOAT_ATOMS, (np.full(5, 0.2),))
        assert isinstance(_lattice(family.grid.array, 3), _CompositionLattice)
        tracemalloc.start()
        try:
            with pytest.raises(sx.CapacityError, match="budget"):
                sx.eval_sum_functional(family, 100, abs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_budget_leaves_the_gated_sizes_alone(self):
        # the widest float chain of the test suite and of the benchmark is far below it
        family = sx.AmbiguitySet.from_rows(FLOAT_ATOMS[:4], (np.full(4, 0.25),))
        sx.sum_functional_series(family, 40, lambda s: np.abs(s) ** 3)

    def test_pair_chain_keeps_a_running_total(self, monkeypatch):
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 2**16)
        a, b = np.sqrt(0.5), np.sqrt(0.3)
        weights = (0.25 * b / (a + b), 0.75, 0.25 * a / (a + b))
        irrational = sx.AmbiguitySet.from_rows((-a, 0.0, b), (weights,))
        assert sx.eval_maxabs_functional(irrational, 3, lambda m: m) > 0.0
        with pytest.raises(sx.CapacityError, match="pair lattice"):
            sx.eval_maxabs_functional(irrational, 12, lambda m: m)
        # a gapped grid's sums are listed within the budget of its widest
        # dense level, 32 bytes per node: 1201 nodes at step 400, 2101 at 700
        gapped = sx.AmbiguitySet.from_rows((0.0, 0.5, 1.5), (np.full(3, 1 / 3),))
        assert len(sx.sum_lattice(gapped, 400).states) == 3 * 400
        with pytest.raises(sx.CapacityError, match="widest level"):
            sx.sum_lattice(gapped, 700)

    def test_pair_merge_temporaries_are_budgeted(self, monkeypatch):
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 4 * 2**20)
        atoms = (-0.5, -0.5 + 2**-10, 0.0, 0.5 - 2**-10, 0.5)
        wide = sx.AmbiguitySet.from_rows(atoms, ((0.2,) * 5, (0.1, 0.3, 0.2, 0.3, 0.1)))
        tracemalloc.start()
        try:
            with pytest.raises(sx.CapacityError, match="pair lattice"):
                sx.eval_maxabs_functional(wide, 64, lambda m: m**2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= iid.CHAIN_BUDGET_BYTES


    def test_composition_lattice_and_sweep_are_budgeted(self, monkeypatch):
        # every horizon either builds its lattice and sweeps it within the
        # budget, the ranks' temporaries, candidates and gathered successors
        # included, or raises first
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 4 * 2**20)
        family = two_measures(FLOAT_ATOMS[:4])
        calls = {
            "capacity": lambda n: sx.capacity_sum_event(family, n, lambda s: s >= 0.25),
            "series": lambda n: sx.sum_functional_series(family, n, lambda s: np.abs(s) ** 3),
            "additive": lambda n: cosine_additive(family, n),
        }
        for name, call in calls.items():
            outcomes = traced_outcomes(call, range(1, 80))
            assert outcomes[-1] == "raised" and outcomes.count("built") >= 10, name


def cosine_additive(ambiguity, n):
    """The additive DP of the array stage cost cos(S_k), from a zero terminal."""
    lattice = _lattice(ambiguity.grid.array, n)
    zero = lambda k: np.zeros(lattice.size(k))
    stage = lambda k, v: v + np.cos(lattice.states(k))[:, None]
    return _recursion(ambiguity, lattice, [n], zero, stage=stage)


def budget_outcomes(monkeypatch, call, budgets):
    """Runs ``call()`` under each of the ``budgets``, asserting that every run
    either raises CapacityError or keeps its traced peak within the budget."""
    outcomes = []
    for budget in budgets:
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", budget)
        outcomes += traced_outcomes(lambda _: call(), [budget])
    return outcomes


class TestSweepBudget:
    def test_running_max_sweep_stays_within_the_budget(self, theta_star, monkeypatch):
        # the pair chain within the budget, or CapacityError
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 2**20)
        call = lambda n: sx.eval_maxabs_functional(theta_star, n, lambda m: m**2)
        outcomes = traced_outcomes(call, range(2, 200, 2))
        assert outcomes[-1] == "raised" and outcomes.count("built") >= 5

    def test_dense_series_sweep_stays_within_the_budget(self, theta_star, monkeypatch):
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 2**18)
        call = lambda n: sx.sum_functional_series(theta_star, n, lambda s: np.abs(s) ** 3)
        # the budget admits up to N = 2729; the last built call is 1% below it
        outcomes = traced_outcomes(call, range(540, 5000, 540))
        assert outcomes[-1] == "raised" and outcomes.count("built") >= 5

    def test_many_horizon_sweeps_stay_within_the_budget(self, theta_star, monkeypatch):
        # one value column per horizon: n of them for cc_series, n - 1 for mz_check
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 2**16)
        call = lambda n: sx.cc_series(theta_star, 0.5, 4.0, n)
        outcomes = traced_outcomes(call, range(4, 400, 4))
        assert outcomes[-1] == "raised" and outcomes.count("built") >= 5
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 2**21)
        call = lambda n: sx.mz_check(theta_star, 4.0, list(range(2, n + 1)), max_n=n)
        outcomes = traced_outcomes(call, range(4, 200, 4))
        assert outcomes[-1] == "raised" and outcomes.count("built") >= 5

    def test_integer_lattice_successors_are_not_projected_as_gathered(
        self, theta_star, monkeypatch
    ):
        # the successors of a dense integer lattice are views of the level above
        lattice = _lattice(theta_star.grid.array, 80)
        assert isinstance(lattice, _IntLattice) and lattice.gathered() == 0
        call = lambda: sx.cc_series(theta_star, 0.5, 4.0, 80)
        # a successor per move would project 266 kB and refuse it at 230 kB
        assert budget_outcomes(monkeypatch, call, [230_000]) == ["built"]
        outcomes = budget_outcomes(monkeypatch, call, range(100_000, 400_000, 20_000))
        assert "raised" in outcomes and "built" in outcomes

    @pytest.mark.parametrize(
        "name,n",
        [
            ("cc_series", 80),
            ("cc_series", 200),
            ("mz_check", 16),
            ("mz_check", 32),
            ("sum_functional_series", 2000),
            ("capacity_sum_event", 2000),
            ("eval_additive_functional", 1500),
            ("eval_sum_functional", 1000),
            ("composition", 40),
        ],
    )
    def test_many_horizon_projection_is_close_to_the_traced_peak(
        self, theta_star, monkeypatch, name, n
    ):
        # one projection counts what each sweep holds: the columns of a
        # many-horizon sweep, and the picks or stage arrays of a one-column
        # sweep only where it has them
        calls = {
            "cc_series": lambda: sx.cc_series(theta_star, 0.5, 4.0, n),
            "mz_check": lambda: sx.mz_check(theta_star, 4.0, list(range(2, n + 1)), max_n=n),
            "sum_functional_series": lambda: sx.sum_functional_series(
                theta_star, n, lambda s: np.abs(s) ** 3
            ),
            "capacity_sum_event": lambda: sx.capacity_sum_event(theta_star, n, lambda s: s >= 10),
            "eval_additive_functional": lambda: sx.eval_additive_functional(
                theta_star, n, [np.cos] * n
            ),
            "eval_sum_functional": lambda: sx.eval_sum_functional(theta_star, n, abs),
            "composition": lambda: sx.capacity_sum_event(
                two_measures(FLOAT_ATOMS[:4]), n, lambda s: s >= 0.25
            ),
        }
        call = calls[name]
        budget = smallest_admitting_budget(monkeypatch, call)
        call()  # first-call allocations are not the sweep's
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.67 * budget <= peak <= budget, (budget, peak)

    @pytest.mark.parametrize("name", ["mz_check", "composition"])
    def test_raising_the_budget_never_refuses_a_call(self, theta_star, monkeypatch, name):
        # the lattice of a call depends on its input alone, so a budget that
        # admits it admits it at every larger budget too; a composition
        # lattice is admitted before its ranks are built
        if name == "mz_check":
            call = lambda: sx.mz_check(theta_star, 4.0, range(2, 17), max_n=16)
            budgets = range(40_000, 200_001, 500)
        else:
            family = two_measures(FLOAT_ATOMS[:3])
            call = lambda: sx.eval_sum_functional(family, 60, abs)
            budgets = range(100_000, 400_001, 1_000)
        admitted = []
        for budget in budgets:
            monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", budget)
            try:
                call()
                admitted.append(True)
            except sx.CapacityError:
                admitted.append(False)
        assert not admitted[0] and admitted[-1]
        flips = [budgets[i] for i in range(1, len(admitted)) if admitted[i] != admitted[i - 1]]
        assert admitted == sorted(admitted), flips


def smallest_admitting_budget(monkeypatch, call, hi=2**24):
    """A ``CHAIN_BUDGET_BYTES`` in 1..hi that admits ``call()`` while one byte
    less raises CapacityError, found by bisection and left set; the smallest
    admitting budget where admission grows with the budget."""
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", mid)
        try:
            call()
            hi = mid
        except sx.CapacityError:
            lo = mid + 1
    monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", lo)
    return lo


class TestPolicyBudget:
    def test_policy_lattice_and_sweep_are_budgeted_together(self, monkeypatch):
        # three float atoms at n = 60: a policy of 37.8 kB beside its composition
        # lattice and the sweep of it (271 kB); every budget of the window
        # admits each alone, and those under their 309 kB sum refuse the call
        family = two_measures(FLOAT_ATOMS[:3])
        call = lambda: sx.eval_sum_functional(family, 60, abs)
        outcomes = budget_outcomes(monkeypatch, call, range(272_000, 330_000, 2_000))
        assert "raised" in outcomes and "built" in outcomes

    def test_a_policy_keeps_its_picks_and_its_lattice_only(self):
        # three float atoms at n = 400: the returned value and policy keep the
        # picks and the composition lattice's arrays, and no per-level order
        family = two_measures(FLOAT_ATOMS[:3])
        call = lambda: sx.eval_sum_functional(family, 400, abs)
        call()  # first-call allocations are not the policy's
        tracemalloc.start()
        try:
            result = call()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        policy = result[1]
        picks = sum(c.nbytes for c in policy.choices)
        assert kept <= picks + policy.lattice.nbytes() + 128 * 2**10, (kept, picks)

    def test_policy_past_the_budget_raises_before_the_sweep(self, theta_star):
        # a byte for each of the N^2 states of levels 0..N-1: 5.76e8 bytes
        tracemalloc.start()
        try:
            with pytest.raises(sx.CapacityError, match="selection policy"):
                sx.eval_sum_functional(theta_star, 24000, abs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_policies_within_the_budget_are_unaffected(self, theta_star):
        value, policy = sx.eval_sum_functional(theta_star, 1000, lambda s: abs(s) ** 3)
        assert policy.horizon == 1000
        assert sum(c.nbytes for c in policy.choices) == 1000**2
        # no states are stored: the picks and the lattice are all the policy holds
        assert sum(c.nbytes for c in policy.choices) + policy.lattice.nbytes() <= 1.1e6
        assert value > 0.0

    def test_a_sixteen_thousand_step_policy_is_admitted(self, theta_star, monkeypatch):
        # 2.56e8 one-byte picks fit the default budget; no level is swept
        class Admitted(Exception):
            pass

        def refuse_to_sweep(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr(iid._IntLattice, "successors", refuse_to_sweep)
        with pytest.raises(Admitted):
            sx.eval_sum_functional(theta_star, 16000, abs)

    def test_past_255_measures_picks_take_two_bytes(self):
        rng = np.random.default_rng(3)
        weights = rng.random((300, 3))
        family = sx.AmbiguitySet.from_rows((-1.0, 0.0, 2.0), weights / weights.sum(axis=1)[:, None])
        value, policy = sx.eval_sum_functional(family, 4, lambda s: s**2)
        assert all(c.dtype == np.uint16 for c in policy.choices)
        assert max(int(c.max()) for c in policy.choices) > 255
        lattice = policy.lattice
        squares = lambda k: lattice.states(k) ** 2
        (replayed,), _ = _recursion(family, lattice, [4], squares, replay=[policy])
        assert replayed == value

    def test_policy_budget_counts_every_node(self, monkeypatch):
        # gapped grid: level k has k*3 + 1 nodes, of which fewer hold reached
        # sums; the policy takes a byte per node, beside the lattice and its
        # sweep, and sets the budget with them: one byte less refuses it (at
        # n = 100 the picks outweigh the lattice and sweep built without them)
        n = 100
        gapped = sx.AmbiguitySet.from_rows((0.0, 0.5, 1.5), (np.full(3, 1 / 3),))
        lattice = _lattice(gapped.grid.array, n)
        states = sum(lattice.states(k).size for k in range(n))
        assert states == sum(lattice.size(k) for k in range(n))
        assert states > sum(len(sx.sum_lattice(gapped, k).states) for k in range(n))
        projected = iid._admit(lattice, (n,), 1, picks=True)
        assert projected - iid._admit(lattice, (n,), 1) > states > iid._admit(lattice, (n,), 1)
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", projected)
        _, policy = sx.eval_sum_functional(gapped, n, abs)
        assert sum(c.nbytes for c in policy.choices) == states
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", projected - 1)
        with pytest.raises(sx.CapacityError, match="selection policy"):
            sx.eval_sum_functional(gapped, n, abs)


def test_policy_sampled_on_another_grid_is_refused(theta_star):
    _, policy = sx.eval_sum_functional(theta_star, 4, abs)
    wider = sx.AmbiguitySet.from_rows((-2.0, 0.0, 2.0), theta_star.weight_matrix)
    with pytest.raises(sx.ParameterError, match="lattice"):
        for _ in _sample_steps(wider, [policy], 4, [np.random.default_rng(0)], 50):
            pass
