import math

import numpy as np
import pytest

import sublex as sx
from sublex import lln
from sublex.lln import SAMPLING_Z, ExperimentConfig, tail_consistency

from conftest import random_mean_zero_ambiguity


class TestExperimentConfig:
    def test_canonical_document(self):
        cfg = ExperimentConfig(
            atoms=(-1, 0, 1),
            measures=((0.25, 0.5, 0.25), (0.5, 0.0, 0.5)),
            p=3.0,
            alpha=4.0,
            horizon=200,
        )
        assert cfg.ambiguity_set.variance_interval == (0.5, 1.0)
        assert cfg.gnormal_params() == sx.GNormalParams(0.5, 1.0)
        assert cfg.heat_grid().nx == 801

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("p", {"p": 0.0}),
            ("alpha", {"alpha": 2.0}),
            ("beta", {"beta": 1.5}),
            ("N", {"horizon": 0}),
            ("epsilons", {"epsilons": (0.0,)}),
            ("solver.nx", {"nx": 2}),
            ("solver.dt_safety", {"dt_safety": 1.5}),
            ("trials", {"trials": 0}),
        ],
    )
    def test_invariants_name_the_field(self, field, kwargs):
        base = dict(atoms=(-1, 0, 1), measures=((0.25, 0.5, 0.25),))
        with pytest.raises(sx.ValidationError, match=field.split(".")[-1]):
            ExperimentConfig(**base, **kwargs)


class TestSlpSeries:
    def test_p2_harmonic(self, theta_star, cp_cache):
        report = sx.slp_series(theta_star, 2.0, 50, c_p=cp_cache(2.0))
        harmonic = np.cumsum(1.0 / np.arange(1, 51))
        assert np.max(np.abs(np.asarray(report.partial_sums) - harmonic)) <= 1e-10
        assert report.partial_sums[9] == pytest.approx(2.9289682540, abs=1e-10)

    def test_single_term(self, theta_star, cp_cache):
        report = sx.slp_series(theta_star, 2.0, 1, c_p=cp_cache(2.0))
        assert report.total == pytest.approx(1.0, abs=1e-12)

    def test_coin_fourth_moment_closed_form(self, coin):
        # E S_n^4 = 3n^2 - 2n for the fair +-1 coin
        report = sx.slp_series(coin, 4.0, 20, c_p=3.0)
        n = np.arange(1, 21, dtype=float)
        expected = (3.0 * n**2 - 2.0 * n) / n**4
        assert np.max(np.abs(np.asarray(report.terms) - expected)) <= 1e-12

    def test_coin_low_horizon_against_oracle(self, coin):
        report = sx.slp_series(coin, 4.0, 3, c_p=3.0)
        for n in (1, 2, 3):
            bf = sx.brute_force_oracle(
                coin, n, lambda xs: abs(float(np.sum(xs)) / n) ** 4
            )
            assert report.terms[n - 1] == pytest.approx(bf, abs=1e-12)

    def test_scaling_identity_shares_one_table(self, theta_star, cp_cache):
        report = sx.slp_series(theta_star, 3.0, 64, c_p=cp_cache(3.0))
        for n, term, scaled in zip(report.n_values, report.terms, report.scaled_terms):
            assert term == pytest.approx(scaled / n ** 1.5, rel=1e-13)

    def test_partial_sums_consistent(self, theta_star, cp_cache):
        report = sx.slp_series(theta_star, 2.5, 40, c_p=cp_cache(2.5))
        assert report.total == pytest.approx(sum(report.terms), abs=1e-12)
        assert all(b >= a for a, b in zip(report.partial_sums, report.partial_sums[1:]))

    def test_requires_mean_certainty(self):
        lopsided = sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5), (0.25, 0.75)))
        with pytest.raises(sx.PreconditionError):
            sx.slp_series(lopsided, 2.0, 5, c_p=1.0)

    def test_reference_tracks_gap(self, theta_star, cp_cache):
        # |n^{p/2} a_n - c_p| is the CLT gap column, by construction
        report = sx.slp_series(theta_star, 1.0, 32, c_p=cp_cache(1.0))
        for n, scaled, gap in zip(report.n_values, report.scaled_terms, report.clt_gaps):
            assert gap == pytest.approx(abs(scaled - report.c_p), abs=1e-15)


class TestDichotomy:
    def test_p2_diverges(self, theta_star, cp_cache):
        report = sx.slp_series(theta_star, 2.0, 100, c_p=cp_cache(2.0))
        verdict = sx.dichotomy_diagnosis(report, 2.0, report.c_p)
        assert verdict.regime == "diverges"
        scaled = np.asarray(report.scaled_terms)
        assert np.all(scaled >= report.c_p / 2.0)
        assert np.max(np.abs(scaled - 1.0)) <= 1e-10

    def test_p3_converges(self, theta_star, cp_cache):
        report = sx.slp_series(theta_star, 3.0, 120, c_p=cp_cache(3.0))
        verdict = sx.dichotomy_diagnosis(report, 3.0, report.c_p)
        assert verdict.regime == "converges"

    def test_coin_p2_diverges(self, coin):
        report = sx.slp_series(coin, 2.0, 80, c_p=1.0)
        verdict = sx.dichotomy_diagnosis(report, 2.0, 1.0)
        assert verdict.regime == "diverges"

    def test_insufficient_horizon_is_inconclusive(self, theta_star, cp_cache):
        report = sx.slp_series(theta_star, 1.0, 1, c_p=cp_cache(1.0))
        verdict = sx.dichotomy_diagnosis(report, 1.0, report.c_p)
        assert verdict.regime == "inconclusive"

    def test_verdict_type_invariant(self):
        with pytest.raises(sx.ValidationError):
            sx.DichotomyVerdict("diverges", 3.0, None)
        with pytest.raises(sx.ValidationError):
            sx.DichotomyVerdict("converges", 2.0, None)

    def test_scan_flips_at_two(self, theta_star, cp_cache):
        scan = sx.moment_dichotomy_scan(
            theta_star, [1.0, 2.0, 2.5, 3.0, 4.0], 150, grid=None,
            params=sx.GNormalParams(0.5, 1.0),
        )
        assert [v.regime for _, v in scan] == [
            "diverges",
            "diverges",
            "converges",
            "converges",
            "converges",
        ]

    def test_scan_rejects_constant_variable(self):
        constant = sx.AmbiguitySet.from_rows((0.0,), ((1.0,),))
        with pytest.raises(sx.PreconditionError):
            sx.moment_dichotomy_scan(constant, [2.0], 10)

    def test_scan_classical_coin(self, coin):
        scan = sx.moment_dichotomy_scan(coin, [2.0, 3.0], 120)
        assert [v.regime for _, v in scan] == ["diverges", "converges"]


class TestMZ:
    def test_one_step_identities(self, theta_star):
        report = sx.mz_check(theta_star, 4.0, [1])
        assert report.lhs[0] == pytest.approx(1.0, abs=1e-12)
        assert report.rhs_core[0] == pytest.approx(1.0, abs=1e-12)
        assert report.ratios[0] == pytest.approx(1.0, abs=1e-12)

    def test_mean_term_vanishes_exactly(self, theta_star):
        report = sx.mz_check(theta_star, 4.0, range(1, 9))
        assert report.mean_terms == (0.0,) * 8

    def test_rhs_core_two_steps(self, theta_star):
        report = sx.mz_check(theta_star, 4.0, [2])
        assert report.rhs_core[0] == pytest.approx(4.0, abs=1e-12)

    def test_running_max_monotone(self, theta_star):
        report = sx.mz_check(theta_star, 4.0, range(2, 9))
        assert all(b >= a for a, b in zip(report.running_max, report.running_max[1:]))

    def test_budget(self, theta_star):
        with pytest.raises(sx.CapacityError):
            sx.mz_check(theta_star, 4.0, [13])

    def test_alpha_bound(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.mz_check(theta_star, 2.0, [2])

    def test_mean_term_negligible_for_float_weight_families(self):
        rng = np.random.default_rng(17)
        ambiguity = random_mean_zero_ambiguity(rng)
        report = sx.mz_check(ambiguity, 4.0, [1, 2, 3])
        assert all(m <= 1e-50 for m in report.mean_terms)


class TestHolder:
    def test_equality_at_p_alpha(self, theta_star):
        lhs, rhs, margin = sx.holder_step_check(theta_star, 4.0, 4.0, 5)
        assert margin == pytest.approx(0.0, abs=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_interior_margin(self, theta_star):
        lhs, rhs, margin = sx.holder_step_check(theta_star, 3.0, 4.0, 4)
        assert lhs == pytest.approx(12.0, abs=1e-12)
        assert margin >= 0.0

    def test_one_step_lattice_values(self, theta_star):
        lhs, rhs, margin = sx.holder_step_check(theta_star, 3.0, 4.0, 1)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_parameter_order(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.holder_step_check(theta_star, 2.0, 4.0, 3)
        with pytest.raises(sx.ParameterError):
            sx.holder_step_check(theta_star, 5.0, 4.0, 3)

    def test_margins_across_horizons(self, theta_star):
        for n in range(1, 30):
            _, _, margin = sx.holder_step_check(theta_star, 3.0, 4.0, n)
            assert margin >= -1e-12


class TestCorollary:
    def test_boundary_beta_rejected(self, theta_star):
        with pytest.raises(sx.ParameterError, match=r"\(p\+2\)/2"):
            sx.corollary_series(theta_star, 3.0, 2.5, 10)

    def test_single_term(self, theta_star, cp_cache):
        report = sx.corollary_series(theta_star, 3.0, 2.6, 1, c_p=cp_cache(3.0))
        assert report.total == pytest.approx(1.0, abs=1e-12)

    def test_converges_structurally(self, theta_star, cp_cache):
        report = sx.corollary_series(theta_star, 3.0, 2.6, 100, c_p=cp_cache(3.0))
        evidence = tail_consistency(report)
        assert report.tail.exponent > 1.0
        assert evidence["max_increment_ratio"] <= 2.0

    def test_requires_zero_mean(self):
        shifted = sx.AmbiguitySet.from_rows(
            (0.0, 1.0, 2.0), ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5))
        )
        with pytest.raises(sx.PreconditionError):
            sx.corollary_series(shifted, 3.0, 2.6, 10)

    def test_requires_p_above_two(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.corollary_series(theta_star, 2.0, 2.6, 10)


class TestSubadditivity:
    def test_single_term_equality(self, theta_star):
        lhs, rhs, margin = sx.subadditive_series_check(theta_star, 3.0, 1)
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_two_terms_frozen_values(self, theta_star):
        lhs, rhs, margin = sx.subadditive_series_check(theta_star, 3.0, 2)
        assert lhs == pytest.approx(1.5, abs=1e-12)
        assert rhs == pytest.approx(1.5, abs=1e-12)
        assert margin >= -1e-12

    def test_two_terms_against_oracle(self, theta_star):
        lhs, _, _ = sx.subadditive_series_check(theta_star, 3.0, 2)
        bf = sx.brute_force_oracle(
            theta_star,
            2,
            lambda xs: float(np.sum(np.abs(np.cumsum(xs) / np.arange(1, 3)) ** 3)),
        )
        assert lhs == pytest.approx(bf, abs=1e-12)

    def test_single_measure_is_additive(self, coin):
        _, _, margin = sx.subadditive_series_check(coin, 3.0, 40)
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_margin_nonnegative(self, theta_star):
        _, _, margin = sx.subadditive_series_check(theta_star, 3.0, 50)
        assert margin >= -1e-12

    def test_parameter_and_budget_errors(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.subadditive_series_check(theta_star, 2.0, 5)
        with pytest.raises(sx.CapacityError):
            sx.subadditive_series_check(theta_star, 3.0, 5000)


class TestCCSeries:
    def test_unreachable_event(self, theta_star):
        report = sx.cc_series(theta_star, 1.5, 4.0, 3)
        assert report.terms[0] == 0.0

    def test_full_mass_at_one_step(self, theta_star):
        report = sx.cc_series(theta_star, 0.5, 4.0, 1)
        assert report.terms[0] == pytest.approx(1.0, abs=1e-12)

    def test_markov_bound_columns(self, theta_star):
        report = sx.cc_series(theta_star, 0.5, 4.0, 40)
        for v, bound in zip(report.terms, report.reference):
            assert v <= bound + 1e-12

    def test_terms_nonincreasing_in_eps(self, theta_star):
        reports = [sx.cc_series(theta_star, eps, 4.0, 25) for eps in (0.3, 0.5, 0.9)]
        for tighter, looser in zip(reports[1:], reports):
            for a, b in zip(tighter.terms, looser.terms):
                assert a <= b + 1e-12

    def test_eps_must_be_positive(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.cc_series(theta_star, 0.0, 4.0, 5)


class TestSqsEmpirical:
    def test_deterministic_replay(self, theta_star):
        one = sx.sqs_empirical(theta_star, 3.0, 20, 300, seed=20240811)
        two = sx.sqs_empirical(theta_star, 3.0, 20, 300, seed=20240811)
        assert one == two

    def test_policy_labels(self, theta_star):
        summary = sx.sqs_empirical(theta_star, 3.0, 15, 200, seed=20240811)
        assert [p.label for p in summary.policies] == ["measure_0", "measure_1", "argmax"]

    def test_coin_sampling_respects_bound(self, coin):
        summary = sx.sqs_empirical(coin, 3.0, 50, 2000, seed=20240811)
        for p in summary.policies:
            # one measure: every policy is the adversarial one
            assert p.exact == summary.dp_value
            assert abs(p.mean - p.exact) <= SAMPLING_Z * p.stderr
        assert all(math.isfinite(p.maximum) for p in summary.policies)

    def test_check_holds_on_consecutive_seeds(self, theta_star):
        for seed in range(50):
            summary = sx.sqs_empirical(theta_star, 3.0, 12, 200, seed=seed)
            for p in summary.policies:
                assert p.exact <= summary.dp_value + 1e-12
                assert abs(p.mean - p.exact) <= SAMPLING_Z * p.stderr

    def test_exact_policy_values_match_enumeration(self, theta_star):
        n, beta = 3, 3.0

        def series(xs):
            return float(np.sum(np.abs(np.cumsum(xs) / np.arange(1, xs.size + 1)) ** beta))

        summary = sx.sqs_empirical(theta_star, beta, n, 50, seed=7)
        assert summary.dp_value == pytest.approx(
            sx.brute_force_oracle(theta_star, n, series), abs=1e-12
        )
        for i, measure in enumerate(theta_star.measures):
            alone = sx.AmbiguitySet(theta_star.grid, (measure,))
            assert summary.policies[i].exact == pytest.approx(
                sx.brute_force_oracle(alone, n, series), abs=1e-12
            )
        assert summary.policies[-1].exact == summary.dp_value

    def test_biased_sampler_is_caught(self, theta_star, monkeypatch):
        real = lln._sample_steps

        def low_variance(ambiguity, policy, n, rng, n_paths):
            picks = tuple((0,) * len(states) for states in policy.step_states)
            return real(ambiguity, sx.SelectionPolicy(policy.step_states, picks), n, rng, n_paths)

        monkeypatch.setattr(lln, "_sample_steps", low_variance)
        with pytest.raises(sx.CheckError, match="measure_1: sampled mean"):
            sx.sqs_empirical(theta_star, 3.0, 20, 1000, seed=20240811)

    def test_needs_two_paths_for_a_standard_error(self, theta_star):
        with pytest.raises(sx.ParameterError, match="n_paths"):
            sx.sqs_empirical(theta_star, 3.0, 10, 1, seed=0)

    def test_beta_gate(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.sqs_empirical(theta_star, 2.0, 10, 10, seed=0)

    def test_pathwise_beta_comparison(self, coin):
        # once every |s_n/n| <= 1, the per-path series is nonincreasing in beta
        _, policy = sx.eval_sum_functional(coin, 30, lambda s: s)
        for seed in range(5):
            path = sx.sample_path(coin, policy, 30, seed=seed)
            sums = np.asarray(path.partial_sums)
            ratios = np.abs(sums / np.arange(1, 31))
            assert np.all(ratios <= 1.0)
            low = float(np.sum(ratios**2.1))
            high = float(np.sum(ratios**4.0))
            assert high <= low + 1e-12


class TestTailFitting:
    def test_recovers_power_law(self):
        n = np.arange(1, 201)
        terms = 2.7 * n ** (-1.5)
        fit = sx.fit_tail(n, terms)
        assert fit.exponent == pytest.approx(1.5, abs=1e-9)
        assert fit.coeff == pytest.approx(2.7, rel=1e-6)
        assert math.isfinite(fit.predicted_tail_beyond)

    def test_divergent_series_has_infinite_tail(self):
        n = np.arange(1, 101)
        fit = sx.fit_tail(n, 1.0 / n)
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)
        assert fit.predicted_tail_beyond == math.inf

    def test_too_few_points(self):
        fit = sx.fit_tail([1, 2], [1.0, 0.5])
        assert not fit.usable

    def test_zero_terms_are_skipped(self):
        n = np.arange(1, 51)
        terms = 1.0 * n ** (-2.0)
        terms[40:] = 0.0
        fit = sx.fit_tail(n, terms)
        assert fit.n_points == 15  # only positive entries above n = 25
