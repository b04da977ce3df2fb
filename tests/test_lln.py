import dataclasses
import math

import numpy as np
import pytest

import sublex as sx
from sublex import gnormal, iid, lln
from sublex.cli import ExperimentConfig
from sublex.lln import SAMPLING_Z, tail_consistency

from helpers import random_mean_zero_ambiguity, traced_outcomes


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

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("p", {"p": 0.0}),
            ("alpha", {"alpha": 2.0}),
            ("beta", {"beta": 1.5}),
            ("N", {"horizon": 0}),
            ("epsilons", {"epsilons": (0.0,)}),
            ("trials", {"trials": 0}),
        ],
    )
    def test_invariants_name_the_field(self, field, kwargs):
        base = dict(atoms=(-1, 0, 1), measures=((0.25, 0.5, 0.25),))
        with pytest.raises(sx.ParameterError, match=field.split(".")[-1]):
            ExperimentConfig(**base, **kwargs)


class TestSlpSeries:
    def test_p2_harmonic(self, theta_star):
        report = sx.slp_series(theta_star, 2.0, 50)
        harmonic = np.cumsum(1.0 / np.arange(1, 51))
        assert np.max(np.abs(np.asarray(report.partial_sums) - harmonic)) <= 1e-10
        assert report.partial_sums[9] == pytest.approx(2.9289682540, abs=1e-10)

    def test_single_term(self, theta_star):
        report = sx.slp_series(theta_star, 2.0, 1)
        assert report.total == pytest.approx(1.0, abs=1e-12)

    def test_coin_fourth_moment_closed_form(self, coin):
        # E S_n^4 = 3n^2 - 2n for the fair +-1 coin
        report = sx.slp_series(coin, 4.0, 20)
        n = np.arange(1, 21, dtype=float)
        expected = (3.0 * n**2 - 2.0 * n) / n**4
        assert np.max(np.abs(np.asarray(report.terms) - expected)) <= 1e-12

    def test_coin_low_horizon_against_oracle(self, coin):
        report = sx.slp_series(coin, 4.0, 3)
        for n in (1, 2, 3):
            bf = sx.brute_force_oracle(
                coin, n, lambda xs: abs(float(np.sum(xs)) / n) ** 4
            )
            assert report.terms[n - 1] == pytest.approx(bf, abs=1e-12)

    def test_scaling_identity_shares_one_table(self, theta_star):
        report = sx.slp_series(theta_star, 3.0, 64)
        for n, term, scaled in zip(report.n_values, report.terms, report.scaled_terms):
            assert term == pytest.approx(scaled / n ** 1.5, rel=1e-13)

    def test_partial_sums_consistent(self, theta_star):
        report = sx.slp_series(theta_star, 2.5, 40)
        assert report.total == pytest.approx(sum(report.terms), abs=1e-12)
        assert all(b >= a for a, b in zip(report.partial_sums, report.partial_sums[1:]))

    def test_c_p_below_one_is_the_pde_value_of_the_set(self, theta_star):
        report = sx.slp_series(theta_star, 0.5, 4)
        params = sx.GNormalParams.from_ambiguity(theta_star)
        assert (report.c_p, report.c_p_residual) == gnormal._limit_abs_moment(0.5, params)
        assert report.c_p_residual > 0.0

    def test_coin_c_p_is_the_classical_moment(self, coin):
        assert sx.slp_series(coin, 2.0, 4).c_p == pytest.approx(1.0, rel=1e-15)
        assert sx.slp_series(coin, 4.0, 4).c_p == pytest.approx(3.0, rel=1e-15)

    def test_requires_mean_certainty(self):
        lopsided = sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5), (0.25, 0.75)))
        with pytest.raises(sx.ParameterError):
            sx.slp_series(lopsided, 2.0, 5)

    def test_reference_tracks_gap(self, theta_star):
        # |n^{p/2} a_n - c_p| is the CLT gap column, by construction
        report = sx.slp_series(theta_star, 1.0, 32)
        for n, scaled, gap in zip(report.n_values, report.scaled_terms, report.clt_gaps):
            assert gap == pytest.approx(abs(scaled - report.c_p), abs=1e-15)


class TestSeriesReport:
    def test_columns_must_align(self):
        with pytest.raises(sx.ParameterError, match="equal length"):
            sx.SeriesReport(p=3.0, terms=(1.0, 0.5), reference=(1.0,))
        with pytest.raises(sx.ParameterError, match="equal length"):
            sx.SeriesReport(p=3.0, terms=(1.0, 0.5), reference=(1.0, 0.5), scaled_terms=(1.0,))

    def test_derived_columns_follow_the_terms(self):
        report = sx.SeriesReport(p=3.0, terms=(1.0, 0.5, 0.25), reference=(0.0, 0.0, 0.0))
        assert report.n_values == (1, 2, 3)
        assert report.partial_sums == (1.0, 1.5, 1.75) and report.total == 1.75
        assert report.clt_gaps == ()
        assert report.tail.window == (2, 3)


class TestDichotomy:
    def test_p2_diverges(self, theta_star):
        report = sx.slp_series(theta_star, 2.0, 100)
        verdict = sx.dichotomy_diagnosis(report)
        assert verdict.regime == "diverges"
        scaled = np.asarray(report.scaled_terms)
        assert np.all(scaled >= report.c_p / 2.0)
        assert np.max(np.abs(scaled - 1.0)) <= 1e-10

    def test_p3_converges(self, theta_star):
        report = sx.slp_series(theta_star, 3.0, 120)
        verdict = sx.dichotomy_diagnosis(report)
        assert verdict.regime == "converges"

    def test_coin_p2_diverges(self, coin):
        report = sx.slp_series(coin, 2.0, 80)
        verdict = sx.dichotomy_diagnosis(report)
        assert verdict.regime == "diverges"

    def test_insufficient_horizon_is_inconclusive(self, theta_star):
        report = sx.slp_series(theta_star, 1.0, 1)
        verdict = sx.dichotomy_diagnosis(report)
        assert verdict.regime == "inconclusive"

    def test_a_non_integrable_tail_fails_the_one_criterion(self, theta_star):
        # the diagnosis and the CLI's series checks apply the same criterion
        report = sx.slp_series(theta_star, 3.0, 100)
        terms = tuple(n**-0.9 for n in report.n_values)
        slow = dataclasses.replace(report, terms=terms)
        with pytest.raises(sx.CheckError, match=r"p = 3.0 > 2 fails the tail criterion"):
            sx.dichotomy_diagnosis(slow)
        with pytest.raises(sx.CheckError, match="weighted series fails the tail criterion"):
            lln._check_tail(slow, "weighted series")
        assert lln._check_tail(report, "weighted series") is None

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_only_a_moment_series_is_diagnosed(self, theta_star, alpha):
        # a capacity series has no scaled moments, and its p is a Markov exponent
        report = sx.cc_series(theta_star, 0.5, alpha, 30)
        with pytest.raises(sx.ParameterError, match="needs a moment series"):
            sx.dichotomy_diagnosis(report)

    def test_verdict_fields_are_what_is_read(self):
        names = [f.name for f in dataclasses.fields(sx.DichotomyVerdict)]
        assert names == ["regime", "p", "burn_in"]

    def test_verdict_type_invariant(self):
        with pytest.raises(sx.ParameterError):
            sx.DichotomyVerdict("diverges", 3.0, None)
        with pytest.raises(sx.ParameterError):
            sx.DichotomyVerdict("converges", 2.0, None)

    def test_scan_flips_at_two(self, theta_star):
        scan = sx.moment_dichotomy_scan(theta_star, [1.0, 2.0, 2.5, 3.0, 4.0], 150)
        assert [v.regime for _, v in scan] == [
            "diverges",
            "diverges",
            "converges",
            "converges",
            "converges",
        ]

    def test_scan_rejects_constant_variable(self):
        constant = sx.AmbiguitySet.from_rows((0.0,), ((1.0,),))
        with pytest.raises(sx.ParameterError):
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

    @pytest.mark.parametrize("n_list", [list(range(12, 1, -1)), [2, 3, 3, 4]])
    def test_horizons_must_strictly_increase(self, theta_star, n_list):
        # the running maximum and mz_trend_slope read the list in order
        with pytest.raises(sx.ParameterError, match="strictly increasing horizons"):
            sx.mz_check(theta_star, 4.0, n_list)

    def test_mean_term_negligible_for_float_weight_families(self):
        rng = np.random.default_rng(17)
        ambiguity = random_mean_zero_ambiguity(rng)
        report = sx.mz_check(ambiguity, 4.0, [1, 2, 3])
        assert all(m <= 1e-50 for m in report.mean_terms)

    def test_horizons_as_an_array_a_range_or_a_list(self, theta_star):
        reports = [
            sx.mz_check(theta_star, 4.0, horizons)
            for horizons in (np.arange(2, 9), range(2, 9), list(range(2, 9)))
        ]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].n_values == tuple(range(2, 9))

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: sx.mz_check(s, 4.0, [2.5, 3.5]),
            lambda s: sx.mz_check(s, 4.0, [2, 3.0]),
            lambda s: sx.sum_functional_series(s, 3.0, abs),
            lambda s: sx.mz_check(s, 4.0, [True, 2]),
            lambda s: sx.sum_functional_series(s, True, abs),
        ],
        ids=["mz-fractional", "mz-float", "series-float", "mz-bool", "series-bool"],
    )
    def test_float_horizons_are_a_parameter_error(self, theta_star, call):
        with pytest.raises(sx.ParameterError, match="horizons must be integers >= 1"):
            call(theta_star)

    def test_fields_are_what_the_sweeps_measured(self):
        names = [f.name for f in dataclasses.fields(sx.MZReport)]
        assert names == ["alpha", "n_values", "lhs", "rhs_core", "mean_terms"]

    def test_replaced_sides_rederive_ratios_and_running_max(self, theta_star):
        report = sx.mz_check(theta_star, 4.0, range(2, 6))
        lhs = tuple(c * right for c, right in zip((2.0, 1.0, 3.0, 0.5), report.rhs_core))
        changed = dataclasses.replace(report, lhs=lhs)
        ratios = tuple(left / right for left, right in zip(lhs, report.rhs_core))
        assert changed.ratios == ratios
        assert changed.running_max == (ratios[0], ratios[0], ratios[2], ratios[2])
        assert report.ratios != ratios  # the original keeps its own


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

    def test_single_term(self, theta_star):
        report = sx.corollary_series(theta_star, 3.0, 2.6, 1)
        assert report.total == pytest.approx(1.0, abs=1e-12)

    def test_converges_structurally(self, theta_star):
        report = sx.corollary_series(theta_star, 3.0, 2.6, 100)
        evidence = tail_consistency(report)
        assert report.tail.exponent > 1.0
        assert evidence["max_increment_ratio"] <= 2.0

    def test_requires_zero_mean(self):
        shifted = sx.AmbiguitySet.from_rows(
            (0.0, 1.0, 2.0), ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5))
        )
        with pytest.raises(sx.ParameterError):
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

    def test_parameter_and_budget_errors(self, theta_star, monkeypatch):
        with pytest.raises(sx.ParameterError):
            sx.subadditive_series_check(theta_star, 2.0, 5)
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 2**16)
        with pytest.raises(sx.CapacityError):
            sx.subadditive_series_check(theta_star, 3.0, 5000)

    def test_byte_budget_alone_bounds_the_horizon(self, theta_star):
        # the additive DP holds bytes linear in N, so no horizon gate refuses
        # N = 4097 (0.6 s)
        lhs, _, margin = sx.subadditive_series_check(theta_star, 2.6, 4097)
        assert lhs > 0.0 and margin >= -1e-12


#: The canonical set and the coin, on the dense lattice, and three float-atom
#: families with 2-3 measures, on the composition lattice.
_TRUNCATED_FAMILIES = {
    "canonical": sx.canonical_set,
    "coin": lambda: sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5),)),
    **{
        f"random-{seed}": lambda seed=seed: random_mean_zero_ambiguity(np.random.default_rng(seed))
        for seed in (4, 5, 11)
    },
}


@pytest.mark.parametrize("beta, horizon", [(2.6, 30), (3.0, 50)])
@pytest.mark.parametrize("make", list(_TRUNCATED_FAMILIES.values()), ids=list(_TRUNCATED_FAMILIES))
def test_truncated_series_is_one_value_on_three_paths(make, beta, horizon):
    # E-hat[sum_{n<=N} |S_n/n - mu|^beta] by the subadditivity check, the
    # additive functional and the sampling experiment's DP, bit for bit
    family = make()
    mu = family.require_mean_certain("truncated series")
    costs = [lambda s, k=k: np.abs(s / k - mu) ** beta for k in range(1, horizon + 1)]
    lhs, _, _ = sx.subadditive_series_check(family, beta, horizon)
    additive = sx.eval_additive_functional(family, horizon, costs)
    sampled = sx.sqs_empirical(family, beta, horizon, 200, seed=20240811).dp_value
    assert lhs == additive == sampled


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


def reference_sqs(ambiguity, beta, horizon, n_paths, seed):
    """``sqs_empirical`` one policy at a time, as it ran before its policies
    were batched: per policy, a constant one as picks on the argmax policy's
    lattice, a ``_recursion`` replay and a ``_sample_steps`` loop."""
    mu = ambiguity.require_mean_certain("reference_sqs")
    lattice = iid._lattice(ambiguity.grid.array, horizon)
    stage = lln._series_costs(lattice, mu, beta)
    zero = lambda k: np.zeros(lattice.size(k))
    (value,), argmax = iid._recursion(
        ambiguity, lattice, [horizon], zero, stage=stage, want_policy=True
    )
    labels = [f"measure_{i}" for i in range(len(ambiguity.weight_matrix))] + ["argmax"]
    streams = np.random.SeedSequence(seed).spawn(len(labels))
    summaries = []
    for i, (label, stream) in enumerate(zip(labels, streams)):
        policy = argmax
        if label != "argmax":
            picks = (np.broadcast_to(c.dtype.type(i), c.shape) for c in argmax.choices)
            policy = sx.SelectionPolicy(lattice, tuple(picks))
        (exact,), _ = iid._recursion(
            ambiguity, lattice, [horizon], zero, stage=stage, replay=[policy]
        )
        if exact > value + 1e-12:
            raise sx.CheckError(
                f"policy {label} has exact value {exact}, above the upper expectation {value}"
            )
        if label == "argmax" and abs(exact - value) > 1e-12:
            raise sx.CheckError(f"the argmax policy's exact value {exact} misses the DP value {value}")
        values = np.zeros(n_paths)
        rng = [np.random.default_rng(stream)]
        steps = iid._sample_steps(ambiguity, [policy], horizon, rng, n_paths)
        for k, (_, sums) in enumerate(steps, 1):
            values += np.abs(sums[0] / k - mu) ** beta
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(n_paths))
        if abs(mean - exact) > SAMPLING_Z * stderr:
            raise sx.CheckError(
                f"policy {label}: sampled mean {mean} is more than {SAMPLING_Z} standard "
                f"errors ({stderr}) from its exact value {exact}"
            )
        stats = [values.min(), *np.quantile(values, [0.25, 0.5, 0.75]), values.max()]
        summaries.append(lln.PolicyPathSummary(label, exact, mean, stderr, *map(float, stats)))
    return lln.SqsSummary(beta, horizon, n_paths, seed, value, tuple(summaries))


def outcome(call, *args):
    """The value of ``call(*args)``, or the message of the CheckError it raises."""
    try:
        return call(*args)
    except sx.CheckError as exc:
        return str(exc)


def balanced(atoms, tilts):
    """Measures on atoms (-a, 0, b), each with mass ``u`` off zero, balanced to mean zero."""
    a, b = -atoms[0], atoms[2]
    return sx.AmbiguitySet.from_rows(
        atoms, [(u * b / (a + b), 1.0 - u, u * a / (a + b)) for u in tilts]
    )


#: Mean-certain families on every lattice sqs samples on: the dense
#: canonical grid, one measure, three measures, a gapped dense grid, and
#: float atoms on the composition lattice.
SQS_FAMILIES = {
    "canonical": sx.canonical_set(),
    "coin": sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5),)),
    "three": sx.AmbiguitySet.from_rows(
        (-1.0, 0.0, 1.0), ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5), (0.1, 0.8, 0.1))
    ),
    "gapped": sx.AmbiguitySet.from_rows((0.0, 0.5, 1.5), ((0.5, 0.0, 0.5), (0.3, 0.3, 0.4))),
    "float": balanced((-np.sqrt(0.3), 0.0, 0.1 * np.pi), (0.4, 0.9)),
}


class TestSqsEmpirical:
    def test_families_cover_every_lattice(self):
        lattices = {
            name: type(iid._lattice(family.grid.array, 30)).__name__
            for name, family in SQS_FAMILIES.items()
        }
        assert lattices == {
            "canonical": "_IntLattice",
            "coin": "_IntLattice",
            "three": "_IntLattice",
            "gapped": "_IntLattice",
            "float": "_CompositionLattice",
        }
        assert iid._lattice(SQS_FAMILIES["float"].grid.array, 30).units is None

    @pytest.mark.parametrize("name", list(SQS_FAMILIES))
    def test_batched_policies_match_the_per_policy_reference(self, name):
        family = SQS_FAMILIES[name]
        for seed in range(4):
            for n_paths in (2, 300):
                args = (family, 3.0, 30, n_paths, seed)
                assert outcome(sx.sqs_empirical, *args) == outcome(reference_sqs, *args)

    def test_paths_stay_within_the_budget(self, theta_star, monkeypatch):
        # the sampler's rows are admitted before the first draw: a refused
        # run allocates none of them
        sx.sqs_empirical(theta_star, 3.0, 10, 500, seed=0)  # first-call imports, untraced
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 2**20)
        call = lambda n_paths: sx.sqs_empirical(theta_star, 3.0, 10, n_paths, seed=0)
        outcomes = traced_outcomes(call, (500, 1000, 2000, 4000, 8000))
        assert outcomes == ["built", "built", "built", "raised"]

    def test_stage_costs_stay_within_the_budget(self, theta_star, monkeypatch):
        # the recursion and its replays hold one level's stage costs at a
        # time, not every level's beside the budgeted policy
        sx.sqs_empirical(theta_star, 3.0, 10, 2, seed=0)  # first-call imports, untraced
        monkeypatch.setattr(iid, "CHAIN_BUDGET_BYTES", 2**19)
        call = lambda n: sx.sqs_empirical(theta_star, 3.0, n, 2, seed=0)
        outcomes = traced_outcomes(call, (100, 200, 400, 800))
        assert outcomes == ["built", "built", "built", "raised"]

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
        for i, row in enumerate(theta_star.weight_matrix):
            alone = sx.AmbiguitySet(theta_star.grid, row[None])
            assert summary.policies[i].exact == pytest.approx(
                sx.brute_force_oracle(alone, n, series), abs=1e-12
            )
        assert summary.policies[-1].exact == summary.dp_value

    def test_biased_sampler_is_caught(self, theta_star, monkeypatch):
        real = lln._sample_steps

        def low_variance(ambiguity, policies, n, rngs, n_paths):
            # every policy, a measure index or kept picks, zeroed to measure 0
            zeroed = [
                sx.SelectionPolicy(p.lattice, tuple(np.zeros_like(c) for c in p.choices))
                if isinstance(p, sx.SelectionPolicy)
                else 0
                for p in policies
            ]
            return real(ambiguity, zeroed, n, rngs, n_paths)

        monkeypatch.setattr(lln, "_sample_steps", low_variance)
        with pytest.raises(sx.CheckError, match="measure_1: sampled mean"):
            sx.sqs_empirical(theta_star, 3.0, 20, 1000, seed=20240811)

    def test_needs_two_paths_for_a_standard_error(self, theta_star):
        with pytest.raises(sx.ParameterError, match="n_paths"):
            sx.sqs_empirical(theta_star, 3.0, 10, 1, seed=0)

    def test_a_fractional_n_paths_is_a_parameter_error(self, theta_star):
        with pytest.raises(sx.ParameterError, match="integer n_paths >= 2"):
            sx.sqs_empirical(theta_star, 3.0, 10, 2.5, seed=0)

    def test_beta_gate(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.sqs_empirical(theta_star, 2.0, 10, 10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
    def test_seed_must_be_a_nonnegative_integer(self, theta_star, seed):
        with pytest.raises(sx.ParameterError, match="seed must be an integer >= 0"):
            sx.sqs_empirical(theta_star, 2.6, 5, 10, seed=seed)

    def test_pathwise_beta_comparison(self, coin):
        # once every |s_n/n| <= 1, the per-path series is nonincreasing in beta
        _, policy = sx.eval_sum_functional(coin, 30, lambda s: s)
        for seed in range(5):
            steps = iid._sample_steps(coin, [policy], 30, [np.random.default_rng(seed)], 1)
            sums = np.array([s[0, 0] for _, s in steps])
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

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 3.7, 10.0])
    @pytest.mark.parametrize("coeff", [0.01, 2.7])
    def test_recovers_any_power_law(self, s, coeff):
        n = np.arange(1, 201)
        fit = sx.fit_tail(n, coeff * n ** (-s))
        assert fit.usable and fit.window == (101, 200) and fit.n_points == 100
        assert fit.exponent == pytest.approx(s, abs=1e-9)
        assert fit.coeff == pytest.approx(coeff, rel=1e-6)

    @staticmethod
    def _power_series(s, horizon=200):
        n = np.arange(1, horizon + 1)
        terms = tuple(float(t) for t in 2.7 * n ** (-s))
        return sx.SeriesReport(p=3.0, terms=terms, reference=terms)

    @pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 3.7, 10.0, 40.0])
    def test_an_exact_power_tail_meets_its_fit(self, s):
        # observed and fitted tails coincide, so the ratio is 1 and the check passes
        report = self._power_series(s)
        evidence = tail_consistency(report)
        assert set(evidence) == {"fitted_exponent", "max_increment_ratio"}
        assert evidence["fitted_exponent"] == pytest.approx(s, abs=1e-9)
        assert evidence["max_increment_ratio"] == pytest.approx(1.0, rel=1e-6)
        assert lln._check_tail(report, "power series") is None

    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_a_non_integrable_power_tail_fails(self, s):
        report = self._power_series(s)
        assert tail_consistency(report)["max_increment_ratio"] == math.inf
        with pytest.raises(sx.CheckError, match="power series fails the tail criterion"):
            lln._check_tail(report, "power series")

    @pytest.mark.parametrize("s", [1.5, 3.7])
    def test_an_observed_tail_above_the_factor_fails(self, s):
        # one late term far above the curve: the suffix sum before it exceeds
        # TAIL_FACTOR times the fitted one while the exponent stays above 1
        terms = list(self._power_series(s).terms)
        terms[-2] *= 10.0
        report = sx.SeriesReport(p=3.0, terms=tuple(terms), reference=tuple(terms))
        assert report.tail.exponent > 1.0
        assert tail_consistency(report)["max_increment_ratio"] > lln.TAIL_FACTOR
        with pytest.raises(sx.CheckError, match="power series fails the tail criterion"):
            lln._check_tail(report, "power series")

    def test_divergent_series_has_infinite_tail(self):
        n = np.arange(1, 101)
        fit = sx.fit_tail(n, 1.0 / n)
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)

    def test_too_few_points(self):
        fit = sx.fit_tail([1, 2], [1.0, 0.5])
        assert not fit.usable

    def test_fields_are_the_fit(self):
        names = [f.name for f in dataclasses.fields(lln.TailFit)]
        assert names == ["exponent", "coeff", "window", "n_points"]

    def test_empty_input_is_a_parameter_error(self):
        with pytest.raises(sx.ParameterError, match="at least one term"):
            sx.fit_tail([], [])

    @pytest.mark.parametrize("n", [np.arange(100, 0, -1), np.array([1, 2, 2, 3])])
    def test_n_must_strictly_increase(self, n):
        # the last n is read as the horizon
        with pytest.raises(sx.ParameterError, match="strictly increase"):
            sx.fit_tail(n, 1.0 / n)

    def test_misaligned_input_is_a_parameter_error(self):
        with pytest.raises(sx.ParameterError, match="one term per n, got 2 terms for 3 values of n"):
            sx.fit_tail([1, 2, 3], [1, 2])

    def test_zero_terms_are_skipped(self):
        n = np.arange(1, 51)
        terms = 1.0 * n ** (-2.0)
        terms[40:] = 0.0
        fit = sx.fit_tail(n, terms)
        assert fit.n_points == 15  # only positive entries above n = 25
