"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here, not configured elsewhere.  Criterion 7's trend clause is a
documented expected failure; see its docstring.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import sublex as sx
from sublex.cli import main
from sublex.iid import _brute_force_many
from sublex import gnormal, lln
from sublex.lln import tail_consistency

from conftest import centred, random_ambiguity, random_mean_zero_ambiguity


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            raise AssertionError(f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget")
    except BaseException as exc:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL — {exc}", flush=True)
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s)", flush=True)


def test_01_axiom_suite():
    with criterion(1, "axiom suite, 1000 randomized trials", 5.0):
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            ambiguity = random_ambiguity(rng)
            k = len(ambiguity.grid)
            va, vb = rng.uniform(-5, 5, k), rng.uniform(-5, 5, k)
            report = sx.axiom_report(
                ambiguity,
                lambda _: va,
                lambda _: vb,
                float(3 * rng.random()),
                float(rng.uniform(-5, 5)),
            )
            assert report.all_pass and report.max_residual <= 1e-12

            mask = rng.random(k) < 0.5
            upper, _ = sx.capacity_pair(ambiguity, lambda _: mask)
            _, lower_c = sx.capacity_pair(ambiguity, lambda _: ~mask)
            assert upper + lower_c == 1.0  # exact


def _battery_instance(rng):
    general = random_ambiguity(rng, max_atoms=3, max_measures=3)
    centered = random_mean_zero_ambiguity(rng, max_measures=3)
    n = int(rng.integers(1, 4))
    power = float(rng.integers(1, 5))
    slope = float(rng.uniform(-1, 1))
    stage_powers = [float(rng.integers(1, 4)) for _ in range(n)]
    stage_scales = [float(rng.uniform(0.2, 1.5)) for _ in range(n)]
    max_power = float(rng.integers(1, 5))
    sq_power = float(rng.integers(1, 3))
    return general, centered, n, power, slope, stage_powers, stage_scales, max_power, sq_power


def test_02_oracle_equivalence():
    with criterion(2, "recursion vs exhaustive enumeration, 50 instances", 60.0):
        rng = np.random.default_rng(42)
        for _ in range(50):
            (
                general,
                centered,
                n,
                power,
                slope,
                stage_powers,
                stage_scales,
                max_power,
                sq_power,
            ) = _battery_instance(rng)

            terminal = lambda s: abs(s) ** power + slope * s
            costs = [
                (lambda q, c: (lambda s: c * abs(s) ** q))(q, c)
                for q, c in zip(stage_powers, stage_scales)
            ]
            dp_terminal, _ = sx.eval_sum_functional(general, n, terminal)
            dp_additive = sx.eval_additive_functional(general, n, costs)
            bf_terminal, bf_additive = _brute_force_many(
                general,
                n,
                [
                    lambda xs: abs(float(np.sum(xs))) ** power + slope * float(np.sum(xs)),
                    lambda xs: float(
                        sum(
                            c * abs(s) ** q
                            for s, q, c in zip(np.cumsum(xs), stage_powers, stage_scales)
                        )
                    ),
                ],
            )
            assert dp_terminal == pytest.approx(bf_terminal, abs=1e-12)
            assert dp_additive == pytest.approx(bf_additive, abs=1e-12)

            mu = centered.mean
            dp_maxabs = sx.eval_maxabs_functional(centered, n, lambda m: m**max_power)
            dp_sumsq = sx.eval_sumsq_functional(centered, n, lambda q: q**sq_power)
            bf_maxabs, bf_sumsq = _brute_force_many(
                centered,
                n,
                [
                    lambda xs: float(
                        np.max(np.abs(np.cumsum(xs) - mu * np.arange(1, n + 1)))
                    )
                    ** max_power,
                    lambda xs: float(np.sum((np.asarray(xs) - mu) ** 2)) ** sq_power,
                ],
            )
            assert dp_maxabs == pytest.approx(bf_maxabs, abs=1e-12)
            assert dp_sumsq == pytest.approx(bf_sumsq, abs=1e-12)


def test_03_exact_variance_law(theta_star):
    with criterion(3, "variance identity over n <= 200", 10.0):
        upper = sx.sum_functional_series(centred(theta_star), 200, lambda s: s * s)
        lower = sx.sum_functional_series(
            centred(theta_star), 200, lambda s: s * s, maximize=False
        )
        n = np.arange(1, 201, dtype=float)
        assert np.max(np.abs(upper - n)) <= 1e-10
        assert np.max(np.abs(lower - n / 2.0)) <= 1e-10


def test_04_divergence_at_p2(theta_star, cp_cache):
    with criterion(4, "p = 2 series tracks the harmonic numbers", 30.0):
        c2 = cp_cache(2.0)
        report = sx.slp_series(theta_star, 2.0, 1000)
        assert report.c_p == c2.value  # derived from the set's variance interval
        harmonic = np.cumsum(1.0 / np.arange(1, 1001))
        assert np.max(np.abs(np.asarray(report.partial_sums) - harmonic)) <= 1e-10
        scaled = np.asarray(report.scaled_terms)
        assert np.max(np.abs(scaled - 1.0)) <= 1e-10
        assert np.all(scaled >= c2.value / 2.0)
        verdict = sx.dichotomy_diagnosis(report)
        assert verdict.regime == "diverges"


def test_05_divergence_at_p1(theta_star, cp_cache):
    with criterion(5, "p = 1 scaled moments approach c_1", 120.0):
        c1 = cp_cache(1.0)
        report = sx.slp_series(theta_star, 1.0, 256)
        assert report.c_p == c1.value  # derived from the set's variance interval
        for n, scaled, gap in zip(report.n_values, report.scaled_terms, report.clt_gaps):
            assert abs(scaled * 1.0 - c1.value) <= gap + c1.residual_estimate + 1e-15
        # the per-n gap column is the same quantity clt_gap computes
        for n in (16, 256):
            direct = sx.clt_gap(theta_star, n, 1.0)
            assert direct == pytest.approx(report.clt_gaps[n - 1], abs=1e-9)
        verdict = sx.dichotomy_diagnosis(report)
        assert verdict.regime == "diverges"
        assert verdict.burn_in is not None
        scaled = np.asarray(report.scaled_terms)
        assert np.all(scaled[verdict.burn_in - 1 :] >= c1.value / 2.0)


def test_06_convergence_at_p3(theta_star):
    with criterion(6, "p = 3 interpolation chain and fitted tail", 120.0):
        cubes = sx.sum_functional_series(centred(theta_star), 200, lambda s: np.abs(s) ** 3)
        fourths = sx.sum_functional_series(centred(theta_star), 200, lambda s: np.abs(s) ** 4)
        margins = fourths ** (3.0 / 4.0) - cubes
        assert float(margins.min()) >= -1e-12

        report = sx.slp_series(theta_star, 3.0, 200)
        assert 1.0 < report.tail.exponent < 2.0  # the n^{-3/2} structure
        evidence = tail_consistency(report)
        assert lln.TAIL_FACTOR == 2.0
        assert evidence["max_increment_ratio"] <= 2.0


def test_07_mz_exact_parts(theta_star):
    with criterion(7, "maximal-moment inequality: exact parts", 120.0):
        report = sx.mz_check(theta_star, 4.0, list(range(2, 13)))
        assert report.mean_terms == (0.0,) * 11  # exactly zero, mean-certain set
        assert all(np.isfinite(report.ratios))
        assert all(r > 0 for r in report.ratios)
        assert all(b >= a for a, b in zip(report.running_max, report.running_max[1:]))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the ratio E-hat[max_{k<=n}|S~_k|^4] / "
        "E-hat[(sum X~_k^2)^2] on the canonical set rises from 2.125 (n=2) to "
        "4.26 (n=12) toward its exact limit 6*sum_k (-1)^k/(2k+1)^4 = 5.9337, "
        "converging like n^{-1/2}; its running maximum cannot stabilize by "
        "n = 12, where the log-log slope is ~0.22-0.38 (0.05 would require "
        "n of order 100, far beyond the stated n <= 12 window)"
    ),
)
def test_07b_mz_trend_slope(theta_star):
    """Criterion 7 trend clause, implemented faithfully at its stated range."""
    with criterion(7, "maximal-moment ratio trend slope <= 0.05", 120.0):
        report = sx.mz_check(theta_star, 4.0, list(range(2, 13)))
        n_arr = np.log(np.asarray(report.n_values, dtype=float))
        run = np.log(np.asarray(report.running_max))
        slope = float(np.polyfit(n_arr, run, 1)[0])
        assert slope <= 0.05, f"full-range slope {slope:.3f}"
        top = n_arr >= np.log(7.0)
        top_slope = float(np.polyfit(n_arr[top], run[top], 1)[0])
        assert top_slope <= 0.05, f"top-half slope {top_slope:.3f}"


def test_08_g_heat_solver(theta_star):
    with criterion(8, "G-heat solver vs classical and variance endpoints", 60.0):
        degenerate = sx.GNormalParams(1.0, 1.0)
        for fn, want in [
            (lambda x: x**2, sx.classical_abs_moment(2, 1.0)),
            (np.abs, sx.classical_abs_moment(1, 1.0)),
            (lambda x: np.abs(x) ** 3, sx.classical_abs_moment(3, 1.0)),
        ]:
            got = sx.g_expectation(fn, degenerate).value
            assert got == pytest.approx(want, abs=1e-3)

        params = sx.GNormalParams.from_ambiguity(theta_star)
        assert sx.g_expectation(lambda x: x**2, params).value == pytest.approx(1.0, abs=1e-3)
        assert sx.g_expectation(lambda x: -(x**2), params).value == pytest.approx(
            -0.5, abs=1e-3
        )
        # raises if the discrepancy exceeds five times the residual estimate
        assert gnormal.SEMIGROUP_FACTOR == 5.0
        sx.semigroup_check(lambda x: np.abs(x) ** 3, 1.0, 1.0, params)


def test_09_clt_gap_trend(theta_star, cp_cache):
    with criterion(9, "CLT gap at p = 3 shrinks through n = 256", 180.0):
        c3 = cp_cache(3.0)
        raw = sx.sum_functional_series(centred(theta_star), 256, lambda s: np.abs(s) ** 3)
        gaps = [abs(float(raw[n - 1]) / n**1.5 - c3.value) for n in (16, 32, 64, 128, 256)]
        assert gaps[-1] < 0.05
        slack = 2.0 * c3.residual_estimate
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + slack


def test_10_weighted_series(theta_star):
    with criterion(10, "weighted series converges; boundary beta rejected", 60.0):
        report = sx.corollary_series(theta_star, 3.0, 2.6, 100)
        assert report.tail.exponent > 1.0
        assert lln.TAIL_FACTOR == 2.0
        assert tail_consistency(report)["max_increment_ratio"] <= 2.0
        with pytest.raises(sx.ParameterError):
            sx.corollary_series(theta_star, 3.0, 2.5, 100)


def test_11_dichotomy_scan(theta_star):
    with criterion(11, "verdict flips exactly at p = 2", 180.0):
        verdicts = []
        for p in (1.0, 2.0, 2.5, 3.0, 4.0):
            report = sx.slp_series(theta_star, p, 200)
            verdicts.append(sx.dichotomy_diagnosis(report).regime)
        assert verdicts == ["diverges", "diverges", "converges", "converges", "converges"]


def test_12_subadditivity_and_sampling(theta_star):
    with criterion(12, "series subadditivity and adversarial sampling", 120.0):
        lhs, rhs, margin = sx.subadditive_series_check(theta_star, 3.0, 50)
        assert margin >= -1e-12
        summary = sx.sqs_empirical(theta_star, 3.0, 50, 10000, seed=20240811)
        assert summary.dp_value == pytest.approx(lhs, abs=1e-12)
        # exact policy values: none above the upper expectation, argmax attains it
        for policy in summary.policies:
            assert policy.exact <= lhs + 1e-12
        assert summary.policies[-1].label == "argmax"
        assert summary.policies[-1].exact == pytest.approx(lhs, abs=1e-12)
        # Monte Carlo tests the sampler against each exact value, two-sided
        for policy in summary.policies:
            assert abs(policy.mean - policy.exact) <= 5.0 * policy.stderr


def test_13_complete_convergence(theta_star):
    with criterion(13, "capacity series with Markov cross-bounds", 60.0):
        report = sx.cc_series(theta_star, 0.5, 4.0, 200)  # asserts the bound per n
        for v, bound in zip(report.terms, report.reference):
            assert v <= bound + 1e-12
        assert report.tail.exponent > 1.0
        assert lln.TAIL_FACTOR == 2.0
        assert tail_consistency(report)["max_increment_ratio"] <= 2.0


def test_14_cli_determinism(tmp_path):
    with criterion(14, "byte-identical reruns of the command line", 120.0):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "atoms": [-1, 0, 1],
                    "measures": [[0.25, 0.5, 0.25], [0.5, 0, 0.5]],
                    "p": 2.0,
                    "alpha": 4.0,
                    "beta": 3.0,
                    "N": 40,
                    "epsilons": [0.5],
                    "seed": 20240811,
                    "trials": 200,
                    "n_paths": 400,
                }
            )
        )
        for sub in ("axioms", "lln-series", "cc-series", "gheat", "mz-check"):
            out = tmp_path / sub
            args = [sub, "--config", str(config), "--out", str(out)]
            assert main(args) == 0, sub
            snapshot = {f.name: f.read_bytes() for f in out.iterdir()}
            assert main(args) == 0, sub
            for f in sorted(out.iterdir()):
                assert f.read_bytes() == snapshot[f.name], (sub, f.name)
