"""Convergence-rate experiments for the law of large numbers.

Everything here is a finite-horizon, exactly computed rendition of an
asymptotic statement: the strong-L^p dichotomy in the exponent p (series
of p-th moments of S_n/n - mu diverge for p <= 2 and converge for p > 2),
the maximal/quadratic-variation moment inequality behind the convergent
side, the Hoelder interpolation step, weighted-series and complete-
convergence variants, and the subadditivity step behind the quasi-sure
version together with its adversarial sampling probe.

The divergent side is operationalized through the scaled moments
``n^{p/2} a_n``, which converge to the p-th absolute moment ``c_p`` of the
G-normal limit: beyond the first index where the CLT gap drops below
c_p/4, the scaled moments must stay above c_p/2.  The convergent side is
structural: terms must track a fitted power tail (log-log least squares
over the top half of the range, factor-2 tolerance on predicted tails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.special import zeta

from .core import ATOL, AmbiguitySet, TabulatedPayoff, lower_expect, upper_expect
from .errors import (
    CapacityError,
    CheckError,
    ParameterError,
    PreconditionError,
    ValidationError,
)
from .gnormal import GExpectationResult, GNormalParams, HeatGrid, default_grid, g_expectation
from .iid import (
    SelectionPolicy,
    _additive_dp,
    _sample_steps,
    capacity_sum_event,
    eval_maxabs_functional,
    eval_sumsq_functional,
    sum_functional_series,
)

#: Standard errors a policy's Monte Carlo mean may stray from its exact value.
SAMPLING_Z = 5.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an ambiguity set plus exponents, horizon and solver settings."""

    atoms: tuple[float, ...]
    measures: tuple[tuple[float, ...], ...]
    p: float = 2.0
    alpha: float = 4.0
    beta: float = 3.0
    horizon: int = 100
    epsilons: tuple[float, ...] = (0.5,)
    seed: int = 0
    nx: int = 801
    half_width: float | None = None
    dt_safety: float = 0.9
    trials: int = 1000
    n_paths: int = 10000

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(float(a) for a in self.atoms))
        object.__setattr__(
            self, "measures", tuple(tuple(float(w) for w in row) for row in self.measures)
        )
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        if self.p <= 0.0:
            raise ValidationError(f"p: must be positive, got {self.p}")
        if self.alpha <= 2.0:
            raise ValidationError(f"alpha: must exceed 2, got {self.alpha}")
        if self.beta <= 2.0:
            raise ValidationError(f"beta: must exceed 2, got {self.beta}")
        if self.horizon < 1:
            raise ValidationError(f"N: must be >= 1, got {self.horizon}")
        if any(e <= 0.0 for e in self.epsilons):
            raise ValidationError(f"epsilons: must all be positive, got {self.epsilons}")
        if not isinstance(self.seed, int):
            raise ValidationError(f"seed: must be an integer, got {self.seed!r}")
        if self.nx < 3:
            raise ValidationError(f"solver.nx: must be >= 3, got {self.nx}")
        if self.half_width is not None and self.half_width <= 0.0:
            raise ValidationError(f"solver.half_width: must be positive, got {self.half_width}")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValidationError(f"solver.dt_safety: must lie in (0, 1], got {self.dt_safety}")
        if self.trials < 1:
            raise ValidationError(f"trials: must be >= 1, got {self.trials}")
        if self.n_paths < 1:
            raise ValidationError(f"n_paths: must be >= 1, got {self.n_paths}")

    @cached_property
    def ambiguity_set(self) -> AmbiguitySet:
        return AmbiguitySet.from_rows(self.atoms, self.measures)

    def gnormal_params(self) -> GNormalParams:
        return GNormalParams.from_ambiguity(self.ambiguity_set)

    def heat_grid(self) -> HeatGrid:
        params = self.gnormal_params()
        if self.half_width is None:
            return default_grid(params, nx=self.nx, dt_safety=self.dt_safety)
        dx = 2.0 * self.half_width / (self.nx - 1)
        return HeatGrid(self.half_width, self.nx, self.dt_safety * dx * dx / params.sigma_upper_sq)


@dataclass(frozen=True)
class TailFit:
    """Power-law fit a_n ~ coeff * n^(-exponent) over the top half of the range."""

    exponent: float
    coeff: float
    window: tuple[int, int]
    n_points: int
    predicted_tail_beyond: float  # coeff * sum_{n > N} n^(-exponent); inf unless exponent > 1

    @property
    def usable(self) -> bool:
        return self.n_points >= 3 and math.isfinite(self.exponent)


def fit_tail(n_values: Sequence[int], terms: Sequence[float]) -> TailFit:
    """Least squares of log terms against log n over the top half of the range.

    Nonpositive terms are excluded from the fit (a term that has decayed to
    exact zero carries no tail information at this scale).
    """
    n_arr = np.asarray(n_values, dtype=float)
    t_arr = np.asarray(terms, dtype=float)
    horizon = int(n_arr[-1])
    lo = horizon // 2 + 1
    mask = (n_arr >= lo) & (t_arr > 0.0)
    pts = int(mask.sum())
    if pts < 3:
        return TailFit(math.nan, math.nan, (lo, horizon), pts, math.inf)
    x = np.log(n_arr[mask])
    y = np.log(t_arr[mask])
    slope, intercept = np.polyfit(x, y, 1)
    exponent = -float(slope)
    coeff = float(math.exp(intercept))
    tail = coeff * float(zeta(exponent, horizon + 1)) if exponent > 1.0 else math.inf
    return TailFit(exponent, coeff, (lo, horizon), pts, tail)


@dataclass(frozen=True)
class SeriesReport:
    """Per-n terms of one series, with partial sums, reference curve and tail fit."""

    kind: str
    p: float
    n_values: tuple[int, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    reference: tuple[float, ...]
    scaled_terms: tuple[float, ...]
    clt_gaps: tuple[float, ...]
    c_p: float
    c_p_residual: float
    tail: TailFit

    def __post_init__(self) -> None:
        if not (
            len(self.n_values) == len(self.terms) == len(self.partial_sums) == len(self.reference)
        ):
            raise ValidationError("series columns must have equal length")

    @property
    def horizon(self) -> int:
        return self.n_values[-1]

    @property
    def total(self) -> float:
        return self.partial_sums[-1]


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of the divergence/convergence diagnosis for one exponent p."""

    regime: str  # "diverges" | "converges" | "inconclusive"
    p: float
    burn_in: int | None
    evidence: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.regime not in ("diverges", "converges", "inconclusive"):
            raise ValidationError(f"unknown regime {self.regime!r}")
        if self.regime == "diverges" and self.p > 2.0:
            raise ValidationError("a divergence verdict requires p <= 2")
        if self.regime == "converges" and self.p <= 2.0:
            raise ValidationError("a convergence verdict requires p > 2")


def _resolve_cp(
    ambiguity: AmbiguitySet,
    p: float,
    c_p: GExpectationResult | float | None,
    params: GNormalParams | None,
    grid: HeatGrid | None,
) -> tuple[float, float]:
    if isinstance(c_p, GExpectationResult):
        return c_p.value, c_p.residual_estimate
    if c_p is not None:
        return float(c_p), 0.0
    if params is None:
        params = GNormalParams.from_ambiguity(ambiguity)
    result = g_expectation(lambda x: np.abs(x) ** p, params, grid)
    return result.value, result.residual_estimate


def _moment_series(
    kind: str,
    ambiguity: AmbiguitySet,
    p: float,
    horizon: int,
    term: Callable[[np.ndarray, np.ndarray], np.ndarray],
    reference_exponent: float,
    c_p: GExpectationResult | float | None,
    params: GNormalParams | None,
    grid: HeatGrid | None,
) -> SeriesReport:
    """Series report on the centered moments ``raw_n = E-hat[|S~_n|^p]``.

    ``term(raw, n)`` gives the series terms; the reference curve is
    ``c_p n^reference_exponent`` and the CLT gap is ``|n^{-p/2} raw_n - c_p|``.
    """
    raw = sum_functional_series(ambiguity, horizon, lambda s: np.abs(s) ** p, centered=True)
    n = np.arange(1, horizon + 1, dtype=float)
    terms = term(raw, n)
    scaled = raw / n ** (p / 2.0)
    cp_value, cp_residual = _resolve_cp(ambiguity, p, c_p, params, grid)
    reference = cp_value * n**reference_exponent
    gaps = np.abs(scaled - cp_value)
    return SeriesReport(
        kind=kind,
        p=p,
        n_values=tuple(range(1, horizon + 1)),
        terms=tuple(float(t) for t in terms),
        partial_sums=tuple(float(s) for s in np.cumsum(terms)),
        reference=tuple(float(r) for r in reference),
        scaled_terms=tuple(float(s) for s in scaled),
        clt_gaps=tuple(float(g) for g in gaps),
        c_p=cp_value,
        c_p_residual=cp_residual,
        tail=fit_tail(range(1, horizon + 1), terms),
    )


def slp_series(
    ambiguity: AmbiguitySet,
    p: float,
    horizon: int,
    c_p: GExpectationResult | float | None = None,
    params: GNormalParams | None = None,
    grid: HeatGrid | None = None,
) -> SeriesReport:
    """Terms ``a_n = E-hat[|S~_n/n|^p]`` for n = 1..N, with the reference curve
    ``c_p n^{-p/2}`` and the per-n CLT gap ``|n^{p/2} a_n - c_p|``.

    All three per-n columns are readouts of one value table (the recursion
    for ``|s|^p`` on centered sums), so the scaling identity between
    ``a_n`` and the CLT-normalized moment holds by construction.
    """
    if p <= 0.0:
        raise ParameterError(f"need p > 0, got {p}")
    ambiguity.require_mean_certain("slp_series")
    term = lambda raw, n: raw / n**p
    return _moment_series("slp", ambiguity, p, horizon, term, -p / 2.0, c_p, params, grid)


def tail_consistency(report: SeriesReport, factor: float = 2.0) -> dict[str, float]:
    """Structural convergence checks against the fitted power tail.

    Verifies the fitted exponent is integrable (> 1) and that observed
    partial-sum increments over the fit window stay within ``factor`` times
    the increments predicted by the fitted curve.  Returns the evidence
    margins; raises nothing (callers decide what a failure means).
    """
    tail = report.tail
    out: dict[str, float] = {
        "fitted_exponent": tail.exponent,
        "predicted_tail_beyond": tail.predicted_tail_beyond,
        "max_increment_ratio": 0.0,
    }
    if not tail.usable or tail.exponent <= 1.0:
        out["max_increment_ratio"] = math.inf
        return out
    n_arr = np.asarray(report.n_values, dtype=float)
    terms = np.asarray(report.terms)
    lo, hi = tail.window
    fitted_terms = tail.coeff * n_arr ** (-tail.exponent)
    # suffix sums, smallest terms first: a plain cumsum difference would
    # cancel to zero once the tail drops below the head's resolution
    observed_suffix = np.cumsum(terms[::-1])[::-1]
    fitted_suffix = np.cumsum(fitted_terms[::-1])[::-1]
    worst = 0.0
    for i, n in enumerate(report.n_values):
        if not lo <= n < hi:
            continue
        observed = float(observed_suffix[i + 1])
        predicted = float(fitted_suffix[i + 1])
        if predicted <= 0.0:
            worst = math.inf
            break
        worst = max(worst, observed / predicted)
    out["max_increment_ratio"] = worst
    return out


def dichotomy_diagnosis(
    report: SeriesReport, p: float, c_p: float, tail_factor: float = 2.0
) -> DichotomyVerdict:
    """Diagnose one series: divergence evidence for p <= 2, convergence for p > 2.

    Divergent side: find the burn-in index (first n whose CLT gap is below
    c_p/4, mirroring "there exists N" in the underlying argument) and
    verify ``n^{p/2} a_n >= c_p/2`` from there on.  Convergent side: the
    structural tail checks of :func:`tail_consistency`.  Too little data
    yields an inconclusive verdict, which is distinct from a failed check.
    """
    if p <= 2.0:
        scaled = np.asarray(report.scaled_terms)
        gaps = np.abs(scaled - c_p)
        below = np.nonzero(gaps < c_p / 4.0)[0]
        if below.size == 0:
            return DichotomyVerdict(
                "inconclusive", p, None, {"min_gap": float(gaps.min()), "c_p": c_p}
            )
        burn = int(below[0])
        floor = float(scaled[burn:].min())
        if floor < c_p / 2.0:
            raise CheckError(
                f"scaled moments dip to {floor} < c_p/2 = {c_p / 2.0} beyond burn-in "
                f"n = {report.n_values[burn]}"
            )
        return DichotomyVerdict(
            "diverges",
            p,
            report.n_values[burn],
            {"min_scaled_beyond_burn_in": floor, "c_p": c_p},
        )

    evidence = tail_consistency(report, tail_factor)
    if not report.tail.usable:
        return DichotomyVerdict("inconclusive", p, None, evidence)
    if report.tail.exponent <= 1.0 or evidence["max_increment_ratio"] > tail_factor:
        raise CheckError(
            f"series for p = {p} > 2 fails the tail criterion: "
            f"exponent {report.tail.exponent}, increment ratio "
            f"{evidence['max_increment_ratio']} (tolerance {tail_factor})"
        )
    return DichotomyVerdict("converges", p, None, evidence)


@dataclass(frozen=True)
class MZReport:
    """Per-n sides of the maximal-moment inequality and the running constant."""

    alpha: float
    n_values: tuple[int, ...]
    lhs: tuple[float, ...]  # E-hat[max_{k<=n} |S~_k|^alpha]
    rhs_core: tuple[float, ...]  # E-hat[(sum X~_k^2)^{alpha/2}]
    mean_terms: tuple[float, ...]
    ratios: tuple[float, ...]
    running_max: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for col in (self.lhs, self.rhs_core, self.mean_terms) for v in col):
            raise ValidationError("all MZ quantities must be nonnegative")


def mz_check(
    ambiguity: AmbiguitySet,
    alpha: float,
    n_list: Sequence[int],
    max_n: int = 12,
) -> MZReport:
    """Evaluate both sides of the maximal-moment inequality exactly per n.

    The left side uses the (sum, running max) dynamic program, the right
    side the squared-increment lattice; the mean term vanishes identically
    on mean-certain sets.  The chain bound lhs <= r_max (mean + rhs) is
    asserted with the running maximum of the observed ratios.
    """
    if alpha <= 2.0:
        raise ParameterError(f"need alpha > 2, got {alpha}")
    if not n_list:
        raise ParameterError("mz_check needs at least one horizon")
    mu = ambiguity.require_mean_certain("mz_check")
    for n in n_list:
        if n > max_n:
            raise CapacityError(f"maxabs DP budget is n <= {max_n}, got {n}")
        if n < 1:
            raise ParameterError(f"horizons must be >= 1, got {n}")

    centered = TabulatedPayoff(
        ambiguity.grid.atoms, tuple(a - mu for a in ambiguity.grid.atoms)
    )
    base = max(upper_expect(ambiguity, centered), 0.0) + max(
        -lower_expect(ambiguity, centered), 0.0
    )

    lhs, rhs, means, ratios, run = [], [], [], [], []
    best = 0.0
    for n in n_list:
        left = eval_maxabs_functional(ambiguity, n, lambda m: m**alpha, max_horizon=max_n)
        right = eval_sumsq_functional(ambiguity, n, lambda q: q ** (alpha / 2.0))
        mean_term = (n * base) ** alpha
        ratio = left / right
        best = max(best, ratio)
        if left > best * (mean_term + right) + 1e-12:
            raise CheckError(f"chain bound violated at n = {n}: {left} > {best * (mean_term + right)}")
        lhs.append(left)
        rhs.append(right)
        means.append(mean_term)
        ratios.append(ratio)
        run.append(best)
    return MZReport(
        alpha=alpha,
        n_values=tuple(int(n) for n in n_list),
        lhs=tuple(lhs),
        rhs_core=tuple(rhs),
        mean_terms=tuple(means),
        ratios=tuple(ratios),
        running_max=tuple(run),
    )


def mz_trend_slope(report: MZReport) -> float:
    """Log-log least-squares slope of the running-max ratio over the top half
    of the tested range; a stabilized constant gives a slope near zero."""
    n_arr = np.asarray(report.n_values, dtype=float)
    run = np.asarray(report.running_max)
    lo = report.n_values[-1] // 2 + 1
    mask = n_arr >= lo
    if mask.sum() < 2:
        return math.nan
    slope, _ = np.polyfit(np.log(n_arr[mask]), np.log(run[mask]), 1)
    return float(slope)


def holder_step_check(
    ambiguity: AmbiguitySet, p: float, alpha: float, n: int
) -> tuple[float, float, float]:
    """Interpolation step: E-hat[|S~_n|^p] <= (E-hat[|S~_n|^alpha])^{p/alpha}.

    Returns (lhs, rhs, margin); the margin may not fall below -1e-12.
    """
    if not 2.0 < p <= alpha:
        raise ParameterError(f"need 2 < p <= alpha, got p={p}, alpha={alpha}")
    ambiguity.require_mean_certain("holder_step_check")
    lhs = float(sum_functional_series(ambiguity, n, lambda s: np.abs(s) ** p, centered=True)[-1])
    moment = float(
        sum_functional_series(ambiguity, n, lambda s: np.abs(s) ** alpha, centered=True)[-1]
    )
    rhs = moment ** (p / alpha)
    margin = rhs - lhs
    if margin < -1e-12:
        raise CheckError(f"interpolation bound violated at n = {n}: margin {margin}")
    return lhs, rhs, margin


def corollary_series(
    ambiguity: AmbiguitySet,
    p: float,
    beta: float,
    horizon: int,
    c_p: GExpectationResult | float | None = None,
    params: GNormalParams | None = None,
    grid: HeatGrid | None = None,
) -> SeriesReport:
    """Weighted series ``n^{-beta} E-hat[|S_n|^p]`` for a centered set.

    Requires 2 < p and beta > (p+2)/2, the hypothesis under which the
    weighted series converges; the reference curve is ``c_p n^{p/2-beta}``.
    """
    if p <= 2.0:
        raise ParameterError(f"need p > 2, got {p}")
    if beta <= (p + 2.0) / 2.0:
        raise ParameterError(
            f"need beta > (p+2)/2 = {(p + 2.0) / 2.0}, got beta = {beta}"
        )
    mu = ambiguity.require_mean_certain("corollary_series")
    if abs(mu) > ATOL:
        raise PreconditionError(f"corollary_series requires mean zero, got mu = {mu}")
    term = lambda raw, n: raw * n ** (-beta)
    return _moment_series(
        "corollary", ambiguity, p, horizon, term, p / 2.0 - beta, c_p, params, grid
    )


def moment_dichotomy_scan(
    ambiguity: AmbiguitySet,
    p_list: Sequence[float],
    horizon: int,
    params: GNormalParams | None = None,
    grid: HeatGrid | None = None,
) -> list[tuple[float, DichotomyVerdict]]:
    """Run the series diagnosis per exponent and require the verdict to flip
    exactly at p = 2 (p = 2 itself on the divergent side)."""
    ambiguity.require_mean_certain("moment_dichotomy_scan")
    if ambiguity.variance_interval[1] <= 0.0:
        raise PreconditionError(
            "moment_dichotomy_scan requires genuine dispersion (upper variance > 0)"
        )
    out: list[tuple[float, DichotomyVerdict]] = []
    for p in p_list:
        report = slp_series(ambiguity, p, horizon, params=params, grid=grid)
        verdict = dichotomy_diagnosis(report, p, report.c_p)
        expected = "diverges" if p <= 2.0 else "converges"
        if verdict.regime != expected:
            raise CheckError(
                f"verdict for p = {p} is {verdict.regime!r}, expected {expected!r}"
            )
        out.append((p, verdict))
    return out


def _series_costs(mu: float, beta: float, horizon: int) -> list[Callable[[float], float]]:
    """Stage costs ``|s/k - mu|^beta``, k = 1..N, of the truncated series."""
    return [(lambda k: (lambda s: abs(s / k - mu) ** beta))(k) for k in range(1, horizon + 1)]


def subadditive_series_check(
    ambiguity: AmbiguitySet, beta: float, horizon: int, max_horizon: int = 4096
) -> tuple[float, float, float]:
    """Truncated subadditivity: E-hat[sum_{n<=N} |S~_n/n|^beta] <= sum of the
    per-n upper expectations.  Both sides are exact; returns (lhs, rhs, margin)."""
    if beta <= 2.0:
        raise ParameterError(f"need beta > 2, got {beta}")
    if horizon > max_horizon:
        raise CapacityError(f"additive DP budget is N <= {max_horizon}, got {horizon}")
    mu = ambiguity.require_mean_certain("subadditive_series_check")
    lhs, _ = _additive_dp(ambiguity, horizon, _series_costs(mu, beta, horizon), want_policy=False)
    raw = sum_functional_series(ambiguity, horizon, lambda s: np.abs(s) ** beta, centered=True)
    n = np.arange(1, horizon + 1, dtype=float)
    rhs = float(np.sum(raw / n**beta))
    margin = rhs - lhs
    if margin < -1e-12:
        raise CheckError(f"subadditivity violated: lhs {lhs} > rhs {rhs}")
    return lhs, rhs, margin


def cc_series(
    ambiguity: AmbiguitySet, eps: float, alpha: float, horizon: int
) -> SeriesReport:
    """Complete-convergence terms ``V(|S~_n/n| >= eps)`` with their Markov
    cross-bound ``E-hat[|S~_n/n|^alpha] / eps^alpha`` (asserted per n)."""
    if eps <= 0.0:
        raise ParameterError(f"need eps > 0, got {eps}")
    if alpha <= 0.0:
        raise ParameterError(f"need alpha > 0, got {alpha}")
    mu = ambiguity.require_mean_certain("cc_series")
    raw = sum_functional_series(ambiguity, horizon, lambda s: np.abs(s) ** alpha, centered=True)
    n_values = tuple(range(1, horizon + 1))
    terms = []
    bounds = []
    for n in n_values:
        # the 1e-12 slack only absorbs representation noise on the threshold
        threshold = n * eps - 1e-12
        v = capacity_sum_event(ambiguity, n, lambda s: abs(s - n * mu) >= threshold)
        markov = float(raw[n - 1]) / (float(n) ** alpha * eps**alpha)
        if v > markov + 1e-12:
            raise CheckError(f"Markov cross-bound violated at n = {n}: {v} > {markov}")
        terms.append(v)
        bounds.append(markov)
    return SeriesReport(
        kind="cc",
        p=alpha,
        n_values=n_values,
        terms=tuple(terms),
        partial_sums=tuple(float(s) for s in np.cumsum(terms)),
        reference=tuple(bounds),
        scaled_terms=(),
        clt_gaps=(),
        c_p=math.nan,
        c_p_residual=math.nan,
        tail=fit_tail(n_values, terms),
    )


@dataclass(frozen=True)
class PolicyPathSummary:
    """Empirical distribution of the truncated series under one sampling policy,
    beside that policy's exact expected series."""

    label: str
    exact: float
    mean: float
    stderr: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float


@dataclass(frozen=True)
class SqsSummary:
    """Sampled truncated series against the exact upper expectation."""

    beta: float
    horizon: int
    n_paths: int
    seed: int
    dp_value: float
    policies: tuple[PolicyPathSummary, ...]

    @property
    def max_policy_mean(self) -> float:
        return max(s.mean for s in self.policies)

    @property
    def max_path_value(self) -> float:
        return max(s.maximum for s in self.policies)


def sqs_empirical(
    ambiguity: AmbiguitySet,
    beta: float,
    horizon: int,
    n_paths: int,
    seed: int,
) -> SqsSummary:
    """Sample the truncated series ``sum_{n<=N} |S_n/n - mu|^beta`` under each
    constant-measure policy and under the argmax policy of the additive
    recursion, and check every policy against its exact expected series.

    Each policy's exact value comes from replaying its picks through the
    recursion (policy evaluation).  The deterministic checks: no policy
    exceeds the upper expectation (``exact <= dp_value + 1e-12``), and the
    argmax policy attains it (``|exact - dp_value| <= 1e-12``).  Monte Carlo
    then tests only the sampler: ``|mean - exact| <= SAMPLING_Z * stderr``.
    Individual paths routinely exceed the expectation (a long same-sign run
    makes the early terms order one each), so the per-path extremes are
    reported but not bounded.

    Policy ``i`` draws all of its ``n_paths`` paths together from the i-th
    child of ``SeedSequence(seed)``, folding each step into the running
    series, so memory is O(n_paths) whatever the horizon.
    """
    if beta <= 2.0:
        raise ParameterError(f"need beta > 2, got {beta}")
    if n_paths < 2:
        raise ParameterError(f"need n_paths >= 2 for a standard error, got {n_paths}")
    mu = ambiguity.require_mean_certain("sqs_empirical")
    costs = _series_costs(mu, beta, horizon)
    value, argmax_policy = _additive_dp(ambiguity, horizon, costs, want_policy=True)
    assert argmax_policy is not None

    labels = [f"measure_{i}" for i in range(len(ambiguity.measures))] + ["argmax"]
    streams = np.random.SeedSequence(seed).spawn(len(labels))
    summaries = []
    for i, (label, stream) in enumerate(zip(labels, streams)):
        # one constant-measure policy alive at a time keeps the peak memory down
        policy = argmax_policy
        if label != "argmax":
            policy = SelectionPolicy(
                argmax_policy.step_states,
                tuple((i,) * len(states) for states in argmax_policy.step_states),
            )
        exact, _ = _additive_dp(ambiguity, horizon, costs, want_policy=False, replay=policy)
        if exact > value + 1e-12:
            raise CheckError(
                f"policy {label} has exact value {exact}, above the upper expectation {value}"
            )
        if label == "argmax" and abs(exact - value) > 1e-12:
            raise CheckError(f"the argmax policy's exact value {exact} misses the DP value {value}")
        values = np.zeros(n_paths)
        rng = np.random.default_rng(stream)
        for k, (_, sums) in enumerate(_sample_steps(ambiguity, policy, horizon, rng, n_paths), 1):
            values += np.abs(sums / k - mu) ** beta
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(n_paths))
        if abs(mean - exact) > SAMPLING_Z * stderr:
            raise CheckError(
                f"policy {label}: sampled mean {mean} is more than {SAMPLING_Z} standard "
                f"errors ({stderr}) from its exact value {exact}"
            )
        q25, med, q75 = np.quantile(values, [0.25, 0.5, 0.75])
        summaries.append(
            PolicyPathSummary(
                label=label,
                exact=exact,
                mean=mean,
                stderr=stderr,
                minimum=float(values.min()),
                q25=float(q25),
                median=float(med),
                q75=float(q75),
                maximum=float(values.max()),
            )
        )

    return SqsSummary(
        beta=beta,
        horizon=horizon,
        n_paths=n_paths,
        seed=seed,
        dp_value=value,
        policies=tuple(summaries),
    )
