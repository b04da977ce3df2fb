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
c_p/4, the scaled moments must stay above c_p/2.  ``c_p`` is derived from
the set's own variance interval (in closed form for p >= 1), never passed
in.  The convergent side is structural: terms must track a fitted power
tail (log-log least squares over the top half of the range, observed tails
within ``TAIL_FACTOR`` times the predicted ones).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import ATOL, AmbiguitySet, _shifted, lower_expect, upper_expect
from .errors import CapacityError, CheckError, ParameterError
from .gnormal import GNormalParams, _limit_abs_moment
from .iid import (
    _Lattice,
    _admit_paths,
    _lattice,
    _recursion,
    _sample_steps,
    _series,
    sum_functional_series,
)

#: Standard errors a policy's Monte Carlo mean may stray from its exact value.
SAMPLING_Z = 5.0

#: How far observed tails of a convergent series may exceed the fitted ones.
TAIL_FACTOR = 2.0


@dataclass(frozen=True)
class TailFit:
    """Power-law fit a_n ~ coeff * n^(-exponent) over the top half of the range."""

    exponent: float
    coeff: float
    window: tuple[int, int]
    n_points: int

    @property
    def usable(self) -> bool:
        return self.n_points >= 3 and math.isfinite(self.exponent)


def fit_tail(n_values: Sequence[int], terms: Sequence[float]) -> TailFit:
    """Least squares of log terms against log n over the top half of the range.

    Nonpositive terms are excluded from the fit (a term decayed to exact zero
    carries no tail information at this scale).  It takes one term per n, at
    least one, at strictly increasing n; ParameterError otherwise.
    """
    n_arr = np.asarray(n_values, dtype=float)
    t_arr = np.asarray(terms, dtype=float)
    if n_arr.shape != t_arr.shape:
        raise ParameterError(
            f"need one term per n, got {t_arr.size} terms for {n_arr.size} values of n"
        )
    if n_arr.size == 0:
        raise ParameterError("need at least one term to fit a tail")
    if np.any(n_arr[1:] <= n_arr[:-1]):
        raise ParameterError("the values of n must strictly increase")
    horizon = int(n_arr[-1])
    lo = horizon // 2 + 1
    mask = (n_arr >= lo) & (t_arr > 0.0)
    pts = int(mask.sum())
    if pts < 3:
        return TailFit(math.nan, math.nan, (lo, horizon), pts)
    x = np.log(n_arr[mask])
    y = np.log(t_arr[mask])
    slope, intercept = np.polyfit(x, y, 1)
    return TailFit(-float(slope), float(math.exp(intercept)), (lo, horizon), pts)


@dataclass(frozen=True)
class SeriesReport:
    """Terms a_n of one series for n = 1..N, with its reference curve; a
    moment series also stores the scaled moments ``n^{-p/2} E-hat|S~_n|^p``
    and the limit moment ``c_p`` with its error bound (other series leave
    them empty and nan).  Columns that are functions of these are derived."""

    p: float
    terms: tuple[float, ...]
    reference: tuple[float, ...]
    scaled_terms: tuple[float, ...] = ()
    c_p: float = math.nan
    c_p_residual: float = math.nan

    def __post_init__(self) -> None:
        width = len(self.terms)
        if len(self.reference) != width or len(self.scaled_terms) not in (0, width):
            raise ParameterError("series columns must have equal length")

    @cached_property
    def n_values(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.terms) + 1))

    @cached_property
    def partial_sums(self) -> tuple[float, ...]:
        return tuple(float(s) for s in np.cumsum(self.terms))

    @cached_property
    def clt_gaps(self) -> tuple[float, ...]:
        """The CLT gap ``|scaled - c_p|`` per n; empty unless a moment series."""
        gaps = np.abs(np.asarray(self.scaled_terms) - self.c_p)
        return tuple(float(g) for g in gaps)

    @cached_property
    def tail(self) -> TailFit:
        return fit_tail(self.n_values, self.terms)

    @property
    def total(self) -> float:
        return self.partial_sums[-1]


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of the divergence/convergence diagnosis for one exponent p."""

    regime: str  # "diverges" | "converges" | "inconclusive"
    p: float
    burn_in: int | None

    def __post_init__(self) -> None:
        if self.regime not in ("diverges", "converges", "inconclusive"):
            raise ParameterError(f"unknown regime {self.regime!r}")
        if self.regime == "diverges" and self.p > 2.0:
            raise ParameterError("a divergence verdict requires p <= 2")
        if self.regime == "converges" and self.p <= 2.0:
            raise ParameterError("a convergence verdict requires p > 2")


def _moment_series(
    ambiguity: AmbiguitySet,
    p: float,
    horizon: int,
    term: Callable[[np.ndarray, np.ndarray], np.ndarray],
    reference_exponent: float,
) -> SeriesReport:
    """Series report on the centered moments ``raw_n = E-hat[|S~_n|^p]``.

    ``term(raw, n)`` gives the series terms; the reference curve is
    ``c_p n^reference_exponent``, the scaled moments ``n^{-p/2} raw_n``,
    with ``c_p`` the limit moment of the set's variance interval (the PDE
    on ``default_grid`` below p = 1).
    """
    centred = _shifted(ambiguity, ambiguity.mean)
    raw = sum_functional_series(centred, horizon, lambda s: np.abs(s) ** p)
    n = np.arange(1, horizon + 1, dtype=float)
    terms = term(raw, n)
    scaled = raw / n ** (p / 2.0)
    cp_value, cp_residual = _limit_abs_moment(p, GNormalParams.from_ambiguity(ambiguity))
    reference = cp_value * n**reference_exponent
    return SeriesReport(
        p=p,
        terms=tuple(float(t) for t in terms),
        reference=tuple(float(r) for r in reference),
        scaled_terms=tuple(float(s) for s in scaled),
        c_p=cp_value,
        c_p_residual=cp_residual,
    )


def clt_gap(ambiguity: AmbiguitySet, n: int, p: float) -> float:
    """Finite-n central-limit error |E-hat[|S~_n/sqrt(n)|^p] - c_p|, c_p in
    closed form for the set's variance interval."""
    if not p >= 1.0:
        raise ParameterError(f"need p >= 1, got {p}")
    centred = _shifted(ambiguity, ambiguity.require_mean_certain("clt_gap"))
    params = GNormalParams.from_ambiguity(ambiguity)
    root = math.sqrt(n)
    dp_value = float(sum_functional_series(centred, n, lambda s: np.abs(s / root) ** p)[-1])
    limit, _ = _limit_abs_moment(p, params)
    return abs(dp_value - limit)


def slp_series(
    ambiguity: AmbiguitySet,
    p: float,
    horizon: int,
) -> SeriesReport:
    """Terms ``a_n = E-hat[|S~_n/n|^p]`` for n = 1..N, with the reference curve
    ``c_p n^{-p/2}`` and the per-n CLT gap ``|n^{p/2} a_n - c_p|``.

    All three per-n columns are readouts of one value table (the recursion
    for ``|s|^p`` on centered sums), so the scaling identity between
    ``a_n`` and the CLT-normalized moment holds by construction.
    """
    if not p > 0.0:
        raise ParameterError(f"need p > 0, got {p}")
    ambiguity.require_mean_certain("slp_series")
    term = lambda raw, n: raw / n**p
    return _moment_series(ambiguity, p, horizon, term, -p / 2.0)


def tail_consistency(report: SeriesReport) -> dict[str, float]:
    """Structural convergence evidence against the fitted power tail.

    Returns the fitted exponent and the largest ratio of an observed tail
    sum over the fit window to the one the fitted curve predicts (inf unless
    the exponent is integrable, > 1); raises nothing (callers decide what a
    failure means).
    """
    tail = report.tail
    out: dict[str, float] = {"fitted_exponent": tail.exponent, "max_increment_ratio": 0.0}
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


def _check_tail(report: SeriesReport, what: str) -> None:
    """The convergent-side criterion of every series: raises CheckError naming
    ``what``, with the evidence of :func:`tail_consistency`, unless the
    fitted exponent exceeds 1 and no observed tail exceeds ``TAIL_FACTOR``
    times its fitted prediction.  A fit with too few points is
    inconclusive, not failed: ParameterError, asking for a longer horizon."""
    if not report.tail.usable:
        raise ParameterError(
            f"{what}: the tail fit at horizon N = {report.n_values[-1]} has "
            f"{report.tail.n_points} points, too few for a fit; raise N"
        )
    evidence = tail_consistency(report)
    if report.tail.exponent <= 1.0 or evidence["max_increment_ratio"] > TAIL_FACTOR:
        raise CheckError(f"{what} fails the tail criterion: {evidence} (tolerance {TAIL_FACTOR})")


def dichotomy_diagnosis(report: SeriesReport) -> DichotomyVerdict:
    """Diagnose one series: divergence evidence for p <= 2, convergence for p > 2.

    Divergent side: find the burn-in index (first n whose CLT gap to the
    report's ``c_p`` is below c_p/4, mirroring "there exists N" in the
    underlying argument) and verify ``n^{p/2} a_n >= c_p/2`` from there on.
    Convergent side: the structural tail criterion.  Too little data
    yields an inconclusive verdict, which is distinct from a failed check.
    Only a moment series (one with scaled moments) can be diagnosed; any
    other is a ParameterError.
    """
    p, c_p = report.p, report.c_p
    if not report.scaled_terms:
        raise ParameterError("dichotomy_diagnosis needs a moment series (one with scaled moments)")
    if p <= 2.0:
        scaled = np.asarray(report.scaled_terms)
        gaps = np.asarray(report.clt_gaps)
        below = np.nonzero(gaps < c_p / 4.0)[0]
        if below.size == 0:
            return DichotomyVerdict("inconclusive", p, None)
        burn = int(below[0])
        floor = float(scaled[burn:].min())
        if floor < c_p / 2.0:
            raise CheckError(
                f"scaled moments dip to {floor} < c_p/2 = {c_p / 2.0} beyond burn-in "
                f"n = {report.n_values[burn]}"
            )
        return DichotomyVerdict("diverges", p, report.n_values[burn])

    if not report.tail.usable:
        return DichotomyVerdict("inconclusive", p, None)
    _check_tail(report, f"series for p = {p} > 2")
    return DichotomyVerdict("converges", p, None)


@dataclass(frozen=True)
class MZReport:
    """Per-n sides of the maximal-moment inequality; their ratios and running max are derived."""

    alpha: float
    n_values: tuple[int, ...]
    lhs: tuple[float, ...]  # E-hat[max_{k<=n} |S~_k|^alpha]
    rhs_core: tuple[float, ...]  # E-hat[(sum X~_k^2)^{alpha/2}]
    mean_terms: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for col in (self.lhs, self.rhs_core, self.mean_terms) for v in col):
            raise ParameterError("all MZ quantities must be nonnegative")

    @cached_property
    def ratios(self) -> tuple[float, ...]:
        return tuple(left / right for left, right in zip(self.lhs, self.rhs_core))

    @cached_property
    def running_max(self) -> tuple[float, ...]:
        return tuple(itertools.accumulate(self.ratios, max, initial=0.0))[1:]


def mz_check(
    ambiguity: AmbiguitySet,
    alpha: float,
    n_list: Sequence[int],
    max_n: int = 12,
) -> MZReport:
    """Evaluate both sides of the maximal-moment inequality exactly per n.

    Both sides run on the set shifted by its mean (``_shifted``): the left
    side carries the running max as a value axis of its sums' lattice, the
    right side runs on the squared atoms' lattice, one sweep per side for
    every horizon; the mean term vanishes identically on mean-certain sets.
    The horizons are strictly increasing integers in 1..max_n (a list, range
    or integer array).  The chain bound lhs <= r_max (mean + rhs) is asserted
    with the report's ``running_max``, the running maximum of its ratios.
    """
    if not alpha > 2.0:
        raise ParameterError(f"need alpha > 2, got {alpha}")
    if len(n_list) == 0:
        raise ParameterError("mz_check needs at least one horizon")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ParameterError(f"mz_check needs strictly increasing horizons, got {list(n_list)}")
    centred = _shifted(ambiguity, ambiguity.require_mean_certain("mz_check"))
    for n in n_list:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ParameterError(f"horizons must be integers >= 1, got {n}")
        if n > max_n:
            raise CapacityError(f"maxabs DP budget is n <= {max_n}, got {n}")

    identity = lambda a: a
    base = max(upper_expect(centred, identity), 0.0) + max(-lower_expect(centred, identity), 0.0)

    # one sweep per side serves every horizon
    offsets = centred.grid.array
    lefts = _series(centred, offsets, n_list, lambda m: m**alpha, running_max=True)
    rights = _series(centred, offsets**2, n_list, lambda q: q ** (alpha / 2.0))
    n_values = tuple(int(n) for n in n_list)
    report = MZReport(
        alpha=alpha,
        n_values=n_values,
        lhs=tuple(lefts.tolist()),
        rhs_core=tuple(rights.tolist()),
        mean_terms=tuple((n * base) ** alpha for n in n_values),
    )
    sides = zip(n_values, report.lhs, report.rhs_core, report.mean_terms, report.running_max)
    for n, left, right, mean_term, best in sides:
        # relative past 1: (left / right) * right may round an ulp below left
        if left > best * (mean_term + right) + ATOL * max(1.0, left):
            raise CheckError(f"chain bound violated at n = {n}: {left} > {best * (mean_term + right)}")
    return report


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

    Returns (lhs, rhs, margin); the margin may not fall below ``-ATOL``.
    """
    if not 2.0 < p <= alpha:
        raise ParameterError(f"need 2 < p <= alpha, got p={p}, alpha={alpha}")
    centred = _shifted(ambiguity, ambiguity.require_mean_certain("holder_step_check"))
    lhs = float(sum_functional_series(centred, n, lambda s: np.abs(s) ** p)[-1])
    moment = float(sum_functional_series(centred, n, lambda s: np.abs(s) ** alpha)[-1])
    rhs = moment ** (p / alpha)
    margin = rhs - lhs
    if margin < -ATOL:
        raise CheckError(f"interpolation bound violated at n = {n}: margin {margin}")
    return lhs, rhs, margin


def corollary_series(
    ambiguity: AmbiguitySet,
    p: float,
    beta: float,
    horizon: int,
) -> SeriesReport:
    """Weighted series ``n^{-beta} E-hat[|S_n|^p]`` for a centered set.

    Requires 2 < p and beta > (p+2)/2, the hypothesis under which the
    weighted series converges; the reference curve is ``c_p n^{p/2-beta}``.
    """
    if not p > 2.0:
        raise ParameterError(f"need p > 2, got {p}")
    if not beta > (p + 2.0) / 2.0:
        raise ParameterError(
            f"need beta > (p+2)/2 = {(p + 2.0) / 2.0}, got beta = {beta}"
        )
    mu = ambiguity.require_mean_certain("corollary_series")
    if abs(mu) > ATOL:
        raise ParameterError(f"corollary_series requires mean zero, got mu = {mu}")
    term = lambda raw, n: raw * n ** (-beta)
    return _moment_series(ambiguity, p, horizon, term, p / 2.0 - beta)


def moment_dichotomy_scan(
    ambiguity: AmbiguitySet,
    p_list: Sequence[float],
    horizon: int,
) -> list[tuple[float, DichotomyVerdict]]:
    """Run the series diagnosis per exponent and require the verdict to flip
    exactly at p = 2 (p = 2 itself on the divergent side)."""
    ambiguity.require_mean_certain("moment_dichotomy_scan")
    if ambiguity.variance_interval[1] <= 0.0:
        raise ParameterError(
            "moment_dichotomy_scan requires genuine dispersion (upper variance > 0)"
        )
    out: list[tuple[float, DichotomyVerdict]] = []
    for p in p_list:
        verdict = dichotomy_diagnosis(slp_series(ambiguity, p, horizon))
        expected = "diverges" if p <= 2.0 else "converges"
        if verdict.regime != expected:
            raise CheckError(
                f"verdict for p = {p} is {verdict.regime!r}, expected {expected!r}"
            )
        out.append((p, verdict))
    return out


def _series_costs(
    lattice: _Lattice, mu: float, beta: float
) -> Callable[[int, np.ndarray], np.ndarray]:
    """The stage adding the costs ``|s/k - mu|^beta`` of the truncated series
    on the states of level k to every column of its values."""
    return lambda k, values: values + (np.abs(lattice.states(k) / k - mu) ** beta)[:, None]


def subadditive_series_check(
    ambiguity: AmbiguitySet, beta: float, horizon: int
) -> tuple[float, float, float]:
    """Truncated subadditivity: E-hat[sum_{n<=N} |S~_n/n|^beta] <= sum of the
    per-n upper expectations.  Both sides are exact; returns (lhs, rhs, margin)."""
    if not beta > 2.0:
        raise ParameterError(f"need beta > 2, got {beta}")
    mu = ambiguity.require_mean_certain("subadditive_series_check")
    lattice = _lattice(ambiguity.grid.array, horizon)
    zero = lambda k: np.zeros(lattice.size(k))
    stage = _series_costs(lattice, mu, beta)
    lhs = float(_recursion(ambiguity, lattice, [horizon], zero, stage=stage)[0][0])
    raw = sum_functional_series(_shifted(ambiguity, mu), horizon, lambda s: np.abs(s) ** beta)
    n = np.arange(1, horizon + 1, dtype=float)
    rhs = float(np.sum(raw / n**beta))
    margin = rhs - lhs
    if margin < -ATOL:
        raise CheckError(f"subadditivity violated: lhs {lhs} > rhs {rhs}")
    return lhs, rhs, margin


def _deviation_event(n: int, mu: float, eps: float) -> Callable[[np.ndarray], np.ndarray]:
    """The event ``|S_n - n mu| >= n eps`` as a predicate on values of S_n; its
    ``ATOL`` slack only absorbs representation noise on the threshold."""
    threshold = n * eps - ATOL
    return lambda s: np.abs(s - n * mu) >= threshold


def cc_series(
    ambiguity: AmbiguitySet, eps: float, alpha: float, horizon: int
) -> SeriesReport:
    """Complete-convergence terms ``V(|S~_n/n| >= eps)`` with their Markov
    cross-bound ``E-hat[|S~_n/n|^alpha] / eps^alpha`` (asserted per n)."""
    if not eps > 0.0:
        raise ParameterError(f"need eps > 0, got {eps}")
    if not alpha > 0.0:
        raise ParameterError(f"need alpha > 0, got {alpha}")
    mu = ambiguity.require_mean_certain("cc_series")
    raw = sum_functional_series(_shifted(ambiguity, mu), horizon, lambda s: np.abs(s) ** alpha)
    lattice = _lattice(ambiguity.grid.array, horizon)
    event = lambda n: _deviation_event(n, mu, eps)(lattice.states(n)).astype(float)
    capacities = np.clip(_recursion(ambiguity, lattice, range(1, horizon + 1), event)[0], 0.0, 1.0)
    terms = []
    bounds = []
    for n in range(1, horizon + 1):
        v = float(capacities[n - 1])
        markov = float(raw[n - 1]) / (float(n) ** alpha * eps**alpha)
        if v > markov + ATOL:
            raise CheckError(f"Markov cross-bound violated at n = {n}: {v} > {markov}")
        terms.append(v)
        bounds.append(markov)
    return SeriesReport(p=alpha, terms=tuple(terms), reference=tuple(bounds))


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
    exceeds the upper expectation (``exact <= dp_value + ATOL``), and the
    argmax policy attains it (``|exact - dp_value| <= ATOL``).  Monte Carlo
    then tests only the sampler: ``|mean - exact| <= SAMPLING_Z * stderr``.
    Individual paths routinely exceed the expectation (a long same-sign run
    makes the early terms order one each), so the per-path extremes are
    reported but not bounded.

    The policies run as one batch: one replay sweep carries a value column
    per policy, and one sampler loop steps every policy's paths as a row of
    one array.  Policy ``i`` still draws its ``n_paths`` paths from the i-th
    child of ``SeedSequence(seed)``, folding each step into the running
    series, so memory is O(policies x n_paths) whatever the horizon; the
    paths are admitted (``_admit_paths``) before the recursion runs.  The
    recursion and the replay share one lattice; each evaluates the stage
    costs one level at a time, so no more than a level's costs are held at
    once.
    """
    if not beta > 2.0:
        raise ParameterError(f"need beta > 2, got {beta}")
    if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)) or n_paths < 2:
        raise ParameterError(f"need an integer n_paths >= 2 for a standard error, got {n_paths!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    mu = ambiguity.require_mean_certain("sqs_empirical")
    lattice = _lattice(ambiguity.grid.array, horizon)
    measures = len(ambiguity.weight_matrix)
    labels = [f"measure_{i}" for i in range(measures)] + ["argmax"]
    _admit_paths(lattice, horizon, measures, len(labels), n_paths)
    stage = _series_costs(lattice, mu, beta)
    zero = lambda k: np.zeros(lattice.size(k))
    (value,), argmax_policy = _recursion(
        ambiguity, lattice, [horizon], zero, stage=stage, want_policy=True
    )
    value = float(value)
    assert argmax_policy is not None
    policies = [*range(measures), argmax_policy]
    exacts, _ = _recursion(ambiguity, lattice, [horizon], zero, stage=stage, replay=policies)

    streams = np.random.SeedSequence(seed).spawn(len(labels))
    rngs = [np.random.default_rng(stream) for stream in streams]
    values = np.zeros((len(labels), n_paths))
    for k, (_, sums) in enumerate(_sample_steps(ambiguity, policies, horizon, rngs, n_paths), 1):
        values += np.abs(sums / k - mu) ** beta
    summaries = []
    for label, exact, row in zip(labels, exacts.tolist(), values):
        if exact > value + ATOL:
            raise CheckError(
                f"policy {label} has exact value {exact}, above the upper expectation {value}"
            )
        if label == "argmax" and abs(exact - value) > ATOL:
            raise CheckError(f"the argmax policy's exact value {exact} misses the DP value {value}")
        mean = float(row.mean())
        stderr = float(row.std(ddof=1) / math.sqrt(n_paths))
        if abs(mean - exact) > SAMPLING_Z * stderr:
            raise CheckError(
                f"policy {label}: sampled mean {mean} is more than {SAMPLING_Z} standard "
                f"errors ({stderr}) from its exact value {exact}"
            )
        stats = [row.min(), *np.quantile(row, [0.25, 0.5, 0.75]), row.max()]
        summaries.append(PolicyPathSummary(label, exact, mean, stderr, *map(float, stats)))
    return SqsSummary(beta, horizon, n_paths, seed, value, tuple(summaries))
