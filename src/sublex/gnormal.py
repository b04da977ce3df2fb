"""The G-normal law as the solution operator of a fully nonlinear heat equation.

A variance interval [sigma_lo^2, sigma_hi^2] determines the operator
``G(a) = (sigma_hi^2 * a^+ - sigma_lo^2 * a^-) / 2``.  Evolving a terminal
payoff ``phi`` through ``du/dt = G(d2u/dx2)`` up to time 1 and reading the
origin yields the upper expectation of ``phi`` under the G-normal law with
that variance interval; this is the only computable handle on the limit
object of the central limit theorem under sublinear expectations, and it
supplies the moment constants the convergence-rate experiments compare
against.

The scheme is explicit Euler in time with central second differences,
second differences clamped to zero at the two boundary points (payoffs are
held at their boundary values, which is accurate because the law has
sub-Gaussian tails at scale sigma_hi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .core import AmbiguitySet, TabulatedPayoff
from .errors import CheckError, ParameterError
from .iid import sum_functional_series


@dataclass(frozen=True)
class GNormalParams:
    """Variance interval of a centered G-normal random variable."""

    sigma_lower_sq: float
    sigma_upper_sq: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma_lower_sq <= self.sigma_upper_sq:
            raise ParameterError(
                f"variance interval must satisfy 0 <= lower <= upper, got "
                f"[{self.sigma_lower_sq}, {self.sigma_upper_sq}]"
            )
        if self.sigma_upper_sq <= 0.0:
            raise ParameterError("upper variance must be positive")

    @classmethod
    def from_ambiguity(cls, ambiguity: AmbiguitySet) -> "GNormalParams":
        ambiguity.require_mean_certain("GNormalParams.from_ambiguity")
        lo, hi = ambiguity.variance_interval
        return cls(lo, hi)

    @property
    def sigma_upper(self) -> float:
        return math.sqrt(self.sigma_upper_sq)


@dataclass(frozen=True)
class HeatGrid:
    """Space/time discretization on [-half_width, half_width] up to time 1."""

    half_width: float
    nx: int
    dt: float
    horizon: float = 1.0

    def __post_init__(self) -> None:
        if self.half_width <= 0.0:
            raise ParameterError(f"half_width must be positive, got {self.half_width}")
        if self.nx < 3:
            raise ParameterError(f"nx must be >= 3, got {self.nx}")
        if self.dt <= 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if self.horizon <= 0.0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.nx - 1)

    @cached_property
    def x(self) -> np.ndarray:
        arr = np.linspace(-self.half_width, self.half_width, self.nx)
        arr.flags.writeable = False
        return arr

    def coarsened(self) -> "HeatGrid":
        """Half the spatial resolution, four times the step (same stability margin)."""
        return HeatGrid(self.half_width, (self.nx - 1) // 2 + 1, 4.0 * self.dt, self.horizon)


def default_grid(params: GNormalParams, nx: int = 801, dt_safety: float = 0.9) -> HeatGrid:
    """Domain out to 8 upper standard deviations, step at 90% of the stability limit."""
    half_width = 8.0 * params.sigma_upper
    dx = 2.0 * half_width / (nx - 1)
    return HeatGrid(half_width, nx, dt_safety * dx * dx / params.sigma_upper_sq)


@dataclass(frozen=True)
class GExpectationResult:
    """A solver value with a Richardson-style error estimate from a coarse rerun."""

    value: float
    grid: HeatGrid
    residual_estimate: float

    def __post_init__(self) -> None:
        if self.residual_estimate < 0.0:
            raise ParameterError("residual_estimate must be nonnegative")


def g_function(a: float, params: GNormalParams) -> float:
    """``(sigma_hi^2 a^+ - sigma_lo^2 a^-) / 2``; monotone and sublinear in a."""
    return 0.5 * (
        params.sigma_upper_sq * max(a, 0.0) - params.sigma_lower_sq * max(-a, 0.0)
    )


def _check_stability(grid: HeatGrid, params: GNormalParams) -> None:
    limit = grid.dx * grid.dx / params.sigma_upper_sq
    if grid.dt > limit * (1.0 + 1e-12):
        raise ParameterError(
            f"unstable explicit step: dt = {grid.dt} exceeds dx^2/sigma_hi^2 = {limit}"
        )


def evolve(values: np.ndarray, t: float, params: GNormalParams, grid: HeatGrid) -> np.ndarray:
    """March ``du/dt = G(u_xx)`` from ``values`` for time ``t`` on the grid.

    Each of the ``ceil(t / grid.dt)`` equal steps updates the interior nodes
    by ``dt * G(d2) = (dt/2) * (su*max(d2, 0) - sl*max(-d2, 0))``, where
    ``d2 = ((u[i+1] - 2*u[i]) + u[i-1]) / dx^2`` and su, sl are the variance
    bounds; the boundary nodes, whose second difference is clamped to 0,
    gain ``+0.0``.  The step is fused: eleven ufunc calls in place on
    buffers allocated once, one of which holds ``d2`` and ``-d2`` side by
    side, so that two calls take the positive parts and one call scales them
    by ``[su, sl]``; no call allocates.  These are the IEEE operations of the
    formula in its order, so the step gives its bits, signed zeros and
    infinities included: ``a - b`` is ``a + (-b)``, ``-(2*u)`` is ``u * -2``,
    and ``diff * (-1/dx^2)`` is the exact negation of ``diff * (1/dx^2)``
    because rounding is symmetric.  The shorter ``max(su*d2, sl*d2)`` has
    the formula's value but can give -0.0 where it gives +0.0 (``-|x|`` at
    the origin when sl = 0), which would change printed results.
    """
    if t < 0.0:
        raise ParameterError(f"evolution time must be >= 0, got {t}")
    _check_stability(grid, params)
    u = np.asarray(values, dtype=float).copy()
    if u.shape != (grid.nx,):
        raise ParameterError(f"expected {grid.nx} payoff values, got shape {u.shape}")
    if t == 0.0:
        return u
    n_steps = max(1, math.ceil(t / grid.dt))
    inv_dx2 = 1.0 / (grid.dx * grid.dx)
    # scalars as 0-d arrays: a Python float operand is converted on every call
    half_dt, inv_dx2, neg_inv_dx2, neg_two, zero = map(
        np.array, (t / n_steps * 0.5, inv_dx2, -inv_dx2, -2.0, 0.0)
    )
    up, mid, down = u[2:], u[1:-1], u[:-2]
    width = mid.size
    parts = np.empty(2 * width)  # d2 and -d2, then su*d2^+ and sl*d2^-
    d2, neg = parts[:width], parts[width:]
    variances = np.repeat([params.sigma_upper_sq, params.sigma_lower_sq], width)
    multiply, maximum = np.multiply, np.maximum
    # in-place operators where they fit: a call with out= costs more
    for _ in range(n_steps):
        multiply(mid, neg_two, out=d2)  # -(2*u[i]), so that += gives u[i+1] - 2*u[i]
        d2 += up
        d2 += down
        multiply(d2, neg_inv_dx2, out=neg)
        d2 *= inv_dx2
        maximum(d2, zero, out=d2)
        maximum(neg, zero, out=neg)
        parts *= variances
        d2 -= neg
        d2 *= half_dt
        mid += d2
    u[[0, -1]] += 0.0  # what every step adds at the boundary
    return u


def _payoff_values(
    payoff: TabulatedPayoff | Callable[[np.ndarray], np.ndarray], grid: HeatGrid
) -> np.ndarray:
    if isinstance(payoff, TabulatedPayoff):
        if len(payoff.states) != grid.nx or np.max(np.abs(payoff.state_array - grid.x)) > 1e-9:
            raise ParameterError("payoff must be tabulated on exactly the spatial grid points")
        return payoff.value_array.copy()
    return np.asarray(payoff(grid.x), dtype=float)


def _coarse_origin(
    values: np.ndarray,
    t: float,
    params: GNormalParams,
    grid: HeatGrid,
    resample: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Origin value of a time-``t`` run on ``grid.coarsened()``.

    The start values are ``resample`` evaluated on the coarse points when it
    is given, else the fine ``values`` at every other point (odd ``nx``) or
    interpolated onto the coarse points (even ``nx``).
    """
    coarse = grid.coarsened()
    if resample is not None:
        coarse_values = np.asarray(resample(coarse.x), dtype=float)
    else:
        coarse_values = values[::2] if grid.nx % 2 == 1 else np.interp(coarse.x, grid.x, values)
    return float(np.interp(0.0, coarse.x, evolve(coarse_values, t, params, coarse)))


def g_expectation(
    payoff: TabulatedPayoff | Callable[[np.ndarray], np.ndarray],
    params: GNormalParams,
    grid: HeatGrid | None = None,
) -> GExpectationResult:
    """Upper expectation of ``payoff`` under the G-normal law.

    The value is the time-1 solution at the origin.  The residual estimate
    is the change under a rerun at half spatial resolution; halving dx and
    dt once more moves the value by less than this estimate.
    """
    if grid is None:
        grid = default_grid(params)
    values = _payoff_values(payoff, grid)
    final = evolve(values, grid.horizon, params, grid)
    value = float(np.interp(0.0, grid.x, final))

    resample = None if isinstance(payoff, TabulatedPayoff) else payoff
    coarse_value = _coarse_origin(values, grid.horizon, params, grid, resample)
    return GExpectationResult(value, grid, abs(value - coarse_value))


def classical_abs_moment(p: float, sigma_sq: float) -> float:
    """E|N(0, sigma^2)|^p by adaptive quadrature, cross-checked against the
    Gamma-function closed form; the two must agree to 1e-10."""
    if p <= 0.0 or sigma_sq <= 0.0:
        raise ParameterError(f"need p > 0 and sigma_sq > 0, got p={p}, sigma_sq={sigma_sq}")
    sigma = math.sqrt(sigma_sq)
    formula = sigma**p * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)

    def integrand(x: float) -> float:
        return x**p * math.exp(-x * x / (2.0 * sigma_sq))

    integral, _ = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
    by_quad = 2.0 * integral / math.sqrt(2.0 * math.pi * sigma_sq)
    if abs(by_quad - formula) > 1e-10 * max(1.0, abs(formula)):
        raise CheckError(
            f"quadrature {by_quad!r} and closed form {formula!r} disagree beyond 1e-10"
        )
    return by_quad


def clt_gap(
    ambiguity: AmbiguitySet,
    n: int,
    p: float,
    params: GNormalParams | None = None,
    grid: HeatGrid | None = None,
) -> float:
    """Finite-n central-limit error |E-hat[|S~_n/sqrt(n)|^p] - E-hat[|xi|^p]|."""
    if p < 1.0:
        raise ParameterError(f"need p >= 1, got {p}")
    ambiguity.require_mean_certain("clt_gap")
    derived = GNormalParams.from_ambiguity(ambiguity)
    if params is None:
        params = derived
    elif (
        abs(params.sigma_lower_sq - derived.sigma_lower_sq) > 1e-9
        or abs(params.sigma_upper_sq - derived.sigma_upper_sq) > 1e-9
    ):
        raise ParameterError(
            "params must carry the variance interval of the ambiguity set "
            f"({derived.sigma_lower_sq}, {derived.sigma_upper_sq})"
        )
    root = math.sqrt(n)
    dp_value = float(
        sum_functional_series(ambiguity, n, lambda s: np.abs(s / root) ** p, centered=True)[-1]
    )
    limit = g_expectation(lambda x: np.abs(x) ** p, params, grid)
    return abs(dp_value - limit.value)


def semigroup_check(
    payoff: TabulatedPayoff | Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    params: GNormalParams,
    grid: HeatGrid | None = None,
    tol_factor: float = 5.0,
) -> float:
    """Self-consistency of the scaling identity aX + bX' =d sqrt(a^2+b^2) X.

    In solver terms the identity says a run of total time a^2 + b^2 must
    agree with the composition of a time-b^2 run followed by a time-a^2
    run.  Returns the absolute discrepancy at the origin, and raises if it
    exceeds ``tol_factor`` times the total run's residual estimate.
    """
    if a < 0.0 or b < 0.0 or (a == 0.0 and b == 0.0):
        raise ParameterError("need a, b >= 0 and not both zero")
    if grid is None:
        grid = default_grid(params)
    values = _payoff_values(payoff, grid)
    total_t = a * a + b * b

    direct = float(np.interp(0.0, grid.x, evolve(values, total_t, params, grid)))
    composed = evolve(evolve(values, b * b, params, grid), a * a, params, grid)
    residual = abs(direct - float(np.interp(0.0, grid.x, composed)))
    estimate = abs(direct - _coarse_origin(values, total_t, params, grid))
    bound = tol_factor * estimate + 1e-12
    if residual > bound:
        raise CheckError(
            f"semigroup discrepancy {residual} exceeds {tol_factor} x residual estimate {estimate}"
        )
    return residual
