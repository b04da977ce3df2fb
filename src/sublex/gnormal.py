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
sub-Gaussian tails at scale sigma_hi).  Its error at the origin falls as
dx^2, so a G-expectation of a payoff function is solved on the grid and on
two successive coarsenings, and the three origin values give a Richardson
value whose error bar is the size of its correction.

The limit moment ``c_p`` is a function of an ambiguity set's own variance
interval; ``lln`` reads the finite-n CLT gap against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import ATOL, AmbiguitySet, _on_states
from .errors import CheckError, ParameterError

#: A fine/coarse difference within this multiple of max(1, |value|) is
#: round-off (x^2 and -x^2, which the scheme keeps exact up to it), and its
#: ratio to the next difference measures no order.
ROUNDOFF = 1e-12

#: The band of convergence ratios read as an order: 2^1 to 2^4.
MIN_RATIO, MAX_RATIO = 2.0, 16.0

#: ``semigroup_check`` fails past this multiple of the run's residual estimate.
SEMIGROUP_FACTOR = 5.0


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

    def __post_init__(self) -> None:
        if not self.half_width > 0.0:
            raise ParameterError(f"half_width must be positive, got {self.half_width}")
        if self.nx < 3:
            raise ParameterError(f"nx must be >= 3, got {self.nx}")
        if not self.dt > 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.nx - 1)

    @cached_property
    def x(self) -> np.ndarray:
        arr = np.linspace(-self.half_width, self.half_width, self.nx)
        arr.flags.writeable = False
        return arr

    def coarsened(self) -> "HeatGrid":
        """Half the spatial resolution, four times the step.

        For odd ``nx`` the coarse nodes are every other node, dx doubles and
        the stability margin ``dt * sigma_hi^2 / dx^2`` is unchanged.  For
        even ``nx`` dx grows by ``2 (nx - 1) / (nx - 2) > 2``, so the margin
        shrinks (0.9 to 0.576 at nx = 6) and the step stays stable.
        """
        return HeatGrid(self.half_width, (self.nx - 1) // 2 + 1, 4.0 * self.dt)


def default_grid(params: GNormalParams, nx: int = 801, dt_safety: float = 0.9) -> HeatGrid:
    """Domain out to 8 upper standard deviations, step at 90% of the stability limit."""
    half_width = 8.0 * params.sigma_upper
    dx = 2.0 * half_width / (nx - 1)
    return HeatGrid(half_width, nx, dt_safety * dx * dx / params.sigma_upper_sq)


@dataclass(frozen=True)
class GExpectationResult:
    """A solver value with its error bar.

    The value is the Richardson value from solves on three grids and the
    bar the size of its correction; where the three origin values show no
    order, the value is the fine solve's and the bar its change under one
    coarse rerun.
    """

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

    ``values`` is one payoff, shape ``(nx,)``, or a stack of ``k`` payoffs,
    shape ``(k, nx)``; the result has the same shape.  A stack is stepped as
    a space-major copy of shape ``(nx, k)``: the stencil views ``u[2:]``,
    ``u[1:-1]`` and ``u[:-2]`` are then contiguous blocks, so each ufunc
    call advances every row at once on one flat loop, whereas the row-major
    layout would make every view strided.  Each row comes out with the bits
    of its own one-row run.

    Each of the ``ceil(t / grid.dt)`` equal steps updates the interior nodes
    by ``dt * G(d2) = (dt/2) * (su*max(d2, 0) - sl*max(-d2, 0))``, where
    ``d2 = ((u[i+1] - 2*u[i]) + u[i-1]) * (1/dx^2)`` and su, sl are the
    variance bounds; the boundary nodes, whose second difference is clamped
    to 0, gain ``+0.0``.  The step is fused: eleven ufunc calls in place on
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
    if not t >= 0.0:
        raise ParameterError(f"evolution time must be >= 0, got {t}")
    _check_stability(grid, params)
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != grid.nx:
        raise ParameterError(f"expected {grid.nx} payoff values per row, got shape {values.shape}")
    if t == 0.0:
        return values.copy()
    u = values.T.copy()  # space-major: (nx,) or (nx, k), C-contiguous
    n_steps = max(1, math.ceil(t / grid.dt))
    inv_dx2 = 1.0 / (grid.dx * grid.dx)
    # scalars as 0-d arrays: a Python float operand is converted on every call
    half_dt, inv_dx2, neg_inv_dx2, neg_two, zero = map(
        np.array, (t / n_steps * 0.5, inv_dx2, -inv_dx2, -2.0, 0.0)
    )
    up, mid, down = u[2:], u[1:-1], u[:-2]
    width = len(mid)
    parts = np.empty((2 * width,) + mid.shape[1:])  # d2 over -d2, then su*d2^+ over sl*d2^-
    d2, neg = parts[:width], parts[width:]
    variances = np.repeat([params.sigma_upper_sq, params.sigma_lower_sq], mid.size)
    variances = variances.reshape(parts.shape)
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
    return np.ascontiguousarray(u.T)


def _extrapolate(origins: Sequence[float]) -> tuple[float, float]:
    """Value and error bar from the origin values ``v0, v1[, v2]`` of solves
    on a grid and its successive coarsenings.

    If a grid's error is ``C h^q``, the ratio ``r = (v2 - v1) / (v1 - v0)``
    reads ``2^q`` and the Richardson value ``v0 - (v1 - v0) / (r - 1)``
    cancels that term; its bar is the size of the correction.  The value is
    ``v0`` with bar ``|v1 - v0|`` when there is no third value, when
    ``v1 - v0`` is at round-off level, or when r shows no order from 1 to 4.
    """
    v0, v1 = origins[0], origins[1]
    step = v1 - v0
    if len(origins) == 3 and abs(step) > ROUNDOFF * max(1.0, abs(v0)):
        ratio = (origins[2] - v1) / step
        if MIN_RATIO <= ratio <= MAX_RATIO:
            correction = step / (ratio - 1.0)
            return v0 - correction, abs(correction)
    return v0, abs(step)


def _g_expectations(
    payoffs: Sequence[Callable[[np.ndarray], np.ndarray]],
    params: GNormalParams,
    grid: HeatGrid | None = None,
) -> list[GExpectationResult]:
    """``g_expectation`` of each payoff, from one stacked solve on ``grid``
    and on each of its two coarsenings (one when ``nx < 9``, where the
    second would have fewer than 3 nodes), each payoff evaluated on the
    points of each grid; each result has the bits of its own solves."""
    if grid is None:
        grid = default_grid(params)
    grids = [grid, grid.coarsened()]
    if grids[-1].nx >= 5:
        grids.append(grids[-1].coarsened())
    origins = []
    for g in grids:
        finals = evolve(np.stack([_on_states(f, g.x, "payoff") for f in payoffs]), 1.0, params, g)
        origins.append([float(np.interp(0.0, g.x, final)) for final in finals])
    results = []
    for values in zip(*origins):
        value, residual = _extrapolate(values)
        results.append(GExpectationResult(value, grid, residual))
    return results


def g_expectation(
    payoff: Callable[[np.ndarray], np.ndarray],
    params: GNormalParams,
    grid: HeatGrid | None = None,
) -> GExpectationResult:
    """Upper expectation of ``payoff`` under the G-normal law; ``payoff``
    maps an array of grid points to its values there.

    The time-1 solution at the origin is read on ``grid``, on
    ``grid.coarsened()`` and on that grid's ``coarsened()``.  The ratio of
    their successive differences measures the order of convergence, and
    the value is the Richardson extrapolation with that order; the
    residual estimate is the size of the extrapolation's correction, which
    is also the estimated error of the fine solve alone.  When the
    differences are at round-off level (``x^2``, constants, linear
    payoffs), when the ratio shows no order from 1 to 4, or when
    ``nx < 9``, the value is the fine solve's and the residual estimate its
    change under the first coarse rerun.
    """
    return _g_expectations([payoff], params, grid)[0]


def _normal_abs_moment(p: float, sigma_sq: float) -> float:
    """E|N(0, sigma^2)|^p by the Gamma closed form."""
    sigma = math.sqrt(sigma_sq)
    return sigma**p * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def _limit_abs_moment(p: float, params: GNormalParams) -> tuple[float, float]:
    """``c_p = E-hat[|xi|^p]`` for the G-normal ``xi``, and an error bound.

    For p >= 1, |x|^p is convex, so c_p is the classical moment at
    sigma_hi^2 (Peng, 2019): the Gamma closed form, error 0.  Below 1 it
    is the PDE value on ``default_grid`` and its residual estimate.
    """
    if p >= 1.0:
        return _normal_abs_moment(p, params.sigma_upper_sq), 0.0
    result = g_expectation(lambda x: np.abs(x) ** p, params)
    return result.value, result.residual_estimate


def classical_abs_moment(p: float, sigma_sq: float) -> float:
    """E|N(0, sigma^2)|^p by adaptive quadrature, cross-checked against the
    Gamma-function closed form; the two must agree to 1e-10.

    ``quad`` is imported here, not at module level: importing
    ``scipy.integrate`` costs more than every subcommand of the CLI, none
    of which calls this function.
    """
    if not (p > 0.0 and sigma_sq > 0.0):
        raise ParameterError(f"need p > 0 and sigma_sq > 0, got p={p}, sigma_sq={sigma_sq}")
    from scipy.integrate import quad

    formula = _normal_abs_moment(p, sigma_sq)

    def integrand(x: float) -> float:
        return x**p * math.exp(-x * x / (2.0 * sigma_sq))

    integral, _ = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
    by_quad = 2.0 * integral / math.sqrt(2.0 * math.pi * sigma_sq)
    if abs(by_quad - formula) > 1e-10 * max(1.0, abs(formula)):
        raise CheckError(
            f"quadrature {by_quad!r} and closed form {formula!r} disagree beyond 1e-10"
        )
    return by_quad


def semigroup_check(
    payoff: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    params: GNormalParams,
    grid: HeatGrid | None = None,
) -> float:
    """Self-consistency of the scaling identity aX + bX' =d sqrt(a^2+b^2) X.

    In solver terms the identity says a run of total time a^2 + b^2 must
    agree with the composition of a time-b^2 run followed by a time-a^2
    run.  Returns the absolute discrepancy at the origin, and raises if it
    exceeds ``SEMIGROUP_FACTOR`` times the total run's residual estimate.
    """
    if not (a >= 0.0 and b >= 0.0) or (a == 0.0 and b == 0.0):
        raise ParameterError("need a, b >= 0 and not both zero")
    if grid is None:
        grid = default_grid(params)
    values = _on_states(payoff, grid.x, "payoff")
    total_t = a * a + b * b

    direct = float(np.interp(0.0, grid.x, evolve(values, total_t, params, grid)))
    composed = evolve(evolve(values, b * b, params, grid), a * a, params, grid)
    residual = abs(direct - float(np.interp(0.0, grid.x, composed)))
    coarse = grid.coarsened()
    # the fine values at every other point (odd nx) or interpolated onto the coarse points
    start = values[::2] if grid.nx % 2 == 1 else np.interp(coarse.x, grid.x, values)
    coarse_final = evolve(start, total_t, params, coarse)
    estimate = abs(direct - float(np.interp(0.0, coarse.x, coarse_final)))
    bound = SEMIGROUP_FACTOR * estimate + ATOL
    if residual > bound:
        raise CheckError(
            f"semigroup discrepancy {residual} exceeds {SEMIGROUP_FACTOR} x residual "
            f"estimate {estimate}"
        )
    return residual
