import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sublex as sx
from sublex import gnormal
from sublex.core import TabulatedPayoff
from sublex.gnormal import _check_stability, default_grid, evolve


@pytest.fixture(scope="module")
def params():
    return sx.GNormalParams(0.5, 1.0)


@pytest.fixture(scope="module")
def degenerate():
    return sx.GNormalParams(1.0, 1.0)


class TestGFunction:
    def test_zero(self, params):
        assert sx.g_function(0.0, params) == 0.0

    def test_positive_branch(self, params):
        assert sx.g_function(1.0, params) == pytest.approx(0.5, abs=1e-15)

    def test_negative_branch(self, params):
        assert sx.g_function(-1.0, params) == pytest.approx(-0.25, abs=1e-15)

    def test_monotone_and_sublinear(self, params):
        grid = np.linspace(-3, 3, 61)
        vals = [sx.g_function(a, params) for a in grid]
        assert all(y2 >= y1 for y1, y2 in zip(vals, vals[1:]))
        for a in grid:
            for b in grid:
                assert sx.g_function(a + b, params) <= (
                    sx.g_function(a, params) + sx.g_function(b, params) + 1e-12
                )


class TestParams:
    def test_interval_ordering(self):
        with pytest.raises(sx.ParameterError):
            sx.GNormalParams(2.0, 1.0)
        with pytest.raises(sx.ParameterError):
            sx.GNormalParams(-0.1, 1.0)
        with pytest.raises(sx.ParameterError):
            sx.GNormalParams(0.0, 0.0)

    def test_from_ambiguity(self, theta_star):
        derived = sx.GNormalParams.from_ambiguity(theta_star)
        assert derived == sx.GNormalParams(0.5, 1.0)

    def test_from_ambiguity_requires_mean_certainty(self):
        lopsided = sx.AmbiguitySet.from_rows((-1.0, 1.0), ((0.5, 0.5), (0.25, 0.75)))
        with pytest.raises(sx.ParameterError):
            sx.GNormalParams.from_ambiguity(lopsided)


class TestHeatGrid:
    def test_invariants(self):
        with pytest.raises(sx.ParameterError):
            sx.HeatGrid(0.0, 801, 1e-4)
        with pytest.raises(sx.ParameterError):
            sx.HeatGrid(8.0, 2, 1e-4)
        with pytest.raises(sx.ParameterError):
            sx.HeatGrid(8.0, 801, 0.0)

    def test_default_grid(self, params):
        grid = default_grid(params)
        assert grid.half_width == pytest.approx(8.0)
        assert grid.nx == 801
        assert grid.dt <= grid.dx**2 / params.sigma_upper_sq

    def test_stability_enforced(self, params):
        grid = sx.HeatGrid(8.0, 801, 1.0)  # far above the stability limit
        with pytest.raises(sx.ParameterError):
            sx.g_expectation(lambda x: x**2, params, grid)


class TestGExpectation:
    def test_degenerate_second_moment(self, degenerate):
        result = sx.g_expectation(lambda x: x**2, degenerate)
        assert result.value == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_odd_payoff(self, degenerate):
        result = sx.g_expectation(lambda x: x, degenerate)
        assert result.value == pytest.approx(0.0, abs=1e-3)

    def test_degenerate_battery_vs_quadrature(self, degenerate):
        for fn, want in [
            (lambda x: x**2, sx.classical_abs_moment(2, 1.0)),
            (np.abs, sx.classical_abs_moment(1, 1.0)),
            (lambda x: np.abs(x) ** 3, sx.classical_abs_moment(3, 1.0)),
            (np.cos, math.exp(-0.5)),
        ]:
            result = sx.g_expectation(fn, degenerate)
            assert result.value == pytest.approx(want, abs=1e-3)

    def test_variance_interval_endpoints(self, params):
        up = sx.g_expectation(lambda x: x**2, params)
        assert up.value == pytest.approx(1.0, abs=1e-3)
        down = sx.g_expectation(lambda x: -(x**2), params)
        assert down.value == pytest.approx(-0.5, abs=1e-3)

    def test_tabulated_payoff_roundtrip(self, params):
        grid = default_grid(params)
        tab = TabulatedPayoff(tuple(grid.x), tuple(grid.x**2))
        assert sx.g_expectation(tab, params, grid).value == pytest.approx(1.0, abs=1e-3)

    def test_payoff_grid_mismatch(self, params):
        grid = default_grid(params)
        tab = TabulatedPayoff((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
        with pytest.raises(sx.ParameterError):
            sx.g_expectation(tab, params, grid)

    def test_monotone_in_payoff(self, params):
        lo = sx.g_expectation(np.abs, params)
        hi = sx.g_expectation(lambda x: np.abs(x) + 0.1 * x**2, params)
        assert lo.value <= hi.value + 1e-9

    def test_sublinear_in_payoff(self, params):
        fa = np.abs
        fb = lambda x: x**2
        both = sx.g_expectation(lambda x: fa(x) + fb(x), params)
        va = sx.g_expectation(fa, params)
        vb = sx.g_expectation(fb, params)
        tol = va.residual_estimate + vb.residual_estimate + both.residual_estimate + 1e-9
        assert both.value <= va.value + vb.value + tol
        scaled = sx.g_expectation(lambda x: 2.0 * fa(x), params)
        assert scaled.value == pytest.approx(2.0 * va.value, abs=tol)

    def test_moment_positivity(self, params):
        for p in (1, 2, 3, 4):
            result = sx.g_expectation(lambda x: np.abs(x) ** p, params)
            assert result.value > 0.0

    def test_grid_convergence(self, params):
        base = default_grid(params)
        result = sx.g_expectation(lambda x: np.abs(x) ** 3, params, base)
        fine = sx.HeatGrid(base.half_width, 2 * (base.nx - 1) + 1, base.dt / 4.0)
        refined = sx.g_expectation(lambda x: np.abs(x) ** 3, params, fine)
        assert abs(refined.value - result.value) < result.residual_estimate


class TestClassicalAbsMoment:
    def test_unit_variance_even(self):
        assert sx.classical_abs_moment(2, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_half_normal_mean(self):
        assert sx.classical_abs_moment(1, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-10
        )

    def test_third_moment(self):
        assert sx.classical_abs_moment(3, 1.0) == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi), abs=1e-10
        )

    def test_scaling_in_sigma(self):
        assert sx.classical_abs_moment(3, 4.0) == pytest.approx(
            8.0 * sx.classical_abs_moment(3, 1.0), rel=1e-10
        )

    def test_bad_parameters(self):
        with pytest.raises(sx.ParameterError):
            sx.classical_abs_moment(0.0, 1.0)
        with pytest.raises(sx.ParameterError):
            sx.classical_abs_moment(2.0, 0.0)


class TestCltGap:
    def test_second_moment_gap_vanishes(self, theta_star):
        result = sx.g_expectation(lambda x: x**2, sx.GNormalParams(0.5, 1.0))
        gap = sx.clt_gap(theta_star, 32, 2)
        assert gap <= result.residual_estimate + 1e-3

    def test_gap_shrinks(self, theta_star):
        assert sx.clt_gap(theta_star, 128, 3) < sx.clt_gap(theta_star, 8, 3)

    def test_classical_coin_fourth_moment(self, coin):
        # E[(S_n/sqrt(n))^4] = 3 - 2/n for a fair +-1 coin, limit 3
        gap = sx.clt_gap(coin, 64, 4)
        assert gap == pytest.approx(2.0 / 64.0, abs=5e-3)

    def test_params_must_match_set(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.clt_gap(theta_star, 8, 2, params=sx.GNormalParams(0.1, 2.0))

    def test_order_below_one(self, theta_star):
        with pytest.raises(sx.ParameterError):
            sx.clt_gap(theta_star, 8, 0.5)


class TestSemigroup:
    def test_identity_composition(self, params):
        assert sx.semigroup_check(lambda x: np.abs(x) ** 3, 1.0, 0.0, params) == 0.0

    def test_degenerate_classical(self, degenerate):
        residual = sx.semigroup_check(lambda x: np.abs(x) ** 3, 1.0, 1.0, degenerate)
        assert residual <= 1e-3

    def test_nonlinear_self_consistency(self, params):
        residual = sx.semigroup_check(lambda x: np.abs(x) ** 3, 1.0, 1.0, params)
        assert residual >= 0.0  # the 5x residual bound is enforced in-op

    def test_misaligned_times(self, params):
        residual = sx.semigroup_check(lambda x: np.abs(x) ** 3, 1.0, 0.6, params)
        assert residual >= 0.0

    def test_bad_pair(self, params):
        with pytest.raises(sx.ParameterError):
            sx.semigroup_check(np.abs, 0.0, 0.0, params)


def test_evolve_zero_time_is_identity(params):
    grid = default_grid(params)
    values = np.sin(grid.x)
    out = evolve(values, 0.0, params, grid)
    assert np.array_equal(out, values)
    assert out is not values


def reference_evolve(values, t, params, grid):
    """The stepper before the fused update: G applied through its positive
    and negative parts, with fresh temporaries at every step."""
    if t < 0.0:
        raise sx.ParameterError(f"evolution time must be >= 0, got {t}")
    _check_stability(grid, params)
    u = np.asarray(values, dtype=float).copy()
    if u.shape != (grid.nx,):
        raise sx.ParameterError(f"expected {grid.nx} payoff values, got shape {u.shape}")
    if t == 0.0:
        return u
    n_steps = max(1, math.ceil(t / grid.dt))
    dt = t / n_steps
    inv_dx2 = 1.0 / (grid.dx * grid.dx)
    su, sl = params.sigma_upper_sq, params.sigma_lower_sq
    d2 = np.zeros_like(u)
    for _ in range(n_steps):
        d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
        u += dt * 0.5 * (su * np.maximum(d2, 0.0) - sl * np.maximum(-d2, 0.0))
    return u


PAYOFFS = (
    np.abs,
    lambda x: -np.abs(x),
    lambda x: np.abs(x) ** 3,
    lambda x: x**2,
    np.cos,
    lambda x: np.maximum(x - 0.3, 0.0),
    lambda x: (x > 0.5).astype(float),
)


@st.composite
def heat_problems(draw, min_nx=3):
    """A variance interval (ratios 0 and 1 included), a grid of odd or even
    size, a time up to 1 and one of the payoffs scaled."""
    upper = draw(st.floats(0.05, 4.0))
    ratio = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    params = sx.GNormalParams(ratio * upper, upper)
    nx = draw(st.integers(min_nx, 260))
    grid = default_grid(params, nx=nx, dt_safety=draw(st.floats(0.3, 1.0)))
    t = draw(st.one_of(st.just(1.0), st.floats(0.001, 1.0)))
    scale = draw(st.floats(-1e3, 1e3))
    payoff = PAYOFFS[draw(st.integers(0, len(PAYOFFS) - 1))]
    return params, grid, t, lambda x: scale * payoff(x)


SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 1e308, -1e308, np.inf, -np.inf)


def assert_same_bits(out, want):
    """Equal floats with equal signs of zero; NaN matches NaN whatever its payload."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(out), nan)
    assert out[~nan].tobytes() == want[~nan].tobytes()


class TestFusedStepper:
    @settings(max_examples=80, deadline=None)
    @given(
        heat_problems(), st.sampled_from(["payoff", "noisy", "special"]), st.integers(0, 2**32 - 1)
    )
    @example(
        (sx.GNormalParams(0.0, 1.0), default_grid(sx.GNormalParams(0.0, 1.0), 5), 1.0,
         lambda x: -np.abs(x)),
        "payoff",
        0,
    )  # -|x| stays -0.0 at the origin under max(su*d2, sl*d2); the formula gives +0.0
    @example(
        (sx.GNormalParams(0.5, 1.0), default_grid(sx.GNormalParams(0.5, 1.0), 200), 0.4, np.cos),
        "noisy",
        0,
    )
    def test_evolve_matches_reference_stepper(self, problem, kind, seed):
        params, grid, t, payoff = problem
        values = payoff(grid.x)
        rng = np.random.default_rng(seed)
        if kind == "noisy":  # every node its own second difference
            values = values + rng.normal(size=grid.nx)
        elif kind == "special":  # signed zeros, subnormals, overflow, infinities
            values = rng.choice(SPECIAL_VALUES, size=grid.nx)
        with np.errstate(all="ignore"):
            out = evolve(values, t, params, grid)
            want = reference_evolve(values, t, params, grid)
        assert np.array_equal(out, want, equal_nan=True)
        assert_same_bits(out, want)

    @settings(max_examples=20, deadline=None)
    @given(heat_problems(min_nx=5), st.booleans())  # the coarse rerun needs 3 nodes
    def test_g_expectation_matches_reference_stepper(self, problem, tabulated):
        params, grid, _, payoff = problem
        if tabulated:
            payoff = TabulatedPayoff(tuple(grid.x), tuple(payoff(grid.x)))
        fused = sx.g_expectation(payoff, params, grid)
        with mock.patch.object(gnormal, "evolve", reference_evolve):
            reference = sx.g_expectation(payoff, params, grid)
        assert f"{fused.value:.17g}" == f"{reference.value:.17g}"
        assert f"{fused.residual_estimate:.17g}" == f"{reference.residual_estimate:.17g}"

    def test_input_checks_are_kept(self, params):
        grid = default_grid(params, nx=11)
        with pytest.raises(sx.ParameterError):
            evolve(np.zeros(11), -0.1, params, grid)
        with pytest.raises(sx.ParameterError):
            evolve(np.zeros(12), 1.0, params, grid)
        with pytest.raises(sx.ParameterError):
            evolve(np.zeros(11), 1.0, params, sx.HeatGrid(grid.half_width, 11, 2.0 * grid.dt))


class TestNonlinearSolver:
    """The canonical interval (0.5, 1), where sigma_lo < sigma_hi: a convex
    payoff takes its classical expectation at sigma_hi^2, a concave one at
    sigma_lo^2, each within the solver's own residual estimate."""

    @pytest.mark.parametrize("p", [1, 3])
    def test_convex_abs_moments_take_the_upper_variance(self, params, p):
        result = sx.g_expectation(lambda x: np.abs(x) ** p, params)
        want = sx.classical_abs_moment(p, params.sigma_upper_sq)
        assert abs(result.value - want) <= result.residual_estimate
        assert result.residual_estimate < 1e-3

    def test_concave_abs_takes_the_lower_variance(self, params):
        result = sx.g_expectation(lambda x: -np.abs(x), params)
        want = -sx.classical_abs_moment(1, params.sigma_lower_sq)
        assert abs(result.value - want) <= result.residual_estimate
        assert result.residual_estimate < 1e-3

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6),
        st.sampled_from([1.0, 0.5, 0.25]),
        st.lists(st.integers(-1024, 1024), min_size=65, max_size=65),
        st.lists(st.integers(0, 2048), min_size=65, max_size=65),
    )
    def test_comparison_principle(self, params, level, t, low, gap):
        # On the grids of 2**level + 1 nodes over [-8, 8] at the stability
        # limit, dx, dt, the variances and dyadic times are powers of two, so
        # integer payoffs evolve without rounding and the monotone scheme
        # keeps f <= g at every node exactly.
        grid = default_grid(params, nx=2**level + 1, dt_safety=1.0)
        assert grid.dt == grid.dx**2 / params.sigma_upper_sq
        f = np.array(low[: grid.nx], dtype=float)
        g = f + np.array(gap[: grid.nx], dtype=float)
        assert np.all(evolve(f, t, params, grid) <= evolve(g, t, params, grid))
