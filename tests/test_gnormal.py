import math
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sublex as sx
from sublex import gnormal
from sublex.gnormal import _check_stability, default_grid, evolve
from sublex.iid import _lattice, _recursion


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


class TestLimitMoment:
    """c_p = E-hat|xi|^p: the Gamma closed form at sigma_hi^2 for p >= 1."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
    def test_closed_form_matches_quadrature(self, params, p):
        value, residual = gnormal._limit_abs_moment(p, params)
        assert residual == 0.0
        assert value == pytest.approx(sx.classical_abs_moment(p, 1.0), abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.5])
    def test_closed_form_is_within_the_pde_residual(self, params, p):
        value, _ = gnormal._limit_abs_moment(p, params)
        pde = sx.g_expectation(lambda x: np.abs(x) ** p, params)
        assert abs(pde.value - value) <= pde.residual_estimate

    def test_third_moment_is_exact(self, params):
        value, _ = gnormal._limit_abs_moment(3.0, params)
        assert value == 1.595769121605731  # 2 sqrt(2/pi)

    def test_below_one_solves_the_pde(self, params):
        value, residual = gnormal._limit_abs_moment(0.5, params)
        pde = sx.g_expectation(lambda x: np.abs(x) ** 0.5, params)
        assert (value, residual) == (pde.value, pde.residual_estimate)
        assert residual > 0.0


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


def reference_evolve_rows(values, t, params, grid):
    """``reference_evolve`` applied to each row of a ``(k, nx)`` stack."""
    return np.stack([reference_evolve(row, t, params, grid) for row in values])


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


@pytest.mark.parametrize("nx", [201, 202, 401])
@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("t", [1.0, 0.3])
def test_evolve_is_a_two_measure_trinomial_recursion(nx, ratio, t):
    # with lam = dt/dx^2 a step is the max over sigma^2 in {sl, su} of the
    # trinomial mean (lam sigma^2/2, 1 - lam sigma^2, lam sigma^2/2) of
    # u(x - dx), u(x), u(x + dx): the recursion's one-step operator on the
    # atoms {-1, 0, 1}, read from the centre node with the payoff held
    # constant beyond the domain, where evolve clamps its boundary instead
    params = sx.GNormalParams(ratio, 1.0)
    grid = default_grid(params, nx=nx)
    steps = max(1, math.ceil(t / grid.dt))
    lam = t / steps / grid.dx**2
    rows = [(lam * v / 2, 1.0 - lam * v, lam * v / 2) for v in (ratio, 1.0)]
    family = sx.AmbiguitySet.from_rows((-1.0, 0.0, 1.0), rows)
    stack = np.stack([np.abs(grid.x), np.abs(grid.x) ** 3, (grid.x >= 1.0).astype(float)])
    centre = nx // 2
    lattice = _lattice(family.grid.array, steps)
    nodes = np.clip(centre + lattice.states(steps).astype(int), 0, nx - 1)
    for row, heat in zip(stack, evolve(stack, t, params, grid)[:, centre]):
        (value,), _ = _recursion(family, lattice, [steps], lambda k: row[nodes])
        # each of the steps rounds a few times, relative to the payoff's size
        assert abs(value - heat) <= 4 * steps * 2.0**-53 * np.max(np.abs(row))


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
    @given(heat_problems(min_nx=5))  # the coarse rerun needs 3 nodes
    def test_g_expectation_matches_reference_stepper(self, problem):
        params, grid, _, payoff = problem
        fused = sx.g_expectation(payoff, params, grid)
        with mock.patch.object(gnormal, "evolve", reference_evolve_rows):
            reference = sx.g_expectation(payoff, params, grid)
        assert f"{fused.value:.17g}" == f"{reference.value:.17g}"
        assert f"{fused.residual_estimate:.17g}" == f"{reference.residual_estimate:.17g}"

    @settings(max_examples=60, deadline=None)
    @given(
        heat_problems(),
        st.sampled_from(["payoff", "noisy", "special"]),
        st.sampled_from([1, 2, 5]),
        st.integers(0, 2**32 - 1),
    )
    @example(
        (sx.GNormalParams(0.0, 1.0), default_grid(sx.GNormalParams(0.0, 1.0), 5), 1.0,
         lambda x: -np.abs(x)),
        "payoff",
        2,
        0,
    )  # the signed zero of -|x| at the origin, odd nx
    @example(
        (sx.GNormalParams(0.0, 1.0), default_grid(sx.GNormalParams(0.0, 1.0), 6), 1.0,
         lambda x: -np.abs(x)),
        "payoff",
        5,
        0,
    )  # and even nx
    def test_stacked_rows_match_the_reference_stepper(self, problem, kind, k, seed):
        params, grid, t, payoff = problem
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(k):  # row i: the payoff scaled by i + 1, noised or special values
            values = (i + 1) * payoff(grid.x)
            if kind == "noisy":
                values = values + rng.normal(size=grid.nx)
            elif kind == "special":
                values = rng.choice(SPECIAL_VALUES, size=grid.nx)
            rows.append(values)
        stack = np.stack(rows)
        with np.errstate(all="ignore"):
            out = evolve(stack, t, params, grid)
            want = reference_evolve_rows(stack, t, params, grid)
        assert out.shape == (k, grid.nx)
        for out_row, want_row in zip(out, want):
            assert_same_bits(out_row, want_row)

    @pytest.mark.parametrize("nx", [801, 200, 5])  # 5: the smallest grid with a coarse rerun
    def test_stacked_solves_match_one_payoff_at_a_time(self, params, nx):
        from sublex.cli import _GHEAT_BATTERY

        grid = default_grid(params, nx=nx)
        payoffs = [payoff for _, payoff in _GHEAT_BATTERY] + [np.sin]
        stacked = gnormal._g_expectations(payoffs, params, grid)
        assert len(stacked) == len(payoffs)
        for payoff, result in zip(payoffs, stacked):
            single = sx.g_expectation(payoff, params, grid)
            assert f"{result.value:.17g}" == f"{single.value:.17g}"
            assert f"{result.residual_estimate:.17g}" == f"{single.residual_estimate:.17g}"
            assert result.grid == grid

    @pytest.mark.parametrize("k", [1, 5])
    def test_a_stack_takes_two_maxima_per_step(self, monkeypatch, params, k):
        calls = []

        def maximum(*args, **kwargs):
            calls.append(1)
            return np.maximum(*args, **kwargs)

        proxy = types.SimpleNamespace(**{n: getattr(np, n) for n in dir(np) if n[:2] != "__"})
        proxy.maximum = maximum
        monkeypatch.setattr(gnormal, "np", proxy)
        grid = default_grid(params, nx=41)
        gnormal.evolve(np.zeros(41), 1.0, params, grid)
        one_row = len(calls)
        calls.clear()
        gnormal.evolve(np.zeros((k, 41)), 1.0, params, grid)
        assert len(calls) == one_row == 2 * math.ceil(1.0 / grid.dt)

    def test_input_checks_are_kept(self, params):
        grid = default_grid(params, nx=11)
        with pytest.raises(sx.ParameterError):
            evolve(np.zeros(11), -0.1, params, grid)
        with pytest.raises(sx.ParameterError):
            evolve(np.zeros(12), 1.0, params, grid)
        with pytest.raises(sx.ParameterError):
            evolve(np.zeros((2, 12)), 1.0, params, grid)
        with pytest.raises(sx.ParameterError):
            evolve(np.zeros((1, 2, 11)), 1.0, params, grid)
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


def two_grid(payoff, params, grid):
    """The fine solve's origin value and its change under one rerun on
    ``grid.coarsened()``: the G-expectation without extrapolation."""
    coarse = grid.coarsened()
    fine_value = float(np.interp(0.0, grid.x, evolve(payoff(grid.x), 1.0, params, grid)))
    coarse_final = evolve(payoff(coarse.x), 1.0, params, coarse)
    return fine_value, abs(fine_value - float(np.interp(0.0, coarse.x, coarse_final)))


class TestExtrapolation:
    """The value from three grids: where a closed form exists it lies within
    the error bar, and where the differences show no order of convergence
    the two-grid result comes back bit for bit."""

    @pytest.mark.parametrize("nx", [201, 801, 1601])
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 1.0])
    def test_error_bar_covers_the_closed_form(self, nx, ratio):
        params = sx.GNormalParams(ratio, 1.0)
        cases = (
            (np.abs, sx.classical_abs_moment(1, 1.0)),
            (lambda x: np.abs(x) ** 3, sx.classical_abs_moment(3, 1.0)),
            (lambda x: -np.abs(x), -sx.classical_abs_moment(1, ratio)),
        )
        results = gnormal._g_expectations(
            [payoff for payoff, _ in cases], params, default_grid(params, nx=nx)
        )
        for result, (_, want) in zip(results, cases):
            assert abs(result.value - want) <= result.residual_estimate

    def test_cubic_moment_within_1e6_at_801_nodes(self, params):
        result = sx.g_expectation(lambda x: np.abs(x) ** 3, params, default_grid(params, nx=801))
        assert abs(result.value - 2.0 * math.sqrt(2.0 / math.pi)) <= 1e-6

    @pytest.mark.parametrize("nx", [201, 801])
    @pytest.mark.parametrize("lower", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "payoff",
        [lambda x: x**2, lambda x: -(x**2), lambda x: np.full_like(x, 2.5), lambda x: x],
        ids=["square", "neg_square", "constant", "linear"],
    )
    def test_round_off_differences_keep_the_two_grid_result(self, nx, lower, payoff):
        params = sx.GNormalParams(lower, 1.0)
        grid = default_grid(params, nx=nx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sx.g_expectation(payoff, params, grid)
        assert (result.value, result.residual_estimate) == two_grid(payoff, params, grid)

    @pytest.mark.parametrize("nx", [5, 6, 7, 8])
    @pytest.mark.parametrize("payoff", PAYOFFS)
    def test_grids_below_9_nodes_keep_the_two_grid_result(self, params, nx, payoff):
        # their second coarsening would have fewer than 3 nodes
        grid = default_grid(params, nx=nx)
        result = sx.g_expectation(payoff, params, grid)
        assert (result.value, result.residual_estimate) == two_grid(payoff, params, grid)

    @pytest.mark.parametrize("nx", [11, 101])
    @pytest.mark.parametrize("payoff", [np.abs, PAYOFFS[2]], ids=["abs", "abs_cubed"])
    def test_ratios_outside_the_band_keep_the_two_grid_result(self, params, nx, payoff):
        # measured ratios: -1.44 and 168 for |x|, -0.17 and -6.3 for |x|^3
        grid = default_grid(params, nx=nx)
        result = sx.g_expectation(payoff, params, grid)
        assert (result.value, result.residual_estimate) == two_grid(payoff, params, grid)

    def test_richardson_step(self):
        # errors 1e-3 h^2 on h = 1, 2, 4 around the value 1
        value, bar = gnormal._extrapolate((1.001, 1.004, 1.016))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert bar == pytest.approx(1e-3, abs=1e-12)

    @pytest.mark.parametrize(
        "origins",
        [
            (1.0, 1.0, 1.5),  # no difference at all
            (1.0, 1.0 + 4e-13, 1.0 + 2e-12),  # ratio 4, but differences at round-off level
            (-1e6, -1e6 + 5e-7, -1e6 + 2.5e-6),  # the same, relative to the value
            (2.0, 2.1, 2.15),  # ratio 1/2: diverging differences
            (2.0, 2.1, 4.2),  # ratio 21: beyond order 4
            (2.0, 2.1, 1.9),  # ratio -2: oscillating
            (2.0, 2.1),  # no third grid
            (math.nan, 1.0, 2.0),
            (1.0, math.inf, math.inf),
        ],
    )
    def test_no_order_keeps_the_fine_value(self, origins):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, bar = gnormal._extrapolate(origins)
        assert f"{value!r} {bar!r}" == f"{origins[0]!r} {abs(origins[1] - origins[0])!r}"
