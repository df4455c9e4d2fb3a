import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from conftest import gaussian_exp_utility, random_spd_market, sane_exp_market
from nmvmopt.errors import DegenerateModelError, InfeasiblePortfolioError, NoRootError
from nmvmopt.mixing import GIG, BoundedUniform, Constant, Exponential
from nmvmopt.model import (
    MarketModel,
    Portfolio,
    TransformedModel,
    expected_exp_utility,
    feasibility_check,
    quadratic_exponent,
    transform,
)
from nmvmopt import exp_opt, mc_oracle
from nmvmopt._brent import brentq, minimize_bounded
from nmvmopt.exp_opt import (
    log_g_min,
    log_h_function,
    minimize_h,
    optimal_portfolio,
    optimize,
    solve_foc,
)


# ---------------------------------------------------------------------------
# h-function
# ---------------------------------------------------------------------------


def test_h_constant_mixing_formula():
    tm = TransformedModel.from_scalars(0.7, 1.3, 0.0, -math.inf)
    c1 = Constant(1.0)
    for theta in (-1.5, -0.3, 0.0, 0.4):
        want = math.exp(0.5 * 1.3 * (theta**2 + 2 * theta) - 0.35)
        assert math.exp(log_h_function(tm, c1, theta)) == pytest.approx(want, rel=1e-12)


def test_h_at_zero_is_laplace_of_half_a():
    for mix in (Constant(1.0), Exponential(1.0), GIG(-0.5, 1.0, 1.0)):
        tm = TransformedModel.from_scalars(0.9, 0.6, 0.1, mix.s_lower_bound)
        assert math.exp(log_h_function(tm, mix, 0.0)) == pytest.approx(mix.laplace(0.45), rel=1e-12)


def test_h_exponential_mixing_formula():
    tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, -1.0)
    e = Exponential(1.0)
    for theta in (-1.2, -0.5, 0.0):
        want = math.exp(theta) * 2.0 / (2.0 + 1.0 - theta**2)
        assert math.exp(log_h_function(tm, e, theta)) == pytest.approx(want, rel=1e-12)


def test_h_domain_error():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, -1.0)  # theta0 = sqrt(3)
    for theta in (math.sqrt(3.0), -math.sqrt(3.0), 2.5):
        with pytest.raises(ValueError):
            math.exp(log_h_function(tm, e, theta))


def test_h_positive_on_domain():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.5, 2.0, 0.0, -1.0)
    for theta in np.linspace(-tm.theta0 * 0.999, tm.theta0 * 0.999, 101):
        assert math.exp(log_h_function(tm, e, theta)) > 0.0


def test_h_monotone_increasing_on_nonnegative_half():
    for mix in (Exponential(1.0), GIG(1.0, 1.0, 1.0)):
        tm = TransformedModel.from_scalars(0.8, 1.1, 0.0, mix.s_lower_bound)
        grid = np.linspace(0.0, tm.theta0 * (1.0 - 1e-9), 1000)
        vals = [log_h_function(tm, mix, t) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_h_diverges_near_boundary():
    # families whose transform blows up at s0 (lam > 0 for GIG)
    for mix in (Exponential(1.0), GIG(1.0, 1.0, 1.0), GIG(2.0, 0.5, 2.0)):
        tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, mix.s_lower_bound)
        edge = tm.theta0 * (1.0 - 1e-6)
        log_h0 = log_h_function(tm, mix, 0.0)
        for theta in (edge, -edge):
            assert log_h_function(tm, mix, theta) - log_h0 > math.log(1e3)


# ---------------------------------------------------------------------------
# minimize_h
# ---------------------------------------------------------------------------


def test_minimize_constant_mixing_is_minus_one():
    for a_s, c_s in ((0.5, 0.5), (1.0, 4.0), (2.0, 0.3)):
        tm = TransformedModel.from_scalars(a_s, c_s, 0.0, -math.inf)
        assert minimize_h(tm, Constant(1.0))[0] == pytest.approx(-1.0, abs=1e-10)


def test_minimize_scaled_constant():
    # Z = v: exponent (C v/2) theta^2 + C theta - v A/2 minimized at -1/v
    tm = TransformedModel.from_scalars(1.0, 2.0, 0.0, -math.inf)
    assert minimize_h(tm, Constant(2.0))[0] == pytest.approx(-0.5, abs=1e-10)


def test_minimize_nonnegative_domain_returns_left_end():
    tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, -1.0)
    e = Exponential(1.0)
    assert minimize_h(tm, e, domain=(0.3, 0.7))[0] == 0.3


def test_minimize_exp1_unit_scalars_exact():
    # A = C = 1, Exp(1): stationarity 3 - theta^2 + 2 theta = 0 -> theta = -1
    tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, -1.0)
    assert minimize_h(tm, Exponential(1.0))[0] == pytest.approx(-1.0, abs=1e-10)


def test_minimize_matches_dense_grid_oracle():
    # independent oracle: vectorized closed-form H for Exp(1) on 1e6 points
    a_s, c_s = 0.7, 1.9
    tm = TransformedModel.from_scalars(a_s, c_s, 0.0, -1.0)
    q = minimize_h(tm, Exponential(1.0))[0]
    theta0 = math.sqrt((a_s + 2.0) / c_s)
    grid = np.linspace(-theta0 + 1e-9, 0.0, 1_000_001)
    h_vals = grid * c_s - np.log(2.0 + a_s - grid**2 * c_s) + math.log(2.0)
    q_grid = grid[np.argmin(h_vals)]
    assert q == pytest.approx(q_grid, abs=1e-6)


def test_minimize_respects_interval_domain():
    tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, -1.0)
    e = Exponential(1.0)
    # unconstrained optimum is -1; restrict away from it
    assert minimize_h(tm, e, domain=(-0.5, -0.1))[0] == pytest.approx(-0.5, abs=1e-10)
    assert minimize_h(tm, e, domain=(-2.0, -1.5))[0] == pytest.approx(-1.5, abs=1e-10)


def test_minimize_infinite_domain_ends_without_theta0():
    # Z = 1: log H = theta^2/2 + theta - 1/2 on A = C = 1, minimum at -1
    tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, -math.inf)
    mix = Constant(1.0)
    full = minimize_h(tm, mix)
    assert minimize_h(tm, mix, (-math.inf, math.inf)) == full
    assert minimize_h(tm, mix, (-math.inf, -5.0))[0] == -5.0  # doubling capped at the upper end
    assert minimize_h(tm, mix, (-0.5, math.inf))[0] == pytest.approx(-0.5, abs=1e-10)
    assert minimize_h(tm, mix, (0.25, math.inf))[0] == 0.25
    assert not minimize_h(tm, mix, (-math.inf, -5.0))[1].boundary_pinned
    for empty in ((math.inf, math.inf), (-math.inf, -math.inf), (0.5, -0.5)):
        with pytest.raises(InfeasiblePortfolioError):
            minimize_h(tm, mix, empty)


def test_optimize_empty_c_interval_is_infeasible():
    m = MarketModel(2, 0.0, [0.1, 0.2], [0.05, 0.0], np.eye(2))
    with pytest.raises(InfeasiblePortfolioError):
        optimize(m, Constant(1.0), domain=(0.5, 0.4))


def test_q_min_in_expected_interval(rng):
    for _ in range(10):
        a_s, c_s = rng.uniform(0.05, 2.0, 2)
        for mix in (Exponential(1.0), GIG(-0.5, 1.0, 1.0)):
            tm = TransformedModel.from_scalars(a_s, c_s, 0.0, mix.s_lower_bound)
            q = minimize_h(tm, mix)[0]
            assert -tm.theta0 < q <= 0.0


def test_minimize_optimality_against_random_probes(rng):
    mix = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.9, 1.4, 0.2, mix.s_lower_bound)
    q = minimize_h(tm, mix)[0]
    best = log_g_min(tm, mix, q)
    for _ in range(100):
        probe = rng.uniform(-tm.theta0 * 0.999999, 0.0)
        assert best <= log_g_min(tm, mix, probe) + 1e-12


_FAMILIES = st.one_of(
    st.builds(Constant, st.floats(0.2, 3.0)),
    st.builds(Exponential, st.floats(0.2, 3.0)),
    st.builds(GIG, st.floats(-3.0, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
    st.builds(lambda low, width: BoundedUniform(low, low + width), st.floats(0.1, 1.0), st.floats(0.1, 2.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    mix=_FAMILIES,
    a_s=st.floats(0.01, 4.0),
    cos_gm=st.floats(-1.0, 1.0),
    c_s=st.floats(0.01, 4.0),
    c_interval=st.none() | st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 2.0)),
)
def test_log_h_convex_on_the_search_grid(mix, a_s, cos_gm, c_s, c_interval):
    # log L_Z is convex and decreasing and A/2 - theta^2 C/2 is concave, so
    # on minimize_h's grid log H falls to one minimum and then rises, with
    # nonnegative second differences up to rounding
    b_s = cos_gm * math.sqrt(a_s * c_s)
    tm = TransformedModel.from_scalars(a_s, c_s, b_s, mix.s_lower_bound)
    domain = None
    if c_interval is not None:  # optimize's map from c = x'(mu - r_f) to q at a W0 = 1
        c_lo, width = c_interval
        domain = ((b_s - (c_lo + width)) / c_s, (b_s - c_lo) / c_s)
    try:
        _, info = minimize_h(tm, mix, domain)
    except InfeasiblePortfolioError:
        return
    if info.method != "grid+bounded-brent":
        return
    grid = np.linspace(*info.bracket, exp_opt._GRID_POINTS)
    vals = np.array([log_h_function(tm, mix, t) for t in grid])
    tol = 64 * np.finfo(float).eps * (1.0 + np.max(np.abs(vals)))
    steps = np.diff(vals)
    i = int(np.argmin(vals))
    assert np.all(steps[:i] <= tol) and np.all(steps[i:] >= -tol)
    assert np.all(np.diff(steps) >= -2 * tol)


# ---------------------------------------------------------------------------
# first-order condition
# ---------------------------------------------------------------------------


def test_foc_constant_mixing():
    tm = TransformedModel.from_scalars(1.0, 4.0, 0.0, -math.inf)
    tau, theta = solve_foc(tm, Constant(1.0))
    assert theta == pytest.approx(-1.0, abs=1e-12)
    # tau = A/2 - theta^2 C / 2
    assert tau == pytest.approx(0.5 - 2.0, abs=1e-10)


@pytest.mark.parametrize("mix", [Exponential(1.0), GIG(-0.5, 1.0, 1.0), GIG(1.5, 2.0, 0.5)])
def test_foc_agrees_with_minimizer(mix, rng):
    for _ in range(10):
        a_s, c_s = rng.uniform(0.05, 3.0, 2)
        tm = TransformedModel.from_scalars(a_s, c_s, 0.0, mix.s_lower_bound)
        q = minimize_h(tm, mix)[0]
        tau, theta = solve_foc(tm, mix)
        assert theta == pytest.approx(q, abs=1e-8)
        assert tau == pytest.approx(0.5 * a_s - 0.5 * theta**2 * c_s, rel=1e-10)


def test_foc_stationarity_residual(rng):
    mix = Exponential(1.0)
    for _ in range(5):
        a_s, c_s = rng.uniform(0.1, 2.0, 2)
        tm = TransformedModel.from_scalars(a_s, c_s, 0.0, -1.0)
        _, theta = solve_foc(tm, mix)
        h = 1e-6
        d = (math.exp(log_h_function(tm, mix, theta + h)) - math.exp(log_h_function(tm, mix, theta - h))) / (2 * h)
        assert abs(d) < 1e-8 * math.exp(log_h_function(tm, mix, theta)) * c_s


def test_foc_boundary_minimum_has_no_root():
    # GIG(-3, 1, 1) has E[Z] = 1/4 at s0, so H still falls at the left edge
    mix = GIG(-3.0, 1.0, 1.0)
    tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, mix.s_lower_bound)
    assert minimize_h(tm, mix)[1].boundary_pinned
    with pytest.raises(NoRootError):
        solve_foc(tm, mix)


def test_foc_requires_positive_c():
    tm = TransformedModel.from_scalars(1.0, 0.0, 0.0, -1.0)
    with pytest.raises(DegenerateModelError):
        solve_foc(tm, Exponential(1.0))


# ---------------------------------------------------------------------------
# optimal portfolio and end-to-end optimize
# ---------------------------------------------------------------------------


def test_optimal_portfolio_gaussian_formula(rng):
    m = random_spd_market(rng, 3)
    tm = transform(m, Constant(1.0))
    x = optimal_portfolio(tm, m, a=2.0, w0=1.5, q_min=-1.0)
    want = np.linalg.solve(m.sigma, m.gamma + m.excess_mean) / 3.0
    assert np.allclose(x, want, rtol=1e-10)


def test_optimal_portfolio_zero_skew(rng):
    m = MarketModel(n=2, r_f=0.0, mu=[0.1, 0.15], gamma=[0.0, 0.0], a_matrix=np.eye(2))
    tm = transform(m, Constant(1.0))
    x = optimal_portfolio(tm, m, a=1.0, w0=1.0, q_min=-1.0)
    assert np.allclose(x, m.excess_mean, rtol=1e-12)


def test_risk_aversion_scaling(rng):
    m = random_spd_market(rng, 2)
    tm = transform(m, Constant(1.0))
    x1 = optimal_portfolio(tm, m, a=1.0, w0=1.0, q_min=-1.0)
    x2 = optimal_portfolio(tm, m, a=2.0, w0=1.0, q_min=-1.0)
    assert np.allclose(x1, 2.0 * x2, rtol=1e-12)


def test_optimize_z1_arithmetic_example():
    m = MarketModel(
        n=2, r_f=0.0, mu=[0.1, 0.2], gamma=[0.05, 0.0], a_matrix=np.eye(2)
    )
    res = optimize(m, Constant(1.0), a=1.0, w0=1.0)
    assert res.q_min == pytest.approx(-1.0, abs=1e-10)
    assert np.allclose(res.x_star, [0.15, 0.2], atol=1e-10)
    assert res.optimal_utility == pytest.approx(
        gaussian_exp_utility(m, res.x_star, 1.0, 1.0), rel=1e-12
    )


def test_optimize_matches_gmin_identity(rng):
    m = sane_exp_market(rng, 3)
    e = Exponential(1.0)
    res = optimize(m, e, a=1.2, w0=0.9)
    # -e^{-aW0(1+rf)} e^{-B} H(q_min) reproduces the utility at x*
    log_u = -1.2 * 0.9 * (1.0 + m.r_f) + log_g_min(res.transformed, e, res.q_min)
    assert res.log_neg_utility == pytest.approx(log_u, rel=1e-10)


def test_optimize_degenerate_excess_mean():
    m = MarketModel(n=2, r_f=0.05, mu=[0.05, 0.05], gamma=[0.02, 0.0], a_matrix=np.eye(2))
    with pytest.raises(DegenerateModelError):
        optimize(m, Exponential(1.0))


def test_optimize_dominates_random_feasible_portfolios(rng):
    m = sane_exp_market(rng, 3)
    e = Exponential(1.0)
    res = optimize(m, e, a=1.0, w0=1.0)
    count = 0
    while count < 200:
        x = rng.normal(0.0, 0.8, 3)
        pf = Portfolio(x, 1.0, 1.0)
        if not feasibility_check(m, e, pf):
            continue
        count += 1
        assert res.optimal_utility >= expected_exp_utility(m, e, pf) - 1e-12


def test_optimize_matches_derivative_free_oracle(rng):
    from scipy.optimize import minimize as sp_minimize

    m = sane_exp_market(rng, 3)
    e = Exponential(1.0)
    res = optimize(m, e, a=1.0, w0=1.0)

    def neg_utility(x):
        pf = Portfolio(x, 1.0, 1.0)
        if not feasibility_check(m, e, pf):
            return math.inf
        return -expected_exp_utility(m, e, pf)

    out = sp_minimize(
        neg_utility,
        np.zeros(3),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 8000, "maxfev": 10000},
    )
    assert np.allclose(res.x_star, out.x, atol=1e-4)


def test_optimize_constrained_domain_monotone_mapping(rng):
    # q_c = (B - a W0 c)/C is decreasing in c; constraining c pins q accordingly
    m = sane_exp_market(rng, 2)
    e = Exponential(1.0)
    free = optimize(m, e, a=1.0, w0=1.0)
    c_star = float(free.x_star @ m.excess_mean)
    res = optimize(m, e, a=1.0, w0=1.0, domain=(c_star + 0.1, c_star + 0.2))
    tm = res.transformed
    q_hi = (tm.b_scalar - (c_star + 0.1)) / tm.c_scalar
    assert res.q_min == pytest.approx(q_hi, abs=1e-9)
    assert float(res.x_star @ m.excess_mean) == pytest.approx(c_star + 0.1, abs=1e-9)


def test_constrained_nonneg_q_uses_left_endpoint(rng):
    # c-interval mapping entirely into q >= 0: minimum is min D_q
    m = sane_exp_market(rng, 2)
    e = Exponential(1.0)
    tm = transform(m, e)
    c_at_q0 = tm.b_scalar  # q_c = 0 when c = B/(a W0), with a = W0 = 1
    res = optimize(m, e, a=1.0, w0=1.0, domain=(c_at_q0 - 0.3, c_at_q0 - 0.1))
    q_lo = (tm.b_scalar - c_at_q0 + 0.1) / tm.c_scalar
    assert res.q_min == pytest.approx(q_lo, abs=1e-12)
    assert res.q_min >= 0.0


@pytest.mark.parametrize(
    "spec,calls", [("exp1", 42), ("gig", 47), ("gaussian", 41)]
)
def test_optimize_evaluates_log_h_once_per_point(monkeypatch, spec, calls):
    # every log H evaluation is one the solver reports, except the two of
    # the left-edge search when theta0 is infinite (gaussian.json)
    import json
    import pathlib

    from nmvmopt import exp_opt
    from nmvmopt.cli import parse_investor, parse_mixing, parse_model

    raw = json.loads(
        (pathlib.Path(__file__).resolve().parents[1] / "specs" / f"{spec}.json").read_text()
    )
    count = 0

    def counted(tm, mix, theta):
        nonlocal count
        count += 1
        return log_h_function(tm, mix, theta)

    monkeypatch.setattr(exp_opt, "log_h_function", counted)
    a, w0 = parse_investor(raw["investor"])
    res = optimize(parse_model(raw["model"]), parse_mixing(raw["mixing"]), a=a, w0=w0)
    edge_calls = 0 if math.isfinite(res.transformed.theta0) else 2
    assert count == res.solver_info.iterations + edge_calls == calls


# ---------------------------------------------------------------------------
# Lagrangian reduction identities
# ---------------------------------------------------------------------------


def test_fixed_drift_maximizer_identities(rng):
    """For fixed c = x'(mu - 1 r_f): the candidate x_c attains the predicted
    quadratic value and dominates random portfolios sharing the same drift."""
    m = sane_exp_market(rng, 3)
    e = Exponential(1.0)
    tm = transform(m, e)
    a, w0 = 1.3, 0.8
    c = 0.04
    q_c = (tm.b_scalar - a * w0 * c) / tm.c_scalar
    x_c = optimal_portfolio(tm, m, a, w0, q_c)
    pf_c = Portfolio(x_c, w0, a)
    assert float(x_c @ m.excess_mean) == pytest.approx(c, rel=1e-10)

    g_c = quadratic_exponent(m, pf_c)
    want = 0.5 * tm.a_scalar - 0.5 * q_c**2 * tm.c_scalar
    assert g_c == pytest.approx(want, rel=1e-10)

    d = m.excess_mean
    for _ in range(10_000):
        x = rng.normal(0.0, 0.5, 3)
        x = x + (c - float(x @ d)) / float(d @ d) * d  # project onto x'd = c
        assert quadratic_exponent(m, Portfolio(x, w0, a)) <= g_c + 1e-12


def test_e_minus_b_h_equals_g_at_xc(rng):
    m = sane_exp_market(rng, 2)
    e = Exponential(1.0)
    tm = transform(m, e)
    a, w0 = 1.0, 1.0
    for c in (-0.05, 0.02, 0.08):
        q_c = (tm.b_scalar - a * w0 * c) / tm.c_scalar
        if abs(q_c) >= tm.theta0:
            continue
        x_c = optimal_portfolio(tm, m, a, w0, q_c)
        pf = Portfolio(x_c, w0, a)
        lhs = log_g_min(tm, e, q_c)
        rhs = -a * w0 * float(x_c @ m.excess_mean) + e.log_laplace(
            quadratic_exponent(m, pf)
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# cross-check against the Monte Carlo oracle
# ---------------------------------------------------------------------------


def test_exp1_instance_against_crn_brute_force(rng):
    m = sane_exp_market(rng, 2, vol=1.0)
    e = Exponential(1.0)
    res = optimize(m, e, a=1.0, w0=1.0)
    returns = mc_oracle.sample_returns(m, e, 400_000, 31)

    def utility(k, w):
        return -((-1.0) ** k) * np.exp(-w)

    est = mc_oracle.mc_expected_utility(m, returns, utility, res.x_star, 1.0)
    assert abs(est.estimate - res.optimal_utility) <= 3.0 * est.stderr
    span = float(np.max(np.abs(res.x_star))) * 2 + 0.5
    x_bf = mc_oracle.brute_force_optimize(m, returns, utility, box=[(-span, span)] * 2).x
    obj = mc_oracle.crn_objective(m, returns, utility, 1.0)
    assert obj(res.x_star) >= obj(x_bf) - 3.0 * est.stderr


# ---------------------------------------------------------------------------
# in-package Brent solvers: the same bits as scipy's
# ---------------------------------------------------------------------------


def _scalar_cases(count=240):
    """Seeded (kind, coefficients, lo, hi); kinds alternate smooth and
    non-smooth: 0 quadratic, 1 kink plus ripple, 2 multimodal, 3 steps on
    a quartic, 4 flat steps (ties between function values)."""
    rng = np.random.default_rng(7007)
    for k in range(count):
        c = [float(v) for v in rng.normal(size=3)]
        lo = float(rng.uniform(-5.0, 0.0))
        yield k % 5, c, lo, lo + float(rng.uniform(1e-6, 6.0))


def _objective(kind, c):
    if kind == 0:
        return lambda x: (x - c[0]) ** 2 * (1.0 + c[1] ** 2) + c[2]
    if kind == 1:
        return lambda x: abs(x - c[0]) + 0.1 * math.sin(5.0 * c[1] * x)
    if kind == 2:
        return lambda x: math.cos(3.0 * c[0] * x) + c[1] * x
    if kind == 3:
        return lambda x: math.floor(4.0 * (x - c[0])) * c[1] + (x - c[2]) ** 4
    return lambda x: float(math.floor(2.0 * abs(x - c[0])))


def _signed(kind, c, root):
    """Functions with one sign change at ``root``; kind 2 is so small that
    products of its values underflow to zero, kind 4 is steep on one side."""
    if kind == 0:
        return lambda x: math.tanh(3.0 * c[0] * (x - root)) + 1e-3 * c[2] * (x - root)
    if kind == 1:
        return lambda x: math.copysign(abs(x - root) ** 0.3, x - root)
    if kind == 2:
        return lambda x: 1e-200 * (x - root) ** 3
    if kind == 3:
        return lambda x: (x - root) * (1.0 if x > root else 5.0 + c[1] ** 2)
    return lambda x: math.expm1(4.0 * (x - root)) + c[0] ** 2 * (x - root) ** 3


def test_minimize_bounded_matches_scipy_bit_for_bit():
    capped = 0
    for kind, c, lo, hi in _scalar_cases():
        f = _objective(kind, c)
        for xatol, maxiter in ((1e-12, 500), (1e-5, 500), (1e-12, 7)):
            ref = minimize_scalar(
                f, bounds=(lo, hi), method="bounded", options={"xatol": xatol, "maxiter": maxiter}
            )
            x, fx, nfev = minimize_bounded(f, lo, hi, xatol=xatol, maxiter=maxiter)
            assert (x, fx, nfev) == (float(ref.x), float(ref.fun), ref.nfev)
            capped += ref.status == 1
    assert capped > 100  # the maxiter cap is exercised, not only convergence


def test_brentq_matches_scipy_bit_for_bit():
    for kind, c, lo, hi in _scalar_cases():
        root = lo + (hi - lo) * (0.5 + 0.4 * math.tanh(c[2]))
        f = _signed(kind, c, root)
        for xtol in (1e-15, 1e-14, 1e-6, 1e-2):
            assert brentq(f, lo, hi, xtol=xtol) == scipy_brentq(f, lo, hi, xtol=xtol)


def test_brentq_root_at_endpoint():
    assert brentq(lambda x: x - 1.0, 1.0, 2.0, xtol=1e-15) == 1.0
    assert brentq(lambda x: x - 2.0, 1.0, 2.0, xtol=1e-15) == 2.0


def test_brentq_errors_like_scipy():
    for f in (lambda x: x * x + 1.0, lambda x: math.nan):
        with pytest.raises(ValueError):
            scipy_brentq(f, -1.0, 1.0, xtol=1e-15)
        with pytest.raises(ValueError):
            brentq(f, -1.0, 1.0, xtol=1e-15)
    # a NaN met inside the bracket, and too few iterations to converge
    for f, maxiter, error in (
        (lambda x: math.nan if abs(x) < 0.5 else x, 100, ValueError),
        (lambda x: math.copysign(abs(x - 0.3) ** 0.1, x - 0.3), 2, RuntimeError),
    ):
        with pytest.raises(error):
            scipy_brentq(f, -1.0, 2.0, xtol=1e-15, maxiter=maxiter)
        with pytest.raises(error):
            brentq(f, -1.0, 2.0, xtol=1e-15, maxiter=maxiter)
