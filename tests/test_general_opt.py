import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as sp_minimize

from conftest import random_spd_market, sane_exp_market
from nmvmopt.errors import InfeasiblePointError
from nmvmopt.mixing import GIG, Constant, Exponential
from nmvmopt.model import Portfolio, TransformedModel, expected_exp_utility, transform
from nmvmopt import exp_opt, general_opt, mc_oracle
from nmvmopt.general_opt import (
    ReducedDomain,
    ReducedPoint,
    UtilitySpec,
    dist_stats,
    exp_feasible_domain,
    m_objective,
    mean_wealth,
    normal_moment,
    optimize_3d,
    reconstruct_portfolio,
    reduce_portfolio,
    wealth_central_moment,
)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------


def test_builtin_utilities_validate():
    for spec in (
        UtilitySpec.exponential(1.3),
        UtilitySpec.power(2.0),
        UtilitySpec.log(),
        UtilitySpec.quadratic(0.4),
    ):
        assert spec.value(1.0) is not None


def test_utility_parameter_validation():
    with pytest.raises(ValueError):
        UtilitySpec.exponential(0.0)
    with pytest.raises(ValueError):
        UtilitySpec.power(1.0)
    with pytest.raises(ValueError):
        UtilitySpec.quadratic(-0.1)


def test_quadratic_higher_derivatives_vanish():
    q = UtilitySpec.quadratic(0.3)
    for k in (3, 4, 7):
        assert q.derivative(k, 1.7) == 0.0


def test_custom_utility_derivative_mismatch_rejected():
    with pytest.raises(ValueError, match="finite difference"):
        UtilitySpec.custom(
            value=lambda w: np.exp(w),
            derivative=lambda k, w: 2.0 * np.exp(w),  # wrong by factor 2
        )


def test_log_and_power_nan_outside_domain():
    for u in (UtilitySpec.log(), UtilitySpec.power(2.0)):
        assert math.isnan(u.value(-1.0))
        vals = u.value(np.array([-1.0, 1.0]))
        assert math.isnan(vals[0]) and math.isfinite(vals[1])


# ---------------------------------------------------------------------------
# reduced points and normal moments
# ---------------------------------------------------------------------------


def test_normal_moments():
    assert normal_moment(1) == 0.0
    assert normal_moment(4) == 3.0
    assert normal_moment(6) == 15.0
    assert normal_moment(0) == 1.0
    with pytest.raises(ValueError):
        normal_moment(-1)


@given(m=st.integers(0, 20))
@settings(max_examples=50, deadline=None)
def test_normal_moment_double_factorial_property(m):
    # E N^{2k} = (2k-1)!! ; odd moments vanish
    v = normal_moment(m)
    if m % 2 == 1:
        assert v == 0.0
    else:
        want = 1.0
        for j in range(1, m, 2):
            want *= j
        assert v == pytest.approx(want, rel=1e-12)


def test_reduced_point_validation():
    with pytest.raises(ValueError):
        ReducedPoint(1.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        ReducedPoint(0.0, -1.3, 1.0)
    with pytest.raises(ValueError):
        ReducedPoint(0.0, 0.0, -0.1)


def test_gram_feasibility():
    tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, -1.0)  # orthogonal pair
    assert ReducedPoint(1.0, 0.0, 1.0).gram_feasible(tm)
    assert ReducedPoint(0.6, 0.6, 1.0).gram_feasible(tm)
    assert not ReducedPoint(0.9, 0.9, 1.0).gram_feasible(tm)  # 0.81+0.81 > 1


# ---------------------------------------------------------------------------
# mean wealth and central moments
# ---------------------------------------------------------------------------


def test_mean_wealth_rho_zero():
    tm = TransformedModel.from_scalars(0.5, 0.8, 0.1, -1.0)
    e = Exponential(1.0)
    assert mean_wealth(ReducedPoint(0.3, 0.4, 0.0), tm, e, 1.5, 0.02) == pytest.approx(
        1.5 * 1.02, rel=1e-14
    )


def test_mean_wealth_pure_drift_direction():
    tm = TransformedModel.from_scalars(0.0, 0.49, 0.0, -1.0)  # |gamma0| = 0
    e = Exponential(1.0)
    got = mean_wealth(ReducedPoint(0.0, 1.0, 1.0), tm, e, 2.0, 0.0)
    assert got == pytest.approx(2.0 + 2.0 * 0.7, rel=1e-14)


def test_wealth_central_moment_k1_and_k2():
    tm = TransformedModel.from_scalars(0.8, 1.0, 0.2, -1.0)
    e = Exponential(1.0)
    p = ReducedPoint(0.5, 0.2, 1.3)
    assert wealth_central_moment(1, p, tm, e, 1.0) == 0.0
    want = 1.3**2 * (e.mean + 0.8 * 0.25 * e.variance)
    assert wealth_central_moment(2, p, tm, e, 1.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("mix", [Exponential(1.0), GIG(-0.5, 1.0, 1.0)])
def test_wealth_central_moments_against_mc(mix):
    tm = TransformedModel.from_scalars(0.6, 1.1, -0.2, mix.s_lower_bound)
    p = ReducedPoint(0.45, 0.3, 0.9)
    w0 = 1.2
    draws = 4_000_000
    z = mix.sample(draws, seed=77)
    g = np.random.Generator(np.random.Philox(key=78)).standard_normal(draws)
    dev = w0 * p.rho * (math.sqrt(tm.a_scalar) * p.phi * (z - mix.mean) + np.sqrt(z) * g)
    for k in (2, 3, 4, 5, 6):
        emp = dev**k
        se = emp.std() / math.sqrt(draws)
        assert abs(wealth_central_moment(k, p, tm, mix, w0) - emp.mean()) < 4.0 * se


def test_dist_stats_consistency():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.9, 1.0, 0.0, -1.0)
    p = ReducedPoint(0.5, 0.1, 1.0)
    std, skew, kurt = dist_stats(p, tm, e, 1.0)
    m2 = wealth_central_moment(2, p, tm, e, 1.0)
    m3 = wealth_central_moment(3, p, tm, e, 1.0)
    m4 = wealth_central_moment(4, p, tm, e, 1.0)
    assert std == pytest.approx(math.sqrt(m2), rel=1e-10)
    assert skew == pytest.approx(m3 / m2**1.5, rel=1e-10)
    assert kurt == pytest.approx(m4 / m2**2, rel=1e-10)


def test_dist_stats_gaussian_case():
    c = Constant(1.0)
    tm = TransformedModel.from_scalars(0.7, 1.0, 0.0, -math.inf)
    _, skew, kurt = dist_stats(ReducedPoint(0.4, 0.2, 1.0), tm, c, 1.0)
    assert skew == pytest.approx(0.0, abs=1e-12)
    assert kurt == pytest.approx(3.0, rel=1e-12)


def test_dist_stats_symmetric_mixture():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.7, 1.0, 0.0, -1.0)
    _, skew, kurt = dist_stats(ReducedPoint(0.0, 0.5, 1.0), tm, e, 1.0)
    assert skew == pytest.approx(0.0, abs=1e-12)
    assert kurt == pytest.approx(3.0 * e.moment(2.0) / e.mean**2, rel=1e-12)


# ---------------------------------------------------------------------------
# truncated objective
# ---------------------------------------------------------------------------


def test_m_objective_rho_zero_any_order():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.5, 0.7, 0.0, -1.0)
    u = UtilitySpec.exponential(1.0)
    p0 = ReducedPoint(0.0, 0.0, 0.0)
    for order in (2, 4, 6):
        assert m_objective(p0, u, order, tm, e, 1.0, 0.03) == pytest.approx(
            -math.exp(-1.03), rel=1e-14
        )


def test_m_objective_quadratic_closed_form():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.5, 0.7, 0.0, -1.0)
    b = 0.3
    u = UtilitySpec.quadratic(b)
    p = ReducedPoint(0.4, 0.6, 0.8)
    w = mean_wealth(p, tm, e, 1.0, 0.0)
    j2 = wealth_central_moment(2, p, tm, e, 1.0)
    want = w - b * w * w - b * j2
    for order in (2, 3, 4, 8):
        assert m_objective(p, u, order, tm, e, 1.0, 0.0) == pytest.approx(want, rel=1e-12)


def test_m_objective_order_validation():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.5, 0.7, 0.0, -1.0)
    u = UtilitySpec.custom(
        value=lambda w: w, derivative=lambda k, w: 1.0 if k == 1 else 0.0, max_order=3
    )
    with pytest.raises(ValueError):
        m_objective(ReducedPoint(0, 0, 1.0), u, 4, tm, e)
    with pytest.raises(ValueError):
        m_objective(ReducedPoint(0, 0, 1.0), u, 1, tm, e)


def test_m_objective_quadratic_matches_mc(rng):
    # series terminates: M equals the exact expected quadratic utility
    m = sane_exp_market(rng, 3)
    e = Exponential(1.0)
    tm = transform(m, e)
    u = UtilitySpec.quadratic(0.25)
    x = rng.normal(0.0, 0.4, 3)
    p = reduce_portfolio(x, tm, m)
    val = m_objective(p, u, 4, tm, e, 1.0, m.r_f)
    est = mc_oracle.mc_expected_utility(
        m, e, u, Portfolio(x), mc_oracle.McConfig(seed=21, paths=2_000_000)
    )
    assert est.within(val, 3.0)


# ---------------------------------------------------------------------------
# 3-d optimization and reconstruction
# ---------------------------------------------------------------------------


def test_optimize_3d_quadratic_gamma_free():
    # gamma = 0: objective is phi-independent; psi should take the sign of
    # the risk-adjusted mean (here +1)
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.0, 0.36, 0.0, -1.0)
    u = UtilitySpec.quadratic(0.2)
    p = optimize_3d(tm, e, u, order=4, w0=1.0, r_f=0.0, domain=ReducedDomain(rho=(0.0, 2.0)))
    assert p.psi == pytest.approx(1.0, abs=1e-6)
    assert p.rho > 0.0


def _exact_quadratic_objective(m, e, b, w0=1.0):
    ez, vz = e.mean, e.variance
    cov = ez * m.sigma + vz * np.outer(m.gamma, m.gamma)

    def f(x):
        ew = w0 * (1.0 + m.r_f) + w0 * float(x @ (m.mu + m.gamma * ez - m.r_f))
        vw = w0 * w0 * float(x @ cov @ x)
        return ew - b * (vw + ew * ew)

    return f


@pytest.mark.parametrize("n", [2, 3, 4])
def test_optimize_3d_quadratic_matches_brute_force(n, rng):
    m = sane_exp_market(rng, n)
    e = Exponential(1.0)
    tm = transform(m, e)
    b = 0.3
    u = UtilitySpec.quadratic(b)
    point = optimize_3d(tm, e, u, order=4, w0=1.0, r_f=m.r_f, domain=ReducedDomain(rho=(0.0, 2.0)))
    x = reconstruct_portfolio(point, tm, m)

    exact = _exact_quadratic_objective(m, e, b)
    res = sp_minimize(
        lambda v: -exact(v),
        np.zeros(n),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 40000},
    )
    assert np.allclose(x, res.x, atol=1e-4)
    assert m_objective(point, u, 4, tm, e, 1.0, m.r_f) == pytest.approx(
        exact(x), rel=1e-10
    )


@pytest.mark.parametrize(
    "case",
    ["parallel", "zero-gamma", "single-asset"],
)
def test_optimize_3d_degenerate_geometries(case):
    from nmvmopt.model import MarketModel

    e = Exponential(1.0)
    u = UtilitySpec.quadratic(0.3)
    if case == "parallel":  # gamma0 is a multiple of mu0
        m = MarketModel(
            n=3, r_f=0.0, mu=[0.1, 0.06, 0.04], gamma=[0.05, 0.03, 0.02],
            a_matrix=np.eye(3),
        )
    elif case == "zero-gamma":
        m = MarketModel(
            n=2, r_f=0.0, mu=[0.08, 0.05], gamma=[0.0, 0.0],
            a_matrix=0.2 * np.eye(2),
        )
    else:
        m = MarketModel(n=1, r_f=0.0, mu=[0.07], gamma=[0.02], a_matrix=[[0.25]])
    tm = transform(m, e)
    point = optimize_3d(tm, e, u, order=4, w0=1.0, r_f=0.0, domain=ReducedDomain(rho=(0.0, 2.0)))
    x = reconstruct_portfolio(point, tm, m)

    exact = _exact_quadratic_objective(m, e, 0.3)
    res = sp_minimize(
        lambda v: -exact(v), np.zeros(m.n), method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 40000, "maxfev": 80000},
    )
    assert np.allclose(x, res.x, atol=1e-4)
    p2 = reduce_portfolio(x, tm, m)
    assert p2.rho == pytest.approx(point.rho, abs=1e-9)


def test_optimize_3d_not_improved_by_random_probes(rng):
    m = sane_exp_market(rng, 3)
    e = Exponential(1.0)
    tm = transform(m, e)
    u = UtilitySpec.quadratic(0.3)
    dom = ReducedDomain(rho=(0.0, 2.0))
    point = optimize_3d(tm, e, u, order=4, w0=1.0, r_f=m.r_f, domain=dom)
    best = m_objective(point, u, 4, tm, e, 1.0, m.r_f)
    tries = 0
    while tries < 10_000:
        x = rng.normal(0.0, 0.7, 3)
        p = reduce_portfolio(x, tm, m)
        if not dom.contains(p):
            continue
        tries += 1
        assert m_objective(p, u, 4, tm, e, 1.0, m.r_f) <= best + 1e-8


def test_exponential_cross_check_order4(rng):
    m = sane_exp_market(rng, 3)
    e = Exponential(1.0)
    res = exp_opt.optimize(m, e, a=1.0, w0=1.0)
    tm = res.transformed
    u = UtilitySpec.exponential(1.0)
    rho_star = reduce_portfolio(res.x_star, tm, m).rho
    dom = exp_feasible_domain(tm, e, 1.0, 1.0, rho=(0.0, 1.5 * rho_star))
    point = optimize_3d(tm, e, u, order=4, w0=1.0, r_f=m.r_f, domain=dom)
    x = reconstruct_portfolio(point, tm, m)
    u_exact = expected_exp_utility(m, e, Portfolio(x, 1.0, 1.0))
    assert abs(u_exact - res.optimal_utility) < 0.02 * abs(res.optimal_utility)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_forced_by_orthogonal_constraints(rng):
    # gamma0 perpendicular to mu0, phi = 1, psi = 0: y must be rho * gamma0-hat
    m = random_spd_market(rng, 3)
    e = Exponential(1.0)
    tm = transform(m, e)
    # synthetic orthogonal pair in the same y-space
    tm_orth = TransformedModel.from_scalars(0.25, 0.49, 0.0, -1.0)
    y = reconstruct_portfolio(
        ReducedPoint(1.0, 0.0, 0.7), tm_orth, _identity_market(2)
    )
    assert np.allclose(np.eye(2).T @ y, 0.7 * tm_orth.gamma0 / 0.5, atol=1e-12)


def _identity_market(n):
    from nmvmopt.model import MarketModel

    return MarketModel(
        n=n, r_f=0.0, mu=np.full(n, 0.1), gamma=np.zeros(n), a_matrix=np.eye(n)
    )


def test_reconstruct_constraint_residuals(rng):
    m = random_spd_market(rng, 4)
    e = Exponential(1.0)
    tm = transform(m, e)
    g_norm, m_norm = math.sqrt(tm.a_scalar), math.sqrt(tm.c_scalar)
    count = 0
    while count < 25:
        phi, psi = rng.uniform(-1, 1, 2)
        rho = rng.uniform(0.1, 2.0)
        p = ReducedPoint(phi, psi, rho)
        if not p.gram_feasible(tm):
            continue
        count += 1
        x = reconstruct_portfolio(p, tm, m)
        y = m.a_matrix.T @ x
        assert float(y @ tm.gamma0) == pytest.approx(phi * g_norm * rho, abs=1e-10)
        assert float(y @ tm.mu0) == pytest.approx(psi * m_norm * rho, abs=1e-10)
        assert float(np.linalg.norm(y)) == pytest.approx(rho, abs=1e-10)


def test_reconstruct_infeasible_point_rejected(rng):
    m = random_spd_market(rng, 3)
    tm = transform(m, Exponential(1.0))
    r = tm.gamma_mu_cos
    # phi = 1 forces y parallel to gamma0, so psi must equal r; demand more
    psi_bad = math.copysign(min(1.0, abs(r) + 0.5), -1.0 if r > 0 else 1.0)
    with pytest.raises(InfeasiblePointError):
        reconstruct_portfolio(ReducedPoint(1.0, psi_bad, 1.0), tm, m)


def test_roundtrip_reduce_reconstruct(rng):
    m = random_spd_market(rng, 4)
    e = Exponential(1.0)
    tm = transform(m, e)
    for _ in range(100):
        x = rng.normal(0.0, 0.6, 4)
        p = reduce_portfolio(x, tm, m)
        x2 = reconstruct_portfolio(p, tm, m)
        p2 = reduce_portfolio(x2, tm, m)
        assert p2.phi == pytest.approx(p.phi, abs=1e-9)
        assert p2.psi == pytest.approx(p.psi, abs=1e-9)
        assert p2.rho == pytest.approx(p.rho, abs=1e-9)


def test_roundtrip_preserves_objective(rng):
    # wealth distribution depends on the portfolio only through (phi, psi, rho)
    m = random_spd_market(rng, 3)
    e = Exponential(1.0)
    tm = transform(m, e)
    u = UtilitySpec.exponential(1.0)
    x = rng.normal(0.0, 0.3, 3)
    p = reduce_portfolio(x, tm, m)
    x2 = reconstruct_portfolio(p, tm, m)
    a = m_objective(p, u, 4, tm, e, 1.0, m.r_f)
    b = m_objective(reduce_portfolio(x2, tm, m), u, 4, tm, e, 1.0, m.r_f)
    assert a == pytest.approx(b, rel=1e-10)
    # and the exact utilities agree too
    ua = expected_exp_utility(m, e, Portfolio(x))
    ub = expected_exp_utility(m, e, Portfolio(x2))
    assert ua == pytest.approx(ub, rel=1e-10)


# ---------------------------------------------------------------------------
# search: feasible probes, finite seeds
# ---------------------------------------------------------------------------

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


def _shipped(name):
    from nmvmopt.cli import parse_investor, parse_mixing, parse_model

    raw = json.loads((SPECS / f"{name}.json").read_text())
    m = parse_model(raw["model"])
    mix = parse_mixing(raw["mixing"])
    a, w0 = parse_investor(raw["investor"])
    return m, mix, transform(m, mix), a, w0


def test_exp_feasible_ball_matches_laplace_argument(rng):
    m, mix, tm, a, w0 = _shipped("gig")
    dom = exp_feasible_domain(tm, mix, a, w0, rho=(0.0, 5.0))
    g_norm, aw = math.sqrt(tm.a_scalar), a * w0
    for _ in range(2000):
        p = ReducedPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.0, 1.5))
        g = aw * g_norm * p.phi * p.rho - 0.5 * (aw * p.rho) ** 2
        if abs(g - 0.98 * mix.s_lower_bound) > 1e-12:
            assert dom.contains(p) == (g > 0.98 * mix.s_lower_bound)


@pytest.mark.parametrize("order", [4, 6])
def test_optimize_3d_never_probes_outside_exp_ball(monkeypatch, order):
    m, mix, tm, a, w0 = _shipped("gig")
    dom = exp_feasible_domain(tm, mix, a, w0, rho=(0.0, 5.0))
    seen = []
    real = ReducedDomain.contains
    monkeypatch.setattr(
        ReducedDomain, "contains", lambda self, p, tol=1e-12: seen.append(real(self, p, tol)) or seen[-1]
    )
    optimize_3d(tm, mix, UtilitySpec.exponential(a), order=order, w0=w0, r_f=m.r_f, domain=dom)
    assert len(seen) > 100
    assert all(seen)


@pytest.mark.parametrize("utility", [UtilitySpec.log(), UtilitySpec.power(2.0), UtilitySpec.power(0.5)])
def test_log_and_power_search_budget_and_finite_starts(monkeypatch, utility):
    m, mix, tm, a, w0 = _shipped("exp1")
    calls, starts = [], []
    real_m, real_min = general_opt.m_objective, general_opt.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return real_m(*args, **kwargs)

    def spying(fun, x0, **kwargs):
        starts.append(fun(x0))
        return real_min(fun, x0, **kwargs)

    monkeypatch.setattr(general_opt, "m_objective", counting)
    monkeypatch.setattr(general_opt, "minimize", spying)
    optimize_3d(tm, mix, utility, order=4, w0=w0, r_f=m.r_f, domain=ReducedDomain())
    assert len(calls) <= 5000
    assert starts and all(math.isfinite(v) for v in starts)


@pytest.mark.parametrize("spec,kind", [("gig", "exponential"), ("exp1", "log"), ("exp1", "power")])
def test_optimize_3d_not_improved_by_random_feasible_probes(rng, spec, kind):
    m, mix, tm, a, w0 = _shipped(spec)
    if kind == "exponential":
        u = UtilitySpec.exponential(a)
        dom = exp_feasible_domain(tm, mix, a, w0, rho=(0.0, 5.0))
    else:
        u = UtilitySpec.log() if kind == "log" else UtilitySpec.power(2.0)
        dom = ReducedDomain()
    point = optimize_3d(tm, mix, u, order=4, w0=w0, r_f=m.r_f, domain=dom)
    best = m_objective(point, u, 4, tm, mix, w0, m.r_f)
    assert dom.contains(point)
    tries = 0
    while tries < 3000:
        p = reduce_portfolio(rng.normal(0.0, 1.0, m.n), tm, m)
        if not dom.contains(p):
            continue
        v = m_objective(p, u, 4, tm, mix, w0, m.r_f)
        if math.isfinite(v):
            tries += 1
            assert v <= best + 1e-12
