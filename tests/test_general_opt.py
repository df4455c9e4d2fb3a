import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as sp_minimize

from conftest import random_spd_market, sane_exp_market
from nmvmopt.errors import InfeasiblePointError, InvalidMomentOrderError
from nmvmopt.mixing import GIG, BoundedUniform, Constant, Exponential
from nmvmopt.model import Portfolio, TransformedModel, expected_exp_utility, transform
from nmvmopt import exp_opt, general_opt, mc_oracle
from nmvmopt.general_opt import (
    MomentTable,
    ReducedDomain,
    ReducedPoint,
    dist_stats,
    exp_feasible_domain,
    exponential_utility,
    log_utility,
    m_objective,
    mean_wealth,
    normal_moment,
    optimize_3d,
    power_utility,
    quadratic_utility,
    reconstruct_portfolio,
    reduce_portfolio,
    wealth_central_moment,
)


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------


def _check_derivatives(utility, rel_tol: float = 1e-5) -> None:
    """Test-side oracle: utility(k, .) against central differences of
    utility(k - 1, .) for k = 1..4."""
    for k in range(1, 5):
        for w in (0.6, 1.1, 1.9, 2.7):
            h = 1e-6 * max(1.0, abs(w))
            fd = (utility(k - 1, w + h) - utility(k - 1, w - h)) / (2.0 * h)
            an = utility(k, w)
            assert abs(fd - an) <= rel_tol * max(abs(an), abs(fd)) + 1e-8, (k, w, an, fd)


def test_builtin_utilities_validate():
    # construction does not check the built-in formulas; check them here
    for utility in (
        exponential_utility(1.3),
        power_utility(2.0),
        power_utility(0.5),
        log_utility(),
        quadratic_utility(0.4),
    ):
        _check_derivatives(utility)
    # and the oracle catches a derivative wrong by a factor of 2
    with pytest.raises(AssertionError):
        _check_derivatives(lambda k, w: (2.0 if k else 1.0) * np.exp(w))


def test_utility_parameter_validation():
    with pytest.raises(ValueError):
        exponential_utility(0.0)
    with pytest.raises(ValueError):
        power_utility(1.0)
    with pytest.raises(ValueError):
        quadratic_utility(-0.1)


def test_quadratic_higher_derivatives_vanish():
    q = quadratic_utility(0.3)
    for k in (3, 4, 7):
        assert q(k, 1.7) == 0.0
    # the constant derivatives take the shape of an array w; a float stays
    # a float, so the search's arithmetic is unchanged
    w = np.array([[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]])
    for k, want in ((2, -0.6), (3, 0.0)):
        got = q(k, w)
        assert isinstance(got, np.ndarray) and got.shape == w.shape and np.all(got == want)
        assert type(q(k, 1.7)) is float


def test_log_and_power_nan_outside_domain():
    for u in (log_utility(), power_utility(2.0)):
        assert math.isnan(u(0, -1.0))
        vals = u(0, np.array([-1.0, 1.0]))
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


@pytest.mark.parametrize(
    "box,key",
    [
        ({"phi": (-2.0, 2.0)}, "phi"), ({"psi": (0.9, 1.5)}, "psi"), ({"rho": (-1.0, 2.0)}, "rho"),
        # reversed bounds, which library callers can pass
        ({"phi": (0.5, -0.5)}, "phi"), ({"psi": (0.5, -0.5)}, "psi"), ({"rho": (2.0, 0.5)}, "rho"),
    ],
)
def test_reduced_domain_validation(box, key):
    with pytest.raises(ValueError, match=key):
        ReducedDomain(**box)
    # bounds on the edge of [-1, 1] and a point rho box at 0 are valid
    ReducedDomain(phi=(-1.0, 1.0), psi=(1.0, 1.0), rho=(0.0, 0.0))


def test_gram_feasibility():
    tm = TransformedModel.from_scalars(1.0, 1.0, 0.0, -1.0)  # orthogonal pair
    assert ReducedPoint(1.0, 0.0, 1.0).gram_feasible(tm)
    assert ReducedPoint(0.6, 0.6, 1.0).gram_feasible(tm)
    assert not ReducedPoint(0.9, 0.9, 1.0).gram_feasible(tm)  # 0.81+0.81 > 1


# ---------------------------------------------------------------------------
# mean wealth and central moments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mix", [Constant(1.3), Exponential(2.0), GIG(-0.5, 1.0, 1.0), BoundedUniform(0.5, 1.5)]
)
@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_moment_table_extends_lower_orders_exactly(mix, order):
    # one table of the highest order a caller needs serves every lower order
    low, high = MomentTable.build(mix, order), MomentTable.build(mix, order + 1)
    assert high.mean == low.mean
    assert high.terms[: order + 1] == low.terms
    assert high.order == order + 1


def test_mean_wealth_rho_zero():
    tm = TransformedModel.from_scalars(0.5, 0.8, 0.1, -1.0)
    e = Exponential(1.0)
    got = mean_wealth(ReducedPoint(0.3, 0.4, 0.0), tm, MomentTable.build(e, 2), 1.5, 0.02)
    assert got == pytest.approx(1.5 * 1.02, rel=1e-14)


def test_mean_wealth_pure_drift_direction():
    tm = TransformedModel.from_scalars(0.0, 0.49, 0.0, -1.0)  # |gamma0| = 0
    e = Exponential(1.0)
    got = mean_wealth(ReducedPoint(0.0, 1.0, 1.0), tm, MomentTable.build(e, 2), 2.0, 0.0)
    assert got == pytest.approx(2.0 + 2.0 * 0.7, rel=1e-14)


def test_wealth_central_moment_k1_and_k2():
    tm = TransformedModel.from_scalars(0.8, 1.0, 0.2, -1.0)
    e = Exponential(1.0)
    p = ReducedPoint(0.5, 0.2, 1.3)
    table = MomentTable.build(e, 2)
    assert wealth_central_moment(1, p, tm, table, 1.0) == 0.0
    want = 1.3**2 * (e.mean + 0.8 * 0.25 * e.variance)
    assert wealth_central_moment(2, p, tm, table, 1.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("mix", [Exponential(1.0), GIG(-0.5, 1.0, 1.0)])
def test_wealth_central_moments_against_mc(mix):
    tm = TransformedModel.from_scalars(0.6, 1.1, -0.2, mix.s_lower_bound)
    p = ReducedPoint(0.45, 0.3, 0.9)
    w0 = 1.2
    draws = 4_000_000
    z = mix.sample(draws, np.random.Generator(np.random.Philox(key=77)))
    g = np.random.Generator(np.random.Philox(key=78)).standard_normal(draws)
    dev = w0 * p.rho * (math.sqrt(tm.a_scalar) * p.phi * (z - mix.mean) + np.sqrt(z) * g)
    table = MomentTable.build(mix, 6)
    for k in (2, 3, 4, 5, 6):
        emp = dev**k
        se = emp.std() / math.sqrt(draws)
        assert abs(wealth_central_moment(k, p, tm, table, w0) - emp.mean()) < 4.0 * se


def test_dist_stats_consistency():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.9, 1.0, 0.0, -1.0)
    p = ReducedPoint(0.5, 0.1, 1.0)
    table = MomentTable.build(e, 4)
    std, skew, kurt = dist_stats(p, tm, table, 1.0)
    m2 = wealth_central_moment(2, p, tm, table, 1.0)
    m3 = wealth_central_moment(3, p, tm, table, 1.0)
    m4 = wealth_central_moment(4, p, tm, table, 1.0)
    assert std == pytest.approx(math.sqrt(m2), rel=1e-10)
    assert skew == pytest.approx(m3 / m2**1.5, rel=1e-10)
    assert kurt == pytest.approx(m4 / m2**2, rel=1e-10)


def test_dist_stats_gaussian_case():
    c = Constant(1.0)
    tm = TransformedModel.from_scalars(0.7, 1.0, 0.0, -math.inf)
    _, skew, kurt = dist_stats(ReducedPoint(0.4, 0.2, 1.0), tm, MomentTable.build(c, 4), 1.0)
    assert skew == pytest.approx(0.0, abs=1e-12)
    assert kurt == pytest.approx(3.0, rel=1e-12)


def test_dist_stats_symmetric_mixture():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.7, 1.0, 0.0, -1.0)
    _, skew, kurt = dist_stats(ReducedPoint(0.0, 0.5, 1.0), tm, MomentTable.build(e, 4), 1.0)
    assert skew == pytest.approx(0.0, abs=1e-12)
    assert kurt == pytest.approx(3.0 * e.moment(2.0) / e.mean**2, rel=1e-12)


# ---------------------------------------------------------------------------
# truncated objective
# ---------------------------------------------------------------------------


def test_m_objective_rho_zero_any_order():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.5, 0.7, 0.0, -1.0)
    u = exponential_utility(1.0)
    p0 = ReducedPoint(0.0, 0.0, 0.0)
    table = MomentTable.build(e, 6)
    for order in (2, 4, 6):
        assert m_objective(p0, u, order, tm, table, 1.0, 0.03) == pytest.approx(
            -math.exp(-1.03), rel=1e-14
        )


def test_m_objective_quadratic_closed_form():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.5, 0.7, 0.0, -1.0)
    b = 0.3
    u = quadratic_utility(b)
    p = ReducedPoint(0.4, 0.6, 0.8)
    table = MomentTable.build(e, 8)
    w = mean_wealth(p, tm, table, 1.0, 0.0)
    j2 = wealth_central_moment(2, p, tm, table, 1.0)
    want = w - b * w * w - b * j2
    for order in (2, 3, 4, 8):
        assert m_objective(p, u, order, tm, table, 1.0, 0.0) == pytest.approx(want, rel=1e-12)


def test_m_objective_order_validation():
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.5, 0.7, 0.0, -1.0)
    u = quadratic_utility(0.3)
    table = MomentTable.build(e, 4)
    with pytest.raises(ValueError):
        m_objective(ReducedPoint(0, 0, 1.0), u, 1, tm, table)


def test_moment_table_beyond_float_range_raises():
    # 171! is beyond float range, and m_objective divides by k!
    MomentTable.build(Constant(1.0), 170)
    with pytest.raises(InvalidMomentOrderError, match="order 171"):
        MomentTable.build(Constant(1.0), 171)


def test_m_objective_quadratic_matches_mc(rng):
    # series terminates: M equals the exact expected quadratic utility
    m = sane_exp_market(rng, 3)
    e = Exponential(1.0)
    tm = transform(m, e)
    u = quadratic_utility(0.25)
    x = rng.normal(0.0, 0.4, 3)
    p = reduce_portfolio(x, tm, m)
    val = m_objective(p, u, 4, tm, MomentTable.build(e, 4), 1.0, m.r_f)
    est = mc_oracle.mc_expected_utility(
        m, mc_oracle.sample_returns(m, e, 2_000_000, 21), u, x, 1.0
    )
    assert abs(est.estimate - val) <= 3.0 * est.stderr


# ---------------------------------------------------------------------------
# 3-d optimization and reconstruction
# ---------------------------------------------------------------------------


def test_optimize_3d_quadratic_gamma_free():
    # gamma = 0: objective is phi-independent; psi should take the sign of
    # the risk-adjusted mean (here +1)
    e = Exponential(1.0)
    tm = TransformedModel.from_scalars(0.0, 0.36, 0.0, -1.0)
    u = quadratic_utility(0.2)
    p = optimize_3d(
        tm, MomentTable.build(e, 4), u, order=4, w0=1.0, r_f=0.0, domain=ReducedDomain(rho=(0.0, 2.0))
    )
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
    u = quadratic_utility(b)
    table = MomentTable.build(e, 4)
    point = optimize_3d(tm, table, u, order=4, w0=1.0, r_f=m.r_f, domain=ReducedDomain(rho=(0.0, 2.0)))
    x = reconstruct_portfolio(point, tm, m)

    exact = _exact_quadratic_objective(m, e, b)
    res = sp_minimize(
        lambda v: -exact(v),
        np.zeros(n),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 40000},
    )
    assert np.allclose(x, res.x, atol=1e-4)
    assert m_objective(point, u, 4, tm, table, 1.0, m.r_f) == pytest.approx(
        exact(x), rel=1e-10
    )


@pytest.mark.parametrize(
    "case",
    ["parallel", "zero-gamma", "single-asset"],
)
def test_optimize_3d_degenerate_geometries(case):
    from nmvmopt.model import MarketModel

    e = Exponential(1.0)
    u = quadratic_utility(0.3)
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
    point = optimize_3d(
        tm, MomentTable.build(e, 4), u, order=4, w0=1.0, r_f=0.0, domain=ReducedDomain(rho=(0.0, 2.0))
    )
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
    u = quadratic_utility(0.3)
    dom = ReducedDomain(rho=(0.0, 2.0))
    table = MomentTable.build(e, 4)
    point = optimize_3d(tm, table, u, order=4, w0=1.0, r_f=m.r_f, domain=dom)
    best = m_objective(point, u, 4, tm, table, 1.0, m.r_f)
    tries = 0
    while tries < 10_000:
        x = rng.normal(0.0, 0.7, 3)
        p = reduce_portfolio(x, tm, m)
        if not dom.contains(p):
            continue
        tries += 1
        assert m_objective(p, u, 4, tm, table, 1.0, m.r_f) <= best + 1e-8


def test_exponential_cross_check_order4(rng):
    m = sane_exp_market(rng, 3)
    e = Exponential(1.0)
    res = exp_opt.optimize(m, e, a=1.0, w0=1.0)
    tm = res.transformed
    u = exponential_utility(1.0)
    rho_star = reduce_portfolio(res.x_star, tm, m).rho
    dom = exp_feasible_domain(tm, e, 1.0, 1.0, ReducedDomain(rho=(0.0, 1.5 * rho_star)))
    point = optimize_3d(tm, MomentTable.build(e, 4), u, order=4, w0=1.0, r_f=m.r_f, domain=dom)
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


@pytest.mark.parametrize("case", ["generic", "parallel", "zero-gamma"])
def test_reconstruct_raises_exactly_when_gram_infeasible(rng, case):
    from nmvmopt.model import MarketModel

    if case == "generic":
        m = random_spd_market(rng, 4)
    elif case == "parallel":  # gamma = mu / 2: a portfolio's psi is its phi
        m = MarketModel(
            n=3, r_f=0.0, mu=[0.1, 0.06, 0.04], gamma=[0.05, 0.03, 0.02], a_matrix=np.eye(3)
        )
    else:
        m = MarketModel(
            n=3, r_f=0.0, mu=[0.08, 0.05, 0.03], gamma=[0.0, 0.0, 0.0],
            a_matrix=0.2 * np.eye(3) + 0.05,
        )
    tm = transform(m, Exponential(1.0))
    feasible = 0
    for k in range(400):
        phi, psi = rng.uniform(-1.0, 1.0, 2)
        if case == "parallel" and k % 2:  # on the line psi = +-phi
            psi = math.copysign(phi, tm.gamma_mu_cos)
        if case == "zero-gamma":  # a cosine against the zero vector reads 0
            phi = 0.0
        p = ReducedPoint(float(phi), float(psi), float(rng.uniform(0.05, 2.0)))
        if not p.gram_feasible(tm):
            with pytest.raises(InfeasiblePointError):
                reconstruct_portfolio(p, tm, m)
            continue
        feasible += 1
        p2 = reduce_portfolio(reconstruct_portfolio(p, tm, m), tm, m)
        assert (p2.phi, p2.psi, p2.rho) == pytest.approx((p.phi, p.psi, p.rho), abs=1e-9)
    assert 100 < feasible < 400 or (case == "zero-gamma" and feasible == 400)


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
    u = exponential_utility(1.0)
    x = rng.normal(0.0, 0.3, 3)
    p = reduce_portfolio(x, tm, m)
    x2 = reconstruct_portfolio(p, tm, m)
    table = MomentTable.build(e, 4)
    a = m_objective(p, u, 4, tm, table, 1.0, m.r_f)
    b = m_objective(reduce_portfolio(x2, tm, m), u, 4, tm, table, 1.0, m.r_f)
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
    dom = exp_feasible_domain(tm, mix, a, w0)
    g_norm, aw = math.sqrt(tm.a_scalar), a * w0
    for _ in range(2000):
        p = ReducedPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.0, 1.5))
        g = aw * g_norm * p.phi * p.rho - 0.5 * (aw * p.rho) ** 2
        if abs(g - 0.98 * mix.s_lower_bound) > 1e-12:
            assert dom.contains(p) == (g > 0.98 * mix.s_lower_bound)


@pytest.mark.parametrize("order", [4, 6])
def test_optimize_3d_never_probes_outside_exp_ball(monkeypatch, order):
    m, mix, tm, a, w0 = _shipped("gig")
    dom = exp_feasible_domain(tm, mix, a, w0)
    seen = []
    real = ReducedDomain.contains
    monkeypatch.setattr(
        ReducedDomain, "contains", lambda self, p, tol=1e-12: seen.append(real(self, p, tol)) or seen[-1]
    )
    table = MomentTable.build(mix, order)
    optimize_3d(tm, table, exponential_utility(a), order=order, w0=w0, r_f=m.r_f, domain=dom)
    assert len(seen) > 100
    assert all(seen)


@pytest.mark.parametrize("utility", [log_utility(), power_utility(2.0), power_utility(0.5)])
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
    optimize_3d(tm, MomentTable.build(mix, 4), utility, order=4, w0=w0, r_f=m.r_f, domain=ReducedDomain())
    assert len(calls) <= 5000
    assert starts and all(math.isfinite(v) for v in starts)


# (spec, utility, order) -> probes in one optimize_3d.  Each probe checks
# ReducedDomain.contains, lies inside, and is scored by one m_objective call.
# A faster probe must keep this work, and with it every output bit
_SEARCH_PROBES = {
    ("exp1", "exponential", 4): 1865,
    ("exp1", "log", 4): 1962,
    ("exp1", "power:2", 4): 1860,
    ("exp1", "power:0.5", 4): 1802,
    ("gig", "exponential", 4): 340,
    ("gig", "exponential", 6): 337,
}


@pytest.mark.parametrize("spec,utility,order", list(_SEARCH_PROBES))
def test_optimize_3d_probe_counts_on_shipped_specs(monkeypatch, spec, utility, order):
    m, mix, tm, a, w0 = _shipped(spec)
    kind, _, param = utility.partition(":")
    if kind == "exponential":
        u, dom = exponential_utility(a), exp_feasible_domain(tm, mix, a, w0)
    else:
        u, dom = log_utility() if kind == "log" else power_utility(float(param)), ReducedDomain()
    counts = {"contains": 0, "m_objective": 0}
    real_contains, real_m = ReducedDomain.contains, general_opt.m_objective

    def contains(self, p, tol=1e-12):
        counts["contains"] += 1
        return real_contains(self, p, tol)

    def objective(*args):
        counts["m_objective"] += 1
        return real_m(*args)

    monkeypatch.setattr(ReducedDomain, "contains", contains)
    monkeypatch.setattr(general_opt, "m_objective", objective)
    optimize_3d(tm, MomentTable.build(mix, order), u, order=order, w0=w0, r_f=m.r_f, domain=dom)
    probes = _SEARCH_PROBES[spec, utility, order]
    assert counts == {"contains": probes, "m_objective": probes}


_FAMILIES = [
    Exponential(1.3),
    GIG(-0.5, 1.2, 0.8),
    Constant(0.7),
    BoundedUniform(0.4, 1.6),
]


@pytest.mark.parametrize("mix", _FAMILIES, ids=lambda mix: type(mix).__name__)
def test_m_objective_is_the_expansion_to_the_bit(mix):
    # U(w) + sum_k U^(k)(w) E[(W-w)^k] / k!, from the reference definitions
    m, _, _, _, _ = _shipped("exp1")
    tm = transform(m, mix)
    table = MomentTable.build(mix, 6)
    utilities = [exponential_utility(1.7), log_utility(), power_utility(2.5), quadratic_utility(0.3)]
    checked = 0
    for phi in np.linspace(-1.0, 1.0, 5).tolist():
        for psi in np.linspace(-1.0, 1.0, 5).tolist():
            for rho in (0.0, 0.37, 1.9):
                p = ReducedPoint(phi, psi, rho)
                for w0, r_f in ((1.0, 0.0), (2.5, 0.03)):
                    w = mean_wealth(p, tm, table, w0, r_f)
                    for u in utilities:
                        for order in (4, 6):
                            want = float(u(0, w))
                            for k in range(2, order + 1):
                                want += (
                                    float(u(k, w))
                                    * wealth_central_moment(k, p, tm, table, w0)
                                    / math.factorial(k)
                                )
                            got = m_objective(p, u, order, tm, table, w0, r_f)
                            assert np.float64(got).tobytes() == np.float64(want).tobytes()
                            checked += math.isfinite(got)
    assert checked > 1000


@pytest.mark.parametrize("spec,kind", [("gig", "exponential"), ("exp1", "log"), ("exp1", "power")])
def test_optimize_3d_not_improved_by_random_feasible_probes(rng, spec, kind):
    m, mix, tm, a, w0 = _shipped(spec)
    if kind == "exponential":
        u = exponential_utility(a)
        dom = exp_feasible_domain(tm, mix, a, w0)
    else:
        u = log_utility() if kind == "log" else power_utility(2.0)
        dom = ReducedDomain()
    table = MomentTable.build(mix, 4)
    point = optimize_3d(tm, table, u, order=4, w0=w0, r_f=m.r_f, domain=dom)
    best = m_objective(point, u, 4, tm, table, w0, m.r_f)
    assert dom.contains(point)
    tries = 0
    while tries < 3000:
        p = reduce_portfolio(rng.normal(0.0, 1.0, m.n), tm, m)
        if not dom.contains(p):
            continue
        v = m_objective(p, u, 4, tm, table, w0, m.r_f)
        if math.isfinite(v):
            tries += 1
            assert v <= best + 1e-12


# ---------------------------------------------------------------------------
# the Nelder-Mead port against scipy's
# ---------------------------------------------------------------------------


def _bowl(centre, weights):
    def f(x):
        return sum(w * (float(v) - c) ** 2 for v, c, w in zip(x, centre, weights))

    return f


def _plateau(centre, weights):
    # +inf beyond a wall just past the minimum: reflections land on ties
    bowl = _bowl(centre, weights)
    return lambda x: math.inf if float(x[0]) > centre[0] + 0.05 else bowl(x)


def _terraced(centre, weights):
    # rounded values: distinct points often score exactly the same
    bowl = _bowl(centre, weights)
    return lambda x: round(bowl(x), 2)


def _port_equivalence_cases():
    rng = np.random.default_rng(20261019)
    cases = []
    for dim in (1, 2, 3):
        for make in (_bowl, _plateau, _terraced):
            for k in range(3):
                centre = rng.normal(size=dim).tolist()
                weights = rng.uniform(0.5, 3.0, dim).tolist()
                x0 = rng.normal(size=dim)
                x0[rng.random(dim) < 0.3] = 0.0  # zero coordinates take scipy's 0.00025 step
                cases.append(pytest.param(make(centre, weights), x0, {}, id=f"{make.__name__[1:]}-{dim}d-{k}"))
    # exactly equal values at distinct points from the first simplex on
    cases.append(pytest.param(_bowl([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), np.zeros(3), {}, id="ties-3d"))
    cases.append(pytest.param(_bowl([1.0, -2.0], [1.0, 1.0]), np.zeros(2), {}, id="ties-2d"))
    # a binding maxfev (status 1), here in the middle of an iteration
    cases.append(pytest.param(_bowl([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), np.zeros(3), {"maxfev": 37}, id="maxfev"))
    # a binding maxiter (status 2)
    cases.append(pytest.param(_bowl([1.0, 2.0], [1.0, 5.0]), np.array([0.3, 0.0]), {"maxiter": 15}, id="maxiter"))
    return cases


@pytest.mark.parametrize("fun,x0,caps", _port_equivalence_cases())
def test_nelder_mead_port_takes_scipys_steps(fun, x0, caps):
    options = {"xatol": 1e-11, "fatol": 1e-13, "maxiter": 4000, "maxfev": 8000, **caps}
    with np.errstate(invalid="ignore"):  # scipy's test computes inf - inf on a plateau
        want = sp_minimize(fun, x0, method="Nelder-Mead", options=options)
    got = general_opt.minimize(fun, x0, **options)
    assert np.array(got.x).tobytes() == want.x.tobytes()
    assert (got.nfev, got.nit, got.status) == (want.nfev, want.nit, want.status)
    if caps:
        assert got.status == (1 if "maxfev" in caps else 2)
