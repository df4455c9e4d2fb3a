import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import gaussian_exp_utility, random_spd_market
from nmvmopt.errors import (
    DegenerateModelError,
    InfeasiblePortfolioError,
    SingularModelError,
)
from nmvmopt.mixing import Constant, Exponential
from nmvmopt.model import (
    MarketModel,
    Portfolio,
    TransformedModel,
    degenerate_check,
    expected_exp_utility,
    feasibility_check,
    log_neg_expected_exp_utility,
    transform,
)
from nmvmopt import mc_oracle


def test_identity_structure_matrix():
    m = MarketModel(
        n=2, r_f=0.0, mu=[0.1, 0.2], gamma=[0.05, -0.02], a_matrix=np.eye(2)
    )
    tm = transform(m, Constant(1.0))
    assert np.allclose(tm.mu0, m.mu)
    assert np.allclose(tm.gamma0, m.gamma)


def test_diagonal_solve_example():
    m = MarketModel(
        n=2,
        r_f=0.0,
        mu=[2.0, 3.0],
        gamma=[0.0, 0.0],
        a_matrix=np.diag([2.0, 1.0]),
    )
    tm = transform(m, Constant(1.0))
    assert np.allclose(tm.mu0, [1.0, 3.0])
    assert tm.c_scalar == pytest.approx(10.0, rel=1e-14)
    assert tm.a_scalar == 0.0
    assert tm.b_scalar == 0.0


def test_transform_scalars_cross_route(rng):
    # vector route (solves against A) vs Cholesky route through Sigma
    for n in (2, 3, 5):
        m = random_spd_market(rng, n)
        tm = transform(m, Exponential(1.0))
        c = cho_factor(m.sigma, lower=True)
        excess = m.excess_mean
        assert tm.c_scalar == pytest.approx(
            float(excess @ cho_solve(c, excess)), rel=1e-10
        )
        assert tm.a_scalar == pytest.approx(
            float(m.gamma @ cho_solve(c, m.gamma)), rel=1e-10
        )
        assert tm.b_scalar == pytest.approx(
            float(m.gamma @ cho_solve(c, excess)), rel=1e-10, abs=1e-12
        )
        # reconstruct: A mu0 = mu - r_f
        assert np.allclose(m.a_matrix @ tm.mu0, excess, rtol=1e-10, atol=1e-14)
        assert tm.b_scalar**2 <= tm.a_scalar * tm.c_scalar * (1.0 + 1e-10)


def test_theta0():
    tm = transform(
        MarketModel(n=1, r_f=0.0, mu=[0.5], gamma=[0.3], a_matrix=[[1.0]]),
        Exponential(1.0),
    )
    assert tm.theta0 == pytest.approx(
        math.sqrt((tm.a_scalar + 2.0) / tm.c_scalar), rel=1e-14
    )
    tm_inf = transform(
        MarketModel(n=1, r_f=0.0, mu=[0.5], gamma=[0.3], a_matrix=[[1.0]]),
        Constant(1.0),
    )
    assert tm_inf.theta0 == math.inf


def test_singular_matrix_rejected():
    with pytest.raises(SingularModelError):
        MarketModel(
            n=2, r_f=0.0, mu=[0.1, 0.1], gamma=[0.0, 0.0],
            a_matrix=[[1.0, 1.0], [1.0, 1.0]],
        )


def test_shape_validation():
    with pytest.raises(ValueError):
        MarketModel(n=2, r_f=0.0, mu=[0.1], gamma=[0.0, 0.0], a_matrix=np.eye(2))
    with pytest.raises(ValueError):
        MarketModel(n=2, r_f=0.0, mu=[0.1, 0.2], gamma=[0.0, 0.0], a_matrix=np.eye(3))


def test_portfolio_validation():
    with pytest.raises(ValueError):
        Portfolio(x=[0.0], w0=0.0)
    with pytest.raises(ValueError):
        Portfolio(x=[0.0], a=-1.0)


def test_from_scalars_consistency():
    tm = TransformedModel.from_scalars(1.2, 0.8, -0.3, -1.0)
    assert float(tm.gamma0 @ tm.gamma0) == pytest.approx(1.2, rel=1e-12)
    assert float(tm.mu0 @ tm.mu0) == pytest.approx(0.8, rel=1e-12)
    assert float(tm.gamma0 @ tm.mu0) == pytest.approx(-0.3, rel=1e-12)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def _simple_market(n=2, gamma=None):
    return MarketModel(
        n=n,
        r_f=0.0,
        mu=np.full(n, 0.1),
        gamma=np.zeros(n) if gamma is None else gamma,
        a_matrix=np.eye(n),
    )


def test_zero_portfolio_always_feasible():
    m = _simple_market()
    for mix in (Constant(1.0), Exponential(1.0)):
        assert feasibility_check(m, mix, Portfolio(np.zeros(2)))


def test_feasibility_quadratic_boundary():
    # gamma = 0, Sigma = I, a = W0 = 1: g(x) = -|x|^2 / 2
    m = _simple_market()
    e = Exponential(1.0)
    x = np.array([2.0, 0.0])  # |x|^2 = 4 -> g = -2 < -1
    assert not feasibility_check(m, e, Portfolio(x))
    assert feasibility_check(m, e, Portfolio(np.array([1.0, 0.5])))
    # boundary |x|^2 = 2 -> g = -1 exactly: rejected (strict interior)
    assert not feasibility_check(m, e, Portfolio(np.array([math.sqrt(2.0), 0.0])))


def test_constant_mixing_always_feasible(rng):
    m = random_spd_market(rng, 3)
    for _ in range(20):
        x = rng.normal(size=3) * 10.0
        assert feasibility_check(m, Constant(1.0), Portfolio(x))


def test_infeasible_utility_raises():
    m = _simple_market()
    with pytest.raises(InfeasiblePortfolioError):
        expected_exp_utility(m, Exponential(1.0), Portfolio(np.array([2.0, 0.0])))


# ---------------------------------------------------------------------------
# expected exponential utility
# ---------------------------------------------------------------------------


def test_zero_portfolio_utility():
    m = _simple_market()
    pf = Portfolio(np.zeros(2), w0=1.0, a=1.0)
    assert expected_exp_utility(m, Exponential(1.0), pf) == pytest.approx(
        -math.exp(-1.0), rel=1e-14
    )


def test_gaussian_reduction_matches_closed_form(rng):
    for _ in range(10):
        m = random_spd_market(rng, 3)
        x = rng.normal(0, 0.5, 3)
        pf = Portfolio(x, w0=1.4, a=0.8)
        got = expected_exp_utility(m, Constant(1.0), pf)
        want = gaussian_exp_utility(m, x, 0.8, 1.4)
        assert got == pytest.approx(want, rel=1e-12)


def test_exp_mixing_matches_mc(rng):
    m = random_spd_market(rng, 2)
    e = Exponential(1.0)
    pf = Portfolio(np.array([0.5, 0.3]), w0=1.0, a=1.0)
    exact = expected_exp_utility(m, e, pf)
    est = mc_oracle.mc_expected_utility(
        m, mc_oracle.sample_returns(m, e, 1_000_000, 3), lambda k, w: -((-1.0) ** k) * np.exp(-w), pf.x, pf.w0
    )
    assert abs(est.estimate - exact) <= 3.0 * est.stderr


def test_utility_always_negative(rng):
    m = random_spd_market(rng, 3)
    e = Exponential(1.0)
    for _ in range(50):
        x = rng.normal(0, 0.3, 3)
        pf = Portfolio(x)
        if feasibility_check(m, e, pf):
            assert expected_exp_utility(m, e, pf) < 0.0


def test_log_neg_utility_stable_for_extreme_values():
    m = _simple_market()
    pf = Portfolio(np.zeros(2), w0=1.0, a=800.0)  # -exp(-800) underflows
    log_neg = log_neg_expected_exp_utility(m, Constant(1.0), pf)
    assert log_neg == pytest.approx(-800.0, rel=1e-12)
    assert expected_exp_utility(m, Constant(1.0), pf) == 0.0  # underflow to -0.0


def test_degenerate_check():
    m = MarketModel(
        n=2, r_f=0.05, mu=[0.05, 0.05], gamma=[0.1, 0.0], a_matrix=np.eye(2)
    )
    tm = transform(m, Exponential(1.0))
    with pytest.raises(DegenerateModelError):
        degenerate_check(tm)


# ---------------------------------------------------------------------------
# distributional identity of the coordinate change
# ---------------------------------------------------------------------------


def test_y_coordinate_distributional_identity(rng):
    """x'(X - r_f) and y'mu0 + y'gamma0 Z + |y| sqrt(Z) N agree in the first
    four moments within MC error when y = A' x."""
    m = random_spd_market(rng, 3)
    e = Exponential(1.0)
    tm = transform(m, e)
    x = np.array([0.6, -0.2, 0.4])
    y = m.a_matrix.T @ x

    paths = 1_000_000
    returns = mc_oracle.sample_returns(m, e, paths, 17)
    lhs = (returns - m.r_f) @ x

    rng2 = np.random.Generator(np.random.Philox(key=1234))
    z = e.sample(paths, rng=rng2)
    g = rng2.standard_normal(paths)
    rhs = float(y @ tm.mu0) + float(y @ tm.gamma0) * z + np.linalg.norm(y) * np.sqrt(z) * g

    for k in (1, 2, 3, 4):
        a_k, b_k = lhs**k, rhs**k
        se = math.hypot(
            float(a_k.std() / math.sqrt(paths)), float(b_k.std() / math.sqrt(paths))
        )
        assert abs(float(a_k.mean()) - float(b_k.mean())) < 3.5 * se
