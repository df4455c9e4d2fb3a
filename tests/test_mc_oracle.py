import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import random_spd_market, sane_exp_market
from nmvmopt import exp_opt, mc_oracle
from nmvmopt.mixing import GIG, BoundedUniform, Constant, Exponential
from nmvmopt.model import MarketModel
from nmvmopt.mc_oracle import (
    block_mean,
    brute_force_optimize,
    cov_stderr,
    crn_objective,
    mc_expected_utility,
    sample_returns,
)


def _neg_exp(k, w):
    """U^(k)(w) of U(w) = -exp(-w), as general_opt.exponential_utility(1.0)."""
    return -((-1.0) ** k) * np.exp(-w)


def test_sample_returns_rejects_zero_paths():
    m = MarketModel(n=1, r_f=0.0, mu=[0.1], gamma=[0.0], a_matrix=[[1.0]])
    with pytest.raises(ValueError):
        sample_returns(m, Constant(1.0), 0, 0)


def test_block_mean_matches_numpy(rng):
    v = rng.normal(size=200_001)
    assert block_mean(v) == pytest.approx(float(np.mean(v)), rel=1e-14)
    # independent of block size (fixed partition by index, fsum combine)
    assert block_mean(v, block=1000) == pytest.approx(block_mean(v, block=65536), abs=1e-15)


def test_sample_returns_shape_and_determinism(rng):
    m = random_spd_market(rng, 3)
    a = sample_returns(m, Exponential(1.0), 1000, 5)
    b = sample_returns(m, Exponential(1.0), 1000, 5)
    assert a.shape == (1000, 3)
    assert np.array_equal(a, b)
    c = sample_returns(m, Exponential(1.0), 1000, 6)
    assert not np.array_equal(a, c)


def _row_major_reference(model, mix, paths, seed):
    """The sample built path-major from the same two Philox streams."""
    root = np.random.Philox(key=seed)
    normal_rng, mix_rng = np.random.Generator(root), np.random.Generator(root.jumped(1))
    half = (paths + 1) // 2
    g0 = normal_rng.standard_normal((half, model.n))
    z0 = mix.sample(half, mix_rng)
    z, g = np.concatenate([z0, z0]), np.vstack([g0, -g0])
    return (
        model.mu[None, :]
        + model.gamma[None, :] * z[:, None]
        + np.sqrt(z)[:, None] * (g @ model.a_matrix.T)
    )


@pytest.mark.parametrize(
    "mix", [Constant(1.3), Exponential(0.9), GIG(-0.5, 1.0, 1.2), BoundedUniform(0.5, 1.4)], ids=repr
)
@pytest.mark.parametrize("n", [1, 2, 5, 17])
@pytest.mark.parametrize("paths", [1_000, 1_001])
def test_sample_returns_is_asset_major_with_the_row_major_bits(mix, n, paths):
    # per-asset reductions over the paths run along contiguous memory, and
    # the layout changes no value
    m = random_spd_market(np.random.default_rng(n), n)
    x = sample_returns(m, mix, paths, 11)
    assert x.shape == (paths + paths % 2, n)
    assert x.flags.f_contiguous
    ref = _row_major_reference(m, mix, paths, 11)
    assert x.tobytes(order="C") == ref.tobytes(order="C")


def test_constant_mixing_rows(rng):
    m = random_spd_market(rng, 2)
    x = sample_returns(m, Constant(1.0), 50_000, 1)
    # E X = mu + gamma, Cov = Sigma
    se = x.std(axis=0) / math.sqrt(50_000)
    assert np.all(np.abs(x.mean(axis=0) - (m.mu + m.gamma)) < 4 * se)


def test_sample_mean_and_covariance_identities(rng):
    m = random_spd_market(rng, 3)
    e = Exponential(1.0)
    x = sample_returns(m, e, 400_000, 2)
    mean_th = m.mu + m.gamma * e.mean
    se = x.std(axis=0) / math.sqrt(x.shape[0])
    assert np.all(np.abs(x.mean(axis=0) - mean_th) < 4 * se)

    cov_th = e.mean * m.sigma + e.variance * np.outer(m.gamma, m.gamma)
    centered = x - x.mean(axis=0)
    prods = centered[:, :, None] * centered[:, None, :]
    cov_se = prods.std(axis=0) / math.sqrt(x.shape[0])
    assert np.all(np.abs(np.cov(x.T) - cov_th) < 5 * cov_se)


def test_zero_portfolio_exact():
    m = MarketModel(n=2, r_f=0.03, mu=[0.1, 0.1], gamma=[0.0, 0.0], a_matrix=np.eye(2))
    est = mc_expected_utility(
        m, sample_returns(m, Exponential(1.0), 1000, 9), _neg_exp, np.zeros(2), 2.0
    )
    assert est.estimate == pytest.approx(-math.exp(-2.06), rel=1e-14)
    assert est.stderr == 0.0


def test_nonfinite_draws_counted(rng):
    m = random_spd_market(rng, 2)
    est = mc_expected_utility(
        m,
        sample_returns(m, Constant(1.0), 10_000, 4),
        lambda k, w: np.where(w > 1.0, np.log(np.where(w > 1.0, w, 1.0)), -np.inf),
        np.array([3.0, 3.0]),
        1.0,
    )
    assert est.n_nonfinite > 0
    assert est.estimate == -math.inf


def test_crn_bit_reproducible(rng):
    m = random_spd_market(rng, 2)
    e = Exponential(1.0)
    o1 = crn_objective(m, sample_returns(m, e, 50_000, 1), _neg_exp, 1.0)
    o2 = crn_objective(m, sample_returns(m, e, 50_000, 1), _neg_exp, 1.0)
    x = np.array([0.3, -0.2])
    assert o1(x) == o2(x)


def test_cov_stderr_matches_products_reference(rng):
    x = sample_returns(random_spd_market(rng, 4), Exponential(1.0), 20_000, 8)
    # reference: standard error of the mean of each paths x n x n product
    centered = x - x.mean(axis=0)
    prods = centered[:, :, None] * centered[:, None, :]
    want = prods.std(axis=0, ddof=1) / math.sqrt(x.shape[0])
    np.testing.assert_allclose(cov_stderr(x), want, rtol=1e-12)


def test_grid_search_symmetric_instance():
    # exchangeable assets: the search returns equal weights
    m = MarketModel(
        n=2, r_f=0.0, mu=[0.1, 0.1], gamma=[0.02, 0.02],
        a_matrix=[[0.2, 0.05], [0.05, 0.2]],
    )
    x = brute_force_optimize(
        m, sample_returns(m, Constant(1.0), 100_000, 3), _neg_exp, box=[(0.0, 1.0)] * 2
    ).x
    assert x[0] == pytest.approx(x[1], abs=1e-6)
    # the unconstrained optimum is about (1.9, 1.9): both bounds bind
    np.testing.assert_array_equal(x, [1.0, 1.0])


def _exp_market(seed, n, draw=random_spd_market):
    """Seeded market with exponential mixing and the box mc-verify searches."""
    m = draw(np.random.default_rng(seed), n)
    mix = Exponential(1.0)
    span = float(np.max(np.abs(exp_opt.optimize(m, mix).x_star))) * 2.0 + 1.0
    return m, mix, [(-span, span)] * n


def test_search_cost_is_not_exponential_in_n(monkeypatch):
    # a 5-point lattice per axis alone would make 5^6 = 15,625 calls
    calls = 0

    def counting(*args, **kwargs):
        objective = crn_objective(*args, **kwargs)

        def counted(x):
            nonlocal calls
            calls += 1
            return objective(x)

        return counted

    monkeypatch.setattr(mc_oracle, "crn_objective", counting)
    m, mix, box = _exp_market(6, 6)
    brute_force_optimize(m, sample_returns(m, mix, 2_000, 1), _neg_exp, box=box)
    assert 0 < calls < 10_000


def _lattice_then_nelder_mead(objective, box):
    """Reference: the best point of a 5^n lattice, refined by Nelder-Mead."""
    axes = [np.linspace(lo, hi, 5) for lo, hi in box]
    start = max((np.array(p) for p in itertools.product(*axes)), key=objective)

    def neg(x):
        if any(xi < lo or xi > hi for xi, (lo, hi) in zip(x, box)):
            return math.inf
        return -objective(x)

    res = minimize(
        neg, start, method="Nelder-Mead",
        options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000, "maxfev": 8000},
    )
    return res.x


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_search_matches_lattice_reference(n, seed):
    m, mix, box = _exp_market(100 * n + seed, n)
    returns = sample_returns(m, mix, 5_000, seed)
    objective = crn_objective(m, returns, _neg_exp, 1.0)
    got = objective(brute_force_optimize(m, returns, _neg_exp, box=box).x)
    want = objective(_lattice_then_nelder_mead(objective, box))
    assert got >= want - 1e-12 * abs(want)


@pytest.mark.parametrize("n", [6, 10, 20, 50])
def test_search_reaches_the_crn_maximum_as_n_grows(n):
    m, mix, box = _exp_market(n, n, sane_exp_market)
    returns = sample_returns(m, mix, 20_000, n)
    objective = crn_objective(m, returns, _neg_exp, 1.0)
    t0 = time.perf_counter()
    res = brute_force_optimize(m, returns, _neg_exp, box=box)
    elapsed = time.perf_counter() - t0
    # the closed-form optimum x* is a feasible point of the same sample
    want = objective(exp_opt.optimize(m, mix).x_star)
    assert res.value == objective(res.x)
    assert res.value >= want - 1e-12 * abs(want)
    assert res.status == "decrement"
    assert res.iterations <= 10
    assert elapsed < 1.0


def test_search_with_some_bounds_binding():
    # a box half the optimum's size: some coordinates end on a bound,
    # the rest inside, and the result meets the KKT conditions
    m = sane_exp_market(np.random.default_rng(44), 6)
    mix = Exponential(1.0)
    x_star = exp_opt.optimize(m, mix).x_star
    box = [(-0.5 * abs(v), 0.5 * abs(v)) if i % 2 else (-5.0, 5.0) for i, v in enumerate(x_star)]
    returns = sample_returns(m, mix, 20_000, 5)
    res = brute_force_optimize(m, returns, _neg_exp, box=box)
    assert res.status == "decrement"
    excess = returns - m.r_f
    g = excess.T @ np.exp(-(1.0 + m.r_f) - excess @ res.x) / excess.shape[0]
    lo, hi = np.array(box).T
    at_lo, at_hi = res.x == lo, res.x == hi
    assert (at_lo | at_hi).any() and not (at_lo | at_hi).all()
    assert np.all(g[at_lo] <= 0.0) and np.all(g[at_hi] >= 0.0)
    inside = ~(at_lo | at_hi)
    assert np.max(np.abs(g[inside])) <= 1e-4 * np.max(np.abs(g))
    # no feasible point of a bounded quasi-Newton search does better
    objective = crn_objective(m, returns, _neg_exp, 1.0)
    ref = minimize(lambda x: -objective(x), np.zeros(6), method="L-BFGS-B", bounds=box)
    assert res.value >= -ref.fun - 1e-12 * abs(ref.fun)


def test_brute_force_recovers_gaussian_optimum():
    m = MarketModel(
        n=2, r_f=0.01, mu=[0.15, 0.25], gamma=[0.10, -0.05],
        a_matrix=[[1.0, 0.0], [0.2, 0.9]],
    )
    want = np.linalg.solve(m.sigma, m.gamma + m.excess_mean)
    got = brute_force_optimize(
        m, sample_returns(m, Constant(1.0), 1_000_000, 7), _neg_exp, box=[(-2.0, 2.0)] * 2
    ).x
    assert np.allclose(got, want, atol=1e-3)


def test_brute_force_with_quadratic_utility_derivatives():
    # U(w) = w - b w^2: the CRN objective is quadratic in x, so its maximum
    # solves mean((1 - 2 b W) (R - r_f)) = 0 exactly and Newton lands on it
    from nmvmopt.general_opt import quadratic_utility

    b, w0 = 0.3, 1.0
    m = random_spd_market(np.random.default_rng(8), 2)
    returns = sample_returns(m, Constant(1.0), 4_000, 3)
    res = brute_force_optimize(m, returns, quadratic_utility(b), box=[(-20.0, 20.0)] * 2, w0=w0)
    excess = returns - m.r_f
    c = w0 * (1.0 + m.r_f)
    want = (1.0 - 2.0 * b * c) / (2.0 * b * w0) * np.linalg.solve(excess.T @ excess, excess.sum(axis=0))
    assert res.status == "decrement"
    assert np.allclose(res.x, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("which", ["exponential", "quadratic"])
def test_crn_objective_is_the_estimate_to_the_bit(which):
    # both average the same antithetic pairs, so mc-verify may read
    # crn(x*) as the estimate at x*
    from nmvmopt.general_opt import quadratic_utility

    utility = _neg_exp if which == "exponential" else quadratic_utility(0.3)
    m = random_spd_market(np.random.default_rng(12), 3)
    returns = sample_returns(m, Exponential(1.0), 30_001, 2)
    w0 = 1.5
    objective = crn_objective(m, returns, utility, w0)
    for x in (np.zeros(3), np.array([0.4, -0.3, 0.2]), [1.0, 0.5, -2.0]):
        assert objective(x) == mc_expected_utility(m, returns, utility, x, w0).estimate


def test_wealth_from_the_excess_matrix_is_the_returns_formula_to_the_bit():
    # every caller forms returns - r_f once and passes it to _wealth
    m = random_spd_market(np.random.default_rng(3), 4)
    returns = sample_returns(m, Exponential(1.0), 10_001, 6)
    w0 = 1.7
    for x in (np.zeros(4), np.array([0.3, -1.2, 0.05, 2.0])):
        want = w0 * (1.0 + m.r_f) + w0 * ((returns - m.r_f) @ x)
        assert mc_oracle._wealth(m, returns - m.r_f, x, w0).tobytes() == want.tobytes()
