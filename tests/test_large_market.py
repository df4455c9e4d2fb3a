import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize as sp_minimize

from nmvmopt import exp_opt
from nmvmopt.cli import parse_large_market
from nmvmopt.mixing import BoundedUniform, Constant
from nmvmopt.model import MarketModel
from nmvmopt.large_market import (
    LargeMarketSpec,
    b_function,
    convergence_study,
    d2_tail,
    d_coefficient,
    effective_nmvm_segment,
    martingale_density,
    optimal_h,
    segment_scalars,
    u_n,
)

MIX = BoundedUniform(0.5, 1.5)


def decay_spec(max_n=64, **overrides):
    kw = dict(
        gamma_seq=lambda i: 0.5 / i**1.1,
        mu_seq=lambda i: 0.5 / i**1.1,
        beta_seq=lambda i: 0.3 / i,
        beta_bar_seq=lambda i: 1.0,
        mix=MIX,
        max_n=max_n,
    )
    kw.update(overrides)
    return LargeMarketSpec(**kw)


def zero_spec(max_n=16):
    return LargeMarketSpec(
        gamma_seq=lambda i: 0.0,
        mu_seq=lambda i: 0.0,
        beta_seq=lambda i: 0.3 / i,
        beta_bar_seq=lambda i: 1.0,
        mix=MIX,
        max_n=max_n,
    )


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------


def test_requires_bounded_mixing():
    from nmvmopt.mixing import Exponential

    with pytest.raises(ValueError, match="bounded"):
        decay_spec(mix=Exponential(1.0))


def test_rejects_zero_beta_bar():
    with pytest.raises(ValueError, match="nonzero"):
        decay_spec(beta_bar_seq=lambda i: 0.0 if i == 3 else 1.0)


def test_explicit_arrays_accepted():
    spec = LargeMarketSpec(
        gamma_seq=[0.1, 0.05, 0.02],
        mu_seq=[0.1, 0.05, 0.02],
        beta_seq=[0.1, 0.1],
        beta_bar_seq=[1.0, 1.0, 1.0],
        mix=MIX,
        max_n=3,
    )
    assert spec.gamma.shape == (3,)
    assert spec.beta[0] == 0.0


def test_short_array_rejected():
    with pytest.raises(ValueError, match="too short"):
        LargeMarketSpec(
            gamma_seq=[0.1],
            mu_seq=[0.1, 0.05],
            beta_seq=[0.1],
            beta_bar_seq=[1.0, 1.0],
            mix=MIX,
            max_n=2,
        )


@pytest.mark.parametrize("overrides,match", [
    # Python's i**p overflows at p = 400; kappa / i**p divides by an underflowed 0 at p = -400
    (dict(mu_seq=lambda i: 0.5 / i**400.0), "overflows"),
    (dict(mu_seq=lambda i: 0.5 / i**-400.0), "overflows"),
    (dict(gamma_seq=lambda i: math.nan), "gamma is not finite at asset 1"),
    (dict(beta_seq=lambda i: math.inf if i == 5 else 0.3 / i), "beta is not finite at asset 5"),
    (dict(beta_bar_seq=lambda i: 5e-324), "effective mu' is not finite"),
    (dict(gamma_seq=lambda i: 1e308 / i**1.1), r"d\^2 is not finite"),
    (dict(mix=BoundedUniform(5e-324, 1.5)), r"d\^2 is not finite"),
])
def test_rejects_coefficients_beyond_float_range(overrides, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            decay_spec(**overrides)


# ---------------------------------------------------------------------------
# factor drifts b_i
# ---------------------------------------------------------------------------


def test_b1_zero_when_no_premium():
    spec = zero_spec()
    for z in (0.5, 1.0, 1.5):
        assert b_function(spec, 1, z) == 0.0
        # with b1 = 0 the correction term vanishes for i >= 2 too
        assert b_function(spec, 2, z) == 0.0


def test_b_values_hand_checked():
    # gamma_i = mu_i = 1/i^2, beta_i = beta_bar_i = 1, z = 1:
    # b1(1) = -(1 + 1) = -2; b2(1) = -1/4 - 1/4 + 2 = 3/2
    spec = LargeMarketSpec(
        gamma_seq=lambda i: 1.0 / i**2,
        mu_seq=lambda i: 1.0 / i**2,
        beta_seq=lambda i: 1.0,
        beta_bar_seq=lambda i: 1.0,
        mix=MIX,
        max_n=4,
    )
    assert b_function(spec, 1, 1.0) == pytest.approx(-2.0, rel=1e-14)
    assert b_function(spec, 2, 1.0) == pytest.approx(1.5, rel=1e-14)


def test_b_domain_check():
    spec = decay_spec()
    with pytest.raises(ValueError, match="support"):
        b_function(spec, 1, 0.2)
    with pytest.raises(ValueError):
        b_function(spec, 0, 1.0)


def test_martingale_property_of_b(rng):
    # E_Q[R_i | Z = z] = 0 by construction, for every z in the support
    spec = decay_spec()
    for i in (1, 2, 5):
        for z in (0.5, 0.8, 1.3, 1.5):
            g, m = spec.gamma[i - 1], spec.mu[i - 1]
            beta, bb = spec.beta[i - 1], spec.beta_bar[i - 1]
            b1 = b_function(spec, 1, z)
            bi = b_function(spec, i, z)
            drift = g * z + m
            if i >= 2:
                drift += beta * math.sqrt(z) * b1
            drift += bb * math.sqrt(z) * bi
            assert drift == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# d coefficients
# ---------------------------------------------------------------------------


def test_d_zero_for_zero_coefficients():
    spec = zero_spec()
    for i in (1, 2, 3):
        assert d_coefficient(spec, i) == 0.0


def test_d_frozen_grid_oracle_value():
    # |b_1(z)| = sqrt(z) + 1/sqrt(z) on [0.5, 1.5]: supremum at z = 0.5
    spec = LargeMarketSpec(
        gamma_seq=[1.0, 0.0], mu_seq=[1.0, 0.0], beta_seq=[0.0],
        beta_bar_seq=[1.0, 1.0], mix=MIX, max_n=2,
    )
    # frozen from a 1e6-point grid oracle over the support
    assert d_coefficient(spec, 1) == pytest.approx(2.1213203435596424, rel=1e-12)


def test_d_matches_grid_oracle(rng):
    spec = decay_spec()
    z_grid = np.linspace(0.5, 1.5, 200_001)
    for i in (1, 2, 7, 20):
        grid_val = float(np.abs(b_function(spec, i, z_grid)).max())
        assert d_coefficient(spec, i) == pytest.approx(grid_val, rel=1e-9)


def test_d_scaling_in_beta_bar():
    base = decay_spec(beta_seq=lambda i: 0.0)
    scaled = decay_spec(beta_seq=lambda i: 0.0, beta_bar_seq=lambda i: 10.0)
    for i in (1, 3, 5):
        assert d_coefficient(scaled, i) == pytest.approx(
            d_coefficient(base, i) / 10.0, rel=1e-12
        )


# ---------------------------------------------------------------------------
# effective segment
# ---------------------------------------------------------------------------


def test_effective_segment_zero():
    spec = zero_spec()
    mu_p, gamma_p = effective_nmvm_segment(spec, 8)
    assert np.all(mu_p == 0.0) and np.all(gamma_p == 0.0)


def test_effective_segment_single_asset():
    spec = decay_spec()
    mu_p, gamma_p = effective_nmvm_segment(spec, 1)
    assert mu_p[0] == pytest.approx(spec.mu[0] / spec.beta_bar[0], rel=1e-14)
    assert gamma_p[0] == pytest.approx(spec.gamma[0] / spec.beta_bar[0], rel=1e-14)


def test_segment_scalars_match_effective_vectors():
    spec = decay_spec()
    tm = segment_scalars(spec, 8)
    mu_p, gamma_p = effective_nmvm_segment(spec, 8)
    assert tm.a_scalar == pytest.approx(float(gamma_p @ gamma_p), rel=1e-14)
    assert tm.c_scalar == pytest.approx(float(mu_p @ mu_p), rel=1e-14)
    assert tm.b_scalar == pytest.approx(float(mu_p @ gamma_p), rel=1e-14)
    assert tm.theta0 == math.inf


def test_effective_segment_affine_identity():
    # sqrt(z) b_i(z) = -(gamma'_i z + mu'_i) exactly, for every z
    spec = decay_spec(beta_bar_seq=lambda i: 1.0 + 0.1 * i)
    mu_p, gamma_p = effective_nmvm_segment(spec, 6)
    for i in (1, 2, 4, 6):
        for z in (0.5, 0.77, 1.0, 1.5):
            lhs = math.sqrt(z) * b_function(spec, i, z)
            rhs = -(gamma_p[i - 1] * z + mu_p[i - 1])
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_effective_segment_distributional_match():
    # MC: sqrt(Z)(eps_2 - b_2(Z)) vs mu'_2 + gamma'_2 Z + sqrt(Z) eps in moments
    spec = decay_spec()
    mu_p, gamma_p = effective_nmvm_segment(spec, 2)
    rng = np.random.Generator(np.random.Philox(key=55))
    draws = 1_000_000
    z = spec.mix.sample(draws, rng=rng)
    eps = rng.standard_normal(draws)
    lhs = np.sqrt(z) * (eps - b_function(spec, 2, z))
    z2 = spec.mix.sample(draws, rng=rng)
    eps2 = rng.standard_normal(draws)
    rhs = mu_p[1] + gamma_p[1] * z2 + np.sqrt(z2) * eps2
    for k in (1, 2, 3, 4):
        a_k, b_k = lhs**k, rhs**k
        se = math.hypot(
            float(a_k.std() / math.sqrt(draws)), float(b_k.std() / math.sqrt(draws))
        )
        assert abs(float(a_k.mean()) - float(b_k.mean())) < 3.5 * se


# ---------------------------------------------------------------------------
# U_n
# ---------------------------------------------------------------------------


def test_u_n_trivial_market():
    spec = zero_spec()
    for n in (1, 4, 16):
        assert u_n(spec, n) == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(optimal_h(spec, n), 0.0)


def test_u_n_positive_and_nonincreasing():
    spec = decay_spec()
    vals = [u_n(spec, n) for n in range(1, 33)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_u_n_narrow_support_matches_gaussian():
    # mixing concentrated at 1: U_1 ~ exp(-(mu'_1 + gamma'_1)^2 / 2)
    delta = 1e-4
    spec = decay_spec(mix=BoundedUniform(1.0 - delta, 1.0 + delta), max_n=2)
    mu_p, gamma_p = effective_nmvm_segment(spec, 1)
    want = math.exp(-0.5 * (mu_p[0] + gamma_p[0]) ** 2)
    assert u_n(spec, 1) == pytest.approx(want, rel=1e-3)


def test_u_n_constant_mixing_closed_form():
    # Z = 1 exactly: V(h) Gaussian with mean h'(mu'+gamma') and var |h|^2
    spec = decay_spec(mix=Constant(1.0), max_n=4)
    mu_p, gamma_p = effective_nmvm_segment(spec, 3)
    drift = mu_p + gamma_p
    want = math.exp(-0.5 * float(drift @ drift))
    assert u_n(spec, 3) == pytest.approx(want, rel=1e-10)


def test_u_n_truncated_tail_constant():
    spec = decay_spec(
        gamma_seq=lambda i: 0.4 / i if i <= 5 else 0.0,
        mu_seq=lambda i: 0.4 / i if i <= 5 else 0.0,
        beta_seq=lambda i: 0.0,
    )
    base = u_n(spec, 5)
    for n in (6, 9, 16):
        assert u_n(spec, n) == pytest.approx(base, rel=1e-12)


def test_u_n_invariant_under_joint_return_rescaling():
    # scaling a whole return R_i (all four coefficients together) only
    # rescales portfolio weights: the attainable payoffs and U_n are fixed
    def scale(i):
        return 1.0 + 0.5 * (i % 3)

    a = decay_spec()
    b = decay_spec(
        gamma_seq=lambda i: scale(i) * 0.5 / i**1.1,
        mu_seq=lambda i: scale(i) * 0.5 / i**1.1,
        beta_seq=lambda i: scale(i) * 0.3 / i,
        beta_bar_seq=lambda i: scale(i),
    )
    for n in (1, 3, 8, 16):
        assert u_n(a, n) == pytest.approx(u_n(b, n), rel=1e-10)


def test_u_n_depends_on_beta_bar_noise_scaling():
    # pure beta_bar scaling adds noise per unit premium and must lower the
    # attainable utility quality: with one asset and Z = 1,
    # U_1 = exp(-(mu_1 + gamma_1)^2 / (2 beta_bar^2))
    for bb in (1.0, 2.0):
        spec = LargeMarketSpec(
            gamma_seq=[0.5], mu_seq=[0.5], beta_seq=[],
            beta_bar_seq=[bb], mix=Constant(1.0), max_n=1,
        )
        assert u_n(spec, 1) == pytest.approx(math.exp(-0.5 / bb**2), rel=1e-10)


@pytest.mark.parametrize("n", [3, 5])
def test_u_n_against_mc_brute_force(n):
    spec = decay_spec()
    closed = u_n(spec, n)
    mu_p, gamma_p = effective_nmvm_segment(spec, n)
    rng = np.random.Generator(np.random.Philox(key=99))
    draws = 400_000
    z = spec.mix.sample(draws, rng=rng)
    eps = rng.standard_normal((draws, n))
    sq = np.sqrt(z)

    def mc_value(h):
        v = float(h @ mu_p) + float(h @ gamma_p) * z + sq * (eps @ h)
        return np.exp(-v)

    res = sp_minimize(
        lambda h: mc_value(h).mean(),
        np.zeros(n),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 4000},
    )
    draws_at_min = mc_value(res.x)
    se = float(draws_at_min.std() / math.sqrt(draws))
    assert abs(closed - float(draws_at_min.mean())) < 3.0 * se


# ---------------------------------------------------------------------------
# martingale density
# ---------------------------------------------------------------------------


def test_density_one_when_b_zero():
    spec = zero_spec()
    eps = np.array([0.3, -1.2, 0.5, 0.0])
    assert martingale_density(spec, 4, 1.0, eps) == 1.0


def test_density_unit_mean_and_factor_centering():
    spec = decay_spec()
    rng = np.random.Generator(np.random.Philox(key=7))
    draws = 1_000_000
    n = 4
    z = spec.mix.sample(draws, rng=rng)
    eps = rng.standard_normal((draws, n))
    f = martingale_density(spec, n, z, eps)
    se = float(f.std() / math.sqrt(draws))
    assert abs(float(f.mean()) - 1.0) < 3.0 * se

    # E[f eps_i | Z in bin] = E[b_i(Z) | Z in bin]
    for lo, hi in ((0.5, 0.83), (0.95, 1.05), (1.17, 1.5)):
        mask = (z >= lo) & (z <= hi)
        for i in (1, 3):
            vals = f[mask] * eps[mask, i - 1]
            se_b = float(vals.std() / math.sqrt(mask.sum()))
            ref = float(np.mean(b_function(spec, i, z[mask])))
            assert abs(float(vals.mean()) - ref) < 3.0 * se_b


def test_density_second_moment_bounded():
    # sup_n E[(dQ_n/dP)^2] < inf proxy: second moment stable along the sweep
    spec = decay_spec(max_n=128)
    rng = np.random.Generator(np.random.Philox(key=13))
    draws = 200_000
    z = spec.mix.sample(draws, rng=rng)
    eps = rng.standard_normal((draws, 128))
    second = []
    for n in (4, 16, 64, 128):
        f = martingale_density(spec, n, z, eps[:, :n])
        second.append(float((f**2).mean()))
    assert all(v < 50.0 for v in second)
    assert second[-1] - second[0] < 10.0


def test_density_shape_validation():
    spec = decay_spec()
    with pytest.raises(ValueError, match="incompatible"):
        martingale_density(spec, 3, 1.0, np.zeros(5))


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


def test_convergence_zero_spec():
    rows, converged = convergence_study(zero_spec(), [2, 4, 8], tol=1e-4)
    assert all(r.u_n == pytest.approx(1.0, rel=1e-14) for r in rows)
    assert all(
        r.gap_to_double == pytest.approx(0.0, abs=1e-14)
        for r in rows
        if not math.isnan(r.gap_to_double)
    )
    assert converged


def test_convergence_decay_spec():
    spec = decay_spec(max_n=256)
    rows, converged = convergence_study(spec, [4, 8, 16, 32, 64, 128], tol=1e-3)
    u_vals = [r.u_n for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(u_vals, u_vals[1:]))
    assert converged
    # gaps shrink along the sweep
    gaps = [r.gap_to_double for r in rows]
    assert gaps[0] > gaps[-1]
    # d2 tail column populated and decaying
    tails = [r.d2_tail for r in rows]
    assert tails[0] > tails[-1] > 0.0


def test_convergence_validation():
    spec = decay_spec()
    with pytest.raises(ValueError, match="increasing"):
        convergence_study(spec, [4, 4, 8])
    with pytest.raises(ValueError, match="max_n"):
        convergence_study(spec, [4, 8, 1024])


def test_d2_tail_definition():
    spec = decay_spec()
    want = sum(d_coefficient(spec, i) ** 2 for i in range(5, 9))
    assert d2_tail(spec, 4) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# per-asset vectors built once, against the scalar per-index reference
# ---------------------------------------------------------------------------


def reference_segment(spec, n):
    """(mu', gamma') of the first n assets, rebuilt from the raw coefficients."""
    bb1 = spec.beta_bar[0]
    ratio = spec.beta[:n] / spec.beta_bar[:n]
    mu_p = spec.mu[:n] / spec.beta_bar[:n] - ratio * (spec.mu[0] / bb1)
    gamma_p = spec.gamma[:n] / spec.beta_bar[:n] - ratio * (spec.gamma[0] / bb1)
    mu_p[0] = spec.mu[0] / bb1
    gamma_p[0] = spec.gamma[0] / bb1
    return mu_p, gamma_p


def reference_d(spec, i):
    """d_i from b_function at the support's ends and its stationary point."""
    lo, hi = spec.mix.support()
    candidates = [lo, hi]
    mu_p, gamma_p = reference_segment(spec, i)
    a, b = -gamma_p[i - 1], -mu_p[i - 1]
    if a != 0.0:
        z_star = b / a
        if lo < z_star < hi:
            candidates.append(z_star)
    return max(abs(b_function(spec, i, z)) for z in candidates)


def seeded_power_spec(seed, max_n=1024, **overrides):
    rng = np.random.default_rng(seed)
    kg, pg, km, pm, kb, pb = rng.uniform([0.3, 1.05, 0.3, 1.05, 0.1, 0.9], [0.7, 1.3, 0.7, 1.3, 0.4, 1.2])
    kw = dict(
        gamma_seq=lambda i: kg / i**pg,
        mu_seq=lambda i: km / i**pm,
        beta_seq=lambda i: kb / i**pb,
        beta_bar_seq=lambda i: 1.0,
        mix=BoundedUniform(0.5, 1.5),
        max_n=max_n,
    )
    kw.update(overrides)
    return LargeMarketSpec(**kw)


VECTOR_CASES = {
    "distinct-decay": lambda: seeded_power_spec(11),
    "beta-bar-not-one": lambda: seeded_power_spec(12, beta_bar_seq=lambda i: 0.8 + 0.2 * (i % 3)),
    "stationary-inside": lambda: seeded_power_spec(13, mu_seq=lambda i: 0.6 / i**1.1, gamma_seq=lambda i: 0.4 / i**1.1),
}


@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
def test_d_vector_and_tails_equal_scalar_reference(case):
    spec = VECTOR_CASES[case]()
    want = [reference_d(spec, i) for i in range(1, spec.max_n + 1)]
    assert spec.d.tolist() == want
    assert [d_coefficient(spec, i) for i in range(1, spec.max_n + 1)] == want
    for n in range(1, spec.max_n + 1):
        top = min(2 * n, spec.max_n)
        assert d2_tail(spec, n) == float(sum(want[i - 1] ** 2 for i in range(n + 1, top + 1)))
    mu_p, gamma_p = reference_segment(spec, spec.max_n)
    assert spec.mu_p.tolist() == mu_p.tolist() and spec.gamma_p.tolist() == gamma_p.tolist()


def test_vector_cases_cover_the_stationary_point():
    # z* = mu'_i / gamma'_i is inside the support for hundreds of assets in
    # one case and for none in another.  The reference evaluates b_i at z*
    # too, so the exact match above shows that z* never raises d_i: it is
    # where |b_i| is smallest
    def inside(spec):
        lo, hi = spec.mix.support()
        z_star = spec.mu_p / spec.gamma_p
        return int(np.count_nonzero((lo < z_star) & (z_star < hi)))

    assert inside(VECTOR_CASES["stationary-inside"]()) > 500
    assert inside(VECTOR_CASES["distinct-decay"]()) == 0
    assert np.any(VECTOR_CASES["beta-bar-not-one"]().beta_bar != 1.0)


def test_effective_segment_returns_copies():
    spec = decay_spec()
    mu_p, gamma_p = effective_nmvm_segment(spec, 4)
    mu_p[:] = 0.0
    gamma_p[:] = 0.0
    assert effective_nmvm_segment(spec, 4)[0].tolist() == reference_segment(spec, 4)[0].tolist()


def test_d_coefficient_index_check():
    spec = decay_spec(max_n=8)
    for i in (0, 9):
        with pytest.raises(ValueError, match="outside"):
            d_coefficient(spec, i)


def test_spec_and_sweep_never_call_b_function(monkeypatch):
    import nmvmopt.large_market as lm

    def boom(*args, **kwargs):
        raise AssertionError("b_function called")

    monkeypatch.setattr(lm, "b_function", boom)
    spec = decay_spec(max_n=512)
    rows, _ = convergence_study(spec, [4, 16, 64, 256])
    assert all(r.d2_tail > 0.0 for r in rows)
    martingale_density(spec, 8, 1.0, np.zeros(8))


def test_density_matches_per_asset_loop():
    spec = decay_spec(beta_bar_seq=lambda i: 0.9 + 0.05 * i)
    rng = np.random.Generator(np.random.Philox(key=3))
    n, draws = 6, 1000
    z = spec.mix.sample(draws, rng=rng)
    eps = rng.standard_normal((draws, n))
    want = np.zeros(draws)
    for i in range(1, n + 1):
        b = b_function(spec, i, z)
        want += b * eps[:, i - 1] - 0.5 * b * b
    np.testing.assert_allclose(martingale_density(spec, n, z, eps), np.exp(want), rtol=1e-13)
    assert martingale_density(spec, n, z[0], eps[0]) == pytest.approx(math.exp(want[0]), rel=1e-13)
    with pytest.raises(ValueError, match="outside"):
        martingale_density(spec, spec.max_n + 1, 1.0, np.zeros(spec.max_n + 1))


@pytest.mark.parametrize("n", [4, 64, 256, 512])
def test_u_n_is_the_optimum_of_the_original_index_market(n):
    # the paper's reduction: the martingale measure turns the first n assets
    # into an identity-structure NMVM market with the same optimum.  The
    # original market is asset 1 = the index, asset i >= 2 loading beta_i on
    # it plus beta_bar_i on its own noise: A = diag(beta_bar) + beta e_1'.
    # With a = W0 = 1 and r_f = 0, -E[U] = exp(-1) E[exp(-x'R)], so
    # -E[U] e is U_n.
    path = pathlib.Path(__file__).resolve().parent.parent / "specs" / "large_market.json"
    spec, _, _ = parse_large_market(json.loads(path.read_text())["large_market"])
    a_matrix = np.diag(spec.beta_bar[:n])
    a_matrix[:, 0] += spec.beta[:n]
    model = MarketModel(n, 0.0, spec.mu[:n], spec.gamma[:n], a_matrix)
    res = exp_opt.optimize(model, spec.mix, a=1.0, w0=1.0)
    assert -res.optimal_utility * math.e == pytest.approx(u_n(spec, n), rel=1e-12, abs=0.0)
