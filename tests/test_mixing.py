import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bessel_quad,
    exponential_quad_central,
    gig_quad_central,
    gig_quad_laplace,
    gig_quad_laplace_deriv,
    gig_quad_moment,
    uniform_quad_central,
)
from nmvmopt import exp_opt, mixing
from nmvmopt.errors import InvalidMomentOrderError, MixingDomainError
from nmvmopt.mixing import (
    GIG,
    BoundedUniform,
    Constant,
    Exponential,
    log_bessel_k,
)
from nmvmopt.model import MarketModel

ALL_FAMILIES = [
    Constant(1.0),
    Constant(2.5),
    Exponential(1.0),
    Exponential(0.7),
    GIG(-0.5, 1.0, 1.0),
    GIG(1.0, 0.5, 2.0),
    GIG(2.0, 2.0, 0.5),
    BoundedUniform(0.5, 1.5),
    BoundedUniform(0.2, 0.9),
]


def _ids(families):
    return [repr(f) for f in families]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Constant(0.0),
        lambda: Constant(-1.0),
        lambda: Exponential(0.0),
        lambda: Exponential(-0.3),
        lambda: GIG(0.5, 0.0, 1.0),
        lambda: GIG(0.5, 1.0, -1.0),
        lambda: BoundedUniform(0.0, 1.0),
        lambda: BoundedUniform(1.0, 1.0),
        lambda: BoundedUniform(1.5, 0.5),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


# ---------------------------------------------------------------------------
# Laplace transform
# ---------------------------------------------------------------------------


def test_laplace_spot_values():
    assert Constant(1.0).laplace(0.0) == 1.0
    assert Exponential(1.0).laplace(1.0) == pytest.approx(0.5, abs=1e-15)
    bu = BoundedUniform(0.5, 1.5)
    s = 2.3
    direct = (math.exp(-s * 0.5) - math.exp(-s * 1.5)) / (s * 1.0)
    assert bu.laplace(s) == pytest.approx(direct, rel=1e-13)


def test_s_lower_bound():
    assert Exponential(1.0).s_lower_bound == -1.0
    assert GIG(0.3, 1.0, 2.0).s_lower_bound == -1.0
    assert Constant(1.0).s_lower_bound == -math.inf
    assert BoundedUniform(0.5, 1.5).s_lower_bound == -math.inf


@pytest.mark.parametrize("mix", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
def test_laplace_at_zero_is_one(mix):
    assert mix.laplace(0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mix", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
def test_laplace_positive_and_nonincreasing_on_grid(mix):
    s0 = mix.s_lower_bound
    lo = s0 + 1e-3 if math.isfinite(s0) else -10.0
    grid = np.linspace(lo, 10.0, 200)
    vals = [mix.laplace(s) for s in grid]
    assert all(0.0 < v < math.inf for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("mix", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
def test_laplace_domain_error(mix):
    s0 = mix.s_lower_bound
    if math.isfinite(s0):
        with pytest.raises(MixingDomainError):
            mix.laplace(s0)
        with pytest.raises(MixingDomainError):
            mix.laplace(s0 - 0.5)


@pytest.mark.parametrize("mix", [Exponential(1.0), GIG(1.0, 0.5, 2.0)])
def test_laplace_diverges_at_finite_boundary(mix):
    # families whose transform genuinely blows up at s0
    s0 = mix.s_lower_bound
    assert mix.laplace(s0 + 1e-8) > 1e6
    seq = [mix.laplace(s0 + 10.0**-k) for k in range(2, 8)]
    assert all(a < b for a, b in zip(seq, seq[1:]))


@given(
    u1=st.floats(0.0, 1.0),
    u2=st.floats(0.0, 1.0),
    idx=st.integers(0, len(ALL_FAMILIES) - 1),
)
@settings(max_examples=200, deadline=None)
def test_laplace_monotone_property(u1, u2, idx):
    mix = ALL_FAMILIES[idx]
    s0 = mix.s_lower_bound
    left = s0 + 0.05 if math.isfinite(s0) else -10.0
    s1, s2 = (left + u * (10.0 - left) for u in (u1, u2))
    lo, hi = min(s1, s2), max(s1, s2)
    assert mix.laplace(lo) >= mix.laplace(hi) - 1e-12


@pytest.mark.parametrize("mix", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
def test_laplace_deriv_matches_finite_difference(mix):
    s0 = mix.s_lower_bound
    lo = s0 + 0.2 if math.isfinite(s0) else -2.0
    for s in np.linspace(lo, 5.0, 23):
        h = 1e-6 * max(1.0, abs(s))
        fd = (mix.laplace(s + h) - mix.laplace(s - h)) / (2.0 * h)
        assert mix.laplace_deriv(s) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("mix", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
def test_laplace_deriv_nonpositive(mix):
    s0 = mix.s_lower_bound
    lo = s0 + 1e-2 if math.isfinite(s0) else -8.0
    for s in np.linspace(lo, 8.0, 50):
        assert mix.laplace_deriv(s) <= 0.0


def test_laplace_deriv_spot_values():
    assert Constant(1.0).laplace_deriv(0.0) == pytest.approx(-1.0, abs=1e-14)
    assert Exponential(1.0).laplace_deriv(1.0) == pytest.approx(-0.25, abs=1e-14)


def test_log_laplace_consistent_with_laplace():
    g = GIG(1.0, 0.5, 2.0)
    for s in (-0.9, -0.5, 0.0, 3.0, 50.0):
        assert g.log_laplace(s) == pytest.approx(math.log(g.laplace(s)), abs=1e-12)
        assert g.laplace_log_deriv(s) == pytest.approx(
            g.laplace_deriv(s) / g.laplace(s), rel=1e-10
        )


# ---------------------------------------------------------------------------
# GIG against quadrature (oracle-first values)
# ---------------------------------------------------------------------------


def test_gig_laplace_frozen_oracle_value():
    # frozen from the quadrature oracle
    assert GIG(-0.5, 1.0, 1.0).laplace(0.7) == pytest.approx(
        0.5774154013516931, rel=1e-10
    )


def test_gig_laplace_deriv_frozen_oracle_value():
    assert GIG(-0.5, 1.0, 1.0).laplace_deriv(0.5) == pytest.approx(
        -0.46729844698836304, rel=1e-9
    )


def test_gig_moment_frozen_oracle_value():
    assert GIG(-0.5, 1.0, 1.0).moment(1.0) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.7, 2.0])
@pytest.mark.parametrize("chi", [0.5, 1.0, 2.0])
def test_gig_laplace_matches_quadrature(lam, chi):
    psi = 1.0
    g = GIG(lam, chi, psi)
    for s in (-0.35, 0.0, 0.8, 3.0):
        assert g.laplace(s) == pytest.approx(
            gig_quad_laplace(lam, chi, psi, s), rel=1e-8
        )


def test_gig_laplace_deriv_matches_quadrature():
    g = GIG(0.7, 2.0, 0.5)
    for s in (-0.2, 0.0, 1.5):
        assert g.laplace_deriv(s) == pytest.approx(
            gig_quad_laplace_deriv(0.7, 2.0, 0.5, s), rel=1e-7
        )


@pytest.mark.parametrize("mix", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
def test_moments_match_quadrature_or_formula(mix):
    for r in (0.5, 1.0, 2.0, 3.0, 4.0):
        m = mix.moment(r)
        if isinstance(mix, GIG):
            ref = gig_quad_moment(mix.lam, mix.chi, mix.psi, r)
        elif isinstance(mix, Constant):
            ref = mix.value**r
        elif isinstance(mix, Exponential):
            ref = math.gamma(1.0 + r) / mix.rate**r
        else:
            c, d = mix.low, mix.high
            ref = (d ** (r + 1) - c ** (r + 1)) / ((r + 1) * (d - c))
        assert m == pytest.approx(ref, rel=1e-7)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moment_spot_values():
    assert Exponential(1.0).moment(2.0) == pytest.approx(2.0, rel=1e-14)
    assert Constant(3.0).moment(2.0) == pytest.approx(9.0, rel=1e-14)


def test_exponential_moment_divergence():
    with pytest.raises(InvalidMomentOrderError):
        Exponential(1.0).moment(-1.5)


@pytest.mark.parametrize("mix", ALL_FAMILIES, ids=_ids(ALL_FAMILIES))
def test_mixed_central_moment_identities(mix):
    assert mix.mixed_central_moment(0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert mix.mixed_central_moment(1, 0.0) == pytest.approx(0.0, abs=1e-10)
    assert mix.mixed_central_moment(2, 0.0) == pytest.approx(mix.variance, rel=1e-10)


def test_mixed_central_moment_spot_values():
    assert Exponential(1.0).mixed_central_moment(2, 0.0) == pytest.approx(1.0, rel=1e-12)
    for i in (1, 2, 3):
        assert Constant(2.0).mixed_central_moment(i, 1.5) == pytest.approx(0.0, abs=1e-10)


def test_mixed_central_moment_against_sampling():
    g = GIG(-0.5, 1.0, 1.0)
    z = g.sample(2_000_000, np.random.Generator(np.random.Philox(key=99)))
    for i, p in ((2, 1.0), (3, 0.5)):
        target = g.mixed_central_moment(i, p)
        emp = (z - g.mean) ** i * z**p
        assert abs(emp.mean() - target) < 4.0 * emp.std() / math.sqrt(z.size)


def test_bounded_uniform_narrow_even_moments():
    # the binomial expansion of (Z - EZ)^8 cancels to the wrong sign here
    assert BoundedUniform(5.0, 5.2).mixed_central_moment(8, 0.0) == pytest.approx(
        0.1**8 / 9.0, rel=1e-12
    )
    assert BoundedUniform(0.99, 1.01).mixed_central_moment(8, 0.0) == pytest.approx(
        0.01**8 / 9.0, rel=1e-12
    )


def test_gig_subnormal_lambda_is_zero():
    # scipy's kve returns nan at subnormal orders
    assert GIG(5e-324, 1.0, 0.1).mean == GIG(0.0, 1.0, 0.1).mean


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


_LAWS = st.one_of(
    st.builds(Constant, _log_uniform(0.05, 20.0)),
    st.builds(Exponential, _log_uniform(0.05, 20.0)),
    st.builds(GIG, st.floats(-3.0, 3.0), _log_uniform(0.05, 1e5), _log_uniform(0.05, 1e5)),
    st.builds(
        lambda low, width: BoundedUniform(low, low * (1.0 + width)),
        _log_uniform(1e-3, 10.0),
        _log_uniform(1e-3, 10.0),
    ),
)


def _central_oracle(mix, i, p):
    if isinstance(mix, Constant):
        return mix.value**p if i == 0 else 0.0
    if isinstance(mix, Exponential):
        return exponential_quad_central(mix.rate, i, p)
    if isinstance(mix, GIG):
        return gig_quad_central(mix.lam, mix.chi, mix.psi, i, p)
    return uniform_quad_central(mix.low, mix.high, i, p)


@given(
    mix=_LAWS,
    i=st.sampled_from([2, 4, 6, 8]),
    p=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=200, deadline=None)
def test_even_central_moments_nonnegative_and_match_quadrature(mix, i, p):
    got = mix.mixed_central_moment(i, p)
    assert got >= 0.0
    assert got == pytest.approx(_central_oracle(mix, i, p), rel=1e-8, abs=0.0)


VARIANCE_LAWS = [
    Constant(2.5),
    Exponential(0.7),
    GIG(-0.5, 1.0, 1.0),
    GIG(2.0, 2.0, 0.5),
    GIG(0.5, 1e4, 1e4),
    GIG(-2.0, 1e5, 1e3),
    BoundedUniform(0.5, 1.5),
    BoundedUniform(0.99, 1.01),
]


@pytest.mark.parametrize("mix", VARIANCE_LAWS, ids=_ids(VARIANCE_LAWS))
def test_variance_is_centered_and_matches_quadrature(mix):
    # moment(2) - mean^2 loses up to 2.7e-11 relative on these laws
    assert mix.variance == pytest.approx(_central_oracle(mix, 2, 0.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("low,high", [(0.99, 1.01), (0.5, 1.5), (5.0, 5.2), (1e-3, 2e-3)])
def test_bounded_uniform_variance_closed_form(low, high):
    assert BoundedUniform(low, high).variance == pytest.approx((high - low) ** 2 / 12.0, rel=1e-14)


@pytest.mark.parametrize(
    "i,exact", [(2, 1.00000002e-8), (3, 3.00000008e-16), (4, 3.000000270000006e-16)]
)
def test_gig_central_moments_of_a_concentrated_law(i, exact):
    # E[Z^k] of GIG(1/2, w, w) is a polynomial in 1/w, so its central
    # moments are known: 1/w + 2/w^2, 3/w^2 + 8/w^3, 3/w^2 + 27/w^3 + ...
    # At w = 1e8 the peak is 1e-4 wide; the oracle must integrate it
    # without an IntegrationWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = gig_quad_central(0.5, 1e8, 1e8, i, 0.0)
    assert ref == pytest.approx(exact, rel=1e-10)
    assert GIG(0.5, 1e8, 1e8).mixed_central_moment(i, 0.0) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("lam", [150.0, -150.0, 200.0, -200.0])
def test_gig_moments_at_large_order(lam):
    # kve(lam, 1) overflows here; the Bessel ratio is taken in log space
    g = GIG(lam, 1.0, 1.0)
    assert g.mean == pytest.approx(gig_quad_central(lam, 1.0, 1.0, 0, 1.0), rel=1e-9)
    assert g.moment(-1.5) == pytest.approx(gig_quad_central(lam, 1.0, 1.0, 0, -1.5), rel=1e-9)
    assert g.variance == pytest.approx(gig_quad_central(lam, 1.0, 1.0, 2, 0.0), rel=1e-9)
    assert g.log_laplace(0.0) == pytest.approx(0.0, abs=1e-12)
    h = 1e-5
    slope = (g.log_laplace(0.3 + h) - g.log_laplace(0.3 - h)) / (2.0 * h)
    assert g.laplace_log_deriv(0.3) == pytest.approx(slope, rel=1e-6)


@pytest.mark.parametrize("lam", [150.0, -150.0, 200.0, -200.0])
def test_gig_large_order_matches_mode_shifted_oracles(lam):
    # the unshifted quadrature integrands overflowed here; the oracles now
    # integrate in log space around each integrand's mode
    g = GIG(lam, 1.0, 1.0)
    for r in (-1.5, 0.5, 1.0, 2.0):
        assert g.moment(r) == pytest.approx(gig_quad_moment(lam, 1.0, 1.0, r), rel=1e-11)
    for s in (-0.3, 0.0, 0.3, 1.0):
        assert g.laplace(s) == pytest.approx(gig_quad_laplace(lam, 1.0, 1.0, s), rel=1e-11)
        assert g.laplace_deriv(s) == pytest.approx(
            gig_quad_laplace_deriv(lam, 1.0, 1.0, s), rel=1e-11
        )


@pytest.mark.parametrize("lam,chi,psi", [(-0.5, 1.0, 1.0), (0.7, 2.0, 0.5), (3.0, 0.2, 4.0),
                                         (200.0, 1.0, 1.0), (-150.0, 1.0, 1.0)])
def test_gig_log_laplace_is_the_two_bessel_formula_to_the_bit(lam, chi, psi):
    # the normaliser log K_lam(omega) is computed once per law; every probe
    # keeps the value of the formula that evaluates it each time
    g = GIG(lam, chi, psi)
    omega = math.sqrt(chi * psi)
    if abs(lam) >= 150.0:  # kve overflows: log_bessel_k takes its quadrature branch
        assert math.isinf(mixing._special().kve(lam, omega))
    for s in [0.0] + np.linspace(-0.499 * psi, 4.0, 25).tolist():
        u = psi + 2.0 * s
        ref = (
            0.5 * lam * (math.log(psi) - math.log(u))
            + log_bessel_k(lam, math.sqrt(chi * u))
            - log_bessel_k(lam, omega)
        )
        assert g.log_laplace(s) == ref


@pytest.mark.parametrize("lam", np.linspace(-6.0, 6.0, 25).tolist() + [150.0, 200.0, -180.0])
def test_log_bessel_k_is_the_array_formula_to_the_bit(lam):
    # one scalar call equals the same ufuncs over an array of arguments, with
    # quadrature where kve overflows
    xs = np.array(np.geomspace(1e-3, 1e3, 61).tolist() + [0.3 * k for k in range(1, 20)])
    want = np.log(mixing._special().kve(lam, xs)) - xs
    overflow = np.isinf(want)
    want[overflow] = [mixing._log_bessel_k_quad(lam, x) for x in xs[overflow].tolist()]
    if abs(lam) >= 150.0:
        assert overflow.any()
    for x, w in zip(xs.tolist(), want.tolist()):
        assert log_bessel_k(lam, x) == w
        assert log_bessel_k(lam, np.float64(x)) == w


def test_gig_exp_opt_evaluates_the_normaliser_once(monkeypatch):
    counts = {"bessel": 0, "log_laplace": 0}
    bessel, log_laplace = mixing.log_bessel_k, mixing.MixingDistribution.log_laplace

    def counting_bessel(*args):
        counts["bessel"] += 1
        return bessel(*args)

    def counting_log_laplace(self, s):
        counts["log_laplace"] += 1
        return log_laplace(self, s)

    monkeypatch.setattr(mixing, "log_bessel_k", counting_bessel)
    monkeypatch.setattr(mixing.MixingDistribution, "log_laplace", counting_log_laplace)
    model = MarketModel(n=2, r_f=0.0, mu=[0.05, 0.07], gamma=[0.03, -0.02],
                        a_matrix=[[0.2, 0.0], [0.04, 0.18]])
    exp_opt.optimize(model, GIG(-0.5, 1.0, 1.0), a=1.5, w0=1.0)
    assert counts["log_laplace"] > 10
    assert counts["bessel"] == counts["log_laplace"] + 1


def test_log_bessel_quadrature_route():
    # the quadrature route agrees with kve where kve is finite ...
    for lam, x in ((140.0, 1.0), (50.0, 0.1), (0.0, 1.0), (0.5, 3.0), (20.0, 30.0), (2.0, 1e-3)):
        assert mixing._log_bessel_k_quad(lam, x) == pytest.approx(log_bessel_k(lam, x), rel=1e-13, abs=1e-13)
    # ... and keeps the recurrence K_{v+1} = K_{v-1} + (2v/x) K_v where it overflows
    for v in (150.0, 200.0):
        lk = {o: log_bessel_k(o, 1.0) for o in (v - 1.0, v, v + 1.0)}
        assert math.isfinite(lk[v])
        up = math.exp(lk[v + 1.0] - lk[v])
        assert up == pytest.approx(math.exp(lk[v - 1.0] - lk[v]) + 2.0 * v, rel=1e-11)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_constant_sampling():
    assert np.array_equal(Constant(1.0).sample(5, np.random.Generator(np.random.Philox(key=123))), np.ones(5))


def test_sampling_deterministic_per_seed():
    for mix in (Exponential(1.0), GIG(0.7, 1.0, 2.0), BoundedUniform(0.5, 1.5)):
        a = mix.sample(64, np.random.Generator(np.random.Philox(key=7)))
        b = mix.sample(64, np.random.Generator(np.random.Philox(key=7)))
        c = mix.sample(64, np.random.Generator(np.random.Philox(key=8)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_exponential_sample_mean_lln():
    z = Exponential(1.0).sample(1_000_000, np.random.Generator(np.random.Philox(key=42)))
    assert abs(z.mean() - 1.0) < 3.0 / math.sqrt(z.size)


@pytest.mark.parametrize(
    "mix", [GIG(-0.5, 1.0, 1.0), GIG(1.0, 0.5, 2.0), GIG(-2.0, 2.0, 0.5)]
)
def test_gig_sample_moments(mix):
    z = mix.sample(1_000_000, np.random.Generator(np.random.Philox(key=5)))
    assert np.all(z > 0)
    se = z.std() / math.sqrt(z.size)
    assert abs(z.mean() - mix.moment(1.0)) < 3.0 * se
    se2 = (z**2).std() / math.sqrt(z.size)
    assert abs((z**2).mean() - mix.moment(2.0)) < 4.0 * se2


@pytest.mark.parametrize(
    # the sampler's cut points take a different formula when the envelope
    # exponent at +-1 is above 2 (GIG(0, 5, 5)) or below 1/2, with lambda = 0
    # (GIG(0, 0.3, 0.3)) and lambda > 0 (GIG(0.3, 0.2, 0.2))
    "mix", [GIG(0.0, 5.0, 5.0), GIG(0.0, 0.3, 0.3), GIG(0.3, 0.2, 0.2)]
)
def test_gig_sample_moments_beyond_the_unit_cut_points(mix):
    z = mix.sample(400_000, np.random.Generator(np.random.Philox(key=7)))
    assert np.all(z > 0)
    assert abs(z.mean() - mix.mean) < 5.0 * z.std() / math.sqrt(z.size)
    dev2 = (z - z.mean()) ** 2
    assert abs(z.var(ddof=1) - mix.variance) < 5.0 * dev2.std() / math.sqrt(z.size)


def test_sample_count_validation():
    with pytest.raises(ValueError):
        Exponential(1.0).sample(0, np.random.Generator(np.random.Philox(key=1)))


# ---------------------------------------------------------------------------
# Bessel K
# ---------------------------------------------------------------------------


def test_bessel_half_order_closed_form():
    assert math.exp(log_bessel_k(0.5, 2.0)) == pytest.approx(
        math.sqrt(math.pi / 4.0) * math.exp(-2.0), rel=1e-12
    )


def test_bessel_symmetry():
    for lam, x in ((0.5, 2.0), (1.3, 0.8), (2.7, 4.0)):
        assert math.exp(log_bessel_k(lam, x)) == math.exp(log_bessel_k(-lam, x))


def test_bessel_against_integral_representation():
    for lam, x in ((1.3, 0.8), (0.0, 1.0), (2.0, 3.5), (-0.7, 0.4)):
        assert math.exp(log_bessel_k(lam, x)) == pytest.approx(bessel_quad(lam, x), rel=1e-9)


def test_bessel_frozen_oracle_value():
    # frozen from the integral-representation quadrature oracle
    assert math.exp(log_bessel_k(1.3, 0.8)) == pytest.approx(1.1380019853259997, rel=1e-9)


@given(
    lam=st.floats(-3.0, 3.0),
    x=st.floats(0.05, 30.0),
)
@settings(max_examples=200, deadline=None)
def test_bessel_recurrence(lam, x):
    lhs = math.exp(log_bessel_k(lam + 1.0, x))
    rhs = math.exp(log_bessel_k(lam - 1.0, x)) + (2.0 * lam / x) * math.exp(log_bessel_k(lam, x))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_bessel_domain_error():
    with pytest.raises(MixingDomainError):
        log_bessel_k(1.0, 0.0)
    with pytest.raises(MixingDomainError):
        log_bessel_k(1.0, -2.0)


def test_log_bessel_large_argument():
    # log-space variant stays finite where kv underflows
    assert math.isfinite(log_bessel_k(1.3, 800.0))
    assert log_bessel_k(0.5, 800.0) == pytest.approx(
        0.5 * math.log(math.pi / (2.0 * 800.0)) - 800.0, rel=1e-12
    )
