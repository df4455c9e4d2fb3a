import math

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
from nmvmopt.errors import InvalidMomentOrderError, MixingDomainError
from nmvmopt.mixing import (
    GIG,
    BoundedUniform,
    Constant,
    Exponential,
    bessel_k,
    log_bessel_k,
)

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
    z = g.sample(2_000_000, seed=99)
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


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_constant_sampling():
    assert np.array_equal(Constant(1.0).sample(5, seed=123), np.ones(5))


def test_sampling_deterministic_per_seed():
    for mix in (Exponential(1.0), GIG(0.7, 1.0, 2.0), BoundedUniform(0.5, 1.5)):
        a = mix.sample(64, seed=7)
        b = mix.sample(64, seed=7)
        c = mix.sample(64, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_exponential_sample_mean_lln():
    z = Exponential(1.0).sample(1_000_000, seed=42)
    assert abs(z.mean() - 1.0) < 3.0 / math.sqrt(z.size)


@pytest.mark.parametrize(
    "mix", [GIG(-0.5, 1.0, 1.0), GIG(1.0, 0.5, 2.0), GIG(-2.0, 2.0, 0.5)]
)
def test_gig_sample_moments(mix):
    z = mix.sample(1_000_000, seed=5)
    assert np.all(z > 0)
    se = z.std() / math.sqrt(z.size)
    assert abs(z.mean() - mix.moment(1.0)) < 3.0 * se
    se2 = (z**2).std() / math.sqrt(z.size)
    assert abs((z**2).mean() - mix.moment(2.0)) < 4.0 * se2


def test_sample_count_validation():
    with pytest.raises(ValueError):
        Exponential(1.0).sample(0, seed=1)


# ---------------------------------------------------------------------------
# Bessel K
# ---------------------------------------------------------------------------


def test_bessel_half_order_closed_form():
    assert bessel_k(0.5, 2.0) == pytest.approx(
        math.sqrt(math.pi / 4.0) * math.exp(-2.0), rel=1e-12
    )


def test_bessel_symmetry():
    for lam, x in ((0.5, 2.0), (1.3, 0.8), (2.7, 4.0)):
        assert bessel_k(lam, x) == bessel_k(-lam, x)


def test_bessel_against_integral_representation():
    for lam, x in ((1.3, 0.8), (0.0, 1.0), (2.0, 3.5), (-0.7, 0.4)):
        assert bessel_k(lam, x) == pytest.approx(bessel_quad(lam, x), rel=1e-9)


def test_bessel_frozen_oracle_value():
    # frozen from the integral-representation quadrature oracle
    assert bessel_k(1.3, 0.8) == pytest.approx(1.1380019853259997, rel=1e-9)


@given(
    lam=st.floats(-3.0, 3.0),
    x=st.floats(0.05, 30.0),
)
@settings(max_examples=200, deadline=None)
def test_bessel_recurrence(lam, x):
    lhs = bessel_k(lam + 1.0, x)
    rhs = bessel_k(lam - 1.0, x) + (2.0 * lam / x) * bessel_k(lam, x)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_bessel_domain_error():
    with pytest.raises(MixingDomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(MixingDomainError):
        bessel_k(1.0, -2.0)


def test_log_bessel_large_argument():
    # log-space variant stays finite where kv underflows
    assert math.isfinite(log_bessel_k(1.3, 800.0))
    assert log_bessel_k(0.5, 800.0) == pytest.approx(
        0.5 * math.log(math.pi / (2.0 * 800.0)) - 800.0, rel=1e-12
    )
