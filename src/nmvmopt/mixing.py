"""Mixing distributions for normal mean-variance mixture models.

A mixing distribution is a positive scalar random variable Z that drives
both the variance scaling and the skewness of the return vector.  Each
family here exposes a Laplace transform E[exp(-s Z)] (finite for
s > s_lower_bound), its derivative, raw moments E[Z^r], mixed central
moments E[(Z-EZ)^i Z^p], and sampling from a given generator.

Families:

- ``Constant(value)``        degenerate Z = value (Gaussian returns)
- ``Exponential(rate)``      Z ~ Exp(rate)
- ``GIG(lam, chi, psi)``     generalized inverse Gaussian
- ``BoundedUniform(low, high)``  Z ~ Uniform[low, high] (bounded support,
  used by the large-market model)

All Laplace evaluations are carried in log space internally so they stay
usable close to the finiteness boundary.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMomentOrderError, MixingDomainError

__all__ = [
    "MixingDistribution",
    "Constant",
    "Exponential",
    "GIG",
    "BoundedUniform",
    "log_bessel_k",
]


@functools.cache
def _special():
    """scipy.special, imported on first use: it adds about 0.35 s to
    start-up, and only GIG laws and Exponential moments need it."""
    import scipy.special

    return scipy.special


def log_bessel_k(lam: float, x: float) -> float:
    """log K_lam(x) via the exponentially scaled Bessel function, or by
    quadrature where that overflows (large |lam| against x).

    np.log, not math.log: the two differ in the last bit on some kve values.
    """
    if x <= 0.0:
        raise MixingDomainError(f"log_bessel_k requires x > 0, got {x}")
    out = float(np.log(_special().kve(lam, x)) - x)
    return _log_bessel_k_quad(lam, float(x)) if math.isinf(out) else out


def _log_bessel_k_quad(lam: float, x: float) -> float:
    """log K_lam(x) from K_lam(x) = int_0^inf exp(-x cosh t) cosh(lam t) dt.

    The exponent |lam| t - x cosh t is concave with its peak at
    t0 = asinh(|lam|/x) and curvature at least c = hypot(x, lam) beyond it,
    so the integrand is below exp(-800) of its peak past t0 + 40/sqrt(c).
    """
    # imported here: scipy.integrate slows every start-up, and only orders
    # where kve overflows get here
    from scipy.integrate import quad

    nu = abs(lam)
    t0 = math.asinh(nu / x)
    top = nu * t0 - x * math.cosh(t0)
    width = 40.0 / math.sqrt(math.hypot(x, nu))

    def f(t):
        return math.exp(nu * t - x * math.cosh(t) - top) * 0.5 * (1.0 + math.exp(-2.0 * nu * t))

    cuts = sorted({0.0, max(0.0, t0 - width), t0, t0 + width})
    total = sum(
        quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(cuts, cuts[1:])
    )
    return top + math.log(total)


def _bessel_ratio(lam: float, r: float, x: float) -> float:
    """K_{lam+r}(x) / K_lam(x), in log space where either one overflows."""
    kve = _special().kve
    num, den = kve(lam + r, x), kve(lam, x)
    if math.isinf(num) or math.isinf(den):
        return math.exp(log_bessel_k(lam + r, x) - log_bessel_k(lam, x))
    return num / den


# GIG moments fall back to quadrature once the binomial expansion's terms
# exceed its sum by this factor (about four of sixteen digits lost).
_CANCELLATION_LIMIT = 1e4


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """24-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(24)


class MixingDistribution:
    """Base class; concrete families implement the log-space primitives."""

    # -- Laplace transform ------------------------------------------------

    @property
    def s_lower_bound(self) -> float:
        """Largest s0 with E[exp(-s Z)] finite for all s > s0 (may be -inf)."""
        raise NotImplementedError

    def _check_domain(self, s: float) -> None:
        if not s > self.s_lower_bound:
            raise MixingDomainError(
                f"Laplace argument s={s} not above lower bound "
                f"s0={self.s_lower_bound} for {self!r}"
            )

    def log_laplace(self, s: float) -> float:
        """log E[exp(-s Z)]; raises MixingDomainError at or below s0."""
        self._check_domain(s)
        return self._log_laplace(s)

    def laplace(self, s: float) -> float:
        """E[exp(-s Z)].  May overflow to +inf very close to s0."""
        self._check_domain(s)
        return float(np.exp(self._log_laplace(s)))

    def laplace_deriv(self, s: float) -> float:
        """d/ds E[exp(-s Z)] = -E[Z exp(-s Z)], as (log L)'(s) L(s)."""
        self._check_domain(s)
        return self._laplace_log_deriv(s) * math.exp(self._log_laplace(s))

    def laplace_log_deriv(self, s: float) -> float:
        """d/ds log E[exp(-s Z)] (stable even where laplace overflows)."""
        self._check_domain(s)
        return self._laplace_log_deriv(s)

    def _log_laplace(self, s: float) -> float:
        raise NotImplementedError

    def _laplace_log_deriv(self, s: float) -> float:
        raise NotImplementedError

    # -- moments -----------------------------------------------------------

    def moment(self, r: float) -> float:
        """Raw moment E[Z^r]."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.moment(1.0)

    @property
    def variance(self) -> float:
        return self.mixed_central_moment(2, 0.0)

    def mixed_central_moment(self, i: int, p: float) -> float:
        """E[(Z - EZ)^i Z^p]; by default the binomial expansion of (Z - EZ)^i."""
        if i < 0:
            raise InvalidMomentOrderError(f"central power i={i} must be >= 0")
        return self._mixed_central(i, p)

    def _mixed_central(self, i: int, p: float) -> float:
        return self._binomial_central(i, p)[0]

    def _binomial_central(self, i: int, p: float) -> tuple[float, float]:
        """(binomial expansion of E[(Z - EZ)^i Z^p], sum of |terms|); the
        ratio of the two bounds the digits lost to cancellation."""
        mean = self.mean
        total = 0.0
        size = 0.0
        for j in range(i + 1):
            term = math.comb(i, j) * self.moment(p + j) * (-mean) ** (i - j)
            total += term
            size += abs(term)
        return total, size

    # -- sampling ----------------------------------------------------------

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` variates from ``rng``."""
        if count < 1:
            raise ValueError(f"count={count} must be >= 1")
        return self._sample(rng, count)

    def _sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """(lower, upper) bounds of the support; upper may be +inf."""
        raise NotImplementedError


@dataclass(frozen=True, repr=True)
class Constant(MixingDistribution):
    """Degenerate mixing Z = value; the NMVM collapses to a Gaussian."""

    value: float

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise ValueError(f"Constant mixing requires a finite value > 0, got {self.value}")

    @property
    def s_lower_bound(self) -> float:
        return -math.inf

    def _log_laplace(self, s):
        return -s * self.value

    def _laplace_log_deriv(self, s):
        return -self.value

    def moment(self, r):
        return self.value**r

    def _mixed_central(self, i, p):
        return self.value**p if i == 0 else 0.0

    def _sample(self, rng, count):
        return np.full(count, self.value, dtype=float)

    def support(self):
        return (self.value, self.value)


@dataclass(frozen=True, repr=True)
class Exponential(MixingDistribution):
    """Z ~ Exp(rate); Laplace transform rate/(rate+s) for s > -rate."""

    rate: float = 1.0

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(f"Exponential mixing requires a finite rate > 0, got {self.rate}")

    @property
    def s_lower_bound(self) -> float:
        return -self.rate

    def _log_laplace(self, s):
        return -math.log1p(s / self.rate)

    def _laplace_log_deriv(self, s):
        return -1.0 / (self.rate + s)

    def moment(self, r):
        if r <= -1:
            raise InvalidMomentOrderError(
                f"E[Z^r] diverges for Exponential when r <= -1 (r={r})"
            )
        return math.exp(_special().gammaln(1.0 + r) - r * math.log(self.rate))

    def _sample(self, rng, count):
        return rng.exponential(scale=1.0 / self.rate, size=count)

    def support(self):
        return (0.0, math.inf)


@dataclass(frozen=True, repr=True)
class GIG(MixingDistribution):
    """Generalized inverse Gaussian with density proportional to
    z^(lam-1) exp(-(chi/z + psi*z)/2) on z > 0 (chi > 0, psi > 0).

    Laplace transform: (psi/(psi+2s))^(lam/2) * K_lam(sqrt(chi*(psi+2s)))
    / K_lam(sqrt(chi*psi)), finite for s > -psi/2.
    """

    lam: float
    chi: float
    psi: float

    def __post_init__(self):
        if not (0 < self.chi < math.inf and 0 < self.psi < math.inf):
            raise ValueError(
                f"GIG requires finite chi > 0 and psi > 0, got chi={self.chi}, psi={self.psi}"
            )
        if not math.isfinite(self.lam):
            raise ValueError(f"GIG requires a finite lam, got {self.lam}")
        if abs(self.lam) < sys.float_info.min:
            # scipy's kve returns nan/inf at subnormal orders; K is smooth
            # in the order, so such a lam is 0
            object.__setattr__(self, "lam", 0.0)

    @property
    def s_lower_bound(self) -> float:
        return -self.psi / 2.0

    @property
    def _omega(self) -> float:
        return math.sqrt(self.chi * self.psi)

    @functools.cached_property
    def _log_bessel_k_omega(self) -> float:
        """log K_lam(omega), the Laplace transform's normaliser: one
        evaluation per law, not one per probe."""
        return log_bessel_k(self.lam, self._omega)

    def _log_laplace(self, s):
        u = self.psi + 2.0 * s
        return (
            0.5 * self.lam * (math.log(self.psi) - math.log(u))
            + log_bessel_k(self.lam, math.sqrt(self.chi * u))
            - self._log_bessel_k_omega
        )

    def _laplace_log_deriv(self, s):
        # Exponential tilt of GIG(lam, chi, psi) by exp(-sz) is
        # GIG(lam, chi, psi+2s), so L'(s)/L(s) = -E_tilted[Z].
        u = self.psi + 2.0 * s
        x = math.sqrt(self.chi * u)
        return -math.sqrt(self.chi / u) * _bessel_ratio(self.lam, 1.0, x)

    def moment(self, r):
        w = self._omega
        return math.exp(
            math.log(_bessel_ratio(self.lam, r, w))
            + 0.5 * r * (math.log(self.chi) - math.log(self.psi))
        )

    def _mixed_central(self, i, p):
        """Binomial expansion, or, for a concentrated law (sd < EZ/4) where
        the expansion cancels, quadrature over a window of +-40 sd."""
        total, size = self._binomial_central(i, p)
        if size <= _CANCELLATION_LIMIT * abs(total):
            return total
        # a rough variance picks the path and the window; self.variance
        # would come back here
        mean = self.mean
        var = self.moment(2.0) - mean * mean
        if 16.0 * var > mean * mean:
            return total
        # imported here: scipy.integrate would add about half a second and
        # 4 MB to every start-up, for a path only concentrated laws take
        from scipy.integrate import quad

        # Z = eta X with X ~ GIG(lam, omega, omega), whose density is
        # proportional to x^(lam-1) exp(-omega (x-1)^2 / (2x))
        eta = math.sqrt(self.chi / self.psi)
        w, lam = self._omega, self.lam
        mx, spread = mean / eta, 40.0 * math.sqrt(var) / eta

        def log_weight(x):
            return (lam - 1.0) * math.log(x) - 0.5 * w * (x - 1.0) ** 2 / x

        top = log_weight(mx)

        def weighted(f):
            def g(x):
                return f(x) * math.exp(log_weight(x) - top) if x > 0.0 else 0.0

            return sum(
                quad(g, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                for a, b in ((max(0.0, mx - spread), mx), (mx, mx + spread))
            )

        num = weighted(lambda x: (x - mx) ** i * x**p)
        return eta ** (i + p) * num / weighted(lambda x: 1.0)

    def _sample(self, rng, count):
        return _sample_gig(rng, count, self.lam, self.chi, self.psi)

    def support(self):
        return (0.0, math.inf)


@dataclass(frozen=True, repr=True)
class BoundedUniform(MixingDistribution):
    """Z ~ Uniform[low, high] with 0 < low < high: bounded mixing support."""

    low: float
    high: float

    def __post_init__(self):
        if not 0 < self.low < self.high < math.inf:
            raise ValueError(
                f"BoundedUniform requires 0 < low < high < inf, got ({self.low}, {self.high})"
            )

    @property
    def s_lower_bound(self) -> float:
        return -math.inf

    # L(s) = exp(-s*high) * expm1(t)/t with t = s*(high-low); the helper
    # functions below keep log L and (log L)' stable through t = 0 and for
    # |t| large.

    @staticmethod
    def _log_f(t: float) -> float:
        # log(expm1(t)/t), continuous through t = 0
        if abs(t) < 1e-5:
            return t / 2.0 + t * t / 24.0
        if t >= 30.0:
            return t + math.log1p(-math.exp(-t)) - math.log(t)
        if t <= -30.0:
            return math.log1p(-math.exp(t)) - math.log(-t)
        return math.log(math.expm1(t) / t)

    @staticmethod
    def _dlog_f(t: float) -> float:
        # d/dt log(expm1(t)/t) = 1/(1-exp(-t)) - 1/t
        if abs(t) < 1e-5:
            return 0.5 + t / 12.0
        if t >= 30.0:
            return 1.0 - 1.0 / t
        if t <= -30.0:
            return -1.0 / t
        return 1.0 / (-math.expm1(-t)) - 1.0 / t

    def _log_laplace(self, s):
        t = s * (self.high - self.low)
        return -s * self.high + self._log_f(t)

    def _laplace_log_deriv(self, s):
        t = s * (self.high - self.low)
        return -self.high + (self.high - self.low) * self._dlog_f(t)

    def moment(self, r):
        c, d = self.low, self.high
        if r == -1:
            return math.log(d / c) / (d - c)
        return (d ** (r + 1) - c ** (r + 1)) / ((r + 1) * (d - c))

    def _mixed_central(self, i, p):
        """Gauss-Legendre over t = z - EZ, so even powers of t stay >= 0.

        [low, high] is cut into panels [a, b] with b <= 2a; on each, z^p is
        analytic well beyond the panel and the rule converges to rounding.
        """
        c, d = self.low, self.high
        mean = 0.5 * (c + d)
        edges = [c]
        while 2.0 * edges[-1] < d:
            edges.append(2.0 * edges[-1])
        edges.append(d)
        nodes, weights = _gauss_legendre()
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            half = 0.5 * (b - a)
            t = (0.5 * (a + b) - mean) + half * nodes
            total += half * float(weights @ (t**i * (mean + t) ** p))
        return total / (d - c)

    def _sample(self, rng, count):
        return rng.uniform(self.low, self.high, size=count)

    def support(self):
        return (self.low, self.high)


# ---------------------------------------------------------------------------
# GIG sampling: Devroye-style rejection with a three-piece log-concave
# envelope, vectorized over proposal batches.  Operates on the two-parameter
# form with density proportional to x^(lam-1) exp(-omega (x + 1/x)/2) and
# maps back to GIG(lam, chi, psi) by scaling with sqrt(chi/psi).
# ---------------------------------------------------------------------------


def _sample_gig(rng: np.random.Generator, count: int, lam: float, chi: float, psi: float) -> np.ndarray:
    omega = math.sqrt(chi * psi)
    swap = lam < 0
    lam_abs = abs(lam)
    alpha = math.sqrt(omega * omega + lam_abs * lam_abs) - lam_abs

    def envelope_exponent(v):
        return -alpha * (np.cosh(v) - 1.0) - lam_abs * (np.exp(v) - v - 1.0)

    def envelope_slope(v):
        return -alpha * math.sinh(v) - lam_abs * (math.exp(v) - 1.0)

    # right cut point t
    x = -envelope_exponent(1.0)
    if 0.5 <= x <= 2.0:
        t = 1.0
    elif x > 2.0:
        t = math.sqrt(2.0 / (alpha + lam_abs))
    else:
        t = math.log(4.0 / (alpha + 2.0 * lam_abs))

    # left cut point s
    x = -envelope_exponent(-1.0)
    if 0.5 <= x <= 2.0:
        s = 1.0
    elif x > 2.0:
        s = math.sqrt(4.0 / (alpha * math.cosh(1.0) + lam_abs))
    else:
        cap = math.log(1.0 + 1.0 / alpha + math.sqrt(1.0 / alpha**2 + 2.0 / alpha))
        s = min(1.0 / lam_abs, cap) if lam_abs > 0 else cap

    eta = -envelope_exponent(t)
    zeta = -envelope_slope(t)
    theta = -envelope_exponent(-s)
    xi = envelope_slope(-s)

    p = 1.0 / xi
    r = 1.0 / zeta
    td = t - r * eta
    sd = s - p * theta
    q = td + sd
    total = p + q + r

    out = np.empty(count, dtype=float)
    got = 0
    while got < count:
        m = 2 * (count - got) + 64
        u = rng.random(m)
        v = rng.random(m)
        w = rng.random(m)
        cand = np.where(
            u < q / total,
            -sd + q * v,
            np.where(u < (q + r) / total, td - r * np.log(v), -sd + p * np.log(v)),
        )
        env = np.where(
            (cand >= -sd) & (cand <= td),
            1.0,
            np.where(
                cand > td,
                np.exp(-eta - zeta * (cand - t)),
                np.exp(-theta + xi * (cand + s)),
            ),
        )
        accepted = cand[w * env <= np.exp(envelope_exponent(cand))]
        take = min(accepted.size, count - got)
        out[got : got + take] = accepted[:take]
        got += take

    draws = np.exp(out) * (lam_abs / omega + math.sqrt(1.0 + (lam_abs / omega) ** 2))
    if swap:
        draws = 1.0 / draws
    return draws * math.sqrt(chi / psi)
