"""Shared instance generators and independent numerical oracles.

The quadrature oracles integrate against the raw (unnormalized) GIG
density with scipy.integrate.quad, normalizing by a second quadrature, so
they share no code path with the Bessel-based closed forms they check.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

from nmvmopt.model import MarketModel

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


# ---------------------------------------------------------------------------
# GIG quadrature oracles
# ---------------------------------------------------------------------------


def _gig_log_quad(lam, chi, psi, extra_exp=0.0, power=0.0):
    """log of the integral of z^(lam-1+power) exp(-chi/(2z) - (psi/2 + extra_exp) z)
    over z > 0.  The integrand is shifted by its log-value at its mode, so
    neither it nor the integral overflows at large |lam| (the unshifted
    peak passes 1e308 from about |lam| = 140)."""
    k, b = lam - 1.0 + power, psi + 2.0 * extra_exp
    mode = (math.sqrt(k * k + chi * b) + k) / b

    def log_f(z):
        return k * math.log(z) - 0.5 * chi / z - 0.5 * b * z

    top = log_f(mode)

    def f(z):
        return math.exp(log_f(z) - top) if z > 0 else 0.0

    val = 0.0
    for a, c in ((0.0, mode), (mode, math.inf)):
        val += quad(f, a, c, epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return top + math.log(val)


def gig_quad_moment(lam, chi, psi, r):
    return math.exp(_gig_log_quad(lam, chi, psi, power=r) - _gig_log_quad(lam, chi, psi))


def gig_quad_laplace(lam, chi, psi, s):
    return math.exp(_gig_log_quad(lam, chi, psi, extra_exp=s) - _gig_log_quad(lam, chi, psi))


def gig_quad_laplace_deriv(lam, chi, psi, s):
    return -math.exp(
        _gig_log_quad(lam, chi, psi, extra_exp=s, power=1.0) - _gig_log_quad(lam, chi, psi)
    )


def _central_quad(weight, lo, hi, mean, sd, i, p):
    """E[(Z - mean)^i Z^p] for the unnormalized density ``weight`` on
    (lo, hi), integrated in pieces cut at mean and mean +- 8 sd."""
    cuts = sorted({lo, hi, mean, *(c for c in (mean - 8 * sd, mean + 8 * sd) if lo < c < hi)})

    def integral(f):
        return sum(
            quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0] for a, b in zip(cuts, cuts[1:])
        )

    return integral(lambda z: (z - mean) ** i * z**p * weight(z)) / integral(weight)


def gig_quad_central(lam, chi, psi, i, p):
    """E[(Z - EZ)^i Z^p] for GIG(lam, chi, psi) by quadrature in the
    offset t = z - m from the mode m.

    The log density is taken relative to its value at m, in a form
    without cancellation near m, so concentrated laws (large chi*psi)
    neither underflow nor lose digits.  With s = 1/sqrt(-(log
    density)''(m)), the range is cut at t = +-8 s 2^j, out to -m on the
    left and on each side to where the density falls below e^-700 of its
    peak: the pieces stay short next to the peak and grow geometrically
    in a heavy tail."""
    root = math.sqrt((lam - 1) ** 2 + chi * psi)
    # the root of psi m^2 - 2 (lam - 1) m - chi = 0, without cancellation
    mode = (root + (lam - 1)) / psi if lam >= 1 else chi / (root - (lam - 1))
    s = mode / math.sqrt(root)  # (log density)''(m) = -root / m^2

    def log_w(t):
        # chi = psi m^2 - 2 (lam - 1) m makes log w(m + t) - log w(m) this
        return (lam - 1.0) * (math.log1p(t / mode) - t / (mode + t)) - 0.5 * psi * t * t / (
            mode + t
        )

    def weight(t):
        return math.exp(log_w(t)) if t > -mode else 0.0

    cuts = {0.0}
    for side in (-1.0, 1.0):
        k = 8.0
        while True:
            t = side * k * s
            if t <= -mode:
                cuts.add(-mode)
                break
            cuts.add(t)
            if log_w(t) < -700.0:
                break
            k *= 2.0

    def plain(f, cuts):
        cuts = sorted(cuts)
        return sum(
            quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
            for a, b in zip(cuts, cuts[1:])
        )

    norm = plain(weight, cuts)
    shift = plain(lambda t: t * weight(t), cuts) / norm  # EZ - m
    return plain(
        lambda t: (t - shift) ** i * (mode + t) ** p * weight(t), cuts | {shift}
    ) / norm


def exponential_quad_central(rate, i, p):
    return _central_quad(
        lambda z: math.exp(-rate * z), 0.0, math.inf, 1.0 / rate, 1.0 / rate, i, p
    )


def uniform_quad_central(low, high, i, p):
    mean = 0.5 * (low + high)
    return _central_quad(lambda z: 1.0, low, high, mean, high - low, i, p)


def bessel_quad(lam, x):
    """Integral representation: K_lam(x) = int_0^inf exp(-x cosh t) cosh(lam t) dt."""

    def f(t):
        # cosh(lam t) folded into the exponent so the tail cannot overflow
        try:
            e1 = -x * math.cosh(t) + abs(lam) * t
            e2 = -x * math.cosh(t) - abs(lam) * t
        except OverflowError:
            return 0.0
        return 0.5 * (math.exp(e1) if e1 > -745 else 0.0) + 0.5 * (
            math.exp(e2) if e2 > -745 else 0.0
        )

    return quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=400)[0]


# ---------------------------------------------------------------------------
# market instance generators
# ---------------------------------------------------------------------------


def random_spd_market(rng, n, r_f=0.01, vol=0.2):
    """Well-conditioned random market, arbitrary drift/skew scale."""
    a = vol * (np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n))
    mu = r_f + rng.normal(0.05, 0.02, n)
    gamma = rng.normal(0.0, 0.02, n)
    return MarketModel(n=n, r_f=r_f, mu=mu, gamma=gamma, a_matrix=a)


def sane_exp_market(rng, n, r_f=0.01, vol=0.18, max_c=0.45):
    """Random market with realistic per-period scales: the effective
    squared excess-return ratio is capped so truncated-expansion methods
    operate inside their useful regime."""
    a = vol * (np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n))
    drift = rng.normal(0.05, 0.02, n)
    gamma = rng.normal(0.0, 0.02, n)
    mu0 = np.linalg.solve(a, drift)
    c = float(mu0 @ mu0)
    if c > max_c:
        drift = drift * math.sqrt(max_c / c)
    return MarketModel(n=n, r_f=r_f, mu=r_f + drift, gamma=gamma, a_matrix=a)


def gaussian_exp_utility(model, x, a, w0):
    """Analytic expected exponential utility for Constant(1) mixing."""
    aw = a * w0
    drift = float(x @ (model.gamma + model.mu - model.r_f))
    quad_term = float(x @ model.sigma @ x)
    return -math.exp(-aw * (1.0 + model.r_f) - aw * drift + 0.5 * aw * aw * quad_term)


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
