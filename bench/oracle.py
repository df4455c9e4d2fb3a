"""Independent numerical oracles for checking nmvmopt outputs.

Nothing here imports nmvmopt.  Every expectation over the mixing variable
Z is a scipy ``quad`` integral against the density written out below (the
GIG density is normalized by a second quadrature), so the checks share no
code path with the package's Laplace transforms, Bessel functions or
binomial moment formulas.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

_EPSREL = 1e-12
_EPSABS = 1e-14


def _quad(fn, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(fn, lo, hi, epsabs=_EPSABS, epsrel=_EPSREL, limit=400)[0]


class Law:
    """Mixing law Z given by a spec-file ``mixing`` block.

    ``expect(fns, s)`` returns ``(log L, [E_s fn(Z)])`` where
    L = E[exp(-s Z)] and E_s is the expectation under the tilted law with
    density proportional to exp(-s z) f(z).
    """

    def __init__(self, block: dict):
        self.kind = block["kind"]
        if self.kind == "constant":
            self.value = float(block["value"])
            self.s0 = -math.inf
        elif self.kind == "exponential":
            self.rate = float(block["rate"])
            self.s0 = -self.rate
        elif self.kind == "gig":
            self.lam = float(block["lambda"])
            self.chi = float(block["chi"])
            self.psi = float(block["psi"])
            self.s0 = -0.5 * self.psi
            self._log_norm = 0.0
            self._log_norm = self.expect([], 0.0)[0]
        elif self.kind == "bounded_uniform":
            self.low = float(block["low"])
            self.high = float(block["high"])
            self.s0 = -math.inf
        else:
            raise ValueError(f"unknown mixing kind {self.kind!r}")

    # log of the (normalized) density times exp(-s z), and where it peaks
    def _log_weight(self, z: float, s: float) -> float:
        if self.kind == "exponential":
            return math.log(self.rate) - (self.rate + s) * z
        if self.kind == "gig":
            return (
                (self.lam - 1.0) * math.log(z)
                - 0.5 * self.chi / z
                - (0.5 * self.psi + s) * z
                - self._log_norm
            )
        return -s * z - math.log(self.high - self.low)

    def _peak(self, s: float) -> float:
        if self.kind == "exponential":
            return 0.0
        if self.kind == "gig":
            k = self.psi + 2.0 * s
            l1 = self.lam - 1.0
            return (l1 + math.sqrt(l1 * l1 + self.chi * k)) / k
        return self.low if s >= 0 else self.high

    def _pieces(self, s: float):
        if self.kind == "exponential":
            scale = 1.0 / (self.rate + s)
            return [(0.0, scale), (scale, math.inf)]
        if self.kind == "gig":
            m = self._peak(s)
            return [(0.0, m), (m, math.inf)]
        mid = 0.5 * (self.low + self.high)
        return [(self.low, mid), (mid, self.high)]

    def _integrate(self, fn, s: float, shift: float) -> float:
        def integrand(z):
            if z <= 0.0:
                return 0.0
            return fn(z) * math.exp(self._log_weight(z, s) - shift)

        return sum(_quad(integrand, lo, hi) for lo, hi in self._pieces(s))

    def expect(self, fns, s: float = 0.0):
        if not s > self.s0:
            return math.inf, [math.nan] * len(fns)
        if self.kind == "constant":
            return -s * self.value, [fn(self.value) for fn in fns]
        shift = self._log_weight(self._peak(s), s)
        mass = self._integrate(lambda z: 1.0, s, shift)
        vals = [self._integrate(fn, s, shift) / mass for fn in fns]
        return shift + math.log(mass), vals

    @property
    def mean(self) -> float:
        return self.expect([lambda z: z])[1][0]


# ---------------------------------------------------------------------------
# exponential utility of a portfolio, and its independent optimum
# ---------------------------------------------------------------------------


class ExpMarket:
    """A spec file's market and investor, with E[-exp(-a W(x))] by quadrature.

    With e = mu - r_f, W(x) = W0(1 + r_f) + W0 x'(e + gamma Z + sqrt(Z) A N),
    so conditionally on Z the utility is Gaussian and
    log(-E U) = -a W0 (1 + r_f) - a W0 x'e + log E[exp(-s(x) Z)] with
    s(x) = a W0 x'gamma - (a W0)^2 x'Sigma x / 2.
    """

    def __init__(self, spec: dict, a: float | None = None):
        m = spec["model"]
        self.n = int(m["n"])
        self.r_f = float(m["r_f"])
        self.mu = np.array(m["mu"], dtype=float)
        self.gamma = np.array(m["gamma"], dtype=float)
        amat = np.array(m["a_matrix"], dtype=float)
        self.sigma = amat @ amat.T
        self.excess = self.mu - self.r_f
        self.a = float(spec["investor"]["a"]) if a is None else float(a)
        self.w0 = float(spec["investor"]["w0"])
        self.law = Law(spec["mixing"])

    def _s(self, x):
        aw = self.a * self.w0
        return aw * float(x @ self.gamma) - 0.5 * aw * aw * float(x @ self.sigma @ x)

    def log_neg_utility(self, x) -> float:
        """log(-E U(W(x))); +inf outside the finite-utility set."""
        x = np.asarray(x, dtype=float)
        aw = self.a * self.w0
        log_l, _ = self.law.expect([], self._s(x))
        return -aw * (1.0 + self.r_f) - aw * float(x @ self.excess) + log_l

    def utility(self, x) -> float:
        return -math.exp(self.log_neg_utility(x))

    def optimum(self, tol: float = 1e-13, max_iter: int = 60):
        """Damped Newton on the convex function x -> log(-E U), from x = 0.

        Returns (x_opt, log_neg_utility at x_opt).
        """
        aw = self.a * self.w0
        x = np.zeros(self.n)
        f = self.log_neg_utility(x)
        for _ in range(max_iter):
            s = self._s(x)
            _, (ez, ez2) = self.law.expect([lambda z: z, lambda z: z * z], s)
            ds = aw * self.gamma - aw * aw * (self.sigma @ x)
            grad = -aw * self.excess - ez * ds
            hess = (ez2 - ez * ez) * np.outer(ds, ds) + ez * aw * aw * self.sigma
            step = np.linalg.solve(hess, -grad)
            decrement = -float(grad @ step)
            if decrement < tol * max(1.0, abs(f)):
                break
            t = 1.0
            while t > 1e-12:
                cand = x + t * step
                fc = self.log_neg_utility(cand)
                if fc <= f - 0.25 * t * decrement:
                    break
                t *= 0.5
            if not fc < f:
                break
            x, f = cand, fc
        return x, f


# ---------------------------------------------------------------------------
# moment expansion of a general utility, rebuilt from quadrature moments
# ---------------------------------------------------------------------------


def utility_derivative(kind: str, param: float, k: int, w: float) -> float:
    """U^(k)(w) for the CLI's utility families (k = 0 is U itself)."""
    if kind == "exponential":
        return -((-param) ** k) * math.exp(-param * w)
    if kind == "quadratic":
        return (w - param * w * w, 1.0 - 2.0 * param * w, -2.0 * param)[k] if k <= 2 else 0.0
    if kind == "log":
        if k == 0:
            return math.log(w)
        return (-1.0) ** (k - 1) * math.factorial(k - 1) / w**k
    if kind == "power":
        e0 = 1.0 - param
        coeff = 1.0
        for j in range(k):
            coeff *= e0 - j
        return coeff * w ** (e0 - k) / e0
    raise ValueError(f"unknown utility kind {kind!r}")


def _normal_moment(m: int) -> float:
    return 0.0 if m % 2 else float(math.prod(range(m - 1, 0, -2)))


def series_value(market: ExpMarket, x, kind: str, param: float, order: int):
    """(M_order(x), sum of |terms|): the truncated expansion of E U(W(x))
    around the mean wealth, with every central moment
    E[(W - w)^k] = W0^k sum_i C(k,i) g^i q^((k-i)/2) E[(Z-EZ)^i Z^((k-i)/2)] E[N^(k-i)]
    (g = x'gamma, q = x'Sigma x) integrated in centered form."""
    x = np.asarray(x, dtype=float)
    law = market.law
    ez = law.mean
    g = float(x @ market.gamma)
    q = float(x @ market.sigma @ x)
    w0 = market.w0
    w = w0 * (1.0 + market.r_f) + w0 * (float(x @ market.excess) + g * ez)
    pairs = sorted(
        {(i, k - i) for k in range(2, order + 1) for i in range(k + 1) if (k - i) % 2 == 0}
    )
    fns = [lambda z, i=i, j=j: (z - ez) ** i * z ** (0.5 * j) for i, j in pairs]
    _, vals = law.expect(fns)
    mixed = dict(zip(pairs, vals))
    total = utility_derivative(kind, param, 0, w)
    scale = abs(total)
    for k in range(2, order + 1):
        central = sum(
            math.comb(k, i) * g**i * q ** (0.5 * (k - i)) * mixed[(i, k - i)] * _normal_moment(k - i)
            for i in range(k + 1)
            if (k - i) % 2 == 0
        )
        term = utility_derivative(kind, param, k, w) * w0**k * central / math.factorial(k)
        total += term
        scale += abs(term)
    return total, scale


def reduced_coordinates(market: ExpMarket, x):
    """(phi, psi, rho): cosines of y = A'x against A^-1 gamma and
    A^-1 (mu - r_f), and |y|, computed through Sigma."""
    x = np.asarray(x, dtype=float)
    rho = math.sqrt(max(float(x @ market.sigma @ x), 0.0))
    g_norm = math.sqrt(float(market.gamma @ np.linalg.solve(market.sigma, market.gamma)))
    m_norm = math.sqrt(float(market.excess @ np.linalg.solve(market.sigma, market.excess)))
    if rho == 0.0:
        return 0.0, 0.0, 0.0
    phi = float(x @ market.gamma) / (g_norm * rho) if g_norm > 1e-12 else 0.0
    psi = float(x @ market.excess) / (m_norm * rho) if m_norm > 1e-12 else 0.0
    return phi, psi, rho


# ---------------------------------------------------------------------------
# large market: the smallest segment's U_n from the h-parametrization
# ---------------------------------------------------------------------------


def _sequence(block: dict, idx: np.ndarray) -> np.ndarray:
    if block["kind"] == "power":
        return block["kappa"] / idx.astype(float) ** block["p"]
    if block["kind"] == "constant":
        return np.full(idx.size, float(block["value"]))
    return np.array(block["values"], dtype=float)[idx - 1]


def segment_u_n(lm: dict, n: int) -> float:
    """min over h in span{mu', gamma'} of E[exp(-h'mu' - Z (h'gamma' - |h|^2/2))].

    For asset i the h-parametrized return is mu'_i + gamma'_i Z + sqrt(Z) eps_i,
    with mu'_1 = mu_1/bb_1 and, for i >= 2, mu'_i = (mu_i - beta_i mu_1/bb_1)/bb_i
    (gamma' likewise); the search runs in an orthonormal basis of that span.
    """
    idx = np.arange(1, n + 1)
    mu = _sequence(lm["mu"], idx)
    gamma = _sequence(lm["gamma"], idx)
    bb = _sequence(lm["beta_bar"], idx)
    beta = np.zeros(n)
    beta[1:] = _sequence(lm["beta"], idx[1:])
    mu_p = (mu - beta * mu[0] / bb[0]) / bb
    gamma_p = (gamma - beta * gamma[0] / bb[0]) / bb
    u, sv, _ = np.linalg.svd(np.stack([mu_p, gamma_p], axis=1), full_matrices=False)
    basis = u[:, sv > 1e-12 * sv[0]]  # orthonormal; one column when mu' || gamma'
    k = basis.shape[1]
    spec = {
        "model": {
            "n": k,
            "r_f": 0.0,
            "mu": list(basis.T @ mu_p),
            "gamma": list(basis.T @ gamma_p),
            "a_matrix": np.eye(k).tolist(),
        },
        "mixing": lm["mixing"],
        "investor": {"a": 1.0, "w0": 1.0},
    }
    # with a = W0 = 1 and r_f = 0, log(-E U) = -1 + log E[exp(-V(h))]
    _, f = ExpMarket(spec).optimum()
    return math.exp(f + 1.0)
