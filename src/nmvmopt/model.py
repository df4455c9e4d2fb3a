"""NMVM market representation and exact expected exponential utility.

The return vector is X = mu + gamma*Z + sqrt(Z)*A*N with Z a positive
mixing variable independent of the standard normal vector N.  The linear
change of coordinates y = A^T x turns portfolio returns into the scalar
mixture y.mu0 + y.gamma0*Z + |y|*sqrt(Z)*N, which is what every solver in
this package works with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, InfeasiblePortfolioError, SingularModelError
from .mixing import MixingDistribution

__all__ = [
    "MarketModel",
    "TransformedModel",
    "Portfolio",
    "transform",
    "feasibility_check",
    "expected_exp_utility",
    "log_neg_expected_exp_utility",
]

# relative threshold on singular values below which A is rejected
_SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True)
class MarketModel:
    """One-period market: risk-free rate plus n NMVM risky assets."""

    n: int
    r_f: float
    mu: np.ndarray
    gamma: np.ndarray
    a_matrix: np.ndarray
    sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        a = np.asarray(self.a_matrix, dtype=float)
        if mu.shape != (self.n,) or gamma.shape != (self.n,):
            raise ValueError(
                f"mu/gamma must have length n={self.n}, got {mu.shape}, {gamma.shape}"
            )
        if a.shape != (self.n, self.n):
            raise ValueError(f"a_matrix must be {self.n}x{self.n}, got {a.shape}")
        for name, value in (("r_f", self.r_f), ("mu", mu), ("gamma", gamma), ("a_matrix", a)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        svals = np.linalg.svd(a, compute_uv=False)
        if svals[-1] <= _SINGULARITY_RTOL * svals[0]:
            raise SingularModelError(
                f"structure matrix numerically singular "
                f"(smallest/largest singular value = {svals[-1] / svals[0]:.3e})"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "sigma", a @ a.T)

    @property
    def excess_mean(self) -> np.ndarray:
        """mu - 1*r_f (location of excess returns)."""
        return self.mu - self.r_f


@dataclass(frozen=True)
class TransformedModel:
    """y-coordinate data of a market/mixing pair.

    mu0 and gamma0 solve A mu0 = mu - 1*r_f and A gamma0 = gamma; the three
    scalars are a_scalar = gamma' Sigma^-1 gamma, c_scalar = excess' Sigma^-1
    excess, b_scalar = gamma' Sigma^-1 excess, and theta0 bounds the domain
    of the h-function.
    """

    mu0: np.ndarray
    gamma0: np.ndarray
    a_scalar: float
    b_scalar: float
    c_scalar: float
    theta0: float

    def __post_init__(self):
        if self.b_scalar**2 > self.a_scalar * self.c_scalar * (1 + 1e-8) + 1e-12:
            raise ValueError(
                "Cauchy-Schwarz violated: b^2 > a*c "
                f"({self.b_scalar**2} > {self.a_scalar * self.c_scalar})"
            )

    @property
    def gamma_mu_cos(self) -> float:
        """Cosine of the angle between gamma0 and mu0 (0 if either vanishes)."""
        denom = math.sqrt(self.a_scalar * self.c_scalar)
        if denom == 0.0:
            return 0.0
        return min(1.0, max(-1.0, self.b_scalar / denom))

    @classmethod
    def from_scalars(
        cls, a_scalar: float, c_scalar: float, b_scalar: float, s0: float
    ) -> "TransformedModel":
        """Synthetic 2-d instance realizing the given scalars, for problems
        posed through (A, B, C) and s0 alone rather than a market."""
        if a_scalar < 0 or c_scalar < 0:
            raise ValueError("a_scalar and c_scalar must be nonnegative")
        mu0 = np.array([math.sqrt(c_scalar), 0.0])
        if c_scalar > 0:
            g1 = b_scalar / math.sqrt(c_scalar)
            rest = a_scalar - g1 * g1
            gamma0 = np.array([g1, math.sqrt(max(rest, 0.0))])
        else:
            if b_scalar != 0:
                raise ValueError("b_scalar must be 0 when c_scalar is 0")
            gamma0 = np.array([0.0, math.sqrt(a_scalar)])
        return cls(mu0, gamma0, a_scalar, b_scalar, c_scalar, _theta0(a_scalar, c_scalar, s0))


@dataclass(frozen=True)
class Portfolio:
    """Risky-asset weights plus investor parameters (wealth, risk aversion)."""

    x: np.ndarray
    w0: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(-1))
        if not self.w0 > 0:
            raise ValueError(f"initial wealth w0={self.w0} must be > 0")
        if not self.a > 0:
            raise ValueError(f"risk aversion a={self.a} must be > 0")


def _theta0(a_scalar: float, c_scalar: float, s0: float) -> float:
    if not math.isfinite(s0):
        return math.inf
    if c_scalar <= 0:
        return math.inf
    return math.sqrt((a_scalar - 2.0 * s0) / c_scalar)


def transform(model: MarketModel, mix: MixingDistribution) -> TransformedModel:
    """Compute the y-coordinate vectors and scalars for a market/mixing pair."""
    try:
        mu0 = np.linalg.solve(model.a_matrix, model.excess_mean)
        gamma0 = np.linalg.solve(model.a_matrix, model.gamma)
    except np.linalg.LinAlgError as exc:
        raise SingularModelError(str(exc)) from exc
    a_scalar = float(gamma0 @ gamma0)
    c_scalar = float(mu0 @ mu0)
    b_scalar = float(gamma0 @ mu0)
    return TransformedModel(
        mu0=mu0,
        gamma0=gamma0,
        a_scalar=a_scalar,
        b_scalar=b_scalar,
        c_scalar=c_scalar,
        theta0=_theta0(a_scalar, c_scalar, mix.s_lower_bound),
    )


def quadratic_exponent(model: MarketModel, portfolio: Portfolio) -> float:
    """g(x) = a*W0*x'gamma - (a^2 W0^2 / 2) x'Sigma x, the Laplace argument."""
    x = portfolio.x
    aw = portfolio.a * portfolio.w0
    if math.isinf(aw * aw):  # then g is -inf, or NaN (inf * 0) at x'Sigma x = 0
        raise InfeasiblePortfolioError(
            f"a W0 = {aw:.6g} is beyond float range: (a W0)^2 overflows in g(x)"
        )
    return float(aw * (x @ model.gamma) - 0.5 * aw * aw * (x @ model.sigma @ x))


def feasibility_check(
    model: MarketModel, mix: MixingDistribution, portfolio: Portfolio
) -> bool:
    """True iff the portfolio has finite expected exponential utility.

    The boundary g(x) = s0 is rejected: for finite s0 the Laplace transform
    blows up there (or at best the utility is only marginally integrable).
    """
    s0 = mix.s_lower_bound
    return s0 == -math.inf or quadratic_exponent(model, portfolio) > s0


def log_neg_expected_exp_utility(
    model: MarketModel, mix: MixingDistribution, portfolio: Portfolio
) -> float:
    """log(-E U(W)) for U(W) = -exp(-a W); stable when the value underflows."""
    if not feasibility_check(model, mix, portfolio):
        raise InfeasiblePortfolioError(
            f"portfolio outside the finite-utility set: g(x)={quadratic_exponent(model, portfolio)} "
            f"<= s0={mix.s_lower_bound}"
        )
    aw = portfolio.a * portfolio.w0
    drift = float(portfolio.x @ model.excess_mean)
    return (
        -portfolio.a * portfolio.w0 * (1.0 + model.r_f)
        - aw * drift
        + mix.log_laplace(quadratic_exponent(model, portfolio))
    )


def expected_exp_utility(
    model: MarketModel, mix: MixingDistribution, portfolio: Portfolio
) -> float:
    """E[-exp(-a W(x))] via the Laplace transform of the mixing law."""
    return -math.exp(log_neg_expected_exp_utility(model, mix, portfolio))


def degenerate_check(tm: TransformedModel) -> None:
    """Reject c_scalar = 0 markets for the closed-form exponential solver."""
    if tm.c_scalar <= 0.0:
        raise DegenerateModelError(
            "excess mean vanishes (c_scalar = 0): the reduction coordinate "
            "q_c is undefined; there is no excess return to trade against"
        )
