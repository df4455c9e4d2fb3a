"""Closed-form exponential-utility optimizer.

Maximizing E[-exp(-a W(x))] over portfolios reduces to minimizing the
scalar function

    H(theta) = exp(c_scalar * theta) * L_Z(a_scalar/2 - theta^2 c_scalar/2)

over theta in (-theta0, 0]; the optimal portfolio is then

    x* = (1 / (a W0)) [Sigma^-1 gamma - q_min Sigma^-1 (mu - 1 r_f)].

``minimize_h`` locates q_min with a grid-seeded bounded search;
``solve_foc`` solves the stationarity condition L(s) = theta L'(s)
independently, as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brent import brentq, minimize_bounded
from .errors import DegenerateModelError, InfeasiblePortfolioError, NoRootError
from .mixing import MixingDistribution
from .model import (
    MarketModel,
    Portfolio,
    TransformedModel,
    degenerate_check,
    log_neg_expected_exp_utility,
    quadratic_exponent,
    transform,
)

__all__ = [
    "ExpOptResult",
    "SolverInfo",
    "log_h_function",
    "minimize_h",
    "solve_foc",
    "optimal_portfolio",
    "optimize",
    "log_g_min",
]

# offset keeping theta strictly inside (-theta0, theta0)
_EDGE = 1e-9
_XATOL = 1e-12
_GRID_POINTS = 33
_FULL_PROBLEM = (-math.inf, 0.0)  # the theta-domain of the unconstrained optimum


@dataclass(frozen=True)
class SolverInfo:
    iterations: int
    bracket: tuple[float, float]
    achieved_tol: float
    method: str
    boundary_pinned: bool = False


@dataclass(frozen=True)
class ExpOptResult:
    q_min: float
    x_star: np.ndarray
    optimal_utility: float
    log_neg_utility: float
    g_value: float
    solver_info: SolverInfo
    transformed: TransformedModel


def _check_theta(tm: TransformedModel, theta: float) -> None:
    if not abs(theta) < tm.theta0:
        raise ValueError(
            f"theta={theta} outside the h-function domain (-{tm.theta0}, {tm.theta0})"
        )


def log_h_function(tm: TransformedModel, mix: MixingDistribution, theta: float) -> float:
    """log H(theta); the preferred evaluation near the domain boundary."""
    _check_theta(tm, theta)
    s = 0.5 * tm.a_scalar - 0.5 * theta * theta * tm.c_scalar
    return tm.c_scalar * theta + mix.log_laplace(s)


def _search_interval(tm, log_h, domain) -> tuple[float, float]:
    """The closed theta-interval holding the minimum of H over ``domain``:
    both ends kept inside (-theta0, theta0); an infinite upper end cut to
    max(lo, 0), as H increases for theta >= 0; an infinite lower end moved
    left by doubling until H stops decreasing, capped at the upper end."""
    lo, hi = float(domain[0]), float(domain[1])
    if math.isfinite(tm.theta0):
        edge = tm.theta0 - _EDGE * max(1.0, tm.theta0)
        lo, hi = max(lo, -edge), min(hi, edge)
    if hi == math.inf:
        hi = max(lo, 0.0)
    if lo > hi or (math.isinf(lo) and lo == hi):
        raise InfeasiblePortfolioError(
            f"q-domain [{domain[0]}, {domain[1]}] does not intersect "
            f"(-theta0, theta0) = (-{tm.theta0}, {tm.theta0})"
        )
    if lo == -math.inf:
        left, at_left = 1.0, log_h(-1.0)
        for _ in range(200):
            further = log_h(-2.0 * left)
            if further > at_left:
                return min(-2.0 * left, hi), hi
            left, at_left = 2.0 * left, further
        raise InfeasiblePortfolioError(
            f"no finite optimal portfolio: H still decreases at theta = {-left:.6g} "
            "after 200 doublings"
        )
    return lo, hi


def _minimize_on_interval(log_h, stationarity, lo: float, hi: float):
    """Grid-seeded bounded minimization; returns (theta, log H there, evals).

    log L_Z is convex and decreasing and A/2 - theta^2 C/2 is concave, so
    log H is strictly convex and only the bracket around the grid argmin
    is refined.  A value-only search places a smooth minimum to about
    sqrt(eps), so an interior minimum is polished by root-finding the
    sign of H' in that bracket.
    """
    if lo == hi:  # a point domain: nothing to search
        return lo, log_h(lo), 1
    grid = np.linspace(lo, hi, _GRID_POINTS)
    vals = np.array([log_h(t) for t in grid])
    evals = _GRID_POINTS
    i = int(np.argmin(vals))
    best_t, best_v = float(grid[i]), float(vals[i])
    best_bracket = (lo, hi)
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, _GRID_POINTS - 1)]
    if b - a > _XATOL:
        t, v, brent_evals = minimize_bounded(log_h, a, b, xatol=_XATOL, maxiter=500)
        evals += brent_evals
        if v < best_v:
            best_t, best_v = t, v
            best_bracket = (float(a), float(b))
    if lo < best_t < hi:
        a, b = best_bracket
        if stationarity(a) < 0.0 < stationarity(b):
            best_t = brentq(stationarity, a, b, xtol=1e-15)
    return best_t, best_v, evals


def _stationarity(tm, mix, theta: float) -> float:
    """Same sign as H'(theta): 1 - theta * (log L)'(A/2 - theta^2 C/2)."""
    s = 0.5 * tm.a_scalar - 0.5 * theta * theta * tm.c_scalar
    return 1.0 - theta * mix.laplace_log_deriv(s)


def minimize_h(
    tm: TransformedModel, mix: MixingDistribution, domain=None
) -> tuple[float, SolverInfo]:
    """Global minimizer of H on the closure of ``domain``, a (lo, hi)
    theta-interval whose ends may be infinite (None: the full problem), and
    how it was found.  ``boundary_pinned``: the full problem's minimizer
    sits at the left end of the search interval."""
    full = domain is None
    log_h = lambda t: log_h_function(tm, mix, t)
    lo, hi = _search_interval(tm, log_h, _FULL_PROBLEM if full else domain)
    if lo >= 0.0:
        # all-nonnegative domain: H strictly increasing there, minimum at its left end
        return lo, SolverInfo(1, (lo, hi), 0.0, "monotone-left-endpoint")
    theta, _, evals = _minimize_on_interval(
        log_h, lambda t: _stationarity(tm, mix, t), lo, hi
    )
    pinned = full and abs(theta - lo) <= 2.0 * _XATOL
    return theta, SolverInfo(evals, (lo, hi), _XATOL, "grid+bounded-brent", pinned)


def solve_foc(tm: TransformedModel, mix: MixingDistribution) -> tuple[float, float]:
    """Solve the stationarity condition of H by bracketed root-finding.

    In tau = a_scalar/2 - theta^2 c_scalar/2 coordinates the condition
    L(tau) - theta L'(tau) = 0 becomes

        L(tau) + sqrt((a_scalar - 2 tau)/c_scalar) * L'(tau) = 0,

    solved here in theta (dividing through by L for stability).  log H is
    strictly convex, so its stationarity function changes sign at most
    once on the search interval; an interval whose ends share a sign means
    the minimum sits on the boundary.  Returns (tau_star, theta_star).
    """
    if tm.c_scalar <= 0:
        raise DegenerateModelError("solve_foc requires c_scalar > 0")

    lo, _ = _search_interval(tm, lambda t: log_h_function(tm, mix, t), _FULL_PROBLEM)
    try:
        theta_star = brentq(lambda t: _stationarity(tm, mix, t), lo, -1e-14, xtol=1e-14)
    except ValueError as exc:
        raise NoRootError(
            "no stationarity root bracketed in "
            f"({lo}, 0); use minimize_h for the boundary case"
        ) from exc
    tau_star = 0.5 * tm.a_scalar - 0.5 * theta_star**2 * tm.c_scalar
    return tau_star, theta_star


def optimal_portfolio(
    tm: TransformedModel,
    model: MarketModel,
    a: float,
    w0: float,
    q_min: float,
) -> np.ndarray:
    """x* = (1/(a W0)) [Sigma^-1 gamma - q_min Sigma^-1 (mu - 1 r_f)].

    Computed through the structure matrix: Sigma^-1 v = A^-T A^-1 v, so
    x* = A^-T (gamma0 - q_min mu0) / (a W0).
    """
    y = tm.gamma0 - q_min * tm.mu0
    return np.linalg.solve(model.a_matrix.T, y) / (a * w0)


def log_g_min(tm: TransformedModel, mix: MixingDistribution, q: float) -> float:
    """log of the minimized drift-adjusted transform e^{-B} H(q)."""
    return -tm.b_scalar + log_h_function(tm, mix, q)


def optimize(
    model: MarketModel,
    mix: MixingDistribution,
    a: float = 1.0,
    w0: float = 1.0,
    domain=None,
) -> ExpOptResult:
    """End-to-end closed-form solve.

    ``domain``, if given, is an interval (c_lo, c_hi) constraining
    c = x'(mu - 1 r_f); it is mapped to the q-coordinate via
    q_c = (b_scalar - a W0 c) / c_scalar.
    """
    tm = transform(model, mix)
    degenerate_check(tm)
    q_domain = None
    if domain is not None:  # q falls as c rises
        aw = a * w0
        q_domain = tuple((tm.b_scalar - aw * c) / tm.c_scalar for c in domain[::-1])
    q_min, info = minimize_h(tm, mix, q_domain)
    x_star = optimal_portfolio(tm, model, a, w0, q_min)
    pf = Portfolio(x=x_star, w0=w0, a=a)
    log_neg = log_neg_expected_exp_utility(model, mix, pf)
    return ExpOptResult(
        q_min=q_min,
        x_star=x_star,
        optimal_utility=-math.exp(log_neg),
        log_neg_utility=log_neg,
        g_value=quadratic_exponent(model, pf),
        solver_info=info,
        transformed=tm,
    )
