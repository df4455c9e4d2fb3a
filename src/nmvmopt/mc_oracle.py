"""Independent Monte Carlo verification path.

Samples the NMVM return vector directly from its definition
X = mu + gamma Z + sqrt(Z) A N and estimates expected utility empirically.
Every sample is antithetic: row i and row i + rows/2 share z and have
opposite normal draws, and the estimators average each such pair before
anything else.  Everything is driven by a Philox (counter-based) generator
pinned per seed, so estimates are bit-reproducible, and the
common-random-numbers objective used by the brute-force optimizer is a
deterministic function of the portfolio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixing import MixingDistribution
from .model import MarketModel

__all__ = [
    "McEstimate",
    "sample_returns",
    "mc_expected_utility",
    "crn_objective",
    "brute_force_optimize",
    "SearchResult",
    "block_mean",
    "cov_stderr",
]


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    n_nonfinite: int = 0


def block_mean(values: np.ndarray, block: int = 65536) -> float:
    """Mean via fixed-size index blocks reduced in index order.

    The block partition depends only on the array length and the block
    sums are added with one rounding (``math.fsum``), so the result is a
    fixed function of the array, the same on every call.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    partials = [
        float(np.sum(values[i : i + block])) for i in range(0, values.size, block)
    ]
    return math.fsum(partials) / values.size


def cov_stderr(returns: np.ndarray) -> np.ndarray:
    """Standard errors of the sample covariance entries, in O(paths*n) memory.

    Entry (i, j) is the standard error of the mean of c_i c_j over the
    paths, c being the centered returns, taken from the first two moments
    of those products instead of a paths x n x n array of them.
    """
    paths = returns.shape[0]
    c = returns - returns.mean(axis=0)
    sq = c * c
    return np.sqrt((sq.T @ sq / paths - (c.T @ c / paths) ** 2) / (paths - 1))


def sample_returns(
    model: MarketModel, mix: MixingDistribution, paths: int, seed: int
) -> np.ndarray:
    """2 ceil(paths/2) x n matrix of return draws mu + gamma z + sqrt(z) A g.

    Antithetic: the first half of the rows draws (z, g) and the second
    half repeats z with -g.  The normals come from a Philox stream keyed
    by ``seed``, the mixing draws from that stream jumped once.

    The matrix is stored asset-major (Fortran order): the per-asset
    reductions over the paths that every caller makes (means, covariances,
    X'X products) then run along contiguous memory.
    """
    if paths < 1:
        raise ValueError(f"paths={paths} must be >= 1")
    root = np.random.Philox(key=seed)
    normal_rng, mix_rng = np.random.Generator(root), np.random.Generator(root.jumped(1))
    half = (paths + 1) // 2
    g0 = normal_rng.standard_normal((half, model.n))
    z0 = mix.sample(half, mix_rng)
    # built in place with the bits of mu + gamma z + sqrt(z) (+-A g): the
    # sums commute, and the antithetic half subtracts sqrt(z) A g, which
    # is adding sqrt(z) (-A g) exactly
    out = model.gamma[:, None] * np.concatenate([z0, z0])
    out += model.mu[:, None]
    noise = np.sqrt(z0) * (g0 @ model.a_matrix.T).T
    out[:, :half] += noise
    out[:, half:] -= noise
    return out.T


def _wealth(model: MarketModel, excess: np.ndarray, x: np.ndarray, w0: float):
    """W(x) per draw from ``excess``, the sample minus r_f."""
    return w0 * (1.0 + model.r_f) + w0 * (excess @ x)


def _pair_means(model: MarketModel, excess: np.ndarray, utility, x, w0: float):
    """U(W(x)) per draw, and the mean of each antithetic pair of draws
    (row i with row i + rows/2)."""
    vals = utility(0, _wealth(model, excess, np.asarray(x, dtype=float), w0))
    vals = np.asarray(vals, dtype=float)
    half = vals.size // 2
    with np.errstate(invalid="ignore", over="ignore"):
        return vals, 0.5 * (vals[:half] + vals[half : 2 * half])


def mc_expected_utility(
    model: MarketModel, returns: np.ndarray, utility, x, w0: float
) -> McEstimate:
    """Empirical E[U(W(x))] with standard error over ``returns``, the
    sample ``sample_returns(model, mix, paths, seed)``, from the means of
    its antithetic pairs.

    ``utility(k, w)`` is U^(k)(w), as ``general_opt``'s built-in utilities
    give it; only k = 0 is used here.  Non-finite draws (such as log
    utility hit by nonpositive wealth) propagate into the estimate and are
    counted.
    """
    vals, pair = _pair_means(model, returns - model.r_f, utility, x, w0)
    n_bad = int(vals.size - np.count_nonzero(np.isfinite(vals)))
    with np.errstate(invalid="ignore", over="ignore"):
        est = block_mean(pair)
        se = float(np.std(pair, ddof=1) / math.sqrt(pair.size)) if pair.size > 1 else 0.0
    return McEstimate(estimate=est, stderr=se, n_nonfinite=n_bad)


def crn_objective(model: MarketModel, returns: np.ndarray, utility, w0: float):
    """Deterministic common-random-numbers objective x -> estimated E[U(W)].

    Every probe portfolio shares the one sample ``returns`` (see
    ``mc_expected_utility``, also for ``utility``), so the surrogate is a
    smooth deterministic function suitable for argmax comparisons; its
    value at x is ``mc_expected_utility(model, returns, utility, x, w0)``'s
    estimate to the bit.
    """
    excess = returns - model.r_f

    def objective(x: np.ndarray) -> float:
        return block_mean(_pair_means(model, excess, utility, x, w0)[1])

    return objective


@dataclass(frozen=True)
class SearchResult:
    """Where ``brute_force_optimize`` stopped and why.

    ``value`` is the CRN objective at ``x`` and ``iterations`` the number
    of derivative passes.  ``status`` is "decrement" when the Newton
    decrement met its tolerance, "line-search" when no step along the
    Newton direction improved the objective any more, and "iteration-cap"
    when the search ran out of iterations.
    """

    x: np.ndarray
    value: float
    iterations: int
    status: str


_MAX_NEWTON = 100
_MAX_HALVINGS = 60
# half the Newton decrement estimates how far f is below the maximum; at
# 1e-12 a search at |f| ~ 0.3 could stop 5e-13 short, over 1e-12 relative
_DECREMENT_TOL = 1e-14


def brute_force_optimize(
    model: MarketModel,
    returns: np.ndarray,
    utility,
    box,
    w0: float = 1.0,
) -> SearchResult:
    """Argmax of the CRN objective on ``returns`` over the box of one
    (low, high) pair per asset; the test-oracle optimizer.

    ``utility(k, w)`` is U^(k)(w) for k = 0, 1, 2, as ``general_opt``'s
    built-in utilities give it.  Wealth is affine in x, so the objective
    f(x) = mean U(W(x)) has the exact derivatives
    g = mean U'(W) w0 (R - r_f) and H = mean U''(W) w0^2 (R - r_f)(R - r_f)',
    and H is negative definite for a concave U: the local maximum in the
    box is the global one.  A projected, damped Newton ascent starts at
    the box centre.  Each iteration holds fixed the coordinates that sit
    at a bound with the gradient or the Newton step pointing outward,
    takes the Newton step on the others, clipped to the box, and halves
    it until the Armijo condition holds.  It stops once the Newton
    decrement g'(-H)^-1 g is at most 1e-14 max(1, |f|).  Deterministic
    for a fixed sample.
    """
    lo, hi = np.array(box, dtype=float).reshape(model.n, 2).T
    objective = crn_objective(model, returns, utility, w0)
    excess = returns - model.r_f
    x = 0.5 * (lo + hi)
    f = objective(x)
    status = "iteration-cap"
    with np.errstate(over="ignore", invalid="ignore"):  # a trial point may overflow U
        for iteration in range(1, _MAX_NEWTON + 1):
            wealth = _wealth(model, excess, x, w0)
            g = w0 * (excess.T @ utility(1, wealth)) / excess.shape[0]
            h = w0 * w0 * (excess.T @ (utility(2, wealth)[:, None] * excess)) / excess.shape[0]
            free = ~(((x <= lo) & (g < 0.0)) | ((x >= hi) & (g > 0.0)))
            while True:
                step = np.zeros_like(x)
                if free.any():
                    step[free] = np.linalg.lstsq(-h[np.ix_(free, free)], g[free], rcond=None)[0]
                outward = ((x <= lo) & (step < 0.0)) | ((x >= hi) & (step > 0.0))
                if not outward.any():
                    break
                free &= ~outward
            if float(g @ step) <= _DECREMENT_TOL * max(1.0, abs(f)):
                status = "decrement"
                break
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                trial = np.clip(x + t * step, lo, hi)
                f_trial = objective(trial)
                if f_trial >= f + 1e-4 * float(g @ (trial - x)):
                    x, f = trial, f_trial
                    break
                t *= 0.5
            else:
                status = "line-search"
                break
    return SearchResult(x, f, iteration, status)
