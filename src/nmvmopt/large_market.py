"""Large financial market: countably many factor-structured NMVM assets.

Asset 1 is a market index, assets i >= 2 load on the index factor plus an
idiosyncratic factor.  For each finite segment of n assets a martingale
measure exists with conditional factor drifts b_i(z); rewriting portfolio
returns through sqrt(Z)(eps_i - b_i(Z)) (the h-parametrization) turns the
segment into an n-asset NMVM market with identity structure matrix, so the
closed-form exponential optimizer applies directly.  U_n, the minimal
expected exponential disutility using the first n assets, is nonincreasing
in n; the convergence study tracks its Cauchy behavior numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exp_opt import log_g_min, minimize_h
from .mixing import MixingDistribution
from .model import TransformedModel

__all__ = [
    "LargeMarketSpec",
    "ConvergenceRow",
    "b_function",
    "d_coefficient",
    "effective_nmvm_segment",
    "segment_scalars",
    "u_n",
    "optimal_h",
    "martingale_density",
    "convergence_study",
]


def _materialize(seq, max_n: int, start: int = 1) -> np.ndarray:
    """Accept an array-like or a callable i -> value (i starting at ``start``)."""
    if callable(seq):
        return np.fromiter(map(seq, range(start, max_n + 1)), dtype=float, count=max_n - start + 1)
    arr = np.asarray(seq, dtype=float).reshape(-1)
    if arr.size < max_n - start + 1:
        raise ValueError(
            f"sequence of length {arr.size} too short for max_n={max_n}"
        )
    return arr[: max_n - start + 1].copy()


@dataclass(frozen=True)
class LargeMarketSpec:
    """Coefficient sequences plus a bounded mixing law.

    ``gamma_seq``/``mu_seq``/``beta_bar_seq`` are indexed from asset 1,
    ``beta_seq`` from asset 2 (asset 1 carries no index loading).  Each may
    be an explicit array or a callable i -> value; power decay kappa/i**p
    is then just ``lambda i: kappa / i**p``.
    """

    gamma_seq: object
    mu_seq: object
    beta_seq: object
    beta_bar_seq: object
    mix: MixingDistribution
    max_n: int
    gamma: np.ndarray = field(init=False)
    mu: np.ndarray = field(init=False)
    beta: np.ndarray = field(init=False)
    beta_bar: np.ndarray = field(init=False)
    # per-asset data for all max_n assets, built once: the effective
    # coefficients mu'_i, gamma'_i and the drift bounds d_i
    mu_p: np.ndarray = field(init=False, repr=False)
    gamma_p: np.ndarray = field(init=False, repr=False)
    d: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError(f"max_n={self.max_n} must be >= 1")
        lo, hi = self.mix.support()
        if not (lo > 0 and math.isfinite(hi)):
            raise ValueError(
                f"large market requires a bounded mixing support inside (0, inf), "
                f"got [{lo}, {hi}] from {self.mix!r}"
            )
        try:
            gamma = _materialize(self.gamma_seq, self.max_n)
            mu = _materialize(self.mu_seq, self.max_n)
            beta_bar = _materialize(self.beta_bar_seq, self.max_n)
            beta = np.zeros(self.max_n)
            if self.max_n >= 2:
                beta[1:] = _materialize(self.beta_seq, self.max_n, start=2)
        except (OverflowError, ZeroDivisionError) as exc:  # kappa / i**p beyond float range
            raise ValueError(f"a coefficient sequence overflows a float ({exc})") from exc
        if np.any(beta_bar == 0.0):
            raise ValueError("beta_bar coefficients must all be nonzero")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "beta_bar", beta_bar)
        with np.errstate(all="ignore"):  # beyond float range is rejected below
            ratio = beta / beta_bar
            mu_p = mu / beta_bar - ratio * (mu[0] / beta_bar[0])
            gamma_p = gamma / beta_bar - ratio * (gamma[0] / beta_bar[0])
            mu_p[0] = mu[0] / beta_bar[0]
            gamma_p[0] = gamma[0] / beta_bar[0]
            object.__setattr__(self, "mu_p", mu_p)
            object.__setattr__(self, "gamma_p", gamma_p)
            # d_i = sup over the support of |b_i(z)| = |gamma'_i sqrt(z) + mu'_i/sqrt(z)|:
            # in sqrt(z) that is convex where gamma'_i, mu'_i share a sign (the
            # stationary point z = mu'_i/gamma'_i is its minimum) and V-shaped
            # where they do not, so the supremum sits at an end of the support
            every = slice(None)
            d = np.maximum(
                np.abs(_drift(self, every, np.sqrt(lo))), np.abs(_drift(self, every, np.sqrt(hi)))
            )
            d2 = d * d  # d2_tail squares each d_i
        object.__setattr__(self, "d", d)
        for name, values in (("gamma", gamma), ("mu", mu), ("beta", beta),
                             ("beta_bar", beta_bar), ("effective mu'", mu_p),
                             ("effective gamma'", gamma_p), ("d", d), ("d^2", d2)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name} is not finite at asset {bad[0] + 1} ({values[bad[0]]})")


def _check_z(spec: LargeMarketSpec, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    lo, hi = spec.mix.support()
    if np.any(z < lo - 1e-12) or np.any(z > hi + 1e-12):
        raise ValueError(f"z={z} outside the mixing support [{lo}, {hi}]")
    return z


def _drift(spec: LargeMarketSpec, idx, rz):
    """b_i at sqrt(z) = ``rz`` for the asset (index) or assets (slice) ``idx``
    counted from 0; ``rz`` broadcasts against the selected assets.  Asset 1
    has beta_1 = 0, so its index correction vanishes."""
    g, m, bb = spec.gamma[idx], spec.mu[idx], spec.beta_bar[idx]
    b1 = -spec.gamma[0] * rz / spec.beta_bar[0] - spec.mu[0] / (rz * spec.beta_bar[0])
    return -g * rz / bb - m / (rz * bb) - spec.beta[idx] * b1 / bb


def b_function(spec: LargeMarketSpec, i: int, z):
    """Conditional factor drift b_i(z) making the first n returns centered.

    b_1(z) = -gamma_1 sqrt(z)/bb_1 - mu_1/(sqrt(z) bb_1); for i >= 2 the
    index correction enters as -beta_i b_1(z)/bb_i.
    """
    if not 1 <= i <= spec.max_n:
        raise ValueError(f"asset index i={i} outside 1..{spec.max_n}")
    out = _drift(spec, i - 1, np.sqrt(_check_z(spec, z)))
    return float(out) if out.ndim == 0 else out


def effective_nmvm_segment(spec: LargeMarketSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu', gamma') with sqrt(Z)(eps_i - b_i(Z)) = mu'_i + gamma'_i Z + sqrt(Z) eps_i.

    Substituting b_i makes sqrt(z) b_i(z) affine in z; reading off the
    coefficients gives mu'_1 = mu_1/bb_1, gamma'_1 = gamma_1/bb_1 and, for
    i >= 2, mu'_i = (mu_i - beta_i mu_1 / bb_1)/bb_i and likewise for gamma'.
    The spec holds them for all max_n assets; this returns copies of the
    first n.
    """
    if not 1 <= n <= spec.max_n:
        raise ValueError(f"segment size n={n} outside 1..{spec.max_n}")
    return spec.mu_p[:n].copy(), spec.gamma_p[:n].copy()


def d_coefficient(spec: LargeMarketSpec, i: int) -> float:
    """d_i = sup over the mixing support of |b_i(z)| (held by the spec)."""
    if not 1 <= i <= spec.max_n:
        raise ValueError(f"asset index i={i} outside 1..{spec.max_n}")
    return float(spec.d[i - 1])


def d2_tail(spec: LargeMarketSpec, n: int) -> float:
    """Sum of d_i^2 over i in (n, min(2n, max_n)]: the Cauchy proxy."""
    top = min(2 * n, spec.max_n)
    # Python floats, summed in index order: numpy's pairwise sum and its
    # vector power each change the last bits of some tails
    return float(sum(d**2 for d in spec.d[n:top].tolist()))


def segment_scalars(spec: LargeMarketSpec, n: int) -> TransformedModel:
    """Reduce the n-asset h-parametrized segment (structure matrix = I)."""
    mu_p, gamma_p = effective_nmvm_segment(spec, n)
    return TransformedModel(
        mu0=mu_p,
        gamma0=gamma_p,
        a_scalar=float(gamma_p @ gamma_p),
        b_scalar=float(gamma_p @ mu_p),
        c_scalar=float(mu_p @ mu_p),
        theta0=math.inf,  # bounded support => s0 = -inf
    )


def _segment_optimum(spec: LargeMarketSpec, n: int) -> tuple[TransformedModel, float | None]:
    """The n-asset segment's scalars and H minimizer; None when it has no
    excess drift to trade against, where the optimum is h = gamma'."""
    tm = segment_scalars(spec, n)
    return tm, (None if tm.c_scalar <= 1e-300 else minimize_h(tm, spec.mix)[0])


def u_n(spec: LargeMarketSpec, n: int) -> float:
    """Minimal E[exp(-V(h))] over portfolios in the first n assets."""
    tm, q = _segment_optimum(spec, n)
    if q is None:
        return math.exp(spec.mix.log_laplace(0.5 * tm.a_scalar))
    return math.exp(log_g_min(tm, spec.mix, q))


def optimal_h(spec: LargeMarketSpec, n: int) -> np.ndarray:
    """Minimizing h for the n-asset segment (identity structure matrix)."""
    tm, q = _segment_optimum(spec, n)
    return tm.gamma0 if q is None else tm.gamma0 - q * tm.mu0


def martingale_density(spec: LargeMarketSpec, n: int, z, eps):
    """f_n = exp(sum_i [b_i(z) eps_i - b_i(z)^2 / 2]).

    This is the Gaussian tilt moving each factor mean to b_i(z): it has
    E[f_n(z)] = 1 and E[f_n(z) eps_i] = b_i(z), which is exactly what the
    martingale measure for the first n assets requires.  ``z`` may be a
    scalar with ``eps`` of shape (n,), or draws of shape (m,) with ``eps``
    of shape (m, n).
    """
    if not 1 <= n <= spec.max_n:
        raise ValueError(f"segment size n={n} outside 1..{spec.max_n}")
    z = _check_z(spec, z)
    eps = np.asarray(eps, dtype=float)
    scalar = z.ndim == 0
    z2 = z.reshape(-1)
    e2 = eps.reshape(1, -1) if eps.ndim == 1 else eps
    if e2.shape != (z2.size, n):
        raise ValueError(
            f"eps shape {eps.shape} incompatible with n={n} and {z2.size} z draws"
        )
    # b_i(z) = -(gamma'_i sqrt(z) + mu'_i / sqrt(z)), so the sums over i
    # reduce to dot products with the effective coefficients
    mu_p, gamma_p = spec.mu_p[:n], spec.gamma_p[:n]
    rz = np.sqrt(z2)
    b_eps = -(rz * (e2 @ gamma_p) + (e2 @ mu_p) / rz)
    b_sq = z2 * float(gamma_p @ gamma_p) + 2.0 * float(gamma_p @ mu_p) + float(mu_p @ mu_p) / z2
    expo = b_eps - 0.5 * b_sq
    out = np.exp(expo)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    u_n: float
    gap_to_double: float  # U_n - U_2n; nan when 2n exceeds the horizon
    d2_tail: float


def convergence_study(
    spec: LargeMarketSpec, n_list, tol: float = 1e-4
) -> tuple[list[ConvergenceRow], bool]:
    """U_n sweep with doubling gaps.

    Returns the table and a flag declaring numerical convergence when the
    last available doubling gap falls below ``tol``.
    """
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or not n_list:
        raise ValueError(f"n_list must be strictly increasing and nonempty: {n_list}")
    if n_list[-1] > spec.max_n:
        raise ValueError(f"max(n_list)={n_list[-1]} exceeds max_n={spec.max_n}")
    values = {n: u_n(spec, n) for n in n_list}
    rows = []
    for n in n_list:
        gap = math.nan
        if 2 * n <= spec.max_n:
            if 2 * n not in values:
                values[2 * n] = u_n(spec, 2 * n)
            gap = values[n] - values[2 * n]
        rows.append(ConvergenceRow(n, values[n], gap, d2_tail(spec, n)))
    finite_gaps = [r.gap_to_double for r in rows if not math.isnan(r.gap_to_double)]
    converged = bool(finite_gaps) and abs(finite_gaps[-1]) < tol
    return rows, converged
