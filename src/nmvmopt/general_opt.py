"""General-utility optimizer via moment expansion in reduced coordinates.

The distribution of wealth W(y) depends on the transformed portfolio y
only through three numbers: the cosines of y against gamma0 and mu0
(phi, psi) and the norm rho = |y|.  Expanding a smooth utility around the
mean wealth w(y) therefore collapses the n-dimensional optimization to a
3-dimensional one:

    M(phi, psi, rho) = U(w) + sum_{k>=2} U^(k)(w) E[(W-w)^k] / k!

with the central moments available in closed form from the mixing law.
The series is truncated at a configurable order (default 4); the optimum
is then lifted back to a portfolio by solving the three constraints
y.gamma0 = phi |gamma0| rho, y.mu0 = psi |mu0| rho, |y| = rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize

from .errors import InfeasiblePointError
from .mixing import MixingDistribution
from .model import MarketModel, TransformedModel

__all__ = [
    "UtilitySpec",
    "ReducedPoint",
    "ReducedDomain",
    "exp_feasible_domain",
    "MomentTable",
    "normal_moment",
    "mean_wealth",
    "wealth_central_moment",
    "dist_stats",
    "m_objective",
    "optimize_3d",
    "reconstruct_portfolio",
    "reduce_portfolio",
]

_SPAN_TOL = 1e-12


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UtilitySpec:
    """Smooth utility with derivatives of arbitrary order.

    ``value(w)`` evaluates U, ``derivative(k, w)`` evaluates U^(k) for
    k >= 1.  ``max_order`` is the highest usable derivative order (None
    means unlimited).  Derivatives are validated against finite
    differences of the next-lower order at registration.
    """

    value: Callable
    derivative: Callable
    max_order: Optional[int] = None
    kind: str = "custom"

    @staticmethod
    def exponential(a: float) -> "UtilitySpec":
        """U(w) = -exp(-a w), a > 0."""
        if not a > 0:
            raise ValueError(f"exponential utility requires a > 0, got {a}")
        spec = UtilitySpec(
            value=lambda w: -np.exp(-a * w),
            derivative=lambda k, w: -((-a) ** k) * np.exp(-a * w),
            max_order=None,
            kind="exponential",
        )
        _validate_derivatives(spec)
        return spec

    @staticmethod
    def power(eta: float) -> "UtilitySpec":
        """CRRA U(w) = w^(1-eta)/(1-eta) on w > 0 (eta > 0, eta != 1)."""
        if eta <= 0 or eta == 1.0:
            raise ValueError(f"power utility requires eta > 0, eta != 1, got {eta}")
        e0 = 1.0 - eta

        def value(w):
            if isinstance(w, float) and w > 0:  # scalar fast path of the search
                try:
                    return w**e0 / e0
                except OverflowError:
                    pass  # numpy below gives inf
            w = np.asarray(w, dtype=float)
            out = np.where(w > 0, np.power(np.where(w > 0, w, 1.0), e0) / e0, np.nan)
            return float(out) if out.ndim == 0 else out

        def derivative(k, w):
            coeff = 1.0
            for j in range(k):
                coeff *= e0 - j
            if isinstance(w, float) and w > 0:
                try:
                    return coeff * w ** (e0 - k) / e0
                except OverflowError:
                    pass
            w = np.asarray(w, dtype=float)
            out = np.where(
                w > 0, coeff * np.power(np.where(w > 0, w, 1.0), e0 - k) / e0, np.nan
            )
            return float(out) if out.ndim == 0 else out

        spec = UtilitySpec(value, derivative, None, "power")
        _validate_derivatives(spec)
        return spec

    @staticmethod
    def log() -> "UtilitySpec":
        """U(w) = ln w on w > 0."""

        def value(w):
            if isinstance(w, float) and w > 0:  # scalar fast path of the search
                return math.log(w)
            w = np.asarray(w, dtype=float)
            out = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), np.nan)
            return float(out) if out.ndim == 0 else out

        def derivative(k, w):
            coeff = (-1.0) ** (k - 1) * math.factorial(k - 1)
            if isinstance(w, float) and w > 0:
                try:
                    return coeff / w**k
                except (OverflowError, ZeroDivisionError):
                    pass  # numpy below gives +-inf
            w = np.asarray(w, dtype=float)
            out = np.where(w > 0, coeff / np.power(np.where(w > 0, w, 1.0), k), np.nan)
            return float(out) if out.ndim == 0 else out

        spec = UtilitySpec(value, derivative, None, "log")
        _validate_derivatives(spec)
        return spec

    @staticmethod
    def quadratic(b: float) -> "UtilitySpec":
        """U(w) = w - b w^2, b > 0.  Derivatives vanish beyond order 2,
        so the moment expansion is exact at any order >= 2."""
        if not b > 0:
            raise ValueError(f"quadratic utility requires b > 0, got {b}")

        def derivative(k, w):
            w = np.asarray(w, dtype=float)
            if k == 1:
                out = 1.0 - 2.0 * b * w
            elif k == 2:
                out = np.full_like(w, -2.0 * b)
            else:
                out = np.zeros_like(w)
            return float(out) if out.ndim == 0 else out

        spec = UtilitySpec(lambda w: w - b * np.asarray(w, float) ** 2, derivative, None, "quadratic")
        _validate_derivatives(spec)
        return spec

    @staticmethod
    def custom(value, derivative, max_order=None, validate=True) -> "UtilitySpec":
        spec = UtilitySpec(value, derivative, max_order, "custom")
        if validate:
            _validate_derivatives(spec)
        return spec


_PROBE_GRID = (0.6, 1.1, 1.9, 2.7)


def _validate_derivatives(spec: UtilitySpec, rel_tol: float = 1e-5) -> None:
    """Check derivative(k,.) against central differences of order k-1."""
    top = 4 if spec.max_order is None else min(spec.max_order, 4)
    for k in range(1, top + 1):
        lower = spec.value if k == 1 else (lambda w, _k=k: spec.derivative(_k - 1, w))
        for w in _PROBE_GRID:
            h = 1e-6 * max(1.0, abs(w))
            fd = (lower(w + h) - lower(w - h)) / (2.0 * h)
            an = spec.derivative(k, w)
            if abs(fd - an) > rel_tol * max(abs(an), abs(fd)) + 1e-8:
                raise ValueError(
                    f"derivative order {k} inconsistent with finite difference "
                    f"at w={w}: analytic={an}, fd={fd}"
                )


# ---------------------------------------------------------------------------
# reduced coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedPoint:
    """(phi, psi, rho): cosines against gamma0 / mu0 and the y-norm."""

    phi: float
    psi: float
    rho: float

    def __post_init__(self):
        if not -1.0 <= self.phi <= 1.0:
            raise ValueError(f"phi={self.phi} outside [-1, 1]")
        if not -1.0 <= self.psi <= 1.0:
            raise ValueError(f"psi={self.psi} outside [-1, 1]")
        if self.rho < 0.0:
            raise ValueError(f"rho={self.rho} must be >= 0")

    def gram_feasible(self, tm: TransformedModel, tol: float = 1e-9) -> bool:
        """Positive semidefiniteness of the Gram matrix of the unit vectors
        (gamma0-hat, mu0-hat, y-hat); rows for vanishing vectors drop out."""
        r = tm.gamma_mu_cos
        have_g = tm.a_scalar > _SPAN_TOL
        have_m = tm.c_scalar > _SPAN_TOL
        if have_g and have_m:
            det = 1.0 + 2.0 * r * self.phi * self.psi - r * r - self.phi**2 - self.psi**2
            return det >= -tol
        if have_m:
            return abs(self.psi) <= 1.0 + tol
        if have_g:
            return abs(self.phi) <= 1.0 + tol
        return True


@dataclass(frozen=True)
class ReducedDomain:
    """Box constraints on (phi, psi, rho); intersected with Gram feasibility.

    ``ball``, if given, is ``(centre, radius)`` of an open ball in span
    coordinates, centred at ``centre`` times the unit gamma0 direction:
    rho^2 - 2 centre phi rho + centre^2 < radius^2.  It keeps
    exponential-utility searches inside the finite-expected-utility set,
    where the moment expansion actually approximates something finite.
    """

    phi: tuple = (-1.0, 1.0)
    psi: tuple = (-1.0, 1.0)
    rho: tuple = (0.0, 5.0)
    ball: Optional[tuple] = None

    def contains(self, p: ReducedPoint, tol: float = 1e-12) -> bool:
        inside = (
            self.phi[0] - tol <= p.phi <= self.phi[1] + tol
            and self.psi[0] - tol <= p.psi <= self.psi[1] + tol
            and self.rho[0] - tol <= p.rho <= self.rho[1] + tol
        )
        if inside and self.ball is not None:
            centre, radius = self.ball
            inside = p.rho * (p.rho - 2.0 * centre * p.phi) + centre * centre < radius * radius
        return inside


def exp_feasible_domain(
    tm: TransformedModel,
    mix: MixingDistribution,
    a: float = 1.0,
    w0: float = 1.0,
    rho: tuple = (0.0, 5.0),
    margin: float = 0.98,
    *,
    phi: tuple = (-1.0, 1.0),
    psi: tuple = (-1.0, 1.0),
) -> ReducedDomain:
    """Reduced domain cut to the interior of the finite-utility set.

    In reduced coordinates the exponential-utility Laplace argument is
    g = a W0 |gamma0| phi rho - (a W0 rho)^2 / 2.  Keeping g > margin * s0
    (so the truncated objective is never chased into the region where the
    exact expected utility is -infinity) is, in span coordinates c with
    c_0 = phi rho along gamma0 and |c| = rho, the open ball of centre
    |gamma0| / (a W0) and radius sqrt(|gamma0|^2 - 2 margin s0) / (a W0).
    """
    s0 = mix.s_lower_bound
    if not math.isfinite(s0):
        return ReducedDomain(phi=phi, psi=psi, rho=rho)
    g_norm = math.sqrt(tm.a_scalar)
    aw = a * w0
    radius = math.sqrt(max(0.0, tm.a_scalar - 2.0 * margin * s0)) / aw
    return ReducedDomain(phi=phi, psi=psi, rho=rho, ball=(g_norm / aw, radius))


def normal_moment(m: int) -> float:
    """E[N^m] for standard normal: 0 odd, m!/(2^(m/2) (m/2)!) even."""
    if m < 0:
        raise ValueError(f"moment order m={m} must be >= 0")
    if m % 2 == 1:
        return 0.0
    return math.factorial(m) / (2 ** (m // 2) * math.factorial(m // 2))


@dataclass(frozen=True)
class MomentTable:
    """The mixing-law moments of the expansion, tabled once per solve.

    ``terms[k]`` lists the pairs (i, c[k,i]) with
    c[k,i] = C(k,i) E[(Z-EZ)^i Z^((k-i)/2)] E[N^(k-i)] for the even k - i,
    so that E[(W-w)^k] = (W0 rho)^k sum_i c[k,i] (|gamma0| phi)^i.
    """

    mean: float
    terms: tuple

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    @classmethod
    def build(cls, mix: MixingDistribution, order: int) -> "MomentTable":
        terms = [()] * 2
        for k in range(2, order + 1):
            terms.append(
                tuple(
                    (
                        i,
                        math.comb(k, i)
                        * mix.mixed_central_moment(i, (k - i) / 2.0)
                        * normal_moment(k - i),
                    )
                    for i in range(k % 2, k + 1, 2)
                )
            )
        return cls(mix.mean, tuple(terms))


def mean_wealth(
    point: ReducedPoint,
    tm: TransformedModel,
    mix: MixingDistribution,
    w0: float = 1.0,
    r_f: float = 0.0,
    table: MomentTable | None = None,
) -> float:
    """w(y) = W0(1+r_f) + W0 rho (|mu0| psi + |gamma0| phi EZ).  EZ comes
    from ``table`` when one is given."""
    ez = mix.mean if table is None else table.mean
    g_norm = math.sqrt(tm.a_scalar)
    m_norm = math.sqrt(tm.c_scalar)
    return w0 * (1.0 + r_f) + w0 * point.rho * (
        m_norm * point.psi + g_norm * point.phi * ez
    )


def wealth_central_moment(
    k: int,
    point: ReducedPoint,
    tm: TransformedModel,
    mix: MixingDistribution,
    w0: float = 1.0,
    table: MomentTable | None = None,
) -> float:
    """E[(W - w)^k] = W0^k rho^k sum_i C(k,i) E[(Z-EZ)^i Z^((k-i)/2)]
    E[N^(k-i)] (|gamma0| phi)^i.  Odd normal moments drop half the terms;
    k = 1 is identically zero.  The moments come from ``table`` (order at
    least k) when one is given, else from a table built for this call."""
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if k == 1:
        return 0.0
    if table is None:
        table = MomentTable.build(mix, k)
    gp = math.sqrt(tm.a_scalar) * point.phi
    total = 0.0
    for i, c in table.terms[k]:
        total += c * gp**i
    return (w0 * point.rho) ** k * total


def dist_stats(
    point: ReducedPoint,
    tm: TransformedModel,
    mix: MixingDistribution,
    w0: float = 1.0,
) -> tuple[float, float, float]:
    """(standard deviation, skewness, kurtosis) of W(y) in closed form."""
    gp = math.sqrt(tm.a_scalar) * point.phi
    ez = mix.mean
    var_z = mix.variance
    ez2 = mix.moment(2.0)
    ez3 = mix.moment(3.0)
    m3 = mix.mixed_central_moment(3, 0.0)
    m4 = mix.mixed_central_moment(4, 0.0)
    base = gp * gp * var_z + ez
    std = w0 * point.rho * math.sqrt(base)
    skew = (gp**3 * m3 + 3.0 * gp * var_z) / base**1.5
    kurt = (
        gp**4 * m4 + 6.0 * gp * gp * (ez3 - 2.0 * ez2 * ez + ez**3) + 3.0 * ez2
    ) / base**2
    return std, skew, kurt


def m_objective(
    point: ReducedPoint,
    utility: UtilitySpec,
    order: int,
    tm: TransformedModel,
    mix: MixingDistribution,
    w0: float = 1.0,
    r_f: float = 0.0,
    table: MomentTable | None = None,
) -> float:
    """Truncated expansion M_order(phi, psi, rho) of E[U(W(y))].

    ``table`` (order at least ``order``) saves rebuilding the moments on
    every call; without it one is built for this call."""
    if order < 2:
        raise ValueError(f"order={order} must be >= 2")
    if utility.max_order is not None and order > utility.max_order:
        raise ValueError(
            f"order={order} exceeds utility max_order={utility.max_order}"
        )
    if table is None:
        table = MomentTable.build(mix, order)
    elif table.order < order:
        raise ValueError(f"moment table of order {table.order} < order={order}")
    w = mean_wealth(point, tm, mix, w0, r_f, table)
    total = float(utility.value(w))
    for k in range(2, order + 1):
        total += (
            float(utility.derivative(k, w))
            * wealth_central_moment(k, point, tm, mix, w0, table)
            / math.factorial(k)
        )
    return total


# ---------------------------------------------------------------------------
# span geometry shared by the optimizer and the reconstruction
# ---------------------------------------------------------------------------


class _SpanBasis:
    """Orthonormal basis of span{gamma0, mu0} plus one deterministic
    orthogonal-complement direction (when the dimension allows one).

    The first basis vector is gamma0-hat whenever gamma0 is nonzero, so in
    span coordinates c: phi rho = c_0, psi rho = mu0-hat . c and rho = |c|.
    """

    def __init__(self, tm: TransformedModel):
        self.tm = tm
        n = tm.mu0.shape[0]
        self.g_norm = math.sqrt(tm.a_scalar)
        self.m_norm = math.sqrt(tm.c_scalar)
        vecs = []
        if self.g_norm > _SPAN_TOL:
            vecs.append(tm.gamma0 / self.g_norm)
        if self.m_norm > _SPAN_TOL:
            u = tm.mu0 / self.m_norm
            for v in vecs:
                u = u - (u @ v) * v
            nrm = np.linalg.norm(u)
            if nrm > 1e-8:
                vecs.append(u / nrm)
        self.span = vecs
        self.perp = None
        if n > len(vecs):
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                for v in vecs:
                    e = e - (e @ v) * v
                nrm = np.linalg.norm(e)
                if nrm > 1e-6:
                    self.perp = e / nrm
                    break
        axes = vecs + ([self.perp] if self.perp is not None else [])
        self.axes = np.array(axes).reshape(len(axes), n)
        # mu0-hat in span coordinates (None when mu0 vanishes)
        self.mu_hat = (
            [float(v @ tm.mu0) / self.m_norm for v in axes] if self.m_norm > _SPAN_TOL else None
        )

    @property
    def dim(self) -> int:
        return len(self.span) + (1 if self.perp is not None else 0)

    def point_of(self, coords) -> ReducedPoint:
        """Reduced point of y = sum coords_i basis_i, the complement
        coordinate taken by its absolute value (always feasible)."""
        c = [float(v) for v in coords]
        if self.perp is not None:
            c[-1] = abs(c[-1])
        rho = math.hypot(*c)
        if rho == 0.0:
            return ReducedPoint(0.0, 0.0, 0.0)
        phi = c[0] / rho if self.g_norm > _SPAN_TOL else 0.0
        psi = sum(m * v for m, v in zip(self.mu_hat, c)) / rho if self.mu_hat else 0.0
        return ReducedPoint(min(1.0, max(-1.0, phi)), min(1.0, max(-1.0, psi)), rho)

    def coords_of_y(self, y: np.ndarray) -> np.ndarray:
        """Span coordinates of y, with the norm of its out-of-span part as
        the complement coordinate."""
        k = len(self.span)
        span_c = self.axes[:k] @ y
        if self.perp is None:
            return span_c
        rest = float(np.linalg.norm(y - span_c @ self.axes[:k]))
        return np.append(span_c, rest)

    def coords_of_target(self, phi: float, psi: float, rho: float) -> np.ndarray:
        """Coordinates approximating a (phi, psi, rho) target; projects
        Gram-infeasible targets onto the feasible set (used for seeding)."""
        span_c = self._span_coeffs(phi, psi, rho)
        norm2 = float(span_c @ span_c)
        deficit = rho * rho - norm2
        if deficit < 0.0 or self.perp is None:
            if norm2 > 0:
                span_c = span_c * (rho / math.sqrt(norm2))
            out = list(span_c)
            if self.perp is not None:
                out.append(0.0)
            return np.array(out)
        return np.array(list(span_c) + [math.sqrt(deficit)])

    def _span_coeffs(self, phi: float, psi: float, rho: float) -> np.ndarray:
        have_g = self.g_norm > _SPAN_TOL
        have_m = self.m_norm > _SPAN_TOL
        if have_g and len(self.span) == 2:
            r = self.tm.gamma_mu_cos
            t = math.sqrt(max(0.0, 1.0 - r * r))
            c1 = phi * rho
            c2 = (psi - phi * r) * rho / t if t > 1e-12 else 0.0
            return np.array([c1, c2])
        if have_g and have_m and len(self.span) == 1:
            # parallel vectors: psi is slaved to phi through the sign of r
            return np.array([phi * rho])
        if have_g:
            return np.array([phi * rho])
        if have_m:
            return np.array([psi * rho])
        return np.zeros(0)


# ---------------------------------------------------------------------------
# 3-d optimizer
# ---------------------------------------------------------------------------

_LATTICE = (5, 5, 7)  # phi x psi x rho seeds
_EDGE = 1e-9  # share of the distance to the search set's boundary left unused
_SEED_REACH = math.tanh(3.0)  # seeds beyond this share of that distance are pulled in


class _BallMap:
    """Maps an unconstrained variable u onto the interior of the search set.

    The search set K, in span coordinates, is the ball |c| <= rho_max of
    the rho box, cut by the domain's ball when it has one.  Both balls are
    centred on the first axis, so K is convex and contains ``star``, the
    middle of its extent along that axis.  u = |u| d (d a unit vector) maps
    to c = star + tanh(|u|) (1 - _EDGE) reach(d) d, where reach(d) is the
    distance from the star to the boundary of K along d.
    """

    def __init__(self, dim: int, domain: ReducedDomain):
        balls = [(0.0, max(0.0, domain.rho[1]))]
        if domain.ball is not None:
            balls.append(domain.ball)
        lo = max(q - r for q, r in balls)
        hi = min(q + r for q, r in balls)
        self.dim = dim
        self.star = 0.5 * (lo + hi)
        # per ball: offset of the star from its centre, radius^2 - offset^2
        self._balls = [(self.star - q, r * r - (self.star - q) ** 2) for q, r in balls]

    def reach(self, d0: float) -> float:
        """Distance from the star to the boundary of K along a unit vector
        whose first component is d0."""
        return min(
            -off * d0 + math.sqrt(max(0.0, (off * d0) ** 2 + slack)) for off, slack in self._balls
        )

    def coords(self, u) -> list:
        u = [float(v) for v in u]
        size = math.hypot(*u)
        c = [0.0] * self.dim
        if size > 0.0:
            scale = math.tanh(size) * (1.0 - _EDGE) * self.reach(u[0] / size) / size
            c = [scale * v for v in u]
        c[0] += self.star
        return c

    def unconstrained(self, coords) -> np.ndarray | None:
        """A u mapping to ``coords`` (pulled in to _SEED_REACH of the way to
        the boundary); None when ``coords`` lies outside K."""
        v = np.array(coords, dtype=float)
        v[0] -= self.star
        size = math.hypot(*v)
        if size == 0.0:
            return v
        reach = self.reach(v[0] / size)
        if size > reach * (1.0 + 1e-9):
            return None
        t = min(size / ((1.0 - _EDGE) * reach), _SEED_REACH)
        return v * (math.atanh(t) / size)


def optimize_3d(
    tm: TransformedModel,
    mix: MixingDistribution,
    utility: UtilitySpec,
    order: int = 4,
    w0: float = 1.0,
    r_f: float = 0.0,
    domain: ReducedDomain | None = None,
) -> ReducedPoint:
    """Maximize the truncated objective over the feasible reduced set.

    Deterministic multi-start.  The mixing moments are tabled once.  A
    lattice over the (phi, psi, rho) box is mapped into span coordinates
    (making every candidate Gram-feasible, including rank-deficient markets
    where the feasible set is the Gram boundary); candidates outside the
    rho ball or the domain's ball are dropped.  The best four finite seeds
    are refined with Nelder-Mead in the unconstrained variable of
    ``_BallMap``, so no probe leaves those balls, and ties go to the
    lexicographically smallest seed.  A non-finite objective value counts
    as -inf, both when ranking seeds and inside Nelder-Mead.
    """
    domain = domain or ReducedDomain()
    basis = _SpanBasis(tm)
    search = _BallMap(basis.dim, domain)
    table = MomentTable.build(mix, order)

    def objective(u) -> float:
        p = basis.point_of(search.coords(u))
        if not domain.contains(p):
            return -math.inf
        v = m_objective(p, utility, order, tm, mix, w0, r_f, table)
        return v if math.isfinite(v) else -math.inf

    seeds = [np.zeros(basis.dim)]
    for phi in np.linspace(*domain.phi, _LATTICE[0]):
        for psi in np.linspace(*domain.psi, _LATTICE[1]):
            for rho in np.linspace(*domain.rho, _LATTICE[2]):
                seeds.append(basis.coords_of_target(phi, psi, rho))
    uniq = {}
    for c in seeds:
        key = tuple(np.round(c, 12))
        u = search.unconstrained(key)
        if u is not None:
            uniq[key] = u
    scored = sorted(
        ((objective(u), key, u) for key, u in uniq.items()),
        key=lambda t: (-t[0], t[1]),
    )

    best_v, _, best_u = scored[0]
    for v, _, start in scored[:4]:
        if v == -math.inf:
            break
        for _ in range(2):  # restart once to tighten the simplex
            res = minimize(
                lambda u: -objective(u),
                start,
                method="Nelder-Mead",
                options={
                    "xatol": 1e-11,
                    "fatol": 1e-13,
                    "maxiter": 4000,
                    "maxfev": 8000,
                },
            )
            start = res.x
        v = objective(start)
        if v > best_v + 1e-15:
            best_u, best_v = start, v
    point = basis.point_of(search.coords(best_u))
    if point.rho < 1e-12:
        return ReducedPoint(0.0, 0.0, 0.0)
    return point


# ---------------------------------------------------------------------------
# portfolio reconstruction
# ---------------------------------------------------------------------------


def reconstruct_portfolio(
    point: ReducedPoint,
    tm: TransformedModel,
    model: MarketModel,
) -> np.ndarray:
    """Lift a reduced point back to portfolio weights.

    Builds the minimum-norm y on span{gamma0, mu0} meeting the two dot
    product constraints, pads it with the deterministic complement
    direction to reach |y| = rho, then maps back via x = A^-T y.
    """
    basis = _SpanBasis(tm)
    span_c = basis._span_coeffs(point.phi, point.psi, point.rho)
    norm2 = float(span_c @ span_c)
    rho2 = point.rho**2
    deficit = rho2 - norm2
    tol = 1e-9 * max(1.0, rho2)
    if deficit < -tol:
        raise InfeasiblePointError(
            f"span projection norm {math.sqrt(norm2):.6g} exceeds rho={point.rho:.6g}: "
            "(phi, psi) violate Gram feasibility"
        )
    if deficit > tol and basis.perp is None:
        raise InfeasiblePointError(
            f"point needs an out-of-span component of norm {math.sqrt(max(deficit, 0)):.6g} "
            "but the market has no orthogonal directions left (rank-deficient case)"
        )
    coords = list(span_c) + ([math.sqrt(max(deficit, 0.0))] if basis.perp is not None else [])
    return np.linalg.solve(model.a_matrix.T, np.array(coords) @ basis.axes)


def reduce_portfolio(
    x: np.ndarray, tm: TransformedModel, model: MarketModel
) -> ReducedPoint:
    """(phi, psi, rho) of a portfolio: rho = sqrt(x' Sigma x) and the
    cosines of y = A^T x against gamma0 and mu0."""
    basis = _SpanBasis(tm)
    y = model.a_matrix.T @ np.asarray(x, dtype=float)
    return basis.point_of(basis.coords_of_y(y))
