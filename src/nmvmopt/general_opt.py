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
import operator
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._nelder_mead import minimize
from .errors import InfeasiblePointError, InvalidMomentOrderError
from .mixing import MixingDistribution
from .model import MarketModel, TransformedModel

__all__ = [
    "exponential_utility",
    "power_utility",
    "log_utility",
    "quadratic_utility",
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
_GRAM_TOL = 1e-9  # on rho^2 - |span part|^2, relative to max(1, rho^2)
_COS_TOL = 1e-9  # on psi when gamma0 is parallel to mu0
_EXP_MARGIN = 0.98  # share of the Laplace bound s0 the exp-feasible ball keeps
# k! as a float, for every k whose factorial a float holds (171! overflows);
# MomentTable.build rejects a higher order
_FACTORIALS = tuple(float(math.factorial(k)) for k in range(171))


# ---------------------------------------------------------------------------
# utilities: utility(k, w) = U^(k)(w) for k >= 0, the function the Monte
# Carlo oracle takes too
# ---------------------------------------------------------------------------


def _check_parameter(utility: str, name: str, value: float) -> None:
    """The built-ins' parameter rule: finite and > 0 (NaN fails it)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{utility} utility requires a finite {name} > 0, got {value}")


class _PerK(dict):
    """A utility's per-k constants: ``table[k]`` is ``make(k)``, computed
    on the first lookup of k."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, k):
        value = self[k] = self.make(k)
        return value


def exponential_utility(a: float):
    """U(w) = -exp(-a w), a > 0."""
    _check_parameter("exponential", "a", a)
    coeffs = _PerK(lambda k: -((-a) ** k))

    def utility(k, w):
        return coeffs[k] * np.exp(-a * w)

    return utility


def power_utility(eta: float):
    """CRRA U(w) = w^(1-eta)/(1-eta) on w > 0 (eta > 0, eta != 1)."""
    _check_parameter("power", "eta", eta)
    if eta == 1.0:
        raise ValueError("power utility requires eta != 1, got 1.0 (that is log utility)")
    e0 = 1.0 - eta

    def factors(k):
        # U^(k)(w) = coeff w^(e0 - k) / e0, coeff = e0 (e0 - 1) ... (e0 - k + 1)
        coeff = 1.0
        for j in range(k):
            coeff *= e0 - j
        return coeff, e0 - k

    terms = _PerK(factors)

    def formula(w, k):
        coeff, exponent = terms[k]
        return coeff * w**exponent / e0

    return _on_positive_wealth(formula)


def log_utility():
    """U(w) = ln w on w > 0."""
    coeffs = _PerK(lambda k: (-1.0) ** (k - 1) * math.factorial(k - 1))

    def formula(w, k):
        if k == 0:
            return math.log(w) if isinstance(w, float) else np.log(w)
        return coeffs[k] / w**k

    return _on_positive_wealth(formula)


def quadratic_utility(b: float):
    """U(w) = w - b w^2, b > 0.  Derivatives vanish beyond order 2, so the
    moment expansion is exact at any order >= 2.  The constant derivatives
    come as an array of w's shape for an array w."""
    _check_parameter("quadratic", "b", b)

    def utility(k, w):
        if k == 0:
            return w - b * (w * w)
        if k == 1:
            return 1.0 - 2.0 * b * w
        value = -2.0 * b if k == 2 else 0.0
        return np.full(w.shape, value) if isinstance(w, np.ndarray) else value

    return utility


def _on_positive_wealth(formula):
    """(k, w) -> ``formula(w, k)`` for w > 0, NaN elsewhere.  A positive
    Python float, the search's argument, goes to the formula as it is;
    arrays, w <= 0 and float overflow go through numpy (inf, not an error
    or a warning)."""

    def utility(k, w):
        if isinstance(w, float) and w > 0:
            try:
                return formula(w, k)
            except (OverflowError, ZeroDivisionError):
                pass
        w = np.asarray(w, dtype=float)
        with np.errstate(all="ignore"):
            out = np.where(w > 0, formula(np.where(w > 0, w, 1.0), k), np.nan)
        return float(out) if out.ndim == 0 else out

    return utility


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

    def gram_feasible(self, tm: TransformedModel, tol: float = _GRAM_TOL) -> bool:
        """Whether some y has these cosines and norm: the span part that
        ``_SpanBasis.lift`` finds is no longer than rho.  Dimension-free,
        so a missing complement direction is not held against the point;
        ``reconstruct_portfolio`` applies the same rule."""
        _, deficit = _SpanBasis(tm).lift(self.phi, self.psi, self.rho)
        return deficit >= -tol * max(1.0, self.rho**2)


@dataclass(frozen=True)
class ReducedDomain:
    """The search box on (phi, psi, rho); intersected with Gram feasibility.

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

    def __post_init__(self):
        for key in ("phi", "psi"):
            if not all(-1.0 <= bound <= 1.0 for bound in getattr(self, key)):
                raise ValueError(f"{key} bounds {getattr(self, key)} outside [-1, 1]")
        if not self.rho[0] >= 0.0:
            raise ValueError(f"rho lower bound {self.rho[0]} must be >= 0")
        if not math.isfinite(self.rho[1]):
            raise ValueError(f"rho upper bound {self.rho[1]} must be finite")
        for key in ("phi", "psi", "rho"):
            low, high = getattr(self, key)
            if low > high:
                raise ValueError(f"{key} bounds {getattr(self, key)} have low > high")

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
    box: ReducedDomain = ReducedDomain(),
) -> ReducedDomain:
    """``box`` cut to the interior of the finite-utility set.

    In reduced coordinates the exponential-utility Laplace argument is
    g = a W0 |gamma0| phi rho - (a W0 rho)^2 / 2.  Keeping g > margin * s0
    (so the truncated objective is never chased into the region where the
    exact expected utility is -infinity) is, in span coordinates c with
    c_0 = phi rho along gamma0 and |c| = rho, the open ball of centre
    |gamma0| / (a W0) and radius sqrt(|gamma0|^2 - 2 margin s0) / (a W0),
    with margin = _EXP_MARGIN.
    """
    s0 = mix.s_lower_bound
    if not math.isfinite(s0):
        return box
    g_norm = math.sqrt(tm.a_scalar)
    aw = a * w0
    radius = math.sqrt(max(0.0, tm.a_scalar - 2.0 * _EXP_MARGIN * s0)) / aw
    return replace(box, ball=(g_norm / aw, radius))


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
        """Raises ``InvalidMomentOrderError`` when a moment of the table or
        the order! that ``m_objective`` divides by is beyond float range."""
        terms = [()] * 2
        try:
            for k in range(2, order + 1):
                float(math.factorial(k))  # m_objective divides by k!
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
        except OverflowError as exc:
            raise InvalidMomentOrderError(
                f"a moment table of order {order} overflows a float ({exc})"
            ) from exc
        return cls(mix.mean, tuple(terms))


def mean_wealth(
    point: ReducedPoint,
    tm: TransformedModel,
    table: MomentTable,
    w0: float = 1.0,
    r_f: float = 0.0,
) -> float:
    """w(y) = W0(1+r_f) + W0 rho (|mu0| psi + |gamma0| phi EZ)."""
    g_norm = math.sqrt(tm.a_scalar)
    m_norm = math.sqrt(tm.c_scalar)
    return w0 * (1.0 + r_f) + w0 * point.rho * (
        m_norm * point.psi + g_norm * point.phi * table.mean
    )


def wealth_central_moment(
    k: int,
    point: ReducedPoint,
    tm: TransformedModel,
    table: MomentTable,
    w0: float = 1.0,
) -> float:
    """E[(W - w)^k] = W0^k rho^k sum_i C(k,i) E[(Z-EZ)^i Z^((k-i)/2)]
    E[N^(k-i)] (|gamma0| phi)^i, from ``table`` (order at least k).  Odd
    normal moments drop half the terms; k = 1 is identically zero."""
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if k == 1:
        return 0.0
    gp = math.sqrt(tm.a_scalar) * point.phi
    total = 0.0
    for i, c in table.terms[k]:
        total += c * gp**i
    return (w0 * point.rho) ** k * total


def dist_stats(
    point: ReducedPoint,
    tm: TransformedModel,
    table: MomentTable,
    w0: float = 1.0,
) -> tuple[float, float, float]:
    """(standard deviation, skewness, kurtosis) of W(y) in closed form,
    from ``table`` (order at least 4).

    Skewness and kurtosis do not depend on rho, so the moments are taken
    at rho = 1: at rho = 0 the result is std 0 with the limiting shape."""
    unit = ReducedPoint(point.phi, point.psi, 1.0)
    m2, m3, m4 = (wealth_central_moment(k, unit, tm, table, w0) for k in (2, 3, 4))
    return point.rho * math.sqrt(m2), m3 / m2**1.5, m4 / m2**2


def m_objective(
    point: ReducedPoint,
    utility: Callable,
    order: int,
    tm: TransformedModel,
    table: MomentTable,
    w0: float = 1.0,
    r_f: float = 0.0,
) -> float:
    """Truncated expansion M_order(phi, psi, rho) of E[U(W(y))], from
    ``table`` (order at least ``order``); ``utility(k, w)`` is U^(k)(w).

    The search's hot path: ``mean_wealth`` and ``wealth_central_moment``
    stay the definitions, and their arithmetic is inlined here step for
    step, so the value is theirs to the bit."""
    if order < 2:
        raise ValueError(f"order={order} must be >= 2")
    if table.order < order:
        raise ValueError(f"moment table of order {table.order} < order={order}")
    gp = math.sqrt(tm.a_scalar) * point.phi
    scale = w0 * point.rho
    w = w0 * (1.0 + r_f) + scale * (math.sqrt(tm.c_scalar) * point.psi + gp * table.mean)
    terms = table.terms
    total = float(utility(0, w))
    for k in range(2, order + 1):
        moment = 0.0
        for i, c in terms[k]:
            moment += c * gp**i
        total += float(utility(k, w)) * (scale**k * moment) / _FACTORIALS[k]
    return total


# ---------------------------------------------------------------------------
# span geometry shared by the optimizer and the reconstruction
# ---------------------------------------------------------------------------


class _SpanBasis:
    """Orthonormal basis of span{gamma0, mu0} (the first ``k`` rows of
    ``axes``) plus, if ``perp``, one deterministic orthogonal-complement
    direction.  The first axis is gamma0-hat whenever gamma0 is nonzero, so
    in span coordinates c: phi rho = c_0, psi rho = mu0-hat . c, rho = |c|.
    """

    def __init__(self, tm: TransformedModel):
        n = tm.mu0.shape[0]
        self.g_norm = math.sqrt(tm.a_scalar)
        self.m_norm = math.sqrt(tm.c_scalar)
        self.cos = tm.gamma_mu_cos
        axes = []
        if self.g_norm > _SPAN_TOL:
            axes.append(tm.gamma0 / self.g_norm)
        if self.m_norm > _SPAN_TOL:
            u = tm.mu0 / self.m_norm
            for v in axes:
                u = u - (u @ v) * v
            nrm = np.linalg.norm(u)
            if nrm > 1e-8:
                axes.append(u / nrm)
        self.k = len(axes)
        # psi is slaved to phi when both vectors are there but span one line
        self.parallel = self.g_norm > _SPAN_TOL and self.m_norm > _SPAN_TOL and self.k == 1
        if n > self.k:
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                for v in axes:  # the span vectors: the loop ends once one is added
                    e = e - (e @ v) * v
                nrm = np.linalg.norm(e)
                if nrm > 1e-6:
                    axes.append(e / nrm)
                    break
        self.perp = len(axes) > self.k
        self.axes = np.array(axes).reshape(len(axes), n)
        # mu0-hat in span coordinates (None when mu0 vanishes)
        self.mu_hat = (
            [float(v @ tm.mu0) / self.m_norm for v in axes] if self.m_norm > _SPAN_TOL else None
        )

    def point_map(self) -> Callable[[list], ReducedPoint]:
        """The reduced point of y = sum c_i basis_i as a function of c, a
        list of floats that it may change, with this basis's constants
        bound.  The complement coordinate is taken by its absolute value
        (always feasible).  The cosines are clipped to [-1, 1] as
        min(1.0, max(-1.0, v)) clips them, NaN going to -1.0, so the point
        is built without re-checking them."""
        perp, mu_hat = self.perp, self.mu_hat
        has_g = self.g_norm > _SPAN_TOL
        new, mul = object.__new__, operator.mul

        def point_of(c: list) -> ReducedPoint:
            if perp:
                c[-1] = abs(c[-1])
            rho = math.hypot(*c)
            if rho == 0.0:
                phi = psi = 0.0
            else:
                phi = c[0] / rho if has_g else 0.0
                psi = sum(map(mul, mu_hat, c)) / rho if mu_hat else 0.0
                phi = (phi if phi < 1.0 else 1.0) if phi > -1.0 else -1.0
                psi = (psi if psi < 1.0 else 1.0) if psi > -1.0 else -1.0
            point = new(ReducedPoint)
            fields = point.__dict__
            fields["phi"], fields["psi"], fields["rho"] = phi, psi, rho
            return point

        return point_of

    def coords_of_y(self, y: np.ndarray) -> list:
        """Span coordinates of y, with the norm of its out-of-span part as
        the complement coordinate."""
        span_c = self.axes[: self.k] @ y
        if not self.perp:
            return span_c.tolist()
        rest = float(np.linalg.norm(y - span_c @ self.axes[: self.k]))
        return [*span_c.tolist(), rest]

    def lift(self, phi: float, psi: float, rho: float) -> tuple[np.ndarray, float]:
        """Span coordinates c of the shortest y with y.gamma0-hat = phi rho
        and y.mu0-hat = psi rho, and the signed deficit rho^2 - |c|^2 that
        the complement direction has to make up.  No y exists when the
        deficit is negative; it is -inf when gamma0 is parallel to mu0 and
        psi is not the cosine phi then forces.  A cosine against a
        vanishing vector is ignored."""
        if self.k == 2:  # both vectors, gamma0-hat first
            t = math.sqrt(max(0.0, 1.0 - self.cos * self.cos))
            c2 = (psi - phi * self.cos) * rho / t if t > 1e-12 else 0.0
            span_c = np.array([phi * rho, c2])
        elif self.k == 1:  # gamma0 alone or mu0 parallel to it, else mu0 alone
            span_c = np.array([(phi if self.g_norm > _SPAN_TOL else psi) * rho])
        else:
            span_c = np.zeros(0)
        if self.parallel and abs(psi - self.cos * phi) > _COS_TOL:
            return span_c, -math.inf
        return span_c, rho * rho - float(span_c @ span_c)


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
        best = None
        for off, slack in self._balls:
            t = off * d0
            q = t**2 + slack
            r = -t + math.sqrt(q if q > 0.0 else 0.0)
            if best is None or r < best:
                best = r
        return best

    def point_map(self, point_of: Callable[[list], ReducedPoint]) -> Callable[[list], ReducedPoint]:
        """u, a list of floats, -> ``point_of(c)`` for the span coordinates
        c that u maps to, with this map's constants bound."""
        dim, star, reach = self.dim, self.star, self.reach
        shrink = 1.0 - _EDGE

        def point_at(u: list) -> ReducedPoint:
            size = math.hypot(*u)
            if size > 0.0:
                scale = math.tanh(size) * shrink * reach(u[0] / size) / size
                c = [scale * v for v in u]
            else:
                c = [0.0] * dim
            c[0] += star
            return point_of(c)

        return point_at

    def unconstrained(self, coords) -> list | None:
        """A u mapping to ``coords`` (pulled in to _SEED_REACH of the way to
        the boundary); None when ``coords`` lies outside K."""
        v = np.array(coords, dtype=float)
        v[0] -= self.star
        size = math.hypot(*v)
        if size == 0.0:
            return v.tolist()
        reach = self.reach(v[0] / size)
        if size > reach * (1.0 + 1e-9):
            return None
        t = min(size / ((1.0 - _EDGE) * reach), _SEED_REACH)
        return (v * (math.atanh(t) / size)).tolist()


# one errstate per search, not per utility call: seeds far outside the
# exp-feasible ball overflow np.exp(-a w), and score -inf like any non-finite probe
@np.errstate(over="ignore")
def optimize_3d(
    tm: TransformedModel,
    table: MomentTable,
    utility: Callable,
    order: int = 4,
    w0: float = 1.0,
    r_f: float = 0.0,
    domain: ReducedDomain | None = None,
) -> ReducedPoint:
    """Maximize the truncated objective over the feasible reduced set.

    Deterministic multi-start on the moments of ``table`` (order at least
    ``order``).  A lattice over the (phi, psi, rho) box is mapped into span
    coordinates by ``_SpanBasis.lift``; a point no portfolio has is
    projected onto the realizable set (the span part scaled to rho), so
    every candidate is Gram-feasible, including rank-deficient markets
    where the feasible set is the Gram boundary.  Candidates outside the
    rho ball or the domain's ball are dropped.  The best four finite seeds
    are refined with Nelder-Mead in the unconstrained variable of
    ``_BallMap``, so no probe leaves those balls, and ties go to the
    lexicographically smallest seed.  A non-finite objective value, or one
    beyond float range, counts as -inf, both when ranking seeds and inside
    Nelder-Mead; when no seed lies in the search set or every seed scores
    -inf, no point of the domain can be searched and
    ``InfeasiblePointError`` is raised.
    """
    domain = domain or ReducedDomain()
    basis = _SpanBasis(tm)
    search = _BallMap(len(basis.axes), domain)
    point_at = search.point_map(basis.point_map())

    def cost(u: list) -> float:
        # -M at the point u maps to.  Every probe calls ReducedDomain.contains
        # and the module-level m_objective: the benchmark tracer counts
        # probes through them, and tests patch them
        p = point_at(u)
        if not domain.contains(p):
            return math.inf
        try:
            v = m_objective(p, utility, order, tm, table, w0, r_f)
        except OverflowError:  # a float power beyond float range, as (-a)^k
            return math.inf
        return -v if math.isfinite(v) else math.inf

    phis, psis, rhos = (
        np.linspace(*bounds, size).tolist()
        for bounds, size in zip((domain.phi, domain.psi, domain.rho), _LATTICE)
    )
    seeds = [[0.0] * len(basis.axes)]
    for phi in phis:
        for psi in psis:
            for rho in rhos:
                span_c, deficit = basis.lift(phi, psi, rho)
                if deficit < 0.0 or not basis.perp:  # project: span part scaled to rho
                    norm2 = float(span_c @ span_c)
                    if norm2 > 0:
                        span_c = span_c * (rho / math.sqrt(norm2))
                    deficit = 0.0
                seeds.append([*span_c.tolist(), math.sqrt(deficit)] if basis.perp else span_c.tolist())
    uniq = {}
    for key in map(tuple, np.round(np.array(seeds), 12).tolist()):
        u = search.unconstrained(key)
        if u is not None:
            uniq[key] = u
    scored = sorted(((cost(u), key, u) for key, u in uniq.items()), key=lambda t: t[:2])

    if not scored or scored[0][0] == math.inf:
        raise InfeasiblePointError(
            f"no seed in the search domain has a finite order-{order} objective"
        )
    best_v, best_u = -scored[0][0], scored[0][2]
    for c, _, start in scored[:4]:
        if c == math.inf:
            break
        for _ in range(2):  # restart once to tighten the simplex
            start = minimize(cost, start, xatol=1e-11, fatol=1e-13, maxiter=4000, maxfev=8000).x
        v = -cost(start)
        if v > best_v + 1e-15:
            best_u, best_v = start, v
    point = point_at(best_u)
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
    span_c, deficit = basis.lift(point.phi, point.psi, point.rho)
    tol = _GRAM_TOL * max(1.0, point.rho**2)
    if deficit < -tol:
        raise InfeasiblePointError(
            f"no portfolio has (phi, psi, rho) = ({point.phi:.6g}, {point.psi:.6g}, "
            f"{point.rho:.6g}): the cosines violate Gram feasibility"
        )
    if deficit > tol and not basis.perp:
        raise InfeasiblePointError(
            f"point needs an out-of-span component of norm {math.sqrt(deficit):.6g} "
            "but the market has no orthogonal directions left (rank-deficient case)"
        )
    coords = list(span_c) + ([math.sqrt(max(deficit, 0.0))] if basis.perp else [])
    return np.linalg.solve(model.a_matrix.T, np.array(coords) @ basis.axes)


def reduce_portfolio(
    x: np.ndarray, tm: TransformedModel, model: MarketModel
) -> ReducedPoint:
    """(phi, psi, rho) of a portfolio: rho = sqrt(x' Sigma x) and the
    cosines of y = A^T x against gamma0 and mu0."""
    basis = _SpanBasis(tm)
    y = model.a_matrix.T @ np.asarray(x, dtype=float)
    return basis.point_map()(basis.coords_of_y(y))
