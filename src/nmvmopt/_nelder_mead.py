"""Nelder-Mead, ported from scipy with the same arithmetic.

``general_opt`` refines each of its best seeds with an unbounded
Nelder-Mead search in three or fewer variables.  scipy's version keeps the
simplex in small numpy arrays, and on problems this size the array calls
cost several times the objective.  ``minimize`` here is scipy's
``minimize(method="Nelder-Mead")`` (scipy 1.17, ``adaptive=False``, no
bounds, the default initial simplex) on lists of Python floats.  It does scipy's floating-point operations in scipy's order,
so it visits the same points in the same order, makes the same number of
evaluations and returns the same bits.  Three details carry that:

- vertices are ordered as ``np.argsort`` orders them, and its order of
  equal values is not the same on every CPU, so ties and NaN go to
  ``np.argsort`` itself;
- the centroid sums the rows from the first row, as ``np.add.reduce`` does,
  so a -0.0 coordinate keeps its sign;
- the convergence test is true only when no difference is NaN, as
  ``np.max(...) <= tol`` is.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

__all__ = ["minimize", "NelderMeadResult"]

_NONZDELT = 0.05  # initial step, relative, along a nonzero coordinate
_ZDELT = 0.00025  # initial step along a zero coordinate


class NelderMeadResult(NamedTuple):
    """Best vertex, stop reason (0 converged, 1 ``maxfev``, 2 ``maxiter``),
    evaluations and iterations, as scipy counts them."""

    x: list
    status: int
    nfev: int
    nit: int


class _MaxFev(Exception):
    pass


def _by_value(sim: list, fsim: list) -> tuple[list, list]:
    """Vertices and values in ``np.argsort(fsim)`` order: ``sorted`` gives
    it when the values are distinct and not NaN, numpy itself otherwise."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    ranked = [fsim[i] for i in order]
    if not all(map(operator.lt, ranked, ranked[1:])):
        order = np.array(fsim).argsort().tolist()
        ranked = [fsim[i] for i in order]
    return [sim[i] for i in order], ranked


def _converged(sim: list, fsim: list, xatol: float, fatol: float) -> bool:
    """Every vertex within ``xatol`` of the first in each coordinate and
    within ``fatol`` of it in value; false on any NaN difference."""
    best, fbest = sim[0], fsim[0]
    for row in sim[1:]:
        for a, b in zip(row, best):
            if not abs(a - b) <= xatol:
                return False
    for fv in fsim[1:]:
        if not abs(fbest - fv) <= fatol:
            return False
    return True


def minimize(fun, x0, *, xatol: float, fatol: float, maxiter: int, maxfev: int) -> NelderMeadResult:
    """Minimize ``fun`` from ``x0``; ``fun`` takes a list of floats and
    must not change it (scipy passes a copy, this passes its own vertex).

    Stops when every vertex is within ``xatol`` of the best in each
    coordinate and within ``fatol`` of it in value, or before an evaluation
    beyond ``maxfev`` (possibly mid-iteration), or after ``maxiter``
    iterations, whichever comes first.
    """
    x0 = [float(v) for v in np.ravel(x0)]
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return fun(x)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFev:
        pass
    for _ in range(2):  # scipy sorts twice before the first iteration
        sim, fsim = _by_value(sim, fsim)

    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            if _converged(sim, fsim, xatol, fatol):
                break
            best = sim[0]
            total = sim[0]
            for row in sim[1:-1]:
                total = [a + b for a, b in zip(total, row)]
            xbar = [a / n for a in total]
            worst = sim[-1]
            xr = [2 * b - w for b, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                    fxcc = f(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (s - b) for b, s in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
            nit += 1
        except _MaxFev:
            pass
        sim, fsim = _by_value(sim, fsim)

    status = 1 if nfev >= maxfev else 2 if nit >= maxiter else 0
    return NelderMeadResult(sim[0], status, nfev, nit)
