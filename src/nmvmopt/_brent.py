"""Brent's scalar methods, ported from scipy with the same arithmetic.

``exp_opt`` needs one bounded minimization and one bracketed root, a few
dozen evaluations of a scalar function.  Importing scipy's optimize
package for them costs about 0.4 s, several hundred times the solve
itself, so the two routines live here.  Each does scipy's floating-point
operations in scipy's order, so it returns the same bits and makes the
same number of evaluations:

- ``minimize_bounded`` is scipy's ``minimize_scalar(method="bounded")``,
  from its pure-Python ``_minimize_scalar_bounded``;
- ``brentq`` is scipy's ``brentq``, from its C routine ``Zeros/brentq.c``.
"""

from __future__ import annotations

import math
import sys

__all__ = ["minimize_bounded", "brentq"]

_SQRT_EPS = math.sqrt(2.2e-16)  # scipy's constant, not the machine epsilon
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_RTOL = 4.0 * sys.float_info.epsilon


def minimize_bounded(f, lo: float, hi: float, xatol: float, maxiter: int):
    """Minimize ``f`` on [lo, hi] by Brent's method with golden-section
    fallback; returns (x, f(x), evaluations).

    Stops when x is known to within ``xatol`` (plus sqrt(eps)·|x|) or
    after ``maxiter`` evaluations, whichever comes first.
    """
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("bounds must be finite scalars")
    if a > b:
        raise ValueError("the lower bound exceeds the upper bound")
    # xf: best point so far; nfc, fulc: the two before it (Brent's w, v)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabola through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx, num


def _div(x: float, y: float) -> float:
    """x / y as in C: a zero divisor gives a signed inf, or NaN for 0/0,
    where Python raises; tiny function values underflow to such zeros."""
    if y:
        return x / y
    if x == 0.0 or math.isnan(x):
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def brentq(f, a: float, b: float, xtol: float, maxiter: int = 100) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Converged once the bracket is narrower than xtol + 4·eps·|x| (scipy's
    default ``rtol``).  Raises ValueError when the endpoint signs match or
    ``f`` returns NaN, and RuntimeError after ``maxiter`` iterations
    without convergence.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    # xcur: best estimate; xpre: previous one; xblk: contrapoint of xcur
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")
