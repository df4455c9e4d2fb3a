"""Output checks, one per subcommand, made apart from the program.

Each check reads an operation's output file and returns ``(ok, detail,
extra)``.  The references come from ``oracle`` (quadrature over the mixing
density, an independent Newton optimum, the series rebuilt from centered
quadrature moments) or from properties the method must have.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from oracle import ExpMarket, reduced_coordinates, segment_u_n, series_value

# relative size of the utility loss a perturbation of x* is scaled to cause;
# far above the 1e-12 quadrature noise and far below any real improvement
_PROBE_LOSS = 1e-6


def _close(a: float, b: float, rel: float, scale: float | None = None) -> bool:
    return abs(a - b) <= rel * (max(abs(a), abs(b)) if scale is None else scale)


def check_exp_opt(op):
    out = json.load(open(op.out))
    m = ExpMarket(op.spec)
    x = np.array(out["x_star"], dtype=float)
    f = m.log_neg_utility(x)
    if not _close(-math.exp(f), out["expected_utility"], 1e-9):
        return False, f"expected_utility {out['expected_utility']!r} != quadrature {-math.exp(f)!r}", {}
    lo, hi = op.info.get("c_interval", (-math.inf, math.inf))
    aw = m.a * m.w0
    ez = m.law.mean
    drift = np.linalg.solve(m.sigma, m.excess)
    for k, v in enumerate(list(np.eye(m.n)) + [drift / np.linalg.norm(drift)]):
        h = math.sqrt(2.0 * _PROBE_LOSS / (aw * aw * ez * float(v @ m.sigma @ v)))
        for sign in (1.0, -1.0):
            xp = x + sign * h * v
            c = float(xp @ m.excess)
            if not lo - 1e-12 <= c <= hi + 1e-12:
                continue
            fp = m.log_neg_utility(xp)
            if fp < f - 1e-12 * max(1.0, abs(f)):
                what = f"coordinate {k}" if k < m.n else "drift direction"
                return False, f"perturbing x* along {what} improves log(-EU) {f!r} -> {fp!r}", {}
    if m.law.kind == "constant" and "c_interval" not in op.info:
        v = m.law.value
        ref = np.linalg.solve(m.sigma, m.gamma * v + m.excess) / (aw * v)
        if not np.allclose(x, ref, rtol=1e-9, atol=1e-12 * np.abs(ref).max()):
            return False, f"constant mixing: x* {x} != Sigma^-1(gamma Z + mu - r_f)/(a W0 Z) {ref}", {}
    return True, "", {}


def _utility(text: str, a: float):
    kind, _, param = text.partition(":")
    if kind == "exponential":
        return kind, float(param) if param else a
    return kind, float(param) if param else math.nan


def check_general_opt(op):
    out = json.load(open(op.out))
    kind, param = _utility(op.info["utility"], float(op.spec["investor"]["a"]))
    m = ExpMarket(op.spec, a=param if kind == "exponential" else None)
    x = np.array(out["x"], dtype=float)
    phi, psi, rho = reduced_coordinates(m, x)
    got = (out["alpha"], out["beta"], out["rho"])
    if not all(_close(g, r, 1e-8, max(1.0, abs(r))) for g, r in zip(got, (phi, psi, rho))):
        return False, f"(alpha, beta, rho) {got} disagree with x: {(phi, psi, rho)}", {}
    series, scale = series_value(m, x, kind, param, op.info["order"])
    if not _close(out["m_value"], series, 1e-9, scale):
        return False, f"m_value {out['m_value']!r} != quadrature series {series!r}", {}
    extra = {}
    if kind == "exponential":
        f = m.log_neg_utility(x)
        _, f_opt = m.optimum()
        if f < f_opt - 1e-12 * max(1.0, abs(f_opt)):
            return False, f"utility at x beats the optimum: log(-EU) {f!r} < {f_opt!r}", {}
        # certainty equivalent CE = -log(-EU)/a, shortfall in bp of W0
        extra["ce_loss_bp"] = 1e4 * (f - f_opt) / (m.a * m.w0)
    if kind == "quadratic":
        b, w0 = param, m.w0
        ez = m.law.mean
        vz = m.law.expect([lambda z: (z - ez) ** 2])[1][0]
        d = m.excess + m.gamma * ez
        cov = ez * m.sigma + vz * np.outer(m.gamma, m.gamma)
        ref = (1.0 - 2.0 * b * w0 * (1.0 + m.r_f)) / (2.0 * b * w0) * np.linalg.solve(cov + np.outer(d, d), d)
        if np.abs(x - ref).max() > 1e-6 * max(1.0, np.abs(ref).max()):
            return False, f"quadratic utility: x {x} != mean-variance closed form {ref}", {}
    return True, "", extra


def check_large_market(op):
    lines = open(op.out).read().splitlines()
    lm = op.spec["large_market"]
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    ns = [int(r[0]) for r in rows]
    u = [float(r[1]) for r in rows]
    if lines[0] != "n,u_n,gap_to_double,d2_tail" or ns != lm["n_list"]:
        return False, f"unexpected CSV layout: header {lines[0]!r}, n {ns}", {}
    for k in range(1, len(u)):
        if u[k] > u[k - 1] * (1.0 + 1e-12):
            return False, f"U_n increases from n={ns[k - 1]} to n={ns[k]}: {u[k - 1]!r} -> {u[k]!r}", {}
    ref = segment_u_n(lm, ns[0])
    if not _close(u[0], ref, 1e-9):
        return False, f"U_{ns[0]} = {u[0]!r} != span minimization {ref!r}", {}
    return True, "", {}


_CLOSED = re.compile(r"closed (\S+) vs mc")


def check_mc_verify(op):
    lines = open(op.out).read().splitlines()
    bad = [ln for ln in lines if not ln.startswith("PASS ") and ln != "OVERALL PASS"]
    if bad or lines[-1:] != ["OVERALL PASS"]:
        return False, f"report lines not PASS: {bad}", {}
    closed = [float(mt.group(1)) for ln in lines for mt in [_CLOSED.search(ln)] if mt]
    _, f_opt = ExpMarket(op.spec).optimum()
    if len(closed) != 1 or not _close(closed[0], -math.exp(f_opt), 1e-5):
        return False, f"closed-form utility {closed} != quadrature optimum {-math.exp(f_opt)!r}", {}
    return True, "", {}


CHECKS = {
    "exp-opt": check_exp_opt,
    "general-opt": check_general_opt,
    "large-market": check_large_market,
    "mc-verify": check_mc_verify,
}
