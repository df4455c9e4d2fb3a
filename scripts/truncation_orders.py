#!/usr/bin/env python3
"""Compare moment-expansion truncation orders against the exact optimum.

For an exponential-utility market the Laplace-transform route gives the
exact optimal utility, so each truncation order K of the reduced 3-d
optimizer can be scored by (a) how close its portfolio's exact utility is
to the true optimum and (b) the gap between the truncated objective and
the exact utility at the reported point.
"""

import argparse
import math

import numpy as np

from nmvmopt.exp_opt import optimize
from nmvmopt.general_opt import (
    MomentTable,
    ReducedDomain,
    exp_feasible_domain,
    exponential_utility,
    m_objective,
    optimize_3d,
    reconstruct_portfolio,
    reduce_portfolio,
)
from nmvmopt.mixing import Exponential
from nmvmopt.model import MarketModel, Portfolio, expected_exp_utility


def demo_market(seed: int, n: int) -> MarketModel:
    rng = np.random.default_rng(seed)
    vol = 0.18
    a = vol * (np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n))
    mu = 0.01 + rng.normal(0.05, 0.02, n)
    gamma = rng.normal(0.0, 0.02, n)
    return MarketModel(n=n, r_f=0.01, mu=mu, gamma=gamma, a_matrix=a)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 3, 4, 5, 6, 8])
    args = ap.parse_args()

    m = demo_market(args.seed, args.n)
    mix = Exponential(1.0)
    res = optimize(m, mix, a=1.0, w0=1.0)
    tm = res.transformed
    print(f"exact optimal utility  {res.optimal_utility:.10f}   q_min {res.q_min:.8f}")

    u = exponential_utility(1.0)
    rho_star = reduce_portfolio(res.x_star, tm, m).rho
    dom = exp_feasible_domain(tm, mix, 1.0, 1.0, ReducedDomain(rho=(0.0, 1.5 * rho_star)))
    print(f"\n{'order':>6} {'exact U at x_K':>16} {'rel loss':>12} {'trunc gap':>12}")
    table = MomentTable.build(mix, max(args.orders))
    for order in args.orders:
        point = optimize_3d(tm, table, u, order=order, w0=1.0, r_f=m.r_f, domain=dom)
        x = reconstruct_portfolio(point, tm, m)
        u_exact = expected_exp_utility(m, mix, Portfolio(x, 1.0, 1.0))
        rel = abs(u_exact - res.optimal_utility) / abs(res.optimal_utility)
        gap = abs(m_objective(point, u, order, tm, table, 1.0, m.r_f) - u_exact)
        print(f"{order:>6} {u_exact:>16.10f} {rel:>12.2e} {gap:>12.2e}")


if __name__ == "__main__":
    main()
