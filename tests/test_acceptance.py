"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import pathlib
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import minimize as sp_minimize

from conftest import (
    gaussian_exp_utility,
    gig_quad_laplace,
    gig_quad_laplace_deriv,
    gig_quad_moment,
    random_spd_market,
    sane_exp_market,
)
from nmvmopt.mixing import GIG, BoundedUniform, Constant, Exponential
from nmvmopt.model import Portfolio, TransformedModel, expected_exp_utility, transform
from nmvmopt import general_opt, large_market, mc_oracle
from nmvmopt.exp_opt import log_g_min, log_h_function, minimize_h, optimize, solve_foc
from nmvmopt.general_opt import (
    MomentTable,
    ReducedDomain,
    ReducedPoint,
    dist_stats,
    exp_feasible_domain,
    exponential_utility,
    m_objective,
    optimize_3d,
    quadratic_utility,
    reconstruct_portfolio,
    reduce_portfolio,
    wealth_central_moment,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"


def report(num, name, t0, detail=""):
    elapsed = time.time() - t0
    print(f"\nACCEPT {num:02d} {name}: PASS ({elapsed:.2f}s) {detail}")
    return elapsed


# ---------------------------------------------------------------------------


def test_criterion_01_gaussian_reduction():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_q = worst_x = worst_u = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = random_spd_market(rng, n)
        a, w0 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        res = optimize(m, Constant(1.0), a=a, w0=w0)
        worst_q = max(worst_q, abs(res.q_min + 1.0))
        want = np.linalg.solve(m.sigma, m.gamma + m.excess_mean) / (a * w0)
        worst_x = max(worst_x, float(np.abs(res.x_star - want).max()))
        u_ref = gaussian_exp_utility(m, res.x_star, a, w0)
        worst_u = max(worst_u, abs(res.optimal_utility / u_ref - 1.0))
    assert worst_q < 1e-10
    assert worst_x < 1e-10
    assert worst_u < 1e-12
    elapsed = report(
        1, "gaussian-reduction", t0,
        f"max|q+1|={worst_q:.1e} max|dx|={worst_x:.1e} max rel dU={worst_u:.1e}",
    )
    assert elapsed < 1.0


def test_criterion_02_exp1_example():
    t0 = time.time()
    e = Exponential(1.0)
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        a_s, c_s = rng.uniform(0.05, 3.0, 2)
        tm = TransformedModel.from_scalars(float(a_s), float(c_s), 0.0, -1.0)
        q = minimize_h(tm, e)[0]
        _, theta = solve_foc(tm, e)
        worst = max(worst, abs(q - theta))
    assert worst < 1e-8

    m = sane_exp_market(np.random.default_rng(203), 2, vol=1.0)
    a, w0 = 1.0, 1.0
    res = optimize(m, e, a=a, w0=w0)
    span = 2.0 * float(np.max(np.abs(res.x_star))) + 0.5
    returns = mc_oracle.sample_returns(m, e, 1_000_000, 204)

    def utility(k, w):
        return -((-a) ** k) * np.exp(-a * w)

    x_bf = mc_oracle.brute_force_optimize(
        m, returns, utility, box=[(-span, span)] * 2, w0=w0
    ).x
    est = mc_oracle.mc_expected_utility(m, returns, utility, x_bf, w0)
    closed = -math.exp(-a * w0 * (1.0 + m.r_f) + log_g_min(res.transformed, e, res.q_min))
    z = abs(est.estimate - closed) / est.stderr
    assert z < 3.0
    elapsed = report(
        2, "exp1-example", t0, f"max|dq|={worst:.1e} mc z-score={z:.2f}"
    )
    assert elapsed < 30.0


def test_criterion_03_gig_machinery():
    t0 = time.time()
    worst = 0.0
    for lam in (-1.0, -0.5, 0.7, 2.0):
        for chi in (0.5, 1.0, 2.0):
            for psi in (0.5, 1.0, 2.0):
                g = GIG(lam, chi, psi)
                for s in (-0.4 * psi / 2.0, 0.0, 1.0):
                    ref = gig_quad_laplace(lam, chi, psi, s)
                    worst = max(worst, abs(g.laplace(s) / ref - 1.0))
                ref = gig_quad_laplace_deriv(lam, chi, psi, 0.3)
                worst = max(worst, abs(g.laplace_deriv(0.3) / ref - 1.0))
                for r in (0.5, 1.0, 2.0, 3.0, 4.0):
                    ref = gig_quad_moment(lam, chi, psi, r)
                    worst = max(worst, abs(g.moment(r) / ref - 1.0))
    assert worst < 1e-7
    elapsed = report(3, "gig-machinery", t0, f"max rel dev={worst:.1e}")
    assert elapsed < 10.0


def test_criterion_04_h_function_properties():
    t0 = time.time()
    instances = [
        (Exponential(1.0), TransformedModel.from_scalars(1.0, 1.0, 0.0, -1.0)),
        (Exponential(1.0), TransformedModel.from_scalars(0.2, 2.5, 0.0, -1.0)),
        (GIG(1.0, 1.0, 1.0), TransformedModel.from_scalars(1.0, 1.0, 0.0, -0.5)),
        (GIG(2.0, 0.5, 2.0), TransformedModel.from_scalars(0.7, 1.4, 0.0, -1.0)),
    ]
    min_ratio = math.inf
    for mix, tm in instances:
        grid = np.linspace(0.0, tm.theta0 * (1.0 - 1e-9), 1000)
        vals = np.array([log_h_function(tm, mix, t) for t in grid])
        assert np.all(np.diff(vals) > 0.0), "H not strictly increasing on [0, theta0)"
        edge = tm.theta0 * (1.0 - 1e-6)
        for theta in (edge, -edge):
            ratio = log_h_function(tm, mix, theta) - log_h_function(tm, mix, 0.0)
            min_ratio = min(min_ratio, math.exp(min(ratio, 700.0)))
    assert min_ratio > 1e3
    elapsed = report(4, "h-function-properties", t0, f"min boundary ratio={min_ratio:.1e}")
    assert elapsed < 5.0


def test_criterion_05_moment_engine():
    t0 = time.time()
    draws = 10_000_000
    rng_pts = np.random.default_rng(505)
    worst_z = 0.0
    worst_stats = 0.0
    for mix, seed in ((Exponential(1.0), 51), (GIG(-0.5, 1.0, 1.0), 52)):
        tm = TransformedModel.from_scalars(0.6, 1.1, -0.2, mix.s_lower_bound)
        table = MomentTable.build(mix, 6)
        z = mix.sample(draws, np.random.Generator(np.random.Philox(key=seed)))
        g = np.random.Generator(np.random.Philox(key=seed + 1000)).standard_normal(draws)
        rz = np.sqrt(z)
        zc = z - mix.mean
        points = 0
        while points < 5:
            phi, psi = rng_pts.uniform(-1, 1, 2)
            rho = rng_pts.uniform(0.2, 1.5)
            p = ReducedPoint(float(phi), float(psi), float(rho))
            if not p.gram_feasible(tm):
                continue
            points += 1
            w0 = 1.0
            dev = w0 * p.rho * (math.sqrt(tm.a_scalar) * p.phi * zc + rz * g)
            pk = dev.copy()
            for k in (2, 3, 4, 5, 6):
                pk *= dev  # dev**k by a running product, far cheaper than pow
                se = float(pk.std() / math.sqrt(draws))
                closed = wealth_central_moment(k, p, tm, table, w0)
                worst_z = max(worst_z, abs(closed - float(pk.mean())) / se)
            std, skew, kurt = dist_stats(p, tm, table, w0)
            m2 = wealth_central_moment(2, p, tm, table, w0)
            m3 = wealth_central_moment(3, p, tm, table, w0)
            m4 = wealth_central_moment(4, p, tm, table, w0)
            worst_stats = max(
                worst_stats,
                abs(std / math.sqrt(m2) - 1.0),
                abs(skew / (m3 / m2**1.5) - 1.0),
                abs(kurt / (m4 / m2**2) - 1.0),
            )
            del dev
        del z, g, rz, zc
    assert worst_z < 4.0
    assert worst_stats < 1e-10
    elapsed = report(
        5, "moment-engine", t0,
        f"max mc z-score={worst_z:.2f} max stats dev={worst_stats:.1e}",
    )
    assert elapsed < 120.0


def test_criterion_06_quadratic_exactness():
    t0 = time.time()
    e = Exponential(1.0)
    rng = np.random.default_rng(606)
    b = 0.3
    u = quadratic_utility(b)
    worst = 0.0
    for n in (2, 3, 3, 4, 4):
        m = sane_exp_market(rng, n)
        tm = transform(m, e)
        point = optimize_3d(
            tm, MomentTable.build(e, 4), u, order=4, w0=1.0, r_f=m.r_f,
            domain=general_opt.ReducedDomain(rho=(0.0, 2.0)),
        )
        x = reconstruct_portfolio(point, tm, m)

        ez, vz = e.mean, e.variance
        cov = ez * m.sigma + vz * np.outer(m.gamma, m.gamma)

        def exact(v):
            ew = 1.0 + m.r_f + float(v @ (m.mu + m.gamma * ez - m.r_f))
            return ew - b * (float(v @ cov @ v) + ew * ew)

        res = sp_minimize(
            lambda v: -exact(v), np.zeros(n), method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 40000, "maxfev": 80000},
        )
        worst = max(worst, float(np.abs(x - res.x).max()))
    assert worst < 1e-4
    elapsed = report(6, "quadratic-exactness", t0, f"max coord dev={worst:.1e}")
    assert elapsed < 120.0


def test_criterion_07_exponential_cross_check():
    t0 = time.time()
    e = Exponential(1.0)
    rng = np.random.default_rng(12)
    u = exponential_utility(1.0)
    rels, shrinks = [], 0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        m = sane_exp_market(rng, n)
        res = optimize(m, e, a=1.0, w0=1.0)
        tm = res.transformed
        rho_star = reduce_portfolio(res.x_star, tm, m).rho
        dom = exp_feasible_domain(tm, e, 1.0, 1.0, ReducedDomain(rho=(0.0, 1.5 * rho_star)))
        gaps = {}
        for order in (4, 6):
            table = MomentTable.build(e, order)
            point = optimize_3d(tm, table, u, order=order, w0=1.0, r_f=m.r_f, domain=dom)
            x = reconstruct_portfolio(point, tm, m)
            u_exact = expected_exp_utility(m, e, Portfolio(x, 1.0, 1.0))
            if order == 4:
                rels.append(abs(u_exact - res.optimal_utility) / abs(res.optimal_utility))
            gaps[order] = abs(
                m_objective(point, u, order, tm, table, 1.0, m.r_f) - u_exact
            )
        shrinks += gaps[6] < gaps[4]
    assert max(rels) < 0.02
    assert shrinks >= 4
    elapsed = report(
        7, "exponential-cross-check", t0,
        f"max rel gap={max(rels):.2e} gap shrink {shrinks}/5",
    )
    assert elapsed < 120.0


def test_criterion_08_large_market_convergence():
    t0 = time.time()
    spec = large_market.LargeMarketSpec(
        gamma_seq=lambda i: 0.5 / i**1.1,
        mu_seq=lambda i: 0.5 / i**1.1,
        beta_seq=lambda i: 0.3 / i,
        beta_bar_seq=lambda i: 1.0,
        mix=BoundedUniform(0.5, 1.5),
        max_n=1024,
    )
    n_list = [4 * 2**k for k in range(8)]  # 4 .. 512
    values = {n: large_market.u_n(spec, n) for n in n_list}
    seq = [values[n] for n in n_list]
    assert all(v > 0.0 for v in seq)
    assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))
    final_gap = values[256] - values[512]
    assert abs(final_gap) < 1e-4

    n = 3
    closed = large_market.u_n(spec, n)
    mu_p, gamma_p = large_market.effective_nmvm_segment(spec, n)
    rng = np.random.Generator(np.random.Philox(key=808))
    draws = 1_000_000
    z = spec.mix.sample(draws, rng=rng)
    eps = rng.standard_normal((draws, n))
    sq = np.sqrt(z)

    def mc_vals(h):
        return np.exp(-(float(h @ mu_p) + float(h @ gamma_p) * z + sq * (eps @ h)))

    res = sp_minimize(
        lambda h: float(mc_vals(h).mean()),
        np.zeros(n),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 4000},
    )
    at_min = mc_vals(res.x)
    se = float(at_min.std() / math.sqrt(draws))
    z_score = abs(closed - float(at_min.mean())) / se
    assert z_score < 3.0
    elapsed = report(
        8, "large-market-convergence", t0,
        f"|U256-U512|={abs(final_gap):.2e} mc z-score={z_score:.2f}",
    )
    assert elapsed < 300.0


def test_criterion_09_martingale_density():
    t0 = time.time()
    spec = large_market.LargeMarketSpec(
        gamma_seq=lambda i: 0.5 / i**1.1,
        mu_seq=lambda i: 0.5 / i**1.1,
        beta_seq=lambda i: 0.3 / i,
        beta_bar_seq=lambda i: 1.0,
        mix=BoundedUniform(0.5, 1.5),
        max_n=8,
    )
    n = 4
    rng = np.random.Generator(np.random.Philox(key=909))
    draws = 1_000_000
    z = spec.mix.sample(draws, rng=rng)
    eps = rng.standard_normal((draws, n))
    f = large_market.martingale_density(spec, n, z, eps)
    se = float(f.std() / math.sqrt(draws))
    z_unit = abs(float(f.mean()) - 1.0) / se
    assert z_unit < 3.0
    worst = 0.0
    for lo, hi in ((0.5, 0.83), (0.95, 1.05), (1.17, 1.5)):
        mask = (z >= lo) & (z <= hi)
        for i in range(1, n + 1):
            vals = f[mask] * eps[mask, i - 1]
            se_b = float(vals.std() / math.sqrt(int(mask.sum())))
            ref = float(np.mean(large_market.b_function(spec, i, z[mask])))
            worst = max(worst, abs(float(vals.mean()) - ref) / se_b)
    assert worst < 3.0
    elapsed = report(
        9, "martingale-density", t0,
        f"unit-mean z={z_unit:.2f} max conditional z={worst:.2f}",
    )
    assert elapsed < 60.0


def _run_cli(args):
    subprocess.run(
        [sys.executable, "-m", "nmvmopt", *args], check=True, cwd=str(REPO),
        stdout=subprocess.DEVNULL,
    )


def test_criterion_10_roundtrip_and_determinism(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(1010)
    m = random_spd_market(rng, 4)
    e = Exponential(1.0)
    tm = transform(m, e)
    worst = 0.0
    count = 0
    while count < 100:
        phi, psi = rng.uniform(-1, 1, 2)
        rho = rng.uniform(0.05, 2.0)
        p = ReducedPoint(float(phi), float(psi), float(rho))
        if not p.gram_feasible(tm, tol=-1e-12):
            continue
        count += 1
        x = reconstruct_portfolio(p, tm, m)
        p2 = reduce_portfolio(x, tm, m)
        worst = max(
            worst, abs(p2.phi - p.phi), abs(p2.psi - p.psi), abs(p2.rho - p.rho)
        )
    assert worst < 1e-9

    cases = [
        ("exp-opt", ["--spec", str(SPECS / "exp1.json")]),
        ("general-opt", ["--spec", str(SPECS / "exp1.json"), "--order", "4"]),
        ("large-market", ["--spec", str(SPECS / "large_market.json")]),
        ("mc-verify", ["--spec", str(SPECS / "exp1.json"), "--paths", "100000"]),
    ]
    for cmd, extra in cases:
        outs = []
        for run in range(4):
            out = tmp_path / f"{cmd}-{run}.out"
            _run_cli([cmd, *extra, "--out", str(out)])
            outs.append(out.read_bytes())
        assert len(set(outs)) == 1, f"{cmd} output not byte-identical"
    elapsed = report(
        10, "roundtrip-and-determinism", t0,
        f"max roundtrip dev={worst:.1e}; 4 subcommands byte-stable",
    )
    assert elapsed < 300.0
