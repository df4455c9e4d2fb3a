"""Span tracer for the traced benchmark run.

``install(tracer, nmvmopt)`` replaces public nmvmopt functions, at the
names their callers look them up by, with wrappers that time each call.
Every timed call updates per-name totals: calls, inclusive time and self
time (inclusive time minus the time of timed calls made inside it).
Coarse calls are also kept as spans (id, parent id, name, start, end,
operation) and written out at the end; hot leaf calls (hundreds of
thousands per operation) keep totals only, so the trace stays small.
Counting wrappers count calls without timing them, so their cost stays in
the caller's self time.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [child seconds, span id]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, incl s, self s
        self.counts = Counter()
        self.spans = []
        self.op = None
        self.in_optimize_3d = 0

    def timed(self, name: str, fn, keep_span: bool = False, on_result=None):
        stack, totals, spans = self.stack, self.totals, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = len(spans) if keep_span else parent
            if keep_span:
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tot = totals[name]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    spans[sid] = (sid, parent, name, t0, t1, self.op)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn, on_result=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_s", "end_s", "op"],
                    "spans": self.spans,
                    "totals": {
                        k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                        for k, v in sorted(self.totals.items())
                    },
                    "counts": dict(sorted(self.counts.items())),
                },
                fh,
            )


def _patch(owner, attr: str, make) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tr: Tracer, pkg) -> None:
    """Wrap the public functions of every nmvmopt module at their call sites."""
    cli, model, mixing = pkg.cli, pkg.model, pkg.mixing
    exp_opt, general_opt = pkg.exp_opt, pkg.general_opt
    large_market, mc_oracle = pkg.large_market, pkg.mc_oracle

    # model
    for owner in (cli, exp_opt):
        _patch(owner, "transform", lambda f: tr.timed("model.transform", f, True))
    _patch(cli, "expected_exp_utility", lambda f: tr.timed("model.expected_exp_utility", f, True))

    # mixing: Laplace evaluations, moments and sampling
    base = mixing.MixingDistribution
    for attr in ("log_laplace", "laplace", "laplace_deriv", "laplace_log_deriv"):
        _patch(base, attr, lambda f: tr.timed("mixing.laplace", f))
    _patch(base, "mixed_central_moment", lambda f: tr.timed("mixing.moment", f))
    for cls in (mixing.Constant, mixing.Exponential, mixing.GIG, mixing.BoundedUniform):
        _patch(cls, "moment", lambda f: tr.timed("mixing.moment", f))
    _patch(base, "sample", lambda f: tr.timed("mixing.sample", f, True))

    # exp_opt
    _patch(exp_opt, "optimize", lambda f: tr.timed("exp_opt.optimize", f, True))
    _patch(exp_opt, "log_h_function", lambda f: tr.timed("exp_opt.log_h_function", f))
    _patch(large_market, "minimize_h", lambda f: tr.timed("exp_opt.minimize_h", f, True))

    # general_opt
    def enter_3d(f):
        inner = tr.timed("general_opt.optimize_3d", f, True)

        def wrapper(*args, **kwargs):
            tr.in_optimize_3d += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tr.in_optimize_3d -= 1

        return functools.wraps(f)(wrapper)

    def finite_probe(value):
        if tr.in_optimize_3d and math.isfinite(value):
            tr.counts["general_opt.finite_probes"] += 1

    def nelder_mead_result(res):
        if res.status == 1:  # scipy: maximum number of function evaluations reached
            tr.counts["general_opt.maxfev_runs"] += 1

    _patch(general_opt, "optimize_3d", enter_3d)
    _patch(general_opt, "m_objective", lambda f: tr.timed("general_opt.m_objective", f, on_result=finite_probe))
    _patch(general_opt.ReducedDomain, "contains", lambda f: tr.timed("general_opt.contains", f))
    _patch(general_opt, "minimize", lambda f: tr.counted("general_opt.minimize", f, nelder_mead_result))
    _patch(general_opt, "reconstruct_portfolio", lambda f: tr.timed("general_opt.reconstruct_portfolio", f, True))

    # large_market
    _patch(large_market.LargeMarketSpec, "__post_init__", lambda f: tr.timed("large_market.spec", f, True))
    _patch(large_market, "d2_tail", lambda f: tr.timed("large_market.d2_tail", f, True))
    _patch(large_market, "d_coefficient", lambda f: tr.counted("large_market.d_coefficient", f))
    _patch(large_market, "u_n", lambda f: tr.timed("large_market.u_n", f, True))
    _patch(large_market, "convergence_study", lambda f: tr.timed("large_market.convergence_study", f, True))

    # mc_oracle
    _patch(mc_oracle, "sample_returns", lambda f: tr.timed("mc_oracle.sample_returns", f, True))
    _patch(mc_oracle, "mc_expected_utility", lambda f: tr.timed("mc_oracle.mc_expected_utility", f, True))
    _patch(
        mc_oracle,
        "crn_objective",
        lambda f: tr.timed(
            "mc_oracle.crn_objective",
            functools.wraps(f)(lambda *a, **k: tr.counted("mc_oracle.crn_evals", f(*a, **k))),
            True,
        ),
    )
    _patch(mc_oracle, "brute_force_optimize", lambda f: tr.timed("mc_oracle.brute_force", f, True))


def layer_metrics(tr: Tracer, ops: int) -> dict:
    """Per-operation layer figures from the tracer's totals and counts."""
    def calls(name):
        return tr.totals[name][0] if name in tr.totals else 0

    def self_ms(name):
        return 1e3 * tr.totals[name][2] / ops if name in tr.totals else 0.0

    probes = calls("general_opt.contains")
    m_calls = calls("general_opt.m_objective")
    return {
        "cli.self_ms": self_ms("cli.main"),
        "model.transform.self_ms": self_ms("model.transform"),
        "exp_opt.h_evals": calls("exp_opt.log_h_function") / ops,
        "exp_opt.optimize.self_ms": self_ms("exp_opt.optimize"),
        "mixing.laplace.calls": calls("mixing.laplace") / ops,
        "mixing.laplace.self_ms": self_ms("mixing.laplace"),
        "mixing.moment.calls": calls("mixing.moment") / ops,
        "mixing.moment.self_ms": self_ms("mixing.moment"),
        "mixing.sample.self_ms": self_ms("mixing.sample"),
        "general_opt.probes": probes / ops,
        "general_opt.finite_probe_ratio": (
            tr.counts["general_opt.finite_probes"] / probes if probes else 0.0
        ),
        "general_opt.m_objective.us": (
            1e6 * tr.totals["general_opt.m_objective"][1] / m_calls if m_calls else 0.0
        ),
        "general_opt.maxfev_runs": tr.counts["general_opt.maxfev_runs"] / ops,
        "general_opt.optimize_3d.self_ms": self_ms("general_opt.optimize_3d"),
        "large_market.spec.self_ms": self_ms("large_market.spec"),
        "large_market.d_coefficient.calls": tr.counts["large_market.d_coefficient"] / ops,
        "large_market.d2_tail.self_ms": self_ms("large_market.d2_tail"),
        "large_market.u_n.self_ms": self_ms("large_market.u_n"),
        "mc_oracle.sample_returns.self_ms": self_ms("mc_oracle.sample_returns"),
        "mc_oracle.crn_evals": tr.counts["mc_oracle.crn_evals"] / ops,
        "mc_oracle.brute_force.self_ms": self_ms("mc_oracle.brute_force"),
    }
