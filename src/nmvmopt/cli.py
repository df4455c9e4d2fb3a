"""Batch front door: market-spec files in, JSON/CSV results out.

Subcommands:

- ``exp-opt``       closed-form exponential-utility optimum
- ``general-opt``   moment-expansion optimizer for a chosen utility
- ``large-market``  U_n convergence sweep (CSV)
- ``mc-verify``     rerun the Monte Carlo oracle comparisons

Exit codes: 0 success, 1 input/schema error, 2 infeasible or degenerate
problem, 3 internal invariant violation (including failed verification).
Outputs are deterministic: floats are serialized with 17 significant
digits and files are written atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

# general_opt is imported by the two subcommands that use it, and only there
from . import exp_opt, large_market, mc_oracle
from .errors import (
    DegenerateModelError,
    InfeasiblePointError,
    InfeasiblePortfolioError,
    InvalidMomentOrderError,
    MixingDomainError,
    SingularModelError,
    SpecFileError,
)
from .mixing import GIG, BoundedUniform, Constant, Exponential
from .model import MarketModel, Portfolio, expected_exp_utility, transform

_INPUT_ERRORS = (SpecFileError, SingularModelError, ValueError)
_INFEASIBLE_ERRORS = (
    InfeasiblePortfolioError,
    DegenerateModelError,
    InfeasiblePointError,
    MixingDomainError,
)

DEFAULT_SEED = 20240817


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, float):  # the common leaf first; np.float64 is one too
        return _fmt_float(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        return "[" + ", ".join(_to_json(v, indent) for v in seq) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nmvmopt-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# market-spec file schema
# ---------------------------------------------------------------------------


def _require_keys(block: dict, allowed: dict, where: str) -> None:
    for key in block:
        if key not in allowed:
            raise SpecFileError(f"unknown key '{key}' in {where}")
    for key, required in allowed.items():
        if required and key not in block:
            raise SpecFileError(f"missing key '{key}' in {where}")


def _number(v, where: str) -> float:
    """A JSON number, not a bool, as a float; ``where`` names the field."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise SpecFileError(f"{where} must be a number, got {v!r}")
    return float(v)


def _finite(v, where: str) -> float:
    """A finite JSON number (json reads NaN and Infinity) as a float."""
    value = _number(v, where)
    if not math.isfinite(value):
        raise SpecFileError(f"{where} must be finite, got {value!r}")
    return value


def _integer(v, where: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise SpecFileError(f"{where} must be an integer, got {v!r}")
    return v


def _check_vector(v, n: int, where: str) -> None:
    if not isinstance(v, list) or len(v) != n:
        raise SpecFileError(f"{where} must be a list of {n} numbers")
    if not set(map(type, v)) <= {int, float}:  # a bool's type is neither
        for i, e in enumerate(v):
            _number(e, f"{where}[{i}]")


def _vector(v, n: int, where: str) -> np.ndarray:
    _check_vector(v, n, where)
    return np.array(v, dtype=float)


# mixing kind -> (law, its parameters in constructor order)
_MIXING_KINDS = {
    "constant": (Constant, ("value",)),
    "exponential": (Exponential, ("rate",)),
    "gig": (GIG, ("lambda", "chi", "psi")),
    "bounded_uniform": (BoundedUniform, ("low", "high")),
}


def parse_mixing(block: dict, where: str = "mixing"):
    if not isinstance(block, dict) or "kind" not in block:
        raise SpecFileError(f"{where} block must be an object with a 'kind'")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in _MIXING_KINDS:
        raise SpecFileError(
            f"unknown mixing kind '{kind}' in {where} "
            "(expected constant, exponential, gig or bounded_uniform)"
        )
    law, keys = _MIXING_KINDS[kind]
    _require_keys(block, dict.fromkeys(("kind",) + keys, True), where)
    params = [_number(block[key], f"{where}.{key}") for key in keys]
    try:
        return law(*params)
    except ValueError as exc:
        raise SpecFileError(f"invalid {where} parameters: {exc}") from exc


def parse_model(block: dict) -> MarketModel:
    _require_keys(
        block,
        {"n": True, "r_f": True, "mu": True, "gamma": True, "a_matrix": True},
        "model",
    )
    n = _integer(block["n"], "model.n")
    if n < 1:
        raise SpecFileError(f"model.n must be positive, got {n}")
    a = block["a_matrix"]
    if not isinstance(a, list) or len(a) != n:
        raise SpecFileError(f"model.a_matrix must be an {n}x{n} array of rows")
    r_f = _number(block["r_f"], "model.r_f")
    mu = _vector(block["mu"], n, "model.mu")
    gamma = _vector(block["gamma"], n, "model.gamma")
    for i, row in enumerate(a):
        _check_vector(row, n, f"model.a_matrix[{i}]")
    return MarketModel(n=n, r_f=r_f, mu=mu, gamma=gamma, a_matrix=np.array(a, dtype=float))


def parse_investor(block: dict) -> tuple[float, float]:
    _require_keys(block, {"a": True, "w0": True}, "investor")
    a, w0 = _number(block["a"], "investor.a"), _number(block["w0"], "investor.w0")
    for key, value in (("a", a), ("w0", w0)):
        if not (math.isfinite(value) and value > 0):  # json reads NaN and Infinity
            raise SpecFileError(f"investor.{key} must be finite and > 0, got {value!r}")
    return a, w0


def _interval(block: dict, key: str, where: str) -> tuple[float, float]:
    lo, hi = _vector(block[key], 2, f"{where}.{key}").tolist()
    if math.isnan(lo) or math.isnan(hi):
        raise SpecFileError(f"'{key}' in {where} has a NaN bound")
    if lo > hi:
        raise SpecFileError(f"'{key}' in {where} has low > high")
    return lo, hi


def parse_sequence(block: dict, where: str, max_n: int):
    """The sequence for LargeMarketSpec: a PowerSequence, or its values at
    assets 1 … max_n.  Power sequences are built by LargeMarketSpec, after
    it has checked the mixing law."""
    if not isinstance(block, dict) or "kind" not in block:
        raise SpecFileError(f"{where} must be an object with a 'kind'")
    kind = block["kind"]
    if kind == "power":
        _require_keys(block, {"kind": True, "kappa": True, "p": True}, where)
        kappa, p = _finite(block["kappa"], f"{where}.kappa"), _finite(block["p"], f"{where}.p")
        return large_market.PowerSequence(kappa, p)
    if kind == "constant":
        _require_keys(block, {"kind": True, "value": True}, where)
        return np.full(max(max_n, 0), _finite(block["value"], f"{where}.value"))
    if kind == "array":
        _require_keys(block, {"kind": True, "values": True}, where)
        values = block["values"]
        if not isinstance(values, list):
            raise SpecFileError(f"'values' in {where} must be a list")
        values = _vector(values, len(values), f"{where}.values")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise SpecFileError(f"{where}.values[{bad[0]}] must be finite, got {values[bad[0]]}")
        return values
    raise SpecFileError(
        f"unknown sequence kind '{kind}' in {where} (expected power, constant or array)"
    )


def parse_large_market(block: dict) -> tuple[large_market.LargeMarketSpec, list, float]:
    _require_keys(
        block,
        {
            "gamma": True,
            "mu": True,
            "beta": True,
            "beta_bar": True,
            "mixing": True,
            "n_list": True,
            "max_n": True,
            "tolerance": False,
        },
        "large_market",
    )
    n_list = block["n_list"]
    if not isinstance(n_list, list):
        raise SpecFileError("'n_list' in large_market must be a list of integers")
    n_list = [_integer(v, f"large_market.n_list[{i}]") for i, v in enumerate(n_list)]
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or not n_list:
        raise SpecFileError("'n_list' in large_market must be strictly increasing")
    max_n = _integer(block["max_n"], "large_market.max_n")
    if max_n < max(n_list):
        raise SpecFileError("'max_n' in large_market must be an int >= max(n_list)")
    tol = _number(block["tolerance"], "large_market.tolerance") if "tolerance" in block else 1e-4
    try:
        spec = large_market.LargeMarketSpec(
            gamma_seq=parse_sequence(block["gamma"], "large_market.gamma", max_n),
            mu_seq=parse_sequence(block["mu"], "large_market.mu", max_n),
            beta_seq=parse_sequence(block["beta"], "large_market.beta", max_n),
            beta_bar_seq=parse_sequence(block["beta_bar"], "large_market.beta_bar", max_n),
            mix=parse_mixing(block["mixing"], "large_market.mixing"),
            max_n=max_n,
        )
    except ValueError as exc:
        raise SpecFileError(f"invalid large_market block: {exc}") from exc
    return spec, n_list, tol


_TOP_KEYS = {
    "model": False,
    "mixing": False,
    "investor": False,
    "domain": False,
    "large_market": False,
}


def load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise SpecFileError(f"spec file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpecFileError("top level of the spec file must be an object")
    _require_keys(raw, _TOP_KEYS, "top level")
    return raw


def _need(raw: dict, key: str) -> dict:
    if key not in raw:
        raise SpecFileError(f"spec file is missing the '{key}' block")
    return raw[key]


def _domain(raw: dict, *keys: str) -> dict:
    """The intervals named by ``keys`` in the optional 'domain' block."""
    block = raw.get("domain", {})
    _require_keys(block, {"c_interval": False, "phi": False, "psi": False, "rho": False}, "domain")
    return {key: _interval(block, key, "domain") for key in keys if key in block}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _load_market(spec_path: str):
    """(raw spec, model, mixing law, a, w0) of a single-market spec file."""
    raw = load_spec(spec_path)
    model = parse_model(_need(raw, "model"))
    mix = parse_mixing(_need(raw, "mixing"))
    a, w0 = parse_investor(_need(raw, "investor"))
    return raw, model, mix, a, w0


def run_exp_opt(spec_path: str, out_path: str) -> int:
    raw, model, mix, a, w0 = _load_market(spec_path)
    domain = _domain(raw, "c_interval").get("c_interval")
    res = exp_opt.optimize(model, mix, a=a, w0=w0, domain=domain)
    tm = res.transformed
    payload = {
        "q_min": res.q_min,
        "x_star": list(res.x_star),
        "expected_utility": res.optimal_utility,
        "theta0": tm.theta0,
        "scalars": {"A": tm.a_scalar, "B": tm.b_scalar, "C": tm.c_scalar},
        "solver_info": {
            "iterations": res.solver_info.iterations,
            "bracket": list(res.solver_info.bracket),
            "achieved_tol": res.solver_info.achieved_tol,
            "method": res.solver_info.method,
            "boundary_pinned": res.solver_info.boundary_pinned,
            "g_value": res.g_value,
            "log_neg_utility": res.log_neg_utility,
        },
    }
    _write_atomic(out_path, _to_json(payload) + "\n")
    return 0


def _parse_utility(text: str, a_exp: float):
    """(utility(k, w), a): a is the exponential coefficient in use for an
    exponential utility and None for every other kind."""
    from . import general_opt

    kind, _, param = text.partition(":")
    try:
        if kind == "exponential":
            a_used = float(param) if param else a_exp
            return general_opt.exponential_utility(a_used), a_used
        if kind == "quadratic":
            if not param:
                raise SpecFileError("quadratic utility needs a parameter: quadratic:<b>")
            return general_opt.quadratic_utility(float(param)), None
        if kind == "power":
            if not param:
                raise SpecFileError("power utility needs a parameter: power:<eta>")
            return general_opt.power_utility(float(param)), None
        if kind == "log":
            if param:
                raise SpecFileError(f"log utility takes no parameter, got '{text}'")
            return general_opt.log_utility(), None
    except ValueError as exc:
        raise SpecFileError(f"invalid utility '{text}': {exc}") from exc
    raise SpecFileError(
        f"unknown utility '{text}' (expected exponential[:a], quadratic:<b>, "
        "power:<eta> or log)"
    )


def run_general_opt(spec_path: str, out_path: str, order: int, utility_text: str) -> int:
    from . import general_opt

    raw, model, mix, a, w0 = _load_market(spec_path)
    utility, a_util = _parse_utility(utility_text, a)
    tm = transform(model, mix)
    box = _domain(raw, "phi", "psi", "rho")
    try:
        domain = general_opt.ReducedDomain(**box)
    except ValueError as exc:
        raise SpecFileError(f"invalid domain block: {exc}") from exc
    exponential = a_util is not None
    if exponential:
        domain = general_opt.exp_feasible_domain(tm, mix, a_util, w0, domain)
    # one table serves the search, m_value and the gap, which compares
    # with the next order unless the exact expected utility is known
    try:
        table = general_opt.MomentTable.build(mix, order if exponential else order + 1)
    except InvalidMomentOrderError as exc:
        raise SpecFileError(f"--order {order} is too large: {exc}") from exc
    point = general_opt.optimize_3d(
        tm, table, utility, order=order, w0=w0, r_f=model.r_f, domain=domain
    )
    x = general_opt.reconstruct_portfolio(point, tm, model)
    m_value = general_opt.m_objective(point, utility, order, tm, table, w0, model.r_f)
    if exponential:
        try:
            exact = expected_exp_utility(model, mix, Portfolio(x, w0, a_util))
        except OverflowError:  # -exp(.) of an exponent beyond float range
            exact = -math.inf
        gap = abs(m_value - exact)
    else:
        gap = abs(
            m_value
            - general_opt.m_objective(point, utility, order + 1, tm, table, w0, model.r_f)
        )
    if not math.isfinite(gap) or gap > abs(m_value):
        print(
            f"note: truncation gap {gap:.3g} exceeds |m_value| {abs(m_value):.3g}; the "
            f"order-{order} expansion does not approximate the expected utility here",
            file=sys.stderr,
        )
    payload = {
        "alpha": point.phi,
        "beta": point.psi,
        "rho": point.rho,
        "x": list(x),
        "m_value": m_value,
        "truncation_gap": gap,
    }
    _write_atomic(out_path, _to_json(payload) + "\n")
    return 0


def run_large_market(spec_path: str, out_path: str, tolerance: float | None) -> int:
    raw = load_spec(spec_path)
    spec, n_list, tol = parse_large_market(_need(raw, "large_market"))
    if tolerance is not None:
        tol = tolerance
    if not (math.isfinite(tol) and tol > 0):
        source = "large_market.tolerance" if tolerance is None else "--tolerance"
        raise SpecFileError(f"{source} must be finite and > 0, got {tol!r}")
    half = spec.max_n // 2
    tail = large_market.d2_tail(spec, half) if spec.max_n >= 4 else 0.0
    if tail >= 1e-3:
        print(
            f"note: square-summability proxy fails at the horizon: sum of d_i^2 "
            f"over ({half}, {spec.max_n}] = {tail:.3e} >= 1e-3",
            file=sys.stderr,
        )
    rows, converged = large_market.convergence_study(spec, n_list, tol=tol)
    for prev, nxt in zip(rows, rows[1:]):
        if nxt.u_n > prev.u_n + 1e-10:
            print(
                f"internal error: U_n not nonincreasing at n={nxt.n} "
                f"({nxt.u_n} > {prev.u_n})",
                file=sys.stderr,
            )
            return 3
    lines = ["n,u_n,gap_to_double,d2_tail"]
    for r in rows:
        lines.append(
            f"{r.n},{r.u_n:.17g},{r.gap_to_double:.17g},{r.d2_tail:.17g}"
        )
    lines.append(f"# converged={'true' if converged else 'false'} tolerance={tol:.17g}")
    _write_atomic(out_path, "\n".join(lines) + "\n")
    return 0


def run_mc_verify(spec_path: str, out_path: str, paths: int, seed: int) -> int:
    from . import general_opt

    if paths < 3:  # one antithetic pair leaves no spread for the covariance SE
        raise ValueError(f"--paths must be at least 3, got {paths}")
    _, model, mix, a, w0 = _load_market(spec_path)
    report = []
    ok = True

    def check(name: str, passed: bool, detail: str):
        nonlocal ok
        ok = ok and passed
        report.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    # solved before the sample is drawn: a market the closed form rejects
    # exits with exp-opt's error, not with an overflow in the sample moments
    res = exp_opt.optimize(model, mix, a=a, w0=w0)
    returns = mc_oracle.sample_returns(model, mix, paths, seed)
    ez, vz = mix.mean, mix.variance
    mean_th = model.mu + model.gamma * ez
    dev = returns.mean(axis=0) - mean_th
    se = returns.std(axis=0, ddof=1) / math.sqrt(returns.shape[0])
    zmax = float(np.max(np.abs(dev) / se))
    check("sample-mean", zmax < 4.0, f"max |dev|/se = {zmax:.3f} (threshold 4)")

    cov_th = ez * model.sigma + vz * np.outer(model.gamma, model.gamma)
    cov_se = mc_oracle.cov_stderr(returns)
    zc = float(np.max(np.abs(np.cov(returns.T) - cov_th) / cov_se))
    check("sample-cov", zc < 5.0, f"max |dev|/se = {zc:.3f} (threshold 5)")

    utility = general_opt.exponential_utility(a)
    est = mc_oracle.mc_expected_utility(model, returns, utility, res.x_star, w0)
    diff = abs(est.estimate - res.optimal_utility)
    if est.stderr == 0.0:  # every sampled utility equal: any difference is infinitely many se
        zu = 0.0 if diff == 0.0 else math.inf
    else:
        zu = diff / est.stderr
    check(
        "closed-form-utility",
        zu < 3.0,
        f"closed {res.optimal_utility:.6g} vs mc {est.estimate:.6g} (z = {zu:.3f})",
    )

    span = float(np.max(np.abs(res.x_star))) * 2.0 + 1.0
    search = mc_oracle.brute_force_optimize(
        model, returns, utility, box=[(-span, span)] * model.n, w0=w0
    )
    # the CRN objective averages the same antithetic sample as ``est``, so
    # crn(x*) is est.estimate to the bit
    gap = est.estimate - search.value
    check(
        "dominance",
        gap > -3.0 * est.stderr,
        f"crn(x*) - crn(bf) = {gap:.3e} (threshold -3 se = {-3 * est.stderr:.3e})",
    )

    report.append(f"OVERALL {'PASS' if ok else 'FAIL'}")
    text = "\n".join(report) + "\n"
    _write_atomic(out_path, text)
    sys.stdout.write(text)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmvmopt",
        description="Expected-utility portfolio optimization for normal "
        "mean-variance mixture return models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exp-opt", help="closed-form exponential-utility optimum")
    p.add_argument("--spec", required=True, help="market-spec JSON file")
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("general-opt", help="moment-expansion optimizer")
    p.add_argument("--spec", required=True, help="market-spec JSON file")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--order", type=int, default=4, help="truncation order (default 4)")
    p.add_argument(
        "--utility",
        default="exponential",
        help="utility kind: exponential[:a], quadratic:<b>, power:<eta>, log "
        "(default exponential with the investor's a)",
    )

    p = sub.add_parser("large-market", help="U_n convergence sweep (CSV)")
    p.add_argument("--spec", required=True, help="market-spec JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="convergence tolerance on the doubling gap (overrides the spec file)",
    )

    p = sub.add_parser("mc-verify", help="rerun Monte Carlo oracle comparisons")
    p.add_argument("--spec", required=True, help="market-spec JSON file")
    p.add_argument("--out", required=True, help="output report path")
    p.add_argument("--paths", type=int, default=200_000,
                   help="MC paths (default 200000), rounded up to even: draws come in antithetic pairs")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: a parser holds reference cycles that only a
    # full garbage collection frees, so one per call grows the heap
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "exp-opt":
            return run_exp_opt(args.spec, args.out)
        if args.command == "general-opt":
            return run_general_opt(args.spec, args.out, args.order, args.utility)
        if args.command == "large-market":
            return run_large_market(args.spec, args.out, args.tolerance)
        if args.command == "mc-verify":
            return run_mc_verify(args.spec, args.out, args.paths, args.seed)
        raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
    except _INFEASIBLE_ERRORS as exc:
        print(f"infeasible problem: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
