import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nmvmopt.cli import build_parser, main

REPO = pathlib.Path(__file__).resolve().parent.parent
SPECS = REPO / "specs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def write_spec(tmp_path, payload, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def base_spec():
    return {
        "model": {
            "n": 2,
            "r_f": 0.0,
            "mu": [0.1, 0.2],
            "gamma": [0.05, 0.0],
            "a_matrix": [[1.0, 0.0], [0.0, 1.0]],
        },
        "mixing": {"kind": "constant", "value": 1.0},
        "investor": {"a": 1.0, "w0": 1.0},
    }


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["exp-opt", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1
    assert "not found" in capsys.readouterr().err


def test_invalid_json_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["exp-opt", "--spec", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_wrong_gamma_length_names_field(tmp_path, capsys):
    spec = base_spec()
    spec["model"]["gamma"] = [0.05]
    code = main(["exp-opt", "--spec", write_spec(tmp_path, spec), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "gamma" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    spec = base_spec()
    spec["model"]["sigma"] = [[1.0, 0.0], [0.0, 1.0]]
    code = main(["exp-opt", "--spec", write_spec(tmp_path, spec), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "sigma" in capsys.readouterr().err


def test_unknown_mixing_kind(tmp_path, capsys):
    spec = base_spec()
    spec["mixing"] = {"kind": "student-t", "nu": 4}
    code = main(["exp-opt", "--spec", write_spec(tmp_path, spec), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "student-t" in capsys.readouterr().err


def test_infeasible_degenerate_exit_2(tmp_path, capsys):
    spec = base_spec()
    spec["model"]["r_f"] = 0.1
    spec["model"]["mu"] = [0.1, 0.1]  # mu = 1 r_f: c_scalar = 0
    code = main(["exp-opt", "--spec", write_spec(tmp_path, spec), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_nlist_not_increasing_exit_1(tmp_path, capsys):
    spec = {
        "large_market": {
            "gamma": {"kind": "power", "kappa": 0.5, "p": 1.1},
            "mu": {"kind": "power", "kappa": 0.5, "p": 1.1},
            "beta": {"kind": "power", "kappa": 0.3, "p": 1.0},
            "beta_bar": {"kind": "constant", "value": 1.0},
            "mixing": {"kind": "bounded_uniform", "low": 0.5, "high": 1.5},
            "n_list": [8, 4],
            "max_n": 16,
        }
    }
    code = main(["large-market", "--spec", write_spec(tmp_path, spec), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "increasing" in capsys.readouterr().err


def large_market_spec():
    return {
        "large_market": {
            "gamma": {"kind": "power", "kappa": 0.5, "p": 1.1},
            "mu": {"kind": "power", "kappa": 0.5, "p": 1.1},
            "beta": {"kind": "power", "kappa": 0.3, "p": 1.0},
            "beta_bar": {"kind": "constant", "value": 1.0},
            "mixing": {"kind": "bounded_uniform", "low": 0.5, "high": 1.5},
            "n_list": [4, 8],
            "max_n": 16,
        }
    }


@pytest.mark.parametrize(
    "command,path,value,field",
    [
        ("exp-opt", ("model", "a_matrix", 0, 1), "x", "model.a_matrix[0][1]"),
        ("exp-opt", ("model", "a_matrix", 1, 1), True, "model.a_matrix[1][1]"),
        ("exp-opt", ("model", "mu", 1), True, "model.mu[1]"),
        ("exp-opt", ("model", "n"), True, "model.n"),
        ("exp-opt", ("mixing", "value"), True, "mixing.value"),
        ("exp-opt", ("investor", "w0"), "1", "investor.w0"),
        ("exp-opt", ("domain",), {"c_interval": [0.0, "x"]}, "domain.c_interval[1]"),
        ("general-opt", ("domain",), {"rho": [True, 2.0]}, "domain.rho[0]"),
        ("large-market", ("large_market", "max_n"), True, "large_market.max_n"),
        ("large-market", ("large_market", "n_list", 0), True, "large_market.n_list[0]"),
        ("large-market", ("large_market", "tolerance"), "1e-4", "large_market.tolerance"),
        ("large-market", ("large_market", "mu", "kappa"), True, "large_market.mu.kappa"),
        (
            "large-market",
            ("large_market", "gamma"),
            {"kind": "array", "values": [0.5] * 15 + [True]},
            "large_market.gamma.values[15]",
        ),
        ("general-opt", ("domain",), {"phi": [-2.0, 2.0]}, "domain block: phi"),
        ("general-opt", ("domain",), {"psi": [0.9, 1.5]}, "domain block: psi"),
        ("general-opt", ("domain",), {"rho": [-1.0, 2.0]}, "domain block: rho"),
    ],
)
def test_non_number_in_spec_names_its_field(tmp_path, capsys, command, path, value, field):
    spec = large_market_spec() if command == "large-market" else base_spec()
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code = main([command, "--spec", write_spec(tmp_path, spec), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert field in err and "could not convert" not in err


# ---------------------------------------------------------------------------
# exp-opt output
# ---------------------------------------------------------------------------


def test_exp_opt_gaussian_example(tmp_path):
    out = tmp_path / "out.json"
    assert main(["exp-opt", "--spec", str(SPECS / "gaussian.json"), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["q_min"] == pytest.approx(-1.0, abs=1e-10)
    assert payload["x_star"] == pytest.approx([0.15, 0.2], abs=1e-10)
    assert payload["theta0"] == "inf"
    assert set(payload["scalars"]) == {"A", "B", "C"}


def test_exp_opt_matches_golden_file(tmp_path):
    out = tmp_path / "out.json"
    assert main(["exp-opt", "--spec", str(SPECS / "exp1.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "exp1_out.json").read_bytes()


@pytest.mark.parametrize("spec", ["gig", "gaussian"])
def test_exp_opt_matches_golden_file_on_other_laws(tmp_path, spec):
    out = tmp_path / "out.json"
    assert main(["exp-opt", "--spec", str(SPECS / f"{spec}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{spec}_out.json").read_bytes()


# bounded_uniform_n4 and gig_n5 are the two generated markets of the
# benchmark's mc-verify batch; their specs sit beside their reports
@pytest.mark.parametrize("spec", ["exp1", "gig", "gaussian", "bounded_uniform_n4", "gig_n5"])
def test_mc_verify_matches_golden_file(tmp_path, spec, capsys):
    # the report is a fixed function of the spec, the path count and the seed
    out = tmp_path / "report.txt"
    spec_path = GOLDEN / "mc_verify" / f"{spec}.json"
    if not spec_path.exists():
        spec_path = SPECS / f"{spec}.json"
    argv = ["mc-verify", "--spec", str(spec_path), "--out", str(out), "--paths", "20000"]
    assert main(argv) == 0
    golden = (GOLDEN / "mc_verify" / f"{spec}_20000.txt").read_bytes()
    assert out.read_bytes() == golden
    assert capsys.readouterr().out.encode() == golden


def test_large_market_matches_golden_file(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["large-market", "--spec", str(SPECS / "large_market.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "large_market_out.csv").read_bytes()


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("utility", ["exponential", "quadratic:0.3", "log", "power:2", "power:0.5"])
@pytest.mark.parametrize("spec", ["exp1", "gig", "gaussian"])
def test_general_opt_matches_golden_file(tmp_path, spec, utility, order):
    # a search that visits other points changes these bytes: regenerate a
    # file only with a change that means to move the result
    out = tmp_path / "out.json"
    argv = ["general-opt", "--spec", str(SPECS / f"{spec}.json"), "--out", str(out),
            "--order", str(order), "--utility", utility]
    assert main(argv) == 0
    golden = GOLDEN / "general_opt" / f"{spec}_{utility.replace(':', '-')}_{order}.json"
    assert out.read_bytes() == golden.read_bytes()


def test_exp_opt_c_interval_domain(tmp_path):
    spec = base_spec()
    spec["domain"] = {"c_interval": [0.0, 0.01]}
    out = tmp_path / "out.json"
    assert main(["exp-opt", "--spec", write_spec(tmp_path, spec), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # unconstrained drift c* = x*'(mu - r_f) = 0.0625 > 0.01: constraint binds
    assert payload["q_min"] > -1.0


def test_exp_opt_point_c_interval_evaluates_log_h_once(tmp_path, monkeypatch):
    from nmvmopt import exp_opt
    from nmvmopt.cli import parse_model

    calls = []
    log_h = exp_opt.log_h_function
    monkeypatch.setattr(exp_opt, "log_h_function", lambda *a: calls.append(a[-1]) or log_h(*a))
    spec = json.loads((SPECS / "exp1.json").read_text())
    spec["domain"] = {"c_interval": [0.05, 0.05]}
    out = tmp_path / "out.json"
    assert main(["exp-opt", "--spec", write_spec(tmp_path, spec), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    info = payload["solver_info"]
    assert calls == [payload["q_min"]]
    assert info["iterations"] == 1
    assert info["bracket"] == [payload["q_min"]] * 2
    m = parse_model(spec["model"])
    assert float(np.array(payload["x_star"]) @ m.excess_mean) == pytest.approx(0.05, rel=1e-12)


# ---------------------------------------------------------------------------
# general-opt output
# ---------------------------------------------------------------------------


def test_general_opt_rho_zero_box(tmp_path):
    spec = base_spec()
    spec["mixing"] = {"kind": "exponential", "rate": 1.0}
    spec["domain"] = {"rho": [0.0, 0.0]}
    out = tmp_path / "out.json"
    assert main(["general-opt", "--spec", write_spec(tmp_path, spec), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["x"] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert payload["m_value"] == pytest.approx(-math.exp(-1.0), rel=1e-12)
    assert payload["rho"] == 0.0


@pytest.mark.parametrize(
    "domain",
    [{"rho": [3.0, 4.0]}, {"phi": [0.99, 1.0], "psi": [-1.0, -0.99]}, {"rho": [0.5, 0.5]}],
)
def test_general_opt_domain_without_a_finite_seed_exit_2(tmp_path, capsys, domain):
    # beyond the finite-utility ball (rho about 1.57), cosines no portfolio
    # has, and a point rho box the search cannot reach
    raw = json.loads((SPECS / "exp1.json").read_text())
    raw["domain"] = domain
    out = tmp_path / "out.json"
    assert main(["general-opt", "--spec", write_spec(tmp_path, raw), "--out", str(out)]) == 2
    assert "finite order-4 objective" in capsys.readouterr().err
    assert not out.exists()


def _main_warnings_as_errors(argv, capsys):
    """(exit code, stderr) of ``main(argv)`` run in-process with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


def _assert_one_infeasible_line(code, err, out):
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("infeasible problem: "), err
    assert "nan" not in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["general-opt", "exp-opt"])
@pytest.mark.parametrize("spec", ["exp1", "gig", "gaussian"])
@pytest.mark.parametrize("key", ["a", "w0"])
def test_investor_beyond_float_range_is_infeasible(tmp_path, capsys, command, spec, key):
    # a W0 = 1e308: no lattice seed lies in general-opt's search set (exp1,
    # gig), every probe but rho = 0 overflows a float power (gaussian), and
    # (a W0)^2 overflows in the Laplace argument g(x)
    raw = json.loads((SPECS / f"{spec}.json").read_text())
    raw["investor"][key] = 1e308
    out = tmp_path / "out.json"
    argv = [command, "--spec", write_spec(tmp_path, raw), "--out", str(out)]
    _assert_one_infeasible_line(*_main_warnings_as_errors(argv, capsys), out)


def test_exp_opt_h_decreasing_without_bound_is_infeasible(tmp_path, capsys):
    # gamma = 1e308 makes |gamma0|^2 infinite, and H falls through every doubling
    raw = json.loads((SPECS / "exp1.json").read_text())
    raw["model"]["gamma"][0] = 1e308
    out = tmp_path / "out.json"
    argv = ["exp-opt", "--spec", write_spec(tmp_path, raw), "--out", str(out)]
    code, err = _main_warnings_as_errors(argv, capsys)
    _assert_one_infeasible_line(code, err, out)
    assert "H still decreases" in err


@pytest.mark.parametrize("utility,order", [("exponential", 4), ("log", 5)])
def test_general_opt_builds_one_moment_table(tmp_path, monkeypatch, utility, order):
    # exponential utility takes its gap from the exact value, the others
    # from the next order, which the same table holds
    from nmvmopt import general_opt

    builds = []
    build = general_opt.MomentTable.build

    def counting(mix, k):
        builds.append(k)
        return build(mix, k)

    monkeypatch.setattr(general_opt.MomentTable, "build", counting)
    argv = ["general-opt", "--spec", str(SPECS / "exp1.json"), "--utility", utility]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert builds == [order]


def test_general_opt_quadratic_matches_oracle(tmp_path):
    from scipy.optimize import minimize as sp_minimize
    from nmvmopt.cli import parse_mixing, parse_model

    spec = {
        "model": {
            "n": 2,
            "r_f": 0.01,
            "mu": [0.06, 0.075],
            "gamma": [0.02, -0.01],
            "a_matrix": [[0.2, 0.0], [0.04, 0.18]],
        },
        "mixing": {"kind": "exponential", "rate": 1.0},
        "investor": {"a": 1.0, "w0": 1.0},
        "domain": {"rho": [0.0, 2.0]},
    }
    out = tmp_path / "out.json"
    code = main([
        "general-opt", "--spec", write_spec(tmp_path, spec), "--out", str(out),
        "--order", "4", "--utility", "quadratic:0.3",
    ])
    assert code == 0
    payload = json.loads(out.read_text())

    m = parse_model(spec["model"])
    e = parse_mixing(spec["mixing"])
    ez, vz = e.mean, e.variance
    cov = ez * m.sigma + vz * np.outer(m.gamma, m.gamma)

    def exact(x):
        ew = 1.01 + float(x @ (m.mu + m.gamma * ez - 0.01))
        return ew - 0.3 * (float(x @ cov @ x) + ew * ew)

    res = sp_minimize(
        lambda v: -exact(v), np.zeros(2), method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 40000},
    )
    assert payload["x"] == pytest.approx(list(res.x), abs=1e-4)
    # series terminates for quadratic: gap vs next order is numerically zero
    assert payload["truncation_gap"] == pytest.approx(0.0, abs=1e-12)


def test_general_opt_exponential_truncation_gap(tmp_path):
    from nmvmopt.cli import parse_mixing, parse_model
    from nmvmopt.model import Portfolio, expected_exp_utility

    out = tmp_path / "out.json"
    code = main([
        "general-opt", "--spec", str(SPECS / "exp1.json"), "--out", str(out), "--order", "4",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    raw = json.loads((SPECS / "exp1.json").read_text())
    m = parse_model(raw["model"])
    e = parse_mixing(raw["mixing"])
    exact = expected_exp_utility(m, e, Portfolio(np.array(payload["x"]), 1.0, 1.0))
    assert payload["truncation_gap"] == pytest.approx(
        abs(payload["m_value"] - exact), rel=1e-10
    )


def test_general_opt_exact_utility_beyond_float_range(tmp_path):
    # GIG(200, 1, 1): the order-4 optimum's exact E[-exp(-aW)] is below
    # -max float, so the truncation gap is written as "inf", the run
    # succeeds and stderr says the expansion is off
    raw = json.loads((SPECS / "gig.json").read_text())
    raw["mixing"]["lambda"] = 200.0
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nmvmopt", "general-opt",
         "--spec", write_spec(tmp_path, raw), "--out", str(out)],
        capture_output=True, text=True, cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("note: truncation gap inf exceeds |m_value|")
    assert proc.stderr.count("\n") == 1
    payload = json.loads(out.read_text())
    assert payload["truncation_gap"] == "inf"
    assert math.isfinite(payload["m_value"])


def test_general_opt_notes_a_gap_larger_than_the_value(tmp_path, capsys):
    # GIG(150, 1, 1): the gap is finite (about 1.7e254) but dwarfs |m_value|
    raw = json.loads((SPECS / "gig.json").read_text())
    raw["mixing"]["lambda"] = 150.0
    out = tmp_path / "out.json"
    code = main(["general-opt", "--spec", write_spec(tmp_path, raw), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert 1e250 < payload["truncation_gap"] < math.inf
    err = capsys.readouterr().err
    assert err.startswith("note: truncation gap 1.66e+254 exceeds |m_value|")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec", ["gaussian", "gig", "exp1"])
@pytest.mark.parametrize(
    "order,utility",
    [(4, "exponential"), (6, "exponential"), (4, "log"), (4, "power:2"),
     (4, "power:0.5"), (4, "quadratic:0.3")],
)
def test_general_opt_silent_under_warnings_as_errors(tmp_path, spec, order, utility):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nmvmopt", "general-opt",
         "--spec", str(SPECS / f"{spec}.json"), "--out", str(tmp_path / "out.json"),
         "--order", str(order), "--utility", utility],
        capture_output=True, text=True, cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("command,spec", [
    ("exp-opt", "gaussian"), ("exp-opt", "gig"), ("exp-opt", "exp1"),
    ("large-market", "large_market"),
])
def test_exp_opt_and_large_market_silent_under_warnings_as_errors(tmp_path, command, spec):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nmvmopt", command,
         "--spec", str(SPECS / f"{spec}.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_general_opt_bad_utility_exit_1(tmp_path, capsys):
    code = main([
        "general-opt", "--spec", str(SPECS / "exp1.json"), "--out", str(tmp_path / "o"),
        "--utility", "cubic:3",
    ])
    assert code == 1
    assert "cubic" in capsys.readouterr().err


def test_general_opt_log_takes_no_parameter(tmp_path, capsys):
    code = main([
        "general-opt", "--spec", str(SPECS / "exp1.json"), "--out", str(tmp_path / "o"),
        "--utility", "log:5",
    ])
    assert code == 1
    assert "log utility takes no parameter" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _run_warnings_as_errors(tmp_path, argv):
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "nmvmopt", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=str(REPO), timeout=60,
    )


def _assert_one_input_error(proc, tmp_path, *names):
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: "), proc.stderr
    assert all(name in lines[0] for name in names), proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key,value", [
    (["general-opt"], "w0", 0),
    (["general-opt", "--utility", "quadratic:0.3"], "w0", 0),
    (["general-opt", "--utility", "quadratic:0.3"], "w0", -1),
    (["exp-opt"], "a", 0),
    (["exp-opt"], "w0", 0),
    (["exp-opt"], "a", math.inf),
    (["exp-opt"], "w0", math.nan),
    (["mc-verify", "--paths", "2000"], "a", 0),
    (["mc-verify", "--paths", "2000"], "w0", 0),
    (["mc-verify", "--paths", "2000"], "a", math.inf),
])
def test_investor_must_be_finite_and_positive(tmp_path, command, key, value):
    # json reads NaN and Infinity, so the investor block is checked where it is read
    spec = json.loads((SPECS / "exp1.json").read_text())
    spec["investor"][key] = value
    argv = [*command, "--spec", write_spec(tmp_path, spec)]
    _assert_one_input_error(_run_warnings_as_errors(tmp_path, argv), tmp_path, f"investor.{key}")


@pytest.mark.parametrize(
    "utility", ["power:nan", "power:inf", "exponential:inf", "exponential:1e400", "quadratic:inf"]
)
def test_utility_parameter_must_be_finite_and_positive(tmp_path, utility):
    argv = ["general-opt", "--spec", str(SPECS / "exp1.json"), "--utility", utility]
    _assert_one_input_error(_run_warnings_as_errors(tmp_path, argv), tmp_path, utility)


@pytest.mark.parametrize("spec,order", [("exp1", 170), ("gaussian", 170), ("gig", 155)])
def test_general_opt_order_beyond_float_range_is_an_input_error(tmp_path, spec, order):
    argv = ["general-opt", "--spec", str(SPECS / f"{spec}.json"),
            "--order", str(order), "--utility", "quadratic:0.3"]
    _assert_one_input_error(_run_warnings_as_errors(tmp_path, argv), tmp_path, f"--order {order}")


@pytest.mark.parametrize("command,spec,path,value,name", [
    # a NaN GIG order used to leave mc-verify's sampler rejecting forever
    (["mc-verify", "--paths", "2000"], "gig", ("mixing", "lambda"), math.nan, "lam"),
    (["exp-opt"], "gig", ("mixing", "lambda"), math.nan, "lam"),
    (["general-opt"], "gig", ("mixing", "lambda"), math.nan, "lam"),
    (["exp-opt"], "gig", ("mixing", "chi"), math.inf, "chi"),
    (["exp-opt"], "exp1", ("mixing", "rate"), math.inf, "rate"),
    (["exp-opt"], "gaussian", ("mixing", "value"), math.inf, "value"),
    (["exp-opt"], "exp1", ("mixing",), {"kind": "bounded_uniform", "low": 0.5, "high": math.inf}, "high"),
    (["exp-opt"], "exp1", ("model", "a_matrix", 1, 0), math.inf, "a_matrix"),
    (["exp-opt"], "exp1", ("model", "r_f"), math.nan, "r_f"),
    (["exp-opt"], "exp1", ("model", "mu", 2), math.inf, "mu"),
    (["exp-opt"], "exp1", ("domain",), {"c_interval": [math.nan, 0.5]}, "c_interval"),
    (["general-opt"], "exp1", ("domain",), {"rho": [0.0, math.inf]}, "rho"),
    (["general-opt"], "exp1", ("domain",), {"rho": [0.0, math.nan]}, "rho"),
    (["large-market"], "large_market", ("large_market", "gamma", "kappa"), math.inf,
     "large_market.gamma.kappa"),
    (["large-market"], "large_market", ("large_market", "mu", "p"), -math.inf, "large_market.mu.p"),
    (["large-market"], "large_market", ("large_market", "mu", "p"), math.nan, "large_market.mu.p"),
    (["large-market"], "large_market", ("large_market", "beta_bar", "value"), math.inf,
     "large_market.beta_bar.value"),
    (["large-market"], "large_market", ("large_market", "beta"),
     {"kind": "array", "values": [0.1, 0.1, math.nan] + [0.1] * 1020}, "large_market.beta.values[2]"),
    # finite large-market numbers whose coefficients are beyond float range
    (["large-market"], "large_market", ("large_market", "mu", "p"), 400, "overflows a float"),
    (["large-market"], "large_market", ("large_market", "gamma", "kappa"), 1e308, "d^2 is not finite"),
    (["large-market"], "large_market", ("large_market", "beta_bar", "value"), 5e-324,
     "effective mu' is not finite"),
    (["large-market"], "large_market", ("large_market", "mixing", "low"), 5e-324, "d^2 is not finite"),
])
def test_non_finite_spec_number_is_an_input_error(tmp_path, command, spec, path, value, name):
    # json reads NaN and Infinity, so the model, the mixing law, the domain and
    # the large-market sequences reject them
    raw = json.loads((SPECS / f"{spec}.json").read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    argv = [*command, "--spec", write_spec(tmp_path, raw)]
    _assert_one_input_error(_run_warnings_as_errors(tmp_path, argv), tmp_path, name)


def test_exp_opt_half_open_c_interval(tmp_path):
    raw = json.loads((SPECS / "exp1.json").read_text())
    raw["domain"] = {"c_interval": [-math.inf, 0.5]}
    proc = _run_warnings_as_errors(tmp_path, ["exp-opt", "--spec", write_spec(tmp_path, raw)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


_INFINITE_THETA0_LAWS = [
    {"kind": "constant", "value": 1.0},
    {"kind": "bounded_uniform", "low": 0.5, "high": 1.5},
]


@pytest.mark.parametrize("mixing", _INFINITE_THETA0_LAWS)
@pytest.mark.parametrize("c_interval,code", [
    ([-math.inf, 0.5], 0), ([0.01, math.inf], 0), ([-math.inf, math.inf], 0),
    ([math.inf, math.inf], 2), ([-math.inf, -math.inf], 2),
])
def test_exp_opt_infinite_c_interval_ends_on_an_unbounded_law(tmp_path, mixing, c_interval, code):
    # a bounded mixing law has theta0 = inf, so no clip to (-theta0, theta0)
    # makes an infinite end of the q-interval finite
    raw = json.loads((SPECS / "gaussian.json").read_text())
    raw["mixing"] = mixing
    raw["domain"] = {"c_interval": c_interval}
    proc = _run_warnings_as_errors(tmp_path, ["exp-opt", "--spec", write_spec(tmp_path, raw)])
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
    else:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("infeasible problem: "), proc.stderr
        assert "nan" not in lines[0]
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mixing", _INFINITE_THETA0_LAWS)
def test_exp_opt_unbounded_c_interval_is_the_full_problem(tmp_path, mixing):
    raw = json.loads((SPECS / "gaussian.json").read_text())
    raw["mixing"] = mixing
    results = []
    for domain in ({}, {"domain": {"c_interval": [-math.inf, math.inf]}}):
        out = tmp_path / f"out{len(results)}.json"
        spec = write_spec(tmp_path, {**raw, **domain}, f"spec{len(results)}.json")
        assert main(["exp-opt", "--spec", spec, "--out", str(out)]) == 0
        results.append(json.loads(out.read_text()))
    for key in ("q_min", "x_star", "expected_utility"):
        assert results[1][key] == results[0][key]


def test_general_opt_exponential_overflow_is_silent(tmp_path):
    # seeds far outside the exp-feasible ball put np.exp(-a w) beyond float range
    raw = json.loads((SPECS / "exp1.json").read_text())
    raw["model"].update(n=2, mu=[1000.0, 0.0], gamma=[0.05, 0.0], a_matrix=[[1.0, 0.0], [0.0, 1.0]])
    raw["mixing"] = {"kind": "exponential", "rate": 1.0}
    proc = _run_warnings_as_errors(tmp_path, ["general-opt", "--spec", write_spec(tmp_path, raw)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("source", ["large_market.tolerance", "--tolerance"])
def test_large_market_tolerance_must_be_finite_and_positive(tmp_path, source, value):
    raw = json.loads((SPECS / "large_market.json").read_text())
    argv = ["large-market"]
    if source == "--tolerance":
        argv += ["--tolerance", str(value)]
    else:
        raw["large_market"]["tolerance"] = value
    argv += ["--spec", write_spec(tmp_path, raw)]
    _assert_one_input_error(_run_warnings_as_errors(tmp_path, argv), tmp_path, source)


def test_general_opt_log_high_order_silent_under_warnings_as_errors(tmp_path):
    # the log derivatives overflow at order 160; numpy's fallback returns inf quietly
    argv = ["general-opt", "--spec", str(SPECS / "gaussian.json"), "--order", "160", "--utility", "log"]
    proc = _run_warnings_as_errors(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# large-market output
# ---------------------------------------------------------------------------


def test_large_market_zero_spec_all_ones(tmp_path):
    spec = {
        "large_market": {
            "gamma": {"kind": "constant", "value": 0.0},
            "mu": {"kind": "constant", "value": 0.0},
            "beta": {"kind": "power", "kappa": 0.3, "p": 1.0},
            "beta_bar": {"kind": "constant", "value": 1.0},
            "mixing": {"kind": "bounded_uniform", "low": 0.5, "high": 1.5},
            "n_list": [2, 4, 8],
            "max_n": 16,
        }
    }
    out = tmp_path / "out.csv"
    assert main(["large-market", "--spec", write_spec(tmp_path, spec), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,u_n,gap_to_double,d2_tail"
    for line in lines[1:-1]:
        assert float(line.split(",")[1]) == 1.0
    assert "# converged=true" in lines[-1]


def test_large_market_decay_spec(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["large-market", "--spec", str(SPECS / "large_market.json"), "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:-1]]
    u = [float(r[1]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(u, u[1:]))
    gaps = [float(r[2]) for r in rows]
    assert gaps[-1] < 1e-4


def test_large_market_notes_a_failing_horizon_tail(tmp_path):
    # constant coefficients: d_i does not decay, so the tail over (8, 16] is
    # far above 1e-3; the note goes to stderr and the CSV keeps its bytes
    block = {
        "gamma": {"kind": "constant", "value": 0.1},
        "mu": {"kind": "constant", "value": 0.1},
        "beta": {"kind": "constant", "value": 0.3},
        "beta_bar": {"kind": "constant", "value": 1.0},
        "mixing": {"kind": "bounded_uniform", "low": 0.5, "high": 1.5},
        "n_list": [2, 4, 8],
        "max_n": 16,
    }
    argv = ["large-market", "--spec", write_spec(tmp_path, {"large_market": block})]
    proc = _run_warnings_as_errors(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("note: square-summability proxy fails"), proc.stderr
    csv = (tmp_path / "out").read_bytes()
    plain = tmp_path / "plain.csv"
    assert main([*argv, "--out", str(plain)]) == 0
    assert plain.read_bytes() == csv


def test_large_market_long_horizon_nonincreasing(tmp_path):
    # the shipped coefficients swept to max_n = 2^18
    block = json.loads((SPECS / "large_market.json").read_text())["large_market"]
    block["max_n"] = 2**18
    block["n_list"] = [2**k for k in range(2, 18)]
    out = tmp_path / "out.csv"
    assert main(["large-market", "--spec", write_spec(tmp_path, {"large_market": block}), "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:-1]]
    assert [int(r[0]) for r in rows] == block["n_list"]
    u = [float(r[1]) for r in rows]
    assert all(a >= b for a, b in zip(u, u[1:]))
    assert all(float(r[3]) > 0.0 for r in rows)


# ---------------------------------------------------------------------------
# mc-verify
# ---------------------------------------------------------------------------


def test_mc_verify_passes(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main([
        "mc-verify", "--spec", str(SPECS / "exp1.json"), "--out", str(out),
        "--paths", "100000",
    ])
    assert code == 0
    text = out.read_text()
    assert "OVERALL PASS" in text
    assert text.count("PASS") >= 4


@pytest.mark.parametrize("paths", ["1", "2"])
def test_mc_verify_rejects_fewer_than_three_paths(tmp_path, capsys, paths):
    # one antithetic pair leaves no spread for the covariance standard error
    code = main([
        "mc-verify", "--spec", str(SPECS / "exp1.json"), "--out", str(tmp_path / "r.txt"),
        "--paths", paths,
    ])
    assert code == 1
    assert "--paths must be at least 3" in capsys.readouterr().err


def test_mc_verify_failure_exit_3(tmp_path, monkeypatch, capsys):
    from nmvmopt import cli as cli_mod
    from nmvmopt.mc_oracle import McEstimate

    # force a wildly wrong estimate with a tiny stderr: the closed-form
    # comparison must fail and the command must exit with the internal code
    monkeypatch.setattr(
        cli_mod.mc_oracle,
        "mc_expected_utility",
        lambda *a, **kw: McEstimate(estimate=123.0, stderr=1e-9),
    )
    out = tmp_path / "report.txt"
    code = main([
        "mc-verify", "--spec", str(SPECS / "exp1.json"), "--out", str(out),
        "--paths", "10000",
    ])
    assert code == 3
    assert "OVERALL FAIL" in out.read_text()


def test_mc_verify_zero_stderr_fails_with_infinite_z(tmp_path, monkeypatch, capsys):
    from nmvmopt import cli as cli_mod
    from nmvmopt.mc_oracle import McEstimate

    monkeypatch.setattr(
        cli_mod.mc_oracle,
        "mc_expected_utility",
        lambda *a, **kw: McEstimate(estimate=123.0, stderr=0.0),
    )
    out = tmp_path / "report.txt"
    argv = ["mc-verify", "--spec", str(SPECS / "exp1.json"), "--out", str(out), "--paths", "2000"]
    code, err = _main_warnings_as_errors(argv, capsys)
    assert code == 3, err
    assert err == ""
    lines = out.read_text().splitlines()
    assert lines[2].startswith("FAIL closed-form-utility: ") and lines[2].endswith("(z = inf)")
    assert lines[-1] == "OVERALL FAIL"


def test_mc_verify_equal_values_with_zero_stderr_pass(tmp_path, capsys):
    # every sampled utility is -exp(-huge) = 0, as is the closed form: z = 0
    raw = json.loads((SPECS / "exp1.json").read_text())
    raw["model"]["gamma"] = [g * 1e15 for g in raw["model"]["gamma"]]
    out = tmp_path / "report.txt"
    argv = ["mc-verify", "--spec", write_spec(tmp_path, raw), "--out", str(out), "--paths", "2000"]
    code, err = _main_warnings_as_errors(argv, capsys)
    assert code == 0, err
    assert "PASS closed-form-utility: " in out.read_text()
    assert "(z = 0.000)" in out.read_text()


@pytest.mark.parametrize("spec,key,index", [
    *[("exp1", key, i) for key in ("mu", "gamma") for i in range(3)],
    *[("gig", key, i) for key in ("mu", "gamma") for i in range(2)],
])
def test_mc_verify_fails_as_exp_opt_before_sampling(tmp_path, capsys, spec, key, index):
    # mc-verify solves before it draws, so a market whose closed form fails
    # never reaches the overflowing sample moments
    raw = json.loads((SPECS / f"{spec}.json").read_text())
    raw["model"][key][index] = 1e308
    path = write_spec(tmp_path, raw)
    results = []
    for argv in (["exp-opt"], ["mc-verify", "--paths", "2000"]):
        out = tmp_path / f"{argv[0]}.out"
        results.append(_main_warnings_as_errors([*argv, "--spec", path, "--out", str(out)], capsys))
        assert not out.exists()
    assert results[0][0] in (1, 2), results[0]
    assert results[1] == results[0]


def test_large_market_monotonicity_violation_exit_3(tmp_path, monkeypatch, capsys):
    from nmvmopt import cli as cli_mod
    from nmvmopt.large_market import ConvergenceRow

    doctored = [
        ConvergenceRow(4, 0.5, 0.0, 0.1),
        ConvergenceRow(8, 0.6, 0.0, 0.05),  # increases: internal invariant broken
    ]
    monkeypatch.setattr(
        cli_mod.large_market, "convergence_study", lambda *a, **kw: (doctored, True)
    )
    code = main([
        "large-market", "--spec", str(SPECS / "large_market.json"),
        "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 3
    assert "nonincreasing" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism and help
# ---------------------------------------------------------------------------


def test_outputs_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["exp-opt", "--spec", str(SPECS / "exp1.json"), "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_outputs_byte_identical_across_processes(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.json"
        subprocess.run(
            [sys.executable, "-m", "nmvmopt", "exp-opt",
             "--spec", str(SPECS / "exp1.json"), "--out", str(out)],
            check=True, cwd=str(REPO),
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_repeated_main_builds_no_new_parser(tmp_path):
    import argparse
    import gc

    def parsers():
        return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

    argv = ["exp-opt", "--spec", str(SPECS / "gaussian.json"), "--out", str(tmp_path / "o.json")]
    enabled = gc.isenabled()
    gc.disable()  # parsers left in reference cycles would stay countable
    try:
        assert main(argv) == 0
        before = parsers()
        for _ in range(5):
            assert main(argv) == 0
        assert parsers() == before
    finally:
        if enabled:
            gc.enable()


def test_help_documents_every_flag():
    parser = build_parser()
    for cmd, flags in {
        "exp-opt": ["--spec", "--out"],
        "general-opt": ["--spec", "--out", "--order", "--utility"],
        "large-market": ["--spec", "--out", "--tolerance"],
        "mc-verify": ["--spec", "--out", "--paths", "--seed"],
    }.items():
        # find the subparser and check its help text
        sub = next(
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        ).choices[cmd]
        text = sub.format_help()
        for flag in flags:
            assert flag in text, f"{cmd} help missing {flag}"


# ---------------------------------------------------------------------------
# start-up: scipy loads only where a subcommand needs it
# ---------------------------------------------------------------------------


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this checkout."""
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        cwd=str(REPO), capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_truncation_orders_script_runs_without_warnings():
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(REPO / "scripts" / "truncation_orders.py"), "--orders", "2", "4"],
        env=dict(os.environ, PYTHONPATH=path), cwd=str(REPO), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = [line.split()[0] for line in proc.stdout.splitlines()[3:]]
    assert rows == ["2", "4"]


_SCIPY_MODULES = "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_cli_loads_no_scipy():
    assert _fresh_python("import nmvmopt.cli" + _SCIPY_MODULES).strip() == "[]"


def _main_calls(*argvs) -> str:
    """Code that runs ``cli.main`` on each argv and checks its exit code."""
    return "from nmvmopt import cli\n" + "".join(f"assert cli.main({a!r}) == 0\n" for a in argvs)


def test_exp_opt_and_large_market_load_no_scipy(tmp_path):
    code = _main_calls(
        ["exp-opt", "--spec", str(SPECS / "exp1.json"), "--out", str(tmp_path / "e.json")],
        ["exp-opt", "--spec", str(SPECS / "gaussian.json"), "--out", str(tmp_path / "g.json")],
        ["large-market", "--spec", str(SPECS / "large_market.json"), "--out", str(tmp_path / "l.csv")],
    )
    assert _fresh_python(code + _SCIPY_MODULES).strip() == "[]"
    # a GIG law needs scipy.special for its Bessel functions, and no more
    code = _main_calls(["exp-opt", "--spec", str(SPECS / "gig.json"), "--out", str(tmp_path / "b.json")])
    loaded = _fresh_python(code + _SCIPY_MODULES)
    assert "'scipy.special'" in loaded and "scipy.optimize" not in loaded


def test_mc_verify_loads_no_scipy_optimize(tmp_path):
    argv = ["mc-verify", "--spec", str(SPECS / "exp1.json"), "--out", str(tmp_path / "e.txt"), "--paths", "20000"]
    loaded = _fresh_python(_main_calls(argv) + _SCIPY_MODULES).splitlines()[-1]
    assert "scipy.optimize" not in loaded
    # on a GIG law it loads what exp-opt loads: scipy.special and no more
    gig = ["--spec", str(SPECS / "gig.json"), "--out", str(tmp_path / "g.out")]
    mc_verify = _fresh_python(_main_calls(["mc-verify"] + gig + ["--paths", "20000"]) + _SCIPY_MODULES)
    exp_opt = _fresh_python(_main_calls(["exp-opt"] + gig) + _SCIPY_MODULES)
    assert "'scipy.special'" in mc_verify
    assert mc_verify.splitlines()[-1] == exp_opt.splitlines()[-1]


def test_general_opt_loads_no_scipy_optimize(tmp_path):
    def loaded(spec):
        argv = ["general-opt", "--spec", str(SPECS / f"{spec}.json"), "--out", str(tmp_path / f"{spec}.json")]
        return _fresh_python(_main_calls(argv) + _SCIPY_MODULES).splitlines()[-1]

    for spec in ("exp1", "gig"):
        assert "scipy.optimize" not in loaded(spec)
    # on a constant law nothing needs scipy at all
    assert loaded("gaussian") == "[]"
    # and no source file names it
    sources = sorted((REPO / "src").rglob("*.py"))
    assert sources and not [p.name for p in sources if "scipy.optimize" in p.read_text()]


@pytest.mark.parametrize("spec", ["gaussian", "gig", "exp1"])
def test_mc_verify_silent_under_warnings_as_errors(tmp_path, spec):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nmvmopt", "mc-verify",
         "--spec", str(SPECS / f"{spec}.json"), "--out", str(tmp_path / "r.txt")],
        capture_output=True, text=True, cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "OVERALL PASS"


def test_package_resolves_submodules_on_first_access():
    import nmvmopt

    # the benchmark tracer reads nmvmopt.general_opt without importing it
    code = "import nmvmopt\nprint(nmvmopt.general_opt.__name__, nmvmopt.mc_oracle.__name__)"
    assert _fresh_python(code).split() == ["nmvmopt.general_opt", "nmvmopt.mc_oracle"]
    with pytest.raises(AttributeError):
        getattr(nmvmopt, "no_such_module")


@pytest.mark.parametrize("argv", [
    ["general-opt", "--spec", str(SPECS / "gig.json")],
    ["mc-verify", "--spec", str(SPECS / "exp1.json"), "--paths", "20000"],
])
def test_lazily_imported_subcommands_match_in_process_output(tmp_path, argv, capsys):
    # a fresh interpreter imports scipy modules only once the subcommand
    # needs them; the test process imported them up front
    fresh, here = tmp_path / "fresh.out", tmp_path / "here.out"
    _fresh_python(_main_calls(argv + ["--out", str(fresh)]))
    assert main(argv + ["--out", str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


def test_mc_verify_draws_its_sample_once(tmp_path, monkeypatch, capsys):
    from nmvmopt import mc_oracle

    draws = []
    sample_returns = mc_oracle.sample_returns

    def counting(*args, **kwargs):
        draws.append(1)
        return sample_returns(*args, **kwargs)

    monkeypatch.setattr(mc_oracle, "sample_returns", counting)
    argv = ["mc-verify", "--spec", str(SPECS / "gig.json"), "--paths", "20000"]
    assert main(argv + ["--out", str(tmp_path / "r.txt")]) == 0
    assert len(draws) == 1
