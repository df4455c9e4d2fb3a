import json
import math
import os
import pathlib
import subprocess
import sys

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


def test_exp_opt_c_interval_domain(tmp_path):
    spec = base_spec()
    spec["domain"] = {"c_interval": [0.0, 0.01]}
    out = tmp_path / "out.json"
    assert main(["exp-opt", "--spec", write_spec(tmp_path, spec), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # unconstrained drift c* = x*'(mu - r_f) = 0.0625 > 0.01: constraint binds
    assert payload["q_min"] > -1.0


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


def test_general_opt_bad_utility_exit_1(tmp_path, capsys):
    code = main([
        "general-opt", "--spec", str(SPECS / "exp1.json"), "--out", str(tmp_path / "o"),
        "--utility", "cubic:3",
    ])
    assert code == 1
    assert "cubic" in capsys.readouterr().err


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


def test_outputs_byte_identical_across_thread_env(tmp_path):
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}.json"
        env = dict(os.environ, NMVM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "nmvmopt", "exp-opt",
             "--spec", str(SPECS / "exp1.json"), "--out", str(out)],
            check=True, env=env, cwd=str(REPO),
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_invalid_thread_env(tmp_path, capsys):
    os.environ["NMVM_THREADS"] = "zero"
    try:
        assert main(["exp-opt", "--spec", str(SPECS / "gaussian.json"), "--out", str(tmp_path / "o")]) == 1
    finally:
        del os.environ["NMVM_THREADS"]


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
