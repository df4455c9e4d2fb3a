"""nmvmopt benchmark: the four CLI subcommands in two workloads, outputs checked.

Usage (from the repository root):

    python3 bench/run.py --workload exp-utility --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

``--workload`` is exp-utility (exp-opt, large-market and mc-verify),
general-util (general-opt), or ``all`` to run each in turn.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
WORKER_TIMEOUT_S = 150

sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _DECLARED = json.load(_fh)
# metric name -> unit, in the order BENCHMARK.json declares them
E2E_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def _env() -> dict:
    env = dict(os.environ)
    # one BLAS/OpenMP thread: the CLI is single-threaded and a pool would
    # only add scheduling noise on a small machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(env: dict) -> float:
    """Median time from spawning a fresh interpreter until ``import
    nmvmopt.cli`` returns (one untimed spawn first fills the bytecode cache)."""
    code = "import time, nmvmopt.cli; print(repr(time.monotonic()))"
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60
        )
        if rep:
            times.append(float(done.stdout.strip()) - t0)
    return statistics.median(times)


def _percentile_note(durations: list) -> str:
    """Median plus the highest of p90/p99 with at least ten samples beyond it."""
    ms = sorted(1e3 * d for d in durations)
    parts = [f"p50 {statistics.median(ms):.3f} ms"]
    for q in (90, 99):
        if len(ms) * (100 - q) / 100 >= 10:
            parts.append(f"p{q} {statistics.quantiles(ms, n=100)[q - 1]:.3f} ms")
    return f"{', '.join(parts)} over {len(ms)} calls"


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    env = _env()
    run_dir = os.path.join(BENCH, "_runs", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        ops = workloads.build(name, seed, ROOT, run_dir)
        setup_s = None if trace else setup_seconds(env)
        plan = {
            "src": SRC,
            "bench": BENCH,
            "argvs": [op.argv for op in ops],
            "outs": [op.out for op in ops],
            "seconds": seconds,
            "trace": trace,
            "trace_path": os.path.join(BENCH, "traces", f"{name}-seed{seed}.json"),
        }
        if trace:
            os.makedirs(os.path.dirname(plan["trace_path"]), exist_ok=True)
        plan_path = os.path.join(run_dir, "plan.json")
        result_path = os.path.join(run_dir, "result.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        with open(os.path.join(run_dir, "worker.stderr"), "w") as err:
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH, "worker.py"), plan_path, result_path],
                env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err, timeout=WORKER_TIMEOUT_S,
            )
        if done.returncode != 0:
            with open(os.path.join(run_dir, "worker.stderr")) as fh:
                sys.stderr.write(fh.read()[-4000:])
            raise RuntimeError(f"worker exited with code {done.returncode}")
        with open(result_path) as fh:
            result = json.load(fh)

        phases = [result["untraced"]] + ([result["traced"]] if trace else [])
        crashed = set().union(*(p["failed_rc"] for p in phases))
        unstable = set().union(*(p["mismatched"] for p in phases)) - crashed
        wrong, ce_loss = {}, []
        for i, op in enumerate(ops):
            if i in crashed:
                continue
            try:
                ok, detail, extra = checks.CHECKS[op.kind](op)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                ok, detail, extra = False, f"unreadable output: {exc!r}", {}
            if not ok:
                wrong[i] = detail
            if "ce_loss_bp" in extra:
                ce_loss.append(extra["ce_loss_bp"])
        for i in sorted(crashed):
            print(f"# op {i} {' '.join(ops[i].argv[:1] + ops[i].argv[5:])}: nonzero exit")
        for i in sorted(unstable):
            print(f"# op {i}: output bytes differ between rounds")
        for i, detail in sorted(wrong.items()):
            print(f"# op {i} {' '.join(ops[i].argv[:1] + ops[i].argv[5:])}: {detail}")
        bad = crashed | unstable | set(wrong)
        rounds = sum(p["rounds"] for p in phases)
        attempted = sum(p["ops"] for p in phases)
        failed = len(bad) * rounds

        base = result["untraced"]
        solves_per_s = len(ops) / statistics.median(base["round_walls_s"])
        if trace:
            traced = result["traced"]
            layers = dict(traced["layers"])
            layers["general_opt.ce_loss_bp"] = statistics.fmean(ce_loss) if ce_loss else 0.0
            traced_per_s = len(ops) / statistics.median(traced["round_walls_s"])
            layers["trace.overhead_pct"] = 100.0 * (1.0 - traced_per_s / solves_per_s)
            metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        else:
            values = {
                "setup_s": setup_s,
                "solves_per_s": solves_per_s,
                "solve_ms.p50": 1e3 * statistics.median(base["durations_s"]),
                "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        print(f"# {name} seed {seed}: {len(ops)} ops x {base['rounds']} rounds in {sum(base['round_walls_s']):.2f} s; "
              f"{_percentile_note(base['durations_s'])}")
        if ce_loss:
            print(f"# {name}: mean CE shortfall {statistics.fmean(ce_loss):.6g} bp over {len(ce_loss)} exponential ops")
        for k, v in metrics.items():
            print(f"#   {k} = {v['value']:.6g} {v['unit']}")
        return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(workloads.NAMES) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/nmvmopt/cli.py", "specs/exp1.json", "specs/gig.json", "specs/gaussian.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not a nmvmopt checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and every process it starts: on a small VM
    # the CPUs differ in speed (interrupts, neighbours), and letting the
    # scheduler pick one per run makes throughput bimodal across runs.
    # The last CPU is the one least likely to field device interrupts.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
