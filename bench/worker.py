"""Closed-loop runner: one client calls ``nmvmopt.cli.main`` on a fixed batch.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The plan names the package's ``src`` directory, the batch (one argv per
operation), the run length and whether to trace.  After one untimed
warm-up call the worker runs whole rounds of the batch until the run
length has passed; each call starts when the previous one returns.  Only
the rounds are timed: between rounds it hashes every output and compares
it with the first round's bytes, since the CLI promises byte-identical
outputs for identical inputs, then removes the outputs.  With tracing on
it then installs the wrappers and runs the same number of seconds again,
traced, against the same first-round bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
from time import perf_counter


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def _peak_rss_kb() -> int:
    """This process's own resident high-water mark.  On Linux ru_maxrss
    also counts the parent's resident size at fork, so read VmHWM."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_rounds(main, argvs, outs, seconds, first=None):
    """Whole rounds until ``seconds`` have passed; ``first`` holds the
    output digests every round must reproduce (default: its own first round)."""
    durations, round_walls, failed_rc, mismatched = [], [], set(), set()
    while not round_walls or sum(round_walls) < seconds:
        # Each call writes a new file rather than replacing the last one:
        # on ext4 a rename over an existing file starts a disk write at once
        # (auto_da_alloc), which put the shared disk's latency into every call.
        for path in outs:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        t_round = perf_counter()
        for i, argv in enumerate(argvs):
            t0 = perf_counter()
            rc = main(argv)
            durations.append(perf_counter() - t0)
            if rc != 0:
                failed_rc.add(i)
        round_walls.append(perf_counter() - t_round)
        digests = [_digest(p) if i not in failed_rc else None for i, p in enumerate(outs)]
        if first is None:
            first = digests
        mismatched.update(i for i, (a, b) in enumerate(zip(first, digests)) if a != b)
    return {
        "rounds": len(round_walls),
        "ops": len(round_walls) * len(argvs),
        "round_walls_s": round_walls,
        "durations_s": durations,
        "failed_rc": sorted(failed_rc),
        "mismatched": sorted(mismatched),
        "digests": first,
    }


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import nmvmopt.cli as cli

    argvs, outs = plan["argvs"], plan["outs"]
    cli.main(argvs[0])  # warm-up
    result = {"untraced": run_rounds(cli.main, argvs, outs, plan["seconds"])}
    result["maxrss_kb"] = _peak_rss_kb()
    if plan["trace"]:
        sys.path.insert(0, plan["bench"])
        import nmvmopt
        from tracing import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer, nmvmopt)
        traced_main = tracer.timed("cli.main", cli.main, True)

        def main_op(argv):
            tracer.op = 0 if tracer.op is None else tracer.op + 1  # request id
            return traced_main(argv)

        # tracing must not change a byte of any output
        traced = run_rounds(main_op, argvs, outs, plan["seconds"], result["untraced"]["digests"])
        traced["layers"] = layer_metrics(tracer, traced["ops"])
        result["traced"] = traced
        tracer.dump(plan["trace_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
