"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --root DIR --workload NAME --mode MODE
                                [--seconds S] [--setup-starts K]

MODE `setup` imports `checkerboard` and `checkerboard.cli` from DIR/src,
warms each layer the workload uses once, prints `ready` and exits: this
is the start-up a CLI invocation pays. MODE `plain` and `traced` do the
same set-up, then read the pickled inputs that `run.py` wrote to stdin,
run whole rounds until S seconds have passed (at least one), check every
round and print one JSON summary line. In MODE `traced` every second
round is traced, so that untraced and traced rounds share the host's
changes of speed and their difference is the tracing overhead. With K > 0
the worker also times K fresh `setup` starts, spread evenly over the S
seconds between rounds, so that `setup_s` samples the same stretch of
host time as the rounds do.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import checkerboard
    import checkerboard.cli  # noqa: F401  (part of what every CLI run loads)

    where = os.path.dirname(os.path.abspath(checkerboard.__file__))
    if os.path.commonpath([where, os.path.abspath(src)]) != os.path.abspath(src):
        raise SystemExit(f"checkerboard imported from {where}, not {src}")
    return checkerboard


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def setup_time(root: str, workload: str) -> float:
    """Wall time from spawning a `setup` worker to its `ready` line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--root", root,
           "--workload", workload, "--mode", "setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != "ready" or code != 0:
        raise SystemExit(f"{workload} set-up exited {code}: {line!r}")
    return elapsed


def run(workload, payload, seconds: float, traced: bool,
        setup_probe=None, setup_starts: int = 0) -> dict:
    from spans import Tracer

    setups = []
    round_s = []
    best = {}  # "plain"/"traced" -> each operation's lowest latency so far
    busy, counts = {}, {}
    attempted = failed = unexpected = 0
    failures = []
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        if len(setups) < setup_starts and time.perf_counter() - begin \
                >= len(setups) * seconds / setup_starts:
            setups.append(setup_probe())
        tracer = Tracer() if traced and len(round_s) % 2 else None
        kinds, secs, outputs, wall = workload.run_round(payload, tracer)
        verdicts = workload.check_round(payload, outputs, tracer)
        round_s.append(wall)
        key = "plain" if tracer is None else "traced"
        best[key] = list(map(min, best.get(key, secs), secs))
        attempted += len(verdicts)
        for i, (ok, fault) in enumerate(verdicts):
            if not ok:
                failed += 1
                if not fault:
                    unexpected += 1
                    if len(failures) < 5:
                        failures.append(f"round {len(round_s)} op {i} "
                                        f"({kinds[i]})")
        if tracer is not None:
            for layer, sec in tracer.busy.items():
                busy.setdefault(layer, []).append(sec)
            for name, n in tracer.counts.items():
                counts.setdefault(name, set()).add(n)
        if time.perf_counter() >= deadline and len(best) == 1 + traced:
            break
    while len(setups) < setup_starts:
        setups.append(setup_probe())
    summary = {
        "rounds": len(round_s),
        "ops_per_round": attempted // len(round_s),
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": unexpected,
        "failures": failures,
        "round_s": round_s,
        "best_round_s": min(round_s),
        "wall_s": sum(best["plain"]),
        "op_p50_s": statistics.median(best["plain"]),
        "op_p90_s_by_kind": {k: p90([b for b, k2 in zip(best["plain"], kinds)
                                     if k2 == k]) for k in sorted(set(kinds))},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_starts_s": setups,
    }
    if traced:
        summary["traced_wall_s"] = sum(best["traced"])
        summary["busy_s"] = {k: min(v) for k, v in busy.items()}
        # Counters are per round, and every round does the same work.
        unsteady = sorted(k for k, v in counts.items() if len(v) != 1)
        if unsteady:
            raise SystemExit(f"counters differ between rounds: {unsteady}")
        summary["counts"] = {k: v.pop() for k, v in counts.items()}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--setup-starts", type=int, default=0)
    args = parser.parse_args()

    cb = import_package(args.root)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](cb)
    workload.warm()
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    payload = pickle.load(sys.stdin.buffer)
    summary = run(workload, payload, args.seconds, args.mode == "traced",
                  lambda: setup_time(args.root, args.workload),
                  args.setup_starts)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
