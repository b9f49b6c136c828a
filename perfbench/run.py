"""Benchmark of the checkerboard package: three workloads, one command.

    python3 perfbench/run.py --workload {refine,field,crosscheck}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src`.
Every workload runs in fresh single-threaded worker processes
(`worker.py`), one after another, so a run never uses more than one CPU.

--trace 0 measures the end-to-end metrics. One worker runs whole rounds of
the workload for S seconds. Between rounds, spread evenly over the S
seconds, it times fresh starts (interpreter, `checkerboard` and
`checkerboard.cli` imported, each layer the workload uses warmed once);
their median is `setup_s`. From each operation's best latency over the
rounds it reports the round's time to solution (their sum, `wall_s`),
their median (`op_p50_s`) and its peak resident set (`peak_rss_mb`).

--trace 1 measures the per-layer metrics. It runs each workload for S/3
seconds, the named one first, alternating untraced and traced rounds, so
that every layer is measured on the workload that exercises it. The named
workload's traced minus untraced `wall_s` is the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. A failed operation is one whose output did not pass its
check; `correct` is false if any operation outside the field workload's
known-fault slice failed. Details of the run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("refine", "field", "crosscheck")
SETUP_STARTS = 15  # fresh starts timed for setup_s, spread over the run
WORKER_GRACE_S = 100  # beyond --seconds: last round, checks, start-up

# Per-layer metrics of the traced run: (workload, layer, counters).
# busy_s is the layer's self time in one round (best round); the counts
# are per round and the same in every round and for every seed.
LAYERS = (
    ("refine", "sym_table", ("busy_s", "calls", "max_bits")),
    ("refine", "coeffs", ("busy_s", "calls", "terms")),
    ("refine", "eval_exact", ("busy_s", "calls", "out_bits")),
    ("refine", "linear", ("busy_s", "terms")),
    ("field", "closed", ("busy_s", "calls")),
    ("field", "bessel_scalar", ("busy_s", "calls", "terms")),
    ("field", "bessel_grid", ("busy_s", "nodes", "ns_per_node")),
    ("field", "stencil", ("busy_s", "nodes")),
    ("field", "dirac", ("busy_s", "points")),
    ("crosscheck", "coeffs", ("busy_s", "calls", "terms")),
    ("crosscheck", "bruteforce", ("busy_s", "paths", "paths_per_s")),
)
UNITS = {"busy_s": "s", "max_bits": "bits", "out_bits": "bits",
         "ns_per_node": "ns", "paths_per_s": "1/s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(workload: str, mode: str, seconds: float,
               setup_starts: int) -> list[str]:
    return [sys.executable, WORKER, "--root", ROOT, "--workload", workload,
            "--mode", mode, "--seconds", repr(seconds),
            "--setup-starts", str(setup_starts)]


def run_worker(workload: str, mode: str, seconds: float, payload,
               setup_starts: int = 0) -> dict:
    proc = subprocess.run(worker_cmd(workload, mode, seconds, setup_starts),
                          input=pickle.dumps(payload), env=child_env(),
                          stdout=subprocess.PIPE,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} worker exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    """Metrics, the summaries counted in attempted/failed, all summaries
    checked, and the run's detail."""
    summary = run_worker(workload, "plain", seconds,
                         inputs.make(workload, seed), SETUP_STARTS)
    setup = statistics.median(summary["setup_starts_s"])
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (summary["wall_s"], "s"),
        "op_p50_s": (summary["op_p50_s"], "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    return metrics, [summary], [summary], {"setup_s": setup,
                                           "untraced": summary}


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    """As end_to_end, for the traced run. attempted and failed count only
    the named workload's pass, so their ratio is as in an untraced run;
    every pass is checked."""
    passes = {name: run_worker(name, "traced", seconds / 3,
                               inputs.make(name, seed))
              for name in (workload, *(w for w in WORKLOADS if w != workload))}
    metrics = {}
    for name, layer, counters in LAYERS:
        busy = passes[name]["busy_s"][layer]
        counts = passes[name]["counts"]
        for counter in counters:
            if counter == "busy_s":
                value = busy
            elif counter == "ns_per_node":
                value = busy / counts[f"{layer}.nodes"] * 1e9
            elif counter == "paths_per_s":
                value = counts[f"{layer}.paths"] / busy
            else:
                value = counts[f"{layer}.{counter}"]
            metrics[f"{name}.{layer}.{counter}"] = (
                value, UNITS.get(counter, "count"))
    named = passes[workload]
    overhead = named["traced_wall_s"] - named["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    return (metrics, [named], list(passes.values()),
            {"traced": passes, "overhead_s": overhead})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "checkerboard",
                                       "__init__.py")):
        print(f"no checkerboard package under {ROOT}/src", file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    try:
        metrics, counted, checked, detail = measure(
            args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for s in checked:
        for failure in s["failures"]:
            print(f"unexpected failure: {failure}", file=sys.stderr)
    result = {
        "correct": all(s["unexpected_failures"] == 0 for s in checked),
        "attempted": sum(s["attempted"] for s in counted),
        "failed": sum(s["failed"] for s in counted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                             f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "result": result, "detail": detail},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
