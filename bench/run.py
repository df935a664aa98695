"""Search benchmark for qids: prints one JSON line of metrics for one workload.

    python3 bench/run.py --workload {tree_search,tm_compiled,corpus_sweep}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qids is imported from ./src. Each
run starts fresh interpreters one after another (never two at once): one
that sets the workload up and times its operations for S seconds, then
SETUP_STARTS - 1 more that only set it up, so that `setup_s` is the median
of SETUP_STARTS cold starts. With --trace 0 the line holds the end-to-end
metrics; with --trace 1 the same operations run under spans and the line
holds the per-layer metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_STARTS = 5
DEADLINE_S = 170.0


def worker(args: list[str], deadline: float) -> dict:
    """Run bench/worker.py in a fresh interpreter with one BLAS/OpenMP thread."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: dict, setup: list[float]) -> dict:
    durations = run["durations_ns"]
    return {
        "searches_per_s": (sum(run["op_searches"]) / (sum(durations) / 1e9), "1/s"),
        "op_s.p50": (statistics.median(durations) / 1e9, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (run["maxrss_mb"], "MB"),
    }


def per_layer(run: dict, starts: list[dict]) -> dict:
    layers = run["layers"]
    units = {"production.paths_marked": "count", "production.classical_nodes": "count",
             "grover.oracle_calls": "count", "grover.amplitude_updates": "count",
             "driver.depth_rounds": "count", "statevector.state_mb": "MB"}
    metrics = {name: (value, units.get(name, "s")) for name, value in layers.items()}
    metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in starts), "s")
    metrics["turing.compile_s"] = (statistics.median(s["compile_s"] for s in starts), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qids" / "cli.py").is_file():
        print(f"error: no qids source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = [args.workload, str(args.seed), str(args.trace)]
    run = worker(["run", *common, str(args.seconds)], deadline)
    starts = [run] + [worker(["setup", *common], deadline) for _ in range(SETUP_STARTS - 1)]
    if args.trace:
        metrics = per_layer(run, starts)
    else:
        metrics = end_to_end(run, [s["setup_s"] for s in starts])

    durations = run["durations_ns"]
    note = (f"{args.workload} seed {args.seed} trace {args.trace}: {len(durations)} operations, "
            f"op_s.p50 {statistics.median(durations) / 1e9:.6f}")
    if len(durations) >= 1000:
        note += f", op_s.p99 {statistics.quantiles(durations, n=100)[98] / 1e9:.6f}"
    if args.trace:
        note += f", wrapped layers cover {run['covered']:.3f} of the traced operation time"
    print(note, file=sys.stderr)
    for problem in run["problems"] + run["errors"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
