"""One fresh interpreter of the benchmark: set a workload up, then time it.

    python3 bench/worker.py setup WORKLOAD SEED TRACE
    python3 bench/worker.py run WORKLOAD SEED TRACE SECONDS

Both modes print one JSON line. `setup` measures one cold start: the time
from the top of this file to the first operation being ready, which covers
importing qids.cli and building the workload's inputs. `run` does the same
set-up, then runs operations back to back (a closed loop, one at a time)
for SECONDS, checks each output, and reports times, counts and ru_maxrss.
With TRACE 1 the operations run under spans and the run also reports the
per-layer figures and writes its spans to .bench_out/.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MiB = 2**20


def work(mode: str, workload: str, seed: int, trace: bool, seconds: float = 0.0) -> dict:
    """One set-up, and in run mode the timed loop; inputs live in a temporary directory."""
    import spans

    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if trace else None
    t = time.perf_counter()
    import qids.cli
    import_s = time.perf_counter() - t
    if not Path(qids.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"qids was imported from {qids.cli.__file__}, not {ROOT / 'src'}")
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if tracer:
            tracer.install()
        try:
            return _work(mode, workload, seed, tracer, seconds, Path(tmp), import_s)
        finally:
            if tracer:
                tracer.uninstall()


def _work(mode, workload, seed, tracer, seconds, workdir, import_s) -> dict:
    import workloads

    wl = workloads.make(workload, seed, workdir)
    inp = wl.make_input(0)
    start = {"setup_s": time.perf_counter() - _T0, "import_s": import_s}
    if tracer:
        start["compile_s"] = tracer.self_times().get("turing.compile", 0) / 1e9
    if mode == "setup":
        return start

    durations, op_searches, problems, errors = [], [], [], []
    attempted = failed = wrong = searches = depth_rounds = 0
    loop_start = time.perf_counter()
    while True:
        span = tracer.begin_op(attempted) if tracer else None
        t0 = time.perf_counter_ns()
        try:
            out = wl.run(inp)
        except Exception:  # the program crashed on this operation: a failed one
            out = None
            if len(errors) < 10:
                errors.append(traceback.format_exc(limit=3))
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.end_op(span)
        durations.append(t1 - t0)
        attempted += 1
        op_failed, op_problems, op_rounds = (True, [], 0) if out is None else wl.check(inp, out)
        failed += op_failed
        ok = not (op_failed or op_problems)
        op_searches.append(wl.searches_per_op if ok else 0)
        searches += op_searches[-1]
        depth_rounds += op_rounds if ok else 0
        wrong += len(op_problems)
        problems += op_problems[:10 - len(problems)]
        if time.perf_counter() - loop_start >= seconds:
            break
        inp = wl.make_input(attempted)
    final = wl.finish()
    wrong += len(final)
    problems += final

    result = {**start, "attempted": attempted, "failed": failed, "wrong": wrong,
              "problems": problems, "errors": errors, "searches": searches,
              "durations_ns": durations, "op_searches": op_searches}
    if tracer:
        result["layers"] = layers(tracer, wl, attempted, searches, depth_rounds)
        result["covered"] = covered(tracer)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json.gz",
                     {"workload": workload, "seed": seed, **result})
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MiB
    return result


def layers(tracer, wl, ops, searches, depth_rounds) -> dict:
    """Per-layer figures: per search, except cli.* and op.self_s, which are per operation."""
    import qids.production

    totals = tracer.self_times()
    per_search = max(searches, 1)

    def self_s(name, per):
        return totals.get(name, 0) / 1e9 / per

    nodes = wl.classical_nodes(qids.production.load_system, qids.production.classical_ids)
    largest = list(tracer.state_bytes.values())
    return {
        "production.mark_s": self_s("production.mark", per_search),
        "production.paths_marked": tracer.paths_marked / per_search,
        "production.replay_s": self_s("production.replay", per_search),
        "production.classical_nodes": statistics.fmean(nodes),
        "grover.amplify_s": self_s("grover.amplify", per_search),
        "grover.oracle_calls": tracer.oracle_calls / per_search,
        "grover.amplitude_updates": tracer.amplitude_updates / per_search,
        "statevector.measure_s": self_s("statevector.measure", per_search),
        "statevector.state_mb": statistics.fmean(largest) / MiB if largest else 0.0,
        "driver.self_s": self_s("driver.search", per_search),
        "driver.depth_rounds": depth_rounds / per_search,
        "cli.load_s": self_s("cli.load", ops),
        "cli.report_s": self_s("cli.report", ops),
        "op.self_s": self_s("op", ops),
    }


def covered(tracer) -> float:
    """Share of the traced operation time that falls in a wrapped layer, that is
    outside the self times of both the op and the driver.search spans."""
    totals, op_ns = tracer.self_times(), tracer.op_time()
    return 1 - (totals.get("op", 0) + totals.get("driver.search", 0)) / op_ns if op_ns else 0.0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    args = sys.argv[1:]
    print(json.dumps(work(args[0], args[1], int(args[2]), args[3] == "1",
                             float(args[4]) if args[0] == "run" else 0.0)))
