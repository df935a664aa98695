"""Command-line surface.

Subcommands: run (amplified or classical search over a system file),
compile-tm (machine file -> system file), demo-flaw (halt-bit timing
demonstration), predict (success-probability table row), bench (cumulative
oracle-call table), verify (headless acceptance checks).

Exit codes: 0 success/found, 2 search exhausted its depth cap, 1 bad input
or failed verification. Reports are JSON; predict/bench also emit CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .driver import (COUNTING_MODES, ITERATE_POLICIES, QidConfig, call_budget_rows,
                     quantum_iterative_deepening, report_to_json, success_row, timestamp)
from .errors import InputError, QidsError
from .jsonfields import save_json_file
from .limits import check_float_range, register_fits
from .production import classical_ids, load_system, save_system

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAP = 2

_COUNTING_FLAGS = tuple(mode.replace("_", "-") for mode in COUNTING_MODES)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means "depth cap exceeded" here,
    # so route usage problems to the generic error code instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="qids", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="search a system file for a halting rule sequence")
    run.add_argument("system", help="production-system definition file (JSON)")
    run.add_argument("--start", help="start string (default: the file's first initial state)")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--depth-cap", type=int, default=None)
    run.add_argument("--counting-mode", choices=_COUNTING_FLAGS,
                     default=QidConfig.counting_mode.replace("_", "-"))
    run.add_argument("--iterate-policy", choices=ITERATE_POLICIES,
                     default=QidConfig.iterate_policy)
    run.add_argument("--run-empty-depths", action="store_true",
                     help="run the iterate-and-measure round even when no sequence halts")
    run.add_argument("--classical", action="store_true",
                     help="classical iterative deepening instead of the amplified search")
    run.add_argument("--no-timestamp", action="store_true",
                     help="omit volatile fields so identical runs emit identical bytes")
    run.add_argument("-o", "--output", help="write the report here as well as stdout")
    run.add_argument("-v", "--verbose", action="store_true",
                     help="log one line per depth of the amplified search to stderr")

    comp = sub.add_parser("compile-tm", help="compile a machine file into a system file")
    comp.add_argument("machine", help="machine definition file (JSON)")
    comp.add_argument("-o", "--output", required=True, help="system file to write")
    comp.add_argument("--tape", action="append", default=None,
                      help="initial tape to encode into the system (repeatable)")

    demo = sub.add_parser("demo-flaw", help="halt-bit entanglement/projection demonstration")
    demo.add_argument("system", help="production-system definition file (JSON)")
    demo.add_argument("-d", "--depth", type=int, required=True,
                      help="number of evolution steps before inspecting the halt bit")
    demo.add_argument("--seed", type=int, required=True)
    demo.add_argument("--step-cap", type=int, default=None,
                      help="report halting times up to this bound (default: depth)")
    demo.add_argument("--no-timestamp", action="store_true")
    demo.add_argument("-o", "--output", help="write the JSON report here")

    pred = sub.add_parser("predict", help="success-probability table row for (b, d, k)")
    pred.add_argument("b", type=int)
    pred.add_argument("d", type=int)
    pred.add_argument("k", type=int)
    pred.add_argument("--format", choices=("csv", "json"), default="csv")

    bench = sub.add_parser("bench", help="cumulative oracle-call table over depth sweeps")
    bench.add_argument("--branching", default="2,3",
                       help="comma-separated branching factors (default 2,3)")
    bench.add_argument("--depth-max", type=int, default=14)
    bench.add_argument("--iterate-policy", choices=ITERATE_POLICIES,
                       default=QidConfig.iterate_policy)
    bench.add_argument("--seed", type=int, required=True,
                       help="recorded in the output for provenance; the table itself is exact")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")

    ver = sub.add_parser("verify", help="run the acceptance checks headlessly")
    ver.add_argument("--only", action="append", default=None,
                     help="run just this check (repeatable); an unknown name lists the checks")
    ver.add_argument("--inject-fault", choices=("diffusion",), default=None,
                     help="perturb the diffusion constant to exercise the gate itself")
    return parser


@contextlib.contextmanager
def _log_to_stderr(enabled: bool):
    """While the block runs, print the package's INFO log lines to stderr if enabled."""
    if not enabled:
        yield
        return
    import logging

    logger = logging.getLogger("qids")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _cmd_run(args) -> int:
    system = load_system(args.system)
    start = args.start if args.start is not None else system.initial_states[0]
    config = QidConfig(
        seed=args.seed,
        depth_cap=args.depth_cap,
        counting_mode=args.counting_mode.replace("-", "_"),
        iterate_policy=args.iterate_policy,
        skip_empty_depths=not args.run_empty_depths,
    )
    if args.classical:
        report = classical_ids(system, start, 12 if config.depth_cap is None else config.depth_cap)
    else:
        with _log_to_stderr(args.verbose):
            report = quantum_iterative_deepening(system, start, config)
    text = report_to_json(report, include_volatile=not args.no_timestamp)
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK if report.found else EXIT_CAP


def _cmd_compile_tm(args) -> int:
    from .turing import compile_tm, load_tm

    tm = load_tm(args.machine)
    tapes = tuple(args.tape) if args.tape else ("",)
    system = compile_tm(tm, input_tapes=tapes)
    save_system(system, args.output)
    print(f"wrote {args.output}: {len(system.rules)} rules over "
          f"{len(system.alphabet.symbols)} symbols, {len(system.initial_states)} start state(s)")
    return EXIT_OK


def _cmd_demo_flaw(args) -> int:
    import numpy as np

    from .statevector import halt_timing_demo, measure

    if args.seed < 0:
        raise InputError("--seed must be >= 0")
    system = load_system(args.system)
    report = halt_timing_demo(system, args.depth, step_cap=args.step_cap)
    rng = np.random.default_rng(args.seed)
    sampled_input, sampled_halt = measure(report.pre_measurement, rng)

    print(f"evolved {len(report.inputs)} inputs for {report.depth} steps")
    for memory, steps, halted, final in report.branch_table:
        shown = steps if steps is not None else f"> {report.depth} (none observed)"
        print(f"  input {memory!r}: halts after {shown} step(s); "
              f"halt bit now {halted}; memory {final!r}")
    print(f"P(halt bit = 0) = {report.p_continue!r}")
    print(f"P(halt bit = 1) = {report.p_halt!r}")
    print(f"seeded sample of the full register: input {sampled_input} "
          f"with halt bit {sampled_halt}")
    for k, kept in report.projection_support.items():
        if kept is None:
            print(f"projection onto halt={k}: zero probability, undefined")
            continue
        print(f"projection onto halt={k}: unit-norm state over inputs "
              f"{[report.inputs[i] for i in kept]}")

    payload = {
        "schema": "qids.halt-demo/1",
        "depth": report.depth,
        "seed": args.seed,
        "inputs": list(report.inputs),
        "steps_to_halt": report.steps_to_halt,
        "p_continue": report.p_continue,
        "p_halt": report.p_halt,
        "sampled_input": sampled_input,
        "sampled_halt_bit": sampled_halt,
        "projection_support": {str(k): kept for k, kept in report.projection_support.items()},
    }
    if not args.no_timestamp:
        payload["timestamp"] = timestamp()
    if args.output:
        save_json_file(payload, args.output)
    return EXIT_OK


def _cmd_predict(args) -> int:
    import numpy as np

    from .statevector import simulated_success

    b, d, k = args.b, args.d, args.k
    check_float_range(b, d)
    if b < 1 or d < 0 or k < 0 or k > b**d:
        raise InputError(f"need b >= 1, d >= 0, 0 <= k <= b**d; got b={b} d={d} k={k}")
    n = b**d
    m, asym, exact_col = success_row(b, d, k)
    asym_col = "n/a" if asym is None else f"{asym:.6f}"
    sim_col = f"{simulated_success(np.arange(n) < k, m):.6f}" if register_fits(b, d) else "over-cap"
    if args.format == "json":
        print(json.dumps({"n_paths": n, "k": k, "m": m, "asymptotic": asym_col,
                          "exact": f"{exact_col:.6f}", "simulated": sim_col}))
    else:
        print("n_paths,k,m,asymptotic,exact,simulated")
        print(f"{n},{k},{m},{asym_col},{exact_col:.6f},{sim_col}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        branching = [int(x) for x in args.branching.split(",") if x]
    except ValueError:
        raise InputError(f"--branching must be comma-separated integers, got {args.branching!r}")
    rows = []
    for b in branching:
        if b < 2:
            raise InputError("bench needs branching factors >= 2")
        rows += call_budget_rows(b, args.depth_max, args.iterate_policy)
    if args.format == "json":
        print(json.dumps({"policy": args.iterate_policy, "seed": args.seed, "rows": rows},
                         indent=2))
    else:
        print("b,d,total_calls,sqrt_bd,ratio,within_bound")
        for row in rows:
            print(f"{row['b']},{row['d']},{row['total_calls']},"
                  f"{row['sqrt_bd']:.4f},{row['ratio']:.4f},{row['within_bound']}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(args.only, inject_fault=args.inject_fault)
    return EXIT_OK if all(r.passed for r in results) else EXIT_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    handlers = {
        "run": _cmd_run,
        "compile-tm": _cmd_compile_tm,
        "demo-flaw": _cmd_demo_flaw,
        "predict": _cmd_predict,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (QidsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'no detail'}); a smaller QIDS_SIM_CAP "
              f"refuses such inputs before allocating", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
