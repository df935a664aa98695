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
import logging
import sys
import time

import numpy as np

from .driver import (QidConfig, cumulative_calls, quantum_iterative_deepening,
                     report_to_json, within_call_budget)
from .errors import InputError, QidsError
from .grover import (optimal_iterations, predicted_success_asymptotic,
                     predicted_success_exact, simulated_success)
from .jsonfields import save_json_file
from .limits import check_float_range, sim_cap
from .production import classical_ids, load_system, save_system
from .statevector import halt_timing_demo, measure
from .turing import compile_tm, load_tm
from .verify import run_checks, ALL_CHECKS

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CAP = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means "depth cap exceeded" here,
    # so route usage problems to the generic error code instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit((EXIT_ERROR, f"error: {message}"))


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
    run.add_argument("--counting-mode", choices=("exact", "assume-one"), default="exact")
    run.add_argument("--iterate-policy", choices=("optimal", "faithful"), default="optimal")
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
    bench.add_argument("--iterate-policy", choices=("optimal", "faithful"), default="optimal")
    bench.add_argument("--seed", type=int, required=True,
                       help="recorded in the output for provenance; the table itself is exact")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")

    ver = sub.add_parser("verify", help="run the acceptance checks headlessly")
    ver.add_argument("--only", action="append", default=None,
                     help=f"run just these checks (choices: {', '.join(ALL_CHECKS)})")
    ver.add_argument("--inject-fault", choices=("diffusion",), default=None,
                     help="perturb the diffusion constant to exercise the gate itself")
    return parser


@contextlib.contextmanager
def _log_to_stderr(enabled: bool):
    """While the block runs, print the package's INFO log lines to stderr if enabled."""
    if not enabled:
        yield
        return
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
    if args.classical:
        report = classical_ids(system, start, 12 if args.depth_cap is None else args.depth_cap)
    else:
        config = QidConfig(
            seed=args.seed,
            depth_cap=args.depth_cap,
            counting_mode=args.counting_mode.replace("-", "_"),
            iterate_policy=args.iterate_policy,
            skip_empty_depths=not args.run_empty_depths,
        )
        with _log_to_stderr(args.verbose):
            report = quantum_iterative_deepening(system, start, config)
    text = report_to_json(report, include_volatile=not args.no_timestamp)
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK if report.found else EXIT_CAP


def _cmd_compile_tm(args) -> int:
    tm = load_tm(args.machine)
    tapes = tuple(args.tape) if args.tape else ("",)
    system = compile_tm(tm, input_tapes=tapes)
    save_system(system, args.output)
    print(f"wrote {args.output}: {len(system.rules)} rules over "
          f"{len(system.alphabet.symbols)} symbols, {len(system.initial_states)} start state(s)")
    return EXIT_OK


def _cmd_demo_flaw(args) -> int:
    if args.seed < 0:
        raise InputError("--seed must be >= 0")
    system = load_system(args.system)
    report = halt_timing_demo(system, args.depth, step_cap=args.step_cap)
    rng = np.random.default_rng(args.seed)
    sampled_input, sampled_halt = measure(report.pre_measurement, rng)
    support = {k: (None if proj is None else np.flatnonzero(proj[:, k]).tolist())
               for k, proj in ((0, report.projected_continue), (1, report.projected_halt))}

    print(f"evolved {len(report.inputs)} inputs for {report.depth} steps")
    for memory, steps, halted, final in report.branch_table:
        shown = steps if steps is not None else f"> {report.depth} (none observed)"
        print(f"  input {memory!r}: halts after {shown} step(s); "
              f"halt bit now {halted}; memory {final!r}")
    print(f"P(halt bit = 0) = {report.p_continue!r}")
    print(f"P(halt bit = 1) = {report.p_halt!r}")
    print(f"seeded sample of the full register: input {sampled_input} "
          f"with halt bit {sampled_halt}")
    for k, kept in support.items():
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
        "projection_support": {str(k): kept for k, kept in support.items()},
    }
    if not args.no_timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if args.output:
        save_json_file(payload, args.output)
    return EXIT_OK


def _cmd_predict(args) -> int:
    b, d, k = args.b, args.d, args.k
    check_float_range(b, d)
    if b < 1 or d < 0 or k < 0 or k > b**d:
        raise InputError(f"need b >= 1, d >= 0, 0 <= k <= b**d; got b={b} d={d} k={k}")
    n = b**d
    if k == 0:
        m, asym_col, exact_col = 0, "n/a", 0.0
    else:
        m = optimal_iterations(n, k)
        asym_col = f"{predicted_success_asymptotic(b, d, k):.6f}"
        exact_col = predicted_success_exact(n, k, m)
    if 2 * n <= sim_cap():
        sim_col = f"{simulated_success(np.arange(n) < k, m):.6f}"
    else:
        sim_col = "over-cap"
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
        for d, (total, root) in enumerate(cumulative_calls(b, args.depth_max,
                                                           args.iterate_policy)):
            rows.append({"b": b, "d": d, "total_calls": total, "sqrt_bd": root,
                         "ratio": total / root,
                         "within_bound": within_call_budget(total, b, d)})
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
    results = run_checks(args.only, inject_fault=args.inject_fault)
    return EXIT_OK if all(r.passed for r in results) else EXIT_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, tuple):
            code, message = exc.code
            print(message, file=sys.stderr)
            return code
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
    except QidsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
