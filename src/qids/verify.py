"""Headless verification suite: every acceptance property as a named check.

The same checks back `qids verify` and the pytest acceptance module, so the
command-line gate and the test suite cannot drift apart. Each check returns
its verdict as (passed, one-line detail); `run_checks` names it by its
ALL_CHECKS key, times it, builds its CheckResult and prints one PASS/FAIL
line per check.

The randomized search corpus is generated here from fixed seeds. Systems
are kept only if they are *depth-clean*: the first depth d* carrying a
halting sequence satisfies k(d) = k(d*) * b**(d - d*) for a few levels past
d*, i.e. every deeper halting sequence halts through a depth-d* prefix.
That is the regime in which a measured witness always encodes the minimal
solution depth, which is what the witness checks assert. Candidates also
need a closed-form success probability of at least 0.93 at d* so the
empirical frequency bound has margin.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import driver
from .driver import (QidConfig, amplified_probabilities, amplified_weights, call_budget_rows,
                     literal_iterations, optimal_iterations, predicted_success_exact,
                     quantum_iterative_deepening, report_within_call_budget, success_row,
                     vector_draw)
from .errors import QidsError
from .production import (Alphabet, MarkedRuns, ProductionSystem, Rule, classical_ids,
                         deterministic_trace, execute_sequence, marked_vector)
from .statevector import (amplified_state, bitmap, grover_iterate, halt_timing_demo, measure,
                          prepare_halt_minus, simulated_success, uniform_superposition)
from .turing import (DeltaEntry, TuringMachineSpec, compile_tm, decode_config,
                     initial_memory, tm_trace)

CORPUS_SEED = 164037
CORPUS_SIZE = 20
RUN_SEED_BASE = 52000
ACCEPTANCE_TRIALS = 200
ACCEPTANCE_MIN_PREDICTED = 0.93
CLEAN_MARGIN = 3  # levels past d* over which a corpus system must stay depth-clean
CLEAN_D_MAX = 6  # the deepest d* a corpus system may have
MEASUREMENT_DRAWS = 10_000
UNITARITY_ITERATIONS = 1000
DRAW_SEEDS = 40
# seeds of one to seven 32-bit words and depths of one and two, on both sides of a
# word boundary
GRID_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**200)
GRID_DEPTHS = (*range(25), 2**32, 2**33)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    duration_s: float


# ---------------------------------------------------------------------------
# corpora

def halt_timing_system() -> ProductionSystem:
    """Four inputs whose deterministic halting times are 1, 2, 5 and 5 steps."""
    return ProductionSystem(
        alphabet=Alphabet(("a", "b", "G")),
        rules=(Rule("aG", "G"), Rule("bG", "G")),
        initial_states=("aG", "aaG", "aaaaaG", "ababaG"),
        goal_states=("G",),
        max_memory_len=16,
    )


def _word_builder(rng: np.random.Generator, b: int) -> tuple[ProductionSystem, str]:
    """Word-growing system with rng-chosen goal words at one fixed depth."""
    letters = ("a", "b", "c")[:b]
    d_star = int(rng.integers(2, 7))
    n_goals = int(rng.integers(1, 3))
    words = set()
    while len(words) < n_goals:
        words.add("".join(rng.choice(letters, size=d_star)))
    return ProductionSystem(
        alphabet=Alphabet(letters + ("E",)),
        rules=tuple(Rule("E", ch + "E") for ch in letters),
        initial_states=("E",),
        goal_states=tuple(sorted(w + "E" for w in words)),
        max_memory_len=d_star + 8,
    ), "E"


def _random_soup(rng: np.random.Generator, b: int) -> tuple[ProductionSystem, str] | None:
    """Unstructured random rewriting system with a goal picked from its tree."""
    letters = ("a", "b", "c")

    def word(lo, hi):
        return "".join(rng.choice(letters, size=int(rng.integers(lo, hi + 1))))

    rules = tuple(Rule(word(1, 2), word(0, 2)) for _ in range(b))
    start = word(2, 3)
    # breadth-first depth map over reachable strings
    depth_of = {start: 0}
    frontier = [start]
    for depth in range(1, 7):
        nxt = []
        for mem in frontier:
            for rule in rules:
                if rule.precondition not in mem:
                    continue
                new = mem.replace(rule.precondition, rule.action, 1)
                if len(new) <= 20 and new not in depth_of:
                    depth_of[new] = depth
                    nxt.append(new)
        frontier = nxt
        if not frontier or len(depth_of) > 4000:
            break
    candidates = [s for s, dep in depth_of.items() if 2 <= dep <= 6]
    if not candidates:
        return None
    goal = candidates[int(rng.integers(len(candidates)))]
    return ProductionSystem(Alphabet(letters), rules, (start,), (goal,), max_memory_len=20), start


@dataclass(frozen=True)
class CorpusEntry:
    system: ProductionSystem
    start: str
    d_star: int
    k_star: int


def _depth_clean(system: ProductionSystem, start: str) -> tuple[int, int] | None:
    """(d*, k*) if the system qualifies for the acceptance corpus, else None."""
    b = system.branching_factor
    d_star, k_star = None, 0
    for d in range(CLEAN_D_MAX + 1):
        k = marked_vector(system, start, d).k
        if k > 0:
            d_star, k_star = d, k
            break
    if d_star is None or d_star < 2:
        return None
    if any(marked_vector(system, start, d_star + j).k != k_star * b**j
           for j in range(1, CLEAN_MARGIN + 1)):
        return None
    if success_row(b, d_star, k_star)[2] < ACCEPTANCE_MIN_PREDICTED:
        return None
    return d_star, k_star


@cache
def acceptance_corpus() -> list[CorpusEntry]:
    """Deterministic randomized corpus for `check_search_vs_classical`."""
    rng = np.random.default_rng(CORPUS_SEED)
    entries: list[CorpusEntry] = []
    attempts = 0
    while len(entries) < CORPUS_SIZE and attempts < 5000:
        attempts += 1
        b = 2 + len(entries) % 2
        maker = _random_soup if attempts % 2 else _word_builder
        made = maker(rng, b)
        if made is None:
            continue
        system, start = made
        clean = _depth_clean(system, start)
        if clean is None:
            continue
        entries.append(CorpusEntry(system, start, clean[0], clean[1]))
    if len(entries) < CORPUS_SIZE:
        raise QidsError(f"corpus generation stalled at {len(entries)}/{CORPUS_SIZE} systems")
    return entries


def tm_corpus() -> list[tuple[str, TuringMachineSpec, list[str]]]:
    """Five machines with ten input tapes each, all halting well inside 200 steps."""
    def tm(states, start, halts, entries, alphabet=("1", "_"), blank="_"):
        return TuringMachineSpec(
            states=states, start=start, halts=frozenset(halts), blank=blank,
            tape_alphabet=alphabet,
            entries=tuple(DeltaEntry(*e) for e in entries), tape_window=40,
        )

    unary_inc = tm(("q", "h"), "q", ("h",), [
        ("q", "1", "q", "1", "R"),
        ("q", "_", "h", "1", "S"),
    ])
    flipper = tm(("f", "h"), "f", ("h",), [
        ("f", "0", "f", "1", "R"),
        ("f", "1", "f", "0", "R"),
        ("f", "_", "h", "_", "S"),
    ], alphabet=("0", "1", "_"))
    parity = tm(("e", "o", "h"), "e", ("h",), [
        ("e", "1", "o", "1", "R"),
        ("o", "1", "e", "1", "R"),
        ("e", "_", "h", "E", "S"),
        ("o", "_", "h", "O", "S"),
        ("e", "E", "h", "E", "S"),
        ("o", "E", "h", "E", "S"),
        ("e", "O", "h", "O", "S"),
        ("o", "O", "h", "O", "S"),
    ], alphabet=("1", "_", "E", "O"))
    bouncer = tm(("r", "l", "h"), "r", ("h",), [
        ("r", "1", "r", "1", "R"),
        ("r", "_", "l", "_", "L"),
        ("l", "1", "l", "1", "L"),
        ("l", "_", "h", "1", "S"),
    ])
    bin_inc = tm(("m", "c", "h"), "m", ("h",), [
        ("m", "0", "m", "0", "R"),
        ("m", "1", "m", "1", "R"),
        ("m", "_", "c", "_", "L"),
        ("c", "1", "c", "0", "L"),
        ("c", "0", "h", "1", "S"),
        ("c", "_", "h", "1", "S"),
    ], alphabet=("0", "1", "_"))

    ones = ["", "1", "11", "111", "1111", "11111", "111111", "1111111",
            "11111111", "111111111"]
    bits = ["0", "1", "01", "10", "0011", "1100", "010101", "111000",
            "10101010", "00110011"]
    nums = ["0", "1", "10", "11", "100", "101", "111", "1010", "1111", "10011"]
    return [
        ("unary-increment", unary_inc, ones),
        ("bit-flipper", flipper, bits),
        ("ones-parity", parity, ones),
        ("edge-bouncer", bouncer, ones),
        ("binary-increment", bin_inc, nums),
    ]


# ---------------------------------------------------------------------------
# checks

def check_grover_correctness(coeff: float = 2.0) -> tuple[bool, str]:
    """Simulated marked mass equals the closed form to 1e-9 across the sweep, inside 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16, 32, 64):
        for k in (1, 2, 4):
            marks = np.arange(n) < k
            for m in range(11):
                sim = simulated_success(marks, m, coeff)
                exact = predicted_success_exact(n, k, m)
                worst = max(worst, abs(sim - exact))
    elapsed = time.perf_counter() - t0
    return (worst < 1e-9 and elapsed < 10.0,
            f"max |simulated - closed form| = {worst:.3e}, {elapsed:.2f}s")


def reconciliation_table() -> list[dict]:
    """Asymptotic-vs-exact success probabilities for k = 1 at several sizes."""
    rows = []
    for b, d in ((2, 2), (2, 4), (2, 6), (2, 7), (2, 8), (2, 9)):
        m, asym, exact = success_row(b, d, 1)
        rows.append({"n_paths": b**d, "k": 1, "m": m, "asymptotic": asym,
                     "exact": exact, "gap": abs(asym - exact)})
    return rows


def check_formula_reconciliation() -> tuple[bool, str]:
    """|asymptotic - exact| <= 0.05 for k=1 once b**d reaches 64."""
    rows = reconciliation_table()
    small = [r for r in rows if r["n_paths"] < 64]
    passed = all(r["gap"] <= 0.05 for r in rows if r["n_paths"] >= 64)
    gaps = ", ".join(f"N={r['n_paths']}: {r['gap']:.4f}" for r in rows)
    detail = (f"gaps [{gaps}]; small-N rows "
              + "; ".join(f"N={r['n_paths']} asym={r['asymptotic']:.4f} exact={r['exact']:.4f}"
                          for r in small))
    return passed, detail


def check_search_vs_classical() -> tuple[bool, str]:
    """Amplified search agrees with classical iterative deepening on the corpus."""
    problems = []
    for i, entry in enumerate(acceptance_corpus()):
        system, start = entry.system, entry.start
        ids = classical_ids(system, start, depth_cap=CLEAN_D_MAX)
        if not ids.found or ids.d_star != entry.d_star:
            problems.append(f"system {i}: classical d* mismatch")
            continue
        predicted = success_row(system.branching_factor, entry.d_star, entry.k_star)[2]
        hits = 0
        for t in range(ACCEPTANCE_TRIALS):
            cfg = QidConfig(seed=RUN_SEED_BASE + 1000 * i + t,
                            depth_cap=entry.d_star + 3)
            report = quantum_iterative_deepening(system, start, cfg)
            if not report_within_call_budget(report, system.branching_factor):
                problems.append(f"system {i} seed {cfg.seed}: oracle calls over budget")
            if report.found:
                if report.d_star != entry.d_star:
                    problems.append(f"system {i} seed {cfg.seed}: witness prefix "
                                    f"{report.d_star} != d* {entry.d_star}")
                if not execute_sequence(system, start, report.witness).halted:
                    problems.append(f"system {i} seed {cfg.seed}: witness does not halt")
                if report.measured_depth == entry.d_star:
                    hits += 1
        freq = hits / ACCEPTANCE_TRIALS
        if freq < predicted - 0.05:
            problems.append(f"system {i}: success-by-d* rate {freq:.3f} < "
                            f"{predicted:.3f} - 0.05")
    detail = f"{len(acceptance_corpus())} systems x {ACCEPTANCE_TRIALS} seeds"
    if problems:
        detail += "; " + "; ".join(problems[:4])
    return not problems, detail


def check_call_budget() -> tuple[bool, str]:
    """Cumulative optimal-policy oracle calls stay within 4*sqrt(b**d), tabulated inside 60 s."""
    t0 = time.perf_counter()
    rows = [row for b, d_max in ((2, 14), (3, 9)) for row in call_budget_rows(b, d_max, "optimal")]
    worst_ratio = max(row["ratio"] for row in rows)
    ok = all(row["within_bound"] for row in rows)
    elapsed = time.perf_counter() - t0
    return (ok and elapsed < 60.0,
            f"worst total/sqrt(b**d) = {worst_ratio:.3f} (bound 4), {elapsed:.2f}s")


def check_tm_bisimulation() -> tuple[bool, str]:
    """Compiled systems replay machine traces step for step."""
    problems = []
    pairs = 0
    for name, tm, tapes in tm_corpus():
        system = compile_tm(tm, input_tapes=tuple(tapes))
        for tape in tapes:
            pairs += 1
            direct = tm_trace(tm, tape, 200)
            rewrit = deterministic_trace(system, initial_memory(tm, tape), 200)
            if len(direct) != len(rewrit.trace):
                problems.append(f"{name} tape {tape!r}: {len(direct)} direct steps vs "
                                f"{len(rewrit.trace)} compiled")
                continue
            for step, (cfg, memory) in enumerate(zip(direct, rewrit.trace)):
                if decode_config(tm, memory) != cfg:
                    problems.append(f"{name} tape {tape!r} step {step}: decode mismatch")
                    break
            final = decode_config(tm, rewrit.trace[-1])
            if final.tape != direct[-1].tape:
                problems.append(f"{name} tape {tape!r}: final tapes differ")
            if direct[-1].state not in tm.halts or rewrit.goal_step is None:
                problems.append(f"{name} tape {tape!r}: run did not halt in both worlds")
    detail = f"{pairs} machine/tape pairs"
    if problems:
        detail += "; " + "; ".join(problems[:4])
    return not problems, detail


def check_halt_timing_demo() -> tuple[bool, str]:
    """The straddling-halt-times demo splits cleanly on the halt bit."""
    report = halt_timing_demo(halt_timing_system(), d=3, step_cap=8)
    problems = []
    if report.steps_to_halt != [1, 2, 5, 5]:
        problems.append(f"halting times {report.steps_to_halt} != [1, 2, 5, 5]")
    if abs(report.p_halt - 0.5) > 1e-10:
        problems.append(f"P(halt) = {report.p_halt!r} != 0.5")
    if abs(report.p_halt + report.p_continue - 1.0) > 1e-10:
        problems.append("halt probabilities do not sum to 1")
    for k, proj, expected in ((0, report.projected_continue, [2, 3]),
                              (1, report.projected_halt, [0, 1])):
        if proj is None:
            problems.append(f"projection onto h={k} missing")
            continue
        if abs(np.linalg.norm(proj) - 1.0) > 1e-10:
            problems.append(f"projection onto h={k} is not unit norm")
        if np.any(np.abs(proj[:, 1 - k]) > 0):
            problems.append(f"projection onto h={k} has support on h={1 - k}")
        if report.projection_support[k] != expected:
            problems.append(f"projection onto h={k} keeps inputs {report.projection_support[k]}")
    detail = f"P(halt)={report.p_halt}, times={report.steps_to_halt}"
    if problems:
        detail += "; " + "; ".join(problems)
    return not problems, detail


def _chi_square_pvalue(counts: np.ndarray, probs: np.ndarray, draws: int) -> float:
    """Goodness-of-fit p-value, merging low-expectation cells (< 5) together.

    Closed-form chi-square tail (Abramowitz and Stegun 26.4); h = statistic/2, a = 1 + df % 2 / 2:
    exp(-h) * sum_{j < df // 2} h**(a + j - 1) / gamma(a + j), plus erfc(sqrt(h)) for odd df.
    """
    expected = probs * draws
    keep = expected >= 5
    if np.any(~keep):
        counts = np.append(counts[keep], counts[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    if len(counts) < 2:
        return 1.0
    df, h = len(counts) - 1, float(((counts - expected) ** 2 / expected).sum()) / 2
    a, tail = (1.5, math.erfc(math.sqrt(h))) if df % 2 else (1.0, 0.0)
    term = math.exp(-h) * h ** (a - 1) / math.gamma(a)
    for j in range(df // 2):
        tail += term
        term *= h / (a + j)
    return tail


def check_measurement_statistics(coeff: float = 2.0) -> tuple[bool, str]:
    """Seeded measurement frequencies fit the Born rule at significance 0.001."""
    rng_state = np.random.default_rng(7)
    raw = rng_state.normal(size=64) + 1j * rng_state.normal(size=64)
    cases = [("uniform-with-minus-halt", prepare_halt_minus(uniform_superposition(16))),
             ("random-dim-64", (raw / np.linalg.norm(raw)).reshape(32, 2)),
             ("amplified-n16", amplified_state(np.arange(16) == 5, 3, coeff))]

    problems = []
    for name, state in cases:
        rng = np.random.default_rng(1234)
        counts = np.zeros(state.size)
        for _ in range(MEASUREMENT_DRAWS):
            label, h = measure(state, rng)
            counts[2 * label + h] += 1
        probs = np.abs(state.ravel()) ** 2
        zero = probs < 1e-15
        if counts[zero].sum() > 0:
            problems.append(f"{name}: drew a zero-probability outcome")
        p = _chi_square_pvalue(counts[~zero], probs[~zero], MEASUREMENT_DRAWS)
        if p < 0.001:
            problems.append(f"{name}: chi-square p = {p:.2e}")
    detail = f"{len(cases)} states x {MEASUREMENT_DRAWS} draws"
    if problems:
        detail += "; " + "; ".join(problems)
    return not problems, detail


def check_unitarity(coeff: float = 2.0) -> tuple[bool, str]:
    """Norm drift below 1e-9 after 1000 iterates at dimension 2048."""
    rng = np.random.default_rng(99)
    marks = rng.random(1024) < 0.125
    marks[0] = True  # at least one mark so the iterate is non-trivial
    state = prepare_halt_minus(uniform_superposition(1024))
    for _ in range(UNITARITY_ITERATIONS):
        state = grover_iterate(state, marks, coeff)
    drift = abs(np.linalg.norm(state) - 1.0)
    return drift < 1e-9, (f"|norm - 1| = {drift:.3e} after {UNITARITY_ITERATIONS} iterates "
                          f"at dim 2048")


def _closed_form_registers() -> list[tuple[MarkedRuns, int, int]]:
    """(runs, depth, m) for the corpus at d*..d*+3 under both iterate counts, plus b=4, d=8, k=1."""
    cases = []
    for entry in acceptance_corpus():
        for d in range(entry.d_star, entry.d_star + 4):
            runs = marked_vector(entry.system, entry.start, d)
            cases += [(runs, d, optimal_iterations(runs.n, runs.k)),
                      (runs, d, literal_iterations(runs.n))]
    cases.append((MarkedRuns(4**8, [(4321, 1)]), 8, optimal_iterations(4**8, 1)))
    return cases


def check_engine_agreement(coeff: float = 2.0) -> tuple[bool, str]:
    """Closed-form probabilities equal the dense engine's within 1e-12.

    Covers the corpus at depths d* through d*+3 under the optimal and the
    faithful iterate counts, plus one single-mark register at b=4, d=8.
    """
    cases = _closed_form_registers()
    worst = 0.0
    for runs, _, m in cases:
        marks = bitmap(runs)
        dense = np.abs(amplified_state(marks, m, coeff).ravel()) ** 2
        closed = amplified_probabilities(marks, m)
        worst = max(worst, float(np.max(np.abs(dense - closed))))
    return worst <= 1e-12, (f"max |dense - closed form| = {worst:.3e} over {len(cases)} "
                            f"registers (tolerance 1e-12)")


def check_draw_agreement() -> tuple[bool, str]:
    """The search's inverse-CDF draw measures what `rng.choice` over the vector does,
    from the double numpy's generator gives.

    On `check_engine_agreement`'s registers, and on registers of 4096
    sequences with none and with all of them marked, each over DRAW_SEEDS
    seeds, the seeded `driver.measure` must equal `driver.vector_draw` over
    `amplified_probabilities`, and on each register the first seed's
    double must draw the same index through `driver.vector_index`, the
    fallback that repeats numpy's arithmetic for a double on a step edge.
    The draw relies on how numpy's `choice` turns one double into an index,
    and the search computes that double itself (`driver.depth_uniform`);
    so on every (seed, depth) drawn here and on the GRID_SEEDS x GRID_DEPTHS
    grid, the owned double must equal the first double of numpy's
    `driver.depth_rng`. A numpy that changes any of these fails here.
    """
    cases = _closed_form_registers()
    n = 4096
    for runs in (MarkedRuns(n), MarkedRuns(n, [(0, n)])):
        cases += [(runs, 12, m) for m in (0, 1, optimal_iterations(n, 1), literal_iterations(n))]
    draws = fallbacks = 0
    problems, fallback_problems = [], []
    seeds = range(RUN_SEED_BASE, RUN_SEED_BASE + DRAW_SEEDS)
    for c, (runs, depth, m) in enumerate(cases):
        probs = amplified_probabilities(bitmap(runs), m)
        register = f"register {c} (N={runs.n}, k={runs.k}, m={m})"
        for seed in seeds:
            index, _, fast = driver.measure(runs, m, seed, depth)
            expected = vector_draw(probs, seed, depth)
            draws += 1
            fallbacks += not fast
            if index != expected:
                problems.append(f"{register} seed {seed}: drew {index}, rng.choice drew {expected}")
            if seed == seeds[0]:
                u = driver.depth_uniform(seed, depth)
                index = driver.vector_index(runs, *amplified_weights(runs.n, runs.k, m), u)
                if index != expected:
                    fallback_problems.append(f"{register} seed {seed}: the fallback drew {index}, "
                                             f"rng.choice drew {expected}")
    detail = (f"{draws - len(problems)}/{draws} draws over {len(cases)} registers agree; "
              f"{fallbacks} took the vector fallback; the fallback drew rng.choice's index on "
              f"{len(cases) - len(fallback_problems)}/{len(cases)} registers")
    problems += fallback_problems
    pairs = sorted({(seed, depth) for _, depth, _ in cases for seed in seeds}
                   | set(itertools.product(GRID_SEEDS, GRID_DEPTHS)))
    differ = [f"seed {seed} depth {depth}: the owned double differs from numpy's"
              for seed, depth in pairs
              if driver.depth_uniform(seed, depth) != driver.depth_rng(seed, depth).random()]
    detail += (f"; owned doubles equal numpy's on {len(pairs) - len(differ)}/{len(pairs)} "
               f"(seed, depth) pairs")
    problems += differ
    if problems:
        detail += "; " + "; ".join(problems[:4])
    return not problems, detail


ALL_CHECKS = {
    "grover-correctness": check_grover_correctness,
    "formula-reconciliation": check_formula_reconciliation,
    "search-vs-classical": check_search_vs_classical,
    "cumulative-call-budget": check_call_budget,
    "tm-bisimulation": check_tm_bisimulation,
    "halt-timing-demo": check_halt_timing_demo,
    "measurement-statistics": check_measurement_statistics,
    "unitarity-drift": check_unitarity,
    "engine-agreement": check_engine_agreement,
    "draw-agreement": check_draw_agreement,
}

# The checks that run the dense engine; each takes the diffusion coefficient
# that `--inject-fault diffusion` perturbs.
DENSE_CHECKS = ("grover-correctness", "measurement-statistics", "unitarity-drift",
                "engine-agreement")


def run_checks(names: list[str] | None = None,
               inject_fault: str | None = None) -> list[CheckResult]:
    """Run the named checks (all by default), printing one line per check.

    Each check is timed here and named by its ALL_CHECKS key; the DENSE_CHECKS
    get the diffusion coefficient. A check that raises a QidsError fails
    with the error as its detail, and the run goes on to the next check.
    """
    selected = names or list(ALL_CHECKS)
    unknown = [n for n in selected if n not in ALL_CHECKS]
    if unknown:
        raise QidsError(f"unknown check(s): {', '.join(unknown)}; "
                        f"the checks are {', '.join(ALL_CHECKS)}")
    if inject_fault not in (None, "diffusion"):
        raise QidsError(f"unknown fault {inject_fault!r}")
    coeff = 2.0 + 1e-3 if inject_fault == "diffusion" else 2.0
    results = []
    for name in selected:
        kwargs = {"coeff": coeff} if name in DENSE_CHECKS else {}
        t0 = time.perf_counter()
        try:
            passed, detail = ALL_CHECKS[name](**kwargs)
        except QidsError as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CheckResult(name, passed, detail, time.perf_counter() - t0)
        results.append(result)
        print(f"{'PASS' if passed else 'FAIL'} {name} [{result.duration_s:.2f}s] {detail}")
    total = sum(r.duration_s for r in results)
    print(f"{'PASS' if all(r.passed for r in results) else 'FAIL'} "
          f"{sum(r.passed for r in results)}/{len(results)} checks in {total:.1f}s")
    return results
