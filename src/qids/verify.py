"""Headless verification suite: every acceptance property as a named check.

The same checks back `qids verify` and the pytest acceptance module, so the
command-line gate and the test suite cannot drift apart. Each check returns
a CheckResult with a one-line detail string; run_checks prints one PASS/FAIL
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

import sys
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .driver import (QidConfig, cumulative_calls, depth_rng, draw,
                     quantum_iterative_deepening, report_within_call_budget,
                     within_call_budget)
from .errors import QidsError
from .grover import (amplified_probabilities, amplified_state, grover_iterate,
                     literal_iterations, optimal_iterations,
                     predicted_success_asymptotic, predicted_success_exact,
                     simulated_success)
from .production import (Alphabet, ProductionSystem, Rule, apply_rule,
                         classical_ids, deterministic_trace, execute_sequence,
                         marked_vector)
from .statevector import (halt_timing_demo, measure, prepare_halt_minus,
                          sample_index, uniform_superposition)
from .turing import (DeltaEntry, TuringMachineSpec, compile_tm, decode_config,
                     initial_memory, tm_trace)

CORPUS_SEED = 164037
CORPUS_SIZE = 20
RUN_SEED_BASE = 52000
ACCEPTANCE_TRIALS = 200
ACCEPTANCE_MIN_PREDICTED = 0.93
DRAW_SEEDS = 40


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    duration_s: float


def _result(name: str, t0: float, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


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
    alphabet = Alphabet(letters)
    scratch = ProductionSystem(alphabet, rules, (start,), (start,), max_memory_len=20)
    for depth in range(1, 7):
        nxt = []
        for mem in frontier:
            for rule in rules:
                try:
                    new = apply_rule(scratch, mem, rule)
                except QidsError:
                    continue
                if new is not None and new not in depth_of:
                    depth_of[new] = depth
                    nxt.append(new)
        frontier = nxt
        if not frontier or len(depth_of) > 4000:
            break
    candidates = [s for s, dep in depth_of.items() if 2 <= dep <= 6]
    if not candidates:
        return None
    goal = candidates[int(rng.integers(len(candidates)))]
    return ProductionSystem(alphabet, rules, (start,), (goal,), max_memory_len=20), start


@dataclass(frozen=True)
class CorpusEntry:
    system: ProductionSystem
    start: str
    d_star: int
    k_star: int


def _depth_clean(system: ProductionSystem, start: str, margin: int = 3,
                 d_max: int = 6) -> tuple[int, int] | None:
    """(d*, k*) if the system qualifies for the acceptance corpus, else None."""
    b = system.branching_factor
    d_star, k_star = None, 0
    for d in range(d_max + 1):
        k = int(marked_vector(system, start, d).sum())
        if k > 0:
            d_star, k_star = d, k
            break
    if d_star is None or d_star < 2:
        return None
    for j in range(1, margin + 1):
        expected = k_star * b**j
        actual = int(marked_vector(system, start, d_star + j).sum())
        if actual != expected:
            return None
    n = b**d_star
    m = optimal_iterations(n, k_star)
    if predicted_success_exact(n, k_star, m) < ACCEPTANCE_MIN_PREDICTED:
        return None
    return d_star, k_star


@cache
def acceptance_corpus() -> list[CorpusEntry]:
    """Deterministic randomized corpus for the search-vs-classical check."""
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

def check_grover_correctness(coeff: float = 2.0) -> CheckResult:
    """Simulated marked mass equals the closed form to 1e-9 across the sweep."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16, 32, 64):
        for k in (1, 2, 4):
            if k > n:
                continue
            marks = np.arange(n) < k
            for m in range(11):
                sim = simulated_success(marks, m, coeff)
                exact = predicted_success_exact(n, k, m)
                worst = max(worst, abs(sim - exact))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-9 and elapsed < 10.0
    return _result("grover-correctness", t0, passed,
                   f"max |simulated - closed form| = {worst:.3e}, {elapsed:.2f}s")


def reconciliation_table() -> list[dict]:
    """Asymptotic-vs-exact success probabilities for k = 1 at several sizes."""
    rows = []
    for b, d in ((2, 2), (2, 4), (2, 6), (2, 7), (2, 8), (2, 9)):
        n = b**d
        m = optimal_iterations(n, 1)
        asym = predicted_success_asymptotic(b, d, 1)
        exact = predicted_success_exact(n, 1, m)
        rows.append({"n_paths": n, "k": 1, "m": m, "asymptotic": asym,
                     "exact": exact, "gap": abs(asym - exact)})
    return rows


def check_formula_reconciliation() -> CheckResult:
    """|asymptotic - exact| <= 0.05 for k=1 once b**d reaches 64."""
    t0 = time.perf_counter()
    rows = reconciliation_table()
    big = [r for r in rows if r["n_paths"] >= 64]
    small = [r for r in rows if r["n_paths"] < 64]
    passed = all(r["gap"] <= 0.05 for r in big)
    gaps = ", ".join(f"N={r['n_paths']}: {r['gap']:.4f}" for r in rows)
    detail = (f"gaps [{gaps}]; small-N rows "
              + "; ".join(f"N={r['n_paths']} asym={r['asymptotic']:.4f} exact={r['exact']:.4f}"
                          for r in small))
    return _result("formula-reconciliation", t0, passed, detail)


def check_search_vs_classical(trials: int = ACCEPTANCE_TRIALS) -> CheckResult:
    """Amplified search agrees with classical iterative deepening on the corpus."""
    t0 = time.perf_counter()
    problems = []
    for i, entry in enumerate(acceptance_corpus()):
        system, start = entry.system, entry.start
        ids = classical_ids(system, start, depth_cap=6)
        if not ids.found or ids.d_star != entry.d_star:
            problems.append(f"system {i}: classical d* mismatch")
            continue
        n = system.branching_factor**entry.d_star
        m = optimal_iterations(n, entry.k_star)
        predicted = predicted_success_exact(n, entry.k_star, m)
        hits = 0
        for t in range(trials):
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
        freq = hits / trials
        if freq < predicted - 0.05:
            problems.append(f"system {i}: success-by-d* rate {freq:.3f} < "
                            f"{predicted:.3f} - 0.05")
    detail = f"{len(acceptance_corpus())} systems x {trials} seeds"
    if problems:
        detail += "; " + "; ".join(problems[:4])
    return _result("search-vs-classical", t0, not problems, detail)


def check_call_budget() -> CheckResult:
    """Cumulative optimal-policy oracle calls stay within 4*sqrt(b**d)."""
    t0 = time.perf_counter()
    rows = [(b, d, total, root) for b, d_max in ((2, 14), (3, 9))
            for d, (total, root) in enumerate(cumulative_calls(b, d_max))]
    worst_ratio = max(total / root for _, _, total, root in rows)
    ok = all(within_call_budget(total, b, d) for b, d, total, _ in rows)
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < 60.0
    return _result("cumulative-call-budget", t0, passed,
                   f"worst total/sqrt(b**d) = {worst_ratio:.3f} (bound 4), {elapsed:.2f}s")


def check_tm_bisimulation() -> CheckResult:
    """Compiled systems replay machine traces step for step."""
    t0 = time.perf_counter()
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
    return _result("tm-bisimulation", t0, not problems, detail)


def check_halt_timing_demo() -> CheckResult:
    """The straddling-halt-times demo splits cleanly on the halt bit."""
    t0 = time.perf_counter()
    report = halt_timing_demo(halt_timing_system(), d=3, step_cap=8)
    problems = []
    if report.steps_to_halt != [1, 2, 5, 5]:
        problems.append(f"halting times {report.steps_to_halt} != [1, 2, 5, 5]")
    if abs(report.p_halt - 0.5) > 1e-10:
        problems.append(f"P(halt) = {report.p_halt!r} != 0.5")
    if abs(report.p_halt + report.p_continue - 1.0) > 1e-10:
        problems.append("halt probabilities do not sum to 1")
    for k, proj in ((0, report.projected_continue), (1, report.projected_halt)):
        if proj is None:
            problems.append(f"projection onto h={k} missing")
            continue
        if abs(np.linalg.norm(proj) - 1.0) > 1e-10:
            problems.append(f"projection onto h={k} is not unit norm")
        if np.any(np.abs(proj[:, 1 - k]) > 0):
            problems.append(f"projection onto h={k} has support on h={1 - k}")
        expect_inputs = {2, 3} if k == 0 else {0, 1}
        support = {int(s) for s in np.nonzero(np.abs(proj[:, k]) > 0)[0]}
        if support != expect_inputs:
            problems.append(f"projection onto h={k} supported on inputs {support}")
    detail = f"P(halt)={report.p_halt}, times={report.steps_to_halt}"
    if problems:
        detail += "; " + "; ".join(problems)
    return _result("halt-timing-demo", t0, not problems, detail)


def _chi_square_pvalue(counts: np.ndarray, probs: np.ndarray, draws: int) -> float:
    """Goodness-of-fit p-value, merging low-expectation cells (< 5) together."""
    from scipy import stats  # local: importing scipy costs about a second of every start
    expected = probs * draws
    keep = expected >= 5
    if np.any(~keep):
        counts = np.append(counts[keep], counts[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    if len(counts) < 2:
        return 1.0
    statistic = float(((counts - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(statistic, df=len(counts) - 1))


def check_measurement_statistics(draws: int = 10_000, coeff: float = 2.0) -> CheckResult:
    """Seeded measurement frequencies fit the Born rule at significance 0.001."""
    t0 = time.perf_counter()
    cases = []
    cases.append(("uniform-with-minus-halt", prepare_halt_minus(uniform_superposition(16))))
    rng_state = np.random.default_rng(7)
    raw = rng_state.normal(size=64) + 1j * rng_state.normal(size=64)
    cases.append(("random-dim-64", (raw / np.linalg.norm(raw)).reshape(32, 2)))
    cases.append(("amplified-n16", amplified_state(np.arange(16) == 5, 3, coeff)))

    problems = []
    for name, state in cases:
        rng = np.random.default_rng(1234)
        counts = np.zeros(state.size)
        for _ in range(draws):
            label, h = measure(state, rng)
            counts[2 * label + h] += 1
        probs = np.abs(state.ravel()) ** 2
        zero = probs < 1e-15
        if counts[zero].sum() > 0:
            problems.append(f"{name}: drew a zero-probability outcome")
        p = _chi_square_pvalue(counts[~zero], probs[~zero], draws)
        if p < 0.001:
            problems.append(f"{name}: chi-square p = {p:.2e}")
    detail = f"{len(cases)} states x {draws} draws"
    if problems:
        detail += "; " + "; ".join(problems)
    return _result("measurement-statistics", t0, not problems, detail)


def check_unitarity(iterations: int = 1000, coeff: float = 2.0) -> CheckResult:
    """Norm drift below 1e-9 after 1000 iterates at dimension 2048."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    marks = rng.random(1024) < 0.125
    marks[0] = True  # at least one mark so the iterate is non-trivial
    state = prepare_halt_minus(uniform_superposition(1024))
    for _ in range(iterations):
        state = grover_iterate(state, marks, coeff)
    drift = abs(np.linalg.norm(state) - 1.0)
    return _result("unitarity-drift", t0, drift < 1e-9,
                   f"|norm - 1| = {drift:.3e} after {iterations} iterates at dim 2048")


def _closed_form_registers() -> list[tuple[np.ndarray, int, int]]:
    """(marks, depth, m) for the corpus at d*..d*+3 under both iterate counts, plus b=4, d=8, k=1."""
    cases = []
    for entry in acceptance_corpus():
        for d in range(entry.d_star, entry.d_star + 4):
            marks = marked_vector(entry.system, entry.start, d)
            k = int(marks.sum())
            cases += [(marks, d, optimal_iterations(len(marks), k)),
                      (marks, d, literal_iterations(len(marks)))]
    cases.append((np.arange(4**8) == 4321, 8, optimal_iterations(4**8, 1)))
    return cases


def check_engine_agreement(coeff: float = 2.0) -> CheckResult:
    """Closed-form probabilities equal the dense engine's within 1e-12.

    Covers the corpus at depths d* through d*+3 under the optimal and the
    faithful iterate counts, plus one single-mark register at b=4, d=8.
    """
    t0 = time.perf_counter()
    cases = _closed_form_registers()
    worst = 0.0
    for marks, _, m in cases:
        dense = np.abs(amplified_state(marks, m, coeff).ravel()) ** 2
        closed = amplified_probabilities(marks, int(marks.sum()), m)
        worst = max(worst, float(np.max(np.abs(dense - closed))))
    return _result("engine-agreement", t0, worst <= 1e-12,
                   f"max |dense - closed form| = {worst:.3e} over {len(cases)} "
                   f"registers (tolerance 1e-12)")


def check_draw_agreement() -> CheckResult:
    """The search's inverse-CDF draw measures what `rng.choice` over the vector does.

    On the `engine-agreement` registers, and on registers of 4096 sequences
    with none and with all of them marked, each over DRAW_SEEDS seeds, the
    seeded `driver.draw` must
    equal `sample_index` over `amplified_probabilities` with the same
    depth generator. The draw relies on how numpy's `choice` turns one
    double into an index; a numpy that changes it fails here.
    """
    t0 = time.perf_counter()
    cases = _closed_form_registers()
    n = 4096
    for marks in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
        cases += [(marks, 12, m) for m in (0, 1, optimal_iterations(n, 1), literal_iterations(n))]
    draws = fallbacks = 0
    problems = []
    for c, (marks, depth, m) in enumerate(cases):
        k = int(marks.sum())
        probs = amplified_probabilities(marks, k, m)
        for seed in range(RUN_SEED_BASE, RUN_SEED_BASE + DRAW_SEEDS):
            index, fast = draw(marks, k, m, seed, depth)
            expected = sample_index(probs, depth_rng(seed, depth)) // 2
            draws += 1
            fallbacks += not fast
            if index != expected:
                problems.append(f"register {c} (N={len(marks)}, k={k}, m={m}) seed {seed}: "
                                f"drew {index}, rng.choice drew {expected}")
    detail = (f"{draws - len(problems)}/{draws} draws over {len(cases)} registers agree; "
              f"{fallbacks} took the vector fallback")
    if problems:
        detail += "; " + "; ".join(problems[:4])
    return _result("draw-agreement", t0, not problems, detail)


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


def run_checks(names: list[str] | None = None, inject_fault: str | None = None,
               stream=None) -> list[CheckResult]:
    """Run the named checks (all by default), printing one line per check.

    A check that raises a QidsError fails with the error as its detail, and
    the run goes on to the next check.
    """
    out = stream if stream is not None else sys.stdout
    selected = names or list(ALL_CHECKS)
    unknown = [n for n in selected if n not in ALL_CHECKS]
    if unknown:
        raise QidsError(f"unknown check(s): {', '.join(unknown)}")
    if inject_fault not in (None, "diffusion"):
        raise QidsError(f"unknown fault {inject_fault!r}")
    coeff = 2.0 + 1e-3 if inject_fault == "diffusion" else 2.0
    results = []
    for name in selected:
        t0 = time.perf_counter()
        kwargs = {"coeff": coeff} if name in DENSE_CHECKS else {}
        try:
            result = ALL_CHECKS[name](**kwargs)
        except QidsError as exc:
            result = _result(name, t0, False, f"raised {type(exc).__name__}: {exc}")
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name} [{result.duration_s:.2f}s] {result.detail}",
              file=out)
    total = sum(r.duration_s for r in results)
    print(f"{'PASS' if all(r.passed for r in results) else 'FAIL'} "
          f"{sum(r.passed for r in results)}/{len(results)} checks in {total:.1f}s",
          file=out)
    return results
