"""The benchmark's three workloads: inputs, one timed operation, output checks.

Each workload is built from the benchmark's seed and hands the program only
generated files and arguments. `run` is the timed operation; `check` and
`finish` compare what the program returned with computations from
`reference`, which is written apart from qids.

A check returns (failed, problems, depth rounds): `failed` means the
program did not complete the operation (an error exit or an exhausted
depth cap), and `problems` lists wrong answers in an operation that did
complete.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import reference as ref

WORKLOADS = ("tree_search", "tm_compiled", "corpus_sweep")


def write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One `qids` invocation through cli.main with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def parse_cli(out: tuple[int, str]) -> dict | None:
    """The report of a `qids run` that found a witness, else None."""
    code, text = out
    if code != 0:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def not_found(report: dict | None) -> bool:
    return report is None or report.get("outcome") != "found"


def rounds(report: dict) -> int:
    return len(report["per_depth"])


class CliWorkload:
    """One operation is one `qids run` on a system file, searching once.

    The depth cap is one past the goal depth DEPTH. At DEPTH the search
    measures a miss with a chance of about 1.2e-5, and with the cap at DEPTH
    that miss would end the search as `cap_exceeded` on some seeds; at
    DEPTH + 1 the same chance again leaves about 1.4e-10 a search.

    A `qids run` starts in a fresh process, without the markings that
    marked_vector's cache keeps, so make_input, which runs between
    operations and outside their timing, empties that cache.
    """

    searches_per_op = 1

    def forget_markings(self) -> None:
        import qids.production
        qids.production.marked_vector.cache_clear()

    def run(self, inp: dict):
        return run_cli(self.cli, ["run", str(inp["path"]), "--seed", str(inp["seed"]),
                                  "--depth-cap", str(self.DEPTH + 1), "--no-timestamp"])

    def check(self, inp: dict, out) -> tuple[bool, list[str], int]:
        return self.check_report(inp, parse_cli(out))

    def finish(self) -> list[str]:
        return []

    def check_depths(self, report: dict, ks: list[int], b: int) -> list[str]:
        """Problems with the measured depth, per-depth k and oracle calls of a report
        that found a witness, given the reference halting counts ks up to the cap."""
        measured = report["measured_depth"]
        if measured not in (self.DEPTH, self.DEPTH + 1) or len(report["witness"]) != measured:
            return [f"measured at depth {measured} with {len(report['witness'])} rules, "
                    f"expected depth {self.DEPTH} or {self.DEPTH + 1}"]
        problems = []
        if [rec["k"] for rec in report["per_depth"]] != ks[:measured + 1]:
            problems.append(f"per-depth k differs from the reference counts {ks}")
        calls, want = report["total_oracle_calls"], ref.schedule_calls(b, ks, measured)
        if calls != want or calls > 4 * math.sqrt(b**measured):
            problems.append(f"{calls} oracle calls, expected {want}")
        return problems


class TreeSearch(CliWorkload):
    """A fresh binary word-growing tree per search, goal word of length 16."""

    DEPTH = 16

    def __init__(self, seed: int, workdir: Path):
        import qids.cli
        self.cli = qids.cli
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.seen: set[str] = set()
        self.inputs: list[dict] = []
        self.ks = [0] * self.DEPTH + [1, 2]

    def make_input(self, i: int) -> dict:
        self.forget_markings()
        word = None
        while word is None or word in self.seen:
            word = "".join("ab"[self.rng.getrandbits(1)] for _ in range(self.DEPTH))
        self.seen.add(word)
        path = self.workdir / f"tree-{i}.json"
        write_json(path, {
            "alphabet": ["a", "b", "E"],
            "rules": [{"pre": "E", "post": "aE"}, {"pre": "E", "post": "bE"}],
            "initial": ["E"],
            "goals": [word + "E"],
            "max_memory_len": self.DEPTH + 8,
        })
        inp = {"path": path, "word": word, "seed": self.rng.randrange(2**31)}
        self.inputs.append(inp)
        return inp

    def check_report(self, inp: dict, report: dict | None) -> tuple[bool, list[str], int]:
        if not_found(report):
            return True, [], 0
        problems = self.check_depths(report, self.ks, 2)
        if report["witness"][:self.DEPTH] != ["ab".index(ch) for ch in inp["word"]]:
            problems.append(f"witness {report['witness']} does not spell {inp['word']}")
        if report["d_star"] != self.DEPTH:
            problems.append(f"d_star {report['d_star']}, expected {self.DEPTH}")
        if report["goal_state"] != inp["word"] + "E":
            problems.append(f"goal state {report['goal_state']!r}")
        return False, problems, rounds(report)

    def classical_nodes(self, load_system, classical_ids) -> list[int]:
        return [classical_ids(load_system(inp["path"]), "E", self.DEPTH).nodes_expanded
                for inp in self.inputs]


class TmCompiled(CliWorkload):
    """The unary-increment machine on tape 1111111, compiled once at set-up."""

    TAPE = "1111111"
    DEPTH = 8

    def __init__(self, seed: int, workdir: Path):
        import qids.cli
        import qids.production
        import qids.turing
        self.cli = qids.cli
        self.rng = random.Random(seed)
        machine = workdir / "unary_increment.tm.json"
        write_json(machine, {
            "states": list(ref.UNARY_STATES), "start": "q", "halts": ["h"], "blank": "_",
            "tape_alphabet": ["1", "_"],
            "delta": [[q, a, p, w, mv] for (q, a), (p, w, mv) in ref.UNARY_INCREMENT.items()],
            "tape_window": 24,
        })
        tm = qids.turing.load_tm(machine)
        system = qids.turing.compile_tm(tm, input_tapes=(self.TAPE,))
        self.path = workdir / "unary_increment.json"
        qids.production.save_system(system, self.path)
        self._reference = None

    def reference(self) -> dict:
        """What a correct report holds, computed apart from the program."""
        if self._reference is None:
            data = json.loads(self.path.read_text(encoding="utf-8"))
            rules = [(r["pre"], r["post"]) for r in data["rules"]]
            start = data["initial"][0]
            max_len = data["max_memory_len"]
            ks = ref.halting_counts(rules, start, self.is_goal, max_len, self.DEPTH + 1)
            state, tape, steps = ref.run_machine(ref.UNARY_INCREMENT, "q", {"h"}, "_",
                                                 self.TAPE, 100)
            self._reference = {
                "rules": rules, "start": start, "max_len": max_len, "ks": ks,
                "state": state, "tape": tape, "steps": steps,
            }
        return self._reference

    @staticmethod
    def is_goal(memory: str) -> bool:
        return "h" in memory

    def make_input(self, i: int) -> dict:
        self.forget_markings()
        return {"path": self.path, "seed": self.rng.randrange(2**31)}

    def check_report(self, inp: dict, report: dict | None) -> tuple[bool, list[str], int]:
        if not_found(report):
            return True, [], 0
        want = self.reference()
        problems = self.check_depths(report, want["ks"], len(want["rules"]))
        if report["d_star"] != want["steps"] or want["steps"] != self.DEPTH:
            problems.append(f"d_star {report['d_star']}, the machine halts after "
                            f"{want['steps']} steps")
        try:
            decoded = ref.decode_memory(report["goal_state"], ref.UNARY_STATES)
        except ValueError as exc:
            problems.append(str(exc))
        else:
            if decoded != (want["state"], want["tape"]):
                problems.append(f"goal state decodes to {decoded}, the machine ends "
                                f"in {(want['state'], want['tape'])}")
        at, memory = ref.replay(want["rules"], want["start"], report["witness"],
                                self.is_goal, want["max_len"])
        if at != report["d_star"] or memory != report["goal_state"]:
            problems.append(f"witness {report['witness']} reaches a goal at step {at}")
        return False, problems, rounds(report)

    def classical_nodes(self, load_system, classical_ids) -> list[int]:
        start = self.reference()["start"]
        return [classical_ids(load_system(self.path), start, self.DEPTH).nodes_expanded]


# (kind, b, d*, k*) of the 20 systems that qids.verify.acceptance_corpus()
# builds (CORPUS_SEED 164037) for the verify gate's search-vs-classical
# check, in its order: 15 word-growing trees and 5 random systems. Every
# seed fills the same slots, so a pass does the gate's amplification work
# whatever the seed; the seed draws the goal words and the random rules.
GATE_SHAPES = (
    ("tree", 2, 3, 2), ("tree", 3, 2, 1), ("tree", 2, 6, 2), ("soup", 3, 2, 1),
    ("tree", 2, 4, 1), ("soup", 3, 2, 1), ("tree", 2, 3, 2), ("soup", 3, 2, 1),
    ("tree", 2, 6, 1), ("tree", 3, 4, 2), ("tree", 2, 5, 2), ("tree", 3, 4, 2),
    ("tree", 2, 6, 2), ("soup", 3, 3, 1), ("tree", 2, 5, 1), ("tree", 3, 4, 2),
    ("tree", 2, 2, 1), ("tree", 3, 4, 2), ("soup", 2, 3, 1), ("tree", 3, 4, 1),
)
CORPUS_SIZE = len(GATE_SHAPES)

# The gate's filters: k at d* + j is k* b**j for j = 1..GATE_MARGIN, and the
# closed-form success at d* is at least GATE_MIN_SUCCESS. Its cap is
# d* + GATE_MARGIN; a system whose searches would exhaust that cap with a
# chance above MAX_EXHAUST gets the smallest deeper cap that brings the
# chance under it, so that no run meets an exhausted search. A deeper cap
# only adds depths to a search that has missed GATE_MARGIN + 1 times.
GATE_MARGIN = 3
GATE_MIN_SUCCESS = 0.93
MAX_EXHAUST = 1e-9
MAX_MARGIN = 8


@dataclass
class CorpusEntry:
    kind: str
    rules: list[ref.Rule]
    start: str
    goals: list[str]
    max_len: int
    alphabet: list[str]
    ks: list[int]  # halting counts for depths 0..cap

    @property
    def b(self) -> int:
        return len(self.rules)

    @property
    def d_star(self) -> int:
        return next(d for d, k in enumerate(self.ks) if k > 0)

    @property
    def cap(self) -> int:
        return len(self.ks) - 1

    @property
    def p_star(self) -> float:
        n, k = self.b**self.d_star, self.ks[self.d_star]
        return ref.success(n, k, ref.optimal_m(n, k))

    def is_goal(self, memory: str) -> bool:
        return memory in self.goals

    def to_dict(self) -> dict:
        return {
            "alphabet": self.alphabet,
            "rules": [{"pre": pre, "post": post} for pre, post in self.rules],
            "initial": [self.start],
            "goals": self.goals,
            "max_memory_len": self.max_len,
        }


def tree_entry(rng: random.Random, b: int, d_star: int, k_star: int) -> CorpusEntry:
    """Word-growing tree with k_star goal words of length d_star; counts hold by construction."""
    letters = "abc"[:b]
    words: set[str] = set()
    while len(words) < k_star:
        words.add("".join(rng.choice(letters) for _ in range(d_star)))
    ks = [0] * d_star + [k_star * b**j for j in range(MAX_MARGIN + 1)]
    return CorpusEntry("tree", [("E", ch + "E") for ch in letters], "E",
                       sorted(w + "E" for w in words), d_star + 8, list(letters) + ["E"], ks)


def soup_entry(rng: random.Random, b: int, d_star: int, k_star: int) -> CorpusEntry | None:
    """Random rewriting system with a goal among the strings it first reaches at d_star.

    None when the drawn rules reach no such goal with k_star halting
    sequences, or fail the gate's count filter.
    """
    letters = "abc"

    def word(lo: int, hi: int) -> str:
        return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))

    rules = [(word(1, 2), word(0, 2)) for _ in range(b)]
    start = word(2, 3)
    max_len = 20
    depth_of = ref.min_depths(rules, start, max_len, d_star, limit=4000)
    candidates = sorted(s for s, d in depth_of.items() if d == d_star)
    if not candidates:
        return None
    goal = rng.choice(candidates)
    ks = ref.halting_counts(rules, start, lambda m: m == goal, max_len, d_star + MAX_MARGIN)
    if any(ks[d_star + j] != k_star * b**j for j in range(GATE_MARGIN + 1)):
        return None
    return CorpusEntry("soup", rules, start, [goal], max_len, list(letters), ks)


def with_cap(entry: CorpusEntry) -> CorpusEntry | None:
    """The entry with ks cut at its cap, or None if even MAX_MARGIN leaves it too likely
    to exhaust."""
    for margin in range(GATE_MARGIN, MAX_MARGIN + 1):
        ks = entry.ks[:entry.d_star + margin + 1]
        if ref.exhaust_probability(entry.b, ks) <= MAX_EXHAUST:
            entry.ks = ks
            return entry
    return None


def make_corpus(rng: random.Random) -> list[CorpusEntry]:
    """One system per GATE_SHAPES slot, redrawn until it passes the gate's filters."""
    entries = []
    for kind, b, d_star, k_star in GATE_SHAPES:
        n = b**d_star
        if ref.success(n, k_star, ref.optimal_m(n, k_star)) < GATE_MIN_SUCCESS:
            raise RuntimeError(f"slot {kind} b={b} d*={d_star} k*={k_star} fails the gate")
        make = tree_entry if kind == "tree" else soup_entry
        for _ in range(10_000):
            entry = make(rng, b, d_star, k_star)
            if entry is not None and with_cap(entry) is not None:
                entries.append(entry)
                break
        else:
            raise RuntimeError(f"no {kind} system with b={b} d*={d_star} k*={k_star} found")
    return entries


def report_summary(report) -> dict:
    """The fields of a SearchReport that the checks read, as in the JSON report."""
    return {
        "outcome": report.outcome,
        "d_star": report.d_star,
        "witness": list(report.witness) if report.witness is not None else None,
        "goal_state": report.goal_state,
        "measured_depth": report.measured_depth,
        "total_oracle_calls": report.total_oracle_calls,
        "per_depth": [{"depth": rec.depth, "k": rec.k} for rec in report.per_depth],
    }


class CorpusSweep:
    """One operation is one pass over 20 small systems, each searched with a fresh seed."""

    searches_per_op = CORPUS_SIZE

    def __init__(self, seed: int, workdir: Path):
        import qids.driver
        import qids.production
        self.driver = qids.driver
        rng = random.Random(seed)
        self.entries = make_corpus(rng)
        self.systems = []
        for j, entry in enumerate(self.entries):
            path = workdir / f"corpus-{j}.json"
            write_json(path, entry.to_dict())
            self.systems.append(qids.production.load_system(path))
        self.seed_base = rng.randrange(2**31)
        self.hits = [0] * len(self.entries)
        self.searched = [0] * len(self.entries)

    def make_input(self, i: int) -> int:
        return self.seed_base + i * len(self.entries)

    def run(self, base: int) -> list:
        search = self.driver.quantum_iterative_deepening
        config = self.driver.QidConfig
        return [search(system, entry.start, config(seed=base + j, depth_cap=entry.cap))
                for j, (system, entry) in enumerate(zip(self.systems, self.entries))]

    def check(self, base: int, out: list) -> tuple[bool, list[str], int]:
        failed, problems, n_rounds = False, [], 0
        for j, report in enumerate(out):
            f, p, r = self.check_report(j, report_summary(report))
            failed |= f
            problems += [f"system {j} seed {base + j}: {msg}" for msg in p]
            n_rounds += r
        return failed, problems, n_rounds

    def check_report(self, j: int, report: dict) -> tuple[bool, list[str], int]:
        entry = self.entries[j]
        if not_found(report):
            return True, [], 0
        self.searched[j] += 1
        problems = []
        at, memory = ref.replay(entry.rules, entry.start, report["witness"],
                                entry.is_goal, entry.max_len)
        if at != report["d_star"] or memory != report["goal_state"]:
            problems.append(f"witness {report['witness']} first reaches a goal at {at}, "
                            f"report says {report['d_star']}")
        if report["d_star"] is None or report["d_star"] < entry.d_star:
            problems.append(f"d_star {report['d_star']} below d* {entry.d_star}")
        if len(report["witness"]) != report["measured_depth"]:
            problems.append("witness length differs from the measured depth")
        d_final = report["per_depth"][-1]["depth"]
        bound = math.ceil(4 * math.sqrt(entry.b**d_final))
        if report["total_oracle_calls"] > bound:
            problems.append(f"{report['total_oracle_calls']} oracle calls over {bound}")
        if report["measured_depth"] == entry.d_star:
            self.hits[j] += 1
        return False, problems, rounds(report)

    def finish(self) -> list[str]:
        """Per system, the share of completed searches measured at d* against the closed form."""
        problems = []
        for j, entry in enumerate(self.entries):
            if not self.searched[j]:
                continue
            share = self.hits[j] / self.searched[j]
            if share < entry.p_star - 0.05:
                problems.append(f"system {j}: measured at d* in {share:.3f} of searches, "
                                f"closed form {entry.p_star:.3f}")
        return problems

    def classical_nodes(self, load_system, classical_ids) -> list[int]:
        return [classical_ids(system, entry.start, entry.cap).nodes_expanded
                for system, entry in zip(self.systems, self.entries)]


def make(name: str, seed: int, workdir: Path):
    return {"tree_search": TreeSearch, "tm_compiled": TmCompiled,
            "corpus_sweep": CorpusSweep}[name](seed, workdir)
