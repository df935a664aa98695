"""Production-system semantics: string rewriting under an ordered rule set.

A system is a tuple (alphabet, rules, initial states, goal states). Working
memory is a plain string over the alphabet; a rule (precondition, action)
rewrites the leftmost occurrence of its precondition. A rule sequence is a
list of rule indices; a sequence *halts* if any prefix of it (including the
empty prefix) drives the start string into a goal state. That prefix
convention makes the halting predicate total, deterministic, and monotone
under extension, which is what the amplified search in `driver` relies on.

System definition files are JSON objects with fields `alphabet` (list of
single-character strings), `rules` (ordered list of {"pre": str, "post":
str}), `initial` (list of strings), `goals` (list of strings) and
`max_memory_len` (int). The optional field `goal_match` ("exact" |
"substring") says whether a goal must equal the whole memory or occur in
it. Omitted optional fields take the `ProductionSystem` defaults. Unknown
fields are rejected.

The marking walk `marked_vector` evaluates the halting predicate over all
b**d sequences of one depth and returns the halting ones as `MarkedRuns`:
sorted, read-only runs of consecutive sequence indices, which answer k and,
with one binary search, the rank M(i) and "is sequence i marked". No b**d
bitmap is built; the dense reference in `statevector` builds one from the runs when it
needs it. This module imports no numpy.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

from .errors import AlphabetMismatch, InputError, MemoryOverflow, SizeLimit
from .jsonfields import (check_object, load_json_file, read_field, read_list_of,
                         save_json_file)
from .limits import check_size, sim_cap

GOAL_MATCH_MODES = ("exact", "substring")

RuleSequence = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character printable symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise InputError("alphabet must be non-empty")
        for sym in self.symbols:
            if not (isinstance(sym, str) and len(sym) == 1 and sym.isprintable()):
                raise InputError(f"alphabet symbol {sym!r} is not a printable character")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError("alphabet contains duplicate symbols")

    def check_string(self, s: str, what: str) -> None:
        for ch in s:
            if ch not in self.symbols:
                raise AlphabetMismatch(f"{what} {s!r} uses symbol {ch!r} outside the alphabet")


@dataclass(frozen=True)
class Rule:
    """Rewrite rule: replace an occurrence of `precondition` with `action`."""

    precondition: str
    action: str

    def __post_init__(self):
        if not self.precondition:
            raise InputError("rule precondition must be non-empty")


@dataclass(frozen=True)
class ProductionSystem:
    """A rewriting system with designated initial and goal strings.

    `rules` keep their construction order; rule sequences refer to rules by
    index into this tuple, never by content. `initial_states` and
    `goal_states` preserve file order (index into `initial_states` is the
    state-register labelling used by the statevector engine).
    """

    alphabet: Alphabet
    rules: tuple[Rule, ...]
    initial_states: tuple[str, ...]
    goal_states: tuple[str, ...]
    max_memory_len: int = 64
    goal_match: str = "exact"

    def __post_init__(self):
        if not self.rules:
            raise InputError("a production system needs at least one rule")
        if not self.initial_states or not self.goal_states:
            raise InputError("initial and goal state sets must be non-empty")
        if len(set(self.initial_states)) != len(self.initial_states):
            raise InputError("duplicate initial states")
        if len(set(self.goal_states)) != len(self.goal_states):
            raise InputError("duplicate goal states")
        if self.max_memory_len < 1:
            raise InputError("max_memory_len must be positive")
        if self.goal_match not in GOAL_MATCH_MODES:
            raise InputError(f"goal_match must be one of {GOAL_MATCH_MODES}")
        for rule in self.rules:
            self.alphabet.check_string(rule.precondition, "rule precondition")
            self.alphabet.check_string(rule.action, "rule action")
        for s in self.initial_states:
            self.alphabet.check_string(s, "initial state")
            if len(s) > self.max_memory_len:
                raise InputError(f"initial state {s!r} exceeds max_memory_len")
        for s in self.goal_states:
            self.alphabet.check_string(s, "goal state")

    @property
    def branching_factor(self) -> int:
        return len(self.rules)


@dataclass
class Replay:
    """Rewrites from a start string: `trace` lists the memories visited (trace[0]
    is the start), `goal_step` counts the rewrites that first reached a goal
    (None if none did) and `stop_reason` says why the run ended: "completed",
    "inapplicable" or "overflow" for `execute_sequence`; "goal", "stuck", "cap"
    or "overflow" for `deterministic_trace`."""

    trace: list[str]
    goal_step: int | None
    stop_reason: str

    @property
    def halted(self) -> bool:
        return self.goal_step is not None


@dataclass
class ClassicalSearchResult:
    """Result of classical iterative deepening; `driver.report_to_json` writes it.

    d_star is the minimal goal depth, witness one sequence of that length and
    goal_state the memory it reaches; all three are None when no goal lies
    within the depth cap. nodes_expanded counts expansions over all rounds.
    """

    SCHEMA: ClassVar[str] = "qids.classical-report/1"

    d_star: int | None
    witness: RuleSequence | None
    goal_state: str | None
    nodes_expanded: int

    @property
    def found(self) -> bool:
        return self.d_star is not None

    @property
    def outcome(self) -> str:
        return "found" if self.found else "cap_exceeded"


def check_start(system: ProductionSystem, start: str) -> None:
    """Raise InputError unless a search may start from `start`: an initial state."""
    if start not in system.initial_states:
        raise InputError(f"start {start!r} is not one of the system's initial states")


def _goal_test(system: ProductionSystem) -> Callable[[str], bool]:
    """The system's goal predicate on a memory string, built once per walk."""
    if system.goal_match == "exact":
        return frozenset(system.goal_states).__contains__
    goals = system.goal_states
    return lambda memory: any(g in memory for g in goals)


def _walk(system: ProductionSystem, start: str, seq: Sequence[int]) -> Replay:
    """Apply a sequence of rule indices, tracking the shallowest goal hit."""
    system.alphabet.check_string(start, "start state")
    b = system.branching_factor
    is_goal = _goal_test(system)
    memory = start
    trace = [memory]
    goal_step = 0 if is_goal(memory) else None
    stop_reason = "completed"
    for step, idx in enumerate(seq, 1):
        if not 0 <= idx < b:
            raise InputError(f"rule index {idx} out of range for {b} rules")
        rule = system.rules[idx]
        if rule.precondition not in memory:
            stop_reason = "inapplicable"
            break
        nxt = memory.replace(rule.precondition, rule.action, 1)
        if len(nxt) > system.max_memory_len:
            stop_reason = "overflow"
            break
        memory = nxt
        trace.append(memory)
        if goal_step is None and is_goal(memory):
            goal_step = step
    return Replay(trace, goal_step, stop_reason)


def execute_sequence(system: ProductionSystem, start: str, seq: Sequence[int]) -> Replay:
    """Run a rule sequence from `start`.

    Raises MemoryOverflow if a rewrite overflows before any goal was reached;
    once a goal has been hit the sequence already counts as halting, so later
    overflow merely truncates the trace.
    """
    result = _walk(system, start, tuple(seq))
    if result.stop_reason == "overflow" and not result.halted:
        raise MemoryOverflow(
            f"sequence {tuple(seq)} overflows memory after {len(result.trace) - 1} steps"
        )
    return result


def halting_predicate(system: ProductionSystem, start: str, seq: Sequence[int]) -> int:
    """Total 0/1 predicate: does any prefix of `seq` reach a goal from `start`?

    Overflow and inapplicable rules both read as "continue" from that point,
    which keeps the predicate total and monotone under sequence extension.
    """
    return int(_walk(system, start, tuple(seq)).halted)


def index_to_sequence(value: int, b: int, d: int) -> RuleSequence:
    """Length-d rule sequence whose base-b value is `value`, first rule most significant."""
    if not 0 <= value < b**d:
        raise InputError(f"path index {value} out of range for b={b} d={d}")
    digits = []
    for _ in range(d):
        value, digit = divmod(value, b)
        digits.append(digit)
    return tuple(reversed(digits))


MAX_WALK_DEPTH = 500  # well inside Python's default recursion limit of 1000 frames


def check_walk_depth(depth: int) -> None:
    """Refuse a depth past MAX_WALK_DEPTH before a walk that recurses once per level."""
    if depth > MAX_WALK_DEPTH:
        raise SizeLimit(f"depth {depth} is past the walk-depth bound of {MAX_WALK_DEPTH}")


class MarkedRuns:
    """The marked sequences of one depth as sorted runs of consecutive indices.

    Built from (start, span) pairs in index order, each at or past the end of
    the one before; pairs that touch merge, so no two runs touch and there
    are at most min(k, n - k + 1) runs, about 16 bytes each. Once built the
    runs are read-only: n and k have no setter and the storage is a pair of
    read-only views, so the one object that the marking cache hands to every
    caller cannot be changed by any of them. `locate` answers the rank M(i)
    and "is sequence i marked" with one binary search over the run starts;
    `run(r)` and iteration give each run as (start, span, marked sequences
    below it), the only form in which the layout leaves this class.
    `sys.getsizeof` counts the storage.
    """

    __slots__ = ("_n", "_starts", "_before", "__weakref__")

    def __init__(self, n: int, runs: Iterable[tuple[int, int]] = ()):
        def add_each(add: Callable[[int, int], None]) -> None:
            for start, span in runs:
                add(start, span)

        self._build(n, add_each)

    @classmethod
    def filled(cls, n: int, fill: Callable[[Callable[[int, int], None]], None]) -> MarkedRuns:
        """The runs that `fill(add)` marks, where `add(start, span)` marks `span`
        sequences from `start`, at or past the end of the last run added."""
        runs = cls.__new__(cls)
        runs._build(n, fill)
        return runs

    def _build(self, n: int, fill: Callable[[Callable[[int, int], None]], None]) -> None:
        # run r starts at starts[r] and has before[r] marked sequences below it;
        # before[r + 1] - before[r] is its span and before[-1] is k
        starts, before = array("q"), array("q", [0])

        def add(start: int, span: int) -> None:
            if starts and starts[-1] + before[-1] - before[-2] == start:
                before[-1] += span
            else:
                starts.append(start)
                before.append(before[-1] + span)

        fill(add)
        self._n = n
        self._starts = memoryview(starts).toreadonly()
        self._before = memoryview(before).toreadonly()

    @property
    def n(self) -> int:
        return self._n

    @property
    def k(self) -> int:
        return self._before[-1]

    def sum(self) -> int:
        """k, under the name a bitmap's count has; `bench/test_bench.py` still reads it."""
        return self.k

    def __len__(self) -> int:
        return len(self._starts)

    def run(self, r: int) -> tuple[int, int, int]:
        """Run r as (start, span, the number of marked sequences below it)."""
        below = self._before[r]
        return self._starts[r], self._before[r + 1] - below, below

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        before = self._before
        for start, below, above in zip(self._starts, before, before[1:]):
            yield start, above - below, below

    def locate(self, i: int) -> tuple[int, bool]:
        """(M(i), whether sequence i is marked); M(i) counts the marked sequences below i."""
        starts, before = self._starts, self._before
        r = bisect_right(starts, i) - 1
        if r < 0:
            return 0, False
        below = before[r] + i - starts[r]
        if below < before[r + 1]:
            return below, True
        return before[r + 1], False

    def __sizeof__(self) -> int:
        views = (self._starts, self._before)
        return (object.__sizeof__(self) + sum(sys.getsizeof(view) for view in views)
                + sum(sys.getsizeof(view.obj) for view in views))


class _Frontier:
    """A chain's live, non-halting nodes of one depth: their indices and memories
    in index order, with the tables that extend them by a level, built once
    per chain. `nbytes` counts `sys.getsizeof(memory) + 16` a node, the memory
    plus its slots in the index array and the memory list."""

    __slots__ = ("indices", "memories", "nbytes", "pairs", "is_goal", "max_len")

    def __init__(self, system: ProductionSystem, start: str, runs: MarkedRuns):
        """Depth 0's frontier, whose `runs` mark the start if it is a goal."""
        self.pairs = [(rule.precondition, rule.action) for rule in system.rules]
        self.is_goal = _goal_test(system)
        self.max_len = system.max_memory_len
        live = runs.k == 0
        self.indices = array("q", [0] * live)
        self.memories = [start] * live
        self.nbytes = live * (sys.getsizeof(start) + 16)

    def extend(self, runs: MarkedRuns, b: int, n: int, cap: int) -> MarkedRuns:
        """The n = b**d sequences' runs from depth d - 1's `runs`, moving the
        frontier down to depth d; past `cap` bytes it is dropped (memories None).

        A marked sequence's children are all marked and a live node's halting
        children are runs of span 1, so the runs of depth d are those of
        d - 1 scaled by b, merged in index order with one run per halting
        child. The live children are the new frontier.
        """
        pairs, is_goal, max_len = self.pairs, self.is_goal, self.max_len
        parents, memories = self.indices, self.memories
        indices: array | None = array("q")
        children: list[str] | None = []
        nbytes = 0

        def fill(add: Callable[[int, int], None]) -> None:
            nonlocal indices, children, nbytes
            old = iter(runs)
            run = next(old, None)
            for parent, memory in zip(parents, memories):
                while run is not None and run[0] < parent:
                    add(run[0] * b, run[1] * b)
                    run = next(old, None)
                base = parent * b
                for pre, post in pairs:
                    if pre in memory:
                        child = memory.replace(pre, post, 1)
                        if len(child) <= max_len:
                            if is_goal(child):
                                add(base, 1)
                            elif children is not None:
                                indices.append(base)
                                children.append(child)
                                nbytes += sys.getsizeof(child) + 16
                                if nbytes > cap:
                                    indices = children = None
                    base += 1
            while run is not None:
                add(run[0] * b, run[1] * b)
                run = next(old, None)

        extended = MarkedRuns.filled(n, fill)
        self.indices, self.memories, self.nbytes = indices, children, nbytes
        return extended


def _byte_bounded_cache(walk):
    """Memoise `walk(system, start, d)` on entries of at most `sim_cap()` bytes in all.

    Entries are keyed by the system's identity, not its value, so a hit is
    one dict lookup whose key hashes in constant time instead of hashing
    every rule of the system. An entry holds its system only weakly, so a
    system the caller drops is freed; a hit needs the entry's reference to
    return the very system asked about, and an entry whose system died is
    dropped when its id comes back on another. An entry's size is
    `sys.getsizeof` of its `MarkedRuns`, arrays included, plus that of the
    start string its key holds and the bytes of its frontier, if any: about
    16 bytes a run, so interleaved marks (up to n/2 runs) can weigh 8 bytes
    a sequence. An entry's tuples, weak reference and dict slot, about 500
    bytes, are not counted. Before an entry is inserted, the oldest entries
    are dropped until it fits; one that alone exceeds the cap is returned
    without being kept.

    Depths marked in order share one pass. A chain starts at depth 0 when a
    goal is in reach there: its entry keeps the frontier `[start]`, or none
    if the start is a goal. A miss at depth d whose depth d - 1 entry holds
    the same live system and a frontier extends that frontier by one level
    instead of walking from the root, and the frontier moves to the new
    entry, so a chain holds one; an entry whose system died is never
    extended. A root walk at d > 0 keeps no frontier. A frontier that
    passes the cap is dropped as it grows; the chain ends there and later
    depths walk from the root. Every miss checks the path space against
    the cap.
    """
    entries: dict[tuple[int, str, int],
                  tuple[weakref.ref, MarkedRuns, int, _Frontier | None]] = {}
    held = 0

    @functools.wraps(walk)
    def cached(system: ProductionSystem, start: str, d: int) -> MarkedRuns:
        nonlocal held
        key = (id(system), start, d)
        entry = entries.get(key)
        if entry is not None:
            if entry[0]() is system:
                return entry[1]
            held -= entries.pop(key)[2]
        cap = sim_cap()
        parent_key = (id(system), start, d - 1)
        parent = entries.get(parent_key) if d else None
        frontier = parent[3] if parent is not None and parent[0]() is system else None
        if frontier is not None:
            b = system.branching_factor
            n = b**d
            check_size(n, f"path space b={b} d={d}")
            moved = frontier.nbytes
            runs = frontier.extend(parent[1], b, n, cap)
            entries[parent_key] = (parent[0], parent[1], parent[2] - moved, None)
            held -= moved
            if frontier.memories is None:
                frontier = None
        else:
            runs = walk(system, start, d)
            if d == 0 and _goal_in_reach(system, len(start), 0):
                frontier = _Frontier(system, start, runs)
        size = sys.getsizeof(runs) + sys.getsizeof(start)
        if frontier is not None:
            size += frontier.nbytes
        if size <= cap:
            while held + size > cap:
                held -= entries.pop(next(iter(entries)))[2]
            entries[key] = (weakref.ref(system), runs, size, frontier)
            held += size
        return runs

    def cache_clear() -> None:
        nonlocal held
        entries.clear()
        held = 0

    cached.cache_clear = cache_clear
    return cached


def _goal_in_reach(system: ProductionSystem, n0: int, d: int) -> bool:
    """Whether some goal's length lies in the reach of `d` rewrites of a length-`n0` start."""
    steps = [len(rule.action) - len(rule.precondition) for rule in system.rules]
    low = min(n0, n0 + d * min(steps)) if system.goal_match == "exact" else 0
    high = max(n0, min(n0 + d * max(steps), system.max_memory_len))
    for goal in system.goal_states:
        if low <= len(goal) <= high:
            return True
    return False


@_byte_bounded_cache
def marked_vector(system: ProductionSystem, start: str, d: int) -> MarkedRuns:
    """The halting depth-d sequences as runs; sequence i is `index_to_sequence(i, b, d)`.

    A depth-first walk with an O(d) stack that shares rewriting work across
    common prefixes: once a prefix halts its whole subtree is one run of
    marked sequences, added without descending, and a dead prefix
    (inapplicable rule or overflow) adds nothing. The walk visits subtrees
    in index order, so the runs come sorted and merge as they are added;
    no `b**d` bitmap is built. A rewrite of a string over the alphabet by a
    rule over the alphabet stays in it, so once the rules (at construction)
    and the start string (once per walk) are checked, no step needs an
    alphabet check; this holds for every walk in this module. The runs are
    read-only, so the cache hands the same object to every caller
    (`marked_vector.cache_clear()` empties the cache).

    The walk is skipped, leaving no runs, when no goal's length is in reach.
    Each rewrite changes the length by a rule step
    `len(action) - len(precondition)`, so the memories within `d` rewrites of
    a length-`n0` start have lengths from `min(n0, n0 + d * min_step)` to
    `max(n0, min(n0 + d * max_step, max_memory_len))`: both ends are linear in
    the number of rewrites, so they bound every shorter prefix too, and no
    rewritten memory outgrows `max_memory_len`. An `exact` goal must have a
    length in that range; a `substring` goal must be no longer than its top.
    """
    b = system.branching_factor
    n = b**d
    check_size(n, f"path space b={b} d={d}")
    system.alphabet.check_string(start, "start state")
    pairs = [(rule.precondition, rule.action) for rule in system.rules]
    max_len = system.max_memory_len
    is_goal = _goal_test(system)
    spans = [b ** (d - depth) for depth in range(d + 1)]

    def walk(mark: Callable[[int, int], None]) -> None:
        def fill(memory: str, depth: int, base: int) -> None:
            if is_goal(memory):
                mark(base, spans[depth])
                return
            if depth == d:
                return
            depth += 1
            child_span = spans[depth]
            for pre, post in pairs:
                if pre in memory:
                    nxt = memory.replace(pre, post, 1)
                    if len(nxt) <= max_len:
                        fill(nxt, depth, base)
                base += child_span

        try:
            fill(start, 0, 0)
        finally:
            del fill  # it reaches itself through its cell; without this it waits for the cyclic GC

    if not _goal_in_reach(system, len(start), d):
        return MarkedRuns(n)
    return MarkedRuns.filled(n, walk)


def classical_ids(system: ProductionSystem, start: str, depth_cap: int) -> ClassicalSearchResult:
    """Classical iterative deepening over the rule tree from one of the initial states.

    The expansions are held to `sim_cap()`, the most leaves the marking
    walk may have; past that the search raises SizeLimit. It expands
    every node without `marked_vector`'s goal-length bound, since
    `nodes_expanded` is the classical counterpart's cost that the paper
    compares against.
    """
    if depth_cap < 0:
        raise InputError("depth_cap must be >= 0")
    check_walk_depth(depth_cap)
    check_start(system, start)
    pairs = [(rule.precondition, rule.action) for rule in system.rules]
    max_len = system.max_memory_len
    is_goal = _goal_test(system)
    budget = sim_cap()
    expanded = 0

    def dls(memory: str, path: list[int], limit: int) -> tuple[RuleSequence, str] | None:
        nonlocal expanded
        if is_goal(memory):
            return tuple(path), memory
        if len(path) == limit:
            return None
        expanded += 1
        if expanded > budget:
            raise SizeLimit(f"classical search would expand more than the cap of {budget} nodes")
        for i, (pre, post) in enumerate(pairs):
            if pre not in memory:
                continue
            nxt = memory.replace(pre, post, 1)
            if len(nxt) > max_len:
                continue
            path.append(i)
            hit = dls(nxt, path, limit)
            path.pop()
            if hit is not None:
                return hit
        return None

    try:
        for limit in range(depth_cap + 1):
            hit = dls(start, [], limit)
            if hit is not None:
                witness, goal_state = hit
                return ClassicalSearchResult(len(witness), witness, goal_state, expanded)
        return ClassicalSearchResult(None, None, None, expanded)
    finally:
        del dls  # break the closure's cycle through its own cell, as in marked_vector


def deterministic_trace(system: ProductionSystem, start: str, max_steps: int) -> Replay:
    """Evolve by always firing the lowest-indexed applicable rule.

    This is the deterministic control used both to replay compiled machine
    systems and to assign a per-input halting time in the halt-qubit demo.
    Evolution stops at the first goal state, when no rule applies, on
    overflow, or after max_steps.
    """
    system.alphabet.check_string(start, "start state")
    pairs = [(rule.precondition, rule.action) for rule in system.rules]
    is_goal = _goal_test(system)
    memory = start
    trace = [memory]
    if is_goal(memory):
        return Replay(trace, 0, "goal")
    for step in range(1, max_steps + 1):
        for pre, post in pairs:
            if pre in memory:
                nxt = memory.replace(pre, post, 1)
                break
        else:
            return Replay(trace, None, "stuck")
        if len(nxt) > system.max_memory_len:
            return Replay(trace, None, "overflow")
        memory = nxt
        trace.append(memory)
        if is_goal(memory):
            return Replay(trace, step, "goal")
    return Replay(trace, None, "cap")


_SYSTEM_FIELDS = {"alphabet", "rules", "initial", "goals", "max_memory_len", "goal_match"}
_RULE_FIELDS = {"pre", "post"}


def system_from_dict(data: dict) -> ProductionSystem:
    """Build a ProductionSystem from parsed JSON, rejecting unknown or mistyped fields."""
    check_object(data, _SYSTEM_FIELDS, "system definition")
    rules = []
    for i, entry in enumerate(read_field(data, "rules", list, "system")):
        check_object(entry, _RULE_FIELDS, f"rules[{i}]")
        rules.append(Rule(read_field(entry, "pre", str, f"rules[{i}]"),
                          read_field(entry, "post", str, f"rules[{i}]")))
    return ProductionSystem(
        alphabet=Alphabet(read_list_of(data, "alphabet", str, "system")),
        rules=tuple(rules),
        initial_states=read_list_of(data, "initial", str, "system"),
        goal_states=read_list_of(data, "goals", str, "system"),
        max_memory_len=read_field(data, "max_memory_len", int, "system",
                                  ProductionSystem.max_memory_len),
        goal_match=read_field(data, "goal_match", str, "system", ProductionSystem.goal_match),
    )


def system_to_dict(system: ProductionSystem) -> dict:
    return {
        "alphabet": list(system.alphabet.symbols),
        "rules": [{"pre": r.precondition, "post": r.action} for r in system.rules],
        "initial": list(system.initial_states),
        "goals": list(system.goal_states),
        "max_memory_len": system.max_memory_len,
        "goal_match": system.goal_match,
    }


def load_system(path) -> ProductionSystem:
    """Load a system definition file; parse errors carry line/column info."""
    return load_json_file(path, system_from_dict)


def save_system(system: ProductionSystem, path) -> None:
    save_json_file(system_to_dict(system), path)
