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
`max_memory_len` (int, default 64). The optional field `goal_match`
("exact" | "substring", default "exact") says whether a goal must equal the
whole memory or occur in it. Unknown fields are rejected.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
class ExecutionResult:
    """Outcome of running one rule sequence from a start string.

    `trace` lists the memories visited (trace[0] is the start); it truncates
    where a rule fails to apply or would overflow memory. `halt_depth` is the
    length of the shortest prefix that reached a goal, or None.
    """

    trace: list[str]
    halted: bool
    halt_depth: int | None
    applied: int
    stop_reason: str  # "completed" | "inapplicable" | "overflow"


@dataclass
class ClassicalSearchResult:
    """Result of classical iterative deepening."""

    found: bool
    d_star: int | None
    witness: RuleSequence | None
    nodes_expanded: int


def _goal_test(system: ProductionSystem) -> Callable[[str], bool]:
    """The system's goal predicate on a memory string, built once per walk."""
    if system.goal_match == "exact":
        return frozenset(system.goal_states).__contains__
    goals = system.goal_states
    return lambda memory: any(g in memory for g in goals)


def apply_rule(system: ProductionSystem, memory: str, rule: Rule) -> str | None:
    """Rewrite the leftmost occurrence of the rule's precondition, or return None.

    None means the precondition does not occur in the memory. The checked
    entry point: the rule and the memory must be over the alphabet,
    and a result longer than `max_memory_len` raises MemoryOverflow.
    """
    system.alphabet.check_string(rule.precondition, "rule precondition")
    system.alphabet.check_string(rule.action, "rule action")
    system.alphabet.check_string(memory, "working memory")
    if rule.precondition not in memory:
        return None
    result = memory.replace(rule.precondition, rule.action, 1)
    if len(result) > system.max_memory_len:
        raise MemoryOverflow(
            f"rewrite to {len(result)} symbols exceeds capacity {system.max_memory_len}"
        )
    return result


def _walk(system: ProductionSystem, start: str, seq: Sequence[int]) -> ExecutionResult:
    """Apply a sequence of rule indices, tracking the shallowest goal hit."""
    system.alphabet.check_string(start, "start state")
    b = system.branching_factor
    is_goal = _goal_test(system)
    memory = start
    trace = [memory]
    halt_depth = 0 if is_goal(memory) else None
    stop_reason = "completed"
    applied = 0
    for step, idx in enumerate(seq):
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
        applied = step + 1
        if halt_depth is None and is_goal(memory):
            halt_depth = applied
    return ExecutionResult(trace, halt_depth is not None, halt_depth, applied, stop_reason)


def execute_sequence(system: ProductionSystem, start: str, seq: Sequence[int]) -> ExecutionResult:
    """Run a rule sequence from `start`.

    Raises MemoryOverflow if a rewrite overflows before any goal was reached;
    once a goal has been hit the sequence already counts as halting, so later
    overflow merely truncates the trace.
    """
    result = _walk(system, start, tuple(seq))
    if result.stop_reason == "overflow" and not result.halted:
        raise MemoryOverflow(
            f"sequence {tuple(seq)} overflows memory after {result.applied} steps"
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


def _byte_bounded_cache(walk):
    """Memoise `walk(system, start, d)` on bitmaps of at most `sim_cap()` bytes in all.

    Entries are keyed by the system's identity, not its value, so a hit is
    one dict lookup whose key hashes in constant time instead of hashing
    every rule of the system. Each entry holds its system, so that id cannot
    be reused while the entry lives. Before a bitmap is inserted, the oldest
    entries are dropped until it fits; one that alone exceeds the cap is
    returned without being kept.
    """
    entries: dict[tuple[int, str, int], tuple[ProductionSystem, np.ndarray, int]] = {}
    held = 0

    @functools.wraps(walk)
    def cached(system: ProductionSystem, start: str, d: int) -> np.ndarray:
        nonlocal held
        key = (id(system), start, d)
        try:
            return entries[key][1]
        except KeyError:
            pass
        marks = walk(system, start, d)
        size = sys.getsizeof(marks)
        cap = sim_cap()
        if size <= cap:
            while held + size > cap:
                held -= entries.pop(next(iter(entries)))[2]
            entries[key] = (system, marks, size)
            held += size
        return marks

    def cache_clear() -> None:
        nonlocal held
        entries.clear()
        held = 0

    cached.cache_clear = cache_clear
    return cached


@_byte_bounded_cache
def marked_vector(system: ProductionSystem, start: str, d: int) -> np.ndarray:
    """Halting bit for every depth-d sequence; entry i is `index_to_sequence(i, b, d)`.

    A depth-first walk with O(d) memory that shares rewriting work across
    common prefixes: once a prefix halts the whole subtree is marked without
    descending, and a dead prefix (inapplicable rule or overflow) zeroes its
    subtree. A rewrite of a string over the alphabet by a rule over the
    alphabet stays in it, so once the rules (at construction) and the start
    string (once per walk) are checked, no step needs an alphabet check; this
    holds for every walk in this module. The bitmap is read-only and cached
    (`marked_vector.cache_clear()` empties the cache).
    """
    b = system.branching_factor
    n = b**d
    check_size(n, f"path space b={b} d={d}")
    system.alphabet.check_string(start, "start state")
    marks = np.zeros(n, dtype=bool)
    pairs = [(rule.precondition, rule.action) for rule in system.rules]
    max_len = system.max_memory_len
    is_goal = _goal_test(system)
    spans = [b ** (d - depth) for depth in range(d + 1)]

    def fill(memory: str, depth: int, base: int) -> None:
        if is_goal(memory):
            marks[base:base + spans[depth]] = True
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
        del fill  # it reaches itself through its cell; without this, `marks` waits for the cyclic GC
    marks.flags.writeable = False
    return marks


def classical_ids(system: ProductionSystem, start: str, depth_cap: int) -> ClassicalSearchResult:
    """Classical iterative deepening over the rule tree.

    Returns the minimal depth d* at which a goal state occurs, one witness
    sequence of that length, and the total number of node expansions across
    all deepening rounds. found=False when no goal exists within depth_cap.
    The expansions are held to `sim_cap()`, the most leaves the marking
    walk's bitmap may have; past that the search raises SizeLimit.
    """
    if depth_cap < 0:
        raise InputError("depth_cap must be >= 0")
    check_walk_depth(depth_cap)
    system.alphabet.check_string(start, "start state")
    pairs = [(rule.precondition, rule.action) for rule in system.rules]
    max_len = system.max_memory_len
    is_goal = _goal_test(system)
    budget = sim_cap()
    expanded = 0

    def dls(memory: str, path: list[int], limit: int) -> RuleSequence | None:
        nonlocal expanded
        if is_goal(memory):
            return tuple(path)
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
            witness = dls(start, [], limit)
            if witness is not None:
                return ClassicalSearchResult(True, len(witness), witness, expanded)
        return ClassicalSearchResult(False, None, None, expanded)
    finally:
        del dls  # break the closure's cycle through its own cell, as in marked_vector



@dataclass
class DeterministicTrace:
    """Trace of first-applicable-rule evolution from one start string."""

    trace: list[str]
    goal_step: int | None
    stop_reason: str  # "goal" | "stuck" | "cap" | "overflow"


def deterministic_trace(system: ProductionSystem, start: str, max_steps: int) -> DeterministicTrace:
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
        return DeterministicTrace(trace, 0, "goal")
    for step in range(1, max_steps + 1):
        for pre, post in pairs:
            if pre in memory:
                nxt = memory.replace(pre, post, 1)
                break
        else:
            return DeterministicTrace(trace, None, "stuck")
        if len(nxt) > system.max_memory_len:
            return DeterministicTrace(trace, None, "overflow")
        memory = nxt
        trace.append(memory)
        if is_goal(memory):
            return DeterministicTrace(trace, step, "goal")
    return DeterministicTrace(trace, None, "cap")


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
        max_memory_len=read_field(data, "max_memory_len", int, "system", 64),
        goal_match=read_field(data, "goal_match", str, "system", "exact"),
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
