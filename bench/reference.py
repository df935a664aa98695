"""Reference computations written apart from qids.

The benchmark checks every output of the program against these: its own
leftmost-substring rewriter, its own halting counts, its own closed forms
for the iterate schedule, and its own unary-increment machine. Nothing here
imports qids.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

Rule = tuple[str, str]


def rewrite(memory: str, rule: Rule, max_len: int) -> str | None:
    """Rewrite the leftmost occurrence of rule[0]; None if absent or too long."""
    pre, post = rule
    at = memory.find(pre)
    if at < 0:
        return None
    out = memory[:at] + post + memory[at + len(pre):]
    return out if len(out) <= max_len else None


def replay(rules: Sequence[Rule], start: str, witness: Sequence[int],
           is_goal: Callable[[str], bool], max_len: int) -> tuple[int | None, str | None]:
    """(index of the first goal along the witness, memory there), or (None, None)."""
    memory = start
    if is_goal(memory):
        return 0, memory
    for step, idx in enumerate(witness, start=1):
        if not 0 <= idx < len(rules):
            return None, None
        memory = rewrite(memory, rules[idx], max_len)
        if memory is None:
            return None, None
        if is_goal(memory):
            return step, memory
    return None, None


def halting_counts(rules: Sequence[Rule], start: str, is_goal: Callable[[str], bool],
                   max_len: int, d_max: int) -> list[int]:
    """k[d] for d = 0..d_max: length-d rule sequences that reach a goal on some prefix."""
    b = len(rules)

    @lru_cache(maxsize=None)
    def count(memory: str, rem: int) -> int:
        if is_goal(memory):
            return b**rem
        if rem == 0:
            return 0
        total = 0
        for rule in rules:
            nxt = rewrite(memory, rule, max_len)
            if nxt is not None:
                total += count(nxt, rem - 1)
        return total

    return [count(start, d) for d in range(d_max + 1)]


def min_depths(rules: Sequence[Rule], start: str, max_len: int, d_max: int,
               limit: int) -> dict[str, int]:
    """Breadth-first minimal depth of every string reachable within d_max steps.

    Stops after the level on which more than `limit` strings are known.
    """
    depth_of = {start: 0}
    frontier = [start]
    for depth in range(1, d_max + 1):
        nxt = []
        for memory in frontier:
            for rule in rules:
                new = rewrite(memory, rule, max_len)
                if new is not None and new not in depth_of:
                    depth_of[new] = depth
                    nxt.append(new)
        frontier = nxt
        if not frontier or len(depth_of) > limit:
            break
    return depth_of


def optimal_m(n: int, k: int) -> int:
    """Iterate count floor(pi/4 * sqrt(N/k)) for k >= 1 marks among N."""
    return math.floor(math.pi / 4 * math.sqrt(n / k))


def success(n: int, k: int, m: int) -> float:
    """Marked mass after m iterates from uniform: sin^2((2m+1) asin(sqrt(k/N)))."""
    return math.sin((2 * m + 1) * math.asin(math.sqrt(k / n))) ** 2


def schedule_calls(b: int, ks: Sequence[int], d_found: int) -> int:
    """Oracle calls of the optimal exact-count schedule through depth d_found."""
    return sum(optimal_m(b**d, k) for d, k in enumerate(ks[:d_found + 1]) if k > 0)


def exhaust_probability(b: int, ks: Sequence[int]) -> float:
    """Chance that every depth 0..len(ks)-1 carrying a mark measures a miss."""
    p = 1.0
    for d, k in enumerate(ks):
        if k > 0:
            p *= 1.0 - success(b**d, k, optimal_m(b**d, k))
    return p


# The unary-increment machine: run right over the ones, write one more at
# the first blank, halt. Rows are (state, read) -> (next, write, move).
UNARY_INCREMENT = {
    ("q", "1"): ("q", "1", "R"),
    ("q", "_"): ("h", "1", "S"),
}
UNARY_STATES = ("q", "h")


def run_machine(table: dict, start: str, halts: set, blank: str, tape: str,
                max_steps: int) -> tuple[str, str, int]:
    """Direct run from head 0 to a halt state: (state, tape, steps)."""
    state, head, cells = start, 0, list(tape or blank)
    for steps in range(max_steps + 1):
        if state in halts:
            return state, "".join(cells), steps
        state, write, move = table[(state, cells[head])]
        cells[head] = write
        if move == "R":
            head += 1
            if head == len(cells):
                cells.append(blank)
        elif move == "L":
            if head == 0:
                cells.insert(0, blank)
            else:
                head -= 1
    raise ValueError(f"machine still running after {max_steps} steps")


def decode_memory(memory: str, states: Sequence[str]) -> tuple[str, str]:
    """(state, tape) of a '^' tape-left state tape-right '$' memory string."""
    if not (memory.startswith("^") and memory.endswith("$")):
        raise ValueError(f"{memory!r} lacks its end markers")
    body = memory[1:-1]
    hits = [i for i, ch in enumerate(body) if ch in states]
    if len(hits) != 1:
        raise ValueError(f"{memory!r} holds {len(hits)} state tokens")
    return body[hits[0]], body[:hits[0]] + body[hits[0] + 1:]
