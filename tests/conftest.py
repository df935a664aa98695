import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from qids.driver import amplified_probabilities, iterate_count, vector_draw
from qids.limits import check_size
from qids.production import Alphabet, MarkedRuns, ProductionSystem, Rule, halting_predicate
from qids.statevector import bitmap


def tree_system(depth: int, goal_word: str = "aba") -> ProductionSystem:
    """Binary tree-search system with a single goal at the given depth.

    Two always-applicable rules grow a word one letter at a time by rewriting
    the end marker, so every depth-d string is distinct and the unique goal
    word of length `depth` is reachable by exactly one sequence.
    """
    assert len(goal_word) == depth and not set(goal_word) - {"a", "b"}
    return ProductionSystem(
        alphabet=Alphabet(("a", "b", "E")),
        rules=(Rule("E", "aE"), Rule("E", "bE")),
        initial_states=("E",),
        goal_states=(goal_word + "E",),
        max_memory_len=max(depth + 8, 16),
    )


def parity_system(depth: int) -> ProductionSystem:
    """Binary tree whose exact goals are every length-`depth` word with an even
    number of b's: its marked depth-`depth` leaves follow the Thue-Morse
    sequence, the worst case for the number of runs (about N/3)."""
    words = ("".join(w) for w in itertools.product("ab", repeat=depth))
    return ProductionSystem(
        alphabet=Alphabet(("a", "b", "E")),
        rules=(Rule("E", "aE"), Rule("E", "bE")),
        initial_states=("E",),
        goal_states=tuple(w + "E" for w in words if w.count("b") % 2 == 0),
        max_memory_len=depth + 8,
    )


def runs_of(marks) -> MarkedRuns:
    """The runs of a bool bitmap, added one marked sequence at a time."""
    return MarkedRuns(len(marks), ((int(i), 1) for i in np.flatnonzero(marks)))


def marks_of(runs: MarkedRuns) -> list[bool]:
    """The bitmap built from `runs`, as a list, once their layout is checked:
    sorted, no two touching, within the n sequences, spans summing to k."""
    starts, spans, below = zip(*runs) if len(runs) else ((), (), ())
    assert list(below) == list(itertools.accumulate(spans, initial=0))[:-1]
    assert all(span > 0 for span in spans)
    assert all(s + span < nxt for s, span, nxt in zip(starts, spans, starts[1:]))
    assert not starts or (starts[0] >= 0 and starts[-1] + spans[-1] <= runs.n)
    assert sum(spans) == runs.k
    assert list(runs) == [runs.run(r) for r in range(len(runs))]
    return bitmap(runs).tolist()


def assert_read_only(runs: MarkedRuns) -> None:
    """Neither n nor k can be set, nothing can be added, and the runs'
    storage refuses writes."""
    with pytest.raises(AttributeError):
        runs.n = runs.n + 1
    with pytest.raises(AttributeError):
        runs.k = runs.k + 1
    assert not hasattr(runs, "add")
    assert runs._starts.readonly and runs._before.readonly
    with pytest.raises(TypeError):
        runs._before[-1] = runs.k + 1


@pytest.fixture
def fig_tree():
    """Binary word-builder with its unique goal at depth 3."""
    return tree_system(3)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def make_system(rules, start="A", goals=("B",), alphabet="ABCxy", max_len=16,
                starts=None, **kwargs):
    """Terse constructor for tiny hand-rolled systems."""
    return ProductionSystem(
        alphabet=Alphabet(tuple(alphabet)),
        rules=tuple(Rule(pre, post) for pre, post in rules),
        initial_states=tuple(starts) if starts is not None else (start,),
        goal_states=tuple(goals),
        max_memory_len=max_len,
        **kwargs,
    )


def random_system(rng, b=2, n_letters=3, max_len=20, goal_match="exact"):
    """Unstructured random rewriting system for property tests; a small
    `max_len` makes rewrites overflow."""
    letters = tuple("abc"[:n_letters])

    def word(lo, hi):
        return "".join(rng.choice(letters, size=int(rng.integers(lo, hi + 1))))

    rules = tuple(Rule(word(1, 2), word(0, 2)) for _ in range(b))
    start = word(2, 3)
    goal = word(1, 3)
    return ProductionSystem(
        alphabet=Alphabet(letters),
        rules=rules,
        initial_states=(start,),
        goal_states=(goal,),
        max_memory_len=max_len,
        goal_match=goal_match,
    ), start


@st.composite
def systems(draw, max_lens):
    """(system, start) over the inputs of `random_system`, drawn by hypothesis so
    that it explores and shrinks the rules, start and goal themselves: two or
    three rules over two or three letters, preconditions of one or two letters,
    actions of up to two, a start of two or three, one goal of one to three,
    either goal match, and a memory bound from `max_lens`."""
    b = draw(st.integers(2, 3))
    letters = "abc"[:draw(st.integers(2, 3))]

    def word(lo, hi):
        return draw(st.text(alphabet=letters, min_size=lo, max_size=hi))

    rules = tuple(Rule(word(1, 2), word(0, 2)) for _ in range(b))
    start = word(2, 3)
    return ProductionSystem(
        alphabet=Alphabet(tuple(letters)),
        rules=rules,
        initial_states=(start,),
        goal_states=(word(1, 3),),
        max_memory_len=draw(st.sampled_from(max_lens)),
        goal_match=draw(st.sampled_from(("exact", "substring"))),
    ), start


def enumerate_paths(b, d):
    """Brute-force reference: all b**d rule-index sequences of length d, in
    lexicographic order, which is the order of `marked_vector`'s entries."""
    check_size(b**d, f"path space b={b} d={d}")
    return list(itertools.product(range(b), repeat=d))


def reference_search(system, start, config):
    """The search built from reference parts only: per depth, the bitmap of
    `halting_predicate` over `enumerate_paths`, `iterate_count` under the
    config, and `vector_draw` over the closed-form vector. Returns (found,
    witness, total oracle calls, per-depth (k, m, skipped, measured index,
    measured halting)), in the driver's report terms."""
    b = system.branching_factor
    total, rows = 0, []
    for depth in range(config.depth_cap + 1):
        paths = enumerate_paths(b, depth)
        marks = np.array([halting_predicate(system, start, seq) for seq in paths], dtype=bool)
        k = int(marks.sum())
        if k == 0 and config.skip_empty_depths:
            rows.append((0, 0, True, None, None))
            continue
        k_policy = k if config.counting_mode == "exact" else 1
        m = iterate_count(len(paths), max(k_policy, 1), config.iterate_policy)
        index = vector_draw(amplified_probabilities(marks, m), config.seed, depth)
        total += m
        rows.append((k, m, False, index, bool(marks[index])))
        if marks[index]:
            return True, paths[index], total, rows
    return False, None, total, rows


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter, started with `flags`, that imports qids from
    this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def sequence_to_index(seq, b):
    """Base-b value of a sequence, first rule as the most significant digit."""
    value = 0
    for idx in seq:
        value = value * b + idx
    return value
