import itertools

import numpy as np
import pytest

from qids.limits import check_size
from qids.production import Alphabet, ProductionSystem, Rule, tree_system


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


def random_system(rng, b=2, n_letters=3, max_len=20):
    """Unstructured random rewriting system for property tests."""
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
    ), start


def enumerate_paths(b, d):
    """Brute-force reference: all b**d rule-index sequences of length d, in
    lexicographic order, which is the order of `marked_vector`'s entries."""
    check_size(b**d, f"path space b={b} d={d}")
    return list(itertools.product(range(b), repeat=d))


def sequence_to_index(seq, b):
    """Base-b value of a sequence, first rule as the most significant digit."""
    value = 0
    for idx in seq:
        value = value * b + idx
    return value
