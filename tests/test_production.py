"""Rewriting semantics, path enumeration, and the classical search baselines."""

import gc
import itertools
import json
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_read_only, enumerate_paths, make_system, marks_of, parity_system,
                      random_system, run_python, runs_of, sequence_to_index, systems,
                      tree_system)
from qids import production, statevector
from qids.driver import QidConfig, quantum_iterative_deepening
from qids.errors import AlphabetMismatch, InputError, MemoryOverflow, SizeLimit
from qids.production import (MAX_WALK_DEPTH, Alphabet, ProductionSystem, Rule,
                             classical_ids, deterministic_trace, execute_sequence,
                             halting_predicate, index_to_sequence, load_system,
                             marked_vector, save_system, system_from_dict,
                             system_to_dict)


# --- independent oracles -----------------------------------------------------

def rewrite_once(memory, pre, post, max_len):
    """Test-local leftmost rewrite, kept independent of the library's."""
    for i in range(len(memory) - len(pre) + 1):
        if memory[i:i + len(pre)] == pre:
            out = memory[:i] + post + memory[i + len(pre):]
            return out if len(out) <= max_len else "OVERFLOW"
    return None


def brute_halts(system, start, seq):
    """Recompute prefix-halting with test-local rewriting."""
    memory = start
    if memory in system.goal_states and system.goal_match == "exact":
        return 1
    if system.goal_match == "substring" and any(g in memory for g in system.goal_states):
        return 1
    for idx in seq:
        rule = system.rules[idx]
        memory = rewrite_once(memory, rule.precondition, rule.action, system.max_memory_len)
        if memory is None or memory == "OVERFLOW":
            return 0
        if system.goal_match == "exact":
            if memory in system.goal_states:
                return 1
        elif any(g in memory for g in system.goal_states):
            return 1
    return 0


def bfs_min_goal_depth(system, start, cap):
    """Graph BFS over reachable strings; depth of the shallowest goal."""
    def is_goal(memory):
        if system.goal_match == "exact":
            return memory in system.goal_states
        return any(g in memory for g in system.goal_states)

    if is_goal(start):
        return 0
    seen = {start}
    frontier = [start]
    for depth in range(1, cap + 1):
        nxt = []
        for memory in frontier:
            for rule in system.rules:
                new = rewrite_once(memory, rule.precondition, rule.action,
                                   system.max_memory_len)
                if new in (None, "OVERFLOW") or new in seen:
                    continue
                if is_goal(new):
                    return depth
                seen.add(new)
                nxt.append(new)
        frontier = nxt
    return None


# --- construction ------------------------------------------------------------

def test_alphabet_rejects_duplicates_and_multichar():
    with pytest.raises(InputError):
        Alphabet(("a", "a"))
    with pytest.raises(InputError):
        Alphabet(("ab",))
    with pytest.raises(InputError):
        Alphabet(())


def test_system_validation():
    with pytest.raises(InputError):
        make_system([])  # no rules
    with pytest.raises(InputError):
        Rule("", "x")
    with pytest.raises(AlphabetMismatch):
        make_system([("A", "Z")])  # action off-alphabet
    with pytest.raises(InputError):
        make_system([("A", "B")], goal_match="fuzzy")


# --- execute_sequence / halting_predicate ------------------------------------

def test_execute_substring_rewrite():
    system = make_system([("AB", "C")])
    assert execute_sequence(system, "xABy", (0,)).trace == ["xABy", "xCy"]


def test_execute_leftmost_tiebreak():
    system = make_system([("A", "B")])
    assert execute_sequence(system, "AA", (0,)).trace == ["AA", "BA"]


def test_execute_is_deterministic():
    system = make_system([("A", "B")])
    results = {tuple(execute_sequence(system, "xAy", (0,)).trace) for _ in range(25)}
    assert results == {("xAy", "xBy")}

def test_execute_known_tree_path(fig_tree):
    result = execute_sequence(fig_tree, "E", (0, 1, 0))
    assert result.trace == ["E", "aE", "abE", "abaE"]
    assert result.halted and result.goal_step == 3


def test_goal_at_root_halts_with_empty_sequence():
    system = make_system([("A", "B")], start="A", goals=("A",))
    result = execute_sequence(system, "A", ())
    assert result.halted and result.goal_step == 0
    assert result.trace == ["A"]


def test_inapplicable_rule_truncates_and_continues():
    system = make_system([("A", "B"), ("C", "A")])
    result = execute_sequence(system, "A", (1, 0))
    assert result.trace == ["A"]
    assert not result.halted
    assert result.stop_reason == "inapplicable"


def test_inapplicable_after_goal_still_halts():
    system = make_system([("A", "B"), ("C", "A")], goals=("B",))
    result = execute_sequence(system, "A", (0, 1))
    assert result.halted and result.goal_step == 1
    assert result.trace == ["A", "B"]


def test_overflow_propagates_unless_goal_reached():
    system = make_system([("A", "AA")], max_len=3, goals=("AA",))
    # goal reached at step 1, overflow at step 3 is tolerated
    result = execute_sequence(system, "A", (0, 0, 0))
    assert result.halted and result.goal_step == 1
    assert result.trace == ["A", "AA", "AAA"]
    hopeless = make_system([("A", "AA")], max_len=3, goals=("B",))
    with pytest.raises(MemoryOverflow):
        execute_sequence(hopeless, "A", (0, 0, 0))
    assert halting_predicate(hopeless, "A", (0, 0, 0)) == 0


def test_halting_predicate_prefix_examples():
    one_deep = tree_system(1, "a")
    assert halting_predicate(one_deep, "E", (0, 1)) == 1
    assert halting_predicate(one_deep, "E", (1, 1)) == 0


def test_rule_index_out_of_range(fig_tree):
    with pytest.raises(InputError):
        halting_predicate(fig_tree, "E", (0, 5))


@pytest.mark.parametrize("trial", range(10))
def test_halting_predicate_matches_bruteforce_depth3(trial):
    system, start = random_system(np.random.default_rng(900 + trial))
    for seq in itertools.product(range(2), repeat=3):
        assert halting_predicate(system, start, seq) == brute_halts(system, start, seq)


def test_execute_flags_match_exhaustive_depth4(fig_tree):
    for seq in itertools.product(range(2), repeat=4):
        walked = execute_sequence(fig_tree, "E", seq)
        assert int(walked.halted) == brute_halts(fig_tree, "E", seq)


@pytest.mark.parametrize("trial", range(20))
def test_prefix_monotonicity(trial):
    gen = np.random.default_rng(3100 + trial)
    system, start = random_system(gen, b=int(gen.integers(2, 4)))
    b = system.branching_factor
    for seq in itertools.product(range(b), repeat=3):
        if halting_predicate(system, start, seq):
            for extra in range(b):
                assert halting_predicate(system, start, seq + (extra,)) == 1


# --- enumerate_paths ----------------------------------------------------------

def test_enumerate_paths_counts():
    assert len(enumerate_paths(2, 3)) == 8
    assert enumerate_paths(3, 0) == [()]
    paths = enumerate_paths(3, 4)
    assert len(paths) == 81
    assert len(set(paths)) == 81


@pytest.mark.parametrize("b", [1, 2, 3, 4])
@pytest.mark.parametrize("d", range(9))
def test_enumerate_paths_cardinality_and_order(b, d):
    paths = enumerate_paths(b, d)
    assert len(paths) == b**d
    assert len(set(paths)) == b**d
    assert paths == sorted(paths)


def test_enumerate_paths_respects_cap(monkeypatch):
    monkeypatch.setenv("QIDS_SIM_CAP", "100")
    from qids.errors import SizeLimit
    with pytest.raises(SizeLimit):
        enumerate_paths(2, 10)


def test_sequence_index_round_trip():
    for b, d in ((2, 5), (3, 4), (4, 3)):
        for i, seq in enumerate(enumerate_paths(b, d)):
            assert sequence_to_index(seq, b) == i
            assert index_to_sequence(i, b, d) == seq


def test_marked_vector_matches_predicate(fig_tree):
    for d in range(5):
        runs = marked_vector(fig_tree, "E", d)
        for i, seq in enumerate(enumerate_paths(2, d)):
            assert runs.locate(i)[1] == bool(halting_predicate(fig_tree, "E", seq))


# two or three letters and a memory of 3 or 4 symbols make overflow common
@settings(max_examples=400, deadline=None)
@given(case=systems(max_lens=(3, 4)))
def test_marking_walk_matches_reference(case):
    """The bitmap built from the unchecked walk's runs is the halting predicate on
    every sequence, and classical_ids's d* is the first depth with marks."""
    system, start = case
    b = system.branching_factor
    cap = 6 if b == 2 else 5
    first_marked = None
    for d in range(cap + 1):
        runs = marked_vector(system, start, d)
        assert_read_only(runs)
        expected = [halting_predicate(system, start, index_to_sequence(i, b, d))
                    for i in range(b**d)]
        assert marks_of(runs) == [bool(x) for x in expected]
        if first_marked is None and runs.k:
            first_marked = d
    assert classical_ids(system, start, cap).d_star == first_marked


def test_marked_vector_overflow_kills_subtree():
    # A -> AA -> AAA overflows a 2-symbol memory, so AAA -> B never reaches the goal
    system = make_system([("A", "AA"), ("AAA", "B")], goals=("B",), max_len=2)
    assert marked_vector(system, "A", 3).k == 0
    assert classical_ids(system, "A", 3).d_star is None


words = st.text(alphabet="ab", max_size=3)


# preconditions of one or two letters and actions of zero to three make rules
# that grow, shrink, keep the length or mix; a memory of 1 to 4 symbols overflows
@settings(max_examples=300, deadline=None)
@given(rules=st.lists(st.tuples(st.text(alphabet="ab", min_size=1, max_size=2), words),
                      min_size=1, max_size=3),
       start=words, goals=st.lists(words, min_size=1, max_size=2, unique=True),
       goal_match=st.sampled_from(("exact", "substring")), max_len=st.integers(1, 4))
def test_goal_length_bound_keeps_the_reference_bitmap(rules, start, goals, goal_match,
                                                      max_len):
    """At every depth, those the goal-length bound skips included, the bitmap built
    from the runs is the halting predicate; the start may be longer than max_memory_len."""
    system = ProductionSystem(alphabet=Alphabet(("a", "b")),
                              rules=tuple(Rule(pre, post) for pre, post in rules),
                              initial_states=("a",), goal_states=tuple(goals),
                              max_memory_len=max_len, goal_match=goal_match)
    b = len(rules)
    for d in range(6):
        expected = [bool(halting_predicate(system, start, index_to_sequence(i, b, d)))
                    for i in range(b**d)]
        assert marks_of(marked_vector(system, start, d)) == expected


def test_marking_skips_depths_whose_goal_lengths_are_out_of_reach(monkeypatch):
    """On a tree whose goal is 12 rewrites long, depths 0 to 11 never test a memory."""
    tested = []
    real_goal_test = production._goal_test

    def counting_goal_test(system):
        is_goal = real_goal_test(system)
        return lambda memory: tested.append(memory) or is_goal(memory)

    monkeypatch.setattr(production, "_goal_test", counting_goal_test)
    marked_vector.cache_clear()
    system = tree_system(12, "ab" * 6)
    for d in range(12):
        assert marked_vector(system, "E", d).k == 0
    assert tested == []
    assert marked_vector(system, "E", 12).k == 1
    assert len(tested) == 2**13 - 1


def test_skipped_depth_keeps_every_boundary_check(monkeypatch):
    marked_vector.cache_clear()
    system = tree_system(12, "ab" * 6)
    monkeypatch.setenv("QIDS_SIM_CAP", str(2**11 - 1))
    with pytest.raises(SizeLimit):
        marked_vector(system, "E", 11)
    monkeypatch.delenv("QIDS_SIM_CAP")
    with pytest.raises(AlphabetMismatch):
        marked_vector(system, "xE", 3)
    first = marked_vector(system, "E", 11)
    assert first.n == 2**11 and first.k == 0 and len(first) == 0
    assert_read_only(first)
    assert marked_vector(system, "E", 11) is first


def test_interleaved_marks_make_a_third_as_many_runs_as_sequences():
    """Even-parity goals mark the Thue-Morse leaves: no two runs merge past length 2."""
    runs = marked_vector(parity_system(10), "E", 10)
    expected = [bin(i).count("1") % 2 == 0 for i in range(2**10)]
    assert marks_of(runs) == expected
    assert len(runs) == sum(x and not y for x, y in zip(expected, [False] + expected))
    assert len(runs) > 2**10 // 3
    assert sys.getsizeof(runs) >= 16 * len(runs)


def test_marking_cache_is_bounded_by_bytes(monkeypatch):
    """The bound counts the runs' bytes: room for one of two interleaved
    markings, not both."""
    marked_vector.cache_clear()
    big, small = parity_system(10), parity_system(9)
    both = sys.getsizeof(marked_vector(big, "E", 10)) + sys.getsizeof(marked_vector(small, "E", 9))
    assert both > 2**10
    monkeypatch.setenv("QIDS_SIM_CAP", str(both - 1))
    marked_vector.cache_clear()
    first = marked_vector(big, "E", 10)
    assert marked_vector(big, "E", 10) is first
    other = marked_vector(small, "E", 9)
    assert marked_vector(small, "E", 9) is other
    again = marked_vector(big, "E", 10)
    assert again is not first and marks_of(again) == marks_of(first)
    marked_vector.cache_clear()
    assert marked_vector(big, "E", 10) is not again


def test_marking_cache_returns_an_entry_over_the_cap_without_keeping_it(monkeypatch):
    system = parity_system(10)
    monkeypatch.setenv("QIDS_SIM_CAP", str(2**10))
    marked_vector.cache_clear()
    runs = marked_vector(system, "E", 10)
    assert sys.getsizeof(runs) > 2**10
    assert marked_vector(system, "E", 10) is not runs
    tree = tree_system(10, "ab" * 5)
    small = marked_vector(tree, "E", 10)
    assert sys.getsizeof(small) <= 2**10
    assert marked_vector(tree, "E", 10) is small


def test_marking_cache_frees_dropped_systems_and_counts_start_strings(monkeypatch, tmp_path):
    """Each load of a system file is a new system with a new start string. The cache
    holds the systems weakly and counts the starts, so a dropped system is freed and
    many loads stay within twice the cap."""
    cap = 2**16
    start = "a" * 20_000 + "E"
    path = tmp_path / "long_start.json"
    save_system(make_system([("E", "aE"), ("E", "bE")], start=start, goals=("abE",),
                            alphabet="abE", max_len=len(start) + 8), path)
    monkeypatch.setenv("QIDS_SIM_CAP", str(cap))
    marked_vector.cache_clear()
    system = load_system(path)
    marked_vector(system, system.initial_states[0], 2)
    dropped = weakref.ref(system)
    del system
    assert dropped() is None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            system = load_system(path)
            for d in range(3):
                marked_vector(system, system.initial_states[0], d)
        del system
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    marked_vector.cache_clear()
    assert grown <= 2 * cap


# --- one marking pass: frontier chains ------------------------------------------

@pytest.fixture
def chain_log(monkeypatch):
    """What the marking cache does with frontiers from here on: ("start", bytes) for
    each chain started at depth 0 and ("extend", d, bytes, cap, dropped) for each
    depth d reached by extending one."""
    log = []

    class LoggedFrontier(production._Frontier):
        __slots__ = ()

        def __init__(self, system, start, runs):
            super().__init__(system, start, runs)
            log.append(("start", self.nbytes))

        def extend(self, runs, b, n, cap):
            extended = super().extend(runs, b, n, cap)
            depth = next(d for d in itertools.count() if b**d == n)
            log.append(("extend", depth, self.nbytes, cap, self.memories is None))
            return extended

    monkeypatch.setattr(production, "_Frontier", LoggedFrontier)
    marked_vector.cache_clear()
    yield log
    marked_vector.cache_clear()


def no_double_b_system():
    """A binary word tree under a start of two markers, with the substring goal "bb":
    the goal is in reach at depth 0, the live words are those without "bb", so the
    frontier grows as the Fibonacci numbers, and every live word ending in b has a
    halting child."""
    return make_system([("E", "aE"), ("E", "bE")], start="EE", goals=("bb",), alphabet="abE",
                       max_len=40, goal_match="substring")


def assert_chain_matches_the_reference(system, start, depths, predicate_up_to=6):
    """Each depth's cached runs are the root walk's, and the halting predicate's
    where `b**d` is small."""
    b = system.branching_factor
    for d in depths:
        runs = marked_vector(system, start, d)
        assert_read_only(runs)
        assert list(runs) == list(marked_vector.__wrapped__(system, start, d)), d
        assert runs.n == b**d
        if d <= predicate_up_to:
            assert marks_of(runs) == [
                bool(halting_predicate(system, start, index_to_sequence(i, b, d)))
                for i in range(b**d)], d


def extended_depths(log):
    return [entry[1] for entry in log if entry[0] == "extend"]


# overflow at a memory of 3 or 6 symbols kills subtrees and frontier nodes alike
@settings(max_examples=300, deadline=None)
@given(case=systems(max_lens=(3, 6)))
def test_chained_marking_matches_root_walks_and_the_predicate(case):
    """Depths 0..D marked in order extend one frontier wherever a goal is in reach at
    depth 0, and every depth's runs are the root walk's and the halting predicate's."""
    system, start = case
    marked_vector.cache_clear()
    assert_chain_matches_the_reference(system, start,
                                       range((6 if system.branching_factor == 2 else 4) + 1))


def test_a_chain_from_a_goal_start_marks_every_sequence(chain_log):
    system = make_system([("A", "AB"), ("B", "C")], start="A", goals=("A",), max_len=8,
                         goal_match="substring")
    assert_chain_matches_the_reference(system, "A", range(7))
    assert chain_log[0] == ("start", 0)
    assert extended_depths(chain_log) == [1, 2, 3, 4, 5, 6]
    assert all(marked_vector(system, "A", d).k == 2**d for d in range(7))


def test_a_chain_extends_every_depth_in_order(chain_log):
    """Depth d's frontier holds the F(d + 2) words of length d without "bb", each
    counted at its memory's `sys.getsizeof` plus 16 bytes."""
    system = no_double_b_system()
    assert_chain_matches_the_reference(system, "EE", range(13), predicate_up_to=8)
    assert extended_depths(chain_log) == list(range(1, 13))
    live = [1, 2]
    while len(live) < 13:
        live.append(live[-1] + live[-2])
    assert [nbytes for *_, nbytes, _, _ in chain_log[1:]] == [
        live[d] * (sys.getsizeof("a" * d + "EE") + 16) for d in range(1, 13)]
    assert not any(dropped for *_, dropped in chain_log[1:])


def test_a_small_cap_cuts_the_chain_and_later_depths_walk_from_the_root(chain_log,
                                                                          monkeypatch):
    """Past the cap the frontier is dropped as it grows: the chain ends at that depth,
    and deeper depths walk from the root with the same runs."""
    cap = 2**12
    monkeypatch.setenv("QIDS_SIM_CAP", str(cap))
    system = no_double_b_system()
    assert_chain_matches_the_reference(system, "EE", range(13), predicate_up_to=8)
    extensions = [entry for entry in chain_log if entry[0] == "extend"]
    cut = extensions[-1][1]
    assert extended_depths(chain_log) == list(range(1, cut + 1)) and 1 < cut < 12
    assert extensions[-1][-1] and not any(entry[-1] for entry in extensions[:-1])
    assert all(nbytes <= cap for _, _, nbytes, _, _ in extensions[:-1])
    assert extensions[-1][2] <= cap + sys.getsizeof("a" * cut + "EE") + 16


def test_a_depth_too_big_to_keep_takes_the_frontier_with_it(chain_log, monkeypatch):
    """Under a cap that depth 8's frontier fits but its entry does not, depth 8 is
    returned without being kept, and the frontier has left depth 7's entry: asking
    for depth 8 again walks from the root."""
    system = no_double_b_system()
    assert_chain_matches_the_reference(system, "EE", range(9))
    monkeypatch.setenv("QIDS_SIM_CAP", str(chain_log[-1][2]))
    marked_vector.cache_clear()
    chain_log.clear()
    assert_chain_matches_the_reference(system, "EE", range(8))
    extended = marked_vector(system, "EE", 8)
    assert extended_depths(chain_log) == list(range(1, 9)) and not chain_log[-1][-1]
    chain_log.clear()
    assert marked_vector(system, "EE", 8) is not extended
    assert_chain_matches_the_reference(system, "EE", [8, 7])
    assert chain_log == []


def test_an_entry_evicted_mid_chain_ends_the_chain(chain_log, monkeypatch):
    """Once the entries of a chain are evicted, the next depth walks from the root and
    keeps no frontier; a chain starts again only from depth 0."""
    system = no_double_b_system()
    assert_chain_matches_the_reference(system, "EE", range(4))
    other = tree_system(3)
    room = sys.getsizeof(marked_vector.__wrapped__(other, "E", 0)) + sys.getsizeof("E")
    monkeypatch.setenv("QIDS_SIM_CAP", str(room))
    marked_vector(other, "E", 0)  # fits only once every older entry is evicted
    monkeypatch.delenv("QIDS_SIM_CAP")
    chain_log.clear()
    assert_chain_matches_the_reference(system, "EE", range(4, 7))
    assert chain_log == []
    assert_chain_matches_the_reference(system, "EE", range(3))
    assert chain_log[0][0] == "start" and extended_depths(chain_log) == [1, 2]


def test_a_chain_of_a_dropped_system_is_not_extended_for_one_that_reuses_its_id(
        chain_log, monkeypatch):
    """Every system gets the same id, as a new system can get a dropped one's: the
    dropped system's chain is neither returned nor extended for the new one."""
    monkeypatch.setattr(production, "id", lambda system: 7, raising=False)
    dropped = no_double_b_system()
    assert_chain_matches_the_reference(dropped, "EE", range(3))
    gone = weakref.ref(dropped)
    del dropped
    assert gone() is None
    chain_log.clear()
    system = make_system([("E", "bE"), ("E", "aE")], start="EE", goals=("aa",), alphabet="abE",
                         max_len=40, goal_match="substring")
    assert_chain_matches_the_reference(system, "EE", [3, 0, 1, 2, 4])
    assert chain_log[0][0] == "start" and extended_depths(chain_log) == [1, 2]


def test_depths_requested_out_of_order_extend_only_from_a_kept_frontier(chain_log):
    system = no_double_b_system()
    assert_chain_matches_the_reference(system, "EE", [3, 0, 2, 1, 2, 4, 3, 5, 0, 1, 6])
    assert [entry[0] for entry in chain_log] == ["start", "extend"]
    assert extended_depths(chain_log) == [1]
    marked_vector.cache_clear()
    chain_log.clear()
    assert_chain_matches_the_reference(system, "EE", [0, 1, 2, 1, 0, 3, 2, 4])
    assert extended_depths(chain_log) == [1, 2, 3, 4]


def test_a_tree_search_keeps_no_frontier_and_a_chain_none_past_the_cap(chain_log,
                                                                        monkeypatch):
    """tree_search's goal is out of reach at depth 0, so its root walk at 16 keeps no
    frontier: a depth-16 frontier of 65,536 leaves would need 1 MB for its index and
    list slots alone. A chain holds at most the cap, as the cache's other entries do."""
    config = QidConfig(seed=3, depth_cap=17)
    tree = tree_system(16, "ab" * 8)
    quantum_iterative_deepening(tree, "E", config)  # warm every lazy import and cache
    marked_vector.cache_clear()
    tracemalloc.start()
    try:
        report = quantum_iterative_deepening(tree, "E", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.found and report.measured_depth == 16
    assert chain_log == [] and peak < 2**16 * 16

    cap = 2**14
    monkeypatch.setenv("QIDS_SIM_CAP", str(cap))
    marked_vector.cache_clear()
    system = no_double_b_system()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for d in range(15):
            marked_vector(system, "EE", d)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kept = [entry for entry in chain_log if entry[0] == "extend" and not entry[-1]]
    assert kept and all(nbytes <= cap for _, _, nbytes, _, _ in kept)
    assert chain_log[-1][-1]
    assert held <= 2 * cap


@st.composite
def bitmaps(draw):
    """A mark table over 1 to 300 sequences: none, all, alternating or random marks."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(("none", "all", "alternating", "random")))
    if kind == "random":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if kind == "alternating":
        return np.arange(n) % 2 == draw(st.integers(0, 1))
    return np.full(n, kind == "all")


@settings(max_examples=300, deadline=None)
@given(marks=bitmaps())
def test_rank_and_marked_match_cumsum_and_indexing(marks):
    runs = runs_of(marks)
    below = np.concatenate(([0], np.cumsum(marks)))
    assert marks_of(runs) == marks.tolist()
    assert [runs.locate(i)[0] for i in range(len(marks) + 1)] == below.tolist()
    assert [runs.locate(i) for i in range(len(marks))] == list(zip(below[:-1].tolist(),
                                                                   marks.tolist()))
    assert runs.k == below[-1]


def test_production_binds_no_numpy():
    """The classical semantics need no numpy: no global of `production` is or comes from it."""
    for name, value in vars(production).items():
        origin = (value.__name__ if isinstance(value, types.ModuleType)
                  else getattr(value, "__module__", None))
        assert not (origin or "").startswith("numpy"), name


def test_production_and_turing_import_without_numpy_or_the_engines():
    """Imported alone, the classical layers load neither numpy nor the driver or the
    dense engine."""
    run = run_python("import sys, qids.production, qids.turing; print(sorted(m for m in "
                     "('numpy', 'qids.driver', 'qids.statevector') if m in sys.modules))")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_statevector_binds_nothing_from_driver():
    """The reference does not depend on the engine it checks: no global of `statevector`
    is or comes from `driver`."""
    for name, value in vars(statevector).items():
        origin = (value.__name__ if isinstance(value, types.ModuleType)
                  else getattr(value, "__module__", None))
        assert origin != "qids.driver", name


def test_walks_leave_nothing_for_the_cyclic_gc():
    """Cleared runs are freed at once, those a chain extended and its frontier too,
    and a classical search leaves no cycle."""
    marked_vector.cache_clear()
    system = tree_system(8, "ab" * 4)
    chained = no_double_b_system()
    gc.collect()
    gc.disable()
    try:
        runs = weakref.ref(marked_vector(system, "E", 8))
        extended = [weakref.ref(marked_vector(chained, "EE", d)) for d in range(9)]
        assert runs() is not None and all(ref() is not None for ref in extended)
        marked_vector.cache_clear()
        assert runs() is None and all(ref() is None for ref in extended)
        classical_ids(system, "E", 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- classical_ids ------------------------------------------------------------

def test_ids_depth_zero():
    system = make_system([("A", "B")], start="A", goals=("A",))
    result = classical_ids(system, "A", 5)
    assert result.found and result.d_star == 0 and result.witness == ()


def test_ids_tree_depth3(fig_tree):
    result = classical_ids(fig_tree, "E", 6)
    assert result.found and result.d_star == 3
    assert result.witness == (0, 1, 0)
    assert result.nodes_expanded > 0


def test_ids_unreachable_goal():
    system = make_system([("A", "B")], start="A", goals=("C",))
    result = classical_ids(system, "A", 4)
    assert not result.found and result.d_star is None and result.witness is None


def test_ids_depth_cap_past_the_walk_depth_bound_is_refused():
    system = make_system([("A", "A")], start="A", goals=("B",))
    with pytest.raises(SizeLimit, match="walk-depth bound"):
        classical_ids(system, "A", MAX_WALK_DEPTH + 1)
    result = classical_ids(system, "A", MAX_WALK_DEPTH)
    assert not result.found and result.nodes_expanded > 0


def test_ids_node_budget_is_the_sim_cap(monkeypatch):
    system = make_system([("A", "AA"), ("A", "AB")], start="A", goals=("C",), max_len=64)
    expanded = classical_ids(system, "A", 8).nodes_expanded
    monkeypatch.setenv("QIDS_SIM_CAP", str(expanded))
    assert classical_ids(system, "A", 8).nodes_expanded == expanded
    monkeypatch.setenv("QIDS_SIM_CAP", str(expanded - 1))
    with pytest.raises(SizeLimit, match="expand more than"):
        classical_ids(system, "A", 8)


@pytest.mark.parametrize("trial", range(20))
def test_ids_agrees_with_bfs(trial):
    gen = np.random.default_rng(7700 + trial)
    system, start = random_system(gen, b=int(gen.integers(2, 4)))
    expected = bfs_min_goal_depth(system, start, 6)
    result = classical_ids(system, start, 6)
    if expected is None:
        assert not result.found
    else:
        assert result.found and result.d_star == expected
        assert halting_predicate(system, start, result.witness) == 1


# --- deterministic evolution ---------------------------------------------------

def test_deterministic_trace_fires_lowest_rule_first():
    system = make_system([("A", "B"), ("A", "C")], goals=("B",))
    out = deterministic_trace(system, "A", 5)
    assert out.trace == ["A", "B"] and out.goal_step == 1


def test_deterministic_trace_stuck_and_cap():
    system = make_system([("C", "B")], start="A", goals=("B",))
    assert deterministic_trace(system, "A", 5).stop_reason == "stuck"
    spin = make_system([("A", "A")], start="A", goals=("B",))
    assert deterministic_trace(spin, "A", 5).stop_reason == "cap"


# --- definition files -----------------------------------------------------------

def test_system_file_round_trip(tmp_path, fig_tree):
    path = tmp_path / "sys.json"
    save_system(fig_tree, path)
    loaded = load_system(path)
    assert loaded == fig_tree


def test_system_dict_rejects_unknown_fields(fig_tree):
    data = system_to_dict(fig_tree)
    data["comment"] = "nope"
    with pytest.raises(InputError, match="comment"):
        system_from_dict(data)
    rule_bad = system_to_dict(fig_tree)
    rule_bad["rules"][0]["weight"] = 2
    with pytest.raises(InputError, match="weight"):
        system_from_dict(rule_bad)


def test_system_dict_missing_field(fig_tree):
    data = system_to_dict(fig_tree)
    del data["goals"]
    with pytest.raises(InputError, match="goals"):
        system_from_dict(data)


def test_system_file_bad_json_has_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"alphabet": ["a"],\n  "rules": [}\n')
    with pytest.raises(InputError, match=r"line 2 column"):
        load_system(path)


def test_system_file_default_matching_modes(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "alphabet": ["A", "B"],
        "rules": [{"pre": "A", "post": "B"}],
        "initial": ["A"],
        "goals": ["B"],
    }))
    system = load_system(path)
    assert system.goal_match == "exact"
    assert system.max_memory_len == 64
