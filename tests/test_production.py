"""Rewriting semantics, path enumeration, and the classical search baselines."""

import gc
import itertools
import json
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (enumerate_paths, make_system, random_system, sequence_to_index,
                      tree_system)
from qids import production
from qids.errors import AlphabetMismatch, InputError, MemoryOverflow, SizeLimit
from qids.production import (MAX_WALK_DEPTH, Alphabet, ProductionSystem, Rule, apply_rule,
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


# --- apply_rule --------------------------------------------------------------

def test_apply_rule_substring_rewrite():
    system = make_system([("AB", "C")])
    assert apply_rule(system, "xABy", system.rules[0]) == "xCy"


def test_apply_rule_leftmost_tiebreak():
    system = make_system([("A", "B")])
    assert apply_rule(system, "AA", system.rules[0]) == "BA"


def test_apply_rule_no_match():
    system = make_system([("AB", "C")])
    assert apply_rule(system, "xy", system.rules[0]) is None


def test_apply_rule_overflow():
    system = make_system([("A", "AA")], max_len=3)
    assert apply_rule(system, "AA", system.rules[0]) == "AAA"
    with pytest.raises(MemoryOverflow):
        apply_rule(system, "AAA", system.rules[0])


def test_apply_rule_is_deterministic():
    system = make_system([("A", "B")])
    results = {apply_rule(system, "xAy", system.rules[0]) for _ in range(25)}
    assert results == {"xBy"}


# --- execute_sequence / halting_predicate ------------------------------------

def test_execute_known_tree_path(fig_tree):
    result = execute_sequence(fig_tree, "E", (0, 1, 0))
    assert result.trace == ["E", "aE", "abE", "abaE"]
    assert result.halted and result.halt_depth == 3


def test_goal_at_root_halts_with_empty_sequence():
    system = make_system([("A", "B")], start="A", goals=("A",))
    result = execute_sequence(system, "A", ())
    assert result.halted and result.halt_depth == 0
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
    assert result.halted and result.halt_depth == 1
    assert result.trace == ["A", "B"]


def test_overflow_propagates_unless_goal_reached():
    system = make_system([("A", "AA")], max_len=3, goals=("AA",))
    # goal reached at step 1, overflow at step 3 is tolerated
    result = execute_sequence(system, "A", (0, 0, 0))
    assert result.halted and result.halt_depth == 1
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
        marks = marked_vector(fig_tree, "E", d)
        for i, seq in enumerate(enumerate_paths(2, d)):
            assert bool(marks[i]) == bool(halting_predicate(fig_tree, "E", seq))


# two or three letters and a memory of 3 or 4 symbols make overflow common
@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(2, 3), n_letters=st.integers(2, 3),
       max_len=st.integers(3, 4), goal_match=st.sampled_from(("exact", "substring")))
def test_marking_walk_matches_reference(seed, b, n_letters, max_len, goal_match):
    """The unchecked walk's bitmap is the halting predicate on every sequence, and
    classical_ids's d* is the first depth whose bitmap has marks."""
    system, start = random_system(np.random.default_rng(seed), b=b, n_letters=n_letters,
                                  max_len=max_len, goal_match=goal_match)
    cap = 6 if b == 2 else 5
    first_marked = None
    for d in range(cap + 1):
        marks = marked_vector(system, start, d)
        assert not marks.flags.writeable
        expected = [halting_predicate(system, start, index_to_sequence(i, b, d))
                    for i in range(b**d)]
        assert marks.tolist() == [bool(x) for x in expected]
        if first_marked is None and marks.any():
            first_marked = d
    assert classical_ids(system, start, cap).d_star == first_marked


def test_marked_vector_overflow_kills_subtree():
    # A -> AA -> AAA overflows a 2-symbol memory, so AAA -> B never reaches the goal
    system = make_system([("A", "AA"), ("AAA", "B")], goals=("B",), max_len=2)
    assert not marked_vector(system, "A", 3).any()
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
    """At every depth, those the goal-length bound skips included, the bitmap is
    the halting predicate; the start may be longer than max_memory_len."""
    system = ProductionSystem(alphabet=Alphabet(("a", "b")),
                              rules=tuple(Rule(pre, post) for pre, post in rules),
                              initial_states=("a",), goal_states=tuple(goals),
                              max_memory_len=max_len, goal_match=goal_match)
    b = len(rules)
    for d in range(6):
        expected = [bool(halting_predicate(system, start, index_to_sequence(i, b, d)))
                    for i in range(b**d)]
        assert marked_vector(system, start, d).tolist() == expected


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
        assert not marked_vector(system, "E", d).any()
    assert tested == []
    assert marked_vector(system, "E", 12).sum() == 1
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
    assert first.shape == (2**11,) and not first.any()
    assert not first.flags.writeable
    assert marked_vector(system, "E", 11) is first


def test_marking_cache_is_bounded_by_bytes(monkeypatch):
    # room for the depth-10 bitmap or the depth-9 one, not both
    both = sys.getsizeof(np.zeros(2**10, dtype=bool)) + sys.getsizeof(np.zeros(2**9, dtype=bool))
    monkeypatch.setenv("QIDS_SIM_CAP", str(both - 1))
    marked_vector.cache_clear()
    system = tree_system(10, "ab" * 5)
    first = marked_vector(system, "E", 10)
    assert marked_vector(system, "E", 10) is first
    other = marked_vector(system, "E", 9)
    assert marked_vector(system, "E", 9) is other
    again = marked_vector(system, "E", 10)
    assert again is not first and np.array_equal(again, first)
    marked_vector.cache_clear()
    assert marked_vector(system, "E", 10) is not again


def test_walks_leave_nothing_for_the_cyclic_gc():
    """A cleared bitmap is freed at once, and a classical search leaves no cycle."""
    marked_vector.cache_clear()
    system = tree_system(8, "ab" * 4)
    gc.collect()
    gc.disable()
    try:
        bitmap = weakref.ref(marked_vector(system, "E", 8))
        assert bitmap() is not None
        marked_vector.cache_clear()
        assert bitmap() is None
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
