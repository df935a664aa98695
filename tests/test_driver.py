"""The deepening search loop, its accounting, and reports."""

import gc
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_system, reference_search, runs_of, systems
from qids import driver
from qids.driver import (QidConfig, SearchReport, amplified_probabilities, amplified_weights,
                         cumulative_calls, depth_rng, measure, optimal_iterations,
                         predicted_success_exact, quantum_iterative_deepening, report_to_json,
                         report_within_call_budget, vector_draw, within_call_budget)
from qids.errors import InputError, NormDrift, SizeLimit
from qids.production import (MAX_WALK_DEPTH, ClassicalSearchResult, MarkedRuns, classical_ids,
                             execute_sequence, marked_vector)
from qids.statevector import bitmap


def run(system, start, seed, **kwargs):
    kwargs.setdefault("depth_cap", 6)
    return quantum_iterative_deepening(system, start, QidConfig(seed=seed, **kwargs))


def test_goal_at_root():
    system = make_system([("A", "B")], start="A", goals=("A",))
    report = run(system, "A", seed=1)
    assert report.found and report.d_star == 0
    assert report.witness == () and report.total_oracle_calls == 0
    assert report.goal_state == "A"


def test_tree_search_finds_unique_goal(fig_tree):
    report = run(fig_tree, "E", seed=42)
    assert report.found
    assert report.d_star == 3
    assert report.goal_state == "abaE"
    assert execute_sequence(fig_tree, "E", report.witness).halted
    # depths 0-2 hold no halting sequence and are skipped without oracle calls
    assert [rec.k for rec in report.per_depth[:3]] == [0, 0, 0]
    assert all(rec.skipped for rec in report.per_depth[:3])


def test_start_must_be_initial(fig_tree):
    with pytest.raises(InputError):
        run(fig_tree, "aE", seed=0)


def test_depth_cap_over_the_sim_cap_is_refused_without_building_b_to_the_cap():
    system = make_system([("A", "B"), ("A", "C"), ("A", "x")], start="A")
    with pytest.raises(SizeLimit, match="over the cap of"):
        run(system, "A", seed=0, depth_cap=10**9)


def test_unsatisfiable_reports_cap_exceeded():
    system = make_system([("A", "B")], start="A", goals=("C",))
    report = run(system, "A", seed=9, depth_cap=5)
    assert not report.found and report.outcome == "cap_exceeded"
    assert [rec.depth for rec in report.per_depth] == [0, 1, 2, 3, 4, 5]
    assert all(rec.k == 0 for rec in report.per_depth)


def test_determinism_same_seed_same_report(fig_tree):
    a = run(fig_tree, "E", seed=77)
    b = run(fig_tree, "E", seed=77)
    assert report_to_json(a, include_volatile=False) == report_to_json(b, include_volatile=False)


def test_writing_without_volatile_fields_leaves_the_report_alone(fig_tree):
    report = run(fig_tree, "E", seed=77)
    wall = report.wall_time_s
    first = report_to_json(report, include_volatile=False)
    assert report_to_json(report, include_volatile=False) == first
    assert report.wall_time_s == wall and "wall_time_s" not in first
    volatile = report_to_json(report)
    assert '"wall_time_s"' in volatile and '"timestamp"' in volatile


def json_dumps_report(report, include_volatile):
    """The report as `json.dumps(..., indent=2, default=vars)` writes it: the
    writer's reference, kept only here."""
    data = {"schema": report.SCHEMA, "outcome": report.outcome, **vars(report)}
    if include_volatile:
        data["timestamp"] = driver.timestamp()
    else:
        data.pop("wall_time_s", None)
    return json.dumps(data, indent=2, default=vars) + "\n"


def assert_written_as_json_dumps(report, monkeypatch):
    monkeypatch.setattr(driver, "timestamp", lambda: "2026-01-02T03:04:05+0000")
    for include_volatile in (True, False):
        assert (report_to_json(report, include_volatile)
                == json_dumps_report(report, include_volatile))


@pytest.mark.parametrize("seed", range(20))
def test_amplified_reports_are_written_as_json_dumps_writes_them(seed, fig_tree, monkeypatch):
    """Found and cap_exceeded reports, measured and skipped depths, both counting modes."""
    unsatisfiable = make_system([("A", "B")], start="A", goals=("C",))
    reports = [run(fig_tree, "E", seed), run(fig_tree, "E", seed, depth_cap=2),
               run(fig_tree, "E", seed, counting_mode="assume_one", iterate_policy="faithful"),
               run(unsatisfiable, "A", seed, depth_cap=3, skip_empty_depths=False)]
    assert [r.outcome for r in reports] == ["found", "cap_exceeded", "found", "cap_exceeded"]
    for report in reports:
        assert_written_as_json_dumps(report, monkeypatch)


def test_classical_reports_are_written_as_json_dumps_writes_them(fig_tree, monkeypatch):
    for depth_cap in (2, 3):
        assert_written_as_json_dumps(classical_ids(fig_tree, "E", depth_cap), monkeypatch)


@pytest.mark.parametrize("wall", [0.0, 1e-300, 1e16, math.nan, math.inf, -math.inf, 0.1])
def test_a_hand_built_report_is_written_as_json_dumps_writes_it(wall, monkeypatch):
    """No depth rows, no witness, a goal state that needs escaping and floats that
    `json` spells in its own way."""
    goal = 'q"uo\\te\n\t\x00\x1f\x7f é ☃ 😀'
    report = SearchReport(False, None, None, goal, None, [], 0, 5, QidConfig(seed=5), wall)
    assert_written_as_json_dumps(report, monkeypatch)
    record = driver.DepthRecord(0, 1, 0, 0, 0, wall, True, None, (), None)
    report = SearchReport(True, 0, (), goal, 0, [record], 0, 5, QidConfig(seed=5), wall)
    assert_written_as_json_dumps(report, monkeypatch)


def test_report_records_keep_their_field_order():
    """A report writes `vars()` of each record, so each record's fields keep the
    order in which reports have always listed them."""
    config = QidConfig(seed=5)
    record = driver.DepthRecord(0, 1, 0, 0, 0, 0.0, True, None, None, None)
    report = SearchReport(False, None, None, None, None, [record], 0, 5, config, 0.0)
    assert list(vars(config)) == ["seed", "depth_cap", "counting_mode", "iterate_policy",
                                  "skip_empty_depths"]
    assert list(vars(record)) == ["depth", "n_paths", "k", "m", "oracle_calls",
                                  "predicted_success", "skipped", "measured_index",
                                  "measured_sequence", "measured_halting"]
    assert list(vars(report)) == ["found", "d_star", "witness", "goal_state", "measured_depth",
                                  "per_depth", "total_oracle_calls", "seed", "config",
                                  "wall_time_s"]
    assert list(vars(ClassicalSearchResult(None, None, None, 0))) == [
        "d_star", "witness", "goal_state", "nodes_expanded"]


def test_writing_a_report_leaves_nothing_for_the_cyclic_gc(fig_tree):
    report = run(fig_tree, "E", seed=77)
    gc.collect()
    gc.disable()
    try:
        report_to_json(report)
        report_to_json(report, include_volatile=False)
        report_to_json(classical_ids(fig_tree, "E", 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_depth_rng_split_is_stable():
    draws_a = depth_rng(5, 3).integers(0, 1000, size=4).tolist()
    draws_b = depth_rng(5, 3).integers(0, 1000, size=4).tolist()
    assert draws_a == draws_b
    assert draws_a != depth_rng(5, 4).integers(0, 1000, size=4).tolist()


@settings(max_examples=500, deadline=None)
# seeds and depths on both sides of 32-bit word boundaries, where the entropy grows a word
@example(seed=2**32 - 1, depth=2**32 - 1)
@example(seed=2**128 - 1, depth=2**32)
@example(seed=2**128, depth=0)
@example(seed=2**160, depth=2**40)
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**160)),
       depth=st.one_of(st.integers(0, 64), st.integers(0, 2**40)))
def test_owned_double_is_numpys_first_double(seed, depth):
    assert driver.depth_uniform(seed, depth) == depth_rng(seed, depth).random()


@st.composite
def registers(draw_from):
    n = draw_from(st.integers(1, 3000))
    k = draw_from(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    marks = np.zeros(n, dtype=bool)
    marks[np.random.default_rng(draw_from(st.integers(0, 2**32 - 1))).permutation(n)[:k]] = True
    return runs_of(marks)


@settings(max_examples=400, deadline=None)
@given(register=registers(), m=st.integers(0, 120), seed=st.integers(0, 2**32 - 1),
       depth=st.integers(0, 30))
def test_draw_is_the_rng_choice_index(register, m, seed, depth):
    index, marked, _ = measure(register, m, seed, depth)
    assert index == vector_draw(amplified_probabilities(bitmap(register), m), seed, depth)
    assert marked == bitmap(register)[index]


@st.composite
def float_lists(draw_from):
    """Non-negative doubles: up to 300 of any size, or up to 20,000 of two values."""
    values = st.floats(0, 1e6)
    if draw_from(st.booleans()):
        return draw_from(st.lists(values, max_size=300))
    n, a, b = draw_from(st.integers(300, 20_000)), draw_from(values), draw_from(values)
    rng = np.random.default_rng(draw_from(st.integers(0, 2**32 - 1)))
    return np.where(rng.random(n) < draw_from(st.floats(0, 1)), a, b).tolist()


@settings(max_examples=300, deadline=None)
@given(values=float_lists())
def test_pairwise_sum_is_numpys_sum(values):
    assert driver._pairwise_sum(values, 0, len(values)) == np.array(values, dtype=float).sum()


class FixedDouble(np.random.Generator):
    """A generator whose every uniform double is u, in `choice` as well."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u


def draw_both_at(monkeypatch, u):
    """Give the search's own double and the reference generator the double u."""
    monkeypatch.setattr(driver, "depth_uniform", lambda seed, depth: u)
    monkeypatch.setattr(driver, "depth_rng", lambda seed, depth: FixedDouble(u))


def test_draw_on_a_step_edge_falls_back_and_agrees(monkeypatch):
    # every flat step carries mass: 0.14 per marked entry, 0.0155 per unmarked one
    runs, m = MarkedRuns(8, [(2, 1), (5, 2)]), 1
    probs = amplified_probabilities(bitmap(runs), m)
    cdf = np.cumsum(probs)
    edges = np.concatenate(([0.0], cdf[:-1])) / cdf[-1]
    mids = (edges + np.append(edges[1:], 1.0)) / 2
    for f in range(2 * runs.n):
        draw_both_at(monkeypatch, edges[f])
        index = vector_draw(probs, 0, 3)
        assert measure(runs, m, 0, 3) == (index, runs.locate(index)[1], False)
        draw_both_at(monkeypatch, mids[f])
        assert measure(runs, m, 0, 3) == (f // 2, runs.locate(f // 2)[1], True)


@settings(max_examples=200, deadline=None)
@given(register=registers(), m=st.integers(0, 120), data=st.data())
def test_fallback_draw_on_step_edges_is_the_rng_choice_index(register, m, data):
    """At a double on or one ulp beside a step edge of numpy's computed cdf, where the
    inverse CDF gives way, the fallback draws the index `rng.choice` draws."""
    probs = amplified_probabilities(bitmap(register), m)
    cdf = np.cumsum(probs / probs.sum())
    edges = np.concatenate(([0.0], cdf[:-1] / cdf[-1]))
    edge = edges[data.draw(st.integers(0, len(edges) - 1))]
    u = data.draw(st.sampled_from([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        draw_both_at(monkeypatch, float(u))
        index, marked, _ = measure(register, m, 0, 0)
        assert index == vector_draw(probs, 0, 0)
    assert marked == bitmap(register)[index]


def test_one_locate_per_inverse_cdf_round(fig_tree, monkeypatch):
    """The draw hands back the mark it found, so each round searches the runs once."""
    located, fast = [], []
    locate = MarkedRuns.locate
    monkeypatch.setattr(MarkedRuns, "locate", lambda runs, i: located.append(i) or locate(runs, i))

    def recorded_measure(*args):
        index, marked, from_runs = measure(*args)
        fast.append(from_runs)
        return index, marked, from_runs

    monkeypatch.setattr(driver, "measure", recorded_measure)
    report = run(fig_tree, "E", seed=13, skip_empty_depths=False)
    assert report.found and len(report.per_depth) == len(fast) == 4 and all(fast)
    assert len(located) == len(fast)


def test_perturbed_total_raises_norm_drift_before_the_draw(monkeypatch):
    p_marked, p_unmarked = amplified_weights(64, 1, 6)
    monkeypatch.setattr(driver, "amplified_weights",
                        lambda n, k, m: (1.01 * p_marked, 1.01 * p_unmarked))

    def no_generator(seed, depth):
        raise AssertionError("drew before checking the total")

    monkeypatch.setattr(driver, "depth_uniform", no_generator)
    with pytest.raises(NormDrift):
        measure(MarkedRuns(64, [(3, 1)]), 6, 0, 6)


@settings(max_examples=300, deadline=None)
# k = 2 at depth 1, where assume_one sizes m for one mark and exact for two
@example(case=(make_system([("bc", "a"), ("b", ""), ("b", "")], start="ab", goals=("a",),
                           alphabet="abc", max_len=4), "ab"),
         seed=71, depth_cap=6, counting_mode="assume_one", iterate_policy="optimal", skip=True)
@given(case=systems(max_lens=(4, 20)), seed=st.integers(0, 2**64),
       depth_cap=st.integers(0, 6), counting_mode=st.sampled_from(driver.COUNTING_MODES),
       iterate_policy=st.sampled_from(driver.ITERATE_POLICIES), skip=st.booleans())
def test_search_matches_the_reference_search(case, seed, depth_cap, counting_mode,
                                             iterate_policy, skip):
    """A seeded search reports what the search built from reference parts finds."""
    system, start = case
    config = QidConfig(seed=seed, depth_cap=depth_cap, counting_mode=counting_mode,
                       iterate_policy=iterate_policy, skip_empty_depths=skip)
    expected = reference_search(system, start, config)
    marked_vector.cache_clear()
    report = quantum_iterative_deepening(system, start, config)
    rows = [(r.k, r.m, r.skipped, r.measured_index, r.measured_halting) for r in report.per_depth]
    assert (report.found, report.witness, report.total_oracle_calls, rows) == expected


def test_skipping_empty_depths_does_not_change_outcome(fig_tree):
    fast = run(fig_tree, "E", seed=13, skip_empty_depths=True)
    slow = run(fig_tree, "E", seed=13, skip_empty_depths=False)
    # per-depth generators are split independently, so the depth-3 measurement
    # agrees whether or not the empty depths consumed a measurement
    assert fast.witness == slow.witness
    assert fast.measured_depth == slow.measured_depth
    assert [r.m for r in slow.per_depth[:3]] == [0, 1, 1]  # ran, not skipped


def test_assume_one_counting_still_finds(fig_tree):
    report = run(fig_tree, "E", seed=5, counting_mode="assume_one")
    assert report.found and report.d_star == 3
    row = report.per_depth[-1]
    assert row.m == optimal_iterations(8, 1)  # sized for one solution
    assert row.k == 1  # k recorded at depth 3 is the true count


def test_faithful_policy_uses_root_of_space(fig_tree):
    report = run(fig_tree, "E", seed=21, iterate_policy="faithful")
    row = report.per_depth[-1]
    assert row.m == math.floor(math.sqrt(row.n_paths))


def test_witness_prefix_is_minimal_even_on_late_success(fig_tree):
    # fish for a seed that misses at depth 3 and succeeds deeper
    predicted = predicted_success_exact(8, 1, 2)
    for seed in range(400):
        report = run(fig_tree, "E", seed=seed)
        assert report.found
        if report.measured_depth > 3:
            assert report.d_star == 3
            assert len(report.witness) > 3
            assert execute_sequence(fig_tree, "E", report.witness).goal_step == 3
            break
    else:
        pytest.fail(f"no miss in 400 runs at soak probability {predicted:.3f}")


def test_depth_cap_past_the_walk_depth_bound_is_refused():
    # one rule keeps b**d at 1, so only the walk's recursion depth limits the cap
    system = make_system([("A", "A")], start="A", goals=("B",))
    with pytest.raises(SizeLimit, match="walk-depth bound"):
        run(system, "A", seed=1, depth_cap=MAX_WALK_DEPTH + 1)
    report = run(system, "A", seed=1, depth_cap=MAX_WALK_DEPTH)
    assert not report.found and len(report.per_depth) == MAX_WALK_DEPTH + 1


def test_account_oracle_calls_on_reports(fig_tree):
    report = run(fig_tree, "E", seed=42)
    assert report.per_depth[-1].depth == 3
    assert report_within_call_budget(report, b=2)
    # 4 * sqrt(2**3) = 11.31 and the rule is strict: 12 calls at d=3 are over budget
    assert within_call_budget(11, 2, 3) and not within_call_budget(12, 2, 3)


def test_account_depth_zero_run():
    system = make_system([("A", "B")], start="A", goals=("A",))
    report = run(system, "A", seed=1)
    assert report.total_oracle_calls == 0
    assert report_within_call_budget(report, b=1)
    assert within_call_budget(4, 1, 0) and not within_call_budget(5, 1, 0)


def test_call_budget_rejects_total_that_disagrees_with_rows(fig_tree):
    report = run(fig_tree, "E", seed=42)
    report.total_oracle_calls += 1
    with pytest.raises(InputError, match="disagrees"):
        report_within_call_budget(report, b=2)


def test_success_rate_at_first_marked_depth(fig_tree):
    # soak over 200 seeds: reaching the goal by depth 3 should happen at
    # least as often as the closed form promises, minus sampling slack
    predicted = predicted_success_exact(8, 1, 2)
    hits = sum(run(fig_tree, "E", seed=s).measured_depth == 3 for s in range(200))
    assert hits / 200 >= predicted - 0.05


def test_schedule_b2_depths_0_to_10():
    rows = cumulative_calls(2, 10)
    per_depth = [math.floor(math.pi / 4 * math.sqrt(2**d)) for d in range(11)]
    assert [total for total, _ in rows] == list(itertools.accumulate(per_depth))
    assert [root for _, root in rows] == [math.sqrt(2**d) for d in range(11)]
    assert rows[-1][0] == 79
    assert rows[-1][0] <= 4 * math.sqrt(2**10)


def test_schedule_depth_zero():
    assert cumulative_calls(2, 0) == [(0, 1.0)]


def test_schedule_b3_ratio():
    total, root = cumulative_calls(3, 9)[-1]
    assert total / root <= 4


def test_search_on_nondeterministic_compiled_machine():
    # a guessing machine: on a blank it may halt writing 0 or keep marching;
    # the compiled system branches, and the searcher finds a halting path
    from qids.turing import DeltaEntry, TuringMachineSpec, compile_tm, decode_config, initial_memory
    tm = TuringMachineSpec(
        states=("g", "h"), start="g", halts=frozenset(["h"]), blank="_",
        tape_alphabet=("0", "1", "_"),
        entries=(
            DeltaEntry("g", "_", "h", "0", "S"),
            DeltaEntry("g", "_", "g", "1", "R"),
            DeltaEntry("g", "0", "h", "0", "S"),
            DeltaEntry("g", "1", "g", "1", "R"),
        ),
        tape_window=12,
    )
    assert len(tm.actions("g", "_")) == 2
    system = compile_tm(tm)
    start = initial_memory(tm, "")
    applicable = [r for r in system.rules if r.precondition in start]
    assert len(applicable) == 2  # genuine branching at the start configuration
    report = quantum_iterative_deepening(system, start, QidConfig(seed=3, depth_cap=3))
    assert report.found
    replay = execute_sequence(system, start, report.witness)
    final = decode_config(tm, replay.trace[replay.goal_step])
    assert final.state == "h"
