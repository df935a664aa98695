"""The deepening search loop, its accounting, and reports."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_system
from qids import driver
from qids.driver import (QidConfig, cumulative_calls, depth_rng, draw, measure,
                         quantum_iterative_deepening, report_to_json,
                         report_within_call_budget, within_call_budget)
from qids.errors import InputError, NormDrift, SizeLimit
from qids.grover import (amplified_probabilities, amplified_weights, optimal_iterations,
                         predicted_success_exact)
from qids.production import MAX_WALK_DEPTH, execute_sequence
from qids.statevector import sample_index


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


def test_depth_rng_split_is_stable():
    draws_a = depth_rng(5, 3).integers(0, 1000, size=4).tolist()
    draws_b = depth_rng(5, 3).integers(0, 1000, size=4).tolist()
    assert draws_a == draws_b
    assert draws_a != depth_rng(5, 4).integers(0, 1000, size=4).tolist()


def reference_draw(marks, k, m, rng):
    """The sequence `rng.choice` picks from the closed-form flat vector."""
    return sample_index(amplified_probabilities(marks, k, m), rng) // 2


@st.composite
def registers(draw_from):
    n = draw_from(st.integers(1, 3000))
    k = draw_from(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    marks = np.zeros(n, dtype=bool)
    marks[np.random.default_rng(draw_from(st.integers(0, 2**32 - 1))).permutation(n)[:k]] = True
    return marks, k


@settings(max_examples=400, deadline=None)
@given(register=registers(), m=st.integers(0, 120), seed=st.integers(0, 2**32 - 1),
       depth=st.integers(0, 30))
def test_draw_is_the_rng_choice_index(register, m, seed, depth):
    marks, k = register
    index, _ = draw(marks, k, m, seed, depth)
    assert index == reference_draw(marks, k, m, depth_rng(seed, depth))


class FixedDouble(np.random.Generator):
    """A generator whose every uniform double is u, in `choice` as well."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u


def test_draw_on_a_step_edge_falls_back_and_agrees(monkeypatch):
    # every flat step carries mass: 0.14 per marked entry, 0.0155 per unmarked one
    marks = np.isin(np.arange(8), (2, 5, 6))
    k, m = 3, 1
    cdf = np.cumsum(amplified_probabilities(marks, k, m))
    edges = np.concatenate(([0.0], cdf[:-1])) / cdf[-1]
    mids = (edges + np.append(edges[1:], 1.0)) / 2
    for f in range(2 * len(marks)):
        monkeypatch.setattr(driver, "depth_rng", lambda seed, depth: FixedDouble(edges[f]))
        assert draw(marks, k, m, 0, 3) == (reference_draw(marks, k, m, FixedDouble(edges[f])),
                                           False)
        monkeypatch.setattr(driver, "depth_rng", lambda seed, depth: FixedDouble(mids[f]))
        assert draw(marks, k, m, 0, 3) == (f // 2, True)


def test_perturbed_total_raises_norm_drift_before_the_draw(monkeypatch):
    p_marked, p_unmarked = amplified_weights(64, 1, 6)
    monkeypatch.setattr(driver, "amplified_weights",
                        lambda n, k, m: (1.01 * p_marked, 1.01 * p_unmarked))

    def no_generator(seed, depth):
        raise AssertionError("drew before checking the total")

    monkeypatch.setattr(driver, "depth_rng", no_generator)
    with pytest.raises(NormDrift):
        measure(np.arange(64) == 3, 1, 6, 0, 6)


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
            assert execute_sequence(fig_tree, "E", report.witness).halt_depth == 3
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
    from qids.production import apply_rule
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
    applicable = [r for r in system.rules if apply_rule(system, start, r) is not None]
    assert len(applicable) == 2  # genuine branching at the start configuration
    report = quantum_iterative_deepening(system, start, QidConfig(seed=3, depth_cap=3))
    assert report.found
    replay = execute_sequence(system, start, report.witness)
    final = decode_config(tm, replay.trace[replay.halt_depth])
    assert final.state == "h"
