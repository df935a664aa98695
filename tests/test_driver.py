"""The deepening search loop, its accounting, and reports."""

import math

import pytest

from conftest import make_system
from qids.driver import (QidConfig, account_oracle_calls, depth_rng,
                         oracle_call_schedule, quantum_iterative_deepening,
                         report_from_dict, report_from_json, report_to_dict,
                         report_to_json)
from qids.errors import InputError, SizeLimit
from qids.grover import optimal_iterations, predicted_success_exact
from qids.production import execute_sequence, tree_system


@pytest.fixture
def fig_tree():
    return tree_system(3)


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
    assert report_to_dict(a, include_volatile=False) == report_to_dict(b, include_volatile=False)


def test_depth_rng_split_is_stable():
    draws_a = depth_rng(5, 3).integers(0, 1000, size=4).tolist()
    draws_b = depth_rng(5, 3).integers(0, 1000, size=4).tolist()
    assert draws_a == draws_b
    assert draws_a != depth_rng(5, 4).integers(0, 1000, size=4).tolist()


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


def test_account_oracle_calls_on_reports(fig_tree):
    report = run(fig_tree, "E", seed=42)
    accounting = account_oracle_calls(report, b=2)
    assert accounting.total_calls == report.total_oracle_calls
    assert accounting.final_depth == 3
    assert accounting.bound == math.ceil(4 * math.sqrt(8))
    assert accounting.within_bound


def test_account_depth_zero_run():
    system = make_system([("A", "B")], start="A", goals=("A",))
    accounting = account_oracle_calls(run(system, "A", seed=1), b=1)
    assert accounting.total_calls == 0 and accounting.bound == 4


def test_success_rate_at_first_marked_depth(fig_tree):
    # soak over 200 seeds: reaching the goal by depth 3 should happen at
    # least as often as the closed form promises, minus sampling slack
    predicted = predicted_success_exact(8, 1, 2)
    hits = sum(run(fig_tree, "E", seed=s).measured_depth == 3 for s in range(200))
    assert hits / 200 >= predicted - 0.05


def test_schedule_b2_depths_0_to_10():
    schedule = oracle_call_schedule(2, 10)
    assert schedule == [math.floor(math.pi / 4 * math.sqrt(2**d)) for d in range(11)]
    assert sum(schedule) == 79
    assert sum(schedule) <= 4 * math.sqrt(2**10)


def test_schedule_depth_zero():
    assert oracle_call_schedule(2, 0) == [0]


def test_schedule_b3_ratio():
    total = sum(oracle_call_schedule(3, 9))
    assert total / math.sqrt(3**9) <= 4


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
    assert not tm.is_deterministic
    system = compile_tm(tm)
    start = initial_memory(tm, "")
    applicable = [r for r in system.rules if apply_rule(system, start, r) is not None]
    assert len(applicable) == 2  # genuine branching at the start configuration
    report = quantum_iterative_deepening(system, start, QidConfig(seed=3, depth_cap=3))
    assert report.found
    replay = execute_sequence(system, start, report.witness)
    final = decode_config(tm, replay.trace[replay.halt_depth])
    assert final.state == "h"


def test_report_json_round_trip(fig_tree):
    report = run(fig_tree, "E", seed=42)
    text = report_to_json(report, include_volatile=False)
    parsed = report_from_json(text)
    assert report_to_json(parsed, include_volatile=False) == text
    assert parsed.witness == report.witness
    assert parsed.config == report.config


@pytest.mark.parametrize("damage", [
    lambda d: d.pop("per_depth"),
    lambda d: d.pop("config"),
    lambda d: d["config"].pop("seed"),
    lambda d: d.update(found="yes"),
    lambda d: d.update(witness=[0, "1"]),
    lambda d: d["per_depth"][0].pop("k"),
    lambda d: d["per_depth"][0].update(measured_index=1.5),
    lambda d: d["per_depth"][0].update(colour="red"),
    lambda d: d.update(per_depth=[3]),
])
def test_report_parser_rejects_missing_or_mistyped_fields(fig_tree, damage):
    data = report_to_dict(run(fig_tree, "E", seed=42), include_volatile=False)
    damage(data)
    with pytest.raises(InputError):
        report_from_dict(data)


@pytest.mark.parametrize("text", ['{"schema": "qids.search-report/1", "config": {"seed": 1}}',
                                  "[1]", "{"])
def test_report_parser_rejects_malformed_text(text):
    with pytest.raises(InputError):
        report_from_json(text)
