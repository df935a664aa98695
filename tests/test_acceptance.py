"""Acceptance gate: each criterion runs at its stated tolerance.

Every test drives the corresponding named check from qids.verify (the same
code behind `qids verify`) and prints its PASS/FAIL line, so `pytest -s
tests/test_acceptance.py` reads as the acceptance report. The final test
asserts the whole gate fits the five-minute budget.
"""

from qids.verify import (ALL_CHECKS, acceptance_corpus, check_call_budget,
                         check_draw_agreement, check_formula_reconciliation,
                         check_grover_correctness, check_halt_timing_demo,
                         check_measurement_statistics, check_engine_agreement,
                         check_search_vs_classical,
                         check_tm_bisimulation, check_unitarity,
                         reconciliation_table)

_durations: list[float] = []


def _gate(result):
    _durations.append(result.duration_s)
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name} "
          f"[{result.duration_s:.2f}s] {result.detail}")
    assert result.passed, result.detail


def test_criterion_1_grover_correctness():
    # N in {4..64}, k in {1,2,4}, m in [0,10]: simulation == closed form @ 1e-9
    result = check_grover_correctness()
    _gate(result)
    assert result.duration_s < 10.0


def test_criterion_2_formula_reconciliation():
    # k=1, b**d in {64,128,256,512}: real-iterate form within 0.05 of exact
    _gate(check_formula_reconciliation())
    # the small-N rows are emitted: the real-iterate form undershoots there
    rows = {r["n_paths"]: r for r in reconciliation_table()}
    assert 4 in rows and 16 in rows
    assert rows[4]["gap"] > 0.05
    assert rows[4]["asymptotic"] < rows[4]["exact"]


def test_criterion_3_search_vs_classical():
    # >= 20 randomized systems, 200 seeds each: minimal-depth witnesses and
    # success-by-d* frequency within 0.05 of the closed form
    assert len(acceptance_corpus()) >= 20
    assert {e.system.branching_factor for e in acceptance_corpus()} == {2, 3}
    assert all(e.d_star <= 6 for e in acceptance_corpus())
    _gate(check_search_vs_classical())


def test_criterion_4_call_budget():
    # driver.cumulative_calls keeps driver.within_call_budget (total <= 4*sqrt(b**d))
    # for b=2 d<=14 and b=3 d<=9, under 60 s
    result = check_call_budget()
    _gate(result)
    assert result.duration_s < 60.0


def test_criterion_5_tm_bisimulation():
    # >= 5 machines x >= 10 tapes: step-for-step decode equality, exact tapes
    _gate(check_tm_bisimulation())


def test_criterion_6_halt_timing_demo():
    # halting times {1,2,5,5}, depth 3: P(halt)=0.5 +- 1e-10, clean projections
    _gate(check_halt_timing_demo())


def test_criterion_7_measurement_statistics():
    # chi-square fit of seeded measurement at significance 0.001, 10^4 draws
    _gate(check_measurement_statistics())


def test_criterion_8_unitarity():
    # norm drift < 1e-9 after 10^3 iterates at dimension 2048
    _gate(check_unitarity())


def test_criterion_9_engine_agreement():
    # corpus at d*..d*+3 under optimal and faithful m, plus b=4 d=8 k=1:
    # closed-form probabilities == dense engine @ 1e-12
    _gate(check_engine_agreement())


def test_criterion_10_draw_agreement():
    # the same registers plus k=0 and k=N ones, 40 seeds each: the inverse-CDF
    # draw == rng.choice over the closed-form vector, index for index
    _gate(check_draw_agreement())


def test_gate_runs_inside_budget():
    assert len(_durations) == len(ALL_CHECKS)
    total = sum(_durations)
    print(f"acceptance gate total: {total:.1f}s (budget 300s)")
    assert total < 300.0
