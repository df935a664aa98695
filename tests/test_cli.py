"""End-to-end command-line behaviour: exit codes, files, determinism."""

import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import run_python
from qids.cli import main
from qids.production import load_system
from qids.statevector import measure
from qids.turing import decode_config, load_tm
from qids.verify import ALL_CHECKS, _chi_square_pvalue, check_measurement_statistics

DEMOS = Path(__file__).resolve().parent.parent / "demos"
TREE = str(DEMOS / "tree_search.json")
HALT_DEMO = str(DEMOS / "halt_timing.json")
UNSAT = str(DEMOS / "unsatisfiable.json")
UNARY_TM = str(DEMOS / "unary_increment.tm.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run -----------------------------------------------------------------------

def test_run_finds_tree_goal(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", TREE, "--seed", "42", "--depth-cap", "6",
                           "--no-timestamp", "-o", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "found"
    assert report["d_star"] == 3
    assert report["goal_state"] == "abaE"
    assert out_path.read_text() == out
    # classical search agrees on the solution depth
    from qids.production import classical_ids
    assert classical_ids(load_system(TREE), "E", 6).d_star == 3


def test_run_verbose_logs_one_line_per_depth_to_stderr_only(capsys):
    argv = ("run", TREE, "--seed", "42", "--no-timestamp")
    code, quiet, quiet_err = run_cli(capsys, *argv)
    code_v, out, err = run_cli(capsys, *argv, "-v")
    assert code == code_v == 0
    assert out == quiet and quiet_err == ""
    rows = json.loads(out)["per_depth"]
    assert err.splitlines() == [
        f"depth={r['depth']} k=0 skipped" if r["skipped"] else
        f"depth={r['depth']} k={r['k']} m={r['m']} index={r['measured_index']} "
        f"halting={r['measured_halting']} draw=inverse-cdf"
        for r in rows]
    # the handler goes when the command ends
    assert run_cli(capsys, *argv) == (0, quiet, "")


def test_a_library_callers_logger_gets_the_lines_verbose_prints(capsys):
    """A caller that loads `logging` after qids and gives the `qids` logger an INFO
    handler gets from `quantum_iterative_deepening` the lines `qids run -v` prints."""
    code, _, verbose = run_cli(capsys, "run", TREE, "--seed", "42", "--no-timestamp", "-v")
    assert code == 0 and "halting=True" in verbose
    run = run_python(f"""
import sys
before = set(sys.modules)
from qids.driver import QidConfig, quantum_iterative_deepening
from qids.production import load_system
assert 'logging' in before or 'logging' not in sys.modules
import logging

logger = logging.getLogger('qids')
logger.addHandler(logging.StreamHandler(sys.stdout))
logger.setLevel(logging.INFO)
system = load_system({TREE!r})
quantum_iterative_deepening(system, system.initial_states[0], QidConfig(seed=42))
""")
    assert run.returncode == 0, run.stderr
    assert run.stdout == verbose


def test_run_unsatisfiable_exits_2(capsys):
    code, out, _ = run_cli(capsys, "run", UNSAT, "--seed", "3", "--depth-cap", "4",
                           "--no-timestamp")
    assert code == 2
    report = json.loads(out)
    assert report["outcome"] == "cap_exceeded"
    assert all(row["k"] == 0 for row in report["per_depth"])


# files written by an older compile-tm carry `rule_match`, now an unknown field
@pytest.mark.parametrize("field, value", [("surprise", 1), ("rule_match", "exact")])
def test_run_malformed_file_exits_1(capsys, tmp_path, field, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "alphabet": ["a"], "rules": [{"pre": "a", "post": ""}],
        "initial": ["a"], "goals": ["a"], field: value,
    }))
    code, _, err = run_cli(capsys, "run", str(bad), "--seed", "1")
    assert code == 1
    assert err.startswith("error:") and field in err


GOOD_SYSTEM = {"alphabet": ["a"], "rules": [{"pre": "a", "post": ""}],
               "initial": ["a"], "goals": ["a"]}


@pytest.mark.parametrize("field, value, rule_field", [
    ("max_memory_len", "x", False),
    ("rules", 5, False),
    ("alphabet", "ab", False),
    ("initial", [1], False),
    ("pre", None, True),
    ("post", 3, True),
])
def test_run_mistyped_system_field_exits_1(capsys, tmp_path, field, value, rule_field):
    data = json.loads(json.dumps(GOOD_SYSTEM))
    (data["rules"][0] if rule_field else data)[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "run", str(bad), "--seed", "1")
    assert code == 1
    assert err.startswith("error:") and repr(field) in err


@pytest.mark.parametrize("field, value", [("tape_window", "z"), ("halts", "h"),
                                          ("start", None)])
def test_compile_mistyped_machine_field_exits_1(capsys, tmp_path, field, value):
    data = json.loads(Path(UNARY_TM).read_text())
    data[field] = value
    bad = tmp_path / "bad.tm.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "compile-tm", str(bad), "-o", str(tmp_path / "out.json"))
    assert code == 1
    assert err.startswith("error:") and repr(field) in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000,
                                     b'{"max_memory_len": ' + b"9" * 5_000 + b"}"],
                         ids=["not-utf8", "nested-100000-deep", "integer-5000-digits"])
@pytest.mark.parametrize("command", [("run", "--seed", "1"),
                                     ("compile-tm", "-o", "out.json"),
                                     ("demo-flaw", "-d", "2", "--seed", "1")])
def test_unreadable_json_file_exits_1(capsys, tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    name, *rest = command
    code, _, err = run_cli(capsys, name, str(bad), *rest)
    assert code == 1
    assert err.startswith("error:") and str(bad) in err


def test_run_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "run", "nowhere.json", "--seed", "1")
    assert code == 1


def test_run_seed_required(capsys):
    code, _, err = run_cli(capsys, "run", TREE)
    assert code == 1
    assert "--seed" in err


@pytest.mark.parametrize("command", [("run", TREE), ("demo-flaw", HALT_DEMO, "-d", "3"),
                                     ("run", TREE, "--classical")])
def test_negative_seed_exits_1(capsys, command):
    code, _, err = run_cli(capsys, *command, "--seed", "-1")
    assert code == 1
    assert err.startswith("error:") and "seed" in err


def test_run_depth_cap_far_over_the_sim_cap_exits_1(capsys):
    # 2 * 2**100000 has too many digits to format into the message
    code, _, err = run_cli(capsys, "run", TREE, "--seed", "1", "--depth-cap", "100000")
    assert code == 1
    assert err.startswith("error:")


ONE_RULE_SYSTEM = {"alphabet": ["a", "b"], "rules": [{"pre": "a", "post": "a"}],
                   "initial": ["a"], "goals": ["b"]}
# two always-applicable rules and a goal that no word ending in E can equal
GOALLESS_TREE = {"alphabet": ["a", "b", "E"],
                 "rules": [{"pre": "E", "post": "aE"}, {"pre": "E", "post": "bE"}],
                 "initial": ["E"], "goals": ["aa"], "max_memory_len": 64}


def test_run_classical_past_the_node_budget_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QIDS_SIM_CAP", "20000")
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(GOALLESS_TREE))
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "run", str(path), "--seed", "1", "--classical",
                           "--depth-cap", "40")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert err.startswith("error:") and "20000" in err


@pytest.mark.parametrize("extra", [(), ("--classical",)])
def test_run_depth_cap_past_the_walk_depth_bound_exits_1(capsys, tmp_path, extra):
    # one rule keeps b**d at 1, so the sim cap allows any depth; the recursive
    # walks would overflow Python's stack at this one
    path = tmp_path / "one_rule.json"
    path.write_text(json.dumps(ONE_RULE_SYSTEM))
    code, _, err = run_cli(capsys, "run", str(path), "--seed", "1", "--depth-cap", "3000",
                           *extra)
    assert code == 1
    assert err.startswith("error:") and "walk-depth bound" in err


@pytest.mark.parametrize("extra", [(), ("--classical",)])
def test_run_start_outside_the_initial_states_exits_1(capsys, extra):
    code, out, err = run_cli(capsys, "run", TREE, "--seed", "1", "--start", "aE", *extra)
    assert code == 1 and out == ""
    assert err == "error: start 'aE' is not one of the system's initial states\n"


def test_run_byte_identical_without_timestamp(capsys):
    _, first, _ = run_cli(capsys, "run", TREE, "--seed", "7", "--depth-cap", "5",
                          "--no-timestamp")
    _, second, _ = run_cli(capsys, "run", TREE, "--seed", "7", "--depth-cap", "5",
                           "--no-timestamp")
    assert first == second


# --- compile-tm -------------------------------------------------------------------

def test_compile_then_run_classical_reproduces_direct_execution(capsys, tmp_path):
    sys_path = tmp_path / "unary.json"
    code, _, _ = run_cli(capsys, "compile-tm", UNARY_TM, "-o", str(sys_path),
                         "--tape", "11")
    assert code == 0
    code, out, _ = run_cli(capsys, "run", str(sys_path), "--classical",
                           "--seed", "1", "--depth-cap", "8", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "found"
    tm = load_tm(UNARY_TM)
    final = decode_config(tm, report["goal_state"])
    assert final.tape.rstrip("_") == "111"


def test_compiled_file_round_trips(capsys, tmp_path):
    sys_path = tmp_path / "unary.json"
    run_cli(capsys, "compile-tm", UNARY_TM, "-o", str(sys_path))
    first = load_system(sys_path)
    resaved = tmp_path / "again.json"
    from qids.production import save_system
    save_system(first, resaved)
    assert load_system(resaved).rules == first.rules


def test_compile_tape_defaults_do_not_carry_over_between_calls(capsys, tmp_path):
    sys_path = tmp_path / "unary.json"
    run_cli(capsys, "compile-tm", UNARY_TM, "-o", str(sys_path), "--tape", "1", "--tape", "11")
    assert len(load_system(sys_path).initial_states) == 2
    run_cli(capsys, "compile-tm", UNARY_TM, "-o", str(sys_path), "--tape", "1")
    assert len(load_system(sys_path).initial_states) == 1


def test_compile_overlapping_tokens_exits_1(capsys, tmp_path):
    clash = tmp_path / "clash.json"
    clash.write_text(json.dumps({
        "states": ["1", "h"], "start": "1", "halts": ["h"], "blank": "_",
        "tape_alphabet": ["1", "_"],
        "delta": [["1", "1", "1", "1", "S"], ["1", "_", "h", "_", "S"]],
        "tape_window": 8,
    }))
    code, _, err = run_cli(capsys, "compile-tm", str(clash), "-o",
                           str(tmp_path / "out.json"))
    assert code == 1
    assert "overlap" in err


# --- demo-flaw ---------------------------------------------------------------------

def test_demo_flaw_straddling_halts(capsys, tmp_path):
    out_path = tmp_path / "demo.json"
    code, out, _ = run_cli(capsys, "demo-flaw", HALT_DEMO, "-d", "3",
                           "--step-cap", "8", "--seed", "5", "--no-timestamp",
                           "-o", str(out_path))
    assert code == 0
    assert "P(halt bit = 1) = 0.5" in out
    payload = json.loads(out_path.read_text())
    assert payload["p_halt"] == 0.5
    assert payload["steps_to_halt"] == [1, 2, 5, 5]
    assert payload["projection_support"]["1"] == [0, 1]
    assert payload["projection_support"]["0"] == [2, 3]


@pytest.mark.parametrize("steps", [("-d", str(10**9)), ("-d", "3", "--step-cap", str(10**9))])
def test_demo_flaw_step_count_past_the_sim_cap_exits_1(capsys, tmp_path, steps):
    # a looping system never halts, so the trace would run to the full step count
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({**ONE_RULE_SYSTEM, "goals": ["aa"]}))
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "demo-flaw", str(path), *steps, "--seed", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert err.startswith("error:") and "step trace" in err


def test_halt_timing_demo_file_matches_the_gate_system():
    # the gate builds its own copy so that it reads no repository file
    from qids.verify import halt_timing_system
    assert load_system(HALT_DEMO) == halt_timing_system()


def test_demo_flaw_all_halting(capsys):
    code, out, _ = run_cli(capsys, "demo-flaw", HALT_DEMO, "-d", "6",
                           "--step-cap", "8", "--seed", "5")
    assert code == 0
    assert "P(halt bit = 1) = 1.0" in out


# --- predict ------------------------------------------------------------------------

def test_predict_b2_d2(capsys):
    code, out, _ = run_cli(capsys, "predict", "2", "2", "1")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "n_paths,k,m,asymptotic,exact,simulated"
    fields = row.split(",")
    assert fields[0] == "4"
    assert float(fields[3]) == pytest.approx(0.6833, abs=1e-4)
    assert float(fields[4]) == pytest.approx(1.0, abs=1e-9)
    assert float(fields[5]) == pytest.approx(1.0, abs=1e-9)


def test_predict_gap_small_at_depth8(capsys):
    _, out, _ = run_cli(capsys, "predict", "2", "8", "1")
    fields = out.strip().splitlines()[1].split(",")
    assert abs(float(fields[3]) - float(fields[4])) <= 0.05


def test_predict_k_zero_marks_undefined_column(capsys):
    _, out, _ = run_cli(capsys, "predict", "2", "4", "0")
    fields = out.strip().splitlines()[1].split(",")
    assert fields[3] == "n/a"
    assert float(fields[4]) == 0.0


def test_predict_over_cap_marks_simulated(capsys, monkeypatch):
    monkeypatch.setenv("QIDS_SIM_CAP", "64")
    _, out, _ = run_cli(capsys, "predict", "2", "10", "1")
    fields = out.strip().splitlines()[1].split(",")
    assert fields[5] == "over-cap"


@pytest.mark.parametrize("b, d", [("10", "400"), ("3", "20000000")])
def test_predict_beyond_float_range_exits_1(capsys, b, d):
    code, _, err = run_cli(capsys, "predict", b, d, "1")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds allocations on Linux only")
def test_running_out_of_memory_is_an_error_line():
    """A cap past what the process may allocate ends in one `error:` line that names
    QIDS_SIM_CAP, not a traceback. The address-space limit is set in the child only."""
    run = run_python(
        "import os, resource, sys; os.environ['QIDS_SIM_CAP'] = str(2**40); "
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
        "resource.setrlimit(resource.RLIMIT_AS, "
        "(3 * 10**9, resource.getrlimit(resource.RLIMIT_AS)[1])); "
        "import qids.cli; sys.exit(qids.cli.main(['predict', '2', '30', '1']))")
    assert run.returncode == 1, run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "QIDS_SIM_CAP" in lines[0]


# --- bench --------------------------------------------------------------------------

def test_bench_ratios_within_bound(capsys):
    code, out, _ = run_cli(capsys, "bench", "--branching", "2", "--depth-max", "14", "--seed", "0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[0][2] == "0"  # depth 0 costs nothing
    totals = [int(r[2]) for r in rows]
    assert totals == sorted(totals)
    assert all(r[5] == "True" for r in rows)


def test_bench_b3(capsys):
    _, out, _ = run_cli(capsys, "bench", "--branching", "3", "--depth-max", "9", "--seed", "0")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(float(r[4]) <= 4.0 for r in rows)


def test_bench_prints_every_row(capsys):
    # b**d past the sim cap is no reason to drop a row: the table allocates nothing
    code, out, _ = run_cli(capsys, "bench", "--seed", "0", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["b"], r["d"]) for r in rows] == [(b, d) for b in (2, 3) for d in range(15)]
    assert rows[-1] == {"b": 3, "d": 14, "total_calls": 4056, "sqrt_bd": 2187.0,
                        "ratio": 4056 / 2187, "within_bound": True}


@pytest.mark.parametrize("argv", [("--depth-max", "1100"),
                                  ("--branching", "10000", "--depth-max", "80")])
def test_bench_beyond_float_range_exits_1(capsys, argv):
    code, _, err = run_cli(capsys, "bench", "--seed", "1", *argv)
    assert code == 1
    assert err.startswith("error:") and "floating-point range" in err


# --- verify -------------------------------------------------------------------------

def test_verify_subset_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "grover-correctness",
                           "--only", "cumulative-call-budget")
    assert code == 0
    assert out.count("PASS") == 3  # two checks + summary


def test_verify_injected_fault_fails_every_dense_check_and_runs_them_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inject-fault", "diffusion")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 11  # ten checks + summary
    failed = {line.split()[1] for line in lines[:-1] if line.startswith("FAIL")}
    assert failed == {"grover-correctness", "measurement-statistics",
                      "unitarity-drift", "engine-agreement"}
    assert lines[-1].startswith("FAIL 6/10")


def test_verify_unknown_check_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "no-such-check")
    assert code == 1
    assert err.startswith("error: unknown check(s): no-such-check")
    assert all(name in err for name in ALL_CHECKS)


def _cells_with_statistic(statistic, df):
    """Counts, probabilities and draws for df + 1 cells expecting 100 each, at this statistic."""
    shift = math.sqrt(50 * statistic)  # moving shift between two cells adds 2 * shift**2 / 100
    counts = np.full(df + 1, 100.0)
    counts[0] += shift
    counts[1] -= shift
    return counts, np.full(df + 1, 1 / (df + 1)), 100 * (df + 1)


# scipy.stats.chi2.sf(statistic, df) from scipy 1.17.1
@pytest.mark.parametrize("statistic, df, expected", [
    (3.841458820694124, 1, 0.04999999999999989),
    (10.0, 4, 0.04042768199451279),
    (7.5, 7, 0.37873690604821353),
    (100.0, 63, 0.002077236552784822),
    (61.09830608105814, 31, 0.0009999999999999961),
    (0.0, 5, 1.0),
])
def test_chi_square_tail_matches_reference_values(statistic, df, expected):
    p = _chi_square_pvalue(*_cells_with_statistic(statistic, df))
    assert p == pytest.approx(expected, rel=1e-12)


def test_chi_square_passes_draws_from_the_stated_probabilities_and_fails_shifted_ones():
    rng = np.random.default_rng(3)
    probs = np.linspace(1, 3, 24)
    probs /= probs.sum()
    shifted = probs * np.where(np.arange(24) < 12, 1.1, 0.9)
    shifted /= shifted.sum()
    assert _chi_square_pvalue(rng.multinomial(10_000, probs), probs, 10_000) > 0.001
    assert _chi_square_pvalue(rng.multinomial(10_000, shifted), probs, 10_000) < 0.001


def test_chi_square_merges_cells_expected_below_5():
    probs = np.array([0.5, 0.4998, 0.0001, 0.0001])
    counts = np.array([4950.0, 5046.0, 3.0, 1.0])
    merged = _chi_square_pvalue(np.array([4950.0, 5046.0, 4.0]), np.array([0.5, 0.4998, 0.0002]),
                                10_000)
    assert _chi_square_pvalue(counts, probs, 10_000) == merged
    # every cell expected below 5 merges into one, which cannot misfit
    assert _chi_square_pvalue(np.array([4.0, 0.0]), np.array([0.5, 0.5]), 4) == 1.0


def test_measurement_statistics_fails_a_sampler_off_the_born_rule(monkeypatch):
    def tilted(state, rng):  # the first half of the labels drawn 2.25 times as often as stated
        weights = np.where(np.arange(len(state)) < len(state) // 2, 1.5, 1.0)[:, None]
        return measure(state * weights / np.linalg.norm(state * weights), rng)

    monkeypatch.setattr("qids.verify.measure", tilted)
    passed, detail = check_measurement_statistics()
    assert not passed and "chi-square p =" in detail


# --- fuzz ---------------------------------------------------------------------------

_WORDS = st.text("abE", max_size=3)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORDS, inner, max_size=2),
    max_leaves=4)


@st.composite
def _system_dicts(draw):
    """Small system definitions, one-rule systems included; a quarter have one
    field replaced by an arbitrary JSON value."""
    data = {
        "alphabet": ["a", "b", "E"],
        "rules": draw(st.lists(st.fixed_dictionaries(
            {"pre": st.text("abE", min_size=1, max_size=2), "post": _WORDS}),
            min_size=1, max_size=3)),
        "initial": [draw(st.text("abE", min_size=1, max_size=3))],
        "goals": draw(st.lists(_WORDS, min_size=1, max_size=2, unique=True)),
        "max_memory_len": draw(st.integers(1, 8)),
    }
    if draw(st.integers(0, 3)) == 0:
        data[draw(st.sampled_from(sorted(data)))] = draw(_JSON_VALUES)
    return data


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


# Depth caps are small, or deep enough that the sim cap or the walk-depth bound
# refuses them; the classical search stops at the sim cap's number of expansions.
_DEPTH_CAPS = st.integers(-1, 6) | st.sampled_from([40, 501, 10**6])


@st.composite
def _run_argv(draw):
    argv = ["run", "{system}", "--seed", str(draw(st.integers(-1, 50))), "--no-timestamp"]
    argv += draw(st.sampled_from([[], ["--classical"]]))
    argv += draw(_flag("--depth-cap", _DEPTH_CAPS))
    argv += draw(_flag("--counting-mode", st.sampled_from(["exact", "assume-one", "some"])))
    argv += draw(_flag("--iterate-policy", st.sampled_from(["optimal", "faithful"])))
    argv += draw(st.sampled_from([[], ["--run-empty-depths"]]))
    return argv


_BRANCHING = (st.lists(st.integers(-1, 6) | st.just(10**4), max_size=3)
              .map(lambda bs: ",".join(map(str, bs)))
              | st.sampled_from(["x", "2,,3", " 3", "2.5"]))

_BENCH_ARGV = st.tuples(
    st.just(["bench", "--seed", "0"]),
    _flag("--branching", _BRANCHING),
    _flag("--depth-max", st.integers(-2, 20) | st.sampled_from([80, 1100])),
    _flag("--iterate-policy", st.sampled_from(["optimal", "faithful"])),
    _flag("--format", st.sampled_from(["csv", "json", "xml"])),
).map(lambda parts: sum(parts, []))

# Step counts past the sim cap are refused before the trace.
_DEMO_ARGV = st.tuples(
    st.just(["demo-flaw", "{system}"]),
    _flag("-d", st.integers(-1, 8) | st.sampled_from([10**6, 10**9])),
    _flag("--step-cap", st.integers(-1, 8) | st.just(10**9)),
    _flag("--seed", st.integers(-1, 50)),
    st.sampled_from([[], ["--no-timestamp"], ["-o", "{out}"]]),
).map(lambda parts: sum(parts, []))

_PREDICT_ARGV = st.tuples(
    st.integers(-1, 6) | st.just(10),
    st.integers(-1, 12) | st.sampled_from([400, 10**6]),
    st.integers(-1, 10) | st.just(10**6),
    _flag("--format", st.sampled_from(["csv", "json"])),
).map(lambda t: ["predict", str(t[0]), str(t[1]), str(t[2]), *t[3]])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system=_system_dicts(), argv=_run_argv() | _DEMO_ARGV | _BENCH_ARGV | _PREDICT_ARGV,
       sim_cap=st.sampled_from(["64", "4096", "0", "many"]))
def test_cli_fuzz_never_raises(capsys, monkeypatch, tmp_path, system, argv, sim_cap):
    monkeypatch.setenv("QIDS_SIM_CAP", sim_cap)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    fill = {"{system}": str(path), "{out}": str(tmp_path / "out.json")}
    code, _, err = run_cli(capsys, *(fill.get(a, a) for a in argv))
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith(("error:", "usage:"))


_MACHINE = json.loads(Path(UNARY_TM).read_text(encoding="utf-8"))


@st.composite
def _machine_dicts(draw):
    """The unary-increment machine as it is, with one field replaced by an
    arbitrary JSON value, or with one cell of a delta row replaced by a state,
    tape or marker symbol (a move for the last cell)."""
    data = json.loads(json.dumps(_MACHINE))
    change = draw(st.sampled_from(["none", "field", "cell"]))
    if change == "field":
        data[draw(st.sampled_from(sorted(data)))] = draw(_JSON_VALUES)
    elif change == "cell":
        row = draw(st.sampled_from(data["delta"]))
        cell = draw(st.integers(0, 4))
        row[cell] = draw(st.sampled_from("LRSX" if cell == 4 else "qh1_^$x"))
    return data


# tape words over the tape symbols, and over a state token and the markers too
_TAPES = st.text("1_", max_size=4) | st.text("1_q^$", max_size=4)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(machine=_machine_dicts(), tapes=st.lists(_TAPES, max_size=2))
def test_cli_fuzz_compile_tm_never_raises(capsys, tmp_path, machine, tapes):
    machine_path, system_path = tmp_path / "machine.json", tmp_path / "system.json"
    machine_path.write_text(json.dumps(machine))
    tape_args = [arg for tape in tapes for arg in ("--tape", tape)]
    code, _, err = run_cli(capsys, "compile-tm", str(machine_path), "-o", str(system_path),
                           *tape_args)
    assert code in (0, 1) and (code == 0 or err.startswith("error:"))
    if code == 0:
        for extra in ((), ("--classical",)):
            code, _, err = run_cli(capsys, "run", str(system_path), "--seed", "1",
                                   "--depth-cap", "3", "--no-timestamp", *extra)
            assert code in (0, 1, 2) and (code != 1 or err.startswith("error:"))


# --- dependencies -------------------------------------------------------------------

def test_verify_measurement_statistics_runs_without_scipy():
    run = run_python("import sys; sys.modules['scipy'] = None; import qids.cli; "
                     "sys.exit(qids.cli.main(['verify', '--only', 'measurement-statistics']))")
    assert run.returncode == 0, run.stderr
    assert "PASS measurement-statistics" in run.stdout


def test_run_loads_neither_numpy_nor_the_reference_engine_nor_the_gate(tmp_path):
    """`import qids.cli`, a seeded `qids run` and the amplified run of a compiled machine
    leave numpy, `qids.statevector` and `qids.verify` unloaded."""
    system = str(tmp_path / "unary.json")
    run = run_python(f"""
import contextlib, io, sys
import qids.cli

def loaded():
    return sorted(m for m in ('numpy', 'qids.statevector', 'qids.verify') if m in sys.modules)

seen = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qids.cli.main(['run', {TREE!r}, '--seed', '42', '--depth-cap', '6']),
             qids.cli.main(['compile-tm', {UNARY_TM!r}, '-o', {system!r}, '--tape', '11']),
             qids.cli.main(['run', {system!r}, '--seed', '1', '--depth-cap', '8'])]
print(codes, seen + [loaded()])
""")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0, 0] [[], []]\n"


# SHA-256 of compile-tm's output for the unary machine on tape 11, which importing the
# compiler only inside compile-tm must leave unchanged
UNARY_11_SHA256 = "a1e6f4acb45cf141c2b6b9ef277f758e765f21566a143297096e2b4e58e1d720"


def test_run_loads_no_logging_dataclasses_or_compiler(tmp_path):
    """`import qids.cli`, a seeded amplified `qids run` and a `--classical` run load none
    of `logging`, `dataclasses`, `inspect`, `typing` and `qids.turing`; a later
    `compile-tm` loads the compiler and writes the bytes it always wrote. The interpreter
    skips `site` (`-S`), whose hooks may preload any of them, and only modules loaded
    after the first snapshot count, so a preloaded one fails nothing."""
    system = tmp_path / "unary.json"
    run = run_python(f"""
import contextlib, io, sys
before = set(sys.modules)
import qids.cli

def loaded():
    return sorted(m for m in ('logging', 'dataclasses', 'inspect', 'typing', 'qids.turing')
                  if m in sys.modules and m not in before)

seen = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qids.cli.main(['run', {TREE!r}, '--seed', '42', '--depth-cap', '6'])]
    seen.append(loaded())
    codes.append(qids.cli.main(['run', {TREE!r}, '--seed', '42', '--classical']))
    seen.append(loaded())
    codes.append(qids.cli.main(['compile-tm', {UNARY_TM!r}, '-o', {str(system)!r},
                                '--tape', '11']))
print(codes, seen, loaded())
""", "-S")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[0, 0, 0] [[], [], []] ['qids.turing']\n"
    assert hashlib.sha256(system.read_bytes()).hexdigest() == UNARY_11_SHA256


def test_readme_python_blocks_run(monkeypatch):
    """Each ```python block of README.md runs, from the repository root."""
    readme = DEMOS.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(readme.parent)
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
