"""End-to-end command-line behaviour: exit codes, files, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qids.cli import main
from qids.production import load_system
from qids.turing import decode_config, load_tm

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


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-100000-deep"])
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


@pytest.mark.parametrize("command", [("run", TREE), ("demo-flaw", HALT_DEMO, "-d", "3")])
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


def test_verify_detects_injected_fault(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "grover-correctness",
                           "--inject-fault", "diffusion")
    assert code == 1
    assert "FAIL grover-correctness" in out


def test_verify_engine_agreement_detects_injected_fault(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "engine-agreement",
                           "--inject-fault", "diffusion")
    assert code == 1
    assert "FAIL engine-agreement" in out


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


# --- start-up -------------------------------------------------------------------------

def test_import_cli_does_not_load_scipy():
    # scipy serves only the chi-square check and takes about a second to import
    code = "import sys, qids.cli; sys.exit('scipy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
