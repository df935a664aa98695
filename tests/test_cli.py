"""End-to-end command-line behaviour: exit codes, files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_run_unsatisfiable_exits_2(capsys):
    code, out, _ = run_cli(capsys, "run", UNSAT, "--seed", "3", "--depth-cap", "4",
                           "--no-timestamp")
    assert code == 2
    report = json.loads(out)
    assert report["outcome"] == "cap_exceeded"
    assert all(row["k"] == 0 for row in report["per_depth"])


def test_run_malformed_file_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "alphabet": ["a"], "rules": [{"pre": "a", "post": ""}],
        "initial": ["a"], "goals": ["a"], "surprise": 1,
    }))
    code, _, err = run_cli(capsys, "run", str(bad), "--seed", "1")
    assert code == 1
    assert "surprise" in err


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


def test_run_byte_identical_without_timestamp(capsys):
    _, first, _ = run_cli(capsys, "run", TREE, "--seed", "7", "--depth-cap", "5",
                          "--no-timestamp")
    _, second, _ = run_cli(capsys, "run", TREE, "--seed", "7", "--depth-cap", "5",
                           "--no-timestamp")
    assert first == second


def test_run_report_round_trips_through_parser(capsys):
    from qids.driver import report_from_json, report_to_json
    _, out, _ = run_cli(capsys, "run", TREE, "--seed", "11", "--depth-cap", "5",
                        "--no-timestamp")
    assert report_to_json(report_from_json(out), include_volatile=False) == out


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


def test_verify_injected_fault_fails_every_dense_check_and_runs_all_nine(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inject-fault", "diffusion")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 10  # nine checks + summary
    failed = {line.split()[1] for line in lines[:-1] if line.startswith("FAIL")}
    assert failed == {"grover-correctness", "measurement-statistics",
                      "unitarity-drift", "engine-agreement"}
    assert lines[-1].startswith("FAIL 5/9")


def test_verify_unknown_check_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "no-such-check")
    assert code == 1


# --- start-up -------------------------------------------------------------------------

def test_import_cli_does_not_load_scipy():
    # scipy serves only the chi-square check and takes about a second to import
    code = "import sys, qids.cli; sys.exit('scipy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
