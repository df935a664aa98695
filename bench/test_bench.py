"""Tests of the search benchmark: its checks, its printed metrics, short runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def first_reports(tmp_path_factory):
    """Workload, input and report dict of one real operation per workload."""
    found = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 11, tmp_path_factory.mktemp(name))
        inp = wl.make_input(0)
        out = wl.run(inp)
        if name == "corpus_sweep":
            # a tree with one goal word: any flipped digit misses it
            j = next(j for j, e in enumerate(wl.entries) if e.kind == "tree" and len(e.goals) == 1)
            found[name] = (wl, j, workloads.report_summary(out[j]))
        else:
            found[name] = (wl, inp, workloads.parse_cli(out))
    return found


def flip_digit(report):
    witness = list(report["witness"])
    witness[0] = 1 - witness[0] if witness[0] in (0, 1) else 0
    return {**report, "witness": witness}


def shift_d_star(report):
    return {**report, "d_star": report["d_star"] + 1}


def cap_exceeded(report):
    return {**report, "outcome": "cap_exceeded", "found": False, "d_star": None,
            "witness": None, "goal_state": None, "measured_depth": None}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("corrupt, counts_as_failed",
                         [(flip_digit, False), (shift_d_star, False), (cap_exceeded, True)])
def test_check_rejects_a_corrupted_report(first_reports, workload, corrupt, counts_as_failed):
    wl, inp, report = first_reports[workload]
    assert wl.check_report(inp, report)[:2] == (False, [])
    failed, problems, _ = wl.check_report(inp, corrupt(report))
    assert failed == counts_as_failed
    assert bool(problems) != counts_as_failed


def test_check_accepts_a_search_measured_past_the_goal_depth(tmp_path):
    # this seed measures a miss at depth 8, so the search goes on to its cap, 9
    wl = workloads.make("tm_compiled", 608, tmp_path)
    inp = {"path": wl.path, "seed": 1656665847}
    report = workloads.parse_cli(wl.run(inp))
    assert report["measured_depth"] == 9 and report["d_star"] == 8
    assert wl.check_report(inp, report) == (False, [], 10)
    assert wl.check_report(inp, shift_d_star(report))[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_of_every_workload_has_no_failures(workload):
    result = worker.work("run", workload, 5, False, 0.5)
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["wrong"] == 0


def test_traced_run_reports_every_layer():
    result = worker.work("run", "corpus_sweep", 5, True, 0.5)
    assert result["wrong"] == 0
    assert 0.5 < result["covered"] < 1
    names = set(run.per_layer(result, [result]))
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_printed_metric_names_match_benchmark_json():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "corpus_sweep",
                           "--seed", "2", "--seconds", "0.5", "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tree_search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


def test_reference_counts_match_the_program_bitmaps(tmp_path):
    from qids.production import marked_vector

    wl = workloads.make("corpus_sweep", 3, tmp_path)
    for entry, system in zip(wl.entries, wl.systems):
        program = [int(marked_vector(system, entry.start, d).sum())
                   for d in range(entry.cap + 1)]
        assert program == entry.ks


def test_reference_machine_run_and_decoding():
    assert ref.run_machine(ref.UNARY_INCREMENT, "q", {"h"}, "_", "1111111", 100) == \
        ("h", "11111111", 8)
    assert ref.decode_memory("^1111111h1$", ref.UNARY_STATES) == ("h", "11111111")
