"""Seeded reports stay byte-identical to the committed golden files.

The files under tests/golden/ were written by the dense statevector engine,
before the driver sampled from the closed-form probabilities instead. A
fresh run of each case must reproduce its file byte for byte: the demo
systems through the command line, and a few acceptance-corpus systems under
each counting mode, iterate policy and empty-depth setting.

    python tests/test_golden.py --write    # rewrite the files from this tree

Rewrite them only for a change that is meant to alter seeded output.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = ROOT / "demos"

# name -> argv; each run adds "--no-timestamp -o FILE" and FILE is compared
CLI_CASES = {
    "tree_search_seed42": ["run", str(DEMOS / "tree_search.json"), "--seed", "42",
                           "--depth-cap", "6"],
    "tree_search_seed7_assume_one_faithful_empty": [
        "run", str(DEMOS / "tree_search.json"), "--seed", "7", "--depth-cap", "8",
        "--counting-mode", "assume-one", "--iterate-policy", "faithful",
        "--run-empty-depths"],
    "unsatisfiable_seed3_empty": ["run", str(DEMOS / "unsatisfiable.json"), "--seed", "3",
                                  "--depth-cap", "6", "--run-empty-depths"],
    "halt_timing_run_seed2": ["run", str(DEMOS / "halt_timing.json"), "--seed", "2",
                              "--start", "aaaaaG", "--depth-cap", "6"],
    "halt_timing_demo_flaw_seed5": ["demo-flaw", str(DEMOS / "halt_timing.json"),
                                    "-d", "3", "--step-cap", "8", "--seed", "5"],
    "unary_increment_seed11": ["run", "{compiled}", "--seed", "11", "--depth-cap", "9"],
    "tree_search_seed1_classical": ["run", str(DEMOS / "tree_search.json"), "--seed", "1",
                                    "--classical", "--depth-cap", "6"],
    "unsatisfiable_seed3_classical": ["run", str(DEMOS / "unsatisfiable.json"), "--seed", "3",
                                      "--classical", "--depth-cap", "6"],
    "unary_increment_seed11_classical": ["run", "{compiled}", "--seed", "11", "--classical",
                                         "--depth-cap", "9"],
}

CORPUS_ENTRIES = range(8)
CORPUS_MODES = {
    "default": {},
    "assume_one": {"counting_mode": "assume_one"},
    "faithful": {"iterate_policy": "faithful"},
    "run_empty_depths": {"skip_empty_depths": False},
}


def cli_report(name: str, workdir: Path) -> str:
    from qids.cli import main
    argv = list(CLI_CASES[name])
    if "{compiled}" in argv:
        compiled = workdir / "unary_increment.json"
        assert main(["compile-tm", str(DEMOS / "unary_increment.tm.json"),
                     "-o", str(compiled), "--tape", "1111111"]) == 0
        argv[argv.index("{compiled}")] = str(compiled)
    out = workdir / f"{name}.json"
    assert main(argv + ["--no-timestamp", "-o", str(out)]) in (0, 2)
    return out.read_text(encoding="utf-8")


def corpus_reports(mode: str) -> str:
    """Concatenated reports of the first corpus systems, each at the gate's seed and cap."""
    from qids.driver import QidConfig, quantum_iterative_deepening, report_to_json
    from qids.verify import RUN_SEED_BASE, acceptance_corpus
    texts = []
    for i in CORPUS_ENTRIES:
        entry = acceptance_corpus()[i]
        config = QidConfig(seed=RUN_SEED_BASE + 1000 * i, depth_cap=entry.d_star + 3,
                           **CORPUS_MODES[mode])
        report = quantum_iterative_deepening(entry.system, entry.start, config)
        texts.append(report_to_json(report, include_volatile=False))
    return "".join(texts)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_report_matches_golden(name, tmp_path, capsys):
    fresh = cli_report(name, tmp_path)
    capsys.readouterr()
    assert fresh == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", sorted(CORPUS_MODES))
def test_corpus_reports_match_golden(mode):
    fresh = corpus_reports(mode)
    assert fresh == (GOLDEN / f"corpus_{mode}.txt").read_text(encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import contextlib
    import io
    import tempfile
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for case in CLI_CASES:
            (GOLDEN / f"{case}.json").write_text(cli_report(case, Path(tmp)), encoding="utf-8")
    for corpus_mode in CORPUS_MODES:
        (GOLDEN / f"corpus_{corpus_mode}.txt").write_text(corpus_reports(corpus_mode),
                                                           encoding="utf-8")
