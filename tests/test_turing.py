"""Machine execution, the rules compiler, and the step-for-step bisimulation."""

import numpy as np
import pytest

from qids.errors import EncodingClash, InputError, MalformedEncoding, TapeOverflow
from qids.production import classical_ids, deterministic_trace, execute_sequence
from qids.turing import (DeltaEntry, TMConfiguration, TuringMachineSpec,
                         compile_tm, decode_config, encode_config,
                         initial_memory, load_tm, save_tm, tm_from_dict,
                         tm_to_dict, tm_trace)
from qids.verify import tm_corpus


def make_tm(entries, states=("q", "h"), start="q", halts=("h",),
            alphabet=("1", "_"), blank="_", window=24):
    return TuringMachineSpec(
        states=states, start=start, halts=frozenset(halts), blank=blank,
        tape_alphabet=alphabet,
        entries=tuple(DeltaEntry(*e) for e in entries),
        tape_window=window,
    )


@pytest.fixture
def unary_inc():
    return make_tm([("q", "1", "q", "1", "R"), ("q", "_", "h", "1", "S")])


# --- spec validation -----------------------------------------------------------

def test_table_must_be_total():
    with pytest.raises(InputError, match="not total"):
        make_tm([("q", "1", "q", "1", "R")])


def test_halt_states_cannot_transition():
    with pytest.raises(InputError, match="halt state"):
        make_tm([("q", "1", "q", "1", "R"), ("q", "_", "h", "1", "S"),
                 ("h", "1", "h", "1", "S")])


def test_blank_must_be_on_tape():
    with pytest.raises(InputError, match="blank"):
        make_tm([("q", "1", "h", "1", "S")], alphabet=("1",), blank="_")


def test_nondeterministic_machine_flagged():
    tm = make_tm([("q", "1", "q", "1", "R"), ("q", "1", "h", "1", "S"),
                  ("q", "_", "h", "_", "S")])
    assert not tm.is_deterministic
    with pytest.raises(InputError, match="deterministic"):
        tm_trace(tm, "1", 10)


# --- direct execution ------------------------------------------------------------

def test_unary_increment_hand_trace(unary_inc):
    # q scans 1s rightward, writes a 1 over the first blank, halts
    trace = tm_trace(unary_inc, "11", 100)
    assert trace[-1].tape.rstrip("_") == "111"
    assert [(c.state, c.head) for c in trace] == [("q", 0), ("q", 1), ("q", 2), ("h", 2)]


def test_start_state_is_halt_state():
    tm = make_tm([], states=("h",), start="h", halts=("h",))
    trace = tm_trace(tm, "11", 10)
    assert len(trace) == 1 and trace[0].tape == "11"


def test_loop_forever_hits_cap():
    tm = make_tm([("q", "1", "q", "1", "S"), ("q", "_", "q", "_", "S")])
    trace = tm_trace(tm, "1", 50)
    assert len(trace) == 51 and trace[-1].state not in tm.halts


def test_right_edge_extends_then_overflows(unary_inc):
    small = make_tm([("q", "1", "q", "1", "R"), ("q", "_", "q", "1", "R")], window=4)
    with pytest.raises(TapeOverflow):
        tm_trace(small, "1", 100)
    # blanks are revealed one per rightward move until the window fills
    trace = tm_trace(small, "1", 3)
    assert trace[-1].tape == "111_" and trace[-1].head == 3


def test_left_edge_extends_then_overflows():
    lefty = make_tm([("q", "1", "q", "1", "L"), ("q", "_", "q", "1", "L")], window=3)
    with pytest.raises(TapeOverflow):
        tm_trace(lefty, "1", 100)
    trace = tm_trace(lefty, "1", 2)
    assert trace[-1].tape == "_11" and trace[-1].head == 0


def test_empty_input_becomes_single_blank(unary_inc):
    assert tm_trace(unary_inc, "", 5)[0].tape == "_"


# --- encode / decode ---------------------------------------------------------------

def test_encode_definitional(unary_inc):
    cfg = TMConfiguration(tape="1_", head=0, state="q")
    assert encode_config(unary_inc, cfg) == "q1_"
    assert encode_config(unary_inc, TMConfiguration("1_", 1, "q")) == "1q_"


def test_decode_rejects_missing_or_multiple_state_tokens(unary_inc):
    with pytest.raises(MalformedEncoding):
        decode_config(unary_inc, "11")
    with pytest.raises(MalformedEncoding):
        decode_config(unary_inc, "q1q1")


def test_decode_rejects_head_past_end(unary_inc):
    with pytest.raises(MalformedEncoding):
        decode_config(unary_inc, "11q")


def test_encode_decode_round_trip(unary_inc):
    gen = np.random.default_rng(5)
    for _ in range(100):
        tape = "".join(gen.choice(("1", "_"), size=int(gen.integers(1, 12))))
        cfg = TMConfiguration(tape, int(gen.integers(len(tape))), "q")
        assert decode_config(unary_inc, encode_config(unary_inc, cfg)) == cfg


def test_decode_strips_markers(unary_inc):
    assert decode_config(unary_inc, "^q11$") == TMConfiguration("11", 0, "q")


# --- compiler ----------------------------------------------------------------------

def test_stay_entry_compiles_to_single_rewrite():
    tm = make_tm([("q", "1", "p", "_", "S"), ("q", "_", "h", "_", "S"),
                  ("p", "1", "h", "1", "S"), ("p", "_", "h", "_", "S")],
                 states=("q", "p", "h"))
    system = compile_tm(tm)
    entry_rules = [r for r in system.rules if r.precondition.startswith("q1")]
    assert [(r.precondition, r.action) for r in entry_rules] == [("q1", "p_")]


def test_compiled_rule_counts_per_move():
    tm = make_tm([("q", "1", "q", "1", "R"), ("q", "_", "h", "1", "S")])
    system = compile_tm(tm)
    # R entry: one rule per tape symbol plus the frontier rule; S entry: one
    assert len(system.rules) == (len(tm.tape_alphabet) + 1) + 1


def test_compile_is_deterministic_and_injective():
    tm1 = make_tm([("q", "1", "q", "1", "R"), ("q", "_", "h", "1", "S")])
    tm2 = make_tm([("q", "1", "q", "_", "R"), ("q", "_", "h", "1", "S")])
    assert compile_tm(tm1).rules == compile_tm(tm1).rules
    assert set(compile_tm(tm1).rules) != set(compile_tm(tm2).rules)


def test_compiled_system_is_deterministic_per_config(unary_inc):
    system = compile_tm(unary_inc, input_tapes=("111",))
    memory = initial_memory(unary_inc, "111")
    from qids.production import apply_rule
    for _ in range(8):
        applicable = [r for r in system.rules if apply_rule(system, memory, r) is not None]
        if not applicable:
            break
        assert len(applicable) == 1
        memory = apply_rule(system, memory, applicable[0])


def test_encoding_clash_on_overlapping_tokens():
    tm = make_tm([("1", "1", "1", "1", "S"), ("1", "_", "h", "_", "S")],
                 states=("1", "h"), start="1")
    with pytest.raises(EncodingClash) as err:
        compile_tm(tm)
    assert "1" in err.value.state_tokens


def test_encoding_clash_on_multichar_state():
    tm = make_tm([("q0", "1", "q0", "1", "R"), ("q0", "_", "h", "1", "S")],
                 states=("q0", "h"), start="q0")
    with pytest.raises(EncodingClash):
        compile_tm(tm)


def test_compiled_ids_reaches_incremented_tape(unary_inc):
    system = compile_tm(unary_inc, input_tapes=("11",))
    start = initial_memory(unary_inc, "11")
    result = classical_ids(system, start, 6)
    assert result.found and result.d_star == 3
    replay = execute_sequence(system, start, result.witness)
    final = decode_config(unary_inc, replay.trace[replay.halt_depth])
    assert final.tape.rstrip("_") == "111"
    assert final.state == "h"


# --- bisimulation -------------------------------------------------------------------

@pytest.mark.parametrize("name,tm,tapes", tm_corpus(), ids=[c[0] for c in tm_corpus()])
def test_bisimulation_step_for_step(name, tm, tapes):
    system = compile_tm(tm, input_tapes=tuple(tapes))
    for tape in tapes:
        direct = tm_trace(tm, tape, 200)
        rewritten = deterministic_trace(system, initial_memory(tm, tape), 200)
        assert len(direct) == len(rewritten.trace), f"{name} tape {tape!r}"
        for step, memory in enumerate(rewritten.trace):
            assert decode_config(tm, memory) == direct[step]
        assert direct[-1].state in tm.halts
        assert rewritten.goal_step == len(direct) - 1


def test_edge_overflow_matches_compiled():
    # rightbound machine on a tiny window: direct raises TapeOverflow at the
    # step where the compiled memory string can no longer grow
    tm = make_tm([("q", "1", "q", "1", "R"), ("q", "_", "q", "1", "R")], window=4)
    with pytest.raises(TapeOverflow):
        tm_trace(tm, "1", 100)
    survivable = 0
    while True:
        try:
            direct = tm_trace(tm, "1", survivable + 1)
        except TapeOverflow:
            break
        survivable += 1
    system = compile_tm(tm, input_tapes=("1",))
    rewritten = deterministic_trace(system, initial_memory(tm, "1"), 100)
    assert rewritten.stop_reason == "overflow"
    assert len(rewritten.trace) == len(direct) == survivable + 1
    for step, memory in enumerate(rewritten.trace):
        assert decode_config(tm, memory) == direct[step]


# --- machine files --------------------------------------------------------------------

def test_tm_file_round_trip(tmp_path, unary_inc):
    path = tmp_path / "machine.json"
    save_tm(unary_inc, path)
    assert load_tm(path) == unary_inc


def test_tm_dict_rejects_unknown_fields(unary_inc):
    data = tm_to_dict(unary_inc)
    data["nickname"] = "adder"
    with pytest.raises(InputError, match="nickname"):
        tm_from_dict(data)


def test_tm_dict_rejects_malformed_delta(unary_inc):
    data = tm_to_dict(unary_inc)
    data["delta"][0] = ["q", "1", "q"]
    with pytest.raises(InputError, match="delta"):
        tm_from_dict(data)
