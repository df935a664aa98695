"""Turing machines: direct execution and compilation to production rules.

A machine configuration is embedded in a memory string as

    '^' + tape[:head] + state + tape[head:] + '$'

with the state token immediately left of the scanned cell. Every transition
table entry becomes a handful of purely local rewrite rules:

    (q, a) -> (p, b, S)   one rule       qa  -> pb
    (q, a) -> (p, b, R)   per symbol y   qay -> bpy   and edge rule qa$ -> bp_$
    (q, a) -> (p, b, L)   per symbol x   xqa -> pxb   and edge rule ^qa -> ^p_b

The edge rules reveal a fresh blank in the same step the head crosses the
frontier, so the tape grows lazily on both sides exactly as the direct
runner's does, up to `tape_window` cells; one past that is an overflow in
both worlds. Because a valid memory string contains exactly one state token,
at most one rule per transition value ever applies, and a deterministic
table compiles to a deterministic system. Multi-valued table entries are
allowed and simply contribute one rule group per value (that is where
branching factors above 1 come from).

Machine definition files are JSON objects with fields `states`, `start`,
`halts`, `blank`, `tape_alphabet`, `delta` (list of [state, read, next,
write, move]) and `tape_window`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import EncodingClash, InputError, MalformedEncoding, TapeOverflow
from .jsonfields import (check_object, load_json_file, read_field, read_list_of,
                         save_json_file)
from .production import Alphabet, ProductionSystem, Rule

MOVES = ("L", "R", "S")

LEFT_MARKER = "^"
RIGHT_MARKER = "$"


@dataclass(frozen=True)
class DeltaEntry:
    state: str
    read: str
    next_state: str
    write: str
    move: str

    def __post_init__(self):
        if self.move not in MOVES:
            raise InputError(f"move must be one of {MOVES}, got {self.move!r}")


@dataclass(frozen=True)
class TuringMachineSpec:
    """Finite control plus a bounded-window tape.

    The transition table must be total over (non-halt state, tape symbol)
    pairs; multiple entries for the same pair make the machine
    nondeterministic. Tape symbols are single characters so tapes can be
    plain strings.
    """

    states: tuple[str, ...]
    start: str
    halts: frozenset[str]
    blank: str
    tape_alphabet: tuple[str, ...]
    entries: tuple[DeltaEntry, ...]
    tape_window: int = 64

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise InputError("duplicate machine states")
        if self.start not in self.states:
            raise InputError(f"start state {self.start!r} not among states")
        if not self.halts or not self.halts <= set(self.states):
            raise InputError("halt states must be a non-empty subset of states")
        for sym in self.tape_alphabet:
            if len(sym) != 1:
                raise InputError(f"tape symbol {sym!r} must be a single character")
        if len(set(self.tape_alphabet)) != len(self.tape_alphabet):
            raise InputError("duplicate tape symbols")
        if self.blank not in self.tape_alphabet:
            raise InputError("blank symbol must belong to the tape alphabet")
        if self.tape_window < 1:
            raise InputError("tape_window must be positive")
        known = set(self.states)
        syms = set(self.tape_alphabet)
        for e in self.entries:
            if e.state not in known or e.next_state not in known:
                raise InputError(f"transition references unknown state: {e}")
            if e.read not in syms or e.write not in syms:
                raise InputError(f"transition references unknown tape symbol: {e}")
            if e.state in self.halts:
                raise InputError(f"halt state {e.state!r} must not have transitions")
        for state in self.states:
            if state in self.halts:
                continue
            for sym in self.tape_alphabet:
                if not self.actions(state, sym):
                    raise InputError(f"transition table is not total: missing ({state!r}, {sym!r})")

    @cached_property
    def _table(self) -> dict[tuple[str, str], tuple[DeltaEntry, ...]]:
        table: dict[tuple[str, str], list[DeltaEntry]] = {}
        for e in self.entries:
            table.setdefault((e.state, e.read), []).append(e)
        return {key: tuple(val) for key, val in table.items()}

    def actions(self, state: str, sym: str) -> tuple[DeltaEntry, ...]:
        return self._table.get((state, sym), ())

    @property
    def is_deterministic(self) -> bool:
        return all(len(v) == 1 for v in self._table.values())


@dataclass(frozen=True)
class TMConfiguration:
    tape: str
    head: int
    state: str

    def __post_init__(self):
        if not self.tape:
            raise InputError("configuration tape must be non-empty")
        if not 0 <= self.head < len(self.tape):
            raise InputError(f"head {self.head} outside tape of length {len(self.tape)}")


def _normalise_input(tm: TuringMachineSpec, input_tape: str) -> str:
    if input_tape == "":
        return tm.blank
    for ch in input_tape:
        if ch not in tm.tape_alphabet:
            raise InputError(f"input tape symbol {ch!r} not in the tape alphabet")
    if len(input_tape) > tm.tape_window:
        raise TapeOverflow(f"input tape longer than the {tm.tape_window}-cell window")
    return input_tape


def _step(tm: TuringMachineSpec, cfg: TMConfiguration) -> TMConfiguration:
    actions = tm.actions(cfg.state, cfg.tape[cfg.head])
    if len(actions) != 1:
        raise InputError(
            f"direct execution needs a deterministic table; "
            f"({cfg.state!r}, {cfg.tape[cfg.head]!r}) has {len(actions)} actions"
        )
    entry = actions[0]
    tape = cfg.tape[:cfg.head] + entry.write + cfg.tape[cfg.head + 1:]
    head = cfg.head
    if entry.move == "R":
        head += 1
        if head == len(tape):
            if len(tape) == tm.tape_window:
                raise TapeOverflow("head moved right past the tape window")
            tape += tm.blank
    elif entry.move == "L":
        head -= 1
        if head < 0:
            if len(tape) == tm.tape_window:
                raise TapeOverflow("head moved left past the tape window")
            tape = tm.blank + tape
            head = 0
    return TMConfiguration(tape, head, entry.next_state)


def tm_trace(tm: TuringMachineSpec, input_tape: str, max_steps: int) -> list[TMConfiguration]:
    """Configurations visited from the start state, up to a halt or max_steps."""
    if max_steps < 0:
        raise InputError("max_steps must be >= 0")
    cfg = TMConfiguration(_normalise_input(tm, input_tape), 0, tm.start)
    trace = [cfg]
    for _ in range(max_steps):
        if cfg.state in tm.halts:
            break
        cfg = _step(tm, cfg)
        trace.append(cfg)
    return trace


def encode_config(tm: TuringMachineSpec, cfg: TMConfiguration) -> str:
    """Embed a configuration in a string: state token at the head position."""
    _check_encodable(tm)
    return cfg.tape[:cfg.head] + cfg.state + cfg.tape[cfg.head:]


def decode_config(tm: TuringMachineSpec, memory: str) -> TMConfiguration:
    """Inverse of encode_config; tolerates the compiled form's end markers."""
    _check_encodable(tm)
    if memory.startswith(LEFT_MARKER) and memory.endswith(RIGHT_MARKER):
        memory = memory[1:-1]
    hits = [i for i, ch in enumerate(memory) if ch in tm.states]
    if len(hits) != 1:
        raise MalformedEncoding(f"{memory!r} contains {len(hits)} state tokens, expected 1")
    head = hits[0]
    tape = memory[:head] + memory[head + 1:]
    if not tape:
        raise MalformedEncoding(f"{memory!r} encodes an empty tape")
    for ch in tape:
        if ch not in tm.tape_alphabet:
            raise MalformedEncoding(f"{memory!r} has non-tape symbol {ch!r}")
    if head >= len(tape):  # state token last: head past the tape end
        raise MalformedEncoding(f"{memory!r} places the head outside the tape")
    if len(tape) > tm.tape_window:
        raise MalformedEncoding(f"{memory!r} encodes a tape longer than the window")
    return TMConfiguration(tape, head, memory[hits[0]])


def _check_encodable(tm: TuringMachineSpec) -> None:
    state_tokens = set(tm.states)
    tape_tokens = set(tm.tape_alphabet)
    problems = []
    if any(len(s) != 1 for s in tm.states):
        problems.append("state names must be single characters")
    if state_tokens & tape_tokens:
        problems.append(f"states and tape symbols overlap: {sorted(state_tokens & tape_tokens)}")
    for marker in (LEFT_MARKER, RIGHT_MARKER):
        if marker in state_tokens or marker in tape_tokens:
            problems.append(f"marker {marker!r} collides with a machine token")
    if problems:
        raise EncodingClash(
            "; ".join(problems),
            state_tokens=sorted(state_tokens),
            tape_tokens=sorted(tape_tokens),
        )


def initial_memory(tm: TuringMachineSpec, input_tape: str = "") -> str:
    """Marker-wrapped encoding of the start configuration on `input_tape`."""
    tape = _normalise_input(tm, input_tape)
    cfg = TMConfiguration(tape, 0, tm.start)
    return LEFT_MARKER + encode_config(tm, cfg) + RIGHT_MARKER


def compile_tm(tm: TuringMachineSpec, input_tapes: tuple[str, ...] = ("",)) -> ProductionSystem:
    """Translate the transition table into an equivalent production system.

    Rule order follows table order (then tape-alphabet order for the
    per-neighbour variants), so the compiled rule list is deterministic and
    distinct entries always yield distinct rules. Goal detection is by
    substring: a memory string is a goal exactly when it contains a halt
    state token.
    """
    _check_encodable(tm)
    rules: list[Rule] = []
    for e in tm.entries:
        q, a, p, bsym = e.state, e.read, e.next_state, e.write
        if e.move == "S":
            rules.append(Rule(q + a, p + bsym))
        elif e.move == "R":
            for y in tm.tape_alphabet:
                rules.append(Rule(q + a + y, bsym + p + y))
            rules.append(Rule(q + a + RIGHT_MARKER, bsym + p + tm.blank + RIGHT_MARKER))
        else:  # L
            for x in tm.tape_alphabet:
                rules.append(Rule(x + q + a, p + x + bsym))
            rules.append(Rule(LEFT_MARKER + q + a, LEFT_MARKER + p + tm.blank + bsym))
    symbols = tuple(tm.tape_alphabet) + tuple(tm.states) + (LEFT_MARKER, RIGHT_MARKER)
    return ProductionSystem(
        alphabet=Alphabet(symbols),
        rules=tuple(rules),
        initial_states=tuple(initial_memory(tm, tape) for tape in input_tapes),
        goal_states=tuple(sorted(tm.halts)),
        max_memory_len=tm.tape_window + 3,
        rule_match="substring",
        goal_match="substring",
    )


_TM_FIELDS = {"states", "start", "halts", "blank", "tape_alphabet", "delta", "tape_window"}


def tm_from_dict(data: dict) -> TuringMachineSpec:
    """Build a TuringMachineSpec from parsed JSON, rejecting unknown or mistyped fields."""
    check_object(data, _TM_FIELDS, "machine definition")
    entries = []
    for i, row in enumerate(read_field(data, "delta", list, "machine")):
        if not (isinstance(row, list) and len(row) == 5 and all(isinstance(x, str) for x in row)):
            raise InputError(f"delta[{i}] must be [state, read, next, write, move] strings")
        entries.append(DeltaEntry(*row))
    return TuringMachineSpec(
        states=read_list_of(data, "states", str, "machine"),
        start=read_field(data, "start", str, "machine"),
        halts=frozenset(read_list_of(data, "halts", str, "machine")),
        blank=read_field(data, "blank", str, "machine"),
        tape_alphabet=read_list_of(data, "tape_alphabet", str, "machine"),
        entries=tuple(entries),
        tape_window=read_field(data, "tape_window", int, "machine", 64),
    )


def tm_to_dict(tm: TuringMachineSpec) -> dict:
    return {
        "states": list(tm.states),
        "start": tm.start,
        "halts": sorted(tm.halts),
        "blank": tm.blank,
        "tape_alphabet": list(tm.tape_alphabet),
        "delta": [[e.state, e.read, e.next_state, e.write, e.move] for e in tm.entries],
        "tape_window": tm.tape_window,
    }


def load_tm(path) -> TuringMachineSpec:
    return load_json_file(path, tm_from_dict)


def save_tm(tm: TuringMachineSpec, path) -> None:
    save_json_file(tm_to_dict(tm), path)
