"""Desk-scale resource caps.

Dense amplitude storage means memory scales linearly with the number of
basis states, so the marking walk's path space, the closed-form probability
vector (built by the search only when its draw falls back to it) and
statevector allocation all refuse to grow past a cap. The marking walk's
runs are not held to the cap itself: interleaved marks weigh up to about 8
bytes a sequence, so one walk may build about 8 times the cap in bytes. The
marking cache holds runs, the start strings of its keys and the frontiers
of its chains, at most the cap in bytes of them, plus about 500 bytes of
bookkeeping an entry; it holds the systems themselves only weakly. A chain
starts at depth 0 and carries one frontier, the live nodes of its deepest
depth, at `sys.getsizeof(memory) + 16` bytes a node; a frontier that passes
the cap is dropped, and later depths walk from the root. The same cap
bounds classical iterative deepening's node expansions and the halt demo's
step trace. The default (2**22) can be overridden with the QIDS_SIM_CAP
environment variable.
"""

from __future__ import annotations

import os
import sys

from .errors import InputError, SizeLimit

DEFAULT_SIM_CAP = 2**22

_ENV_VAR = "QIDS_SIM_CAP"


def sim_cap() -> int:
    """Current simulation cap (basis states / marked sequences)."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_SIM_CAP
    try:
        value = int(raw)
    except ValueError:
        raise SizeLimit(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise SizeLimit(f"{_ENV_VAR} must be positive, got {value}")
    return value


def check_size(count: int, what: str) -> None:
    """Raise SizeLimit if `count` objects of kind `what` exceed the cap."""
    cap = sim_cap()
    if count > cap:
        raise SizeLimit(f"{what} needs {count} entries, over the cap of {cap}")


def register_fits(b: int, d: int) -> bool:
    """Whether a register of 2 * b**d amplitudes (a halt bit per sequence) fits the cap."""
    cap = sim_cap()
    # b**cap.bit_length() > cap for b >= 2: the clamp spares building a huge b**d
    return 2 * b ** min(d, cap.bit_length()) <= cap


def check_float_range(b: int, d: int) -> None:
    """Raise InputError if b**d, for b >= 1, is beyond floating-point range."""
    # 2**1024 exceeds the largest float, so the clamped power settles any d
    if b >= 1 and b ** min(d, 1024) > sys.float_info.max:
        raise InputError(f"b**d = {b}**{d} is beyond floating-point range")
