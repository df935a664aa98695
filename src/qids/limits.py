"""Desk-scale resource caps.

Dense amplitude storage means memory scales linearly with the number of
basis states, so the marking walk's bitmap, the closed-form probability
vector (built by the search only when its draw falls back to it) and
statevector allocation all refuse to grow past a cap. The same cap
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


def check_float_range(b: int, d: int) -> None:
    """Raise InputError if b**d, for b >= 1, is beyond floating-point range."""
    # 2**1024 exceeds the largest float, so the clamped power settles any d
    if b >= 1 and b ** min(d, 1024) > sys.float_info.max:
        raise InputError(f"b**d = {b}**{d} is beyond floating-point range")
