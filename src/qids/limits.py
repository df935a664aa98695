"""Desk-scale resource caps, and the norm tolerance of a Born draw.

Dense amplitude storage means memory scales linearly with the number of
basis states, so the marking walk's path space, the closed-form probability
vector (built by the search only when its draw falls back to it) and
statevector allocation all refuse to grow past a cap. The same cap bounds
classical iterative deepening's node expansions and the halt demo's step
trace. The default (2**22) can be overridden with the QIDS_SIM_CAP
environment variable.

What a unit of the cap costs in bytes, per layer (tracemalloc, 64-bit
CPython 3.11):

- the dense register (`statevector`, `qids predict`'s simulated column):
  81-97 bytes a sequence at its peak, d = 12-18; a sequence takes two
  amplitudes of the cap, so about 40-49 bytes a unit;
- the marking walk's runs: about 16 bytes a run, so up to 8.2-8.8 bytes a
  sequence when every other sequence is marked, the most runs a depth can
  have. The cap bounds the path space, not the runs, so one walk may build
  about 8.5 times the cap in bytes;
- the marking cache: at most the cap in bytes of runs, start strings of its
  keys and frontiers, plus about 500 bytes of bookkeeping an entry; it
  holds systems only weakly;
- a chain's frontier, the live nodes of its deepest depth: counted in the
  cache at `sys.getsizeof(memory) + 16` bytes a node, within 2 of what
  tracemalloc reads; a chain starts at depth 0 and drops one past the cap;
- the walk tables, goal set included: one per system, uncapped, while it lives.

`check_total` holds a Born total, the squared norm of the state a draw
samples, to MEASURE_NORM_TOL; the closed-form search and the dense
reference both check it before they draw, and it lives here because it
needs no numpy.
"""

from __future__ import annotations

import math
import os
import sys

from .errors import InputError, NormDrift, SizeLimit

DEFAULT_SIM_CAP = 2**22
MEASURE_NORM_TOL = 1e-6

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


def check_size(count: int, what: str) -> int:
    """Raise SizeLimit if `count` objects of kind `what` exceed the cap; return the cap."""
    cap = sim_cap()
    if count > cap:
        raise SizeLimit(f"{what} needs {count} entries, over the cap of {cap}")
    return cap


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


def check_total(total: float) -> None:
    """Raise NormDrift if the norm sqrt(total) of a Born total strays past MEASURE_NORM_TOL."""
    norm = math.sqrt(total)
    if abs(norm - 1.0) > MEASURE_NORM_TOL:
        raise NormDrift(f"state norm = {norm:.9f} drifted beyond {MEASURE_NORM_TOL}")
