"""Dense complex statevector engine over a label register and a halt bit.

A state is a C-contiguous complex128 array of shape (labels, 2): row i
holds label i's amplitudes with the halt bit h = 0 and h = 1. The labels
are the b**d rule sequences of the search register, or the inputs of the
halt-observation demo. Its ravel() is the flat layout

    flat = label * 2 + h,

with h least significant, which is the layout of
`driver.amplified_probabilities`. Operations are pure functions returning
fresh arrays; callers read `state[:, h]` for a halt-bit slice,
`np.linalg.norm(state)` for the norm and `np.abs(state.ravel()) ** 2` for
the Born probabilities.

This is the reference engine. Its search iterate is one oracle application
plus one diffusion. The oracle XORs the mark table (one bool per sequence,
which `bitmap` builds from the runs `production.marked_vector` returns) into
the halt bit; with the halt bit prepared in (|0> - |1>)/sqrt(2) that is a
phase flip on marked sequences. Diffusion reflects sequence amplitudes about
their mean. These functions take N from len(marks). The search driver does
not run them; it draws from the closed form of the amplified state, and the
verification suite checks that closed form against `amplified_state`. So
this module imports nothing from `driver`: the reference does not depend on
the engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ZeroProbability
from .limits import check_size, check_total
from .production import MarkedRuns, ProductionSystem, deterministic_trace

PROJECT_FLOOR = 1e-12


def uniform_superposition(labels: int) -> np.ndarray:
    """Equal weight 1/sqrt(labels) on every label, halt bit |0>."""
    if labels < 1:
        raise InputError(f"a register needs at least one label, got {labels}")
    check_size(2 * labels, f"statevector over {labels} labels")
    state = np.zeros((labels, 2), dtype=np.complex128)
    state[:, 0] = 1.0 / np.sqrt(labels)
    return state


def prepare_halt_minus(state: np.ndarray) -> np.ndarray:
    """Tensor the halt register into (|0> - |1>)/sqrt(2)."""
    if np.any(np.abs(state[:, 1]) > 0):
        raise InputError("halt register must be |0> before preparing the minus state")
    out = state.copy()
    out[:, 1] = -out[:, 0] / np.sqrt(2)
    out[:, 0] /= np.sqrt(2)
    return out


def bitmap(runs: MarkedRuns) -> np.ndarray:
    """The mark table of `runs`: entry i is True when sequence i is marked."""
    check_size(runs.n, "mark bitmap")
    marks = np.zeros(runs.n, dtype=bool)
    for start, span, _ in runs:
        marks[start:start + span] = True
    return marks


def apply_oracle(state: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """XOR the mark bitmap into the halt bit: swap the halt-bit pair of each marked sequence."""
    # a 0/1 integer array would index positions instead of masking them
    marks = np.asarray(marks, dtype=bool)
    if len(marks) != len(state):
        raise InputError(f"oracle domain {len(marks)} != sequence register size {len(state)}")
    out = state.copy()
    out[marks] = state[marks, ::-1]
    return out


def apply_diffusion(state: np.ndarray, coeff: float = 2.0) -> np.ndarray:
    """Map each halt-bit slice x to coeff * mean(x) - x; 2.0 reflects about the mean."""
    out = np.empty_like(state)
    for h in (0, 1):
        out[:, h] = coeff * state[:, h].mean() - state[:, h]
    return out


def grover_iterate(state: np.ndarray, marks: np.ndarray, coeff: float = 2.0) -> np.ndarray:
    return apply_diffusion(apply_oracle(state, marks), coeff)


def amplified_state(marks: np.ndarray, m: int, coeff: float = 2.0) -> np.ndarray:
    """Uniform start over the len(marks) sequences, halt bit in the minus state, m iterates.

    Each iterate is `grover_iterate`'s arithmetic done in place, without its
    two fresh arrays, so the result equals m applications of it bit for bit.
    """
    state = prepare_halt_minus(uniform_superposition(len(marks)))
    idx = np.flatnonzero(marks)
    for _ in range(m):
        state[idx] = state[idx, ::-1]
        for h in (0, 1):
            col = state[:, h]
            np.subtract(coeff * col.mean(), col, out=col)
    return state


def simulated_success(marks: np.ndarray, m: int, coeff: float = 2.0) -> float:
    """Marked mass (both halt-bit values) measured off an exact statevector run of m iterates."""
    marks = np.asarray(marks, dtype=bool)
    return float(np.sum(np.abs(amplified_state(marks, m, coeff)[marks]) ** 2))


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one flat index from a Born probability vector.

    The vector must sum to 1 within `limits.MEASURE_NORM_TOL` (`check_total`);
    it is renormalised before the draw.
    """
    total = probs.sum()
    check_total(total)
    return int(rng.choice(len(probs), p=probs / total))


def measure(state: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    """Sample one basis outcome (label, h) of the whole register by the Born rule."""
    return divmod(sample_index(np.abs(state.ravel()) ** 2, rng), 2)


def project_halt(state: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Project onto halt-bit outcome k and renormalise; returns (P(k), state)."""
    if k not in (0, 1):
        raise InputError("halt outcome must be 0 or 1")
    p_k = float(np.sum(np.abs(state[:, k]) ** 2))
    if p_k < PROJECT_FLOOR:
        raise ZeroProbability(f"halt outcome {k} has probability {p_k:.3e}")
    out = state.copy()
    out[:, 1 - k] = 0.0
    out[:, k] /= np.sqrt(p_k)
    return p_k, out


@dataclass
class HaltTimingReport:
    """Everything the halt-observation demo produces for one system.

    `steps_to_halt[i]` is input i's halting time under the deterministic
    first-applicable-rule control, or None if it does not halt within the
    traced steps. `branch_table` pairs each input string with (steps, halt
    bit after d steps, final memory). The states are over the inputs, and
    `projection_support[h]` lists those that projecting on halt bit h keeps.
    """

    inputs: tuple[str, ...]
    depth: int
    steps_to_halt: list[int | None]
    branch_table: list[tuple[str, int | None, int, str]]
    pre_measurement: np.ndarray
    p_continue: float
    p_halt: float
    projected_continue: np.ndarray | None
    projected_halt: np.ndarray | None
    projection_support: dict[int, list[int] | None]


def halt_timing_demo(system: ProductionSystem, d: int, step_cap: int | None = None) -> HaltTimingReport:
    """Evolve a uniform superposition of inputs and flag halts as they occur.

    Each initial state evolves independently under the deterministic control;
    at the step where an input first reaches a goal its halt bit flips to 1.
    After d steps the halt bit is entangled with the input label whenever
    halting times straddle d, and projecting on either halt outcome strands
    the other branch - the reason periodic halt-bit observation is unsafe.
    The trace keeps every memory, so its max(d, step_cap) steps are held to
    the simulation cap.
    """
    if d < 0:
        raise InputError("evolution depth must be >= 0")
    inputs = system.initial_states
    cap = d if step_cap is None else max(d, step_cap)
    check_size(cap, "the demo's step trace")
    traces = [deterministic_trace(system, s, cap) for s in inputs]
    steps = [t.goal_step for t in traces]
    halted = np.array([s is not None and s <= d for s in steps], dtype=bool)

    state = uniform_superposition(len(inputs))
    state[halted, 1] = state[halted, 0]
    state[halted, 0] = 0.0

    p1 = float(np.sum(np.abs(state[:, 1]) ** 2))
    p0 = float(np.sum(np.abs(state[:, 0]) ** 2))
    projected = {}
    for k in (0, 1):
        try:
            _, projected[k] = project_halt(state, k)
        except ZeroProbability:
            projected[k] = None
    branch = []
    for i, trace in enumerate(traces):
        upto = trace.trace[: (steps[i] if halted[i] else d) + 1]
        branch.append((inputs[i], steps[i], int(halted[i]), upto[-1]))
    return HaltTimingReport(
        inputs=inputs,
        depth=d,
        steps_to_halt=steps,
        branch_table=branch,
        pre_measurement=state,
        p_continue=p0,
        p_halt=p1,
        projected_continue=projected[0],
        projected_halt=projected[1],
        projection_support={k: None if proj is None else np.flatnonzero(proj[:, k]).tolist()
                            for k, proj in projected.items()},
    )
