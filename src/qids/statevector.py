"""Dense complex statevector engine over a label register and a halt bit.

A state is a C-contiguous complex128 array of shape (labels, 2): row i
holds label i's amplitudes with the halt bit h = 0 and h = 1. The labels
are the b**d rule sequences of the search register, or the inputs of the
halt-observation demo. Its ravel() is the flat layout

    flat = label * 2 + h,

with h least significant, which is the layout of
`grover.amplified_probabilities`. Operations are pure functions returning
fresh arrays; callers read `state[:, h]` for a halt-bit slice,
`np.linalg.norm(state)` for the norm and `np.abs(state.ravel()) ** 2` for
the Born probabilities.

The search driver does not simulate amplification, and it builds no
probability vector unless it must: `driver.measure` finds the sequence that
`sample_index` (the sampler `measure` uses) would draw from the closed-form
vector by inverting the two-valued cumulative distribution directly, and
falls back to `sample_index` over that vector only when the draw lands
within rounding distance of a step edge. That equality rests on how numpy's
`choice` turns one double into an index, which the `draw-agreement` check
of the verification suite guards. The dense amplified state is the
reference the suite checks the closed-form vector against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NormDrift, ZeroProbability
from .limits import check_size
from .production import ProductionSystem, deterministic_trace

MEASURE_NORM_TOL = 1e-6
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


def check_total(total: float) -> None:
    """Raise NormDrift if the norm sqrt(total) of a Born total strays past MEASURE_NORM_TOL."""
    if abs(np.sqrt(total) - 1.0) > MEASURE_NORM_TOL:
        raise NormDrift(f"state norm = {np.sqrt(total):.9f} drifted beyond {MEASURE_NORM_TOL}")


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one flat index from a Born probability vector.

    The vector must sum to 1 within MEASURE_NORM_TOL (`check_total`); it is
    renormalised before the draw.
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
    bit after d steps, final memory). The states are over the inputs.
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
    )
