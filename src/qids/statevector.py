"""Dense complex statevector engine over the register |s>|p>|h>.

Basis states are triples (s, p, h): an initial-state label, a base-b encoded
rule sequence of length d, and a one-bit halt flag. The flat layout keeps h
least significant,

    flat = (s * b**d + p) * 2 + h,

so halt projections and halt-conditional swaps are cheap slices. Amplitudes
live in one contiguous complex128 vector; operations are pure functions
returning fresh states.

Two usage modes share the engine: amplified search keeps s fixed
(num_s = 1, amplitudes over sequences and the halt bit), while the
halt-observation demo superposes the initial states with a trivial sequence
register (b**d = 1). The search driver does not simulate amplification: it
draws from the closed-form probabilities with `sample_index`, the sampler
that `measure` also uses, and the dense amplified state is the reference the
verification suite checks that vector against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NormDrift, ZeroProbability
from .limits import check_size
from .production import ProductionSystem, deterministic_trace

MEASURE_NORM_TOL = 1e-6
PROJECT_FLOOR = 1e-12


@dataclass(frozen=True)
class BasisIndex:
    """One computational basis label (s, p, h)."""

    s_index: int
    p_index: int
    h: int

    def to_flat(self, num_s: int, b: int, d: int) -> int:
        n = b**d
        if not (0 <= self.s_index < num_s and 0 <= self.p_index < n and self.h in (0, 1)):
            raise InputError(f"basis label {self} out of range for dims ({num_s}, {b}, {d})")
        return (self.s_index * n + self.p_index) * 2 + self.h

    @classmethod
    def from_flat(cls, flat: int, num_s: int, b: int, d: int) -> "BasisIndex":
        n = b**d
        if not 0 <= flat < num_s * n * 2:
            raise InputError(f"flat index {flat} out of range for dims ({num_s}, {b}, {d})")
        work, h = divmod(flat, 2)
        s, p = divmod(work, n)
        return cls(s, p, h)


@dataclass
class QuantumState:
    """Unit-norm amplitude vector with its register geometry."""

    amps: np.ndarray
    num_s: int
    b: int
    d: int

    def __post_init__(self):
        expected = self.dimension
        if self.amps.shape != (expected,):
            raise InputError(f"amplitude vector has shape {self.amps.shape}, expected ({expected},)")
        if self.amps.dtype != np.complex128:
            self.amps = self.amps.astype(np.complex128)

    @property
    def n_paths(self) -> int:
        return self.b**self.d

    @property
    def dimension(self) -> int:
        return self.num_s * self.b**self.d * 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "QuantumState":
        return QuantumState(self.amps.copy(), self.num_s, self.b, self.d)

    def grid(self) -> np.ndarray:
        """View shaped (num_s, n_paths, 2); shares the buffer."""
        return self.amps.reshape(self.num_s, self.n_paths, 2)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _allocate(num_s: int, b: int, d: int) -> QuantumState:
    if num_s < 1 or b < 1 or d < 0:
        raise InputError(f"bad register dims ({num_s}, {b}, {d})")
    dim = num_s * b**d * 2
    check_size(dim, f"statevector of dims ({num_s}, {b}, {d})")
    return QuantumState(np.zeros(dim, dtype=np.complex128), num_s, b, d)


def uniform_superposition(b: int, d: int) -> QuantumState:
    """Equal weight 1/sqrt(b**d) on every sequence, s fixed, halt bit |0>."""
    state = _allocate(1, b, d)
    n = state.n_paths
    state.grid()[0, :, 0] = 1.0 / np.sqrt(n)
    return state


def prepare_halt_minus(state: QuantumState) -> QuantumState:
    """Tensor the halt register into (|0> - |1>)/sqrt(2)."""
    grid = state.grid()
    if np.any(np.abs(grid[:, :, 1]) > 0):
        raise InputError("halt register must be |0> before preparing the minus state")
    out = state.copy()
    g = out.grid()
    g[:, :, 1] = -g[:, :, 0] / np.sqrt(2)
    g[:, :, 0] /= np.sqrt(2)
    return out


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one flat index from a Born probability vector.

    The vector must sum to 1 within MEASURE_NORM_TOL (checked on the norm
    it implies); it is renormalised before the draw.
    """
    total = probs.sum()
    if abs(np.sqrt(total) - 1.0) > MEASURE_NORM_TOL:
        raise NormDrift(f"state norm = {np.sqrt(total):.9f} drifted beyond {MEASURE_NORM_TOL}")
    return int(rng.choice(len(probs), p=probs / total))


def measure(state: QuantumState, rng: np.random.Generator) -> BasisIndex:
    """Sample one basis outcome of the whole register by the Born rule."""
    flat = sample_index(state.probabilities(), rng)
    return BasisIndex.from_flat(flat, state.num_s, state.b, state.d)


def project_halt(state: QuantumState, k: int) -> tuple[float, QuantumState]:
    """Project onto halt-bit outcome k and renormalise; returns (P(k), state)."""
    if k not in (0, 1):
        raise InputError("halt outcome must be 0 or 1")
    grid = state.grid()
    p_k = float(np.sum(np.abs(grid[:, :, k]) ** 2))
    if p_k < PROJECT_FLOOR:
        raise ZeroProbability(f"halt outcome {k} has probability {p_k:.3e}")
    out = state.copy()
    g = out.grid()
    g[:, :, 1 - k] = 0.0
    g[:, :, k] /= np.sqrt(p_k)
    return p_k, out


@dataclass
class HaltTimingReport:
    """Everything the halt-observation demo produces for one system.

    `steps_to_halt[i]` is input i's halting time under the deterministic
    first-applicable-rule control, or None if it does not halt within the
    evolved depth. `branch_table` pairs each input string with (steps, halt
    bit after d steps, final memory).
    """

    inputs: tuple[str, ...]
    depth: int
    steps_to_halt: list[int | None]
    branch_table: list[tuple[str, int | None, int, str]]
    pre_measurement: QuantumState
    p_continue: float
    p_halt: float
    projected_continue: QuantumState | None
    projected_halt: QuantumState | None


def halt_timing_demo(system: ProductionSystem, d: int, step_cap: int | None = None) -> HaltTimingReport:
    """Evolve a uniform superposition of inputs and flag halts as they occur.

    Each initial state evolves independently under the deterministic control;
    at the step where an input first reaches a goal its halt bit flips to 1.
    After d steps the halt bit is entangled with the input label whenever
    halting times straddle d, and projecting on either halt outcome strands
    the other branch - the reason periodic halt-bit observation is unsafe.
    """
    if d < 0:
        raise InputError("evolution depth must be >= 0")
    inputs = system.initial_states
    num_s = len(inputs)
    cap = d if step_cap is None else max(d, step_cap)
    traces = [deterministic_trace(system, s, cap) for s in inputs]
    steps = [t.goal_step for t in traces]

    state = _allocate(num_s, 1, 0)
    grid = state.grid()
    grid[:, 0, 0] = 1.0 / np.sqrt(num_s)
    for t in range(d + 1):  # t = 0 covers inputs that start in a goal state
        for i, s_halt in enumerate(steps):
            if s_halt == t:
                grid[i, 0, 1] = grid[i, 0, 0]
                grid[i, 0, 0] = 0.0

    p1 = float(np.sum(np.abs(grid[:, :, 1]) ** 2))
    p0 = float(np.sum(np.abs(grid[:, :, 0]) ** 2))
    projected = {}
    for k in (0, 1):
        try:
            _, projected[k] = project_halt(state, k)
        except ZeroProbability:
            projected[k] = None
    branch = []
    for i, trace in enumerate(traces):
        within = steps[i] is not None and steps[i] <= d
        upto = trace.trace[: (steps[i] if within else d) + 1]
        branch.append((inputs[i], steps[i], int(within), upto[-1]))
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

