"""Amplitude amplification against the sequence-halting predicate.

The oracle XORs the halting bitmap (one bool per sequence label, as
`production.marked_vector` returns it) into the halt bit; with the halt bit
prepared in (|0> - |1>)/sqrt(2) that is a phase flip on marked sequences.
Diffusion reflects sequence amplitudes about their mean. One oracle
application plus one diffusion is one search iterate, and the closed form

    P(m) = sin**2((2m + 1) * arcsin(sqrt(k/N)))

gives the exact marked mass after m iterates from a uniform start.

The search driver draws from the two closed-form weights of that state
(`amplified_weights`); `amplified_probabilities` spreads them into the whole
flat probability vector, and the dense iterate below is the reference that
the verification suite checks that vector against. It acts on `statevector`
arrays of shape (N, 2), one row per sequence, and takes N from len(marks).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, KZero
from .limits import check_size
from .statevector import prepare_halt_minus, uniform_superposition


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


def optimal_iterations(n_paths: int, k: int) -> int:
    """Iterate count floor((pi/4) * sqrt(N/k)); requires at least one mark."""
    if k == 0:
        raise KZero("iteration policy undefined with zero marked sequences")
    if not 1 <= k <= n_paths:
        raise InputError(f"need 1 <= k <= N, got k={k} N={n_paths}")
    return max(0, math.floor(math.pi / 4 * math.sqrt(n_paths / k)))


def literal_iterations(n_paths: int) -> int:
    """The root-of-search-space count floor(sqrt(N)), kept for comparison runs."""
    return math.floor(math.sqrt(n_paths))


def predicted_success_exact(n_paths: int, k: int, m: int) -> float:
    """Exact marked mass after m iterates from uniform: sin**2((2m+1) asin(sqrt(k/N)))."""
    if not 1 <= k <= n_paths:
        raise InputError(f"need 1 <= k <= N, got k={k} N={n_paths}")
    if m < 0:
        raise InputError("iterate count must be >= 0")
    return math.sin((2 * m + 1) * math.asin(math.sqrt(k / n_paths))) ** 2


def predicted_success_asymptotic(b: int, d: int, k: int) -> float:
    """Success estimate with a real-valued iterate count.

    Evaluates sin**2(theta/2 * (pi/2 * sqrt(N/k) + 1)) with
    theta = 2*arccos(sqrt((N-k)/N)). The un-floored count makes this an
    asymptotic form: accurate for large N/k, an underestimate at small N
    (see the reconciliation table in the verification suite).
    """
    n_paths = b**d
    if k == 0:
        raise KZero("the closed form is undefined with zero marked sequences")
    if not 1 <= k <= n_paths:
        raise InputError(f"need 1 <= k <= b**d, got k={k} N={n_paths}")
    theta = 2 * math.acos(math.sqrt((n_paths - k) / n_paths))
    return math.sin(theta / 2 * (math.pi / 2 * math.sqrt(n_paths / k) + 1)) ** 2


def marked_mass(state: np.ndarray, marks: np.ndarray) -> float:
    """Total probability carried by marked sequences (both halt-bit values)."""
    return float(np.sum(np.abs(state[np.asarray(marks, dtype=bool)]) ** 2))


def amplified_state(marks: np.ndarray, m: int, coeff: float = 2.0) -> np.ndarray:
    """Uniform start over the len(marks) sequences, halt bit in the minus state, m iterates."""
    state = prepare_halt_minus(uniform_superposition(len(marks)))
    for _ in range(m):
        state = grover_iterate(state, marks, coeff)
    return state


def amplified_weights(n_paths: int, k: int, m: int) -> tuple[float, float]:
    """(p_marked, p_unmarked): the Born weight of one flat entry after m iterates.

    From a uniform start the state stays in the span of the marked and the
    unmarked uniform superpositions, so with theta = asin(sqrt(k/N)) each of
    the k marked sequences carries sin**2((2m+1) theta)/k and each unmarked
    one cos**2((2m+1) theta)/(N-k), split evenly over the two halt-bit
    values. k = 0 leaves the uniform 1/(2N); k = N has no unmarked weight.
    """
    if not 0 <= k <= n_paths:
        raise InputError(f"need 0 <= k <= N, got k={k} N={n_paths}")
    if m < 0:
        raise InputError("iterate count must be >= 0")
    angle = (2 * m + 1) * math.asin(math.sqrt(k / n_paths))
    p_marked = math.sin(angle) ** 2 / (2 * k) if k else 0.0
    p_unmarked = math.cos(angle) ** 2 / (2 * (n_paths - k)) if k < n_paths else 0.0
    return p_marked, p_unmarked


def amplified_probabilities(marks: np.ndarray, k: int, m: int) -> np.ndarray:
    """Flat Born probabilities of `amplified_state` after m iterates, in closed form.

    Each entry is one of the two `amplified_weights`, in the flat layout
    p*2 + h of the dense register.
    """
    p_marked, p_unmarked = amplified_weights(len(marks), k, m)
    check_size(2 * len(marks), "probability vector")
    return np.repeat(np.where(marks, p_marked, p_unmarked), 2)


def simulated_success(marks: np.ndarray, m: int, coeff: float = 2.0) -> float:
    """Marked mass measured off an exact statevector run of m iterates."""
    return marked_mass(amplified_state(marks, m, coeff), marks)
