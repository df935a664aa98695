"""Depth-by-depth amplified search for a halting rule sequence.

Each round builds a fresh uniform superposition over all length-d sequences,
prepares the halt bit in the minus state, runs the iterate schedule against
the halting oracle, and measures the whole register. A measured sequence
that the classical predicate confirms as halting ends the search; otherwise
the depth increases and the superposition is rebuilt from scratch, which is
what restores the interference pattern a failed measurement destroyed.

The round is not simulated. Its state has only two Born weights, one per
flat entry of a marked sequence and one per unmarked entry
(`grover.amplified_weights`), so `measure` inverts their cumulative
distribution in closed form: one uniform double from the depth's generator,
a binary search over the marked sequences and one division, with no
length-2N vector and whatever the iterate count. It returns the index that
`rng.choice` over the flat vector (`grover.amplified_probabilities`) draws
from that same double, so seeded reports match the dense engine's, which the
`engine-agreement` check ties to that vector. The vector is built only when
the double falls within rounding distance of a step edge, to draw from it
as before. The `draw-agreement` check holds the inverse draw to `rng.choice`,
so a numpy whose `choice` draws differently fails the gate instead of
silently changing seeded reports.

Rebuilding makes the cost of re-scanning shallow levels geometric: with the
optimal iterate policy the cumulative oracle-call count through depth d
stays within 4 * sqrt(b**d) for any branching factor b >= 2: the budget
that `within_call_budget` states and `cumulative_calls` tabulates.

`report_to_json` writes the reports of both searches, a `SearchReport` or a
`production.ClassicalSearchResult`, straight from their fields, which are
the format; qids writes reports and never reads them back. The volatile
fields (wall time, timestamp) can be suppressed so reports from identical
seeded runs compare byte-for-byte.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InputError, SizeLimit
from .grover import (amplified_probabilities, amplified_weights, literal_iterations,
                     optimal_iterations, predicted_success_exact)
from .limits import check_float_range, sim_cap
from .production import (ClassicalSearchResult, ProductionSystem, RuleSequence, check_walk_depth,
                         execute_sequence, index_to_sequence, marked_vector)
from .statevector import check_total, sample_index

log = logging.getLogger(__name__)

COUNTING_MODES = ("exact", "assume_one")
ITERATE_POLICIES = ("optimal", "faithful")


@dataclass(frozen=True)
class QidConfig:
    """Knobs for one search run.

    counting_mode "exact" sizes the iterate schedule from the true number of
    marked sequences (classically enumerated); "assume_one" always sizes for
    a single solution, the worst case. iterate_policy "optimal" uses
    floor(pi/4 * sqrt(N/k)); "faithful" uses floor(sqrt(N)) regardless of k.
    Depths with no marked sequence are skipped outright unless
    skip_empty_depths is off, in which case they are run and measured anyway
    (the iterate fixes the uniform state, so the outcome is uniform noise
    and the search still advances).
    """

    seed: int
    depth_cap: int | None = None
    counting_mode: str = "exact"
    iterate_policy: str = "optimal"
    skip_empty_depths: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.depth_cap is not None and self.depth_cap < 0:
            raise InputError("depth_cap must be >= 0")
        if self.counting_mode not in COUNTING_MODES:
            raise InputError(f"counting_mode must be one of {COUNTING_MODES}")
        if self.iterate_policy not in ITERATE_POLICIES:
            raise InputError(f"iterate_policy must be one of {ITERATE_POLICIES}")


@dataclass
class DepthRecord:
    depth: int
    n_paths: int
    k: int
    m: int
    oracle_calls: int
    predicted_success: float
    skipped: bool
    measured_index: int | None
    measured_sequence: RuleSequence | None
    measured_halting: bool | None


@dataclass
class SearchReport:
    SCHEMA: ClassVar[str] = "qids.search-report/1"

    found: bool
    d_star: int | None
    witness: RuleSequence | None
    goal_state: str | None
    measured_depth: int | None
    per_depth: list[DepthRecord]
    total_oracle_calls: int
    seed: int
    config: QidConfig
    wall_time_s: float

    @property
    def outcome(self) -> str:
        return "found" if self.found else "cap_exceeded"


def depth_rng(master_seed: int, depth: int) -> np.random.Generator:
    """Per-depth generator: SeedSequence(master_seed, spawn_key=(depth,))."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(depth,)))


def default_depth_cap(b: int) -> int:
    """Largest depth whose statevector (2 * b**d amplitudes) fits the cap."""
    if b < 2:
        raise InputError("a single-rule system has no natural depth cap; set one explicitly")
    cap = sim_cap()
    d = 0
    while 2 * b ** (d + 1) <= cap:
        d += 1
    return d


def iterate_count(n_paths: int, k_policy: int, policy: str) -> int:
    if policy == "faithful":
        return literal_iterations(n_paths)
    return optimal_iterations(n_paths, k_policy)


def _inverse_cdf(pos: np.ndarray, n_paths: int, p_marked: float, p_unmarked: float,
                 total: float, u: float) -> int | None:
    """The sequence whose flat step of the cumulative distribution holds u.

    The flat entries 2i and 2i + 1 of sequence i weigh p_marked if i is
    marked and p_unmarked if not, so with M(i) the number of marked
    sequences below i the mass below flat index 2i + h is

        S(2i + h) = 2 * (M(i) * p_marked + (i - M(i)) * p_unmarked) + h * w(i).

    `rng.choice(2N, p=probs / probs.sum())` takes one double u and returns
    the first f whose computed cdf[f] exceeds u, where cdf is the sequential
    cumsum of the divided weights, divided by its last entry. Every term is
    non-negative and every operation rounds once (unit roundoff eps/2, with
    eps = 2**-52), so with n = 2N each cdf[f] is the exact S(f + 1)/S(2N)
    times (1 + theta), |theta| <= gamma(2n + 1) = (2n + 1)(eps/2) / (1 -
    (2n + 1)(eps/2)): one rounding in the division by the total, at most
    n - 1 in the cumsum and one in the division by cdf[-1], plus the same
    for cdf[-1] itself (Higham, Accuracy and Stability of Numerical
    Algorithms, Lemma 3.1). The scale 1/total cancels.
    Evaluating S(f)/S(2N) here takes at most eight more roundings, so each
    step edge lies within gamma(2n + 9) <= (n + 5) * eps of where it is
    computed here. Unless u clears both edges of its step by twice that,
    the band (2n + 16) * eps, this returns None and the caller falls back to
    `rng.choice` over the vector.
    """
    band = (4 * n_paths + 16) * np.finfo(float).eps
    t = u * total
    # binary search over the marked sequences, then one division in the run of unmarked ones
    j = np.arange(len(pos))
    starts = 2 * (j * p_marked + (pos - j) * p_unmarked)
    r = int(np.searchsorted(starts, t, side="right")) - 1
    if r >= 0 and t - starts[r] < 2 * p_marked:
        flat = 2 * int(pos[r]) + int(t - starts[r] >= p_marked)
    elif p_unmarked > 0:
        first, base = (int(pos[r]) + 1, starts[r] + 2 * p_marked) if r >= 0 else (0, 0.0)
        flat = 2 * first + int((t - base) // p_unmarked)
    else:
        return None
    index, h = divmod(min(max(flat, 0), 2 * n_paths - 1), 2)
    below = int(np.searchsorted(pos, index))
    weight = p_marked if below < len(pos) and pos[below] == index else p_unmarked
    lo = 2 * (below * p_marked + (index - below) * p_unmarked) + h * weight
    if u - lo / total > band and (lo + weight) / total - u > band:
        return index
    return None


def draw(marks: np.ndarray, k: int, m: int, seed: int, depth: int) -> tuple[int, bool]:
    """(sequence index measured after m iterates, whether the inverse CDF gave it).

    The index is the one `sample_index(amplified_probabilities(marks, k, m),
    depth_rng(seed, depth)) // 2` draws. The closed-form total is checked
    for NormDrift before the depth's generator is touched; the probability
    vector is built only when the drawn double sits on a step edge.
    """
    n_paths = len(marks)
    p_marked, p_unmarked = amplified_weights(n_paths, k, m)
    pos = np.flatnonzero(marks)
    total = 2 * (len(pos) * p_marked + (n_paths - len(pos)) * p_unmarked)
    check_total(total)
    index = _inverse_cdf(pos, n_paths, p_marked, p_unmarked, total,
                         depth_rng(seed, depth).random())
    if index is not None:
        return index, True
    probs = amplified_probabilities(marks, k, m)
    return sample_index(probs, depth_rng(seed, depth)) // 2, False


def measure(marks: np.ndarray, k: int, m: int, seed: int, depth: int) -> int:
    """Measure the round at `depth`: the sequence index drawn after m iterates.

    The closed-form counterpart of `statevector.measure` on the amplified
    state: the same Born draw with the depth's own generator, by the exact
    inverse-CDF `draw`. Logs the round as one INFO line.
    """
    index, fast = draw(marks, k, m, seed, depth)
    log.info("depth=%d k=%d m=%d index=%d halting=%s draw=%s", depth, k, m, index,
             bool(marks[index]), "inverse-cdf" if fast else "vector")
    return index


def quantum_iterative_deepening(system: ProductionSystem, start: str,
                                config: QidConfig) -> SearchReport:
    """Search for a halting sequence from `start`, deepening one level per round.

    The returned witness is the measured sequence; d_star is the length of
    its shortest halting prefix, and goal_state is the memory string that
    prefix reaches on classical replay.
    """
    if start not in system.initial_states:
        raise InputError(f"start {start!r} is not one of the system's initial states")
    b = system.branching_factor
    depth_cap = config.depth_cap if config.depth_cap is not None else default_depth_cap(b)
    cap = sim_cap()
    # b**cap.bit_length() > cap for b >= 2: the clamp spares building b**depth_cap
    if 2 * b ** min(depth_cap, cap.bit_length()) > cap:
        raise SizeLimit(f"depth cap {depth_cap} needs 2 * {b}**{depth_cap} amplitudes, "
                        f"over the cap of {cap}")
    check_walk_depth(depth_cap)

    t0 = time.perf_counter()
    per_depth: list[DepthRecord] = []
    total_calls = 0
    for depth in range(depth_cap + 1):
        n_paths = b**depth
        marks = marked_vector(system, start, depth)
        k = int(np.count_nonzero(marks))
        if k == 0 and config.skip_empty_depths:
            log.info("depth=%d k=0 skipped", depth)
            per_depth.append(DepthRecord(depth, n_paths, 0, 0, 0, 0.0, True, None, None, None))
            continue
        k_policy = k if config.counting_mode == "exact" else 1
        m = iterate_count(n_paths, max(k_policy, 1), config.iterate_policy)
        p_index = measure(marks, k, m, config.seed, depth)
        seq = index_to_sequence(p_index, b, depth)
        halting = bool(marks[p_index])
        total_calls += m
        predicted = predicted_success_exact(n_paths, k, m) if k else 0.0
        per_depth.append(DepthRecord(depth, n_paths, k, m, m, predicted, False,
                                     p_index, seq, halting))
        if halting:
            replay = execute_sequence(system, start, seq)
            d_star = replay.halt_depth
            goal_state = replay.trace[d_star]
            return SearchReport(True, d_star, seq, goal_state, depth, per_depth,
                                total_calls, config.seed, config,
                                time.perf_counter() - t0)
    return SearchReport(False, None, None, None, None, per_depth, total_calls,
                        config.seed, config, time.perf_counter() - t0)


def cumulative_calls(b: int, d_max: int, policy: str = "optimal") -> list[tuple[int, float]]:
    """(cumulative single-mark iterate count, sqrt(b**d)) for each depth 0..d_max."""
    if b < 1 or d_max < 0:
        raise InputError("need b >= 1 and d_max >= 0")
    check_float_range(b, d_max)
    totals = itertools.accumulate(iterate_count(b**d, 1, policy) for d in range(d_max + 1))
    return [(total, math.sqrt(b**d)) for d, total in enumerate(totals)]


def within_call_budget(total_calls: int, b: int, d: int) -> bool:
    """The budget the paper counts its speedup in: total_calls <= 4 * sqrt(b**d)."""
    return total_calls <= 4 * math.sqrt(b**d)


def report_within_call_budget(report: SearchReport, b: int) -> bool:
    """Whether a report's oracle calls keep the budget at its final depth."""
    if not report.per_depth:
        raise InputError("report has no per-depth records to account")
    total = sum(rec.oracle_calls for rec in report.per_depth)
    if total != report.total_oracle_calls:
        raise InputError("report total_oracle_calls disagrees with its per-depth rows")
    return within_call_budget(total, b, report.per_depth[-1].depth)


def report_to_json(report: SearchReport | ClassicalSearchResult,
                   include_volatile: bool = True) -> str:
    """The report's schema, outcome and own fields, nested records too, as indented JSON."""
    data = {"schema": report.SCHEMA, "outcome": report.outcome, **vars(report)}
    if include_volatile:
        data["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    else:
        data.pop("wall_time_s", None)
    return json.dumps(data, indent=2, default=vars) + "\n"
