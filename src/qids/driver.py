"""Depth-by-depth amplified search for a halting rule sequence.

Each round builds a fresh uniform superposition over all length-d sequences,
prepares the halt bit in the minus state, runs the iterate schedule against
the halting oracle, and measures the whole register. A measured sequence
that the classical predicate confirms as halting ends the search; otherwise
the depth increases and the superposition is rebuilt from scratch, which is
what restores the interference pattern a failed measurement destroyed.

The round is not simulated; this module holds its closed forms instead.
From a uniform start the state stays in the span of the marked and the
unmarked uniform superpositions, so with k of N sequences marked the marked
mass after m iterates is

    P(m) = sin**2((2m + 1) * arcsin(sqrt(k/N)))

(`predicted_success_exact`), and the state has only two Born weights, one
per flat entry of a marked sequence and one per unmarked entry
(`amplified_weights`). `measure` inverts their cumulative distribution in
closed form: one uniform double from the depth's generator, a binary search
over the runs of marked sequences that `production.marked_vector` returns
and one division, with no length-2N vector, no b**d bitmap and whatever the
iterate count. The runs also give k, and `measure` hands back whether the
measured sequence halts. It returns the index that `rng.choice` over the
flat vector (`amplified_probabilities`) draws from that same double
(`vector_draw`, the reference draw), so seeded reports match the dense
engine's: `verify.check_engine_agreement` ties that vector to
`statevector.amplified_state`, the reference that runs the iterate
itself. The vector, and the bitmap it is spread from, are built only when
the double falls within rounding distance of a step edge, to draw from it
with `vector_draw`. `verify.check_draw_agreement` holds `measure` to
`vector_draw`, so a numpy whose `choice` draws differently fails the gate
instead of silently changing seeded reports.

Rebuilding makes the cost of re-scanning shallow levels geometric: with the
optimal iterate policy the cumulative oracle-call count through depth d
stays within 4 * sqrt(b**d) for any branching factor b >= 2: the budget
that `within_call_budget` states and `cumulative_calls` tabulates.

`report_to_json` writes the reports of both searches, a `SearchReport` or a
`production.ClassicalSearchResult`, straight from their fields, which are
the format; qids writes reports and never reads them back. The volatile
fields (wall time, timestamp) can be suppressed so reports from identical
seeded runs compare byte-for-byte. Its writer appends to one list and
produces exactly the text of `json.dumps(data, indent=2, default=vars)`,
scalar spellings included, without the reference cycles that the standard
library's indenting encoder leaves for the garbage collector.
"""

from __future__ import annotations

import itertools
import logging
import math
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import ClassVar

import numpy as np

from .errors import InputError, KZero, SizeLimit
from .limits import check_float_range, check_size, register_fits, sim_cap
from .production import (ClassicalSearchResult, MarkedRuns, ProductionSystem, RuleSequence,
                         check_start, check_walk_depth, execute_sequence, index_to_sequence,
                         marked_vector)
from .statevector import bitmap, check_total, sample_index

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
    d = 0
    while register_fits(b, d + 1):
        d += 1
    return d


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


def iterate_count(n_paths: int, k_policy: int, policy: str) -> int:
    if policy == "faithful":
        return literal_iterations(n_paths)
    return optimal_iterations(n_paths, k_policy)


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


def success_row(b: int, d: int, k: int) -> tuple[int, float | None, float]:
    """(m, asymptotic, exact): the optimal iterate count with k of b**d sequences
    marked and both success forms at it; k = 0 has neither, so (0, None, 0.0)."""
    if k == 0:
        return 0, None, 0.0
    m = optimal_iterations(b**d, k)
    return m, predicted_success_asymptotic(b, d, k), predicted_success_exact(b**d, k, m)


def amplified_weights(n_paths: int, k: int, m: int) -> tuple[float, float]:
    """(p_marked, p_unmarked): the Born weight of one flat entry after m iterates.

    Each of the k marked sequences carries sin**2((2m+1) theta)/k and each
    unmarked one cos**2((2m+1) theta)/(N-k), with theta = asin(sqrt(k/N)),
    split evenly over the two halt-bit values. k = 0 leaves the uniform
    1/(2N); k = N has no unmarked weight.
    """
    if not 0 <= k <= n_paths:
        raise InputError(f"need 0 <= k <= N, got k={k} N={n_paths}")
    if m < 0:
        raise InputError("iterate count must be >= 0")
    angle = (2 * m + 1) * math.asin(math.sqrt(k / n_paths))
    p_marked = math.sin(angle) ** 2 / (2 * k) if k else 0.0
    p_unmarked = math.cos(angle) ** 2 / (2 * (n_paths - k)) if k < n_paths else 0.0
    return p_marked, p_unmarked


def amplified_probabilities(marks: np.ndarray, m: int) -> np.ndarray:
    """Flat Born probabilities of `statevector.amplified_state` after m iterates, in closed form.

    Each entry is one of the two `amplified_weights` of the marks' count, in
    the flat layout p*2 + h of the dense register.
    """
    p_marked, p_unmarked = amplified_weights(len(marks), int(np.count_nonzero(marks)), m)
    check_size(2 * len(marks), "probability vector")
    return np.repeat(np.where(marks, p_marked, p_unmarked), 2)


def vector_draw(probs: np.ndarray, seed: int, depth: int) -> int:
    """The sequence that `rng.choice` over the flat vector `probs` draws with the
    depth's generator: the reference draw every seeded measurement is held to."""
    return sample_index(probs, depth_rng(seed, depth)) // 2


def _candidate(runs: MarkedRuns, p_marked: float, p_unmarked: float, t: float) -> int | None:
    """The flat index whose step holds the mass t, up to rounding, or None.

    A binary search over the masses below the runs' starts finds the last
    run starting at or below t; one division then lands in that run or in
    the unmarked gap after it. None when t lies past the last run and no
    unmarked entry carries weight.
    """
    def mass_below(r: int) -> float:
        start, _, below = runs.run(r)
        return 2 * (below * p_marked + (start - below) * p_unmarked)

    r = bisect_right(range(len(runs)), t, key=mass_below) - 1
    if r < 0:
        first, base = 0, 0.0
    else:
        start, span, _ = runs.run(r)
        base = mass_below(r)
        if t - base < 2 * span * p_marked:
            return 2 * start + int((t - base) // p_marked)
        first, base = start + span, base + 2 * span * p_marked
    if p_unmarked > 0:
        return 2 * first + int((t - base) // p_unmarked)
    return None


def _inverse_cdf(runs: MarkedRuns, p_marked: float, p_unmarked: float, total: float,
                 u: float) -> tuple[int, bool] | None:
    """(the sequence whose flat step of the cumulative distribution holds u, its mark).

    The flat entries 2i and 2i + 1 of sequence i weigh p_marked if i is
    marked and p_unmarked if not, so with M(i) from `runs.locate(i)` the number
    of marked sequences below i the mass below flat index 2i + h is

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
    `rng.choice` over the vector. `_candidate` proposes the step, and only
    this test accepts it.
    """
    n_paths = runs.n
    band = (4 * n_paths + 16) * sys.float_info.epsilon
    flat = _candidate(runs, p_marked, p_unmarked, u * total)
    if flat is None:
        return None
    index, h = divmod(min(max(flat, 0), 2 * n_paths - 1), 2)
    below, marked = runs.locate(index)
    weight = p_marked if marked else p_unmarked
    lo = 2 * (below * p_marked + (index - below) * p_unmarked) + h * weight
    if u - lo / total > band and (lo + weight) / total - u > band:
        return index, marked
    return None


def measure(runs: MarkedRuns, m: int, seed: int, depth: int) -> tuple[int, bool, bool]:
    """Measure the round at `depth`: (index, marked, fast), the sequence drawn
    after m iterates, its mark, and whether the inverse CDF gave it.

    The closed-form counterpart of `statevector.measure` on the amplified
    state: the index is the one `vector_draw` draws from
    `amplified_probabilities(bitmap(runs), m)`. The closed-form total is
    checked for NormDrift before the depth's generator is touched; the
    bitmap and the probability vector are built only when the drawn double
    sits on a step edge. Either way the runs are searched for the index
    once. Logs the round as one INFO line.
    """
    n_paths, k = runs.n, runs.k
    p_marked, p_unmarked = amplified_weights(n_paths, k, m)
    total = 2 * (k * p_marked + (n_paths - k) * p_unmarked)
    check_total(total)
    found = _inverse_cdf(runs, p_marked, p_unmarked, total, depth_rng(seed, depth).random())
    fast = found is not None
    if fast:
        index, marked = found
    else:
        index = vector_draw(amplified_probabilities(bitmap(runs), m), seed, depth)
        marked = runs.locate(index)[1]
    log.info("depth=%d k=%d m=%d index=%d halting=%s draw=%s", depth, k, m, index, marked,
             "inverse-cdf" if fast else "vector")
    return index, marked, fast


def quantum_iterative_deepening(system: ProductionSystem, start: str,
                                config: QidConfig) -> SearchReport:
    """Search for a halting sequence from `start`, deepening one level per round.

    The returned witness is the measured sequence; d_star is the length of
    its shortest halting prefix, and goal_state is the memory string that
    prefix reaches on classical replay.
    """
    check_start(system, start)
    b = system.branching_factor
    depth_cap = config.depth_cap if config.depth_cap is not None else default_depth_cap(b)
    if not register_fits(b, depth_cap):
        raise SizeLimit(f"depth cap {depth_cap} needs 2 * {b}**{depth_cap} amplitudes, "
                        f"over the cap of {sim_cap()}")
    check_walk_depth(depth_cap)

    t0 = time.perf_counter()
    per_depth: list[DepthRecord] = []
    total_calls = 0
    for depth in range(depth_cap + 1):
        n_paths = b**depth
        runs = marked_vector(system, start, depth)
        k = runs.k
        if k == 0 and config.skip_empty_depths:
            log.info("depth=%d k=0 skipped", depth)
            per_depth.append(DepthRecord(depth, n_paths, 0, 0, 0, 0.0, True, None, None, None))
            continue
        k_policy = k if config.counting_mode == "exact" else 1
        m = iterate_count(n_paths, max(k_policy, 1), config.iterate_policy)
        p_index, halting, _ = measure(runs, m, config.seed, depth)
        seq = index_to_sequence(p_index, b, depth)
        total_calls += m
        predicted = predicted_success_exact(n_paths, k, m) if k else 0.0
        per_depth.append(DepthRecord(depth, n_paths, k, m, m, predicted, False,
                                     p_index, seq, halting))
        if halting:
            replay = execute_sequence(system, start, seq)
            d_star = replay.goal_step
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


def call_budget_rows(b: int, d_max: int, policy: str) -> list[dict]:
    """The `cumulative_calls` of branching factor b as table rows: per depth, the
    total, sqrt(b**d), their ratio and whether the total keeps the budget."""
    return [{"b": b, "d": d, "total_calls": total, "sqrt_bd": root, "ratio": total / root,
             "within_bound": within_call_budget(total, b, d)}
            for d, (total, root) in enumerate(cumulative_calls(b, d_max, policy))]


def report_within_call_budget(report: SearchReport, b: int) -> bool:
    """Whether a report's oracle calls keep the budget at its final depth."""
    if not report.per_depth:
        raise InputError("report has no per-depth records to account")
    total = sum(rec.oracle_calls for rec in report.per_depth)
    if total != report.total_oracle_calls:
        raise InputError("report total_oracle_calls disagrees with its per-depth rows")
    return within_call_budget(total, b, report.per_depth[-1].depth)


def timestamp() -> str:
    """The local time in the format of every report's `timestamp` field."""
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def report_to_json(report: SearchReport | ClassicalSearchResult,
                   include_volatile: bool = True) -> str:
    """The report's schema, outcome and own fields, nested records too, as indented JSON."""
    data = {"schema": report.SCHEMA, "outcome": report.outcome, **vars(report)}
    if include_volatile:
        data["timestamp"] = timestamp()
    else:
        data.pop("wall_time_s", None)
    out: list[str] = []
    _write_json(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append `value` as `json.dumps(value, indent=2, default=vars)` writes it, where
    `newline` is the line break and indent of the value's own line.

    The scalar rules are `json`'s own: strings through its ASCII escaper,
    ints and floats by their `repr`, with NaN and the infinities spelled as
    `json` spells them. Tuples are written as lists, and any other record
    as the dict of its `vars`.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value == math.inf:
            out.append("Infinity")
        elif value == -math.inf:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        items = value if isinstance(value, dict) else vars(value)
        if not items:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in items.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
