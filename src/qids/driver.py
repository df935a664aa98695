"""Depth-by-depth amplified search for a halting rule sequence.

Each round builds a fresh uniform superposition over all length-d sequences,
prepares the halt bit in the minus state, runs the iterate schedule against
the halting oracle, and measures the whole register. A measured sequence
that the classical predicate confirms as halting ends the search; otherwise
the depth increases and the superposition is rebuilt from scratch, which is
what restores the interference pattern a failed measurement destroyed.

The round is not simulated: it samples from the closed-form probabilities
of that state (`grover.amplified_probabilities`), in O(b**d) time whatever
the iterate count. The draw is the same `rng.choice` over the flat register
that measuring the dense state makes, so seeded reports match the dense
engine's, which the `engine-agreement` check ties to this vector.

Rebuilding makes the cost of re-scanning shallow levels geometric: with the
optimal iterate policy the cumulative oracle-call count through depth d
stays within 4 * sqrt(b**d) for any branching factor b >= 2.

Reports serialise to JSON ("qids.search-report/1"). The volatile fields
(wall time, timestamp) can be suppressed so reports from identical seeded
runs compare byte-for-byte.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InputError, SizeLimit
from .grover import (amplified_probabilities, literal_iterations,
                     optimal_iterations, predicted_success_exact)
from .jsonfields import check_object, read_field, read_list_of
from .limits import sim_cap
from .production import (ProductionSystem, RuleSequence, execute_sequence,
                         index_to_sequence, marked_vector)
from .statevector import sample_index

REPORT_SCHEMA = "qids.search-report/1"

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


def measure(marks: np.ndarray, k: int, m: int, seed: int, depth: int) -> int:
    """Measure the round at `depth`: the sequence index drawn after m iterates.

    The closed-form counterpart of `statevector.measure` on the amplified
    state: the same Born draw over the flat register, with the depth's own
    generator, from the vector that `amplified_probabilities` gives instead
    of the dense amplitudes.
    """
    probs = amplified_probabilities(marks, k, m)
    return sample_index(probs, depth_rng(seed, depth)) // 2


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

    t0 = time.perf_counter()
    per_depth: list[DepthRecord] = []
    total_calls = 0
    for depth in range(depth_cap + 1):
        n_paths = b**depth
        marks = marked_vector(system, start, depth)
        k = int(np.count_nonzero(marks))
        if k == 0 and config.skip_empty_depths:
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


@dataclass
class CallAccounting:
    total_calls: int
    final_depth: int
    branching_factor: int
    bound: int
    within_bound: bool


def account_oracle_calls(report: SearchReport, b: int) -> CallAccounting:
    """Cumulative oracle calls versus the 4 * sqrt(b**d_final) budget."""
    if not report.per_depth:
        raise InputError("report has no per-depth records to account")
    d_final = report.per_depth[-1].depth
    total = sum(rec.oracle_calls for rec in report.per_depth)
    if total != report.total_oracle_calls:
        raise InputError("report total_oracle_calls disagrees with its per-depth rows")
    bound = math.ceil(4 * math.sqrt(b**d_final))
    return CallAccounting(total, d_final, b, bound, total <= bound)


def oracle_call_schedule(b: int, d_final: int, policy: str = "optimal",
                         k: int = 1) -> list[int]:
    """Per-depth iterate counts 0..d_final assuming k marks at every level."""
    if b < 1 or d_final < 0:
        raise InputError("need b >= 1 and d_final >= 0")
    return [iterate_count(b**d, k, policy) for d in range(d_final + 1)]


def report_to_dict(report: SearchReport, include_volatile: bool = True) -> dict:
    data = {
        "schema": REPORT_SCHEMA,
        "outcome": report.outcome,
        "found": report.found,
        "d_star": report.d_star,
        "witness": list(report.witness) if report.witness is not None else None,
        "goal_state": report.goal_state,
        "measured_depth": report.measured_depth,
        "per_depth": [
            {**asdict(rec),
             "measured_sequence": (list(rec.measured_sequence)
                                   if rec.measured_sequence is not None else None)}
            for rec in report.per_depth
        ],
        "total_oracle_calls": report.total_oracle_calls,
        "seed": report.seed,
        "config": {
            "seed": report.config.seed,
            "depth_cap": report.config.depth_cap,
            "counting_mode": report.config.counting_mode,
            "iterate_policy": report.config.iterate_policy,
            "skip_empty_depths": report.config.skip_empty_depths,
        },
    }
    if include_volatile:
        data["wall_time_s"] = report.wall_time_s
        data["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return data


_CONFIG_FIELDS = {"seed", "depth_cap", "counting_mode", "iterate_policy", "skip_empty_depths"}
_RECORD_FIELDS = {f.name for f in fields(DepthRecord)}


def _record_from_dict(rec: dict, owner: str) -> DepthRecord:
    check_object(rec, _RECORD_FIELDS, owner)
    return DepthRecord(
        depth=read_field(rec, "depth", int, owner),
        n_paths=read_field(rec, "n_paths", int, owner),
        k=read_field(rec, "k", int, owner),
        m=read_field(rec, "m", int, owner),
        oracle_calls=read_field(rec, "oracle_calls", int, owner),
        predicted_success=read_field(rec, "predicted_success", float, owner),
        skipped=read_field(rec, "skipped", bool, owner),
        measured_index=read_field(rec, "measured_index", int, owner, optional=True),
        measured_sequence=read_list_of(rec, "measured_sequence", int, owner, optional=True),
        measured_halting=read_field(rec, "measured_halting", bool, owner, optional=True),
    )


def report_from_dict(data: dict) -> SearchReport:
    """Parse a report; a missing or mistyped field is an InputError naming it."""
    if not isinstance(data, dict):
        raise InputError("report must be a JSON object")
    if data.get("schema") != REPORT_SCHEMA:
        raise InputError(f"unrecognised report schema {data.get('schema')!r}")
    cfg = check_object(read_field(data, "config", dict, "report"), _CONFIG_FIELDS,
                       "report config")
    config = QidConfig(
        seed=read_field(cfg, "seed", int, "report config"),
        depth_cap=read_field(cfg, "depth_cap", int, "report config", optional=True),
        counting_mode=read_field(cfg, "counting_mode", str, "report config"),
        iterate_policy=read_field(cfg, "iterate_policy", str, "report config"),
        skip_empty_depths=read_field(cfg, "skip_empty_depths", bool, "report config"),
    )
    return SearchReport(
        found=read_field(data, "found", bool, "report"),
        d_star=read_field(data, "d_star", int, "report", optional=True),
        witness=read_list_of(data, "witness", int, "report", optional=True),
        goal_state=read_field(data, "goal_state", str, "report", optional=True),
        measured_depth=read_field(data, "measured_depth", int, "report", optional=True),
        per_depth=[_record_from_dict(rec, f"per_depth[{i}]")
                   for i, rec in enumerate(read_field(data, "per_depth", list, "report"))],
        total_oracle_calls=read_field(data, "total_oracle_calls", int, "report"),
        seed=read_field(data, "seed", int, "report"),
        config=config,
        wall_time_s=read_field(data, "wall_time_s", float, "report", 0.0),
    )


def report_to_json(report: SearchReport, include_volatile: bool = True) -> str:
    return json.dumps(report_to_dict(report, include_volatile), indent=2) + "\n"


def report_from_json(text: str) -> SearchReport:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"report is not valid JSON: {exc}") from None
    return report_from_dict(data)
