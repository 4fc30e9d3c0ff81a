"""Deterministic multi-tenant fleet simulator with detector-driven isolation.

Workers share one process until a detector flags them; flagged workers are
migrated into their own process and never terminated, so false positives cost
throughput, not availability.  Each detector draws only its own input, each
worker from its own Generator, all their seeds hashed at once
(``_worker_generators``).  The threshold rule draws every worker's counters
into one validated trace (one counter-arithmetic pass over all benign
workers).  Those records lie on a (worker, window, execution) grid, so the
fleet averages only the rule's two metrics per window, exactly as
``fold_intervals`` would (``trace._grid_means``), and flags them with the
rule's column form; the KS screen draws only misprediction-histogram counts,
in the zero-padded blocks of ``profiles._ks_count_blocks`` (the counts do not
depend on the batching), and screens a block at a time.
Either way the result is one (worker x interval) flag grid, which gives the
verdicts and the benign false-positive rate.  One policy function
(``_first_flag_policy``) maps it to the windows whose close decides to isolate
a worker and a (worker x boundary) placement matrix; the timeline, latencies,
series and both safety checks read those two alone.  Requests past
``SUBREQUEST_LIMIT`` are counted; isolation cost is accounted with an affine
throughput/memory model.

Everything is derived from the config seed: identical configs produce
byte-identical reports; its settings sections come from ``threshold``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import ClassVar, Iterator

import numpy as np

from . import ks as _ks
from .profiles import BenignProfile, _fleet_counts, _ks_count_blocks
from .threshold import RULE_METRICS, AttackWorkload, DetectorSpec, _rule_codes
from .threshold import at_least, check_fields
from .trace import TraceBatch, _grid_means

DEGRADED_MODE = "degraded to strict process isolation"
SELECTIVE_MODE = "selective isolation"
SUBREQUEST_LIMIT = 10_000

# numpy's SeedSequence hash constants (a pool of four uint32 words).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_U32 = (1 << 32) - 1


@dataclass(frozen=True)
class CostModel:
    """Isolation cost constants.

    Detection itself costs a flat 2%.  An isolated guest costs 8x the CPU and
    2x-5x the memory of a shared one; the slopes of the affine throughput
    and memory curves follow from those multipliers.
    """

    detection_overhead_rel = 0.02
    isolated_cpu_multiplier = 8.0
    isolated_mem_multiplier_range = (2.0, 5.0)

    def isolation_penalty(self, isolated: int, n_workers: int) -> float:
        """Relative throughput factor with `isolated` of n workers isolated.

        Affine between 1 (all shared) and 1/cpu_multiplier (strict process
        isolation).
        """
        if n_workers == 0:
            return 1.0
        lost = (1.0 - 1.0 / self.isolated_cpu_multiplier) * isolated / n_workers
        return 1.0 - lost

    def throughput_rps(self, baseline_rps: float, isolated: int, n_workers: int) -> float:
        detected = baseline_rps * (1.0 - self.detection_overhead_rel)
        return detected * self.isolation_penalty(isolated, n_workers)

    def memory_bytes(self, worker_mem_bytes: int, isolated: int, n_workers: int) -> float:
        mid = sum(self.isolated_mem_multiplier_range) / 2.0
        slope = (mid - 1.0) * worker_mem_bytes
        return n_workers * worker_mem_bytes + slope * isolated


@dataclass(frozen=True)
class FleetConfig:
    n_benign: int = at_least(0, default=50)
    n_attack: int = at_least(0, default=1)
    intervals: int = at_least(1, default=6)
    executions_per_interval: int = at_least(1, default=2)
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    attack: AttackWorkload = field(default_factory=AttackWorkload)
    baseline_rps: float = at_least(0, default=1000.0)
    worker_mem_bytes: int = at_least(0, default=1 << 20, maximum=2**63 - 1)
    subrequests_per_interval: int = at_least(0, default=0)
    rng_seed: int = at_least(0, default=0)
    cost_model: ClassVar[CostModel] = CostModel()

    def __post_init__(self):
        check_fields(self)
        if self.n_benign + self.n_attack == 0:
            raise ValueError("fleet must have at least one worker")
        if self.baseline_rps == math.inf:
            raise ValueError("'baseline_rps' must be finite, got inf")


@dataclass(frozen=True)
class SeriesPoint:
    t_sec: int
    throughput_rps: float
    memory_bytes: float
    isolated_count: int


@dataclass(frozen=True)
class FleetReport:
    """Deterministic run summary; serialize with to_json_dict().  A sound policy gives
    ``post_isolation_shared_events`` 0 (no execution runs shared after a decision to
    isolate) and ``liveness_ok`` True (every decision before the last window is carried
    out at the next boundary)."""

    seed: int
    mode: str
    n_workers: int
    n_benign: int
    n_attack: int
    intervals: int
    isolated_total: int
    benign_workers_flagged: int
    attack_workers_flagged: int
    benign_interval_fp_rate: float
    detection_latency_intervals: dict[str, int]
    verdicts: tuple[dict, ...]
    timeline: tuple[dict, ...]
    redirects: int
    post_isolation_shared_events: int
    liveness_ok: bool
    series: tuple[SeriesPoint, ...]
    baseline_rps: float
    detection_factor: float

    def to_json_dict(self) -> dict:
        """The fields as JSON values, worker counts nested under ``workers``.

        Key order is not part of the report: dump it with ``sort_keys=True``.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["workers"] = {"total": out.pop("n_workers"), "benign": out.pop("n_benign"),
                          "attack": out.pop("n_attack")}
        out["series"] = [asdict(p) for p in self.series]
        return out


def _hash(value, xor, mult):
    """numpy's SeedSequence hash step, given its constant before and after."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _worker_generators(seed: int, keys: list[int], j: int) -> Iterator[np.random.Generator]:
    """``default_rng(SeedSequence(seed, spawn_key=(i, j)))`` for each i of
    ``keys``, in turn, each a Generator of its own.

    Every worker's state is hashed at once, on uint32 columns with one entry
    per worker.  ``SeedSequence(seed).pool`` has mixed the seed's 32-bit words
    (at least four), four hash steps each; the spawn key's words i and j are
    mixed in after them, with the hash constant continued from there, and
    ``generate_state(4, uint64)`` hashes 8 words out of the pool, read as
    uint64 through numpy's '<u4' to '<u8' view.  numpy's PCG64 seeds itself
    from those four words (``State``).  ``test_states_equal_numpy`` checks
    the result against numpy's own seeding.
    """
    # defined here, so that importing fleet does not load numpy.random
    class State(np.random.bit_generator.ISeedSequence):
        """A seed sequence whose state is one worker's four hashed uint64 words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    steps = 4 * max(4, -(-seed.bit_length() // 32))
    a = [_INIT_A * pow(_MULT_A, k, 1 << 32) & _U32 for k in range(steps, steps + 9)]
    b = [_INIT_B * pow(_MULT_B, k, 1 << 32) & _U32 for k in range(9)]
    pool = np.tile(np.random.SeedSequence(seed).pool, (len(keys), 1))
    key = np.array(keys, dtype=np.uint32), np.full(len(keys), j, dtype=np.uint32)
    for k in range(8):
        x = _MIX_L * pool[:, k % 4] - _MIX_R * _hash(key[k // 4], a[k], a[k + 1])
        pool[:, k % 4] = x ^ x >> 16
    state = np.stack([_hash(pool[:, k % 4], b[k], b[k + 1]) for k in range(8)], axis=1)
    for words in state.astype("<u4").view("<u8").astype(np.uint64):
        yield np.random.Generator(np.random.PCG64(State(words)))


def _first_flag_policy(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``decided[w, k]``: window k's close (boundary k+1) decides to isolate
    worker w, at its first flag; ``placement[w, b]``: w runs isolated after
    boundary b.  A decided worker moves at once and never returns."""
    placement = np.zeros((len(flags), flags.shape[1] + 1), dtype=bool)
    placement[:, 1:] = np.logical_or.accumulate(flags, axis=1)
    return placement[:, 1:] > placement[:, :-1], placement


def run_fleet(cfg: FleetConfig) -> FleetReport:
    """Classify every window into one (worker x interval) flag grid; the
    policy (``_first_flag_policy``) turns it into isolations and costs.

    Worker i of the spec order (attackers, then benign workers) draws its
    counters from spawn key (i, 0) of the config seed, its histograms from
    (i, 1); only the configured detector's draws are made, each worker from its
    own generator (``_worker_generators``).  Its row of the grid, and its code in
    the trace, is its rank in name order, where every ``attack-`` name
    precedes every ``worker-`` name.  A threshold fleet's trace is validated
    as one ``TraceBatch``; each run of ``executions_per_interval`` records is
    then one window, whose ``RULE_METRICS`` means (``trace._grid_means``) the
    rule flags (``threshold._rule_codes``), with no sort or full fold.
    """
    specs = [f"attack-{i:03d}" for i in range(cfg.n_attack)]
    specs += [f"worker-{i:03d}" for i in range(cfg.n_benign)]
    order = sorted(range(len(specs)), key=specs.__getitem__)
    names = tuple(specs[i] for i in order)
    benign = np.array(order) >= cfg.n_attack
    n_workers, intervals = len(names), cfg.intervals

    # flags[w, k]: window k of worker w is suspect.
    if cfg.detector.kind == "threshold":
        e = cfg.executions_per_interval
        counts = _fleet_counts(_worker_generators(cfg.rng_seed, order, 0),
                               BenignProfile.default(), cfg.n_attack, cfg.n_benign,
                               intervals * e, e, astuple(cfg.attack))
        # checks the counter invariants; the error names the first bad record's field
        TraceBatch(names, np.repeat(np.arange(n_workers), intervals * e), counts)
        rule = _rule_codes(*_grid_means(counts, e, RULE_METRICS).T, cfg.detector.threshold)
        flags = (rule > 0).reshape(n_workers, intervals)
    else:
        counts = _ks_count_blocks(benign.tolist(), _worker_generators(cfg.rng_seed, order, 1),
                                  intervals)
        suspect = _ks.screen_counts(counts, _ks.load_default_template()) >= cfg.detector.alpha
        flags = suspect.reshape(n_workers, intervals)

    decided, placement = _first_flag_policy(flags)
    isolated_count = placement.sum(axis=0).tolist()
    cost = cfg.cost_model
    series = tuple(
        SeriesPoint(t_sec, cost.throughput_rps(cfg.baseline_rps, count, n_workers),
                    cost.memory_bytes(cfg.worker_mem_bytes, count, n_workers), count)
        for t_sec, count in enumerate(isolated_count[1:], start=1)
    )
    # intervals a worker ran shared after a decision to isolate it
    shared = ~placement[:, 1:-1] & np.logical_or.accumulate(decided, axis=1)[:, :-1]

    flagged = flags.any(axis=1)
    isolated_total = isolated_count[-1]
    return FleetReport(
        seed=cfg.rng_seed,
        mode=DEGRADED_MODE if isolated_total == n_workers else SELECTIVE_MODE,
        n_workers=n_workers,
        n_benign=cfg.n_benign,
        n_attack=cfg.n_attack,
        intervals=intervals,
        isolated_total=isolated_total,
        benign_workers_flagged=int(np.count_nonzero(flagged & benign)),
        attack_workers_flagged=int(np.count_nonzero(flagged & ~benign)),
        benign_interval_fp_rate=float(flags[benign].mean()) if cfg.n_benign else 0.0,
        # windows close one interval after they start filling
        detection_latency_intervals={
            names[w]: int(decided[w].argmax()) + 1
            for w in np.flatnonzero(decided.any(axis=1) & ~benign).tolist()
        },
        # verdicts by (interval, worker code)
        verdicts=tuple([
            {"interval": k, "worker_id": name, "suspect": s}
            for k, column in enumerate(flags.T.tolist()) for name, s in zip(names, column)
        ]),
        # moves from shared to isolated by (closing window, worker code)
        timeline=tuple([
            {"interval": k, "worker_id": names[w], "action": "isolate"}
            for k, w in np.argwhere((placement[:, 1:] > placement[:, :-1]).T).tolist()
        ]),
        redirects=n_workers * max(0, cfg.subrequests_per_interval * intervals
                                  - SUBREQUEST_LIMIT),
        post_isolation_shared_events=cfg.executions_per_interval * int(np.count_nonzero(shared)),
        # every decision before the last window carried out at the next boundary
        liveness_ok=bool(placement[:, 1:-1][decided[:, :-1]].all()),
        series=series,
        baseline_rps=cfg.baseline_rps,
        detection_factor=1.0 - cost.detection_overhead_rel,
    )
