"""Deterministic multi-tenant fleet simulator with detector-driven isolation.

Workers share one process until a detector flags them; flagged workers are
migrated into their own process and never terminated, so false positives cost
throughput, not availability.  The simulator folds the whole fleet's counter
trace into 1-second interval averages once, then walks the interval
boundaries: at boundary i each worker, in name order, has its window i-1
classified by the configured detector (a suspect verdict isolates it at that
boundary) and then runs interval i's script executions and subsequent
requests.  Isolation cost is accounted with an affine throughput/memory model.

Everything is derived from the config seed: identical configs produce
byte-identical reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np

from . import ks as _ks
from .profiles import (
    AttackVariant,
    BenignProfile,
    generate_attack,
    generate_benign,
    make_attack_histogram,
    make_benign_histogram,
)
from .threshold import ThresholdConfig, classify_threshold
from .trace import IntervalAverage, TraceBatch, fold_intervals

DEGRADED_MODE = "degraded to strict process isolation"
SELECTIVE_MODE = "selective isolation"


class Placement(str, Enum):
    SHARED = "shared"
    ISOLATED = "isolated"


@dataclass(frozen=True)
class BenignWorkload:
    kind: str = "benign"


@dataclass(frozen=True)
class AttackWorkload:
    variant: AttackVariant = AttackVariant.PHT
    amplification: int | None = None  # None = full strength
    kind: str = "attack"


@dataclass(frozen=True)
class EvasiveWorkload:
    """Attack diluted with extra code pages to duck the branch threshold."""

    pages: int
    variant: AttackVariant = AttackVariant.PHT
    amplification: int | None = None
    kind: str = "evasive"


Workload = Union[BenignWorkload, AttackWorkload, EvasiveWorkload]


@dataclass(frozen=True)
class CostModel:
    """Isolation cost constants.

    Detection itself costs a flat 2%.  An isolated guest costs 8x the CPU and
    2x-5x the memory of a shared one; the slopes of the affine throughput
    and memory curves follow from those multipliers.
    """

    detection_overhead_rel: float = 0.02
    isolated_cpu_multiplier: float = 8.0
    isolated_mem_multiplier_range: tuple[float, float] = (2.0, 5.0)

    def __post_init__(self):
        if not 0.0 <= self.detection_overhead_rel < 1.0:
            raise ValueError("detection_overhead_rel must be in [0, 1)")
        if self.isolated_cpu_multiplier < 1.0:
            raise ValueError("isolated_cpu_multiplier must be >= 1")
        lo, hi = self.isolated_mem_multiplier_range
        if not 1.0 <= lo <= hi:
            raise ValueError("isolated_mem_multiplier_range must be >= 1 and ordered")

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
class DetectorSpec:
    """Which detector runs at interval boundaries; KS uses the packaged template."""

    kind: str = "threshold"  # "threshold" | "ks"
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)
    alpha: float = _ks.DEFAULT_ALPHA

    def __post_init__(self):
        if self.kind not in ("threshold", "ks"):
            raise ValueError(f"unknown detector kind {self.kind!r}")


@dataclass(frozen=True)
class FleetConfig:
    n_benign: int = 50
    n_attack: int = 1
    intervals: int = 6
    executions_per_interval: int = 2
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    attack: AttackWorkload | EvasiveWorkload = field(default_factory=AttackWorkload)
    cost_model: CostModel = field(default_factory=CostModel)
    baseline_rps: float = 1000.0
    worker_mem_bytes: int = 1 << 20
    subrequests_per_interval: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_benign < 0 or self.n_attack < 0:
            raise ValueError("worker counts must be >= 0")
        if self.n_benign + self.n_attack == 0:
            raise ValueError("fleet must have at least one worker")
        if self.intervals < 1 or self.executions_per_interval < 1:
            raise ValueError("intervals and executions_per_interval must be >= 1")


@dataclass
class WorkerRecord:
    """Mutable per-tenant runtime state.

    Placement only ever moves Shared -> Isolated; there is no de-isolation
    rule, so staying isolated is the conservative reading.
    """

    worker_id: str
    workload: Workload
    histogram_rng: np.random.Generator
    placement: Placement = Placement.SHARED
    subsequent_requests: int = 0
    flagged_at_interval: int | None = None
    served_after_isolation: int = 0


def _is_suspect(detector: DetectorSpec, record: WorkerRecord, avg: IntervalAverage) -> bool:
    if detector.kind == "threshold":
        return classify_threshold(avg, detector.threshold).suspect
    if isinstance(record.workload, BenignWorkload):
        hist = make_benign_histogram(record.histogram_rng)
    else:
        hist = make_attack_histogram(record.histogram_rng)
    return _ks.classify_ks(hist, _ks.load_default_template(), alpha=detector.alpha).suspect


@dataclass(frozen=True)
class SeriesPoint:
    t_sec: int
    throughput_rps: float
    memory_bytes: float
    isolated_count: int


@dataclass(frozen=True)
class FleetReport:
    """Deterministic run summary; serialize with to_json_dict()."""

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
        return {
            "seed": self.seed,
            "mode": self.mode,
            "workers": {
                "total": self.n_workers,
                "benign": self.n_benign,
                "attack": self.n_attack,
            },
            "intervals": self.intervals,
            "isolated_total": self.isolated_total,
            "benign_workers_flagged": self.benign_workers_flagged,
            "attack_workers_flagged": self.attack_workers_flagged,
            "benign_interval_fp_rate": self.benign_interval_fp_rate,
            "detection_latency_intervals": dict(sorted(self.detection_latency_intervals.items())),
            "verdicts": list(self.verdicts),
            "timeline": list(self.timeline),
            "redirects": self.redirects,
            "post_isolation_shared_events": self.post_isolation_shared_events,
            "liveness_ok": self.liveness_ok,
            "baseline_rps": self.baseline_rps,
            "detection_factor": self.detection_factor,
            "series": [
                {
                    "t_sec": p.t_sec,
                    "throughput_rps": p.throughput_rps,
                    "memory_bytes": p.memory_bytes,
                    "isolated_count": p.isolated_count,
                }
                for p in self.series
            ],
        }


def _build_workers(cfg: FleetConfig) -> tuple[list[WorkerRecord], TraceBatch]:
    """The workers in name order and the fleet's trace, one worker after another.

    A worker's code in the trace is its rank in name order.
    """
    profile = BenignProfile.default()
    n_samples = cfg.intervals * cfg.executions_per_interval

    specs: list[tuple[str, Workload]] = []
    for i in range(cfg.n_attack):
        specs.append((f"attack-{i:03d}", cfg.attack))
    for i in range(cfg.n_benign):
        specs.append((f"worker-{i:03d}", BenignWorkload()))

    workers: list[tuple[WorkerRecord, TraceBatch]] = []
    children = np.random.SeedSequence(cfg.rng_seed).spawn(len(specs))
    for (worker_id, workload), child in zip(specs, children):
        trace_seed, hist_seed = child.spawn(2)
        shape = dict(n=n_samples, seed=trace_seed, worker_id=worker_id,
                     samples_per_window=cfg.executions_per_interval)
        if isinstance(workload, BenignWorkload):
            batch = generate_benign(profile, **shape)
        else:
            pages = workload.pages if isinstance(workload, EvasiveWorkload) else 0
            batch, _hist = generate_attack(
                workload.variant, amplification=workload.amplification, pages=pages, **shape
            )
        record = WorkerRecord(worker_id, workload, np.random.default_rng(hist_seed))
        workers.append((record, batch))
    workers.sort(key=lambda pair: pair[0].worker_id)

    fleet = TraceBatch(
        tuple(record.worker_id for record, _batch in workers),
        np.repeat(np.arange(len(workers)), n_samples),
        np.concatenate([batch.counts for _record, batch in workers]),
    )
    return [record for record, _batch in workers], fleet


def run_fleet(cfg: FleetConfig) -> FleetReport:
    """Fold the fleet's trace, walk the interval boundaries, account costs."""
    workers, trace = _build_workers(cfg)
    # Windows are looked up by (window, worker), so the fold's emission
    # order, and with it the order of workers in the trace, is immaterial.
    folded = fold_intervals(trace)
    due = {
        (window, avg.worker_id): avg
        for window, avg in zip(folded.window.tolist(), folded)
    }
    subrequest_limit = cfg.detector.threshold.subrequest_limit

    verdicts: list[dict] = []
    timeline: list[dict] = []
    benign_averages = benign_suspect_averages = 0
    post_isolation_shared_events = 0
    redirects = 0

    for boundary in range(cfg.intervals + 1):
        for record in workers:
            # Settle the window that closed at this boundary before running
            # the next interval, so a worker flagged here runs it isolated.
            avg = due.get((boundary - 1, record.worker_id))
            if avg is not None:
                interval = boundary - 1
                suspect = _is_suspect(cfg.detector, record, avg)
                verdicts.append(
                    {"interval": interval, "worker_id": record.worker_id, "suspect": suspect}
                )
                if isinstance(record.workload, BenignWorkload):
                    benign_averages += 1
                    benign_suspect_averages += suspect
                if suspect and record.placement is Placement.SHARED:
                    record.placement = Placement.ISOLATED
                    record.flagged_at_interval = interval
                    timeline.append(
                        {"interval": interval, "worker_id": record.worker_id, "action": "isolate"}
                    )
            if boundary == cfg.intervals:
                continue
            if record.placement is Placement.ISOLATED:
                record.served_after_isolation += cfg.executions_per_interval
            elif record.flagged_at_interval is not None:
                post_isolation_shared_events += cfg.executions_per_interval  # must stay 0
            before = record.subsequent_requests
            record.subsequent_requests += cfg.subrequests_per_interval
            over = max(0, record.subsequent_requests - max(before, subrequest_limit))
            timeline.extend(
                {"interval": -1, "worker_id": record.worker_id, "action": "redirect"}
                for _ in range(over)
            )
            redirects += over

    n_workers = len(workers)
    benign_ids = {r.worker_id for r in workers if isinstance(r.workload, BenignWorkload)}
    flagged = {r.worker_id: r.flagged_at_interval for r in workers if r.flagged_at_interval is not None}
    latency = {
        w: interval + 1  # windows close one interval after they start filling
        for w, interval in flagged.items()
        if w not in benign_ids
    }

    isolations_by_interval = Counter(flagged.values())
    isolated_running = 0
    series: list[SeriesPoint] = []
    for interval in range(cfg.intervals):
        isolated_running += isolations_by_interval[interval]
        series.append(
            SeriesPoint(
                t_sec=interval + 1,
                throughput_rps=cfg.cost_model.throughput_rps(
                    cfg.baseline_rps, isolated_running, n_workers
                ),
                memory_bytes=cfg.cost_model.memory_bytes(
                    cfg.worker_mem_bytes, isolated_running, n_workers
                ),
                isolated_count=isolated_running,
            )
        )

    isolated_total = sum(1 for r in workers if r.placement is Placement.ISOLATED)
    liveness_ok = all(
        r.served_after_isolation > 0
        for r in workers
        if r.placement is Placement.ISOLATED and (r.flagged_at_interval or 0) < cfg.intervals - 1
    )

    return FleetReport(
        seed=cfg.rng_seed,
        mode=DEGRADED_MODE if isolated_total == n_workers else SELECTIVE_MODE,
        n_workers=n_workers,
        n_benign=cfg.n_benign,
        n_attack=cfg.n_attack,
        intervals=cfg.intervals,
        isolated_total=isolated_total,
        benign_workers_flagged=sum(1 for w in flagged if w in benign_ids),
        attack_workers_flagged=sum(1 for w in flagged if w not in benign_ids),
        benign_interval_fp_rate=(
            benign_suspect_averages / benign_averages if benign_averages else 0.0
        ),
        detection_latency_intervals=latency,
        verdicts=tuple(verdicts),
        timeline=tuple(timeline),
        redirects=redirects,
        post_isolation_shared_events=post_isolation_shared_events,
        liveness_ok=liveness_ok,
        series=tuple(series),
        baseline_rps=cfg.baseline_rps,
        detection_factor=1.0 - cfg.cost_model.detection_overhead_rel,
    )
