"""Deterministic multi-tenant fleet simulator with detector-driven isolation.

Workers share one process until a detector flags them; flagged workers are
migrated into their own process and never terminated, so false positives cost
throughput, not availability.  The simulator draws every worker's counters
into one trace, with one counter-arithmetic pass over all benign workers,
folds it into 1-second interval averages and classifies every window in one
batch (threshold rule on the columns, or one KS screen of every window's counts).
Window i closes at interval boundary i+1, so a worker whose first suspect
window is i is isolated there and runs every later interval isolated.  That
one number per worker fixes the verdict order, the isolate and redirect
timeline and a (worker x boundary) placement matrix, from which the series
and the safety checks are read.  Isolation cost is accounted with an affine
throughput/memory model.

Everything is derived from the config seed: identical configs produce
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ks as _ks
from .profiles import AttackVariant, _fleet_counts, draw_attack_histogram, draw_benign_histogram
from .threshold import ThresholdConfig, classify_intervals
from .trace import TraceBatch, fold_intervals

DEGRADED_MODE = "degraded to strict process isolation"
SELECTIVE_MODE = "selective isolation"


@dataclass(frozen=True)
class AttackWorkload:
    """What every attack worker of the fleet runs.

    ``amplification`` None is full strength.  ``pages`` extra code pages
    dilute the branch metric to duck the branch threshold; 0 leaves it whole.
    """

    variant: AttackVariant = AttackVariant.PHT
    amplification: int | None = None
    pages: int = 0


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
    attack: AttackWorkload = field(default_factory=AttackWorkload)
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


def _build_fleet(cfg: FleetConfig) -> tuple[TraceBatch, np.ndarray, list[np.random.Generator]]:
    """The fleet's trace, one worker after another, and per worker its benign
    flag and (KS fleets only) histogram generator.

    Worker i of the spec order (attackers, then benign workers) draws its trace
    from spawn key (i, 0) of the config seed, its histograms from (i, 1).  Its
    code in the trace, and its index here, is its rank in name order, where
    every ``attack-`` name precedes every ``worker-`` name.
    """
    n_samples = cfg.intervals * cfg.executions_per_interval
    specs = [f"attack-{i:03d}" for i in range(cfg.n_attack)]
    specs += [f"worker-{i:03d}" for i in range(cfg.n_benign)]
    order = sorted(range(len(specs)), key=specs.__getitem__)

    def rng(i: int, j: int) -> np.random.Generator:
        # the state of SeedSequence(seed).spawn(len(specs))[i].spawn(2)[j]
        return np.random.default_rng(np.random.SeedSequence(cfg.rng_seed, spawn_key=(i, j)))

    attack = cfg.attack
    counts = _fleet_counts((rng(i, 0) for i in order), cfg.n_attack, cfg.n_benign, n_samples,
                           cfg.executions_per_interval, (attack.variant, attack.amplification, attack.pages))
    fleet = TraceBatch(tuple(specs[i] for i in order), np.repeat(np.arange(len(order)), n_samples),
                       counts)
    histogram_rngs = [rng(i, 1) for i in order] if cfg.detector.kind == "ks" else []
    return fleet, np.array(order) >= cfg.n_attack, histogram_rngs


def run_fleet(cfg: FleetConfig) -> FleetReport:
    """Classify the folded fleet once, derive isolations and costs from it."""
    trace, benign, histogram_rngs = _build_fleet(cfg)
    names, intervals = trace.names, cfg.intervals
    n_workers = len(names)
    folded = fold_intervals(trace)
    # Verdicts are reported by (interval, worker code).
    order = np.lexsort((folded.worker, folded.window))
    worker, window = folded.worker[order], folded.window[order]
    if cfg.detector.kind == "threshold":
        suspect = classify_intervals(folded, cfg.detector.threshold)[0][order]
    else:
        # Each window draws its histogram's counts from its worker's generator, in window order.
        counts = ((draw_benign_histogram if benign[w] else draw_attack_histogram)(histogram_rngs[w])[1]
                  for w in worker.tolist())
        suspect = _ks.screen_counts(counts, _ks.load_default_template()) >= cfg.detector.alpha

    flags = np.zeros((n_workers, intervals), dtype=bool)
    flags[worker, window] = suspect
    # first[w]: the worker's first suspect window, or `intervals` if none.
    first = np.where(flags.any(axis=1), flags.argmax(axis=1), intervals)
    # isolated[w, b]: worker w runs isolated after boundary b.  A worker only
    # ever moves from shared to isolated; there is no de-isolation rule.
    isolated = np.zeros((n_workers, intervals + 1), dtype=bool)
    isolated[:, 1:] = np.logical_or.accumulate(flags, axis=1)

    # Subsequent requests past the limit are redirected, counted per boundary.
    limit = cfg.detector.threshold.subrequest_limit
    over = np.diff(np.maximum(cfg.subrequests_per_interval * np.arange(intervals + 1), limit))
    first_at = first.tolist()
    timeline: list[dict] = []
    for boundary, redirect in enumerate([*over.tolist(), 0]):
        closed = boundary - 1  # the window that closed at this boundary
        for w in range(n_workers) if redirect else np.flatnonzero(first == closed).tolist():
            if first_at[w] == closed:
                timeline.append({"interval": closed, "worker_id": names[w], "action": "isolate"})
            timeline.extend(
                {"interval": -1, "worker_id": names[w], "action": "redirect"}
                for _ in range(redirect)
            )

    isolated_count = isolated.sum(axis=0).tolist()
    series = tuple(
        SeriesPoint(
            t_sec=boundary,
            throughput_rps=cfg.cost_model.throughput_rps(
                cfg.baseline_rps, isolated_count[boundary], n_workers
            ),
            memory_bytes=cfg.cost_model.memory_bytes(
                cfg.worker_mem_bytes, isolated_count[boundary], n_workers
            ),
            isolated_count=isolated_count[boundary],
        )
        for boundary in range(1, intervals + 1)
    )
    # Intervals a flagged worker ran shared after its flag: must stay 0.
    after_flag = first[:, None] < np.arange(intervals)
    shared_after_flag = int(np.count_nonzero(~isolated[:, :-1] & after_flag))
    # Every worker flagged before the last window ran isolated at least once.
    liveness_ok = bool(isolated[:, :-1].any(axis=1)[first < intervals - 1].all())

    flagged = first < intervals
    benign_window = benign[worker]
    benign_windows = int(np.count_nonzero(benign_window))
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
        benign_interval_fp_rate=(
            int(np.count_nonzero(suspect & benign_window)) / benign_windows
            if benign_windows else 0.0
        ),
        # windows close one interval after they start filling
        detection_latency_intervals={
            names[w]: first_at[w] + 1 for w in np.flatnonzero(flagged & ~benign).tolist()
        },
        verdicts=tuple(
            {"interval": k, "worker_id": names[w], "suspect": s}
            for k, w, s in zip(window.tolist(), worker.tolist(), suspect.tolist())
        ),
        timeline=tuple(timeline),
        redirects=n_workers * max(0, cfg.subrequests_per_interval * intervals - limit),
        post_isolation_shared_events=cfg.executions_per_interval * shared_after_flag,
        liveness_ok=liveness_ok,
        series=series,
        baseline_rps=cfg.baseline_rps,
        detection_factor=1.0 - cfg.cost_model.detection_overhead_rel,
    )
