"""Deterministic multi-tenant fleet simulator with detector-driven isolation.

Workers share one process until a detector flags them; flagged workers are
migrated into their own process and never terminated, so false positives cost
throughput, not availability.  The simulator drives a synchronous
discrete-event loop over script executions and subsequent-request events,
runs the configured detector on every completed 1-second interval average,
and accounts isolation cost with an affine throughput/memory model.

Everything is derived from the config seed: identical configs produce
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Union

import numpy as np

from . import ks as _ks
from .profiles import (
    AttackProfile,
    AttackVariant,
    BenignProfile,
    generate_attack,
    generate_benign,
    make_attack_histogram,
    make_benign_histogram,
)
from .threshold import ThresholdConfig, ThresholdVerdict, classify_threshold
from .trace import DEFAULT_INTERVAL_NS, CounterSnapshot, IntervalAverage, IntervalFolder

DEGRADED_MODE = "degraded to strict process isolation"
SELECTIVE_MODE = "selective isolation"


class FleetError(Exception):
    """Base class for simulator failures."""


class UnknownWorker(FleetError):
    """An event references a worker that is not part of the fleet."""


class LimitViolation(FleetError):
    """A generated event exceeds the per-request platform limits."""


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
class RequestLimits:
    """Per-request platform limits (documented constants, enforced on events)."""

    cpu_ms: float = 50.0
    memory_mb: int = 64
    compile_ms: float = 200.0
    subrequests_per_request: int = 50

    def __post_init__(self):
        if min(self.cpu_ms, self.memory_mb, self.compile_ms, self.subrequests_per_request) <= 0:
            raise ValueError("limits must be positive")


@dataclass(frozen=True)
class CostModel:
    """Isolation cost constants.

    Detection itself costs a flat 2%.  An isolated guest costs 8x the CPU and
    2x-5x the memory of a shared one.  Slopes of the affine throughput and
    memory curves default to values derived from those multipliers and may be
    overridden.
    """

    detection_overhead_rel: float = 0.02
    isolated_cpu_multiplier: float = 8.0
    isolated_mem_multiplier_range: tuple[float, float] = (2.0, 5.0)
    rps_slope: float | None = None  # requests/sec lost per isolated process
    mem_slope: float | None = None  # extra bytes per isolated process

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
        if self.rps_slope is not None:
            return detected - self.rps_slope * isolated
        return detected * self.isolation_penalty(isolated, n_workers)

    def memory_bytes(self, worker_mem_bytes: int, isolated: int, n_workers: int) -> float:
        if self.mem_slope is not None:
            slope = self.mem_slope
        else:
            mid = sum(self.isolated_mem_multiplier_range) / 2.0
            slope = (mid - 1.0) * worker_mem_bytes
        return n_workers * worker_mem_bytes + slope * isolated


@dataclass(frozen=True)
class DetectorSpec:
    """Which detector the orchestrator runs at interval boundaries."""

    kind: str = "threshold"  # "threshold" | "ks"
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)
    alpha: float = _ks.DEFAULT_ALPHA
    top_k: int = _ks.DEFAULT_TOP_K
    template: _ks.BranchHistogram | None = None  # None = packaged template

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
    benign_profile: BenignProfile | None = None
    limits: RequestLimits = field(default_factory=RequestLimits)
    cost_model: CostModel = field(default_factory=CostModel)
    baseline_rps: float = 1000.0
    worker_mem_bytes: int = 1 << 20
    subrequests_per_interval: int = 0
    interval_ns: int = DEFAULT_INTERVAL_NS
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
    placement: Placement = Placement.SHARED
    subsequent_requests: int = 0
    flagged_at_interval: int | None = None
    served_after_isolation: int = 0
    histogram_rng: np.random.Generator | None = None


@dataclass(frozen=True)
class ScriptExecution:
    worker_id: str
    timestamp_ns: int
    snapshot: CounterSnapshot
    cpu_ms: float
    subrequests: int


@dataclass(frozen=True)
class Subrequest:
    worker_id: str
    timestamp_ns: int


FleetEvent = Union[ScriptExecution, Subrequest]


@dataclass(frozen=True)
class Isolate:
    worker_id: str
    interval: int


@dataclass(frozen=True)
class Redirect:
    worker_id: str
    count: int


Action = Union[Isolate, Redirect]


@dataclass
class FleetState:
    workers: dict[str, WorkerRecord]
    folder: IntervalFolder
    detector: DetectorSpec
    interval_ns: int
    benign_averages: int = 0
    benign_suspect_averages: int = 0
    post_isolation_shared_events: int = 0
    verdict_log: list[dict] = field(default_factory=list)


def _classify_interval(
    state: FleetState, record: WorkerRecord, avg: IntervalAverage
) -> bool:
    spec = state.detector
    if spec.kind == "threshold":
        verdict: ThresholdVerdict = classify_threshold(avg, spec.threshold)
        return verdict.suspect
    template = spec.template if spec.template is not None else _ks.load_default_template()
    rng = record.histogram_rng
    if rng is None:
        raise FleetError(f"worker {record.worker_id!r} has no histogram stream")
    if isinstance(record.workload, BenignWorkload):
        hist = make_benign_histogram(rng)
    else:
        hist = make_attack_histogram(rng)
    return _ks.classify_ks(hist, template, alpha=spec.alpha, k=spec.top_k).suspect


def step_fleet(state: FleetState, event: FleetEvent, cfg: FleetConfig) -> list[Action]:
    """Apply one event to ``state``; returns any isolation/redirect actions.

    Completed interval averages (a worker's snapshot crossing into a new
    window closes the previous one) are classified here; a suspect verdict
    isolates the worker, never terminates it.
    """
    record = state.workers.get(event.worker_id)
    if record is None:
        raise UnknownWorker(f"no worker {event.worker_id!r} in fleet")

    actions: list[Action] = []

    if isinstance(event, Subrequest):
        record.subsequent_requests += 1
        if record.subsequent_requests > cfg.detector.threshold.subrequest_limit:
            actions.append(Redirect(event.worker_id, record.subsequent_requests))
        return actions

    if event.cpu_ms > cfg.limits.cpu_ms:
        raise LimitViolation(
            f"execution cpu {event.cpu_ms} ms exceeds the {cfg.limits.cpu_ms} ms budget"
        )
    if event.subrequests > cfg.limits.subrequests_per_request:
        raise LimitViolation(
            f"{event.subrequests} subrequests exceed the per-request limit"
        )

    if record.placement is Placement.ISOLATED:
        record.served_after_isolation += 1
    if record.flagged_at_interval is not None and record.placement is Placement.SHARED:
        state.post_isolation_shared_events += 1  # must stay 0; safety telemetry

    for avg in state.folder.push(event.snapshot):
        actions.extend(_settle_average(state, avg, cfg))
    return actions


def _settle_average(
    state: FleetState, avg: IntervalAverage, cfg: FleetConfig
) -> list[Action]:
    record = state.workers[avg.worker_id]
    interval = avg.window_start_ns // state.interval_ns
    suspect = _classify_interval(state, record, avg)
    state.verdict_log.append(
        {"interval": int(interval), "worker_id": avg.worker_id, "suspect": suspect}
    )
    if isinstance(record.workload, BenignWorkload):
        state.benign_averages += 1
        if suspect:
            state.benign_suspect_averages += 1
    if suspect and record.placement is Placement.SHARED:
        record.placement = Placement.ISOLATED
        record.flagged_at_interval = int(interval)
        return [Isolate(avg.worker_id, int(interval))]
    return []


def finish_fleet(state: FleetState, cfg: FleetConfig) -> list[Action]:
    """Close every open window at end of run and classify the remainder."""
    actions: list[Action] = []
    for avg in state.folder.flush():
        actions.extend(_settle_average(state, avg, cfg))
    return actions


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


def _build_workers(cfg: FleetConfig) -> tuple[dict[str, WorkerRecord], dict[str, list[CounterSnapshot]]]:
    profile = cfg.benign_profile or BenignProfile.default()
    n_samples = cfg.intervals * cfg.executions_per_interval
    root = np.random.SeedSequence(cfg.rng_seed)
    workers: dict[str, WorkerRecord] = {}
    traces: dict[str, list[CounterSnapshot]] = {}

    specs: list[tuple[str, Workload]] = []
    for i in range(cfg.n_attack):
        specs.append((f"attack-{i:03d}", cfg.attack))
    for i in range(cfg.n_benign):
        specs.append((f"worker-{i:03d}", BenignWorkload()))

    children = root.spawn(len(specs))
    for (worker_id, workload), child in zip(specs, children):
        trace_seed, hist_seed = child.spawn(2)
        if isinstance(workload, BenignWorkload):
            snapshots = generate_benign(
                profile,
                n=n_samples,
                seed=trace_seed,
                worker_id=worker_id,
                interval_ns=cfg.interval_ns,
                samples_per_window=cfg.executions_per_interval,
            )
        else:
            pages = workload.pages if isinstance(workload, EvasiveWorkload) else 0
            snapshots, _hist = generate_attack(
                workload.variant,
                amplification=workload.amplification,
                pages=pages,
                n=n_samples,
                seed=trace_seed,
                worker_id=worker_id,
                interval_ns=cfg.interval_ns,
                samples_per_window=cfg.executions_per_interval,
            )
        workers[worker_id] = WorkerRecord(
            worker_id=worker_id,
            workload=workload,
            histogram_rng=np.random.default_rng(hist_seed),
        )
        traces[worker_id] = list(snapshots)
    return workers, traces


def run_fleet(cfg: FleetConfig) -> FleetReport:
    """Run the synchronous event loop and account isolation costs."""
    workers, traces = _build_workers(cfg)
    state = FleetState(
        workers=workers,
        folder=IntervalFolder(cfg.interval_ns),
        detector=cfg.detector,
        interval_ns=cfg.interval_ns,
    )
    event_rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 0xE7E7]))

    worker_order = sorted(workers)
    timeline: list[dict] = []
    isolations_by_interval: dict[int, int] = {}
    redirects = 0

    def record_actions(actions: Iterable[Action]) -> None:
        nonlocal redirects
        for action in actions:
            if isinstance(action, Isolate):
                timeline.append(
                    {"interval": action.interval, "worker_id": action.worker_id, "action": "isolate"}
                )
                isolations_by_interval[action.interval] = (
                    isolations_by_interval.get(action.interval, 0) + 1
                )
            else:
                timeline.append(
                    {"interval": -1, "worker_id": action.worker_id, "action": "redirect"}
                )
                redirects += 1

    for interval in range(cfg.intervals):
        for worker_id in worker_order:
            base_index = interval * cfg.executions_per_interval
            for slot in range(cfg.executions_per_interval):
                snapshot = traces[worker_id][base_index + slot]
                event = ScriptExecution(
                    worker_id=worker_id,
                    timestamp_ns=snapshot.timestamp_ns,
                    snapshot=snapshot,
                    cpu_ms=float(event_rng.uniform(0.2, cfg.limits.cpu_ms)),
                    subrequests=int(
                        event_rng.integers(0, cfg.limits.subrequests_per_request + 1)
                    ),
                )
                record_actions(step_fleet(state, event, cfg))
            for _ in range(cfg.subrequests_per_interval):
                record_actions(
                    step_fleet(state, Subrequest(worker_id, interval * cfg.interval_ns), cfg)
                )
    record_actions(finish_fleet(state, cfg))

    n_workers = len(workers)
    benign_ids = {w for w, r in workers.items() if isinstance(r.workload, BenignWorkload)}
    flagged = {w: r.flagged_at_interval for w, r in workers.items() if r.flagged_at_interval is not None}
    latency = {
        w: interval + 1  # windows close one interval after they start filling
        for w, interval in flagged.items()
        if w not in benign_ids
    }

    isolated_running = 0
    series: list[SeriesPoint] = []
    for interval in range(cfg.intervals):
        isolated_running += isolations_by_interval.get(interval, 0)
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

    isolated_total = sum(
        1 for r in workers.values() if r.placement is Placement.ISOLATED
    )
    liveness_ok = all(
        r.served_after_isolation > 0
        for r in workers.values()
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
            state.benign_suspect_averages / state.benign_averages
            if state.benign_averages
            else 0.0
        ),
        detection_latency_intervals=latency,
        verdicts=tuple(state.verdict_log),
        timeline=tuple(timeline),
        redirects=redirects,
        post_isolation_shared_events=state.post_isolation_shared_events,
        liveness_ok=liveness_ok,
        series=tuple(series),
        baseline_rps=cfg.baseline_rps,
        detection_factor=1.0 - cfg.cost_model.detection_overhead_rel,
    )
