"""Reference fleet simulator: one mutable record per worker, one boundary loop.

This is the per-worker state machine that ``spectreguard.fleet.run_fleet``
replaced with a single classification of the folded fleet.  It walks the
interval boundaries; at boundary i each worker, in name order, has its
window i-1 classified (a suspect verdict isolates it there) and then runs
interval i's executions and subsequent requests.  Tests require both
simulators to give equal reports.  A KS worker draws one window's
histogram counts at a time from its histogram generator, through
``profiles._benign_count_rows`` or ``_attack_count_rows``, and classifies
them as a histogram; ``reference_ks_p_values`` returns those p-values.

``reference_fleet_counts`` is the per-worker counter draw that
``spectreguard.profiles._fleet_counts`` replaced with raw rows mapped once
per fleet: each benign worker draws its truncated branch metric through
numpy's ``uniform`` and ``normal``, redraws each rejection at once, and takes
its other counters' laws whole.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from spectreguard import ks as _ks
from spectreguard.fleet import (
    DEGRADED_MODE,
    SELECTIVE_MODE,
    SUBREQUEST_LIMIT,
    AttackWorkload,
    DetectorSpec,
    FleetConfig,
    FleetReport,
    SeriesPoint,
)
from spectreguard.profiles import (
    BENIGN_ITLB_RANGE,
    BENIGN_MAX_BRANCHES,
    BENIGN_MD_MEAN,
    BENIGN_MD_SIGMA,
    BenignProfile,
    _COLUMNS,
    _attack_count_rows,
    _attack_counts,
    _benign_count_rows,
    _fill_counts,
    generate_attack,
    generate_benign,
)
from spectreguard.threshold import classify_threshold
from spectreguard.trace import NS_PER_SECOND, IntervalAverage, TraceBatch, fold_intervals


@dataclass(frozen=True)
class BenignWorkload:
    """What every benign worker runs; it has no parameters."""


Workload = BenignWorkload | AttackWorkload


class Placement(str, Enum):
    SHARED = "shared"
    ISOLATED = "isolated"


@dataclass
class WorkerRecord:
    """Mutable per-tenant runtime state; placement only moves Shared -> Isolated."""

    worker_id: str
    workload: Workload
    histogram_rng: np.random.Generator
    placement: Placement = Placement.SHARED
    subsequent_requests: int = 0
    flagged_at_interval: int | None = None
    served_after_isolation: int = 0
    ks_p_values: list[float] = field(default_factory=list)


def _is_suspect(detector: DetectorSpec, record: WorkerRecord, avg: IntervalAverage) -> bool:
    if detector.kind == "threshold":
        return classify_threshold(avg, detector.threshold).suspect
    rng = record.histogram_rng
    if isinstance(record.workload, BenignWorkload):
        (counts,) = _benign_count_rows(rng.random((1, BENIGN_MAX_BRANCHES + 1)))
    else:
        (counts,) = _attack_count_rows(rng, 1)
    hist = _ks.BranchHistogram.from_entries({str(i): c for i, c in enumerate(counts.tolist()) if c})
    verdict = _ks.classify_ks(hist, _ks.load_default_template(), alpha=detector.alpha)
    record.ks_p_values.append(verdict.ks.p_value)
    return verdict.suspect


def _build_workers(cfg: FleetConfig) -> tuple[list[WorkerRecord], TraceBatch]:
    """The workers in name order and the fleet's trace, one worker after another."""
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
            batch, _hist = generate_attack(
                workload.variant, amplification=workload.amplification, pages=workload.pages,
                **shape
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


def run_fleet_reference(cfg: FleetConfig) -> FleetReport:
    """Fold the fleet's trace, walk the interval boundaries, account costs."""
    return _simulate(cfg)[0]


def reference_ks_p_values(cfg: FleetConfig) -> np.ndarray:
    """The KS p-value of each (worker in name order, window) of a KS fleet."""
    return np.array([record.ks_p_values for record in _simulate(cfg)[1]])


def _simulate(cfg: FleetConfig) -> tuple[FleetReport, list[WorkerRecord]]:
    workers, trace = _build_workers(cfg)
    folded = fold_intervals(trace)
    due = {
        (window, avg.worker_id): avg
        for window, avg in zip(folded.window.tolist(), folded)
    }

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
                post_isolation_shared_events += cfg.executions_per_interval
            before = record.subsequent_requests
            record.subsequent_requests += cfg.subrequests_per_interval
            redirects += max(0, record.subsequent_requests - max(before, SUBREQUEST_LIMIT))

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
    ), workers


def sample_branch_metric(profile: BenignProfile, rng: np.random.Generator,
                         size: int) -> tuple[np.ndarray, int]:
    """size draws of the truncated mixture and the passes they took: one
    pass draws a pick and a metric for each pending record and keeps those
    below the cutoff."""
    out = np.empty(size)
    pending = np.arange(size)
    passes = 0
    while pending.size:
        passes += 1
        pick_tail = rng.random(pending.size) < profile.tail_weight
        mu = np.where(pick_tail, profile.tail_mu, profile.body_mu)
        sigma = np.where(pick_tail, profile.tail_sigma, profile.body_sigma)
        draws = np.exp(rng.normal(mu, sigma))
        accepted = draws < profile.upper_cutoff
        out[pending[accepted]] = draws[accepted]
        pending = pending[~accepted]
    return out, passes


def log_of_unit_mean(rng: np.random.Generator, sigma: float, size: int) -> np.ndarray:
    # N(-sigma^2/2, sigma), so that E[exp(draw)] == 1
    return rng.normal(-0.5 * sigma * sigma, sigma, size)


def benign_draws(out: np.ndarray, profile: BenignProfile, rng: np.random.Generator) -> int:
    """One worker's benign draws into out, one record per column; the
    branch metric's passes."""
    n = out.shape[1]
    out[0], passes = sample_branch_metric(profile, rng, n)
    out[1] = rng.uniform(math.log(BENIGN_ITLB_RANGE[0]), math.log(BENIGN_ITLB_RANGE[1]), n)
    out[2] = rng.uniform(0.005, 0.04, n)
    out[3] = log_of_unit_mean(rng, 0.5, n)
    out[4] = rng.uniform(0.05, 0.30, n)
    out[5] = log_of_unit_mean(rng, 0.5, n)
    out[6] = rng.uniform(0.01, 0.10, n)
    out[7] = log_of_unit_mean(rng, BENIGN_MD_SIGMA, n)
    return passes


def reference_fleet_counts(rngs, profile: BenignProfile | None, n_attack: int, n_benign: int,
                           n: int, samples_per_window: int,
                           attack: tuple | None) -> tuple[np.ndarray, list[int]]:
    """``_fleet_counts``'s counters, one worker at a time, and each benign
    worker's branch-metric passes."""
    counts = np.empty((n_attack + n_benign, n, _COLUMNS), dtype=np.int64)
    for out in counts[:n_attack]:
        _attack_counts(out, next(rngs), *attack)
    passes = []
    for out in counts[n_attack:]:
        draws = np.empty((8, n))
        passes.append(benign_draws(draws, profile, next(rngs)))
        metric, log_itlb, miss, cache_ref, cache_miss, l1d, l1d_miss, md = draws
        _fill_counts(out, np.exp(log_itlb).astype(np.int64), metric, metric * miss,
                     30.0 * np.exp(cache_ref), cache_miss, 300.0 * np.exp(l1d), l1d_miss,
                     BENIGN_MD_MEAN * np.exp(md))
    window, slot = np.divmod(np.arange(n), samples_per_window)
    counts[:, :, 0] = window * NS_PER_SECOND + slot * (NS_PER_SECOND // samples_per_window)
    return counts.reshape(-1, _COLUMNS), passes
