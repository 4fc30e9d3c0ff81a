"""Fleet simulator tests: isolation policy, limits, cost model, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from spectreguard.fleet import (
    AttackWorkload,
    BenignWorkload,
    CostModel,
    DEGRADED_MODE,
    DetectorSpec,
    EvasiveWorkload,
    FleetConfig,
    FleetState,
    Isolate,
    Placement,
    Redirect,
    Subrequest,
    UnknownWorker,
    WorkerRecord,
    run_fleet,
    step_fleet,
)
from spectreguard.profiles import BenignProfile, generate_benign
from spectreguard.threshold import ThresholdConfig, sweep_thresholds
from spectreguard.trace import IntervalFolder, fold_intervals


def small_state(cfg: FleetConfig, worker_id="w-0") -> FleetState:
    record = WorkerRecord(
        worker_id=worker_id,
        workload=BenignWorkload(),
        histogram_rng=np.random.default_rng(0),
    )
    return FleetState(
        workers={worker_id: record},
        folder=IntervalFolder(cfg.interval_ns),
        detector=cfg.detector,
        interval_ns=cfg.interval_ns,
    )


class TestStepFleet:
    def test_unknown_worker(self):
        cfg = FleetConfig(n_benign=1, n_attack=0)
        state = small_state(cfg)
        with pytest.raises(UnknownWorker):
            step_fleet(state, Subrequest("ghost", 0), cfg)

    def test_subrequest_limit_redirects_the_next_request(self):
        cfg = FleetConfig(n_benign=1, n_attack=0)
        state = small_state(cfg)
        actions = []
        for _ in range(10_001):
            acts = step_fleet(state, Subrequest("w-0", 0), cfg)
            actions.extend(acts)
        assert len(actions) == 1
        assert isinstance(actions[0], Redirect)
        assert actions[0].count == 10_001
        assert state.workers["w-0"].subsequent_requests == 10_001


class TestRunFleet:
    def test_attack_isolated_quickly(self):
        cfg = FleetConfig(n_benign=5, n_attack=1, intervals=4, rng_seed=1)
        report = run_fleet(cfg)
        assert report.attack_workers_flagged == 1
        assert report.detection_latency_intervals["attack-000"] <= 2
        assert any(
            entry["worker_id"] == "attack-000" and entry["action"] == "isolate"
            for entry in report.timeline
        )

    def test_benign_below_threshold_never_isolated(self):
        # a threshold above the truncation cutoff cannot fire on benign traffic
        detector = DetectorSpec(threshold=ThresholdConfig(branch_per_itlb_threshold=70000.0))
        cfg = FleetConfig(n_benign=10, n_attack=0, intervals=5, rng_seed=2,
                          detector=detector)
        report = run_fleet(cfg)
        assert report.isolated_total == 0
        assert report.mode != DEGRADED_MODE

    def test_no_co_residency_after_flag(self):
        cfg = FleetConfig(n_benign=20, n_attack=2, intervals=6, rng_seed=3)
        report = run_fleet(cfg)
        assert report.post_isolation_shared_events == 0

    def test_isolated_workers_keep_serving(self):
        cfg = FleetConfig(n_benign=5, n_attack=1, intervals=6, rng_seed=4)
        report = run_fleet(cfg)
        assert report.liveness_ok

    def test_degraded_mode_with_zero_threshold(self):
        detector = DetectorSpec(threshold=ThresholdConfig(branch_per_itlb_threshold=0.0))
        cfg = FleetConfig(n_benign=8, n_attack=1, intervals=4, rng_seed=5,
                          detector=detector, baseline_rps=1000.0)
        report = run_fleet(cfg)
        assert report.mode == DEGRADED_MODE
        assert report.isolated_total == report.n_workers
        final = report.series[-1]
        penalty = cfg.cost_model.isolation_penalty(report.n_workers, report.n_workers)
        assert final.throughput_rps == 1000.0 * 0.98 * penalty

    def test_zero_isolated_throughput_is_098_baseline(self):
        detector = DetectorSpec(threshold=ThresholdConfig(branch_per_itlb_threshold=70000.0))
        cfg = FleetConfig(n_benign=6, n_attack=0, intervals=3, rng_seed=6,
                          detector=detector, baseline_rps=500.0)
        report = run_fleet(cfg)
        assert all(p.throughput_rps == 500.0 * 0.98 for p in report.series)

    def test_throughput_decreases_memory_increases_with_isolation(self):
        model = CostModel()
        rps = [model.throughput_rps(1000.0, k, 50) for k in range(0, 51, 10)]
        mem = [model.memory_bytes(1 << 20, k, 50) for k in range(0, 51, 10)]
        assert all(b < a for a, b in zip(rps, rps[1:]))
        assert all(b > a for a, b in zip(mem, mem[1:]))

    def test_deterministic_reports(self):
        cfg = FleetConfig(n_benign=12, n_attack=1, intervals=5, rng_seed=7)
        first = json.dumps(run_fleet(cfg).to_json_dict(), sort_keys=True)
        second = json.dumps(run_fleet(cfg).to_json_dict(), sort_keys=True)
        assert first == second

    def test_report_carries_per_worker_verdict_timeline(self):
        cfg = FleetConfig(n_benign=2, n_attack=1, intervals=3, rng_seed=12)
        report = run_fleet(cfg)
        assert len(report.verdicts) == 3 * 3  # one verdict per worker per interval
        workers = {entry["worker_id"] for entry in report.verdicts}
        assert workers == {"attack-000", "worker-000", "worker-001"}
        attack_intervals = sorted(
            e["interval"] for e in report.verdicts if e["worker_id"] == "attack-000"
        )
        assert attack_intervals == [0, 1, 2]

    def test_evasive_worker_ducks_threshold_detector(self):
        # 125 pages puts the mean just under the threshold; sample jitter
        # still crosses it, so a determined evader adds margin pages
        cfg = FleetConfig(
            n_benign=3,
            n_attack=1,
            intervals=4,
            rng_seed=8,
            attack=EvasiveWorkload(pages=150),
        )
        report = run_fleet(cfg)
        assert report.attack_workers_flagged == 0  # the subrequest cap is the backstop

    def test_ks_detector_mode(self):
        cfg = FleetConfig(
            n_benign=4,
            n_attack=1,
            intervals=4,
            rng_seed=9,
            detector=DetectorSpec(kind="ks"),
        )
        report = run_fleet(cfg)
        assert report.attack_workers_flagged == 1
        assert report.benign_workers_flagged == 0

    def test_per_request_limits_hold(self):
        cfg = FleetConfig(n_benign=10, n_attack=1, intervals=5, rng_seed=10)
        run_fleet(cfg)  # step_fleet raises LimitViolation on any breach

    def test_fp_rate_matches_sweep_prediction(self):
        cfg = FleetConfig(n_benign=400, n_attack=0, intervals=5,
                          executions_per_interval=1, rng_seed=11)
        report = run_fleet(cfg)

        population = generate_benign(BenignProfile.default(), 100_000, seed=999)
        averages = list(fold_intervals(iter(population)))
        ((_t, predicted),) = sweep_thresholds(averages, [4096.0])

        n = cfg.n_benign * cfg.intervals
        se = (predicted * (1 - predicted) / n) ** 0.5
        assert abs(report.benign_interval_fp_rate - predicted) <= 2 * se + 1e-9


class TestConfigValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(n_benign=0, n_attack=0)

    def test_unknown_detector_kind(self):
        with pytest.raises(ValueError):
            DetectorSpec(kind="oracle")
