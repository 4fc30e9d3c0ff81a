"""Fleet simulator tests: isolation policy, redirects, cost model, determinism."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from fleet_reference import reference_ks_p_values, run_fleet_reference
from fleet_reference import _build_workers as build_reference_workers
from spectreguard import cli, fleet, ks, profiles, trace
from spectreguard.fleet import (
    CostModel,
    DEGRADED_MODE,
    SUBREQUEST_LIMIT,
    AttackWorkload,
    DetectorSpec,
    FleetConfig,
    run_fleet,
)
from spectreguard.profiles import MAX_AMPLIFICATION, AttackVariant, BenignProfile, generate_benign
from spectreguard.threshold import ThresholdConfig, sweep_thresholds
from spectreguard.trace import TraceBatch, fold_intervals

DATA = Path(__file__).parent / "data"


def redirect_fleet(subrequests_per_interval: int) -> FleetConfig:
    # two workers, 4 intervals: each worker sends 4 x subrequests_per_interval
    return FleetConfig(
        n_benign=1,
        n_attack=1,
        intervals=4,
        subrequests_per_interval=subrequests_per_interval,
        rng_seed=0,
    )


class TestRunFleet:
    def test_subrequest_limit_redirects_the_next_request(self):
        assert SUBREQUEST_LIMIT == 10_000
        # each worker's total below, at, just above and far above the limit
        for per_interval, redirected in [(2499, 0), (2500, 0), (2501, 4), (10_000, 30_000)]:
            report = run_fleet(redirect_fleet(per_interval))
            assert report.redirects == 2 * redirected, per_interval
            # the timeline holds the attack worker's isolation alone
            assert report.timeline == ({"interval": 0, "worker_id": "attack-000",
                                        "action": "isolate"},)

    def test_report_size_does_not_depend_on_request_count(self):
        def report(subrequests_per_interval: int) -> dict:
            cfg = FleetConfig(n_benign=5, intervals=6, rng_seed=14,
                              subrequests_per_interval=subrequests_per_interval)
            return run_fleet(cfg).to_json_dict()

        quiet, busy = report(0), report(5000)
        assert busy["timeline"] == quiet["timeline"]
        assert (quiet["redirects"], busy["redirects"]) == (0, 6 * (6 * 5000 - SUBREQUEST_LIMIT))
        del quiet["redirects"], busy["redirects"]
        assert busy == quiet

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

    def test_flag_in_the_penultimate_window_still_serves(self):
        # one execution per interval: a worker isolated at the boundary after
        # window intervals - 2 runs the last interval's execution isolated
        cfg = FleetConfig(n_benign=5, n_attack=1, intervals=2,
                          executions_per_interval=1, rng_seed=4)
        report = run_fleet(cfg)
        assert {"interval": 0, "worker_id": "attack-000", "action": "isolate"} in report.timeline
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
        assert model.isolation_penalty(0, 0) == 1.0

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

    def test_verdicts_in_worker_name_order_past_999_workers(self):
        # "worker-1000" sorts between "worker-100" and "worker-101"
        cfg = FleetConfig(n_benign=1001, n_attack=0, intervals=1,
                          executions_per_interval=1, rng_seed=13)
        order = [entry["worker_id"] for entry in run_fleet(cfg).verdicts]
        assert order == sorted(order)
        assert order[101] == "worker-1000"

    def test_evasive_worker_ducks_threshold_detector(self):
        # 125 pages puts the mean just under the threshold; sample jitter
        # still crosses it, so a determined evader adds margin pages
        cfg = FleetConfig(
            n_benign=3,
            n_attack=1,
            intervals=4,
            rng_seed=8,
            attack=AttackWorkload(pages=150),
        )
        report = run_fleet(cfg)
        # 150 pages leave no window of this seed flagged; nothing yet charges
        # for the pages or ties requests per bit to a cap (ROADMAP item 21)
        assert report.attack_workers_flagged == 0

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


def oracle_fleet(kind="threshold", subrequests=3, executions=2, branch=4096.0, **overrides):
    # 4 intervals of `subrequests` subsequent requests per worker.  At
    # amplification 12 the attack metric sits near 4096, so its first
    # suspect window varies between attack workers.
    settings = dict(
        n_benign=6,
        n_attack=3,
        intervals=4,
        executions_per_interval=executions,
        subrequests_per_interval=subrequests,
        rng_seed=31 + executions,
        attack=AttackWorkload(amplification=12),
        detector=DetectorSpec(kind=kind, threshold=ThresholdConfig(branch_per_itlb_threshold=branch)),
    )
    return FleetConfig(**{**settings, **overrides})


ORACLE_GRID = [
    *(
        pytest.param(oracle_fleet(kind, subrequests, executions),
                     id=f"{kind}-subrequests{subrequests}-executions{executions}")
        for kind in ("threshold", "ks")
        # each worker's total below, at, just above and far above the limit
        for subrequests in (2499, 2500, 2501, 10_000)
        for executions in (1, 3)
    ),
    pytest.param(oracle_fleet(branch=0.0, subrequests=2600), id="degraded"),
    pytest.param(oracle_fleet(branch=1024.0, subrequests=2600), id="benign-false-positives"),
    pytest.param(oracle_fleet(attack=AttackWorkload(pages=130)), id="evasive-threshold"),
    pytest.param(oracle_fleet("ks", attack=AttackWorkload(pages=130)), id="evasive-ks"),
    pytest.param(oracle_fleet(n_benign=1001, intervals=2, executions_per_interval=1,
                              subrequests=5003), id="threshold-1004-workers"),
    pytest.param(oracle_fleet("ks", n_benign=1001, intervals=1, executions_per_interval=1),
                 id="ks-1004-workers"),
    # screen blocks of SCREEN_BLOCK windows that split workers: 301 windows,
    # and one worker's windows past a block's end
    pytest.param(oracle_fleet("ks", n_benign=40, intervals=7), id="ks-301-windows"),
    pytest.param(oracle_fleet("ks", n_benign=1, n_attack=1, intervals=ks.SCREEN_BLOCK + 3),
                 id="ks-block-straddling-worker"),
]
KS_ORACLE_GRID = [param for param in ORACLE_GRID if param.values[0].detector.kind == "ks"]


class TestReferenceLoop:
    """run_fleet against the per-worker boundary loop it replaced."""

    @pytest.mark.parametrize("cfg", ORACLE_GRID)
    def test_reports_equal(self, cfg):
        assert run_fleet(cfg).to_json_dict() == run_fleet_reference(cfg).to_json_dict()

    @pytest.mark.parametrize("cfg", KS_ORACLE_GRID)
    def test_ks_p_values_equal(self, cfg, monkeypatch):
        # Benign windows never flag and attack windows always do, so verdicts
        # cannot show the draws; the p-values show every count.  The fleet
        # draws each worker's windows in blocks, the reference one at a time.
        screened = []
        screen = ks.screen_counts
        monkeypatch.setattr(ks, "screen_counts",
                            lambda *args: screened.append(screen(*args)) or screened[-1])
        run_fleet(cfg)
        (p_values,) = screened
        n_workers = cfg.n_benign + cfg.n_attack
        expected = reference_ks_p_values(cfg)
        assert expected.shape == (n_workers, cfg.intervals)
        assert np.array_equal(p_values.reshape(expected.shape), expected)

    def test_ks_fleet_screens_counts_without_building_histograms(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("the KS fleet left its batch path")

        cfg = oracle_fleet("ks", n_benign=40, intervals=5)
        expected = run_fleet_reference(cfg).to_json_dict()
        assert expected["attack_workers_flagged"] == cfg.n_attack  # the screen has suspects
        # Every BranchHistogram a generator builds goes through profiles._histogram.
        built = []
        histogram = profiles._histogram
        monkeypatch.setattr(profiles, "_histogram", lambda *a: built.append(1) or histogram(*a))
        monkeypatch.setattr(ks, "classify_ks", forbidden)
        monkeypatch.setattr(ks, "ks_two_sample", forbidden)
        monkeypatch.setattr(profiles, "make_benign_histogram", forbidden)
        monkeypatch.setattr(profiles, "make_attack_histogram", forbidden)
        assert run_fleet(cfg).to_json_dict() == expected
        # None per window, and none per attacker: the fleet takes the attack
        # counter columns without generate_attack's recorded histogram.
        assert built == []

    @pytest.mark.parametrize(
        "cfg",
        [
            *(pytest.param(oracle_fleet(executions=e), id=f"executions{e}") for e in range(1, 6)),
            pytest.param(oracle_fleet(attack=AttackWorkload(pages=130)), id="evasive"),
            # "worker-1000" sorts between "worker-100" and "worker-101"
            pytest.param(oracle_fleet(n_benign=1001, intervals=1, executions=1),
                         id="threshold-1004-workers"),
        ],
    )
    def test_batched_trace_equals_per_worker_generators(self, cfg, monkeypatch):
        # The reference draws each worker by generate_benign or generate_attack,
        # seeded from the SeedSequence spawn tree.  The KS fleets' histogram
        # generators are pinned by test_reports_equal[ks-1004-workers].
        _records, expected = build_reference_workers(cfg)
        validated = []
        post_init = TraceBatch.__post_init__
        monkeypatch.setattr(TraceBatch, "__post_init__",
                            lambda batch: validated.append(batch) or post_init(batch))
        run_fleet(cfg)
        (batch,) = validated
        assert batch.names == expected.names
        assert np.array_equal(batch.worker, expected.worker)
        assert np.array_equal(batch.counts, expected.counts)

    def test_ks_fleet_draws_no_counters(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("the KS fleet drew or folded counters")

        cfg = oracle_fleet("ks", n_benign=40, intervals=5)
        expected = run_fleet_reference(cfg).to_json_dict()
        assert expected["attack_workers_flagged"] == cfg.n_attack  # the screen has suspects
        monkeypatch.setattr(fleet, "_fleet_counts", forbidden)
        monkeypatch.setattr(fleet, "_grid_means", forbidden)
        monkeypatch.setattr(trace, "fold_intervals", forbidden)
        assert run_fleet(cfg).to_json_dict() == expected

    @pytest.mark.parametrize("executions", [1, 3, 9])
    def test_threshold_fleet_never_folds_a_trace(self, executions, monkeypatch):
        # The fleet means only its rule's two columns on the worker x window
        # grid; the reference folds a whole trace.
        def forbidden(*_args, **_kwargs):
            raise AssertionError("the threshold fleet called fold_intervals")

        cfg = oracle_fleet(executions=executions, n_benign=40)
        expected = run_fleet_reference(cfg).to_json_dict()
        assert not hasattr(fleet, "fold_intervals")
        monkeypatch.setattr(trace, "fold_intervals", forbidden)
        assert run_fleet(cfg).to_json_dict() == expected

    @pytest.mark.parametrize("kind", ["threshold", "ks"])
    def test_fleet_trace_is_validated_once(self, kind, monkeypatch):
        # A threshold fleet validates one batch of every worker's counters; a
        # KS fleet builds no trace at all.
        validated = []
        post_init = TraceBatch.__post_init__
        monkeypatch.setattr(TraceBatch, "__post_init__",
                            lambda batch: validated.append(len(batch)) or post_init(batch))
        cfg = oracle_fleet(kind, n_benign=40, executions=3)
        run_fleet(cfg)
        n_workers = cfg.n_benign + cfg.n_attack
        n_records = n_workers * cfg.intervals * cfg.executions_per_interval
        assert validated == ([n_records] if kind == "threshold" else [])

    @pytest.mark.parametrize("cfg", [
        FleetConfig(n_benign=12, n_attack=1, intervals=4, subrequests_per_interval=2501,
                    rng_seed=9),
        FleetConfig(n_benign=30, n_attack=2, intervals=5, executions_per_interval=4, rng_seed=8),
        FleetConfig(n_benign=51, n_attack=1, intervals=30, executions_per_interval=3, rng_seed=7),
        # nine executions a window take the fsum route
        FleetConfig(n_benign=19, n_attack=1, intervals=20, executions_per_interval=9, rng_seed=5),
        # worker-1000 sorts between worker-100 and worker-101: name order is not spec order
        FleetConfig(n_benign=1000, n_attack=2, intervals=3, executions_per_interval=1,
                    rng_seed=3),
    ], ids=["seed9-e2", "seed8-e4", "seed7-e3", "seed5-e9", "seed3-1002-workers"])
    def test_detect_of_the_fleet_trace_gives_its_verdicts(self, cfg, tmp_path, monkeypatch):
        # The fleet's own trace, written out and classified by the CLI's
        # fold_intervals path, is flagged window for window as the fleet's
        # _grid_means path flags it.
        validated = []
        post_init = TraceBatch.__post_init__
        monkeypatch.setattr(TraceBatch, "__post_init__",
                            lambda batch: validated.append(batch) or post_init(batch))
        report = run_fleet(cfg)
        batch = validated[0]
        trace_path, out = tmp_path / "fleet.jsonl", tmp_path / "verdicts.jsonl"
        with trace_path.open("w", encoding="utf-8") as handle:
            trace.emit_trace(batch, handle)
        assert cli.main(["detect", "--trace", str(trace_path), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        replayed = {(v["window_start_ns"] // trace.NS_PER_SECOND, v["worker_id"]): v["suspect"]
                    for v in map(json.loads, lines)}
        assert len(lines) == len(report.verdicts)
        assert replayed == {(v["interval"], v["worker_id"]): v["suspect"]
                            for v in report.verdicts}

    def test_bad_counters_fail_the_invariant_check(self, monkeypatch):
        # One record with more branch misses than branches: the check names the field.
        misses, branches = map(trace._COLUMN_FIELDS.index, ("branch_misses", "branch_instructions"))
        draw = fleet._fleet_counts

        def bad_counts(*args):
            counts = draw(*args)
            counts[7, misses] = counts[7, branches] + 1
            return counts

        monkeypatch.setattr(fleet, "_fleet_counts", bad_counts)
        with pytest.raises(trace.InvariantViolation,
                           match="^branch_misses: exceeds branch_instructions$") as caught:
            run_fleet(oracle_fleet(n_benign=40))
        assert caught.value.field_name == "branch_misses"


def first_flag_oracle(flags):
    """The first-flag rule as run_fleet wrote it inline before the policy
    function: the first suspect window by argmax, the placement by
    accumulating the flags."""
    n_workers, intervals = flags.shape
    first = np.where(flags.any(axis=1), flags.argmax(axis=1), intervals)
    decided = np.zeros_like(flags)
    rows = np.flatnonzero(first < intervals)
    decided[rows, first[rows]] = True
    placement = np.zeros((n_workers, intervals + 1), dtype=bool)
    placement[:, 1:] = np.logical_or.accumulate(flags, axis=1)
    return decided, placement


def bool_grid(rows):
    return np.array([[c == "1" for c in row] for row in rows], dtype=bool)


class TestIsolationPolicy:
    """``fleet._first_flag_policy`` and the checks that read its output."""

    def test_hand_built_grid(self):
        # no flag, a flag in window 0, a flag only in the last window, and
        # two flags in a row
        flags = bool_grid(["0000", "1000", "0001", "0110"])
        decided, placement = fleet._first_flag_policy(flags)
        assert np.array_equal(decided, bool_grid(["0000", "1000", "0001", "0100"]))
        assert np.array_equal(placement, bool_grid(["00000", "01111", "00001", "00111"]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)))
    def test_matches_the_inline_rule(self, flags):
        decided, placement = fleet._first_flag_policy(flags)
        expected_decided, expected_placement = first_flag_oracle(flags)
        assert np.array_equal(decided, expected_decided)
        assert np.array_equal(placement, expected_placement)
        assert (decided.sum(axis=1) <= 1).all()

    # the fleet of test_no_co_residency_after_flag
    CHECKED = FleetConfig(n_benign=20, n_attack=2, intervals=6, rng_seed=3)

    def test_a_move_one_boundary_late_fails_both_checks(self, monkeypatch):
        sound = run_fleet(self.CHECKED)
        assert (sound.post_isolation_shared_events, sound.liveness_ok) == (0, True)
        policy = fleet._first_flag_policy

        def late(flags):
            decided, placement = policy(flags)
            return decided, np.pad(placement[:, :-1], ((0, 0), (1, 0)))

        monkeypatch.setattr(fleet, "_first_flag_policy", late)
        report = run_fleet(self.CHECKED)
        assert report.post_isolation_shared_events > 0
        assert report.liveness_ok is False
        # the timeline and series read the placements, the latencies the decisions
        assert report.timeline == tuple({**entry, "interval": entry["interval"] + 1}
                                        for entry in sound.timeline
                                        if entry["interval"] + 1 < self.CHECKED.intervals)
        assert [p.isolated_count for p in report.series[1:]] == [
            p.isolated_count for p in sound.series[:-1]]
        assert report.detection_latency_intervals == sound.detection_latency_intervals

    def test_a_skipped_move_fails_liveness(self, monkeypatch):
        sound = run_fleet(self.CHECKED)
        policy = fleet._first_flag_policy

        def skip_one(flags):
            decided, placement = policy(flags)
            placement[np.flatnonzero(decided[:, :-1].any(axis=1))[0]] = False
            return decided, placement

        monkeypatch.setattr(fleet, "_first_flag_policy", skip_one)
        report = run_fleet(self.CHECKED)
        assert report.post_isolation_shared_events > 0
        assert report.liveness_ok is False
        assert report.isolated_total == sound.isolated_total - 1


# Seeds of one (up to 2**32 - 1) to six (2**160 + 9) 32-bit words; a fifth
# and sixth word are mixed into the filled pool of four, as the spawn key's
# words are, and move the hash constant the key's words start from.
SEEDING_SEEDS = [0, 1, 5, 1729, 2101, 2**32 - 1, 2**32, 2**64 + 1, 2**127 + 3, 2**128 + 7,
                 2**160 + 9]


class TestWorkerGenerators:
    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("seed", SEEDING_SEEDS)
    def test_states_equal_numpy(self, seed, j):
        # A failure here means numpy changed how SeedSequence hashes a spawn
        # key, or its pool, which _worker_generators continues from.
        keys = list(range(1005))
        for i, rng in zip(keys, fleet._worker_generators(seed, keys, j), strict=True):
            numpy_rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i, j))))
            assert rng.bit_generator.state == numpy_rng.bit_generator.state, (
                f"numpy's seeding of SeedSequence({seed}, spawn_key=({i}, {j})) changed")
            # each generator's first draws
            assert rng.random(3).tolist() == numpy_rng.random(3).tolist()
            assert rng.standard_normal(2).tolist() == numpy_rng.standard_normal(2).tolist()
            assert rng.integers(0, 2**63, 2).tolist() == numpy_rng.integers(0, 2**63, 2).tolist()

    def test_keys_in_any_order(self):
        # run_fleet passes its workers' spec indices in name order
        keys = [7, 3, 1000, 0, 3]
        states = [rng.bit_generator.state for rng in fleet._worker_generators(9, keys, 1)]
        assert states == [np.random.PCG64(np.random.SeedSequence(9, spawn_key=(i, 1))).state
                          for i in keys]

    def test_each_worker_its_own_generator(self):
        # all held at once, then drawn from last worker first
        keys = [4, 0, 9]
        rngs = list(fleet._worker_generators(2101, keys, 1))
        for i, rng in reversed(list(zip(keys, rngs))):
            numpy_rng = np.random.default_rng(np.random.SeedSequence(2101, spawn_key=(i, 1)))
            assert rng.random(4).tolist() == numpy_rng.random(4).tolist()


class TestConfigValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(n_benign=0, n_attack=0)

    def test_unknown_detector_kind(self):
        with pytest.raises(ValueError):
            DetectorSpec(kind="oracle")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="'alpha'"):
            DetectorSpec(alpha=alpha)

    @pytest.mark.parametrize(("field", "value"), [
        ("baseline_rps", -5.0),
        ("baseline_rps", float("nan")),
        ("baseline_rps", float("inf")),
        ("worker_mem_bytes", -1),
        ("subrequests_per_interval", -3),
    ])
    def test_negative_or_non_finite_cost_inputs(self, field, value):
        # each would put negative or NaN throughput or memory in the report's series
        with pytest.raises(ValueError, match=f"'{field}'"):
            FleetConfig(n_benign=2, intervals=2, **{field: value})

    @pytest.mark.parametrize(("field", "value"), [
        ("rng_seed", -1),
        ("n_benign", -1),
        ("n_attack", -1),
        ("intervals", 0),
        ("executions_per_interval", 0),
    ])
    def test_field_below_minimum(self, field, value):
        minimum = next(f.metadata["minimum"] for f in fields(FleetConfig) if f.name == field)
        with pytest.raises(ValueError, match=f"^'{field}' must be an integer >= {minimum}, got {value}$"):
            FleetConfig(**{field: value})

    @pytest.mark.parametrize(("field", "value"), [
        ("amplification", 0),
        ("amplification", -3),
        ("pages", -5),
    ])
    def test_attack_field_below_minimum(self, field, value):
        # unchecked, a KS fleet would run such an attack and report it flagged
        minimum = next(f.metadata["minimum"] for f in fields(AttackWorkload) if f.name == field)
        with pytest.raises(ValueError, match=f"^'{field}' must be an integer >= {minimum}, got {value}$"):
            AttackWorkload(**{field: value})

    @pytest.mark.parametrize(("make", "message"), [
        # a bool is an int to Python; read as a threshold of 1 it would flag every window
        (lambda: ThresholdConfig(True), "'branch_per_itlb_threshold' must be a number >= 0, got True"),
        (lambda: ThresholdConfig("5"), "'branch_per_itlb_threshold' must be a number >= 0, got '5'"),
        (lambda: ThresholdConfig(stl_reset_threshold=None),
         "'stl_reset_threshold' must be a number >= 0, got None"),
        (lambda: FleetConfig(n_benign=2.5), "'n_benign' must be an integer >= 0, got 2.5"),
        (lambda: FleetConfig(intervals=2.0), "'intervals' must be an integer >= 1, got 2.0"),
        (lambda: FleetConfig(intervals=True), "'intervals' must be an integer >= 1, got True"),
        (lambda: FleetConfig(baseline_rps="1000"), "'baseline_rps' must be a number >= 0, got '1000'"),
        (lambda: AttackWorkload(pages=1.5), "'pages' must be an integer >= 0, got 1.5"),
        (lambda: AttackWorkload(amplification=10.0), "'amplification' must be an integer >= 1, got 10.0"),
        (lambda: AttackWorkload(amplification=MAX_AMPLIFICATION + 1),
         f"'amplification' must be <= {MAX_AMPLIFICATION}, got {MAX_AMPLIFICATION + 1}"),
        (lambda: AttackWorkload(pages=MAX_AMPLIFICATION + 1),
         f"'pages' must be <= {MAX_AMPLIFICATION}, got {MAX_AMPLIFICATION + 1}"),
        (lambda: DetectorSpec(alpha="0.5"), "'alpha' must be a number, got '0.5'"),
        (lambda: DetectorSpec(alpha=True), "'alpha' must be a number, got True"),
        # unchecked, these failed inside run_fleet, or the KS fleet never read the attack
        (lambda: FleetConfig(n_benign=2, intervals=2, detector="ks"),
         "'detector' must be a DetectorSpec, got 'ks'"),
        (lambda: FleetConfig(detector=None), "'detector' must be a DetectorSpec, got None"),
        (lambda: FleetConfig(attack="pht"), "'attack' must be an AttackWorkload, got 'pht'"),
        (lambda: DetectorSpec(threshold=5000), "'threshold' must be a ThresholdConfig, got 5000"),
        (lambda: FleetConfig(detector=DetectorSpec(kind="ks"), attack="pht"),
         "'attack' must be an AttackWorkload, got 'pht'"),
    ], ids=["threshold-bool", "threshold-str", "threshold-none", "n_benign-float",
            "intervals-float", "intervals-bool", "baseline_rps-str", "pages-float",
            "amplification-float", "amplification-past-bound", "pages-past-bound",
            "alpha-str", "alpha-bool", "detector-str", "detector-none", "attack-str",
            "detector-threshold-int", "ks-detector-attack-str"])
    def test_field_of_the_wrong_type_or_past_its_bound(self, make, message):
        # one rule for every field: the type is the annotation's (a settings
        # section takes an instance of its class), the bounds are the field's
        # at_least metadata
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    def test_number_fields_hold_floats(self):
        assert ThresholdConfig(5000).branch_per_itlb_threshold == 5000.0
        assert type(ThresholdConfig(5000).branch_per_itlb_threshold) is float
        assert type(FleetConfig(baseline_rps=250).baseline_rps) is float
        assert type(DetectorSpec(alpha=np.float64(0.2)).alpha) is float
        assert FleetConfig(n_benign=3).n_benign == 3
        assert AttackWorkload(amplification=None).amplification is None

    @pytest.mark.parametrize("variant", ["xyz", "PHT", 5, None])
    def test_unknown_attack_variant(self, variant):
        with pytest.raises(ValueError, match="'variant' must be one of "):
            AttackWorkload(variant)

    def test_variant_name_is_its_enum_member(self):
        workload = AttackWorkload("btb", amplification=1)
        assert workload.variant is AttackVariant.BTB
        assert workload == AttackWorkload(AttackVariant.BTB, 1)

    def test_fleet_minimums_are_field_metadata(self):
        # one definition: the dataclass checks read the same numbers the
        # config reader does
        minimums = {f.name: f.metadata.get("minimum") for f in fields(FleetConfig)}
        assert minimums == {
            "n_benign": 0, "n_attack": 0, "intervals": 1, "executions_per_interval": 1,
            "detector": None, "attack": None, "baseline_rps": 0, "worker_mem_bytes": 0,
            "subrequests_per_interval": 0, "rng_seed": 0,
        }

    def test_cost_model_is_not_a_setting(self):
        assert "cost_model" not in {f.name for f in fields(FleetConfig)}
        assert FleetConfig().cost_model == CostModel()
        with pytest.raises(TypeError):
            FleetConfig(cost_model=CostModel())

    def test_zero_cost_inputs_allowed(self):
        run_fleet(FleetConfig(n_benign=2, intervals=2, baseline_rps=0.0, worker_mem_bytes=0,
                              subrequests_per_interval=0))

    def test_largest_worker_memory_is_priced(self):
        # the bound keeps the series finite: at 10**307 bytes a worker, the
        # memory of 31 workers overflowed
        report = run_fleet(FleetConfig(n_benign=30, intervals=2, worker_mem_bytes=2**63 - 1))
        assert all(31 * 2**63 <= point.memory_bytes < 2**70 for point in report.series)


class TestPinnedReports:
    """Exact report bytes of small fleets, checked into tests/data."""

    @pytest.mark.parametrize(
        ("name", "cfg"),
        [
            (
                # one attack and one benign isolation; each worker's 10,004
                # subsequent requests pass the limit by 4: 52 redirects
                "fleet_threshold_report.json",
                FleetConfig(
                    n_benign=12,
                    n_attack=1,
                    intervals=4,
                    subrequests_per_interval=2501,
                    rng_seed=9,
                ),
            ),
            (
                # four executions per window, so every window takes the exact
                # sum kernel; two attack and two benign isolations
                "fleet_threshold_e4_report.json",
                FleetConfig(n_benign=30, n_attack=2, intervals=5, executions_per_interval=4,
                            subrequests_per_interval=2, rng_seed=8),
            ),
            (
                "fleet_ks_report.json",
                FleetConfig(n_benign=4, n_attack=1, intervals=3, rng_seed=9,
                            detector=DetectorSpec(kind="ks")),
            ),
            (
                # 301 windows: three screen blocks, workers split across them
                "fleet_ks_blocks_report.json",
                FleetConfig(n_benign=40, n_attack=3, intervals=7, rng_seed=11,
                            detector=DetectorSpec(kind="ks")),
            ),
        ],
    )
    def test_report_bytes(self, name, cfg):
        report = run_fleet(cfg)
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert text == (DATA / name).read_text(encoding="utf-8")
