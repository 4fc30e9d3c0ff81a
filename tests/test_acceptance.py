"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectreguard import cli
from spectreguard.channel import (
    box_test,
    DegenerateSamples,
    js_worker_params,
    leakage_table,
    required_requests,
    success_rate_curve,
)
from spectreguard.fleet import (
    DEGRADED_MODE,
    DetectorSpec,
    FleetConfig,
    run_fleet,
)
from spectreguard.ks import classify_ks, ks_two_sample, load_default_template
from spectreguard.profiles import (
    BENIGN_MD_MEAN,
    STL_ATTACK_MD_MEAN,
    AttackProfile,
    BenignProfile,
    generate_attack,
    generate_benign,
    make_attack_histogram,
    make_benign_histogram,
)
from spectreguard.threshold import (
    ThresholdConfig,
    classify_threshold,
    evasion_cost,
    sweep_thresholds,
)
from spectreguard.trace import (
    CounterSnapshot,
    IntervalAverage,
    NormalizedMetrics,
    fold_intervals,
    normalize,
)

REPORTED_LEAKAGE = (0, 1, 10, 62, 79, 120)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def budget(started: float, limit_s: float, criterion: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"{criterion} took {elapsed:.1f}s, budget {limit_s}s"


# --- criterion 1: leakage table reproduction --------------------------------

def test_c01_leakage_table_reproduction(tmp_path):
    started = time.monotonic()
    out = tmp_path / "table.csv"
    assert cli.main(["channel", "--table", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == len(REPORTED_LEAKAGE)
    for row, reported in zip(rows, REPORTED_LEAKAGE):
        assert abs(float(row[3]) - reported) <= 1.0
    # and through the library directly
    for estimate, reported in zip(leakage_table(), REPORTED_LEAKAGE):
        assert abs(estimate.bits_per_hour - reported) <= 1.0
    budget(started, 1.0, "c1")
    report("c1 leakage table", "all 6 rows within ±1 bit/hour")


# --- criterion 2: request-amplification conservation -------------------------

def test_c02_request_amplification_conservation():
    started = time.monotonic()
    params = js_worker_params()
    base = required_requests(1, params, target_success=0.99, rng_seed=7)
    assert 175_000 <= base <= 325_000, base
    products = {}
    for amplification in (10, 100, 1000):
        n = required_requests(amplification, params, target_success=0.99, rng_seed=7)
        products[amplification] = n * amplification
        assert 0.7 * base <= n * amplification <= 1.3 * base, (amplification, n, base)
    budget(started, 120.0, "c2")
    report(
        "c2 request conservation",
        f"n(1)={base}, products={products}",
    )


# --- criterion 3: KS oracle equivalence --------------------------------------

def oracle_distance(a, b) -> float:
    best = 0.0
    for value in list(a) + list(b):
        gap = abs(
            sum(1 for x in a if x <= value) / len(a)
            - sum(1 for x in b if x <= value) / len(b)
        )
        if gap > best:
            best = gap
    return best


def oracle_exact_p(a, b) -> float:
    n, m = len(a), len(b)
    pooled = list(a) + list(b)

    def rational_distance(side_a, side_b) -> Fraction:
        best = Fraction(0)
        for value in pooled:
            fa = Fraction(sum(1 for x in side_a if x <= value), n)
            fb = Fraction(sum(1 for x in side_b if x <= value), m)
            best = max(best, abs(fa - fb))
        return best

    observed = rational_distance(a, b)
    hits = total = 0
    for chosen in combinations(range(n + m), n):
        keep = set(chosen)
        total += 1
        side_a = [pooled[i] for i in keep]
        side_b = [pooled[i] for i in range(n + m) if i not in keep]
        if rational_distance(side_a, side_b) >= observed:
            hits += 1
    return hits / total


def test_c03_ks_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20260810)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 9 - n))
        a = rng.integers(1, 5, size=n).tolist()
        b = rng.integers(1, 5, size=m).tolist()
        asymptotic = ks_two_sample(a, b)
        assert asymptotic.statistic == oracle_distance(a, b)
        exact = ks_two_sample(a, b, mode="exact")
        assert exact.p_value == oracle_exact_p(a, b)
    budget(started, 30.0, "c3")
    report("c3 KS oracle equivalence", "1000 pairs, D and exact p both exact")


# --- criterion 4: KS corpus separation ----------------------------------------

def test_c04_ks_corpus_separation():
    started = time.monotonic()
    template = load_default_template()

    attack_seeds = np.random.SeedSequence(424242).spawn(13)
    true_positives = sum(
        classify_ks(make_attack_histogram(np.random.default_rng(s)), template).suspect
        for s in attack_seeds
    )
    assert true_positives == 13

    benign_seeds = np.random.SeedSequence(979797).spawn(128)
    false_positives = sum(
        classify_ks(make_benign_histogram(np.random.default_rng(s)), template).suspect
        for s in benign_seeds
    )
    assert false_positives <= 0.05 * 128
    budget(started, 30.0, "c4")
    report("c4 KS corpus", f"TP 13/13, FP {false_positives}/128")


# --- criterion 5: threshold sweep calibration ---------------------------------

def test_c05_threshold_sweep_calibration():
    started = time.monotonic()
    snapshots = generate_benign(BenignProfile.default(), 100_000, seed=2024)
    averages = list(fold_intervals(iter(snapshots)))
    points = dict(
        sweep_thresholds(averages, [1024.0, 4096.0, 8192.0, 65536.0])
    )
    assert points[1024.0] == pytest.approx(0.2141, abs=0.03)
    assert points[4096.0] == pytest.approx(0.0061, abs=0.002)
    assert points[8192.0] == pytest.approx(0.0026, abs=0.0015)
    assert points[65536.0] == 0.0
    budget(started, 60.0, "c5")
    report(
        "c5 sweep calibration",
        "fp= " + ", ".join(f"{int(t)}:{fp:.4f}" for t, fp in sorted(points.items())),
    )


# --- criterion 6: variant detection -------------------------------------------

def test_c06_variant_detection():
    started = time.monotonic()
    cfg = ThresholdConfig()

    means = {}
    for variant, target in (("pht", 423171.54), ("btb", 23401.20), ("rsb", 38369.17)):
        snapshots, _ = generate_attack(variant, n=500, seed=606)
        averages = list(fold_intervals(iter(snapshots)))
        metric = np.mean([a.mean_metrics.branch_instructions for a in averages])
        means[variant] = metric
        assert metric == pytest.approx(target, rel=0.05)
        verdicts = [classify_threshold(a, cfg) for a in averages]
        assert all(v.suspect and v.triggering_metric == "branch_per_itlb" for v in verdicts)

    stl_snapshots, _ = generate_attack("stl", n=500, seed=607)
    stl_averages = list(fold_intervals(iter(stl_snapshots)))
    branch = np.mean([a.mean_metrics.branch_instructions for a in stl_averages])
    md = np.mean([a.mean_metrics.mem_disambiguation_resets for a in stl_averages])
    assert branch == pytest.approx(982.20, rel=0.05)
    assert md == pytest.approx(STL_ATTACK_MD_MEAN, rel=0.05)
    assert branch < cfg.branch_per_itlb_threshold  # benign by the branch rule
    stl_verdicts = [classify_threshold(a, cfg) for a in stl_averages]
    assert all(v.suspect and v.triggering_metric == "md_reset_per_itlb" for v in stl_verdicts)

    benign_md = np.mean(
        [
            normalize(s).mem_disambiguation_resets
            for s in generate_benign(BenignProfile.default(), 2_000, seed=608)
        ]
    )
    assert benign_md == pytest.approx(BENIGN_MD_MEAN, rel=0.05)
    budget(started, 10.0, "c6")
    report(
        "c6 variant detection",
        f"pht={means['pht']:.0f} btb={means['btb']:.0f} rsb={means['rsb']:.0f} "
        f"stl branch={branch:.1f} md={md:.0f} vs benign md={benign_md:.0f}",
    )


# --- criterion 7: evasion economics -------------------------------------------

def test_c07_evasion_economics():
    started = time.monotonic()
    cost = evasion_cost(4096.0, AttackProfile.for_variant("pht"))
    assert cost.code_pages == 125
    assert cost.code_bytes == 512_000 and cost.code_bytes / 1024 == 500.0
    assert cost.leakage_bits_per_hour <= 1.5
    budget(started, 1.0, "c7")
    report(
        "c7 evasion economics",
        f"125 pages (500 KB), amplification {cost.amplification} "
        f"leaks {cost.leakage_bits_per_hour:.2f} bits/hour",
    )


# --- criterion 8: fleet safety and degradation ---------------------------------

def test_c08_fleet_safety_and_degradation():
    started = time.monotonic()
    latencies = []
    for seed in range(100):
        cfg = FleetConfig(n_benign=50, n_attack=1, intervals=4, rng_seed=seed)
        result = run_fleet(cfg)
        assert result.attack_workers_flagged == 1, seed
        latency = result.detection_latency_intervals["attack-000"]
        assert latency <= 2, (seed, latency)
        latencies.append(latency)
        assert result.post_isolation_shared_events == 0, seed

    degraded_cfg = FleetConfig(
        n_benign=50,
        n_attack=1,
        intervals=4,
        rng_seed=1000,
        detector=DetectorSpec(threshold=ThresholdConfig(branch_per_itlb_threshold=0.0)),
        baseline_rps=1000.0,
    )
    degraded = run_fleet(degraded_cfg)
    assert degraded.mode == DEGRADED_MODE
    assert degraded.isolated_total == degraded.n_workers
    penalty = degraded_cfg.cost_model.isolation_penalty(
        degraded.n_workers, degraded.n_workers
    )
    assert degraded.series[-1].throughput_rps == 1000.0 * 0.98 * penalty
    budget(started, 120.0, "c8")
    report(
        "c8 fleet safety",
        f"100/100 runs isolated within {max(latencies)} interval(s); "
        "degraded mode throughput exact",
    )


# --- criterion 9: CLI determinism ----------------------------------------------

def _artifact_hashes(base, tag: str) -> list[str]:
    """Run every CLI command once into base/tag and hash the artifacts."""
    root = base / tag
    root.mkdir()
    trace_b = root / "benign.jsonl"
    trace_a = root / "attack.jsonl"
    hist_dir = root / "hists"
    hist_dir.mkdir()
    fleet_cfg = base / "fleet-config.json"
    if not fleet_cfg.exists():
        fleet_cfg.write_text(json.dumps({"n_benign": 8, "n_attack": 1, "intervals": 3}))

    commands = [
        ["gen", "--profile", "benign", "--n", "400", "--out", str(trace_b)],
        ["gen", "--profile", "pht", "--n", "40", "--out", str(trace_a),
         "--histogram-out", str(hist_dir / "attack-0.csv")],
        ["detect", "--detector", "threshold", "--trace", str(trace_a),
         "--out", str(root / "verdicts-threshold.jsonl")],
        ["detect", "--detector", "ks", "--histograms", str(hist_dir),
         "--out", str(root / "verdicts-ks.jsonl")],
        ["sweep", "--trace", str(trace_b), "--out", str(root / "sweep.csv")],
        ["channel", "--table", "--out", str(root / "table.csv")],
        ["channel", "--amplifications", "1000,10000", "--requests", "1,20",
         "--out", str(root / "grid.csv")],
        ["fleet", "--config", str(fleet_cfg), "--out", str(root / "fleet.json"),
         "--series-out", str(root / "series.csv")],
        ["ks", str(hist_dir / "attack-0.csv"), str(hist_dir / "attack-0.csv"),
         "--out", str(root / "ks.json")],
    ]
    hashes = []
    for argv in commands:
        assert cli.main(argv) == 0, argv
    for artifact in sorted(p for p in root.rglob("*") if p.is_file()):
        hashes.append(hashlib.sha256(artifact.read_bytes()).hexdigest())
    return hashes


def test_c09_cli_determinism(tmp_path):
    started = time.monotonic()
    first = _artifact_hashes(tmp_path, "run1")
    second = _artifact_hashes(tmp_path, "run2")
    third = _artifact_hashes(tmp_path, "run3")
    assert first == second == third
    assert len(first) >= 10
    budget(started, 60.0, "c9")
    report("c9 determinism", f"{len(first)} artifacts byte-identical across 3 runs")


# --- criterion 10: property suite ----------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def snapshots_strategy(draw):
    itlb = draw(st.integers(min_value=1, max_value=10_000))
    br = draw(st.integers(min_value=0, max_value=10_000_000))
    br_miss = draw(st.integers(min_value=0, max_value=br))
    llc = draw(st.integers(min_value=0, max_value=1_000_000))
    llc_miss = draw(st.integers(min_value=0, max_value=llc))
    l1d = draw(st.integers(min_value=0, max_value=1_000_000))
    l1d_miss = draw(st.integers(min_value=0, max_value=l1d))
    md = draw(st.integers(min_value=0, max_value=1_000_000))
    return CounterSnapshot(
        worker_id="p",
        timestamp_ns=0,
        itlb_accesses=itlb,
        branch_instructions=br,
        branch_misses=br_miss,
        cache_references=llc,
        cache_misses=llc_miss,
        l1d_read_accesses=l1d,
        l1d_read_misses=l1d_miss,
        mem_disambiguation_resets=md,
    )


@PROPERTY_SETTINGS
@given(snapshots_strategy(), st.integers(min_value=1, max_value=100_000))
def test_c10a_normalize_scale_covariance(snapshot, k):
    scaled = CounterSnapshot(
        worker_id=snapshot.worker_id,
        timestamp_ns=snapshot.timestamp_ns,
        itlb_accesses=snapshot.itlb_accesses * k,
        branch_instructions=snapshot.branch_instructions * k,
        branch_misses=snapshot.branch_misses * k,
        cache_references=snapshot.cache_references * k,
        cache_misses=snapshot.cache_misses * k,
        l1d_read_accesses=snapshot.l1d_read_accesses * k,
        l1d_read_misses=snapshot.l1d_read_misses * k,
        mem_disambiguation_resets=snapshot.mem_disambiguation_resets * k,
    )
    assert normalize(scaled) == normalize(snapshot)


def _avg(branch: float) -> IntervalAverage:
    return IntervalAverage(
        worker_id="p",
        window_start_ns=0,
        mean_metrics=NormalizedMetrics(
            branch_instructions=branch,
            branch_misses=0.0,
            cache_references=0.0,
            cache_misses=0.0,
            l1d_read_accesses=0.0,
            l1d_read_misses=0.0,
            mem_disambiguation_resets=0.0,
        ),
        sample_count=1,
    )


@PROPERTY_SETTINGS
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=60),
    st.lists(st.floats(min_value=1e-6, max_value=2e6), min_size=1, max_size=20, unique=True),
)
def test_c10b_sweep_is_survival_curve(metrics, raw_thresholds):
    averages = [_avg(m) for m in metrics]
    thresholds = [0.0] + sorted(raw_thresholds)
    points = sweep_thresholds(averages, thresholds)
    rates = [fp for _t, fp in points]
    assert rates[0] == 1.0  # all metrics are positive
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert all(later <= earlier for earlier, later in zip(rates, rates[1:]))


@PROPERTY_SETTINGS
@given(
    st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40),
    st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40),
)
def test_c10c_ks_symmetry(a, b):
    forward = ks_two_sample(a, b)
    backward = ks_two_sample(b, a)
    assert forward.statistic == backward.statistic
    assert 0.0 <= forward.statistic <= 1.0
    assert 0.0 <= forward.p_value <= 1.0


@PROPERTY_SETTINGS
@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
)
def test_c10d_box_test_trivial_cases(zero_value, one_value, n_zero, n_one):
    zeros = [zero_value] * n_zero
    ones = [one_value] * n_one
    if zero_value == one_value:
        with pytest.raises(DegenerateSamples):
            box_test(zeros, ones)
        return
    result = box_test(zeros, ones)
    assert result.distinguishable
    assert result.threshold == pytest.approx((zero_value + one_value) / 2.0)
    # identical non-degenerate samples are never distinguishable
    mixed = [zero_value, one_value] * 5
    assert not box_test(mixed, mixed).distinguishable


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=100, max_value=1500),
    st.integers(min_value=4, max_value=16),
    st.integers(min_value=25, max_value=200),
    st.integers(min_value=4, max_value=16),
)
def test_c10e_success_curve_monotone_with_se_slack(a1, a_factor, n1, n_factor):
    # Cases are drawn from regimes where the curve is resolvable: on the
    # deep plateau (both cells ~0.5) any independent pair of estimates
    # violates a 1-SE bound with fixed probability, so nothing is learned
    # there.  Within these ranges the true gaps dominate the trial noise.
    params = js_worker_params()
    trials = 400  # the grid is exact now; the slack keeps its 400-trial width
    grid = success_rate_curve(
        [a1, a1 * a_factor],
        [n1, n1 * n_factor],
        params,
    )

    def slack(p, q):
        floor = (0.0099 / trials) ** 0.5
        se_p = max((p * (1 - p) / trials) ** 0.5, floor)
        se_q = max((q * (1 - q) / trials) ** 0.5, floor)
        return se_p + se_q

    for row in range(2):
        p, q = grid[row, 0], grid[row, 1]
        assert q >= p - slack(p, q), ("requests axis", grid)
    for col in range(2):
        p, q = grid[0, col], grid[1, col]
        assert q >= p - slack(p, q), ("amplification axis", grid)


def test_c10_property_suite_summary():
    report("c10 property suite", "5 properties x 200 randomized cases")
