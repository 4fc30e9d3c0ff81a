"""Threshold detector, sweep, and evasion-economics tests."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spectreguard.profiles import (
    BENIGN_MD_MEAN,
    FULL_AMPLIFICATION,
    STL_ATTACK_MD_MEAN,
    AttackProfile,
    AttackVariant,
    diluted_metric,
    pages_to_reach,
)
from spectreguard.threshold import (
    BRANCH_METRIC_NAME,
    STL_METRIC_NAME,
    EmptyPopulation,
    ThresholdConfig,
    UnreachableTarget,
    classify_intervals,
    classify_threshold,
    evasion_cost,
    sweep_thresholds,
)
from spectreguard.trace import METRIC_FIELDS, IntervalAverage, IntervalBatch, NormalizedMetrics


def make_avg(branch=100.0, md=100.0, worker="w0", window=0):
    return IntervalAverage(
        worker_id=worker,
        window_start_ns=window,
        mean_metrics=NormalizedMetrics(
            branch_instructions=branch,
            branch_misses=1.0,
            cache_references=10.0,
            cache_misses=1.0,
            l1d_read_accesses=100.0,
            l1d_read_misses=5.0,
            mem_disambiguation_resets=md,
        ),
        sample_count=1,
    )


class TestThresholdConfig:
    def test_default_stl_threshold_is_geometric_mean(self):
        cfg = ThresholdConfig()
        assert cfg.stl_reset_threshold == pytest.approx(
            math.sqrt(STL_ATTACK_MD_MEAN * BENIGN_MD_MEAN)
        )
        assert 4800 < cfg.stl_reset_threshold < 4950

    def test_zero_threshold_allowed_for_degraded_mode(self):
        cfg = ThresholdConfig(branch_per_itlb_threshold=0.0)
        assert classify_threshold(make_avg(branch=0.0), cfg).suspect

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdConfig(branch_per_itlb_threshold=-1.0)

    @pytest.mark.parametrize("field", ["branch_per_itlb_threshold", "stl_reset_threshold"])
    def test_nan_threshold_rejected(self, field):
        # NaN compares false with every value, so it would switch its rule off
        with pytest.raises(ValueError):
            ThresholdConfig(**{field: math.nan})

    @pytest.mark.parametrize("field", ["branch_per_itlb_threshold", "stl_reset_threshold"])
    @pytest.mark.parametrize("value", [10**400, 2**1024])
    def test_integer_past_float_range_rejected(self, field, value):
        # float() of it raises OverflowError, which no caller maps to an input error
        with pytest.raises(ValueError, match=f"^'{field}' must be a number in float range, got "):
            ThresholdConfig(**{field: value})

    def test_largest_float_as_an_integer_accepted(self):
        assert ThresholdConfig(2**1024 - 2**971).branch_per_itlb_threshold == sys.float_info.max


class TestClassify:
    def test_full_strength_pht_suspect(self):
        verdict = classify_threshold(make_avg(branch=423171.54), ThresholdConfig())
        assert verdict.suspect and verdict.triggering_metric == "branch_per_itlb"

    def test_btb_and_rsb_suspect(self):
        assert classify_threshold(make_avg(branch=23401.20), ThresholdConfig()).suspect
        assert classify_threshold(make_avg(branch=38369.17), ThresholdConfig()).suspect

    def test_stl_caught_by_md_rule(self):
        verdict = classify_threshold(
            make_avg(branch=982.20, md=8993.98), ThresholdConfig()
        )
        assert verdict.suspect
        assert verdict.triggering_metric == "md_reset_per_itlb"
        assert verdict.value == 8993.98

    def test_low_amplification_attack_passes_branch_rule(self):
        verdict = classify_threshold(
            make_avg(branch=3492.41, md=BENIGN_MD_MEAN), ThresholdConfig()
        )
        assert not verdict.suspect

    def test_branch_rule_checked_first(self):
        verdict = classify_threshold(
            make_avg(branch=5000.0, md=9000.0), ThresholdConfig()
        )
        assert verdict.triggering_metric == "branch_per_itlb"

    def test_monotone_in_metric(self):
        cfg = ThresholdConfig()
        low = classify_threshold(make_avg(branch=4000.0), cfg)
        high = classify_threshold(make_avg(branch=4200.0), cfg)
        assert not low.suspect and high.suspect


def batch_of(rows):
    """An IntervalBatch of (branch, md) window means, other metrics fixed."""
    means = np.ones((len(rows), len(METRIC_FIELDS)))
    means[:, METRIC_FIELDS.index("branch_instructions")] = [b for b, _md in rows]
    means[:, METRIC_FIELDS.index("mem_disambiguation_resets")] = [md for _b, md in rows]
    n = len(rows)
    return IntervalBatch(
        names=("w0",),
        worker=np.zeros(n, dtype=np.intp),
        window=np.arange(n),
        sample_count=np.ones(n, dtype=np.int64),
        means=means,
        dropped_zero_itlb=0,
    )


THRESHOLDS = st.one_of(
    st.sampled_from([0.0, math.inf, 4096.0, 4877.155802862976]),
    st.floats(min_value=0.0, max_value=1e6),
)


@st.composite
def windows_and_config(draw):
    cfg = ThresholdConfig(
        branch_per_itlb_threshold=draw(THRESHOLDS), stl_reset_threshold=draw(THRESHOLDS)
    )
    # values at, just below and just above each threshold, plus free draws
    near = [
        v
        for t in (cfg.branch_per_itlb_threshold, cfg.stl_reset_threshold)
        for v in (t, math.nextafter(t, 0.0), math.nextafter(t, math.inf))
    ]
    value = st.one_of(st.sampled_from(near), st.floats(min_value=0.0, max_value=1e7))
    rows = draw(st.lists(st.tuples(value, value), min_size=1, max_size=20))
    return rows, cfg


class TestClassifyIntervals:
    """The column classify against the per-window oracle classify_threshold."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(windows_and_config())
    # exactly at both thresholds; thresholds 0 and inf; STL rule only
    @example(([(4096.0, 4877.155802862976)], ThresholdConfig()))
    @example(([(0.0, 0.0), (5.0, 1.0)], ThresholdConfig(0.0, 0.0)))
    @example(([(1e300, 1e300)], ThresholdConfig(math.inf, math.inf)))
    @example(([(982.2, 8993.98), (982.2, 10.0)], ThresholdConfig()))
    def test_matches_classify_threshold_on_every_row(self, case):
        rows, cfg = case
        batch = batch_of(rows)
        rule, value = classify_intervals(batch, cfg)
        assert rule.dtype == np.int8
        for i, avg in enumerate(batch):
            oracle = classify_threshold(avg, cfg)
            metric = STL_METRIC_NAME if rule[i] == 2 else BRANCH_METRIC_NAME
            threshold = cfg.stl_reset_threshold if rule[i] == 2 else cfg.branch_per_itlb_threshold
            assert (bool(rule[i] > 0), metric, float(value[i]), threshold) == (
                oracle.suspect,
                oracle.triggering_metric,
                oracle.value,
                oracle.threshold,
            )


class TestSweep:
    def test_population_below_min_threshold(self):
        avgs = [make_avg(branch=b) for b in (10.0, 20.0, 30.0)]
        points = sweep_thresholds(avgs, [100.0, 200.0])
        assert [fp for _t, fp in points] == [0.0, 0.0]

    def test_survival_curve_shape(self):
        avgs = [make_avg(branch=float(b)) for b in range(1, 101)]
        points = sweep_thresholds(avgs, [0.5, 25.0, 50.5, 101.0])
        rates = [fp for _t, fp in points]
        assert rates[0] == 1.0  # everything positive sits at/above 0.5
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert all(0.0 <= r <= 1.0 for r in rates)
        assert rates[-1] == 0.0

    def test_boundary_is_inclusive(self):
        avgs = [make_avg(branch=4096.0)]
        ((_, fp),) = sweep_thresholds(avgs, [4096.0])
        assert fp == 1.0  # value >= threshold counts as flagged

    def test_empty_population_rejected(self):
        with pytest.raises(EmptyPopulation):
            sweep_thresholds([], [1.0])

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            sweep_thresholds([make_avg()], [2.0, 1.0])

    @pytest.mark.parametrize(
        "thresholds", [[1.0, math.nan, 2.0], [math.nan], [math.nan, 1.0], [1.0, math.nan]]
    )
    def test_nan_thresholds_rejected(self, thresholds):
        with pytest.raises(ValueError):
            sweep_thresholds([make_avg()], thresholds)


class TestEvasion:
    def test_page_inflation_anchor(self):
        cost = evasion_cost(4096.0, AttackProfile.for_variant("pht"))
        assert cost.code_pages == 125
        assert cost.code_bytes == 125 * 4096
        assert cost.code_bytes / 1024 == 500.0  # 500 KB of extra code

    def test_amplification_reduction_leakage(self):
        cost = evasion_cost(4096.0, AttackProfile.for_variant("pht"))
        assert cost.amplification == 11  # largest factor under the threshold
        assert cost.leakage_bits_per_hour <= 1.5

    def test_target_above_unamplified_metric_is_fine(self):
        # 604.71 < 4096, so amplification 1 never triggers UnreachableTarget here
        cost = evasion_cost(700.0, AttackProfile.for_variant("pht"))
        assert cost.amplification == 1

    def test_unreachable_target(self):
        with pytest.raises(UnreachableTarget):
            evasion_cost(500.0, AttackProfile.for_variant("pht"))
        # a library error, so the CLI's one ValueError catch reports it
        with pytest.raises(ValueError):
            evasion_cost(100.0, AttackProfile.for_variant("pht"))

    @pytest.mark.parametrize("target", [0.0, -4096.0, -math.inf, math.nan, math.inf])
    def test_target_must_be_finite_and_positive(self, target):
        with pytest.raises(ValueError, match=f"target_metric must be finite and > 0, got {target!r}"):
            evasion_cost(target, AttackProfile.for_variant("pht"))

    @pytest.mark.parametrize("variant", list(AttackVariant))
    def test_amplification_is_the_largest_below_the_target(self, variant):
        # (target - intercept) / slope can round across a whole number, so
        # targets on the affine law and one ulp either side of it are the
        # hard cases; midpoints between two factors are the easy ones.
        profile = AttackProfile.for_variant(variant)
        metric = profile.branch_metric
        for a in [*range(1, 1500), *range(10**5, 10**5 + 100), FULL_AMPLIFICATION]:
            on_law = metric(a)
            for target in (on_law, math.nextafter(on_law, math.inf),
                           math.nextafter(on_law, 0.0), (on_law + metric(a + 1)) / 2):
                try:
                    found = evasion_cost(target, profile).amplification
                except UnreachableTarget:
                    assert metric(1) >= target, (a, target)
                else:
                    assert metric(found) < target <= metric(found + 1), (a, target, found)
        # Past 2**53 whole factors are not resolvable, but a factor is still returned.
        assert evasion_cost(1e20, profile).amplification > 2**53

    def test_dilution_model_boundaries(self):
        full = AttackProfile.for_variant("pht").branch_metric()
        assert diluted_metric(full, 125) < 4096.0
        assert diluted_metric(full, 124) >= 4096.0

    def test_dilution_cannot_pass_per_page_cost(self):
        # each page adds 740 branches per iTLB access
        assert pages_to_reach(423171.54, 700.0) is None
