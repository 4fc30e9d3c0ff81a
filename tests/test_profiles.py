"""Generator calibration tests: benign survival curve, attack anchors, histograms."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleet_reference import reference_fleet_counts
from spectreguard.profiles import (
    BENIGN_COUNT_RANGE,
    BENIGN_ITLB_RANGE,
    BENIGN_MAX_BRANCHES,
    BENIGN_MD_MEAN,
    BENIGN_MD_SIGMA,
    BENIGN_MIN_BRANCHES,
    FULL_AMPLIFICATION,
    MAX_AMPLIFICATION,
    METRIC_INTERCEPT,
    METRIC_SLOPE,
    STL_ATTACK_MD_MEAN,
    AttackProfile,
    AttackVariant,
    BenignProfile,
    diluted_metric,
    generate_attack,
    generate_benign,
    make_attack_histogram,
    make_benign_histogram,
    pages_to_reach,
)
from spectreguard import cli, ks
from spectreguard.threshold import AttackWorkload
from spectreguard.profiles import (
    _attack_count_rows,
    _benign_count_rows,
    _fleet_counts,
    _ks_count_blocks,
)
from spectreguard.trace import emit_trace, fold_intervals, normalize

DATA = Path(__file__).parent / "data"
# Written before the histogram generators went to array operations:
# `gen --profile pht --n 10 --seed 1729 --histogram-out`, and a sha256 over
# json.dumps([benign.entries, attack.entries]) with both histograms drawn,
# benign first, from default_rng(s) for s in 0..199.
PINNED_HISTOGRAM = DATA / "pinned_histogram.csv"
PINNED_ENTRIES_SHA256 = DATA / "histogram_entries.sha256"
# sha256 over json.dumps([benign, attack]) of three windows of each kind's
# counts-only draw (a window's nonzero counts), benign first, from
# default_rng(s) for s in 0..199.
PINNED_COUNTS_SHA256 = DATA / "histogram_counts.sha256"
# One line per case of FLEET_COUNTS_CASES, "<sha256>  <case>": the sha256 of
# _fleet_counts(...).tobytes(), written before the benign draws went to raw
# rows transformed once per fleet.
PINNED_FLEET_COUNTS_SHA256 = DATA / "fleet_counts.sha256"


def branch_metrics(snapshots):
    return np.array([normalize(s).branch_instructions for s in snapshots])


class TestBenignCalibration:
    def test_survival_matches_targets_analytically(self):
        profile = BenignProfile.default()
        assert profile.survival(1024.0) == pytest.approx(0.2141, abs=0.002)
        assert profile.survival(4096.0) == pytest.approx(0.0061, abs=0.0003)
        assert profile.survival(8192.0) == pytest.approx(0.0026, abs=0.00015)
        assert profile.survival(65536.0) == 0.0
        assert BenignProfile.default() is profile  # solved once

    def test_empirical_quantiles(self):
        profile = BenignProfile.default()
        metrics = branch_metrics(generate_benign(profile, 100_000, seed=2024))
        n = metrics.size
        assert (metrics >= 1024).sum() / n == pytest.approx(0.2141, rel=0.15)
        assert (metrics >= 4096).sum() / n == pytest.approx(0.0061, rel=0.15)
        assert (metrics >= 8192).sum() / n == pytest.approx(0.0026, rel=0.15)
        assert (metrics >= 65536).sum() == 0

    def test_single_snapshot(self):
        (snapshot,) = generate_benign(BenignProfile.default(), 1, seed=0)
        assert snapshot.itlb_accesses > 0

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_snapshots_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate_benign(BenignProfile.default(), n, seed=0)

    def test_determinism(self):
        profile = BenignProfile.default()
        assert generate_benign(profile, 50, seed=5) == generate_benign(profile, 50, seed=5)

    def test_md_metric_sits_near_benign_mean(self):
        snaps = generate_benign(BenignProfile.default(), 4_000, seed=77)
        md = np.array([normalize(s).mem_disambiguation_resets for s in snaps])
        assert md.mean() == pytest.approx(BENIGN_MD_MEAN, rel=0.05)


class TestAttackMetricLaw:
    def test_affine_anchors(self):
        pht = AttackProfile.for_variant("pht")
        assert pht.branch_metric(1) == pytest.approx(604.71, rel=1e-3)
        assert pht.branch_metric(10) == pytest.approx(3492.41, rel=1e-3)
        assert pht.branch_metric() == pytest.approx(423171.54, rel=1e-9)

    def test_variant_means(self):
        assert AttackProfile.for_variant("btb").branch_metric() == pytest.approx(23401.20)
        assert AttackProfile.for_variant("rsb").branch_metric() == pytest.approx(38369.17)
        assert AttackProfile.for_variant("stl").branch_metric() == pytest.approx(982.20)

    def test_full_amplification_consistent_with_law(self):
        derived = (423171.54 - METRIC_INTERCEPT) / METRIC_SLOPE
        assert round(derived) == FULL_AMPLIFICATION

    def test_dilution_anchor(self):
        pht = AttackProfile.for_variant("pht")
        assert pht.branch_metric(pages=125) < 4096.0
        assert pages_to_reach(pht.branch_metric(), 4096.0) == 125

    @pytest.mark.parametrize("make,message", [
        (lambda: diluted_metric(423171.54, -1), "pages must be >= 0"),
        (lambda: AttackProfile.for_variant("pht").branch_metric(pages=-1), "pages must be >= 0"),
        (lambda: AttackProfile.for_variant("pht").branch_metric(0), "amplification must be >= 1"),
        (lambda: AttackProfile.for_variant("btb").branch_metric(-3), "amplification must be >= 1"),
    ], ids=["diluted-pages", "branch-metric-pages", "amplification-0", "amplification-negative"])
    def test_bad_amplification_or_pages_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_md_metric_only_for_stl(self):
        assert AttackProfile.for_variant("stl").md_reset_metric() == pytest.approx(
            STL_ATTACK_MD_MEAN
        )
        assert AttackProfile.for_variant("pht").md_reset_metric() == pytest.approx(
            BENIGN_MD_MEAN
        )


class TestGenerateAttack:
    @pytest.mark.parametrize(
        "variant,target",
        [("pht", 423171.54), ("btb", 23401.20), ("rsb", 38369.17), ("stl", 982.20)],
    )
    def test_full_strength_means(self, variant, target):
        snaps, _hist = generate_attack(variant, n=600, seed=42)
        assert branch_metrics(snaps).mean() == pytest.approx(target, rel=0.05)

    def test_reduced_amplification_means(self):
        snaps1, _ = generate_attack("pht", amplification=1, n=600, seed=43)
        snaps10, _ = generate_attack("pht", amplification=10, n=600, seed=44)
        assert branch_metrics(snaps1).mean() == pytest.approx(604.71, rel=0.05)
        assert branch_metrics(snaps10).mean() == pytest.approx(3492.41, rel=0.05)

    def test_page_dilution_defeats_threshold(self):
        snaps, _ = generate_attack("pht", pages=125, n=600, seed=45)
        assert branch_metrics(snaps).mean() < 4096.0

    @pytest.mark.parametrize("amplification,pages", [
        (MAX_AMPLIFICATION + 1, 0), (None, MAX_AMPLIFICATION + 1), (10**13, 0), (10**400, 0),
    ], ids=["amplification", "pages", "int64-overflow", "past-float-range"])
    def test_scale_past_the_bound_rejected(self, amplification, pages):
        # 10**13 would overflow the PHT branch counter; 10**400 is past float range
        with pytest.raises(ValueError, match=f"must be <= {MAX_AMPLIFICATION}"):
            generate_attack("pht", amplification, pages, n=3, seed=1)

    @pytest.mark.parametrize("amplification,pages", [
        (None, -1), (0, 0), (MAX_AMPLIFICATION + 1, 0), (None, MAX_AMPLIFICATION + 1),
    ], ids=["pages-negative", "amplification-0", "amplification-past", "pages-past"])
    def test_bounds_are_the_attack_workloads(self, amplification, pages):
        with pytest.raises(ValueError) as workload:
            AttackWorkload("pht", amplification, pages)
        with pytest.raises(ValueError) as generated:
            generate_attack("pht", amplification, pages, n=3, seed=1)
        assert str(generated.value) == str(workload.value)

    def test_stl_md_mean(self):
        snaps, _ = generate_attack("stl", n=600, seed=46)
        md = np.array([normalize(s).mem_disambiguation_resets for s in snaps])
        assert md.mean() == pytest.approx(STL_ATTACK_MD_MEAN, rel=0.05)

    def test_histogram_shape(self):
        _snaps, hist = generate_attack("pht", n=10, seed=47)
        ranked = sorted(hist.entries.values(), reverse=True)
        assert ranked[0] > ranked[1]  # delay loop dominates the mistrained branch
        assert len(hist.entries) > 10

    def test_determinism(self):
        a = generate_attack("pht", n=20, seed=48)
        b = generate_attack("pht", n=20, seed=48)
        assert a[0] == b[0]
        assert a[1].entries == b[1].entries

    def test_snapshots_fold_cleanly(self):
        snaps, _ = generate_attack("pht", n=40, seed=49, samples_per_window=4)
        averages = list(fold_intervals(iter(snaps)))
        assert len(averages) == 10
        assert all(a.sample_count == 4 for a in averages)


# sha256 of emit_trace's text for each generator call below, written before
# generate_benign was split into per-worker draws and one counter-arithmetic
# pass, and before the fleet took the attack counter columns alone.
PINNED_TRACE_SHA256 = {
    "benign": "2b8506dd5bcff5c8b3cc14b6fd7abb59d4035716ead65f33ce8fec8e3a7ce3b9",
    "pht": "053a93cfb7183950021be232cb650f987dfad1d80f44e791632e3003bcb289d3",
    "btb": "d948d4e4dd95017ca625e39b5b30dcaf89f8769afa0b400ff4b6b480ea691e88",
    "stl": "8adf773cd2f2c7e0af0ac2cbba98394ff070eb973fe052374968cc54dba4f791",
    "rsb": "d92fa2c5a4419d37375cd4ff4111b3af763a92e536cf9a3c5a0b76d6c4e222bb",
}


class TestPinnedTraces:
    """The generators make the same rng calls, in the same order, as ever."""

    @pytest.mark.parametrize(
        ("name", "make"),
        [
            ("benign", lambda: generate_benign(BenignProfile.default(), 600, seed=7,
                                               worker_id="b", samples_per_window=3)),
            *(
                (variant, lambda v=variant, a=a, p=p: generate_attack(
                    v, amplification=a, pages=p, n=200, seed=11, worker_id="a",
                    samples_per_window=4)[0])
                for variant, a, p in (("pht", None, 0), ("btb", 9, 3), ("stl", 50, 0),
                                      ("rsb", None, 40))
            ),
        ],
    )
    def test_trace_bytes(self, name, make):
        text = io.StringIO()
        emit_trace(make(), text)
        assert hashlib.sha256(text.getvalue().encode()).hexdigest() == PINNED_TRACE_SHA256[name]


class TestHistogramGenerators:
    def test_attack_histogram_counts_positive(self):
        hist = make_attack_histogram(np.random.default_rng(0))
        assert all(c >= 1 for c in hist.entries.values())

    def test_benign_histogram_is_broad(self):
        hist = make_benign_histogram(np.random.default_rng(0))
        assert len(hist.entries) >= 140
        assert min(hist.entries.values()) >= 1

    def test_gen_histogram_bytes(self, tmp_path):
        out = tmp_path / "h.csv"
        assert cli.main(["gen", "--profile", "pht", "--n", "10", "--seed", "1729",
                         "--out", str(tmp_path / "t.jsonl"), "--histogram-out", str(out)]) == 0
        assert out.read_bytes() == PINNED_HISTOGRAM.read_bytes()

    def test_entries_pinned_over_seeds(self):
        digest = hashlib.sha256()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            benign = make_benign_histogram(rng)
            attack = make_attack_histogram(rng)
            digest.update(json.dumps([benign.entries, attack.entries]).encode())
        assert digest.hexdigest() == PINNED_ENTRIES_SHA256.read_text().strip()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=1, max_size=4),
           st.integers(1, 9))
    def test_batched_draws_equal_one_window_draws(self, seed, benign, windows):
        # The fleet draws a worker's windows in blocks; the stream may not
        # depend on how they are batched.  Every worker here draws from one
        # generator, so the stream runs on from worker to worker.
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        (block,) = _ks_count_blocks(benign, itertools.repeat(batched), windows)
        one_by_one = [one_row for is_benign in benign for _ in range(windows)
                      for one_row in _ks_count_blocks([is_benign], iter([single]), 1)]
        assert block.dtype == np.int64
        assert block.tolist() == np.concatenate(one_by_one).tolist()
        assert batched.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("block", [1, 7, 128, 131])
    def test_draws_do_not_depend_on_the_block_size(self, monkeypatch, block):
        # 2 attack and 3 benign workers of 130 windows: blocks of 1 row, of
        # 7 (which split every worker), the default 128, and 131, where the
        # first worker ends one row short of a full block.
        monkeypatch.setattr(ks, "SCREEN_BLOCK", block)
        benign = [False, True, False, True, True]
        rngs = [np.random.default_rng(seed) for seed in range(5)]
        blocks = list(_ks_count_blocks(benign, iter(rngs), 130))
        full, last = divmod(5 * 130, block)
        assert [len(b) for b in blocks] == [block] * full + [last] * (last > 0)
        rows = np.concatenate(blocks)
        states = [rng.bit_generator.state for rng in rngs]
        reference = [np.random.default_rng(seed) for seed in range(5)]
        expected = [_benign_count_rows(rng.random((130, BENIGN_MAX_BRANCHES + 1))) if is_benign
                    else _attack_count_rows(rng, 130) for is_benign, rng in zip(benign, reference)]
        assert rows.shape == (5 * 130, BENIGN_MAX_BRANCHES)
        for i, (got, want) in enumerate(zip(np.split(rows, 5), expected)):
            assert got[:, :want.shape[1]].tolist() == want.tolist(), i
            assert not got[:, want.shape[1]:].any(), i
        assert states == [rng.bit_generator.state for rng in reference]

    def test_counts_pinned_over_seeds(self):
        digest = hashlib.sha256()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            (block,) = _ks_count_blocks([True, False], itertools.repeat(rng), 3)
            windows = [row[row > 0].tolist() for row in block]
            digest.update(json.dumps([windows[:3], windows[3:]]).encode())
        assert digest.hexdigest() == PINNED_COUNTS_SHA256.read_text().strip()

    def test_counts_follow_the_histograms_law(self):
        rng = np.random.default_rng(7)
        benign = _benign_count_rows(rng.random((20_000, BENIGN_MAX_BRANCHES + 1)))
        sizes = np.count_nonzero(benign, axis=1)
        assert ((benign > 0) == (np.arange(BENIGN_MAX_BRANCHES) < sizes[:, None])).all()
        assert (sizes.min(), sizes.max()) == (BENIGN_MIN_BRANCHES, BENIGN_MAX_BRANCHES)
        span = BENIGN_MAX_BRANCHES - BENIGN_MIN_BRANCHES + 1
        expected = sizes.size / span
        per_size = np.bincount(sizes - BENIGN_MIN_BRANCHES, minlength=span)
        # chi-square of 260 degrees of freedom: mean 260, sd 22.8
        assert ((per_size - expected) ** 2 / expected).sum() < 380
        logs = np.log(benign[benign > 0])
        low, high = np.log(BENIGN_COUNT_RANGE)
        assert logs.min() >= low - 1e-3 and logs.max() <= high + 1e-3
        assert logs.mean() == pytest.approx((low + high) / 2, abs=0.01)
        assert logs.std() == pytest.approx((high - low) / 12**0.5, rel=0.01)
        attack = _attack_count_rows(rng, 2_000)
        assert (attack[:, 0] > attack[:, 1]).all() and (attack >= 1).all()
        assert np.median(attack[:, 0]) == pytest.approx(1_200_000, rel=0.01)
        assert np.median(attack[:, 1] / attack[:, 0]) == pytest.approx(0.2, rel=0.02)


def fleet_rngs(seed: int, workers: int):
    """The counter generators run_fleet gives its workers, spec order."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, 0)))
            for i in range(workers)]


_DEFAULT = BenignProfile.default()
ORACLE_PROFILES = {
    "default": _DEFAULT,
    # Rejects about 7% of branch metrics: at 48 records most workers redraw,
    # and some redraw a redrawn record.
    "low-cutoff": dataclasses.replace(_DEFAULT, upper_cutoff=1500.0),
    # One component, cut 2.5 sigma above its median: a rejected record is
    # mostly its worker's largest normal, just past the screen's bound.
    "screen-edge": dataclasses.replace(
        _DEFAULT, tail_mu=_DEFAULT.body_mu, tail_sigma=_DEFAULT.body_sigma,
        upper_cutoff=math.exp(_DEFAULT.body_mu + 2.5 * _DEFAULT.body_sigma)),
}
# (seed, profile, n_attack, n_benign, records per worker, records per
# window); the attackers run full-strength PHT.
FLEET_COUNTS_CASES = {
    "fleet-threshold-seed1": (1, "default", 4, 400, 48, 4),
    "fleet-threshold-seed2101": (2101, "default", 4, 400, 48, 4),
    "long-horizon-seed5": (5, "default", 1, 200, 600, 1),
    "cutoff1500-seed3": (3, "low-cutoff", 2, 60, 48, 2),
}
ORACLE_SEED = 17
ORACLE_GRID = [
    (n_attack, n_benign, n, profile)
    for n_attack in (0, 1, 4) for n_benign in (1, 3, 400) for n in (1, 48, 600)
    for profile in sorted(ORACLE_PROFILES)
]


def first_pass_top_normal(rng: np.random.Generator, n: int) -> float:
    """The largest metric normal of a benign worker's first pass."""
    rng.random(n)
    return rng.standard_normal(n).max()


class TestFleetCounts:
    """The fleet's benign draws are the per-worker law's, bit for bit."""

    @pytest.mark.parametrize("case", sorted(FLEET_COUNTS_CASES))
    def test_counts_pinned(self, case):
        seed, profile, n_attack, n_benign, n, per_window = FLEET_COUNTS_CASES[case]
        counts = _fleet_counts(iter(fleet_rngs(seed, n_attack + n_benign)),
                               ORACLE_PROFILES[profile], n_attack, n_benign, n, per_window,
                               ("pht", None, 0))
        pinned = dict(line.split()[::-1] for line in
                      PINNED_FLEET_COUNTS_SHA256.read_text().splitlines())
        assert hashlib.sha256(counts.tobytes()).hexdigest() == pinned[case]

    @pytest.mark.parametrize(("n_attack", "n_benign", "n", "profile"), ORACLE_GRID)
    def test_counts_equal_per_worker_oracle(self, n_attack, n_benign, n, profile):
        ours, theirs = (fleet_rngs(ORACLE_SEED, n_attack + n_benign) for _ in range(2))
        shape = (ORACLE_PROFILES[profile], n_attack, n_benign, n, 3, ("btb", 40, 2))
        counts = _fleet_counts(iter(ours), *shape)
        expected, _passes = reference_fleet_counts(iter(theirs), *shape)
        assert counts.dtype == expected.dtype == np.int64
        assert np.array_equal(counts, expected)
        # every generator made the same calls
        assert [r.bit_generator.state for r in ours] == [r.bit_generator.state for r in theirs]

    @pytest.mark.parametrize("n", [1, 48, 600])
    @pytest.mark.parametrize("seed", [0, 17, 2101])
    def test_two_row_fill_equals_two_calls(self, seed, n):
        # A benign worker fills its iTLB and branch-miss rows with one call.
        merged, single = np.random.default_rng(seed), np.random.default_rng(seed)
        block = np.empty((9, n))
        merged.random(out=block[2:4])
        assert block[2].tolist() == single.random(n).tolist()
        assert block[3].tolist() == single.random(n).tolist()
        assert merged.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("field", ["body_sigma", "tail_sigma"])
    @pytest.mark.parametrize("value", [0.0, -0.5, math.nan])
    def test_sigma_not_above_zero_rejected(self, field, value):
        # The screen needs each metric to grow with its normal; numpy's
        # normal rejected a negative scale when the fleet drew through it.
        profile = dataclasses.replace(BenignProfile.default(), **{field: value})
        with pytest.raises(ValueError, match="sigmas must be > 0"):
            generate_benign(profile, 5, seed=0)

    def test_oracle_grid_takes_every_branch(self):
        def run(profile, n):
            profile = ORACLE_PROFILES[profile]
            reach = min((math.log(profile.upper_cutoff) - mu) / sigma for mu, sigma in
                        ((profile.body_mu, profile.body_sigma),
                         (profile.tail_mu, profile.tail_sigma)))
            # per worker: how far its largest first-pass normal is past the
            # least one that can reach the cutoff, and its metric's passes
            past = [first_pass_top_normal(rng, n) - reach for rng in fleet_rngs(ORACLE_SEED, 400)]
            _counts, passes = reference_fleet_counts(iter(fleet_rngs(ORACLE_SEED, 400)),
                                                     profile, 0, 400, n, 3, None)
            return list(zip(past, passes))

        # Most low-cutoff workers redraw, and some more than once.
        workers = run("low-cutoff", 48)
        assert sum(p > 1 for _past, p in workers) > 300 and max(p for _past, p in workers) > 2
        # Some default workers trip the screen yet reject no draw.
        assert any(past >= 0 and p == 1 for past, p in run("default", 600))
        # At the screen's edge some workers reject a normal within 0.1 of it.
        assert sum(0 <= past < 0.1 and p > 1 for past, p in run("screen-edge", 48)) > 5


def test_numpy_uniform_and_normal_are_affine_maps_of_raw_draws():
    """uniform(low, high) is low + (high - low) * random() and normal(loc,
    scale) is loc + scale * standard_normal(), bit for bit, with scalar or
    array parameters: the fleet draws the raw values and maps them itself.
    A numpy that fused the multiply-add would fail here."""
    profile = BenignProfile.default()
    n = 2_000
    for seed in range(20):
        params = np.random.default_rng([seed, 1])
        pick = params.random(n) < 0.3
        mu = np.where(pick, profile.tail_mu, profile.body_mu)
        sigma = np.where(pick, profile.tail_sigma, profile.body_sigma)
        lows, widths = params.normal(0.0, 10.0, n), params.exponential(5.0, n)
        uniforms = [tuple(map(math.log, BENIGN_ITLB_RANGE)), (0.005, 0.04), (0.05, 0.30),
                    (0.01, 0.10), (lows, lows + widths)]
        normals = [(-0.5 * 0.5 * 0.5, 0.5), (-0.5 * BENIGN_MD_SIGMA * BENIGN_MD_SIGMA,
                                             BENIGN_MD_SIGMA), (mu, sigma), (lows, widths)]
        numpy_rng, raw_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for low, high in uniforms:
            expected = low + (high - low) * raw_rng.random(n)
            assert np.array_equal(numpy_rng.uniform(low, high, n).view(np.int64),
                                  expected.view(np.int64))
        for loc, scale in normals:
            expected = loc + scale * raw_rng.standard_normal(n)
            assert np.array_equal(numpy_rng.normal(loc, scale, n).view(np.int64),
                                  expected.view(np.int64))
        assert numpy_rng.bit_generator.state == raw_rng.bit_generator.state
