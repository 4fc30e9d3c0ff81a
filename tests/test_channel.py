"""Covert-channel model tests: per-bit timing, box test, budgeting, leakage."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectreguard import channel
from spectreguard.channel import (
    ChannelCalibration,
    ChannelError,
    ChannelParams,
    DegenerateSamples,
    MAX_REQUESTS,
    UNIT_AMPLIFICATION_REQUESTS,
    Unreachable,
    box_test,
    calibrate_decision,
    js_worker_params,
    leakage_rate,
    leakage_table,
    majority_success,
    required_requests,
    simulate_bit_batch,
    success_rate_curve,
)


def simulate_bit(bit: int, amplification: int, params: ChannelParams, rng_seed) -> float:
    """One measurement of one bit; deterministic given the seed."""
    rng = np.random.default_rng(rng_seed)
    return float(simulate_bit_batch(bit, amplification, params, 1, rng)[0])


def sample_bit_set(amplification: int, params: ChannelParams, n_per_class: int, seed: int):
    """(zeros, ones): n_per_class readings of each bit, each class from one
    child of SeedSequence(seed).spawn(2).  Zeros run slower (one extra miss
    per iteration)."""
    return tuple(
        simulate_bit_batch(bit, amplification, params, n_per_class, np.random.default_rng(child))
        for bit, child in enumerate(np.random.SeedSequence(seed).spawn(2))
    )


def native_xeon_params() -> ChannelParams:
    """Native-code calibration on the evaluation server.

    The gap matches the measured 3434697-cycle mean distance at amplification
    100000 (34.34697 cycles per iteration); the overhead is sized so a bit
    takes ~2.5 s end to end at that factor, while the probe accesses alone
    sustain ~23 bit/s.
    """
    return ChannelParams(
        hit_cycles=880.0,
        miss_cycles=914.34697,
        per_iteration_overhead=51_314.0,
        network_noise_sd=1_500.0,
    )


def per_bit_seconds(amplification: int, params: ChannelParams) -> float:
    """Mean end-to-end wall time of one measurement, averaged over bit values."""
    cycles = (
        params.mean_reading(0, amplification) + params.mean_reading(1, amplification)
    ) / 2.0
    return cycles / (params.cpu_ghz * 1e9)


def access_bits_per_second(amplification: int, params: ChannelParams) -> float:
    """Channel rate counting only the probe accesses.

    Excludes per-iteration bookkeeping and eviction; this is the intrinsic
    rate the transient+probe phase sustains.
    """
    access = (params.hit_cycles + params.miss_cycles) / 2.0
    return params.cpu_ghz * 1e9 / (amplification * access)


def noise_free(**overrides) -> ChannelParams:
    base = dict(
        hit_cycles=50.0,
        miss_cycles=137.117228,
        per_iteration_overhead=1000.0,
        network_noise_sd=0.0,
        timer_jitter_rel=0.0,
        timer_resolution_ns=0.0,
    )
    base.update(overrides)
    return ChannelParams(**base)


class TestSimulateBit:
    def test_noise_free_delta_is_linear(self):
        params = noise_free()
        for amplification in (1, 10, 250_000):
            zero = simulate_bit(0, amplification, params, rng_seed=1)
            one = simulate_bit(1, amplification, params, rng_seed=1)
            expected = amplification * (params.miss_cycles - params.hit_cycles)
            assert zero - one == pytest.approx(expected, rel=1e-12)

    def test_js_calibration_mean_delta(self):
        # measured mean timing difference at amplification 250000
        params = js_worker_params()
        delta = 250_000 * (params.miss_cycles - params.hit_cycles)
        assert delta == pytest.approx(21_779_307, rel=0.10)
        zeros, ones = sample_bit_set(250_000, params, 4_000, seed=5)
        observed = zeros.mean() - ones.mean()
        assert observed == pytest.approx(21_779_307, rel=0.10)

    def test_native_calibration_wall_time_and_probe_rate(self):
        params = native_xeon_params()
        assert per_bit_seconds(100_000, params) == pytest.approx(2.5, rel=0.05)
        assert access_bits_per_second(100_000, params) == pytest.approx(23.0, rel=0.10)
        delta = 100_000 * (params.miss_cycles - params.hit_cycles)
        assert delta == pytest.approx(3_434_697, rel=1e-9)

    def test_deterministic_given_seed(self):
        params = js_worker_params()
        a = simulate_bit(0, 100, params, rng_seed=123)
        b = simulate_bit(0, 100, params, rng_seed=123)
        assert a == b

    def test_quantization_rounds_toward_zero(self):
        params = noise_free(timer_resolution_ns=10.0, cpu_ghz=2.0)  # 20-cycle ticks
        reading = simulate_bit(1, 1, params, rng_seed=0)
        assert reading % 20.0 == 0.0

    def test_slow_class_is_the_zero_bit(self):
        zeros, ones = sample_bit_set(1000, js_worker_params(), 2_000, seed=9)
        assert zeros.mean() > ones.mean()

    @pytest.mark.parametrize("bit,amplification,message", [
        (0, 0, "amplification must be >= 1"),
        (1, -5, "amplification must be >= 1"),
        (2, 10, "bit must be 0 or 1"),
        (-1, 10, "bit must be 0 or 1"),
    ])
    def test_bad_bit_or_amplification_rejected(self, bit, amplification, message):
        with pytest.raises(ValueError, match=message):
            simulate_bit_batch(bit, amplification, js_worker_params(), 1, np.random.default_rng(0))

    @pytest.mark.parametrize("changes,message", [
        (dict(miss_cycles=50.0), "need miss_cycles > hit_cycles > 0"),
        (dict(hit_cycles=0.0), "need miss_cycles > hit_cycles > 0"),
        (dict(cpu_ghz=0.0), "cpu_ghz must be > 0, got 0.0"),
        *((dict([(f.name, bad)]), f"{f.name} must be finite and >= 0, got {bad!r}")
          for f in dataclasses.fields(ChannelParams)
          for bad in (-1.0, math.nan, math.inf, -math.inf)),
    ])
    def test_bad_channel_params_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(js_worker_params(), **changes)

    def test_zero_noise_overhead_and_timer_stay_allowed(self):
        dataclasses.replace(js_worker_params(), per_iteration_overhead=0.0, network_noise_sd=0.0,
                            timer_jitter_rel=0.0, timer_resolution_ns=0.0)


class TestBoxTest:
    def test_disjoint_point_masses(self):
        result = box_test([200.0] * 8, [100.0] * 8)
        assert result.distinguishable
        assert result.threshold == 150.0

    def test_identical_distributions_not_distinguishable(self):
        values = np.arange(100.0)
        result = box_test(values, values)
        assert not result.distinguishable

    def test_degenerate_samples(self):
        with pytest.raises(DegenerateSamples):
            box_test([5.0] * 10, [5.0] * 10)

    @pytest.mark.parametrize("zeros,ones", [([], [1.0, 2.0]), ([1.0, 2.0], []), ([], [])])
    def test_empty_sample_set_rejected(self, zeros, ones):
        with pytest.raises(ValueError, match="both sample sets must be non-empty"):
            box_test(zeros, ones)

    def test_calibrated_channel_decision_quality(self):
        # amplification 1000 with 250 request pairs recovers bits >= 99% of
        # the time
        grid = success_rate_curve([1000], [250], js_worker_params())
        assert grid[0, 0] >= 0.99


def coarse_timer() -> ChannelParams:
    # 100-cycle ticks against 40 cycles of noise: the tick rule dominates
    return noise_free(network_noise_sd=40.0, timer_resolution_ns=50.0, cpu_ghz=2.0)


def brute_force_vote(n: int, accuracy: float) -> float:
    total = 0.0
    for k in range(n + 1):
        mass = math.comb(n, k) * accuracy**k * (1.0 - accuracy) ** (n - k)
        total += mass if 2 * k > n else mass / 2 if 2 * k == n else 0.0
    return total


# Bound on the log-space rounding of majority_success: lgamma(n + 1) is ~1e7
# at n = 1e6, so each log-pmf carries ~1e-9 of absolute error.
VOTE_ROUNDING = 1e-8


class TestClosedForm:
    @pytest.mark.parametrize("params,amplification", [
        (js_worker_params(), 1),
        (js_worker_params(), 1000),
        (dataclasses.replace(js_worker_params(), timer_resolution_ns=0.0), 100),
        (coarse_timer(), 1),
    ])
    def test_accuracies_match_simulation(self, params, amplification):
        cal = calibrate_decision(amplification, params)
        draws = 1_000_000
        rng = np.random.default_rng(amplification)
        zeros = simulate_bit_batch(0, amplification, params, draws, rng)
        ones = simulate_bit_batch(1, amplification, params, draws, rng)
        for exact, observed in (
            (cal.accuracy_zero, float((zeros > cal.threshold).mean())),
            (cal.accuracy_one, float((ones <= cal.threshold).mean())),
        ):
            se = math.sqrt(exact * (1.0 - exact) / draws)
            assert abs(observed - exact) <= 4.0 * se, (exact, observed)

    @pytest.mark.parametrize("params,amplification", [
        (js_worker_params(), 1),
        (js_worker_params(), 1000),
        # jitter-only noise: the zeros' sd is 2.7x the ones', so the
        # threshold depends on which percentiles bound the boxes
        (noise_free(per_iteration_overhead=0.0, timer_jitter_rel=0.5), 1000),
    ])
    def test_box_test_converges_to_closed_form_threshold(self, params, amplification):
        per_class = 200_000
        observed = box_test(*sample_bit_set(amplification, params, per_class, seed=4)).threshold
        # a 10th/90th sample percentile has SE 1.709 sd / sqrt(n); the
        # threshold averages one from each class
        sd = max(params.reading_noise_sd(bit, amplification) for bit in (0, 1))
        se = 1.709 * sd / math.sqrt(2 * per_class)
        expected = calibrate_decision(amplification, params).threshold
        assert abs(observed - expected) <= 4.0 * se + params.resolution_cycles

    @pytest.mark.parametrize("accuracy", [1e-4, 0.01, 0.3, 0.5, 0.5025, 0.7, 0.99, 0.9999, 1.0 - 1e-9])
    def test_vote_matches_brute_force(self, accuracy):
        for n in range(1, 61):
            assert majority_success(n, accuracy) == pytest.approx(
                brute_force_vote(n, accuracy), abs=1e-12
            ), n

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=5_000),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=300_000),
        st.integers(min_value=0, max_value=300_000),
    )
    def test_success_nondecreasing_in_requests_and_amplification(self, a, da, n, dn):
        params = js_worker_params()
        low, high = calibrate_decision(a, params), calibrate_decision(a + da, params)
        assert low.success(n + dn) >= low.success(n) - VOTE_ROUNDING
        assert high.success(n) >= low.success(n) - VOTE_ROUNDING

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=1_000_000),
        st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
    )
    def test_vote_nondecreasing_in_requests(self, n, accuracy):
        # the premise of required_requests' search; a tie-as-failure rule
        # breaks it at every even n
        assert majority_success(n + 1, accuracy) >= majority_success(n, accuracy) - VOTE_ROUNDING

    def test_noise_free_is_certain(self):
        cal = calibrate_decision(10, noise_free())
        assert (cal.accuracy_zero, cal.accuracy_one) == (1.0, 1.0)
        assert cal.success(1) == 1.0

    def test_zero_noise_on_a_timer_tick_matches_simulation(self):
        params = noise_free(timer_resolution_ns=10.0, cpu_ghz=2.0)  # 20-cycle ticks
        cal = calibrate_decision(1, params)
        zero = simulate_bit(0, 1, params, rng_seed=0)
        one = simulate_bit(1, 1, params, rng_seed=0)
        assert cal.accuracy_zero == float(zero > cal.threshold)
        assert cal.accuracy_one == float(one <= cal.threshold)

    def test_single_tick_readings_are_degenerate(self):
        # every reading truncates to 0 on a ~2e9-cycle tick
        with pytest.raises(DegenerateSamples):
            calibrate_decision(1, noise_free(timer_resolution_ns=1e9))

    def test_seed_is_ignored(self):
        params = js_worker_params()
        assert required_requests(100, params, rng_seed=0) == required_requests(
            100, params, rng_seed=12345
        )

    def test_counts_below_one_rejected(self):
        params = js_worker_params()
        with pytest.raises(ValueError):
            required_requests(0, params)
        with pytest.raises(ValueError):
            success_rate_curve([0], [10], params)
        with pytest.raises(ValueError):
            success_rate_curve([10], [0], params)
        with pytest.raises(ValueError):
            majority_success(0, 0.7)


def reference_required_requests(
    amplification: int,
    params: ChannelParams,
    target_success: float = 0.99,
    n_max: int = 1_000_000,
) -> int:
    """Reference budget search: check n_max, double from n = 1 until the
    target is reached, then bisect the last doubling.  It spends 7-39
    exact evaluations where required_requests spends about five."""
    if not 0.0 < target_success < 1.0:
        raise ValueError("target_success must be in (0, 1)")
    cal = calibrate_decision(amplification, params)
    if cal.success(n_max) < target_success:
        raise Unreachable(f"success at n_max={n_max} below target {target_success}")
    hi = 1
    while hi < n_max and cal.success(hi) < target_success:
        hi = min(n_max, hi * 2)
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if cal.success(mid) >= target_success:
            hi = mid
        else:
            lo = mid + 1
    return hi


def outcome(search, *args, **kwargs):
    """The search's result, or the type of the exception it raised."""
    try:
        return search(*args, **kwargs)
    except (ValueError, ChannelError) as exc:
        return type(exc)


def log_uniform(low: float, high: float):
    return st.floats(min_value=math.log10(low), max_value=math.log10(high)).map(lambda e: 10.0**e)


def maybe_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


@st.composite
def budget_cases(draw) -> tuple[ChannelParams, int]:
    """(params, amplification) with the network noise and the timer tick
    scaled to the class gap, so budgets span 1 request to beyond n_max.
    Jitter up to 4 per iteration puts one accuracy below 1/2."""
    hit = draw(log_uniform(1.0, 1e3))
    gap = draw(log_uniform(1e-2, 1e3))
    amplification = draw(st.integers(min_value=1, max_value=100_000))
    cpu_ghz = draw(st.floats(min_value=0.5, max_value=4.0))
    params = ChannelParams(
        hit_cycles=hit,
        miss_cycles=hit + gap,
        per_iteration_overhead=draw(maybe_zero(log_uniform(1.0, 1e6))),
        timer_resolution_ns=amplification * gap / cpu_ghz * draw(maybe_zero(log_uniform(1e-3, 10.0))),
        timer_jitter_rel=draw(maybe_zero(log_uniform(1e-3, 4.0))),
        network_noise_sd=amplification * gap * draw(log_uniform(1e-1, 1e3)),
        cpu_ghz=cpu_ghz,
    )
    return params, amplification


# (amplification, budgets at targets 0.9, 0.99, 0.999) for js_worker_params
PINNED_BUDGETS = [
    (1, (68_299, 225_405, 398_411)),
    (10, (6_337, 20_881, 36_849)),
    (100, (629, 2_073, 3_657)),
    (1_000, (63, 207, 365)),
    (10_000, (7, 21, 37)),
]
PINNED_POINTS = [
    (amplification, target, budget)
    for amplification, budgets in PINNED_BUDGETS
    for target, budget in zip((0.9, 0.99, 0.999), budgets)
]


def reference_majority_success(n: int, accuracy: float) -> float:
    """The whole-window vote, majority_success's reference: it builds all
    +-(40 sd + 40) votes around the mode and masks out the failures and the
    tie, where majority_success builds only the failure side."""
    if n < 1:
        raise ValueError("request count must be >= 1")
    if accuracy in (0.0, 1.0):
        return accuracy
    reach = math.ceil(40.0 * math.sqrt(n * accuracy * (1.0 - accuracy))) + 40
    mode = int((n + 1) * accuracy)
    lo, hi = max(0, mode - reach), min(n, mode + reach)
    k = np.arange(lo, hi + 1)
    log_pmf = np.empty(k.size)
    log_pmf[0] = (
        math.lgamma(n + 1) - math.lgamma(lo + 1) - math.lgamma(n - lo + 1)
        + lo * math.log(accuracy) + (n - lo) * math.log1p(-accuracy)
    )
    logit = math.log(accuracy) - math.log1p(-accuracy)
    steps = np.log((n - k[:-1]) / (k[:-1] + 1)) + logit
    log_pmf[1:] = log_pmf[0] + np.cumsum(steps)
    pmf = np.exp(log_pmf)
    return 1.0 - float(pmf[2 * k < n].sum() + 0.5 * pmf[2 * k == n].sum())


# One-shot accuracies of js_worker_params at the pinned amplifications.
PINNED_ACCURACIES = [
    p
    for cal in (calibrate_decision(a, js_worker_params()) for a, _ in PINNED_BUDGETS)
    for p in (cal.accuracy_zero, cal.accuracy_one)
]


class TestFailureSideWindow:
    """majority_success sums only the failure side of the window; it must
    equal the whole-window reference bit for bit, not approximately."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=1_000_000),
            st.integers(min_value=1, max_value=500_000).map(lambda m: 2 * m),  # ties
            st.integers(min_value=1, max_value=200),
        ),
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.48, max_value=0.52),
            st.sampled_from([0.0, 0.5, 1.0, *PINNED_ACCURACIES]),
        ),
    )
    def test_matches_whole_window(self, n, accuracy):
        assert majority_success(n, accuracy) == reference_majority_success(n, accuracy)

    @pytest.mark.parametrize("amplification,budgets", PINNED_BUDGETS)
    def test_matches_whole_window_at_pinned_budgets(self, amplification, budgets):
        cal = calibrate_decision(amplification, js_worker_params())
        for budget in budgets:
            for n in (budget - 1, budget, budget + 1, 2 * budget, 2 * budget + 1):
                for p in (cal.accuracy_zero, cal.accuracy_one, 1.0 - cal.accuracy_one):
                    assert majority_success(n, p) == reference_majority_success(n, p), (n, p)

    @pytest.mark.parametrize("n", [MAX_REQUESTS + 1, 10**14])
    def test_request_count_above_cap_rejected(self, n):
        # at p <= 1/2 the window stays below n / 2: 10**14 would allocate ~15 GiB
        with pytest.raises(ValueError, match="request count"):
            majority_success(n, 0.4)

    @pytest.mark.parametrize("accuracy", [-0.1, 1.5, math.nan])
    def test_accuracy_outside_unit_interval_rejected(self, accuracy):
        with pytest.raises(ValueError, match=r"accuracy must be in \[0, 1\]"):
            majority_success(5, accuracy)

    def test_request_count_at_cap_accepted(self):
        # the window's low end lies about 118 sd above n / 2: no failure side
        assert majority_success(MAX_REQUESTS, 0.5025) == 1.0


class TestRequiredRequests:
    @pytest.mark.parametrize("amplification,target,budget", PINNED_POINTS)
    def test_pinned_budgets(self, amplification, target, budget):
        params = js_worker_params()
        assert required_requests(amplification, params, target_success=target) == budget
        assert reference_required_requests(amplification, params, target_success=target) == budget

    @pytest.mark.parametrize("amplification,target,budget", PINNED_POINTS)
    def test_at_most_eight_exact_evaluations(self, monkeypatch, amplification, target, budget):
        calls = []
        success = ChannelCalibration.success

        def counted(cal, n):
            calls.append(n)
            return success(cal, n)

        monkeypatch.setattr(ChannelCalibration, "success", counted)
        assert required_requests(amplification, js_worker_params(), target_success=target) == budget
        assert len(calls) <= 8, calls

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        budget_cases(),
        st.one_of(
            st.floats(min_value=0.01, max_value=0.999),
            log_uniform(1e-7, 1e-2).map(lambda miss: 1.0 - miss),
        ),
        st.one_of(st.integers(min_value=1, max_value=1_000_000), st.just(1_000_000)),
    )
    def test_matches_the_doubling_search(self, case, target, n_max):
        params, amplification = case
        assert outcome(
            required_requests, amplification, params, target_success=target, n_max=n_max
        ) == outcome(
            reference_required_requests, amplification, params, target_success=target, n_max=n_max
        )

    @pytest.mark.parametrize("offset", [8, 100, 10_000, 1, -1, -9, -1_000])
    @pytest.mark.parametrize("amplification,target,budget", PINNED_POINTS[1::3])
    def test_gallops_from_any_start(self, monkeypatch, amplification, target, budget, offset):
        # the normal estimate lands a few requests below the answer; a start
        # above it takes the downward gallop, one far below the upward one
        start = max(1, budget + offset)
        monkeypatch.setattr(channel, "_normal_estimate", lambda cal, target, n_max: start)
        params = js_worker_params()
        assert required_requests(amplification, params, target_success=target) == (
            reference_required_requests(amplification, params, target_success=target))

    def test_coin_vote_checks_the_cap_first(self):
        # at amplification 1 the zeros' accuracy is 0.443: the success rises
        # from 0.570 (n = 1) to 0.63 (n = 9), then falls back toward 1/2
        params = noise_free(per_iteration_overhead=100.0, timer_jitter_rel=2.0)
        cal = calibrate_decision(1, params)
        assert cal.accuracy_zero < 0.5 < cal.accuracy_one
        # the target is met at n = 9 but not at n_max, where the vote has
        # drifted back toward a coin
        assert cal.success(9) >= 0.6 > cal.success(1_000)
        with pytest.raises(Unreachable):
            required_requests(1, params, target_success=0.6, n_max=1_000)
        n = required_requests(1, params, target_success=0.6, n_max=31)
        assert n == reference_required_requests(1, params, target_success=0.6, n_max=31)
        assert cal.success(n) >= 0.6 > cal.success(n - 1)

    def test_noise_free_channel_needs_one_request(self):
        n = required_requests(10, noise_free(), target_success=0.99, rng_seed=0)
        assert n == 1

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_target_outside_unit_interval_rejected(self, target):
        with pytest.raises(ValueError, match=r"target_success must be in \(0, 1\)"):
            required_requests(100, js_worker_params(), target_success=target)

    def test_unreachable_with_cap(self):
        params = js_worker_params()
        with pytest.raises(Unreachable):
            required_requests(1, params, target_success=0.999999, rng_seed=0,
                              n_max=10)

    def test_doubling_amplification_never_needs_more_requests(self):
        params = js_worker_params()
        kwargs = dict(target_success=0.99, rng_seed=3)
        n_a = required_requests(200, params, **kwargs)
        n_2a = required_requests(400, params, **kwargs)
        n_4a = required_requests(800, params, **kwargs)
        assert n_2a <= n_a
        assert n_4a <= n_2a

    def test_deterministic_per_seed(self):
        params = js_worker_params()
        kwargs = dict(target_success=0.95, rng_seed=11)
        assert required_requests(500, params, **kwargs) == required_requests(
            500, params, **kwargs
        )

    def test_conservation_extends_to_high_amplification(self):
        # the 10/100/1000 band is covered by the acceptance suite; the
        # anchor keeps holding an order of magnitude further out
        params = js_worker_params()
        n = required_requests(10_000, params, target_success=0.99, rng_seed=7)
        assert 0.7 * 250_000 <= n * 10_000 <= 1.3 * 250_000


class TestLeakage:
    def test_reference_rows_reproduced_within_one_bit(self):
        for estimate, (_, _, _, reported) in zip(
            leakage_table(), (
                (1, 250_000, 0.118, 0),
                (10, 25_000, 0.123, 1),
                (100, 2_500, 0.137, 10),
                (1_000, 250, 0.231, 62),
                (10_000, 25, 1.813, 79),
                (250_000, 1, 30.0, 120),
            )
        ):
            assert abs(estimate.bits_per_hour - reported) <= 1.0

    def test_leakage_formula(self):
        est = leakage_rate(250_000, 1, runtime_s=30.0)
        assert est.bits_per_hour == 120.0
        est = leakage_rate(10, 25_000, runtime_s=0.123)
        assert est.bits_per_hour == pytest.approx(3600 / (25_000 * 0.123))

    def test_low_amplification_route_leaks_about_one_bit_per_hour(self):
        est = leakage_rate(10, 25_000, runtime_s=0.123)
        assert int(est.bits_per_hour) == 1

    def test_affine_runtime_fit_fits_reference(self):
        fit = channel._runtime_fit()
        assert channel._runtime_fit() is fit  # solved once
        slope, intercept = fit
        assert intercept + slope * 250_000 == pytest.approx(30.0, rel=0.05)
        # the 10000 row is the known ~30% outlier of the affine fit
        assert intercept + slope * 10_000 == pytest.approx(1.813, rel=0.35)

    def test_unmeasured_runtime_comes_from_the_fit(self):
        slope, intercept = channel._runtime_fit()
        est = leakage_rate(11, 22_727)
        assert est.script_runtime_s == intercept + slope * 11
        assert est.bits_per_hour == 3600.0 / (22_727 * est.script_runtime_s)

    def test_unit_amplification_anchor(self):
        assert UNIT_AMPLIFICATION_REQUESTS == 250_000

    @pytest.mark.parametrize("amplification,requests,runtime,message", [
        (0, 100, None, "amplification and requests_per_bit must be >= 1"),
        (10, 0, None, "amplification and requests_per_bit must be >= 1"),
        (10, 100, 0.0, "runtime_s must be finite and > 0, got 0.0"),
        (10, 100, -1.0, "runtime_s must be finite and > 0, got -1.0"),
        (10, 100, math.nan, "runtime_s must be finite and > 0, got nan"),
        (10, 100, math.inf, "runtime_s must be finite and > 0, got inf"),
        (10, 100, -math.inf, "runtime_s must be finite and > 0, got -inf"),
    ])
    def test_bad_inputs_rejected(self, amplification, requests, runtime, message):
        with pytest.raises(ValueError, match=message):
            leakage_rate(amplification, requests, runtime)


class TestSuccessCurve:
    def test_single_cell_noise_free(self):
        grid = success_rate_curve([10], [1], noise_free())
        assert grid[0, 0] == 1.0

    def test_high_amplification_single_request(self):
        grid = success_rate_curve([250_000], [1], js_worker_params())
        assert grid[0, 0] >= 0.99

    def test_small_amplification_enough_requests(self):
        grid = success_rate_curve([10], [25_000], js_worker_params())
        assert grid[0, 0] > 0.95

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            success_rate_curve([], [1], js_worker_params())
