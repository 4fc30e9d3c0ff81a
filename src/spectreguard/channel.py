"""Quantitative model of the amplified remote-timing covert channel.

One measurement times a script that runs the leak gadget ``amplification``
times: a '0' bit costs one extra cache miss per iteration, so the expected
reading gap between the bit classes grows linearly with the amplification
factor.  The remote timer contributes an absolute network noise floor, and
each iteration's execution time jitters independently by a relative fraction
of its cost, so measurement noise grows with the square root of the
amplification factor.  That scaling is what makes requests-per-bit times
amplification roughly conserved, matching the measured request table.

Readings are Gaussian truncated to the timer tick, so calibration and request
budgeting are exact closed forms: the box-test threshold from population
quantiles, one-shot accuracies from the normal CDF, and the majority vote as
a binomial tail.  They draw no random numbers; ``required_requests`` still
accepts ``rng_seed`` for compatibility and ignores it.  It starts from the
normal approximation of the vote and settles the exact budget in about five
binomial evaluations.  The sampler ``simulate_bit_batch`` and ``box_test``
take explicit draws and stay as the reference the closed forms are tested
against.

Without a measured script runtime, ``leakage_rate`` takes the affine
least-squares fit of runtime to ``REFERENCE_ATTACK_ROWS``, solved once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

# Measured reference rows for the in-sandbox attack:
# (amplification, requests per bit, script runtime in seconds, leaked bits/hour).
# The leakage column is consistent with 3600 / (requests * runtime), floored.
REFERENCE_ATTACK_ROWS: tuple[tuple[int, int, float, int], ...] = (
    (1, 250_000, 0.118, 0),
    (10, 25_000, 0.123, 1),
    (100, 2_500, 0.137, 10),
    (1_000, 250, 0.231, 62),
    (10_000, 25, 1.813, 79),
    (250_000, 1, 30.000, 120),
)

# Cache lines walked to reset the cache state once per measurement: a 2 MB
# eviction array in 64 B lines.
EVICTION_ACCESSES = 32_768

# Requests needed with no amplification at all; anchors the
# requests-times-amplification conservation law.
UNIT_AMPLIFICATION_REQUESTS = 250_000

# Largest request count a vote is evaluated at.  The binomial window grows
# as sqrt(n): about 50 MiB at this cap, and 15 GiB at n = 1e14.
MAX_REQUESTS = 10**9


class ChannelError(ValueError):
    """Base class for channel-model failures."""


class DegenerateSamples(ChannelError):
    """Both classes collapse to the same single repeated value."""


class Unreachable(ChannelError):
    """The target success rate is not reachable within the request budget."""


@dataclass(frozen=True)
class ChannelParams:
    """Timing and noise parameters of one channel deployment.

    ``timer_jitter_rel`` is the relative jitter of each gadget iteration's
    execution time (independent per iteration, so its contribution to the
    measurement noise scales with sqrt(amplification)).  ``network_noise_sd``
    is the absolute round-trip noise of the remote timing pair, in cycles.
    Every field must be finite and >= 0, ``cpu_ghz`` > 0 and ``miss_cycles
    > hit_cycles > 0``; a noise, overhead or timer field of 0 turns that term off.
    """

    hit_cycles: float
    miss_cycles: float
    per_iteration_overhead: float
    timer_resolution_ns: float = 0.47
    timer_jitter_rel: float = 0.0167
    network_noise_sd: float = 0.0
    cpu_ghz: float = 2.1

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not self.miss_cycles > self.hit_cycles > 0:
            raise ValueError("need miss_cycles > hit_cycles > 0")
        if self.cpu_ghz == 0:
            raise ValueError(f"cpu_ghz must be > 0, got {self.cpu_ghz!r}")

    @property
    def resolution_cycles(self) -> float:
        return self.timer_resolution_ns * self.cpu_ghz  # 1 GHz == 1 cycle/ns

    def iteration_cycles(self, bit: int) -> float:
        """Deterministic cost of one gadget iteration for the given bit.

        A '1' re-reads the already-cached line (hit); a '0' pays the extra
        miss on the architectural access.
        """
        access = self.hit_cycles if bit else self.miss_cycles
        return self.per_iteration_overhead + access

    def eviction_cycles(self) -> float:
        # one-time cache-state reset per measurement
        return EVICTION_ACCESSES * self.hit_cycles

    def mean_reading(self, bit: int, amplification: int) -> float:
        return amplification * self.iteration_cycles(bit) + self.eviction_cycles()

    def reading_noise_sd(self, bit: int, amplification: int) -> float:
        per_iter = self.timer_jitter_rel * self.iteration_cycles(bit)
        return math.sqrt(
            self.network_noise_sd**2 + amplification * per_iter**2
        )


def js_worker_params() -> ChannelParams:
    """Sandbox-deployment calibration.

    The hit/miss gap reproduces the measured mean timing difference of
    21779307 cycles at amplification 250000; the per-iteration overhead and
    network floor are sized so ~250000 requests are needed for a 99% reliable
    bit with no amplification.
    """
    return ChannelParams(
        hit_cycles=50.0,
        miss_cycles=137.117228,
        per_iteration_overhead=406_900.0,
        network_noise_sd=2_000.0,
    )


def _quantize(readings: np.ndarray, resolution: float) -> np.ndarray:
    if resolution <= 0:
        return readings
    return np.trunc(readings / resolution) * resolution  # rounds toward zero


def simulate_bit_batch(
    bit: int,
    amplification: int,
    params: ChannelParams,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized measurements of one bit value; cycles, timer-quantized."""
    if amplification < 1:
        raise ValueError("amplification must be >= 1")
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    mean = params.mean_reading(bit, amplification)
    sd = params.reading_noise_sd(bit, amplification)
    readings = mean + sd * rng.standard_normal(size)
    return _quantize(readings, params.resolution_cycles)


# Percentiles of the box test; the closed form uses the same ones.
_BOX_PERCENTILES = (10.0, 90.0)


class BoxTest(NamedTuple):
    distinguishable: bool
    threshold: float


def box_test(zeros: Sequence[float], ones: Sequence[float]) -> BoxTest:
    """Percentile-box distinguishability of the two timing classes.

    Classes are distinguishable when their ``_BOX_PERCENTILES`` boxes are
    disjoint; the decision threshold is the midpoint between the facing
    box edges (also returned for overlapping boxes, where it degrades to a
    best-effort split point).
    """
    zeros = np.asarray(zeros, dtype=np.float64)
    ones = np.asarray(ones, dtype=np.float64)
    if zeros.size == 0 or ones.size == 0:
        raise ValueError("both sample sets must be non-empty")

    z_lo, z_hi = np.percentile(zeros, _BOX_PERCENTILES)
    o_lo, o_hi = np.percentile(ones, _BOX_PERCENTILES)
    return _box_decision(z_lo, z_hi, o_lo, o_hi)


def _box_decision(z_lo: float, z_hi: float, o_lo: float, o_hi: float) -> BoxTest:
    """Compare the zeros' and ones' percentile boxes [lo, hi]."""
    if z_lo == z_hi == o_lo == o_hi:
        raise DegenerateSamples(
            "both classes collapse to a single repeated value; no threshold exists"
        )

    if z_lo >= o_lo:  # zeros are the slow class in a sane calibration
        lower_hi, upper_lo = o_hi, z_lo
    else:
        lower_hi, upper_lo = z_hi, o_lo
    return BoxTest(
        distinguishable=bool(upper_lo > lower_hi),
        threshold=float((lower_hi + upper_lo) / 2.0),
    )


# The box-test percentiles as standard-normal quantiles, for the closed form.
_BOX_Z = tuple(NormalDist().inv_cdf(p / 100.0) for p in _BOX_PERCENTILES)


def _below(edge: float, mean: float, sd: float) -> float:
    """P(mean + sd * Z < edge) for a standard normal Z."""
    if sd == 0:
        return float(mean < edge)
    return NormalDist(mean, sd).cdf(edge)


def majority_success(n: int, accuracy: float) -> float:
    """Exact probability that a majority of n independent votes is correct.

    Each vote is correct with probability ``accuracy``; a tie (even n) is
    broken by a fair coin, which keeps the result nondecreasing in n for
    accuracy >= 0.5 (a tie-as-failure rule would penalize even n).  The
    binomial pmf is summed in log space over a window of +-(40 sd + 40)
    votes around the mode; by Bennett's inequality the mass outside it is
    below 1e-46 (the 40-vote margin covers small sd, where the tail is
    Poisson-like rather than Gaussian).

    Only the failure side of the window is evaluated: from its low end up
    to n // 2, the losing votes plus the tie at even n.  The log-pmf is a
    running sum from the low end, so that prefix equals the whole window's
    element for element, and the sums add the same arrays that masking the
    whole window selected: the result is bit-identical to evaluating the
    whole window.  The window holds O(sqrt(n)) votes, so n above
    ``MAX_REQUESTS`` is rejected rather than allowed to exhaust memory.
    """
    if not 1 <= n <= MAX_REQUESTS:
        raise ValueError(f"request count must be in [1, {MAX_REQUESTS}], got {n}")
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must be in [0, 1]")
    if accuracy in (0.0, 1.0):
        return accuracy
    reach = math.ceil(40.0 * math.sqrt(n * accuracy * (1.0 - accuracy))) + 40
    mode = int((n + 1) * accuracy)
    lo, hi = max(0, mode - reach), min(n, mode + reach, n // 2)
    if hi < lo:  # the whole window wins the vote
        return 1.0
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
    # summing the failure side keeps relative precision as success nears 1
    if 2 * hi == n:
        return 1.0 - float(pmf[:-1].sum() + 0.5 * pmf[-1])
    return 1.0 - float(pmf.sum())


@dataclass(frozen=True)
class ChannelCalibration:
    """Box-test threshold plus one-shot accuracies for one amplification."""

    amplification: int
    threshold: float
    accuracy_zero: float
    accuracy_one: float

    def success(self, n: int) -> float:
        """Exact majority-vote success over n requests, bit values equally likely."""
        return 0.5 * (
            majority_success(n, self.accuracy_zero) + majority_success(n, self.accuracy_one)
        )


def calibrate_decision(amplification: int, params: ChannelParams) -> ChannelCalibration:
    """Exact box-test threshold and one-shot accuracies for one amplification.

    The threshold is what ``box_test`` converges to on unlimited samples:
    quantizing is monotone, so each box edge is the quantized population
    percentile.  A reading is classified as a zero when it exceeds the
    threshold; readings are positive, so truncation floors them, and that
    happens exactly when the raw reading reaches the next tick above it.
    """
    if amplification < 1:
        raise ValueError("amplification must be >= 1")
    means = [params.mean_reading(bit, amplification) for bit in (0, 1)]
    sds = [params.reading_noise_sd(bit, amplification) for bit in (0, 1)]
    resolution = params.resolution_cycles
    (z_lo, z_hi), (o_lo, o_hi) = (
        _quantize(np.array([mean + sd * z for z in _BOX_Z]), resolution)
        for mean, sd in zip(means, sds)
    )
    threshold = _box_decision(z_lo, z_hi, o_lo, o_hi).threshold
    edge = (math.floor(threshold / resolution) + 1) * resolution if resolution > 0 else threshold
    return ChannelCalibration(
        amplification=amplification,
        threshold=threshold,
        accuracy_zero=1.0 - _below(edge, means[0], sds[0]),
        accuracy_one=_below(edge, means[1], sds[1]),
    )


def _first_reaching(reaches, lo: int, hi: int) -> int:
    """Smallest n in (lo, hi] with ``reaches(n)``, given ``reaches(hi)`` holds,
    ``reaches(lo)`` does not, and ``reaches`` is monotone in between."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _normal_estimate(cal: ChannelCalibration, target_success: float, n_max: int) -> int:
    """Request count at which the normal approximation of both votes reaches the target.

    A vote with one-shot accuracy p > 1/2 succeeds with probability about
    Phi(sqrt(n) * d), d = (p - 1/2) / sqrt(p (1 - p)).  The smallest n with
    0.5 * (Phi(sqrt(n) d0) + Phi(sqrt(n) d1)) >= target is found by bisection
    below n = (Phi^-1(target) / min(d))**2, where the weaker vote alone
    reaches the target, and capped at ``n_max``.
    """
    phi = NormalDist()
    d0, d1 = (
        (p - 0.5) / math.sqrt(p * (1.0 - p)) if p < 1.0 else math.inf
        for p in (cal.accuracy_zero, cal.accuracy_one)
    )
    z = phi.inv_cdf(target_success)
    ceiling = max(1, math.ceil((z / min(d0, d1)) ** 2))
    return _first_reaching(
        lambda n: 0.5 * (phi.cdf(math.sqrt(n) * d0) + phi.cdf(math.sqrt(n) * d1)) >= target_success,
        0,
        min(n_max, ceiling),
    )


def required_requests(
    amplification: int,
    params: ChannelParams,
    target_success: float = 0.99,
    rng_seed=0,
    n_max: int = 1_000_000,
) -> int:
    """Smallest request count whose majority vote reaches the target success.

    With both one-shot accuracies above 1/2 the exact success is
    nondecreasing in n.  The search starts at the normal approximation of
    the two votes, which lands a few requests below the answer, gallops
    from it in steps of 8, 16, 32, ... until the answer is bracketed, and
    bisects the bracket: about five exact evaluations per budget.
    ``Unreachable`` is raised when the gallop reaches ``n_max`` without
    reaching the target.

    A vote no better than a coin makes the success non-monotone in n.  Then
    ``n_max`` is checked first, and the gallop starts at n = 1.

    The result is exact and does not depend on ``rng_seed``, which is
    accepted only so that existing callers keep working.
    """
    if not 0.0 < target_success < 1.0:
        raise ValueError("target_success must be in (0, 1)")
    cal = calibrate_decision(amplification, params)

    def reaches(n: int) -> bool:
        return cal.success(n) >= target_success

    unreachable = Unreachable(
        f"success at n_max={n_max} below target {target_success} "
        f"for amplification {amplification}"
    )
    if min(cal.accuracy_zero, cal.accuracy_one) <= 0.5:
        if not reaches(n_max):
            raise unreachable
        n = 1
    else:
        n = _normal_estimate(cal, target_success, n_max)

    step = 8
    if reaches(n):
        hi, lo = n, max(0, n - step)
        while lo > 0 and reaches(lo):
            hi, step = lo, 2 * step
            lo = max(0, hi - step)
    else:
        lo = n
        while True:
            if lo >= n_max:
                raise unreachable
            hi = min(n_max, lo + step)
            if reaches(hi):
                break
            lo, step = hi, 2 * step
    return _first_reaching(reaches, lo, hi)


def success_rate_curve(
    amplifications: Sequence[int],
    request_counts: Sequence[int],
    params: ChannelParams,
) -> np.ndarray:
    """Exact success grid, shape (len(amplifications), len(request_counts))."""
    if len(amplifications) == 0 or len(request_counts) == 0:
        raise ValueError("both grid axes must be non-empty")
    grid = np.empty((len(amplifications), len(request_counts)))
    for i, amplification in enumerate(amplifications):
        cal = calibrate_decision(amplification, params)
        for j, n in enumerate(request_counts):
            grid[i, j] = cal.success(int(n))
    return grid


# --- leakage economics ----------------------------------------------------

@functools.cache
def _runtime_fit() -> tuple[float, float]:
    """(slope, intercept) in seconds of the affine script-runtime law
    runtime(a) = intercept + slope * a, least-squares fitted to the reference
    rows once.  The a=10000 row deviates from affine by ~30%, so per-row exact
    runtimes may be passed directly where fidelity matters."""
    amps = np.asarray([row[0] for row in REFERENCE_ATTACK_ROWS], dtype=np.float64)
    runtimes = np.asarray([row[2] for row in REFERENCE_ATTACK_ROWS], dtype=np.float64)
    slope, intercept = np.polyfit(amps, runtimes, 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class LeakEstimate:
    amplification: int
    requests_per_bit: int
    script_runtime_s: float
    bits_per_hour: float


def leakage_rate(
    amplification: int,
    requests_per_bit: int,
    runtime_s: float | None = None,
) -> LeakEstimate:
    """Bits per hour: 3600 / (requests * runtime); ``runtime_s`` must be
    finite and > 0."""
    if amplification < 1 or requests_per_bit < 1:
        raise ValueError("amplification and requests_per_bit must be >= 1")
    if runtime_s is None:
        slope, intercept = _runtime_fit()
        runtime_s = intercept + slope * amplification
    if not 0 < runtime_s < math.inf:
        raise ValueError(f"runtime_s must be finite and > 0, got {runtime_s!r}")
    return LeakEstimate(
        amplification=amplification,
        requests_per_bit=requests_per_bit,
        script_runtime_s=runtime_s,
        bits_per_hour=3600.0 / (requests_per_bit * runtime_s),
    )


def leakage_table() -> list[LeakEstimate]:
    """Leak estimates for the reference rows using their exact runtimes."""
    return [
        leakage_rate(amplification, requests, runtime_s=runtime)
        for amplification, requests, runtime, _reported in REFERENCE_ATTACK_ROWS
    ]
