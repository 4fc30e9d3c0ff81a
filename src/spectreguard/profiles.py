"""Synthetic workload profiles for traces and misprediction histograms.

Two generator families live here:

* ``BenignProfile`` draws branch/iTLB metrics from a truncated two-component
  log-normal mixture, calibrated per execution so the survival curve
  reproduces the production false-positive measurements: 21.41% of executions
  at or above 1024, 0.61% at 4096, 0.26% at 8192, and none at 65536.  Those
  are window rates only when a window holds one execution; a window of e
  executions averages them, and at e = 4 seeded fleets flag 0.33% of benign
  windows at 4096.
* ``AttackProfile`` models the branch/iTLB metric of a tuned single-branch
  attack as an affine function of the amplification factor, anchored at the
  measured reduced-amplification points (604.71 at factor 1, 3492.41 at
  factor 10) and at the per-variant full-strength means.

Every trace's counters are laid out by ``_fleet_counts``: the attack
workers' (``_attack_counts``), the benign workers', then the timestamps.  A
benign worker only makes its generator calls (``_benign_draws``): eight of
them, raw uniforms on [0, 1) and standard normals into one reused (9, n)
block, which is copied into the worker's column of the fleet's draw array;
the mixture pick, the affine maps (numpy's ``uniform`` and ``normal`` are
exactly ``low + (high - low) * u`` and ``loc + scale * z``) and ``exp`` then
run once over that array.  No normal below both components' ``(log(upper_cutoff)
- 1e-9 - mu) / sigma`` gives a metric at the cutoff, so only the records at or
above it are checked, and redrawn if rejected, before the worker's next call.

The KS screen reads only misprediction counts, with no branch offsets.  A
benign window takes one row of ``BENIGN_MAX_BRANCHES + 1`` uniforms (its
size, then its counts), an attack window one row of
``ATTACK_TAIL_BRANCHES + 2`` normals.  Each window takes a fixed number of
values, and a numpy ``random`` or ``normal`` block gives the values, and
leaves the generator in the state, of its rows drawn one at a time: the
counts do not depend on how the windows are batched.  One count arithmetic
turns such rows into zero-padded count rows (``_benign_count_rows``,
``_attack_count_rows``), and ``_ks_count_blocks`` lays a KS fleet's windows
out in the screen's blocks of them.  ``make_*_histogram`` keep the
offsets-then-counts stream that ``gen --histogram-out`` writes, and
``make_attack_histogram`` takes its counts from ``_attack_count_rows``.

Note on separation: at hardware scale the full-strength metric sits around
34 benign standard deviations above the benign mean.  The truncated
calibration above caps the attainable benign deviation, so the synthetic
separation comes out far larger (hundreds of sigma); the survival-curve
calibration is the binding requirement.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import astuple, dataclass
from enum import Enum
from statistics import NormalDist
import numpy as np

from . import ks as _ks
from .ks import BranchHistogram
from .trace import METRIC_FIELDS, NS_PER_SECOND, TraceBatch

_PHI = NormalDist()

# Full-strength normalized retired-branch means per attack variant,
# measured over repeated native gadget executions.
PHT_BRANCH_METRIC = 423171.54
BTB_BRANCH_METRIC = 23401.20
RSB_BRANCH_METRIC = 38369.17
STL_BRANCH_METRIC = 982.20

# memory_disambiguation.history_reset per iTLB access: exploited
# store-to-load forwarding vs. ordinary workloads.
STL_ATTACK_MD_MEAN = 8993.98
BENIGN_MD_MEAN = 2644.73

# Reduced-amplification anchors of the branch/iTLB metric for the tuned
# single-branch attack: factor 1 -> 604.71, factor 10 -> 3492.41.
METRIC_AT_AMP_1 = 604.71
METRIC_AT_AMP_10 = 3492.41
METRIC_SLOPE = (METRIC_AT_AMP_10 - METRIC_AT_AMP_1) / 9.0
METRIC_INTERCEPT = METRIC_AT_AMP_1 - METRIC_SLOPE

# Under the affine law the PHT full-strength mean corresponds to ~1318
# amplification iterations; used as the default "full" factor for every
# variant when deriving per-variant slopes.
FULL_AMPLIFICATION = 1318
# Largest amplification factor and extra page count that counters are drawn
# for: at 10**9 a PHT record's branch count stays below 10**16, inside int64.
MAX_AMPLIFICATION = 10**9

# Per-execution spread of the generated counters.  The attack metric is a
# mean-preserving log-normal with ATTACK_REL_SPREAD around its mean.
BENIGN_MD_SIGMA = 0.15
BENIGN_ITLB_RANGE = (1_000, 100_000)
ATTACK_REL_SPREAD = 0.05
ATTACK_MD_SIGMA = 0.05
ATTACK_ITLB_RANGE = (1_000, 10_000)

# Code-page inflation for threshold evasion: each additionally touched code
# page contributes one iTLB access and BRANCHES_PER_PAGE executed branches
# per bit.  Calibrated so a full-strength PHT attack needs exactly 125 extra
# pages (125 * 4 KiB = 500 KB of code) to push its ratio below 4096.
PAGE_BYTES = 4096
BRANCHES_PER_PAGE = 740.0
ITLB_PER_BIT = 1.0

BENIGN_SURVIVAL_TARGETS: dict[float, float] = {
    1024.0: 0.2141,
    4096.0: 0.0061,
    8192.0: 0.0026,
    65536.0: 0.0,
}
# Fixed shape of the benign mixture; calibration solves the other parameters.
BENIGN_BODY_SIGMA = 0.55
BENIGN_TAIL_WEIGHT = 0.0075

# Misprediction histogram shapes (see _attack_count_rows, _benign_count_rows).
ATTACK_TAIL_BRANCHES = 62
DELAY_LOOP_MEAN = 1_200_000.0
MISTRAIN_RATIO = 0.2
TAIL_START = 30_000.0
TAIL_DECAY = 0.85
JITTER_SIGMA = 0.08
BENIGN_MIN_BRANCHES = 140
BENIGN_MAX_BRANCHES = 400
BENIGN_COUNT_RANGE = (500.0, 20_000.0)


class AttackVariant(str, Enum):
    PHT = "pht"
    BTB = "btb"
    RSB = "rsb"
    STL = "stl"


VARIANT_BRANCH_METRIC = {
    AttackVariant.PHT: PHT_BRANCH_METRIC,
    AttackVariant.BTB: BTB_BRANCH_METRIC,
    AttackVariant.RSB: RSB_BRANCH_METRIC,
    AttackVariant.STL: STL_BRANCH_METRIC,
}


def diluted_metric(metric: float, pages: int) -> float:
    """Branch/iTLB metric after touching ``pages`` extra code pages."""
    if pages < 0:
        raise ValueError("pages must be >= 0")
    return (metric * ITLB_PER_BIT + pages * BRANCHES_PER_PAGE) / (ITLB_PER_BIT + pages)


def pages_to_reach(metric: float, target: float) -> int | None:
    """Minimum page count with diluted metric strictly below target.

    Returns None when dilution cannot reach the target (the per-page
    branch cost already meets or exceeds it).
    """
    if metric < target:
        return 0
    if BRANCHES_PER_PAGE >= target:
        return None
    bound = (metric - target) * ITLB_PER_BIT / (target - BRANCHES_PER_PAGE)
    return math.floor(bound) + 1


def _lognormal_mean_preserving(rng: np.random.Generator, mean: float, sigma: float,
                               size: int) -> np.ndarray:
    # exp(N(-sigma^2/2, sigma)) has mean 1
    return mean * np.exp(rng.normal(-0.5 * sigma * sigma, sigma, size))


def _lognormal_survival(mu: float, sigma: float, x: float) -> float:
    """P(exp(N(mu, sigma**2)) >= x)."""
    return 1.0 - _PHI.cdf((math.log(x) - mu) / sigma)


@dataclass(frozen=True)
class BenignProfile:
    """Benign branch/iTLB metric distribution plus auxiliary counter shapes."""

    body_mu: float
    body_sigma: float
    tail_mu: float
    tail_sigma: float
    tail_weight: float
    upper_cutoff: float

    @classmethod
    @functools.cache
    def default(cls) -> "BenignProfile":
        """The mixture solved once from ``BENIGN_SURVIVAL_TARGETS``.

        Three positive targets plus one zero target (the truncation cutoff).
        With ``BENIGN_BODY_SIGMA`` and ``BENIGN_TAIL_WEIGHT`` fixed, the tail
        component is fitted to the two largest positive targets, the body to
        the smallest, with a short fixed-point loop to account for
        cross-component mass.
        """
        (x1, s1), (x2, s2), (x3, s3), (cutoff, _) = sorted(BENIGN_SURVIVAL_TARGETS.items())
        body_sigma, w = BENIGN_BODY_SIGMA, BENIGN_TAIL_WEIGHT

        body_at_x2 = body_at_x3 = 0.0
        for _ in range(12):
            t2 = (s2 - (1.0 - w) * body_at_x2) / w
            t3 = (s3 - (1.0 - w) * body_at_x3) / w
            z2 = _PHI.inv_cdf(1.0 - t2)
            z3 = _PHI.inv_cdf(1.0 - t3)
            tail_sigma = (math.log(x3) - math.log(x2)) / (z3 - z2)
            tail_mu = math.log(x2) - tail_sigma * z2
            t1 = (s1 - w * _lognormal_survival(tail_mu, tail_sigma, x1)) / (1.0 - w)
            body_mu = math.log(x1) - body_sigma * _PHI.inv_cdf(1.0 - t1)
            body_at_x2 = _lognormal_survival(body_mu, body_sigma, x2)
            body_at_x3 = _lognormal_survival(body_mu, body_sigma, x3)

        return cls(
            body_mu=body_mu,
            body_sigma=body_sigma,
            tail_mu=tail_mu,
            tail_sigma=tail_sigma,
            tail_weight=w,
            upper_cutoff=cutoff,
        )

    def survival(self, x: float) -> float:
        """P(branch metric >= x) under the truncated mixture."""
        if x >= self.upper_cutoff:
            return 0.0

        def mixture(v: float) -> float:
            s_body = _lognormal_survival(self.body_mu, self.body_sigma, v)
            s_tail = _lognormal_survival(self.tail_mu, self.tail_sigma, v)
            return (1.0 - self.tail_weight) * s_body + self.tail_weight * s_tail

        at_cutoff = mixture(self.upper_cutoff)
        return (mixture(x) - at_cutoff) / (1.0 - at_cutoff)


@dataclass(frozen=True)
class AttackProfile:
    """Amplification-dependent counter footprint of one attack variant."""

    variant: AttackVariant

    @classmethod
    def for_variant(cls, variant: AttackVariant | str) -> "AttackProfile":
        return cls(AttackVariant(variant))

    @property
    def metric_slope(self) -> float:
        return (VARIANT_BRANCH_METRIC[self.variant] - METRIC_INTERCEPT) / FULL_AMPLIFICATION

    def branch_metric(self, amplification: int | None = None, pages: int = 0) -> float:
        """Mean branch/iTLB metric at the given amplification and page count."""
        a = FULL_AMPLIFICATION if amplification is None else amplification
        if a < 1:
            raise ValueError("amplification must be >= 1")
        metric = METRIC_INTERCEPT + self.metric_slope * a
        return diluted_metric(metric, pages) if pages else metric

    def md_reset_metric(self, amplification: int | None = None) -> float:
        """Mean history-reset metric; only the STL variant drives it above benign."""
        if self.variant is not AttackVariant.STL:
            return BENIGN_MD_MEAN
        a = FULL_AMPLIFICATION if amplification is None else amplification
        scale = min(1.0, a / FULL_AMPLIFICATION)
        return BENIGN_MD_MEAN + (STL_ATTACK_MD_MEAN - BENIGN_MD_MEAN) * scale


def _log_uniform_ints(rng: np.random.Generator, low: int, high: int, size: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(low), math.log(high), size)).astype(np.int64)


# Columns of TraceBatch.counts: the timestamp, iTLB accesses, METRIC_FIELDS.
_COLUMNS = 2 + len(METRIC_FIELDS)


def _fill_counts(out: np.ndarray, itlb: np.ndarray, *metrics: np.ndarray) -> None:
    """Write every counter but the timestamp into out, from per-iTLB metrics and miss ratios."""
    branch, branch_miss, cache_ref, cache_miss_ratio, l1d, l1d_miss_ratio, md = metrics
    out[:, 1] = itlb
    out[:, 2] = np.rint(branch * itlb)
    out[:, 3] = np.minimum(out[:, 2], np.rint(branch_miss * itlb))
    out[:, 4] = np.rint(cache_ref * itlb)
    out[:, 5] = np.rint(cache_miss_ratio * out[:, 4])
    out[:, 6] = np.rint(l1d * itlb)
    out[:, 7] = np.rint(l1d_miss_ratio * out[:, 6])
    out[:, 8] = np.rint(md * itlb)


def _branch_metric(profile: BenignProfile, pick: np.ndarray, z: np.ndarray) -> np.ndarray:
    tail = pick < profile.tail_weight
    return np.exp(np.where(tail, profile.tail_mu, profile.body_mu)
                  + np.where(tail, profile.tail_sigma, profile.body_sigma) * z)


def _benign_draws(raw: np.ndarray, profile: BenignProfile, rngs: Iterator[np.random.Generator],
                  clear_below: float) -> None:
    """Each benign worker's raw draws into its column of raw (9, workers, n),
    a record per position, each worker from the next generator of rngs.

    A worker draws into one reused (9, n) block, a row per draw, whose row
    views are made once: eight generator calls, the iTLB and branch-miss
    uniforms (rows 2 and 3) in one, which numpy fills row after row, as two
    calls would.  The block is then copied into the worker's column."""
    block = np.empty((9, raw.shape[2]))
    pick, z, uniforms, cache_ref, cache_miss, l1d, l1d_miss, md = (
        block[0], block[1], block[2:4], *block[4:])
    for out in raw.swapaxes(0, 1):
        rng = next(rngs)
        rng.random(out=pick)
        rng.standard_normal(out=z)
        if z.max() >= clear_below:
            pending = np.flatnonzero(z >= clear_below)
            while (pending := pending[_branch_metric(profile, pick[pending], z[pending])
                                      >= profile.upper_cutoff]).size:
                pick[pending] = rng.random(pending.size)
                z[pending] = rng.standard_normal(pending.size)
        rng.random(out=uniforms)
        rng.standard_normal(out=cache_ref)
        rng.random(out=cache_miss)
        rng.standard_normal(out=l1d)
        rng.random(out=l1d_miss)
        rng.standard_normal(out=md)
        out[...] = block


def _benign_counts(out: np.ndarray, raw: np.ndarray, profile: BenignProfile) -> None:
    """The counters of any number of workers' raw benign draws, laid side by side;
    a normal z of sigma s maps to -s * s / 2 + s * z, a mean-one log-normal's log."""
    pick, z, itlb, miss, cache_ref, cache_miss, l1d, l1d_miss, md = raw
    metric = _branch_metric(profile, pick, z)
    low, high = map(math.log, BENIGN_ITLB_RANGE)
    _fill_counts(out, np.exp(low + (high - low) * itlb).astype(np.int64), metric,
                 metric * (0.005 + (0.04 - 0.005) * miss),
                 30.0 * np.exp(-0.5 * 0.5 * 0.5 + 0.5 * cache_ref),
                 0.05 + (0.30 - 0.05) * cache_miss,
                 300.0 * np.exp(-0.5 * 0.5 * 0.5 + 0.5 * l1d), 0.01 + (0.10 - 0.01) * l1d_miss,
                 BENIGN_MD_MEAN * np.exp(-0.5 * BENIGN_MD_SIGMA * BENIGN_MD_SIGMA
                                         + BENIGN_MD_SIGMA * md))


def _attack_counts(out: np.ndarray, rng: np.random.Generator, variant: AttackVariant | str,
                   amplification: int | None, pages: int) -> None:
    """One attack worker's counters, all but the timestamp, into out; its
    callers take the workload through ``threshold.AttackWorkload``'s bounds."""
    profile, n = AttackProfile.for_variant(variant), len(out)
    branch_mean = profile.branch_metric(amplification, pages)
    md_mean = profile.md_reset_metric(amplification)
    metric = _lognormal_mean_preserving(rng, branch_mean, ATTACK_REL_SPREAD, n)
    itlb = _log_uniform_ints(rng, *ATTACK_ITLB_RANGE, n)
    # Branch misses: attack loops rarely miss after mistraining settles; stays below benign.
    _fill_counts(out, itlb, metric, _lognormal_mean_preserving(rng, 8.0, 0.3, n),
                 _lognormal_mean_preserving(rng, 12.0, 0.4, n), rng.uniform(0.05, 0.20, n),
                 _lognormal_mean_preserving(rng, 600.0, 0.4, n), rng.uniform(0.02, 0.10, n),
                 _lognormal_mean_preserving(rng, md_mean, ATTACK_MD_SIGMA, n))


def _fleet_counts(rngs: Iterator[np.random.Generator], profile: BenignProfile | None,
                  n_attack: int, n_benign: int, n: int, samples_per_window: int,
                  attack: tuple | None) -> np.ndarray:
    """The counters of n_attack attack workers, then n_benign benign workers
    of profile, n records each, one worker after another; each worker draws
    from the next generator of rngs, a benign worker into one reused block
    (``_benign_draws``).  attack is (variant, amplification, pages); profile
    and attack are read only when those workers exist."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = np.empty((n_attack + n_benign, n, _COLUMNS), dtype=np.int64)
    for out in counts[:n_attack]:
        _attack_counts(out, next(rngs), *attack)
    if n_benign:
        if not (profile.body_sigma > 0 and profile.tail_sigma > 0):
            raise ValueError("the benign profile's sigmas must be > 0")
        raw = np.empty((9, n_benign, n))
        log_cutoff = math.log(profile.upper_cutoff) - 1e-9  # far above a few ulp of rounding
        clear_below = min((log_cutoff - profile.body_mu) / profile.body_sigma,
                          (log_cutoff - profile.tail_mu) / profile.tail_sigma)
        _benign_draws(raw, profile, rngs, clear_below)
        _benign_counts(counts[n_attack:].reshape(-1, _COLUMNS), raw.reshape(9, -1), profile)
    window, slot = np.divmod(np.arange(n), samples_per_window)
    slot_ns = NS_PER_SECOND // samples_per_window
    counts[:, :, 0] = window * NS_PER_SECOND + slot * slot_ns
    return counts.reshape(-1, _COLUMNS)


def _ks_count_blocks(benign: list[bool], rngs: Iterator[np.random.Generator], windows: int
                     ) -> Iterator[np.ndarray]:
    """The KS screen's counts of ``windows`` windows per worker, worker by
    worker, in zero-padded blocks of ``ks.SCREEN_BLOCK`` rows, so at most one
    block is held at a time; a worker is benign where ``benign`` says so and
    draws from the next generator of rngs, a block's share of its windows per
    call.  A benign worker's uniforms fill rows of one buffer, and their count
    arithmetic runs once per block; an attacker's rows are written over."""
    unit = np.zeros((_ks.SCREEN_BLOCK, BENIGN_MAX_BRANCHES + 1))
    attacks, rows = [], 0  # the block's (first row, attack counts); its rows drawn

    def block():
        counts = _benign_count_rows(unit[:rows])
        for first, attack in attacks:
            counts[first:first + len(attack)] = 0
            counts[first:first + len(attack), :attack.shape[1]] = attack
        return counts

    for is_benign, rng in zip(benign, rngs):
        left = windows
        while left:
            take = min(left, _ks.SCREEN_BLOCK - rows)
            if is_benign:
                rng.random(out=unit[rows:rows + take])
            else:
                attacks.append((rows, _attack_count_rows(rng, take)))
            rows, left = rows + take, left - take
            if rows == _ks.SCREEN_BLOCK:
                yield block()
                attacks, rows = [], 0
    if rows:
        yield block()


def generate_benign(
    profile: BenignProfile,
    n: int,
    seed,
    worker_id: str = "bench-0",
    samples_per_window: int = 1,
) -> TraceBatch:
    """Draw n benign snapshots, one per window unless samples_per_window > 1; a one-worker fleet."""
    counts = _fleet_counts(iter([np.random.default_rng(seed)]), profile, 0, 1, n,
                           samples_per_window, None)
    return TraceBatch((worker_id,), np.zeros(n, dtype=np.intp), counts)


def generate_attack(
    variant: AttackVariant | str,
    amplification: int | None = None,
    pages: int = 0,
    n: int = 500,
    seed=0,
    worker_id: str = "attack-0",
    samples_per_window: int = 1,
) -> tuple[TraceBatch, BranchHistogram]:
    """Draw n attack snapshots plus one recorded misprediction histogram.

    The branch metric scales with the amplification factor and dilutes with
    extra code pages; the histogram keeps the characteristic shape where the
    transient-window delay loop outranks the mistrained bounds check.  The
    workload is checked as an ``AttackWorkload`` first, with its bounds and
    error text.
    """
    from .threshold import AttackWorkload  # threshold imports this module

    workload = AttackWorkload(variant, amplification, pages)
    rng = np.random.default_rng(seed)
    counts = _fleet_counts(iter([rng]), None, 1, 0, n, samples_per_window, astuple(workload))
    return TraceBatch((worker_id,), np.zeros(n, dtype=np.intp), counts), make_attack_histogram(rng)


# --- misprediction histogram shapes -------------------------------------

# TAIL_START * TAIL_DECAY**i with Python's float power: numpy's power differs
# from it in the last bit for some i, which could move a rounded count.
_ATTACK_TAIL = np.array([TAIL_START * TAIL_DECAY**i for i in range(ATTACK_TAIL_BRANCHES)])


def _attack_count_rows(rng: np.random.Generator, windows: int) -> np.ndarray:
    """The misprediction counts of ``windows`` attack runs, one int64 row each.

    Rank 1 is the transient-window delay loop (mean ``DELAY_LOOP_MEAN``),
    rank 2 the mistrained bounds check (``MISTRAIN_RATIO`` of it, always
    below it); the remaining ``ATTACK_TAIL_BRANCHES`` are runtime
    scaffolding decaying by ``TAIL_DECAY`` from ``TAIL_START``.  Counts
    carry log-normal jitter of sigma ``JITTER_SIGMA``: one row of
    ``ATTACK_TAIL_BRANCHES + 2`` normals per run, drawn in one block.
    """
    jitter = np.exp(rng.normal(0.0, JITTER_SIGMA, (windows, ATTACK_TAIL_BRANCHES + 2)))
    delay = np.maximum(2, np.rint(DELAY_LOOP_MEAN * jitter[:, 0]))
    # the delay loop always ranks first
    mistrain = np.minimum(np.rint(DELAY_LOOP_MEAN * MISTRAIN_RATIO * jitter[:, 1]), delay - 1)
    tail = np.rint(_ATTACK_TAIL * jitter[:, 2:])
    return np.maximum(1, np.column_stack((delay, mistrain, tail))).astype(np.int64)


def _benign_branch_counts(unit: np.ndarray) -> np.ndarray:
    """Counts log-uniform over ``BENIGN_COUNT_RANGE`` from uniforms on [0, 1),
    rounded and at least 1; ``rng.uniform`` maps its doubles the same way."""
    low, high = map(math.log, BENIGN_COUNT_RANGE)
    return np.maximum(1, np.rint(np.exp(low + (high - low) * unit))).astype(np.int64)


def _benign_count_rows(unit: np.ndarray) -> np.ndarray:
    """The misprediction counts of benign runs from their rows of
    ``BENIGN_MAX_BRANCHES + 1`` uniforms, one zero-padded int64 row of
    ``BENIGN_MAX_BRANCHES`` per run: a run's counts fill its row from the left,
    and 0 (never a count) marks no branch.

    A broad, flat spread typical of benign programs: ``BENIGN_MIN_BRANCHES``
    to ``BENIGN_MAX_BRANCHES`` branches, uniformly, each with a log-uniform
    count over ``BENIGN_COUNT_RANGE``.  A row's first uniform picks the size,
    the next ones give the counts and the rest go unused.
    """
    span = BENIGN_MAX_BRANCHES - BENIGN_MIN_BRANCHES + 1
    sizes = BENIGN_MIN_BRANCHES + (unit[:, 0] * span).astype(np.intp)
    counts = _benign_branch_counts(unit[:, 1:])
    counts[np.arange(BENIGN_MAX_BRANCHES) >= sizes[:, None]] = 0
    return counts


def _histogram(offsets: np.ndarray, counts: np.ndarray) -> BranchHistogram:
    # virtual-address-like opaque ids, 16-byte aligned inside a text segment
    ids = [f"0x{address:012x}" for address in (0x5600_0000_0000 + 16 * offsets).tolist()]
    return BranchHistogram.from_entries(dict(zip(ids, counts.tolist())))


def make_attack_histogram(rng: np.random.Generator) -> BranchHistogram:
    """One attack run's histogram: distinct branch offsets, then one row of
    ``_attack_count_rows``."""
    offsets = rng.choice(1 << 20, size=ATTACK_TAIL_BRANCHES + 2, replace=False)
    return _histogram(offsets, _attack_count_rows(rng, 1)[0])


def make_benign_histogram(rng: np.random.Generator) -> BranchHistogram:
    """One benign run's histogram, with ``_benign_count_rows``'s law.

    The size, then distinct branch offsets, then one uniform per count: the
    stream this generator has always drawn, which the pinned histograms fix.
    """
    n = int(rng.integers(BENIGN_MIN_BRANCHES, BENIGN_MAX_BRANCHES + 1))
    offsets = rng.choice(1 << 20, size=n, replace=False)
    return _histogram(offsets, _benign_branch_counts(rng.random(n)))
