"""Misprediction-histogram screening with a discrete two-sample KS test.

Sampled mispredicted-and-retired branches give a per-branch misprediction
histogram.  A program is screened by comparing the misprediction counts of its
hottest branches against a recorded attack template: a high p-value means the
"drawn from the same distribution as the template" hypothesis cannot be
rejected, so the program is flagged as a suspect.

The template is data, not code (see ``data/attack_template.csv``); operators
can substitute their own recording.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

HISTOGRAM_SCHEMA = "histogram-v1"
HISTOGRAM_HEADER = ("branch_id", "mispredictions")

DEFAULT_ALPHA = 0.1
DEFAULT_TOP_K = 100

# Exact-mode enumeration visits C(n+m, n) assignments; 12 pooled samples
# (924 assignments at worst) is the permitted ceiling.
EXACT_MODE_MAX_POOLED = 12


class HistogramError(Exception):
    """Base class for histogram/KS failures."""


class EmptyHistogram(HistogramError):
    """The histogram has no branches."""


class EmptySample(HistogramError):
    """A KS input sample is empty."""


class ExactModeTooLarge(HistogramError):
    """Exact-mode enumeration was requested for too many pooled samples."""


class HistogramFormatError(HistogramError):
    """A histogram CSV file is malformed."""


@dataclass(frozen=True)
class BranchHistogram:
    """Per-branch misprediction counts; zero-count entries are not stored."""

    entries: dict[str, int]

    @classmethod
    def from_entries(cls, entries: dict[str, int]) -> "BranchHistogram":
        if not entries:
            raise EmptyHistogram("histogram has no branches")
        counts = entries.values()
        if set(map(type, counts)) != {int} or min(counts) < 1:
            branch_id = next(b for b, c in entries.items() if type(c) is not int or c < 1)
            raise HistogramError(f"branch {branch_id!r}: misprediction count must be an integer >= 1")
        return cls(dict(entries))


@dataclass(frozen=True)
class KsResult:
    statistic: float  # sup over observed values of |ECDF_a - ECDF_b|, in [0, 1]
    p_value: float
    n: int
    m: int


@dataclass(frozen=True)
class KsVerdict:
    suspect: bool  # p >= alpha: cannot reject "same distribution as template"
    ks: KsResult
    k_effective: int  # branches actually taken from the subject histogram


def top_branches(hist: BranchHistogram, k: int) -> list[int]:
    """The k largest misprediction counts, descending.

    ``classify_ks`` and the CLI default to k = ``DEFAULT_TOP_K`` (100).
    Histograms with fewer than k branches contribute all of them (the only
    information-preserving option).  Only counts are returned, so branch ids
    play no part in the selection.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not hist.entries:
        raise EmptyHistogram("histogram has no branches")
    return sorted(hist.entries.values(), reverse=True)[:k]


def _ecdf_distance(a: np.ndarray, b: np.ndarray) -> float:
    # Discrete data: the supremum is attained at observed support points.
    support = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), support, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), support, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def kolmogorov_survival(lam: float) -> float:
    """Two-sided Kolmogorov limiting survival function Q(lam).

    Series 2*sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2), truncated at 100 terms
    or when a term drops below 1e-12 in magnitude.
    """
    if lam <= 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term < 1e-12:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def _exact_p_value(a: Sequence[int], b: Sequence[int]) -> float:
    """Permutation p-value by full enumeration of label assignments.

    Distances are compared as exact rationals, so ties between mathematically
    equal distances are never missed to rounding.
    """
    n, m = len(a), len(b)
    pooled = list(a) + list(b)
    indices = range(n + m)

    def distance(a_idx: frozenset[int]) -> Fraction:
        sample_a = sorted(pooled[i] for i in a_idx)
        sample_b = sorted(pooled[i] for i in indices if i not in a_idx)
        best = Fraction(0)
        for value in pooled:
            below_a = sum(1 for x in sample_a if x <= value)
            below_b = sum(1 for x in sample_b if x <= value)
            gap = abs(Fraction(below_a, n) - Fraction(below_b, m))
            if gap > best:
                best = gap
        return best

    observed = distance(frozenset(range(n)))
    hits = 0
    total = 0
    for chosen in combinations(indices, n):
        total += 1
        if distance(frozenset(chosen)) >= observed:
            hits += 1
    return hits / total


def ks_two_sample(
    a: Sequence[int], b: Sequence[int], mode: str = "asymptotic"
) -> KsResult:
    """Two-sided two-sample KS test for discrete samples.

    ``asymptotic`` evaluates the Kolmogorov limit at
    lam = D * sqrt(n*m/(n+m)); ``exact`` enumerates every label permutation
    (only permitted for n+m <= 12).
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptySample("both samples must be non-empty")
    if mode not in ("asymptotic", "exact"):
        raise ValueError(f"unknown mode {mode!r}")

    arr_a = np.asarray(a, dtype=np.float64)
    arr_b = np.asarray(b, dtype=np.float64)
    n, m = arr_a.size, arr_b.size
    statistic = _ecdf_distance(arr_a, arr_b)

    if mode == "exact":
        if n + m > EXACT_MODE_MAX_POOLED:
            raise ExactModeTooLarge(
                f"exact mode limited to {EXACT_MODE_MAX_POOLED} pooled samples, got {n + m}"
            )
        p_value = _exact_p_value(list(a), list(b))
    else:
        lam = statistic * math.sqrt(n * m / (n + m))
        p_value = kolmogorov_survival(lam)

    return KsResult(statistic=statistic, p_value=p_value, n=n, m=m)


def classify_ks(
    hist: BranchHistogram,
    template: BranchHistogram,
    alpha: float = DEFAULT_ALPHA,
    k: int = DEFAULT_TOP_K,
) -> KsVerdict:
    """Compare a histogram's top branches against a recorded attack template.

    Suspect iff p >= alpha: the sample is indistinguishable from the template
    at the (1 - alpha) confidence level.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    subject = top_branches(hist, k)
    reference = top_branches(template, k)
    result = ks_two_sample(subject, reference)
    return KsVerdict(
        suspect=result.p_value >= alpha,
        ks=result,
        k_effective=len(subject),
    )


def read_histogram_csv(path: str | Path) -> BranchHistogram:
    """Load a histogram CSV (header ``branch_id,mispredictions``)."""
    entries: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = []
        for raw in handle:
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                if "schema:" in stripped:
                    version = stripped.split("schema:", 1)[1].strip()
                    if version != HISTOGRAM_SCHEMA:
                        raise HistogramFormatError(
                            f"unsupported histogram schema {version!r}"
                        )
                continue
            rows.append(raw)
        reader = csv.reader(rows)
        try:
            header = next(reader)
        except StopIteration:
            raise HistogramFormatError(f"{path}: empty histogram file") from None
        if tuple(header) != HISTOGRAM_HEADER:
            raise HistogramFormatError(
                f"{path}: expected header {','.join(HISTOGRAM_HEADER)!r}, got {header!r}"
            )
        for row in reader:
            if len(row) != 2:
                raise HistogramFormatError(f"{path}: malformed row {row!r}")
            branch_id, raw_count = row
            try:
                count = int(raw_count)
            except ValueError:
                raise HistogramFormatError(
                    f"{path}: misprediction count {raw_count!r} is not an integer"
                ) from None
            if branch_id in entries:
                raise HistogramFormatError(f"{path}: duplicate branch id {branch_id!r}")
            entries[branch_id] = count
    return BranchHistogram.from_entries(entries)


@lru_cache(maxsize=1)
def load_default_template() -> BranchHistogram:
    """The recorded attack histogram shipped with the package (cached)."""
    template = resources.files("spectreguard").joinpath("data/attack_template.csv")
    with resources.as_file(template) as path:
        return read_histogram_csv(path)


def write_histogram_csv(hist: BranchHistogram, path: str | Path) -> None:
    """Write a histogram CSV, branches ordered by (count desc, id asc)."""
    ranked = sorted(hist.entries.items(), key=lambda item: (-item[1], item[0]))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# schema: {HISTOGRAM_SCHEMA}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(HISTOGRAM_HEADER)
        writer.writerows(ranked)
