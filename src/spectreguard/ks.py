"""Misprediction-histogram screening with a discrete two-sample KS test.

Sampled mispredicted-and-retired branches give a per-branch misprediction
histogram.  A program is screened by comparing the misprediction counts of its
hottest branches against a recorded attack template: a high p-value means the
"drawn from the same distribution as the template" hypothesis cannot be
rejected, so the program is flagged as a suspect.

One distance kernel serves one pair and the fleet's batch: ``ks_two_sample``
passes it the ranks of one pair, ``screen_counts`` a block of zero-padded count
rows, each screened by its top ``DEFAULT_TOP_K`` sorted together with the
template's; exact p-values count lattice paths, at any size.  The template is
data (``data/attack_template.csv``).  Histogram CSVs follow the trace line
rule; read errors name file and line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .trace import ParseError, _is_data_line

HISTOGRAM_SCHEMA = "histogram-v1"
HISTOGRAM_HEADER = ("branch_id", "mispredictions")

DEFAULT_ALPHA = 0.1
DEFAULT_TOP_K = 100


class HistogramError(ValueError):
    """Base class for histogram/KS failures."""


class EmptyHistogram(HistogramError):
    """The histogram has no branches."""


class EmptySample(HistogramError):
    """A KS input sample is empty."""


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
    ks: KsResult  # ks.n: branches actually taken from the subject histogram


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


def _ecdf_distance(rows: np.ndarray, reference: np.ndarray,
                   k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """sup |ECDF_row - ECDF_reference| for each row of a 2-D array, and the
    size of each row's sample.

    A row's sample is its k largest values (every value by default) less its
    zeros, so a zero-padded row of counts is screened by its top k nonzero
    ones.  Discrete data: the supremum is attained at observed points.  Each
    row's sample is sorted together with the reference, and at the last of
    each run of equal values v, j = searchsorted(ref, v, "right") of the
    reference and i = column + 1 - j - (the row's zeros) of the sample lie at
    or below v.  The distance is max |i/n - j/m|, with n = i at the row's end;
    a row with no nonzero value has n = 0 and no distance."""
    reference = np.sort(reference)
    m, width = reference.size, rows.shape[1]
    if k is not None and k < width:
        rows = np.partition(rows, width - k, axis=1)[:, width - k:]
    zeros = rows.shape[1] - np.count_nonzero(rows, axis=1)[:, None]
    pooled = np.sort(np.hstack([rows, np.broadcast_to(reference, (len(rows), m))]), axis=1)
    j = np.searchsorted(reference, pooled, "right")
    i = np.arange(1, pooled.shape[1] + 1) - j - zeros
    n = i[:, -1]
    gap = np.abs(i / n[:, None] - j / m)
    gap[:, :-1][pooled[:, 1:] == pooled[:, :-1]] = 0.0  # not the last of its run
    return gap.max(axis=1), n


def kolmogorov_survival(lam: float) -> float:
    """Two-sided Kolmogorov limiting survival function Q(lam).

    For lam >= 0.4: 2*sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2), cut at 100 terms
    or a term below 1e-12.  Below 0.4, where that cut errs by up to 2.5e-14 (by
    up to 1 below lam = 0.04), the dual series, exact there from its first term:
    1 - sqrt(2 pi)/lam * sum_{k>=1} exp(-(2k-1)^2 pi^2 / (8 lam^2))."""
    if lam <= 1e-8:
        return 1.0
    if lam < 0.4:
        return 1.0 - math.sqrt(2 * math.pi) / lam * math.exp(-((math.pi / lam) ** 2) / 8)
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
    """Permutation p-value over the C(n+m, n) relabellings of the pooled values:
    Hodges' lattice-path count, ties as in Schroer and Trenkler (1995).  Over the
    tie groups in order, ``inside`` maps i, the labels given to a so far, to the
    assignments whose gap |i*m - j*n| stayed below the observed n*m*D at every
    group end; a group of t gives d to a in C(t, d) ways.  Counting the paths
    outside keeps a tiny p exact.  Cost: O(n * (n+m)) big-integer additions."""
    n, m = len(a), len(b)
    values, sizes = np.unique([*a, *b], return_counts=True)
    ends = sizes.cumsum().tolist()
    ends_a = np.searchsorted(np.sort(a), values, "right").tolist()
    observed = max(abs(i * m - (s - i) * n) for i, s in zip(ends_a, ends))
    inside = {0: 1}
    for t, s in zip(sizes.tolist(), ends):
        step: dict[int, int] = {}
        for i, count in inside.items():
            for d in range(max(0, s - m - i), min(t, n - i) + 1):
                if abs((i + d) * m - (s - i - d) * n) < observed:
                    step[i + d] = step.get(i + d, 0) + count * math.comb(t, d)
        inside = step
    total = math.comb(n + m, n)
    return (total - sum(inside.values())) / total


def ks_two_sample(
    a: Sequence[int], b: Sequence[int], mode: str = "asymptotic"
) -> KsResult:
    """Two-sided two-sample KS test for discrete samples.

    ``asymptotic`` evaluates the Kolmogorov limit at
    lam = D * sqrt(n*m/(n+m)); ``exact`` counts the permutation p-value at any
    n and m, in O(n * (n+m)) big-integer additions (``_exact_p_value``).
    D is read from the 1-based ranks of the pooled values, so counts past
    2**53, or past int64, keep their order.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptySample("both samples must be non-empty")
    if mode not in ("asymptotic", "exact"):
        raise ValueError(f"unknown mode {mode!r}")

    n, m = len(a), len(b)
    ranks = np.unique([*a, *b], return_inverse=True)[1] + 1
    distance, _sizes = _ecdf_distance(ranks[None, :n], ranks[n:])
    statistic = float(distance[0])

    if mode == "exact":
        p_value = _exact_p_value(a, b)
    else:
        lam = statistic * math.sqrt(n * m / (n + m))
        p_value = kolmogorov_survival(lam)

    return KsResult(statistic=statistic, p_value=p_value, n=n, m=m)


def classify_ks(
    hist: BranchHistogram,
    template: BranchHistogram,
    alpha: float = DEFAULT_ALPHA,
    k: int = DEFAULT_TOP_K,
    mode: str = "asymptotic",
) -> KsVerdict:
    """Compare a histogram's top k branches against a recorded attack template.

    Suspect iff p >= alpha: the sample is indistinguishable from the template
    at the (1 - alpha) confidence level.  ``mode`` is ``ks_two_sample``'s.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    result = ks_two_sample(top_branches(hist, k), top_branches(template, k), mode=mode)
    return KsVerdict(suspect=result.p_value >= alpha, ks=result)


# Rows per block of profiles._ks_count_blocks, read at each call: 128 x 400 int64 is 400 kB.
SCREEN_BLOCK = 128


def screen_counts(blocks: Iterable[np.ndarray], template: BranchHistogram) -> np.ndarray:
    """Asymptotic KS p-value of each sample's top ``DEFAULT_TOP_K`` counts against the template's.

    The batch form of ``classify_ks`` (suspect iff p >= alpha), with its
    p-values.  Each block is a 2-D array of zero-padded count rows, one sample
    each (a 1-D array is one sample), and a row of zeros raises
    ``EmptySample``: one ``_ecdf_distance`` call per block, which sorts each
    row's top k with the template's and gives each sample's size, and one
    ``kolmogorov_survival`` call per distinct scaled distance."""
    reference = np.array(top_branches(template, DEFAULT_TOP_K))
    m = reference.size
    survival = cache(kolmogorov_survival)  # few distinct distances recur
    p_values: list[float] = []
    for block in blocks:
        block = np.atleast_2d(block)
        if not block.any(axis=1).all():
            raise EmptySample("every sample must be non-empty")
        distance, sizes = _ecdf_distance(block, reference, DEFAULT_TOP_K)
        lam = distance * np.sqrt(sizes * m / (sizes + m))
        p_values += map(survival, lam.tolist())
    return np.array(p_values)


def read_histogram_csv(path: str | Path) -> BranchHistogram:
    """Load a histogram CSV (header ``branch_id,mispredictions``).

    Lines follow ``trace._is_data_line``, and the data lines go to one CSV
    reader, so a quoted branch id may span lines.  Errors name the file and
    the line a row starts on, except ``PATH: empty histogram file``.
    """
    data_lines: list[int] = []  # the file line of each line the CSV reader takes

    def data(handle: TextIO) -> Iterator[str]:
        for line_number, line in enumerate(handle, start=1):
            if _is_data_line(line_number, line, HISTOGRAM_SCHEMA):
                data_lines.append(line_number)
                yield line

    entries: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        rows = csv.reader(data(handle))
        taken = 0  # the data lines the rows before the current one took
        try:
            header = next(rows, None)
            if header is not None and tuple(header) != HISTOGRAM_HEADER:
                expected = ",".join(HISTOGRAM_HEADER)
                raise ParseError(data_lines[0], f"expected header {expected!r}, got {header!r}")
            taken = rows.line_num
            for row in rows:
                line_number, taken = data_lines[taken], rows.line_num
                if len(row) != 2:
                    raise ParseError(line_number, f"malformed row {row!r}")
                branch_id, raw_count = row
                try:
                    count = int(raw_count)
                except ValueError:
                    raise ParseError(
                        line_number, f"misprediction count {raw_count!r} is not an integer"
                    ) from None
                if count < 1:
                    raise ParseError(line_number, f"misprediction count {raw_count!r} is below 1")
                if branch_id in entries:
                    raise ParseError(line_number, f"duplicate branch id {branch_id!r}")
                entries[branch_id] = count
        except (ParseError, csv.Error) as exc:
            if isinstance(exc, csv.Error):  # such as a field past csv's size limit
                exc = ParseError(data_lines[taken], str(exc))
            raise HistogramFormatError(f"{path}: {exc}") from None
    if not entries:
        raise HistogramFormatError(f"{path}: empty histogram file")
    return BranchHistogram.from_entries(entries)


@lru_cache(maxsize=1)
def load_default_template() -> BranchHistogram:
    """The recorded attack histogram shipped with the package (cached)."""
    template = resources.files("spectreguard").joinpath("data/attack_template.csv")
    with resources.as_file(template) as path:
        return read_histogram_csv(path)


def write_histogram_csv(hist: BranchHistogram, handle: TextIO) -> None:
    """Write a histogram CSV to an open text handle, branches ordered by
    (count desc, id asc)."""
    handle.write(f"# schema: {HISTOGRAM_SCHEMA}\n")
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(HISTOGRAM_HEADER)
    writer.writerows(sorted(hist.entries.items(), key=lambda item: (-item[1], item[0])))
