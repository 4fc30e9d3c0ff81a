"""Hardware-counter trace model.

A trace is a stream of per-script-execution counter snapshots, one JSON object
per line.  Detectors never look at raw counts: every event is first normalized
by the number of iTLB accesses (which tracks code footprint, so tight attack
loops stand out against large benign programs) and then smoothed into tumbling
1-second interval averages.

Timestamps are integer nanoseconds since the trace epoch so traces stay
platform independent and diff-able.  Windows are the half-open seconds
``[k, k + 1)`` since the epoch; their length is not a setting.

Bulk paths work on a ``TraceBatch``: one int64 array of counter columns, an
int worker code per record with a table of worker names, and the source line
of each record.  ``ingest_trace`` and the generators in ``profiles`` produce
batches, ``emit_trace`` writes one to an open handle, and ``fold_intervals``
folds one into an ``IntervalBatch`` of window means; the CLI's ``detect``
and ``sweep`` call it.  The fleet's records lie on a regular grid, so it
takes only the means it reads from ``_grid_means``, which normalizes
(``_per_itlb``) and sums (``_window_sums``) as the fold does.  The text
paths work a block at a time.  ``ingest_trace`` reads the file in chunks of
about ``_READ_CHUNK`` characters and maps one regex over each chunk to take
the lines in exactly ``emit_trace``'s form; any other line goes through the JSON
decoder (``_parse_line``), which stays the reference for what a line means and
which error it raises, and its values are written back in that form.  Each
chunk's integers are parsed in one bulk step, and no regex match outlives its
chunk.  ``emit_trace`` and the CLI's verdict writer write their rows through
``_format_blocks``, which fills ``_FORMAT_BLOCK`` rows with one ``%``.
``CounterSnapshot`` states the counter invariants and stays the per-record wire
type: a batch iterates snapshots and an interval batch iterates
``IntervalAverage``s.  The streaming ``IntervalFolder`` folds one record at a
time; it is the reference oracle the batch fold is tested against.

Fold order rule, shared by both paths: a worker's window is emitted when that
worker's first record of a later window arrives, in file order; windows still
open at the end follow, ordered by (window_start, worker_id).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

NS_PER_SECOND = 1_000_000_000

TRACE_SCHEMA = "trace-v1"

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
# Integers up to 2**53 convert to float64 exactly, so numpy's division of
# such counts is the correctly rounded quotient that Python's int / int gives.
_FLOAT_EXACT_MAX = 2**53
# _window_sums sums windows of 3 to this many rows with _exact_sums; it
# costs k(k - 1)/2 vectorized TwoSums for a block of k rows.
_EXACT_SUM_MAX = 8


class TraceError(ValueError):
    """Base class for trace-model failures."""


class InvariantViolation(TraceError):
    """A snapshot field violates a counter invariant."""

    def __init__(self, field_name: str, message: str, line_number: int | None = None):
        where = "" if line_number is None else f"line {line_number}: "
        super().__init__(f"{where}{field_name}: {message}")
        self.field_name = field_name
        self.message = message
        self.line_number = line_number


class ZeroDenominator(TraceError):
    """Normalization is undefined: the snapshot has zero iTLB accesses.

    Callers must discard the sample; treating it as zero would invent data.
    """


class OutOfOrderTimestamp(TraceError):
    """A worker's snapshots regressed in time; the trace is corrupt."""


class ParseError(TraceError):
    """A trace line is not a valid record."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# Wire keys of the JSONL trace format, in canonical emission order.
# The format is shared by real-hardware exporters and the synthetic
# generators in the fleet simulator; unknown keys are rejected.
_WIRE_KEYS = (
    ("worker_id", "worker_id"),
    ("ts_ns", "timestamp_ns"),
    ("itlb", "itlb_accesses"),
    ("br_insn", "branch_instructions"),
    ("br_miss", "branch_misses"),
    ("llc_ref", "cache_references"),
    ("llc_miss", "cache_misses"),
    ("l1d_acc", "l1d_read_accesses"),
    ("l1d_miss", "l1d_read_misses"),
    ("md_reset", "mem_disambiguation_resets"),
)
_WIRE_KEY_SET = frozenset(wire for wire, _field in _WIRE_KEYS)
# Integer fields in column order of TraceBatch.counts: the timestamp, iTLB
# accesses, then the seven counters that normalization carries.
_COLUMN_WIRE = tuple(wire for wire, _field in _WIRE_KEYS[1:])
_COLUMN_FIELDS = tuple(field for _wire, field in _WIRE_KEYS[1:])
# (misses, total) pairs: misses may never exceed the total they are drawn from.
_BOUNDED = (
    ("branch_misses", "branch_instructions"),
    ("cache_misses", "cache_references"),
    ("l1d_read_misses", "l1d_read_accesses"),
)


@dataclass(frozen=True)
class CounterSnapshot:
    """One per-script-execution reading of the monitored hardware events."""

    worker_id: str
    timestamp_ns: int
    itlb_accesses: int
    branch_instructions: int
    branch_misses: int
    cache_references: int
    cache_misses: int
    l1d_read_accesses: int
    l1d_read_misses: int
    mem_disambiguation_resets: int

    def __post_init__(self):
        for name in _COLUMN_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvariantViolation(name, f"must be an integer, got {value!r}")
            if name != "timestamp_ns" and value < 0:
                raise InvariantViolation(name, f"count must be >= 0, got {value}")
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise InvariantViolation(name, f"{value} is outside the int64 range")
        for misses, total in _BOUNDED:
            if getattr(self, misses) > getattr(self, total):
                raise InvariantViolation(misses, f"exceeds {total}")


# Counters carried through normalization; iTLB itself drops out (it would
# always normalize to 1).
METRIC_FIELDS = _COLUMN_FIELDS[2:]


@dataclass(frozen=True)
class NormalizedMetrics:
    """Per-iTLB-access counter values (dimensionless)."""

    branch_instructions: float
    branch_misses: float
    cache_references: float
    cache_misses: float
    l1d_read_accesses: float
    l1d_read_misses: float
    mem_disambiguation_resets: float


@dataclass(frozen=True)
class IntervalAverage:
    """Arithmetic mean of normalized metrics over one tumbling window."""

    worker_id: str
    window_start_ns: int
    mean_metrics: NormalizedMetrics
    sample_count: int


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """Counter snapshots as columns, in file (or generation) order.

    ``counts`` is an int64 array of shape (n, 9) whose columns are the
    timestamp, iTLB accesses and the seven ``METRIC_FIELDS``.  ``worker``
    holds each record's index into ``names``.  ``line`` holds each record's
    source line number, or is None for generated batches.  The counter
    invariants are checked on construction, in one pass when they hold: the
    least count and one test per (misses, total) pair.  Only a batch that
    fails it is scanned row by row for the first offending record, and
    ``CounterSnapshot``'s own check of that record names the field, with the
    record's line when known.
    """

    names: tuple[str, ...]
    worker: np.ndarray
    counts: np.ndarray
    line: np.ndarray | None = None

    def __post_init__(self):
        counts = self.counts
        pairs = [(counts[:, _COLUMN_FIELDS.index(misses)], counts[:, _COLUMN_FIELDS.index(total)])
                 for misses, total in _BOUNDED]
        if counts[:, 1:].min(initial=0) >= 0 and not any((m > t).any() for m, t in pairs):
            return
        bad = (counts[:, 1:] < 0).any(axis=1)
        for misses, total in pairs:
            bad |= misses > total
        row = int(np.flatnonzero(bad)[0])
        try:
            CounterSnapshot(self.names[self.worker[row]], *counts[row].tolist())
        except InvariantViolation as exc:
            line = None if self.line is None else int(self.line[row])
            raise InvariantViolation(exc.field_name, exc.message, line) from None

    @classmethod
    def from_snapshots(cls, snapshots: Iterable[CounterSnapshot]) -> "TraceBatch":
        """Columns of per-record snapshots; worker codes in first-seen order."""
        codes: dict[str, int] = {}
        worker: list[int] = []
        rows: list[tuple[int, ...]] = []
        for s in snapshots:
            worker.append(codes.setdefault(s.worker_id, len(codes)))
            rows.append(tuple(getattr(s, name) for name in _COLUMN_FIELDS))
        return cls(
            tuple(codes),
            np.array(worker, dtype=np.intp),
            np.array(rows, dtype=np.int64).reshape(-1, len(_COLUMN_FIELDS)),
        )

    def __len__(self) -> int:
        return len(self.worker)

    def __iter__(self) -> Iterator[CounterSnapshot]:
        names = self.names
        for w, row in zip(self.worker.tolist(), self.counts.tolist()):
            yield CounterSnapshot(names[w], *row)

    def __eq__(self, other):
        if not isinstance(other, TraceBatch):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True, eq=False)
class IntervalBatch:
    """Interval averages as columns, in emission order (see the module doc).

    ``window`` holds each window's index k (the window starts at
    ``k * NS_PER_SECOND``), ``means`` the (n, 7) mean ``METRIC_FIELDS``.
    ``dropped_zero_itlb`` counts the samples left out for zero iTLB accesses.
    """

    names: tuple[str, ...]
    worker: np.ndarray
    window: np.ndarray
    sample_count: np.ndarray
    means: np.ndarray
    dropped_zero_itlb: int

    def __len__(self) -> int:
        return len(self.worker)

    def __iter__(self) -> Iterator[IntervalAverage]:
        names = self.names
        for w, k, count, means in zip(
            self.worker.tolist(),
            self.window.tolist(),
            self.sample_count.tolist(),
            self.means.tolist(),
        ):
            yield IntervalAverage(names[w], k * NS_PER_SECOND, NormalizedMetrics(*means), count)

    def metric(self, name: str) -> np.ndarray:
        """The mean of one ``METRIC_FIELDS`` entry, per window."""
        return self.means[:, METRIC_FIELDS.index(name)]


def normalize(snapshot: CounterSnapshot) -> NormalizedMetrics:
    """Divide every counter by the snapshot's iTLB accesses.

    Raises ZeroDenominator when ``itlb_accesses == 0``; such samples carry no
    usable signal and must be discarded by the caller.
    """
    denom = snapshot.itlb_accesses
    if denom == 0:
        raise ZeroDenominator(f"snapshot of {snapshot.worker_id!r} has zero iTLB accesses")
    return NormalizedMetrics(
        **{name: getattr(snapshot, name) / denom for name in METRIC_FIELDS}
    )


class IntervalFolder:
    """Folds a per-worker snapshot stream into tumbling 1-second averages.

    The reference oracle for ``fold_intervals``: it takes one record at a
    time, with no columns or sorting.  Snapshots must arrive in
    nondecreasing timestamp order *per worker*; streams of different workers
    may interleave freely.  Samples with zero iTLB accesses are dropped and
    counted in ``dropped_zero_itlb``.

    Means use ``math.fsum`` so the result is invariant under permutation of
    samples within a window.
    """

    def __init__(self):
        self.dropped_zero_itlb = 0
        # worker -> (window_start_ns, last_ts_ns, [NormalizedMetrics, ...])
        self._open: dict[str, tuple[int, int, list[NormalizedMetrics]]] = {}

    def push(self, snapshot: CounterSnapshot) -> list[IntervalAverage]:
        """Feed one snapshot; returns windows completed by this event."""
        worker = snapshot.worker_id
        ts = snapshot.timestamp_ns
        window = (ts // NS_PER_SECOND) * NS_PER_SECOND

        completed: list[IntervalAverage] = []
        open_window, last_ts, samples = self._open.get(worker, (window, ts, []))
        if ts < last_ts:
            raise OutOfOrderTimestamp(
                f"worker {worker!r}: timestamp {ts} after {last_ts}"
            )
        if window > open_window:
            if samples:
                completed.append(self._emit(worker, open_window, samples))
            open_window, samples = window, []

        # a dropped sample still moves the timestamp watermark
        if snapshot.itlb_accesses == 0:
            self.dropped_zero_itlb += 1
        else:
            samples.append(normalize(snapshot))
        self._open[worker] = (open_window, ts, samples)
        return completed

    def flush(self) -> list[IntervalAverage]:
        """Close every open window, ordered by (window_start, worker_id)."""
        out = [
            self._emit(worker, window, samples)
            for worker, (window, _ts, samples) in self._open.items()
            if samples
        ]
        self._open.clear()
        out.sort(key=lambda avg: (avg.window_start_ns, avg.worker_id))
        return out

    def _emit(self, worker: str, window: int, samples: list[NormalizedMetrics]) -> IntervalAverage:
        count = len(samples)
        means = {
            name: math.fsum(getattr(m, name) for m in samples) / count
            for name in METRIC_FIELDS
        }
        return IntervalAverage(
            worker_id=worker,
            window_start_ns=window,
            mean_metrics=NormalizedMetrics(**means),
            sample_count=count,
        )


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a + b rounded, its exact error), elementwise and branch-free (Knuth)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _exact_sums(values: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each column of a (k, m) array of finite
    floats whose partial sums do not overflow: bit for bit ``math.fsum``.

    ``math.fsum``'s algorithm (Shewchuk's), run on all columns at once.
    Adding row j through rows 0..j-1 of the partials by TwoSum keeps them a
    non-overlapping expansion of the exact sum, in increasing magnitude;
    where ``fsum`` drops a zero partial this leaves one in place, and a zero
    passes through TwoSum exactly.  The expansion is then rounded from the
    top: partials are added while the addition is exact.  At the first
    inexact one, a remainder of exactly half an ulp (doubling it lands on a
    float) was a tie that round-half-even broke; if the nearest nonzero
    partial below has the remainder's sign, the exact sum lies past the tie
    and the result moves one ulp toward it.  The top starts from +0.0, so a
    sum of -0.0 comes out 0.0, as ``fsum`` gives it.
    """
    partials = np.empty_like(values)
    for j, x in enumerate(values):
        for i in range(j):
            x, partials[i] = _two_sum(x, partials[i])
        partials[j] = x
    hi = np.zeros(values.shape[1])
    lo = np.zeros_like(hi)
    below = np.zeros_like(hi)
    for p in partials[::-1]:
        done = lo != 0.0
        below = np.where(done & (below == 0.0), p, below)
        s = hi + p
        lo = np.where(done, lo, p - (s - hi))
        hi = np.where(done, hi, s)
    twice = 2.0 * lo
    moved = hi + twice
    half_way = (np.sign(lo) * np.sign(below) > 0.0) & (moved - hi == twice)
    return np.where(half_way, moved, hi)


def _per_itlb(counts: np.ndarray, itlb: np.ndarray) -> np.ndarray:
    """Each row of int64 ``counts`` divided by its nonzero ``itlb``, as
    Python's int / int divides: numpy's float division is that correctly
    rounded quotient for integers up to ``_FLOAT_EXACT_MAX``, and a row with
    a larger one is divided in Python."""
    normalized = counts / itlb[:, None]
    for i in np.flatnonzero(np.maximum(counts.max(axis=1, initial=0), itlb) > _FLOAT_EXACT_MAX):
        denom = int(itlb[i])
        normalized[i] = [value / denom for value in counts[i].tolist()]
    return normalized


def _window_sums(values: np.ndarray, offsets: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each window's column sums of ``values``, whose window w is the
    ``count[w]`` rows from row ``offsets[w]``: correctly rounded, bit for bit
    ``math.fsum``, so they do not depend on the order of a window's rows.

    The correctly rounded sum is unique, so each window width takes its
    cheapest exact route: a window of at most two rows takes one IEEE
    addition (``np.add.reduceat``), which is already correctly rounded;
    windows of 3 to ``_EXACT_SUM_MAX`` rows go through ``_exact_sums``, one
    zero-padded block of all such windows per column; a wider window takes
    ``math.fsum`` of slices of one contiguous column.
    """
    # Final for windows of one or two rows; sending those through
    # _exact_sums too nearly doubles the fold.
    sums = np.add.reduceat(values, offsets, axis=0)
    narrow = np.flatnonzero((count > 2) & (count <= _EXACT_SUM_MAX))
    if narrow.size:
        # slot s of window w is its row s, or a 0.0 past its last row; one
        # column at a time keeps the block (k, windows)
        slot = np.arange(count[narrow].max())[:, None]
        inside = slot < count[narrow]
        at = np.where(inside, offsets[narrow] + slot, 0)
        for col in range(values.shape[1]):
            sums[narrow, col] = _exact_sums(np.where(inside, values[at, col], 0.0))
    # memoryview slices: no array or list is made per window
    wide = np.flatnonzero(count > _EXACT_SUM_MAX)
    if wide.size:
        bounds = list(zip(offsets[wide].tolist(), (offsets[wide] + count[wide]).tolist()))
        for col in range(values.shape[1]):
            column = memoryview(np.ascontiguousarray(values[:, col]))
            sums[wide, col] = [math.fsum(column[a:b]) for a, b in bounds]
    return sums


def _grid_means(counts: np.ndarray, samples: int, metrics: tuple[str, ...]) -> np.ndarray:
    """The window means of the ``METRIC_FIELDS`` in ``metrics``, one column
    each, of (n, 9) ``counts`` whose every run of ``samples`` rows is one
    window with no zero-iTLB record, as the fleet lays out its workers' draws.

    Bit for bit the means ``fold_intervals`` gives those windows (the same
    ``_per_itlb`` and ``_window_sums``), with no sort, grouping, emit order
    or unread column.  Raises ValueError for a record with zero iTLB
    accesses, which ``fold_intervals`` would drop.
    """
    if not counts[:, 1].all():
        raise ValueError("a grid record has zero iTLB accesses")
    columns = [2 + METRIC_FIELDS.index(name) for name in metrics]
    windows = len(counts) // samples
    sums = _window_sums(_per_itlb(counts[:, columns], counts[:, 1]),
                        np.arange(windows) * samples, np.full(windows, samples))
    return sums / samples


def fold_intervals(records: TraceBatch | Iterable[CounterSnapshot]) -> IntervalBatch:
    """Fold a trace into 1-second window averages, exactly as IntervalFolder does.

    Records are stably sorted by worker, so each worker's records keep their
    file order; a timestamp regression raises OutOfOrderTimestamp for the
    first offending record in file order.  Zero-iTLB samples are dropped and
    counted.  Samples are normalized by ``_per_itlb``, and window sums are
    ``_window_sums``: correctly rounded, bit for bit the ``math.fsum`` that
    IntervalFolder takes, so means do not depend on the order of samples
    within a window.
    """
    batch = records if isinstance(records, TraceBatch) else TraceBatch.from_snapshots(records)
    n = len(batch)
    order = np.argsort(batch.worker, kind="stable")
    worker = batch.worker[order]
    ts = batch.counts[order, 0]
    same_worker = worker[1:] == worker[:-1]
    regressed = np.flatnonzero(same_worker & (ts[1:] < ts[:-1])) + 1
    if regressed.size:
        i = int(regressed[np.argmin(order[regressed])])
        raise OutOfOrderTimestamp(
            f"worker {batch.names[worker[i]]!r}: timestamp {ts[i]} after {ts[i - 1]}"
        )

    # Groups are runs of one worker's records in one window.
    window = ts // NS_PER_SECOND
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = ~same_worker | (window[1:] != window[:-1])
    starts = np.flatnonzero(new_group)
    group = np.cumsum(new_group) - 1
    # A group closes at the first record of its worker's next group; the
    # last group of each worker is still open at the end of the trace.
    still_open = np.append(worker[starts[1:]] != worker[starts[:-1]], True)
    closed_at = np.where(still_open, n, np.append(order[starts[1:]], n))

    rows = batch.counts[order]
    kept = rows[:, 1] != 0
    rows, kept_group = rows[kept], group[kept]
    sample_count = np.bincount(kept_group, minlength=starts.size)
    emitted = np.flatnonzero(sample_count)
    count = sample_count[emitted]
    sums = _window_sums(_per_itlb(rows[:, 2:], rows[:, 1]), np.cumsum(count) - count, count)

    # Closed windows in the file order of their closing records, then the
    # open ones by (window, worker name).
    rank = np.empty(len(batch.names), dtype=np.intp)
    rank[sorted(range(len(batch.names)), key=batch.names.__getitem__)] = np.arange(rank.size)
    first = starts[emitted]
    emit_order = np.lexsort((rank[worker[first]], window[first], closed_at[emitted]))
    first = first[emit_order]
    return IntervalBatch(
        names=batch.names,
        worker=worker[first],
        window=window[first],
        sample_count=count[emit_order],
        means=sums[emit_order] / count[emit_order, None],
        dropped_zero_itlb=int(n - np.count_nonzero(kept)),
    )


def _unique_object(pairs: list[tuple[str, object]]) -> dict:
    """The JSON decoders' object hook: a repeated key is a ValueError."""
    record = dict(pairs)
    if len(record) != len(pairs):
        seen: set[str] = set()
        for key, _value in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return record


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_object)
_COLUMN_TYPES = (int,) * len(_COLUMN_WIRE)


def _is_data_line(line_number: int, line: str, schema: str) -> bool:
    """Whether a trace or histogram CSV line is data: blank and ``#`` lines are
    not.  Raises ParseError for a ``# schema:`` header naming a schema other
    than ``schema``, or for an invalid UTF-8 byte b anywhere in the line (read
    with ``surrogateescape`` as the lone surrogate U+DC00 + b)."""
    try:
        line.encode()
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ParseError(line_number, f"invalid UTF-8 byte 0x{byte:02x}") from None
    stripped = line.strip()
    if stripped.startswith("#"):
        key, colon, version = stripped[1:].partition(":")
        if colon and key.strip() == "schema" and version.strip() != schema:
            kind = schema.partition("-")[0]
            raise ParseError(line_number, f"unsupported {kind} schema {version.strip()!r}")
        return False
    return bool(stripped)


def _parse_line(line_number: int, line: str) -> tuple[str, tuple[int, ...]]:
    """Check one record's keys and types; returns its worker and column values."""
    try:
        record = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_number, f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # a repeated key, or an integer past Python's digit limit
        raise ParseError(line_number, str(exc)) from None
    if not isinstance(record, dict):
        raise ParseError(line_number, "record is not a JSON object")

    if record.keys() != _WIRE_KEY_SET:
        unknown = sorted(record.keys() - _WIRE_KEY_SET)
        missing = sorted(_WIRE_KEY_SET - record.keys())
        parts = []
        if unknown:
            parts.append(f"unknown keys {unknown}")
        if missing:
            parts.append(f"missing keys {missing}")
        raise ParseError(line_number, "; ".join(parts))

    worker = record["worker_id"]
    if not isinstance(worker, str):
        raise ParseError(line_number, "worker_id must be a string")
    values = tuple(map(record.__getitem__, _COLUMN_WIRE))
    if tuple(map(type, values)) != _COLUMN_TYPES:  # json yields bool for true/false
        wire = next(w for w, v in zip(_COLUMN_WIRE, values) if type(v) is not int)
        raise ParseError(line_number, f"{wire} must be an integer")
    if max(values) > _INT64_MAX or min(values) < _INT64_MIN:
        wire = next(w for w, v in zip(_COLUMN_WIRE, values) if not _INT64_MIN <= v <= _INT64_MAX)
        raise ParseError(line_number, f"{wire} is outside the int64 range")
    return worker, values


# The counters of one record after its worker: ``,"ts_ns":%s`` and so on up to
# the closing brace.  emit_trace writes it, the fast-path regex matches it, and
# ingest_trace writes each record the JSON decoder read back into it.
_TAIL = "".join(f',"{wire}":%s' for wire in _COLUMN_WIRE)
# One record in exactly emit_trace's row form: keys in canonical order, no
# whitespace, a worker name of printable ASCII without a quote or backslash
# (so the JSON string is the name itself), and integers of at most 18 digits
# with no leading zeros (so every value fits in int64), ending "\n" or "\r\n".
# Group 2 is the tail.  It is compiled on first use (and kept by re's cache),
# so importing the module costs no compile.
_INT = "-?(?:0|[1-9][0-9]{0,17})"
_CANONICAL_ROW = (
    r'\{"worker_id":"([ !#-\[\]-~]*)"(' + _TAIL % ((_INT,) * len(_COLUMN_WIRE)) + r")\}\r?\n?"
)
# A tail read as numbers: "," and ":" become spaces and the other key bytes go,
# so the "1" of "l1d_acc" and of "l1d_miss" is left as a number before the
# value.  _TAIL_VALUES picks the nine values out of each row of eleven numbers.
_TAIL_TABLE = bytes.maketrans(b",:", b"  ")
_TAIL_DELETE = bytes(set("".join(_COLUMN_WIRE).encode() + b'"') - set(b"0123456789"))
_TAIL_VALUES = [0, 1, 2, 3, 4, 5, 7, 9, 10]
_TAIL_WIDTH = 11
# The lines ingest_trace reads at once: readlines' hint, in characters.
_READ_CHUNK = 1 << 18
_NAME, _ROW_TAIL = itemgetter(1), itemgetter(2)


def _parse_tails(tails: list[str]) -> np.ndarray:
    """The (n, 9) counts of canonical row tails, in one bulk parse.

    A tail holds only ``,"key":`` prefixes and integers, so one translate
    leaves numbers between spaces: the values, and the "1" of each "l1d_"
    key, which the column selection drops.  Every integer is in int64 range,
    where np.fromstring is exact (outside it, it would saturate): the regex
    allows at most 18 digits, and ``_parse_line`` rejects a decoded value
    outside int64.
    """
    text = "".join(tails).encode("ascii").translate(_TAIL_TABLE, _TAIL_DELETE)
    numbers = np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, _TAIL_WIDTH)
    return numbers[:, _TAIL_VALUES]


def _read_chunk(chunk: list[str], first: int):
    """The worker names, canonical tails and line numbers of the records in
    one chunk of lines, whose first line is line ``first``, and the
    ParseError that ends the read in this chunk, or None.

    One map of the row regex takes the canonical rows; only the lines it
    rejects go through ``_is_data_line`` and the decoder, in file order, up
    to the first bad one.  The matches die with this call.
    """
    rows = list(map(re.compile(_CANONICAL_ROW).fullmatch, chunk))
    data = np.ones(len(rows), dtype=bool)
    error = None
    if None in rows:
        for i, row in enumerate(rows):
            if row is not None:
                continue
            try:
                if not _is_data_line(first + i, chunk[i], TRACE_SCHEMA):
                    data[i] = False
                    continue
                name, values = _parse_line(first + i, chunk[i].strip())
            except ParseError as exc:
                error = exc
                del rows[i:]
                data = data[:i]
                break
            rows[i] = (None, name, _TAIL % values)  # indexed as a match is
        rows = list(filter(None, rows))
    return list(map(_NAME, rows)), list(map(_ROW_TAIL, rows)), first + np.flatnonzero(data), error


def ingest_trace(path: str | Path) -> TraceBatch:
    """Read and validate a JSONL trace file into a batch, in file order.

    ``_is_data_line`` skips blank and comment lines.  The file is read in
    chunks of about ``_READ_CHUNK`` characters (``_read_chunk``).  Lines in
    exactly ``emit_trace``'s row form (canonical key order, no whitespace, a
    printable-ASCII worker name without quotes or backslashes, integers of
    at most 18 digits) are taken by one map of a regex over the chunk.
    Every other line goes through the JSON decoder, and its values are
    written back as a canonical tail, so one bulk parse per chunk reads the
    integers of every record: a line either path reads gives the same
    record, and a bad line gives the same error.  No regex match outlives
    its chunk (a match keeps its whole line alive).

    Raises ParseError (invalid UTF-8, another schema, bad JSON, duplicate,
    unknown or missing keys, wrong types, integers outside int64) with the
    offending line number, or InvariantViolation with the offending field
    name and line number.  When several lines are bad, the first of them in file
    order is reported.
    """
    codes: dict[str, int] = {}
    worker: list[int] = []
    counts = [np.empty((0, len(_COLUMN_WIRE)), dtype=np.int64)]
    lines = [np.empty(0, dtype=np.int64)]
    error = None
    first = 1
    # Lines end at "\n" only: JSON allows a bare "\r" as whitespace.  An
    # invalid UTF-8 byte b is read as the lone surrogate U+DC00 + b, which the
    # canonical row regex never matches: only _is_data_line looks for one.
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
        while error is None and (chunk := handle.readlines(_READ_CHUNK)):
            names, tails, line, error = _read_chunk(chunk, first)
            for name in dict.fromkeys(names):
                codes.setdefault(name, len(codes))
            worker.extend(map(codes.__getitem__, names))
            counts.append(_parse_tails(tails))
            lines.append(line)
            first += len(chunk)
    # The invariants of the lines before a parse error are checked first,
    # so the first bad line in file order is the one reported.
    batch = TraceBatch(
        tuple(codes),
        np.array(worker, dtype=np.intp),
        np.concatenate(counts),
        np.concatenate(lines),
    )
    if error is not None:
        raise error
    return batch


_ROW_FORMAT = '{"worker_id":%s' + _TAIL + "}\n"
# The rows _format_blocks fills with one % and yields as one string.
_FORMAT_BLOCK = 1024


def _format_blocks(row_format: str, n: int, columns: Callable[[slice], tuple]) -> Iterator[str]:
    """``row_format`` filled from ``n`` rows, one string per ``_FORMAT_BLOCK`` rows.
    ``columns(rows)`` gives the object columns of the slice ``rows`` side by side;
    one ``%`` fills a block, so each Python int, float or str is written as
    ``%s``, ``%r`` or ``%d`` writes it anywhere."""
    for start in range(0, n, _FORMAT_BLOCK):
        table = np.column_stack(columns(slice(start, start + _FORMAT_BLOCK)))
        yield (row_format * len(table)) % tuple(table.ravel().tolist())


def emit_trace(batch: TraceBatch, handle: TextIO) -> int:
    """Write a batch as canonical JSONL to an open text handle; returns the
    number of records.

    ``ingest_trace`` reads the written file back exactly.  Each line is the
    JSON object of one record's wire keys in canonical order, written as
    ``json.dumps`` writes it with ``separators=(",", ":")``.  The rows (the
    quoted worker name, then the counts as Python ints) are written by
    ``_format_blocks``, ``_FORMAT_BLOCK`` at a time.
    """
    quoted = np.array([json.dumps(name) for name in batch.names], dtype=object)
    handle.write(f"# schema: {TRACE_SCHEMA}\n")
    handle.writelines(_format_blocks(_ROW_FORMAT, len(batch), lambda rows: (
        quoted[batch.worker[rows]], batch.counts[rows].astype(object))))
    return len(batch)
