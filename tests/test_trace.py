"""Trace-model tests: invariants, normalization, interval folding, JSONL IO."""

from __future__ import annotations

import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectreguard import trace
from spectreguard.profiles import AttackVariant, BenignProfile, generate_attack, generate_benign
from spectreguard.profiles import _fleet_counts
from spectreguard.trace import (
    CounterSnapshot,
    IntervalFolder,
    InvariantViolation,
    OutOfOrderTimestamp,
    ParseError,
    TraceBatch,
    TraceError,
    ZeroDenominator,
    emit_trace,
    fold_intervals,
    ingest_trace,
    normalize,
)

PINNED_TRACE = Path(__file__).parent / "data" / "pinned_trace.jsonl"


def emit_file(batch, path):
    """Write a trace file through the handle-only writer."""
    with open(path, "w", encoding="utf-8") as handle:
        emit_trace(batch, handle)


def snap(worker="w0", ts=0, itlb=1000, br=604_710, br_miss=0, llc=30_000,
         llc_miss=5_000, l1d=300_000, l1d_miss=15_000, md=2_644_730):
    return CounterSnapshot(
        worker_id=worker,
        timestamp_ns=ts,
        itlb_accesses=itlb,
        branch_instructions=br,
        branch_misses=br_miss,
        cache_references=llc,
        cache_misses=llc_miss,
        l1d_read_accesses=l1d,
        l1d_read_misses=l1d_miss,
        mem_disambiguation_resets=md,
    )


# The reference row form: each wire key of the trace format, in canonical
# order, with the snapshot field it carries.
WIRE_FIELDS = (
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


def to_wire(snapshot):
    """One snapshot as the dict its JSONL record decodes to."""
    return {wire: getattr(snapshot, field) for wire, field in WIRE_FIELDS}


class TestSnapshotInvariants:
    def test_negative_count_rejected(self):
        with pytest.raises(InvariantViolation) as err:
            snap(itlb=-1)
        assert err.value.field_name == "itlb_accesses"

    def test_misses_cannot_exceed_references(self):
        with pytest.raises(InvariantViolation) as err:
            snap(br=10, br_miss=11)
        assert err.value.field_name == "branch_misses"
        with pytest.raises(InvariantViolation):
            snap(llc=5, llc_miss=6)
        with pytest.raises(InvariantViolation):
            snap(l1d=5, l1d_miss=6)

    def test_bool_counts_rejected(self):
        with pytest.raises(InvariantViolation):
            snap(md=True)

    def test_counts_must_fit_int64(self):
        with pytest.raises(InvariantViolation) as err:
            snap(br=2**63)
        assert err.value.field_name == "branch_instructions"
        snap(br=2**63 - 1)


class TestNormalize:
    def test_full_strength_attack_ratio(self):
        # 423171540 branches over 1000 iTLB accesses
        metrics = normalize(snap(br=423_171_540, itlb=1000))
        assert metrics.branch_instructions == 423_171_540 / 1000

    def test_unamplified_attack_ratio(self):
        metrics = normalize(snap(br=604_710, itlb=1000))
        assert metrics.branch_instructions == 604.71

    def test_zero_numerators(self):
        metrics = normalize(snap(itlb=1, br=0, br_miss=0, llc=0, llc_miss=0,
                                 l1d=0, l1d_miss=0, md=0))
        assert metrics.branch_instructions == 0.0
        assert metrics.mem_disambiguation_resets == 0.0

    def test_zero_itlb_raises(self):
        with pytest.raises(ZeroDenominator):
            normalize(snap(itlb=0))

    def test_scale_covariance_exact(self):
        base = snap()
        scaled = snap(itlb=7000, br=604_710 * 7, llc=210_000, llc_miss=35_000,
                      l1d=2_100_000, l1d_miss=105_000, md=2_644_730 * 7)
        assert normalize(base) == normalize(scaled)


class TestFoldIntervals:
    def test_mean_of_two_samples(self):
        snaps = [snap(ts=0, br=100_000, itlb=1000),
                 snap(ts=500_000_000, br=300_000, itlb=1000)]
        (avg,) = fold_intervals(iter(snaps))
        assert avg.mean_metrics.branch_instructions == 200.0
        assert avg.sample_count == 2
        assert avg.window_start_ns == 0

    def test_single_sample_identity(self):
        s = snap(ts=1_500_000_000)
        (avg,) = fold_intervals(iter([s]))
        assert avg.mean_metrics == normalize(s)
        assert avg.window_start_ns == 1_000_000_000

    def test_uniform_trace_against_scalar_reference(self):
        # 1000 snapshots uniformly over 10 s -> 10 windows of ~100 samples
        snaps = [snap(ts=i * 10_000_000, br=(i % 7 + 1) * 1000, itlb=100 + i % 13)
                 for i in range(1000)]
        averages = list(fold_intervals(iter(snaps)))
        assert len(averages) == 10
        assert all(avg.sample_count == 100 for avg in averages)

        # scalar reference: plain dict-of-lists mean per window
        reference: dict[int, list[float]] = {}
        for s in snaps:
            window = (s.timestamp_ns // 1_000_000_000) * 1_000_000_000
            reference.setdefault(window, []).append(
                s.branch_instructions / s.itlb_accesses
            )
        for avg in averages:
            values = reference[avg.window_start_ns]
            expected = math.fsum(values) / len(values)
            assert avg.mean_metrics.branch_instructions == pytest.approx(expected, rel=1e-12)
            assert avg.sample_count == len(values)

    def test_permutation_invariant_within_window(self):
        snaps = [snap(ts=i * 1_000_000, br=(i * 37) % 1000 * 977 + 13, itlb=997)
                 for i in range(50)]
        (forward,) = fold_intervals(iter(snaps))
        # reversed arrival breaks per-worker ordering unless same timestamps
        same_ts = [snap(ts=0, br=s.branch_instructions, itlb=997) for s in snaps]
        (reordered,) = fold_intervals(iter(reversed(same_ts)))
        (original,) = fold_intervals(iter(same_ts))
        assert reordered.mean_metrics == original.mean_metrics

    def test_out_of_order_rejected(self):
        snaps = [snap(ts=5_000_000), snap(ts=4_000_000)]
        with pytest.raises(OutOfOrderTimestamp):
            list(fold_intervals(iter(snaps)))

    def test_workers_interleave_freely(self):
        snaps = [snap(worker="a", ts=10), snap(worker="b", ts=5),
                 snap(worker="a", ts=20), snap(worker="b", ts=6)]
        averages = list(fold_intervals(iter(snaps)))
        assert {a.worker_id for a in averages} == {"a", "b"}
        assert all(a.sample_count == 2 for a in averages)

    def test_zero_itlb_samples_dropped_with_counter(self):
        folder = IntervalFolder()
        folder.push(snap(ts=0, itlb=0))
        folder.push(snap(ts=1, itlb=1000))
        out = folder.flush()
        assert folder.dropped_zero_itlb == 1
        assert len(out) == 1 and out[0].sample_count == 1

    def test_window_with_only_dropped_samples_emits_nothing(self):
        folder = IntervalFolder()
        folder.push(snap(ts=0, itlb=0))
        assert folder.flush() == []

    def test_open_windows_ordered_by_worker_name(self):
        # "b" appears first, so its worker code is 0; the flush order is by name
        snaps = [snap(worker="b", ts=1), snap(worker="a", ts=2), snap(worker="c", ts=3)]
        folded = fold_intervals(snaps)
        assert [a.worker_id for a in folded] == ["a", "b", "c"]
        assert [a.worker_id for a in _stream_fold(snaps)[0]] == ["a", "b", "c"]


def _stream_fold(snaps):
    """The streaming IntervalFolder, the reference for the batch fold."""
    folder = IntervalFolder()
    out = []
    for s in snaps:
        out.extend(folder.push(s))
    out.extend(folder.flush())
    return out, folder.dropped_zero_itlb


def _exact(averages):
    """Every field of each average; means as float hex, so equality is bitwise."""
    return [
        (a.worker_id, a.window_start_ns, a.sample_count,
         [m.hex() for m in dataclasses.astuple(a.mean_metrics)])
        for a in averages
    ]


def _assert_fold_matches_stream(snaps):
    try:
        expected, dropped = _stream_fold(snaps)
    except OutOfOrderTimestamp as exc:
        with pytest.raises(OutOfOrderTimestamp) as err:
            fold_intervals(snaps)
        assert str(err.value) == str(exc)
        return None
    folded = fold_intervals(snaps)
    assert _exact(folded) == _exact(expected)
    assert folded.dropped_zero_itlb == dropped
    return folded


# Name order differs from first-appearance order for most interleavings.
ORACLE_WORKERS = ("w2", "w0", "w1", "w10")
SECOND = trace.NS_PER_SECOND
# A timestamp's offset into its window: often a window edge or next to one.
OFFSETS = st.one_of(st.sampled_from([0, 1, SECOND - 1]),
                    st.integers(min_value=0, max_value=SECOND - 1))


@st.composite
def interleaved_traces(draw):
    """Interleaved multi-worker traces; Hypothesis picks the structure
    (workers, window indices and offsets, zero-iTLB rows) and a seed fills
    in the counts."""
    may_regress = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    last: dict[str, int] = {}
    snaps = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        worker = draw(st.sampled_from(ORACLE_WORKERS))
        if worker in last:
            # stay in the window, cross into the next one, skip several, or
            # (if allowed) step back a window
            window = last[worker] // SECOND + draw(
                st.integers(min_value=-1 if may_regress else 0, max_value=4))
        else:
            window = draw(st.integers(min_value=-3, max_value=3))
        ts = window * SECOND + draw(OFFSETS)
        if worker in last and not may_regress:
            ts = max(ts, last[worker])
        last[worker] = ts
        itlb = 0 if draw(st.integers(min_value=0, max_value=4)) == 0 else int(rng.integers(1, 10_000))
        br, llc, l1d, md = (int(v) for v in rng.integers(0, 10_000_000, 4))
        br_miss, llc_miss, l1d_miss = (int(rng.integers(0, total + 1)) for total in (br, llc, l1d))
        snaps.append(snap(worker=worker, ts=ts, itlb=itlb, br=br, br_miss=br_miss, llc=llc,
                          llc_miss=llc_miss, l1d=l1d, l1d_miss=l1d_miss, md=md))
    return snaps


class TestBatchFoldOracle:
    """fold_intervals must equal the streaming IntervalFolder exactly."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(interleaved_traces())
    def test_matches_streaming_folder(self, snaps):
        _assert_fold_matches_stream(snaps)

    def test_pinned_trace_matches_streaming_folder(self):
        # zero-iTLB rows, windows of 1, 2 and 3 samples, an all-dropped window
        snaps = list(ingest_trace(PINNED_TRACE))
        folded = _assert_fold_matches_stream(snaps)
        assert sorted(folded.sample_count.tolist()) == [1, 1, 1, 1, 2, 3]
        assert folded.dropped_zero_itlb == 2

    def test_windows_of_many_sizes(self):
        # windows of 1 to 1000 samples: one addition up to two, the
        # vectorized exact sum from 3 to 8, math.fsum beyond
        profile = BenignProfile.default()
        snaps = []
        for size in (1, 2, 3, 4, 5, 17, 100, 1000):
            batch = generate_benign(profile, 2 * size, seed=size, worker_id=f"w{size}",
                                    samples_per_window=size)
            snaps.extend(batch)
        folded = _assert_fold_matches_stream(snaps)
        assert sorted(set(folded.sample_count.tolist())) == [1, 2, 3, 4, 5, 17, 100, 1000]

    def test_large_counts_divide_exactly(self):
        # counts above 2**53 round on conversion to float64, but Python's
        # int / int is correctly rounded: (2**60 + 32) / 3 differs by one ulp
        big = 2**60 + 32
        assert big / 3 != float(big) / 3
        snaps = [snap(ts=0, itlb=3, br=big, br_miss=big, llc=big, llc_miss=big,
                      l1d=big, l1d_miss=big, md=big)]
        _assert_fold_matches_stream(snaps)

    def test_narrow_windows_never_reach_fsum(self, monkeypatch):
        # windows of 3 to 8 samples, one of them narrowed by a zero-iTLB row
        snaps = []
        for size in range(3, trace._EXACT_SUM_MAX + 1):
            batch = generate_benign(BenignProfile.default(), 4 * size, seed=size,
                                    worker_id=f"w{size}", samples_per_window=size)
            snaps.extend(batch)
        snaps += [snap(worker="z", ts=i, itlb=0 if i == 3 else 1000 + i) for i in range(4)]
        expected, dropped = _stream_fold(snaps)

        def forbidden(values):
            raise AssertionError("a window of at most 8 samples reached math.fsum")

        monkeypatch.setattr(trace.math, "fsum", forbidden)
        folded = fold_intervals(snaps)
        assert _exact(folded) == _exact(expected)
        assert folded.dropped_zero_itlb == dropped == 1
        assert sorted(set(folded.sample_count.tolist())) == list(range(3, 9))


_GRID_FIELDS = ("branch_instructions", "mem_disambiguation_resets")


def _grid_batch(counts, workers):
    """A batch of workers' records, one worker after another, as the fleet lays them out."""
    names = tuple(f"worker-{i:03d}" for i in range(workers))
    return TraceBatch(names, np.repeat(np.arange(workers), len(counts) // workers), counts)


def _folded_on_grid(batch, windows):
    """fold_intervals' two rule columns, each window at its (worker, window) row."""
    folded = fold_intervals(batch)
    at = folded.worker * windows + folded.window
    assert np.array_equal(np.sort(at), np.arange(len(batch.names) * windows))
    out = np.empty((len(at), len(_GRID_FIELDS)))
    for col, name in enumerate(_GRID_FIELDS):
        out[at, col] = folded.metric(name)
    return out


class TestGridMeans:
    """``_grid_means`` is bit for bit ``fold_intervals`` on the fleet's grid."""

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 8, 9])
    def test_fleet_grid_equals_fold_intervals(self, e):
        # e = 2 | 3 and 8 | 9 cross the sum rule's two boundaries
        windows, n_attack, n_benign = 5, 2, 30
        rngs = iter([np.random.default_rng([e, i]) for i in range(n_attack + n_benign)])
        counts = _fleet_counts(rngs, BenignProfile.default(), n_attack, n_benign, windows * e, e,
                               (AttackVariant.PHT, 12, 0))
        got = trace._grid_means(counts, e, _GRID_FIELDS)
        expected = _folded_on_grid(_grid_batch(counts, n_attack + n_benign), windows)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @pytest.mark.parametrize("e", [1, 2, 3, 9])
    def test_counts_above_2_53_equal_fold_intervals_and_fsum(self, e):
        # per-record magnitudes from 2**10 to 2**62: rows above 2**53 divide
        # as Python ints, and the sums mix far exponents
        workers, windows = 3, 4
        n = workers * windows * e
        rng = np.random.default_rng(e)
        counts = np.zeros((n, 9), dtype=np.int64)
        counts[:, 0] = np.repeat(np.arange(workers * windows) % windows, e) * 10**9
        for col in (1, 2, 8):
            counts[:, col] = rng.integers(1, 2 ** rng.integers(10, 63, n))
        assert (counts[:, [1, 2, 8]] > 2**53).any(axis=1).sum() > n // 4
        got = trace._grid_means(counts, e, _GRID_FIELDS)
        expected = _folded_on_grid(_grid_batch(counts, workers), windows)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
        rows = counts.tolist()
        exact = [[math.fsum(row[col] / row[1] for row in rows[w * e:(w + 1) * e]) / e
                  for col in (2, 8)] for w in range(workers * windows)]
        assert got.view(np.int64).tolist() == np.array(exact).view(np.int64).tolist()

    def test_zero_itlb_rejected(self):
        counts = np.ones((4, 9), dtype=np.int64)
        counts[2, 1] = 0
        with pytest.raises(ValueError, match="zero iTLB"):
            trace._grid_means(counts, 2, _GRID_FIELDS)


def _fsum_columns(values):
    return np.array([math.fsum(column) for column in values.T])


# Values around 1 whose sums tie half-way between two floats: 2**-53 is half
# an ulp of 1, and 1 + 2**-52 is one ulp above 1.
_TIES = np.array([1.0, 0.5, 1.0 + 2**-52, 2**-53, 2**-54, 2**-106])


@st.composite
def summand_blocks(draw):
    """A (k, m) block of summands, k from 1 to 8, from a family that makes
    a step of fsum's rounding matter.  Hypothesis draws any finite floats
    (subnormals and -0.0 included) itself; for the other families it picks
    the shape and a seed fills in the values: exponents hundreds apart,
    exact cancellations, and ties, non-negative as window sums are or with
    either sign."""
    k = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=64))
    family = draw(st.sampled_from(["finite", "far", "cancel", "ties", "signed ties"]))
    if family == "finite":
        values = draw(st.lists(st.floats(min_value=-1e300, max_value=1e300),
                               min_size=k * m, max_size=k * m))
        return np.array(values, dtype=np.float64).reshape(k, m)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    sign = rng.choice([1.0, -1.0], (k, m))
    if family == "far":
        return sign * np.ldexp(rng.choice([1.0, 1.5], (k, m)), rng.integers(-1074, 990, (k, m)))
    if family == "cancel":
        return rng.choice([1e100, -1e100, 1.0, -1.0, 0.0, -0.0], (k, m))
    ties = rng.choice(_TIES, (k, m))
    return ties if family == "ties" else sign * ties


class TestExactSums:
    """``_exact_sums`` is bit for bit ``math.fsum`` on every column."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(summand_blocks())
    def test_matches_fsum(self, values):
        got = trace._exact_sums(values)
        assert got.view(np.int64).tolist() == _fsum_columns(values).view(np.int64).tolist()

    @pytest.mark.parametrize("column", [
        [-0.0, -0.0, -0.0],
        [-0.0],
        [3.5],
        [1e100, 1.0, -1e100],
        [1e-16, 1.0, 1e16],  # fsum's own case: the 1e-16 breaks the tie upward
        [1.0, 2**-53, 2**-106],
        [-1.0, -(2**-53), -(2**-106)],
        [2**-106, 0.5, 0.5, 2**-53],  # a zero partial between the tie and 2**-106
        [1.0 + 2**-52, 2**-53, 2**-54, -(2**-54)],
    ])
    def test_fixed_columns(self, column):
        values = np.array(column, dtype=np.float64)[:, None]
        got = trace._exact_sums(values)
        assert got.view(np.int64).tolist() == _fsum_columns(values).view(np.int64).tolist()


class TestTraceIO:
    def test_round_trip_exact(self, tmp_path):
        snaps = [snap(worker=f"w{i}", ts=i * 123_456, br=604_710 + i) for i in range(20)]
        path = tmp_path / "trace.jsonl"
        emit_file(TraceBatch.from_snapshots(snaps), path)
        assert list(ingest_trace(path)) == snaps

    def test_three_line_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        emit_file(TraceBatch.from_snapshots([snap(ts=i) for i in range(3)]), path)
        assert len(list(ingest_trace(path))) == 3

    def test_empty_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(ingest_trace(path)) == []

    def test_invariant_violation_reported_with_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = to_wire(snap())
        record["br_miss"] = record["br_insn"] + 1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(InvariantViolation) as err:
            list(ingest_trace(path))
        assert err.value.field_name == "branch_misses"

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(to_wire(snap()))
        record = to_wire(snap())
        record["surprise"] = 1
        path.write_text(good + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ParseError) as err:
            list(ingest_trace(path))
        assert err.value.line_number == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ParseError) as err:
            list(ingest_trace(path))
        assert err.value.line_number == 1

    def test_non_integer_count_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = to_wire(snap())
        record["itlb"] = 12.5
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError):
            list(ingest_trace(path))

    def test_emit_matches_json_dumps_line_by_line(self):
        benign = generate_benign(BenignProfile.default(), 300, seed=11, worker_id="b\u00e9-\"0\"")
        attack, _hist = generate_attack("stl", n=200, seed=12, samples_per_window=4)
        for batch in (benign, attack):
            out = io.StringIO()
            assert emit_trace(batch, out) == len(batch)
            lines = out.getvalue().splitlines()
            assert lines[0] == "# schema: trace-v1"
            assert lines[1:] == [
                json.dumps(to_wire(s), separators=(",", ":")) for s in batch
            ]

    @pytest.mark.parametrize("n", [0, 1, trace._FORMAT_BLOCK, trace._FORMAT_BLOCK + 1,
                                   2 * trace._FORMAT_BLOCK + 5])
    def test_emit_blocks_match_json_dumps_line_by_line(self, n):
        # generate_benign rejects n = 0, so the empty batch is built directly
        counts = (generate_benign(BenignProfile.default(), n, seed=13).counts if n
                  else np.empty((0, len(trace._COLUMN_FIELDS)), dtype=np.int64))
        names = ('b\u00e9-"0"', "plain", "tab\tname")
        batch = TraceBatch(names, np.arange(n, dtype=np.intp) % 3, counts)
        out = io.StringIO()
        assert emit_trace(batch, out) == n
        lines = out.getvalue().splitlines()
        assert lines[0] == "# schema: trace-v1"
        assert lines[1:] == [json.dumps(to_wire(s), separators=(",", ":")) for s in batch]


def _write_lines(path, *lines):
    # A lone surrogate U+DC80..U+DCFF is written as the invalid UTF-8 byte it escapes.
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    return path


def _wire_line(**overrides):
    record = to_wire(snap())
    record.update(overrides)
    return json.dumps(record)


# An itlb of 5,001 digits, past Python's int-string limit; json.dumps cannot
# write it, so it is spliced into the text.
HUGE_ITLB_LINE = _wire_line().replace('"itlb": 1000', '"itlb": ' + "1" * 5001)
# A worker name holding the byte 0xff, which is not UTF-8.
BAD_UTF8_LINE = _wire_line().replace('"w0"', '"w\udcff"')


class TestIngestRobustness:
    def test_duplicate_key_rejected(self, tmp_path):
        good = _wire_line()
        duplicated = good[:-1] + ', "itlb": 5}'
        path = _write_lines(tmp_path / "dup.jsonl", good, duplicated)
        with pytest.raises(ParseError) as err:
            ingest_trace(path)
        assert err.value.line_number == 2
        assert "duplicate key 'itlb'" in str(err.value)

    @pytest.mark.parametrize("key,value", [("br_insn", 2**63), ("ts_ns", -(2**63) - 1)])
    def test_integer_outside_int64_rejected(self, tmp_path, key, value):
        path = _write_lines(tmp_path / "big.jsonl", "# header", _wire_line(**{key: value}))
        with pytest.raises(ParseError) as err:
            ingest_trace(path)
        assert err.value.line_number == 2
        assert key in str(err.value)

    @pytest.mark.parametrize("header", ["# schema: trace-v9", "  #schema:trace-v2 ", "# schema:"])
    def test_other_schema_rejected_with_line_number(self, tmp_path, header):
        path = _write_lines(tmp_path / "v9.jsonl", "# note: not a schema: trace-v9",
                            _wire_line(), header, _wire_line())
        with pytest.raises(ParseError) as err:
            ingest_trace(path)
        assert err.value.line_number == 3
        assert "unsupported trace schema" in str(err.value)
        path = _write_lines(tmp_path / "v1.jsonl", "#schema:trace-v1", "# schema", _wire_line())
        assert ingest_trace(path).line.tolist() == [3]

    def test_int64_limits_accepted(self, tmp_path):
        path = _write_lines(tmp_path / "edge.jsonl",
                            _wire_line(ts_ns=-(2**63), md_reset=2**63 - 1))
        (s,) = ingest_trace(path)
        assert s.timestamp_ns == -(2**63) and s.mem_disambiguation_resets == 2**63 - 1

    def test_invariant_violation_names_field_and_line(self, tmp_path):
        path = _write_lines(tmp_path / "bad.jsonl", _wire_line(), "",
                            _wire_line(llc_miss=40_000), _wire_line(itlb=-1))
        with pytest.raises(InvariantViolation) as err:
            ingest_trace(path)
        assert err.value.field_name == "cache_misses"
        assert err.value.line_number == 3
        assert str(err.value).startswith("line 3: cache_misses")

    @pytest.mark.parametrize("first,second,error,text", [
        (_wire_line(br_miss=10**9), "{not json", InvariantViolation, "branch_misses"),
        ("{not json", _wire_line(br_miss=10**9), ParseError, "invalid JSON"),
        (_wire_line(l1d_acc=2**64), _wire_line(itlb=-5), ParseError, "l1d_acc"),
        (_wire_line(itlb=-5), _wire_line(l1d_acc=2**64), InvariantViolation, "itlb_accesses"),
        (_wire_line(worker_id=7), _wire_line(itlb=-5), ParseError, "worker_id must be a string"),
        pytest.param(HUGE_ITLB_LINE, _wire_line(itlb=-5), ParseError,
                     "Exceeds the limit (4300 digits)", id="huge-integer-then-invariant"),
        pytest.param(_wire_line(itlb=-5), HUGE_ITLB_LINE, InvariantViolation, "itlb_accesses",
                     id="invariant-then-huge-integer"),
        pytest.param(BAD_UTF8_LINE, _wire_line(itlb=-5), ParseError,
                     "line 2: invalid UTF-8 byte 0xff", id="invalid-utf8-then-invariant"),
        pytest.param(_wire_line(itlb=-5), BAD_UTF8_LINE, InvariantViolation, "itlb_accesses",
                     id="invariant-then-invalid-utf8"),
        pytest.param("# note \udcfe", _wire_line(itlb=-5), ParseError,
                     "line 2: invalid UTF-8 byte 0xfe", id="invalid-utf8-comment-then-invariant"),
    ])
    def test_first_bad_line_in_file_order_is_reported(self, tmp_path, first, second, error, text):
        path = _write_lines(tmp_path / "bad.jsonl", _wire_line(), first, _wire_line(), second)
        with pytest.raises(error) as err:
            ingest_trace(path)
        assert err.value.line_number == 2
        assert text in str(err.value)


    @pytest.mark.parametrize("line,byte", [
        (b"# \xff", 0xff),
        (b'{"worker_id":"caf\xc3"}', 0xc3),  # a sequence cut short
        (b'{"worker_id":"\xed\xb3\xbf"}', 0xed),  # an encoded surrogate
        (b"\xc0\xaf", 0xc0),  # an overlong form
    ])
    def test_invalid_utf8_rejected_with_line_number(self, tmp_path, line, byte):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(_wire_line().encode() + b"\n" + line + b"\n" + b"{not json\n")
        with pytest.raises(ParseError) as err:
            ingest_trace(path)
        assert str(err.value) == f"line 2: invalid UTF-8 byte 0x{byte:02x}"

    def test_one_record_breaking_two_invariants(self, tmp_path):
        # A negative count is checked before misses > total, in every path.
        record = to_wire(snap())
        record.update(md_reset=-1, br_miss=record["br_insn"] + 1)
        message = "mem_disambiguation_resets: count must be >= 0, got -1"
        path = _write_lines(tmp_path / "bad.jsonl", _wire_line(), json.dumps(record))
        with pytest.raises(InvariantViolation) as err:
            ingest_trace(path)
        assert (str(err.value), err.value.line_number) == (f"line 2: {message}", 2)
        counts = np.array([list(record.values())[1:]], dtype=np.int64)
        with pytest.raises(InvariantViolation) as err:
            TraceBatch(("w0",), np.zeros(1, dtype=np.intp), counts)
        assert (str(err.value), err.value.line_number) == (message, None)
        assert err.value.field_name == "mem_disambiguation_resets"


# Each violation the one-pass accept check must catch, by name: a negative
# value in each of the eight count columns, and misses one above their total
# in each (misses, total) pair; the wire values it sets and the error text.
_WIRE_OF = {field: wire for wire, field in WIRE_FIELDS}
_GOOD = to_wire(snap())
BATCH_VIOLATIONS = {
    **{name: ({_WIRE_OF[name]: -1}, f"{name}: count must be >= 0, got -1")
       for name in trace._COLUMN_FIELDS[1:]},
    **{f"{misses}>{total}": ({_WIRE_OF[misses]: _GOOD[_WIRE_OF[total]] + 1},
                             f"{misses}: exceeds {total}")
       for misses, total in trace._BOUNDED},
}


def _records(n, bad):
    """n valid wire records a second apart, with BATCH_VIOLATIONS[bad[i]] set in record i."""
    records = [to_wire(snap(ts=k * 10**9)) for k in range(n)]
    for i, violation in bad.items():
        records[i].update(BATCH_VIOLATIONS[violation][0])
    return records


class TestBatchAcceptCheck:
    """A batch is accepted in one pass only when no record breaks an invariant."""

    @pytest.mark.parametrize("violation", BATCH_VIOLATIONS)
    @pytest.mark.parametrize("row", [0, 7], ids=["first-row", "last-row"])
    def test_one_bad_row_is_named(self, violation, row):
        counts = np.array([list(r.values())[1:] for r in _records(8, {row: violation})])
        with pytest.raises(InvariantViolation) as err:
            TraceBatch(("w0",), np.zeros(8, dtype=np.intp), counts)
        assert (str(err.value), err.value.line_number) == (BATCH_VIOLATIONS[violation][1], None)

    @pytest.mark.parametrize("violation", BATCH_VIOLATIONS)
    def test_first_of_two_bad_rows_is_named_with_its_line(self, tmp_path, violation):
        names = list(BATCH_VIOLATIONS)
        later = names[(names.index(violation) + 1) % len(names)]
        lines = [json.dumps(r, separators=(",", ":")) for r in _records(8, {3: violation, 6: later})]
        path = _write_lines(tmp_path / "bad.jsonl", f"# schema: {trace.TRACE_SCHEMA}", *lines)
        with pytest.raises(InvariantViolation) as err:
            ingest_trace(path)
        message = BATCH_VIOLATIONS[violation][1]
        assert (str(err.value), err.value.line_number) == (f"line 5: {message}", 5)

    def test_empty_batch_constructs(self):
        batch = TraceBatch((), np.zeros(0, dtype=np.intp), np.zeros((0, 9), dtype=np.int64))
        assert len(batch) == 0 and list(batch) == []

    def test_negative_timestamps_accepted(self):
        # timestamps are the one column that may be negative
        counts = np.array([list(r.values())[1:] for r in _records(3, {})])
        counts[:, 0] = -(2**63)
        assert len(TraceBatch(("w0",), np.zeros(3, dtype=np.intp), counts)) == 3


def _reference_ingest(path):
    """ingest_trace one line at a time, with every record through the JSON
    decoder (_parse_line) and every line through the line rule."""
    codes, worker, rows, lines = {}, [], [], []
    error = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
        for line_number, line in enumerate(handle, start=1):
            try:
                if not trace._is_data_line(line_number, line, trace.TRACE_SCHEMA):
                    continue
                name, values = trace._parse_line(line_number, line.strip())
            except ParseError as exc:
                error = exc
                break
            worker.append(codes.setdefault(name, len(codes)))
            rows.append(values)
            lines.append(line_number)
    batch = TraceBatch(
        tuple(codes),
        np.array(worker, dtype=np.intp),
        np.array(rows, dtype=np.int64).reshape(-1, 9),
        np.array(lines, dtype=np.int64),
    )
    if error is not None:
        raise error
    return batch


def _outcome(read, path):
    """Every column of the batch read, or the type and message of its error."""
    try:
        batch = read(path)
    except TraceError as exc:
        return type(exc), str(exc)
    return (batch.names, batch.worker.dtype, batch.worker.tolist(), batch.counts.dtype,
            batch.counts.tolist(), batch.line.tolist())


WIRE = list(to_wire(snap()))
INT64_EDGES = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**18 - 1, -(10**18 - 1),
               10**18, 10**19, 10**20 - 1, 0]
# Value texts that are not canonical integers, or are at the 18-digit limit.
TOKENS = ["-0", "00", "007", "-01", "1.5", "1e3", "1.0", "-0.0", "true", "false", "null",
          '"5"', "1\u0661", "999999999999999999", "1000000000000000000",
          "99999999999999999999", str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1)]
FAST_NAMES = ["w0", "tenant-007", "a b", "", "~!#$[]{}:,", "12"]
SLOW_NAMES = ['q"uote', "back\\slash", "caf\u00e9", "\U0001f600", "tab\tname", "del\x7f"]


def _canonical(record, **dumps):
    return json.dumps(record, separators=(",", ":"), **dumps)


def _with_value(record, key, text):
    """The canonical line of ``record`` with the value of ``key`` written as ``text``."""
    return _canonical(record).replace(f'"{key}":{record[key]}', f'"{key}":{text}', 1)


BAD_LINES = ["{not json", "[]", "null", '"w0"', "{}", "{",
             # a raw tab in a name is invalid JSON
             _canonical(to_wire(snap(worker="a\tb"))).replace("\\t", "\t"),
             # the byte 0xff in a canonical row's name, which is not UTF-8
             _canonical(to_wire(snap())).replace('"w0"', '"w\udcff"')]
# Comment lines the line rule reads: schema headers, right and wrong, and a
# byte that is not UTF-8.
COMMENT_LINES = ["# schema: trace-v1", "  # note", "#", "# a\rb", "#schema:trace-v1",
                 "# schema", "# schema: trace-v9", "# schema:", "# caf\udcff"]


@st.composite
def trace_lines(draw):
    """One line of a trace file: mostly records in emit_trace's canonical form,
    else a record in another encoding, a bad line, or a blank or comment."""
    kind = draw(st.sampled_from(
        ["canonical"] * 12 + ["spaced", "reordered", "raw_utf8", "blank", "comment",
                              "duplicate", "token", "bad", "carriage_return"]
    ))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t", "\r"]))
    if kind == "comment":
        return draw(st.sampled_from(COMMENT_LINES))
    if kind == "bad":
        return draw(st.sampled_from(BAD_LINES))
    name = draw(st.sampled_from(FAST_NAMES + SLOW_NAMES))
    values = draw(st.lists(st.integers(0, 10**7), min_size=9, max_size=9))
    if draw(st.integers(0, 2)) == 0:  # one value at an int64 or digit-count edge
        values[draw(st.integers(0, 8))] = draw(st.sampled_from(INT64_EDGES))
    if draw(st.integers(0, 9)):  # mostly keep the counter invariants
        values[1:] = [min(abs(v), 2**63 - 1) for v in values[1:]]
        for misses, total in ((3, 2), (5, 4), (7, 6)):
            values[misses] = min(values[misses], values[total])
    record = dict(zip(WIRE, [name, *values]))
    if kind == "canonical":
        return _canonical(record)
    if kind == "spaced":
        return json.dumps(record)
    if kind == "reordered":
        return _canonical(dict(reversed(record.items())))
    if kind == "raw_utf8":
        return _canonical(record, ensure_ascii=False)
    if kind == "carriage_return":  # JSON whitespace, not a line end
        return _canonical(record).replace(',"', ',\r"', draw(st.integers(1, 9)))
    if kind == "duplicate":
        key = draw(st.sampled_from(WIRE))
        return _canonical(record)[:-1] + f',"{key}":{json.dumps(record[key])}}}'
    return _with_value(record, draw(st.sampled_from(WIRE[1:])), draw(st.sampled_from(TOKENS)))


def _read_chunks(path):
    """The read chunk (from 0) of each line of a file, as ingest_trace reads it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
        sizes = [len(chunk) for chunk in iter(lambda: handle.readlines(trace._READ_CHUNK), [])]
    return np.repeat(np.arange(len(sizes)), sizes)


class TestReadChunks:
    """ingest_trace across read chunks reads as the decoder alone does."""

    def _file(self, tmp_path, special):
        """A trace of canonical rows that spans more than two read chunks, with
        ``special[(c, k)]`` as the k-th line after the middle of chunk c;
        returns the path and the line number of each special line."""
        rows = [_canonical(to_wire(snap(worker=f"w{i % 5}", ts=i))) for i in range(9000)]
        path = _write_lines(tmp_path / "t.jsonl", *rows)
        chunk = _read_chunks(path)
        where = {key: int(np.median(np.flatnonzero(chunk == key[0]))) + key[1]
                 for key in special}
        for key, i in where.items():
            rows[i] = special[key]
        _write_lines(path, *rows)
        chunk = _read_chunks(path)
        assert chunk[-1] >= 2
        assert all(chunk[i] == c for (c, _k), i in where.items())
        return path, {key: i + 1 for key, i in where.items()}

    def test_decoder_lines_comments_and_crlf_in_a_later_chunk(self, tmp_path):
        path, _lines = self._file(tmp_path, {
            (1, 0): json.dumps(to_wire(snap(worker="w2", ts=10**6))),
            (1, 1): "# a comment",
            (1, 2): _canonical(to_wire(snap(worker="w1", ts=10**6))) + "\r",
            (2, 0): "",
            (2, 1): _canonical(to_wire(snap(worker='q"uote', ts=5))),
        })
        expected = _outcome(_reference_ingest, path)
        assert _outcome(ingest_trace, path) == expected
        assert len(expected[2]) == 9000 - 2

    def test_invariant_violation_before_a_parse_error_in_a_later_chunk(self, tmp_path):
        path, lines = self._file(tmp_path, {
            (1, 0): json.dumps(to_wire(snap(worker="w2", ts=10**6))),
            (1, 1): _wire_line(itlb=-1),
            (2, 0): "{not json",
        })
        with pytest.raises(InvariantViolation) as err:
            ingest_trace(path)
        assert (err.value.field_name, err.value.line_number) == ("itlb_accesses", lines[1, 1])
        assert _outcome(ingest_trace, path) == _outcome(_reference_ingest, path)

    def test_parse_error_in_a_later_chunk(self, tmp_path):
        path, lines = self._file(tmp_path, {(1, 0): "  # note", (2, 0): "{not json"})
        with pytest.raises(ParseError) as err:
            ingest_trace(path)
        assert err.value.line_number == lines[2, 0]
        assert _outcome(ingest_trace, path) == _outcome(_reference_ingest, path)

class TestLineEnds:
    """A line ends at "\n" alone: a bare "\r" is JSON whitespace."""

    LINE = _canonical(to_wire(snap()))

    def test_carriage_return_inside_a_record(self, tmp_path):
        path = tmp_path / "cr.jsonl"
        record = self.LINE.replace(',"ts_ns"', ',\r"ts_ns"')
        path.write_bytes(f"{record}\n{self.LINE}\n".encode())
        batch = ingest_trace(path)
        assert batch.counts.tolist() == [list(to_wire(snap()).values())[1:]] * 2
        assert batch.line.tolist() == [1, 2]

    def test_carriage_return_inside_a_comment(self, tmp_path):
        path = tmp_path / "comment.jsonl"
        path.write_bytes(f"# a\rb\n{self.LINE}\n{{bad\n".encode())
        with pytest.raises(ParseError) as err:
            ingest_trace(path)
        assert err.value.line_number == 3
        path.write_bytes(f"# a\rb\n{self.LINE}\n".encode())
        assert ingest_trace(path).line.tolist() == [2]

    def test_crlf_rows_take_the_fast_path(self, tmp_path, monkeypatch):
        def decoder(line_number, line):
            raise AssertionError(f"line {line_number} took the decoder: {line}")

        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        emit_file(generate_attack("pht", n=40, seed=6, samples_per_window=2)[0], lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        expected = _outcome(ingest_trace, lf)
        monkeypatch.setattr(trace, "_parse_line", decoder)
        assert _outcome(ingest_trace, crlf) == expected


class TestIngestPaths:
    """ingest_trace's canonical fast path and its decoder fallback read every
    file exactly as the decoder alone does: same batch, or same error."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.lists(trace_lines(), max_size=12),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_matches_decoder_reference(self, tmp_path_factory, lines, eol, final_eol):
        path = tmp_path_factory.mktemp("ingest") / "t.jsonl"
        text = eol.join(lines) + (eol if final_eol and lines else "")
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert _outcome(ingest_trace, path) == _outcome(_reference_ingest, path)

    @pytest.mark.parametrize("line", [
        *(_with_value(to_wire(snap()), key, token)
          for key, token in zip(WIRE[1:] * 2, TOKENS)),
        *(_canonical(to_wire(snap(worker=name)), ensure_ascii=ascii)
          for name in FAST_NAMES + SLOW_NAMES for ascii in (True, False)),
        *BAD_LINES,
        *COMMENT_LINES,
    ])
    def test_lines_match_decoder_reference(self, tmp_path, line):
        path = _write_lines(tmp_path / "t.jsonl", _canonical(to_wire(snap())), line)
        assert _outcome(ingest_trace, path) == _outcome(_reference_ingest, path)

    @pytest.mark.parametrize("lines", [
        # a bad line after an invariant violation: the violation is reported
        [_wire_line(), _wire_line(itlb=-1), "{not json"],
        [_with_value(to_wire(snap()), "itlb", -1), "{not json"],
        [_with_value(to_wire(snap()), "br_miss", 10**6), _wire_line(l1d_acc=2**64)],
        # 18 digits take the fast path, 19 the decoder; both in range
        [_canonical(to_wire(snap(ts=ts))) for ts in (10**18 - 1, 2**63 - 1, -(2**63))],
    ])
    def test_files_match_decoder_reference(self, tmp_path, lines):
        path = _write_lines(tmp_path / "t.jsonl", *lines)
        assert _outcome(ingest_trace, path) == _outcome(_reference_ingest, path)

    def test_canonical_traces_never_reach_the_decoder(self, tmp_path, monkeypatch):
        def decoder(line_number, line):
            raise AssertionError(f"line {line_number} took the decoder: {line}")

        batches = [generate_benign(BenignProfile.default(), 500, seed=3)]
        batches += [generate_attack(v, n=200, seed=4, samples_per_window=3)[0]
                    for v in AttackVariant]
        paths = []
        for i, batch in enumerate(batches):
            paths.append(tmp_path / f"gen-{i}.jsonl")
            emit_file(batch, paths[-1])
        # A mixed-tenant trace written row by row, as the benchmark writes it.
        names = [f"tenant-{i:03d}" for i in range(12)]
        names += [f"attack-{v.value}" for v in AttackVariant]
        counts = np.random.default_rng(5).integers(0, 10**12, size=(300, 9))
        counts[:, [3, 5, 7]] = counts[:, [2, 4, 6]] // 7  # misses <= totals
        paths.append(tmp_path / "mixed.jsonl")
        with open(paths[-1], "w", encoding="utf-8") as handle:
            handle.write("# schema: trace-v1\n")
            for i, row in enumerate(counts.tolist()):
                fields = ",".join(f'"{k}":{v}' for k, v in zip(WIRE[1:], row))
                handle.write(f'{{"worker_id":"{names[i % len(names)]}",{fields}}}\n')

        expected = [_outcome(_reference_ingest, path) for path in paths]
        monkeypatch.setattr(trace, "_parse_line", decoder)
        assert [_outcome(ingest_trace, path) for path in paths] == expected
        for batch, path in zip(batches, paths):
            assert ingest_trace(path) == batch
            assert batch != 5
        assert ingest_trace(paths[-1]).counts.tolist() == counts.tolist()
