"""KS detector tests, including brute-force and enumeration oracles."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectreguard import cli, ks
from spectreguard.ks import (
    BranchHistogram,
    DEFAULT_ALPHA,
    DEFAULT_TOP_K,
    EmptyHistogram,
    EmptySample,
    HISTOGRAM_SCHEMA,
    HistogramError,
    HistogramFormatError,
    KsVerdict,
    classify_ks,
    kolmogorov_survival,
    ks_two_sample,
    load_default_template,
    read_histogram_csv,
    screen_counts,
    top_branches,
    write_histogram_csv,
)
from spectreguard.profiles import make_attack_histogram, make_benign_histogram
from spectreguard.trace import TRACE_SCHEMA, ParseError, ingest_trace
from test_acceptance import oracle_distance, oracle_exact_p

TRACE_RECORD = (b'{"worker_id":"w0","ts_ns":0,"itlb":1,"br_insn":0,"br_miss":0,"llc_ref":0,'
                b'"llc_miss":0,"l1d_acc":0,"l1d_miss":0,"md_reset":0}')


def write_file(hist, path):
    """Write a histogram CSV file through the handle-only writer."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_histogram_csv(hist, handle)


# --- independent oracles ----------------------------------------------------
# (the brute-force distance and exact p-value come from test_acceptance)

def pair_ecdf_distance(a, b):
    """The one-pair ECDF distance kernel that the row-batched one replaced."""
    support = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), support, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), support, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def dual_survival(lam):
    """Q(lam) from the dual (theta-function) series, summed until its terms
    underflow to 0 (the last is about exp(-3000))."""
    head = sum(math.exp(-(((2 * k - 1) * math.pi / lam) ** 2) / 8)
               for k in range(1, 2 + int(25 * lam)))
    return 1.0 - math.sqrt(2 * math.pi) / lam * head


# --- histogram type ----------------------------------------------------------

class TestBranchHistogram:
    def test_zero_count_rejected(self):
        with pytest.raises(HistogramError):
            BranchHistogram.from_entries({"a": 0})

    @pytest.mark.parametrize("bad", [True, 3.0, -1])
    def test_bad_count_names_first_bad_branch(self, bad):
        with pytest.raises(HistogramError, match="branch 'b'"):
            BranchHistogram.from_entries({"a": 4, "b": bad, "c": 0})

    def test_empty_rejected(self):
        with pytest.raises(EmptyHistogram):
            BranchHistogram.from_entries({})


class TestTopBranches:
    def test_order_by_count(self):
        hist = BranchHistogram.from_entries({"b1": 50, "b2": 10, "b3": 5})
        assert top_branches(hist, 2) == [50, 10]

    def test_equal_counts(self):
        hist = BranchHistogram.from_entries({f"b{i:03d}": 42 for i in range(100)})
        assert top_branches(hist, 100) == [42] * 100

    def test_fewer_than_k_returns_all(self):
        hist = BranchHistogram.from_entries({"a": 2, "b": 1})
        assert top_branches(hist, 100) == [2, 1]

    def test_tie_broken_by_branch_id(self):
        hist = BranchHistogram.from_entries({"z": 5, "a": 5, "m": 9})
        # ranked: m(9), then a and z tied -> a first
        assert top_branches(hist, 2) == [9, 5]
        ranked_ids = sorted(hist.entries.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [k for k, _ in ranked_ids] == ["m", "a", "z"]

    def test_delay_loop_outranks_mistrained_branch(self):
        hist = make_attack_histogram(np.random.default_rng(5))
        top = top_branches(hist, 2)
        assert top[0] > top[1]

    def test_k_must_be_positive(self):
        hist = BranchHistogram.from_entries({"a": 1})
        with pytest.raises(ValueError):
            top_branches(hist, 0)

    @pytest.mark.parametrize("k", [1, DEFAULT_TOP_K])
    def test_empty_histogram_rejected(self, k):
        # the constructor, unlike from_entries, does not check its entries
        with pytest.raises(EmptyHistogram, match="histogram has no branches"):
            top_branches(BranchHistogram({}), k)


class TestKsTwoSample:
    def test_identical_samples(self):
        result = ks_two_sample([3, 1, 4, 1, 5], [3, 1, 4, 1, 5])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_disjoint_supports(self):
        result = ks_two_sample([1, 1, 1, 1], [9, 9, 9, 9])
        assert result.statistic == 1.0

    def test_exact_mode_tiny_example(self):
        result = ks_two_sample([1, 2, 3], [2, 3, 4], mode="exact")
        assert result.p_value == oracle_exact_p([1, 2, 3], [2, 3, 4])
        assert type(result.p_value) is float and type(result.statistic) is float

    def test_exact_mode_on_the_command_line(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, counts in zip(paths, ([5, 3, 3, 1], [4, 3, 2, 2, 1, 1])):
            write_file(BranchHistogram.from_entries(
                {f"b{i}": c for i, c in enumerate(counts)}), path)
        assert cli.main(["ks", *map(str, paths), "--exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == oracle_exact_p([5, 3, 3, 1], [4, 3, 2, 2, 1, 1])

    def test_counts_past_2_to_the_53_stay_apart(self):
        # float64 would merge 2**53 with 2**53 + 1 and 10**30 with 10**30 + 1.
        result = ks_two_sample([2**53], [2**53 + 1])
        assert result.statistic == 1.0
        assert result.p_value == ks_two_sample([1], [2]).p_value
        a, b = [5, 2**53 + 1, 10**30], [2**53, 10**30 + 1]
        for mode in ("asymptotic", "exact"):
            assert ks_two_sample(a, b, mode=mode).statistic == 0.5

    def test_counts_past_2_to_the_53_on_the_command_line(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, counts in zip(paths, ([5, 2**53 + 1, 10**30], [2**53, 10**30 + 1])):
            write_file(BranchHistogram.from_entries(
                {f"b{i}": c for i, c in enumerate(counts)}), path)
        assert cli.main(["ks", *map(str, paths), "--exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == 0.5
        assert payload["p"] == oracle_exact_p([1, 3, 4], [2, 5])

    def test_exact_mode_matches_oracle_past_c3_sizes(self):
        rng = np.random.default_rng(31)
        for size in range(9, 13):
            for _ in range(25):
                n = int(rng.integers(1, size))
                a = rng.integers(1, 5, size=n).tolist()
                b = rng.integers(1, 5, size=size - n).tolist()
                assert ks_two_sample(a, b, mode="exact").p_value == oracle_exact_p(a, b)

    @pytest.mark.parametrize("a, b", [
        ([4] * 6, [4] * 6),  # all values equal: D = 0, p = 1.0
        ([1, 1, 2, 3, 3], [7, 8, 8, 9, 9, 9, 9]),  # disjoint supports
        ([5], [1, 2, 5, 5, 6, 9, 9, 9, 9, 12, 13]),  # n = 1
        ([1, 2, 2, 3, 5, 5, 6, 7, 7, 8, 9], [2]),  # m = 1
        ([1, 3, 3, 3, 3, 9], [3, 3, 3, 3, 5, 6]),  # one tie group spans both samples
    ])
    def test_exact_mode_edge_cases_match_oracle(self, a, b):
        assert ks_two_sample(a, b, mode="exact").p_value == oracle_exact_p(a, b)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            ks_two_sample([], [1])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'fast'"):
            ks_two_sample([1], [2], mode="fast")

    def test_statistic_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 9 - n))
            a = rng.integers(1, 5, size=n).tolist()
            b = rng.integers(1, 5, size=m).tolist()
            assert ks_two_sample(a, b).statistic == oracle_distance(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.integers(1, 100, size=int(rng.integers(1, 30))).tolist()
            b = rng.integers(1, 100, size=int(rng.integers(1, 30))).tolist()
            assert ks_two_sample(a, b).statistic == ks_two_sample(b, a).statistic

    def test_monotone_relabeling_invariance(self):
        a = [1, 2, 2, 5, 9]
        b = [2, 3, 5, 5]
        relabel = {v: v * v + 3 for v in range(12)}  # strictly increasing on support
        d1 = ks_two_sample(a, b).statistic
        d2 = ks_two_sample([relabel[x] for x in a], [relabel[x] for x in b]).statistic
        assert d1 == d2


class TestClassify:
    def test_template_vs_itself_is_suspect(self):
        template = load_default_template()
        verdict = classify_ks(template, template)
        assert verdict.suspect
        assert verdict.ks.p_value == 1.0
        assert verdict.ks.n == min(100, len(template.entries))

    def test_benign_flat_histogram_is_rejected(self):
        template = load_default_template()
        benign = make_benign_histogram(np.random.default_rng(21))
        verdict = classify_ks(benign, template)
        assert not verdict.suspect
        assert verdict.ks.p_value < 0.1

    def test_monotone_alpha(self):
        template = load_default_template()
        hist = make_attack_histogram(np.random.default_rng(3))
        loose = classify_ks(hist, template, alpha=0.1)
        tight = classify_ks(hist, template, alpha=0.01)
        if loose.suspect:
            assert tight.suspect

    def test_default_alpha_is_a_tenth(self):
        # The template's top counts with the 14 smallest replaced by counts
        # above the largest: p lies between 0.05 and 0.1 at the default top-k.
        template = load_default_template()
        counts = sorted(template.entries.values(), reverse=True)
        counts = counts[:50] + [counts[0] + 1 + i for i in range(14)]
        hist = BranchHistogram.from_entries({f"b{i}": c for i, c in enumerate(counts)})
        verdict = classify_ks(hist, template)
        assert 0.05 < verdict.ks.p_value < 0.1
        assert not verdict.suspect
        assert classify_ks(hist, template, alpha=0.05).suspect

    def test_default_top_k_is_a_hundred(self):
        # The template's counts plus a second copy of its 40 largest: 104
        # branches, whose top 100 pass the screen and whose top 90 do not.
        template = load_default_template()
        counts = sorted(template.entries.values(), reverse=True)
        counts += counts[:40]
        hist = BranchHistogram.from_entries({f"b{i}": c for i, c in enumerate(counts)})
        verdict = classify_ks(hist, template)
        assert verdict == classify_ks(hist, template, k=100)
        assert verdict.ks.n == 100 and verdict.suspect
        assert not classify_ks(hist, template, k=90).suspect

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        template = load_default_template()
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            classify_ks(template, template, alpha=alpha)

    @pytest.mark.parametrize("mode", ["asymptotic", "exact"])
    def test_mode_goes_to_ks_two_sample(self, mode):
        hist = BranchHistogram.from_entries({"a": 9, "b": 4, "c": 1})
        template = BranchHistogram.from_entries({"x": 7, "y": 7, "z": 2, "w": 1})
        verdict = classify_ks(hist, template, alpha=0.5, k=3, mode=mode)
        expected = ks_two_sample([9, 4, 1], [7, 7, 2], mode=mode)
        assert verdict == KsVerdict(suspect=expected.p_value >= 0.5, ks=expected)

    def test_exact_mode_template_vs_itself(self):
        template = load_default_template()
        verdict = classify_ks(template, template, mode="exact")
        assert verdict.ks.p_value == 1.0
        assert verdict.ks.n == 64

    def test_exact_mode_rejects_benign_histogram(self):
        template = load_default_template()
        benign = make_benign_histogram(np.random.default_rng(21))
        verdict = classify_ks(benign, template, mode="exact")
        assert verdict.ks.p_value < DEFAULT_ALPHA
        assert not verdict.suspect

    def test_asymptotic_p_is_close_to_exact_near_alpha(self):
        # Near-template samples: each template count scaled by one log-shift
        # per sample and a lognormal factor per count.  Where the exact p lies
        # in (0.005, 0.8), the asymptotic p is at most 1% below it and at most
        # 12% above it (these seeds reach -0.4% and +10%, the most just above
        # p = 0.01), and both p-values fall on the same side of alpha.
        template = load_default_template()
        reference = top_branches(template, DEFAULT_TOP_K)
        compared = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            scale = rng.lognormal(rng.uniform(-3.0, 3.0), 0.5, size=len(reference))
            sample = np.maximum(1, np.rint(np.multiply(reference, scale))).astype(int).tolist()
            exact = ks_two_sample(sample, reference, mode="exact").p_value
            if 0.005 < exact < 0.8:
                compared += 1
                asymptotic = ks_two_sample(sample, reference).p_value
                assert 0.99 * exact <= asymptotic <= 1.12 * exact
                assert (asymptotic >= DEFAULT_ALPHA) == (exact >= DEFAULT_ALPHA)
        assert compared >= 20


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        hist = make_attack_histogram(np.random.default_rng(12))
        path = tmp_path / "hist.csv"
        write_file(hist, path)
        assert read_histogram_csv(path).entries == hist.entries

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("branch,count\nb1,5\n")
        with pytest.raises(HistogramFormatError):
            read_histogram_csv(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema: histogram-v9\nbranch_id,mispredictions\nb1,5\n")
        with pytest.raises(HistogramFormatError):
            read_histogram_csv(path)

    @pytest.mark.parametrize("comment", [
        "# exported; see schema: notes",
        "#schema:histogram-v1",
        "# schema",
    ])
    def test_other_comments_are_skipped(self, tmp_path, comment):
        path = tmp_path / "hist.csv"
        path.write_text(f"# schema: histogram-v1\n{comment}\nbranch_id,mispredictions\nb1,5\n")
        assert read_histogram_csv(path).entries == {"b1": 5}

    @pytest.mark.parametrize("text,message", [
        ("", "empty histogram file"),
        ("# schema: histogram-v1\n\n", "empty histogram file"),
        ("branch_id,mispredictions\n", "empty histogram file"),
        ("branch_id,mispredictions\nb1,5\nb2\n", "line 3: malformed row ['b2']"),
        ("branch_id,mispredictions\nb1,5,7\n", "line 2: malformed row ['b1', '5', '7']"),
        ("branch,count\nb1,5\n",
         "line 1: expected header 'branch_id,mispredictions', got ['branch', 'count']"),
        ("branch_id,mispredictions\nb1,0\n", "line 2: misprediction count '0' is below 1"),
        ("# schema: histogram-v2\n", "line 1: unsupported histogram schema 'histogram-v2'"),
        ('\nbranch_id,mispredictions\n"a\nb",5,7\n',
         "line 3: malformed row ['a\\nb', '5', '7']"),
    ])
    def test_missing_header_or_field_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(HistogramFormatError) as err:
            read_histogram_csv(path)
        assert str(err.value) == f"{path}: {message}"

    def test_duplicate_branch_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("branch_id,mispredictions\nb1,5\nb2,3\nb1,7\n")
        with pytest.raises(HistogramFormatError, match="line 4: duplicate branch id 'b1'"):
            read_histogram_csv(path)

    def test_ids_with_commas_quotes_and_line_breaks_round_trip(self, tmp_path):
        hist = BranchHistogram.from_entries(
            {"a,b": 7, 'say "hi"': 5, "two\nlines": 3, "\"\n,": 2, "plain": 1})
        path = tmp_path / "hist.csv"
        write_file(hist, path)
        assert read_histogram_csv(path).entries == hist.entries

    def test_multi_line_row_errors_name_the_line_the_row_starts_on(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('branch_id,mispredictions\n"x\ny",5\n"p\nq",0\n')
        with pytest.raises(HistogramFormatError) as err:
            read_histogram_csv(path)
        assert str(err.value) == f"{path}: line 4: misprediction count '0' is below 1"

    # Each text holds one field longer than csv's field size limit; the error
    # names the line its row starts on.
    @pytest.mark.parametrize("text,line", [
        ("branch_id,mispredictions\nb1,5\n" + "x" * 200_000 + ",7\n", 3),
        ("# schema: histogram-v1\n\nbranch_id,mispredictions\nb1," + "7" * 200_000 + "\n", 4),
        ('branch_id,mispredictions\nb1,5\n"y\n' + "x" * 200_000 + '",7\n', 3),
        ("x" * 200_000 + ",mispredictions\nb1,5\n", 1),
    ], ids=["branch-id", "count", "quoted-two-lines", "header"])
    def test_field_past_the_csv_size_limit_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "big.csv"
        path.write_text(text)
        with pytest.raises(HistogramFormatError) as err:
            read_histogram_csv(path)
        limit = csv.field_size_limit()
        assert str(err.value) == f"{path}: line {line}: field larger than field limit ({limit})"

    def test_non_integer_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("branch_id,mispredictions\nb1,5\nb2,2.5\n")
        with pytest.raises(HistogramFormatError, match="'2.5' is not an integer"):
            read_histogram_csv(path)

    # Each case is line 2 of a trace and of a histogram CSV; line 4 of both holds
    # byte 0xfe, so a skipped case line leaves that one as the first error.
    @pytest.mark.parametrize("line,error", [
        (b"", None),
        (b"# note", None),
        (b"#schema:SCHEMA", None),
        (b"# schema", None),
        (b"# schema: other-v9", "line 2: unsupported KIND schema 'other-v9'"),
        (b"# caf\xff", "line 2: invalid UTF-8 byte 0xff"),
        (TRACE_RECORD.replace(b'"w0"', b'"w\xff"'), "line 2: invalid UTF-8 byte 0xff"),
    ], ids=["blank", "comment", "schema-unspaced", "schema-no-colon", "other-schema",
            "0xff-comment", "0xff-data"])
    def test_trace_and_histogram_readers_share_the_line_rule(self, tmp_path, line, error):
        trace, hist = tmp_path / "t.jsonl", tmp_path / "h.csv"

        def write(path, schema, first, third, *rest):
            case = line.replace(b"SCHEMA", schema.encode())
            path.write_bytes(b"".join(part + b"\n" for part in (first, case, third, *rest)))

        write(trace, TRACE_SCHEMA, TRACE_RECORD, TRACE_RECORD, b"\xfe")
        write(hist, HISTOGRAM_SCHEMA, b"branch_id,mispredictions", b"b1,5", b"\xfe")
        expected = error or "line 4: invalid UTF-8 byte 0xfe"
        with pytest.raises(ParseError) as trace_err:
            ingest_trace(trace)
        with pytest.raises(HistogramFormatError) as hist_err:
            read_histogram_csv(hist)
        assert str(trace_err.value) == expected.replace("KIND", "trace")
        assert str(hist_err.value) == f"{hist}: " + expected.replace("KIND", "histogram")
        if error is None:
            write(trace, TRACE_SCHEMA, TRACE_RECORD, TRACE_RECORD)
            write(hist, HISTOGRAM_SCHEMA, b"branch_id,mispredictions", b"b1,5")
            assert ingest_trace(trace).line.tolist() == [1, 3]
            assert read_histogram_csv(hist).entries == {"b1": 5}

    def test_packaged_template_loads(self):
        template = load_default_template()
        assert len(template.entries) >= 2


# --- row-batched kernel and batch screen ---------------------------------------

# Small alphabets force ties within and across samples.
counts = st.integers(1, 6) | st.integers(1, 10**7)
sample = st.lists(counts, min_size=1, max_size=40)
# Lengths drawn evenly from 1..150, so samples fall on both sides of DEFAULT_TOP_K.
long_sample = st.integers(1, 150).flatmap(lambda n: st.lists(counts, min_size=n, max_size=n))


class TestBatchKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 30).flatmap(lambda n: st.lists(
        st.lists(counts, min_size=n, max_size=n), min_size=1, max_size=6)), sample,
        st.booleans())
    def test_rows_equal_the_pair_kernel_bit_for_bit(self, rows, reference, presorted):
        rows = np.array(rows, dtype=np.int64)
        reference = np.array(reference, dtype=np.int64)
        if presorted:
            rows, reference = np.sort(rows, axis=1), np.sort(reference)
        batched, sizes = ks._ecdf_distance(rows, reference)
        assert batched.tolist() == [pair_ecdf_distance(row, reference) for row in rows]
        assert sizes.tolist() == [rows.shape[1]] * len(rows)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(long_sample, min_size=1, max_size=6), long_sample)
    def test_screen_equals_one_pair_tests(self, samples, reference):
        # Mixed sample lengths, some shorter and some longer than the top k.
        template = BranchHistogram.from_entries({f"b{i}": c for i, c in enumerate(reference)})
        p_values = screen_counts([np.array(s) for s in samples], template).tolist()
        ref = np.array(top_branches(template, ks.DEFAULT_TOP_K), dtype=np.float64)
        for s, p in zip(samples, p_values):
            top = np.array(sorted(s, reverse=True)[:ks.DEFAULT_TOP_K], dtype=np.float64)
            d = pair_ecdf_distance(top, ref)
            assert p == kolmogorov_survival(d * math.sqrt(top.size * ref.size / (top.size + ref.size)))
            hist = BranchHistogram.from_entries({f"b{i}": c for i, c in enumerate(s)})
            assert p == classify_ks(hist, template).ks.p_value

    def test_fleet_shaped_batch_matches_classify_ks(self):
        # Zero-padded 2-D blocks of up to SCREEN_BLOCK rows, the fleet's form,
        # with both sample sizes in each and the last block short, read once
        # from a generator.  Each sample alone as a 1-D call is the oracle.
        rng = np.random.default_rng(8)
        hists = [(make_benign_histogram if i % 3 else make_attack_histogram)(rng)
                 for i in range(2 * ks.SCREEN_BLOCK + 5)]
        samples = [np.array(list(h.entries.values())) for h in hists]
        width = max(s.size for s in samples)

        def blocks():
            for start in range(0, len(samples), ks.SCREEN_BLOCK):
                chunk = samples[start:start + ks.SCREEN_BLOCK]
                block = np.zeros((len(chunk), width), dtype=np.int64)
                for row, s in zip(block, chunk):
                    row[:s.size] = s
                yield block

        template = load_default_template()
        p_values = screen_counts(blocks(), template).tolist()
        assert p_values == [screen_counts([s], template)[0] for s in samples]
        assert p_values == [classify_ks(h, template).ks.p_value for h in hists]

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            screen_counts([np.array([3]), np.array([], dtype=np.int64)], load_default_template())


class TestBlockKernel:
    """_ecdf_distance on zero-padded count rows screened by their top values."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.sampled_from([6, 10**7]), sample, st.integers(0, 2**32 - 1))
    def test_padded_rows_equal_the_pair_kernel_bit_for_bit(self, n_rows, most, reference, seed):
        # Rows of 1 to 150 values, zero-padded to one width with the zeros
        # anywhere, drawn with a top k of 1, 3 or DEFAULT_TOP_K values and
        # screened one k at a time, so some are shorter than their k.  A small
        # alphabet ties values within rows and with the reference, which ties
        # its own.
        rng = np.random.default_rng(seed)
        samples = [rng.integers(1, most + 1, size=rng.integers(1, 151)) for _ in range(n_rows)]
        tops = rng.choice([1, 3, DEFAULT_TOP_K], size=n_rows)
        rows = np.zeros((n_rows, 160), dtype=np.int64)
        for row, s in zip(rows, samples):
            row[rng.permutation(row.size)[:len(s)]] = s
        reference = np.array(reference, dtype=np.int64)
        for k in (1, 3, DEFAULT_TOP_K):
            drawn = np.flatnonzero(tops == k)
            distances, sizes = ks._ecdf_distance(rows[drawn], reference, k)
            assert distances.tolist() == [pair_ecdf_distance(np.sort(samples[r])[-k:], reference)
                                          for r in drawn]
            assert sizes.tolist() == [min(len(samples[r]), k) for r in drawn]

    def test_screen_reads_a_padded_block_as_its_rows(self):
        # The fleet's form, one 2-D block of zero-padded rows, and one
        # 1-D sample at a time give the same p-values.
        rng = np.random.default_rng(3)
        samples = [rng.integers(1, 40, size=n) for n in (1, 64, 99, 100, 101, 400)]
        block = np.zeros((len(samples), 400), dtype=np.int64)
        for row, s in zip(block, samples):
            row[:s.size] = s
        template = load_default_template()
        p_values = screen_counts([block], template).tolist()
        assert p_values == screen_counts(samples, template).tolist()
        with pytest.raises(EmptySample):
            screen_counts([np.zeros((2, 5), dtype=np.int64)], template)
        with pytest.raises(EmptySample):
            screen_counts([block, np.array([[3, 0, 1], [0, 0, 0]])], template)


class TestKolmogorovSurvival:
    GRID = np.arange(0.0, 3.0, 1e-4).tolist()

    def test_non_increasing_on_a_dense_grid(self):
        q = [kolmogorov_survival(lam) for lam in self.GRID]
        assert all(later <= earlier for earlier, later in zip(q, q[1:]))
        assert q[0] == 1.0 and 0.0 < q[-1] < 1e-7

    def test_matches_the_dual_series(self):
        for lam in self.GRID[1:]:
            tolerance = 1e-12 if lam < 0.4 else 1e-14  # where the dual series is used
            assert abs(kolmogorov_survival(lam) - dual_survival(lam)) <= tolerance, lam

    @pytest.mark.parametrize("lam", [1e-7, 0.005, 0.01, 0.05])
    def test_small_lambda_is_one(self, lam):
        assert kolmogorov_survival(lam) == 1.0

    def test_near_identical_large_samples_are_suspect(self, tmp_path, capsys):
        # D = 1/20000, so lam = 0.005; a truncated alternating series gave p = 0.397.
        paths = []
        for shift in (1, 2):
            paths.append(tmp_path / f"h{shift}.csv")
            write_file(BranchHistogram.from_entries(
                {f"0x{i:012x}": i + shift for i in range(20_000)}), paths[-1])
        assert cli.main(["ks", *map(str, paths), "--top-k", "20000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == pytest.approx(1 / 20_000, rel=1e-9)
        assert payload["p"] == 1.0
        assert payload["suspect"] is True
