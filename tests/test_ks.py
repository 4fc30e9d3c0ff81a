"""KS detector tests, including brute-force and enumeration oracles."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from spectreguard.ks import (
    BranchHistogram,
    EmptyHistogram,
    EmptySample,
    ExactModeTooLarge,
    HistogramError,
    HistogramFormatError,
    classify_ks,
    ks_two_sample,
    load_default_template,
    read_histogram_csv,
    top_branches,
    write_histogram_csv,
)
from spectreguard.profiles import make_attack_histogram, make_benign_histogram


# --- independent oracles ----------------------------------------------------

def oracle_distance(a, b):
    """Brute-force double-loop ECDF supremum, evaluated at observed points."""
    best = 0.0
    for value in list(a) + list(b):
        below_a = sum(1 for x in a if x <= value) / len(a)
        below_b = sum(1 for x in b if x <= value) / len(b)
        gap = abs(below_a - below_b)
        if gap > best:
            best = gap
    return best


def oracle_exact_p(a, b):
    """Full enumeration of label assignments with exact rational distances."""
    n, m = len(a), len(b)
    pooled = list(a) + list(b)

    def rational_distance(a_values, b_values):
        best = Fraction(0)
        for value in pooled:
            fa = Fraction(sum(1 for x in a_values if x <= value), n)
            fb = Fraction(sum(1 for x in b_values if x <= value), m)
            best = max(best, abs(fa - fb))
        return best

    observed = rational_distance(a, b)
    hits = total = 0
    for chosen in combinations(range(n + m), n):
        chosen = set(chosen)
        side_a = [pooled[i] for i in chosen]
        side_b = [pooled[i] for i in range(n + m) if i not in chosen]
        total += 1
        if rational_distance(side_a, side_b) >= observed:
            hits += 1
    return hits / total


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

    def test_exact_mode_size_cap(self):
        with pytest.raises(ExactModeTooLarge):
            ks_two_sample([1] * 7, [2] * 6, mode="exact")

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            ks_two_sample([], [1])

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
        assert verdict.k_effective == min(100, len(template.entries))

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


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        hist = make_attack_histogram(np.random.default_rng(12))
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
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

    def test_duplicate_branch_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("branch_id,mispredictions\nb1,5\nb2,3\nb1,7\n")
        with pytest.raises(HistogramFormatError, match="duplicate branch id 'b1'"):
            read_histogram_csv(path)

    def test_non_integer_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("branch_id,mispredictions\nb1,5\nb2,2.5\n")
        with pytest.raises(HistogramFormatError, match="'2.5' is not an integer"):
            read_histogram_csv(path)

    def test_packaged_template_loads(self):
        template = load_default_template()
        assert len(template.entries) >= 2
