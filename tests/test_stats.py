import csv
import logging
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from pathovc import stats

from oracles import mos_ci_ref, wilcoxon_enumeration_ref

# two-sided 97.5% Student-t quantiles from standard tables
T_975_DF1 = 12.706204736174694
T_975_DF9 = 2.2621571627409915


def ratings_csv(tmp_path, rows):
    path = tmp_path / "ratings.csv"
    lines = ["listener_id,kind,group_key,value"]
    lines += [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestRatingSet:
    def test_reads_both_kinds(self, tmp_path):
        path = ratings_csv(tmp_path, [
            ("L01", "mos", "gt_high", "4"),
            ("L01", "ab", "M04-M12:a_to_b:VC_vs_T", "same_sure"),
        ])
        rs = stats.RatingSet.from_csv(path)
        assert rs.mos_scores() == {"gt_high": [4]}
        assert rs.ab_groups() == {
            ("M04-M12", "a_to_b", "VC_vs_T"): ["same_sure"]}

    def test_unknown_condition_rejected(self, tmp_path):
        path = ratings_csv(tmp_path, [("L01", "mos", "sparkling", "4")])
        with pytest.raises(stats.RatingsFormatError, match="line 2.*sparkling"):
            stats.RatingSet.from_csv(path)

    def test_score_out_of_range_rejected(self, tmp_path):
        path = ratings_csv(tmp_path, [("L01", "mos", "gt_high", "6")])
        with pytest.raises(stats.RatingsFormatError, match="\\[1, 5\\]"):
            stats.RatingSet.from_csv(path)

    def test_bad_judgment_rejected(self, tmp_path):
        path = ratings_csv(tmp_path, [
            ("L01", "ab", "p:d:VC_vs_T", "kind_of_same")])
        with pytest.raises(stats.RatingsFormatError, match="kind_of_same"):
            stats.RatingSet.from_csv(path)

    def test_bad_group_key_rejected(self, tmp_path):
        path = ratings_csv(tmp_path, [("L01", "ab", "justpair", "same_sure")])
        with pytest.raises(stats.RatingsFormatError, match="pair:direction"):
            stats.RatingSet.from_csv(path)

    def test_bad_comparison_rejected(self, tmp_path):
        path = ratings_csv(tmp_path, [("L01", "ab", "p:d:X_vs_Y", "same_sure")])
        with pytest.raises(stats.RatingsFormatError, match="X_vs_Y"):
            stats.RatingSet.from_csv(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = ratings_csv(tmp_path, [("L01", "sus", "gt_high", "4")])
        with pytest.raises(stats.RatingsFormatError, match="mos or ab"):
            stats.RatingSet.from_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(stats.RatingsFormatError, match="header"):
            stats.RatingSet.from_csv(path)

    def test_line_break_in_cell_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text('listener_id,kind,group_key,value\n"L\n1",mos,gt_high,4\n'
                        "L2,mos,gt_high,9\n")
        with pytest.raises(stats.RatingsFormatError) as exc:
            stats.RatingSet.from_csv(path)
        assert str(exc.value) == f"{path} line 3: a quoted cell holds a line break"

    def test_mos_pairs_by_listener(self, tmp_path):
        path = ratings_csv(tmp_path, [
            ("L02", "mos", "gt_high", "4"),
            ("L01", "mos", "gt_high", "5"),
            ("L01", "mos", "vc_high", "3"),
            ("L02", "mos", "vc_high", "2"),
        ])
        rs = stats.RatingSet.from_csv(path)
        a, b = rs.mos_pairs("gt_high", "vc_high")
        assert a == [5, 4] and b == [3, 2]

    def test_mos_pairs_mismatched_listeners_rejected(self, tmp_path):
        path = ratings_csv(tmp_path, [
            ("L01", "mos", "gt_high", "4"),
            ("L02", "mos", "vc_high", "3"),
        ])
        rs = stats.RatingSet.from_csv(path)
        with pytest.raises(stats.RatingsFormatError, match="L0"):
            rs.mos_pairs("gt_high", "vc_high")

    def test_duplicate_listener_rating_rejected(self, tmp_path):
        path = ratings_csv(tmp_path, [
            ("L01", "mos", "gt_high", "4"),
            ("L01", "mos", "gt_high", "5"),
            ("L01", "mos", "vc_high", "3"),
        ])
        rs = stats.RatingSet.from_csv(path)
        with pytest.raises(stats.RatingsFormatError, match="more than once"):
            rs.mos_pairs("gt_high", "vc_high")


class TestMosSummary:
    def test_constant_scores_zero_width(self):
        out = stats.mos_summary({"gt_high": [3, 3, 3, 3]})
        s = out["gt_high"]
        assert s.mean == 3.0
        assert s.ci_low == pytest.approx(3.0)
        assert s.ci_high == pytest.approx(3.0)

    def test_two_scores_fixture(self):
        s = stats.mos_summary({"vc_low": [1, 5]})["vc_low"]
        assert s.mean == 3.0
        half = T_975_DF1 * 2.0
        assert s.ci_low == pytest.approx(3.0 - half, rel=1e-9)
        assert s.ci_high == pytest.approx(3.0 + half, rel=1e-9)
        assert s.ci_high - s.mean == pytest.approx(25.412409472349389, rel=1e-9)

    def test_ten_listener_set_matches_reference(self):
        scores = [4, 3, 5, 4, 4, 2, 5, 3, 4, 4]
        s = stats.mos_summary({"healthy_natural": scores})["healthy_natural"]
        mean, half = mos_ci_ref(scores, T_975_DF9)
        assert s.mean == pytest.approx(mean, abs=1e-9)
        assert s.ci_low == pytest.approx(mean - half, abs=1e-9)
        assert s.ci_high == pytest.approx(mean + half, abs=1e-9)

    def test_single_rating_ci_undefined(self):
        s = stats.mos_summary({"gt_mid": [4]})["gt_mid"]
        assert s.n == 1 and s.mean == 4.0
        assert s.ci_low is None and s.ci_high is None

    def test_empty_condition_omitted_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="pathovc.stats"):
            out = stats.mos_summary({"gt_low": [], "vc_low": [2, 3]})
        assert "gt_low" not in out and "vc_low" in out
        assert any("gt_low" in r.message for r in caplog.records)

    def test_mean_invariant_under_permutation(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(1, 6, size=12).tolist()
        base = stats.mos_summary({"vc_mid": scores})["vc_mid"]
        for _ in range(5):
            rng.shuffle(scores)
            again = stats.mos_summary({"vc_mid": scores})["vc_mid"]
            assert again.mean == base.mean
            assert again.ci_low == pytest.approx(base.ci_low, rel=1e-12)

    def test_ci_width_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores = rng.integers(1, 6, size=int(rng.integers(2, 15))).tolist()
            s = stats.mos_summary({"gt_high": scores})["gt_high"]
            assert s.ci_high >= s.ci_low

    def test_out_of_range_score_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            stats.mos_summary({"gt_high": [3, 9]})


class TestWilcoxon:
    def test_identical_samples_signal_no_test(self):
        with pytest.raises(stats.AllZeroDifferencesError):
            stats.wilcoxon_signed_rank([2, 3, 4], [2, 3, 4])

    def test_five_positive_distinct_differences(self):
        a = [10, 9, 8, 7, 6]
        b = [1, 2, 3, 4, 5]
        res = stats.wilcoxon_signed_rank(a, b)
        assert res.statistic == 0.0
        assert res.p_value == 0.0625
        assert res.method == "exact"

    def test_unpacks_to_statistic_and_p(self):
        res = stats.wilcoxon_signed_rank([5, 4, 3], [1, 1, 1])
        assert res.statistic == 0.0 and res.p_value == 0.25

    def test_zero_differences_dropped(self):
        res = stats.wilcoxon_signed_rank([1, 2, 3], [1, 5, 1])
        assert res.n == 2

    def test_matches_enumeration_oracle_on_random_pairs(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 13))
            a = rng.integers(1, 6, size=n).tolist()
            b = rng.integers(1, 6, size=n).tolist()
            if all(x == y for x, y in zip(a, b)):
                continue
            res = stats.wilcoxon_signed_rank(a, b)
            w_ref, p_ref = wilcoxon_enumeration_ref(a, b)
            assert res.method == "exact"
            assert res.statistic == w_ref
            assert res.p_value == p_ref
            checked += 1

    def test_swapping_sides_swaps_rank_sums(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            a = rng.integers(1, 6, size=n).tolist()
            b = rng.integers(1, 6, size=n).tolist()
            if all(x == y for x, y in zip(a, b)):
                continue
            fwd = stats.wilcoxon_signed_rank(a, b)
            rev = stats.wilcoxon_signed_rank(b, a)
            assert fwd.p_value == rev.p_value
            assert fwd.statistic == rev.statistic
            assert fwd.w_plus == rev.w_minus
            assert fwd.w_minus == rev.w_plus

    def test_approx_close_to_exact_on_distinct_magnitudes(self):
        # with nine or more distinct magnitudes the discrete steps of the
        # exact distribution are narrow enough for the continuity-shifted
        # normal tail to land within 0.02; exhaustive over every
        # achievable statistic, not just sampled data
        for n in range(9, 13):
            total = n * (n + 1) // 2
            for w in range(total // 2 + 1):
                plus = set()
                left = w
                for r in range(n, 0, -1):
                    if r <= left:
                        plus.add(r)
                        left -= r
                assert left == 0
                diffs = [r if r in plus else -r for r in range(1, n + 1)]
                a = [float(d) for d in diffs]
                b = [0.0] * n
                exact = stats.wilcoxon_signed_rank(a, b, method="exact")
                approx = stats.wilcoxon_signed_rank(a, b, method="approx")
                assert exact.statistic == float(w)
                assert abs(approx.p_value - exact.p_value) < 0.02

    def test_approx_close_to_exact_on_random_data(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 50:
            n = int(rng.integers(9, 13))
            a = rng.permutation(np.arange(1, 2 * n + 1, 2))[:n] / 2.0
            b = a + rng.permutation(np.arange(1, n + 1)) * rng.choice([-1, 1], n)
            exact = stats.wilcoxon_signed_rank(a.tolist(), b.tolist(), method="exact")
            approx = stats.wilcoxon_signed_rank(a.tolist(), b.tolist(), method="approx")
            assert abs(approx.p_value - exact.p_value) < 0.02
            checked += 1

    def test_approx_matches_library_normal_approximation(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 30:
            n = int(rng.integers(18, 40))
            a = rng.integers(1, 6, size=n)
            b = rng.integers(1, 6, size=n)
            keep = a != b
            if keep.sum() < 13:
                continue
            mine = stats.wilcoxon_signed_rank(a.tolist(), b.tolist())
            ref = scipy.stats.wilcoxon(a, b, zero_method="wilcox",
                                       correction=True, mode="approx",
                                       alternative="two-sided")
            assert mine.method == "approx"
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)
            checked += 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            stats.wilcoxon_signed_rank([1, 2], [1, 2, 3])

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            stats.wilcoxon_signed_rank([1], [2], method="bayes")


def trials(same_sure=0, same_not_sure=0, different_not_sure=0, different_sure=0):
    return (["same_sure"] * same_sure + ["same_not_sure"] * same_not_sure
            + ["different_not_sure"] * different_not_sure
            + ["different_sure"] * different_sure)


class TestAbAgreement:
    def test_22_of_30_same(self):
        agg = stats.ab_agreement(
            trials(same_sure=12, same_not_sure=10, different_not_sure=5,
                   different_sure=3), "same")
        assert agg.n == 30
        assert agg.fraction_matching == Fraction(22, 30)
        assert agg.percent_matching == 73.33

    def test_zero_matching(self):
        agg = stats.ab_agreement(trials(different_sure=9), "same")
        assert agg.percent_matching == 0.0
        assert agg.fraction_matching == 0

    def test_sure_only_20_percent(self):
        agg = stats.ab_agreement(
            trials(same_sure=6, same_not_sure=14, different_not_sure=7,
                   different_sure=3), "same")
        assert agg.percent_matching_sure_only == 20.0
        assert agg.fraction_matching_sure_only == Fraction(6, 30)

    def test_14_of_30_truncates_not_rounds(self):
        agg = stats.ab_agreement(
            trials(same_sure=7, same_not_sure=7, different_not_sure=9,
                   different_sure=7), "same")
        assert agg.fraction_matching == Fraction(14, 30)
        assert agg.percent_matching == 46.66

    def test_169_of_300(self):
        agg = stats.ab_agreement(
            trials(same_sure=100, same_not_sure=69, different_not_sure=70,
                   different_sure=61), "same")
        assert agg.fraction_matching == Fraction(169, 300)
        assert agg.percent_matching == 56.33

    def test_75_and_90_percent(self):
        agg = stats.ab_agreement(
            trials(same_sure=10, same_not_sure=5, different_not_sure=3,
                   different_sure=2), "same")
        assert agg.percent_matching == 75.0
        agg = stats.ab_agreement(
            trials(same_sure=20, same_not_sure=7, different_not_sure=2,
                   different_sure=1), "same")
        assert agg.percent_matching == 90.0

    def test_different_expectation_counts_different_judgments(self):
        agg = stats.ab_agreement(
            trials(same_sure=2, different_not_sure=5, different_sure=3),
            "different")
        assert agg.fraction_matching == Fraction(8, 10)
        assert agg.fraction_matching_sure_only == Fraction(3, 10)

    def test_matching_and_opposite_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            counts = rng.integers(0, 10, size=4)
            if counts.sum() == 0:
                continue
            t = trials(*counts.tolist())
            same = stats.ab_agreement(t, "same")
            diff = stats.ab_agreement(t, "different")
            assert same.fraction_matching + diff.fraction_matching == 1

    def test_counts_partition_trials(self):
        t = trials(3, 4, 5, 6)
        agg = stats.ab_agreement(t, "same")
        assert agg.counts == {"same_sure": 3, "same_not_sure": 4,
                              "different_not_sure": 5, "different_sure": 6}
        assert sum(agg.counts.values()) == agg.n

    def test_empty_trials_rejected(self):
        with pytest.raises(ValueError, match="no trials"):
            stats.ab_agreement([], "same")

    def test_bad_expectation_rejected(self):
        with pytest.raises(ValueError, match="expectation"):
            stats.ab_agreement(trials(same_sure=1), "maybe")


def full_ab_rating_set(tmp_path):
    pairs = ("M04-M12", "M05-M11", "M08-M10")
    rows = []
    for pair in pairs:
        for direction in ("a_to_b", "b_to_a"):
            for comparison in ("VC_vs_T", "VC_vs_S", "T_vs_T", "S_vs_S"):
                for i in range(10):
                    judgment = "same_sure" if i < 7 else "different_sure"
                    rows.append((f"L{i:02d}", "ab",
                                 f"{pair}:{direction}:{comparison}", judgment))
    return stats.RatingSet.from_csv(ratings_csv(tmp_path, rows))


class TestSimilarityGrid:
    def test_three_pairs_two_directions_give_twelve_rows(self, tmp_path):
        rs = full_ab_rating_set(tmp_path)
        grid = stats.similarity_grid(rs)
        assert len(grid) == 12
        keys = [(r["pair"], r["direction"], r["reference"]) for r in grid]
        assert len(set(keys)) == 12

    def test_row_contents(self, tmp_path):
        rs = full_ab_rating_set(tmp_path)
        grid = stats.similarity_grid(rs)
        row = next(r for r in grid if r["pair"] == "M04-M12"
                   and r["direction"] == "a_to_b" and r["reference"] == "target")
        # 7 of 10 same_sure: VC-vs-target expects same, T-vs-T expects same
        assert row["vc_comparison"] == "VC_vs_T"
        assert row["vc_percent"] == 70.0
        assert row["vc_percent_sure"] == 70.0
        assert row["gt_comparison"] == "T_vs_T"
        assert row["gt_percent"] == 70.0
        src = next(r for r in grid if r["pair"] == "M04-M12"
                   and r["direction"] == "a_to_b" and r["reference"] == "source")
        # VC-vs-source expects different: 3 of 10 here
        assert src["vc_comparison"] == "VC_vs_S"
        assert src["vc_percent"] == 30.0

    def test_missing_groups_leave_cells_empty(self, tmp_path):
        rows = [("L01", "ab", "M04-M12:a_to_b:VC_vs_T", "same_sure")]
        rs = stats.RatingSet.from_csv(ratings_csv(tmp_path, rows))
        grid = stats.similarity_grid(rs)
        assert len(grid) == 2
        tgt = next(r for r in grid if r["reference"] == "target")
        assert tgt["vc_percent"] == 100.0
        assert tgt["gt_percent"] == ""
        src = next(r for r in grid if r["reference"] == "source")
        assert src["vc_percent"] == ""


class TestExportTables:
    def test_mos_table_schema(self, tmp_path):
        summaries = stats.mos_summary({"gt_high": [4, 5, 4], "vc_high": [3, 3, 2]})
        paths = stats.export_tables({"mos": summaries}, tmp_path)
        with open(tmp_path / "mos_summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["condition", "n", "mean", "ci_low", "ci_high"]
        assert [r[0] for r in rows[1:]] == ["gt_high", "vc_high"]
        assert float(rows[1][2]) == pytest.approx(13.0 / 3.0)
        assert (tmp_path / "mos_summary.csv") in paths

    def test_single_rating_writes_empty_ci_cells(self, tmp_path):
        stats.export_tables({"mos": stats.mos_summary({"gt_low": [4]})}, tmp_path)
        with open(tmp_path / "mos_summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][3] == "" and rows[1][4] == ""

    def test_similarity_grid_file(self, tmp_path):
        rs = full_ab_rating_set(tmp_path)
        stats.export_tables({"similarity": stats.similarity_grid(rs)},
                            tmp_path / "out")
        with open(tmp_path / "out" / "similarity_grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(stats.GRID_COLUMNS)
        assert len(rows) == 13

    def test_empty_results_write_headers_only(self, tmp_path):
        assert stats.export_tables({}, tmp_path) == []
        assert list(tmp_path.iterdir()) == []
        paths = stats.export_tables({"mos": {}, "similarity": [],
                                     "wilcoxon": []}, tmp_path)
        assert [p.name for p in paths] == [
            "mos_summary.csv", "similarity_grid.csv", "wilcoxon.csv"]
        for path in paths:
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1

    def test_wilcoxon_rows_written_when_present(self, tmp_path):
        res = stats.wilcoxon_signed_rank([5, 4, 3], [1, 2, 1])
        row = {"condition_a": "gt_high", "condition_b": "vc_high",
               "n": res.n, "statistic": res.statistic,
               "p_value": res.p_value, "method": res.method}
        paths = stats.export_tables({"wilcoxon": [row]}, tmp_path)
        assert (tmp_path / "wilcoxon.csv") in paths
        with open(tmp_path / "wilcoxon.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(stats.WILCOXON_COLUMNS)
        assert rows[1][0] == "gt_high"

    def test_failed_write_keeps_previous_file(self, tmp_path):
        row = {"condition_a": "gt_high", "condition_b": "vc_high", "n": 3,
               "statistic": 0.0, "p_value": 0.25, "method": "exact"}
        stats.export_tables({"wilcoxon": [row]}, tmp_path)
        before = (tmp_path / "wilcoxon.csv").read_bytes()
        # DictWriter rejects the unknown key after the header is written
        with pytest.raises(ValueError):
            stats.export_tables({"wilcoxon": [dict(row, extra=1)]}, tmp_path)
        assert (tmp_path / "wilcoxon.csv").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["wilcoxon.csv"]
