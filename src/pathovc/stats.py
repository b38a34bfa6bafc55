"""Listening-test analysis: MOS aggregation, Wilcoxon tests, AB agreement.

Ratings arrive as a CSV with the header ``listener_id,kind,group_key,value``.
Rows with kind ``mos`` carry a naturalness score (1 to 5) for one of the
seven speech conditions; rows with kind ``ab`` carry a same/different
judgment for one AB comparison group keyed ``pair:direction:comparison``.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import scipy.stats

from .atomic import atomic_open
from .corpus import read_csv_table

logger = logging.getLogger(__name__)

MOS_CONDITIONS = ("healthy_natural", "gt_high", "gt_mid", "gt_low",
                  "vc_high", "vc_mid", "vc_low")
# judgment each AB comparison is scored against: ground-truth self
# comparisons and converted-versus-target expect "same"; comparisons
# across distinct speakers expect "different"
AB_EXPECTATIONS = {"S_vs_S": "same", "T_vs_T": "same", "S_vs_T": "different",
                   "VC_vs_S": "different", "VC_vs_T": "same"}
AB_JUDGMENTS = ("same_sure", "same_not_sure",
                "different_not_sure", "different_sure")
RATINGS_COLUMNS = ("listener_id", "kind", "group_key", "value")

# largest n for which the two-sided p-value is computed by exhaustive
# sign enumeration; beyond this the normal approximation takes over
EXACT_ENUMERATION_LIMIT = 12


class RatingsFormatError(ValueError):
    """Raised when a ratings CSV violates the format or value ranges."""


class AllZeroDifferencesError(ValueError):
    """Raised when every paired difference is zero, so no test applies."""


@dataclass
class RatingSet:
    """Validated listening-test ratings of one file, in input order.

    ``mos`` holds ``(listener, condition, score)`` rows and ``ab`` holds
    ``(listener, (pair, direction, comparison), judgment)`` rows.
    """
    path: Path
    mos: list = field(default_factory=list)
    ab: list = field(default_factory=list)

    @classmethod
    def from_csv(cls, path) -> "RatingSet":
        """Each listener rates each condition and AB group at most once."""
        rs = cls(Path(path))
        first_line = {}  # (listener, kind, group_key) -> line number
        for lineno, (listener, kind, group, value) in read_csv_table(
                rs.path, RATINGS_COLUMNS, RatingsFormatError, "ratings file"):
            where = f"{rs.path} line {lineno}"
            if not listener:
                raise RatingsFormatError(f"{where}: listener_id is empty")
            seen = first_line.setdefault((listener, kind, group), lineno)
            if seen != lineno:
                raise RatingsFormatError(
                    f"{where}: listener {listener!r} rated {kind} {group!r} "
                    f"more than once (first on line {seen})")
            if kind == "mos":
                rs.mos.append((listener, group, _mos_score(group, value, where)))
            elif kind == "ab":
                rs.ab.append((listener, _ab_group(group, value, where), value))
            else:
                raise RatingsFormatError(
                    f"{where}: kind must be mos or ab, got {kind!r}")
        return rs

    def mos_scores(self) -> dict:
        """Scores per condition, in input order."""
        out: dict = {}
        for _, condition, score in self.mos:
            out.setdefault(condition, []).append(score)
        return out

    def mos_pairs(self, condition_a: str, condition_b: str):
        """Scores for two conditions paired by listener id.

        Listener ids present under only one of the two conditions are an
        error, since paired tests require consistent listeners, and so are
        two conditions that no listener rated.
        """
        scores = {(listener, condition): score
                  for listener, condition, score in self.mos}
        ids_a = {l for l, c in scores if c == condition_a}
        ids_b = {l for l, c in scores if c == condition_b}
        if ids_a != ids_b:
            odd = sorted(ids_a ^ ids_b)
            raise RatingsFormatError(
                f"{self.path}: listeners {odd} lack a rating under one of "
                f"{condition_a!r}/{condition_b!r}")
        if not ids_a:
            raise RatingsFormatError(
                f"{self.path}: no mos ratings for condition {condition_a!r} "
                f"or {condition_b!r}")
        listeners = sorted(ids_a)
        return ([scores[l, condition_a] for l in listeners],
                [scores[l, condition_b] for l in listeners])

    def ab_groups(self) -> dict:
        """Judgments per (pair, direction, comparison), in input order."""
        out: dict = {}
        for _, group, judgment in self.ab:
            out.setdefault(group, []).append(judgment)
        return out


def _mos_score(condition, value, where) -> int:
    if condition not in MOS_CONDITIONS:
        raise RatingsFormatError(
            f"{where}: unknown condition {condition!r}; "
            f"expected one of {', '.join(MOS_CONDITIONS)}")
    try:
        score = int(value)
    except ValueError:
        score = None
    if score is None or not 1 <= score <= 5:
        raise RatingsFormatError(
            f"{where}: mos score must be an integer in [1, 5], got {value!r}")
    return score


def _ab_group(group, judgment, where) -> tuple:
    parts = tuple(group.split(":"))
    if len(parts) != 3 or not all(parts):
        raise RatingsFormatError(
            f"{where}: ab group_key must look like "
            f"pair:direction:comparison, got {group!r}")
    if parts[2] not in AB_EXPECTATIONS:
        raise RatingsFormatError(
            f"{where}: unknown comparison {parts[2]!r}; "
            f"expected one of {', '.join(AB_EXPECTATIONS)}")
    if judgment not in AB_JUDGMENTS:
        raise RatingsFormatError(
            f"{where}: unknown judgment {judgment!r}; "
            f"expected one of {', '.join(AB_JUDGMENTS)}")
    return parts


@dataclass(frozen=True)
class MosSummary:
    condition: str
    n: int
    mean: float
    ci_low: object
    ci_high: object


def mos_summary(scores_by_condition: dict) -> dict:
    """Per-condition mean with a 95% Student-t confidence interval.

    ``scores_by_condition`` maps each condition to its scores, as
    ``RatingSet.mos_scores`` returns them.  With a single rating the
    interval is undefined and both bounds are None.  Conditions present
    but empty are dropped with a warning.
    """
    out = {}
    for cond, scores in scores_by_condition.items():
        if not scores:
            logger.warning("condition %s has no ratings; omitted", cond)
            continue
        for s in scores:
            if not 1 <= int(s) <= 5:
                raise ValueError(f"score {s} outside [1, 5] for {cond}")
        n = len(scores)
        mean = sum(scores) / n
        if n == 1:
            out[cond] = MosSummary(cond, n, mean, None, None)
            continue
        var = sum((s - mean) ** 2 for s in scores) / (n - 1)
        t = scipy.stats.t.ppf(0.975, n - 1)
        half = t * math.sqrt(var) / math.sqrt(n)
        out[cond] = MosSummary(cond, n, mean, mean - half, mean + half)
    return out


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    w_plus: float
    w_minus: float
    n: int
    method: str


def wilcoxon_signed_rank(a, b, method: str = "auto") -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired scores.

    Zero differences are dropped.  Ties in |difference| take midranks.
    The statistic is min(W+, W-).  For n up to 12 the p-value enumerates
    all sign assignments exactly; larger n uses the normal approximation
    with tie-corrected variance and a continuity correction.  ``method``
    forces "exact" or "approx" instead of the size-based default.
    """
    if len(a) != len(b):
        raise ValueError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    if method not in ("auto", "exact", "approx"):
        raise ValueError(f"method must be auto, exact, or approx, got {method!r}")
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    diffs = [d for d in diffs if d != 0.0]
    n = len(diffs)
    if n == 0:
        raise AllZeroDifferencesError(
            "all paired differences are zero; the signed-rank test is undefined")
    # midranks of |d|, doubled so that ties stay integral
    doubled = [int(r) for r in 2 * scipy.stats.rankdata([abs(d) for d in diffs])]
    dw_plus = sum(r for d, r in zip(diffs, doubled) if d > 0)
    dw_total = sum(doubled)
    dw = min(dw_plus, dw_total - dw_plus)

    if method == "exact" or (method == "auto" and n <= EXACT_ENUMERATION_LIMIT):
        # count sign assignments whose statistic is at least as extreme;
        # doubled ranks keep every comparison in integers
        sums = {0: 1}
        for r in doubled:
            nxt: dict = {}
            for s, c in sums.items():
                nxt[s] = nxt.get(s, 0) + c
                nxt[s + r] = nxt.get(s + r, 0) + c
            sums = nxt
        hits = sum(c for s, c in sums.items() if min(s, dw_total - s) <= dw)
        p = hits / 2.0 ** n
        how = "exact"
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        # tie groups shrink the variance of W+, never below its value
        # n(n+1)^2/16 > 0 when every |d| ties; each group has its own
        # midrank, so counting equal midranks gives the group sizes
        var -= sum(t ** 3 - t for t in Counter(doubled).values()) / 48.0
        # half-unit continuity shift toward the mean; without it the
        # normal tail underestimates the discrete p by several percent
        z = (dw / 2.0 + 0.5 - mu) / math.sqrt(var)
        p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
        how = "approx"
    return WilcoxonResult(dw / 2.0, p, dw_plus / 2.0,
                          (dw_total - dw_plus) / 2.0, n, how)


def _truncate_percent(frac: Fraction) -> float:
    # report percentages cut, not rounded, at two decimals so printed
    # values like 46.66 for 14/30 come out of the exact fraction
    return int(frac * 10000) / 100.0


@dataclass(frozen=True)
class AbAgreement:
    expectation: str
    n: int
    counts: dict
    fraction_matching: Fraction
    fraction_matching_sure_only: Fraction

    @property
    def percent_matching(self) -> float:
        return _truncate_percent(self.fraction_matching)

    @property
    def percent_matching_sure_only(self) -> float:
        return _truncate_percent(self.fraction_matching_sure_only)


def ab_agreement(trials, expectation: str) -> AbAgreement:
    """Share of AB judgments agreeing with the expected outcome.

    ``trials`` is the list of judgment labels of one comparison group,
    as ``RatingSet.ab_groups`` returns them.  ``expectation`` is "same"
    or "different".  The plain share counts agreement at either
    confidence; the sure-only share counts only the confident agreements
    against the same denominator.
    Fractions are exact; the percent properties report them cut to two
    decimals.
    """
    if expectation not in ("same", "different"):
        raise ValueError(f"expectation must be same or different, got {expectation!r}")
    judgments = list(trials)
    if not judgments:
        raise ValueError("no trials given")
    counts = {j: 0 for j in AB_JUDGMENTS}
    for j in judgments:
        if j not in counts:
            raise ValueError(f"unknown judgment {j!r}")
        counts[j] += 1
    n = len(judgments)
    matching = counts[f"{expectation}_sure"] + counts[f"{expectation}_not_sure"]
    sure = counts[f"{expectation}_sure"]
    return AbAgreement(expectation, n, counts,
                       Fraction(matching, n), Fraction(sure, n))


def _agreement_cells(groups: dict, key: tuple, percent=float) -> tuple:
    """n and ``percent``-formatted shares of AB group ``key``, or empty cells."""
    if key not in groups:
        return "", "", ""
    agg = ab_agreement(groups[key], AB_EXPECTATIONS[key[2]])
    return (agg.n, percent(agg.percent_matching),
            percent(agg.percent_matching_sure_only))


MOS_TABLE_COLUMNS = ("condition", "n", "mean", "ci_low", "ci_high")
WILCOXON_COLUMNS = ("condition_a", "condition_b", "n", "statistic",
                    "p_value", "method")
AB_COLUMNS = ("pair", "direction", "comparison", "expectation", "n",
              "percent", "percent_sure")
GRID_COLUMNS = ("pair", "direction", "reference", "vc_comparison", "vc_n",
                "vc_percent", "vc_percent_sure", "gt_comparison", "gt_n",
                "gt_percent", "gt_percent_sure")


def mos_table(summaries: dict, number=lambda x: repr(float(x))) -> list:
    """Rows of ``mos_summary``'s result; ``number`` formats mean and bounds."""
    order = [c for c in MOS_CONDITIONS if c in summaries]
    order += [c for c in summaries if c not in MOS_CONDITIONS]
    return [dict(zip(MOS_TABLE_COLUMNS, (s.condition, s.n, number(s.mean), *(
                "" if x is None else number(x) for x in (s.ci_low, s.ci_high)))))
            for s in (summaries[c] for c in order)]


def wilcoxon_table(rs: RatingSet, pairs) -> list:
    """One row per condition pair; all-zero differences warn and give ``no_test``."""
    rows = []
    for cond_a, cond_b in pairs:
        try:
            res = wilcoxon_signed_rank(*rs.mos_pairs(cond_a, cond_b))
            cells = (res.n, res.statistic, res.p_value, res.method)
        except AllZeroDifferencesError:
            logger.warning("%s:%s has all differences zero; no_test", cond_a, cond_b)
            cells = (0, "", "", "no_test")
        rows.append(dict(zip(WILCOXON_COLUMNS, (cond_a, cond_b) + cells)))
    return rows


def ab_table(rs: RatingSet) -> list:
    """One row per AB comparison group, in key order, shares in percent."""
    groups = rs.ab_groups()
    return [dict(zip(AB_COLUMNS, (*key, AB_EXPECTATIONS[key[2]],
                                  *_agreement_cells(groups, key, "{:.2f}%".format))))
            for key in sorted(groups)]


# per (pair, direction) panel: the converted samples judged against one
# reference speaker, next to that reference's own ground-truth trials
GRID_REFERENCES = (("source", "VC_vs_S", "S_vs_S"), ("target", "VC_vs_T", "T_vs_T"))


def similarity_grid(rs: RatingSet) -> list:
    """One row per (pair, direction, reference) AB panel.

    Three pairs judged in two directions give twelve rows.  Each row
    reports the converted-sample agreement with the expected outcome and
    the reference speaker's ground-truth self-agreement.  Groups missing
    from the data leave their cells empty.
    """
    groups = rs.ab_groups()
    return [dict(zip(GRID_COLUMNS, (
                pair, direction, reference,
                vc, *_agreement_cells(groups, (pair, direction, vc)),
                gt, *_agreement_cells(groups, (pair, direction, gt)))))
            for pair, direction in sorted({key[:2] for key in groups})
            for reference, vc, gt in GRID_REFERENCES]


# the file and columns of each table ``export_tables`` writes
TABLES = {"mos": ("mos_summary.csv", MOS_TABLE_COLUMNS),
          "similarity": ("similarity_grid.csv", GRID_COLUMNS),
          "wilcoxon": ("wilcoxon.csv", WILCOXON_COLUMNS)}


def export_tables(results: dict, out_dir) -> list:
    """Write each given analysis table as a CSV file; return their paths.

    ``results`` may hold "mos" (mapping condition to MosSummary, written
    through ``mos_table`` at full precision), "similarity" (grid rows), and
    "wilcoxon" (``wilcoxon_table`` rows).  Only the tables given are
    written, so tables of other runs in ``out_dir`` stay as they are.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for key, rows in results.items():
        name, columns = TABLES[key]
        path = out_dir / name
        with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(mos_table(rows) if key == "mos" else rows)
        written.append(path)
    return written
