from fractions import Fraction

import pytest

from tla.analyze import (
    AnalysisReport,
    AnalysisRow,
    ZeroDenominatorError,
    aggregate_dataset,
    render_report,
    truncate_pct,
)
from tla.corpus import (
    CleanRow,
    LanguageCode,
    SentimentLabel,
)

#: The published table: language code -> (total, positive display, negative display).
PAPER_TABLE = {
    "en": (500, "66.8", "33.2"),
    "es": (500, "61.4", "38.6"),
    "fa": (50, "52", "48"),
    "fr": (500, "53", "47"),
    "hi": (500, "62", "38"),
    "id": (500, "63.4", "36.6"),
    "ja": (500, "85.6", "14.4"),
    "nl": (500, "84.2", "15.8"),
    "pt": (500, "61.2", "38.8"),
    "ro": (457, "85.55", "14.44"),
    "ru": (213, "62.91", "37.08"),
    "sv": (420, "80.23", "19.76"),
    "th": (424, "71.46", "28.53"),
    "tr": (500, "67.8", "32.2"),
    "ur": (42, "69.04", "30.95"),
    "zh": (500, "80.6", "19.4"),
}


def derive_split(total: int, positive_display: str, negative_display: str) -> int:
    """Brute-force the unique positive count reproducing both table cells."""
    matches = [
        p
        for p in range(total + 1)
        if truncate_pct(p, total) == positive_display
        and truncate_pct(total - p, total) == negative_display
    ]
    assert len(matches) == 1, f"split not unique for {total}: {matches}"
    return matches[0]


def rows_with_counts(lang: LanguageCode, positive: int, negative: int) -> list[CleanRow]:
    rows = []
    for i in range(positive + negative):
        label = SentimentLabel.POSITIVE if i < positive else SentimentLabel.NEGATIVE
        rows.append(CleanRow(str(i), lang, f"t{i}", (f"t{i}",), label))
    return rows


class TestTruncatePct:
    @pytest.mark.parametrize(
        "n,d,expected",
        [
            (391, 457, "85.55"),
            (79, 213, "37.08"),
            (0, 5, "0"),
            (26, 50, "52"),
            (334, 500, "66.8"),
            (5, 5, "100"),
            (66, 457, "14.44"),
        ],
    )
    def test_examples(self, n, d, expected):
        assert truncate_pct(n, d) == expected

    def test_truncation_not_rounding(self):
        # 79/213 = 37.089...%: rounding would display 37.09
        assert truncate_pct(79, 213) == "37.08"
        assert truncate_pct(79, 213) != "37.09"

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            truncate_pct(1, 0)

    def test_numerator_bounds(self):
        with pytest.raises(ValueError):
            truncate_pct(6, 5)
        with pytest.raises(ValueError):
            truncate_pct(-1, 5)

    def test_floor_against_fraction_oracle(self, rng):
        for _ in range(500):
            d = rng.randint(1, 2000)
            n = rng.randint(0, d)
            hundredths = int(Fraction(10000 * n, d))  # floor for nonnegative
            text = truncate_pct(n, d)
            rendered = f"{hundredths // 100}.{hundredths % 100:02d}".rstrip("0").rstrip(".")
            assert text == rendered


class TestAnalysisRow:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            AnalysisRow(language=LanguageCode.EN, total=10, positive_count=4, negative_count=5)

    def test_exact_fraction_percentages(self):
        row = AnalysisRow(language=LanguageCode.RU, total=213, positive_count=134,
                          negative_count=79)
        assert row.positive_display == "62.91"
        assert row.negative_display == "37.08"

    def test_truncation_loss_bounded(self, rng):
        # each truncation loses strictly less than 0.01 percentage points
        for _ in range(500):
            total = rng.randint(1, 3000)
            positive = rng.randint(0, total)
            ph = (10000 * positive) // total
            nh = (10000 * (total - positive)) // total
            assert 0 <= 10000 - (ph + nh) < 2


class TestAggregate:
    def test_english_row(self):
        [row] = aggregate_dataset(rows_with_counts(LanguageCode.EN, 334, 166)).rows
        assert (row.total, row.positive_display, row.negative_display) == (500, "66.8", "33.2")

    def test_single_positive(self):
        [row] = aggregate_dataset(rows_with_counts(LanguageCode.EN, 1, 0)).rows
        assert (row.total, row.positive_display, row.negative_display) == (1, "100", "0")

    def test_aggregate_inverts_construction(self, rng):
        for _ in range(50):
            lang = rng.choice(list(LanguageCode))
            positive, negative = rng.randint(0, 20), rng.randint(0, 20)
            if positive + negative == 0:
                positive = 1
            [row] = aggregate_dataset(rows_with_counts(lang, positive, negative)).rows
            assert (row.positive_count, row.negative_count) == (positive, negative)

    def test_languages_interleaved_in_one_pass(self):
        zh = rows_with_counts(LanguageCode.ZH, 2, 1)
        en = rows_with_counts(LanguageCode.EN, 1, 3)
        interleaved = [row for pair in zip(zh, en) for row in pair] + en[3:]
        report = aggregate_dataset(iter(interleaved))
        assert [(r.language, r.positive_count, r.negative_count) for r in report.rows] == [
            (LanguageCode.EN, 1, 3), (LanguageCode.ZH, 2, 1)]

    def test_no_rows_no_report_rows(self):
        assert aggregate_dataset([]).rows == ()

    def test_unlabeled_row_rejected(self):
        rows = rows_with_counts(LanguageCode.EN, 1, 1)
        rows[1].label = None
        with pytest.raises(ValueError, match="1 unlabeled en row"):
            aggregate_dataset(rows)


class TestReport:
    def test_rows_follow_canonical_order(self):
        rows = (rows_with_counts(LanguageCode.ZH, 1, 0)
                + rows_with_counts(LanguageCode.EN, 0, 1)
                + rows_with_counts(LanguageCode.FA, 1, 1))
        report = aggregate_dataset(rows)
        assert [r.language for r in report.rows] == [
            LanguageCode.EN,
            LanguageCode.FA,
            LanguageCode.ZH,
        ]

    def test_duplicate_language_rejected(self):
        row = AnalysisRow(language=LanguageCode.EN, total=1, positive_count=1, negative_count=0)
        with pytest.raises(ValueError):
            AnalysisReport(rows=(row, row))


class TestRenderReport:
    def test_csv_english_row(self):
        report = AnalysisReport(
            (AnalysisRow(language=LanguageCode.EN, total=500, positive_count=334,
                         negative_count=166),)
        )
        assert render_report(report, "csv") == (
            "Language,Total tweets,Positive Tweets Percentage,Negative Tweets Percentage\n"
            "English,500,66.8,33.2\n"
        )

    def test_csv_urdu_row(self):
        report = AnalysisReport(
            (AnalysisRow(language=LanguageCode.UR, total=42, positive_count=29,
                         negative_count=13),)
        )
        assert render_report(report, "csv").splitlines()[1] == "Urdu,42,69.04,30.95"

    def test_empty_report_header_only(self):
        assert render_report(AnalysisReport(rows=()), "csv") == (
            "Language,Total tweets,Positive Tweets Percentage,Negative Tweets Percentage\n"
        )

    def test_markdown_shape(self):
        report = AnalysisReport(
            (AnalysisRow(language=LanguageCode.FA, total=50, positive_count=26,
                         negative_count=24),)
        )
        lines = render_report(report, "markdown").splitlines()
        assert lines[0].startswith("| Language |")
        assert set(lines[1]) <= {"|", "-", " "}
        assert lines[2] == "| Persian | 50 | 52 | 48 |"

    def test_plain_columns(self):
        report = AnalysisReport(
            (AnalysisRow(language=LanguageCode.RO, total=457, positive_count=391,
                         negative_count=66),)
        )
        lines = render_report(report, "plain").splitlines()
        assert lines[0].split() == [
            "Language", "Total", "tweets", "Positive", "Tweets", "Percentage",
            "Negative", "Tweets", "Percentage",
        ]
        assert lines[1].split() == ["Romanian", "457", "85.55", "14.44"]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(AnalysisReport(rows=()), "html")


class TestPaperTable:
    def test_every_split_is_unique_and_recoverable(self):
        for code, (total, pos, neg) in PAPER_TABLE.items():
            positive = derive_split(total, pos, neg)
            row = AnalysisRow(
                language=LanguageCode.parse(code),
                total=total,
                positive_count=positive,
                negative_count=total - positive,
            )
            assert row.positive_display == pos
            assert row.negative_display == neg

    def test_known_splits(self):
        assert derive_split(*PAPER_TABLE["ru"]) == 134
        assert derive_split(*PAPER_TABLE["ro"]) == 391
        assert derive_split(*PAPER_TABLE["ur"]) == 29
        assert derive_split(*PAPER_TABLE["fa"]) == 26
        assert derive_split(*PAPER_TABLE["en"]) == 334
