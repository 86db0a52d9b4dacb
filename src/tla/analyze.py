"""Per-language totals and truncated positive/negative percentage tables.

Percentage cells are truncations (floor), never roundings, to two decimals,
with trailing zeros and a trailing decimal point trimmed: 391/457 displays as
85.55 (rounding would give 85.56) and 26/50 as 52.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .corpus import LANGUAGE_ORDER, CleanRow, LanguageCode, SentimentLabel
from .errors import TlaError

REPORT_HEADER = (
    "Language",
    "Total tweets",
    "Positive Tweets Percentage",
    "Negative Tweets Percentage",
)

REPORT_FORMATS = ("csv", "markdown", "plain")


class ZeroDenominatorError(TlaError):
    pass


def truncate_pct(numerator: int, denominator: int) -> str:
    """floor(10000*n/d)/100 rendered without trailing zeros or point."""
    if denominator <= 0:
        raise ZeroDenominatorError(
            f"denominator must be positive, got {denominator}"
        )
    if not 0 <= numerator <= denominator:
        raise ValueError(
            f"numerator must be in [0, denominator], got {numerator}/{denominator}"
        )
    hundredths = (10000 * numerator) // denominator
    text = f"{hundredths // 100}.{hundredths % 100:02d}"
    return text.rstrip("0").rstrip(".")


@dataclass(frozen=True)
class AnalysisRow:
    """One language's label counts; display percentages derive from them."""

    language: LanguageCode
    total: int
    positive_count: int
    negative_count: int

    def __post_init__(self):
        if self.total < 1:
            raise ValueError(f"total must be positive, got {self.total}")
        if self.positive_count < 0 or self.negative_count < 0:
            raise ValueError("label counts must be nonnegative")
        if self.positive_count + self.negative_count != self.total:
            raise ValueError(
                f"counts {self.positive_count}+{self.negative_count} "
                f"do not sum to total {self.total}"
            )

    @property
    def positive_display(self) -> str:
        return truncate_pct(self.positive_count, self.total)

    @property
    def negative_display(self) -> str:
        return truncate_pct(self.negative_count, self.total)


@dataclass(frozen=True)
class AnalysisReport:
    """Rows in canonical table order, at most one per language."""

    rows: tuple[AnalysisRow, ...]

    def __post_init__(self):
        languages = [row.language for row in self.rows]
        if len(set(languages)) != len(languages):
            raise ValueError("duplicate language in report")


def aggregate_dataset(rows: Iterable[CleanRow]) -> AnalysisReport:
    """Count labels per language over labeled rows of any languages, in one
    pass; a language may come from several files.  An unlabeled row is a
    ValueError."""
    counts = Counter((row.lang, row.label) for row in rows)
    report_rows = []
    for lang in LANGUAGE_ORDER:
        if counts[lang, None]:
            raise ValueError(f"{counts[lang, None]} unlabeled {lang} row(s)")
        positive = counts[lang, SentimentLabel.POSITIVE]
        negative = counts[lang, SentimentLabel.NEGATIVE]
        if positive + negative:
            report_rows.append(AnalysisRow(lang, positive + negative, positive, negative))
    return AnalysisReport(tuple(report_rows))


def _row_cells(row: AnalysisRow) -> tuple[str, str, str, str]:
    return (
        row.language.display_name,
        str(row.total),
        row.positive_display,
        row.negative_display,
    )


def render_report(report: AnalysisReport, format: str = "plain") -> str:
    """Render the table as csv, markdown, or plain text (LF line endings)."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {REPORT_FORMATS}")
    cells = [_row_cells(row) for row in report.rows]

    if format == "csv":
        lines = [",".join(REPORT_HEADER)]
        lines.extend(",".join(row) for row in cells)
    elif format == "markdown":
        lines = [
            "| " + " | ".join(REPORT_HEADER) + " |",
            "|" + "|".join(" --- " for _ in REPORT_HEADER) + "|",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in cells)
    else:
        widths = [
            max(len(REPORT_HEADER[i]), max((len(row[i]) for row in cells), default=0))
            for i in range(len(REPORT_HEADER))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(REPORT_HEADER, widths)).rstrip()]
        lines.extend(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in cells
        )
    return "\n".join(lines) + "\n"
