"""Rebuild the published per-language analysis table from its percentage cells.

The displayed percentages are truncations (floor to two decimals, trailing
zeros trimmed), which makes each row's integer label split uniquely
recoverable by brute force: 85.55/14.44 over 457 tweets can only be 391/66.
"""

from tla import AnalysisReport, AnalysisRow, LanguageCode, render_report, truncate_pct

TABLE = [
    ("en", 500, "66.8", "33.2"), ("es", 500, "61.4", "38.6"),
    ("fa", 50, "52", "48"), ("fr", 500, "53", "47"),
    ("hi", 500, "62", "38"), ("id", 500, "63.4", "36.6"),
    ("ja", 500, "85.6", "14.4"), ("nl", 500, "84.2", "15.8"),
    ("pt", 500, "61.2", "38.8"), ("ro", 457, "85.55", "14.44"),
    ("ru", 213, "62.91", "37.08"), ("sv", 420, "80.23", "19.76"),
    ("th", 424, "71.46", "28.53"), ("tr", 500, "67.8", "32.2"),
    ("ur", 42, "69.04", "30.95"), ("zh", 500, "80.6", "19.4"),
]

rows = []
print("recovered integer splits:")
for code, total, pos_cell, neg_cell in TABLE:
    candidates = [
        p for p in range(total + 1)
        if truncate_pct(p, total) == pos_cell and truncate_pct(total - p, total) == neg_cell
    ]
    assert len(candidates) == 1, f"{code}: ambiguous split {candidates}"
    positive = candidates[0]
    print(f"  {code}: {positive:3d} positive / {total - positive:3d} negative of {total}")
    rows.append(AnalysisRow(language=LanguageCode.parse(code), total=total,
                            positive_count=positive, negative_count=total - positive))

report = AnalysisReport(tuple(rows))  # TABLE is in canonical order
print()
print(render_report(report, "plain"))
print("note 37.08 (not 37.09) and 85.55 (not 85.56): truncation, not rounding")
