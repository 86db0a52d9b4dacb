"""Deterministic two-class sentiment labeling via weighted token lexicons.

The labeling rule is a pluggable seam: a weighted-lexicon sum with a sign
threshold and a configurable tie label.  The bundled per-language lexicons
are illustrative demos, not linguistic ground truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Optional, Union

from .assets import data_dir
from .corpus import LanguageCode, SentimentLabel, validate_token
from .errors import LineError


class LexiconError(LineError):
    """Base for lexicon parse errors; carries a 1-based line number."""


class BadWeightError(LexiconError):
    def __init__(self, line: int, value: str):
        super().__init__(line, f"bad weight {value!r} (must be finite and nonzero)")


class BadTokenError(LexiconError):
    def __init__(self, line: int, token: str, reason: str):
        super().__init__(line, f"bad token {token!r}: {reason}")


class DuplicateTokenWarning(UserWarning):
    """Issued when a lexicon repeats a token; the last entry wins."""


@dataclass(frozen=True)
class Lexicon:
    """Map from lowercase token to a finite, nonzero polarity weight."""

    language: LanguageCode
    weights: dict

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))
        for token, weight in self.weights.items():
            validate_token(token)
            if not isinstance(weight, (int, float)) or not math.isfinite(weight) or weight == 0:
                raise ValueError(f"weight for {token!r} must be finite and nonzero")


def load_lexicon(source: Union[IO[bytes], IO[str], Iterable[str]], lang: LanguageCode) -> Lexicon:
    """Parse TSV lines ``token<TAB>weight``; ``#`` and blank lines are ignored.

    A duplicated token keeps its last weight and triggers DuplicateTokenWarning.
    Errors and warnings name the line and the source's ``name``, if it has one.
    """
    path = getattr(source, "name", None)
    weights: dict = {}
    try:
        for line_num, line in enumerate(source, start=1):
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise LexiconError(line_num, f"invalid UTF-8: {exc.reason}") from None
            stripped = line.strip("\n\r")
            if not stripped.strip() or stripped.lstrip().startswith("#"):
                continue
            parts = stripped.split("\t")
            if len(parts) != 2:
                raise LexiconError(line_num, "expected token<TAB>weight")
            token, weight_text = parts[0], parts[1].strip()
            try:
                validate_token(token)
            except ValueError as exc:
                raise BadTokenError(line_num, token, str(exc)) from None
            try:
                weight = float(weight_text)
            except ValueError:
                raise BadWeightError(line_num, weight_text) from None
            if not math.isfinite(weight) or weight == 0:
                raise BadWeightError(line_num, weight_text)
            if token in weights:
                where = f"line {line_num}" if path is None else f"{path}: line {line_num}"
                warnings.warn(
                    f"{where}: duplicate token {token!r}, keeping last entry",
                    DuplicateTokenWarning,
                    stacklevel=2,
                )
            weights[token] = weight
    except LexiconError as exc:
        exc.path = path
        raise
    return Lexicon(language=lang, weights=weights)


def load_bundled_lexicon(
    lang: LanguageCode, override_dir: Optional[Path] = None
) -> Lexicon:
    """Load the demo lexicon ``lexicons/<code>.tsv`` from the assets directory."""
    path = data_dir(override_dir) / "lexicons" / f"{lang.value}.tsv"
    if not path.is_file():
        return Lexicon(language=lang, weights={})
    with path.open("rb") as handle:
        return load_lexicon(handle, lang)


def score_tokens(tokens: Iterable[str], lexicon: Lexicon) -> float:
    """Sum of lexicon weights; absent tokens add 0, repeats count each time."""
    weights = lexicon.weights
    return float(sum(weights.get(token, 0.0) for token in tokens))


def label_sentiment(
    tokens: Iterable[str],
    lexicon: Lexicon,
    tie: SentimentLabel = SentimentLabel.POSITIVE,
) -> SentimentLabel:
    """Sign of the token score; an exact zero falls back to the tie label."""
    score = score_tokens(tokens, lexicon)
    if score > 0:
        return SentimentLabel.POSITIVE
    if score < 0:
        return SentimentLabel.NEGATIVE
    return tie
