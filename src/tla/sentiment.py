"""Deterministic two-class sentiment labeling via weighted token lexicons.

The labeling rule is a pluggable seam: a weighted-lexicon sum with a sign
threshold and a configurable tie label.  The bundled per-language lexicons
are illustrative demos, not linguistic ground truth.
"""

from __future__ import annotations

import math
import warnings
from itertools import repeat
from typing import IO, Iterable, NamedTuple, Optional, Union

from .assets import data_dir
from .corpus import LanguageCode, SentimentLabel, validate_token
from .errors import LineError, decoded, where
from .errors import DuplicateTokenWarning  # load_lexicon's warning, importable here as before


class _LexiconFields(NamedTuple):
    language: LanguageCode
    weights: dict


class Lexicon(_LexiconFields):
    """Map from lowercase token to a finite, nonzero polarity weight; the
    weights are copied."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, language: LanguageCode, weights: dict):
        weights = dict(weights)
        for token, weight in weights.items():
            validate_token(token)
            if not isinstance(weight, (int, float)) or not math.isfinite(weight) or weight == 0:
                raise ValueError(f"weight for {token!r} must be finite and nonzero")
        return super().__new__(cls, language, weights)


def load_lexicon(source: Union[IO[bytes], IO[str], Iterable[str]], lang: LanguageCode) -> Lexicon:
    """Parse TSV lines ``token<TAB>weight``; ``#`` and blank lines are ignored.

    A duplicated token keeps its last weight and triggers DuplicateTokenWarning.
    Errors and warnings name the line and the source's ``name``, if it has one.
    """
    path = getattr(source, "name", None)
    weights: dict = {}
    for line_num, line in enumerate(source, start=1):
        stripped = decoded(line, line_num, path).strip("\n\r")
        if not stripped.strip() or stripped.lstrip().startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise LineError(path, line_num, "expected token<TAB>weight")
        token, weight_text = parts[0], parts[1].strip()
        try:
            validate_token(token)
        except ValueError as exc:
            raise LineError(path, line_num, f"bad token {token!r}: {exc}") from None
        try:
            weight = float(weight_text)
        except ValueError:
            weight = math.nan  # reported as a bad weight below
        if not math.isfinite(weight) or weight == 0:
            raise LineError(path, line_num,
                            f"bad weight {weight_text!r} (must be finite and nonzero)")
        if token in weights:
            warnings.warn(
                f"{where(path, line_num)}: duplicate token {token!r}, keeping last entry",
                DuplicateTokenWarning,
                stacklevel=2,
            )
        weights[token] = weight
    return Lexicon(language=lang, weights=weights)


def load_bundled_lexicon(lang: LanguageCode) -> Lexicon:
    """Load the demo lexicon ``lexicons/<code>.tsv`` from the assets directory."""
    path = data_dir() / "lexicons" / f"{lang.value}.tsv"
    if not path.is_file():
        return Lexicon(language=lang, weights={})
    with path.open("rb") as handle:
        return load_lexicon(handle, lang)


def score_tokens(tokens: Iterable[str], lexicon: Lexicon) -> float:
    """Sum of lexicon weights; absent tokens add 0, repeats count each time."""
    return float(sum(map(lexicon.weights.get, tokens, repeat(0.0))))


def label_sentiment(
    tokens: Iterable[str],
    lexicon: Lexicon,
    tie: Optional[SentimentLabel] = SentimentLabel.POSITIVE,
) -> Optional[SentimentLabel]:
    """Sign of the token score; an exact zero falls back to the tie label
    (None, for a caller that counts the ties)."""
    score = score_tokens(tokens, lexicon)
    if score > 0:
        return SentimentLabel.POSITIVE
    if score < 0:
        return SentimentLabel.NEGATIVE
    return tie
