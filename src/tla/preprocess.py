"""The cleaning chain: markup, links, symbols, punctuation, stopwords, case.

Stage order is fixed: tags -> URLs -> symbols/emoji -> punctuation ->
tokenize -> stopwords -> lowercase.  Stopword comparison casefolds both
sides, so running lowercasing last cannot create misses.
"""

from __future__ import annotations

import unicodedata
from functools import lru_cache
from pathlib import Path
import re
from typing import Iterable, Mapping, Optional

from .assets import data_dir, read_utf8
from .corpus import LanguageCode

_TAG_RE = re.compile(r"<[^<>]*>")
_URL_RE = re.compile(r"(?:https?://|www\.)\S*", re.IGNORECASE)

# Symbol removal covers Unicode category S* plus these blocks, which catch
# emoji machinery (variation selectors, newer codepoints unicodedata may not
# yet classify as So).
_EMOJI_BLOCKS = (
    (0x1F000, 0x1FFFF),
    (0x2600, 0x27BF),
    (0xFE00, 0xFE0F),
)

# Scripts tokenized one character at a time: Thai, kana, CJK ideographs.
_UNSEGMENTED_BLOCKS = (
    (0x0E00, 0x0E7F),
    (0x3040, 0x30FF),
    (0x31F0, 0x31FF),
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xF900, 0xFAFF),
    (0xFF65, 0xFF9F),
    (0x20000, 0x2FA1F),
)


def _in_blocks(codepoint: int, blocks) -> bool:
    return any(lo <= codepoint <= hi for lo, hi in blocks)


@lru_cache(maxsize=None)
def _is_symbol(ch: str) -> bool:
    return unicodedata.category(ch)[0] == "S" or _in_blocks(ord(ch), _EMOJI_BLOCKS)


@lru_cache(maxsize=None)
def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch)[0] == "P"


def clean_text(text: str) -> str:
    """Strip tags, URLs, symbols/emoji, and punctuation; normalize whitespace.

    Each removal substitutes a single space.  Letters, combining marks, and
    digits of every script survive untouched.
    """
    text = _TAG_RE.sub(" ", text)
    text = _URL_RE.sub(" ", text)
    text = "".join(
        " " if _is_symbol(ch) or _is_punctuation(ch) else ch for ch in text
    )
    return " ".join(text.split())


@lru_cache(maxsize=None)
def _is_unsegmented_char(ch: str) -> bool:
    return _in_blocks(ord(ch), _UNSEGMENTED_BLOCKS)


def tokenize(text: str, lang: LanguageCode) -> list[str]:
    """Split cleaned text into tokens (not yet lowercased).

    Space-delimited scripts split on whitespace.  Unsegmented scripts (zh, ja,
    th) emit one token per character, except that contiguous runs of other
    scripts (Latin words, digits) stay whole.
    """
    if not lang.unsegmented:
        return text.split()

    tokens: list[str] = []
    run: list[str] = []
    for ch in text:
        if ch.isspace():
            if run:
                tokens.append("".join(run))
                run = []
        elif _is_unsegmented_char(ch):
            if run:
                tokens.append("".join(run))
                run = []
            tokens.append(ch)
        else:
            run.append(ch)
    if run:
        tokens.append("".join(run))
    return tokens


class StopwordTable:
    """Per-language stopword sets with casefolded, case-insensitive lookup."""

    def __init__(self, table: Mapping[LanguageCode, Iterable[str]]):
        self._table: dict[LanguageCode, frozenset[str]] = {
            lang: frozenset(word.casefold() for word in words)
            for lang, words in table.items()
        }

    @classmethod
    def load_bundled(cls, override_dir: Optional[Path] = None) -> "StopwordTable":
        """Load ``stopwords/<code>.txt`` for every language that ships a list.

        Files are UTF-8, one token per line; ``#`` lines are comments.
        Languages without a file map to the empty set.  Invalid UTF-8 is a
        LineError naming the file and line.
        """
        base = data_dir(override_dir) / "stopwords"
        table: dict[LanguageCode, list[str]] = {}
        for lang in LanguageCode:
            path = base / f"{lang.value}.txt"
            if not path.is_file():
                continue
            words = []
            for line in read_utf8(path).splitlines():
                line = line.strip()
                if line and not line.startswith("#"):
                    words.append(line)
            table[lang] = words
        return cls(table)

    def stopwords(self, lang: LanguageCode) -> frozenset[str]:
        return self._table.get(lang, frozenset())

    def is_stopword(self, lang: LanguageCode, token: str) -> bool:
        return token.casefold() in self.stopwords(lang)


def remove_stopwords(
    tokens: Iterable[str], lang: LanguageCode, table: StopwordTable
) -> list[str]:
    """Drop tokens in the language's stopword set; survivors keep their order."""
    return [t for t in tokens if not table.is_stopword(lang, t)]


def preprocess_tweet(
    text: str, lang: LanguageCode, table: StopwordTable
) -> list[str]:
    """Full chain: clean, tokenize, remove stopwords, lowercase each token."""
    tokens = tokenize(clean_text(text), lang)
    return [t.lower() for t in remove_stopwords(tokens, lang, table)]
