"""The cleaning chain: markup, links, symbols, punctuation, stopwords, case.

Stage order is fixed: tags -> URLs -> symbols/emoji -> punctuation ->
tokenize -> stopwords -> lowercase.  Stopword comparison casefolds both
sides, so running lowercasing last cannot create misses.

The per-character work runs in C.  Symbols and punctuation go in one
``str.translate`` through ``_REMOVED``, a dict that maps each code point to
a space or to itself and is filled the first time a code point is seen, so
it holds at most one entry per distinct code point read.  Unsegmented
scripts are tokenized by one ``findall`` of a regex compiled on first use.
"""

from __future__ import annotations

import unicodedata
from functools import cache
import re
from typing import Iterable, Mapping

from .assets import data_dir, read_utf8
from .corpus import LanguageCode

# An HTML tag (``<b>``, ``</b>``, ``<br/>``, ``<a href="x">``): a ``<`` that is
# directly followed by a name, so ``<3`` and ``a < b > c`` are not tags.
_TAG_RE = re.compile(r"</?[A-Za-z][^<>]*>")
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


class _RemovedTable(dict):
    """``str.translate`` table: a symbol (category S* or an emoji block) or
    punctuation (P*) code point maps to a space, any other to itself."""

    def __missing__(self, codepoint: int) -> str:
        ch = chr(codepoint)
        removed = unicodedata.category(ch)[0] in "SP" or any(
            lo <= codepoint <= hi for lo, hi in _EMOJI_BLOCKS
        )
        self[codepoint] = answer = " " if removed else ch
        return answer


_REMOVED = _RemovedTable()


def clean_text(text: str) -> str:
    """Strip tags, URLs, symbols/emoji, and punctuation; normalize whitespace.

    Each removal substitutes a single space.  Letters, combining marks, and
    digits of every script survive untouched.
    """
    text = _TAG_RE.sub(" ", text)
    text = _URL_RE.sub(" ", text)
    return " ".join(text.translate(_REMOVED).split())


@cache
def _unsegmented_token_re() -> re.Pattern:
    """One unsegmented character, or a run of anything that is neither
    whitespace nor unsegmented.  ``\\s`` matches exactly where
    ``str.isspace()`` is true.  Compiled on first use: its classes take
    milliseconds to compile, which every stage would pay at import."""
    blocks = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _UNSEGMENTED_BLOCKS)
    return re.compile(f"[{blocks}]|[^\\s{blocks}]+")


def tokenize(text: str, lang: LanguageCode) -> list[str]:
    """Split cleaned text into tokens (not yet lowercased).

    Space-delimited scripts split on whitespace.  Unsegmented scripts (zh, ja,
    th) emit one token per character, except that contiguous runs of other
    scripts (Latin words, digits) stay whole.
    """
    if not lang.unsegmented:
        return text.split()
    return _unsegmented_token_re().findall(text)


class StopwordTable:
    """Per-language stopword sets with casefolded, case-insensitive lookup."""

    def __init__(self, table: Mapping[LanguageCode, Iterable[str]]):
        self._table: dict[LanguageCode, frozenset[str]] = {
            lang: frozenset(word.casefold() for word in words)
            for lang, words in table.items()
        }

    @classmethod
    def load_bundled(cls) -> "StopwordTable":
        """Load ``stopwords/<code>.txt`` for every language that ships a list.

        Files are UTF-8, one token per line; ``#`` lines are comments.
        Languages without a file map to the empty set.  Invalid UTF-8 is a
        LineError naming the file and line.
        """
        base = data_dir() / "stopwords"
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
        """The language's casefolded stopwords; empty without a list."""
        return self._table.get(lang, frozenset())


def remove_stopwords(
    tokens: Iterable[str], lang: LanguageCode, table: StopwordTable
) -> list[str]:
    """Drop tokens whose casefold is in the language's stopword set;
    survivors keep their order."""
    stop = table.stopwords(lang)
    return [t for t in tokens if t.casefold() not in stop]


def preprocess_tweet(
    text: str, lang: LanguageCode, table: StopwordTable
) -> list[str]:
    """Full chain: clean, tokenize, remove stopwords, lowercase each token."""
    tokens = tokenize(clean_text(text), lang)
    return [t.lower() for t in remove_stopwords(tokens, lang, table)]
