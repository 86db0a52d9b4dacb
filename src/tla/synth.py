"""Seeded synthetic training corpus: word-level Markov shuffles of seed texts.

Each language ships a short seed paragraph under ``seeds/<code>.txt``.  Units
are words for space-delimited scripts and characters for unsegmented ones;
sentences are random walks over the seed's bigram successor table.  Real
scraped data is a drop-in replacement for this generator.
"""

from __future__ import annotations

import random
from typing import Sequence

from .assets import data_dir, read_utf8
from .corpus import LanguageCode
from .errors import TlaError
from .langid import derive_seed, normalize_for_langid
from .preprocess import tokenize

_MIN_UNITS = 6
_MAX_UNITS = 14


def load_seed_units(lang: LanguageCode) -> list[str]:
    """Read and normalize the language's seed text, split into shuffle units.

    Invalid UTF-8 is a LineError naming the file and line.
    """
    path = data_dir() / "seeds" / f"{lang.value}.txt"
    units = tokenize(normalize_for_langid(read_utf8(path)), lang) if path.is_file() else []
    if len(units) < 2:
        raise TlaError(f"no seed text for {lang} at {path}")
    return units


def _successors(units: Sequence[str]) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {}
    for prev, nxt in zip(units, units[1:]):
        table.setdefault(prev, []).append(nxt)
    return table


def synthetic_corpus(per_language: int, seed: int) -> list[tuple[str, LanguageCode]]:
    """Generate ``per_language`` sentences for each language, language-major.

    Deterministic: each language draws from its own generator derived from
    (seed, language position), so corpora for different sizes share a prefix.
    """
    if per_language < 1:
        raise ValueError(f"per_language must be >= 1, got {per_language}")
    corpus: list[tuple[str, LanguageCode]] = []
    for li, lang in enumerate(LanguageCode):
        units = load_seed_units(lang)
        succ = _successors(units)
        rng = random.Random(derive_seed(seed, li))
        joiner = "" if lang.unsegmented else " "
        for _ in range(per_language):
            length = rng.randint(_MIN_UNITS, _MAX_UNITS)
            word = units[rng.randrange(len(units))]
            sentence = [word]
            for _ in range(length - 1):
                choices = succ.get(word)
                word = rng.choice(choices) if choices else units[rng.randrange(len(units))]
                sentence.append(word)
            corpus.append((joiner.join(sentence), lang))
    return corpus


def synthetic_split(
    train_per_language: int, test_per_language: int, seed: int
) -> tuple[list[tuple[str, LanguageCode]], list[tuple[str, LanguageCode]]]:
    """Per-language train/test split of one generated corpus (train first)."""
    total = train_per_language + test_per_language
    corpus = synthetic_corpus(total, seed)
    train: list[tuple[str, LanguageCode]] = []
    test: list[tuple[str, LanguageCode]] = []
    for start in range(0, len(corpus), total):
        block = corpus[start : start + total]
        train.extend(block[:train_per_language])
        test.extend(block[train_per_language:])
    return train, test
