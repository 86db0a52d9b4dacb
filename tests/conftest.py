"""Shared fixtures and deterministic generators for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tla.corpus import (
    CleanRow,
    LabeledDataset,
    LanguageCode,
    SentimentLabel,
)
from tla.langid import EmptySamplesError, _best_split_dense

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

#: Letters (and marks, where the script uses them) per supported language.
SCRIPT_LETTERS = {
    "en": "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "es": "abcdefghijklmnopqrstuvwxyzáéíóúüñÁÉÑ",
    "fa": "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی",
    "fr": "abcdefghijklmnopqrstuvwxyzàâçéèêëîïôùûüœÉÀ",
    "hi": "अआइईउऊएऐओऔकखगघचछजझटठडढणतथदधनपफबभमयरलवशषसहािीुूेैोौंः",
    "id": "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "ja": "あいうえおかきくけこさしすせそたちつてとなにぬねのはひふへほまみむめもやゆよらりるれろわをんアイウエオカタナハマヤラワ日本語学校水火山川",
    "nl": "abcdefghijklmnopqrstuvwxyzëéijIJABC",
    "pt": "abcdefghijklmnopqrstuvwxyzãõáéíóúâêôçÃÇ",
    "ro": "abcdefghijklmnopqrstuvwxyzăâîșțĂÎȘ",
    "ru": "абвгдеёжзийклмнопрстуфхцчшщъыьэюяАБВГДЕЖЗИК",
    "sv": "abcdefghijklmnopqrstuvwxyzåäöÅÄÖ",
    "th": "กขคงจฉชซญฎฏฐดตถทธนบปผฝพฟภมยรลวศษสหอฮะัาำิีึืุู",
    "tr": "abcçdefgğhıijklmnoöprsştuüvyzÇĞİÖŞÜ",
    "ur": "اآبپتٹثجچحخدڈذرڑزژسشصضطظعغفقکگلمنںوہھءیے",
    "zh": "的一是不了人我在有他这为之大来以个中上们到说国和地也子时道出而要于就下得可你年生自会那后能对着事",
}

#: Markup, links, symbols, emoji, and punctuation to interleave with letters.
NOISE_PIECES = [
    "<b>", "</b>", "<i>", "</i>", '<a href="x">', "<br/>",
    "https://t.co/Ab3xYz", "http://example.com/page?q=1&r=2", "www.example.org/path",
    "😀", "🎉", "❤️", "🤖", "😡😡",
    "!!!", "?!", "...", ",", ".", ";", ":", "(", ")", "[", "]", "«", "»",
    "#tag", "@name", "$", "%", "+", "=", "^", "~", "—", "_", '"', "'",
    "42", "2024",
]


def random_script_text(rng: random.Random, lang: LanguageCode, *, noise: bool = True) -> str:
    """A short synthetic tweet in the language's script, optionally with noise."""
    letters = SCRIPT_LETTERS[lang.value]
    pieces = []
    for _ in range(rng.randint(1, 8)):
        word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 7)))
        pieces.append(word)
        if noise and rng.random() < 0.4:
            pieces.append(rng.choice(NOISE_PIECES))
    return " ".join(pieces)


TOKEN_ALPHABET = "abcdefghijkçñßдёжзабвгд好愛気ありü0123456789"


def random_token(rng: random.Random) -> str:
    token = "".join(rng.choice(TOKEN_ALPHABET) for _ in range(rng.randint(1, 8)))
    return token.lower()


TEXT_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789"
    "áéñçüßдёжз好愛気あり"
    ',;"\'()<>!?#@$%^&*-_=+ \n'
)


def random_tweet_text(rng: random.Random) -> str:
    while True:
        text = "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randint(1, 60)))
        if text.strip():
            return text


def random_dataset(rng: random.Random, language: LanguageCode = None) -> LabeledDataset:
    """A valid dataset with default engagement fields (CSV-representable)."""
    lang = language if language is not None else rng.choice(list(LanguageCode))
    rows = []
    for i in range(rng.randint(0, 8)):
        tweet_id, text = f"{i}-{rng.randrange(10**6)}", random_tweet_text(rng)
        tokens = tuple(random_token(rng) for _ in range(rng.randint(0, 6)))
        label = rng.choice([SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE])
        rows.append(CleanRow(tweet_id, lang, text, tokens, label))
    return LabeledDataset(language=lang, rows=tuple(rows))


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def best_split(samples, candidate_features):
    """Best (feature, threshold) over the candidates, or None if no split helps.

    Runs the forest's split search, ``tla.langid._best_split_dense``, on
    sparse samples (feature -> count dicts with a class index each).  Absent
    sparse entries count as 0.  Ties break toward the lowest feature index,
    then the lowest threshold.
    """
    if not samples:
        raise EmptySamplesError("best_split needs at least one sample")
    candidates = sorted(set(int(f) for f in candidate_features))
    if not candidates:
        return None
    column_of = {f: j for j, f in enumerate(candidates)}
    values = np.zeros((len(samples), len(candidates)), dtype=np.int64)
    y = np.empty(len(samples), dtype=np.int64)
    for i, (vec, cls) in enumerate(samples):
        y[i] = cls
        for f, count in vec.items():
            j = column_of.get(f)
            if j is not None:
                values[i, j] = count
    result = _best_split_dense(values, y, int(y.max()) + 1)
    if result is None:
        return None
    col, threshold = result
    return candidates[col], threshold


def exhaustive_best_split(samples, candidate_features):
    """Independent split-search oracle: exact rationals, brute enumeration.

    Same contract as best_split: minimize weighted child Gini over
    all (feature, midpoint) pairs, ties to lowest feature then lowest
    threshold, None when no split strictly reduces the parent impurity.
    """
    from fractions import Fraction

    n = len(samples)
    y = [cls for _, cls in samples]

    def gini(rows):
        total = len(rows)
        counts = {}
        for i in rows:
            counts[y[i]] = counts.get(y[i], 0) + 1
        return 1 - sum(Fraction(c, total) ** 2 for c in counts.values())

    parent = gini(range(n))
    best = None
    for feature in sorted(set(candidate_features)):
        values = sorted({samples[i][0].get(feature, 0) for i in range(n)})
        for low, high in zip(values, values[1:]):
            threshold = Fraction(low + high, 2)
            left = [i for i in range(n) if samples[i][0].get(feature, 0) <= threshold]
            right = [i for i in range(n) if samples[i][0].get(feature, 0) > threshold]
            score = (len(left) * gini(left) + len(right) * gini(right)) / n
            if score < parent and (best is None or score < best[0]):
                best = (score, feature, threshold)
    if best is None:
        return None
    return best[1], float(best[2])
