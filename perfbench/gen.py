"""Seeded JSONL inputs for the benchmark workloads, with their ground truth.

Texts come from ``tla.synthetic_corpus`` under a generation seed derived from
the benchmark seed, so they are drawn independently of the identifier's
training corpus (seed 42).  ``synthetic_corpus`` is language-major; rows are
interleaved round-robin so any prefix covers all sixteen languages.  Words
from the bundled lexicons are mixed in so that both sentiment labels occur
(plain synthetic text scores zero and always takes the tie label).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from tla import LanguageCode, load_bundled_lexicon, synthetic_corpus

LANGS = tuple(LanguageCode)
MAX_CHARS = 280

_EMOJI = ("\U0001F600", "\U0001F525", "\U0001F44D", "❤️", "\U0001F62D", "✨")
_PUNCT = ("!", "!!", "?", "...", ",", ";", ":", "…", "¿", "¡")


@dataclass
class Generated:
    """One generated JSONL file and what the pipeline must make of it."""

    path: Path
    lines: int = 0
    bytes: int = 0
    bad_lines: int = 0
    #: id -> true language code, in file order, for the valid records only.
    truth: dict = field(default_factory=dict)
    #: id -> the ``lang`` field written into the record.
    hints: dict = field(default_factory=dict)

    @property
    def valid(self) -> int:
        return len(self.truth)

    def describe(self) -> dict:
        return {
            "file": self.path.name,
            "rows": self.lines,
            "bytes": self.bytes,
            "valid_rows": self.valid,
            "bad_lines": self.bad_lines,
            "wrong_hints": sum(1 for k, v in self.hints.items() if self.truth[k] != v),
        }


def generation_seed(seed: int, purpose: str) -> int:
    """A 63-bit seed for (benchmark seed, purpose), far from small model seeds."""
    digest = hashlib.sha256(f"perfbench:{purpose}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _sentences(per_language: int, seed: int) -> dict:
    by_lang: dict = {lang: [] for lang in LANGS}
    for text, lang in synthetic_corpus(per_language, seed=seed):
        by_lang[lang].append(text)
    return by_lang


def _polar_words() -> dict:
    words = {}
    for lang in LANGS:
        weights = load_bundled_lexicon(lang).weights
        words[lang] = (
            sorted(t for t, w in weights.items() if w > 0),
            sorted(t for t, w in weights.items() if w < 0),
        )
    return words


def _insert(text: str, piece: str, lang: LanguageCode, rng: random.Random) -> str:
    if lang.unsegmented:
        at = rng.randrange(len(text) + 1)
        return text[:at] + piece + text[at:]
    words = text.split(" ")
    words.insert(rng.randrange(len(words) + 1), piece)
    return " ".join(words)


def _add_sentiment(text, lang, polar, rng):
    # A third of rows get no lexicon word (tie label), the rest lean one way.
    roll = rng.random()
    if roll < 1 / 3:
        return text
    positive, negative = polar[lang]
    pool = positive if roll < 2 / 3 else negative
    for _ in range(rng.randint(1, 2)):
        text = _insert(text, rng.choice(pool), lang, rng)
    return text


def _noise(rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return "#" + rng.choice(("news", "tbt", "wow", "2021", "mood", "live"))
    if kind == 1:
        return f"@user{rng.randrange(10000)}"
    if kind == 2:
        return f"https://t.co/{rng.randrange(16**8):08x}"
    if kind == 3:
        return rng.choice(_EMOJI)
    if kind == 4:
        return rng.choice(_PUNCT)
    return rng.choice(("<b>", "</b>", "<br/>", "<i>ok</i>"))


def _write(gen: Generated, records: list) -> Generated:
    data = "".join(records).encode("utf-8")
    gen.path.write_bytes(data)
    gen.lines = len(records)
    gen.bytes = len(data)
    return gen


def _record(tweet_id, text, hint, rng) -> str:
    record = {
        "id": tweet_id,
        "text": text,
        "lang": hint,
        "likeCount": rng.randrange(9000, 200000),
        "replyCount": rng.randrange(1, 500),
    }
    return json.dumps(record, ensure_ascii=False) + "\n"


def short_tweets(path: Path, rows: int, seed: int, wrong_hint_share: float) -> Generated:
    """Short mixed-language tweets; a fixed share carry a wrong ``lang`` hint."""
    gseed = generation_seed(seed, path.stem)
    rng = random.Random(gseed)
    texts = _sentences(-(-rows // len(LANGS)), gseed)
    polar = _polar_words()
    wrong = round(rows * wrong_hint_share)
    wrong_ids = set(rng.sample(range(rows), wrong))
    gen = Generated(path)
    records = []
    for i in range(rows):
        lang = LANGS[i % len(LANGS)]
        text = _add_sentiment(texts[lang][i // len(LANGS)], lang, polar, rng)
        hint = lang
        if i in wrong_ids:
            hint = rng.choice([code for code in LANGS if code is not lang])
        tweet_id = f"{path.stem}{i:07d}"
        gen.truth[tweet_id] = lang.value
        gen.hints[tweet_id] = hint.value
        records.append(_record(tweet_id, text, hint.value, rng))
    return _write(gen, records)


def _bad_line(i: int, tweet_id: str, rng: random.Random) -> str:
    kind = i % 6
    if kind == 0:
        return '{"id": "%s", "text": "cut off mid-rec' % tweet_id + "\n"
    if kind == 1:
        return json.dumps({"id": tweet_id, "lang": "en"}) + "\n"
    if kind == 2:
        return json.dumps({"id": tweet_id, "text": "x" * (MAX_CHARS + 20), "lang": "en"}) + "\n"
    if kind == 3:
        return json.dumps({"id": tweet_id, "text": "hola amigos", "lang": "xx"}) + "\n"
    if kind == 4:
        return json.dumps({"id": tweet_id, "text": "bonjour", "lang": "fr", "likeCount": -5}) + "\n"
    return json.dumps([tweet_id, rng.randrange(100)]) + "\n"


def long_tweets(path: Path, rows: int, seed: int, bad_share: float) -> Generated:
    """Longer noisy tweets (tags, URLs, emoji, punctuation) with correct hints.

    Every record's language is its ``lang:xx`` query language.  A fixed
    share of lines are bad records that ``clean --skip-bad-lines`` drops.
    """
    gseed = generation_seed(seed, path.stem)
    rng = random.Random(gseed)
    good = rows - round(rows * bad_share)
    per_language = -(-good // len(LANGS))
    texts = _sentences(per_language * 3, gseed)
    polar = _polar_words()
    bad_at = set(rng.sample(range(rows), rows - good))
    gen = Generated(path)
    records = []
    used = 0
    for i in range(rows):
        tweet_id = f"{path.stem}{i:07d}"
        if i in bad_at:
            records.append(_bad_line(gen.bad_lines, tweet_id, rng))
            gen.bad_lines += 1
            continue
        lang = LANGS[used % len(LANGS)]
        pool = texts[lang]
        k = used // len(LANGS)
        used += 1
        joiner = "" if lang.unsegmented else " "
        text = joiner.join(pool[3 * k : 3 * k + rng.randint(1, 3)])
        text = _add_sentiment(text, lang, polar, rng)
        for _ in range(rng.randint(2, 6)):
            piece = _noise(rng)
            noisy = _insert(text, f" {piece} " if lang.unsegmented else piece, lang, rng)
            if len(noisy) > MAX_CHARS:
                break
            text = noisy
        text = text[:MAX_CHARS]
        gen.truth[tweet_id] = lang.value
        gen.hints[tweet_id] = lang.value
        records.append(_record(tweet_id, text, lang.value, rng))
    return _write(gen, records)
