"""Shared fixtures and deterministic generators for the test suite."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tla.corpus import (
    CleanRow,
    LanguageCode,
    SentimentLabel,
)
from tla.langid import (
    DecisionTree,
    EmptySamplesError,
    ForestModel,
    _best_split_hist,
    derive_seed,
)

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


def random_dataset(
    rng: random.Random, language: LanguageCode = None
) -> tuple[LanguageCode, list[CleanRow]]:
    """A language and 0-8 labeled rows in it with unique ids (CSV-representable)."""
    lang = language if language is not None else rng.choice(list(LanguageCode))
    rows = []
    for i in range(rng.randint(0, 8)):
        tweet_id, text = f"{i}-{rng.randrange(10**6)}", random_tweet_text(rng)
        tokens = tuple(random_token(rng) for _ in range(rng.randint(0, 6)))
        label = rng.choice([SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE])
        rows.append(CleanRow(tweet_id, lang, text, tokens, label))
    return lang, rows


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def dense_histogram(values, y, n_classes):
    """The (m, vmax + 1, k) class histogram of a dense (n, m) count block."""
    m = values.shape[1]
    stride = int(values.max()) + 1
    k = n_classes
    flat = (np.arange(m, dtype=np.int64) * stride)[None, :] * k + values * k + y[:, None]
    return np.bincount(flat.ravel(), minlength=m * stride * k).reshape(m, stride, k)


def best_split(samples, candidate_features):
    """Best (feature, threshold) over the candidates, or None if no split helps.

    Builds the candidates' class histogram from sparse samples (feature ->
    count dicts with a class index each) and runs the forest's split kernel,
    ``tla.langid._best_split_hist``, on it.  Absent sparse entries count as
    0.  Ties break toward the lowest feature index, then the lowest threshold.
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
    k = int(y.max()) + 1
    hist = dense_histogram(values, y, k)
    result = _best_split_hist(hist, np.bincount(y, minlength=k), len(samples))
    if result is None:
        return None
    col, threshold = result
    return candidates[col], threshold


# A dense reference grower: the whole (n, n_features) count matrix, each
# node's block gathered with ``np.ix_`` and searched on its own.  ``fit_forest``
# must reproduce its trees node for node.

def _reference_best_split(values, y, n_classes):
    """Exhaustive split search over a dense (n_samples, n_features) block."""
    n, m = values.shape
    if n == 0 or m == 0:
        return None
    values = values.astype(np.int64, copy=False)
    vmax = int(values.max())
    if vmax == int(values.min()):
        return None
    stride = vmax + 1
    k = n_classes

    hist = dense_histogram(values, y, k)
    cum = hist.cumsum(axis=1)
    n_left = cum.sum(axis=2)
    sum_l2 = (cum * cum).sum(axis=2)
    totals = np.bincount(y, minlength=k).astype(np.int64)
    rem = totals[None, None, :] - cum
    sum_r2 = (rem * rem).sum(axis=2)
    n_right = n - n_left

    observed = hist.sum(axis=2) > 0
    valid = observed & (n_right > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = sum_l2 / np.maximum(n_left, 1) + sum_r2 / np.maximum(n_right, 1)
    q = np.where(valid, q, -np.inf)

    eps = 1e-9 * n
    parent_q = float((totals * totals).sum()) / n
    q_best = float(q.max())
    if not q_best > parent_q + eps:
        return None

    pos = int(np.argmax(q >= q_best - eps))
    col, v = divmod(pos, stride)
    observed_values = np.nonzero(observed[col])[0]
    nxt = int(observed_values[observed_values > v][0])
    return col, (v + nxt) / 2.0


def _reference_grow_tree(X, y, n_classes, rng, params, m_features):
    n_samples, n_features = X.shape
    boot = rng.integers(0, n_samples, size=n_samples)
    feature, threshold, left, right, value = [], [], [], [], []
    stack = [(boot, 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        pos = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = pos
            else:
                right[parent] = pos

        counts = np.bincount(y[idx], minlength=n_classes)
        majority = int(np.argmax(counts))
        pure = int(counts.max()) == idx.size
        at_depth_limit = params.max_depth is not None and depth >= params.max_depth
        split = None
        if not (pure or at_depth_limit or idx.size < params.min_samples_split or m_features == 0):
            if m_features < n_features:
                cand = np.sort(
                    rng.choice(n_features, size=m_features, replace=False, shuffle=False)
                )
            else:
                cand = np.arange(n_features)
            found = _reference_best_split(X[np.ix_(idx, cand)], y[idx], n_classes)
            if found is not None:
                split = (int(cand[found[0]]), found[1])

        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(majority)
            continue

        f, thr = split
        go_left = X[idx, f] <= thr
        feature.append(f)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        value.append(-1)
        stack.append((idx[~go_left], depth + 1, pos, False))
        stack.append((idx[go_left], depth + 1, pos, True))

    return DecisionTree(
        tuple(feature), tuple(threshold), tuple(left), tuple(right), tuple(value)
    )


def reference_fit_forest(samples, params, n_features=None):
    """``fit_forest`` on the dense (n, n_features) count matrix."""
    classes = tuple(sorted({lang for _, lang in samples}))
    class_index = {lang: i for i, lang in enumerate(classes)}
    if n_features is None:
        n_features = 1 + max((max(vec) for vec, _ in samples if vec), default=-1)
    X = np.zeros((len(samples), n_features), dtype=np.int32)
    y = np.empty(len(samples), dtype=np.int64)
    for i, (vec, lang) in enumerate(samples):
        y[i] = class_index[lang]
        X[i, list(vec)] = list(vec.values())

    if params.features_per_split is not None:
        m_features = min(params.features_per_split, n_features)
    else:
        m_features = math.isqrt(n_features)
        if m_features * m_features < n_features:
            m_features += 1
    trees = tuple(
        _reference_grow_tree(
            X, y, len(classes),
            np.random.Generator(np.random.PCG64(derive_seed(params.seed, t))),
            params, m_features,
        )
        for t in range(params.num_trees)
    )
    return ForestModel(params=params, classes=classes, trees=trees)


def reference_predict(model, x):
    """The per-tree walk and plurality vote over one sparse vector.

    ``predict_language`` must give the same (class, confidence) for every
    vector: absent entries read as 0, ties go to the lowest class index and
    the confidence is the winning vote share.
    """
    votes = np.zeros(len(model.classes), dtype=np.int64)
    for tree in model.trees:
        i = 0
        while tree.feature[i] >= 0:
            if x.get(tree.feature[i], 0) <= tree.threshold[i]:
                i = tree.left[i]
            else:
                i = tree.right[i]
        votes[tree.value[i]] += 1
    winner = int(np.argmax(votes))
    return model.classes[winner], int(votes[winner]) / len(model.trees)


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
