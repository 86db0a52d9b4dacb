"""Shared fixtures and deterministic generators for the test suite."""

from __future__ import annotations

import math
import random
import unicodedata
from dataclasses import dataclass

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
    ForestModel,
    _Columns,
    _best_splits,
    _column_store,
    derive_seed,
)
from tla.preprocess import _EMOJI_BLOCKS, _UNSEGMENTED_BLOCKS, _URL_RE

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

    Builds the candidates' column store from sparse samples (feature ->
    count dicts with a class index each): each column's nonzero counts
    ascending, as ``_column_store`` orders them.  Then runs the forest's
    split search, ``tla.langid._best_splits``, on a batch of one node holding
    every sample once.  Absent sparse entries count as 0.  Ties break toward
    the lowest feature index, then the lowest threshold.
    """
    if not samples:
        raise ValueError("best_split needs at least one sample")
    candidates = sorted(set(int(f) for f in candidate_features))
    if not candidates:
        return None
    entries = sorted((j, vec[f], i) for j, f in enumerate(candidates)
                     for i, (vec, _) in enumerate(samples) if vec.get(f))
    column, counts, rows = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    y = np.array([cls for _, cls in samples], dtype=np.int64)
    k = int(y.max()) + 1
    indptr = column.searchsorted(np.arange(len(candidates) + 1))
    columns = _Columns(tuple(range(k)), y, indptr, rows, counts)
    [result] = _best_splits(columns, [np.arange(len(samples))],
                            np.arange(len(candidates))[None, :],
                            np.bincount(y, minlength=k)[None, :])
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
    the confidence is the winning vote share.  An empty vector is no
    evidence: ``(None, 0.0)``.
    """
    if not x:
        return None, 0.0
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


# Per-character references for the cleaning chain.  ``clean_text``,
# ``tokenize`` and ``preprocess_tweet`` must equal them on every text.

def _in_blocks(codepoint, blocks):
    return any(lo <= codepoint <= hi for lo, hi in blocks)


def is_symbol(ch):
    return unicodedata.category(ch)[0] == "S" or _in_blocks(ord(ch), _EMOJI_BLOCKS)


def is_punctuation(ch):
    return unicodedata.category(ch)[0] == "P"


def _tag_end(text, i):
    """The end of the HTML tag starting at ``text[i]``, or None: ``<``, an
    optional ``/``, an ASCII letter, then anything but ``<``/``>`` up to ``>``."""
    j = i + 1 + text.startswith("/", i + 1)
    if j >= len(text) or not (text[j].isascii() and text[j].isalpha()):
        return None
    while j < len(text) and text[j] not in "<>":
        j += 1
    return j + 1 if text.startswith(">", j) else None


def reference_strip_tags(text):
    """Each HTML tag, scanned left to right, replaced by a space."""
    out, i = [], 0
    while i < len(text):
        end = _tag_end(text, i) if text[i] == "<" else None
        out.append(text[i] if end is None else " ")
        i = i + 1 if end is None else end
    return "".join(out)


def reference_clean_text(text):
    """Tags by a scan and URLs by regex, then symbols and punctuation one
    character at a time; each removal becomes a space and whitespace is
    normalized."""
    text = reference_strip_tags(text)
    text = _URL_RE.sub(" ", text)
    text = "".join(" " if is_symbol(ch) or is_punctuation(ch) else ch for ch in text)
    return " ".join(text.split())


def reference_tokenize(text, lang):
    """Whitespace split; for unsegmented scripts, one token per unsegmented
    character and one per run of other non-space characters."""
    if not lang.unsegmented:
        return text.split()
    tokens, run = [], []
    for ch in text:
        if ch.isspace():
            if run:
                tokens.append("".join(run))
                run = []
        elif _in_blocks(ord(ch), _UNSEGMENTED_BLOCKS):
            if run:
                tokens.append("".join(run))
                run = []
            tokens.append(ch)
        else:
            run.append(ch)
    if run:
        tokens.append("".join(run))
    return tokens


def reference_preprocess_tweet(text, lang, table):
    """Clean, tokenize, drop each token whose casefold is a stopword, lowercase."""
    tokens = reference_tokenize(reference_clean_text(text), lang)
    return [t.lower() for t in tokens if t.casefold() not in table.stopwords(lang)]


# Multinomial naive Bayes: an identifier independent of the forest, used as
# criterion 5's oracle.

@dataclass(frozen=True, eq=False)
class NBModel:
    """Multinomial naive Bayes in log space."""

    classes: tuple
    log_priors: np.ndarray
    log_likelihood: np.ndarray  # (n_classes, n_features)
    alpha: float


def fit_nb(samples, alpha=1.0, n_features=None):
    """Fit multinomial naive Bayes with additive smoothing, from the same
    range-checked column store as ``fit_forest``."""
    if not samples:
        raise ValueError("fit_nb needs at least one sample")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    columns = _column_store(samples, n_features)
    k, n_features = len(columns.classes), columns.indptr.size - 1
    feature = np.repeat(np.arange(n_features), np.diff(columns.indptr))
    feature_counts = np.bincount(
        columns.y[columns.rows] * n_features + feature,
        weights=columns.counts,
        minlength=k * n_features,
    ).reshape(k, n_features)
    class_counts = np.bincount(columns.y, minlength=k).astype(np.float64)
    log_priors = np.log(class_counts / len(samples))
    totals = feature_counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log((feature_counts + alpha) / (totals + alpha * n_features))
    return NBModel(columns.classes, log_priors, log_likelihood, alpha)


def predict_nb(model, x):
    """Highest smoothed log posterior; ties go to the lowest class index.

    Scores use exact float summation (fsum) so that mirror-image classes,
    whose score terms are the same multiset, tie exactly.
    """
    n_features = model.log_likelihood.shape[1]
    items = sorted(x.items())
    best_index = 0
    best_score = None
    for c in range(len(model.classes)):
        terms = [model.log_priors[c]]
        terms.extend(
            count * model.log_likelihood[c, f] for f, count in items if 0 <= f < n_features
        )
        score = math.fsum(terms)
        if best_score is None or score > best_score:
            best_index, best_score = c, score
    return model.classes[best_index]
