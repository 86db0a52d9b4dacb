"""Shared fixtures and deterministic generators for the test suite."""

from __future__ import annotations

import math
import random
import unicodedata
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tla.corpus import (
    CleanRow,
    LanguageCode,
    SentimentLabel,
)
from tla.langid import (
    EmptyVocabularyError,
    ForestModel,
    NgramVectorizer,
    Nodes,
    SparseRows,
    _best_splits,
    _column_store,
    derive_seed,
    extract_char_ngrams,
)
from tla.preprocess import _EMOJI_BLOCKS, _UNSEGMENTED_BLOCKS

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
    "HTTPS://X", "hTtP://x", "http\u017f://x", "WwW.x",
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


# Per-substring references for the vectorizer.  ``extract_char_ngrams`` and
# ``vectorize`` must equal them on every text, in order, and
# ``fit_vectorizer`` and ``vectorize_batch`` must equal the per-text ones.

def reference_fit_vectorizer(corpus, n_min=1, n_max=3, min_doc_freq=2):
    """``fit_vectorizer`` one text at a time: each text's set of n-grams
    counts once into the document frequencies."""
    doc_freq = Counter()
    for text, _ in corpus:
        doc_freq.update(set(extract_char_ngrams(text, n_min, n_max)))
    kept = sorted(g for g, df in doc_freq.items() if df >= min_doc_freq)
    if not kept:
        raise EmptyVocabularyError(f"no n-gram reached document frequency {min_doc_freq}")
    return NgramVectorizer(n_min, n_max, min_doc_freq, {g: i for i, g in enumerate(kept)})


def reference_extract_char_ngrams(text, n_min, n_max):
    """Every substring of each length in [n_min, n_max], sliced one at a
    time: left to right per length, lengths ascending."""
    grams = []
    for n in range(n_min, min(n_max, len(text)) + 1):
        for i in range(len(text) - n + 1):
            grams.append(text[i : i + n])
    return grams


def reference_vectorize(vectorizer, text):
    """Each in-vocabulary n-gram's index and count, keyed in the order the
    n-grams first occur."""
    counts = {}
    for gram in reference_extract_char_ngrams(text, vectorizer.n_min, vectorizer.n_max):
        idx = vectorizer.vocabulary.get(gram)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    return counts


def sparse_samples(samples):
    """(feature -> count dict, label) pairs as ``fit_forest``'s input: their
    CSR rows, int64 so that a negative feature or count reaches its checks,
    and their labels."""
    sizes = [len(vec) for vec, _ in samples]
    indptr = np.zeros(len(samples) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    features = np.fromiter(chain.from_iterable(vec for vec, _ in samples), np.int64, indptr[-1])
    counts = np.fromiter(chain.from_iterable(vec.values() for vec, _ in samples), np.int64,
                         indptr[-1])
    return SparseRows(indptr, features, counts), [label for _, label in samples]


def dense_histogram(values, y, n_classes):
    """The (m, vmax + 1, k) class histogram of a dense (n, m) count block."""
    m = values.shape[1]
    stride = int(values.max()) + 1
    k = n_classes
    flat = (np.arange(m, dtype=np.int64) * stride)[None, :] * k + values * k + y[:, None]
    return np.bincount(flat.ravel(), minlength=m * stride * k).reshape(m, stride, k)


def best_splits(instances, candidate_features):
    """Each instance's best (feature, threshold) over the candidates, or None
    where no split helps, searched in batches as ``fit_forest`` searches.

    An instance is a list of sparse samples (feature -> count dicts with a
    class index each); absent entries count as 0.  Each chunk of 64
    instances gets one ``_column_store`` over all its samples and one node
    per instance holding each of its samples once.  The forest's split
    search, ``tla.langid._best_splits``, runs on the chunk along the
    candidates' columns and along the samples' rows, and the two answers
    must agree, right sides included: each split instance's right side must
    hold exactly its samples whose count of the split feature exceeds the
    threshold, and an instance that does not split must have none.  Ties
    break toward the lowest feature index, then the lowest threshold.

    Along the columns, every node of a chunk reads its candidates' whole
    columns, so that search costs its chunk's size squared; along the rows,
    each node reads only its own samples' rows.  On the acceptance oracle's
    20,736 four-sample instances, chunks of 32 / 64 / 128 / 256 took 0.22 /
    0.24 / 0.48 / 0.86 s along the columns and 0.21 / 0.16 / 0.13 / 0.11 s
    along the rows, besides 0.34-0.41 s to build the stores.
    """
    candidates = sorted(set(int(f) for f in candidate_features))
    found = []
    for start in range(0, len(instances), 64):
        part = instances[start:start + 64]
        samples = [sample for instance in part for sample in instance]
        n_features = 1 + max(candidates + [f for vec, _ in samples for f in vec])
        columns = _column_store(*sparse_samples(samples), n_features)
        sizes = np.array([len(instance) for instance in part])
        sample = np.arange(len(samples))  # each node holds its instance's samples once
        k = len(columns.classes)
        node = np.arange(len(part)).repeat(sizes)
        totals = np.bincount(node * k + columns.y, minlength=len(part) * k).reshape(-1, k)
        by_columns, by_rows = (
            _best_splits(columns, sample, np.ones_like(sample), sizes,
                         np.tile(candidates, (len(part), 1)), totals, path)
            for path in (False, True))
        assert all(map(np.array_equal, by_columns, by_rows))
        split, feature, threshold, right = by_columns
        answers = [None] * len(part)
        for i, f, t in zip(split.tolist(), feature.tolist(), threshold.tolist()):
            answers[i] = (f, t)
        expected = [(i, s) for i, answer in enumerate(answers) if answer is not None
                    for s in sample[node == i].tolist()
                    if samples[s][0].get(answer[0], 0) > answer[1]]
        assert sorted(zip(node[right].tolist(), sample[right].tolist())) == expected
        found += answers
    return found


def best_split(samples, candidate_features):
    """One instance's :func:`best_splits` answer: (feature, threshold) or None.

    No samples is a ValueError, and no candidates is None.
    """
    if not samples:
        raise ValueError("best_split needs at least one sample")
    if not candidate_features:
        return None
    [found] = best_splits([samples], candidate_features)
    return found


# A dense reference grower: the whole (n, n_features) count matrix, each
# tree grown breadth-first from a FIFO queue, each node's block gathered with
# ``np.ix_`` and searched on its own, every draw from Python-int
# ``derive_seed`` keys.  ``fit_forest`` must reproduce its trees node for node.

def reference_bootstrap(seed, tree, n):
    """Tree ``tree``'s bootstrap rows: draw ``i`` is
    ``derive_seed(derive_seed(root, 3), i) mod n`` under its root key."""
    stream = derive_seed(derive_seed(seed, tree), 3)
    return [derive_seed(stream, i) % n for i in range(n)]


def reference_candidates(key, n_features, m):
    """Floyd's algorithm one step at a time: ``m`` distinct features of
    ``range(n_features)``, ascending, drawn under the node key ``key``."""
    stream = derive_seed(key, 2)
    taken = set()
    for i in range(m):
        top = n_features - m + i
        draw = derive_seed(stream, i) % (top + 1)
        taken.add(top if draw in taken else draw)
    return sorted(taken)


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
    return col, (v + nxt) // 2


def _reference_grow_tree(X, y, n_classes, seed, tree, params, m_features):
    """One tree's nodes in the order they leave a FIFO queue, which queues a
    split's left child, then its right one: its ``j``-th split's children
    are then nodes ``2j + 1`` and ``2j + 2``.  A split stores the floor of
    its midpoint, the largest count that goes left."""
    n_samples, n_features = X.shape
    boot = np.array(reference_bootstrap(seed, tree, n_samples))
    feature, threshold, value = [], [], []
    queue = deque([(boot, 0, derive_seed(seed, tree))])
    while queue:
        idx, depth, key = queue.popleft()
        counts = np.bincount(y[idx], minlength=n_classes)
        majority = int(np.argmax(counts))
        pure = int(counts.max()) == idx.size
        at_depth_limit = params.max_depth is not None and depth >= params.max_depth
        split = None
        if not (pure or at_depth_limit or idx.size < params.min_samples_split or m_features == 0):
            cand = np.array(reference_candidates(key, n_features, m_features))
            found = _reference_best_split(X[np.ix_(idx, cand)], y[idx], n_classes)
            if found is not None:
                split = (int(cand[found[0]]), found[1])

        if split is None:
            feature.append(-1)
            threshold.append(0)
            value.append(majority)
            continue

        f, thr = split
        go_left = X[idx, f] <= thr
        feature.append(f)
        threshold.append(thr)
        value.append(-1)
        queue.append((idx[go_left], depth + 1, derive_seed(key, 0)))
        queue.append((idx[~go_left], depth + 1, derive_seed(key, 1)))

    return Nodes(feature, threshold, value)


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
        _reference_grow_tree(X, y, len(classes), params.seed, t, params, m_features)
        for t in range(params.num_trees)
    )
    return forest_model(params, classes, trees)


def forest_model(params, classes, trees):
    """The ForestModel of per-tree node lists ``trees`` (each a ``Nodes``)."""
    fields = [np.array(list(chain.from_iterable(field)), np.int64) for field in zip(*trees)]
    return ForestModel(params, classes, np.array([len(t.feature) for t in trees]), Nodes(*fields))


def assert_same_forest(model, expected):
    """The same parameters, classes and trees, every field of every node equal."""
    assert (model.params, model.classes) == (expected.params, expected.classes)
    assert model.sizes.tolist() == expected.sizes.tolist()
    for name, field, other in zip(Nodes._fields, model.nodes, expected.nodes):
        assert np.array_equal(field, other), f"{name} differs"


def reference_predict(model, x):
    """The per-tree walk, from a tree's ``j``-th split to its node ``2j + 1``
    or ``2j + 2``, and plurality vote over one sparse vector.

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
            j = int(np.count_nonzero(tree.feature[:i] >= 0))  # node i is the tree's j-th split
            i = 2 * j + 1 + (x.get(tree.feature[i], 0) > tree.threshold[i])
        votes[tree.value[i]] += 1
    winner = int(np.argmax(votes))
    return model.classes[winner], int(votes[winner]) / len(model.trees)


def exhaustive_best_split(samples, candidate_features):
    """Independent split-search oracle: exact rationals, brute enumeration.

    Same contract as each best_splits answer: minimize weighted child Gini
    over all (feature, midpoint) pairs, ties to lowest feature then lowest
    threshold, None when no split strictly reduces the parent impurity.
    The midpoints are exact ``Fraction``s, and the answer's threshold is the
    floor of the best one.  That floor loses nothing: for consecutive
    distinct counts ``a < b`` it lies in ``[a, b - 1]``, and those ranges
    are disjoint, so each of a feature's midpoints has its own floor.
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
    return best[1], math.floor(best[2])


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
    if text[i] != "<":
        return None
    j = i + 1 + text.startswith("/", i + 1)
    if j >= len(text) or not (text[j].isascii() and text[j].isalpha()):
        return None
    while j < len(text) and text[j] not in "<>":
        j += 1
    return j + 1 if text.startswith(">", j) else None


#: What starts a link, in any letter case.
_URL_PREFIXES = ("http://", "https://", "www.")


def _url_end(text, i):
    """The end of the link starting at ``text[i]``, or None: a prefix whose
    characters casefold one by one to those of ``_URL_PREFIXES``, then a run
    of non-whitespace."""
    for prefix in _URL_PREFIXES:
        j = i + len(prefix)
        if j <= len(text) and all(ch.casefold() == p for ch, p in zip(text[i:j], prefix)):
            while j < len(text) and not text[j].isspace():
                j += 1
            return j
    return None


def _strip_scanned(text, end_at):
    """Each span that ``end_at(text, i)`` ends, scanned left to right,
    replaced by a space."""
    out, i = [], 0
    while i < len(text):
        end = end_at(text, i)
        out.append(text[i] if end is None else " ")
        i = i + 1 if end is None else end
    return "".join(out)


def reference_clean_text(text):
    """Tags, then links, by a scan, then symbols and punctuation one
    character at a time; each removal becomes a space and whitespace is
    normalized."""
    text = _strip_scanned(_strip_scanned(text, _tag_end), _url_end)
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
    """Clean, tokenize, drop each token made only of format (Cf) characters
    and each token whose casefold is a stopword, lowercase."""
    tokens = reference_tokenize(reference_clean_text(text), lang)
    return [t.lower() for t in tokens
            if not all(unicodedata.category(ch) == "Cf" for ch in t)
            and t.casefold() not in table.stopwords(lang)]


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
    columns = _column_store(*sparse_samples(samples), n_features)
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
