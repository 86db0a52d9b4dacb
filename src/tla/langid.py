"""Character n-gram language identification.

A vocabulary-indexed n-gram count vectorizer feeding a bagged ensemble of
Gini-split decision trees, with a multinomial naive-Bayes cross-check and a
versioned binary model format.  Classifier input is cleaned, lowercased text
with stopwords retained (stopwords are strong language discriminators).

Training is a pure function of (sample order, parameters): bootstrap rows and
candidate features come from a per-tree generator, so repeated fits serialize
byte-identically.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from .corpus import LANGUAGE_ORDER, LanguageCode
from .errors import TlaError
from .preprocess import clean_text

FeatureVector = dict  # sparse map: feature index -> positive count

MODEL_MAGIC = b"TLAM"
MODEL_VERSION = 1

_MASK64 = (1 << 64) - 1
# Relative slack for float score comparisons in split search; far below any
# impurity gap realizable at small sample counts, so exact ties and the
# documented tie-breaking are preserved.
_SPLIT_EPS = 1e-9


class EmptyCorpusError(TlaError):
    pass


class EmptyVocabularyError(TlaError):
    pass


class AllZeroError(TlaError):
    pass


class EmptySamplesError(TlaError):
    pass


class EmptyTestSetError(TlaError):
    pass


class ModelFormatError(TlaError):
    pass


class BadMagicError(ModelFormatError):
    def __init__(self):
        super().__init__(f"bad magic bytes (expected {MODEL_MAGIC!r})")


class UnsupportedVersionError(ModelFormatError):
    def __init__(self, version: int):
        self.version = version
        super().__init__(f"unsupported model version {version:#04x}")


class CorruptPayloadError(ModelFormatError):
    def __init__(self, detail: str):
        super().__init__(f"corrupt model payload: {detail}")


def derive_seed(seed: int, index: int) -> int:
    """SplitMix64 finalizer over (seed, index); yields independent sub-seeds."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def normalize_for_langid(text: str) -> str:
    """The classifier's input transform: cleaned, lowercased, stopwords kept."""
    return clean_text(text).lower()


def extract_char_ngrams(text: str, n_min: int, n_max: int) -> list[str]:
    """All contiguous scalar-value substrings of each length in [n_min, n_max].

    Left-to-right per length, lengths ascending.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    grams: list[str] = []
    for n in range(n_min, n_max + 1):
        for i in range(len(text) - n + 1):
            grams.append(text[i : i + n])
    return grams


@dataclass(frozen=True)
class NgramVectorizer:
    """Character n-gram vocabulary; indices follow lexicographic n-gram order."""

    n_min: int = 1
    n_max: int = 3
    min_doc_freq: int = 2
    vocabulary: dict = None  # type: ignore[assignment]

    def __post_init__(self):
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"need 1 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        if self.min_doc_freq < 1:
            raise ValueError(f"min_doc_freq must be >= 1, got {self.min_doc_freq}")
        vocab = dict(self.vocabulary or {})
        object.__setattr__(self, "vocabulary", vocab)
        expected = {gram: i for i, gram in enumerate(sorted(vocab))}
        if vocab != expected:
            raise ValueError("vocabulary indices must be the lexicographic rank 0..V-1")
        for gram in vocab:
            if not self.n_min <= len(gram) <= self.n_max:
                raise ValueError(f"n-gram {gram!r} outside length range")

    @property
    def size(self) -> int:
        return len(self.vocabulary)


def fit_vectorizer(
    corpus: Sequence[tuple[str, LanguageCode]],
    n_min: int = 1,
    n_max: int = 3,
    min_doc_freq: int = 2,
) -> NgramVectorizer:
    """Build the vocabulary from n-grams with document frequency >= min_doc_freq."""
    doc_freq: Counter = Counter()
    n_docs = 0
    for text, _ in corpus:
        n_docs += 1
        doc_freq.update(set(extract_char_ngrams(text, n_min, n_max)))
    if n_docs == 0:
        raise EmptyCorpusError("cannot fit a vectorizer on an empty corpus")
    kept = sorted(g for g, df in doc_freq.items() if df >= min_doc_freq)
    if not kept:
        raise EmptyVocabularyError(
            f"no n-gram reached document frequency {min_doc_freq}"
        )
    vocabulary = {gram: i for i, gram in enumerate(kept)}
    return NgramVectorizer(n_min, n_max, min_doc_freq, vocabulary)


def vectorize(vectorizer: NgramVectorizer, text: str) -> FeatureVector:
    """Count in-vocabulary n-grams; out-of-vocabulary n-grams drop silently."""
    vocab = vectorizer.vocabulary
    counts: FeatureVector = {}
    for gram in extract_char_ngrams(text, vectorizer.n_min, vectorizer.n_max):
        idx = vocab.get(gram)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    return counts


def gini_impurity(class_counts: Sequence[int]) -> float:
    """1 - sum(p_i^2) over the class distribution; 0 iff the node is pure."""
    counts = list(class_counts)
    if any(c < 0 for c in counts):
        raise ValueError(f"negative class count in {counts}")
    total = sum(counts)
    if total == 0:
        raise AllZeroError("gini impurity of an all-zero count vector is undefined")
    return 1.0 - sum((c / total) ** 2 for c in counts)


@dataclass(frozen=True)
class ForestParams:
    """Hyperparameters; features_per_split of None means ceil(sqrt(V)) at fit."""

    num_trees: int = 50
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    features_per_split: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.num_trees < 1:
            raise ValueError(f"num_trees must be >= 1, got {self.num_trees}")
        if self.min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError(
                f"features_per_split must be >= 1 or None, got {self.features_per_split}"
            )


@dataclass(frozen=True)
class DecisionTree:
    """Flat preorder node arrays; feature -1 marks a leaf holding a class index."""

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[int, ...]

    def __post_init__(self):
        n = len(self.feature)
        if not n or not (
            len(self.threshold) == len(self.left) == len(self.right) == len(self.value) == n
        ):
            raise ValueError("tree node arrays must be nonempty and equal-length")
        for i in range(n):
            if self.feature[i] < 0:
                if self.value[i] < 0:
                    raise ValueError(f"leaf {i} has no class index")
            else:
                for child in (self.left[i], self.right[i]):
                    if not i < child < n:
                        raise ValueError(f"node {i} has invalid child index {child}")

    def predict_leaf(self, x: FeatureVector) -> int:
        i = 0
        while self.feature[i] >= 0:
            if x.get(self.feature[i], 0) <= self.threshold[i]:
                i = self.left[i]
            else:
                i = self.right[i]
        return self.value[i]

    @property
    def max_feature(self) -> int:
        return max(self.feature)


@dataclass(frozen=True)
class ForestModel:
    """A bagged ensemble of decision trees over an ordered class list."""

    params: ForestParams
    classes: tuple[LanguageCode, ...]
    trees: tuple[DecisionTree, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("model must have at least one class")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class in model")
        if not self.trees:
            raise ValueError("model must have at least one tree")
        for t, tree in enumerate(self.trees):
            if max(tree.value) >= len(self.classes):
                raise ValueError(f"tree {t} leaf class index out of range")


def _best_split_dense(values: np.ndarray, y: np.ndarray, n_classes: int):
    """Exhaustive split search over a dense (n_samples, n_features) count block.

    Thresholds are midpoints between consecutive distinct observed values;
    returns (column, threshold) minimizing weighted child Gini, ties broken by
    first column then lowest threshold, or None when nothing beats the parent.
    """
    n, m = values.shape
    if n == 0 or m == 0:
        return None
    values = values.astype(np.int64, copy=False)
    vmax = int(values.max())
    if vmax == int(values.min()):
        return None
    stride = vmax + 1
    k = n_classes

    flat = (np.arange(m, dtype=np.int64) * stride)[None, :] * k + values * k + y[:, None]
    hist = np.bincount(flat.ravel(), minlength=m * stride * k).reshape(m, stride, k)

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

    eps = _SPLIT_EPS * n
    parent_q = float((totals * totals).sum()) / n
    q_best = float(q.max())
    if not q_best > parent_q + eps:
        return None

    pos = int(np.argmax(q >= q_best - eps))  # first hit: lowest column, lowest value
    col, v = divmod(pos, stride)
    observed_values = np.nonzero(observed[col])[0]
    nxt = int(observed_values[observed_values > v][0])
    return col, (v + nxt) / 2.0


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    rng: np.random.Generator,
    params: ForestParams,
    m_features: int,
) -> DecisionTree:
    n_samples, n_features = X.shape
    boot = rng.integers(0, n_samples, size=n_samples)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[int] = []

    # Explicit preorder stack (left child processed next); RNG draws happen in
    # node-processing order, keeping the stream independent of recursion depth.
    stack: list[tuple[np.ndarray, int, int, bool]] = [(boot, 0, -1, False)]
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
            found = _best_split_dense(X[np.ix_(idx, cand)], y[idx], n_classes)
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


def fit_forest(
    samples: Sequence[tuple[FeatureVector, LanguageCode]],
    params: ForestParams,
    n_features: Optional[int] = None,
) -> ForestModel:
    """Train the bagged CART ensemble.

    Each tree gets a generator seeded by SplitMix64 of (seed, tree index);
    bootstrap rows and per-node candidate features come from that generator,
    so the fit is deterministic and trees are independent of scheduling.
    ``n_features`` (the vectorizer vocabulary size) bounds the feature
    sampling range; it defaults to the highest observed index + 1.
    """
    if not samples:
        raise EmptySamplesError("fit_forest needs at least one sample")
    classes = tuple(sorted({lang for _, lang in samples}))
    class_index = {lang: i for i, lang in enumerate(classes)}

    if n_features is None:
        n_features = 1 + max(
            (max(vec) for vec, _ in samples if vec), default=-1
        )
    n = len(samples)
    X = np.zeros((n, n_features), dtype=np.int32)
    y = np.empty(n, dtype=np.int64)
    for i, (vec, lang) in enumerate(samples):
        y[i] = class_index[lang]
        for f, count in vec.items():
            if not 0 <= f < n_features:
                raise ValueError(f"sample {i}: feature index {f} out of range")
            X[i, f] = count

    if params.features_per_split is not None:
        m_features = min(params.features_per_split, n_features)
    else:
        m_features = math.isqrt(n_features)
        if m_features * m_features < n_features:
            m_features += 1

    trees = []
    for t in range(params.num_trees):
        rng = np.random.Generator(np.random.PCG64(derive_seed(params.seed, t)))
        trees.append(_grow_tree(X, y, len(classes), rng, params, m_features))
    return ForestModel(params=params, classes=classes, trees=tuple(trees))


def predict_language(
    model: ForestModel, x: FeatureVector
) -> tuple[LanguageCode, float]:
    """Plurality vote across trees; confidence is the winning vote share.

    Missing sparse entries read as 0; ties go to the lowest class index.
    """
    votes = np.zeros(len(model.classes), dtype=np.int64)
    for tree in model.trees:
        votes[tree.predict_leaf(x)] += 1
    winner = int(np.argmax(votes))
    return model.classes[winner], int(votes[winner]) / len(model.trees)


@dataclass(frozen=True, eq=False)
class NBModel:
    """Multinomial naive Bayes in log space; the forest's independent oracle."""

    classes: tuple[LanguageCode, ...]
    log_priors: np.ndarray
    log_likelihood: np.ndarray  # (n_classes, n_features)
    alpha: float


def fit_nb(
    samples: Sequence[tuple[FeatureVector, LanguageCode]],
    alpha: float = 1.0,
    n_features: Optional[int] = None,
) -> NBModel:
    """Fit multinomial naive Bayes with additive smoothing."""
    if not samples:
        raise EmptySamplesError("fit_nb needs at least one sample")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    classes = tuple(sorted({lang for _, lang in samples}))
    class_index = {lang: i for i, lang in enumerate(classes)}
    if n_features is None:
        n_features = 1 + max(
            (max(vec) for vec, _ in samples if vec), default=-1
        )

    k = len(classes)
    class_counts = np.zeros(k, dtype=np.float64)
    feature_counts = np.zeros((k, n_features), dtype=np.float64)
    for vec, lang in samples:
        c = class_index[lang]
        class_counts[c] += 1
        for f, count in vec.items():
            feature_counts[c, f] += count

    log_priors = np.log(class_counts / len(samples))
    totals = feature_counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log(
        (feature_counts + alpha) / (totals + alpha * n_features)
    )
    return NBModel(classes, log_priors, log_likelihood, alpha)


def predict_nb(model: NBModel, x: FeatureVector) -> LanguageCode:
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
            count * model.log_likelihood[c, f]
            for f, count in items
            if 0 <= f < n_features
        )
        score = math.fsum(terms)
        if best_score is None or score > best_score:
            best_index, best_score = c, score
    return model.classes[best_index]


def _canonical_payload(model: ForestModel, vectorizer: NgramVectorizer) -> bytes:
    payload = {
        "classes": [c.value for c in model.classes],
        "params": {
            "num_trees": model.params.num_trees,
            "max_depth": model.params.max_depth,
            "min_samples_split": model.params.min_samples_split,
            "features_per_split": model.params.features_per_split,
            "seed": model.params.seed,
        },
        "trees": [
            {
                "feature": list(t.feature),
                "threshold": list(t.threshold),
                "left": list(t.left),
                "right": list(t.right),
                "value": list(t.value),
            }
            for t in model.trees
        ],
        "vectorizer": {
            "n_min": vectorizer.n_min,
            "n_max": vectorizer.n_max,
            "min_doc_freq": vectorizer.min_doc_freq,
            "vocabulary": vectorizer.vocabulary,
        },
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return text.encode("utf-8")


def save_model(model: ForestModel, vectorizer: NgramVectorizer, sink: IO[bytes]) -> int:
    """Write magic, version byte, and the canonical JSON payload; returns bytes."""
    blob = MODEL_MAGIC + bytes([MODEL_VERSION]) + _canonical_payload(model, vectorizer)
    sink.write(blob)
    return len(blob)


def load_model(source: IO[bytes]) -> tuple[ForestModel, NgramVectorizer]:
    """Exact inverse of :func:`save_model`."""
    data = source.read()
    if data[:4] != MODEL_MAGIC:
        raise BadMagicError()
    if len(data) < 5:
        raise CorruptPayloadError("missing version byte")
    if data[4] != MODEL_VERSION:
        raise UnsupportedVersionError(data[4])
    try:
        payload = json.loads(data[5:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptPayloadError(str(exc)) from exc

    try:
        vec_spec = payload["vectorizer"]
        vectorizer = NgramVectorizer(
            n_min=vec_spec["n_min"],
            n_max=vec_spec["n_max"],
            min_doc_freq=vec_spec["min_doc_freq"],
            vocabulary=vec_spec["vocabulary"],
        )
        params_spec = payload["params"]
        params = ForestParams(
            num_trees=params_spec["num_trees"],
            max_depth=params_spec["max_depth"],
            min_samples_split=params_spec["min_samples_split"],
            features_per_split=params_spec["features_per_split"],
            seed=params_spec["seed"],
        )
        classes = tuple(LanguageCode.parse(c) for c in payload["classes"])
        trees = tuple(
            DecisionTree(
                feature=tuple(t["feature"]),
                threshold=tuple(float(x) for x in t["threshold"]),
                left=tuple(t["left"]),
                right=tuple(t["right"]),
                value=tuple(t["value"]),
            )
            for t in payload["trees"]
        )
        model = ForestModel(params=params, classes=classes, trees=trees)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptPayloadError(str(exc)) from exc

    for t, tree in enumerate(model.trees):
        if tree.max_feature >= vectorizer.size:
            raise CorruptPayloadError(
                f"tree {t} references feature {tree.max_feature} "
                f"beyond vocabulary size {vectorizer.size}"
            )
    return model, vectorizer


def evaluate_model(
    model: ForestModel,
    vectorizer: NgramVectorizer,
    test: Sequence[tuple[str, LanguageCode]],
) -> tuple[float, np.ndarray]:
    """Accuracy plus a 16x16 confusion matrix (row true, column predicted)."""
    if not test:
        raise EmptyTestSetError("evaluate_model needs a nonempty test set")
    order = {lang: i for i, lang in enumerate(LANGUAGE_ORDER)}
    confusion = np.zeros((len(LANGUAGE_ORDER), len(LANGUAGE_ORDER)), dtype=np.int64)
    for text, truth in test:
        predicted, _ = predict_language(
            model, vectorize(vectorizer, normalize_for_langid(text))
        )
        confusion[order[truth], order[predicted]] += 1
    accuracy = float(np.trace(confusion)) / float(confusion.sum())
    return accuracy, confusion


@dataclass(frozen=True, eq=False)
class ForestPredictor:
    """The trained (vectorizer, forest) pair, predicting from raw text."""

    vectorizer: NgramVectorizer
    model: ForestModel

    def predict(self, text: str) -> tuple[LanguageCode, float]:
        x = vectorize(self.vectorizer, normalize_for_langid(text))
        return predict_language(self.model, x)

    def save(self, sink: IO[bytes]) -> int:
        return save_model(self.model, self.vectorizer, sink)

    @classmethod
    def load(cls, source: IO[bytes]) -> "ForestPredictor":
        model, vectorizer = load_model(source)
        return cls(vectorizer=vectorizer, model=model)


def train_identifier(
    corpus: Sequence[tuple[str, LanguageCode]],
    params: Optional[ForestParams] = None,
    n_min: int = 1,
    n_max: int = 3,
    min_doc_freq: int = 2,
) -> ForestPredictor:
    """Normalize texts, fit the vectorizer, and train the forest on counts."""
    normalized = [(normalize_for_langid(text), lang) for text, lang in corpus]
    vectorizer = fit_vectorizer(normalized, n_min, n_max, min_doc_freq)
    samples = [(vectorize(vectorizer, text), lang) for text, lang in normalized]
    model = fit_forest(samples, params or ForestParams(), n_features=vectorizer.size)
    return ForestPredictor(vectorizer=vectorizer, model=model)
