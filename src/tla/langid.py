"""Character n-gram language identification.

A vocabulary-indexed n-gram count vectorizer feeding a bagged ensemble of
Gini-split decision trees, with a versioned binary model format.  Classifier
input is cleaned, lowercased text with stopwords retained (stopwords are
strong language discriminators).

Training is a pure function of (sample order, parameters): bootstrap rows and
candidate features come from a per-tree generator, so repeated fits serialize
byte-identically.  The samples are held once as a sparse column store (no
n x V matrix); each tree node builds its class histogram from the nonzeros of
its candidate features only.

Prediction is one batched vote.  A model's first vote, or its load, flattens
its trees into one set of node arrays (leaves point to themselves), checked
there once, with split features renumbered to the columns the forest splits on.
Each chunk of at most ``CHUNK_ROWS`` sparse vectors becomes a dense int32
block over those columns only; every (row, tree) pair then descends one level
per step, and pairs that reached a leaf drop out.  The vote is a per-row
bincount of leaf classes.  The flat arrays are not fields: they are never
serialized, so a model file holds only the per-tree arrays.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from itertools import chain, islice
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .corpus import LANGUAGE_ORDER, LanguageCode
from .errors import TlaError
from .preprocess import clean_text

FeatureVector = dict  # sparse map: feature index -> positive count
Prediction = tuple[Optional[LanguageCode], float]  # (language, share of the trees' votes)

MODEL_MAGIC = b"TLAM"
MODEL_VERSION = 1

#: Rows per dense block of the vote, and texts that ``predict_batch`` reads at a time.
CHUNK_ROWS = 256

_MASK64 = (1 << 64) - 1
# Relative slack for float score comparisons in split search; far below any
# impurity gap realizable at small sample counts, so exact ties and the
# documented tie-breaking are preserved.
_SPLIT_EPS = 1e-9


class EmptyVocabularyError(TlaError):
    pass


class ModelFormatError(TlaError):
    """A model file at ``path`` (None for a source without a name) that is
    not a valid model; the message starts with the path."""

    def __init__(self, path, message: str):
        self.path = path
        super().__init__(message)

    def __str__(self) -> str:
        return self.args[0] if self.path is None else f"{self.path}: {self.args[0]}"


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
    for n in range(n_min, min(n_max, len(text)) + 1):
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
        raise ValueError("cannot fit a vectorizer on an empty corpus")
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


@dataclass(frozen=True)
class ForestModel:
    """A bagged ensemble of decision trees over an ordered class list; its trees
    are checked (ValueError) when flattened: at its first vote, or at load."""

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

    @cached_property  # kept in the instance __dict__, which frozen does not guard
    def _flat(self) -> _FlatForest:
        return _flatten(self.trees, len(self.classes))


class _FlatForest(NamedTuple):
    """All trees' nodes in one set of arrays; tree ``t`` starts at ``roots[t]``.

    ``columns`` holds the vocabulary indices the forest splits on, ascending:
    the columns of the dense block.  ``feature`` is a node's column, -1 at a
    leaf; ``children[2 * i]`` and ``children[2 * i + 1]`` are node ``i``'s
    left and right child, and a leaf's both point to itself.
    """

    columns: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray
    roots: np.ndarray


def _flatten(trees: Sequence[DecisionTree], n_classes: int) -> _FlatForest:
    """The trees as one set of node arrays.

    Each tree's arrays must be nonempty and equally long, every split's
    children must lie after it in its own tree, so that every descent ends
    at a leaf, and every leaf's class must be below ``n_classes``.
    """
    lengths = [[len(getattr(t, f.name)) for t in trees] for f in dataclasses.fields(DecisionTree)]
    sizes = lengths[0]
    if min(sizes) == 0 or any(other != sizes for other in lengths[1:]):
        raise ValueError("tree node arrays must be nonempty and equal-length")
    total = sum(sizes)

    def concat(field, dtype=np.int64):
        return np.fromiter(chain.from_iterable(getattr(t, field) for t in trees), dtype, total)

    roots = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(roots, sizes)
    size = np.repeat(sizes, sizes)
    feature, left, right, value = map(concat, ("feature", "left", "right", "value"))
    leaf = feature < 0
    node = np.arange(total)
    local = node - shift
    bad = np.where(leaf, (value < 0) | (value >= n_classes),
                   (left <= local) | (left >= size) | (right <= local) | (right >= size))
    if bad.any():
        at = int(np.argmax(bad))
        t = int(np.searchsorted(roots, at, side="right")) - 1
        what = f"leaf class index (of {n_classes} classes)" if leaf[at] else "child index"
        raise ValueError(f"tree {t} node {at - roots[t]} has an invalid {what}")
    # np.unique would do, but its first call in a process costs ~10 ms; a
    # bincount would allocate up to a split feature that nothing bounds yet
    split_features = np.sort(feature[~leaf])
    columns = split_features[np.diff(split_features, prepend=-1) != 0]
    return _FlatForest(
        columns=columns,
        feature=np.where(leaf, -1, np.searchsorted(columns, feature)),
        threshold=concat("threshold", np.float64),
        children=np.stack([np.where(leaf, node, left + shift),
                           np.where(leaf, node, right + shift)], axis=1).ravel(),
        value=value,
        roots=roots,
    )


def _entries(vectors: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, feature, count) arrays of every entry of the sparse vectors,
    row after row."""
    sizes = [len(x) for x in vectors]
    nnz = sum(sizes)
    features = np.fromiter(chain.from_iterable(vectors), np.int64, nnz)
    counts = np.fromiter(chain.from_iterable(x.values() for x in vectors), np.int64, nnz)
    return np.repeat(np.arange(len(vectors)), sizes), features, counts


class _Columns(NamedTuple):
    """Training samples as a compressed sparse column store.

    Feature ``f``'s nonzero counts sit at ``indptr[f]:indptr[f + 1]`` of
    ``rows`` (sample indices, ascending) and ``counts`` (the narrowest unsigned
    dtype that holds the largest count); ``y`` is each sample's class index.
    """

    classes: tuple[LanguageCode, ...]
    y: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    counts: np.ndarray


def _column_store(
    samples: Sequence[tuple[FeatureVector, LanguageCode]],
    n_features: Optional[int],
) -> _Columns:
    """The sorted class list and the samples' sparse column store.

    ``n_features`` defaults to the highest observed feature index + 1; an
    index outside 0..n_features-1 or a negative count is a ValueError.
    """
    classes = tuple(sorted({lang for _, lang in samples}))
    class_index = {lang: i for i, lang in enumerate(classes)}
    y = np.array([class_index[lang] for _, lang in samples], dtype=np.int64)
    rows, features, counts = _entries([vec for vec, _ in samples])
    nnz = features.size
    if n_features is None:
        n_features = int(features.max()) + 1 if nnz else 0
    bad = np.flatnonzero((features < 0) | (features >= n_features))
    if bad.size:
        at = bad[0]
        raise ValueError(f"sample {rows[at]}: feature index {features[at]} out of range")
    bad = np.flatnonzero(counts < 0)
    if bad.size:
        at = bad[0]
        raise ValueError(
            f"sample {rows[at]}: feature {features[at]} has negative count {counts[at]}"
        )
    order = np.argsort(features, kind="stable")
    indptr = np.zeros(n_features + 1, dtype=np.int64)
    np.cumsum(np.bincount(features, minlength=n_features), out=indptr[1:])
    dtype = np.min_scalar_type(int(counts.max()) if nnz else 0)
    return _Columns(classes, y, indptr, rows[order], counts[order].astype(dtype))


def _node_histogram(
    columns: _Columns, idx: np.ndarray, cand: np.ndarray, totals: np.ndarray
) -> Optional[np.ndarray]:
    """The node's (m, vmax + 1, k) class histogram over candidate columns.

    ``hist[j, v, c]`` counts the node's samples ``idx`` (bootstrap repeats
    included) of class ``c`` that read ``v`` in column ``cand[j]``.  Only the
    candidates' nonzeros are read, each weighted by its row's multiplicity in
    ``idx``; the zero bucket is the node's class ``totals`` minus the nonzero
    buckets.  None when every candidate value at the node is 0.
    """
    y, indptr = columns.y, columns.indptr
    starts = indptr[cand]
    lengths = indptr[cand + 1] - starts
    ends = np.cumsum(lengths)
    # store position of every candidate nonzero, column after column
    pos = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
    col = np.repeat(np.arange(cand.size), lengths)
    rows = columns.rows[pos]
    weight = np.bincount(idx, minlength=y.size)[rows]
    keep = np.flatnonzero(weight)
    if keep.size == 0:
        return None
    rows, weight, col = rows[keep], weight[keep], col[keep]
    values = columns.counts[pos[keep]].astype(np.int64)
    stride = int(values.max()) + 1
    k = totals.size
    flat = (col * stride + values) * k + y[rows]
    hist = np.bincount(flat, weights=weight, minlength=cand.size * stride * k)
    hist = hist.astype(np.int64).reshape(cand.size, stride, k)
    hist[:, 0] += totals - hist.sum(axis=1)
    return hist


def _best_split_hist(hist: np.ndarray, totals: np.ndarray, n: int):
    """Exhaustive split search over an (m, stride, k) class histogram.

    ``hist[j, v, c]`` counts the node's samples of class ``c`` whose value in
    candidate column ``j`` is ``v``; ``totals`` are the node's class counts and
    ``n`` its sample count.  Thresholds are midpoints between consecutive
    distinct observed values; returns (column, threshold) minimizing weighted
    child Gini, ties broken by first column then lowest threshold, or None
    when nothing beats the parent.
    """
    stride = hist.shape[1]
    cum = hist.cumsum(axis=1)
    n_left = cum.sum(axis=2)
    sum_l2 = (cum * cum).sum(axis=2)
    rem = totals[None, None, :] - cum
    sum_r2 = (rem * rem).sum(axis=2)
    n_right = n - n_left

    observed = hist.sum(axis=2) > 0
    valid = observed & (n_right > 0)
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
    columns: _Columns,
    n_classes: int,
    rng: np.random.Generator,
    params: ForestParams,
    m_features: int,
) -> DecisionTree:
    y, indptr = columns.y, columns.indptr
    n_samples, n_features = y.size, indptr.size - 1
    boot = rng.integers(0, n_samples, size=n_samples)

    # One [feature, threshold, left, right, value] row per node, in preorder.
    # The stack pops a split's left child right after the split, so the split
    # records left = pos + 1 and only a right child writes its position back.
    # RNG draws happen in node-processing order, keeping the stream
    # independent of recursion depth.
    nodes: list[list] = []
    stack: list[tuple[np.ndarray, int, int]] = [(boot, 0, -1)]
    while stack:
        idx, depth, right_of = stack.pop()
        pos = len(nodes)
        if right_of >= 0:
            nodes[right_of][3] = pos

        totals = np.bincount(y[idx], minlength=n_classes)
        pure = int(totals.max()) == idx.size
        at_depth_limit = params.max_depth is not None and depth >= params.max_depth
        found = None
        if not (pure or at_depth_limit or idx.size < params.min_samples_split or m_features == 0):
            if m_features < n_features:
                cand = np.sort(
                    rng.choice(n_features, size=m_features, replace=False, shuffle=False)
                )
            else:
                cand = np.arange(n_features)
            hist = _node_histogram(columns, idx, cand, totals)
            found = None if hist is None else _best_split_hist(hist, totals, idx.size)

        if found is None:
            nodes.append([-1, 0.0, -1, -1, int(np.argmax(totals))])
            continue

        f, thr = int(cand[found[0]]), found[1]
        nonzero = slice(indptr[f], indptr[f + 1])
        column = np.zeros(n_samples, dtype=columns.counts.dtype)
        column[columns.rows[nonzero]] = columns.counts[nonzero]
        go_left = column[idx] <= thr
        nodes.append([f, thr, pos + 1, -1, -1])
        stack.append((idx[~go_left], depth + 1, pos))
        stack.append((idx[go_left], depth + 1, -1))

    return DecisionTree(*zip(*nodes))


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
        raise ValueError("fit_forest needs at least one sample")
    columns = _column_store(samples, n_features)
    n_features = columns.indptr.size - 1

    if params.features_per_split is not None:
        m_features = min(params.features_per_split, n_features)
    else:
        m_features = math.isqrt(n_features)
        if m_features * m_features < n_features:
            m_features += 1

    trees = []
    for t in range(params.num_trees):
        rng = np.random.Generator(np.random.PCG64(derive_seed(params.seed, t)))
        trees.append(_grow_tree(columns, len(columns.classes), rng, params, m_features))
    return ForestModel(params=params, classes=columns.classes, trees=tuple(trees))


def predict_language(model: ForestModel, vectors: Sequence[FeatureVector]) -> list[Prediction]:
    """Each vector's plurality vote across trees, with the winning vote share
    as its confidence; an empty vector is no evidence: ``(None, 0.0)``.

    Missing sparse entries read as 0; ties go to the lowest class index.
    Vectors are voted ``CHUNK_ROWS`` at a time, each chunk as a dense int32
    block of its counts of the features the forest splits on.
    """
    flat = model._flat
    n_trees, n_classes = flat.roots.size, len(model.classes)
    n_columns = flat.columns.size
    # a vocabulary index's column, or -1, which the last entry holds for
    # every index above the highest split feature
    column_of = np.full(int(flat.columns[-1]) + 2 if n_columns else 1, -1)
    column_of[flat.columns] = np.arange(n_columns)
    limits = np.iinfo(np.int32)  # holds every threshold a fit can produce
    predictions = []
    for start in range(0, len(vectors), CHUNK_ROWS):
        chunk = vectors[start:start + CHUNK_ROWS]
        n = len(chunk)
        rows, features, counts = _entries(chunk)
        col = column_of[np.clip(features, -1, column_of.size - 1)]
        hit = col >= 0
        block = np.zeros((n, n_columns), dtype=np.int32)
        block[rows[hit], col[hit]] = np.clip(counts[hit], limits.min, limits.max)
        owner = np.repeat(np.arange(n) * n_classes, n_trees)
        votes = np.bincount(owner + _leaf_classes(flat, block).ravel(),
                            minlength=n * n_classes).reshape(n, n_classes)
        winner = votes.argmax(axis=1)
        top = votes[np.arange(n), winner]
        predictions.extend(
            (model.classes[w], v / n_trees) if vector else (None, 0.0)
            for vector, w, v in zip(chunk, winner.tolist(), top.tolist())
        )
    return predictions


def _leaf_classes(flat: _FlatForest, block: np.ndarray) -> np.ndarray:
    """The (rows, trees) leaf class of every row of ``block`` in every tree.

    All (row, tree) pairs descend one level per step; a pair leaves the
    active set when it reaches a leaf.
    """
    n_trees = flat.roots.size
    n_rows, n_columns = block.shape
    cells = block.ravel()
    row_start = np.repeat(np.arange(n_rows) * n_columns, n_trees)
    node = np.tile(flat.roots, n_rows)
    active = np.flatnonzero(flat.feature[node] >= 0)
    while active.size:
        at = node[active]
        go_right = cells[row_start[active] + flat.feature[at]] > flat.threshold[at]
        at = flat.children[2 * at + go_right]
        node[active] = at
        active = active[flat.feature[at] >= 0]
    return flat.value[node].reshape(n_rows, n_trees)


def save_model(model: ForestModel, vectorizer: NgramVectorizer, sink: IO[bytes]) -> int:
    """Write magic, version byte, and the canonical JSON payload; returns bytes.

    The payload is ``model``'s fields plus ``vectorizer``; each dataclass is
    encoded as an object keyed by its field names, so the flat forest, which
    is not a field, is never written (``dataclasses.asdict`` would deep-copy
    every tree node first).
    """
    payload = {**_field_values(model), "vectorizer": vectorizer}
    text = json.dumps(payload, default=_field_values, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    blob = MODEL_MAGIC + bytes([MODEL_VERSION]) + text.encode("utf-8")
    sink.write(blob)
    return len(blob)


def _field_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _integers(values) -> tuple:
    """``values`` as a tuple if each is a JSON integer (a float or a bool is not)."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"expected an integer, got {bad!r:.40}")
    return tuple(values)


def _numbers(values) -> tuple:
    """``values`` as floats if each is a finite JSON number (a string, a bool,
    NaN or an infinity is not)."""
    if not set(map(type, values)) <= {int, float} or not all(map(math.isfinite, values)):
        bad = next(v for v in values if type(v) not in (int, float) or not math.isfinite(v))
        raise ValueError(f"expected a finite number, got {bad!r:.40}")
    return tuple(map(float, values))


def _vocabulary(spec) -> dict:
    """``spec`` if it maps each n-gram to a JSON integer."""
    if not isinstance(spec, dict):
        raise ValueError(f"expected an n-gram -> index object, got {spec!r:.40}")
    _integers(spec.values())
    return spec


# JSON -> field value, by the field's annotation.  Every field of a class that
# `_from_json` builds needs an entry here, so no field is loaded unchecked.
_DECODERS = {
    "ForestParams": lambda spec: _from_json(ForestParams, spec),
    "tuple[LanguageCode, ...]": lambda codes: tuple(map(LanguageCode.parse, codes)),
    "tuple[DecisionTree, ...]": lambda specs: tuple(_from_json(DecisionTree, t) for t in specs),
    "tuple[int, ...]": _integers,
    "tuple[float, ...]": _numbers,
    "dict": _vocabulary,
    "int": lambda value: _integers([value])[0],
    "Optional[int]": lambda value: value if value is None else _integers([value])[0],
}


def _from_json(cls, spec):
    """``cls`` built from a JSON object whose keys are exactly its field names."""
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    if not isinstance(spec, dict) or spec.keys() != set(names):
        raise ValueError(f"{cls.__name__} needs exactly the keys {names}")
    return cls(**{f.name: _DECODERS[f.type](spec[f.name]) for f in fields})


def load_model(source: IO[bytes]) -> tuple[ForestModel, NgramVectorizer]:
    """Exact inverse of :func:`save_model`.  A source that is not a model is a
    ModelFormatError naming the source's ``name``, if it has one."""
    path = getattr(source, "name", None)
    data = source.read()
    if data[:4] != MODEL_MAGIC:
        raise ModelFormatError(path, f"bad magic bytes (expected {MODEL_MAGIC!r})")
    if len(data) < 5:
        raise ModelFormatError(path, "corrupt model payload: missing version byte")
    if data[4] != MODEL_VERSION:
        raise ModelFormatError(path, f"unsupported model version {data[4]:#04x}")
    try:
        payload = json.loads(data[5:].decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("payload is not a JSON object")
        vectorizer = _from_json(NgramVectorizer, payload.pop("vectorizer", None))
        model = _from_json(ForestModel, payload)
        columns = model._flat.columns
        if columns.size and columns[-1] >= vectorizer.size:
            raise ValueError(f"the forest splits on feature {columns[-1]} "
                             f"beyond vocabulary size {vectorizer.size}")
    # bad UTF-8, JSON or structure; deep nesting; an integer beyond int64
    except (TypeError, ValueError, RecursionError, OverflowError) as exc:
        raise ModelFormatError(path, f"corrupt model payload: {exc}") from exc
    return model, vectorizer


def evaluate_model(
    predictor: ForestPredictor, test: Sequence[tuple[str, LanguageCode]]
) -> tuple[float, np.ndarray]:
    """Accuracy plus a 16x16 confusion matrix (row true, column predicted); a
    text with no n-gram in the vocabulary is a miss outside the matrix."""
    if not test:
        raise ValueError("evaluate_model needs a nonempty test set")
    order = {lang: i for i, lang in enumerate(LANGUAGE_ORDER)}
    confusion = np.zeros((len(LANGUAGE_ORDER), len(LANGUAGE_ORDER)), dtype=np.int64)
    predictions = predictor.predict_batch(text for text, _ in test)
    for (_, truth), (predicted, _) in zip(test, predictions):
        if predicted is not None:
            confusion[order[truth], order[predicted]] += 1
    accuracy = float(np.trace(confusion)) / len(test)
    return accuracy, confusion


@dataclass(frozen=True, eq=False)
class ForestPredictor:
    """The trained (vectorizer, forest) pair, predicting from raw text."""

    vectorizer: NgramVectorizer
    model: ForestModel

    def predict(self, text: str) -> Prediction:
        return next(self.predict_batch([text]))

    def predict_batch(self, texts: Iterable[str]) -> Iterator[Prediction]:
        """Each text's :func:`predict_language` vote, read ``CHUNK_ROWS`` texts at a time."""
        texts = iter(texts)
        while chunk := [vectorize(self.vectorizer, normalize_for_langid(text))
                        for text in list(islice(texts, CHUNK_ROWS))]:  # reading first is faster
            yield from predict_language(self.model, chunk)

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
