"""Character n-gram language identification.

A vocabulary-indexed n-gram count vectorizer feeding a bagged ensemble of
Gini-split decision trees, with a versioned binary model format.  Classifier
input is cleaned, lowercased text with stopwords retained (stopwords are
strong language discriminators).

Training texts are featurized in array passes over chunks of at most
``CHUNK_CHARS`` characters: each chunk's characters are ranked, then each
n-gram's id is its (n-1)-gram prefix's rank times the chunk's alphabet size
plus its last character's rank, and one sort per length groups the ids,
ranks them for the next length, and counts them per text.  Only each distinct
n-gram of a chunk becomes a Python string: for the merge of document
frequencies, and for the vocabulary lookup.  The samples reach the forest as
CSR rows (:class:`SparseRows`); per-text :func:`vectorize` serves prediction.

Training is a pure function of (sample order, parameters): bootstrap rows and
candidate features are SplitMix64 draws keyed on (seed, tree, node), so no
draw depends on the order in which nodes grow, and repeated fits serialize
byte-identically.  The samples are held as a sparse store (no n x V
matrix): by column, each column's nonzeros ascending by count, and by row,
as the CSR rows the fit is given.  A node holds its distinct samples and
their bootstrap multiplicities.  All trees grow
together, one depth level per step, its nodes' candidates drawn at most
``DRAW_CELLS`` (node, candidate) pairs at a time.  A searched node reads
whichever holds fewer nonzeros, its candidates' whole columns or its
samples' whole rows, and a level's nodes are searched in batches of one
path and at most ``SEARCH_NONZEROS`` gathered nonzeros.  The search keeps
one row per count a node's samples actually read in a candidate column, so
its cost and memory follow the nonzeros, not the largest count.  It
returns each split's right side too, so the fit cuts a split node's samples
without reading a column a second time.

A forest is one set of breadth-first integer node arrays from the fit to
the model file, which holds them as raw little-endian bytes after a JSON
header.  A tree's ``j``-th split has its children at places ``2j + 1`` and
``2j + 2`` of its tree, so no node stores where its children are, and its
threshold is the largest count that goes left.

Prediction is one batched vote.  The model keeps only the n-grams its forest
splits on, so one numbering runs from :func:`vectorize` to the vote.  A
model's first vote, or its load, flattens its node arrays into the vote's
(leaves point to themselves), checked there once.  Each chunk of at most
``CHUNK_ROWS`` sparse vectors becomes a dense block up to the highest split
feature, in the narrowest integer dtype that holds every threshold; every
(row, tree) pair then descends one level per step, and every few steps the
pairs at a leaf drop out.  The vote is a per-row bincount of leaf classes.
The flat arrays are not fields, so never saved.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from collections import Counter
from itertools import accumulate, chain, islice, repeat
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .corpus import LANGUAGE_ORDER, LanguageCode
from .errors import TlaError
from .preprocess import clean_text

FeatureVector = dict  # feature index -> positive count (vectorize's is a Counter)
Prediction = tuple[Optional[LanguageCode], float]  # (language, share of the trees' votes)

MODEL_MAGIC = b"TLAM"
MODEL_VERSION = 4
_HEADER_AT = 9  # after magic, version byte and the header's length
#: The dtypes of a model file's node arrays, narrowest first.
_INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")

#: Rows per dense block of the vote, and texts that ``predict_batch`` reads at a time.
CHUNK_ROWS = 256
#: Characters (a text's length plus one) that the training featurizer ranks
#: and sorts at a time, unless a single text has more.  A chunk's temporaries
#: are int64 arrays of about an entry a character per n-gram length, and its
#: distinct n-grams as strings: on the benchmark corpus they peak at about
#: 4.5 MiB (17.5 MiB at 2**16), and 2**14 featurizes as fast as 2**15.
CHUNK_CHARS = 1 << 14
#: Nonzeros that one batched split search gathers at most, along its nodes'
#: candidate columns or along their samples' rows, unless a single node
#: gathers more.  A batch's temporaries are a few arrays of that many
#: entries, plus one table of its nodes by samples (columns) or by features
#: (rows).  The benchmark's 50-tree fit takes 0.54 s of CPU at 2**17 and
#: 0.64 s at 2**15; its traced peak is 9.7 MiB at 2**17, 5.9 MiB at 2**15
#: and 13.9 MiB at 2**18.
SEARCH_NONZEROS = 1 << 17
#: (node, candidate) pairs of a level that the fit draws and searches at a
#: time, unless a single node has more candidates, and (tree, sample) pairs
#: of the bootstrap that it draws at a time, unless a tree has more
#: samples.  A draw's temporaries are a few 8-byte arrays of that many
#: entries; drawing a whole level at once took a 50-tree fit with every
#: feature a candidate from 74.5 MiB peak RSS (one node's draw at a time)
#: to 190 MiB.
DRAW_CELLS = 1 << 16

#: About what one more split-search call costs, in gathered nonzeros: a
#: call's fixed cost is some 150-200 us, a gathered nonzero's 15-25 ns.
_CALL_NONZEROS = 1 << 13

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Levels the vote descends between two drops of the pairs at a leaf; 8 made
# it about a quarter faster than a drop at every level.
_DESCENT_STEPS = 8
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
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _derive(keys: np.ndarray, index) -> np.ndarray:
    """:func:`derive_seed` of uint64 ``keys`` and ``index`` (an int or a
    uint64 array), broadcast together.  Arrays wrap modulo 2**64 as its
    masks do; numpy scalars would warn, so both are arrays here."""
    z = keys + (np.asarray(index, np.uint64).reshape(-1) + np.uint64(1)) * np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


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
    shorter = text
    for n in range(1, min(n_max, len(text)) + 1):
        if n > 1:  # each n-gram is the (n-1)-gram at its start plus one character
            shorter = list(map(operator.add, shorter, text[n - 1:]))
        if n >= n_min:
            grams += shorter
    return grams


@dataclass(frozen=True)
class NgramVectorizer:
    """Character n-gram vocabulary, in lexicographic order: each index is its n-gram's rank."""

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
        if list(vocab.values()) != list(range(len(vocab))) or list(vocab) != sorted(vocab):
            raise ValueError("vocabulary must be in lexicographic order, indexed 0..V-1")
        for gram in vocab:
            if not self.n_min <= len(gram) <= self.n_max:
                raise ValueError(f"n-gram {gram!r} outside length range")

    @property
    def size(self) -> int:
        return len(self.vocabulary)


class SparseRows(NamedTuple):
    """Sparse count vectors as CSR arrays: row ``i``'s features and their
    counts sit at ``indptr[i]:indptr[i + 1]`` of ``features`` and ``counts``."""

    indptr: np.ndarray
    features: np.ndarray
    counts: np.ndarray


def _chunk_ngrams(
    texts: Sequence[str], n_min: int, n_max: int
) -> Iterator[tuple[slice, list[str], np.ndarray, np.ndarray, np.ndarray]]:
    """The n-grams of each chunk of ``texts`` (see ``CHUNK_CHARS``).

    Yields, chunk after chunk, its slice of ``texts``; its distinct n-grams
    of each length in [n_min, n_max], lengths ascending, each length's in
    code point order (Python's string order); and one entry per distinct
    (n-gram, text) pair, ascending: the n-gram's place among them, the
    text's place in the chunk, and the n-gram's count in the text.

    The ids are exact at every length, with no limit on n: a chunk's
    1-grams are its code points, and an n-gram's id is the rank of its
    (n-1)-gram prefix among the chunk's distinct ones times the alphabet
    size plus its last character's rank.  So an id is below 2**21 or the
    chunk's character count squared, and an (id, text) key below that times
    the chunk's texts: 2**42 in a chunk of texts at ``CHUNK_CHARS`` = 2**14,
    and a longer text is a chunk of its own.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    for part in _batches((len(text) + 1 for text in texts), CHUNK_CHARS):
        chunk = texts[part]
        joined = "".join(chunk)
        lengths = np.fromiter(map(len, chunk), np.int64, len(chunk))
        # each n-gram's start in ``joined``, its text, and where its text ends
        start = np.arange(len(joined))
        text = np.arange(len(chunk)).repeat(lengths)
        end = lengths.cumsum().repeat(lengths)
        ids = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), np.uint32)
        ids = ids.astype(np.int64)
        grams: list[str] = []
        gram, doc, count = [], [], []
        for n in range(1, min(n_max, int(lengths.max(initial=0))) + 1):
            if n > 1:
                fits = start + n <= end
                start, text, end = start[fits], text[fits], end[fits]
                ids = rank[fits] * alphabet + char_rank[start + n - 1]
            # an argsort, not np.unique: np.unique(x) with no return_* flag
            # took 0.37 s on 438,762 int64 values in numpy 2.4.6, where
            # np.sort took 4 ms and np.unique(x, return_counts=True) 10 ms
            order = np.argsort(ids * len(chunk) + text)
            sorted_ids, sorted_text = ids[order], text[order]
            opens = _runs(sorted_ids)
            sorted_rank = opens.cumsum() - 1
            rank = np.empty_like(sorted_rank)
            rank[order] = sorted_rank
            if n == 1:
                char_rank, alphabet = rank, int(sorted_rank[-1]) + 1
            if n >= n_min:
                pair = _runs(sorted_ids, sorted_text).nonzero()[0]
                gram.append(sorted_rank[pair] + len(grams))
                doc.append(sorted_text[pair])
                count.append(np.diff(pair, append=ids.size))
                grams += [joined[at:at + n] for at in start[order[opens]].tolist()]
        if gram:
            yield part, grams, *map(np.concatenate, (gram, doc, count))


def fit_vectorizer(
    corpus: Sequence[tuple[str, LanguageCode]],
    n_min: int = 1,
    n_max: int = 3,
    min_doc_freq: int = 2,
) -> NgramVectorizer:
    """Build the vocabulary from n-grams with document frequency >= min_doc_freq."""
    if not corpus:
        raise ValueError("cannot fit a vectorizer on an empty corpus")
    doc_freq: Counter = Counter()
    for _, grams, gram, _, _ in _chunk_ngrams([text for text, _ in corpus], n_min, n_max):
        doc_freq.update(dict(zip(grams, np.bincount(gram).tolist())))
    kept = sorted(g for g, df in doc_freq.items() if df >= min_doc_freq)
    if not kept:
        raise EmptyVocabularyError(
            f"no n-gram reached document frequency {min_doc_freq}"
        )
    vocabulary = {gram: i for i, gram in enumerate(kept)}
    return NgramVectorizer(n_min, n_max, min_doc_freq, vocabulary)


def vectorize(vectorizer: NgramVectorizer, text: str) -> FeatureVector:
    """Count in-vocabulary n-grams; out-of-vocabulary n-grams drop silently."""
    grams = extract_char_ngrams(text, vectorizer.n_min, vectorizer.n_max)
    counts = Counter(map(vectorizer.vocabulary.get, grams))
    del counts[None]  # a Counter ignores a missing key
    return counts


def vectorize_batch(vectorizer: NgramVectorizer, texts: Sequence[str]) -> SparseRows:
    """Each text's :func:`vectorize` counts as one CSR row, features
    ascending, each array in the narrowest unsigned dtype that holds it.

    The texts are featurized a chunk at a time (see :func:`_chunk_ngrams`),
    and ``features`` and ``counts`` grow in place by each chunk's rows, so
    the result is never held twice.
    """
    vocabulary, n_features = vectorizer.vocabulary, vectorizer.size
    longest = max(map(len, texts), default=0)
    # a text holds at most one n-gram of each length at each character, so
    # no n-gram more often than it has characters
    n_lengths = min(vectorizer.n_max - vectorizer.n_min + 1, longest)
    indptr = np.zeros(len(texts) + 1, np.min_scalar_type(sum(map(len, texts)) * n_lengths))
    features = np.zeros(0, dtype=np.min_scalar_type(max(n_features - 1, 0)))
    counts = np.zeros(0, dtype=np.min_scalar_type(longest))
    for part, grams, gram, text, count in _chunk_ngrams(
            texts, vectorizer.n_min, vectorizer.n_max):
        feature = np.fromiter(map(vocabulary.get, grams, repeat(-1)), np.int64, len(grams))[gram]
        kept = (feature >= 0).nonzero()[0]
        text, feature = text[kept], feature[kept]
        order = np.argsort(text * n_features + feature)
        indptr[part.start + 1:part.stop + 1] = np.bincount(text, minlength=part.stop - part.start)
        _extend(features, feature[order])
        _extend(counts, count[kept[order]])
    indptr.cumsum(out=indptr)
    return SparseRows(indptr.astype(np.min_scalar_type(features.size), copy=False), features,
                      counts.astype(np.min_scalar_type(int(counts.max(initial=0))), copy=False))


def _extend(array: np.ndarray, values: np.ndarray) -> None:
    """Append ``values`` to ``array`` in place, by one realloc: an
    ``np.concatenate`` of all chunks' parts would hold them twice."""
    size = array.size
    array.resize(size + values.size, refcheck=False)
    array[size:] = values


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


class Nodes(NamedTuple):
    """Breadth-first integer node arrays, a forest's tree after tree:
    ``feature`` -1 marks a leaf holding the class index ``value``; the tree's
    ``j``-th split sends a count at most its ``threshold`` to place ``2j + 1``
    of its tree, a higher one to ``2j + 2``."""

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray


@dataclass(frozen=True, eq=False)
class ForestModel:
    """A bagged ensemble of decision trees over an ordered class list: tree
    ``t`` is the next ``sizes[t]`` places of ``nodes``.  Its nodes are checked
    (ValueError) when flattened: at its first vote, or at load."""

    params: ForestParams
    classes: tuple[LanguageCode, ...]
    sizes: np.ndarray
    nodes: Nodes

    def __post_init__(self):
        if not self.classes:
            raise ValueError("model must have at least one class")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class in model")
        if not len(self.sizes):
            raise ValueError("model must have at least one tree")

    @property
    def trees(self) -> tuple[Nodes, ...]:
        """Each tree's nodes, as views of ``nodes`` (the benchmark's save hook reads them)."""
        return tuple(map(Nodes, *(np.split(f, np.cumsum(self.sizes)[:-1]) for f in self.nodes)))

    @cached_property  # kept in the instance __dict__, which frozen does not guard
    def _flat(self) -> _FlatForest:
        return _flatten(self.sizes, self.nodes, len(self.classes))


class _FlatForest(NamedTuple):
    """All trees' nodes in one set of arrays, as in :class:`Nodes` (a split's
    vocabulary index is the block column it reads); tree ``t`` starts at
    ``roots[t]``.  A count moves from node ``i`` to ``child[i]`` if at most
    ``threshold[i]``, else to the node after it.  A leaf is its own
    ``child``, its ``feature`` -1 and its threshold the dtype's largest
    value, so no count moves it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    roots: np.ndarray


def _narrowest(lo: int, hi: int, dtypes: Sequence):
    """The first of the integer ``dtypes`` that holds both ``lo`` and ``hi``."""
    return next(t for t in dtypes if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)


def _flatten(sizes: np.ndarray, nodes: Nodes, n_classes: int) -> _FlatForest:
    """The forest's node arrays as the vote's; a split's feature stays its vocabulary index.

    Each tree must be nonempty and each node array as long as all trees
    together, each tree must hold ``2 * splits + 1`` nodes, each split's
    left child must come after it, so that every descent ends at a leaf of
    its tree, and every leaf's class must be below ``n_classes``.

    The integer thresholds take the narrowest dtype holding ``[min(0,
    lowest), max(0, highest) + 1]`` (int64 at most), so a count clipped to
    that dtype keeps each comparison.
    """
    total = int(sizes.sum())
    if sizes.min() < 1 or any(np.shape(field) != (total,) for field in nodes):
        raise ValueError("tree node arrays must be nonempty and equal-length")
    feature, threshold, value = nodes
    roots = np.cumsum(sizes) - sizes
    split = feature >= 0
    splits = np.add.reduceat(split, roots)
    bad = (2 * splits + 1 != sizes).nonzero()[0]
    if bad.size:
        t = bad[0]
        raise ValueError(f"tree {t} holds {sizes[t]} nodes, not 2 * {splits[t]} splits + 1")
    # each split's left child, its place in its tree: 2 * its rank among the tree's splits + 1
    node = np.arange(total)
    shift = np.repeat(roots, sizes)
    local = node - shift
    left = 2 * (split.cumsum() - split - np.repeat(splits.cumsum() - splits, sizes)) + 1
    bad = np.where(split, left <= local, (value < 0) | (value >= n_classes))
    if bad.any():
        at = int(np.argmax(bad))
        t = int(np.searchsorted(roots, at, side="right")) - 1
        what = (f"place for a split (its left child's is {left[at]})" if split[at] else
                f"leaf class index (of {n_classes} classes)")
        raise ValueError(f"tree {t} node {local[at]} has an invalid {what}")
    highest = min(max(0, int(threshold.max())) + 1, 2**63 - 1)  # no int64 count exceeds it
    dtype = _narrowest(min(0, int(threshold.min())), highest,
                       (np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32, np.int64))
    threshold = threshold.astype(dtype)
    threshold[~split] = np.iinfo(dtype).max
    return _FlatForest(
        feature=np.where(split, feature, -1),
        threshold=threshold,
        child=np.where(split, shift + left, node),
        value=value,
        roots=roots,
    )


class _Columns(NamedTuple):
    """Training samples as a compressed sparse store, by column and by row.

    Feature ``f``'s nonzero counts sit at ``indptr[f]:indptr[f + 1]`` of
    ``counts`` (ascending, in the narrowest unsigned dtype that holds the
    largest count) and ``rows`` (their sample indices, ascending among equal
    counts, in the narrowest unsigned dtype that holds them); ``y`` is each
    sample's class index.  The row view is the CSR samples themselves:
    sample ``s``'s nonzeros at ``row_indptr[s]:row_indptr[s + 1]`` of
    ``row_features`` and ``row_counts``.
    """

    classes: tuple[LanguageCode, ...]
    y: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    counts: np.ndarray
    row_indptr: np.ndarray
    row_features: np.ndarray
    row_counts: np.ndarray


def _column_store(
    samples: SparseRows,
    labels: Sequence[LanguageCode],
    n_features: Optional[int],
) -> _Columns:
    """The sorted class list and the sparse store of the CSR ``samples``,
    one per label.

    ``n_features`` defaults to the highest observed feature index + 1; an
    index outside 0..n_features-1 or a negative count is a ValueError.  The
    row view is ``samples`` with int64 offsets, or a copy without their
    explicit 0 counts if they hold any.
    """
    classes = tuple(sorted(set(labels)))
    class_index = {lang: i for i, lang in enumerate(classes)}
    y = np.array([class_index[lang] for lang in labels], dtype=np.int64)
    indptr, features, counts = samples
    rows = np.arange(len(labels), dtype=np.min_scalar_type(len(labels))).repeat(np.diff(indptr))
    nnz = features.size
    if n_features is None:
        n_features = int(features.max()) + 1 if nnz else 0
    bad = ((features < 0) | (features >= n_features)).nonzero()[0]
    if bad.size:
        at = bad[0]
        raise ValueError(f"sample {rows[at]}: feature index {features[at]} out of range")
    bad = (counts < 0).nonzero()[0]
    if bad.size:
        at = bad[0]
        raise ValueError(
            f"sample {rows[at]}: feature {features[at]} has negative count {counts[at]}"
        )
    row_indptr = indptr.astype(np.int64)
    if not counts.all():  # an explicit 0 is no nonzero
        kept = counts > 0
        rows, features, counts = rows[kept], features[kept], counts[kept]
        np.bincount(rows, minlength=len(labels)).cumsum(out=row_indptr[1:])
    order = np.lexsort((counts, features))
    column_counts = counts[order].astype(np.min_scalar_type(int(counts.max(initial=0))), copy=False)
    column_indptr = np.zeros(n_features + 1, dtype=np.int64)
    np.bincount(features, minlength=n_features).cumsum(out=column_indptr[1:])
    return _Columns(classes, y, column_indptr, rows[order], column_counts,
                    row_indptr, features, counts)


def _batches(costs: Iterable[int], limit: int) -> Iterator[slice]:
    """Consecutive runs of ``costs`` that sum to at most ``limit``; an item
    that costs more on its own is a run of one."""
    start, total, i = 0, 0, -1
    for i, cost in enumerate(costs):
        if i > start and total + cost > limit:
            yield slice(start, i)
            start, total = i, 0
        total += cost
    if i >= start:
        yield slice(start, i + 1)


def _runs(*keys: np.ndarray) -> np.ndarray:
    """Where a run of equal ``keys`` (1-D arrays of one length) starts."""
    opens = np.empty(keys[0].size, dtype=bool)
    opens[0] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=opens[1:])
    for key in keys[1:]:
        opens[1:] |= key[1:] != key[:-1]
    return opens


def _spans(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions ``starts[i]:stops[i]``, span after span, with each
    span's length and where it ends among them."""
    lengths = stops - starts
    ends = lengths.cumsum()
    pos = (starts - ends + lengths).repeat(lengths)
    pos += np.arange(pos.size)
    return pos, lengths, ends


def _candidates(keys: np.ndarray, n_features: int, m: int) -> np.ndarray:
    """The ``m`` candidate features of each node keyed by ``keys``, ascending.

    Floyd's algorithm draws them: step ``i`` (0 to m-1) draws ``v_i =
    derive_seed(derive_seed(key, 2), i) mod (V - m + i + 1)`` and takes it,
    or its top ``V - m + i`` if an earlier step took ``v_i``.  All nodes'
    steps run at once.  A draw equal to an earlier one is taken already;
    else it is taken only if it is the top of an earlier step that took its
    top, which is how the replacements spread until none changes.  When
    ``m`` is ``V`` the candidates are every feature, whatever the draws.
    """
    if m == n_features:  # the draw would take them all, at some 75 ns a candidate
        return np.broadcast_to(np.arange(m), (keys.size, m))
    low = n_features - m
    draws = _derive(_derive(keys, 2)[:, None], np.arange(m))
    draws %= np.arange(low + 1, n_features + 1, dtype=np.uint64)
    draws = draws.astype(np.int64)
    # each node's draws ascending, equal ones by step: all but the first are taken
    value, steps = np.divmod(np.sort(draws * m + np.arange(m), axis=1), m)
    topped = np.zeros(draws.shape, dtype=bool)
    topped[np.arange(keys.size)[:, None], steps[:, 1:]] = value[:, 1:] == value[:, :-1]
    step = draws - low  # the step whose top a draw is, if below its own
    node, at = ((step >= 0) & (step < np.arange(m)) & ~topped).nonzero()
    # each untaken draw's cell and the cell of the step whose top it is, in
    # the flat table; a draw taken drops out
    cell, on = node * m + at, node * m + step[node, at]
    flat = topped.ravel()
    while (spread := flat[on]).any():
        flat[cell[spread]] = True
        cell, on = cell[~spread], on[~spread]
    return np.sort(np.where(topped, np.arange(low, n_features), draws), axis=1)


def _bootstrap(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bootstrap of each tree keyed by ``keys``: ``n`` draws, draw ``i``
    ``derive_seed(derive_seed(key, 3), i) mod n``.  The result is the
    distinct samples drawn, tree after tree, ascending within a tree, with
    each one's tree and multiplicity; the samples and multiplicities in the
    narrowest unsigned dtype that holds a sample index, which holds a
    multiplicity too.  Runs of trees with at most ``DRAW_CELLS`` draws
    together are drawn one after another."""
    run = max(1, DRAW_CELLS // n)
    dtype = np.min_scalar_type(n)
    parts = []
    for first in range(0, keys.size, run):
        draws = _derive(_derive(keys[first:first + run], 3)[:, None], np.arange(n))
        draws %= np.uint64(n)
        draws += (np.arange(draws.shape[0], dtype=np.uint64) * np.uint64(n))[:, None]
        drawn = np.bincount(draws.ravel().view(np.int64), minlength=draws.size)
        tree, sample = np.divmod(drawn.nonzero()[0], n)
        parts.append((tree + first, sample.astype(dtype), drawn[drawn > 0].astype(dtype)))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _reads_rows(column_cost: np.ndarray, row_cost: np.ndarray) -> np.ndarray:
    """Which of a level's nodes to search along their samples' rows: those
    whose rows hold fewer nonzeros than their candidates' columns, unless
    one path for all of them gathers at most ``_CALL_NONZEROS`` more."""
    by_rows = row_cost < column_cost
    least = np.minimum(column_cost, row_cost).sum() + _CALL_NONZEROS
    if column_cost.sum() <= least:
        return np.zeros_like(by_rows)
    return np.ones_like(by_rows) if row_cost.sum() <= least else by_rows


def _best_splits(
    columns: _Columns,
    sample: np.ndarray,
    multiplicity: np.ndarray,
    sizes: np.ndarray,
    candidates: np.ndarray,
    totals: np.ndarray,
    by_rows: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every node's exhaustive split search, in one batch.

    Node ``i`` holds the next ``sizes[i]`` distinct samples of ``sample``,
    node after node, each its ``multiplicity`` times (its bootstrap
    multiplicities), of class counts ``totals[i]``, and may split on the
    columns in row ``i`` of ``candidates``, ascending.  Thresholds are the
    floors of the midpoints between consecutive distinct observed values, so
    each is the largest count of its left side; a node splits on
    the (feature, threshold) minimizing weighted child Gini, ties broken by
    lowest feature then lowest threshold, if that beats the parent.  The
    result is the nodes that split, ascending, with each one's feature and
    threshold, and their right sides: the places in ``sample`` of their
    samples whose count of the split feature exceeds the threshold.

    The search reads the store one of two ways, with the same result: the
    whole columns of each node's candidates, kept where the sample is the
    node's, or (``by_rows``) the whole rows of each node's samples, kept
    where the feature is one of its candidates.  Either way it has one row
    per distinct nonzero value that a (node, candidate) pair reads, in
    (node, candidate, value) order: the threshold just under that value,
    whose right side is that value's samples and the pair's higher ones.  A
    value that no sample reads, or a pair with no nonzero, bounds no
    threshold, so it gets no row.  Class counts are exact int64 throughout.
    """
    y = columns.y
    n_nodes, k = totals.shape
    n_features, m = columns.indptr.size - 1, candidates.shape[1]
    n = totals.sum(axis=1)
    owner = np.arange(n_nodes).repeat(sizes)
    cand = candidates.ravel()
    if by_rows:
        # every nonzero of every node's samples' rows, sample after sample,
        # kept where its feature is one of the node's candidates: its slot
        # among them, plus 1, in a (node, feature) table that is 0 elsewhere
        at, lengths, ends = _spans(columns.row_indptr[sample], columns.row_indptr[sample + 1])
        slot = np.zeros(n_nodes * n_features, dtype=np.min_scalar_type(m))
        slot[(np.arange(n_nodes) * n_features)[:, None] + candidates] = np.arange(1, m + 1)
        cell = (owner * n_features).repeat(lengths)
        cell += columns.row_features[at]
        hit = slot[cell]
        keep = (hit != 0).nonzero()[0]  # a bool array's nonzero() is about 5x faster
        entry = ends.searchsorted(keep, side="right")
        pair = owner[entry] * m + hit[keep] - 1
        value = columns.row_counts[at[keep]]
        # the kept nonzeros ascend by entry, which is by sample within a
        # node, so a stable sort gives the columns' order
        order = np.lexsort((value, pair))
        pair, value, entry = pair[order], value[order], entry[order]
    else:
        # every nonzero of every pair's column, pair after pair, kept where
        # its sample is the node's: its place among the node's samples, plus
        # 1, in a (node, sample) table that is 0 elsewhere; a column's
        # nonzeros ascend by value, so each pair's do too
        pos, lengths, ends = _spans(columns.indptr[cand], columns.indptr[cand + 1])
        n_samples = y.size
        starts = sizes.cumsum() - sizes
        table = np.zeros(n_nodes * n_samples, dtype=np.min_scalar_type(n_samples))
        table[owner * n_samples + sample] = np.arange(1, sample.size + 1) - starts.repeat(sizes)
        cell = (np.arange(n_nodes) * n_samples).repeat(m).repeat(lengths)
        cell += columns.rows[pos]
        place = table[cell]
        keep = (place != 0).nonzero()[0]
        pair, pos = ends.searchsorted(keep, side="right"), pos[keep]
        entry = starts[pair // m] + place[keep] - 1
        value = columns.counts[pos]
    if entry.size == 0:  # no pair reads a nonzero, so no node splits
        return pair, pair, np.zeros(0, np.int64), pair

    # one row per distinct (pair, value): first the class counts of the
    # value's samples, then those of the right side of the threshold under
    # the value: its own samples and those of the pair's later rows
    opens = _runs(pair, value)
    first = opens.nonzero()[0]
    right = np.bincount((opens.cumsum() - 1) * k + y[sample[entry]],
                        weights=multiplicity[entry], minlength=first.size * k)
    right = right.astype(np.int64).reshape(first.size, k)
    pair, value = pair[first], value[first].astype(np.int64)  # a narrow unsigned sum wraps
    cum = right.cumsum(axis=0)
    right += cum[pair.searchsorted(pair, side="right") - 1] - cum
    node = pair // m
    left = totals[node] - right
    n_left = left.sum(axis=1)
    n_right = right.sum(axis=1)
    q = ((left * left).sum(axis=1) / np.maximum(n_left, 1)
         + (right * right).sum(axis=1) / n_right)
    q[n_left == 0] = -np.inf  # the pair's lowest value is the node's lowest

    node_opens = _runs(node)
    node_first = node_opens.nonzero()[0]
    present = node[node_first]
    q_best = np.maximum.reduceat(q, node_first)
    eps = _SPLIT_EPS * n
    parent_q = (totals * totals).sum(axis=1) / n
    # first hit: lowest column, lowest threshold; q_best's row is always one
    hit = q >= (q_best - eps[present])[node_opens.cumsum() - 1]
    first_hit = np.minimum.reduceat(np.where(hit, np.arange(q.size), q.size), node_first)
    better = (q_best > (parent_q + eps)[present]).nonzero()[0]
    split, rows = present[better], first_hit[better]
    below = np.where((rows > 0) & (pair[rows - 1] == pair[rows]), value[rows - 1], 0)
    threshold = (below + value[rows]) // 2
    # a split's right side: the entries of its row and of its pair's later rows
    stops = np.append(first, entry.size)[pair.searchsorted(pair[rows], side="right")]
    entries, lengths, _ = _spans(first[rows], stops)
    return split, cand[pair[rows]], threshold, entry[entries]


def fit_forest(
    samples: SparseRows,
    labels: Sequence[LanguageCode],
    params: ForestParams,
    n_features: Optional[int] = None,
) -> ForestModel:
    """Train the bagged CART ensemble on the CSR ``samples`` (as
    :func:`vectorize_batch` gives them), row ``i`` labelled ``labels[i]``.

    Every draw is keyed on (seed, tree, node) by SplitMix64
    (:func:`derive_seed`), so no draw depends on the order in which nodes
    grow and the fit is deterministic.  Tree ``t``'s root key is
    ``derive_seed(seed, t)``, a split's children's keys are
    ``derive_seed(key, 0)`` (left) and ``derive_seed(key, 1)`` (right),
    bootstrap draw ``i`` of tree ``t`` is ``derive_seed(derive_seed(root,
    3), i) mod n``, and a node's candidate features come from
    ``derive_seed(key, 2)`` (see :func:`_candidates`).  ``n_features`` (the
    vectorizer vocabulary size) bounds the feature sampling range; it
    defaults to the highest observed index + 1.

    All trees grow together, one depth level per step.  A level's nodes
    hold their distinct samples and bootstrap multiplicities in flat
    arrays, node after node.  Its searched nodes' candidates are drawn for
    runs of nodes with at most ``DRAW_CELLS`` candidates together, and each
    run is searched before the next is drawn.  A node is searched along
    whichever holds fewer nonzeros, its candidates' columns or its samples'
    rows (see :func:`_reads_rows`), and one :func:`_best_splits` call
    searches a run's nodes of one path that gather at most
    ``SEARCH_NONZEROS`` nonzeros together (a node that gathers more is
    searched alone).  The right sides the search returns make one mask over
    the level's samples, which cuts them into the next level's: each split
    node's left child, then its right child.  A level's nodes are in tree
    order, so one stable sort by tree of all levels' node records gives each
    tree's breadth-first node list (see :class:`Nodes`).  The fit itself
    reads only the store's ``indptr``s, for the costs.
    """
    if not len(labels):
        raise ValueError("fit_forest needs at least one sample")
    if len(samples.indptr) != len(labels) + 1:
        raise ValueError(f"fit_forest needs one label per row, got {len(labels)} "
                         f"for {len(samples.indptr) - 1}")
    columns = _column_store(samples, labels, n_features)
    y, indptr = columns.y, columns.indptr
    n_samples, n_features = y.size, indptr.size - 1
    k = len(columns.classes)

    if params.features_per_split is not None:
        m_features = min(params.features_per_split, n_features)
    else:
        m_features = math.isqrt(n_features)
        if m_features * m_features < n_features:
            m_features += 1

    column_nonzeros = np.diff(indptr)
    row_nonzeros = np.diff(columns.row_indptr)
    run = max(1, DRAW_CELLS // max(m_features, 1))  # nodes whose candidates are drawn together
    tree = np.arange(params.num_trees)
    keys = _derive(np.array([params.seed & _MASK64], np.uint64), tree)
    # the level's nodes, by key and tree, and their samples (see _bootstrap)
    node, sample, multiplicity = _bootstrap(keys, n_samples)
    levels = []
    while keys.size:
        n_nodes = keys.size
        totals = np.bincount(node * k + y[sample], multiplicity, n_nodes * k)
        totals = totals.astype(np.int64).reshape(n_nodes, k)
        n_held = totals.sum(axis=1)
        done = (totals.max(axis=1) == n_held) | (n_held < params.min_samples_split)
        if not m_features or (params.max_depth is not None and len(levels) >= params.max_depth):
            done[:] = True
        searched = np.flatnonzero(~done)
        starts = np.zeros(n_nodes + 1, dtype=np.int64)
        np.bincount(node, minlength=n_nodes).cumsum(out=starts[1:])
        feature = np.full(n_nodes, -1)
        threshold = np.zeros(n_nodes, np.int64)
        goes_right = np.zeros(node.size, dtype=bool)
        for part in np.split(searched, range(run, searched.size, run)):
            cand = _candidates(keys[part], n_features, m_features)
            column_cost = row_cost = column_nonzeros[cand].sum(axis=1)
            by_rows = np.zeros(part.size, dtype=bool)
            if column_cost.sum() > _CALL_NONZEROS:  # else _reads_rows reads columns for all
                row_cost = np.bincount(node, row_nonzeros[sample], n_nodes)[part]
                by_rows = _reads_rows(column_cost, row_cost)
            for path, cost in ((False, column_cost), (True, row_cost)):
                chosen = (by_rows == path).nonzero()[0]
                for batch in _batches(cost[chosen].tolist(), SEARCH_NONZEROS):
                    at = part[chosen[batch]]
                    entries, sizes, _ = _spans(starts[at], starts[at + 1])
                    split, split_feature, split_threshold, right = _best_splits(
                        columns, sample[entries], multiplicity[entries], sizes,
                        cand[chosen[batch]], totals[at], path)
                    feature[at[split]], threshold[at[split]] = split_feature, split_threshold
                    goes_right[entries[right]] = True
        splits = feature >= 0
        levels.append((tree, feature, threshold, np.where(splits, -1, totals.argmax(axis=1))))
        # the next level: each split's left child, then its right child, each
        # with its side's samples in their order (a stable sort keeps it)
        kept = splits[node].nonzero()[0]
        child = 2 * (splits.cumsum() - 1)[node[kept]] + goes_right[kept]
        order = np.argsort(child, kind="stable")
        kept = kept[order]
        node, sample, multiplicity = child[order], sample[kept], multiplicity[kept]
        del kept, child, order  # not held through the next level's search
        keys = _derive(keys[splits][:, None], np.arange(2)).ravel()
        tree = tree[splits].repeat(2)

    tree, *fields = map(np.concatenate, zip(*levels))
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=params.num_trees)
    return ForestModel(params, columns.classes, sizes, Nodes(*(f[order] for f in fields)))


def predict_language(model: ForestModel, vectors: Sequence[FeatureVector]) -> list[Prediction]:
    """Each vector's plurality vote across trees, with the winning vote share
    as its confidence; an empty vector is no evidence: ``(None, 0.0)``.

    Missing sparse entries, and keys no split reads, read as 0; ties go to
    the lowest class index.  Vectors are voted ``CHUNK_ROWS`` at a time, each
    chunk as a dense block of its counts up to the highest split feature, in
    the narrowest dtype that holds the thresholds (see :func:`_flatten`):
    uint8 while all are below 255.
    """
    flat = model._flat
    n_trees, n_classes = flat.roots.size, len(model.classes)
    n_columns = int(flat.feature.max()) + 1  # no split reads a key past the highest
    limits = np.iinfo(flat.threshold.dtype)
    predictions = []
    for start in range(0, len(vectors), CHUNK_ROWS):
        chunk = vectors[start:start + CHUNK_ROWS]
        n = len(chunk)
        sizes = [len(x) for x in chunk]
        features = np.fromiter(chain.from_iterable(chunk), np.int64, sum(sizes))
        counts = np.fromiter(chain.from_iterable(x.values() for x in chunk), np.int64,
                             features.size)
        kept = ((features >= 0) & (features < n_columns)).nonzero()[0]
        cells = np.arange(n).repeat(sizes)[kept] * n_columns + features[kept]
        block = np.zeros((n, n_columns), dtype=flat.threshold.dtype)
        block.ravel()[cells] = counts[kept].clip(limits.min, limits.max)  # ravel: a view
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

    All active (row, tree) pairs descend one level per step; every
    ``_DESCENT_STEPS`` steps, those at a leaf drop out.  Until then they
    step in place, as a leaf is its own child and no count exceeds its
    threshold (its column -1 reads any cell).
    """
    n_trees = flat.roots.size
    n_rows, n_columns = block.shape
    cells = block.ravel()
    node = np.tile(flat.roots, n_rows)
    active = np.flatnonzero(flat.feature[node] >= 0)
    row_start = active // n_trees * n_columns
    while active.size:
        at = node[active]
        for _ in range(_DESCENT_STEPS):
            at = flat.child[at] + (cells[row_start + flat.feature[at]] > flat.threshold[at])
        node[active] = at
        live = flat.feature[at] >= 0
        active, row_start = active[live], row_start[live]
    return flat.value[node].reshape(n_rows, n_trees)


def save_model(model: ForestModel, vectorizer: NgramVectorizer, sink: IO[bytes]) -> int:
    """Write magic, version byte, the header's length (little-endian uint32),
    the canonical JSON header, then each node array's raw bytes, in turn (the
    file is never held whole); returns bytes.  Each array takes the narrowest
    of the little-endian integer ``_INT_DTYPES`` that holds it."""
    dtypes = [_narrowest(int(f.min()), int(f.max()), _INT_DTYPES) for f in model.nodes]
    header = json.dumps({
        **dataclasses.asdict(model.params), **vars(vectorizer), "classes": model.classes,
        "dtypes": dtypes, "nodes": model.sizes.tolist(), "vocabulary": list(vectorizer.vocabulary),
    }, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    sink.write(MODEL_MAGIC + bytes([MODEL_VERSION]) + len(header).to_bytes(4, "little") + header)
    fields = [np.ascontiguousarray(field, dtype) for field, dtype in zip(model.nodes, dtypes)]
    sink.writelines(fields)
    return _HEADER_AT + len(header) + sum(field.nbytes for field in fields)


def _integer(value, optional: bool = False):
    """``value`` if a JSON integer, or null where ``optional`` (a float or a bool is not)."""
    if type(value) is not int and not (optional and value is None):
        raise ValueError(f"expected an integer, got {value!r:.40}")
    return value


def load_model(source: IO[bytes]) -> tuple[ForestModel, NgramVectorizer]:
    """Exact inverse of :func:`save_model`.  A source that is not a model is a
    ModelFormatError naming the source's ``name``, if it has one.

    Every length the header states is checked, in Python ints, before the
    rest of the header is read and before any array is built."""
    path = getattr(source, "name", None)
    data = source.read()
    if data[:4] != MODEL_MAGIC:
        raise ModelFormatError(path, f"bad magic bytes (expected {MODEL_MAGIC!r})")
    if len(data) < 5:
        raise ModelFormatError(path, "corrupt model payload: missing version byte")
    if data[4] != MODEL_VERSION:
        raise ModelFormatError(path, f"unsupported model version {data[4]:#04x}")
    try:
        end = _HEADER_AT + int.from_bytes(data[5:_HEADER_AT], "little")
        if end > len(data):
            raise ValueError(f"header ends at byte {end} of a {len(data)}-byte file")
        header = json.loads(data[_HEADER_AT:end].decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("header is not a JSON object")
        sizes, dtypes = list(map(_integer, header.get("nodes", ()))), header.get("dtypes")
        if type(dtypes) is not list or len(dtypes) != len(Nodes._fields) or not all(
                dtype in _INT_DTYPES for dtype in dtypes):
            raise ValueError(f"unsupported node dtypes {dtypes!r:.80}")
        total, widths = sum(sizes), [np.dtype(dtype).itemsize for dtype in dtypes]
        if total * sum(widths) != len(data) - end:
            raise ValueError(f"header states {total} nodes of {sum(widths)} bytes, "
                             f"but {len(data) - end} bytes follow it")
        settings = dataclasses.fields(NgramVectorizer)[:-1]  # all but the vocabulary
        keys = sorted(["classes", "dtypes", "nodes", "vocabulary",
                       *(f.name for f in dataclasses.fields(ForestParams) + settings)])
        if sorted(header) != keys:
            raise ValueError(f"header needs exactly the keys {keys}")
        params = ForestParams(**{f.name: _integer(header[f.name], f.type != "int")
                                 for f in dataclasses.fields(ForestParams)})
        if type(grams := header["vocabulary"]) is not list:
            raise ValueError(f"expected an n-gram list, got {grams!r:.40}")
        vectorizer = NgramVectorizer(*(_integer(header[f.name]) for f in settings),
                                     dict(zip(grams, range(len(grams)))))
        offsets = accumulate((total * width for width in widths[:-1]), initial=end)
        nodes = Nodes(*map(np.frombuffer, repeat(data), dtypes, repeat(total), offsets))
        model = ForestModel(params, tuple(map(LanguageCode.parse, header["classes"])),
                            np.array(sizes, np.int64), nodes)
        highest = int(model._flat.feature.max())
        if highest >= vectorizer.size:
            raise ValueError(f"the forest splits on feature {highest} "
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
    """Normalize texts, fit the vectorizer and train the forest on counts; keep
    only the n-grams it splits on, renumbered by rank (so still sorted), as are its splits."""
    normalized = [(normalize_for_langid(text), lang) for text, lang in corpus]
    vectorizer = fit_vectorizer(normalized, n_min, n_max, min_doc_freq)
    texts, labels = zip(*normalized)
    model = fit_forest(vectorize_batch(vectorizer, texts), labels, params or ForestParams(),
                       n_features=vectorizer.size)
    feature, grams = model.nodes.feature, list(vectorizer.vocabulary)
    kept = np.flatnonzero(np.bincount(feature[feature >= 0], minlength=len(grams)))
    nodes = model.nodes._replace(feature=np.where(feature >= 0, kept.searchsorted(feature), -1))
    vectorizer = dataclasses.replace(vectorizer, vocabulary={
        grams[i]: rank for rank, i in enumerate(kept.tolist())})
    return ForestPredictor(vectorizer=vectorizer, model=dataclasses.replace(model, nodes=nodes))
