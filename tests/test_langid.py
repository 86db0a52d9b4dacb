import io
import json
import random
import tracemalloc

import numpy as np
import pytest

from tla import langid
from tla.corpus import LanguageCode
from tla.langid import (
    CHUNK_ROWS,
    EmptyVocabularyError,
    ForestParams,
    ModelFormatError,
    NgramVectorizer,
    evaluate_model,
    extract_char_ngrams,
    fit_forest,
    fit_vectorizer,
    load_model,
    normalize_for_langid,
    predict_language,
    save_model,
    train_identifier,
    vectorize,
)

from tla.synth import synthetic_corpus, synthetic_split

from conftest import (
    best_split,
    exhaustive_best_split,
    fit_nb,
    predict_nb,
    reference_fit_forest,
    reference_predict,
)

EN, ES = LanguageCode.EN, LanguageCode.ES
#: Texts with an empty vector: emoji, punctuation and URLs are cleaned away,
#: and no n-gram of these digits is in the vocabularies of the models here.
NO_EVIDENCE = ["😀 !!!", "12345", "https://t.co/abc123"]


class TestExtractCharNgrams:
    def test_one_and_two_grams(self):
        assert extract_char_ngrams("ab", 1, 2) == ["a", "b", "ab"]

    def test_text_shorter_than_n(self):
        assert extract_char_ngrams("a", 2, 2) == []

    def test_bigrams(self):
        assert extract_char_ngrams("aba", 2, 2) == ["ab", "ba"]

    def test_order_lengths_ascending(self):
        assert extract_char_ngrams("abc", 1, 3) == ["a", "b", "c", "ab", "bc", "abc"]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            extract_char_ngrams("abc", 0, 2)
        with pytest.raises(ValueError):
            extract_char_ngrams("abc", 3, 2)

    def test_total_count_formula(self, rng):
        for _ in range(50):
            text = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
            n_min, n_max = sorted((rng.randint(1, 4), rng.randint(1, 4)))
            grams = extract_char_ngrams(text, n_min, n_max)
            expected = sum(max(0, len(text) - n + 1) for n in range(n_min, n_max + 1))
            assert len(grams) == expected


class TestFitVectorizer:
    def test_doc_freq_threshold(self):
        v = fit_vectorizer([("ab", EN), ("ab", ES)], 2, 2, min_doc_freq=2)
        assert v.vocabulary == {"ab": 0}

    def test_min_df_one_keeps_everything(self):
        v = fit_vectorizer([("ab", EN), ("cd", ES)], 1, 2, min_doc_freq=1)
        assert set(v.vocabulary) == {"a", "b", "c", "d", "ab", "cd"}

    def test_empty_corpus(self):
        with pytest.raises(ValueError) as exc:
            fit_vectorizer([], 1, 2)
        assert str(exc.value) == "cannot fit a vectorizer on an empty corpus"

    def test_empty_vocabulary(self):
        with pytest.raises(EmptyVocabularyError) as exc:
            fit_vectorizer([("ab", EN), ("cd", ES)], 1, 2, min_doc_freq=2)
        assert str(exc.value) == "no n-gram reached document frequency 2"

    def test_lexicographic_contiguous_indices(self):
        v = fit_vectorizer([("ba", EN), ("ba", ES)], 1, 2, min_doc_freq=1)
        assert v.vocabulary == {"a": 0, "b": 1, "ba": 2}

    def test_validation_rejects_gapped_vocabulary(self):
        with pytest.raises(ValueError):
            NgramVectorizer(1, 2, 1, {"a": 0, "b": 2})
        with pytest.raises(ValueError):
            NgramVectorizer(1, 2, 1, {"b": 0, "a": 1})


class TestVectorize:
    @pytest.fixture()
    def v(self):
        return NgramVectorizer(2, 2, 1, {"ab": 0, "ba": 1})

    def test_counts(self, v):
        assert vectorize(v, "abab") == {0: 2, 1: 1}

    def test_empty_text(self, v):
        assert vectorize(v, "") == {}

    def test_wholly_out_of_vocabulary(self, v):
        assert vectorize(v, "zzzz") == {}

    def test_total_count_accounting(self, v, rng):
        # sum of counts = all extractable n-grams minus out-of-vocabulary drops
        for _ in range(100):
            text = "".join(rng.choice("abz") for _ in range(rng.randint(0, 10)))
            grams = extract_char_ngrams(text, v.n_min, v.n_max)
            in_vocab = sum(1 for g in grams if g in v.vocabulary)
            assert sum(vectorize(v, text).values()) == in_vocab


def _samples(values, classes, feature=0):
    return [({feature: v} if v else {}, c) for v, c in zip(values, classes)]


class TestBestSplit:
    def test_spec_example(self):
        samples = _samples([0, 0, 2, 3], [0, 0, 1, 1], feature=5)
        assert best_split(samples, [5]) == (5, 1.0)

    def test_pure_node_no_split(self):
        assert best_split(_samples([0, 1, 2], [0, 0, 0]), [0]) is None

    def test_constant_values_no_split(self):
        assert best_split(_samples([2, 2, 2], [0, 1, 0], feature=1), [1]) is None

    def test_feature_tie_breaks_low(self):
        # both features separate perfectly; feature 1 < feature 4
        samples = [({1: 0, 4: 0}, 0), ({1: 2, 4: 2}, 1)]
        assert best_split(samples, [4, 1]) == (1, 1.0)

    def test_threshold_tie_breaks_low(self):
        samples = _samples([0, 1, 1, 2], [0, 0, 1, 1])
        # thresholds 0.5 and 1.5 both give weighted gini 1/3; pick 0.5
        assert best_split(samples, [0]) == (0, 0.5)

    def test_absent_features_read_as_zero(self):
        samples = [({}, 0), ({3: 4}, 1)]
        assert best_split(samples, [3]) == (3, 2.0)

    def test_empty_samples(self):
        with pytest.raises(ValueError) as exc:
            best_split([], [0])
        assert str(exc.value) == "best_split needs at least one sample"

    def test_no_candidates(self):
        assert best_split(_samples([0, 1], [0, 1]), []) is None

    def test_matches_exhaustive_oracle_spot_checks(self, rng):
        for _ in range(300):
            n = rng.randint(2, 6)
            samples = [
                (
                    {f: rng.randint(0, 3) for f in range(3) if rng.random() < 0.7},
                    rng.randint(0, 2),
                )
                for _ in range(n)
            ]
            features = [0, 1, 2]
            assert best_split(samples, features) == exhaustive_best_split(samples, features)


def _disjoint_corpus():
    return [("aaa", EN), ("aa aaa", EN), ("aaaa", EN), ("bbb", ES), ("bb bbb", ES), ("bbbb", ES)]


def _pure_alphabet_corpus():
    """Disjoint single-character alphabets, no spaces: texts over {a} vs {b}."""
    return [("aaa", EN), ("aaaa", EN), ("aaaaa", EN), ("bbb", ES), ("bbbb", ES), ("bbbbb", ES)]


def _vectorized(corpus, n_min=1, n_max=2, min_df=1):
    v = fit_vectorizer(corpus, n_min, n_max, min_df)
    return v, [(vectorize(v, text), lang) for text, lang in corpus]


class TestFitForest:
    def test_single_exhaustive_tree_reproduces_its_training_labels(self):
        # An exhaustive CART tree reproduces the labels of the (consistently
        # labeled, disjoint-support) sample multiset it was grown on.  The
        # tree trains on a bootstrap, so the exact claim is over the bootstrap
        # rows, which the fixed per-tree seeding lets us reconstruct.
        corpus = _pure_alphabet_corpus()
        v, samples = _vectorized(corpus)
        params = ForestParams(num_trees=1, features_per_split=v.size, seed=3)
        model = fit_forest(samples, params, n_features=v.size)

        from tla.langid import derive_seed

        rng = np.random.Generator(np.random.PCG64(derive_seed(3, 0)))
        boot = rng.integers(0, len(samples), size=len(samples))
        for i in boot:
            x, lang = samples[int(i)]
            assert predict_language(model, [x])[0][0] == lang

    def test_zero_trees_rejected(self):
        with pytest.raises(ValueError):
            ForestParams(num_trees=0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ForestParams(min_samples_split=1)
        with pytest.raises(ValueError):
            ForestParams(max_depth=0)
        with pytest.raises(ValueError):
            ForestParams(features_per_split=0)

    def test_determinism_byte_identical(self):
        corpus = _disjoint_corpus()
        v, samples = _vectorized(corpus)
        params = ForestParams(num_trees=5, seed=99)
        blobs = []
        for _ in range(2):
            model = fit_forest(samples, params, n_features=v.size)
            sink = io.BytesIO()
            save_model(model, v, sink)
            blobs.append(sink.getvalue())
        assert blobs[0] == blobs[1]

    def test_max_depth_limits_trees(self):
        corpus = _disjoint_corpus()
        v, samples = _vectorized(corpus)
        params = ForestParams(num_trees=3, max_depth=1, seed=0)
        model = fit_forest(samples, params, n_features=v.size)
        for tree in model.trees:
            # a depth-1 tree has at most one internal node (the root)
            assert sum(1 for f in tree.feature if f >= 0) <= 1

    def test_min_samples_split_stops_early(self):
        corpus = _disjoint_corpus()
        v, samples = _vectorized(corpus)
        params = ForestParams(num_trees=1, min_samples_split=100, seed=0)
        model = fit_forest(samples, params, n_features=v.size)
        assert len(model.trees[0].feature) == 1  # a lone leaf

    def test_empty_samples(self):
        with pytest.raises(ValueError) as exc:
            fit_forest([], ForestParams())
        assert str(exc.value) == "fit_forest needs at least one sample"

    @pytest.mark.parametrize("seed, params, n_features, max_count", [
        (1, ForestParams(num_trees=4, seed=11), None, 5),
        (2, ForestParams(num_trees=3, max_depth=2, seed=12), None, 5),
        (3, ForestParams(num_trees=3, features_per_split=40, seed=13), None, 5),
        (4, ForestParams(num_trees=5, features_per_split=1, seed=14), None, 5),
        (5, ForestParams(num_trees=3, min_samples_split=12, seed=15), None, 5),
        (6, ForestParams(num_trees=3, seed=16), 45, 300),
        (7, ForestParams(num_trees=2, seed=17), 0, 0),
        (8, ForestParams(num_trees=2, features_per_split=3, seed=18), 9, 0),
    ])
    def test_matches_dense_reference_grower(self, seed, params, n_features, max_count):
        # Every tree must equal, node for node, the one the dense reference
        # grows from the same generator.
        samples = _skewed_samples(seed, max_count)
        _assert_matches_reference(samples, params, n_features)

    @pytest.mark.parametrize("seed, params, max_count", [
        (9, ForestParams(num_trees=16, seed=19), 300),
        (10, ForestParams(num_trees=16, features_per_split=12, seed=20), 300),
        (11, ForestParams(num_trees=16, min_samples_split=6, seed=21), 2),
    ])
    def test_lockstep_matches_dense_reference_grower(self, seed, params, max_count):
        # Trees that finish many steps apart, each step's nodes searched in
        # one call across trees whose columns read different values, and
        # explicit 0 counts, which must read like absent entries.
        samples = _skewed_samples(seed, max_count, explicit_zeros=True)
        assert any(count == 0 for vec, _ in samples for count in vec.values())
        model = _assert_matches_reference(samples, params, None)
        sizes = sorted(len(tree.feature) for tree in model.trees)
        assert sizes[-1] - sizes[0] >= 10, sizes  # steps in which only some trees grow

    def test_search_budget_does_not_change_the_model(self, monkeypatch):
        # One node per search call gives the trees of the default budget.
        samples = _skewed_samples(12, 300, explicit_zeros=True)
        params = ForestParams(num_trees=8, seed=22)
        expected = fit_forest(samples, params)
        monkeypatch.setattr(langid, "SEARCH_NONZEROS", 1)
        assert fit_forest(samples, params) == expected

    @pytest.mark.parametrize("num_trees", [3, 50])
    def test_fit_memory_stays_bounded(self, num_trees):
        # A dense n x V int32 count matrix alone would take 77.5 MiB here
        # (3,200 texts, vocabulary 6,351); the sparse column store keeps the
        # fit's peak allocation well below it, also with every tree's nodes
        # in flight at once.
        normalized = [(normalize_for_langid(text), lang)
                      for text, lang in synthetic_corpus(200, seed=42)]
        v = fit_vectorizer(normalized)
        samples = [(vectorize(v, text), lang) for text, lang in normalized]
        tracemalloc.start()
        try:
            fit_forest(samples, ForestParams(num_trees=num_trees, seed=42), n_features=v.size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, f"fit_forest peak {peak / 2**20:.1f} MiB"

    def test_wide_counts_match_dense_reference_grower(self):
        samples = _wide_count_samples(10_000)
        _assert_matches_reference(samples, ForestParams(num_trees=5, seed=23), None)

    def test_fit_memory_does_not_grow_with_the_largest_count(self):
        # The fit's memory must not follow the largest count: a histogram
        # with a value axis that wide would take about 200 MiB here.
        samples = _wide_count_samples(1_000_000)
        tracemalloc.start()
        try:
            model = fit_forest(samples, ForestParams(num_trees=5, seed=23))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"fit_forest peak {peak / 2**20:.2f} MiB"
        assert max(max(tree.threshold) for tree in model.trees) > 100_000


def _skewed_samples(seed, max_count, explicit_zeros=False):
    """40-80 random class-skewed sparse vectors over 30 features and 4
    classes (max_count 0 gives all-empty vectors).  With ``explicit_zeros``,
    a vector also holds a 0 for each of its class's features it does not
    count."""
    rng = random.Random(seed)
    langs = list(LanguageCode)[:4]
    samples = []
    for i in range(rng.randint(40, 80)):
        c = i % len(langs)
        vec = {}
        if max_count:
            for f in range(30):
                if rng.random() < (0.5 if f % len(langs) == c else 0.15):
                    vec[f] = rng.randint(1, max_count)
                elif explicit_zeros and f % len(langs) == c:
                    vec[f] = 0
        samples.append((vec, langs[c]))
    return samples


def _wide_count_samples(max_count):
    """12 samples over 2 features and 2 classes; feature 0's counts spread
    evenly from 0 to ``max_count``."""
    return [({0: i * max_count // 11, 1: 7 * i % 5}, (EN, ES)[i % 3 == 0]) for i in range(12)]


def _assert_matches_reference(samples, params, n_features):
    expected = reference_fit_forest(samples, params, n_features)
    model = fit_forest(samples, params, n_features)
    assert model == expected
    # preorder growth puts every split's left child right after it
    for tree in model.trees:
        for i, f in enumerate(tree.feature):
            children = (tree.left[i], tree.right[i])
            assert children[0] == i + 1 if f >= 0 else children == (-1, -1)
    return model


class TestPredictLanguage:
    def test_single_class_confidence_one(self):
        corpus = [("aaa", EN), ("aab", EN)]
        v, samples = _vectorized(corpus)
        model = fit_forest(samples, ForestParams(num_trees=7, seed=1), n_features=v.size)
        code, confidence = predict_language(model, [vectorize(v, "ab")])[0]
        assert code is EN and confidence == 1.0

    def test_disjoint_support(self):
        # Queries whose gram counts exceed every 0-vs-positive midpoint land
        # on the right side of every bootstrapped tree: confidence 1.0.
        v, samples = _vectorized(_pure_alphabet_corpus())
        model = fit_forest(samples, ForestParams(num_trees=9, seed=2), n_features=v.size)
        code, confidence = predict_language(model, [vectorize(v, "aaaaa")])[0]
        assert code is EN and confidence == 1.0
        code, confidence = predict_language(model, [vectorize(v, "bbbbb")])[0]
        assert code is ES and confidence == 1.0

    def test_empty_vector_routes_all_left(self):
        # A vector whose only key lies outside the vocabulary reads as all
        # zeros but still votes; an empty one is no evidence.
        v, samples = _vectorized(_disjoint_corpus())
        model = fit_forest(samples, ForestParams(num_trees=9, seed=4), n_features=v.size)

        def leftmost_class(tree):
            i = 0
            while tree.feature[i] >= 0:
                # all thresholds are midpoints of nonnegative counts, so 0 <= t
                i = tree.left[i] if 0 <= tree.threshold[i] else tree.right[i]
            return tree.value[i]

        votes = np.zeros(len(model.classes), dtype=int)
        for tree in model.trees:
            votes[leftmost_class(tree)] += 1
        expected = model.classes[int(np.argmax(votes))]
        assert predict_language(model, [{v.size: 1}])[0][0] == expected
        assert predict_language(model, [{}]) == [(None, 0.0)]

    def test_confidence_in_half_open_interval(self):
        v, samples = _vectorized(_disjoint_corpus())
        model = fit_forest(samples, ForestParams(num_trees=10, seed=5), n_features=v.size)
        for text in ["a", "b", "ab"]:
            code, confidence = predict_language(model, [vectorize(v, text)])[0]
            assert 0.0 < confidence <= 1.0
            assert code in model.classes
        for text in ["", "zz"]:  # no n-gram in the vocabulary
            assert predict_language(model, [vectorize(v, text)]) == [(None, 0.0)]


@pytest.fixture(scope="module")
def split_forest():
    """A forest trained on a synthetic split, with its held-out texts' vectors."""
    train, test = synthetic_split(60, 25, seed=9)
    identifier = train_identifier(train, ForestParams(num_trees=12, seed=9))
    texts = [text for text, _ in test]
    vectors = [vectorize(identifier.vectorizer, normalize_for_langid(t)) for t in texts]
    return identifier, texts, vectors


class TestBatchedVote:
    """``predict_language`` against the per-tree walk of ``reference_predict``."""

    def test_held_out_texts(self, split_forest):
        identifier, texts, vectors = split_forest
        assert len(vectors) == 16 * 25
        expected = [reference_predict(identifier.model, x) for x in vectors]
        assert predict_language(identifier.model, vectors) == expected
        assert list(identifier.predict_batch(texts)) == expected
        assert [identifier.predict(text) for text in texts[:20]] == expected[:20]

    def test_first_prediction_reads_at_most_one_chunk(self, split_forest):
        identifier, texts, _ = split_forest
        read = []

        def source():
            for text in texts:
                if len(read) == CHUNK_ROWS:
                    raise AssertionError(f"text {CHUNK_ROWS + 1} read before it was needed")
                read.append(text)
                yield text

        predictions = identifier.predict_batch(source())
        assert next(predictions) == identifier.predict(texts[0])
        assert len(read) == CHUNK_ROWS

    @pytest.mark.parametrize("text", NO_EVIDENCE)
    def test_text_with_no_ngram_in_the_vocabulary_has_no_prediction(self, split_forest, text):
        identifier, texts, vectors = split_forest
        empty = vectorize(identifier.vectorizer, normalize_for_langid(text))
        assert empty == {}
        assert predict_language(identifier.model, [empty]) == [(None, 0.0)]
        assert identifier.predict(text) == (None, 0.0)
        mixed = [texts[0], text, *texts[1:CHUNK_ROWS + 5]]
        expected = [reference_predict(identifier.model, x) for x in vectors[:CHUNK_ROWS + 5]]
        batched = list(identifier.predict_batch(mixed))
        assert batched == [expected[0], (None, 0.0), *expected[1:]]
        mixed_vectors = [vectors[0], empty, *vectors[1:CHUNK_ROWS + 5]]
        assert predict_language(identifier.model, mixed_vectors) == batched

    def test_random_vectors(self, split_forest):
        # Empty vectors, features the forest never splits on (inside and
        # beyond the vocabulary) and counts above every threshold.
        identifier = split_forest[0]
        model, size = identifier.model, identifier.vectorizer.size
        split_on = sorted({f for tree in model.trees for f in tree.feature if f >= 0})
        unused = sorted(set(range(size)) - set(split_on))
        top = int(max(t for tree in model.trees for t in tree.threshold)) + 1
        assert unused
        rng = random.Random(21)
        vectors = [{}]
        for _ in range(999):
            pool = rng.choice([split_on, unused, range(size + 100)])
            features = rng.sample(pool, min(len(pool), rng.randint(0, 40)))
            vectors.append({f: rng.choice([1, 2, rng.randint(1, top), top, 10 * top, 2**40])
                            for f in features})
        vectors.append({10**12: 3, -1: 2, split_on[0]: top})
        expected = [reference_predict(model, x) for x in vectors]
        assert predict_language(model, vectors) == expected

    def test_keys_outside_the_vocabulary_are_ignored(self, split_forest):
        identifier, _, vectors = split_forest
        size = identifier.vectorizer.size
        noisy = [{**x, -1: 99, -7: 99, size: 99, 10**12: 99} for x in vectors]
        model = identifier.model
        assert predict_language(model, noisy) == predict_language(model, vectors)

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
    def test_batch_sizes_around_one_chunk(self, split_forest, n):
        identifier, _, vectors = split_forest
        batch = vectors[:n]
        assert len(batch) == n
        expected = [reference_predict(identifier.model, x) for x in batch]
        assert predict_language(identifier.model, batch) == expected

    def test_forest_of_lone_leaves(self):
        v, samples = _vectorized(_disjoint_corpus())
        params = ForestParams(num_trees=3, min_samples_split=100, seed=0)
        model = fit_forest(samples, params, n_features=v.size)
        vectors = [{}, {0: 4}, *(x for x, _ in samples)]
        assert predict_language(model, vectors) == [
            reference_predict(model, x) for x in vectors
        ]

    def test_model_file_does_not_depend_on_prediction(self):
        v, samples = _vectorized(_disjoint_corpus())
        fresh = fit_forest(samples, ForestParams(num_trees=4, seed=7), n_features=v.size)
        assert "_flat" not in vars(fresh)  # a fit does not flatten the trees it never votes with
        before, after = io.BytesIO(), io.BytesIO()
        save_model(fresh, v, before)
        predict_language(fresh, [{0: 1}, {}])
        assert "_flat" in vars(fresh)  # the flat arrays are held on the model
        save_model(fresh, v, after)
        assert after.getvalue() == before.getvalue()


class TestNaiveBayes:
    def test_single_class(self):
        corpus = [("aaa", EN), ("aab", EN)]
        v, samples = _vectorized(corpus)
        nb = fit_nb(samples, n_features=v.size)
        assert predict_nb(nb, vectorize(v, "b")) is EN

    def test_disjoint_support_agrees_with_forest(self):
        v, samples = _vectorized(_disjoint_corpus())
        model = fit_forest(samples, ForestParams(num_trees=15, seed=6), n_features=v.size)
        nb = fit_nb(samples, n_features=v.size)
        for x, lang in samples:
            forest_says = predict_language(model, [x])[0][0]
            nb_says = predict_nb(nb, x)
            assert forest_says == nb_says == lang

    def test_mirror_symmetry_ties_to_lowest_class(self):
        corpus = [("aa", EN), ("bb", ES)]
        v, samples = _vectorized(corpus, n_max=1)
        nb = fit_nb(samples, n_features=v.size)
        assert predict_nb(nb, vectorize(v, "ab")) is EN

    def test_hand_computed_posterior(self):
        # classes: EN {a:2}, ES {b:2}; alpha=1, V=2
        # p(a|EN) = 3/4, p(b|EN) = 1/4; mirrored for ES
        corpus = [("aa", EN), ("bb", ES)]
        v, samples = _vectorized(corpus, n_max=1)
        nb = fit_nb(samples, n_features=v.size)
        assert nb.log_likelihood[0, 0] == pytest.approx(np.log(3 / 4))
        assert nb.log_likelihood[0, 1] == pytest.approx(np.log(1 / 4))
        assert predict_nb(nb, {0: 2, 1: 1}) is EN
        assert predict_nb(nb, {0: 1, 1: 2}) is ES

    def test_empty_samples(self):
        with pytest.raises(ValueError) as exc:
            fit_nb([])
        assert str(exc.value) == "fit_nb needs at least one sample"

    def test_feature_index_out_of_range(self):
        # the same check as fit_forest's: -1 must not count into the last column
        fits = (fit_nb, lambda samples, n_features: fit_forest(
            samples, ForestParams(num_trees=1), n_features=n_features))
        for fit in fits:
            for bad in (-1, 2):
                samples = [({0: 1, bad: 5}, EN), ({1: 2}, ES)]
                with pytest.raises(ValueError, match=f"feature index {bad} out of range"):
                    fit(samples, n_features=2)

    def test_negative_count_rejected(self):
        # counts are stored unsigned, so a negative one must not wrap around
        samples = [({0: 1, 1: -3}, EN), ({1: 2}, ES)]
        for fit in (fit_nb, lambda s: fit_forest(s, ForestParams(num_trees=1))):
            with pytest.raises(ValueError, match="sample 0: feature 1 has negative count -3"):
                fit(samples)


@pytest.fixture(scope="module")
def trained():
    v, samples = _vectorized(_disjoint_corpus())
    model = fit_forest(samples, ForestParams(num_trees=8, seed=7), n_features=v.size)
    return model, v


class TestModelSerialization:
    def test_round_trip_predictions_on_random_vectors(self, trained):
        model, v = trained
        sink = io.BytesIO()
        n_bytes = save_model(model, v, sink)
        assert n_bytes == len(sink.getvalue())
        sink.seek(0)
        loaded_model, loaded_v = load_model(sink)
        assert loaded_v == v
        assert loaded_model == model
        rng = random.Random(11)
        for _ in range(1000):
            x = {f: rng.randint(1, 5) for f in range(v.size) if rng.random() < 0.3}
            assert predict_language(loaded_model, [x])[0] == predict_language(model, [x])[0]

    def test_envelope_layout(self, trained):
        model, v = trained
        sink = io.BytesIO()
        save_model(model, v, sink)
        data = sink.getvalue()
        assert data[:4] == b"TLAM"
        assert data[4] == 0x01
        payload = json.loads(data[5:].decode("utf-8"))
        assert set(payload) == {"classes", "params", "trees", "vectorizer"}

    @staticmethod
    def _load_error(blob):
        with pytest.raises(ModelFormatError) as exc:
            load_model(io.BytesIO(blob))
        assert exc.value.path is None
        return str(exc.value)

    def test_bad_magic(self):
        assert self._load_error(b"NOPE\x01{}") == "bad magic bytes (expected b'TLAM')"

    def test_missing_version_byte(self):
        assert self._load_error(b"TLAM") == "corrupt model payload: missing version byte"

    def test_unsupported_version(self, trained):
        model, v = trained
        sink = io.BytesIO()
        save_model(model, v, sink)
        data = bytearray(sink.getvalue())
        data[4] = 0x02
        assert self._load_error(bytes(data)) == "unsupported model version 0x02"

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.tlam"
        path.write_bytes(b"NOPE\x01{}")
        with open(path, "rb") as source, pytest.raises(ModelFormatError) as exc:
            load_model(source)
        assert exc.value.path == str(path)
        assert str(exc.value) == f"{path}: bad magic bytes (expected b'TLAM')"

    def test_corrupt_json(self):
        assert self._load_error(b"TLAM\x01{oops") == (
            "corrupt model payload: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)"
        )

    @pytest.mark.parametrize("payload, message", [
        (b"[" * 100_000, "maximum recursion depth exceeded while decoding a JSON array "
                         "from a unicode string"),
        (b'{"trees":' + b"9" * 5000 + b"}",
         "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 "
         "digits; use sys.set_int_max_str_digits() to increase the limit"),
    ], ids=["deep", "long_int"])
    def test_unparsable_payload_is_corrupt(self, payload, message):
        # Nesting past the interpreter's recursion limit, and an integer too
        # long to convert, are corrupt payloads and not raw Python errors.
        assert self._load_error(b"TLAM\x01" + payload) == f"corrupt model payload: {message}"

    def test_corrupt_structure(self, trained):
        model, v = trained
        sink = io.BytesIO()
        save_model(model, v, sink)

        def split_tree(p):  # the first tree whose root is a split
            return next(t for t in p["trees"] if t["feature"][0] >= 0)

        vectorizer_keys = ("NgramVectorizer needs exactly the keys "
                           "['n_min', 'n_max', 'min_doc_freq', 'vocabulary']")
        params_keys = ("ForestParams needs exactly the keys "
                       "['num_trees', 'max_depth', 'min_samples_split', 'features_per_split', "
                       "'seed']")
        tree_keys = ("DecisionTree needs exactly the keys "
                     "['feature', 'threshold', 'left', 'right', 'value']")
        corruptions = [
            (lambda p: p["vectorizer"].update(vocabulary={"a": 0, "c": 2}),
             "vocabulary indices must be the lexicographic rank 0..V-1"),
            (lambda p: p.pop("vectorizer"), vectorizer_keys),
            (lambda p: p.update(extra=1),
             "ForestModel needs exactly the keys ['params', 'classes', 'trees']"),
            (lambda p: p["params"].pop("num_trees"), params_keys),
            (lambda p: p["params"].update(extra=1), params_keys),
            (lambda p: p["vectorizer"].pop("min_doc_freq"), vectorizer_keys),
            (lambda p: p["vectorizer"].update(extra=1), vectorizer_keys),
            (lambda p: p["trees"][0].pop("threshold"), tree_keys),
            (lambda p: p["trees"][-1].update(extra=[]), tree_keys),
            (lambda p: p.update(trees=[[]]), tree_keys),
            (lambda p: p["vectorizer"].update(n_max=p["vectorizer"]["n_max"] + 0.5),
             "expected an integer, got 2.5"),
            (lambda p: split_tree(p)["left"].__setitem__(0, 1.5),
             "expected an integer, got 1.5"),
            (lambda p: p["trees"][0]["value"].__setitem__(-1, True),  # a leaf: the last node
             "expected an integer, got True"),
            (lambda p: split_tree(p)["right"].__setitem__(0, 0),  # a cycle
             "tree 0 node 0 has an invalid child index"),
            (lambda p: p["trees"][0]["value"].__setitem__(-1, len(p["classes"])),
             "tree 0 node 4 has an invalid leaf class index (of 2 classes)"),
            (lambda p: split_tree(p)["left"].__setitem__(0, 2**64),
             "Python int too large to convert to C long"),
            (lambda p: split_tree(p)["threshold"].__setitem__(0, "0.5"),
             "expected a finite number, got '0.5'"),
            (lambda p: split_tree(p)["threshold"].__setitem__(0, True),
             "expected a finite number, got True"),
            (lambda p: split_tree(p)["threshold"].__setitem__(0, float("nan")),
             "expected a finite number, got nan"),
            (lambda p: split_tree(p)["threshold"].__setitem__(0, float("-inf")),
             "expected a finite number, got -inf"),
            (lambda p: split_tree(p)["threshold"].__setitem__(0, 10**400),
             "int too large to convert to float"),
            (lambda p: p["vectorizer"]["vocabulary"].update(
                {gram: float(i) for gram, i in p["vectorizer"]["vocabulary"].items() if i == 1}
            ), "expected an integer, got 1.0"),
            (lambda p: p["vectorizer"].update(vocabulary=sorted(p["vectorizer"]["vocabulary"])),
             "expected an n-gram -> index object, got [' ', ' a', ' b', 'a', 'a ', 'aa', 'b', "),
            (lambda p: p["vectorizer"].update(vocabulary=None),
             "expected an n-gram -> index object, got None"),
            (lambda p: p["vectorizer"].update(n_min=3), "need 1 <= n_min <= n_max, got 3..2"),
            (lambda p: p["vectorizer"].update(n_min=0), "need 1 <= n_min <= n_max, got 0..2"),
            (lambda p: p["vectorizer"].update(min_doc_freq=0), "min_doc_freq must be >= 1, got 0"),
            (lambda p: p["vectorizer"].update(n_max=1), "n-gram ' a' outside length range"),
            (lambda p: p.update(classes=[]), "model must have at least one class"),
            (lambda p: p.update(classes=["en", "en"]), "duplicate class in model"),
            (lambda p: p.update(trees=[]), "model must have at least one tree"),
            (lambda p: p["trees"][0]["threshold"].pop(),
             "tree node arrays must be nonempty and equal-length"),
        ]
        for corrupt, message in corruptions:
            payload = json.loads(sink.getvalue()[5:].decode("utf-8"))
            corrupt(payload)
            blob = b"TLAM\x01" + json.dumps(payload).encode("utf-8")
            assert self._load_error(blob) == f"corrupt model payload: {message}"
        assert self._load_error(b"TLAM\x01[]") == (
            "corrupt model payload: payload is not a JSON object"
        )

    def test_feature_beyond_vocabulary(self, trained):
        model, v = trained
        sink = io.BytesIO()
        save_model(model, v, sink)
        payload = json.loads(sink.getvalue()[5:].decode("utf-8"))
        payload["vectorizer"]["vocabulary"] = {"a": 0}
        payload["vectorizer"]["n_max"] = 1
        blob = b"TLAM\x01" + json.dumps(payload).encode("utf-8")
        assert self._load_error(blob) == (
            "corrupt model payload: the forest splits on feature 8 beyond vocabulary size 1"
        )


@pytest.fixture(scope="module")
def predictor():
    return train_identifier(_disjoint_corpus(), ForestParams(num_trees=9, seed=8),
                            n_min=1, n_max=2, min_doc_freq=1)


class TestEvaluateModel:
    def test_perfect_predictions(self, predictor):
        accuracy, confusion = evaluate_model(predictor, [("aaa a", EN), ("bb bb", ES)])
        assert accuracy == 1.0
        assert confusion.sum() == 2
        assert np.trace(confusion) == 2
        assert confusion.shape == (16, 16)

    def test_three_of_four(self, predictor):
        test = [("aaa", EN), ("aa", EN), ("bbb", ES), ("bbb", EN)]  # last is wrong on purpose
        accuracy, confusion = evaluate_model(predictor, test)
        assert accuracy == 0.75
        assert confusion.sum() - np.trace(confusion) == 1

    @pytest.mark.parametrize("text", NO_EVIDENCE)
    def test_text_with_no_ngram_in_the_vocabulary_is_a_miss(self, predictor, text):
        accuracy, confusion = evaluate_model(predictor, [("aaa a", EN), (text, EN)])
        assert accuracy == 0.5
        assert confusion.sum() == np.trace(confusion) == 1

    def test_empty_test_set(self, predictor):
        with pytest.raises(ValueError) as exc:
            evaluate_model(predictor, [])
        assert str(exc.value) == "evaluate_model needs a nonempty test set"

    def test_normalization_applied(self, predictor):
        code, _ = predictor.predict("AAA!! https://spam.example AAA")
        assert code is EN

    def test_normalize_for_langid_keeps_stopwords(self):
        assert normalize_for_langid("The CAT!") == "the cat"


def test_synthetic_corpus_needs_a_text_per_language():
    with pytest.raises(ValueError) as exc:
        synthetic_corpus(0, seed=1)
    assert str(exc.value) == "per_language must be >= 1, got 0"


def test_accuracy_on_short_prefixes_of_the_acceptance_split():
    # Held-out accuracy on whole texts is 1.0, so it cannot show a change of
    # the model; on the first 8, 12 and 16 characters it scored 0.464, 0.790
    # and 0.953 (of 800 texts).  Each floor sits about 2.5 to 3 binomial
    # standard errors below that value.
    seed = 20240901  # the acceptance suite's split and forest
    train, test = synthetic_split(200, 50, seed=seed)
    identifier = train_identifier(train, ForestParams(seed=seed))
    for length, floor in [(8, 0.42), (12, 0.75), (16, 0.93)]:
        prefixes = [(text[:length], lang) for text, lang in test]
        accuracy, _ = evaluate_model(identifier, prefixes)
        assert accuracy >= floor, f"{length} characters: accuracy {accuracy:.4f} < {floor}"
