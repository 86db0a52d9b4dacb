"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Each criterion asserts its stated tolerance and runtime.
"""

import io
import itertools
import random
import re
import time
import unicodedata
from contextlib import contextmanager

import pytest

from tla.analyze import truncate_pct
from tla.cli import run as cli_run
from tla.corpus import (
    CleanRow,
    LanguageCode,
    SentimentLabel,
    read_dataset_csv,
    write_dataset_csv,
)
from tla.ingest import QuerySpec, compile_query
from tla.langid import (
    ForestParams,
    ForestPredictor,
    evaluate_model,
    predict_language,
    train_identifier,
    vectorize,
)
from tla.preprocess import StopwordTable, clean_text, preprocess_tweet
from tla.sentiment import DuplicateTokenWarning, Lexicon, label_sentiment, load_lexicon, score_tokens
from tla.synth import synthetic_corpus, synthetic_split

from conftest import (
    SCRIPT_LETTERS,
    best_splits,
    exhaustive_best_split,
    fit_nb,
    predict_nb,
    random_dataset,
    random_script_text,
)

ACCEPTANCE_SEED = 20240901

#: Paper analysis table: code -> (total, positive cell, negative cell).
PAPER_TABLE = [
    ("en", "English", 500, "66.8", "33.2"),
    ("es", "Spanish", 500, "61.4", "38.6"),
    ("fa", "Persian", 50, "52", "48"),
    ("fr", "French", 500, "53", "47"),
    ("hi", "Hindi", 500, "62", "38"),
    ("id", "Indonesian", 500, "63.4", "36.6"),
    ("ja", "Japanese", 500, "85.6", "14.4"),
    ("nl", "Dutch", 500, "84.2", "15.8"),
    ("pt", "Portuguese", 500, "61.2", "38.8"),
    ("ro", "Romanian", 457, "85.55", "14.44"),
    ("ru", "Russian", 213, "62.91", "37.08"),
    ("sv", "Swedish", 420, "80.23", "19.76"),
    ("th", "Thai", 424, "71.46", "28.53"),
    ("tr", "Turkish", 500, "67.8", "32.2"),
    ("ur", "Urdu", 42, "69.04", "30.95"),
    ("zh", "Chinese", 500, "80.6", "19.4"),
]


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({time.perf_counter() - start:.1f}s)")


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def _rows_with_counts(lang, positive, negative):
    rows = []
    for i in range(positive + negative):
        label = SentimentLabel.POSITIVE if i < positive else SentimentLabel.NEGATIVE
        rows.append(CleanRow(f"{lang.value}{i}", lang, f"t{i}", (f"t{i}",), label))
    return rows


def test_criterion_1_table_reproduction(tmp_path):
    with criterion("1 table reproduction (string-exact, 16 rows)"):
        start = time.perf_counter()
        paths = []
        for code, _, total, pos_cell, neg_cell in PAPER_TABLE:
            # oracle: brute-force search for the unique integer split whose
            # truncated percentages reproduce both table cells
            matches = [
                p for p in range(total + 1)
                if truncate_pct(p, total) == pos_cell
                and truncate_pct(total - p, total) == neg_cell
            ]
            assert len(matches) == 1, f"{code}: non-unique split {matches}"
            positive = matches[0]
            rows = _rows_with_counts(LanguageCode.parse(code), positive, total - positive)
            path = tmp_path / f"{code}.csv"
            with open(path, "w", encoding="utf-8", newline="") as sink:
                write_dataset_csv(rows, sink)
            paths.append(str(path))

        exit_code, out, err = invoke("analyze", "--format", "csv", "--input", *paths)
        assert exit_code == 0, err
        lines = out.splitlines()
        assert lines[0] == ("Language,Total tweets,"
                            "Positive Tweets Percentage,Negative Tweets Percentage")
        expected_rows = [f"{name},{total},{pos},{neg}"
                         for _, name, total, pos, neg in PAPER_TABLE]
        assert lines[1:] == expected_rows
        assert time.perf_counter() - start < 5.0


def test_criterion_2_truncation_not_rounding():
    with criterion("2 truncation vs rounding (79/213 -> 37.08)"):
        assert truncate_pct(79, 213) == "37.08"
        assert truncate_pct(79, 213) != "37.09"  # a rounding implementation fails here
        assert round(7900000 / 213) == 37089  # i.e. rounding would give 37.09


def test_criterion_3_query_compiler():
    with criterion("3 query compiler (examples + 1000-spec grammar)"):
        start = time.perf_counter()
        assert compile_query(QuerySpec(LanguageCode.EN, 9000, True)) == (
            "min_faves:9000 filter:has_engagement lang:en"
        )
        assert compile_query(QuerySpec(LanguageCode.HI, 0, False)) == "lang:hi"
        assert compile_query(QuerySpec(LanguageCode.ZH, 100, True)) == (
            "min_faves:100 filter:has_engagement lang:zh"
        )
        grammar = re.compile(r"(min_faves:[0-9]+ )?(filter:has_engagement )?lang:[a-z]{2}")
        rng = random.Random(ACCEPTANCE_SEED)
        langs = list(LanguageCode)
        for _ in range(1000):
            spec = QuerySpec(
                language=rng.choice(langs),
                min_faves=rng.choice([0, 1, 42, 9000, rng.randrange(10**7)]),
                has_engagement=rng.random() < 0.5,
            )
            assert grammar.fullmatch(compile_query(spec))
        assert time.perf_counter() - start < 1.0


def test_criterion_4_preprocess_properties():
    with criterion("4 preprocess properties (>=1000 inputs, 16 scripts)"):
        start = time.perf_counter()
        table = StopwordTable.load_bundled()
        rng = random.Random(ACCEPTANCE_SEED)
        langs = list(LanguageCode)

        checked = 0
        for i in range(1056):
            lang = langs[i % len(langs)]
            text = random_script_text(rng, lang)
            once = preprocess_tweet(text, lang, table)
            # idempotence
            assert preprocess_tweet(" ".join(once), lang, table) == once
            # no punctuation, no symbols, no whitespace, no uppercase
            for token in once:
                assert token and token == token.lower()
                for ch in token:
                    assert not ch.isspace()
                    assert unicodedata.category(ch)[0] not in ("P", "S")
            checked += 1

        for i in range(1056):
            lang = langs[i % len(langs)]
            letters = SCRIPT_LETTERS[lang.value]
            words = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 6))]
            text = "  ".join(words)
            # script preservation: letters-and-spaces text passes through
            assert clean_text(text) == " ".join(text.split())
            checked += 1

        assert checked >= 2000
        assert time.perf_counter() - start < 30.0


@pytest.fixture(scope="module")
def default_training():
    start = time.perf_counter()
    train, test = synthetic_split(200, 50, seed=ACCEPTANCE_SEED)
    first = train_identifier(train, ForestParams(seed=ACCEPTANCE_SEED))
    second = train_identifier(train, ForestParams(seed=ACCEPTANCE_SEED))
    blobs = []
    for predictor in (first, second):
        sink = io.BytesIO()
        predictor.save(sink)
        blobs.append(sink.getvalue())
    return {
        "train": train,
        "test": test,
        "predictor": first,
        "blobs": blobs,
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_5_langid(default_training):
    with criterion("5 langid (accuracy, determinism, round-trip, oracle)"):
        start = time.perf_counter()
        predictor = default_training["predictor"]
        test = default_training["test"]
        assert len(test) == 16 * 50

        accuracy, confusion = evaluate_model(predictor, test)
        assert accuracy >= 0.95, f"test accuracy {accuracy:.4f} below 0.95"

        blob_a, blob_b = default_training["blobs"]
        assert blob_a == blob_b, "same-seed training runs must serialize identically"

        loaded = ForestPredictor.load(io.BytesIO(blob_a))
        for text, _ in test:
            assert loaded.predict(text) == predictor.predict(text)

        # disjoint-support toy: forest and naive-Bayes oracle agree 100%
        toy = [("aaa", LanguageCode.EN), ("aaaa", LanguageCode.EN),
               ("aaaaa", LanguageCode.EN), ("bbb", LanguageCode.ES),
               ("bbbb", LanguageCode.ES), ("bbbbb", LanguageCode.ES)]
        toy_predictor = train_identifier(toy, ForestParams(num_trees=15, seed=5),
                                         n_min=1, n_max=2, min_doc_freq=1)
        toy_samples = [(vectorize(toy_predictor.vectorizer, t), lang) for t, lang in toy]
        nb = fit_nb(toy_samples, n_features=toy_predictor.vectorizer.size)
        agreement = sum(
            predict_language(toy_predictor.model, [x])[0][0] == predict_nb(nb, x)
            for x, _ in toy_samples
        )
        assert agreement == len(toy_samples)

        total = default_training["elapsed"] + (time.perf_counter() - start)
        assert total < 120.0, f"criterion 5 took {total:.1f}s"


def test_criterion_6_forest_micro_oracle():
    with criterion("6 best_splits vs exhaustive micro-oracle (20736 instances)"):
        start = time.perf_counter()
        instances = [[({0: a, 1: b}, c) for a, b, c in zip(f0, f1, y)]
                     for f0 in itertools.product((0, 1, 2), repeat=4)
                     for f1 in itertools.product((0, 2), repeat=4)
                     for y in itertools.product((0, 1), repeat=4)]
        checked = 0
        for samples, found in zip(instances, best_splits(instances, [0, 1]), strict=True):
            assert found == exhaustive_best_split(samples, [0, 1]), f"mismatch on {samples}"
            checked += 1
        assert checked == 3**4 * 2**4 * 2**4
        assert time.perf_counter() - start < 10.0


def test_criterion_7_round_trips(default_training):
    with criterion("7 round-trips (500 CSVs, model file, lexicon last-wins)"):
        start = time.perf_counter()
        rng = random.Random(ACCEPTANCE_SEED)
        for _ in range(500):
            language, rows = random_dataset(rng)
            sink = io.StringIO()
            write_dataset_csv(rows, sink)
            first = sink.getvalue().encode("utf-8")
            recovered = list(read_dataset_csv(io.BytesIO(first), language))
            assert recovered == rows
            sink2 = io.StringIO()
            write_dataset_csv(recovered, sink2)
            assert sink2.getvalue().encode("utf-8") == first

        predictor = default_training["predictor"]
        blob = default_training["blobs"][0]
        loaded = ForestPredictor.load(io.BytesIO(blob))
        resaved = io.BytesIO()
        loaded.save(resaved)
        assert resaved.getvalue() == blob
        vocab_size = predictor.vectorizer.size
        for _ in range(1000):
            x = {f: rng.randint(1, 9)
                 for f in rng.sample(range(vocab_size), rng.randint(0, 12))}
            assert (predict_language(loaded.model, [x])[0]
                    == predict_language(predictor.model, [x])[0])

        with pytest.warns(DuplicateTokenWarning):
            lexicon = load_lexicon(io.StringIO("good\t1.0\ngood\t2.0\n"), LanguageCode.EN)
        assert lexicon.weights == {"good": 2.0}

        assert time.perf_counter() - start < 30.0


def test_criterion_8_sentiment_properties():
    with criterion("8 sentiment properties (>=1000 generated pairs each)"):
        start = time.perf_counter()
        rng = random.Random(ACCEPTANCE_SEED)
        vocabulary = [f"w{i}" for i in range(14)]
        # weights and scales chosen exactly representable in binary floating
        # point, so scale invariance holds exactly at the tie boundary too
        weight_choices = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
        scale_choices = [0.25, 0.5, 2.0, 4.0, 1024.0]

        for _ in range(1100):
            weights = {w: rng.choice(weight_choices)
                       for w in rng.sample(vocabulary, rng.randint(1, 9))}
            lexicon = Lexicon(LanguageCode.EN, weights)
            tokens = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]

            label = label_sentiment(tokens, lexicon)
            assert label in (SentimentLabel.POSITIVE, SentimentLabel.NEGATIVE)

            scale = rng.choice(scale_choices)
            scaled = Lexicon(LanguageCode.EN, {t: w * scale for t, w in weights.items()})
            assert label_sentiment(tokens, scaled) == label

            shuffled = tokens[:]
            rng.shuffle(shuffled)
            assert score_tokens(shuffled, lexicon) == score_tokens(tokens, lexicon)
            assert label_sentiment(shuffled, lexicon) == label

            positives = [t for t, w in weights.items() if w > 0]
            negatives = [t for t, w in weights.items() if w < 0]
            if label is SentimentLabel.POSITIVE and positives:
                assert label_sentiment(tokens + [rng.choice(positives)],
                                       lexicon) is SentimentLabel.POSITIVE
            if label is SentimentLabel.NEGATIVE and negatives:
                assert label_sentiment(tokens + [rng.choice(negatives)],
                                       lexicon) is SentimentLabel.NEGATIVE

        assert time.perf_counter() - start < 30.0


def test_criterion_9_cli_pipeline(tmp_path):
    # model training is pipeline setup; the timed chain is clean -> identify
    # -> label -> analyze
    model_path = tmp_path / "model.tlam"
    exit_code, _, err = invoke(
        "train-langid", "--synthetic", "120", "--seed", str(ACCEPTANCE_SEED),
        "--trees", "20", "--output", str(model_path),
    )
    assert exit_code == 0, err

    # 50 mixed-language tweets from generator output the model never saw
    per_lang_counts = {lang: 3 for lang in LanguageCode}
    per_lang_counts[LanguageCode.EN] = 4
    per_lang_counts[LanguageCode.ZH] = 4
    corpus = synthetic_corpus(124, seed=ACCEPTANCE_SEED)
    by_lang = {}
    for text, lang in corpus:
        by_lang.setdefault(lang, []).append(text)
    lines = []
    tweet_id = 0
    for lang, count in per_lang_counts.items():
        for text in by_lang[lang][120 : 120 + count]:
            lines.append(
                '{"id":"t%03d","text":%s,"lang":"%s","likeCount":%d,"replyCount":1}'
                % (tweet_id, _json_string(text), lang.value, 9000 + tweet_id)
            )
            tweet_id += 1
    assert tweet_id == 50
    fixture = tmp_path / "tweets.jsonl"
    fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")

    with criterion("9 CLI pipeline (clean -> identify -> label -> analyze)"):
        start = time.perf_counter()
        cleaned = tmp_path / "cleaned.csv"
        exit_code, _, err = invoke("clean", "--input", str(fixture),
                                   "--output", str(cleaned))
        assert exit_code == 0, err

        identified = tmp_path / "identified.csv"
        exit_code, _, err = invoke("identify", "--model", str(model_path),
                                   "--input", str(cleaned), "--output", str(identified))
        assert exit_code == 0, err

        labeled_dir = tmp_path / "labeled"
        exit_code, _, err = invoke("label", "--input", str(identified),
                                   "--out-dir", str(labeled_dir))
        assert exit_code == 0, err

        files = sorted(str(p) for p in labeled_dir.iterdir())
        exit_code, out, err = invoke("analyze", "--format", "csv", "--input", *files)
        assert exit_code == 0, err

        totals = {}
        for line in out.splitlines()[1:]:
            name, total, _, _ = line.split(",")
            totals[name] = int(total)
        expected = {lang.display_name: count for lang, count in per_lang_counts.items()}
        assert totals == expected
        assert sum(totals.values()) == 50
        assert time.perf_counter() - start < 10.0


def _json_string(text: str) -> str:
    import json

    return json.dumps(text, ensure_ascii=False)
