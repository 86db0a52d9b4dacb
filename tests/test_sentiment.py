import io
import random

import pytest
from hypothesis import given, strategies as st

from tla.corpus import LanguageCode, SentimentLabel
from tla.errors import LineError
from tla.sentiment import (
    DuplicateTokenWarning,
    Lexicon,
    label_sentiment,
    load_bundled_lexicon,
    load_lexicon,
    score_tokens,
)

EN = LanguageCode.EN


def _load(text: str) -> Lexicon:
    return load_lexicon(io.StringIO(text), EN)


class TestLoadLexicon:
    def test_basic_entry(self):
        assert _load("good\t1.0\n").weights == {"good": 1.0}

    def test_nan_weight_rejected(self):
        with pytest.raises(LineError) as exc:
            _load("good\tNaN\n")
        assert str(exc.value) == "line 1: bad weight 'NaN' (must be finite and nonzero)"

    def test_infinite_and_zero_weights_rejected(self):
        with pytest.raises(LineError) as exc:
            _load("good\tinf\n")
        assert str(exc.value) == "line 1: bad weight 'inf' (must be finite and nonzero)"
        with pytest.raises(LineError) as exc:
            _load("good\t0\n")
        assert str(exc.value) == "line 1: bad weight '0' (must be finite and nonzero)"

    def test_unparseable_weight(self):
        with pytest.raises(LineError) as exc:
            _load("good\theavy\n")
        assert exc.value.line == 1
        assert str(exc.value) == "line 1: bad weight 'heavy' (must be finite and nonzero)"

    def test_duplicate_last_wins_with_warning(self):
        with pytest.warns(DuplicateTokenWarning):
            lexicon = _load("good\t1.0\ngood\t2.0\n")
        assert lexicon.weights == {"good": 2.0}

    def test_comments_and_blanks_ignored(self):
        lexicon = _load("# header\n\ngood\t1.0\n   \nbad\t-1.0\n")
        assert lexicon.weights == {"good": 1.0, "bad": -1.0}

    def test_missing_tab(self):
        with pytest.raises(LineError) as exc:
            _load("good 1.0\n")
        assert exc.value.line == 1
        assert str(exc.value) == "line 1: expected token<TAB>weight"

    def test_bad_tokens(self):
        with pytest.raises(LineError) as exc:
            _load("GOOD\t1.0\n")
        assert str(exc.value) == "line 1: bad token 'GOOD': token is not lowercase: 'GOOD'"
        with pytest.raises(LineError) as exc:
            _load("\t1.0\n")
        assert str(exc.value) == "line 1: bad token '': empty token: ''"

    def test_accepts_bytes(self):
        lexicon = load_lexicon(io.BytesIO("хорошо\t1.5\n".encode("utf-8")), LanguageCode.RU)
        assert lexicon.weights == {"хорошо": 1.5}

    def test_invalid_utf8_is_a_lexicon_error(self):
        with pytest.raises(LineError) as exc:
            load_lexicon(io.BytesIO(b"good\t1\nb\xffd\t-1\n"), EN)
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: invalid UTF-8: invalid start byte"

    def test_lexicon_type_validation(self):
        with pytest.raises(ValueError):
            Lexicon(language=EN, weights={"good": float("nan")})
        with pytest.raises(ValueError):
            Lexicon(language=EN, weights={"two words": 1.0})

    @pytest.mark.parametrize("lang", list(LanguageCode))
    def test_bundled_lexicons_load(self, lang):
        lexicon = load_bundled_lexicon(lang)
        assert lexicon.language is lang
        assert lexicon.weights, f"bundled lexicon for {lang} is empty"
        assert any(w > 0 for w in lexicon.weights.values())
        assert any(w < 0 for w in lexicon.weights.values())


class TestScoreTokens:
    def test_offsetting_weights(self):
        lexicon = Lexicon(EN, {"good": 1.0, "bad": -1.0})
        assert score_tokens(["good", "bad"], lexicon) == 0.0

    def test_empty_sum(self):
        assert score_tokens([], Lexicon(EN, {"good": 1.0})) == 0.0

    def test_occurrences_counted(self):
        assert score_tokens(["good", "good"], Lexicon(EN, {"good": 1.0})) == 2.0

    def test_absent_tokens_add_zero(self):
        assert score_tokens(["mystery"], Lexicon(EN, {"good": 1.0})) == 0.0

    @given(st.lists(st.sampled_from(["good", "bad", "meh", "odd", "mystery"]), max_size=40),
           st.dictionaries(st.sampled_from(["good", "bad", "meh", "odd"]),
                           st.floats(-1e300, 1e300).filter(bool)
                           | st.integers(-2**70, 2**70).filter(bool)))
    def test_equals_a_per_token_sum(self, tokens, weights):
        # The same additions in the same order give the same float.  The
        # reference sums with ``sum`` too: from Python 3.12 it compensates
        # float rounding, which a ``+=`` loop does not.
        lexicon = Lexicon(EN, weights)
        expected = float(sum(lexicon.weights.get(token, 0.0) for token in tokens))
        assert score_tokens(tokens, lexicon) == expected


class TestLabelSentiment:
    def test_positive(self):
        assert label_sentiment(["good"], Lexicon(EN, {"good": 1.0})) is SentimentLabel.POSITIVE

    def test_negative(self):
        assert label_sentiment(["bad"], Lexicon(EN, {"bad": -1.0})) is SentimentLabel.NEGATIVE

    def test_tie_defaults_positive(self):
        assert label_sentiment([], Lexicon(EN, {})) is SentimentLabel.POSITIVE

    def test_tie_configurable(self):
        label = label_sentiment([], Lexicon(EN, {}), tie=SentimentLabel.NEGATIVE)
        assert label is SentimentLabel.NEGATIVE


def _random_case(rng: random.Random):
    vocabulary = [f"w{i}" for i in range(12)]
    weights = {
        w: rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        for w in rng.sample(vocabulary, rng.randint(1, 8))
    }
    tokens = [rng.choice(vocabulary) for _ in range(rng.randint(0, 10))]
    return tokens, Lexicon(EN, weights)


class TestProperties:
    def test_two_class_totality(self, rng):
        for _ in range(300):
            tokens, lexicon = _random_case(rng)
            assert label_sentiment(tokens, lexicon) in (
                SentimentLabel.POSITIVE,
                SentimentLabel.NEGATIVE,
            )

    def test_positive_scale_invariance(self, rng):
        for _ in range(300):
            tokens, lexicon = _random_case(rng)
            scale = rng.choice([0.25, 0.5, 2.0, 7.5, 1000.0])
            scaled = Lexicon(EN, {t: w * scale for t, w in lexicon.weights.items()})
            assert label_sentiment(tokens, lexicon) == label_sentiment(tokens, scaled)

    def test_permutation_invariance(self, rng):
        for _ in range(300):
            tokens, lexicon = _random_case(rng)
            shuffled = tokens[:]
            rng.shuffle(shuffled)
            assert score_tokens(tokens, lexicon) == score_tokens(shuffled, lexicon)
            assert label_sentiment(tokens, lexicon) == label_sentiment(shuffled, lexicon)

    def test_monotonicity(self, rng):
        for _ in range(300):
            tokens, lexicon = _random_case(rng)
            label = label_sentiment(tokens, lexicon)
            positives = [t for t, w in lexicon.weights.items() if w > 0]
            negatives = [t for t, w in lexicon.weights.items() if w < 0]
            if label is SentimentLabel.POSITIVE and positives:
                extended = tokens + [rng.choice(positives)]
                assert label_sentiment(extended, lexicon) is SentimentLabel.POSITIVE
            if label is SentimentLabel.NEGATIVE and negatives:
                extended = tokens + [rng.choice(negatives)]
                assert label_sentiment(extended, lexicon) is SentimentLabel.NEGATIVE

    # scales that keep weight products exact in binary floating point, so the
    # tie case (score exactly zero) is preserved under scaling
    @given(st.lists(st.sampled_from(["good", "bad", "meh", "fine"]), max_size=8),
           st.sampled_from([2.0**k for k in range(-6, 11)] + [3.0, 5.0, 10.0, 100.0]))
    def test_scale_invariance_hypothesis(self, tokens, scale):
        lexicon = Lexicon(EN, {"good": 1.0, "bad": -1.0, "fine": 0.25})
        scaled = Lexicon(EN, {t: w * scale for t, w in lexicon.weights.items()})
        assert label_sentiment(tokens, lexicon) == label_sentiment(tokens, scaled)
