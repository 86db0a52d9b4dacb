import io
import random
import re

import pytest

from tla.corpus import LanguageCode, RawTweet, TweetLengthWarning
from tla.errors import LineError
from tla.ingest import (
    QuerySpec,
    compile_query,
    read_jsonl,
)

QUERY_GRAMMAR = re.compile(r"(min_faves:[0-9]+ )?(filter:has_engagement )?lang:[a-z]{2}")


class TestCompileQuery:
    def test_paper_defaults(self):
        spec = QuerySpec(language=LanguageCode.EN, min_faves=9000, has_engagement=True)
        assert compile_query(spec) == "min_faves:9000 filter:has_engagement lang:en"

    def test_all_optional_operators_disabled(self):
        spec = QuerySpec(language=LanguageCode.HI, min_faves=0, has_engagement=False)
        assert compile_query(spec) == "lang:hi"

    def test_canonical_order(self):
        spec = QuerySpec(language=LanguageCode.ZH, min_faves=100, has_engagement=True)
        assert compile_query(spec) == "min_faves:100 filter:has_engagement lang:zh"

    def test_defaults_match_spec(self):
        spec = QuerySpec(language=LanguageCode.EN)
        assert (spec.min_faves, spec.has_engagement) == (9000, True)

    def test_deterministic(self):
        a = QuerySpec(language=LanguageCode.SV, min_faves=7)
        b = QuerySpec(language=LanguageCode.SV, min_faves=7)
        assert compile_query(a) == compile_query(b)

    def test_grammar_over_randomized_specs(self):
        rng = random.Random(1234)
        langs = list(LanguageCode)
        for _ in range(1000):
            spec = QuerySpec(
                language=rng.choice(langs),
                min_faves=rng.choice([0, 1, 9, 9000, rng.randrange(10**6)]),
                has_engagement=rng.random() < 0.5,
            )
            assert QUERY_GRAMMAR.fullmatch(compile_query(spec))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuerySpec(language=LanguageCode.EN, min_faves=-1)
        with pytest.raises(ValueError):
            QuerySpec(language="en")

    def test_spec_is_a_frozen_record(self):
        spec = QuerySpec(LanguageCode.EN)
        assert spec == QuerySpec(language=LanguageCode.EN, min_faves=9000, has_engagement=True)
        assert spec != QuerySpec(LanguageCode.EN, 9000, False)
        assert spec == (LanguageCode.EN, 9000, True)  # a NamedTuple equals its fields' tuple
        assert repr(spec) == ("QuerySpec(language=<LanguageCode.EN: 'en'>, min_faves=9000, "
                              "has_engagement=True)")
        for name in ("min_faves", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, name, 1)
        assert spec._replace(min_faves=7).min_faves == 7
        with pytest.raises(ValueError, match="min_faves must be >= 0"):
            spec._replace(min_faves=-1)


def _tweets(source, **kwargs):
    return [tweet for _, tweet in read_jsonl(source, **kwargs)]


def _read(data: str, **kwargs):
    return _tweets(io.StringIO(data), **kwargs)


class TestReadJsonl:
    def test_field_mapping(self):
        [tweet] = _read('{"id":"7","text":"hi there","likeCount":9500}\n')
        assert tweet == RawTweet(id="7", text="hi there", lang_hint=None,
                                 like_count=9500, reply_count=None)

    def test_tweet_is_a_frozen_record(self):
        tweet = RawTweet("7", "hi")
        assert tweet == RawTweet(id="7", text="hi", lang_hint=None, like_count=0,
                                 reply_count=None)
        assert tweet != RawTweet("7", "hi", LanguageCode.EN)
        assert repr(tweet) == ("RawTweet(id='7', text='hi', lang_hint=None, like_count=0, "
                               "reply_count=None)")
        for name in ("text", "other"):
            with pytest.raises(AttributeError):
                setattr(tweet, name, "x")

    def test_missing_text(self):
        with pytest.raises(LineError) as exc:
            _read('{"id":"7"}\n')
        assert str(exc.value) == "line 1: missing required field(s): text"
        assert exc.value.line == 1

    def test_empty_input(self):
        assert _read("") == []

    def test_blank_lines_skipped(self):
        tweets = _read('\n{"id":"1","text":"a"}\n   \n{"id":"2","text":"b"}\n')
        assert [t.id for t in tweets] == ["1", "2"]

    def test_unknown_fields_ignored(self):
        [tweet] = _read('{"id":"1","text":"a","retweetCount":12,"user":{"x":1}}\n')
        assert tweet.id == "1"

    def test_lang_maps_to_hint(self):
        [tweet] = _read('{"id":"1","text":"bonjour","lang":"fr"}\n')
        assert tweet.lang_hint is LanguageCode.FR

    def test_bad_lang_reports_line(self):
        with pytest.raises(LineError) as exc:
            _read('{"id":"1","text":"a"}\n{"id":"2","text":"b","lang":"xx"}\n')
        assert exc.value.line == 2

    def test_bad_lang_listed_with_the_other_violations(self):
        with pytest.raises(LineError) as exc:
            _read('{"id":"","text":"","lang":"xx"}\n')
        assert str(exc.value) == "line 1: EmptyId; EmptyText; BadLanguage('xx')"

    def test_null_lang_is_a_bad_language(self):
        with pytest.raises(LineError) as exc:
            _read('{"id":"1","text":" ","lang":null}\n')
        assert str(exc.value) == "line 1: EmptyText; BadLanguage(None)"

    def test_unhashable_lang_is_a_bad_language(self):
        with pytest.raises(LineError) as exc:
            _read('{"id":"1","text":"a","lang":["en"]}\n')
        assert str(exc.value) == "line 1: BadLanguage(['en'])"

    def test_numeric_id_coerced(self):
        [tweet] = _read('{"id":123,"text":"a"}\n')
        assert tweet.id == "123"

    def test_malformed_json_line_number(self):
        with pytest.raises(LineError) as exc:
            _read('{"id":"1","text":"a"}\n{oops\n')
        assert exc.value.line == 2

    def test_reply_count_mapped(self):
        [tweet] = _read('{"id":"1","text":"a","replyCount":3}\n')
        assert tweet.reply_count == 3

    def test_validation_errors_carry_line(self):
        long_text = "x" * 281
        with pytest.raises(LineError) as exc:
            _read('{"id":"1","text":"%s"}\n' % long_text)
        assert exc.value.line == 1
        assert str(exc.value) == "line 1: TextTooLong(281)"

    def test_skip_bad_lines(self):
        data = ('{"id":"1","text":"a"}\n'
                '{nope\n'
                '{"id":"2"}\n'
                '{"id":"3","text":"","lang":"en"}\n'
                '{"id":"4","text":"d"}\n')
        tweets = _read(data, skip_bad_lines=True)
        assert [t.id for t in tweets] == ["1", "4"]

    def test_lenient_length(self):
        line = '{"id":"1","text":"%s"}\n' % ("x" * 281)
        with pytest.warns(TweetLengthWarning):
            [tweet] = _read(line, lenient=True)
        assert len(tweet.text) == 281

    def test_lenient_warning_names_path_and_line(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_text('{"id":"1","text":"a"}\n{"id":"2","text":"%s"}\n' % ("x" * 281))
        with open(path, "rb") as source, pytest.warns(TweetLengthWarning) as record:
            assert len(_tweets(source, lenient=True)) == 2
        assert [str(w.message) for w in record] == [f"{path}: line 2: TextTooLong(281)"]

    def test_repeated_id_is_a_bad_line(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(b'{"id":"1","text":"a"}\n{"id":"2","text":"b"}\n{"id":1,"text":"c"}\n')
        with open(path, "rb") as source, pytest.raises(LineError) as exc:
            list(read_jsonl(source))
        assert str(exc.value) == f"{path}: line 3: duplicate id '1'"
        with open(path, "rb") as source:
            tweets = _tweets(source, skip_bad_lines=True)
        assert [(t.id, t.text) for t in tweets] == [("1", "a"), ("2", "b")]

    def test_skipped_line_does_not_claim_its_id(self):
        data = '{"id":"1","text":""}\n{"id":"1","text":"b"}\n'
        assert [t.text for t in _read(data, skip_bad_lines=True)] == ["b"]

    def test_skipped_repeat_gives_no_length_warning(self, recwarn):
        data = '{"id":"1","text":"a"}\n{"id":"1","text":"%s"}\n' % ("x" * 281)
        assert [t.text for t in _read(data, skip_bad_lines=True, lenient=True)] == ["a"]
        assert not recwarn.list

    def test_accepts_bytes_source(self):
        [tweet] = _tweets(io.BytesIO(b'{"id":"1","text":"caf\xc3\xa9"}\n'))
        assert tweet.text == "café"

    def test_invalid_utf8_is_a_bad_line(self):
        data = b'{"id":"1","text":"a"}\n{"id":"2","text":"\xff"}\n{"id":"3","text":"c"}\n'
        with pytest.raises(LineError) as exc:
            list(read_jsonl(io.BytesIO(data)))
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: malformed JSON: invalid UTF-8: invalid start byte"
        tweets = _tweets(io.BytesIO(data), skip_bad_lines=True)
        assert [t.id for t in tweets] == ["1", "3"]

    @pytest.mark.parametrize("skip_bad_lines", [False, True])
    def test_bom_before_first_record_dropped(self, skip_bad_lines):
        data = b'\xef\xbb\xbf{"id":"1","text":"a"}\n{"id":"2","text":"b"}\n'
        tweets = _tweets(io.BytesIO(data), skip_bad_lines=skip_bad_lines)
        assert [t.id for t in tweets] == ["1", "2"]
        [tweet] = _read('\ufeff{"id":"1","text":"a"}\n', skip_bad_lines=skip_bad_lines)
        assert tweet.id == "1"

    def test_error_names_the_source_path(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(b'{"id":"1","text":"a"}\n{oops\n')
        with open(path, "rb") as source, pytest.raises(LineError) as exc:
            list(read_jsonl(source))
        assert str(exc.value).startswith(f"{path}: line 2: malformed JSON")

    def test_laziness(self):
        def lines():
            yield '{"id":"1","text":"a"}\n'
            raise AssertionError("second line should not be consumed")

        iterator = read_jsonl(lines())
        assert next(iterator)[1].id == "1"

    def test_yields_each_tweet_with_its_line(self):
        data = '{"id":"1","text":"a"}\n\n{"id":"2"}\n{"id":"3","text":"c"}\n'
        pairs = read_jsonl(io.StringIO(data), skip_bad_lines=True)
        assert [(line, tweet.id) for line, tweet in pairs] == [(1, "1"), (4, "3")]

