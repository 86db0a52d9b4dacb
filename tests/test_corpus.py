import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from tla.corpus import (
    CLEAN_HEADER,
    CSV_HEADER,
    CleanRow,
    LanguageCode,
    RawTweet,
    SentimentLabel,
    read_dataset_csv,
    read_table,
    validate_token,
    validate_token_field,
    validate_tweet,
    write_dataset_csv,
    write_table,
)

from tla.errors import LineError

from conftest import random_dataset

ALL_CODES = ["en", "es", "fa", "fr", "hi", "id", "ja", "nl", "pt", "ro", "ru", "sv", "th", "tr", "ur", "zh"]
#: Values neither parser accepts: an unknown string, and non-strings,
#: unhashable ones included.
NOT_PARSED = ["xx", None, 5, ["en"], {}]


class TestLanguageCode:
    def test_exactly_sixteen(self):
        assert [lang.value for lang in LanguageCode] == ALL_CODES

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_parse_round_trips(self, code):
        assert LanguageCode.parse(code).value == code
        assert str(LanguageCode.parse(code)) == code

    @pytest.mark.parametrize("bad", ["", "EN", "english", "de", "zz", "e", "eng", *NOT_PARSED])
    def test_closed_set(self, bad):
        with pytest.raises(ValueError) as exc:
            LanguageCode.parse(bad)
        assert str(exc.value) == f"unknown language code: {bad!r}"

    def test_a_member_parses_to_itself(self):
        for lang in LanguageCode:
            assert LanguageCode.parse(lang) is lang

    def test_unsegmented_scripts(self):
        unsegmented = {lang for lang in LanguageCode if lang.unsegmented}
        assert unsegmented == {LanguageCode.ZH, LanguageCode.JA, LanguageCode.TH}


class TestSentimentLabel:
    def test_serialized_strings(self):
        assert SentimentLabel.POSITIVE.value == "Positive"
        assert SentimentLabel.NEGATIVE.value == "Negative"
        assert len(SentimentLabel) == 2

    @pytest.mark.parametrize("bad", ["positive", "NEGATIVE", "Neutral", "", *NOT_PARSED])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError) as exc:
            SentimentLabel.parse(bad)
        assert str(exc.value) == f"unknown sentiment label: {bad!r}"

    def test_a_member_parses_to_itself(self):
        # a member hashes by its name, not by its value
        for label in SentimentLabel:
            assert SentimentLabel.parse(label) is label


class TestValidateTweet:
    def test_280_boundary_inclusive(self):
        tweet = validate_tweet({"id": "1", "text": "x" * 280, "likeCount": 0})
        assert len(tweet.text) == 280

    def test_281_too_long(self):
        with pytest.raises(ValueError) as exc:
            validate_tweet({"id": "1", "text": "x" * 281})
        assert str(exc.value) == "TextTooLong(281)"

    def test_whitespace_only_is_empty(self):
        with pytest.raises(ValueError) as exc:
            validate_tweet({"id": "1", "text": "   "})
        assert str(exc.value) == "EmptyText"

    def test_every_violation_named(self):
        with pytest.raises(ValueError) as exc:
            validate_tweet({"id": "", "text": "y" * 300, "lang": "xx",
                            "likeCount": -3, "replyCount": -1})
        assert str(exc.value) == (
            "EmptyId; TextTooLong(300); BadLanguage('xx'); "
            "NegativeCount(like_count=-3); NegativeCount(reply_count=-1)"
        )

    def test_lone_surrogates_named(self):
        with pytest.raises(ValueError) as exc:
            validate_tweet({"id": "1\udfff", "text": "a\ud800" + "y" * 300})
        assert str(exc.value) == "LoneSurrogate(id); LoneSurrogate(text); TextTooLong(302)"
        # a JSON surrogate pair escape decodes to one astral character
        text = json.loads('"\\ud83d\\ude00"')
        assert validate_tweet({"id": "1", "text": text}).text == "\U0001f600"

    def test_lenient_lifts_the_length_limit(self, recwarn):
        # the reader warns about the kept tweet, naming its path and line
        tweet = validate_tweet({"id": "1", "text": "x" * 281}, lenient=True)
        assert len(tweet.text) == 281
        assert not recwarn.list

    def test_lenient_still_rejects_other_violations(self):
        with pytest.raises(ValueError) as exc:
            validate_tweet({"id": "", "text": "hi"}, lenient=True)
        assert str(exc.value) == "EmptyId"

    def test_reads_the_json_names(self):
        record = {"id": 9, "text": "hello", "lang": "fr", "likeCount": 5, "replyCount": 2}
        assert validate_tweet(record) == RawTweet(
            id="9", text="hello", lang_hint=LanguageCode.FR, like_count=5, reply_count=2
        )

    def test_bool_count_is_bad_type(self):
        with pytest.raises(ValueError) as exc:
            validate_tweet({"id": "1", "text": "hi", "likeCount": True})
        assert str(exc.value) == "BadType(like_count)"

    @pytest.mark.parametrize("record, missing", [
        ({"text": "hi"}, "id"), ({"id": "1"}, "text"), ({"lang": "en"}, "id, text"),
    ])
    def test_missing_required_field_named(self, record, missing):
        with pytest.raises(ValueError) as exc:
            validate_tweet(record)
        assert str(exc.value) == f"missing required field(s): {missing}"

    @pytest.mark.parametrize("record, message", [
        ({"id": 1.5, "text": "hello"}, "BadType(id)"),
        ({"id": True, "text": "hello"}, "BadType(id)"),
        ({"id": "2", "text": 5}, "BadType(text)"),
        ({"id": "2", "text": ["hi"]}, "BadType(text)"),
        ({"id": None, "text": None}, "BadType(id); BadType(text)"),
        ({"id": None, "text": " ", "lang": "xx", "likeCount": "9"},
         "BadType(id); EmptyText; BadLanguage('xx'); BadType(like_count)"),
    ])
    def test_wrongly_typed_id_or_text_is_bad_type(self, record, message):
        with pytest.raises(ValueError) as exc:
            validate_tweet(record)
        assert str(exc.value) == message

    def test_unknown_key_ignored(self):
        tweet = validate_tweet({"id": "1", "text": "hi", "retweets": 4, "like_count": -1})
        assert (tweet.id, tweet.text, tweet.like_count) == ("1", "hi", 0)

    @pytest.mark.parametrize("lang", [None, "EN", 5, ["en"]])
    def test_bad_language_named_with_its_value(self, lang):
        with pytest.raises(ValueError) as exc:
            validate_tweet({"id": "1", "text": "hi", "lang": lang})
        assert str(exc.value) == f"BadLanguage({lang!r})"


def _row(tweet_id="1", text="hello there", tokens=("hello", "there"),
         label=SentimentLabel.POSITIVE, lang=LanguageCode.EN):
    return CleanRow(tweet_id, lang, text, tokens, label)


def _write(rows) -> bytes:
    sink = io.StringIO()
    write_dataset_csv(rows, sink)
    return sink.getvalue().encode("utf-8")


def _read(data: bytes, language=None) -> list:
    return list(read_dataset_csv(io.BytesIO(data), language))


class TestWriteDatasetCsv:
    def test_empty_dataset_header_only(self):
        sink = io.StringIO()
        count = write_dataset_csv([], sink)
        assert count == 0
        assert sink.getvalue().encode("utf-8") == b"id,lang,text,tokens,label\n"

    def test_rfc4180_quoting(self):
        data = _write([_row(text='a,"b"', tokens=("a", "b"))])
        assert b'"a,""b"""' in data

    def test_three_rows_four_lines(self):
        sink = io.StringIO()
        assert write_dataset_csv([_row(tweet_id=str(i)) for i in range(3)], sink) == 3
        assert sink.getvalue().encode("utf-8").count(b"\n") == 4

    def test_lf_line_endings_and_literal_labels(self):
        data = _write([_row(tweet_id="1"), _row(tweet_id="2", label=SentimentLabel.NEGATIVE)])
        assert b"\r" not in data
        assert b",Positive\n" in data and b",Negative\n" in data

    def test_row_is_a_mutable_record(self):
        row = CleanRow("1", LanguageCode.EN, "hi", ("hi",))
        assert row == CleanRow(id="1", lang=LanguageCode.EN, text="hi", tokens=("hi",),
                               label=None)
        assert row != CleanRow("1", LanguageCode.EN, "hi", ("hi",), SentimentLabel.POSITIVE)
        assert row != ("1", LanguageCode.EN, "hi", ("hi",), None)
        assert repr(row) == ("CleanRow(id='1', lang=<LanguageCode.EN: 'en'>, text='hi', "
                             "tokens=('hi',), label=None)")
        row.lang, row.label = LanguageCode.FR, SentimentLabel.NEGATIVE
        assert row.fields() == ("1", "fr", "hi", "hi", "Negative")
        with pytest.raises(AttributeError):
            row.other = 1
        with pytest.raises(TypeError):
            hash(row)

    def test_unlabeled_row_rejected(self):
        row = CleanRow("1", LanguageCode.EN, "hi", ("hi",))
        with pytest.raises(ValueError, match="row 1: no label"):
            _write([_row(tweet_id="0"), row])
        row.label = SentimentLabel.POSITIVE
        assert _write([row]).endswith(b"1,en,hi,hi,Positive\n")

    def test_sink_kept_open(self):
        sink = io.StringIO()
        write_dataset_csv([], sink)
        assert not sink.closed


class TestReadDatasetCsv:
    def test_round_trip_example(self, rng):
        language, rows = random_dataset(rng, LanguageCode.FR)
        assert _read(_write(rows), language) == rows

    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed):
        import random as _random

        language, rows = random_dataset(_random.Random(seed))
        assert _read(_write(rows), language) == rows

    @given(st.integers(0, 2**32 - 1))
    def test_write_read_write_byte_identical(self, seed):
        import random as _random

        language, rows = random_dataset(_random.Random(seed))
        first = _write(rows)
        assert _write(_read(first, language)) == first

    def test_rows_are_yielded_before_a_later_error(self):
        data = (b"id,lang,text,tokens,label\n"
                b"1,en,hi,hi,Positive\n"
                b"2,en,hi\n")
        rows = read_dataset_csv(io.BytesIO(data))
        assert next(rows).id == "1"
        with pytest.raises(LineError, match="expected 5 fields, got 3") as exc:
            next(rows)
        assert exc.value.line == 3

    def test_bad_label(self):
        data = b"id,lang,text,tokens,label\n1,en,hi,hi,Neutral\n"
        with pytest.raises(LineError) as exc:
            _read(data)
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: bad label 'Neutral' (expected Positive or Negative)"

    def test_mixed_languages_at_second_row(self):
        data = (b"id,lang,text,tokens,label\n"
                b"1,en,hi,hi,Positive\n"
                b"2,fr,salut,salut,Positive\n")
        with pytest.raises(LineError) as exc:
            _read(data)
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: mixed languages: expected en, got fr"

    def test_bad_language(self):
        data = b"id,lang,text,tokens,label\n1,xx,hi,hi,Positive\n"
        with pytest.raises(LineError) as exc:
            _read(data)
        assert str(exc.value) == "line 2: bad language code 'xx'"

    def test_duplicate_id(self):
        data = (b"id,lang,text,tokens,label\n"
                b"1,en,hi,hi,Positive\n"
                b"1,en,yo,yo,Negative\n")
        with pytest.raises(LineError) as exc:
            _read(data)
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: duplicate id '1'"

    def test_bad_header(self):
        with pytest.raises(LineError) as exc:
            _read(b"id,language,text,tokens,label\n")
        assert str(exc.value) == ("line 1: expected header id,lang,text,tokens,label, "
                                  "got ('id', 'language', 'text', 'tokens', 'label')")

    def test_crlf_accepted(self):
        data = b"id,lang,text,tokens,label\r\n1,en,hi,hi,Positive\r\n"
        [row] = _read(data)
        assert row.text == "hi"

    def test_header_only_needs_language(self):
        data = b"id,lang,text,tokens,label\n"
        with pytest.raises(LineError) as exc:
            _read(data)
        assert str(exc.value) == "line 1: empty dataset file: its language cannot be told"
        assert _read(data, LanguageCode.TH) == []

    def test_expected_language_mismatch(self):
        data = b"id,lang,text,tokens,label\n1,en,hi,hi,Positive\n"
        with pytest.raises(LineError) as exc:
            _read(data, LanguageCode.FR)
        assert str(exc.value) == "line 2: mixed languages: expected fr, got en"

    def test_wrong_arity_reports_line(self):
        data = b"id,lang,text,tokens,label\n1,en,hi,hi\n"
        with pytest.raises(LineError) as exc:
            _read(data)
        assert exc.value.line == 2

    def test_header_fields_are_fixed(self):
        assert CSV_HEADER == ("id", "lang", "text", "tokens", "label")


#: Characters at the edges of the token rules: whitespace that str.split()
#: and str.isspace() agree on, context-dependent and multi-character
#: lowercasing, and plain letters.
TOKEN_CHARS = ["a", "Z", "\t", " ", "\x1c", "\u3000", "\u00a0", "\u03a3", "\u03c2",
               "\u03c3", "\u0130", "\u00df", "\u1e9e", "1", "\u4e2d"]
TOKENS = st.one_of(
    st.sampled_from(["", "\t", "\x1c", "\u3000", "\u03a3", "\u03c2"]),
    st.text(st.sampled_from(TOKEN_CHARS), max_size=4),
    st.text(max_size=3),
)


def _token_rules_hold(tokens) -> bool:
    try:
        for token in tokens:
            validate_token(token)
    except ValueError:
        return False
    return True


class TestValidateTokens:
    """The token rules as ``validate_token_field`` applies them to a table's
    tokens field, the only place a table's tokens are checked."""

    @given(st.lists(TOKENS, max_size=5))
    def test_row_check_agrees_with_per_token_check(self, tokens):
        field = " ".join(tokens)
        split = tuple(field.split(" ")) if field else ()
        if _token_rules_hold(split):
            assert validate_token_field(field) == split
        else:
            with pytest.raises(ValueError):
                validate_token_field(field)

    @pytest.mark.parametrize("token, message", [
        ("", "empty token: ''"),
        ("a\u3000b", "token contains whitespace: 'a\\u3000b'"),
        ("\u03a3", "token is not lowercase: '\u03a3'"),
    ])
    def test_names_the_offending_token(self, token, message):
        data = f"id,lang,text,tokens\n1,en,hi,hi\n2,en,ok,ok {token} fine\n".encode()
        with pytest.raises(LineError) as exc:
            _table(data)
        assert exc.value.line == 3
        assert str(exc.value) == f"line 3: {message}"


def _table(data: bytes, headers=(CLEAN_HEADER,)):
    return list(read_table(io.BytesIO(data), headers))


class TestTableCodec:
    def test_cleaned_rows(self):
        [(line, row)] = _table(b"id,lang,text,tokens\n\n1,zh,\xe4\xb8\xad\xe6\x96\x87,\xe4\xb8\xad \xe6\x96\x87\n")
        assert line == 3
        assert (row.id, row.lang, row.text, row.tokens, row.label) == (
            "1", LanguageCode.ZH, "中文", ("中", "文"), None)

    def test_either_schema_when_allowed(self):
        both = (CLEAN_HEADER, CSV_HEADER)
        [(_, row)] = _table(b"id,lang,text,tokens,label\n1,en,hi,hi,Negative\n", both)
        assert row.label is SentimentLabel.NEGATIVE
        assert len(_table(b"id,lang,text,tokens\n1,en,hi,hi\n", both)) == 1
        with pytest.raises(LineError, match="id,lang,text,tokens or id,lang"):
            _table(b"id,text\n", both)

    def test_length_limit_not_checked(self):
        text = "x" * 360
        data = f"id,lang,text,tokens\n1,en,{text},{text}\n".encode()
        assert _table(data)[0][1].text == text

    @pytest.mark.parametrize("record, line, message", [
        (b"1,en,hi\n", 2, "expected 4 fields, got 3"),
        (b",en,hi,hi\n", 2, "empty id"),
        (b"1,en, ,\n", 2, "empty text"),
        (b"1,en,Hi,Hi\n", 2, "token is not lowercase: 'Hi'"),
        (b"1,en,a  b,a  b\n", 2, "empty token"),
        (b"1,en,hi,hi\n2,en,hi,hi\n1,en,hi,hi\n", 4, "duplicate id '1'"),
        (b"1,en,\xff,x\n", 2, "invalid UTF-8"),
        (b'1,en,"hi\nthere",hi\n2,xx,hi,hi\n', 4, "bad language code 'xx'"),
        (b"1,en,a\rb,ab\n", 2, "new-line character"),
    ])
    def test_row_errors_name_path_and_line(self, tmp_path, record, line, message):
        path = tmp_path / "clean.csv"
        path.write_bytes(b"id,lang,text,tokens\n" + record)
        with open(path, "rb") as source, pytest.raises(LineError) as exc:
            list(read_table(source))
        assert exc.value.line == line
        assert str(exc.value).startswith(f"{path}: line {line}: ")
        assert message in str(exc.value)

    def test_same_id_in_two_languages(self):
        with pytest.raises(LineError, match="line 3: duplicate id '1'"):
            _table(b"id,lang,text,tokens\n1,en,hi,hi\n1,es,hola,hola\n")

    def test_write_table_round_trip(self):
        sink = io.StringIO()
        rows = [("1", "en", 'say "hi", then\nleave', "say hi leave")]
        assert write_table(sink, CLEAN_HEADER, rows) == 1
        data = sink.getvalue()
        assert data == 'id,lang,text,tokens\n1,en,"say ""hi"", then\nleave",say hi leave\n'
        [(_, row)] = _table(data.encode())
        assert (row.text, row.tokens) == (rows[0][2], ("say", "hi", "leave"))

    def test_bare_cr_round_trip(self):
        sink = io.StringIO()
        rows = [("1", "en", "good a\rb day", "good b day"), ("2", "en", "plain", "plain")]
        assert write_table(sink, CLEAN_HEADER, rows) == 2
        data = sink.getvalue()
        assert data == ('id,lang,text,tokens\n"1","en","good a\rb day","good b day"\n'
                        "2,en,plain,plain\n")
        assert [row.fields() for _, row in _table(data.encode())] == rows


#: Every whitespace character; a blank text holds only these.
WHITESPACE = [ch for ch in map(chr, range(0x110000)) if ch.isspace()]
#: Token fields as a row's join writes them and as a hand-edited file may
#: hold them: empty, and with doubled, leading and trailing spaces.
TOKEN_FIELDS = st.one_of(
    st.sampled_from(["", " ", "a  b", " a", "a ", "σς", "σΣ"]),
    st.lists(st.text(st.sampled_from(TOKEN_CHARS), max_size=4), max_size=4).map(" ".join),
)
TEXTS = st.one_of(st.just("hi"), st.text(st.sampled_from(WHITESPACE), max_size=3))


def _parent_rule(text, field):
    """The error a row's text and token field get by the rule the reader had
    when it built each row with ``CleanRow``: a text that strips to nothing,
    then the first token of ``field.split(" ")`` that breaks a token rule."""
    if not text.strip():
        return "empty text"
    for token in field.split(" ") if field else ():
        try:
            validate_token(token)
        except ValueError as exc:
            return str(exc)
    return None


class TestReaderChecksFieldsAsRead:
    def test_space_is_the_only_printable_whitespace(self):
        # validate_token_field skips the whitespace split on a printable field.
        assert [ch for ch in WHITESPACE if ch.isprintable()] == [" "]

    @settings(max_examples=300)
    @given(st.lists(st.tuples(TEXTS, TOKEN_FIELDS), min_size=1, max_size=5))
    def test_accepts_exactly_what_the_parent_rule_accepts(self, rows):
        sink = io.StringIO()
        write_table(sink, CLEAN_HEADER, [(str(i), "en", text, field)
                                         for i, (text, field) in enumerate(rows, start=1)])
        line, expected = 1, []
        for text, field in rows:
            line += 1 + (text + field).count("\n")  # a quoted newline ends a line
            error = _parent_rule(text, field)
            if error is not None:
                with pytest.raises(LineError) as exc:
                    _table(sink.getvalue().encode("utf-8"))
                assert str(exc.value) == f"line {line}: {error}"
                return
            expected.append((line, text, tuple(field.split(" ")) if field else ()))
        read = _table(sink.getvalue().encode("utf-8"))
        assert [(line, row.text, row.tokens) for line, row in read] == expected
