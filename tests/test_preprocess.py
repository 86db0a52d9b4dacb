import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tla.corpus import LanguageCode
from tla.preprocess import (
    StopwordTable,
    _RemovedTable,
    clean_text,
    preprocess_tweet,
    remove_stopwords,
    tokenize,
)

from conftest import (
    NOISE_PIECES,
    SCRIPT_LETTERS,
    is_punctuation,
    is_symbol,
    random_script_text,
    reference_clean_text,
    reference_preprocess_tweet,
    reference_tokenize,
)


class TestCleanText:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("<b>Good</b> vibes! https://t.co/abc 😀", "Good vibes"),
            ("", ""),
            ("नमस्ते!", "नमस्ते"),
            ("check www.example.com/x please", "check please"),
            ("#word and @name stay as stems", "word and name stay as stems"),
            ("price $5 + tip = 6€", "price 5 tip 6"),
            ("a  \t b\n\nc", "a b c"),
            ("<a href='x.html'>link</a>text", "link text"),
            ("ไม่เป็นไร🙏ครับ", "ไม่เป็นไร ครับ"),
            ("Я -- люблю «кофе»", "Я люблю кофе"),
        ],
    )
    def test_examples(self, raw, expected):
        assert clean_text(raw) == expected

    def test_digits_retained(self):
        assert clean_text("room 404 at 9:30") == "room 404 at 9 30"

    def test_never_gains_letters(self, rng):
        for _ in range(300):
            lang = rng.choice(list(LanguageCode))
            text = random_script_text(rng, lang)
            before = [ch for ch in text if unicodedata.category(ch).startswith("L")]
            after = [ch for ch in clean_text(text) if unicodedata.category(ch).startswith("L")]
            assert len(after) <= len(before)

    def test_letters_survive_without_markup(self, rng):
        for _ in range(300):
            lang = rng.choice(list(LanguageCode))
            text = random_script_text(rng, lang, noise=False)
            before = sorted(ch for ch in text if unicodedata.category(ch).startswith("L"))
            after = sorted(ch for ch in clean_text(text) if unicodedata.category(ch).startswith("L"))
            assert after == before

    def test_script_preservation(self, rng):
        for _ in range(300):
            lang = rng.choice(list(LanguageCode))
            letters = SCRIPT_LETTERS[lang.value]
            words = [
                "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 6))
            ]
            text = "  ".join(words)
            assert clean_text(text) == " ".join(text.split())


#: Angle brackets inside and outside tags: tags with attributes or a
#: closing slash, a heart, comparisons, and lone brackets and slashes.
MARKUP_PIECES = [
    "<", ">", "/", "</", "/>", "<3", " < ", " > ", "<=", "<b", "b>", "<b>", "</b>", "<br/>",
    "<br />", "<i>", "</i>", '<a href="x">', "<h1 >", "<a\nb>", "<é>", "< b>", "a", "3",
]

_latin_words = st.lists(st.text(st.sampled_from("abcdefghijklmnopqrstuvwxyzé"), min_size=1,
                                max_size=6), min_size=1, max_size=8)


class TestTagStripping:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("i <3 this > that", "i 3 this that"),
            ("x < y > z", "x y z"),
            ("a<b", "a b"),
            ("<b>good</b> day<br/>", "good day"),
            ('<a href="x">link</a> <br /> <i>ok</i>', "link ok"),
            ("<B>LOUD</B>", "LOUD"),
        ],
    )
    def test_examples(self, raw, expected):
        assert clean_text(raw) == expected

    @settings(max_examples=200)
    @given(_latin_words, st.lists(st.sampled_from([" < ", " > ", " <3 ", ">", " <= ", "< "]),
                                  min_size=7, max_size=7))
    def test_brackets_outside_tags_remove_no_letter(self, words, separators):
        text = words[0] + "".join(sep + word for sep, word in zip(separators, words[1:]))
        assert clean_text(text).replace("3", "").split() == words

    @settings(max_examples=200)
    @given(_latin_words, st.lists(st.sampled_from(["<b>", "</b>", "<br/>", "<i>", "</i>",
                                                   '<a href="x">', "<br />"]),
                                  min_size=7, max_size=7))
    def test_tags_are_removed(self, words, tags):
        text = words[0] + "".join(tag + word for tag, word in zip(tags, words[1:]))
        assert clean_text(text) == " ".join(words)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(MARKUP_PIECES), max_size=16).map("".join))
    def test_equals_the_reference(self, text):
        assert clean_text(text) == reference_clean_text(text)


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("good vibes", LanguageCode.EN) == ["good", "vibes"]

    def test_per_character_for_chinese(self):
        assert tokenize("你好世界", LanguageCode.ZH) == ["你", "好", "世", "界"]

    def test_empty_thai(self):
        assert tokenize("", LanguageCode.TH) == []

    def test_latin_runs_stay_whole_in_unsegmented_mode(self):
        assert tokenize("私はAIが好き", LanguageCode.JA) == ["私", "は", "AI", "が", "好", "き"]

    def test_spaces_break_runs_in_unsegmented_mode(self):
        assert tokenize("nova 技术 abc", LanguageCode.ZH) == ["nova", "技", "术", "abc"]

    def test_digit_runs(self):
        assert tokenize("2024年", LanguageCode.JA) == ["2024", "年"]


class TestStopwords:
    def test_bundled_english_contains_the(self):
        table = StopwordTable.load_bundled()
        assert remove_stopwords(["the", "The"], LanguageCode.EN, table) == []

    def test_case_insensitive_both_sides(self):
        table = StopwordTable({LanguageCode.EN: ["ThE"]})
        assert remove_stopwords(["the"], LanguageCode.EN, table) == []

    def test_remove_stopwords_example(self):
        table = StopwordTable.load_bundled()
        assert remove_stopwords(["The", "good", "vibes"], LanguageCode.EN, table) == [
            "good",
            "vibes",
        ]

    def test_empty_token_list(self):
        table = StopwordTable.load_bundled()
        assert remove_stopwords([], LanguageCode.EN, table) == []

    def test_empty_set_is_identity(self):
        table = StopwordTable({})
        assert remove_stopwords(["你", "好"], LanguageCode.ZH, table) == ["你", "好"]

    def test_bundled_unsegmented_lists_are_empty(self):
        table = StopwordTable.load_bundled()
        for lang in (LanguageCode.ZH, LanguageCode.JA, LanguageCode.TH):
            assert table.stopwords(lang) == frozenset()

    def test_comment_lines_ignored(self, tmp_path, monkeypatch):
        (tmp_path / "stopwords").mkdir()
        (tmp_path / "stopwords" / "en.txt").write_text(
            "# comment\nfoo\n\nbar\n", encoding="utf-8"
        )
        monkeypatch.setenv("TLA_DATA_DIR", str(tmp_path))
        table = StopwordTable.load_bundled()
        assert table.stopwords(LanguageCode.EN) == frozenset({"foo", "bar"})
        assert table.stopwords(LanguageCode.FR) == frozenset()


@pytest.fixture(scope="module")
def table():
    return StopwordTable.load_bundled()


class TestPreprocessTweet:
    def test_full_chain(self, table):
        assert preprocess_tweet("<i>The</i> BEST day https://x.co", LanguageCode.EN, table) == [
            "best",
            "day",
        ]

    def test_empty(self, table):
        assert preprocess_tweet("", LanguageCode.EN, table) == []

    def test_russian_stopword(self, table):
        assert preprocess_tweet("Я люблю кофе", LanguageCode.RU, table) == ["люблю", "кофе"]

    def test_output_token_invariants(self, table, rng):
        for _ in range(300):
            lang = rng.choice(list(LanguageCode))
            tokens = preprocess_tweet(random_script_text(rng, lang), lang, table)
            for token in tokens:
                assert token, "no empty tokens"
                assert token == token.lower()
                for ch in token:
                    assert not ch.isspace()
                    assert unicodedata.category(ch)[0] not in ("P", "S")

    def test_idempotence(self, table, rng):
        for _ in range(300):
            lang = rng.choice(list(LanguageCode))
            text = random_script_text(rng, lang)
            once = preprocess_tweet(text, lang, table)
            again = preprocess_tweet(" ".join(once), lang, table)
            assert again == once


#: Pieces the per-character references treat specially: whitespace that only
#: ``str.isspace`` knows (NEL, no-break and ideographic space), lone
#: surrogates, combining marks, final sigma beside Thai marks, casefold
#: expansions, emoji with selectors and joiners, astral letters and symbols.
EDGE_PIECES = [
    "\x85", "\xa0", "\u3000", "\u2028", "\x1c", "\u200b", "\ufeff",
    "\ud800", "\udfff", "\udc80x",
    "e\u0301", "\u0915\u094d", "\u0e2a\u0e31\u0e48", "\u0e48\u0e4c",
    "\u039f\u03a3", "\u03a3\u0e31", "\u039f\u03a3\u0e48 \u03a3", "\u03c2",
    "\u0130", "\u00df", "\u1e9e", "\ufb03",
    "\u2764\ufe0f", "\U0001f468\u200d\U0001f469", "\U0001f3fb", "\u20ac",
    "\U00020000\U0002a6d6", "\U0001d400", "\U000e0041", "\uff66\uff9f",
    "\u30fb", "\u3001\u3002", "\u0e3f", "\u0e5a",
]

_pieces = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(MARKUP_PIECES),
    st.text(st.characters(exclude_categories=()), max_size=4),
    st.sampled_from(EDGE_PIECES),
    st.sampled_from(NOISE_PIECES),
    st.sampled_from(list(SCRIPT_LETTERS.values())).flatmap(
        lambda letters: st.text(st.sampled_from(letters), min_size=1, max_size=6)
    ),
    st.sampled_from([" ", "  ", "\t", "\n"]),
)
_texts = st.lists(_pieces, max_size=24).map("".join)


class TestAgainstPerCharacterReferences:
    @settings(max_examples=300)
    @given(_texts)
    def test_clean_and_tokenize_equal_the_references(self, text):
        cleaned = clean_text(text)
        assert cleaned == reference_clean_text(text)
        for lang in LanguageCode:
            assert tokenize(text, lang) == reference_tokenize(text, lang)
            assert tokenize(cleaned, lang) == reference_tokenize(cleaned, lang)

    @settings(max_examples=200)
    @given(_texts, st.sampled_from(list(LanguageCode)))
    def test_preprocess_tweet_equals_the_reference(self, table, text, lang):
        assert preprocess_tweet(text, lang, table) == reference_preprocess_tweet(text, lang, table)

    def test_translate_table_matches_categories_at_every_code_point(self):
        # A fresh table per block, so the sweep leaves no 1.1M-entry dict behind.
        for start in range(0, 0x110000, 0x10000):
            chars = "".join(map(chr, range(start, start + 0x10000)))
            expected = "".join(
                " " if is_symbol(ch) or is_punctuation(ch) else ch for ch in chars
            )
            assert chars.translate(_RemovedTable()) == expected, hex(start)

    def test_regex_whitespace_is_isspace_at_every_code_point(self):
        # The unsegmented tokenizer splits on ``\s``; the reference on isspace().
        chars = "".join(map(chr, range(0x110000)))
        assert re.findall(r"\s", chars) == [ch for ch in chars if ch.isspace()]
