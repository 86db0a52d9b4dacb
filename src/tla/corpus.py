"""Core domain types, validation, and the CSV codec of the cleaned and labeled tables."""

from __future__ import annotations

import csv
import re
from enum import Enum
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import LineError, decoded
from .errors import TweetLengthWarning  # ingest's warning, importable here as before

MAX_TWEET_LENGTH = 280

# A lone UTF-16 surrogate, which a JSON \ud800 escape can put in a string;
# no UTF-8 output can hold it.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

# ``write_table`` writes a field of any length (``clean --lenient`` keeps a
# tweet of any length), so ``read_table`` must read it back: lift the csv
# module's 131,072-character field limit to the largest every C long holds.
csv.field_size_limit(2**31 - 1)

#: The cleaned table written by `clean` and `identify`.
CLEAN_HEADER = ("id", "lang", "text", "tokens")
#: The labeled dataset table: the cleaned table plus the sentiment label.
CSV_HEADER = CLEAN_HEADER + ("label",)


class LanguageCode(str, Enum):
    """The sixteen supported languages, keyed by two-letter lowercase code.

    Definition order is the canonical report order (which coincides with
    alphabetical order of the codes).
    """

    EN = "en"
    ES = "es"
    FA = "fa"
    FR = "fr"
    HI = "hi"
    ID = "id"
    JA = "ja"
    NL = "nl"
    PT = "pt"
    RO = "ro"
    RU = "ru"
    SV = "sv"
    TH = "th"
    TR = "tr"
    UR = "ur"
    ZH = "zh"

    __str__ = str.__str__

    @classmethod
    def parse(cls, code: str) -> "LanguageCode":
        """Parse a two-letter code; anything outside the closed set is an error."""
        try:
            return _LANGUAGES[code]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueError(f"unknown language code: {code!r}") from None

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]

    @property
    def unsegmented(self) -> bool:
        """True for scripts without inter-word spaces (tokenized per character)."""
        return self in (LanguageCode.ZH, LanguageCode.JA, LanguageCode.TH)


_DISPLAY_NAMES = {
    LanguageCode.EN: "English",
    LanguageCode.ES: "Spanish",
    LanguageCode.FA: "Persian",
    LanguageCode.FR: "French",
    LanguageCode.HI: "Hindi",
    LanguageCode.ID: "Indonesian",
    LanguageCode.JA: "Japanese",
    LanguageCode.NL: "Dutch",
    LanguageCode.PT: "Portuguese",
    LanguageCode.RO: "Romanian",
    LanguageCode.RU: "Russian",
    LanguageCode.SV: "Swedish",
    LanguageCode.TH: "Thai",
    LanguageCode.TR: "Turkish",
    LanguageCode.UR: "Urdu",
    LanguageCode.ZH: "Chinese",
}

#: Canonical report order: the sixteen languages in definition order.
LANGUAGE_ORDER = tuple(LanguageCode)
# A member equals and hashes as its code, so it finds its own entry.
_LANGUAGES = {lang.value: lang for lang in LanguageCode}


class SentimentLabel(Enum):
    """Two-class sentiment label; serializes as the literal strings below."""

    POSITIVE = "Positive"
    NEGATIVE = "Negative"

    @classmethod
    def parse(cls, value: str) -> "SentimentLabel":
        try:
            return _LABELS[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueError(f"unknown sentiment label: {value!r}") from None


# A member hashes by its name, so it is a key of its own.
_LABELS = {key: label for label in SentimentLabel for key in (label.value, label)}


def validate_token(token: str) -> str:
    """Check a single token against the token rules; returns it unchanged."""
    if not isinstance(token, str) or not token:
        raise ValueError(f"empty token: {token!r}")
    if any(ch.isspace() for ch in token):
        raise ValueError(f"token contains whitespace: {token!r}")
    if token != token.lower():
        raise ValueError(f"token is not lowercase: {token!r}")
    return token


def validate_token_field(field: str) -> tuple[str, ...]:
    """The tokens of a space-joined field (none if it is empty), checked
    against the token rules: their one owner, called by :func:`read_table`
    on each field as read.  A failing field is checked token by token, to
    name the offending token."""
    tokens = field.split(" ") if field else []
    # Only capital sigma lowercases by context; the space is the only printable whitespace.
    if field != field.lower() or not (
            field.isprintable() and "" not in tokens or field.split() == tokens):
        for token in tokens:
            validate_token(token)
    return tuple(tokens)


class RawTweet(NamedTuple):
    """One ingested tweet. Use :func:`validate_tweet` to enforce invariants."""

    id: str
    text: str
    lang_hint: Optional[LanguageCode] = None
    like_count: int = 0
    reply_count: Optional[int] = None


def validate_tweet(record: Mapping, *, lenient: bool = False) -> RawTweet:
    """The tweet of one decoded JSONL record, read by its JSON names.

    ``id`` and ``text`` are required; ``id`` is a string, or an integer taken
    as its decimal string; ``lang``, ``likeCount`` and ``replyCount`` follow,
    and any other key is ignored.  A bad record is a ValueError naming the
    missing required fields, or else every violation, in that order, joined
    by ``"; "``.  A key of the wrong type, ``null`` included, is ``BadType``,
    but a ``null`` ``replyCount`` reads as absent and a ``lang`` outside the
    sixteen codes is ``BadLanguage``.  Lenient mode lifts the
    280-scalar-value limit.  An id or text holding a lone surrogate is a
    violation, since it cannot be written as UTF-8.
    """
    if "id" not in record or "text" not in record:
        missing = [name for name in ("id", "text") if name not in record]
        raise ValueError("missing required field(s): " + ", ".join(missing))
    violations: list[str] = []

    tweet_id = record["id"]
    if isinstance(tweet_id, int) and not isinstance(tweet_id, bool):
        tweet_id = str(tweet_id)
    if not isinstance(tweet_id, str):
        violations.append("BadType(id)")
    elif not tweet_id:
        violations.append("EmptyId")
    elif _SURROGATE_RE.search(tweet_id):
        violations.append("LoneSurrogate(id)")

    text = record["text"]
    if not isinstance(text, str):
        violations.append("BadType(text)")
    elif not text or text.isspace():
        violations.append("EmptyText")
    else:
        if _SURROGATE_RE.search(text):
            violations.append("LoneSurrogate(text)")
        if len(text) > MAX_TWEET_LENGTH and not lenient:
            violations.append(f"TextTooLong({len(text)})")

    lang_hint = None
    if "lang" in record:
        try:
            lang_hint = LanguageCode.parse(record["lang"])
        except (ValueError, TypeError):
            violations.append(f"BadLanguage({record['lang']!r})")

    like_count = record.get("likeCount", 0)
    if not isinstance(like_count, int) or isinstance(like_count, bool):
        violations.append("BadType(like_count)")
    elif like_count < 0:
        violations.append(f"NegativeCount(like_count={like_count})")

    reply_count = record.get("replyCount")
    if reply_count is not None:
        if not isinstance(reply_count, int) or isinstance(reply_count, bool):
            violations.append("BadType(reply_count)")
        elif reply_count < 0:
            violations.append(f"NegativeCount(reply_count={reply_count})")

    if violations:
        raise ValueError("; ".join(violations))

    return RawTweet(tweet_id, text, lang_hint, like_count, reply_count)


class CleanRow:
    """One row of the cleaned table (``CLEAN_HEADER``) and, once its
    ``label`` is set, of the labeled table (``CSV_HEADER``).

    A plain record: :func:`read_table` checks a row's fields as read, and
    a row built in code is checked only where its table is read back.  It
    stays mutable, so a stage relabels it in place instead of rebuilding it;
    rows of equal fields are equal, and, being mutable, unhashable.
    """

    __slots__ = __match_args__ = ("id", "lang", "text", "tokens", "label")
    __hash__ = None

    def __init__(self, id: str, lang: LanguageCode, text: str, tokens: tuple[str, ...],
                 label: Optional[SentimentLabel] = None):
        self.id = id
        self.lang = lang
        self.text = text
        self.tokens = tokens
        self.label = label

    def _values(self) -> tuple:
        return self.id, self.lang, self.text, self.tokens, self.label

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def fields(self) -> tuple[str, ...]:
        """The row's CSV fields: those of ``CLEAN_HEADER``, then the label if set."""
        fields = (self.id, self.lang.value, self.text, " ".join(self.tokens))
        return fields if self.label is None else fields + (self.label.value,)


def write_table(sink: IO[str], header: tuple, rows: Iterable[Sequence[str]]) -> int:
    """Write ``header`` and then one record per row of string fields.

    RFC 4180 quoting, LF line endings.  Returns the number of data rows
    written.
    """
    writer = csv.writer(sink, lineterminator="\n")
    # Before Python 3.12 the writer leaves a field holding a bare CR unquoted,
    # and the reader then rejects it; such a row has all its fields quoted.
    quote_all = csv.writer(sink, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    count = 0
    for row in rows:
        (quote_all if "\r" in "".join(row) else writer).writerow(row)
        count += 1
    return count


def read_table(
    source: IO[bytes], headers: tuple = (CLEAN_HEADER,), seen: Optional[set] = None
) -> Iterator[tuple[int, CleanRow]]:
    """Lazily yield ``(line, row)`` per nonblank record of a UTF-8 CSV table
    whose header is one of ``headers``.

    Each row is checked here, once, on its fields as read: field count,
    language, label, nonempty id and text, ids unique within the file (and
    not in ``seen``, the ids of earlier files, which gains this file's), and
    the token rules, which no other code checks on a table.  The ingest
    length limit is not checked.  Errors name the line and, if the source
    has a ``name``, its path.
    """
    path = getattr(source, "name", None)
    reader = csv.reader(decoded(line, n, path) for n, line in enumerate(source, start=1))
    try:
        header = tuple(next(reader, ()))
        if header not in headers:
            wanted = " or ".join(",".join(names) for names in headers)
            raise LineError(path, 1, f"expected header {wanted}, got {header or None!r}")
        labeled = header == CSV_HEADER
        seen = set() if seen is None else seen
        for record in reader:
            if not record:
                continue
            line = reader.line_num
            if len(record) != len(header):
                raise LineError(path, line, f"expected {len(header)} fields, got {len(record)}")
            tweet_id, lang_field, text, tokens_field = record[:4]
            lang = _LANGUAGES.get(lang_field)
            if lang is None:
                raise LineError(path, line, f"bad language code {lang_field!r}")
            label = _LABELS.get(record[4]) if labeled else None
            if labeled and label is None:
                raise LineError(path, line, f"bad label {record[4]!r} "
                                "(expected Positive or Negative)")
            if not tweet_id:
                raise LineError(path, line, "empty id")
            if not text or text.isspace():
                raise LineError(path, line, "empty text")
            if tweet_id in seen:
                raise LineError(path, line, f"duplicate id {tweet_id!r}")
            seen.add(tweet_id)
            try:
                tokens = validate_token_field(tokens_field)
            except ValueError as exc:
                raise LineError(path, line, str(exc)) from None
            yield line, CleanRow(tweet_id, lang, text, tokens, label)
    except csv.Error as exc:
        raise LineError(path, reader.line_num, str(exc)) from None


def write_dataset_csv(rows: Iterable[CleanRow], sink: IO[str]) -> int:
    """Write labeled rows with :func:`write_table` (header id,lang,text,tokens,label;
    tokens space-joined); returns the number of data rows written.

    An unlabeled row is a ValueError, raised when the writer reaches it.  One
    language per file and unique ids are checked where the table is read, by
    :func:`read_dataset_csv`.
    """
    return write_table(sink, CSV_HEADER, _labeled_fields(rows))


def _labeled_fields(rows: Iterable[CleanRow]) -> Iterator[tuple[str, ...]]:
    for i, row in enumerate(rows):
        if row.label is None:
            raise ValueError(f"row {i}: no label")
        yield row.fields()


def read_dataset_csv(
    source: IO[bytes], language: Optional[LanguageCode] = None, seen: Optional[set] = None
) -> Iterator[CleanRow]:
    """Lazily yield the rows of a CSV written by :func:`write_dataset_csv`.

    Every row has the language of the first one, or ``language`` if given.
    A header-only file yields nothing when ``language`` is given and is an
    error otherwise: the fixed schema cannot recover its language.  Ids are
    checked against ``seen`` as :func:`read_table` does.
    """
    path = getattr(source, "name", None)
    expected = language
    for line, row in read_table(source, (CSV_HEADER,), seen):
        if expected is None:
            expected = row.lang
        elif row.lang != expected:
            raise LineError(path, line, f"mixed languages: expected {expected}, got {row.lang}")
        yield row
    if expected is None:
        raise LineError(path, 1, "empty dataset file: its language cannot be told")
