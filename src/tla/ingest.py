"""Compile filter specs into search-query strings and ingest JSONL exports."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Union

from .corpus import (
    LanguageCode,
    RawTweet,
    TweetLengthWarning,
    TweetValidationError,
    validate_tweet,
)
from .errors import LineError, decoded, located, where

#: JSONL field names, following the export convention of the scraping tool.
FIELD_MAP = {
    "id": "id",
    "text": "text",
    "lang": "lang_hint",
    "likeCount": "like_count",
    "replyCount": "reply_count",
}


@dataclass(frozen=True)
class QuerySpec:
    """Trending-filter parameters: language, like threshold, engagement, cap."""

    language: LanguageCode
    min_faves: int = 9000
    has_engagement: bool = True
    max_results: int = 500

    def __post_init__(self):
        if not isinstance(self.language, LanguageCode):
            raise ValueError(f"language must be a LanguageCode, got {self.language!r}")
        if self.min_faves < 0:
            raise ValueError(f"min_faves must be >= 0, got {self.min_faves}")
        if self.max_results < 1:
            raise ValueError(f"max_results must be >= 1, got {self.max_results}")


def compile_query(spec: QuerySpec) -> str:
    """Render the spec as space-separated search operators in canonical order.

    ``min_faves:<N>`` is omitted when N is 0, ``filter:has_engagement`` when
    disabled; ``lang:<code>`` is always present.
    """
    parts = []
    if spec.min_faves > 0:
        parts.append(f"min_faves:{spec.min_faves}")
    if spec.has_engagement:
        parts.append("filter:has_engagement")
    parts.append(f"lang:{spec.language.value}")
    return " ".join(parts)


class JsonlError(LineError):
    """Base for line-delimited JSON ingest errors; carries a line number."""


class MalformedLineError(JsonlError):
    def __init__(self, line: int, detail: str):
        super().__init__(line, f"malformed JSON: {detail}")


class MissingFieldError(JsonlError):
    def __init__(self, line: int, fields):
        self.fields = tuple(fields)
        super().__init__(line, "missing required field(s): " + ", ".join(self.fields))


class InvalidRecordError(JsonlError):
    def __init__(self, line: int, violations):
        self.violations = list(violations)
        super().__init__(line, "; ".join(self.violations))


class DuplicateIdError(JsonlError):
    def __init__(self, line: int, tweet_id: str):
        super().__init__(line, f"duplicate id {tweet_id!r}")


def read_jsonl(
    source: Union[IO[bytes], IO[str]],
    *,
    skip_bad_lines: bool = False,
    lenient: bool = False,
) -> Iterator[tuple[int, RawTweet]]:
    """Lazily yield ``(line, tweet)`` per validated record of line-delimited
    JSON, the line 1-based, as :func:`tla.corpus.read_table` does.

    One record per nonblank line; unknown fields and a leading byte order
    mark are ignored.  Bad lines, invalid UTF-8, a repeated id and a lone
    surrogate included, are errors naming the line (and the source's
    ``name``) unless ``skip_bad_lines`` drops them; of records sharing an id
    the first is kept.  A lenient length warning names the line too.
    """
    path = getattr(source, "name", None)
    seen: set[str] = set()
    for line_num, line in enumerate(source, start=1):
        try:
            tweet = _parse_record(line, line_num, lenient=lenient, path=path, seen=seen)
        except JsonlError as exc:
            if skip_bad_lines:
                continue
            raise located(exc, source)
        if tweet is not None:
            seen.add(tweet.id)
            yield line_num, tweet


def _parse_record(
    line: Union[bytes, str],
    line_num: int,
    *,
    lenient: bool,
    path: Optional[str],
    seen: set[str],
) -> Optional[RawTweet]:
    """The tweet on one line, or None for a blank line; an id in ``seen`` is
    an error.  Lenient warnings of a kept tweet are reissued with the path and
    line in front."""
    line = decoded(line, line_num, MalformedLineError)
    if line_num == 1:
        line = line.removeprefix("\ufeff")
    if not line.strip():
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(line_num, exc.msg) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise MalformedLineError(line_num, str(exc)) from exc
    if not isinstance(record, dict):
        raise MalformedLineError(line_num, "record is not a JSON object")

    missing = [name for name in ("id", "text") if name not in record]
    if missing:
        raise MissingFieldError(line_num, missing)

    candidate = {}
    for json_name, field in FIELD_MAP.items():
        if json_name not in record:
            continue
        value = record[json_name]
        if field == "id" and isinstance(value, int) and not isinstance(value, bool):
            value = str(value)
        if field == "lang_hint":
            try:
                value = LanguageCode.parse(value)
            except (ValueError, TypeError):
                raise InvalidRecordError(line_num, [f"BadLanguage({value!r})"]) from None
        candidate[field] = value

    try:
        if lenient:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TweetLengthWarning)
                tweet = validate_tweet(candidate, lenient=True)
        else:
            tweet, caught = validate_tweet(candidate), ()
    except TweetValidationError as exc:
        raise InvalidRecordError(line_num, exc.violations) from exc
    if tweet.id in seen:
        raise DuplicateIdError(line_num, tweet.id)
    for warning in caught:
        warnings.warn(f"{where(path, line_num)}: {warning.message}", warning.category)
    return tweet


def filter_trending(tweets: Iterable[RawTweet], spec: QuerySpec) -> list[RawTweet]:
    """Apply the trending rule offline: like threshold, engagement, result cap.

    ``has_engagement`` is interpreted as "has at least one reply".  Input order
    is preserved; iteration stops once ``max_results`` tweets qualify.
    """
    kept: list[RawTweet] = []
    for tweet in tweets:
        if tweet.like_count < spec.min_faves:
            continue
        if spec.has_engagement and (tweet.reply_count is None or tweet.reply_count < 1):
            continue
        kept.append(tweet)
        if len(kept) >= spec.max_results:
            break
    return kept
