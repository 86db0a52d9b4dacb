"""Compile filter specs into search-query strings and ingest JSONL exports."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import IO, Iterator, Union

from .corpus import (
    MAX_TWEET_LENGTH,
    LanguageCode,
    RawTweet,
    TweetLengthWarning,
    validate_tweet,
)
from .errors import LineError, decoded, where


@dataclass(frozen=True)
class QuerySpec:
    """Search-query parameters: language, like threshold, engagement."""

    language: LanguageCode
    min_faves: int = 9000
    has_engagement: bool = True

    def __post_init__(self):
        if not isinstance(self.language, LanguageCode):
            raise ValueError(f"language must be a LanguageCode, got {self.language!r}")
        if self.min_faves < 0:
            raise ValueError(f"min_faves must be >= 0, got {self.min_faves}")


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


def read_jsonl(
    source: Union[IO[bytes], IO[str]],
    *,
    skip_bad_lines: bool = False,
    lenient: bool = False,
) -> Iterator[tuple[int, RawTweet]]:
    """Lazily yield ``(line, tweet)`` per record of line-delimited JSON that
    :func:`tla.corpus.validate_tweet` accepts, the line 1-based.

    One object per nonblank line; a leading byte order mark is ignored.  Bad
    lines, invalid UTF-8 and a repeated id included, are a LineError naming
    the line (and the source's ``name``) unless ``skip_bad_lines`` drops
    them; of records sharing an id the first is kept.  A lenient length
    warning names the line too.
    """
    path = getattr(source, "name", None)
    seen: set[str] = set()
    for line_num, line in enumerate(source, start=1):
        try:
            line = decoded(line, line_num, path, "malformed JSON: ")
            if not line or line.isspace():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LineError(path, line_num, f"malformed JSON: {exc.msg}") from exc
            except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
                raise LineError(path, line_num, f"malformed JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise LineError(path, line_num, "malformed JSON: record is not a JSON object")
            try:
                tweet = validate_tweet(record, lenient=lenient)
            except ValueError as exc:
                raise LineError(path, line_num, str(exc)) from exc
            if tweet.id in seen:
                raise LineError(path, line_num, f"duplicate id {tweet.id!r}")
        except LineError:
            if skip_bad_lines:
                continue
            raise
        seen.add(tweet.id)
        if len(tweet.text) > MAX_TWEET_LENGTH:
            warnings.warn(f"{where(path, line_num)}: TextTooLong({len(tweet.text)})",
                          TweetLengthWarning)
        yield line_num, tweet

