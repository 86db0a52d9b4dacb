"""Command-line front end: query, clean, train-langid, identify, label, analyze.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.  Results go to
the output stream, errors and per-step line counts to the error stream.
"""

from __future__ import annotations

import argparse
import errno
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import ExitStack, contextmanager, redirect_stderr, redirect_stdout
from itertools import tee
from pathlib import Path
from typing import IO, Iterator, Optional

from .analyze import REPORT_FORMATS
from .corpus import (
    CLEAN_HEADER,
    CSV_HEADER,
    LANGUAGE_ORDER,
    CleanRow,
    LanguageCode,
    SentimentLabel,
    read_dataset_csv,
    read_table,
    write_dataset_csv,
    write_table,
)
from .errors import DuplicateTokenWarning, LineError, TlaError, TweetLengthWarning

# Each stage imports its own modules when it starts, so a stage loads only
# what it runs: numpy only for the identifier's two, json only with ingest.


class UsageError(TlaError):
    pass


def __getattr__(name: str):
    # perfbench/run.py's setup probe reads these from this module
    if name not in ("ForestPredictor", "StopwordTable", "load_bundled_lexicon"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)  # the package imports it on first use


def _at_least(minimum: int):
    """An argparse ``type``: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as an "invalid int value"
    return parse


def _nonblank(text: str) -> str:
    """An argparse ``type``: a text with a non-whitespace character."""
    if not text.strip():
        raise argparse.ArgumentTypeError("must not be blank")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tla",
        description="Multilingual tweet corpus pipeline.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    codes = [lang.value for lang in LANGUAGE_ORDER]
    p = subparsers.add_parser("query", help="print the compiled search-query string")
    p.add_argument("--lang", choices=codes, metavar="CODE", required=True)
    p.add_argument("--min-faves", type=_at_least(0), default=9000)
    p.add_argument(
        "--has-engagement", action=argparse.BooleanOptionalAction, default=True
    )
    p.set_defaults(func=_cmd_query)

    p = subparsers.add_parser("clean", help="JSONL tweets in, cleaned token CSV out")
    p.add_argument("--input", metavar="PATH", required=True, help="line-delimited JSON export")
    p.add_argument("--output", metavar="PATH", help="CSV destination (default stdout)")
    p.add_argument(
        "--lang",
        choices=codes,
        metavar="CODE",
        help="fallback language for records without a lang field",
    )
    p.add_argument("--skip-bad-lines", action="store_true", default=False)
    p.add_argument(
        "--lenient",
        action="store_true",
        default=False,
        help="downgrade the 280-character limit to a warning",
    )
    p.set_defaults(func=_cmd_clean)

    p = subparsers.add_parser(
        "train-langid", help="train the language identifier and write a model file"
    )
    p.add_argument("--seed", type=int, required=True, help="RNG seed for a reproducible build")
    p.add_argument("--output", metavar="PATH", required=True, help="model file destination")
    corpus = p.add_mutually_exclusive_group()
    corpus.add_argument("--corpus", metavar="PATH", help="training CSV with lang and text columns")
    corpus.add_argument(
        "--synthetic",
        type=_at_least(1),
        metavar="N",
        # a str: argparse skips the conflict check for a value that is the default object
        default="200",
        help="train on N bundled synthetic sentences per language (default %(default)s)",
    )
    p.add_argument("--trees", type=_at_least(1), default=50)
    p.add_argument("--max-depth", type=_at_least(1), default=None)
    p.add_argument("--min-samples-split", type=_at_least(2), default=2)
    p.add_argument("--features-per-split", type=_at_least(1), default=None)
    p.add_argument("--ngram-min", type=_at_least(1), default=1)
    p.add_argument("--ngram-max", type=_at_least(1), default=3)
    p.add_argument("--min-df", type=_at_least(1), default=2)
    p.set_defaults(func=_cmd_train)

    p = subparsers.add_parser(
        "identify", help="predict language and confidence with a trained model"
    )
    p.add_argument("--model", metavar="PATH", required=True, help="model file")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--text", type=_nonblank, metavar="TEXT", help="classify one text")
    given.add_argument("--input", metavar="PATH", help="classify every row of a cleaned CSV")
    p.add_argument(
        "--output",
        metavar="PATH",
        help="with --input: rewrite the lang column with predictions",
    )
    p.set_defaults(func=_cmd_identify)

    p = subparsers.add_parser(
        "label", help="sentiment-label a cleaned CSV into per-language datasets"
    )
    p.add_argument("--input", metavar="PATH", required=True, help="cleaned CSV")
    p.add_argument(
        "--out-dir", metavar="DIR", required=True, help="directory for <code>.csv datasets"
    )
    p.add_argument(
        "--tie-label",
        choices=[label.value for label in SentimentLabel],
        default=SentimentLabel.POSITIVE.value,
        help="label used when the lexicon score is exactly zero",
    )
    p.set_defaults(func=_cmd_label)

    p = subparsers.add_parser("analyze", help="per-language sentiment table")
    p.add_argument(
        "--input", nargs="+", metavar="PATH", required=True, help="labeled dataset CSV(s)"
    )
    p.add_argument("--format", choices=REPORT_FORMATS, default="plain")
    p.add_argument("--output", metavar="PATH", help="report destination (default stdout)")
    p.set_defaults(func=_cmd_analyze)

    return parser


def run(argv=None, stdout: Optional[IO[str]] = None, stderr: Optional[IO[str]] = None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with redirect_stdout(out), redirect_stderr(err):
            ns = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 0 or 2
        return exc.code

    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=err)
        # tla's own warnings are part of its output, whatever the -W filters say
        for category in (TweetLengthWarning, DuplicateTokenWarning):
            warnings.simplefilter("always", category)
        try:
            return ns.func(ns, out, err)
        except UsageError as exc:
            print(f"usage error: {exc}", file=err)
            return 2
        except (TlaError, OSError, ValueError) as exc:
            named = isinstance(exc, OSError) and exc.filename is not None
            print(f"error: {exc.filename}: {exc.strerror}" if named else f"error: {exc}",
                  file=err)
            return 1


def main() -> None:
    sys.exit(run())


def _cmd_query(ns, out, err) -> int:
    from .ingest import QuerySpec, compile_query
    spec = QuerySpec(
        language=LanguageCode.parse(ns.lang),
        min_faves=ns.min_faves,
        has_engagement=ns.has_engagement,
    )
    print(compile_query(spec), file=out)
    return 0


@contextmanager
def _committed(path: Optional[str], out: IO[str]) -> Iterator[IO[str]]:
    """A text sink whose contents reach ``path`` (or ``out``) only if the
    block succeeds.

    A file is written beside its target and renamed over it, so a failed run
    leaves neither a temporary file nor a changed target, and the target may
    also be the input being read.  A target that is a directory is refused on
    entry, before the block runs: the rename would fail only at the end.  An
    OSError while the temporary is created, written, flushed or renamed is an
    error naming ``path``; one that names another file is an input's, which
    ``run`` reports under that file's name.  Output meant for ``out`` waits
    in an unnamed temporary file, and is copied at the end 8 KiB at a time.
    """
    if path is None:
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            yield spool
            spool.seek(0)
            shutil.copyfileobj(spool, out, 8192)
        return
    target = Path(path)
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        if target.is_dir() and not target.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        sink = open(temporary, "x", encoding="utf-8", newline="")
        try:
            with sink:
                yield sink
            os.replace(temporary, target)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
    except OSError as exc:
        if exc.filename not in (None, str(temporary)):
            raise
        raise TlaError(f"{path}: {exc.strerror or exc}") from None


def _cmd_clean(ns, out, err) -> int:
    from .ingest import read_jsonl
    from .preprocess import StopwordTable, preprocess_tweet
    table = StopwordTable.load_bundled()
    fallback = None if ns.lang is None else LanguageCode.parse(ns.lang)

    def cleaned(source):
        for line, tweet in read_jsonl(
            source, skip_bad_lines=ns.skip_bad_lines, lenient=ns.lenient
        ):
            lang = tweet.lang_hint if tweet.lang_hint is not None else fallback
            if lang is None:
                raise LineError(ns.input, line, f"tweet {tweet.id}: record has no lang field "
                                "and no --lang fallback was given")
            tokens = preprocess_tweet(tweet.text, lang, table)
            yield tweet.id, lang.value, tweet.text, " ".join(tokens)

    with open(ns.input, "rb") as source, _committed(ns.output, out) as sink:
        count = write_table(sink, CLEAN_HEADER, cleaned(source))
    print(f"{count} rows", file=err)
    return 0


def _cmd_train(ns, out, err) -> int:
    from .langid import EmptyVocabularyError, ForestParams, train_identifier
    from .synth import synthetic_corpus
    if ns.ngram_min > ns.ngram_max:
        raise UsageError(f"--ngram-min {ns.ngram_min} is greater than --ngram-max {ns.ngram_max}")
    params = ForestParams(
        num_trees=ns.trees,
        max_depth=ns.max_depth,
        min_samples_split=ns.min_samples_split,
        features_per_split=ns.features_per_split,
        seed=ns.seed,
    )
    # an unusable --output is reported before the corpus is read or fitted
    with _committed(ns.output, out) as sink:
        if ns.corpus is not None:
            source = ns.corpus
            with open(ns.corpus, "rb") as corpus:
                pairs = [(row.text, row.lang)
                         for _, row in read_table(corpus, (CLEAN_HEADER, CSV_HEADER))]
            if not pairs:
                raise TlaError(f"{ns.corpus}: corpus file has no data rows")
        else:
            source = f"--synthetic {ns.synthetic}"
            pairs = synthetic_corpus(ns.synthetic, seed=ns.seed)
        try:
            predictor = train_identifier(pairs, params, n_min=ns.ngram_min,
                                         n_max=ns.ngram_max, min_doc_freq=ns.min_df)
        except EmptyVocabularyError as exc:
            # at --min-df 1 every n-gram is kept, so lowering it cannot help
            reason = (f"{exc}; lower --min-df" if ns.min_df > 1
                      else "no text keeps a character n-gram after cleaning")
            raise TlaError(f"{source}: {reason}") from None
        n_bytes = predictor.save(sink.buffer)
    print(
        f"{len(pairs)} texts, vocabulary {predictor.vectorizer.size}, "
        f"{n_bytes} bytes -> {ns.output}",
        file=err,
    )
    return 0


def _cmd_identify(ns, out, err) -> int:
    from .langid import ForestPredictor, ModelFormatError
    from .preprocess import StopwordTable, preprocess_tweet
    if ns.text is not None and ns.output is not None:
        raise UsageError("identify --output needs --input, not --text")
    with open(ns.model, "rb") as source:
        try:
            predictor = ForestPredictor.load(source)
        except ModelFormatError as exc:
            if exc.args[0].startswith("unsupported model version"):
                raise TlaError(f"{exc}; retrain the model with tla train-langid") from None
            raise

    if ns.text is not None:
        code, confidence = predictor.predict(ns.text)
        if code is None:
            raise TlaError("--text: no character n-gram of the text is in the model's vocabulary")
        print(f"{code.value}\t{confidence:.4f}", file=out)
        return 0

    table = StopwordTable.load_bundled() if ns.output is not None else None
    own = 0  # rows that keep their own lang: their text gives no evidence (code None)

    def relabeled(row: CleanRow, code: LanguageCode) -> CleanRow:
        if code is not row.lang:  # tokenizer and stopwords depend on the language
            row.lang, row.tokens = code, tuple(preprocess_tweet(row.text, code, table))
        return row

    def identified(rows):
        nonlocal own
        rows, texts = tee(rows)
        for row, (code, confidence) in zip(rows, predictor.predict_batch(r.text for r in texts)):
            own += code is None
            yield row, code or row.lang, confidence

    with open(ns.input, "rb") as source, _committed(ns.output, out) as sink:
        voted = identified(row for _, row in read_table(source))
        if table is None:
            count = write_table(sink, ("id", "lang", "confidence"), (
                (row.id, code.value, f"{confidence:.4f}") for row, code, confidence in voted
            ))
        else:
            count = write_table(sink, CLEAN_HEADER, (
                relabeled(row, code).fields() for row, code, _ in voted
            ))
    print(f"{count} rows, {own} kept their own lang (no evidence)", file=err)
    return 0


def _cmd_label(ns, out, err) -> int:
    from .sentiment import label_sentiment, load_bundled_lexicon
    tie = SentimentLabel.parse(ns.tie_label)

    # The rows are held so that each language is written in one call, and a
    # dataset replaces its file only when every language is written and every
    # target was found not to be a directory: a failed run leaves the
    # directory as it was, unless the OS refuses a rename after earlier ones.
    groups: dict = {}  # each language's lexicon, rows, and rows of score 0
    with open(ns.input, "rb") as source:
        for _, row in read_table(source):
            if row.lang not in groups:
                groups[row.lang] = load_bundled_lexicon(row.lang), [], []
            lexicon, rows, tied = groups[row.lang]
            row.label = label_sentiment(row.tokens, lexicon, None)
            if row.label is None:
                row.label = tie
                tied.append(row)
            rows.append(row)

    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {}
    with ExitStack() as stack:
        for lang, (_, rows, tied) in groups.items():
            path = out_dir / f"{lang.value}.csv"
            sink = stack.enter_context(_committed(str(path), out))
            counts[path] = write_dataset_csv(rows, sink), len(tied)
            sink.flush()  # so that no write is left to fail after a rename
    for path, (count, tied) in counts.items():
        print(f"{path}: {count} rows, {tied} by the tie label (score 0)", file=err)
    # The directory holds exactly this input's languages: a dataset left by
    # an earlier run would otherwise be counted again by analyze.  The input
    # itself is never removed, whatever its name.
    for lang in LANGUAGE_ORDER:
        path = out_dir / f"{lang.value}.csv"
        if lang not in groups and path.is_file() and not os.path.samefile(path, ns.input):
            path.unlink()
            print(f"{path}: removed, no {lang.value} rows in this input", file=err)
    return 0


def _labeled_rows(paths):
    """The rows of each labeled file in turn, with one file open at a time.

    A tweet is counted once: an id read in an earlier file, or in the same
    file given twice, is an error."""
    seen: set = set()
    for path in paths:
        with open(path, "rb") as source:
            yield from read_dataset_csv(source, seen=seen)


def _cmd_analyze(ns, out, err) -> int:
    from .analyze import aggregate_dataset, render_report
    # an unusable --output is reported before any input is read
    with _committed(ns.output, out) as sink:
        sink.write(render_report(aggregate_dataset(_labeled_rows(ns.input)), ns.format))
    return 0
