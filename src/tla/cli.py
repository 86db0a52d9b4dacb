"""Command-line front end: query, clean, train-langid, identify, label, analyze.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.  Results go to
the output stream, errors and per-step line counts to the error stream.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import IO, Optional

from .analyze import REPORT_FORMATS, aggregate_dataset, render_report
from .corpus import (
    CLEAN_HEADER,
    CSV_HEADER,
    CleanRow,
    LanguageCode,
    SentimentLabel,
    read_dataset_csv,
    read_table,
    write_dataset_csv,
    write_table,
)
from .errors import LineError, TlaError
from .ingest import QuerySpec, compile_query, read_jsonl
from .langid import ForestParams, ForestPredictor, train_identifier
from .preprocess import StopwordTable, preprocess_tweet
from .sentiment import label_sentiment, load_bundled_lexicon
from .synth import synthetic_corpus


class UsageError(TlaError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tla",
        description="Multilingual tweet corpus pipeline.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = subparsers.add_parser("query", help="print the compiled search-query string")
    p.add_argument("--lang", type=LanguageCode.parse, metavar="CODE")
    p.add_argument("--min-faves", type=int, default=9000)
    p.add_argument(
        "--has-engagement", action=argparse.BooleanOptionalAction, default=True
    )
    p.add_argument("--max-results", type=int, default=500)
    p.set_defaults(func=_cmd_query)

    p = subparsers.add_parser("clean", help="JSONL tweets in, cleaned token CSV out")
    p.add_argument("--input", metavar="PATH", help="line-delimited JSON export")
    p.add_argument("--output", metavar="PATH", help="CSV destination (default stdout)")
    p.add_argument(
        "--lang",
        type=LanguageCode.parse,
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
    p.add_argument("--corpus", metavar="PATH", help="training CSV with lang and text columns")
    p.add_argument(
        "--synthetic",
        type=int,
        metavar="N",
        help="train on N bundled synthetic sentences per language (default 200)",
    )
    p.add_argument("--seed", type=int, help="required: RNG seed for a reproducible build")
    p.add_argument("--output", metavar="PATH", help="required: model file destination")
    p.add_argument("--trees", type=int, default=50)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--min-samples-split", type=int, default=2)
    p.add_argument("--features-per-split", type=int, default=None)
    p.add_argument("--ngram-min", type=int, default=1)
    p.add_argument("--ngram-max", type=int, default=3)
    p.add_argument("--min-df", type=int, default=2)
    p.set_defaults(func=_cmd_train)

    p = subparsers.add_parser(
        "identify", help="predict language and confidence with a trained model"
    )
    p.add_argument("--model", metavar="PATH", help="required: model file")
    p.add_argument("--text", metavar="TEXT", help="classify one text")
    p.add_argument("--input", metavar="PATH", help="classify every row of a cleaned CSV")
    p.add_argument(
        "--output",
        metavar="PATH",
        help="with --input: rewrite the lang column with predictions",
    )
    p.set_defaults(func=_cmd_identify)

    p = subparsers.add_parser(
        "label", help="sentiment-label a cleaned CSV into per-language datasets"
    )
    p.add_argument("--input", metavar="PATH", help="cleaned CSV")
    p.add_argument("--out-dir", metavar="DIR", help="directory for <code>.csv datasets")
    p.add_argument(
        "--tie-label",
        choices=[label.value for label in SentimentLabel],
        default=SentimentLabel.POSITIVE.value,
        help="label used when the lexicon score is exactly zero",
    )
    p.set_defaults(func=_cmd_label)

    p = subparsers.add_parser("analyze", help="per-language sentiment table")
    p.add_argument("--input", nargs="+", metavar="PATH", help="labeled dataset CSV(s)")
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
    except SystemExit as exc:
        return _exit_code(exc)

    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=err)
        try:
            return ns.func(ns, out, err)
        except UsageError as exc:
            print(f"usage error: {exc}", file=err)
            return 2
        except (TlaError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=err)
            return 1


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    return 2


def main() -> None:
    sys.exit(run())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _cmd_query(ns, out, err) -> int:
    _require(ns.lang is not None, "query requires --lang")
    spec = QuerySpec(
        language=ns.lang,
        min_faves=ns.min_faves,
        has_engagement=ns.has_engagement,
        max_results=ns.max_results,
    )
    print(compile_query(spec), file=out)
    return 0


def _cmd_clean(ns, out, err) -> int:
    _require(ns.input is not None, "clean requires --input")
    table = StopwordTable.load_bundled()
    rows = []
    with open(ns.input, "rb") as source:
        for line, tweet in read_jsonl(
            source, skip_bad_lines=ns.skip_bad_lines, lenient=ns.lenient
        ):
            lang = tweet.lang_hint if tweet.lang_hint is not None else ns.lang
            if lang is None:
                error = LineError(line, f"tweet {tweet.id}: record has no lang field "
                                  "and no --lang fallback was given")
                error.path = ns.input
                raise error
            tokens = preprocess_tweet(tweet.text, lang, table)
            rows.append(CleanRow(tweet.id, lang, tweet.text, tokens).fields())

    if ns.output is None:
        write_table(out, CLEAN_HEADER, rows)
    else:
        with open(ns.output, "w", encoding="utf-8", newline="") as sink:
            write_table(sink, CLEAN_HEADER, rows)
    print(f"{len(rows)} rows", file=err)
    return 0


def _read_rows(path: str, headers: tuple = (CLEAN_HEADER,)) -> list:
    with open(path, "rb") as source:
        return [row for _, row in read_table(source, headers)]


def _cmd_train(ns, out, err) -> int:
    _require(ns.seed is not None, "train-langid requires --seed")
    _require(ns.output is not None, "train-langid requires --output")
    _require(
        ns.corpus is None or ns.synthetic is None,
        "train-langid takes --corpus or --synthetic, not both",
    )
    if ns.corpus is not None:
        rows = _read_rows(ns.corpus, (CLEAN_HEADER, CSV_HEADER))
        if not rows:
            raise TlaError(f"{ns.corpus}: corpus file has no data rows")
        pairs = [(row.text, row.lang) for row in rows]
    else:
        per_language = ns.synthetic if ns.synthetic is not None else 200
        pairs = synthetic_corpus(per_language, seed=ns.seed)

    params = ForestParams(
        num_trees=ns.trees,
        max_depth=ns.max_depth,
        min_samples_split=ns.min_samples_split,
        features_per_split=ns.features_per_split,
        seed=ns.seed,
    )
    predictor = train_identifier(
        pairs, params, n_min=ns.ngram_min, n_max=ns.ngram_max, min_doc_freq=ns.min_df
    )
    with open(ns.output, "wb") as sink:
        n_bytes = predictor.save(sink)
    print(
        f"{len(pairs)} texts, vocabulary {predictor.vectorizer.size}, "
        f"{n_bytes} bytes -> {ns.output}",
        file=err,
    )
    return 0


def _cmd_identify(ns, out, err) -> int:
    _require(ns.model is not None, "identify requires --model")
    _require(
        (ns.text is None) != (ns.input is None),
        "identify requires exactly one of --text or --input",
    )
    _require(ns.text is None or ns.output is None, "identify --output needs --input, not --text")
    with open(ns.model, "rb") as source:
        predictor = ForestPredictor.load(source)

    if ns.text is not None:
        code, confidence = predictor.predict(ns.text)
        print(f"{code.value}\t{confidence:.4f}", file=out)
        return 0

    rows = _read_rows(ns.input)
    predictions = [predictor.predict(row.text) for row in rows]
    if ns.output is not None:
        table = StopwordTable.load_bundled()
        for row, (code, _) in zip(rows, predictions):
            if code is not row.lang:  # tokenizer and stopwords depend on the language
                row.lang, row.tokens = code, tuple(preprocess_tweet(row.text, code, table))
        with open(ns.output, "w", encoding="utf-8", newline="") as sink:
            write_table(sink, CLEAN_HEADER, (row.fields() for row in rows))
        print(f"{len(rows)} rows", file=err)
    else:
        write_table(out, ("id", "lang", "confidence"), (
            (row.id, code.value, f"{confidence:.4f}")
            for row, (code, confidence) in zip(rows, predictions)
        ))
    return 0


def _cmd_label(ns, out, err) -> int:
    _require(ns.input is not None, "label requires --input")
    _require(ns.out_dir is not None, "label requires --out-dir")
    tie = SentimentLabel.parse(ns.tie_label)

    # Every row is labeled before the first file is opened, so a bad input
    # leaves no partial output behind.
    lexicons: dict = {}
    groups: dict = {}
    with open(ns.input, "rb") as source:
        for _, row in read_table(source):
            if row.lang not in lexicons:
                lexicons[row.lang] = load_bundled_lexicon(row.lang)
            row.label = label_sentiment(row.tokens, lexicons[row.lang], tie)
            groups.setdefault(row.lang, []).append(row)

    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for lang, rows in groups.items():
        path = out_dir / f"{lang.value}.csv"
        with open(path, "wb") as sink:
            count = write_dataset_csv(rows, sink)
        print(f"{path}: {count} rows", file=err)
    return 0


def _labeled_rows(paths):
    """The rows of each labeled file in turn, with one file open at a time."""
    for path in paths:
        with open(path, "rb") as source:
            yield from read_dataset_csv(source)


def _cmd_analyze(ns, out, err) -> int:
    _require(ns.input, "analyze requires --input")
    text = render_report(aggregate_dataset(_labeled_rows(ns.input)), ns.format)
    if ns.output is not None:
        Path(ns.output).write_text(text, encoding="utf-8")
    else:
        out.write(text)
    return 0
