"""Command-line front end: query, clean, train-langid, identify, label, analyze.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.  Results go to
the output stream, errors and per-step line counts to the error stream.
Defaults may come from a ``tla.conf`` key=value file (flag > config file >
built-in default); unknown flags and unknown config keys are errors.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import IO, Optional

from .analyze import (
    REPORT_FORMATS,
    AnalysisReport,
    aggregate_dataset,
    merge_rows,
    render_report,
)
from .corpus import (
    CLEAN_HEADER,
    CSV_HEADER,
    CleanRow,
    LabeledDataset,
    LanguageCode,
    SentimentLabel,
    read_dataset_csv,
    read_table,
    write_dataset_csv,
    write_table,
)
from .errors import TlaError
from .ingest import QuerySpec, compile_query, read_jsonl
from .langid import ForestParams, ForestPredictor, train_identifier
from .preprocess import StopwordTable, preprocess_tweet
from .sentiment import label_sentiment, load_bundled_lexicon
from .synth import synthetic_corpus

CONFIG_FILENAME = "tla.conf"

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


class UsageError(TlaError):
    pass


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="tla",
        description="Multilingual tweet corpus pipeline.",
    )
    parser.add_argument(
        "--config", metavar="PATH", help=f"key=value config file (default ./{CONFIG_FILENAME})"
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands: dict = {}

    p = subparsers.add_parser("query", help="print the compiled search-query string")
    p.add_argument("--lang", type=LanguageCode.parse, metavar="CODE")
    p.add_argument("--min-faves", type=int, default=9000)
    p.add_argument(
        "--has-engagement", action=argparse.BooleanOptionalAction, default=True
    )
    p.add_argument("--max-results", type=int, default=500)
    p.set_defaults(func=_cmd_query)
    commands["query"] = p

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
    commands["clean"] = p

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
    commands["train-langid"] = p

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
    commands["identify"] = p

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
    commands["label"] = p

    p = subparsers.add_parser("analyze", help="per-language sentiment table")
    p.add_argument("--input", nargs="+", metavar="PATH", help="labeled dataset CSV(s)")
    p.add_argument("--format", choices=REPORT_FORMATS, default="plain")
    p.add_argument("--output", metavar="PATH", help="report destination (default stdout)")
    p.set_defaults(func=_cmd_analyze)
    commands["analyze"] = p

    return parser, commands


def _load_config(path: Path) -> dict:
    values: dict = {}
    for line_num, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {line_num}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(config: dict, commands: dict) -> None:
    for key, raw in config.items():
        owners = []
        for name, sub in commands.items():
            action = next(
                (a for a in sub._actions if a.dest == key and a.dest != "help"), None
            )
            if action is not None:
                owners.append((name, sub, action))
        if not owners:
            raise UsageError(f"unknown config key: {key}")
        for name, sub, action in owners:
            if action.nargs in ("+", "*"):
                raise UsageError(f"config key {key} is not settable from a file")
            if isinstance(action, argparse.BooleanOptionalAction) or isinstance(
                action.const, bool
            ):
                lowered = raw.lower()
                if lowered in _TRUE_WORDS:
                    value = True
                elif lowered in _FALSE_WORDS:
                    value = False
                else:
                    raise UsageError(f"config key {key}: expected a boolean, got {raw!r}")
            elif action.choices is not None and raw not in action.choices:
                raise UsageError(
                    f"config key {key}: invalid choice {raw!r} "
                    f"(choose from {', '.join(map(str, action.choices))})"
                )
            elif action.type is not None:
                try:
                    value = action.type(raw)
                except (TypeError, ValueError) as exc:
                    raise UsageError(f"config key {key}: {exc}") from exc
            else:
                value = raw
            sub.set_defaults(**{key: value})


def run(argv=None, stdout: Optional[IO[str]] = None, stderr: Optional[IO[str]] = None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    argv = list(sys.argv[1:]) if argv is None else list(argv)

    prescan = argparse.ArgumentParser(add_help=False)
    prescan.add_argument("--config")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            pre_ns, _ = prescan.parse_known_args(argv)
    except SystemExit as exc:
        return _exit_code(exc)

    parser, commands = _build_parser()
    try:
        if pre_ns.config is not None:
            config_path = Path(pre_ns.config)
            if not config_path.is_file():
                raise UsageError(f"config file not found: {config_path}")
            _apply_config(_load_config(config_path), commands)
        elif Path(CONFIG_FILENAME).is_file():
            _apply_config(_load_config(Path(CONFIG_FILENAME)), commands)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 2

    try:
        with redirect_stdout(out), redirect_stderr(err):
            ns = parser.parse_args(argv)
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
        for tweet in read_jsonl(
            source, skip_bad_lines=ns.skip_bad_lines, lenient=ns.lenient
        ):
            lang = tweet.lang_hint if tweet.lang_hint is not None else ns.lang
            if lang is None:
                raise TlaError(
                    f"{ns.input}: tweet {tweet.id}: record has no lang field "
                    "and no --lang fallback was given"
                )
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

    # Every dataset is built before the first file is opened, so a bad input
    # leaves no partial output behind.
    lexicons: dict = {}
    groups: dict = {}
    with open(ns.input, "rb") as source:
        for _, row in read_table(source):
            if row.lang not in lexicons:
                lexicons[row.lang] = load_bundled_lexicon(row.lang)
            row.label = label_sentiment(row.tokens, lexicons[row.lang], tie)
            groups.setdefault(row.lang, []).append(row)
    datasets = [LabeledDataset(language=lang, rows=tuple(rows)) for lang, rows in groups.items()]

    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for dataset in datasets:
        path = out_dir / f"{dataset.language.value}.csv"
        with open(path, "wb") as sink:
            count = write_dataset_csv(dataset, sink)
        print(f"{path}: {count} rows", file=err)
    return 0


def _cmd_analyze(ns, out, err) -> int:
    _require(ns.input, "analyze requires --input")
    rows = []
    for path in ns.input:
        with open(path, "rb") as source:
            rows.append(aggregate_dataset(read_dataset_csv(source)))
    report = AnalysisReport.from_rows(merge_rows(rows))
    text = render_report(report, ns.format)
    if ns.output is not None:
        Path(ns.output).write_text(text, encoding="utf-8")
    else:
        out.write(text)
    return 0
