"""tla: multilingual tweet corpus pipeline.

Query compilation, offline ingestion, multilingual preprocessing, character
n-gram language identification, lexicon-based sentiment labeling, and the
per-language analysis table, as a library plus a `tla` command-line tool.
"""

__version__ = "0.1.0"

# Every public name is imported from its module on first use, so that each
# command-line stage loads only the modules it runs: numpy and dataclasses
# only for the language identifier (`identify`, `train-langid`).
_LAZY = {name: module for module, names in {
    "corpus": ("LANGUAGE_ORDER", "CleanRow", "LanguageCode", "RawTweet", "SentimentLabel",
               "read_dataset_csv", "validate_tweet", "write_dataset_csv"),
    "errors": ("TlaError",),
    "ingest": ("QuerySpec", "compile_query", "read_jsonl"),
    "preprocess": ("StopwordTable", "clean_text", "preprocess_tweet", "tokenize"),
    "sentiment": ("Lexicon", "label_sentiment", "load_bundled_lexicon", "load_lexicon",
                  "score_tokens"),
    "analyze": ("AnalysisRow", "aggregate_dataset", "render_report", "truncate_pct"),
    "langid": ("ForestParams", "ForestPredictor", "evaluate_model", "train_identifier"),
    "synth": ("synthetic_corpus", "synthetic_split"),
}.items() for name in names}

#: What ``from tla import *`` binds: all but the identifier's names, which load numpy.
__all__ = [name for name, module in _LAZY.items() if module not in ("langid", "synth")]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
