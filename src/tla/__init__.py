"""tla: multilingual tweet corpus pipeline.

Query compilation, offline ingestion, multilingual preprocessing, character
n-gram language identification, lexicon-based sentiment labeling, and the
per-language analysis table, as a library plus a `tla` command-line tool.
"""

from .corpus import (
    LANGUAGE_ORDER,
    CleanRow,
    LanguageCode,
    RawTweet,
    SentimentLabel,
    read_dataset_csv,
    validate_tweet,
    write_dataset_csv,
)
from .errors import TlaError
from .ingest import QuerySpec, compile_query, read_jsonl
from .preprocess import StopwordTable, clean_text, preprocess_tweet, tokenize
from .sentiment import Lexicon, label_sentiment, load_bundled_lexicon, load_lexicon, score_tokens
from .analyze import (
    AnalysisRow,
    aggregate_dataset,
    render_report,
    truncate_pct,
)

__version__ = "0.1.0"

# The language identifier needs numpy, which no other stage uses: its names
# are imported on first use, so `import tla` and `tla.cli` stay numpy-free.
_LAZY = {
    **dict.fromkeys(("ForestParams", "ForestPredictor", "evaluate_model", "train_identifier"),
                    "langid"),
    **dict.fromkeys(("synthetic_corpus", "synthetic_split"), "synth"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
