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
from .ingest import QuerySpec, compile_query, filter_trending, read_jsonl
from .preprocess import StopwordTable, clean_text, preprocess_tweet, remove_stopwords, tokenize
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
    **dict.fromkeys((
        "ForestModel", "ForestParams", "ForestPredictor", "NgramVectorizer",
        "evaluate_model", "extract_char_ngrams", "fit_forest", "fit_vectorizer",
        "load_model", "predict_language", "save_model", "train_identifier", "vectorize",
    ), "langid"),
    **dict.fromkeys(("synthetic_corpus", "synthetic_split"), "synth"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
