"""tla: multilingual tweet corpus pipeline.

Query compilation, offline ingestion, multilingual preprocessing, character
n-gram language identification, lexicon-based sentiment labeling, and the
per-language analysis table, as a library plus a `tla` command-line tool.
"""

from .corpus import (
    LANGUAGE_ORDER,
    CleanRow,
    LabeledDataset,
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
from .langid import (
    ForestModel,
    ForestParams,
    ForestPredictor,
    NgramVectorizer,
    evaluate_model,
    extract_char_ngrams,
    fit_forest,
    fit_nb,
    fit_vectorizer,
    load_model,
    predict_language,
    predict_nb,
    save_model,
    train_identifier,
    vectorize,
)
from .sentiment import Lexicon, label_sentiment, load_bundled_lexicon, load_lexicon, score_tokens
from .analyze import (
    AnalysisReport,
    AnalysisRow,
    aggregate_dataset,
    render_report,
    truncate_pct,
)
from .synth import synthetic_corpus, synthetic_split

__version__ = "0.1.0"
