"""Spans around the tla package's public functions, for the traced run.

Each target function is replaced, in every loaded ``tla`` module that refers
to it, by a wrapper that records a span (name, start, end, parent span,
stage).  Nothing under ``src/`` is edited: the wrappers go where the program
looks the functions up, and :meth:`Tracer.uninstall` puts the originals back.
A target that the program no longer defines is reported as absent.

Spans stay in memory; :meth:`Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

#: (layer name, module, attribute path) of every traced function.
TARGETS = (
    ("ingest.read_jsonl", "tla.ingest", "read_jsonl"),
    ("preprocess.preprocess_tweet", "tla.preprocess", "preprocess_tweet"),
    ("preprocess.load_bundled", "tla.preprocess", "StopwordTable.load_bundled"),
    ("langid.load_model", "tla.langid", "load_model"),
    ("langid.normalize_for_langid", "tla.langid", "normalize_for_langid"),
    ("langid.vectorize", "tla.langid", "vectorize"),
    ("langid.predict_language", "tla.langid", "predict_language"),
    ("synth.synthetic_corpus", "tla.synth", "synthetic_corpus"),
    ("langid.fit_vectorizer", "tla.langid", "fit_vectorizer"),
    ("langid.fit_forest", "tla.langid", "fit_forest"),
    ("langid.save_model", "tla.langid", "save_model"),
    ("sentiment.load_bundled_lexicon", "tla.sentiment", "load_bundled_lexicon"),
    ("sentiment.label_sentiment", "tla.sentiment", "label_sentiment"),
    ("corpus.validate_tweet", "tla.corpus", "validate_tweet"),
    ("corpus.write_dataset_csv", "tla.corpus", "write_dataset_csv"),
    ("corpus.read_dataset_csv", "tla.corpus", "read_dataset_csv"),
    ("analyze.aggregate_dataset", "tla.analyze", "aggregate_dataset"),
    ("analyze.render_report", "tla.analyze", "render_report"),
)

_HOOK = "trace.hook"


class _CountingLines:
    """Iterates a byte or text source, counting the nonblank lines it hands out.

    Given to generator targets (``read_jsonl(source, ...)``) in place of their
    source, so that lines read minus records yielded gives the bad lines.
    """

    def __init__(self, source, tracer):
        self._source = source
        self._tracer = tracer

    def __iter__(self):
        for line in self._source:
            if line.strip():
                self._tracer.count("ingest.lines")
            yield line


class Patches:
    """Swaps functions of the loaded tla package for wrappers, and back."""

    def __init__(self):
        self.absent: list = []
        self._restore: list = []

    def wrap(self, targets, make_wrapper) -> None:
        """Replace each target by ``make_wrapper(name, function)`` wherever a
        loaded ``tla`` module refers to it; note the targets that are gone."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "tla" or n.startswith("tla.")) and m is not None]
        for name, module_name, attr in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                self._set(owner, leaf, classmethod(make_wrapper(name, raw.__func__)))
                continue
            wrapper = make_wrapper(name, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, inspect.getattr_static(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


class PeakAlloc:
    """Peak memory that tracemalloc sees allocated during ``fit_forest``.

    Kept apart from the span tracer because tracemalloc slows the fit more
    than twofold: it runs on an in-process pass whose times are not used.
    """

    def __init__(self):
        self.peak_bytes = None
        self._patches = Patches()

    def __enter__(self) -> "PeakAlloc":
        self._patches.wrap([("langid.fit_forest", "tla.langid", "fit_forest")], self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes = max(self.peak_bytes or 0, peak)

        return wrapper


class Tracer:
    """In-memory span recorder plus counters keyed by (stage, name)."""

    def __init__(self):
        self.spans: list = []  # [id, name, start, end, parent, stage]
        self.counts: dict = defaultdict(float)
        self.stage = None
        self.absent: list = []
        #: layer -> error of a counting hook that no longer fits the program.
        self.broken: dict = {}
        self._stack: list = []
        self._patches = Patches()

    # -- spans and counters -------------------------------------------------

    def open(self, name: str) -> list:
        span = [len(self.spans), name, time.perf_counter(), None,
                self._stack[-1][0] if self._stack else None, self.stage]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.stage, name)] += value

    def counted(self, name: str, stage=None) -> float:
        return sum(v for (s, n), v in self.counts.items()
                   if n == name and (stage is None or s == stage))

    def _hook(self, name: str, hook, *args) -> None:
        if name in self.broken:
            return
        span = self.open(_HOOK)
        try:
            hook(self, *args)
        except Exception as exc:  # the program changed shape: its counts become absent
            self.broken[name] = repr(exc)
        finally:
            self.close(span)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            def wrapper(source, *args, **kwargs):
                inner = fn(_CountingLines(source, tracer), *args, **kwargs)
                while True:
                    span = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    tracer.count(name + ".items")
                    yield item
        else:
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if hook is not None:
                    tracer._hook(name, hook, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target that the loaded program still defines."""
        self._patches.wrap(TARGETS, self._wrap)
        self.absent = self._patches.absent

    def uninstall(self) -> None:
        self._patches.restore()

    # -- analysis -----------------------------------------------------------

    def busy(self, name: str, stage=None):
        """Summed duration of ``name`` spans, or None if none were recorded."""
        spans = [s for s in self.spans
                 if s[1] == name and (stage is None or s[5] == stage)]
        if not spans:
            return None
        return sum(s[3] - s[2] for s in spans)

    def calls(self, name: str, stages=None) -> int:
        return sum(1 for s in self.spans
                   if s[1] == name and (stages is None or s[5] in stages))

    def self_time(self, root: list) -> float:
        """Root span duration minus the time its direct child spans cover."""
        children = sum(s[3] - s[2] for s in self.spans if s[4] == root[0])
        return (root[3] - root[2]) - children

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for span_id, name, start, end, parent, stage in self.spans:
                sink.write(json.dumps({"id": span_id, "name": name, "start": start,
                                       "end": end, "parent": parent, "stage": stage}))
                sink.write("\n")


def _on_preprocess(tracer, args, tokens):
    tracer.count("preprocess.tokens", len(tokens))


def _on_vectorize(tracer, args, counts):
    vectorizer, text = args[0], args[1]
    tracer.count("langid.ngrams", sum(max(0, len(text) - n + 1)
                                      for n in range(vectorizer.n_min, vectorizer.n_max + 1)))
    tracer.count("langid.ngram_hits", sum(counts.values()))


def _on_label(tracer, args, label):
    tokens, weights = list(args[0]), args[1].weights
    tracer.count("sentiment.tokens", len(tokens))
    tracer.count("sentiment.hits", sum(1 for t in tokens if t in weights))
    if sum(weights.get(t, 0.0) for t in tokens) == 0:
        tracer.count("sentiment.ties")


def _on_save(tracer, args, n_bytes):
    model, vectorizer = args[0], args[1]
    tracer.count("langid.vocab_size", vectorizer.size)
    tracer.count("langid.tree_nodes", sum(len(t.feature) for t in model.trees))
    tracer.count("langid.model_bytes", n_bytes)


def _on_write_dataset(tracer, args, rows):
    tracer.count("corpus.bytes_written", args[1].tell())


_HOOKS = {
    "preprocess.preprocess_tweet": _on_preprocess,
    "langid.vectorize": _on_vectorize,
    "sentiment.label_sentiment": _on_label,
    "langid.save_model": _on_save,
    "corpus.write_dataset_csv": _on_write_dataset,
}
