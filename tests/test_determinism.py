"""The determinism contract as a committed check.

The same argv, input files and assets must give byte-identical CSVs, reports
and ``.tlam`` files.  Every output below is compared with a committed sha256
digest.  The commands run in a working directory holding only a decoy
``tla.conf``: no file there is read implicitly, so it must change nothing.
Changing a digest is a deliberate format or behaviour change.
"""

import hashlib
import io
import json
import sys
import unicodedata

import numpy as np
import pytest

from tla import LanguageCode, load_bundled_lexicon, synthetic_corpus
from tla.cli import run

#: The numpy version the digests were taken with.  ``numpy.random.Generator``
#: streams may change between numpy releases, and the forest draws from them.
DIGESTS_NUMPY = "2.4.6"
#: The Unicode database (Python 3.11) the digests were taken with.  Cleaning
#: reads its categories (through the symbol and punctuation translate table),
#: and lowercasing and casefolding its case mappings.
DIGESTS_UNIDATA = "14.0.0"

TRAIN_ARGV = (
    "train-langid", "--synthetic", "50", "--seed", "7", "--trees", "5",
    "--max-depth", "6", "--features-per-split", "30", "--ngram-max", "4",
    "--output", "model.tlam",
)
#: A model with default depth and more trees, so the chain's predictions
#: and confidences come from a forest that mostly gets the language right.
CHAIN_TRAIN_ARGV = (
    "train-langid", "--synthetic", "60", "--seed", "7", "--trees", "12",
    "--output", "chain.tlam",
)

MODEL_DIGEST = "68433e8a4023c670bc5f8fe9e65da0f86d7a5293061f87cd3fd88df18085f4eb"

#: The model of the benchmark's ``train`` workload: 3,200 texts, vocabulary
#: 6,351, 50 full-depth trees.
BENCH_TRAIN_ARGV = (
    "train-langid", "--synthetic", "200", "--seed", "42", "--trees", "50",
    "--output", "bench.tlam",
)
BENCH_MODEL_DIGEST = "3a4cc53b39d0f050faff31ff5d246aac2a3a983bf60ab79f9d4fb98b0b84310b"

CHAIN_DIGESTS = {
    "identify.stdout": "d7a2c8d0b533e7f1bffdd8ee462577672b69dbe03c7eef9400e7e8c499d57b7c",
    "chain.tlam": "b2567b5af3f11457409a57a0074b351764f4bfcbfb25d141698b60b3ef1e94e1",
    "clean.csv": "7f92f5c09c2f0e23367505e254ce8395a86b2206606ece69f6a532b090bb124e",
    "identified.csv": "1008b20a2df7e897268323095f1b0884dd5afdc18e5eb42396b74e183df3159b",
    "labeled/en.csv": "ca702e0d0324c6809373ce8d0dd28b3da0a7dea767da175c28cca54d24c07306",
    "labeled/es.csv": "54d4a5f419c91a31ca091348cbe6a907ad97c1f8207aa61b0ba73c654053ccb0",
    "labeled/fa.csv": "30362c1097becb1e4272fe8a77c69c9ab4ef6727c0f411460c72720fd42246da",
    "labeled/fr.csv": "66a4fa3cd15b48663362f54a333716d7135d9bd2c1b2ef67b3a522a841d2552d",
    "labeled/hi.csv": "06fc51098c818982e6719930a4e0ae571563943df2b88710081097e9640d6ad0",
    "labeled/id.csv": "cdbd3bfe5252773a4a0911dc53a7c9db5efd02753866795555f8d4aa41f5bf4b",
    "labeled/ja.csv": "87692ba3f6b07e00f3318c59bdc7224b0aa809c2c570a54a9f473db18216539e",
    "labeled/nl.csv": "7187b328ca605ac8790d3da42891473592eb809cdf1df0cd38655fd6e01faca9",
    "labeled/pt.csv": "fb2dc263bbb5d62cbb8a77394590f49a90b3db8be0a14f7a8f246eab42dfa01e",
    "labeled/ro.csv": "c3d63a7be04a85e1d0a947f000a748ec18d7bdd8754eb985fdc80c083fd602c0",
    "labeled/ru.csv": "3f11c49e30129af02df61936c3196f5663ea8ec3d294f15ecdc861118ffc9d2c",
    "labeled/sv.csv": "24eb98759afc6cc93cc773a6422a7a29ca12766d8910de52bd9ad87e5e9562a0",
    "labeled/th.csv": "196e561dd88882d4c6571d3498b470488e81625cc64a585866ab1c30ca75c354",
    "labeled/tr.csv": "f2364648afdde6ff87bf375f9caf6b10f606f0662e04d3835c4d6154adad3b63",
    "labeled/ur.csv": "1cfb1ca158b759d9827d044e6e88184636be35a213c75bdd5d08e4edd4854e65",
    "labeled/zh.csv": "d904b9a3d48d420ff35963d00f8bb770de473cd2a75330c8ed82f2d3204a114a",
    "report.csv": "ec8bc5b208d98b7f45935f768e058e097e59e45bcb1a7e97a2f60a1adea7e4b0",
    "report.md": "0d5b8dfe192b79505daa976ad8bccbdc4f7d4c7057c2752cb38bba82c6a87aad",
    "report.txt": "cd6ffe6b80e9e3639342ce45ff445ecce6d22109b40e1bf6d2a673222da616e1",
}


def _write_tweets(path, per_language=6, seed=20240601):
    """A small JSONL from the synthetic corpus: every fourth ``lang`` hint is
    wrong, and each text gets one lexicon word so both labels occur."""
    langs = tuple(LanguageCode)
    polar = {}
    for lang in langs:
        weights = load_bundled_lexicon(lang).weights
        polar[lang] = (
            sorted(t for t, w in weights.items() if w > 0),
            sorted(t for t, w in weights.items() if w < 0),
        )
    lines = []
    for i, (text, lang) in enumerate(synthetic_corpus(per_language, seed=seed)):
        words = polar[lang][i % 2]
        if words:
            text = f"{text} {words[i % len(words)]}"
        hint = langs[(langs.index(lang) + 1) % len(langs)] if i % 4 == 0 else lang
        lines.append(json.dumps({"id": str(i), "text": text, "lang": hint.value},
                                ensure_ascii=False))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tla(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def _assert_digests(outputs, expected):
    actual = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    wrong = sorted(name for name in actual.keys() | expected.keys()
                   if actual.get(name) != expected.get(name))
    assert not wrong, (
        f"outputs differ from their committed sha256 digests: {', '.join(wrong)}; "
        f"the digests were taken with numpy {DIGESTS_NUMPY} and Unicode "
        f"{DIGESTS_UNIDATA}, and this run has numpy {np.__version__}, whose "
        f"Generator streams may differ, and Unicode {unicodedata.unidata_version} "
        f"(Python {sys.version.split()[0]}), whose character categories may differ"
    )


@pytest.fixture()
def work(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tla.conf").write_text("min_df=1\ntie_label=Negative\n", encoding="utf-8")
    return tmp_path


def test_model_digest(work):
    _tla(*TRAIN_ARGV)
    _assert_digests({"model.tlam": (work / "model.tlam").read_bytes()},
                    {"model.tlam": MODEL_DIGEST})


def test_bench_model_digest(work):
    _tla(*BENCH_TRAIN_ARGV)
    _assert_digests({"bench.tlam": (work / "bench.tlam").read_bytes()},
                    {"bench.tlam": BENCH_MODEL_DIGEST})


def test_chain_digests(work):
    _tla(*CHAIN_TRAIN_ARGV)
    _write_tweets(work / "tweets.jsonl")
    _tla("clean", "--input", "tweets.jsonl", "--output", "clean.csv")
    predictions = _tla("identify", "--model", "chain.tlam", "--input", "clean.csv")
    _tla("identify", "--model", "chain.tlam", "--input", "clean.csv",
         "--output", "identified.csv")
    _tla("label", "--input", "identified.csv", "--out-dir", "labeled")
    labeled = sorted(p.relative_to(work).as_posix() for p in (work / "labeled").glob("*.csv"))
    for fmt, name in (("csv", "report.csv"), ("markdown", "report.md"), ("plain", "report.txt")):
        _tla("analyze", "--format", fmt, "--output", name, "--input", *labeled)
    names = ["chain.tlam", "clean.csv", "identified.csv", *labeled,
             "report.csv", "report.md", "report.txt"]
    outputs = {name: (work / name).read_bytes() for name in names}
    _assert_digests({"identify.stdout": predictions.encode("utf-8"), **outputs}, CHAIN_DIGESTS)


def test_digest_failure_names_the_library_versions():
    with pytest.raises(AssertionError) as exc:
        _assert_digests({"x": b""}, {"x": "0" * 64})
    message = str(exc.value)
    assert f"numpy {np.__version__}" in message
    assert f"Unicode {unicodedata.unidata_version}" in message
    assert f"Unicode {DIGESTS_UNIDATA}" in message
