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
from collections import Counter

import numpy as np
import pytest

from tla import ForestPredictor, LanguageCode, load_bundled_lexicon, score_tokens, synthetic_corpus
from tla.cli import run
from tla.corpus import read_table

#: The numpy version the digests were taken with.  The forest draws nothing
#: from ``numpy.random``: every draw is SplitMix64 over (seed, tree, node)
#: keys in uint64 arithmetic, so the digests depend on numpy only through
#: exact integer and IEEE float operations; CI keeps numpy pinned all the same.
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

MODEL_DIGEST = "884cd4fa844e7b963b3650aeb32468b80167dc96140b1b422a38365af42ec61c"

#: The model of the benchmark's ``train`` workload: 3,200 texts, 50 full-depth
#: trees that split on 3,081 of the fit's 6,351 n-grams, the ones it keeps.
BENCH_TRAIN_ARGV = (
    "train-langid", "--synthetic", "200", "--seed", "42", "--trees", "50",
    "--output", "bench.tlam",
)
BENCH_MODEL_DIGEST = "62f597032eb93d5bac533106d5bbbd167ddac8992926c28feb405daf1ba29f43"

CHAIN_DIGESTS = {
    "identify.stdout": "d438d52c527f7ba7802cad2ca4bc79ec6565e6b05c86a242edfb353816338f76",
    "chain.tlam": "443ca07f07dacf35ab5e6318b01b77166ba0bc43d33a25c29555705a825bb23e",
    "clean.csv": "7f92f5c09c2f0e23367505e254ce8395a86b2206606ece69f6a532b090bb124e",
    "identified.csv": "d8ca11daea21e6b97c874081a99fd14a4ea5b65ba61ca0070f4b2df01464e04c",
    "labeled/en.csv": "ca702e0d0324c6809373ce8d0dd28b3da0a7dea767da175c28cca54d24c07306",
    "labeled/es.csv": "54d4a5f419c91a31ca091348cbe6a907ad97c1f8207aa61b0ba73c654053ccb0",
    "labeled/fa.csv": "30362c1097becb1e4272fe8a77c69c9ab4ef6727c0f411460c72720fd42246da",
    "labeled/fr.csv": "e132d713f9ea93ac4dda7b3834ab038243d0f58cfef7dd83fec737055cf6c385",
    "labeled/hi.csv": "06fc51098c818982e6719930a4e0ae571563943df2b88710081097e9640d6ad0",
    "labeled/id.csv": "b21238e1e4765b4fe71da509acae836dc28f18a75c861abecd9786e9e175c748",
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
    "report.csv": "a518bf8f0149e7dee278996a680ba87a456826cd78642572e3aad38ba3354540",
    "report.md": "6be97fd8df8cd0f3d357aa345355e31f0364f8494d4b4687984b7de4aeb4c555",
    "report.txt": "dcfd5559e5c0c277fbd5c038dfd4823f6e69dbd79cc6f234f35c798868cc8d2e",
}


#: Digests of ``clean`` and of ``identify --output`` (which cleans each
#: relabeled row again in its new language) on the noisy tweets below.
NOISY_DIGESTS = {
    "noisy.csv": "6e6d92b1244a5bb764997c9c819d005f578422b06cb4907290b8c7c96fc29aac",
    "noisy-identified.csv": "fdd178d5e8dfdb0bcd5d75ddcf1fe167d8f81e0241bd882856b9e32494707498",
}

#: Noise for the noisy tweets: tags (a heart and comparisons are not tags),
#: links in mixed letter case, emoji with variation selectors, skin tones and
#: joiners, punctuation, capitals (a final sigma, casefold expansions) and
#: text in the unsegmented scripts.
NOISE = (
    "<b>", "</b>", '<a href="x">', "<br/>", "i <3 it", "a < b > c",
    "HTTPS://T.CO/Ab3", "hTtP://x.org/p?q=1", "WwW.Example.ORG/x", "httpſ://x", "www.x.co",
    "\u2764\ufe0f", "\U0001f468\u200d\U0001f469\u200d\U0001f467", "\U0001f44d\U0001f3fd",
    "!!!", "?!", "...", "«»", "—", "#Tag", "@Name", "$5", "9:30", "e.g.",
    "LOUD", "ΟΔΟΣ", "İstanbul", "Straße",
    "สวัสดีครับ", "你好，世界。", "私はAIが好き",
)


def _write_noisy_tweets(path, seed=20240602):
    """98 records: each of 96 synthetic sentences between two noise pieces,
    then a text holding a bare CR and one that cleaning empties."""
    records = []
    for i, (text, lang) in enumerate(synthetic_corpus(6, seed=seed)):
        before, after = NOISE[i % len(NOISE)], NOISE[(7 * i + 3) % len(NOISE)]
        records.append({"id": f"n{i}", "text": f"{before} {text}{after}", "lang": lang.value})
    records.append({"id": "cr", "text": "First line\rSecond line", "lang": "en"})
    records.append({"id": "emptied", "text": "<b>\U0001f600!!!</b> https://t.co/x", "lang": "en"})
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")


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


def _tla(*argv, stderr=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    assert code == 0, err.getvalue()
    assert stderr is None or err.getvalue() == stderr
    return out.getvalue()


def _assert_digests(outputs, expected):
    actual = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    wrong = sorted(name for name in actual.keys() | expected.keys()
                   if actual.get(name) != expected.get(name))
    assert not wrong, (
        f"outputs differ from their committed sha256 digests: {', '.join(wrong)}; "
        f"the digests were taken with numpy {DIGESTS_NUMPY} and Unicode "
        f"{DIGESTS_UNIDATA}, and this run has numpy {np.__version__} and "
        f"Unicode {unicodedata.unidata_version} "
        f"(Python {sys.version.split()[0]}), whose character categories may differ"
    )


def _tie_counts(path):
    """``label``'s expected stderr for the cleaned CSV at ``path``: each
    language's rows and those of lexicon score 0, by first appearance."""
    rows, ties = Counter(), Counter()
    with open(path, "rb") as source:
        for _, row in read_table(source):
            rows[row.lang] += 1
            ties[row.lang] += score_tokens(row.tokens, load_bundled_lexicon(row.lang)) == 0
    return "".join(f"labeled/{lang.value}.csv: {n} rows, {ties[lang]} by the tie label "
                   f"(score 0)\n" for lang, n in rows.items())


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
    data = (work / "bench.tlam").read_bytes()
    _assert_digests({"bench.tlam": data}, {"bench.tlam": BENCH_MODEL_DIGEST})
    resaved = io.BytesIO()
    ForestPredictor.load(io.BytesIO(data)).save(resaved)
    assert resaved.getvalue() == data


def test_chain_digests(work):
    _tla(*CHAIN_TRAIN_ARGV)
    _write_tweets(work / "tweets.jsonl")
    _tla("clean", "--input", "tweets.jsonl", "--output", "clean.csv")
    predictions = _tla("identify", "--model", "chain.tlam", "--input", "clean.csv")
    _tla("identify", "--model", "chain.tlam", "--input", "clean.csv",
         "--output", "identified.csv")
    _tla("label", "--input", "identified.csv", "--out-dir", "labeled",
         stderr=_tie_counts(work / "identified.csv"))
    labeled = sorted(p.relative_to(work).as_posix() for p in (work / "labeled").glob("*.csv"))
    for fmt, name in (("csv", "report.csv"), ("markdown", "report.md"), ("plain", "report.txt")):
        _tla("analyze", "--format", fmt, "--output", name, "--input", *labeled)
    names = ["chain.tlam", "clean.csv", "identified.csv", *labeled,
             "report.csv", "report.md", "report.txt"]
    outputs = {name: (work / name).read_bytes() for name in names}
    _assert_digests({"identify.stdout": predictions.encode("utf-8"), **outputs}, CHAIN_DIGESTS)


def test_noisy_clean_digests(work):
    _tla(*TRAIN_ARGV)
    _write_noisy_tweets(work / "noisy.jsonl")
    _tla("clean", "--input", "noisy.jsonl", "--output", "noisy.csv")
    # the emptied tweet and 16 whose n-grams the forest never splits on
    _tla("identify", "--model", "model.tlam", "--input", "noisy.csv",
         "--output", "noisy-identified.csv",
         stderr="98 rows, 17 kept their own lang (no evidence)\n")
    _assert_digests({name: (work / name).read_bytes() for name in NOISY_DIGESTS},
                    NOISY_DIGESTS)


def test_digest_failure_names_the_library_versions():
    with pytest.raises(AssertionError) as exc:
        _assert_digests({"x": b""}, {"x": "0" * 64})
    message = str(exc.value)
    assert f"numpy {np.__version__}" in message
    assert f"Unicode {unicodedata.unidata_version}" in message
    assert f"Unicode {DIGESTS_UNIDATA}" in message
