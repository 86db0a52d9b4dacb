import csv
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tla
import tla.cli
import tla.corpus
import tla.langid
from tla.cli import run
from tla.corpus import LanguageCode, read_dataset_csv
from tla.preprocess import StopwordTable, preprocess_tweet

JSONL = (
    '{"id":"1","text":"The best day ever","lang":"en","likeCount":9100,"replyCount":3}\n'
    '{"id":"2","text":"Я люблю кофе и хороший хлеб","lang":"ru","likeCount":9500,"replyCount":1}\n'
    '{"id":"3","text":"qué día tan bueno","lang":"es","likeCount":10000,"replyCount":2}\n'
)


#: Texts with no character n-gram in the test model's vocabulary: cleaning
#: removes emoji, punctuation and URLs, and no n-gram of these digits is in it.
NO_EVIDENCE = ["😀 !!!", "12345", "https://t.co/abc123"]


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_query_example(self):
        code, out, err = invoke(
            "query", "--lang", "en", "--min-faves", "9000", "--has-engagement"
        )
        assert code == 0
        assert out == "min_faves:9000 filter:has_engagement lang:en\n"
        assert err == ""

    def test_unknown_subcommand_is_usage_error(self):
        code, out, err = invoke("frobnicate")
        assert code == 2
        assert out == ""
        assert "usage" in err

    def test_missing_input_file_is_data_error(self):
        code, out, err = invoke("analyze", "--input", "missing.csv")
        assert code == 1
        assert "missing.csv" in err
        assert out == ""

    def test_unknown_flag_is_usage_error(self):
        code, _, err = invoke("query", "--lang", "en", "--frums", "3")
        assert code == 2
        assert "usage" in err

    def test_bad_language_is_usage_error(self, tmp_path):
        codes = ", ".join(repr(lang.value) for lang in LanguageCode)
        for argv in (["query"], ["clean", "--input", str(tmp_path / "t.jsonl")]):
            code, out, err = invoke(*argv, "--lang", "xx")
            assert (code, out) == (2, "")
            assert err.splitlines()[-1] == (
                f"tla {argv[0]}: error: argument --lang: invalid choice: 'xx' (choose from {codes})"
            )

    def test_ngram_min_above_ngram_max_is_usage_error(self, tmp_path):
        code, out, err = invoke("train-langid", "--seed", "1", "--output", str(tmp_path / "m.tlam"),
                                "--ngram-min", "3", "--ngram-max", "2")
        assert (code, out) == (2, "")
        assert err == "usage error: --ngram-min 3 is greater than --ngram-max 2\n"
        assert not any(tmp_path.iterdir())

    def test_query_has_no_max_results_flag(self):
        code, out, err = invoke("query", "--lang", "en", "--max-results", "5")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "tla: error: unrecognized arguments: --max-results 5"

    def test_missing_required_flag(self):
        code, _, err = invoke("query")
        assert code == 2
        assert "--lang" in err

    @pytest.mark.parametrize("command, flag, minimum", [
        ("query", "--min-faves", 0),
        ("train-langid", "--synthetic", 1),
        ("train-langid", "--trees", 1),
        ("train-langid", "--max-depth", 1),
        ("train-langid", "--min-samples-split", 2),
        ("train-langid", "--features-per-split", 1),
        ("train-langid", "--ngram-min", 1),
        ("train-langid", "--ngram-max", 1),
        ("train-langid", "--min-df", 1),
    ])
    def test_out_of_range_flag_is_usage_error(self, command, flag, minimum, tmp_path):
        required = {"query": ["--lang", "en"],
                    "train-langid": ["--seed", "1", "--output", str(tmp_path / "m.tlam")]}
        code, out, err = invoke(command, *required[command], flag, str(minimum - 1))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"tla {command}: error: argument {flag}: must be >= {minimum}, got {minimum - 1}"
        )
        assert not any(tmp_path.iterdir())

    def test_no_subcommand(self):
        code, _, err = invoke()
        assert code == 2


class TestQuery:
    def test_no_engagement_no_faves(self):
        code, out, _ = invoke("query", "--lang", "hi", "--min-faves", "0",
                              "--no-has-engagement")
        assert code == 0
        assert out == "lang:hi\n"

    def test_defaults(self):
        code, out, _ = invoke("query", "--lang", "zh")
        assert out == "min_faves:9000 filter:has_engagement lang:zh\n"


class TestClean:
    def test_stdout_csv(self, tmp_path):
        src = tmp_path / "tweets.jsonl"
        src.write_text(JSONL, encoding="utf-8")
        code, out, err = invoke("clean", "--input", str(src))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "id,lang,text,tokens"
        assert lines[1] == "1,en,The best day ever,best day ever"
        assert "2,ru," in lines[2] and "люблю кофе хороший хлеб" in lines[2]
        assert err == "3 rows\n"

    def test_output_file(self, tmp_path):
        src = tmp_path / "tweets.jsonl"
        src.write_text(JSONL, encoding="utf-8")
        dst = tmp_path / "clean.csv"
        code, out, err = invoke("clean", "--input", str(src), "--output", str(dst))
        assert code == 0
        assert out == ""
        assert dst.read_text(encoding="utf-8").splitlines()[0] == "id,lang,text,tokens"

    def test_missing_lang_hint_without_fallback(self, tmp_path):
        src = tmp_path / "tweets.jsonl"
        src.write_text('{"id":"1","text":"hi","lang":"en"}\n{"id":"2","text":"hello"}\n',
                       encoding="utf-8")
        message = (f"error: {src}: line 2: tweet 2: record has no lang field "
                   "and no --lang fallback was given\n")
        for skip in ([], ["--skip-bad-lines"]):
            assert invoke("clean", "--input", str(src), *skip) == (1, "", message)

    def test_lang_fallback(self, tmp_path):
        src = tmp_path / "tweets.jsonl"
        src.write_text('{"id":"1","text":"hello there"}\n', encoding="utf-8")
        code, out, _ = invoke("clean", "--input", str(src), "--lang", "en")
        assert code == 0
        assert out.splitlines()[1].startswith("1,en,")

    def test_bad_line_is_error_unless_skipped(self, tmp_path):
        src = tmp_path / "tweets.jsonl"
        for record, message in [
            ('{"id":"1"}', "missing required field(s): text"),
            ('{"id":1.5,"text":"hello"}', "BadType(id)"),
            ('{"id":"2","text":5}', "BadType(text)"),
            ('{"id":null,"text":null}', "BadType(id); BadType(text)"),
            ('{"id":"","text":" "}', "EmptyId; EmptyText"),
            ('{"id":"4","text":"hi","replyCount":"5"}', "BadType(reply_count)"),
        ]:
            src.write_text(record + "\n" + JSONL, encoding="utf-8")
            assert invoke("clean", "--input", str(src)) == (
                1, "", f"error: {src}: line 1: {message}\n")
            code, out, err = invoke("clean", "--input", str(src), "--skip-bad-lines")
            assert (code, err) == (0, "3 rows\n")
            assert [line.split(",")[0] for line in out.splitlines()] == ["id", "1", "2", "3"]


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "small.tlam"
    code, out, err = invoke(
        "train-langid", "--synthetic", "60", "--seed", "7", "--trees", "12",
        "--output", str(path),
    )
    assert code == 0, err
    assert out == ""
    return path


class TestTrainAndIdentify:
    def test_seed_required(self, tmp_path):
        code, _, err = invoke("train-langid", "--output", str(tmp_path / "m.tlam"))
        assert code == 2
        assert "--seed" in err

    def test_output_required(self):
        code, _, err = invoke("train-langid", "--seed", "3")
        assert code == 2
        assert "--output" in err

    def test_corpus_and_synthetic_exclusive(self, tmp_path):
        for n in ["10", "200"]:  # 200 is also the default
            code, _, err = invoke(
                "train-langid", "--seed", "3", "--output", str(tmp_path / "m.tlam"),
                "--corpus", "x.csv", "--synthetic", n,
            )
            assert code == 2
            assert "argument --synthetic: not allowed with argument --corpus" in err

    def test_training_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tlam", tmp_path / "b.tlam"
        for path in (a, b):
            code, _, err = invoke(
                "train-langid", "--synthetic", "25", "--seed", "11", "--trees", "5",
                "--output", str(path),
            )
            assert code == 0, err
        assert a.read_bytes() == b.read_bytes()

    def test_empty_vocabulary_names_the_corpus_and_the_flag(self, tmp_path):
        corpus, model = tmp_path / "one.csv", tmp_path / "m.tlam"
        corpus.write_text("id,lang,text,tokens\n1,en,good day,good day\n", encoding="utf-8")
        assert invoke("train-langid", "--corpus", str(corpus), "--seed", "1",
                      "--output", str(model)) == (
            1, "", f"error: {corpus}: no n-gram reached document frequency 2; lower --min-df\n")
        assert invoke("train-langid", "--synthetic", "1", "--min-df", "1000", "--seed", "1",
                      "--output", str(model)) == (
            1, "", "error: --synthetic 1: no n-gram reached document frequency 1000; "
                   "lower --min-df\n")
        assert not model.exists()

    def test_corpus_with_no_data_rows_is_an_error(self, tmp_path):
        corpus, model = tmp_path / "header.csv", tmp_path / "m.tlam"
        corpus.write_text("id,lang,text,tokens\n", encoding="utf-8")
        assert invoke("train-langid", "--corpus", str(corpus), "--seed", "1",
                      "--output", str(model)) == (
            1, "", f"error: {corpus}: corpus file has no data rows\n")
        assert not model.exists()

    def test_no_ngram_at_min_df_1_says_why(self, tmp_path):
        # --min-df cannot go below 1, so its hint would not help here
        corpus, model = tmp_path / "emo.csv", tmp_path / "m.tlam"
        corpus.write_text("id,lang,text,tokens\n1,en,😀🎉,x\n2,fr,!!! ...,x\n",
                          encoding="utf-8")
        assert invoke("train-langid", "--seed", "1", "--trees", "2", "--min-df", "1",
                      "--corpus", str(corpus), "--output", str(model)) == (
            1, "", f"error: {corpus}: no text keeps a character n-gram after cleaning\n")
        assert not model.exists()

    def test_identify_text(self, model_file):
        code, out, err = invoke("identify", "--model", str(model_file),
                                "--text", "the train was late again this morning")
        assert code == 0
        lang, confidence = out.split()
        assert lang == "en"
        assert 0.0 < float(confidence) <= 1.0

    @pytest.mark.parametrize("text", NO_EVIDENCE)
    def test_identify_text_with_no_evidence_is_an_error(self, model_file, text):
        assert invoke("identify", "--model", str(model_file), "--text", text) == (
            1, "", "error: --text: no character n-gram of the text is in the model's "
                   "vocabulary\n")

    def test_identify_keeps_the_lang_of_a_row_with_no_evidence(self, model_file, tmp_path):
        # clean keeps these tweets as rows; identify has no vote for them
        src, cleaned = tmp_path / "tweets.jsonl", tmp_path / "clean.csv"
        src.write_text(JSONL + "".join(
            json.dumps({"id": str(4 + i), "text": text, "lang": lang}) + "\n"
            for i, (text, lang) in enumerate(zip(NO_EVIDENCE, ["fr", "nl", "sv"]))
        ), encoding="utf-8")
        assert invoke("clean", "--input", str(src), "--output", str(cleaned))[0] == 0
        code, out, err = invoke("identify", "--model", str(model_file), "--input", str(cleaned))
        assert (code, err) == (0, "6 rows, 3 kept their own lang (no evidence)\n")
        assert out.splitlines()[4:] == ["4,fr,0.0000", "5,nl,0.0000", "6,sv,0.0000"]
        identified = tmp_path / "identified.csv"
        assert invoke("identify", "--model", str(model_file), "--input", str(cleaned),
                      "--output", str(identified)) == (
            0, "", "6 rows, 3 kept their own lang (no evidence)\n")
        assert (identified.read_text(encoding="utf-8").splitlines()[4:]
                == cleaned.read_text(encoding="utf-8").splitlines()[4:])

    def test_a_forest_that_never_splits_gives_no_evidence(self, tmp_path):
        # Above the corpus size, --min-samples-split leaves every tree a lone
        # leaf, so the model keeps no n-gram and every row keeps its lang.
        model = tmp_path / "leaves.tlam"
        code, out, err = invoke("train-langid", "--synthetic", "5", "--seed", "7", "--trees",
                                "3", "--min-samples-split", "1000", "--output", str(model))
        assert (code, out) == (0, "")
        assert err.startswith("80 texts, vocabulary 0, ")
        assert invoke("identify", "--model", str(model), "--text", "the train was late") == (
            1, "", "error: --text: no character n-gram of the text is in the model's "
                   "vocabulary\n")
        src, cleaned = tmp_path / "tweets.jsonl", tmp_path / "clean.csv"
        src.write_text(JSONL, encoding="utf-8")
        assert invoke("clean", "--input", str(src), "--output", str(cleaned))[0] == 0
        code, out, err = invoke("identify", "--model", str(model), "--input", str(cleaned))
        assert (code, err) == (0, "3 rows, 3 kept their own lang (no evidence)\n")
        assert out.splitlines() == ["id,lang,confidence", "1,en,0.0000", "2,ru,0.0000",
                                    "3,es,0.0000"]
        identified = tmp_path / "identified.csv"
        assert invoke("identify", "--model", str(model), "--input", str(cleaned),
                      "--output", str(identified)) == (
            0, "", "3 rows, 3 kept their own lang (no evidence)\n")
        assert identified.read_bytes() == cleaned.read_bytes()

    def test_identify_requires_text_xor_input(self, model_file, tmp_path):
        code, _, err = invoke("identify", "--model", str(model_file))
        assert code == 2
        assert "one of the arguments --text --input is required" in err
        code, _, err = invoke("identify", "--model", str(model_file), "--text", "x",
                              "--input", "y.csv")
        assert code == 2
        assert "argument --input: not allowed with argument --text" in err
        output = tmp_path / "y.csv"
        assert invoke("identify", "--model", str(model_file), "--text", "x",
                      "--output", str(output)) == (
            2, "", "usage error: identify --output needs --input, not --text\n")
        assert not output.exists()

    @pytest.mark.parametrize("text", ["", "   ", "\t\n"])
    def test_blank_text_is_a_usage_error(self, model_file, text):
        # identify --input rejects the same text in a row as "empty text"
        code, out, err = invoke("identify", "--model", str(model_file), "--text", text)
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --text: must not be blank\n")

    def test_longest_ngram_beyond_every_text_predicts_as_before(self, model_file, tmp_path):
        # No n-gram is longer than its text, so n_max = 10**8 counts nothing
        # more; each run must not take a pass per length either.
        data = model_file.read_bytes()
        end = 9 + int.from_bytes(data[5:9], "little")  # the JSON header's
        header = json.loads(data[9:end].decode("utf-8"))
        header["n_max"] = 10**8
        edited = json.dumps(header).encode("utf-8")
        (tmp_path / "edited.tlam").write_bytes(
            data[:5] + len(edited).to_bytes(4, "little") + edited + data[end:])
        text = "hello world, what a day"
        result = _python_m_tla("identify", "--model", "edited.tlam", "--text", text,
                               cwd=tmp_path, timeout=20)
        expected = invoke("identify", "--model", str(model_file), "--text", text)
        assert (result.returncode, result.stdout, result.stderr) == expected
        result = _python_m_tla("train-langid", "--synthetic", "2", "--trees", "1", "--seed", "1",
                               "--ngram-max", "100000000", "--output", "m.tlam",
                               cwd=tmp_path, timeout=20)
        assert result.returncode == 0, result.stderr

    def test_identify_bad_model_file(self, model_file, tmp_path):
        bad = tmp_path / "bad.tlam"
        bad.write_bytes(b"NOPE")
        code, _, err = invoke("identify", "--model", str(bad), "--text", "hi")
        assert (code, err) == (1, f"error: {bad}: bad magic bytes (expected b'TLAM')\n")
        (tmp_path / "truncated.tlam").write_bytes(model_file.read_bytes()[:-1])
        result = _python_m_tla("identify", "--model", "truncated.tlam", "--text", "hi",
                               cwd=tmp_path)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith(
            "error: truncated.tlam: corrupt model payload: header states ")
        assert result.stderr.count("\n") == 1  # one line, no traceback

    def test_identify_version_one_model_says_to_retrain(self, tmp_path):
        old = tmp_path / "old.tlam"
        for version in (1, 2, 3):  # canonical JSON, preorder nodes, float thresholds
            old.write_bytes(b"TLAM" + bytes([version]) + b"{}")
            assert invoke("identify", "--model", str(old), "--text", "hi") == (
                1, "", f"error: {old}: unsupported model version {version:#04x}; "
                       "retrain the model with tla train-langid\n")

    def test_identify_rewrites_clean_csv(self, model_file, tmp_path):
        src = tmp_path / "tweets.jsonl"
        src.write_text(JSONL, encoding="utf-8")
        cleaned = tmp_path / "clean.csv"
        identified = tmp_path / "identified.csv"
        assert invoke("clean", "--input", str(src), "--output", str(cleaned))[0] == 0
        code, out, err = invoke(
            "identify", "--model", str(model_file), "--input", str(cleaned),
            "--output", str(identified),
        )
        assert code == 0
        header, *rows = identified.read_text(encoding="utf-8").splitlines()
        assert header == "id,lang,text,tokens"
        assert len(rows) == 3

    def test_identify_predictions_to_stdout(self, model_file, tmp_path):
        src = tmp_path / "tweets.jsonl"
        src.write_text(JSONL, encoding="utf-8")
        cleaned = tmp_path / "clean.csv"
        invoke("clean", "--input", str(src), "--output", str(cleaned))
        code, out, err = invoke("identify", "--model", str(model_file),
                                "--input", str(cleaned))
        assert (code, err) == (0, "3 rows, 0 kept their own lang (no evidence)\n")
        lines = out.splitlines()
        assert lines[0] == "id,lang,confidence"
        assert len(lines) == 4


#: Each subcommand's required flags, as its usage line shows them.
REQUIRED_FLAGS = {
    "query": ["--lang CODE"],
    "clean": ["--input PATH"],
    "train-langid": ["--seed SEED", "--output PATH"],
    "identify": ["--model PATH", "(--text TEXT | --input PATH)"],
    "label": ["--input PATH", "--out-dir DIR"],
    "analyze": ["--input PATH [PATH ...]"],
}


@pytest.mark.parametrize("command", REQUIRED_FLAGS)
def test_help_usage_lists_the_required_flags(command):
    code, out, err = invoke(command, "--help")
    assert (code, err) == (0, "")
    usage = " ".join(out.split("\n\n")[0].split())
    assert usage.startswith(f"usage: tla {command} ")
    for flag in REQUIRED_FLAGS[command]:
        assert f" {flag}" in usage and f"[{flag}" not in usage, (flag, usage)


class TestLabelAndAnalyze:
    @pytest.fixture()
    def cleaned(self, tmp_path):
        src = tmp_path / "tweets.jsonl"
        src.write_text(JSONL, encoding="utf-8")
        path = tmp_path / "clean.csv"
        assert invoke("clean", "--input", str(src), "--output", str(path))[0] == 0
        return path

    def test_label_groups_by_language(self, cleaned, tmp_path):
        out_dir = tmp_path / "labeled"
        code, out, err = invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["en.csv", "es.csv", "ru.csv"]
        with open(out_dir / "en.csv", "rb") as handle:
            [row] = read_dataset_csv(handle)
        assert row.lang is LanguageCode.EN
        assert row.label.value == "Positive"  # "best" is positive

    def test_tie_label_flag(self, tmp_path):
        src = tmp_path / "t.jsonl"
        src.write_text('{"id":"1","text":"zzz qqq","lang":"en"}\n', encoding="utf-8")
        cleaned = tmp_path / "c.csv"
        invoke("clean", "--input", str(src), "--output", str(cleaned))
        out_dir = tmp_path / "labeled"
        invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir),
               "--tie-label", "Negative")
        with open(out_dir / "en.csv", "rb") as handle:
            [row] = read_dataset_csv(handle)
        assert row.label.value == "Negative"

    @pytest.mark.parametrize("tie", ["Positive", "Negative"])
    def test_label_counts_the_rows_it_gives_the_tie_label(self, tie, tmp_path):
        # Score 0 three ways: no lexicon word, weights that cancel, no token.
        cleaned = tmp_path / "c.csv"
        cleaned.write_text("id,lang,text,tokens\n"
                           "1,en,zzz qqq,zzz qqq\n"
                           "2,en,good bad,good bad\n"
                           "3,fr,bon jour,bon jour\n"
                           "4,en,!!!,\n"
                           "5,en,good day,good day\n"
                           "6,fr,rien,rien\n", encoding="utf-8")
        out_dir = tmp_path / "labeled"
        code, out, err = invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir),
                                "--tie-label", tie)
        assert (code, out, err) == (0, "", f"{out_dir / 'en.csv'}: 4 rows, 3 by the tie label "
                                           f"(score 0)\n{out_dir / 'fr.csv'}: 2 rows, 1 by the "
                                           f"tie label (score 0)\n")
        with open(out_dir / "en.csv", "rb") as handle:
            labels = [row.label.value for row in read_dataset_csv(handle)]
        assert labels == [tie, tie, tie, "Positive"]

    def test_analyze_end_of_chain(self, cleaned, tmp_path):
        out_dir = tmp_path / "labeled"
        invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir))
        files = sorted(str(p) for p in out_dir.iterdir())
        code, out, err = invoke("analyze", "--format", "csv", "--input", *files)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("Language,")
        assert [line.split(",")[0] for line in lines[1:]] == ["English", "Spanish", "Russian"]

    def test_analyze_sums_files_of_one_language(self, tmp_path):
        header = "id,lang,text,tokens,label\n"
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(header + "1,en,good,good,Positive\n2,en,bad,bad,Negative\n",
                         encoding="utf-8")
        second.write_text(header + "3,en,good,good,Positive\n", encoding="utf-8")
        code, out, err = invoke("analyze", "--format", "csv", "--input", str(first),
                                str(second))
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["English,3,66.66,33.33"]

    def test_analyze_header_only_file_is_an_error(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("id,lang,text,tokens,label\n", encoding="utf-8")
        assert invoke("analyze", "--input", str(path)) == (
            1, "", f"error: {path}: line 1: empty dataset file: its language cannot be told\n")

    def test_analyze_deterministic(self, cleaned, tmp_path):
        out_dir = tmp_path / "labeled"
        invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir))
        files = sorted(str(p) for p in out_dir.iterdir())
        first = invoke("analyze", "--format", "markdown", "--input", *files)
        second = invoke("analyze", "--format", "markdown", "--input", *files)
        assert first == second

    def test_analyze_output_file(self, cleaned, tmp_path):
        out_dir = tmp_path / "labeled"
        invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir))
        report = tmp_path / "report.csv"
        code, out, _ = invoke("analyze", "--format", "csv", "--output", str(report),
                              "--input", str(out_dir / "en.csv"))
        assert code == 0
        assert out == ""
        assert report.read_text(encoding="utf-8").splitlines()[1].startswith("English,")

    def test_label_removes_datasets_of_languages_not_in_input(self, tmp_path):
        both, english = tmp_path / "both.csv", tmp_path / "english.csv"
        header = "id,lang,text,tokens\n"
        both.write_text(header + "1,en,good day,good day\n2,fr,bon jour,bon jour\n",
                        encoding="utf-8")
        english.write_text(header + "1,en,good day,good day\n", encoding="utf-8")
        out_dir = tmp_path / "labeled"
        out_dir.mkdir()
        notes = out_dir / "notes.txt"
        notes.write_text("kept", encoding="utf-8")
        assert invoke("label", "--input", str(both), "--out-dir", str(out_dir))[0] == 0
        assert (out_dir / "fr.csv").exists()
        code, _, err = invoke("label", "--input", str(english), "--out-dir", str(out_dir))
        assert code == 0, err
        stale = out_dir / "fr.csv"
        assert f"{stale}: removed, no fr rows in this input\n" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["en.csv", "notes.txt"]
        assert notes.read_text(encoding="utf-8") == "kept"
        files = sorted(str(p) for p in out_dir.glob("*.csv"))
        code, out, _ = invoke("analyze", "--format", "csv", "--input", *files)
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["English"]

    @pytest.mark.parametrize("spelling", ["labeled/fr.csv", "labeled/../labeled/./fr.csv"])
    def test_label_never_removes_its_input(self, spelling, tmp_path):
        out_dir = tmp_path / "labeled"
        out_dir.mkdir()
        data = "id,lang,text,tokens\n1,en,good day,good day\n"
        (out_dir / "fr.csv").write_text(data, encoding="utf-8")
        code, out, err = invoke("label", "--input", str(tmp_path / spelling),
                                "--out-dir", str(out_dir))
        assert (code, out, err) == (
            0, "", f"{out_dir / 'en.csv'}: 1 rows, 0 by the tie label (score 0)\n")
        assert (out_dir / "fr.csv").read_text(encoding="utf-8") == data
        assert sorted(p.name for p in out_dir.iterdir()) == ["en.csv", "fr.csv"]

    def test_analyze_rejects_an_id_counted_in_an_earlier_file(self, cleaned, tmp_path):
        out_dir = tmp_path / "labeled"
        invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir))
        english = out_dir / "en.csv"
        code, out, err = invoke("analyze", "--input", str(english), str(english))
        assert (code, out) == (1, "")
        assert err == f"error: {english}: line 2: duplicate id '1'\n"
        other = tmp_path / "other.csv"
        other.write_text("id,lang,text,tokens,label\n9,es,bueno,bueno,Positive\n"
                         "1,es,malo,malo,Negative\n", encoding="utf-8")
        code, out, err = invoke("analyze", "--input", str(english), str(other))
        assert (code, out) == (1, "")
        assert err == f"error: {other}: line 3: duplicate id '1'\n"


@contextmanager
def _peak_alloc(peaks):
    """Append to ``peaks`` the tracemalloc peak of the block.  Garbage is
    collected first, so every run starts with the collector's counts at zero
    and frees the block's own cyclic garbage at the same points."""
    gc.collect()
    tracemalloc.start()
    try:
        yield
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def _clean_rows(n):
    texts = ["the train was late again this morning", "le marché ouvre le samedi",
             "el mercado abre el sábado por la mañana", "de trein was weer te laat"]
    rows = "".join(f"{i},en,{texts[i % 4]} {i},{texts[i % 4]} {i}\n" for i in range(n))
    return "id,lang,text,tokens\n" + rows


def _labeled_rows(n):
    header, *rows = _clean_rows(n).splitlines()
    labels = ("Positive", "Negative")
    return f"{header},label\n" + "".join(f"{row},{labels[i % 2]}\n"
                                         for i, row in enumerate(rows))


class TestCommittedOutputs:
    """clean, identify and analyze write their output only when they succeed."""

    @staticmethod
    def _failing_runs(tmp_path, model_file):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text(JSONL + '{"id":"9"}\n', encoding="utf-8")
        table = tmp_path / "bad.csv"
        table.write_text(_clean_rows(600) + "1,en,again,again\n", encoding="utf-8")
        labeled = tmp_path / "bad_labeled.csv"
        labeled.write_text("id,lang,text,tokens,label\n1,en,a,a,Positive\n1,en,b,b,Negative\n",
                           encoding="utf-8")
        return {
            "clean": ["clean", "--input", str(jsonl)],
            "identify": ["identify", "--model", str(model_file), "--input", str(table)],
            "analyze": ["analyze", "--input", str(labeled)],
        }

    @pytest.mark.parametrize("stage", ["clean", "identify", "analyze"])
    def test_failure_keeps_existing_output_and_leaves_no_temporary(
        self, stage, model_file, tmp_path
    ):
        argv = self._failing_runs(tmp_path, model_file)[stage]
        target = tmp_path / "out" / "result.csv"
        target.parent.mkdir()
        target.write_bytes(b"earlier bytes\n")
        code, out, err = invoke(*argv, "--output", str(target))
        assert (code, out) == (1, ""), err
        assert target.read_bytes() == b"earlier bytes\n"
        assert [p.name for p in target.parent.iterdir()] == ["result.csv"]
        code, out, err = invoke(*argv)
        assert (code, out) == (1, ""), err

    def test_failed_model_write_keeps_the_earlier_model(self, tmp_path, monkeypatch):
        model = tmp_path / "m.tlam"
        argv = ["train-langid", "--synthetic", "5", "--seed", "7", "--trees", "2",
                "--output", str(model)]
        assert invoke(*argv)[0] == 0
        earlier = model.read_bytes()

        def failing_save(model, vectorizer, sink):
            sink.write(b"TLAM")
            raise OSError("disk full")

        monkeypatch.setattr(tla.langid, "save_model", failing_save)
        assert invoke(*argv) == (1, "", f"error: {model}: disk full\n")
        assert model.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["m.tlam"]

    def test_failed_label_keeps_every_earlier_dataset(self, tmp_path, monkeypatch):
        cleaned = tmp_path / "clean.csv"
        cleaned.write_text("id,lang,text,tokens\n1,en,good day,good day\n"
                           "2,fr,bon jour,bon jour\n3,es,hola,hola\n", encoding="utf-8")
        out_dir = tmp_path / "labeled"
        out_dir.mkdir()
        earlier = {name: f"earlier {name}\n".encode() for name in ("en.csv", "fr.csv")}
        for name, data in earlier.items():
            (out_dir / name).write_bytes(data)
        written = []

        def failing_on_the_second(rows, sink):
            written.append(rows[0].lang)
            if len(written) == 2:
                sink.write("id,lang")
                raise OSError("disk full")
            return tla.corpus.write_dataset_csv(rows, sink)

        monkeypatch.setattr(tla.cli, "write_dataset_csv", failing_on_the_second)
        code, out, err = invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir))
        assert (code, out, err) == (1, "", f"error: {out_dir / written[1].value}.csv: disk full\n")
        assert len(written) == 2
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == earlier

    @pytest.mark.parametrize("langs", [("fr", "en"), ("en", "fr")])
    def test_label_checks_every_target_before_the_first_rename(self, langs, tmp_path):
        # fr.csv is a directory: whichever language comes first in the
        # input, en.csv must keep its earlier row.
        cleaned = tmp_path / "clean.csv"
        rows = {"fr": "1,fr,bon jour,bon jour\n", "en": "2,en,good day,good day\n"}
        cleaned.write_text("id,lang,text,tokens\n" + "".join(rows[lang] for lang in langs),
                           encoding="utf-8")
        out_dir = tmp_path / "L"
        (out_dir / "fr.csv").mkdir(parents=True)
        earlier = b"id,lang,text,tokens,label\n9,en,old day,old day,Positive\n"
        (out_dir / "en.csv").write_bytes(earlier)
        code, out, err = invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir))
        assert (code, out, err) == (1, "", f"error: {out_dir / 'fr.csv'}: Is a directory\n")
        assert (out_dir / "en.csv").read_bytes() == earlier
        assert sorted(p.name for p in out_dir.iterdir()) == ["en.csv", "fr.csv"]

    @pytest.mark.parametrize("stage", ["clean", "label", "train-langid"])
    def test_write_beyond_the_file_size_limit_names_its_path(self, stage, tmp_path):
        # The limit applies to the child alone: its write past 4 KiB fails
        # with EFBIG, which Python reports instead of dying of SIGXFSZ.  The
        # same command without the limit writes more than 4 KiB.
        resource = pytest.importorskip("resource")
        (tmp_path / "t.jsonl").write_text("".join(
            json.dumps({"id": str(i), "text": f"the best day number {i}", "lang": "en"}) + "\n"
            for i in range(200)), encoding="utf-8")
        (tmp_path / "clean.csv").write_text(_clean_rows(200), encoding="utf-8")
        argv, target = {
            "clean": (["clean", "--input", "t.jsonl", "--output", "out.csv"], "out.csv"),
            "label": (["label", "--input", "clean.csv", "--out-dir", "."], "en.csv"),
            "train-langid": (["train-langid", "--synthetic", "20", "--seed", "7",
                              "--trees", "8", "--output", "m.tlam"], "m.tlam"),
        }[stage]
        before = sorted(tmp_path.iterdir())
        result = _python_m_tla(
            *argv, cwd=tmp_path, PYTHONDONTWRITEBYTECODE="1",
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)),
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"error: {target}: File too large\n"
        assert sorted(tmp_path.iterdir()) == before
        assert _python_m_tla(*argv, cwd=tmp_path, PYTHONDONTWRITEBYTECODE="1").returncode == 0
        assert (tmp_path / target).stat().st_size > 4096

    def test_unwritable_target_is_named_not_its_temporary(self, tmp_path):
        src = tmp_path / "t.jsonl"
        src.write_text(JSONL, encoding="utf-8")
        cleaned = tmp_path / "clean.csv"
        assert invoke("clean", "--input", str(src), "--output", str(cleaned))[0] == 0
        missing, directory = tmp_path / "nodir", tmp_path / "adir"
        directory.mkdir()
        train = ["train-langid", "--synthetic", "2", "--trees", "1", "--seed", "1"]
        cases = [
            (["clean", "--input", str(src), "--output", str(missing / "x.csv")],
             f"{missing / 'x.csv'}: No such file or directory"),
            (["clean", "--input", str(src), "--output", str(directory)],
             f"{directory}: Is a directory"),
            (["label", "--input", str(cleaned), "--out-dir", str(src)], f"{src}: File exists"),
            ([*train, "--output", str(missing / "m.tlam")],
             f"{missing / 'm.tlam'}: No such file or directory"),
        ]
        before = sorted(tmp_path.rglob("*"))
        for argv, message in cases:
            assert invoke(*argv) == (1, "", f"error: {message}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("stage", ["train-langid", "analyze"])
    def test_unusable_output_is_reported_before_any_input_is_read(self, stage, tmp_path):
        # The input is bad too, so the output's error shows which was checked
        # first, and no work is done for an output that cannot be written.
        labeled = stage == "analyze"
        bad = tmp_path / "bad.csv"
        bad.write_text("id,lang,text,tokens" + (",label" if labeled else "")
                       + "\n1,xx,a,a" + (",Positive" if labeled else "") + "\n", encoding="utf-8")
        argv = {
            "train-langid": ["train-langid", "--seed", "1", "--trees", "1", "--corpus", str(bad)],
            "analyze": ["analyze", "--input", str(bad)],
        }[stage]
        code, out, err = invoke(*argv, "--output", str(tmp_path / "usable"))
        assert (code, out) == (1, "") and err.startswith(f"error: {bad}: line 2: "), err
        missing, directory = tmp_path / "nodir" / "out", tmp_path / "adir"
        directory.mkdir()
        before = sorted(tmp_path.rglob("*"))
        for target, reason in [(missing, "No such file or directory"),
                               (directory, "Is a directory")]:
            assert invoke(*argv, "--output", str(target)) == (1, "", f"error: {target}: {reason}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_identify_may_overwrite_its_input(self, model_file, tmp_path):
        table = tmp_path / "clean.csv"
        table.write_text(_clean_rows(300), encoding="utf-8")
        elsewhere = tmp_path / "identified.csv"
        argv = ["identify", "--model", str(model_file), "--input", str(table)]
        counted = "300 rows, 0 kept their own lang (no evidence)\n"
        assert invoke(*argv, "--output", str(elsewhere)) == (0, "", counted)
        assert invoke(*argv, "--output", str(table)) == (0, "", counted)
        assert table.read_bytes() == elsewhere.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.csv", "identified.csv"]

    def test_identify_memory_does_not_grow_with_input(self, model_file, tmp_path):
        # identify holds one chunk of rows at a time, so 4x the rows may raise
        # its allocation peak only by the ids kept for the uniqueness check
        # (about 0.26 MB here).  The model's load is the same in both runs,
        # so the bound is on the growth, not a share of the peak.
        warm_up = tmp_path / "warm_up.csv"
        warm_up.write_text(_clean_rows(10), encoding="utf-8")
        assert invoke("identify", "--model", str(model_file), "--input", str(warm_up))[0] == 0
        peaks = []
        for n in (1024, 4096):
            table = tmp_path / f"clean{n}.csv"
            table.write_text(_clean_rows(n), encoding="utf-8")
            with _peak_alloc(peaks):
                code, _, err = invoke("identify", "--model", str(model_file),
                                      "--input", str(table), "--output", str(tmp_path / "o.csv"))
            assert (code, err) == (0, f"{n} rows, 0 kept their own lang (no evidence)\n")
        growth = peaks[1] - peaks[0]
        assert growth <= 90 * (4096 - 1024), f"peaks {peaks[0]} -> {peaks[1]} bytes"

    @pytest.mark.parametrize("stage", ["clean", "clean-output", "identify", "analyze",
                                       "analyze-output"])
    def test_stdout_memory_grows_only_with_the_ids(self, stage, model_file, tmp_path):
        # Output for the output stream waits in a temporary file and output
        # for a file is written as it is made, so 4x the rows may raise the
        # allocation peak by the ids kept for the duplicate check (the
        # README's 80 to 120 B a row), but not by the output itself.  The
        # output stream is a file, so the test's own sink is not counted.
        command, _, to_file = stage.partition("-")
        target = tmp_path / ("output.csv" if to_file else "stdout.csv")

        def argv(n):
            table = tmp_path / f"table{n}.csv"
            if command == "clean":
                table.write_text("".join(
                    json.dumps({"id": str(i), "text": f"the train was late again {i}",
                                "lang": "en"}) + "\n" for i in range(n)), encoding="utf-8")
                given = ["clean", "--input", str(table)]
            elif command == "identify":
                table.write_text(_clean_rows(n), encoding="utf-8")
                given = ["identify", "--model", str(model_file), "--input", str(table)]
            else:
                table.write_text(_labeled_rows(n), encoding="utf-8")
                given = ["analyze", "--format", "csv", "--input", str(table)]
            return given + (["--output", str(target)] if to_file else [])

        peaks = []
        for n in (10, 1024, 4096):  # the first run is a warm-up
            given, err = argv(n), io.StringIO()
            with open(tmp_path / "stdout.csv", "w", encoding="utf-8", newline="") as out:
                with _peak_alloc(peaks):
                    code = run(given, out, err)
            lines = target.read_text(encoding="utf-8").splitlines()
            if command == "analyze":
                assert (code, err.getvalue()) == (0, "")
                assert lines[1].startswith(f"English,{n},")
            else:
                kept = ", 0 kept their own lang (no evidence)" if command == "identify" else ""
                assert (code, err.getvalue()) == (0, f"{n} rows{kept}\n")
                assert len(lines) == n + 1
        growth = peaks[2] - peaks[1]
        assert growth <= 110 * (4096 - 1024), f"{growth} bytes"

    def test_stdout_output_waits_in_a_file(self, tmp_path):
        # About 60 KiB for the output stream wait in a temporary file and are
        # copied out 8 KiB at a time, so neither the writes nor the copy may
        # hold more than a few 8 KiB buffers: the file's byte and text
        # buffers, and a read's bytes, their decoded text and the result.
        # Held in memory, the writes alone would cost more than the 60 KiB.
        line = "le marché ouvre le samedi\r\n"
        n = 60 * 1024 // len(line)
        peaks = []
        with open(tmp_path / "stdout.txt", "w", encoding="utf-8", newline="") as out:
            with _peak_alloc(peaks), tla.cli._committed(None, out) as spool:
                for _ in range(n):
                    spool.write(line)
                held, writing = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
        assert (tmp_path / "stdout.txt").read_bytes() == (line * n).encode("utf-8")
        copying = peaks[0] - held
        assert max(writing, copying) <= 6 * 8192, f"{writing} and {copying} bytes"

    def test_label_memory_grows_only_with_its_held_rows(self, tmp_path):
        # label holds every row until it writes its datasets, about 515 B a
        # row of this shape (the cleaned rows of the test above).  These 700 B
        # a row are the allowance that a label writing rows as it reads them
        # (ROADMAP item 1b) removes; until then they bound what a held row
        # may cost.
        out_dir = tmp_path / "labeled"
        peaks = []
        for n in (10, 1024, 4096):  # the first run is a warm-up
            table = tmp_path / f"clean{n}.csv"
            table.write_text("id,lang,text,tokens\n" + "".join(
                f"{i},en,the train was late again {i},train late again {i}\n"
                for i in range(n)), encoding="utf-8")
            with _peak_alloc(peaks):
                result = invoke("label", "--input", str(table), "--out-dir", str(out_dir))
            assert result == (
                0, "", f"{out_dir / 'en.csv'}: {n} rows, {n} by the tie label (score 0)\n")
        growth = peaks[2] - peaks[1]
        assert growth <= 700 * (4096 - 1024), f"{growth} bytes"


class TestArgvOnly:
    def test_config_flag_is_usage_error(self, tmp_path):
        conf = tmp_path / "other.conf"
        conf.write_text("min_faves=0\n", encoding="utf-8")
        code, out, err = invoke("--config", str(conf), "query", "--lang", "en")
        assert code == 2
        assert out == ""
        assert "usage" in err

    def test_tla_conf_in_working_directory_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "tla.conf"
        conf.write_text("min_faves=5\ntrees=1\n", encoding="utf-8")
        code, out, _ = invoke("query", "--lang", "en")
        assert (code, out) == (0, "min_faves:9000 filter:has_engagement lang:en\n")

        argv = ("train-langid", "--synthetic", "10", "--seed", "7", "--max-depth", "3")
        assert invoke(*argv, "--output", "with_conf.tlam")[0] == 0
        conf.unlink()
        assert invoke(*argv, "--output", "without_conf.tlam")[0] == 0
        assert (tmp_path / "with_conf.tlam").read_bytes() == (
            tmp_path / "without_conf.tlam"
        ).read_bytes()


class TestDataDirOverride:
    def test_env_var_overrides_stopwords(self, tmp_path, monkeypatch):
        (tmp_path / "stopwords").mkdir()
        (tmp_path / "stopwords" / "en.txt").write_text("best\n", encoding="utf-8")
        src = tmp_path / "t.jsonl"
        src.write_text('{"id":"1","text":"the best day","lang":"en"}\n', encoding="utf-8")
        monkeypatch.setenv("TLA_DATA_DIR", str(tmp_path))
        code, out, _ = invoke("clean", "--input", str(src))
        assert code == 0
        # "best" now a stopword, "the" no longer one
        assert out.splitlines()[1] == "1,en,the best day,the day"

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_env_var_must_name_a_directory(self, kind, tmp_path, monkeypatch):
        cleaned = tmp_path / "clean.csv"
        cleaned.write_text("id,lang,text,tokens\n1,en,good day,good day\n", encoding="utf-8")
        data = {"missing": tmp_path / "nodir", "file": cleaned}[kind]
        monkeypatch.setenv("TLA_DATA_DIR", str(data))
        out_dir = tmp_path / "out"
        code, out, err = invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir))
        assert (code, out, err) == (1, "", f"error: TLA_DATA_DIR={data}: not a directory\n")
        assert not out_dir.exists()

    @staticmethod
    def _label_with_lexicon(tmp_path, monkeypatch, content):
        lexicon = tmp_path / "lexicons" / "en.tsv"
        lexicon.parent.mkdir()
        lexicon.write_bytes(content)
        src = tmp_path / "clean.csv"
        src.write_text("id,lang,text,tokens\n1,en,good day,good day\n", encoding="utf-8")
        monkeypatch.setenv("TLA_DATA_DIR", str(tmp_path))
        code, _, err = invoke("label", "--input", str(src), "--out-dir", str(tmp_path / "out"))
        return lexicon, code, err

    def test_bad_lexicon_names_its_file(self, tmp_path, monkeypatch):
        lexicon, code, err = self._label_with_lexicon(
            tmp_path, monkeypatch, b"good\tnotanumber\n"
        )
        assert code == 1
        assert err.startswith(f"error: {lexicon}: line 1: bad weight 'notanumber'")
        assert not (tmp_path / "out").exists()

    def test_invalid_utf8_lexicon_names_its_file_and_line(self, tmp_path, monkeypatch):
        lexicon, code, err = self._label_with_lexicon(
            tmp_path, monkeypatch, b"good\t1\nb\xffd\t-1\n"
        )
        assert code == 1
        assert err == f"error: {lexicon}: line 2: invalid UTF-8: invalid start byte\n"
        assert not (tmp_path / "out").exists()

    def test_duplicate_lexicon_token_warning_names_its_file(self, tmp_path, monkeypatch):
        lexicon, code, err = self._label_with_lexicon(
            tmp_path, monkeypatch, b"good\t1\ngood\t2\n"
        )
        assert code == 0, err
        assert err.splitlines()[0] == (
            f"warning: {lexicon}: line 2: duplicate token 'good', keeping last entry"
        )

    def test_empty_lexicon_directory_gives_every_row_the_tie_label(self, tmp_path, monkeypatch):
        (tmp_path / "lexicons").mkdir()
        src = tmp_path / "clean.csv"
        src.write_text("id,lang,text,tokens\n1,en,good day,good day\n2,en,bad day,bad day\n",
                       encoding="utf-8")
        monkeypatch.setenv("TLA_DATA_DIR", str(tmp_path))
        out_dir = tmp_path / "out"
        code, _, err = invoke("label", "--input", str(src), "--out-dir", str(out_dir))
        assert code == 0, err
        with open(out_dir / "en.csv", "rb") as handle:
            assert [row.label.value for row in read_dataset_csv(handle)] == ["Positive"] * 2

    def test_invalid_utf8_stopwords_names_its_file_and_line(self, tmp_path, monkeypatch):
        stopwords = tmp_path / "stopwords" / "en.txt"
        stopwords.parent.mkdir()
        stopwords.write_bytes(b"the\nb\xffd\n")
        src = tmp_path / "t.jsonl"
        src.write_text('{"id":"1","text":"the best day","lang":"en"}\n', encoding="utf-8")
        monkeypatch.setenv("TLA_DATA_DIR", str(tmp_path))
        code, out, err = invoke("clean", "--input", str(src), "--output", str(tmp_path / "c.csv"))
        assert code == 1
        assert err == f"error: {stopwords}: line 2: invalid UTF-8: invalid start byte\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("content", [None, b"mot\n"], ids=["missing", "one_word"])
    def test_unusable_seed_text_names_its_file(self, content, tmp_path, monkeypatch):
        shutil.copytree(Path(tla.__file__).parent / "data" / "seeds", tmp_path / "seeds")
        seed = tmp_path / "seeds" / "fr.txt"
        if content is None:
            seed.unlink()
        else:
            seed.write_bytes(content)
        monkeypatch.setenv("TLA_DATA_DIR", str(tmp_path))
        model = tmp_path / "m.tlam"
        assert invoke("train-langid", "--synthetic", "5", "--seed", "7",
                      "--output", str(model)) == (1, "", f"error: no seed text for fr at {seed}\n")
        assert not model.exists()

    def test_invalid_utf8_seed_names_its_file_and_line(self, tmp_path, monkeypatch):
        shutil.copytree(Path(tla.__file__).parent / "data" / "seeds", tmp_path / "seeds")
        seed = tmp_path / "seeds" / "fr.txt"
        seed.write_bytes(b"le chat\nle chien\nla b\xc3te\n")
        monkeypatch.setenv("TLA_DATA_DIR", str(tmp_path))
        model = tmp_path / "m.tlam"
        code, _, err = invoke("train-langid", "--synthetic", "5", "--seed", "7",
                              "--output", str(model))
        assert code == 1
        assert err == f"error: {seed}: line 3: invalid UTF-8: invalid continuation byte\n"
        assert not model.exists()


def _python_m_tla(*argv, cwd, options=(), **kwargs):
    """``python [options] -m tla argv`` run in ``cwd``."""
    return _python(*options, "-m", "tla", *argv, cwd=cwd, **kwargs)


def _python(*args, cwd, preexec_fn=None, timeout=120, **environ):
    """``python args`` run in ``cwd`` with this tla importable and ``environ`` set."""
    src = str(Path(tla.__file__).resolve().parents[1])
    env = {**os.environ, **environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout, preexec_fn=preexec_fn,
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    result = _python_m_tla("query", "--lang", "en", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "min_faves:9000 filter:has_engagement lang:en\n"


#: Imports tla, then runs every stage but the two that use the language
#: identifier, printing after each step whether numpy is loaded; then
#: train-langid, which must load it (else the check proves nothing).
NUMPY_FREE_STAGES = """\
import sys
def numpy_loaded(after):
    print(after, "numpy" in sys.modules)
import tla
numpy_loaded("import tla")
import tla.cli
numpy_loaded("import tla.cli")
for argv in (
    ["query", "--lang", "en"],
    ["clean", "--input", "t.jsonl", "--output", "clean.csv"],
    ["label", "--input", "clean.csv", "--out-dir", "labeled"],
    ["analyze", "--input", "labeled/en.csv", "labeled/es.csv", "labeled/ru.csv"],
    ["train-langid", "--synthetic", "2", "--trees", "1", "--seed", "1", "--output", "m.tlam"],
):
    assert tla.cli.run(argv, stdout=sys.stderr) == 0, argv
    numpy_loaded(argv[0])
"""


def test_only_the_identifier_stages_import_numpy(tmp_path):
    (tmp_path / "t.jsonl").write_text(JSONL, encoding="utf-8")
    result = _python("-c", NUMPY_FREE_STAGES, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "import tla False", "import tla.cli False", "query False", "clean False",
        "label False", "analyze False", "train-langid True",
    ]


def test_identifier_names_resolve_on_first_use():
    import tla.synth
    from tla import ForestPredictor, synthetic_corpus

    assert (ForestPredictor, synthetic_corpus) == (
        tla.langid.ForestPredictor, tla.synth.synthetic_corpus
    )
    assert tla.cli.ForestPredictor is tla.langid.ForestPredictor
    for name in ("ForestParams", "evaluate_model", "train_identifier"):
        assert getattr(tla, name) is getattr(tla.langid, name)
    assert tla.synthetic_split is tla.synth.synthetic_split
    for module in (tla, tla.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    # the layers are imported from tla.langid, where they are defined
    for name in ("ForestModel", "NgramVectorizer", "SparseRows", "extract_char_ngrams",
                 "fit_forest", "fit_vectorizer", "load_model", "predict_language",
                 "save_model", "vectorize", "vectorize_batch"):
        assert callable(getattr(tla.langid, name))
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(tla, name)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_tla_warnings_are_printed_whatever_the_warning_filters(action, tmp_path):
    (tmp_path / "long.jsonl").write_text(
        '{"id":"1","text":"%s","lang":"en"}\n' % ("good " * 60), encoding="utf-8"
    )
    lexicon = tmp_path / "data" / "lexicons" / "en.tsv"
    lexicon.parent.mkdir(parents=True)
    lexicon.write_text("good\t1\ngood\t2\n", encoding="utf-8")
    options = ("-W", action)
    result = _python_m_tla("clean", "--lenient", "--input", "long.jsonl",
                           "--output", "clean.csv", cwd=tmp_path, options=options)
    assert (result.returncode, result.stderr) == (
        0, "warning: long.jsonl: line 1: TextTooLong(300)\n1 rows\n"
    )
    result = _python_m_tla("label", "--input", "clean.csv", "--out-dir", "out",
                           cwd=tmp_path, options=options, TLA_DATA_DIR="data")
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[0] == (
        "warning: data/lexicons/en.tsv: line 2: duplicate token 'good', keeping last entry"
    )


def _csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _run_chain(jsonl, model_file, work, clean_flags=()):
    """Exit codes of clean, identify --output, label and analyze --format csv
    on the JSONL bytes, stopping at the first failure, and the last output."""
    src = work / "t.jsonl"
    src.write_bytes(jsonl)
    cleaned, identified, out_dir = work / "clean.csv", work / "identified.csv", work / "l"
    stages = [
        ["clean", "--input", str(src), "--output", str(cleaned), *clean_flags],
        ["identify", "--model", str(model_file), "--input", str(cleaned),
         "--output", str(identified)],
        ["label", "--input", str(identified), "--out-dir", str(out_dir)],
        ["analyze", "--format", "csv", "--input"],
    ]
    codes, out = [], ""
    for argv in stages:
        if argv[0] == "analyze":
            argv += sorted(str(path) for path in out_dir.glob("*.csv"))
        code, out, err = invoke(*argv)
        assert "Traceback" not in err
        codes.append(code)
        if code != 0:
            break
    return codes, out


class TestStageContracts:
    def test_lenient_tweet_goes_through_the_chain(self, model_file, tmp_path):
        # 180,000 characters is past the csv module's default field limit of 131,072.
        for length in (360, 180_000):
            work = tmp_path / str(length)
            work.mkdir()
            text = ("what a good day " * (length // 16 + 1))[:length]
            src = work / "t.jsonl"
            src.write_text('{"id":"1","text":"%s","lang":"en"}\n' % text, encoding="utf-8")
            cleaned, identified = work / "clean.csv", work / "identified.csv"
            out_dir = work / "labeled"
            code, _, err = invoke("clean", "--lenient", "--input", str(src),
                                  "--output", str(cleaned))
            assert (code, err) == (0, f"warning: {src}: line 1: TextTooLong({length})\n1 rows\n")
            code, _, err = invoke("identify", "--model", str(model_file), "--input",
                                  str(cleaned), "--output", str(identified))
            assert code == 0, err
            code, _, err = invoke("label", "--input", str(identified), "--out-dir", str(out_dir))
            [labeled] = out_dir.glob("*.csv")
            assert (code, err) == (0, f"{labeled}: 1 rows, 1 by the tie label (score 0)\n")
            code, out, err = invoke("analyze", "--format", "csv", "--input", str(labeled))
            assert (code, err) == (0, "")
            assert out.splitlines()[1].split(",")[1] == "1"

    @settings(max_examples=100)
    @example("good a\rb day")
    @given(st.text(st.characters(blacklist_categories=("Cs",))))
    def test_whatever_clean_accepts_the_chain_accepts(self, model_file, text):
        jsonl = json.dumps({"id": "1", "text": text, "lang": "en"}).encode("utf-8") + b"\n"
        with tempfile.TemporaryDirectory() as work:
            codes, report = _run_chain(jsonl, model_file, Path(work))
        if codes[0] == 0:
            assert codes == [0, 0, 0, 0]
            assert report.splitlines()[1].split(",")[1] == "1"

    def test_failing_label_writes_no_file(self, tmp_path):
        cleaned = tmp_path / "clean.csv"
        cleaned.write_text("id,lang,text,tokens\n1,en,good day,good day\n"
                           "2,es,hola,hola\n2,es,hola,hola\n", encoding="utf-8")
        out_dir = tmp_path / "labeled"
        code, out, err = invoke("label", "--input", str(cleaned), "--out-dir", str(out_dir))
        assert code == 1
        assert err == f"error: {cleaned}: line 4: duplicate id '2'\n"
        assert not (out_dir / "en.csv").exists()

    def test_lenient_warning_leaves_warning_state_unchanged(self, tmp_path):
        src = tmp_path / "t.jsonl"
        src.write_text('{"id":"1","text":"%s","lang":"en"}\n' % ("x" * 300), encoding="utf-8")
        before = (warnings.showwarning, list(warnings.filters))
        code, _, err = invoke("clean", "--lenient", "--input", str(src))
        assert (code, err) == (0, f"warning: {src}: line 1: TextTooLong(300)\n1 rows\n")
        assert (warnings.showwarning, list(warnings.filters)) == before

    def test_repeated_id_is_a_bad_clean_line(self, tmp_path):
        src = tmp_path / "dup.jsonl"
        src.write_text('{"id":"1","text":"good day to you","lang":"en"}\n'
                       '{"id":"1","text":"good day to you","lang":"fr"}\n', encoding="utf-8")
        code, out, err = invoke("clean", "--input", str(src))
        assert (code, out, err) == (1, "", f"error: {src}: line 2: duplicate id '1'\n")
        code, out, err = invoke("clean", "--input", str(src), "--skip-bad-lines")
        assert (code, err) == (0, "1 rows\n")
        assert out.splitlines()[1:] == ["1,en,good day to you,good day"]

    @pytest.mark.parametrize("stage", ["identify", "label"])
    def test_same_id_in_two_languages_is_rejected(self, stage, model_file, tmp_path):
        cleaned = tmp_path / "clean.csv"
        cleaned.write_text("id,lang,text,tokens\n1,en,good day to you,good day\n"
                           "1,fr,good day to you,good day to you\n", encoding="utf-8")
        output = tmp_path / "out"
        argv = {
            "identify": ["identify", "--model", str(model_file), "--input", str(cleaned),
                         "--output", str(output)],
            "label": ["label", "--input", str(cleaned), "--out-dir", str(output)],
        }[stage]
        code, out, err = invoke(*argv)
        assert (code, out, err) == (1, "", f"error: {cleaned}: line 3: duplicate id '1'\n")
        assert not output.exists()

    def test_written_tokens_match_the_written_language(self, model_file, tmp_path):
        src = tmp_path / "t.jsonl"
        src.write_text(
            JSONL
            + '{"id":"4","text":"今天天气很好我们去公园散步吧","lang":"en"}\n'
            + '{"id":"5","text":"we walked to the market on saturday","lang":"zh"}\n',
            encoding="utf-8",
        )
        cleaned, identified = tmp_path / "clean.csv", tmp_path / "identified.csv"
        assert invoke("clean", "--input", str(src), "--output", str(cleaned))[0] == 0
        code, _, err = invoke("identify", "--model", str(model_file), "--input",
                              str(cleaned), "--output", str(identified))
        assert code == 0, err
        table = StopwordTable.load_bundled()
        for path in (cleaned, identified):
            for tweet_id, lang, text, tokens in _csv(path)[1:]:
                assert tokens == " ".join(preprocess_tweet(text, LanguageCode(lang), table))
        before = {row[0]: row for row in _csv(cleaned)[1:]}
        after = {row[0]: row for row in _csv(identified)[1:]}
        assert (after["4"][1], after["4"][3]) == ("zh", "今 天 天 气 很 好 我 们 去 公 园 散 步 吧")
        assert (after["5"][1], after["5"][3]) == ("en", "walked market saturday")
        kept = [tweet_id for tweet_id in before if after[tweet_id][1] == before[tweet_id][1]]
        assert kept
        assert all(after[tweet_id] == before[tweet_id] for tweet_id in kept)


class TestOneTokenCheckPerRow:
    """The token rules run once per row read and never on a row written:
    ``validate_token_field``, their one owner, is called by the reader on
    each field, and the tokens ``clean`` and ``identify --output`` write are
    made by ``preprocess_tweet``, which meets the rules by construction."""

    ROWS = 6

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        check = tla.corpus.validate_token_field

        def counting(field):
            calls.append(field)
            return check(field)

        monkeypatch.setattr(tla.corpus, "validate_token_field", counting)
        return calls

    def _rows(self, langs, label=""):
        return "".join(f"{i},{langs[i % len(langs)]},good day,good day{label}\n"
                       for i in range(self.ROWS))

    def test_read_dataset_csv(self, calls):
        data = "id,lang,text,tokens,label\n" + self._rows(("en",), ",Positive")
        assert len(list(read_dataset_csv(io.BytesIO(data.encode())))) == self.ROWS
        assert len(calls) == self.ROWS

    def test_label(self, calls, tmp_path):
        cleaned = tmp_path / "clean.csv"
        cleaned.write_text("id,lang,text,tokens\n" + self._rows(("en", "es")), encoding="utf-8")
        code, _, err = invoke("label", "--input", str(cleaned), "--out-dir", str(tmp_path / "l"))
        assert code == 0, err
        assert len(calls) == self.ROWS

    def test_clean(self, calls, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text("".join(json.dumps({"id": str(i), "text": "Good day", "lang": "en"}) + "\n"
                               for i in range(self.ROWS)), encoding="utf-8")
        code, _, err = invoke("clean", "--input", str(src), "--output", str(tmp_path / "c.csv"))
        assert code == 0, err
        assert calls == []

    def test_identify_output(self, calls, tmp_path, model_file):
        cleaned = tmp_path / "clean.csv"
        cleaned.write_text("id,lang,text,tokens\n" + self._rows(("en", "es")), encoding="utf-8")
        code, _, err = invoke("identify", "--model", str(model_file), "--input", str(cleaned),
                              "--output", str(tmp_path / "identified.csv"))
        assert code == 0, err
        assert len(calls) == self.ROWS


VALID_ROW = b"1,en,good day,good day"
CSV_DEFECTS = {
    "bad_language": (b"2,xx,hola,hola", 3, "bad language code 'xx'"),
    "uppercase_token": (b"2,en,Hi,Hi", 3, "token is not lowercase: 'Hi'"),
    "duplicate_id": (VALID_ROW, 3, "duplicate id '1'"),
    "field_count": (b"2,en,hi", 3, "fields, got"),
    "invalid_utf8": (b"2,en,\xff,x", 3, "invalid UTF-8"),
}


def _stage_argv(stage, path, tmp_path, model_file):
    return {
        "identify": ["identify", "--model", str(model_file), "--input", str(path)],
        "label": ["label", "--input", str(path), "--out-dir", str(tmp_path / "labeled")],
        "analyze": ["analyze", "--input", str(path)],
        "train-langid": ["train-langid", "--seed", "1", "--trees", "2",
                         "--output", str(tmp_path / "m.tlam"), "--corpus", str(path)],
    }[stage]


@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory")])
@pytest.mark.parametrize("stage", ["clean", "identify --model", "identify", "train-langid",
                                   "label", "analyze"])
def test_unopenable_input_is_named_like_an_output(stage, kind, reason, model_file, tmp_path):
    path = tmp_path / "given"
    if kind == "directory":
        path.mkdir()
    cleaned, labeled = tmp_path / "clean.csv", tmp_path / "labeled.csv"
    cleaned.write_text(_clean_rows(3), encoding="utf-8")
    labeled.write_text(_labeled_rows(3), encoding="utf-8")
    argv = {
        "clean": ["clean", "--input", str(path)],
        "identify --model": ["identify", "--model", str(path), "--input", str(cleaned)],
        "identify": ["identify", "--model", str(model_file), "--input", str(path)],
        "train-langid": ["train-langid", "--seed", "1", "--output", str(tmp_path / "m.tlam"),
                         "--corpus", str(path)],
        "label": ["label", "--input", str(path), "--out-dir", str(tmp_path / "labeled")],
        # the second input is opened only after the first is read
        "analyze": ["analyze", "--input", str(labeled), str(path),
                    "--output", str(tmp_path / "report.txt")],
    }[stage]
    before = sorted(tmp_path.rglob("*"))
    assert invoke(*argv) == (1, "", f"error: {path}: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("stage", ["identify", "label", "analyze", "train-langid"])
@pytest.mark.parametrize("defect", [*CSV_DEFECTS, "bad_header"])
def test_csv_data_errors_name_file_and_line(stage, defect, model_file, tmp_path):
    labeled = stage == "analyze"
    header = b"id,lang,text,tokens" + (b",label" if labeled else b"")
    if defect == "bad_header":
        data, line, message = b"id,lang,text\n", 1, "expected header"
    else:
        record, line, message = CSV_DEFECTS[defect]
        suffix = b",Positive" if labeled else b""
        data = b"\n".join([header, VALID_ROW + suffix, record + suffix]) + b"\n"
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    code, out, err = invoke(*_stage_argv(stage, path, tmp_path, model_file))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}: line {line}: ")
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "labeled").exists()


class TestCleanErrors:
    def test_invalid_utf8_names_path_and_line(self, tmp_path):
        src = tmp_path / "t.jsonl"
        src.write_bytes(JSONL.encode() + b'{"id":"4","text":"\xff","lang":"en"}\n')
        code, _, err = invoke("clean", "--input", str(src))
        assert code == 1
        assert err.startswith(f"error: {src}: line 4: malformed JSON: invalid UTF-8")
        code, out, err = invoke("clean", "--input", str(src), "--skip-bad-lines")
        assert (code, err) == (0, "3 rows\n")
        assert len(out.splitlines()) == 4

    def test_leading_bom_keeps_the_first_record(self, tmp_path):
        src = tmp_path / "t.jsonl"
        src.write_bytes(b"\xef\xbb\xbf" + JSONL.encode())
        code, out, err = invoke("clean", "--input", str(src), "--skip-bad-lines")
        assert (code, err) == (0, "3 rows\n")
        assert out.splitlines()[1] == "1,en,The best day ever,best day ever"

    #: Lines that parse to no record: nesting past the recursion limit, and
    #: an integer too long to convert.
    UNPARSABLE_LINES = {
        "deep": "[" * 100_000,
        "long_int": '{"id":"4","text":"x","lang":"en","likeCount":%s}' % ("9" * 5000),
    }

    @pytest.mark.parametrize("kind", ["deep", "long_int"])
    def test_unparsable_line_is_a_located_bad_line(self, tmp_path, kind):
        src = tmp_path / "t.jsonl"
        src.write_text(JSONL + self.UNPARSABLE_LINES[kind] + "\n", encoding="utf-8")
        code, out, err = invoke("clean", "--input", str(src))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {src}: line 4: malformed JSON: ")
        code, out, err = invoke("clean", "--input", str(src), "--skip-bad-lines")
        assert (code, err) == (0, "3 rows\n")

    #: Records whose text or id holds a JSON \ud800 escape, which decodes to a
    #: lone surrogate that no UTF-8 output can hold.
    SURROGATE_RECORDS = {
        "text": '{"id":"4","text":"bad \\ud800 text","lang":"en"}',
        "id": '{"id":"4\\udfff","text":"fine text","lang":"en"}',
    }

    @pytest.mark.parametrize("field", ["text", "id"])
    def test_lone_surrogate_names_path_and_line(self, tmp_path, field):
        src = tmp_path / "t.jsonl"
        src.write_text(JSONL + self.SURROGATE_RECORDS[field] + "\n", encoding="utf-8")
        code, out, err = invoke("clean", "--input", str(src))
        assert (code, out) == (1, "")
        assert err == f"error: {src}: line 4: LoneSurrogate({field})\n"

    @pytest.mark.parametrize("field", ["text", "id"])
    def test_lone_surrogate_is_skipped_with_skip_bad_lines(self, tmp_path, field):
        src = tmp_path / "t.jsonl"
        src.write_text(self.SURROGATE_RECORDS[field] + "\n" + JSONL, encoding="utf-8")
        output = tmp_path / "clean.csv"
        code, _, err = invoke("clean", "--input", str(src), "--skip-bad-lines",
                              "--output", str(output))
        assert (code, err) == (0, "3 rows\n")
        assert [row[0] for row in _csv(output)] == ["id", "1", "2", "3"]


# Fuzzed inputs: byte and line edits of a valid JSONL (for clean) and of a
# valid cleaned CSV (for identify and label).  Whatever the edits, a stage
# exits 0, 1 or 2, raises nothing past the CLI and names the file and line
# of every data error.

_FUZZ_BYTES = [b"\x00", b"\xff", b"\xc3", b"\xef\xbb\xbf", b'"', b",", b"\n", b"\r",
               b"\r\n", b"{", b"}", b"\\", b"\\ud800", b"\\u0000", b" ", b"\t", b"A",
               b"\xe2\x80\xa8", b"\xf0\x9f\x98\x80"]

_edits = st.lists(st.one_of(
    st.tuples(st.sampled_from(["insert", "replace"]), st.integers(0, 1 << 12),
              st.sampled_from(_FUZZ_BYTES) | st.binary(min_size=1, max_size=3)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 12), st.integers(1, 12)),
    st.tuples(st.sampled_from(["duplicate", "drop", "swap"]), st.integers(0, 15),
              st.integers(0, 15)),
), min_size=1, max_size=4)


def _edited(data: bytes, edits) -> bytes:
    for kind, at, arg in edits:
        if kind in ("insert", "replace", "delete"):
            at %= len(data) + 1
            if kind == "insert":
                data = data[:at] + arg + data[at:]
            elif kind == "replace":
                data = data[:at] + arg + data[at + len(arg):]
            else:
                data = data[:at] + data[at + arg:]
            continue
        lines = data.split(b"\n")
        i, j = at % len(lines), arg % len(lines)
        if kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "drop":
            del lines[i]
        else:
            lines[i], lines[j] = lines[j], lines[i]
        data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def cleaned_bytes(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "t.jsonl").write_text(JSONL, encoding="utf-8")
    code, _, err = invoke("clean", "--input", str(work / "t.jsonl"),
                          "--output", str(work / "clean.csv"))
    assert code == 0, err
    return (work / "clean.csv").read_bytes()


_records = st.lists(st.fixed_dictionaries(
    {"id": st.text(min_size=1, max_size=4), "text": st.text(min_size=1, max_size=40),
     "lang": st.sampled_from([lang.value for lang in LanguageCode] + ["xx", ""])},
    optional={"likeCount": st.integers(-1, 10**4), "extra": st.none()},
), max_size=6)


class TestFuzzedInputs:
    @settings(max_examples=60)
    @given(records=_records, edits=st.none() | _edits,
           flags=st.lists(st.sampled_from(["--skip-bad-lines", "--lenient", "--lang=fr"]),
                          unique=True))
    def test_any_export_clean_accepts_passes_the_chain(self, model_file, records, edits, flags):
        # The stage contract: a JSONL export that clean accepts with exit 0,
        # whatever its ids, languages, texts and edits, passes identify
        # --output, label and analyze with exit 0, and every row is counted.
        jsonl = b"".join(json.dumps(record).encode("utf-8") + b"\n" for record in records)
        if edits is not None:
            jsonl = _edited(jsonl, edits)
        with tempfile.TemporaryDirectory() as work:
            codes, report = _run_chain(jsonl, model_file, Path(work), flags)
            written = len(_csv(Path(work) / "clean.csv")) - 1 if codes[0] == 0 else 0
        if written > 0:
            assert codes == [0, 0, 0, 0]
            assert sum(int(row[1]) for row in csv.reader(report.splitlines()[1:])) == written

    @pytest.mark.parametrize("stage", ["clean", "clean --skip-bad-lines", "identify",
                                       "identify --output", "label"])
    @settings(max_examples=30)
    @example(edits=[("insert", 30, b"\\ud800")])  # a lone surrogate in line 1's text
    @example(edits=[("insert", 0, b"[" * 100_000)])  # nesting past the recursion limit
    @given(edits=_edits)
    def test_edited_input_fails_cleanly(self, model_file, cleaned_bytes, stage, edits):
        base = JSONL.encode() if stage.startswith("clean") else cleaned_bytes
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "input"
            path.write_bytes(_edited(base, edits))
            output = str(Path(work) / "out.csv")  # a file, so every row is encoded
            argv = {
                "clean": ["clean", "--input", str(path), "--output", output],
                "clean --skip-bad-lines": ["clean", "--input", str(path), "--output",
                                           output, "--skip-bad-lines"],
                "identify": ["identify", "--model", str(model_file), "--input", str(path)],
                "identify --output": ["identify", "--model", str(model_file), "--input",
                                      str(path), "--output", output],
                "label": ["label", "--input", str(path), "--out-dir", str(Path(work) / "l")],
            }[stage]
            code, _, err = invoke(*argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        for line in err.splitlines():
            if line.startswith("error: "):
                assert line.startswith(f"error: {path}: line "), line
