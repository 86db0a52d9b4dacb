"""Every reader of an input file reports a bad line with one error type,
``LineError``, and drops a byte order mark that starts the file."""

import io

import pytest

from tla.corpus import CLEAN_HEADER, LanguageCode, read_dataset_csv, read_table
from tla.errors import LineError
from tla.ingest import read_jsonl
from tla.preprocess import StopwordTable
from tla.sentiment import load_lexicon
from tla.synth import load_seed_units

EN = LanguageCode.EN


def _jsonl(source):
    return [tweet for _, tweet in read_jsonl(source)]


def _cleaned(source):
    return [row for _, row in read_table(source, (CLEAN_HEADER,))]


def _labeled(source):
    return list(read_dataset_csv(source))


def _lexicon(source):
    return load_lexicon(source, EN).weights


def _stopwords():
    return StopwordTable.load_bundled().stopwords(EN)


def _seed():
    return load_seed_units(EN)


#: reader, file name under the data directory, file bytes with a bad line,
#: bad line number, message after ``line N: ``.  The stopword and seed
#: readers take no source: they read the file from ``TLA_DATA_DIR``.
READERS = {
    "jsonl": (_jsonl, "tweets.jsonl", b'{"id":"1","text":"a"}\n[1]\n', 2,
              "malformed JSON: record is not a JSON object"),
    "cleaned": (_cleaned, "clean.csv", b"id,lang,text,tokens\n1,en,hi,hi\n2,xx,yo,yo\n", 3,
                "bad language code 'xx'"),
    "labeled": (_labeled, "en.csv", b"id,lang,text,tokens,label\n1,en,hi,hi,Neutral\n", 2,
                "bad label 'Neutral' (expected Positive or Negative)"),
    "lexicon": (_lexicon, "en.tsv", b"# weights\ngood\t1\nbad\t0\n", 3,
                "bad weight '0' (must be finite and nonzero)"),
    "stopwords": (_stopwords, "stopwords/en.txt", b"the\nb\xffd\n", 2,
                  "invalid UTF-8: invalid start byte"),
    "seed": (_seed, "seeds/en.txt", b"the cat\nsat on\nthe m\xc3t\n", 3,
             "invalid UTF-8: invalid continuation byte"),
}
SOURCE_READERS = ("jsonl", "cleaned", "labeled", "lexicon")


def _read_file(reader, name, data, tmp_path, monkeypatch):
    """``reader`` run on ``data`` written to ``tmp_path/name``."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    if reader in (_stopwords, _seed):
        monkeypatch.setenv("TLA_DATA_DIR", str(tmp_path))
        return reader()
    with open(path, "rb") as source:
        return reader(source)


@pytest.mark.parametrize("kind", READERS)
def test_bad_line_of_a_named_file_is_a_line_error(kind, tmp_path, monkeypatch):
    reader, name, data, line, message = READERS[kind]
    path = str(tmp_path / name)
    with pytest.raises(LineError) as exc:
        _read_file(reader, name, data, tmp_path, monkeypatch)
    assert type(exc.value) is LineError
    assert (exc.value.path, exc.value.line) == (path, line)
    assert str(exc.value) == f"{path}: line {line}: {message}"


@pytest.mark.parametrize("kind", SOURCE_READERS)
def test_bad_line_of_a_nameless_source_is_a_line_error(kind):
    reader, _, data, line, message = READERS[kind]
    with pytest.raises(LineError) as exc:
        reader(io.BytesIO(data))
    assert type(exc.value) is LineError
    assert (exc.value.path, exc.value.line) == (None, line)
    assert str(exc.value) == f"line {line}: {message}"


#: reader, file name, a good file whose first line a byte order mark may start.
GOOD_FILES = {
    "jsonl": (_jsonl, "tweets.jsonl", b'{"id":"1","text":"a"}\n'),
    "cleaned": (_cleaned, "clean.csv", b"id,lang,text,tokens\n1,en,hi,hi\n"),
    "labeled": (_labeled, "en.csv", b"id,lang,text,tokens,label\n1,en,hi,hi,Positive\n"),
    "lexicon": (_lexicon, "en.tsv", b"good\t1\nbad\t-1\n"),
    "stopwords": (_stopwords, "stopwords/en.txt", b"i\nthe\n"),
    "seed": (_seed, "seeds/en.txt", b"once upon a time there was a cat\n"),
}


@pytest.mark.parametrize("kind", GOOD_FILES)
def test_leading_byte_order_mark_is_dropped(kind, tmp_path, monkeypatch):
    reader, name, data = GOOD_FILES[kind]
    plain = _read_file(reader, name, data, tmp_path / "plain", monkeypatch)
    marked = _read_file(reader, name, b"\xef\xbb\xbf" + data, tmp_path / "bom", monkeypatch)
    assert marked == plain
