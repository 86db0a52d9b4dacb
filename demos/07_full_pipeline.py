"""The whole pipeline through the CLI entry point, end to end:

    train-langid -> clean -> identify -> label -> analyze

Every step is a `tla` subcommand run in-process here; the same invocations
work verbatim from a shell.  Intermediate artifacts land in a temp directory,
removed at the end.
"""

import sys
import tempfile
from pathlib import Path

from tla.cli import run
from tla.corpus import LanguageCode
from tla.synth import synthetic_corpus

SEED = 42
work_dir = tempfile.TemporaryDirectory(prefix="tla-demo-")  # also removed if a step fails
work = Path(work_dir.name)
print(f"working directory: {work}")


def tla(*argv):
    print(f"\n$ tla {' '.join(argv)}")
    code = run(list(argv), sys.stdout, sys.stderr)
    assert code == 0, f"exit code {code}"


# a small mixed-language JSONL export: two held-out sentences per language
corpus = synthetic_corpus(52, seed=SEED)
lines = []
for i, lang in enumerate(LanguageCode):
    block = [text for text, l in corpus if l is lang][50:52]
    for j, text in enumerate(block):
        lines.append('{"id":"t%02d%1d","text":"%s","lang":"%s","likeCount":9500,"replyCount":1}'
                     % (i, j, text, lang.value))
jsonl = work / "tweets.jsonl"
jsonl.write_text("\n".join(lines) + "\n", encoding="utf-8")
print(f"wrote {len(lines)} tweets to {jsonl.name}")

model = work / "model.tlam"
tla("train-langid", "--synthetic", "50", "--seed", str(SEED), "--trees", "15",
    "--output", str(model))

cleaned = work / "cleaned.csv"
tla("clean", "--input", str(jsonl), "--output", str(cleaned))

identified = work / "identified.csv"
tla("identify", "--model", str(model), "--input", str(cleaned),
    "--output", str(identified))

labeled = work / "labeled"
tla("label", "--input", str(identified), "--out-dir", str(labeled))

tla("analyze", "--format", "plain", "--input",
    *sorted(str(p) for p in labeled.iterdir()))
work_dir.cleanup()
