"""The README's library quickstart runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]


def test_quickstart_prints_its_comments():
    block = _quickstart()
    lines = block.splitlines()
    expected = [
        following[2:]
        for line, following in zip(lines, lines[1:])
        if line.startswith("print(") and following.startswith("# ")
    ]
    assert len(expected) == sum(line.startswith("print(") for line in lines) > 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
