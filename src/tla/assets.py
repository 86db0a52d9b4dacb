"""Bundled data files (stopwords, lexicons, seed texts) and their override."""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from .errors import TlaError, decoded

#: Environment variable pointing at an alternative assets directory.
DATA_DIR_ENV = "TLA_DATA_DIR"


def data_dir() -> Path:
    """The assets directory: ``$TLA_DATA_DIR`` if set, else the bundled one."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        if not Path(env).is_dir():
            raise TlaError(f"{DATA_DIR_ENV}={env}: not a directory")
        return Path(env)
    return Path(str(resources.files("tla"))) / "data"


def read_utf8(path: Path) -> str:
    """The file's text, less a leading byte order mark; invalid UTF-8 is a
    LineError naming the file and line."""
    with path.open("rb") as source:
        return "".join(decoded(line, n, source.name) for n, line in enumerate(source, start=1))
