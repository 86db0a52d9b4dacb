"""Bundled data files (stopwords, lexicons, seed texts) and their override."""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import LineError

#: Environment variable pointing at an alternative assets directory.
DATA_DIR_ENV = "TLA_DATA_DIR"


def data_dir(override: Optional[Path] = None) -> Path:
    """Resolve the assets directory: explicit override, then env var, then bundled."""
    if override is not None:
        return Path(override)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("tla"))) / "data"


def read_utf8(path: Path) -> str:
    """The file's text; invalid UTF-8 is a LineError naming the file and line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        error = LineError(line, f"invalid UTF-8: {exc.reason}")
        error.path = str(path)
        raise error from None
