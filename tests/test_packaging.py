"""Every bundled asset ships in a built package.

Tests import ``tla`` from the source tree, so an asset that the
``[tool.setuptools.package-data]`` globs miss would pass them and still be
missing from every installed copy.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tla"


def test_package_data_globs_match_every_asset():
    with open(ROOT / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["tla"]
    matched = {glob: set(PACKAGE.glob(glob)) for glob in globs}
    assert [glob for glob, files in matched.items() if not files] == []
    assets = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert sorted(assets - set().union(*matched.values())) == []
