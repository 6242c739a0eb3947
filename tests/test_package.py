"""Package metadata."""

from pathlib import Path

import pytest

import fejerlab


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert fejerlab.__version__ == project["version"]
