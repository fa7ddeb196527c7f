"""Checks on the package sources themselves."""
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "specwalk").glob("*.py"))


def test_sources_are_ascii():
    assert SOURCES
    for path in SOURCES:
        for lineno, line in enumerate(path.read_bytes().splitlines(), 1):
            assert line.isascii(), f"{path.name}:{lineno}: non-ASCII text"
