"""Every line in the package is at most 100 characters long, so that the
code reads without wrapping in a side-by-side diff."""

from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skelhar"
MODULES = sorted(PACKAGE.rglob("*.py"))
MAX_LENGTH = 100


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_line_is_longer_than_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [f"line {n}: {len(line)} characters" for n, line in enumerate(lines, 1)
            if len(line) > MAX_LENGTH] == []
