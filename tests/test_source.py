"""Checks on the package's source text."""

from pathlib import Path

import dynglr

MAX_LINE = 100


def test_no_source_line_is_over_the_limit():
    src = Path(dynglr.__file__).resolve().parent
    long_lines = [f"{path.name}:{n}: {len(line)} characters"
                  for path in sorted(src.glob("*.py"))
                  for n, line in enumerate(path.read_text().splitlines(), start=1)
                  if len(line) > MAX_LINE]
    assert long_lines == []
