"""Checks on the package's source text and on what it imports."""

import os
import subprocess
import sys
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


def test_runtime_loads_no_scipy():
    """The runtime needs numpy only: a fresh interpreter that imports the
    package and its command line holds no scipy module."""
    probe = ("import sys, dynglr, dynglr.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(dynglr.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
