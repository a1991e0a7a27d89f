"""The names the benchmark's traced run rebinds must exist where it looks.

`rankbench/layers.py` records spans around the functions in TARGETS and
counts the field operations in COUNTED.  Renaming or deleting one of them
would crash the traced run with a KeyError; this test fails first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "rankbench"))
import layers  # noqa: E402

NAMES = [(entry[0], entry[1]) for entry in layers.TARGETS + layers.COUNTED]


@pytest.mark.parametrize("owner, attr", NAMES, ids=[f"{o.__name__}.{a}" for o, a in NAMES])
def test_traced_name_exists(owner, attr):
    assert attr in owner.__dict__
