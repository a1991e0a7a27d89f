"""`run_trials` reproduces the benchmark's committed reference tallies.

`rankbench/reference.json` holds, per workload, the tallies of a seeded
run together with the per-FailureReason and beyond-guarantee counts of its
decodes.  The benchmark fails a run whose tallies drift from them; this
test fails first.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "rankbench"))
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(json.loads(harness.REFERENCE.read_text()))


@pytest.mark.parametrize("name", NAMES)
def test_reference_tallies(name):
    wl = WORKLOADS[name]
    spec, _ = harness.build_code(wl)
    assert harness.reference_matches(wl, spec)
