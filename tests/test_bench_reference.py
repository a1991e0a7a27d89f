"""`run_trials` reproduces the benchmark's committed reference tallies.

`rankbench/reference.json` holds, per workload, the tallies of a seeded
run together with the per-FailureReason and beyond-guarantee counts of its
decodes.  The benchmark fails a run whose tallies drift from them; this
test fails first.
"""

import json

import pytest

import harness
from workloads import WORKLOADS

NAMES = sorted(json.loads(harness.REFERENCE.read_text()))


@pytest.mark.parametrize("name", NAMES)
def test_reference_tallies(name):
    wl = WORKLOADS[name]
    spec, _ = harness.build_code(wl)
    assert harness.reference_matches(wl, spec)
