"""The benchmark's traced run works and every metric it reports is live.

A short `layers.run_traced` per gated workload: a few hundred words, 200
trials per pass, and the microbenchmarks at their minimum repetitions.
It must decode every word correctly and keep the decoder-stage
attribution's assumptions (`decode_spans_ok`); a traced name that `src`
no longer defines fails it with a KeyError.  A metric that reads exactly
0 measures nothing, so each must be on DEAD, the list in ROADMAP's Open
items (item 1a re-aims or drops them); a metric that dies fails here.
"""

from dataclasses import replace

import pytest

import layers
from workloads import WORKLOADS

SEED = 2831

# Pool words per workload: gf81-l2t2 fails about 1% of its words, and under
# 1% of the overload's words reach the erasure solve, so those pools are
# larger for the run to reach every stage.
POOL = {"gf16-l2t2": 200, "gf81-l2t2": 600, "gf16-l3t3-overload": 1000}

_DEAD_EVERYWHERE = {
    "matrix.construct.calls",
    "matrix.construct.self_ms",
    "matrix.rref.ext.ms",
    "matrix.rank_q.ms",
    "matrix.rref_with_transform.ms",
    "fields.mul.calls",
}
_DEAD_ON_Q2 = {"matrix.rref.subfield.ms", "matrix.ext_expand.ms", "fields.add.calls", "fields.neg.calls"}
DEAD = {
    "gf16-l2t2": _DEAD_EVERYWHERE | _DEAD_ON_Q2,
    "gf81-l2t2": _DEAD_EVERYWHERE,
    "gf16-l3t3-overload": _DEAD_EVERYWHERE | _DEAD_ON_Q2,
}


@pytest.mark.parametrize("name", POOL)
def test_traced_run_is_live(name, tmp_path):
    wl = replace(WORKLOADS[name], pool=POOL[name], fixed_trials=200)
    result = layers.run_traced(wl, SEED, 0.0, tmp_path / "spans.jsonl")
    assert (result["failed"], result["errors"]) == (0, [])
    zeros = {metric for metric, (value, _) in result["metrics"].items() if value == 0}
    assert zeros <= DEAD[name]
