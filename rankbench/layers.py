"""The traced run: per-layer metrics from spans, call counts and microbenchmarks.

The run does a fixed amount of traced work, so that its counts repeat
exactly for a seed:

1. set-up, with a span around each of its three steps;
2. an untraced pass over the run's word pool and `fixed_trials` trials;
3. the same pass with every traced name rebound (see TARGETS);
4. the untraced pass again, so the overhead compares adjacent passes;
5. a decode pass counting field operations;
6. microbenchmarks of field and matrix primitives, repeated until the
   run has lasted `--seconds`, each timed best-of-k.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

from rankmk import decoder, fields, matrix, simulate
from rankmk.codes import GabidulinSpec, resolve_code
from rankmk.decoder import FailureReason
from rankmk.fields import ExtField
from rankmk.simulate import rand_matrix, run_trials, trial_rng

from harness import DecodeChecker, chunk_seed, make_pool, sim_config
from spans import CallCounter, Tracer
from workloads import Workload

SETUP_REPS = 21
SETUP_STEPS = ("fields.construct", "codes.gabidulin_spec", "codes.resolve_code")
FIELD_OPERANDS = 20_000
MICRO_MATRICES = 32
MICRO_MIN_REPS = 5


def _rref_kind(args) -> str:
    return "subfield" if isinstance(args[0], matrix.MatQ) else "ext"


# Spans are recorded around these public names.  `rref` is split by the
# type of its argument: subfield (F_q, the GF(2) path when q = 2) or ext.
TARGETS = [
    (decoder, "decode", "decoder.decode"),
    (decoder, "syndrome", "decoder.syndrome"),
    (decoder, "compute_hsub", "decoder.compute_hsub"),
    (decoder, "recover_support", "decoder.recover_support"),
    (decoder, "erasure_decode", "decoder.erasure_decode"),
    (matrix, "rref", "matrix.rref", _rref_kind),
    (matrix, "rref_with_transform", "matrix.rref_with_transform"),
    (matrix, "ext_expand", "matrix.ext_expand"),
    (matrix, "rank_q", "matrix.rank_q"),
    (matrix, "rank_qm", "matrix.rank_qm"),
    (matrix, "right_kernel_q", "matrix.right_kernel_q"),
    (matrix, "solve_right", "matrix.solve_right"),
    (matrix.MatQm, "__init__", "matrix.construct"),
    (matrix.MatQm, "__matmul__", "matrix.matmul"),
    (simulate, "sample_error", "simulate.sample_error"),
    (simulate, "sample_full_rank", "simulate.sample_full_rank"),
    (simulate, "rand_matrix", "simulate.rand_matrix"),
]

FIELD_OPS = ("add", "sub", "neg", "mul", "inv")
COUNTED = [(fields.ExtField, op, op) for op in FIELD_OPS]

# Decoder stages keyed by the span that opens them.  The rank_qm that
# `decode` calls itself is the failure path's rank recompute; everything
# else `decode` does outside these stages is post-solve verification.
STAGE_OF = {
    "decoder.syndrome": "syndrome",
    "decoder.compute_hsub": "compute_hsub",
    "decoder.recover_support": "support_kernel",
    "decoder.erasure_decode": "erasure",
}
STAGES = ("syndrome", "compute_hsub", "support_kernel", "erasure", "verify", "failure_rank")
# Every traced name that `decode` may call itself.  One outside this set
# would be attributed to `verify` without anyone having decided so.
DECODE_CALLS = set(STAGE_OF) | {"matrix.rank_qm", "matrix.rank_q", "matrix.matmul", "matrix.construct"}

# (metric, span name, statistic) for the matrix layer, per decoded word.
MATRIX_METRICS = [
    ("matrix.rref.subfield.ms", "matrix.rref.subfield", "self"),
    ("matrix.rref.ext.ms", "matrix.rref.ext", "self"),
    ("matrix.ext_expand.ms", "matrix.ext_expand", "self"),
    ("matrix.rank_q.ms", "matrix.rank_q", "inclusive"),
    ("matrix.rref_with_transform.ms", "matrix.rref_with_transform", "self"),
    ("matrix.matmul.ms", "matrix.matmul", "self"),
    ("matrix.solve_right.ms", "matrix.solve_right", "self"),
]


def _decode_pass(code, pool):
    return [decoder.decode(code.h, w.received, code.d) for w in pool]


class _SpanTable:
    """Names, durations and self times of every recorded span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.own = tracer.self_times()
        self.name = [tracer.names[n] for n in tracer.name_id]

    def dur(self, i: int) -> int:
        return self.tracer.end[i] - self.tracer.start[i]

    def by_name(self, idx):
        calls, own, incl = Counter(), Counter(), Counter()
        for i in idx:
            nm = self.name[i]
            calls[nm] += 1
            own[nm] += self.own[i]
            incl[nm] += self.dur(i)
        return calls, own, incl

    def decode_spans_ok(self, root: int, idx, outcomes) -> list[bool] | None:
        """Whether each word's decode span has the shape the stage attribution
        assumes; None if `root` does not hold exactly one decode span per word.

        A decode span must open with its one `syndrome` call, call only names
        in DECODE_CALLS itself, and call `rank_qm` itself exactly when it
        returned a failure other than VERIFICATION_FAILED.
        """
        parent = self.tracer.parent
        words = [i for i in idx if parent[i] == root]
        if len(words) != len(outcomes) or any(self.name[i] != "decoder.decode" for i in words):
            return None
        calls: dict[int, list[str]] = {i: [] for i in words}
        for i in idx:
            if parent[i] in calls:
                calls[parent[i]].append(self.name[i])
        ok = []
        for i, outcome in zip(words, outcomes):
            names = calls[i]
            rank_recompute = not outcome.success and outcome.reason is not FailureReason.VERIFICATION_FAILED
            ok.append(
                names[:1] == ["decoder.syndrome"]
                and names.count("decoder.syndrome") == 1
                and set(names) <= DECODE_CALLS
                and ("matrix.rank_qm" in names) == rank_recompute
            )
        return ok

    def stages(self, idx) -> tuple[dict[str, int], int]:
        """Self time per decoder stage, and the total inclusive decode time.

        The stage times add up to the decode time by construction: self times
        over a complete subtree sum to the root's duration."""
        parent = self.tracer.parent
        stage: dict[int, str] = {}
        per_stage = dict.fromkeys(STAGES, 0)
        total = 0
        for i in idx:
            nm, p = self.name[i], parent[i]
            if nm == "decoder.decode":
                st = "verify"
                total += self.dur(i)
            elif nm in STAGE_OF:
                st = STAGE_OF[nm]
            elif self.name[p] == "decoder.decode":
                st = "failure_rank" if nm == "matrix.rank_qm" else "verify"
            else:
                st = stage[p]
            stage[i] = st
            per_stage[st] += self.own[i]
        return per_stage, total


def _micro(wl: Workload, ctx: ExtField, seed: int, deadline: float) -> dict[str, tuple[float, str]]:
    """ns/op of field add, mul, inv and us/call of rref and ext_expand, on
    seeded operands in untraced tight loops."""
    rng = trial_rng(seed, 1 << 32)
    a = [1 + rng.below(ctx.order - 1) for _ in range(FIELD_OPERANDS)]
    b = [1 + rng.below(ctx.order - 1) for _ in range(FIELD_OPERANDS)]
    rref, ext_expand = matrix.rref, matrix.ext_expand
    mats_ext = [rand_matrix(rng, ctx, *wl.rref_ext_shape) for _ in range(MICRO_MATRICES)]
    mats_sub = [rand_matrix(rng, ctx, *wl.rref_sub_shape, subfield=True) for _ in range(MICRO_MATRICES)]
    mats_exp = [rand_matrix(rng, ctx, *wl.expand_shape) for _ in range(MICRO_MATRICES)]

    def binary(op):
        return lambda: [op(x, y) for x, y in zip(a, b)]

    cases = {
        "fields.add.ns": (binary(ctx.add), FIELD_OPERANDS, 1.0, "ns/op"),
        "fields.mul.ns": (binary(ctx.mul), FIELD_OPERANDS, 1.0, "ns/op"),
        "fields.inv.ns": (lambda: [ctx.inv(x) for x in a], FIELD_OPERANDS, 1.0, "ns/op"),
        "matrix.micro.rref_ext.us": (lambda: [rref(x) for x in mats_ext], MICRO_MATRICES, 1e-3, "us/call"),
        "matrix.micro.rref_subfield.us": (lambda: [rref(x) for x in mats_sub], MICRO_MATRICES, 1e-3, "us/call"),
        "matrix.micro.ext_expand.us": (lambda: [ext_expand(x) for x in mats_exp], MICRO_MATRICES, 1e-3, "us/call"),
    }
    times = {name: [] for name in cases}
    while min(len(v) for v in times.values()) < MICRO_MIN_REPS or time.perf_counter() < deadline:
        for name, (fn, _, _, _) in cases.items():
            t0 = time.perf_counter_ns()
            fn()
            times[name].append(time.perf_counter_ns() - t0)
    return {
        name: (min(times[name]) / count * scale, unit)
        for name, (_, count, scale, unit) in cases.items()
    }


def run_traced(wl: Workload, seed: int, seconds: float, spans_path) -> dict:
    start = time.perf_counter()
    tracer = Tracer()
    for _ in range(SETUP_REPS):
        with tracer.span("fields.construct"):
            ctx = ExtField(wl.q, wl.m)
        with tracer.span("codes.gabidulin_spec"):
            spec = GabidulinSpec(ctx, tuple(ctx.alpha_pow(j) for j in range(wl.n)), wl.k)
        with tracer.span("codes.resolve_code"):
            code = resolve_code(spec)

    pool = make_pool(wl, code, seed)
    checker = DecodeChecker(code, pool)
    cfg = sim_config(wl, spec, wl.fixed_trials, chunk_seed(seed, 0))
    attempted = failed = 0
    errors: list[str] = []

    def untraced_pass():
        t0 = time.perf_counter_ns()
        outcomes = _decode_pass(code, pool)
        t1 = time.perf_counter_ns()
        report = run_trials(cfg)
        return outcomes, report, t1 - t0, time.perf_counter_ns() - t1

    outcomes, report, dec_u1, tri_u1 = untraced_pass()
    attempted += len(pool) + cfg.trials
    failed += sum(not checker.ok(i, o) for i, o in enumerate(outcomes))

    with tracer.rebound(TARGETS):
        with tracer.span("pass.decode") as droot:
            traced = _decode_pass(code, pool)
        with tracer.span("pass.trials") as troot:
            traced_report = run_trials(cfg)
    dec_t = tracer.end[droot] - tracer.start[droot]
    tri_t = tracer.end[troot] - tracer.start[troot]
    attempted += len(pool) + cfg.trials
    traced_ok = [checker.ok(i, o) for i, o in enumerate(traced)]
    failed += traced_ok.count(False)
    failed += 0 if traced_report.tallies() == report.tallies() else cfg.trials

    again, again_report, dec_u2, tri_u2 = untraced_pass()
    attempted += len(pool) + cfg.trials
    failed += sum(not checker.ok(i, o) for i, o in enumerate(again))
    failed += 0 if again_report.tallies() == report.tallies() else cfg.trials

    counter = CallCounter()
    with counter.rebound(COUNTED):
        counted = _decode_pass(code, pool)
    attempted += len(pool)
    failed += sum(not checker.ok(i, o) for i, o in enumerate(counted))

    micro = _micro(wl, ctx, seed, start + seconds)

    words, trials = len(pool), cfg.trials
    table = _SpanTable(tracer)
    dec_idx, tri_idx = tracer.subtree(droot), tracer.subtree(troot)
    per_stage, decode_ns = table.stages(dec_idx)
    # The traced decodes were counted above; a word whose spans break the
    # stage attribution's assumptions fails as well, unless it failed already.
    shape_ok = table.decode_spans_ok(droot, dec_idx, traced)
    if shape_ok is None:
        shape_ok = [False] * len(pool)
        errors.append("pass.decode does not hold exactly one decoder.decode span per word")
    bad_shape = [i for i, ok in enumerate(shape_ok) if not ok]
    failed += sum(traced_ok[i] for i in bad_shape)
    if bad_shape:
        errors.append(f"{len(bad_shape)} traced decodes break the decoder stage attribution")
    calls, own, incl = table.by_name(dec_idx)
    tcalls, town, tincl = table.by_name(tri_idx)
    # Rank-conditioned draws: rand_matrix calls made by sample_full_rank.
    name, parent = table.name, tracer.parent
    draws = sum(
        1 for i in tri_idx if name[i] == "simulate.rand_matrix" and name[parent[i]] == "simulate.sample_full_rank"
    )

    m: dict[str, tuple[float, str]] = {}
    m["matrix.construct.calls"] = (tcalls["matrix.construct"] / trials, "calls/trial")
    m["matrix.construct.self_ms"] = (town["matrix.construct"] / trials / 1e6, "ms/trial")
    for metric, span, stat in MATRIX_METRICS:
        m[metric] = ((own if stat == "self" else incl)[span] / words / 1e6, "ms/word")
    m["matrix.matmul.calls"] = (calls["matrix.matmul"] / words, "calls/word")
    for op in FIELD_OPS:
        m[f"fields.{op}.calls"] = (counter.counts[op] / words, "calls/word")
    m.update(micro)
    for st in STAGES:
        m[f"decoder.{st}.ms"] = (per_stage[st] / words / 1e6, "ms/word")
    m["decoder.decode.ms"] = (decode_ns / words / 1e6, "ms/word")
    m["simulate.sample_error.ms"] = (tincl["simulate.sample_error"] / trials / 1e6, "ms/trial")
    m["simulate.rand_matrix.calls"] = (tcalls["simulate.rand_matrix"] / trials, "calls/trial")
    m["simulate.sample_accept_ratio"] = (tcalls["simulate.sample_full_rank"] / draws if draws else 0.0, "ratio")
    for step in SETUP_STEPS:
        durations = [table.dur(i) for i in range(len(name)) if name[i] == step]
        m[f"{step}.ms"] = (statistics.median(durations) / 1e6, "ms")
    m["trace.overhead.decode"] = (dec_t / ((dec_u1 + dec_u2) / 2), "ratio")
    m["trace.overhead.trials"] = (tri_t / ((tri_u1 + tri_u2) / 2), "ratio")

    tracer.dump(spans_path)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": m,
        "samples": {"decode_words": words, "trials": trials, "spans": len(tracer.start)},
    }
