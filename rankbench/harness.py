"""Set-up, input generation, correctness checks and the untraced timed run.

Load comes from one process and one thread, in two closed loops that
alternate within the measured window: a serial `run_trials` call on one of
CHUNKS short fixed chunks of trials, then a serial batch of `decode` calls
over received words generated before timing.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from rankmk import decoder
from rankmk.codes import GabidulinSpec, resolve_code
from rankmk.fields import ExtField
from rankmk.matrix import MatQm
from rankmk.simulate import SimConfig, rand_matrix, run_trials, sample_error, trial_rng

from spans import rebind
from workloads import DEFAULT_SEED, MODE, Workload

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Distinct run_trials chunks per run; each is timed best-of-k.  Short
# chunks are more likely to fit inside one of the host's fast spells.
CHUNKS = 32
# Every pool word is decoded at least this many times.
MIN_PASSES = 3
# Set-up is timed in this many slots, one per block in turn.
SETUP_SLOTS = 5


def build_code(wl: Workload):
    """The set-up that `setup_s` measures: field, code spec, resolved code."""
    ctx = ExtField(wl.q, wl.m)
    spec = GabidulinSpec(ctx, tuple(ctx.alpha_pow(i) for i in range(wl.n)), wl.k)
    return spec, resolve_code(spec)


def chunk_seed(seed: int, j: int) -> int:
    """Master seed of the j-th timed run_trials chunk of a run."""
    return (seed * 1_000_003 + j + 1) % (1 << 64)


def sim_config(wl: Workload, spec, trials: int, seed: int) -> SimConfig:
    return SimConfig(code=spec, ell=wl.ell, t=wl.t, trials=trials, seed=seed, mode=MODE)


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    codeword: MatQm
    received: MatQm
    guaranteed: bool  # t <= d-2, ell >= t and E has full F_{q^m}-rank


def make_pool(wl: Workload, code, seed: int) -> list[Word]:
    """Received words drawn as `run_trials` draws trial i of master seed `seed`."""
    ctx = code.ctx
    regime = wl.t <= wl.d - 2 and wl.ell >= wl.t
    pool = []
    for i in range(wl.pool):
        rng = trial_rng(seed, i)
        codeword = rand_matrix(rng, ctx, wl.ell, wl.k) @ code.gen
        err, _, _ = sample_error(rng, ctx, wl.ell, wl.n, wl.t, MODE)
        full_rank = regime and rank_ext(ctx, err.data) == wl.t
        pool.append(Word(codeword, codeword.add(err), full_rank))
    return pool


# -- independent checks -------------------------------------------------------
# These use only field arithmetic, so a fault in the matrix layer cannot hide
# itself by also breaking the check.


def rank_ext(ctx, rows) -> int:
    """Rank over F_{q^m} by plain Gaussian elimination."""
    work = [list(r) for r in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        s = ctx.inv(work[rank][c])
        prow = work[rank] = [ctx.mul(s, a) for a in work[rank]]
        for i in range(len(work)):
            f = work[i][c]
            if i != rank and f:
                work[i] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(work[i], prow)]
        rank += 1
    return rank


def is_codeword(ctx, h, rows) -> bool:
    """H @ C^T == 0, entry by entry."""
    for hrow in h.data:
        for crow in rows:
            acc = 0
            for a, b in zip(hrow, crow):
                acc = ctx.add(acc, ctx.mul(a, b))
            if acc:
                return False
    return True


class DecodeChecker:
    """Checks every decode outcome of a pool word.

    The first outcome of each word is checked in full: a success must be a
    codeword, and a word in the guaranteed regime must decode to the
    transmitted codeword.  Later outcomes of the same word must repeat it.
    """

    def __init__(self, code, pool: list[Word]):
        self.code = code
        self.pool = pool
        self.first: dict[int, tuple] = {}

    def ok(self, i: int, outcome) -> bool:
        key = (outcome.success, outcome.reason, outcome.c_hat.data if outcome.success else None)
        seen = self.first.get(i)
        if seen is not None:
            return key == seen
        self.first[i] = key
        word = self.pool[i]
        if outcome.success and not is_codeword(self.code.ctx, self.code.h, outcome.c_hat.data):
            return False
        if word.guaranteed and not (outcome.success and outcome.c_hat.data == word.codeword.data):
            return False
        return True


# -- reference tallies ----------------------------------------------------------


def reference_tallies(wl: Workload, spec, trials: int, seed: int = DEFAULT_SEED) -> dict:
    """run_trials tallies plus per-FailureReason and beyond-guarantee counts."""
    reasons: Counter = Counter()
    beyond = 0
    original = decoder.decode

    def recording(h, received, d=None):
        nonlocal beyond
        outcome = original(h, received, d)
        reasons[outcome.reason.value if outcome.reason else "success"] += 1
        beyond += outcome.beyond_guarantee
        return outcome

    with rebind({(decoder, "decode"): recording}):
        report = run_trials(sim_config(wl, spec, trials, seed))
    return {
        "seed": seed,
        "trials": trials,
        "tallies": report.tallies(),
        "reasons": dict(sorted(reasons.items())),
        "beyond_guarantee": beyond,
    }


def reference_matches(wl: Workload, spec) -> bool:
    expected = json.loads(REFERENCE.read_text())[wl.name]
    return reference_tallies(wl, spec, expected["trials"], expected["seed"]) == expected


# -- the untraced run ---------------------------------------------------------------
# The host's speed changes by up to half within seconds (other tenants share
# its cores), so a run repeats fixed work and keeps the fastest time of each
# piece: each pool word's decode and each run_trials chunk is timed best-of-k.
# Every pass visits the pool in a fresh order, so that a slow spell of the
# host that recurs with the pass period cannot hit the same words each time.
# Every word gets the same number of visits: the decode percentiles use the
# best times as they stood after the last complete pass.  They are therefore
# percentiles of per-word minima and cannot see a slow call that happens only
# now and then; the plain p99 over every timed decode goes into the run
# context beside them.
# Every block sets up once, in one of SETUP_SLOTS slots in turn; setup_s is
# the median of the slots' best times.


def run_untraced(wl: Workload, seed: int, seconds: float) -> dict:
    spec, code = build_code(wl)
    pool = make_pool(wl, code, seed)
    checker = DecodeChecker(code, pool)
    attempted = failed = 0
    errors: list[str] = []
    setup_best = [math.inf] * SETUP_SLOTS
    chunk_best = [math.inf] * CHUNKS
    chunk_tallies: dict[int, dict] = {}
    word_best = [math.inf] * len(pool)
    pass_best = word_best  # word_best after the last complete pass
    all_ns: list[int] = []
    order = list(range(len(pool)))
    shuffler = random.Random(seed)
    block = pos = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or block < CHUNKS or pos < MIN_PASSES * len(pool):
        t0 = time.perf_counter()
        build_code(wl)
        k = block % SETUP_SLOTS
        setup_best[k] = min(setup_best[k], time.perf_counter() - t0)
        j = block % CHUNKS
        block += 1
        attempted += wl.chunk
        t0 = time.perf_counter()
        try:
            report = run_trials(sim_config(wl, spec, wl.chunk, chunk_seed(seed, j)))
        except Exception as exc:  # counted as failed trials; the run goes on
            failed += wl.chunk
            errors.append(f"run_trials: {exc!r}")
        else:
            chunk_best[j] = min(chunk_best[j], time.perf_counter() - t0)
            if chunk_tallies.setdefault(j, report.tallies()) != report.tallies():
                failed += wl.chunk
        attempted += wl.batch
        for _ in range(wl.batch):
            if pos % len(pool) == 0:
                pass_best = list(word_best)
                shuffler.shuffle(order)
            i = order[pos % len(pool)]
            pos += 1
            t0 = time.perf_counter_ns()
            try:
                outcome = decoder.decode(code.h, pool[i].received, code.d)
            except Exception as exc:  # counted as a failed decode; the run goes on
                failed += 1
                errors.append(f"decode: {exc!r}")
                continue
            dt = time.perf_counter_ns() - t0
            all_ns.append(dt)
            word_best[i] = min(word_best[i], dt)
            if not checker.ok(i, outcome):
                failed += 1
    if pos % len(pool) == 0:
        pass_best = word_best
    attempted += 1
    if not reference_matches(wl, spec):
        failed += 1
        errors.append("run_trials tallies differ from reference.json")
    timed = [t for t in chunk_best if t < math.inf]
    words = [t for t in pass_best if t < math.inf]
    pct = statistics.quantiles(words, n=100)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "metrics": {
            "trials_per_s": (wl.chunk * len(timed) / sum(timed) if timed else 0.0, "1/s"),
            "decode_ms_p50": (pct[49] / 1e6, "ms"),
            "decode_ms_p99": (pct[98] / 1e6, "ms"),
            "setup_s": (statistics.median(setup_best), "s"),
        },
        "samples": {
            "decode_words": len(words),
            "visits_per_word": pos // len(pool),
            "decodes": len(all_ns),
            "decode_ms_p99_all_decodes": statistics.quantiles(all_ns, n=100)[98] / 1e6,
            "trial_chunks": len(timed),
            "trials_per_chunk": wl.chunk,
            "runs_per_chunk": block / CHUNKS,
            "setups": block,
        },
    }
