"""Workload definitions: Gabidulin codes with locators 1, alpha, ..., alpha^(n-1).

Every workload uses `uniform` errors and keeps t <= ell, because
`run_trials` with t > ell runs every trial and only then raises in
`success_lower_bound` (see NOTES.md).  Sizes are chosen so that one trials
chunk takes about 10 ms and one decode batch about 40 ms on a 2-core x86
host under Python 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass

# Master seed of the committed reference tallies (reference.json).
DEFAULT_SEED = 20260810
# p99 over 1100 words leaves 11 above it.
POOL_WORDS = 1100
# Error mode of every workload's run_trials and word pool.
MODE = "uniform"


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    m: int
    n: int
    k: int
    ell: int
    t: int
    chunk: int  # trials per timed run_trials call
    batch: int  # decodes per timed batch
    # Trials of each fixed-size run_trials call: the reference run at
    # DEFAULT_SEED, and each pass of the traced run.
    fixed_trials: int
    # (rows, cols) of the random operands in the primitive microbenchmarks:
    # an F_{q^m} matrix for rref, an F_q matrix for rref, and an F_{q^m}
    # matrix for ext_expand.
    rref_ext_shape: tuple[int, int]
    rref_sub_shape: tuple[int, int]
    expand_shape: tuple[int, int]
    pool: int = POOL_WORDS  # distinct received words per run

    @property
    def d(self) -> int:
        return self.n - self.k + 1


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 3.  Tiny matrices: per-call overhead (MatQm construction
        # and entry checks) dominates.
        Workload(
            "gf16-l2t2", 2, 4, 4, 1, 2, 2,
            chunk=30, batch=200, fixed_trials=1000,
            # Decode shapes: solve_right's 3x4 augmented system, the 4x4
            # expansion of the single trailing row, that row itself.
            rref_ext_shape=(3, 4), rref_sub_shape=(4, 4), expand_shape=(1, 4),
        ),
        # Criterion 4.  The largest matrices: extension-field elimination,
        # rank_q through GF(2) and post-solve verification dominate.  Not in
        # BENCHMARK.json: its decode is too slow for enough visits per word
        # in one run on a noisy host (see NOTES.md); it runs by hand.
        Workload(
            "gf1024-l7t7", 2, 10, 10, 2, 7, 7,
            chunk=2, batch=40, fixed_trials=150,
            # solve_right's 8x14 system, verification's 70x10 expansion of
            # the 7x10 error estimate.
            rref_ext_shape=(8, 14), rref_sub_shape=(70, 10), expand_shape=(7, 10),
        ),
        # Odd q: digit-loop add/neg/sub, no GF(2) path.
        Workload(
            "gf81-l2t2", 3, 4, 4, 1, 2, 2,
            chunk=15, batch=70, fixed_trials=600,
            rref_ext_shape=(3, 4), rref_sub_shape=(4, 4), expand_shape=(1, 4),
        ),
        # t = d - 1: past the guarantee; decodes take the failure path and
        # rank-conditioned sampling dominates the trial.
        Workload(
            "gf16-l3t3-overload", 2, 4, 4, 1, 3, 3,
            chunk=40, batch=500, fixed_trials=1500,
            # The 3x3 syndrome echelon, the 12x3 expansion of the 3x3
            # coefficient draw that the sampler rank-checks, that draw itself.
            rref_ext_shape=(3, 3), rref_sub_shape=(12, 3), expand_shape=(3, 3),
            # About 0.7% of words miscorrect and run the whole success path,
            # at twice the cost of the rest; the share must stay well below
            # the 1% tail in every seed, or p99 jumps between the two.
            pool=10000,
        ),
    )
}
