"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines as they complete.
"""

import itertools
import time

import pytest

from conftest import all_rref_bases, gab_code, rank_deficient_error
from rankmk.decoder import compute_hsub, decode, mk_hamming_decode, recover_support, syndrome
from rankmk.fields import ExtField
from rankmk.matrix import MatQ, MatQm, ext_expand, right_kernel_qm, rref
from rankmk.simulate import (
    SimConfig,
    count_matrices_rank,
    lo_condition_check,
    rand_matrix,
    run_trials,
    sample_error,
    sample_full_rank,
    trial_rng,
    wilson_interval,
)

MASTER_SEED = 20260810


def report(criterion, ok, desc, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {criterion}] {status}: {desc}{timing}")
    assert ok, f"criterion {criterion}: {desc}"


# -- shared heavy fixtures (consumed again by criterion 6) -------------------------


@pytest.fixture(scope="module")
def golden(worked):
    """Criterion 1 pipeline values on the worked example of `rankmk demo`."""
    h = worked["H"]
    start = time.perf_counter()
    synd = syndrome(h, worked["R"])
    reduced = rref(synd)[0]
    t_hat, h_sub, _, _ = compute_hsub(h, synd)
    basis = recover_support(h_sub, t_hat)
    outcome = decode(h, worked["R"], d=4)
    elapsed = time.perf_counter() - start
    return dict(synd=synd, reduced=reduced, h_sub=h_sub, basis=basis, outcome=outcome, elapsed=elapsed)


@pytest.fixture(scope="module")
def exhaustion():
    """Criterion 2 sweep: every support basis, >= 50 full-rank coefficients each."""
    code = gab_code(2, 4, 4, 1)
    ctx = code.ctx
    start = time.perf_counter()
    total = failures = duality_failures = 0
    rng = trial_rng(MASTER_SEED, 0)
    for t in (1, 2):
        for basis in all_rref_bases(ctx, t, 4):
            for _ in range(50):
                coeff = sample_full_rank(rng, ctx, t, t, t, rank_over="qm")
                msg = rand_matrix(rng, ctx, t, code.k)
                word = msg @ code.gen
                err = coeff @ MatQm(ctx, basis.data, basis.cols)
                outcome = decode(code.h, word.add(err), code.d)
                total += 1
                if not (outcome.success and outcome.c_hat == word and outcome.b_hat == basis):
                    failures += 1
                elif right_kernel_qm(ext_expand(outcome.h_sub)) != outcome.b_hat:
                    duality_failures += 1
    return dict(
        total=total, failures=failures, duality_failures=duality_failures,
        elapsed=time.perf_counter() - start,
    )


@pytest.fixture(scope="module")
def bound_report():
    """Criterion 3 run: [4,1] code over F_{2^4}, t = ell = 2, uniform errors."""
    code = gab_code(2, 4, 4, 1)
    cfg = SimConfig(code=code, ell=2, t=2, trials=100_000, seed=MASTER_SEED, mode="uniform")
    return run_trials(cfg, check_support_duality=True)


@pytest.fixture(scope="module")
def high_rate_report():
    """Criterion 4 run: [10,2] code over F_{2^10}, t = ell = 7, uniform errors."""
    code = gab_code(2, 10, 10, 2)
    cfg = SimConfig(code=code, ell=7, t=7, trials=2000, seed=MASTER_SEED, mode="uniform")
    return run_trials(cfg, check_support_duality=True)


# -- criteria -------------------------------------------------------------------


def test_criterion_1_golden_example(golden, worked):
    g = golden
    ok = (
        g["synd"] == worked["S"]
        and g["reduced"] == worked["rref(S)"]
        and rref(g["h_sub"])[0] == rref(worked["H_sub"])[0]
        and g["basis"] == worked["B"]
        and g["outcome"].success
        and g["outcome"].a_hat == worked["A"]
        and g["outcome"].c_hat == worked["C"]
        and g["elapsed"] < 1.0
    )
    report(1, ok, "golden worked example reproduced bit-exactly", g["elapsed"])


def test_criterion_2_guarantee_exhaustion(exhaustion):
    e = exhaustion
    ok = e["failures"] == 0 and e["total"] == (15 + 35) * 50 and e["elapsed"] < 60
    report(
        2, ok,
        f"{e['total']} decodes over every support basis, {e['failures']} failures",
        e["elapsed"],
    )


def test_criterion_3_probability_bound(bound_report):
    r = bound_report
    bound = float(r.bound_product)
    ok = (
        r.config.trials == 100_000
        and bound < r.wilson_low
        and r.empirical_rate >= bound
        and r.miscorrections == 0
        and r.wall_time_s < 120
    )
    report(
        3, ok,
        f"empirical {r.empirical_rate:.5f} (wilson low {r.wilson_low:.5f}) >= bound {bound:.5f}",
        r.wall_time_s,
    )


def test_criterion_4_beyond_guarantee_rate(high_rate_report):
    r = high_rate_report
    low, high = wilson_interval(r.successes, r.config.trials)
    ok = r.empirical_rate > 0.99 and r.miscorrections == 0 and r.wall_time_s < 300
    report(
        4, ok,
        f"t=7 on the [10,2] code: empirical {r.empirical_rate:.4f} > 0.99 "
        f"(wilson [{low:.4f}, {high:.4f}])",
        r.wall_time_s,
    )


def _rank_tallies(q, n, m):
    """Rank tally of every n x m matrix over F_q, by its own enumeration.

    The matrices are walked row by row, each prefix carrying its row space,
    so a row costs one membership test.  A row outside the span raises the
    rank by one, and the longer prefix spans every s + c * row."""
    rows = list(itertools.product(range(q), repeat=m))
    tallies = [0] * (min(n, m) + 1)

    def walk(depth, span, rank):
        if depth == n - 1:
            for row in rows:
                tallies[rank + (row not in span)] += 1
            return
        for row in rows:
            if row in span:
                walk(depth + 1, span, rank)
            else:
                grown = {tuple((a + c * b) % q for a, b in zip(s, row)) for s in span for c in range(q)}
                walk(depth + 1, grown, rank + 1)

    walk(0, {(0,) * m}, 0)
    return tallies


def test_criterion_5_counting_identity():
    start = time.perf_counter()
    checked = 0
    for q in (2, 3):
        shapes = [(n, m) for n in range(1, 17) for m in range(1, 17) if q ** (n * m) <= 2**16]
        for n, m in shapes:
            tallies = _rank_tallies(q, n, m)
            for t, count in enumerate(tallies):
                assert count == count_matrices_rank(n, m, t, q), (q, n, m, t)
            assert sum(tallies) == q ** (n * m)
            checked += 1
    elapsed = time.perf_counter() - start
    report(5, elapsed < 10, f"rank counts match enumeration for {checked} shapes", elapsed)


def test_criterion_6_support_duality(golden, exhaustion, bound_report, high_rate_report):
    g_out = golden["outcome"]
    golden_ok = right_kernel_qm(ext_expand(g_out.h_sub)) == g_out.b_hat
    ok = (
        golden_ok
        and exhaustion["duality_failures"] == 0
        and bound_report.duality_violations == 0
        and high_rate_report.duality_violations == 0
    )
    report(6, ok, "dual of expanded trailing rows equals the support basis on every success")


def test_criterion_7_lo_condition():
    ctx = ExtField(2, 8)
    g = tuple(ctx.alpha_pow(i) for i in range(8))
    start = time.perf_counter()
    hits = 0
    for i in range(100):
        rng = trial_rng(MASTER_SEED, i)
        err, _, _ = sample_error(rng, ctx, 2, 8, 2, "fullrank")
        hits += lo_condition_check(g, 2, err)
    elapsed = time.perf_counter() - start
    report(7, hits == 100 and elapsed < 30, f"{hits}/100 stacked matrices have rank n-1", elapsed)


def test_criterion_8_hamming_analogy():
    code = gab_code(2, 5, 5, 2)  # MDS as a Hamming-metric code: d_H = 4
    ctx = code.ctx
    agree = 0
    trials = 100
    for i in range(trials):
        rng = trial_rng(MASTER_SEED + 1, i)
        t = 1 + rng.below(2)  # t <= d_H - 2
        positions = sorted(rng.below(5) for _ in range(t))
        while len(set(positions)) != t:
            positions = sorted(rng.below(5) for _ in range(t))
        coeff = sample_full_rank(rng, ctx, 2, t, t, rank_over="qm")
        rows = []
        for p in positions:
            row = [0] * 5
            row[p] = 1
            rows.append(row)
        basis = MatQ(ctx, rows, 5)
        msg = rand_matrix(rng, ctx, 2, code.k)
        word = msg @ code.gen
        received = word.add(coeff @ MatQm(ctx, basis.data, basis.cols))
        out_burst = mk_hamming_decode(code.h, received, d_hamming=4)
        out_rank = decode(code.h, received, d=4)
        if (
            out_burst.success and out_rank.success
            and out_burst.c_hat == word and out_rank.c_hat == word
        ):
            agree += 1
    report(8, agree == trials, f"{agree}/{trials} bursts decoded identically by both decoders")


def test_criterion_9_failure_honesty():
    instances = [(2, 4, 4, 1, 600), (2, 6, 5, 2, 400)]  # both have d = 4
    wrong_successes = 0
    decided = 0
    for q, m, n, k, trials in instances:
        code = gab_code(q, m, n, k)
        assert code.d >= 4
        ctx = code.ctx
        for i in range(trials):
            rng = trial_rng(MASTER_SEED + 2, decided + i)
            msg = rand_matrix(rng, ctx, 2, k)
            word = msg @ code.gen
            err = rank_deficient_error(rng, ctx, n)
            outcome = decode(code.h, word.add(err), code.d)
            if outcome.success and outcome.c_hat != word:
                wrong_successes += 1
        decided += trials
    report(
        9, wrong_successes == 0 and decided == 1000,
        f"{decided} rank-deficient plants: {wrong_successes} wrong-codeword successes",
    )
