"""Property tests: the shared decoding pipeline and its success condition,
the LO condition (implied by a success, and equivalent to one at t = d - 2),
the high-order regime (ell up to 32t), the outcome's symmetries, what a
miscorrection implies and a brute-force check that a success is the unique
nearest codeword, the dual-code construction, the carried row reduction,
the beyond-d-2 condition, the F_q rank and kernel on both matrix types, the
two elimination passes against one-loop Gauss-Jordan, with and without
field tables, and the input parsers.

Hypothesis runs derandomized, and the loops draw from fixed SplitMix64
seeds, so every run checks the same examples.
"""

import copy
from collections import Counter
from dataclasses import replace
from functools import cache, reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    REGIME_FIELDS,
    _condition_oracle,
    block,
    check_echelon_blocks,
    column_burst,
    f8_code,
    gab_code,
    is_rref,
    planted_word,
    twist,
    twisted_gabidulin,
)
from rankmk.codes import (
    GabidulinSpec,
    LinearCodeSpec,
    code_spec_from_text,
    code_spec_to_text,
    min_rank_distance_exhaustive,
    parity_check_from_generator,
    resolve_code,
)
from rankmk.decoder import (
    DecodeFailure,
    FailureReason,
    _decode,
    beyond_d2_condition,
    compute_hsub,
    decode,
    erasure_decode,
    mk_hamming_decode,
    syndrome,
)
from rankmk.errors import FormatError, ParameterError, RankDeficientError
from rankmk.fields import ExtField
from rankmk.matrix import (
    MatQ,
    MatQm,
    _forward_carry,
    ext_expand,
    mat_from_text,
    rank_q,
    rank_qm,
    rref,
    rref_carry,
    right_kernel_q,
    right_kernel_qm,
    solve_right,
)
from rankmk.simulate import lo_condition_check, rand_matrix, sample_error, sample_full_rank, trial_rng

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# [5, 2] Gabidulin code over F_{2^5}: MDS in both metrics, d = d_H = 4.
CODE = gab_code(2, 5, 5, 2)
D = 4


@st.composite
def column_bursts(draw):
    """(codeword, error, received): the error is zero outside 0..n-k random
    columns, and each of those columns is nonzero."""
    ctx, n, k = CODE.ctx, CODE.n, CODE.k
    ell = draw(st.integers(1, 4))
    positions = draw(st.lists(st.integers(0, n - 1), max_size=n - k, unique=True))
    element = st.integers(0, ctx.order - 1)
    column = st.lists(element, min_size=ell, max_size=ell).filter(any)
    cols = {p: draw(column) for p in positions}
    err = MatQm(ctx, [[cols[j][i] if j in cols else 0 for j in range(n)] for i in range(ell)])
    msg = MatQm(ctx, draw(st.lists(st.lists(element, min_size=k, max_size=k), min_size=ell, max_size=ell)))
    word = msg @ CODE.gen
    return word, err, word.add(err)


def _burst_weight(err: MatQm) -> int:
    return sum(1 for j in range(err.cols) if any(row[j] for row in err.data))


@PROPERTY
@given(column_bursts())
def test_rank_and_burst_decoders_agree_on_bursts(burst):
    word, err, received = burst
    out_r = decode(CODE.h, received, d=D)
    out_h = mk_hamming_decode(CODE.h, received, d_hamming=D)
    assert (out_r.t_hat, out_r.beyond_guarantee) == (out_h.t_hat, out_h.beyond_guarantee)
    for out in (out_r, out_h):
        if out.success:
            assert (CODE.h @ out.c_hat.transpose()).is_zero()
    t = _burst_weight(err)
    if t <= D - 2 and rank_qm(err) == t:
        assert out_r.success and out_h.success
        assert out_r.c_hat == out_h.c_hat == word
        assert out_r.b_hat == out_h.b_hat


GAB_CODES = [gab_code(2, 4, 4, 1), gab_code(3, 3, 3, 1), CODE]
GENERIC_FIELDS = [(2, 2), (2, 4), (3, 2)]


def _matrix(draw, ctx: ExtField, rows: int, cols: int, bound: int) -> MatQm:
    """A rows x cols matrix over ctx with entries drawn from 0 .. bound - 1."""
    entries = st.lists(st.integers(0, bound - 1), min_size=cols, max_size=cols)
    return MatQm(ctx, draw(st.lists(entries, min_size=rows, max_size=rows)), cols)


@st.composite
def decoding_instances(draw):
    """(H, received, gabidulin): a Gabidulin code or a random full-row-rank
    generic one, and one draw in four a uniformly random word, else a
    codeword plus A @ B with B over F_q of t <= n - k rows."""
    gabidulin = draw(st.booleans())
    if gabidulin:
        code = draw(st.sampled_from(GAB_CODES))
        h, gen = code.h, code.gen
    else:
        ctx = ExtField(*draw(st.sampled_from(GENERIC_FIELDS)))
        n = draw(st.integers(2, 5))
        r = draw(st.integers(1, n - 1))
        element = st.integers(0, ctx.order - 1)
        h = MatQm(ctx, draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=r, max_size=r)))
        assume(rank_qm(h) == r)
        gen = right_kernel_qm(h)
    ctx, n = h.ctx, h.cols
    ell = draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 0:
        return h, _matrix(draw, ctx, ell, n, ctx.order), gabidulin
    t = draw(st.integers(0, h.rows))
    word = _matrix(draw, ctx, ell, gen.rows, ctx.order) @ gen
    err = _matrix(draw, ctx, ell, t, ctx.order) @ _matrix(draw, ctx, t, n, ctx.q)
    return h, word.add(err), gabidulin


@settings(PROPERTY, max_examples=300)
@given(decoding_instances())
def test_success_has_the_syndrome_rank_as_weight(case):
    # The decoders check only H_sub @ B^T = 0 at run time; H @ C_hat^T = 0
    # and a removed error of weight t_hat follow by the algebra, and this
    # property holds both.
    h, received, gabidulin = case
    for dec, weight in ((decode, rank_q), (mk_hamming_decode, _burst_weight)):
        out = dec(h, received)
        if gabidulin:  # MRD: no nonzero codeword of weight <= t_hat < n - k
            assert out.reason is not FailureReason.RANK_DEFICIENT
        if out.success:
            assert (h @ out.c_hat.transpose()).is_zero()
            assert weight(received.sub(out.c_hat)) == out.t_hat


LO_CODES = [gab_code(2, 4, 4, 1), gab_code(2, 5, 5, 1), gab_code(2, 6, 6, 2), gab_code(3, 5, 5, 2)]


@st.composite
def lo_instances(draw):
    """(code, locators, error, received): a codeword plus A @ B, with B over
    F_q of t <= d - 2 = n - k - 1 rows, where lo_condition_check is defined."""
    code = draw(st.sampled_from(LO_CODES))
    ctx, n = code.ctx, code.n
    g = tuple(ctx.alpha_pow(i) for i in range(n))
    ell = draw(st.integers(1, 4))
    t = draw(st.integers(0, code.d - 2))
    err = _matrix(draw, ctx, ell, t, ctx.order) @ _matrix(draw, ctx, t, n, ctx.q)
    return code, g, err, (_matrix(draw, ctx, ell, code.k, ctx.order) @ code.gen).add(err)


@settings(PROPERTY, max_examples=300)
@given(lo_instances())
def test_decode_success_implies_lo_condition(case):
    # One direction only: below d - 2 the LO condition also holds on some
    # words that `decode` fails (see `lo_condition_check`).
    code, g, err, received = case
    if decode(code.h, received, code.d).success:
        assert lo_condition_check(g, code.k, err)


def test_decode_success_is_the_lo_condition_at_d_minus_2():
    # At t = d - 2 the implication above is an equivalence.  Over ell = 1 to
    # t + 1, with uniform errors and, where t <= ell, fullrank ones, a seeded
    # run of 1,000 words per case (22,000 words, these streams) agreed on
    # every word; this checks the first 100 of each.
    case = 0
    for code in LO_CODES:
        ctx, n, k, t = code.ctx, code.n, code.k, code.d - 2
        g = tuple(ctx.alpha_pow(i) for i in range(n))
        for ell in range(1, t + 2):
            for mode in ("uniform", "fullrank") if t <= ell else ("uniform",):
                rng = trial_rng(2909, case)
                case += 1
                for i in range(100):
                    word = rand_matrix(rng, ctx, ell, k) @ code.gen
                    err, _, _ = sample_error(rng, ctx, ell, n, t, mode)
                    out = decode(code.h, word.add(err), code.d)
                    assert out.success == lo_condition_check(g, k, err), (ctx.q, ctx.m, k, ell, mode, i)


# -- the paper's high-order regime, and what a miscorrection looks like --------------------


def _generic_code() -> LinearCodeSpec:
    """A seeded random [5, 2] code over F_{2^5}, not MRD: d = 3 by enumeration."""
    h = rand_matrix(trial_rng(2110, 0), ExtField(2, 5), 3, 5)
    return resolve_code(LinearCodeSpec(h, min_rank_distance_exhaustive(LinearCodeSpec(h))))


HIGH_ORDER_CODES = {
    "gab-4-1-F16": gab_code(2, 4, 4, 1),
    "gab-4-1-F81": gab_code(3, 4, 4, 1),
    "gab-6-2-F64": gab_code(2, 6, 6, 2),
    "generic-5-2-F32": _generic_code(),
}


def _annihilated(h: MatQm, c: MatQm) -> bool:
    """H @ C^T = 0, entry by entry with the field's `mul` and `add` alone."""
    add, mul = h.ctx.add, h.ctx.mul
    return all(reduce(add, map(mul, hrow, crow), 0) == 0 for hrow in h.data for crow in c.data)


@pytest.mark.parametrize("factor", [1, 4, 32])
@pytest.mark.parametrize("name", HIGH_ORDER_CODES)
def test_high_order_interleaving_keeps_the_guarantee(name, factor):
    # ell = t, 4t and 32t with t = d - 2: every fullrank error is corrected,
    # and no uniform error of weight up to n - k gives a non-codeword success.
    code = HIGH_ORDER_CODES[name]
    t = code.d - 2
    ell = factor * t
    for seed in range(20):
        word, _, received = planted_word(code, ell, t, seed)
        out = decode(code.h, received, code.d)
        assert out.success and out.c_hat == word and out.t_hat == t, seed
    for weight in range(1, code.n - code.k + 1):
        for seed in range(5):
            _, _, received = planted_word(code, ell, weight, seed, mode="uniform")
            for dec in (decode, mk_hamming_decode):
                out = dec(code.h, received, code.d)
                assert not out.success or _annihilated(code.h, out.c_hat), (weight, seed, dec)


@pytest.mark.parametrize("name", HIGH_ORDER_CODES)
def test_premise_check_is_the_parity_check(name):
    # Once the erasure solve succeeds, H_sub @ B^T = 0 holds exactly when
    # H @ C_hat^T = 0.  Injected supports, every other one drawn inside
    # ker(H_sub) where that kernel is large enough and the rest drawn freely,
    # hold _decode's check to the parity check of the word the solve gives.
    code = HIGH_ORDER_CODES[name]
    h, ctx, n = code.h, code.ctx, code.n
    rng = trial_rng(2403, 0)
    seen = Counter()
    for t in range(1, n - code.k):
        for ell in sorted({1, t, 4 * t}):
            for i in range(8):
                word = rand_matrix(rng, ctx, ell, code.k) @ code.gen
                received = word.add(sample_error(rng, ctx, ell, n, t, mode="uniform")[0])
                t_hat, h_sub, r_top, top = compute_hsub(h, syndrome(h, received))
                kernel = right_kernel_q(h_sub)
                if i % 2 == 0 and kernel.rows >= t_hat:
                    basis = sample_full_rank(rng, ctx, t_hat, kernel.rows, t_hat, subfield=True) @ kernel
                else:
                    basis = sample_full_rank(rng, ctx, t_hat, n, t_hat, subfield=True)
                out = _decode(h, received, code.d, lambda h_sub, t_hat: basis)
                try:
                    a_hat = erasure_decode(top, r_top, basis)
                except DecodeFailure:
                    assert out.reason is FailureReason.RANK_DEFICIENT
                    continue
                c_hat = received.sub(a_hat @ basis)
                parity = _annihilated(h, c_hat)
                assert (out.reason is FailureReason.VERIFICATION_FAILED) is not parity, (t, ell, i)
                assert not parity or (out.success and out.c_hat == c_hat)
                seen[parity] += 1
    assert seen[True] and seen[False], seen


# Seeds of the random [4, 1] codes over F_8.  At 2301, the outcome digest's
# draw, the generator (0, 1, 1, 0) is a binary word of rank weight 1: d = 1,
# and the codeword lies in the F_q-kernel of H, so `decode` fails every word
# on it, the zero word included, with SUPPORT_DIMENSION_MISMATCH at t_hat = 0.
# The code stays because RANK_DEFICIENT is reachable on it.  2302 is the
# first later seed with d = 2, where `decode` also succeeds.
F8_SEEDS = {"random-F8-[4,1]": 2704, "random-F8-[4,1]-2301": 2301, "random-F8-[4,1]-2302": 2302}
ISOMETRY_CODES = [*HIGH_ORDER_CODES, *F8_SEEDS, "gab-F16-untabled-[4,1]", "twisted-F729-[6,3]"]


def _isometry_code(name: str) -> tuple[MatQm, MatQm, int | None]:
    """(H, generator, d) of a HIGH_ORDER_CODES code, of a seeded F_8 code, of
    the [4, 1] Gabidulin code over an untabled F_16, or of an MRD twisted
    Gabidulin [6, 3] code over F_{3^6}, which no brute-force oracle reaches."""
    if name in F8_SEEDS:
        return (*f8_code(trial_rng(F8_SEEDS[name], 0)), None)
    if name == "gab-F16-untabled-[4,1]":
        ctx = ExtField(*REGIME_FIELDS["F16-untabled"])  # alpha has order 5: no tables
        code = resolve_code(GabidulinSpec(ctx, (1, 2, 4, 8), 1))
    elif name == "twisted-F729-[6,3]":
        # MRD by the norm condition, so d = n - k + 1; the twist is the one
        # test_twisted_gabidulin_guarantee_past_enumeration draws for k = 3
        ctx = ExtField(3, 6)
        code = twisted_gabidulin(ctx, 3, twist(ctx, 3, True, trial_rng(2213, 9)), d=4)
    else:
        code = HIGH_ORDER_CODES[name]
    return code.h, code.gen, code.d


@cache
def _isometry_draws(name: str) -> tuple[MatQm, int | None, list]:
    """(H, d, draws) of `name`'s code: 24 seeded words, each with its
    U in GL_{n-k}, V in GL_ell, M in GL_n(F_q), column permutation and one
    outcome per decoder.  Both symmetry tests below hold these same outcomes,
    so each word is drawn and decoded once."""
    h, gen, d = _isometry_code(name)
    ctx, n, k = h.ctx, h.cols, gen.rows
    rng = trial_rng(2705, 0)
    draws = []
    for ell in (1, 2, 5):
        for i in range(8):
            t = i % (n - k + 1)
            mode = "fullrank" if i % 2 == 0 and t <= ell else "uniform"
            received = (rand_matrix(rng, ctx, ell, k) @ gen).add(sample_error(rng, ctx, ell, n, t, mode)[0])
            u = sample_full_rank(rng, ctx, n - k, n - k, n - k, rank_over="qm")
            v = sample_full_rank(rng, ctx, ell, ell, ell, rank_over="qm")
            general = sample_full_rank(rng, ctx, n, n, n, subfield=True)
            order = list(range(n))
            for j in range(n - 1, 0, -1):
                r = rng.below(j + 1)
                order[j], order[r] = order[r], order[j]
            permutation = MatQ(ctx, [[int(j == p) for j in range(n)] for p in order], n)
            for dec, iso in ((decode, general), (mk_hamming_decode, permutation)):
                draws.append(((ell, i, dec.__name__), dec, received, u, v, iso, dec(h, received, d)))
    return h, d, draws


@pytest.mark.parametrize("name", ISOMETRY_CODES)
def test_outcome_depends_only_on_the_code_and_commutes_with_row_mixing(name):
    # U @ H with U in GL_{n-k} checks the same code, and the syndrome U @ S
    # has the same left kernel, so H_sub keeps its row space; the support,
    # the erasure answer and every failure follow from that row space and
    # from H @ B^T, whose rank U keeps.  V @ R with V in GL_ell mixes the
    # interleaved rows: S @ V^T has the same left kernel, and the unique A
    # with (H @ B^T) @ A^T = S becomes V @ A.  Only h_sub may change.
    h, d, draws = _isometry_draws(name)
    reasons = Counter()
    for where, dec, received, u, v, _, out in draws:
        reasons[dec, out.reason] += 1
        mixed = replace(out, h_sub=None)
        assert replace(dec(u @ h, received, d), h_sub=None) == mixed, where
        if out.success:
            mixed = replace(mixed, c_hat=v @ out.c_hat, a_hat=v @ out.a_hat)
        assert replace(dec(h, v @ received, d), h_sub=None) == mixed, where
    # Both branches run: `decode` succeeds on every code but the one with
    # d = 1, which reaches RANK_DEFICIENT instead.
    reached = FailureReason.RANK_DEFICIENT if name.endswith("2301") else None
    assert reasons[decode, reached], reasons


@pytest.mark.parametrize("name", ISOMETRY_CODES)
def test_outcome_commutes_with_column_isometries_and_frobenius(name):
    # (H @ M^-T, R @ M) with M in GL_n(F_q) keeps the syndrome H @ R^T, so
    # the reason, t_hat and detail stay; the error E @ M has the support
    # rowspace(B @ M), and C_hat becomes C_hat @ M.  For mk_hamming_decode,
    # M is a permutation, which keeps the Hamming weight.  sigma(x) = x^q,
    # entry by entry, is a field automorphism that fixes F_q: it maps every
    # step of the decoder to the same step on the images, so the outcome of
    # (sigma(H), sigma(R)) is sigma of the outcome, with B_hat as it was.
    h, d, draws = _isometry_draws(name)
    ctx = h.ctx
    eye = MatQm.identity(ctx, h.cols)

    def sigma(mat):
        return MatQm(ctx, [[ctx.frobenius(a, 1) for a in row] for row in mat.data], mat.cols)

    for where, dec, received, _, _, iso, out in draws:
        moved = dec(h @ solve_right(iso, eye), received @ iso, d)
        kept = (moved.reason, moved.t_hat, moved.detail, moved.beyond_guarantee)
        assert kept == (out.reason, out.t_hat, out.detail, out.beyond_guarantee), where
        if out.success:
            assert moved.c_hat == out.c_hat @ iso, where
            assert moved.b_hat == rref(out.b_hat @ iso)[0], where
            out = replace(out, c_hat=sigma(out.c_hat), a_hat=sigma(out.a_hat), h_sub=sigma(out.h_sub))
        assert dec(sigma(h), sigma(received), d) == out, where


@pytest.mark.parametrize("q,m", [(2, 3), (2, 4), (3, 3)])
def test_miscorrection_has_deficient_syndrome_rank(q, m):
    # A success certifies the unique codeword within rank distance t_hat of
    # the received word, so decoding to another codeword than the one sent
    # needs a syndrome of rank t_hat < t.
    ctx = ExtField(q, m)
    miscorrections = 0
    for i in range(40):
        rng = trial_rng(2111, i)
        n = 3 + rng.below(4)
        k = 1 + rng.below(n - 1)
        h = rand_matrix(rng, ctx, n - k, n)
        if rank_qm(h) < n - k:
            continue
        gen = right_kernel_qm(h)
        for t in range(n - k + 1):
            for ell in sorted({1, max(t, 1), t + 2}):
                if t > ell * m:
                    continue
                for _ in range(3):
                    word = rand_matrix(rng, ctx, ell, k) @ gen
                    err, _, _ = sample_error(rng, ctx, ell, n, t)
                    out = decode(h, word.add(err))
                    if out.success and out.c_hat != word:
                        miscorrections += 1
                        assert out.t_hat < t, (i, t, ell)
    assert miscorrections > 0


ORACLE_GABIDULIN = {"gab-F8-[3,1]": (2, 3, 3), "gab-F16-[4,1]": (2, 4, 4), "gab-F27-[3,1]": (3, 3, 3)}
ORACLE_CODES = [*ORACLE_GABIDULIN, "random-F8-[4,1]-0", "random-F8-[4,1]-1", "random-F8-[4,1]-2"]


def _oracle_code(name: str, rng) -> tuple[MatQm, MatQm]:
    """(H, generator) of a [n, 1] code: a Gabidulin code by (q, m, n), or a
    random [4, 1] code over F_8 whose full-rank 3 x 4 H is drawn from rng."""
    if name.startswith("gab"):
        code = gab_code(*ORACLE_GABIDULIN[name], 1)
        return code.h, code.gen
    return f8_code(rng)


def _check_unique_nearest(name: str, seed: int, decoder, distance, bursts: bool) -> None:
    """Brute force over all |F|^2 interleaved codewords of an ell = 2, k = 1
    code: on every success of `decoder`, C_hat is the one codeword C' with
    distance(R - C') <= t_hat, and it lies at distance exactly t_hat.  The
    errors are uniform rank errors or, with `bursts`, every other word a
    column burst instead."""
    rng = trial_rng(seed, ORACLE_CODES.index(name))
    h, gen = _oracle_code(name, rng)
    ctx, n = h.ctx, h.cols
    multiples = [[ctx.mul(u, g) for g in gen.data[0]] for u in range(ctx.order)]
    successes = 0
    for i in range(150):
        word = rand_matrix(rng, ctx, 2, 1) @ gen
        t = 1 + i % (n - 1)
        if bursts and i % 2:
            err = column_burst(rng, ctx, 2, n, t)
        else:
            err, _, _ = sample_error(rng, ctx, 2, n, t)
        received = word.add(err)
        out = decoder(h, received)
        if not out.success:
            continue
        successes += 1
        # each received row minus every multiple of the generator row
        diffs = [[[ctx.sub(r, c) for r, c in zip(row, mult)] for mult in multiples] for row in received.data]
        near = [
            (u0, u1, dist)
            for u0, top in enumerate(diffs[0])
            for u1, bottom in enumerate(diffs[1])
            if (dist := distance(MatQm(ctx, [top, bottom], n))) <= out.t_hat
        ]
        assert len(near) == 1, (i, near)
        u0, u1, dist = near[0]
        assert dist == out.t_hat and MatQm(ctx, [multiples[u0], multiples[u1]], n) == out.c_hat, i
    assert successes or name.startswith("random")


@pytest.mark.parametrize("name", ORACLE_CODES)
def test_success_is_the_unique_nearest_codeword(name):
    _check_unique_nearest(name, 2027, decode, rank_q, bursts=False)


@pytest.mark.parametrize("name", ORACLE_CODES)
def test_hamming_success_is_the_unique_nearest_codeword(name):
    # the Hamming analogue: distance is the number of nonzero columns
    _check_unique_nearest(name, 2331, mk_hamming_decode, _burst_weight, bursts=True)


FIELDS = [(2, 1), (2, 3), (2, 4), (3, 2), (5, 1), (5, 2), (7, 2)]


@st.composite
def generators(draw):
    """A random k x n generator; about half are made rank deficient by
    replacing the last row with a multiple of the first."""
    q, m = draw(st.sampled_from(FIELDS))
    ctx = ExtField(q, m)
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    element = st.integers(0, ctx.order - 1)
    rows = draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=k, max_size=k))
    if draw(st.booleans()):
        scale = draw(element)
        rows[-1] = [ctx.mul(scale, a) for a in rows[0]] if k > 1 else [0] * n
    return MatQm(ctx, rows, n)


@PROPERTY
@given(generators())
def test_parity_check_is_the_right_kernel(gen):
    k, n = gen.rows, gen.cols
    if rank_qm(gen) < k:
        with pytest.raises(ParameterError):
            parity_check_from_generator(gen)
        assert right_kernel_qm(gen).rows != n - k
        return
    h = parity_check_from_generator(gen)
    assert h == right_kernel_qm(gen)
    assert h.rows == n - k and rank_qm(h) == n - k
    assert rref(h)[0] == h
    assert (h @ gen.transpose()).is_zero()


CARRY_FIELDS = [(2, 4), (3, 2), (5, 2), (7, 1)]


@st.composite
def syndromes_and_checks(draw):
    """(S, H): an r x l matrix that is zero, of full rank or random, and a
    random r x n matrix over the same field."""
    ctx = ExtField(*draw(st.sampled_from(CARRY_FIELDS)))
    r, ell, n = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    element = st.integers(0, ctx.order - 1)
    kind = draw(st.sampled_from(["zero", "full", "random"]))
    if kind == "zero":
        synd = MatQm.zeros(ctx, r, ell)
    else:
        synd = MatQm(ctx, draw(st.lists(st.lists(element, min_size=ell, max_size=ell), min_size=r, max_size=r)))
        if kind == "full":
            assume(rank_qm(synd) == min(r, ell))
    h = MatQm(ctx, draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=r, max_size=r)))
    return synd, h


@PROPERTY
@given(syndromes_and_checks())
def test_carried_rows_are_the_transform_applied(case):
    synd, h = case
    reduced, carried, pivots = rref_carry(synd, h)
    assert (reduced, pivots) == rref(synd)
    reduced_t, trans, _ = rref_carry(synd, MatQm.identity(synd.ctx, synd.rows))
    assert reduced_t == reduced
    assert trans @ synd == reduced and rank_qm(trans) == synd.rows
    assert carried == trans @ h
    if len(pivots) >= h.rows:
        with pytest.raises(DecodeFailure) as exc:
            compute_hsub(h, synd)
        assert exc.value.reason is FailureReason.TOO_MANY_ERRORS
        return
    t_hat, h_sub, r_top, top = compute_hsub(h, synd)
    assert t_hat == len(pivots) == rank_qm(synd)
    assert h_sub == block(trans, t_hat, h.rows, 0, h.rows) @ h
    assert block(reduced, t_hat, h.rows, 0, synd.cols).is_zero()
    check_echelon_blocks(h, synd, r_top, top)
    work, _ = _forward_carry(synd, MatQm.identity(synd.ctx, synd.rows))
    lead = MatQm(synd.ctx, [r[synd.cols :] for r in work[:t_hat]], synd.rows)
    assert (lead @ synd, lead @ h) == (r_top, top)


CONDITION_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


@st.composite
def condition_instances(draw):
    """(H, B, deficient): a random full-row-rank H (a generic code, not a
    Gabidulin one) and an F_q-independent support basis B with t < n rows.
    When `deficient` (three draws in four, where possible), B holds rows of
    the F_q-kernel of H, so that rank_qm(H @ B^T) < t."""
    q, m = draw(st.sampled_from(CONDITION_FIELDS))
    ctx = ExtField(q, m)
    n = draw(st.integers(2, 5 if q == 2 else 4))
    r = draw(st.integers(1, n))
    element = st.integers(0, ctx.order - 1)
    h = MatQm(ctx, draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=r, max_size=r)))
    assume(rank_qm(h) == r)
    t = draw(st.integers(0, n - 1))
    digit = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(digit, min_size=n, max_size=n), min_size=t, max_size=t))
    kernel = right_kernel_q(ext_expand(h))
    deficient = t > 0 and kernel.rows > 0 and draw(st.integers(0, 3)) > 0
    if deficient:
        j = draw(st.integers(1, min(t, kernel.rows)))
        rows[:j] = kernel.data[:j]
    basis = MatQ(ctx, rows, n)
    assume(rank_q(basis) == t)
    return h, basis, deficient


@settings(PROPERTY, max_examples=300)
@given(condition_instances())
def test_beyond_condition_matches_oracle_on_generic_checks(case):
    h, basis, deficient = case
    if deficient:
        assert rank_qm(h @ basis.transpose()) < basis.rows
    assert beyond_d2_condition(h, basis) == _condition_oracle(h, basis)


# -- the F_q view: the packed F_2 core and odd q ------------------------------------------

GF2_FIELDS = [ExtField(2, 1), ExtField(2, 2), ExtField(2, 4), ExtField(2, 10)]
ODD_FIELDS = [ExtField(3, 2), ExtField(3, 4), ExtField(5, 2), ExtField(3, 2, (1, 0, 1))]


@st.composite
def view_matrices(draw):
    """A MatQ or MatQm over F_2, F_4, F_16, F_{2^10}, F_9, F_81, F_25 or an
    untabled F_9, tall, wide or square: random, zero, with an identity block
    (full rank) or with a row that sums two others."""
    ctx = draw(st.sampled_from(GF2_FIELDS + ODD_FIELDS))
    subfield = draw(st.booleans())
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    element = st.integers(0, (ctx.q if subfield else ctx.order) - 1)
    data = draw(st.lists(st.lists(element, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    shape = draw(st.sampled_from(["random", "zero", "full", "deficient"]))
    if shape == "zero":
        data = [[0] * cols for _ in data]
    elif shape == "full" and rows <= cols:
        data = [[int(i == j) for j in range(rows)] + r[rows:] for i, r in enumerate(data)]
    elif shape == "deficient" and rows >= 2:
        data[-1] = [ctx.add(a, b) for a, b in zip(data[0], data[1])]
    return (MatQ if subfield else MatQm)(ctx, data, cols)


F8 = ExtField(2, 3)


@PROPERTY
@given(view_matrices())
@example(MatQm.zeros(ODD_FIELDS[0], 0, 3))
@example(MatQm.zeros(ODD_FIELDS[1], 0, 0))
# F_8, 6 columns wide: the last row is the sum of the first and the third
@example(MatQ(F8, [[1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 0], [1, 1, 0, 0, 1, 1], [0, 1, 1, 1, 1, 0]]))
@example(MatQ.zeros(F8, 0, 6))
@example(MatQ.zeros(F8, 3, 6))
@example(MatQ.zeros(F8, 2, 0))
def test_rank_and_kernel_q_match_generic_elimination(mat):
    # rank_qm and right_kernel_qm run the generic elimination on the expansion.
    # Inside the kernel, n - rank rows and RREF pin the basis down uniquely,
    # which is what odd q checks; q = 2 also meets the packed core.  Odd-q
    # rank_q eliminates the transpose of a view taller than wide.
    x = ext_expand(mat)
    rank, kernel = rank_qm(x), right_kernel_qm(x)
    assert rank_q(mat) == rank_q(x) == rank == len(rref(x)[1])
    assert right_kernel_q(mat) == right_kernel_q(x) == kernel
    assert type(right_kernel_q(mat)) is MatQ
    assert (x @ kernel.transpose()).is_zero()
    assert kernel.rows == mat.cols - rank
    assert is_rref(kernel)


# -- the two elimination passes against one-loop Gauss-Jordan, with and without tables ------

ORACLE_FIELDS = [ExtField(*spec) for spec in REGIME_FIELDS.values()]


def _untabled(ctx: ExtField) -> ExtField:
    """An equal field without tables: raw multiplication, digit addition."""
    clone = copy.copy(ctx)
    clone._log = clone._exp = clone._zech = None
    return clone


def _gauss_jordan(ctx: ExtField, work: list[list[int]], cols: int) -> list[int]:
    """The one-loop elimination the two passes replaced, kept as the oracle:
    leftmost column, topmost nonzero row, pivot normalized to 1, and the
    column cleared above and below it in the same step."""
    nrows = len(work)
    pivots = []
    pr = 0
    for c in range(cols):
        for pivot in range(pr, nrows):
            if work[pivot][c]:
                break
        else:
            continue
        work[pr], work[pivot] = work[pivot], work[pr]
        prow = work[pr]
        if prow[c] != 1:
            prow = work[pr] = ctx._scale_row(ctx.inv(prow[c]), prow)
        for i in range(nrows):
            f = work[i][c]
            if f and i != pr:
                work[i] = ctx._sub_scaled_row(work[i], f, prow)
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return pivots


@st.composite
def echelon_cases(draw, fields=ORACLE_FIELDS):
    """(M, C) over one of `fields`, with 0-5 rows, 0-6 columns and 0-4
    carried columns: M, a MatQ or a MatQm, is random, square, tall, wide,
    zero, has a zero column, or has a last row that combines two others."""
    ctx = draw(st.sampled_from(fields))
    shape = draw(st.sampled_from(["random", "square", "tall", "wide", "zero", "zero column", "deficient"]))
    if shape == "tall":
        rows = draw(st.integers(1, 5))
        cols = draw(st.integers(0, rows - 1))
    elif shape == "wide":
        cols = draw(st.integers(1, 5))
        rows = draw(st.integers(0, cols - 1))
    else:
        rows = cols = draw(st.integers(0, 5))
        if shape != "square":
            cols = draw(st.integers(0, 6))
    carried = draw(st.integers(0, 4))
    subfield = draw(st.booleans())
    element = st.integers(0, (ctx.q if subfield else ctx.order) - 1)
    data, other = (
        draw(st.lists(st.lists(el, min_size=c, max_size=c), min_size=rows, max_size=rows))
        for el, c in ((element, cols), (st.integers(0, ctx.order - 1), carried))
    )
    if shape == "zero":
        data = [[0] * cols for _ in data]
    elif shape == "zero column" and cols:
        j = draw(st.integers(0, cols - 1))
        for row in data:
            row[j] = 0
    elif shape == "deficient" and rows >= 3:
        a, b = draw(element), draw(element)
        data[-1] = [ctx.add(ctx.mul(a, x), ctx.mul(b, y)) for x, y in zip(data[0], data[1])]
    return (MatQ if subfield else MatQm)(ctx, data, cols), MatQm(ctx, other, carried)


@PROPERTY
@given(echelon_cases())
def test_two_passes_match_gauss_jordan(case):
    mat, other = case
    ctx, rows, cols = mat.ctx, mat.rows, mat.cols
    work = [x + y for x, y in zip(mat.data, other.data)]
    pivots = _gauss_jordan(ctx, work, cols)
    reduced = MatQm(ctx, [r[:cols] for r in work], cols)
    carried = MatQm(ctx, [r[cols:] for r in work], other.cols)
    rank = len(pivots)

    got = rref(mat)
    assert got == (reduced, pivots) and type(got[0]) is type(mat)
    assert rref_carry(mat, other) == (reduced, carried, pivots)
    assert rank_qm(mat) == rank

    if rows != cols:
        with pytest.raises(FormatError, match=f"^coefficient matrix is {rows}x{cols}, not square$"):
            solve_right(mat, other)
    elif rank < cols:
        with pytest.raises(RankDeficientError, match=f"^coefficient matrix has column rank {rank} < {cols}$"):
            solve_right(mat, other)
    else:
        assert solve_right(mat, other) == carried.transpose()

    if rank >= rows:
        with pytest.raises(DecodeFailure, match=f"^syndrome rank {rank} leaves no zero rows$") as exc:
            compute_hsub(other, mat)
        assert exc.value.reason is FailureReason.TOO_MANY_ERRORS
    else:
        t_hat, h_sub, r_top, top = compute_hsub(other, mat)
        assert (t_hat, h_sub) == (rank, block(carried, rank, rows, 0, other.cols))
        check_echelon_blocks(other, mat, r_top, top)


@PROPERTY
@given(echelon_cases([ctx for ctx in ORACLE_FIELDS if ctx._log is not None]))
def test_elimination_does_not_depend_on_the_arithmetic_regime(case):
    # The same eliminations over a tabled field and over the equal field
    # without tables, where every product and sum takes the raw-arithmetic
    # branch of the row kernels.
    mat, other = case
    ctx, cols = mat.ctx, mat.cols

    def eliminate(field):
        lhs, rhs = type(mat)(field, mat.data, cols), MatQm(field, other.data, other.cols)
        k = min(mat.rows, cols)
        try:
            solved = solve_right(block(lhs, 0, k, 0, k), block(rhs, 0, k, 0, rhs.cols))
        except RankDeficientError as exc:
            solved = str(exc)
        return rref_carry(lhs, rhs), right_kernel_qm(lhs), solved

    plain = _untabled(ctx)
    assert plain == ctx and plain._log is None
    assert eliminate(plain) == eliminate(ctx)


# -- the input parsers ----------------------------------------------------------------

# Well-formed texts over a few small fields, then up to two random edits:
# characters of the formats and numbers past the bounds the parsers enforce.
SMALL_FIELDS = [(2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 1), (7, 2)]
EDGES = ["-1", "1.5", "x", "2147483647", "2147483648", "2305843009213693951", "9" * 40]
EDIT = st.text(alphabet=" =,\n-0123456789qmfkgdH", max_size=3) | st.sampled_from(EDGES)


@st.composite
def edited(draw, text):
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(EDIT) + text[i + draw(st.integers(0, 3)):]
    return text


@st.composite
def field_lines(draw, q, m):
    default = ExtField(q, m).modulus
    coeffs = draw(st.just(default) | st.lists(st.integers(0, q - 1), min_size=m, max_size=m).map(lambda c: (*c, 1)))
    return f"q={q} m={m} f={','.join(map(str, coeffs))}"


@st.composite
def matrix_blocks(draw, q, m):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    entry = st.integers(0, q**m - 1).map(str)
    lines = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols).map(" ".join), min_size=rows, max_size=rows))
    return "\n".join([f"{q} {m} {rows} {cols}", *lines])


@st.composite
def code_spec_blocks(draw):
    q, m = draw(st.sampled_from(SMALL_FIELDS))
    line = draw(field_lines(q, m))
    g = draw(st.lists(st.integers(0, q**m - 1).map(str), max_size=m))
    gab = f"kind=gabidulin g={','.join(g)} k={draw(st.integers(0, 4))}"
    generic = f"kind=generic d={draw(st.integers(0, 4))} H=\n" + draw(matrix_blocks(q, m))
    return line + "\n" + draw(st.sampled_from([gab, generic]))


def _parse_or_none(parse, text):
    """The parsed value, or None when the text is rejected with an input error."""
    try:
        return parse(text)
    except (FormatError, ParameterError):
        return None


@PROPERTY
@given(st.sampled_from(SMALL_FIELDS).flatmap(lambda f: field_lines(*f)).flatmap(edited))
def test_field_spec_parser_raises_only_input_errors(text):
    _parse_or_none(ExtField.from_spec, text)


@PROPERTY
@given(st.sampled_from(SMALL_FIELDS).flatmap(lambda f: matrix_blocks(*f)).flatmap(edited))
def test_matrix_parser_raises_only_input_errors(text):
    mat = _parse_or_none(mat_from_text, text)
    if mat is not None:
        assert mat.rows >= 0 and mat.cols >= 0
        assert mat_from_text(mat.to_text()) == mat


@PROPERTY
@given(code_spec_blocks().flatmap(edited))
def test_code_spec_parser_raises_only_input_errors(text):
    spec = _parse_or_none(code_spec_from_text, text)
    if spec is not None:
        assert spec.d is None or 1 <= spec.d <= spec.n - spec.k + 1
        assert code_spec_from_text(code_spec_to_text(spec)) == spec
