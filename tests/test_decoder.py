"""Decoder pipeline: golden fixtures, planted-instance oracles, failure taxonomy."""

import copy
import itertools

import pytest

from conftest import (
    _condition_oracle,
    all_rref_bases,
    block,
    burst_word,
    check_echelon_blocks,
    count_work,
    full_rank_vandermonde,
    gab_code,
    is_rref,
    planted_word,
    rank_deficient_error,
    twist,
    twisted_gabidulin,
)
from rankmk.codes import (
    GabidulinSpec,
    LinearCodeSpec,
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
    recover_support,
    syndrome,
)
from rankmk.errors import FormatError, ParameterError
from rankmk.fields import ExtField
from rankmk.matrix import (
    MatQ,
    MatQm,
    _forward_carry,
    ext_expand,
    rank_qm,
    rref,
    rref_carry,
    right_kernel_qm,
)
from rankmk.simulate import SplitMix64, rand_matrix, sample_error, sample_full_rank, trial_rng


# -- syndrome ----------------------------------------------------------------


def test_syndrome_worked_example(worked):
    assert syndrome(worked["H"], worked["R"]) == worked["S"]


def test_syndrome_of_codeword_is_zero(worked):
    assert syndrome(worked["H"], worked["C"]).is_zero()


def test_syndrome_equals_error_syndrome():
    code = gab_code(2, 4, 4, 1)
    for seed in range(5):
        word, err, received = planted_word(code, 2, 2, seed)
        assert syndrome(code.h, received) == code.h @ err.transpose()


# -- support recovery -----------------------------------------------------------


def test_compute_hsub_worked_example(worked):
    t_hat, h_sub, r_top, top = compute_hsub(worked["H"], worked["S"])
    reduced, carried, _ = rref_carry(worked["S"], worked["H"])
    assert t_hat == 2 and h_sub.rows == 1 and reduced == rref(worked["S"])[0]
    assert block(reduced, 2, 3, 0, 2).is_zero()
    assert h_sub == block(carried, 2, 3, 0, 5)
    check_echelon_blocks(worked["H"], worked["S"], r_top, top)
    # the echelonizing transform is unique only up to scaling here
    assert rref(h_sub)[0] == rref(worked["H_sub"])[0]


def test_compute_hsub_zero_syndrome(worked):
    t_hat, h_sub, _, _ = compute_hsub(worked["H"], MatQm.zeros(worked["H"].ctx, 3, 2))
    assert t_hat == 0
    assert h_sub == worked["H"]  # P = I when nothing needs eliminating


def test_hsub_annihilates_error():
    code = gab_code(2, 5, 5, 2)
    for seed in range(10):
        word, err, received = planted_word(code, 2, 2, seed)
        _, h_sub, _, _ = compute_hsub(code.h, syndrome(code.h, received))
        assert (h_sub @ err.transpose()).is_zero()


def _support(h, synd):
    t_hat, h_sub, _, _ = compute_hsub(h, synd)
    return t_hat, recover_support(h_sub, t_hat)


def test_recover_support_worked_example(worked):
    t_hat, h_sub, _, _ = compute_hsub(worked["H"], worked["S"])
    assert t_hat == 2
    assert recover_support(h_sub, t_hat) == worked["B"]
    with pytest.raises(DecodeFailure) as info:
        recover_support(h_sub, 1)
    assert info.value.reason is FailureReason.SUPPORT_DIMENSION_MISMATCH
    assert str(info.value) == "support dimension 2 != syndrome rank 1"


def test_recover_support_zero(worked):
    t_hat, basis = _support(worked["H"], MatQm.zeros(worked["H"].ctx, 3, 2))
    assert t_hat == 0 and basis.rows == 0


def test_recover_support_planted_exhaustive():
    # every 1- and 2-dimensional support of F_2^4 on the [4,1] code
    code = gab_code(2, 4, 4, 1)
    ctx = code.ctx
    rng = SplitMix64(33)
    for t in (1, 2):
        for basis in all_rref_bases(ctx, t, 4):
            for _ in range(5):
                coeff = sample_full_rank(rng, ctx, t, t, t, rank_over="qm")
                err = coeff @ basis
                assert _support(code.h, code.h @ err.transpose()) == (t, basis)


# -- erasure decoding -------------------------------------------------------------


def _square_system(h, synd):
    """The erasure step's leading rows T of P @ H and R_top of P @ S."""
    _, _, r_top, top = compute_hsub(h, synd)
    return top, r_top


def test_erasure_decode_worked_example(worked):
    top, r_top = _square_system(worked["H"], worked["S"])
    assert erasure_decode(top, r_top, worked["B"]) == worked["A"]
    with pytest.raises(FormatError):  # the paper's tall form is not solved
        erasure_decode(worked["H"], worked["S"], worked["B"])


def test_erasure_decode_zero(worked):
    top, _ = _square_system(worked["H"], worked["S"])
    a = erasure_decode(top, MatQm.zeros(worked["H"].ctx, 2, 2), worked["B"])
    assert a == MatQm.zeros(worked["H"].ctx, 2, 2)


def test_erasure_decode_planted_product():
    code = gab_code(2, 5, 5, 2)
    ctx = code.ctx
    rng = SplitMix64(34)
    for _ in range(10):
        err, a0, b0 = sample_error(rng, ctx, 2, 5, 2, "fullrank")
        canon = rref(b0)[0]
        a = erasure_decode(*_square_system(code.h, code.h @ err.transpose()), canon)
        assert a @ canon == err


def test_erasure_decode_rank_deficient(worked):
    # column 2 of T is zero, so a support through coordinate 2 makes T @ B^T singular
    top, r_top = _square_system(worked["H"], worked["S"])
    assert not any(row[2] for row in top.data)
    blind = MatQ(worked["H"].ctx, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    with pytest.raises(DecodeFailure) as info:
        erasure_decode(top, r_top, blind)
    assert info.value.reason is FailureReason.RANK_DEFICIENT


# -- full decoding --------------------------------------------------------------


def test_decode_worked_example(worked):
    out = decode(worked["H"], worked["R"], d=4)
    assert out.success
    assert out.c_hat == worked["C"]
    assert out.a_hat == worked["A"]
    assert out.b_hat == worked["B"]
    assert out.t_hat == 2
    assert not out.beyond_guarantee


def test_decode_codeword(worked):
    out = decode(worked["H"], worked["C"], d=4)
    assert out.success and out.t_hat == 0
    assert out.c_hat == worked["C"]


def test_decode_planted_random():
    code = gab_code(2, 5, 5, 2)
    for seed in range(20):
        word, err, received = planted_word(code, 3, 2, seed)
        out = decode(code.h, received, code.d)
        assert out.success and out.c_hat == word
        assert out.c_hat.add(out.a_hat @ out.b_hat) == received


def test_decode_leaves_inputs_unchanged():
    code = gab_code(2, 5, 5, 2)
    for seed in range(10):
        _, _, received = planted_word(code, 3, 2 + seed % 2, seed)
        before = copy.deepcopy([code.h.data, received.data])
        decode(code.h, received, code.d)
        assert [code.h.data, received.data] == before


def test_decode_too_many_errors():
    code = gab_code(2, 5, 5, 2)  # n - k = 3
    word, err, received = planted_word(code, 3, 3, 77)
    out = decode(code.h, received, code.d)
    assert not out.success
    assert out.reason is FailureReason.TOO_MANY_ERRORS
    assert out.t_hat == 3 and out.beyond_guarantee


def test_compute_hsub_runs_the_forward_pass_alone(monkeypatch):
    # With n - k = 3, a full-rank 3 x 3 syndrome leaves no zero row of P @ S,
    # and one of rank 2 does.  On both, compute_hsub does exactly the row
    # operations of the forward pass, which the full reduction exceeds.
    code = gab_code(2, 4, 4, 1)
    ctx = code.ctx
    full = full_rank_vandermonde(ctx, 3)
    deficient = MatQm(ctx, full.data[:2] + [[ctx.add(a, b) for a, b in zip(*full.data[:2])]], 3)
    work = count_work(monkeypatch)
    for synd in (full, deficient):
        work.clear()
        _, pivots = _forward_carry(synd, code.h)
        forward = work["entries"]
        work.clear()
        rref_carry(synd, code.h)
        assert work["entries"] > forward
        work.clear()
        if len(pivots) == 3:
            with pytest.raises(DecodeFailure) as exc:
                compute_hsub(code.h, synd)
            assert exc.value.reason is FailureReason.TOO_MANY_ERRORS
        else:
            assert compute_hsub(code.h, synd)[0] == len(pivots) == 2
        assert work["entries"] == forward


@pytest.mark.parametrize("q,m,n,k", [(2, 4, 4, 1), (3, 4, 4, 1), (2, 6, 6, 2)])
def test_decode_work_is_affine_in_ell(q, m, n, k, monkeypatch):
    # The work of a successful decode, counted in the row kernels at
    # t = t_hat = d - 2 and ell = t, 4t, 32t and 128t, with r = n - k.
    # Dense product terms: the syndrome H @ R^T, n r ell; A_hat @ B_hat,
    # ell t n; T @ B^T and H_sub @ B^T, n r t together.  Row-operation
    # entries, from the elimination shapes (pivot i of a pass that reduces
    # `rows` rows scales at most its own row and clears at most rows - 1 - i
    # rows below it, and the back pass clears i rows above it):
    # - compute_hsub, the forward pass over [S | H]: r rows of ell + n
    #   entries, t pivots, at most t r - t (t - 1) / 2 operations;
    # - the erasure solve, both passes over [T @ B^T | R_top]: t rows of
    #   t + ell entries, t pivots, at most t^2 operations;
    # - the support, odd q only (q = 2 runs the packed F_2 core): both
    #   passes over ext(H_sub), m (r - t) rows of n entries and n - t
    #   pivots, at most (n - t) m (r - t) operations.
    code = gab_code(q, m, n, k)
    r, t = n - k, code.d - 2
    work = count_work(monkeypatch)
    for ell in (t, 4 * t, 32 * t, 128 * t):
        bound = (t * r - t * (t - 1) // 2) * (ell + n) + t * t * (t + ell)
        if q > 2:
            bound += (n - t) * m * (r - t) * n
        for seed in range(2700, 2720):
            word, _, received = planted_word(code, ell, t, seed)
            work.clear()
            out = decode(code.h, received, code.d)
            assert out.success and out.c_hat == word and out.t_hat == t, (ell, seed)
            assert work["terms"] == n * (r + t) * ell + n * r * t, (ell, seed)
            assert work["entries"] <= bound, (ell, seed)


def test_failure_detail_is_kept():
    code = gab_code(2, 5, 5, 2)
    _, _, received = planted_word(code, 3, 3, 77)
    out = decode(code.h, received, code.d)
    assert out.detail == "syndrome rank 3 leaves no zero rows"
    word, _, received = planted_word(code, 3, 2, 5)
    out = decode(code.h, received, code.d)
    assert out.success and out.detail == ""
    # A support outside ker(H_sub) passes the square erasure solve but breaks
    # the premise H_sub @ B^T = 0, so H @ C_hat^T != 0: the check must catch
    # it and say so.
    wrong = MatQ(code.ctx, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])

    def off_kernel(h_sub, t_hat):
        assert not (h_sub @ wrong.transpose()).is_zero()
        return wrong

    out = _decode(code.h, received, code.d, off_kernel)
    assert out.reason is FailureReason.VERIFICATION_FAILED
    assert out.detail == "H @ C_hat^T != 0"


def test_decode_rank_deficient_error_never_miscorrects():
    # plant rank_qm(E) < rank_q(E) = t; decoder must fail or return the codeword
    code = gab_code(2, 4, 4, 1)
    ctx = code.ctx
    rng = SplitMix64(35)
    reasons = set()
    for i in range(200):
        msg = rand_matrix(rng, ctx, 2, 1)
        word = msg @ code.gen
        err = rank_deficient_error(rng, ctx, 4)
        out = decode(code.h, word.add(err), code.d)
        if out.success:
            assert out.c_hat == word
        else:
            reasons.add(out.reason)
    assert reasons  # the violated full-rank condition must actually surface


def test_rank_deficient_needs_a_low_weight_codeword():
    # RANK_DEFICIENT means T @ B_hat^T is singular, which takes a nonzero
    # codeword of weight <= t_hat in the support.  This random [4, 1] code
    # over F_16 holds one of Hamming weight 2; an MRD code never does (see
    # test_success_has_the_syndrome_rank_as_weight).
    ctx = ExtField(2, 4)
    rng = SplitMix64(10)
    spec = LinearCodeSpec(h=rand_matrix(rng, ctx, 3, 4))
    (codeword,) = right_kernel_qm(spec.h).data
    assert sum(1 for a in codeword if a) == 2
    received = [rand_matrix(rng, ctx, 2, 4) for _ in range(8)][-1]
    for dec in (decode, mk_hamming_decode):
        out = dec(spec.h, received)
        assert (out.reason, out.t_hat) == (FailureReason.RANK_DEFICIENT, 2)
        assert out.detail == "coefficient matrix has column rank 1 < 2"


def test_decode_support_duality_on_success():
    code = gab_code(2, 5, 5, 2)
    for seed in range(10):
        word, err, received = planted_word(code, 2, 2, seed)
        out = decode(code.h, received, code.d)
        assert out.success
        dual = right_kernel_qm(ext_expand(out.h_sub))
        assert dual == out.b_hat


def test_decode_dimension_mismatch_raises():
    code = gab_code(2, 5, 5, 2)
    for dec in (decode, mk_hamming_decode):
        with pytest.raises(ParameterError, match="^parity-check has 5 columns but received word has 4$"):
            dec(code.h, MatQm.zeros(code.ctx, 2, 4))


def test_decode_generic_nongabidulin_codes():
    # the pipeline needs nothing but a parity-check matrix: random codes,
    # exhaustively computed distance, planted full-rank errors at t = d - 2
    ctx = ExtField(2, 5)
    rng = SplitMix64(77)
    for k in (2, 1):
        found = 0
        for _ in range(60):
            gen = rand_matrix(rng, ctx, k, 5)
            if rank_qm(gen) < k:
                continue
            h = parity_check_from_generator(gen)
            d = min_rank_distance_exhaustive(LinearCodeSpec(h=h, gen=gen))
            if d < 3:
                continue
            found += 1
            t = d - 2
            for seed in range(5):
                rng2 = trial_rng(1000 * k + seed, 0)
                msg = rand_matrix(rng2, ctx, t, k)
                word = msg @ gen
                err, _, _ = sample_error(rng2, ctx, t, 5, t, "fullrank")
                out = decode(h, word.add(err), d)
                assert out.success and out.c_hat == word
            if found == 3:
                break
        assert found == 3


def test_decode_odd_characteristic():
    # exercises negation/inverse handling through the whole pipeline at q = 3
    code = gab_code(3, 4, 4, 1)  # d = 4
    assert code.ctx.q == 3
    vectors = [MatQ(code.ctx, [list(v)]) for v in itertools.product(range(3), repeat=4)]
    for seed in range(10):
        word, err, received = planted_word(code, 2, 2, seed)
        out = decode(code.h, received, code.d)
        assert out.success and out.c_hat == word
        # The support must be the F_3-kernel of H_sub, found here by trying
        # all 81 vectors with the matrix product alone; the F_3 combinations
        # of the rows of B_hat, an RREF matrix, must give exactly that set.
        kernel = {tuple(v.data[0]) for v in vectors if (out.h_sub @ v.transpose()).is_zero()}
        span = {
            tuple(sum(c * b for c, b in zip(coeffs, col)) % 3 for col in zip(*out.b_hat.data))
            for coeffs in itertools.product(range(3), repeat=out.t_hat)
        }
        assert is_rref(out.b_hat) and len(span) == 3**out.t_hat and span == kernel


def test_decode_over_untabled_field():
    # x^4 + x^3 + x^2 + x + 1 is irreducible, but alpha has order 5, so the
    # field keeps no tables and every elimination runs raw arithmetic.
    ctx = ExtField(2, 4, (1, 1, 1, 1, 1))
    assert not ctx.is_primitive and ctx._log is None
    code = resolve_code(GabidulinSpec(ctx, (1, 2, 4, 8), 1))
    assert code.d == 4
    for i in range(300):
        rng = trial_rng(5, i)
        word = rand_matrix(rng, ctx, 2, code.k) @ code.gen
        err, _, _ = sample_error(rng, ctx, 2, code.n, 2, "fullrank")
        out = decode(code.h, word.add(err), code.d)
        assert out.success and out.c_hat == word, i


def test_guarantee_on_non_mrd_codes():
    # The guarantee holds for any code, not only for MRD ones: random [6, 2]
    # codes over F_{2^6} with d < n - k + 1 meet the support condition on
    # every support of dimension t <= d - 2 and decode full-rank errors there.
    ctx = ExtField(2, 6)
    bases = {t: all_rref_bases(ctx, t, 6) for t in (1, 2)}
    for c in range(3):
        code = resolve_code(LinearCodeSpec(h=rand_matrix(trial_rng(777, c), ctx, 4, 6)))
        d = min_rank_distance_exhaustive(code)
        assert 3 <= d < code.n - code.k + 1
        for t in range(1, d - 1):
            assert all(beyond_d2_condition(code.h, basis) for basis in bases[t])
        t = d - 2
        for seed in range(10):
            rng = trial_rng(777 + c, seed)
            word = rand_matrix(rng, ctx, t, code.k) @ code.gen
            err, _, _ = sample_error(rng, ctx, t, code.n, t, "fullrank")
            out = decode(code.h, word.add(err), d)
            assert out.success and out.c_hat == word and not out.beyond_guarantee


@pytest.mark.parametrize("k", [2, 3])
def test_twisted_gabidulin_guarantee_past_enumeration(k):
    # Twisted Gabidulin [6, k] codes over F_{3^6}, MRD by the norm condition:
    # d = 7 - k is a theorem, and [6, 3] has 729^3 codewords, past
    # ENUM_LIMIT.  Full-rank errors of weight t = d - 2 with ell = t decode.
    ctx = ExtField(3, 6)
    rng = trial_rng(2213, 6 + k)
    code = twisted_gabidulin(ctx, k, twist(ctx, k, True, rng), d=7 - k)
    t = code.d - 2
    for i in range(100):
        word = rand_matrix(rng, ctx, t, k) @ code.gen
        err, _, _ = sample_error(rng, ctx, t, code.n, t, "fullrank")
        out = decode(code.h, word.add(err), code.d)
        assert out.success and out.c_hat == word and out.t_hat == t, i


@pytest.mark.parametrize("m,k,supports", [(4, 2, 40), (5, 3, 121), (5, 2, 1331)])
def test_twisted_gabidulin_meets_the_support_condition(m, k, supports):
    # An MRD twisted Gabidulin [m, k] code over F_{3^m} has d = m - k + 1,
    # and every support of dimension 1 to d - 2 meets the condition.
    ctx = ExtField(3, m)
    code = twisted_gabidulin(ctx, k, twist(ctx, k, True, trial_rng(2821, 10 * m + k)), d=m - k + 1)
    bases = [basis for t in range(1, code.d - 1) for basis in all_rref_bases(ctx, t, m)]
    assert len(bases) == supports
    assert all(beyond_d2_condition(code.h, basis) for basis in bases)


def test_heterogeneous_rows_decode_with_supercode():
    # rows drawn from different subcodes of a joint supercode are decodable
    # with the supercode's parity-check matrix alone
    super_code = gab_code(2, 5, 5, 2)  # d = 4
    sub_code = gab_code(2, 5, 5, 1)  # same locators, k = 1: a subcode
    ctx = super_code.ctx
    assert (super_code.h @ sub_code.gen.transpose()).is_zero()
    rng = trial_rng(55, 0)
    for _ in range(10):
        row1 = rand_matrix(rng, ctx, 1, 1) @ sub_code.gen
        row2 = rand_matrix(rng, ctx, 1, 2) @ super_code.gen
        word = MatQm(ctx, row1.data + row2.data)
        err, _, _ = sample_error(rng, ctx, 2, 5, 2, "fullrank")
        out = decode(super_code.h, word.add(err), super_code.d)
        assert out.success and out.c_hat == word


# -- beyond-guarantee condition ------------------------------------------------------


def test_beyond_condition_within_guarantee(f32):
    # any support with t <= d-2 fulfills the condition on an MRD code
    code = gab_code(2, 5, 5, 2)
    for t in (1, 2):
        for basis in all_rref_bases(f32, t, 5)[::7]:
            assert beyond_d2_condition(code.h, basis)


def test_beyond_condition_full_square_false():
    code = gab_code(2, 5, 5, 2)
    basis = MatQ(code.ctx, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert not beyond_d2_condition(code.h, basis)  # t = n - k
    with pytest.raises(ParameterError):
        beyond_d2_condition(code.h, MatQ(code.ctx, [[1, 0, 0, 0, 0], [1, 0, 0, 0, 0]]))


@pytest.mark.parametrize("q", [2, 3])
def test_beyond_condition_matches_exhaustive_oracle(q):
    code = gab_code(q, 4, 4, 1)
    ctx = code.ctx
    for t in (1, 2):
        bases = all_rref_bases(ctx, t, 4)
        for basis in bases if q == 2 else bases[::5]:
            assert beyond_d2_condition(code.h, basis) == _condition_oracle(code.h, basis)


def test_beyond_condition_large_instance_mostly_true():
    code = gab_code(2, 10, 10, 2)
    ctx = code.ctx
    rng = SplitMix64(36)
    t = 7  # n - k - 1, past the d - 2 = 5 guarantee
    hits = 0
    trials = 40
    for _ in range(trials):
        basis = sample_full_rank(rng, ctx, t, 10, t, subfield=True)
        canon = rref(basis)[0]
        if beyond_d2_condition(code.h, canon):
            hits += 1
    assert hits / trials > 0.9


def test_beyond_flag_tracks_supplied_distance():
    # the flag depends only on the caller-supplied d: a [10, 2] MRD code has
    # d = 9, so t = 7 sits exactly at d - 2; labeling the code d = 7 instead
    # (a weaker code with the same parity check) marks the decode as beyond.
    code = gab_code(2, 10, 10, 2)
    assert code.d == 9
    for seed in range(3):
        word, err, received = planted_word(code, 7, 7, seed)
        out_mrd = decode(code.h, received, code.d)
        out_weak = decode(code.h, received, 7)
        if out_mrd.success:
            assert out_mrd.c_hat == word
            assert not out_mrd.beyond_guarantee
            assert out_weak.beyond_guarantee


# -- Hamming-metric sibling ------------------------------------------------------------


def test_hamming_zero_error(worked):
    out = mk_hamming_decode(worked["H"], worked["C"], d_hamming=4)
    assert out.success and out.t_hat == 0 and out.c_hat == worked["C"]


def test_hamming_planted_bursts():
    code = gab_code(2, 5, 5, 2)  # MDS in the Hamming metric, d_H = 4
    for seed, positions in enumerate([(0, 3), (1, 2), (2, 4), (0, 1), (3, 4)]):
        word, err, received = burst_word(trial_rng(seed, 0), code, 2, positions)
        out = mk_hamming_decode(code.h, received, d_hamming=4)
        assert out.success and out.c_hat == word
        assert sorted(j for j in range(5) if any(r[j] for r in err.data)) == list(positions)


def test_hamming_single_column_all_positions():
    code = gab_code(2, 5, 5, 2)
    for p in range(5):
        word, err, received = burst_word(trial_rng(100 + p, 0), code, 1, (p,))
        out = mk_hamming_decode(code.h, received, d_hamming=4)
        assert out.success and out.c_hat == word


def test_hamming_rank_agreement_on_bursts():
    # a column burst with independent columns is also a full-rank rank error
    code = gab_code(2, 5, 5, 2)
    for seed, positions in enumerate([(0, 2), (1, 4), (2, 3)]):
        word, err, received = burst_word(trial_rng(200 + seed, 0), code, 2, positions)
        out_h = mk_hamming_decode(code.h, received, d_hamming=4)
        out_r = decode(code.h, received, d=4)
        assert out_h.success and out_r.success
        assert out_h.c_hat == out_r.c_hat == word
        # the rank decoder's canonical basis is the identity-row basis
        assert out_r.b_hat == out_h.b_hat
