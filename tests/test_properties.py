"""Property tests: the shared decoding pipeline, the dual-code construction,
the carried row reduction and the beyond-d-2 condition.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gab_code
from rankmk.codes import parity_check_from_generator
from rankmk.decoder import (
    DecodeFailure,
    FailureReason,
    beyond_d2_condition,
    compute_hsub,
    decode,
    mk_hamming_decode,
)
from rankmk.errors import ParameterError
from rankmk.fields import ExtField
from rankmk.matrix import (
    MatQ,
    MatQm,
    ext_expand,
    rank_q,
    rank_qm,
    rref,
    rref_carry,
    rref_with_transform,
    right_kernel_q,
    right_kernel_qm,
)
from test_decoder import _condition_oracle

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
    trans, reduced_t = rref_with_transform(synd)
    assert reduced_t == reduced
    assert trans @ synd == reduced and rank_qm(trans) == synd.rows
    assert carried == trans @ h
    if len(pivots) >= h.rows:
        with pytest.raises(DecodeFailure) as exc:
            compute_hsub(h, synd)
        assert exc.value.reason is FailureReason.TOO_MANY_ERRORS
        return
    t_hat, h_sub = compute_hsub(h, synd)
    assert t_hat == len(pivots) == rank_qm(synd)
    assert h_sub == trans.submatrix(t_hat, h.rows, 0, h.rows) @ h


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
