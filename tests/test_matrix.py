"""Exact linear algebra: golden fixtures plus randomized re-check oracles."""

import copy
import itertools
import random

import pytest

from conftest import REGIME_FIELDS, block, count_work, full_rank_vandermonde, is_rref
from rankmk.errors import FormatError, RankDeficientError
from rankmk.fields import ExtField
from rankmk.matrix import (
    MatQ,
    MatQm,
    _forward_pass,
    ext_expand,
    mat_from_text,
    rank_q,
    rank_qm,
    right_kernel_q,
    right_kernel_qm,
    rref,
    rref_carry,
    solve_right,
)
from rankmk.simulate import SplitMix64, rand_matrix, sample_full_rank


def naive_matmul(ctx, a, b, cols=None):
    """Reference product: every term through the field's `mul` and `add`."""
    rows, inner = len(a), len(b)
    cols = len(b[0]) if cols is None else cols
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for l in range(inner):
                acc = ctx.add(acc, ctx.mul(a[i][l], b[l][j]))
            out[i][j] = acc
    return out


def test_matmul_trivials(f8):
    rng = SplitMix64(1)
    m = rand_matrix(rng, f8, 3, 4)
    eye = MatQm.identity(f8, 3)
    assert eye @ m == m
    assert m.transpose().transpose() == m


def test_matmul_vs_naive(f8):
    rng = SplitMix64(2)
    for _ in range(25):
        a = rand_matrix(rng, f8, 2, 2)
        b = rand_matrix(rng, f8, 2, 2)
        assert (a @ b).data == naive_matmul(f8, a.data, b.data)


def test_matmul_dimension_mismatch(f8):
    with pytest.raises(FormatError):
        MatQm.zeros(f8, 2, 3) @ MatQm.zeros(f8, 2, 3)
    with pytest.raises(FormatError):
        MatQm.zeros(f8, 1, 2).add(MatQm.zeros(f8, 1, 3))
    with pytest.raises(FormatError):
        MatQm.zeros(ExtField(2, 4), 2, 2) @ MatQm.zeros(f8, 2, 2)
    # the shared conformability check: fields first, then row counts
    with pytest.raises(FormatError, match="different fields"):
        MatQm.zeros(f8, 1, 2).add(MatQm.zeros(ExtField(2, 4), 1, 2))
    with pytest.raises(FormatError, match="row mismatch"):
        rref_carry(MatQm.zeros(f8, 2, 2), MatQm.zeros(f8, 3, 1))


@pytest.mark.parametrize("q,m,modulus", REGIME_FIELDS.values(), ids=REGIME_FIELDS)
def test_products_match_per_entry_arithmetic(q, m, modulus):
    ctx, twin = ExtField(q, m, modulus), ExtField(q, m, modulus)
    assert ctx == twin and ctx is not twin  # equal fields are accepted, not only the same one
    rng = random.Random(ctx.order)
    top = ctx.order - 1
    pools = {
        MatQm: [0, 1, top, *rng.sample(range(2, top), min(top - 2, 8))],
        MatQ: list(range(q)),
    }

    def operand(field, cls, rows, cols):
        return cls(field, [rng.choices(pools[cls], k=cols) for _ in range(rows)], cols)

    # zero inner dimension, zero rows, zero columns, and a 1 x 1 product
    shapes = [(3, 4, 5), (2, 3, 2), (1, 1, 1), (2, 0, 3), (0, 3, 2), (3, 2, 0)]
    for rows, inner, cols in shapes:
        for left, right in itertools.product((MatQm, MatQ), repeat=2):
            a, b = operand(ctx, left, rows, inner), operand(twin, right, inner, cols)
            got = a @ b
            assert type(got) is (MatQ if left is right is MatQ else MatQm)
            assert (got.ctx, got.rows, got.cols) == (ctx, rows, cols)
            assert got.data == naive_matmul(ctx, a.data, b.data, cols), (a.data, b.data)
            assert got.add(MatQm.zeros(twin, rows, cols)) == got


def test_ext_expand_worked_example(worked):
    assert ext_expand(worked["H_sub"]) == worked["ext(H_sub)"]


def test_ext_expand_zero(f8):
    assert ext_expand(MatQm.zeros(f8, 1, 4)) == MatQ.zeros(f8, 3, 4)


def test_ext_expand_subfield_compat(f8):
    # ext(v B^T) = ext(v) B^T for subfield B
    rng = SplitMix64(3)
    for _ in range(25):
        v = rand_matrix(rng, f8, 1, 5)
        b = rand_matrix(rng, f8, 3, 5, subfield=True)
        assert ext_expand(v @ b.transpose()) == ext_expand(v) @ b.transpose()


def test_rref_worked_example(worked):
    reduced, pivots = rref(worked["S"])
    assert reduced == worked["rref(S)"]
    assert pivots == [0, 1]


def test_rref_identity(f8):
    eye = MatQm.identity(f8, 4)
    reduced, trans, _ = rref_carry(eye, MatQm.identity(f8, 4))
    assert reduced == eye and trans == eye


def test_rref_random_properties():
    ctx = ExtField(2, 4)
    rng = SplitMix64(4)
    for _ in range(20):
        m = rand_matrix(rng, ctx, 4, 6)
        reduced, trans, _ = rref_carry(m, MatQm.identity(ctx, 4))
        assert trans @ m == reduced
        assert rank_qm(trans) == 4
        assert is_rref(reduced)
        assert rref(reduced)[0] == reduced
        # row-equivalent matrices echelonize identically
        left = sample_full_rank(rng, ctx, 4, 4, 4, rank_over="qm")
        assert rref(left @ m)[0] == reduced


def test_ranks_trivials(f8):
    z = MatQm.zeros(f8, 3, 3)
    assert rank_q(z) == rank_qm(z) == 0


def test_ranks_subfield_vs_extension():
    ctx = ExtField(2, 2)  # F_4
    col = MatQm(ctx, [[1], [ctx.alpha]])
    assert rank_qm(col) == 1
    row = MatQm(ctx, [[1, ctx.alpha]])
    assert rank_q(row) == 2


def test_rank_qm_runs_the_forward_pass_alone(monkeypatch):
    mat = full_rank_vandermonde(ExtField(2, 4), 3)
    work = count_work(monkeypatch)
    assert _forward_pass(mat.ctx, list(mat.data), 3) == [0, 1, 2]
    forward = work["entries"]
    work.clear()
    assert rref(mat)[1] == [0, 1, 2]
    assert work["entries"] > forward  # the back pass clears above the pivots
    work.clear()
    assert rank_qm(mat) == 3
    assert work["entries"] == forward


def test_rank_inequality_random():
    ctx = ExtField(2, 3)
    rng = SplitMix64(6)
    for _ in range(40):
        m = rand_matrix(rng, ctx, 3, 4)
        rq, rqm = rank_q(m), rank_qm(m)
        assert rqm <= rq
        reduced, _ = rref(m)
        subfield_rref = all(a < ctx.q for row in reduced.data for a in row)
        assert (rqm == rq) == subfield_rref


def test_kernel_worked_example(worked):
    assert right_kernel_q(worked["ext(H_sub)"]) == worked["B"]


def test_kernel_identity(f8):
    assert right_kernel_qm(MatQm.identity(f8, 3)).rows == 0
    assert right_kernel_q(MatQ.identity(f8, 3)).rows == 0


def test_kernel_random_f2(f8):
    rng = SplitMix64(7)
    for _ in range(30):
        m = rand_matrix(rng, f8, 3, 6, subfield=True)
        ker = right_kernel_q(m)
        assert ker.rows == 6 - rank_q(m)
        assert is_rref(ker)
        if ker.rows:
            assert (m @ ker.transpose()).is_zero()


def test_kernel_qm_random(f8):
    rng = SplitMix64(8)
    for _ in range(20):
        m = rand_matrix(rng, f8, 2, 5)
        ker = right_kernel_qm(m)
        assert ker.rows == 5 - rank_qm(m) and is_rref(ker)
        if ker.rows:
            assert (m @ ker.transpose()).is_zero()


def test_kernel_q_of_extension_matrix(f8):
    # read through the expansion: every vector of F_q^2 is in the kernel of 0
    kernel = right_kernel_q(MatQm.zeros(f8, 2, 2))
    assert isinstance(kernel, MatQ) and kernel == MatQ.identity(f8, 2)


def test_solve_right_worked_example(worked):
    # the square system of the decoder: the leading rows of P @ H and P @ S
    reduced, carried, _ = rref_carry(worked["S"], worked["H"])
    coeff = block(carried, 0, 2, 0, 5) @ worked["B"].transpose()
    assert solve_right(coeff, block(reduced, 0, 2, 0, 2)) == worked["A"]


def test_solve_right_zero_rhs(f8):
    rng = SplitMix64(9)
    coeff = sample_full_rank(rng, f8, 4, 4, 4, rank_over="qm")
    x = solve_right(coeff, MatQm.zeros(f8, 4, 3))
    assert x == MatQm.zeros(f8, 3, 4)


def test_solve_right_random_plugback(f8):
    rng = SplitMix64(10)
    for _ in range(25):
        coeff = sample_full_rank(rng, f8, 3, 3, 3, rank_over="qm")
        x0 = rand_matrix(rng, f8, 2, 3)
        rhs = coeff @ x0.transpose()
        x = solve_right(coeff, rhs)
        assert coeff @ x.transpose() == rhs
        assert x == x0


def test_solve_right_failures(f8):
    for shape in ((3, 2), (2, 3)):  # only square systems are solved
        with pytest.raises(FormatError, match="not square"):
            solve_right(MatQm.zeros(f8, *shape), MatQm.zeros(f8, shape[0], 1))
    singular = MatQm(f8, [[1, 1], [0, 0]])
    with pytest.raises(RankDeficientError):
        solve_right(singular, MatQm.identity(f8, 2))


def test_orth_complement(f8):
    full = MatQ.identity(f8, 4)
    assert right_kernel_q(full).rows == 0
    b = MatQ(f8, [[1, 0, 1, 0, 0], [0, 1, 0, 1, 1]])
    comp = right_kernel_q(b)
    assert comp.rows == 3
    assert (b @ comp.transpose()).is_zero()
    rng = SplitMix64(11)
    for _ in range(20):
        m = rand_matrix(rng, f8, 2, 5, subfield=True)
        canon = rref(m)[0]
        canon = MatQ(f8, [r for r in canon.data if any(r)], 5)
        assert right_kernel_q(right_kernel_q(canon)) == canon


def test_text_roundtrip(f32, worked):
    text = worked["H"].to_text()
    again = mat_from_text(text, ctx=f32)
    assert again == worked["H"]
    assert again.to_text() == text
    sub = MatQ(f32, [[1, 0], [0, 1]])
    assert MatQ(f32, mat_from_text(sub.to_text(), ctx=f32).data) == sub
    empty = MatQm.zeros(f32, 0, 3)
    assert mat_from_text(empty.to_text(), ctx=f32) == empty


def test_text_errors(f32):
    with pytest.raises(FormatError):
        mat_from_text("", ctx=f32)
    with pytest.raises(FormatError):
        mat_from_text("2 5 1\n1 2\n", ctx=f32)
    with pytest.raises(FormatError):
        mat_from_text("2 5 1 2\n1\n", ctx=f32)
    with pytest.raises(FormatError):
        mat_from_text("2 5 1 2\n1 x\n", ctx=f32)
    with pytest.raises(FormatError):
        mat_from_text("2 3 1 2\n1 2\n", ctx=f32)  # wrong field
    with pytest.raises(FormatError, match=r"^element code 32 out of range \[0, 32\)$"):
        mat_from_text("2 5 1 2\n1 32\n", ctx=f32)  # 32 = q^m: the field's own check
    with pytest.raises(FormatError):
        mat_from_text("2 5 1 2\n1 -1\n", ctx=f32)
    with pytest.raises(FormatError):
        MatQ(f32, mat_from_text("2 5 1 2\n1 2\n", ctx=f32).data)  # 2 = q
    with pytest.raises(FormatError):
        mat_from_text("2 5 0 -3\n", ctx=f32)  # no rows, negative column count
    with pytest.raises(FormatError):
        MatQ(f32, [], -3)
    with pytest.raises(FormatError):
        MatQm(f32, [])  # no rows and no column count
    # a bool is not an element code: to_text() would write "True", which
    # mat_from_text refuses
    for cls in (MatQm, MatQ):
        with pytest.raises(FormatError):
            cls(f32, [[True, 0]])


def test_constructor_copies_caller_rows(f8):
    rows = [[1, 2], [3, 4]]
    m = MatQm(f8, rows)
    rows[0][0] = 7
    rows[1].append(5)
    rows.append([5, 6])
    assert m.data == [[1, 2], [3, 4]]
    assert (m.rows, m.cols) == (2, 2)


def test_algorithms_leave_inputs_unchanged(f8):
    rng = SplitMix64(12)
    for _ in range(20):
        m = rand_matrix(rng, f8, 4, 4)
        sub = rand_matrix(rng, f8, 4, 5, subfield=True)
        rhs = rand_matrix(rng, f8, 4, 2)
        before = copy.deepcopy([m.data, sub.data, rhs.data])
        rref(m)
        rref(sub)
        rref_carry(m, MatQm.identity(f8, 4))
        right_kernel_q(sub)
        try:
            solve_right(m, rhs)
        except RankDeficientError:
            pass
        assert [m.data, sub.data, rhs.data] == before


def test_structure_ops(f8):
    with pytest.raises(FormatError):
        MatQ(f8, [[3]])  # not a subfield code
