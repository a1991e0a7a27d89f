"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from rankmk.codes import GabidulinSpec, LinearCodeSpec, parity_check_from_generator, resolve_code
from rankmk.demo import _alpha_mat, _example
from rankmk.fields import ExtField
from rankmk.matrix import MatQ, MatQm, _forward_carry, rank_q, rank_qm, rref, rref_carry, right_kernel_qm
from rankmk.simulate import rand_matrix, sample_error, sample_full_rank, trial_rng

# One field per arithmetic regime: tabled q = 2 (F_16, F_256), tabled with
# Zech tables (F_81, F_25, and F_7 with m = 1), and untabled: irreducible
# moduli whose alpha is not primitive.  (q, m, modulus) by test id.
REGIME_FIELDS = {
    "F16": (2, 4, None),
    "F256": (2, 8, None),
    "F81": (3, 4, None),
    "F25": (5, 2, None),
    "F7": (7, 1, None),
    "F9-untabled": (3, 2, (1, 0, 1)),
    "F16-untabled": (2, 4, (1, 1, 1, 1, 1)),
}


# A matrix from rows of alpha exponents, None for the zero element.
alpha_mat = _alpha_mat


@pytest.fixture(scope="module")
def f32():
    return ExtField(2, 5)


@pytest.fixture(scope="module")
def f8():
    return ExtField(2, 3)


@pytest.fixture(scope="module")
def worked(f32):
    """The [5, 2] worked example of `rankmk demo`: H, R and each stage's
    expected value ("S", "rref(S)", "H_sub", "ext(H_sub)", "B", "A", "C")."""
    return _example(f32)


def block(mat: MatQm, r0: int, r1: int, c0: int, c1: int) -> MatQm:
    """Rows r0:r1 and columns c0:c1 of mat (half-open, like slices), same type."""
    return type(mat)(mat.ctx, [r[c0:c1] for r in mat.data[r0:r1]], c1 - c0)


def check_echelon_blocks(h: MatQm, synd: MatQm, r_top: MatQm, top: MatQm) -> None:
    """`compute_hsub`'s R_top and T are the leading rows of the forward pass
    over [S | H], and reducing [R_top | T] gives the leading blocks and the
    pivots of `rref_carry(S, H)`."""
    work, pivots = _forward_carry(synd, h)
    t, s = len(pivots), synd.cols
    assert r_top == MatQm(h.ctx, [r[:s] for r in work[:t]], s)
    assert top == MatQm(h.ctx, [r[s:] for r in work[:t]], h.cols)
    reduced, carried, full_pivots = rref_carry(synd, h)
    assert rref_carry(r_top, top) == (block(reduced, 0, t, 0, s), block(carried, 0, t, 0, h.cols), full_pivots)


def full_rank_vandermonde(ctx: ExtField, n: int) -> MatQm:
    """The n x n matrix with rows (1, a, a^2, ...) for a = alpha, ..., alpha^n:
    full rank when those n powers are distinct, and dense, so reducing above
    its pivots takes row operations that the forward pass alone does not."""
    return MatQm(ctx, [[ctx.alpha_pow(i * j) for j in range(n)] for i in range(1, n + 1)])


def count_work(monkeypatch) -> Counter:
    """Count, from here on, the work of the three `ExtField` row kernels,
    which do all elimination and products: "entries" adds the row length of
    each `_scale_row` and `_sub_scaled_row` call, and "terms" the dense
    product terms rows x inner x cols of each `_mul_rows` call, zeros the
    kernel skips included.  Tests may reset the returned Counter."""
    work = Counter()
    scale, sub_scaled, mul_rows = ExtField._scale_row, ExtField._sub_scaled_row, ExtField._mul_rows

    def counted_scale(self, s, row):
        work["entries"] += len(row)
        return scale(self, s, row)

    def counted_sub_scaled(self, row, f, prow):
        work["entries"] += len(row)
        return sub_scaled(self, row, f, prow)

    def counted_mul_rows(self, arows, brows, cols):
        work["terms"] += len(arows) * len(brows) * cols
        return mul_rows(self, arows, brows, cols)

    monkeypatch.setattr(ExtField, "_scale_row", counted_scale)
    monkeypatch.setattr(ExtField, "_sub_scaled_row", counted_sub_scaled)
    monkeypatch.setattr(ExtField, "_mul_rows", counted_mul_rows)
    return work


def gab_code(q: int, m: int, n: int, k: int) -> LinearCodeSpec:
    """Gabidulin code with locators 1, alpha, ..., alpha^(n-1), resolved."""
    ctx = ExtField(q, m)
    return resolve_code(GabidulinSpec(ctx, tuple(ctx.alpha_pow(i) for i in range(n)), k))


def twisted_gabidulin(ctx: ExtField, k: int, eta: int, d: int | None = None) -> LinearCodeSpec:
    """The [m, k] twisted Gabidulin code over ctx with twist eta (Sheekey,
    2016): with g = (1, alpha, ..., alpha^(m-1)), row 0 of the generator is
    g + eta * g^[k] and row i, for 1 <= i < k, is g^[i], where g^[i] raises
    each entry to the q^i-th power.  It is MRD when the norm
    eta^((q^m - 1)/(q - 1)) differs from (-1)^(k*m)."""
    g = [ctx.alpha_pow(i) for i in range(ctx.m)]
    rows = [[ctx.add(a, ctx.mul(eta, ctx.frobenius(a, k))) for a in g]]
    rows += [[ctx.frobenius(a, i) for a in g] for i in range(1, k)]
    gen = MatQm(ctx, rows, ctx.m)
    return LinearCodeSpec(parity_check_from_generator(gen), d, gen)


def twist(ctx: ExtField, k: int, mrd: bool, rng) -> int:
    """A nonzero eta drawn from rng whose norm meets (mrd=True) or breaks
    (mrd=False) the MRD condition of `twisted_gabidulin`."""
    q, m = ctx.q, ctx.m
    excluded = ctx.neg(1) if k * m % 2 else 1
    while True:
        eta = 1 + rng.below(ctx.order - 1)
        if (ctx.pow(eta, (q**m - 1) // (q - 1)) != excluded) == mrd:
            return eta


def all_rref_bases(ctx: ExtField, t: int, n: int):
    """Canonical (RREF) bases of every t-dimensional subspace of F_q^n.

    Enumerates all q^(t*n) subfield matrices, keeps the full-rank ones, and
    dedupes by RREF; only feasible for tiny shapes.
    """
    q = ctx.q
    seen = set()
    out = []
    for entries in itertools.product(range(q), repeat=t * n):
        mat = MatQ(ctx, [list(entries[i * n : (i + 1) * n]) for i in range(t)], n)
        if rank_q(mat) != t:
            continue
        canon = rref(mat)[0]
        key = tuple(tuple(r) for r in canon.data)
        if key not in seen:
            seen.add(key)
            out.append(canon)
    return out


def f8_code(rng) -> tuple[MatQm, MatQm]:
    """(H, generator) of a [4, 1] code over F_8 whose 3 x 4 H is drawn from
    rng until it has full rank.  As n > m, d <= m < n - k + 1: the code is
    not MRD, so nothing rules RANK_DEFICIENT out on it."""
    h = sample_full_rank(rng, ExtField(2, 3), 3, 4, 3, rank_over="qm")
    return h, right_kernel_qm(h)


def column_burst(rng, ctx: ExtField, ell: int, n: int, t: int) -> MatQm:
    """An ell x n error whose nonzero columns lie in t seeded positions."""
    positions = set()
    while len(positions) < t:
        positions.add(rng.below(n))
    data = [[rng.below(ctx.order) if j in positions else 0 for j in range(n)] for _ in range(ell)]
    return MatQm(ctx, data, n)


def rank_deficient_error(rng, ctx: ExtField, n: int) -> MatQm:
    """A 2 x n error A @ B of rank weight 2 that breaks the full-rank
    condition: B is a seeded 2 x n basis over F_q, and A is redrawn until
    rank_q(A) = 2 and rank_qm(A) < 2."""
    basis = sample_full_rank(rng, ctx, 2, n, 2, subfield=True)
    coeff = rand_matrix(rng, ctx, 2, 2)
    while not (rank_q(coeff) == 2 and rank_qm(coeff) < 2):
        coeff = rand_matrix(rng, ctx, 2, 2)
    return coeff @ basis


def burst_word(rng, code: LinearCodeSpec, ell: int, positions) -> tuple[MatQm, MatQm, MatQm]:
    """(codeword, error, received) for an ell x n error whose nonzero columns
    are the given positions and are independent over F_{q^m}: the
    coefficients are drawn first, then the message."""
    ctx, n = code.ctx, code.n
    coeff = sample_full_rank(rng, ctx, ell, len(positions), len(positions), rank_over="qm")
    word = rand_matrix(rng, ctx, ell, code.k) @ code.gen
    err = coeff @ MatQ(ctx, [[int(j == p) for j in range(n)] for p in positions], n)
    return word, err, word.add(err)


def planted_word(code: LinearCodeSpec, ell: int, t: int, seed: int, mode: str = "fullrank"):
    """(codeword, error, received) with a random message and sampled error."""
    ctx = code.ctx
    rng = trial_rng(seed, 0)
    msg = rand_matrix(rng, ctx, ell, code.k)
    word = msg @ code.gen
    err, _, _ = sample_error(rng, ctx, ell, code.n, t, mode)
    return word, err, word.add(err)


def _condition_oracle(h: MatQm, basis: MatQ) -> bool:
    """Exhaustive check of the support-extension condition over all subfield rows."""
    ctx = h.ctx
    n, t = h.cols, basis.rows
    span = set()
    for mask in range(ctx.q**t):
        coeffs = []
        v = mask
        for _ in range(t):
            v, r = divmod(v, ctx.q)
            coeffs.append(r)
        vec = [0] * n
        for c, row in zip(coeffs, basis.data):
            for j in range(n):
                vec[j] = ctx.add(vec[j], ctx.mul(c, row[j]))
        span.add(tuple(vec))
    bt = basis.transpose()
    for code in range(ctx.q**n):
        digits = []
        v = code
        for _ in range(n):
            v, r = divmod(v, ctx.q)
            digits.append(r)
        if tuple(digits) in span:
            continue
        stacked = MatQm(ctx, [row + [d] for row, d in zip(bt.data, digits)], t + 1)
        if rank_qm(h @ stacked) != t + 1:
            return False
    return True


def is_rref(mat: MatQm) -> bool:
    """Independent reduced-row-echelon-form predicate."""
    last_pivot = -1
    seen_zero_row = False
    for row in mat.data:
        nz = [j for j, a in enumerate(row) if a]
        if not nz:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False
        p = nz[0]
        if p <= last_pivot or row[p] != 1:
            return False
        if any(other[p] for other in mat.data if other is not row):
            return False
        last_pivot = p
    return True
