"""Dense exact linear algebra over F_q and F_{q^m}.

Two matrix types share one representation (row-major lists of int codes):
`MatQm` holds entries anywhere in F_{q^m}; `MatQ` additionally guarantees
every entry lies in the subfield F_q (code < q).  Because F_q is closed
under the field operations, every algorithm below works verbatim on both
types and preserves the subfield invariant: a result is a `MatQ` iff all
its operands are.

`rref_carry` reduces [mat | other] with pivots only in mat's columns, so
the carried columns get the same row operations: the transform P is I
carried, and a solve carries its right-hand side.

Generic elimination runs in two passes.  The forward pass, `_forward_pass`,
takes the leftmost column with a nonzero entry at or below the next pivot
row, the topmost such row as pivot, normalizes it to 1 and clears below it:
that is row echelon form, and its pivot count is the rank.  The back pass,
`_back_pass`, clears above each pivot, from the last one up, which gives the
RREF.  RREF is unique, and the rows past the rank only ever receive the
forward pass's operations, so the reduced and carried blocks are those of
one-loop Gauss-Jordan.  Callers stop as early as their answer allows:
`rank_qm` runs the forward pass alone, along the shorter side of the
matrix (rank(M) = rank(M^T)), `solve_right` raises on a singular system
before the back pass, and `decoder.compute_hsub` runs `_forward_carry`
alone, as the decoder needs echelon rows, not the RREF.  `rref`,
`rref_carry` and `right_kernel_qm` run both passes; `rref_carry` is the
public, tested form of the carried elimination.

`rank_q` and `right_kernel_q` take any matrix and read its F_q view
themselves: a `MatQ` is its own, an F_{q^m} matrix has `ext_expand`.  For
q = 2 both reduce the columns of that view as int bit masks in one F_2
core, `_gf2_rref`, and build no expansion: the code of an F_{2^m} entry
already holds its m coordinate bits, so column j of `ext_expand(M)` is the
integer sum(M[i][j] << m*i).  For odd q, `rank_q` is `rank_qm` of the
view, whose rank over F_{q^m} is its rank over F_q.  `right_kernel_qm`
reduces the column-reversed matrix once, whose free-column vectors already
are the RREF kernel basis.  Both passes hand each row operation, whole rows
at a time, to the field's row kernels `ExtField._scale_row` and
`ExtField._sub_scaled_row`, which pick the arithmetic (table lookups or
per-entry operations) once per row.  `__matmul__` checks its operands and
hands the rows to a third kernel, `ExtField._mul_rows`, so only the field
reads its own tables.  Fields are compared by identity before equality, so
the usual shared field costs no `ExtField.__eq__`.

Entries are validated only where data enters: the public `MatQm(...)` and
`MatQ(...)` constructors (which also copy the caller's rows) and
`mat_from_text`.  Algorithms build their results with the unchecked
`_wrap`, which adopts freshly built rows as they are.  Results may share
row lists with their operands; rows are never mutated after construction,
so values are safe to share across threads.

The textual format is: first line `q m rows cols`, then `rows` lines of
`cols` decimal element codes separated by single spaces.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FormatError, RankDeficientError
from .fields import ExtField


class MatQm:
    """Matrix over F_{q^m} with entries stored as int codes."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: ExtField, data: Sequence[Sequence[int]], cols: int | None = None):
        rows = [list(r) for r in data]
        if cols is None:
            if not rows:
                raise FormatError("column count required for matrices with zero rows")
            cols = len(rows[0])
        if cols < 0:
            raise FormatError(f"negative column count {cols}")
        for r in rows:
            if len(r) != cols:
                raise FormatError("ragged rows in matrix construction")
            for a in r:
                self._check_entry(ctx, a)
        self.ctx, self.rows, self.cols, self.data = ctx, len(rows), cols, rows

    @staticmethod
    def _check_entry(ctx: ExtField, a: int) -> None:
        ctx.check(a)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def _wrap(cls, ctx: ExtField, rows: list[list[int]], cols: int) -> "MatQm":
        """Adopt freshly built rows as they are: no copy and no checks."""
        mat = object.__new__(cls)
        mat.ctx, mat.rows, mat.cols, mat.data = ctx, len(rows), cols, rows
        return mat

    @classmethod
    def zeros(cls, ctx: ExtField, rows: int, cols: int) -> "MatQm":
        return cls._wrap(ctx, [[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, ctx: ExtField, n: int) -> "MatQm":
        return cls._wrap(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    # -- structure --------------------------------------------------------------

    def transpose(self) -> "MatQm":
        data = [list(c) for c in zip(*self.data)] if self.rows else [[] for _ in range(self.cols)]
        return type(self)._wrap(self.ctx, data, self.rows)

    def _conformable(self, other: "MatQm", rows: bool = False, cols: bool = False) -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise FormatError("matrices live over different fields")
        if rows and self.rows != other.rows:
            raise FormatError(f"row mismatch: {self.rows} vs {other.rows}")
        if cols and self.cols != other.cols:
            raise FormatError(f"column mismatch: {self.cols} vs {other.cols}")

    # -- arithmetic ---------------------------------------------------------------

    def __matmul__(self, other: "MatQm") -> "MatQm":
        ctx = self.ctx
        if ctx is not other.ctx and ctx != other.ctx:
            raise FormatError("matrices live over different fields")
        if self.cols != other.rows:
            raise FormatError(f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = ctx._mul_rows(self.data, other.data, other.cols)
        return _result_type(self, other)._wrap(ctx, out, other.cols)

    def add(self, other: "MatQm") -> "MatQm":
        return self._entrywise(other, self.ctx.add)

    def sub(self, other: "MatQm") -> "MatQm":
        return self._entrywise(other, self.ctx.sub)

    def _entrywise(self, other: "MatQm", f) -> "MatQm":
        self._conformable(other, rows=True, cols=True)
        data = [[f(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        return _result_type(self, other)._wrap(self.ctx, data, self.cols)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.data for a in r)

    # -- comparison / misc -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatQm)
            and (self.ctx is other.ctx or self.ctx == other.ctx)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols} over GF({self.ctx.q}^{self.ctx.m}))"

    # -- textual format -----------------------------------------------------------------

    def to_text(self) -> str:
        head = f"{self.ctx.q} {self.ctx.m} {self.rows} {self.cols}"
        body = "\n".join(" ".join(str(a) for a in r) for r in self.data)
        return head + ("\n" + body if self.rows else "") + "\n"


class MatQ(MatQm):
    """Matrix whose entries all lie in the subfield F_q."""

    @staticmethod
    def _check_entry(ctx: ExtField, a: int) -> None:
        if type(a) is not int or a < 0 or a >= ctx.q:
            raise FormatError(f"subfield entry {a!r} out of range [0, {ctx.q})")


def _result_type(a: MatQm, b: MatQm) -> type[MatQm]:
    """A result is a `MatQ` iff both operands are: F_q is closed under +, -, *."""
    return MatQ if isinstance(a, MatQ) and isinstance(b, MatQ) else MatQm


def mat_from_text(text: str, ctx: ExtField | None = None) -> MatQm:
    """Parse the matrix textual format; builds a default field if ctx is None."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    head = lines[0].split()
    if len(head) != 4:
        raise FormatError(f"malformed matrix header {lines[0]!r}")
    try:
        q, m, rows, cols = (int(x) for x in head)
    except ValueError as exc:
        raise FormatError(f"malformed matrix header {lines[0]!r}") from exc
    if ctx is None:
        ctx = ExtField(q, m)
    elif (ctx.q, ctx.m) != (q, m):
        raise FormatError(f"matrix header field ({q},{m}) does not match context ({ctx.q},{ctx.m})")
    if len(lines) != rows + 1:
        raise FormatError(f"expected {rows} matrix rows, got {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise FormatError(f"malformed matrix row {ln!r}") from exc
        data.append(row)
    return MatQm(ctx, data, cols)


# -- the coordinate-expansion map ----------------------------------------------------


def ext_expand(mat: MatQm) -> MatQ:
    """Expand each row into its m coordinate rows and stack the blocks.

    Output has rows*m rows; block i holds the basis coordinates of row i,
    one output row per basis element, constant coordinate first.
    """
    ctx = mat.ctx
    q = ctx.q
    weights = [q**i for i in range(ctx.m)]
    return MatQ._wrap(ctx, [[a // w % q for a in r] for r in mat.data for w in weights], mat.cols)


# -- echelon forms ----------------------------------------------------------------------


def _gf2_rref(masks: list[int]) -> list[int]:
    """Reduced echelon basis of the F_2-span of int masks, sorted by pivot.

    A row's pivot is its lowest set bit.  Each mask is XOR-reduced into a
    dict keyed by pivot bit; then, from the highest pivot down, each row is
    cleared at every higher pivot, which leaves it reduced: the rows it
    picks up are already zero at every other pivot, and their bits all lie
    above its own pivot.
    """
    rows: dict[int, int] = {}
    for v in masks:
        while v:
            low = v & -v
            r = rows.get(low)
            if r is None:
                rows[low] = v
                break
            v ^= r
    done: list[tuple[int, int]] = []
    for low in sorted(rows, reverse=True):
        v = rows[low]
        for p, r in done:
            if v & p:
                v ^= r
        done.append((low, v))
    return [v for _, v in reversed(done)]


def _gf2_columns(mat: MatQm) -> tuple[list[int], int]:
    """Columns of the F_2 view of mat as int masks, and their bit width, for q = 2.

    Bit m*i + k of column j is coordinate k of entry (i, j), and the code of
    an F_{2^m} entry already holds its m coordinates, so each entry is
    shifted in whole.  A `MatQ` packs one bit per row instead, which drops
    only the zero rows of its expansion.
    """
    step = 1 if isinstance(mat, MatQ) else mat.ctx.m
    cols = [0] * mat.cols
    shift = 0
    for row in mat.data:
        for j, a in enumerate(row):
            if a:
                cols[j] |= a << shift
        shift += step
    return cols, shift


def rref(mat: MatQm) -> tuple[MatQm, list[int]]:
    """Reduced row echelon form and its pivot columns: both passes."""
    ctx = mat.ctx
    out = list(mat.data)
    pivots = _forward_pass(ctx, out, mat.cols)
    _back_pass(ctx, out, pivots)
    return type(mat)._wrap(ctx, out, mat.cols), pivots


def rref_carry(mat: MatQm, other: MatQm) -> tuple[MatQm, MatQm, list[int]]:
    """(rref(mat), P @ other, pivots), where P @ mat = rref(mat): the RREF
    of [mat | other] with pivots chosen only in mat's columns."""
    work, pivots = _forward_carry(mat, other)
    ctx, b = mat.ctx, mat.cols
    _back_pass(ctx, work, pivots)
    reduced = type(mat)._wrap(ctx, [r[:b] for r in work], b)
    return reduced, _result_type(mat, other)._wrap(ctx, [r[b:] for r in work], other.cols), pivots


def _forward_carry(mat: MatQm, other: MatQm) -> tuple[list[list[int]], list[int]]:
    """The forward pass over the rows of [mat | other], pivots only in mat's
    columns: the echelon rows and the pivots, whose count is rank(mat)."""
    mat._conformable(other, rows=True)
    work = [x + y for x, y in zip(mat.data, other.data)]
    return work, _forward_pass(mat.ctx, work, mat.cols)


def rref_with_transform(mat: MatQm) -> tuple[MatQm, MatQm]:
    """Invertible P with P @ mat = rref(mat): the row operations carried onto I."""
    reduced, trans, _ = rref_carry(mat, MatQm.identity(mat.ctx, mat.rows))
    return trans, reduced


def _forward_pass(ctx: ExtField, work: list[list[int]], cols: int) -> list[int]:
    """Row echelon form in place on the row lists `work`: scans the first
    `cols` columns left to right, picks the topmost nonzero pivot, normalizes
    it to 1 and clears the column below it.  Returns the pivot columns.  Row
    operations act on whole rows, so columns past `cols` are carried; the
    field's row kernels compute them.  Rows are replaced, never mutated."""
    scale, sub_scaled = ctx._scale_row, ctx._sub_scaled_row
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
            prow = work[pr] = scale(ctx.inv(prow[c]), prow)
        for i in range(pr + 1, nrows):
            f = work[i][c]
            if f:
                work[i] = sub_scaled(work[i], f, prow)
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return pivots


def _back_pass(ctx: ExtField, work: list[list[int]], pivots: list[int]) -> None:
    """Reduce `_forward_pass`'s echelon rows in place: from the last pivot up,
    clear each pivot's column above it.  Only pivot rows change, each by
    later pivot rows, so rows past the rank keep the forward pass's values."""
    sub_scaled = ctx._sub_scaled_row
    for r in range(len(pivots) - 1, 0, -1):
        c, prow = pivots[r], work[r]
        for i in range(r):
            f = work[i][c]
            if f:
                work[i] = sub_scaled(work[i], f, prow)


# -- ranks ------------------------------------------------------------------------------


def rank_qm(mat: MatQm) -> int:
    """Rank over the extension field F_{q^m}: the forward pass alone, on
    the rows of mat or, when mat is tall, on its columns (rank(M) = rank(M^T))."""
    work, cols = list(mat.data), mat.cols
    if len(work) > cols:
        work, cols = list(zip(*work)), len(work)
    return len(_forward_pass(mat.ctx, work, cols))


def rank_q(mat: MatQm) -> int:
    """Rank of the coordinate expansion over the base field F_q: the F_2 core
    for q = 2, else `rank_qm` of the F_q view."""
    if mat.ctx.q == 2:
        return len(_gf2_rref(_gf2_columns(mat)[0]))
    return rank_qm(mat if isinstance(mat, MatQ) else ext_expand(mat))


# -- kernels and complements ----------------------------------------------------------------


def right_kernel_qm(mat: MatQm) -> MatQm:
    """Canonical (RREF) basis of {v in F_{q^m}^n : mat @ v^T = 0}.

    A subfield matrix has a subfield kernel basis, returned as a `MatQ`.
    One reduction of mat with its columns reversed gives it.  The vector of
    free column f is 1 at f and 0 at every other free column and left of f,
    as the pivots it meets lie right of f; by increasing f, that is RREF.
    """
    ctx, n = mat.ctx, mat.cols
    # f and p below index the reversed columns; each vector is flipped back.
    reduced, pivots = rref(type(mat)._wrap(ctx, [r[::-1] for r in mat.data], n))
    neg = ctx.neg
    rows = []
    for f in sorted(set(range(n)).difference(pivots), reverse=True):
        v = [0] * n
        v[f] = 1
        for row, p in zip(reduced.data, pivots):
            v[p] = neg(row[f])
        rows.append(v[::-1])
    return type(mat)._wrap(ctx, rows, n)


def right_kernel_q(mat: MatQm) -> MatQ:
    """Canonical (RREF) basis of {v in F_q^n : mat @ v^T = 0}: for v over
    F_q, the kernel of ext_expand(mat), whether mat is a `MatQ` or not."""
    if mat.ctx.q != 2:
        return right_kernel_qm(mat if isinstance(mat, MatQ) else ext_expand(mat))
    # Reduce the columns, each tagged with its index above them: a reduced
    # row with no column part is, shifted down, a row of the RREF kernel basis.
    columns, low = _gf2_columns(mat)
    n = mat.cols
    tagged = [c | 1 << (low + j) for j, c in enumerate(columns)]
    kernel = [v >> low for v in _gf2_rref(tagged) if not v & ((1 << low) - 1)]
    return MatQ._wrap(mat.ctx, [[(v >> j) & 1 for j in range(n)] for v in kernel], n)


# -- linear solving ----------------------------------------------------------------------------


def solve_right(coeff: MatQm, rhs: MatQm) -> MatQm:
    """Unique X with coeff @ X^T = rhs, for a square coeff of full rank:
    FormatError if coeff is not square, RankDeficientError if it is singular.
    The paper's tall erasure system reduces to it (`decoder.erasure_decode`).
    The forward pass over [coeff | rhs] decides singularity, so only a
    full-rank system runs the back pass, and only its carried block is kept."""
    b = coeff.cols
    if coeff.rows != b:
        raise FormatError(f"coefficient matrix is {coeff.rows}x{b}, not square")
    work, pivots = _forward_carry(coeff, rhs)
    if len(pivots) < b:
        raise RankDeficientError(f"coefficient matrix has column rank {len(pivots)} < {b}")
    _back_pass(coeff.ctx, work, pivots)
    return MatQm._wrap(coeff.ctx, [r[b:] for r in work], rhs.cols).transpose()
