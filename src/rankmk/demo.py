"""Built-in worked example on a [5, 2] interleaved Gabidulin code over F_{2^5}.

Every pipeline stage (syndrome, its echelon form, the trailing transformed
parity-check rows, their coordinate expansion, the support basis, the
coefficient matrix, and the decoded codeword) ships with its expected value,
so a run doubles as an end-to-end self-check.  Nonzero field elements are
stored as powers of alpha for the primitive polynomial x^5 + x^2 + 1.
"""

from __future__ import annotations

from .decoder import decode, syndrome
from .errors import ParameterError
from .fields import ExtField
from .matrix import MatQ, MatQm, ext_expand, rref

FIELD_SPEC = "q=2 m=5 f=1,0,1,0,0,1"

# Matrices as alpha exponents; None encodes the zero element.
_H = [[0, None, None, 17, 4], [None, 0, None, 7, 13], [None, None, 0, 16, 28]]
_C = [[18, None, 21, 9, 3], [19, None, 22, 10, 4]]
_R = [[27, 1, 4, 21, 6], [2, 2, 26, 22, 7]]
_S = [[12, 12], [30, 0], [30, 17]]
_RREF_S = [[1, 0], [0, 1], [0, 0]]
_H_SUB = [[0, 14, 0, 4, 8]]
_EXT_H_SUB = [
    [1, 1, 1, 0, 1],
    [0, 0, 0, 0, 0],
    [0, 1, 0, 0, 1],
    [0, 1, 0, 0, 1],
    [0, 1, 0, 1, 0],
]
_B = [[1, 0, 1, 0, 0], [0, 1, 0, 1, 1]]
_A = [[3, 1], [1, 2]]

def _alpha_mat(ctx: ExtField, rows) -> MatQm:
    return MatQm(ctx, [[0 if e is None else ctx.alpha_pow(e) for e in r] for r in rows])


def fixtures() -> dict:
    """All embedded values as matrices over the demo field."""
    ctx = ExtField.from_spec(FIELD_SPEC)
    return {
        "ctx": ctx,
        "H": _alpha_mat(ctx, _H),
        "C": _alpha_mat(ctx, _C),
        "R": _alpha_mat(ctx, _R),
        "S": _alpha_mat(ctx, _S),
        "rref(S)": MatQm(ctx, _RREF_S),
        "H_sub": _alpha_mat(ctx, _H_SUB),
        "ext(H_sub)": MatQ(ctx, _EXT_H_SUB),
        "B": MatQ(ctx, _B),
        "A": _alpha_mat(ctx, _A),
    }


def _show(mat: MatQm) -> str:
    return "\n".join("  " + " ".join(f"{a:>4d}" for a in row) for row in mat.data) or "  (empty)"


def run_demo(quiet: bool = False, tamper: tuple[int, int, int] | None = None) -> int:
    """Run the decoding pipeline on the embedded fixtures.

    Returns 0 when every stage matches its expected value; otherwise prints
    the first mismatching stage and returns 1.  `tamper=(i, j, delta)` adds
    delta to R[i, j] before decoding, which must make the run fail; a
    position outside R raises ParameterError.
    """
    fx = fixtures()
    ctx, h, received = fx["ctx"], fx["H"], fx["R"]
    if tamper is not None:
        i, j, delta = tamper
        if not (0 <= i < received.rows and 0 <= j < received.cols):
            shape = f"{received.rows}x{received.cols}"
            raise ParameterError(f"tamper position ({i}, {j}) is outside R's {shape} shape")
        data = [list(r) for r in received.data]
        data[i][j] = ctx.add(data[i][j], delta % ctx.order)
        received = MatQm(ctx, data)

    def emit(name: str, mat: MatQm) -> None:
        if not quiet:
            print(f"{name}:")
            print(_show(mat))

    def fail(stage: str) -> int:
        print(f"FAIL at stage {stage}")
        return 1

    synd = syndrome(h, received)
    emit("S", synd)
    reduced = rref(synd)[0]
    emit("rref(S)", reduced)
    outcome = decode(h, received, d=4)
    if not outcome.success:
        if not quiet:
            print(f"decoder refused: {outcome.reason.value}")
        return fail("verification")
    emit("H_sub", outcome.h_sub)
    emit("ext(H_sub)", ext_expand(outcome.h_sub))
    emit("B", outcome.b_hat)
    emit("A", outcome.a_hat)
    emit("C", outcome.c_hat)

    if synd != fx["S"]:
        return fail("S")
    if reduced != fx["rref(S)"]:
        return fail("rref(S)")
    # The echelonizing transform is not unique, so the trailing rows are
    # compared by row space, not entrywise.
    if rref(outcome.h_sub)[0] != rref(fx["H_sub"])[0]:
        return fail("H_sub")
    if rref(ext_expand(outcome.h_sub))[0] != rref(fx["ext(H_sub)"])[0]:
        return fail("ext(H_sub)")
    if outcome.b_hat != fx["B"]:
        return fail("B")
    if outcome.a_hat != fx["A"]:
        return fail("A")
    if outcome.c_hat != fx["C"]:
        return fail("C")
    print("PASS" if quiet else "PASS: all stages match the expected values")
    return 0
