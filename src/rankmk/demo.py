"""Built-in worked example on a [5, 2] interleaved Gabidulin code over F_{2^5}.

Every pipeline stage (syndrome, its echelon form, the trailing transformed
parity-check rows, their coordinate expansion, the support basis, the
coefficient matrix, and the decoded codeword) ships with its expected value,
so a run doubles as an end-to-end self-check; the test suite reads the same
values through `_example`.  Field elements are stored as powers of alpha for
the primitive polynomial x^5 + x^2 + 1, and the 0/1 matrices as element codes.
"""

from __future__ import annotations

from .decoder import decode, syndrome
from .errors import ParameterError
from .fields import ExtField
from .matrix import MatQ, MatQm, ext_expand, rref

FIELD_SPEC = "q=2 m=5 f=1,0,1,0,0,1"

# The parity-check matrix and the received word, as alpha exponents; None
# encodes the zero element.
_H = [[0, None, None, 17, 4], [None, 0, None, 7, 13], [None, None, 0, 16, 28]]
_R = [[27, 1, 4, 21, 6], [2, 2, 26, 22, 7]]

# The stages in print order: name, whether the expected value is given as
# alpha exponents (else as F_q element codes), and the expected value.  The
# first two need only the syndrome, the rest a successful decode.
_STAGES = (
    ("S", True, [[12, 12], [30, 0], [30, 17]]),
    ("rref(S)", False, [[1, 0], [0, 1], [0, 0]]),
    ("H_sub", True, [[0, 14, 0, 4, 8]]),
    ("ext(H_sub)", False, [[1, 1, 1, 0, 1], [0, 0, 0, 0, 0], [0, 1, 0, 0, 1],
                           [0, 1, 0, 0, 1], [0, 1, 0, 1, 0]]),
    ("B", False, [[1, 0, 1, 0, 0], [0, 1, 0, 1, 1]]),
    ("A", True, [[3, 1], [1, 2]]),
    ("C", True, [[18, None, 21, 9, 3], [19, None, 22, 10, 4]]),
)
# The echelonizing transform is not unique, so these stages are compared by
# row space, not entrywise.
_BY_ROW_SPACE = {"H_sub", "ext(H_sub)"}


def _alpha_mat(ctx: ExtField, rows) -> MatQm:
    return MatQm(ctx, [[0 if e is None else ctx.alpha_pow(e) for e in r] for r in rows])


def _example(ctx: ExtField) -> dict[str, MatQm]:
    """H, R and each stage's expected value, by stage name."""
    stages = {name: _alpha_mat(ctx, rows) if exp else MatQ(ctx, rows) for name, exp, rows in _STAGES}
    return {"H": _alpha_mat(ctx, _H), "R": _alpha_mat(ctx, _R), **stages}


def _show(mat: MatQm) -> str:
    return "\n".join("  " + " ".join(f"{a:>4d}" for a in row) for row in mat.data) or "  (empty)"


def run_demo(quiet: bool = False, tamper: tuple[int, int, int] | None = None) -> int:
    """Run the decoding pipeline on the embedded example.

    Returns 0 when every stage matches its expected value; otherwise prints
    the first mismatching stage and returns 1.  `tamper=(i, j, delta)` adds
    delta to R[i, j] before decoding, which must make the run fail; a
    position outside R raises ParameterError.
    """
    ctx = ExtField.from_spec(FIELD_SPEC)
    example = _example(ctx)
    h, received = example["H"], example["R"]
    if tamper is not None:
        i, j, delta = tamper
        if not (0 <= i < received.rows and 0 <= j < received.cols):
            shape = f"{received.rows}x{received.cols}"
            raise ParameterError(f"tamper position ({i}, {j}) is outside R's {shape} shape")
        data = [list(r) for r in received.data]
        data[i][j] = ctx.add(data[i][j], delta % ctx.order)
        received = MatQm(ctx, data)

    synd = syndrome(h, received)
    outcome = decode(h, received, d=4)
    found = [synd, rref(synd)[0]]  # each stage reached, in the order of _STAGES
    if outcome.success:
        found += [outcome.h_sub, ext_expand(outcome.h_sub), outcome.b_hat, outcome.a_hat, outcome.c_hat]
    if not quiet:
        for (name, _, _), mat in zip(_STAGES, found):
            print(f"{name}:")
            print(_show(mat))
    if not outcome.success:
        if not quiet:
            print(f"decoder refused: {outcome.reason.value}")
        print("FAIL at stage verification")
        return 1
    for (name, _, _), mat in zip(_STAGES, found):
        expected = example[name]
        if name in _BY_ROW_SPACE:
            mat, expected = rref(mat)[0], rref(expected)[0]
        if mat != expected:
            print(f"FAIL at stage {name}")
            return 1
    print("PASS" if quiet else "PASS: all stages match the expected values")
    return 0
