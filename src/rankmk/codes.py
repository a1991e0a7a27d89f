"""Construction of Gabidulin and generic linear rank-metric codes.

An interleaved codeword of order ell is simply an ell x n `MatQm` whose
rows are codewords of the constituent code, i.e. H @ C^T = 0.

Code spec files: the first line is a field spec (`q=.. m=.. f=..`), the
second line is either

    kind=gabidulin g=<code,code,...> k=<int>

or `kind=generic [d=<int>] H=` followed by a parity-check matrix block in
the matrix textual format (header line included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import FormatError, ParameterError
from .fields import ExtField, _spec_fields
from .matrix import MatQm, mat_from_text, rank_q, rank_qm, right_kernel_qm

# Exhaustive enumeration guard (number of codewords).
ENUM_LIMIT = 2**20

# The keys a code spec's kind line may carry, per kind.
_CODE_SPEC_KEYS = {"gabidulin": ("kind", "g", "k"), "generic": ("kind", "d", "H")}


@dataclass(frozen=True)
class GabidulinSpec:
    """Evaluation code of q-power (Frobenius) images of a rank-n locator vector."""

    ctx: ExtField
    g: tuple[int, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(self.g))
        n = len(self.g)
        if type(self.k) is not int:
            raise FormatError(f"dimension k must be an int, got {self.k!r}")
        if not 1 <= self.k <= n:
            raise ParameterError(f"dimension k={self.k} must satisfy 1 <= k <= n={n}")
        if n > self.ctx.m:
            raise ParameterError(f"length n={n} exceeds extension degree m={self.ctx.m}")
        if rank_q(MatQm(self.ctx, [list(self.g)], n)) != n:
            raise ParameterError("code locators must be linearly independent over F_q")

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def d(self) -> int:
        return self.n - self.k + 1


@dataclass(frozen=True)
class LinearCodeSpec:
    """Generic [n, k, d] rank-metric code given by a parity-check matrix.

    `d`, in the Singleton range 1..n-k+1, is caller-supplied (or computed, for
    tiny codes); the decoder uses it only for the guarantee predicate t <= d - 2.
    """

    h: MatQm
    d: int | None = None
    gen: MatQm | None = field(default=None)

    def __post_init__(self):
        if self.d is not None and type(self.d) is not int:
            raise FormatError(f"distance d must be an int, got {self.d!r}")
        if self.d is not None and not 1 <= self.d <= self.h.rows + 1:
            raise ParameterError(f"distance d={self.d} is outside 1 <= d <= n - k + 1 = {self.h.rows + 1}")
        if rank_qm(self.h) != self.h.rows:
            raise ParameterError("parity-check matrix must have full row rank")
        if self.gen is not None and not (self.h @ self.gen.transpose()).is_zero():
            raise ParameterError("generator rows are not annihilated by the parity-check matrix")

    @classmethod
    def _wrap(cls, h: MatQm, d: int | None, gen: MatQm) -> "LinearCodeSpec":
        """Adopt a pair that resolve_code derived as it is: no checks."""
        spec = object.__new__(cls)
        spec.__dict__.update(h=h, d=d, gen=gen)
        return spec

    @property
    def ctx(self) -> ExtField:
        return self.h.ctx

    @property
    def n(self) -> int:
        return self.h.cols

    @property
    def k(self) -> int:
        return self.h.cols - self.h.rows


def moore_matrix(ctx: ExtField, g, rows: int) -> MatQm:
    """Matrix whose row i applies the q^i power map entrywise to g.

    Each locator must be an element code of ctx (FormatError otherwise).
    """
    g = [ctx.check(a) for a in g]
    return MatQm._wrap(ctx, [[ctx.frobenius(a, i) for a in g] for i in range(rows)], len(g))


def gabidulin_generator(spec: GabidulinSpec) -> MatQm:
    """k x n generator: row i is g raised entrywise to the q^i-th power."""
    return moore_matrix(spec.ctx, spec.g, spec.k)


def parity_check_from_generator(gen: MatQm) -> MatQm:
    """Canonical (RREF) parity-check matrix for a full-rank generator.

    Its rows are the canonical basis of the right kernel of gen.
    """
    h = right_kernel_qm(gen)
    rank = gen.cols - h.rows
    if rank != gen.rows:
        raise ParameterError(f"generator matrix has rank {rank} < {gen.rows}")
    return h


def min_rank_distance_exhaustive(spec: GabidulinSpec | LinearCodeSpec) -> int:
    """Exact minimum rank distance by enumerating the nonzero codewords up
    to F_{q^m}-scalars, which keep the rank weight: one message per line,
    the one whose first nonzero entry is 1.  A code of dimension 0 has no
    nonzero codeword, which is a ParameterError."""
    gen = resolve_code(spec).gen
    ctx, k, order = gen.ctx, gen.rows, gen.ctx.order
    if k == 0:
        raise ParameterError("a code of dimension 0 has no nonzero codeword")
    if order**k > ENUM_LIMIT:
        raise ParameterError(f"enumeration of {order}^{k} codewords exceeds the size guard")
    best = gen.cols
    for lead in range(k):
        for tail in product(range(order), repeat=k - 1 - lead):
            best = min(best, rank_q(MatQm._wrap(ctx, [[0] * lead + [1, *tail]], k) @ gen))
            if best == 1:
                return best
    return best


# -- code spec files ----------------------------------------------------------------


def code_spec_to_text(spec: GabidulinSpec | LinearCodeSpec) -> str:
    if isinstance(spec, GabidulinSpec):
        g = ",".join(str(a) for a in spec.g)
        return f"{spec.ctx.to_spec()}\nkind=gabidulin g={g} k={spec.k}\n"
    head = f"{spec.ctx.to_spec()}\nkind=generic"
    if spec.d is not None:
        head += f" d={spec.d}"
    return head + " H=\n" + spec.h.to_text()


def code_spec_from_text(text: str) -> GabidulinSpec | LinearCodeSpec:
    lines = text.splitlines()
    if len(lines) < 2:
        raise FormatError("code spec needs a field line and a kind line")
    ctx = ExtField.from_spec(lines[0])
    kind = next((token[5:] for token in lines[1].split() if token.startswith("kind=")), None)
    if kind not in _CODE_SPEC_KEYS:
        raise FormatError(f"unknown code kind {kind!r}")
    fields = _spec_fields(lines[1], _CODE_SPEC_KEYS[kind])
    if kind == "gabidulin":
        try:
            g = tuple(int(a) for a in fields["g"].split(","))
            k = int(fields["k"])
        except (KeyError, ValueError) as exc:
            raise FormatError("malformed gabidulin code spec") from exc
        return GabidulinSpec(ctx, g, k)
    if "H" not in fields:
        raise FormatError("generic code spec must end with H= and a matrix block")
    try:
        d = int(fields["d"]) if "d" in fields else None
    except ValueError as exc:
        raise FormatError("malformed d= value in code spec") from exc
    h = mat_from_text("\n".join(lines[2:]), ctx=ctx)
    return LinearCodeSpec(h=h, d=d)


def resolve_code(spec: GabidulinSpec | LinearCodeSpec) -> LinearCodeSpec:
    """Normalize either spec kind to a LinearCodeSpec with a generator attached.

    The pair is a checked full-rank matrix and its kernel basis, so it is
    adopted without repeating LinearCodeSpec's checks."""
    if isinstance(spec, GabidulinSpec):
        gen = gabidulin_generator(spec)
        return LinearCodeSpec._wrap(parity_check_from_generator(gen), spec.d, gen)
    if spec.gen is None:
        return LinearCodeSpec._wrap(spec.h, spec.d, right_kernel_qm(spec.h))
    return spec
