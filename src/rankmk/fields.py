"""Exact arithmetic in F_q (q prime) and its degree-m extension F_{q^m}.

Field elements are plain Python ints ("codes") in [0, q^m).  The base-q
digits c_0, ..., c_{m-1} of a code are the coordinates of the element in the
polynomial basis (1, alpha, alpha^2, ..., alpha^(m-1)), where alpha is the
residue class of the indeterminate modulo the field polynomial.  Elements of
the subfield F_q are exactly the codes below q, and F_q arithmetic on them is
plain integer arithmetic mod q.

Multiplication reduces modulo the field polynomial f in O(m^2).  A field
with at most TABLE_LIMIT elements and f(0) != 0 first walks the powers of
alpha, each step a multiply-by-alpha in O(m).  alpha is primitive exactly
when the walk first returns to 1 after q^m - 1 steps, and that also proves f
irreducible: q^m - 1 distinct powers of alpha make every nonzero residue a
unit.  Only when the walk is skipped or finds alpha not primitive does Rabin's
irreducibility test run; larger fields run it first and then decide
primitivity by powering alpha.
For a primitive polynomial the walk's discrete-log tables are kept, so
multiplication, inversion and powering become table lookups.  For odd q those
fields also get a Zech-logarithm table, zech[k] = log(1 + alpha^k), so
addition and negation are table lookups too, and subtraction is a + (-b);
for q = 2 addition is XOR, and fields without tables add digit by digit.

No other module reads the tables.  Matrix code reaches them through three
private row kernels, each picking its arithmetic once per row, not per
entry: `_scale_row` (s * row) and `_sub_scaled_row` (row - f * prow) do the
row operations of Gaussian elimination (`matrix._forward_pass` and
`matrix._back_pass`), and `_mul_rows` the products of `MatQm.__matmul__`.
With tables a product is one exp lookup, and a sum is XOR for q = 2 and the
Zech `add` for odd q (row - f * prow as row + (-f) * prow); without tables
each entry runs `mul`, `add` and `sub`.  The results are those of the
per-entry operations.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FormatError, ParameterError

# Largest field for which log/exp tables (and alpha_pow) are supported.
TABLE_LIMIT = 2**20

# Default field polynomial per (q, m): coefficient tuples, constant term
# first, monic.  All entries are primitive, verified by the test suite.
# The q=2 column is the classic minimal-weight primitive polynomial list.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 3, 0, 1),
    (5, 4): (2, 2, 1, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 1, 1),
    (7, 3): (2, 3, 0, 1),
}


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _check_q_m(q: int, m: int) -> None:
    """Reject a base field size that is not a prime below 2^31 (which keeps
    the trial-division primality test under 46k steps) or a degree m < 1."""
    if q >= 2**31:
        raise ParameterError(f"base field size q={q} exceeds the supported bound 2^31")
    if not _is_prime(q):
        raise ParameterError(f"base field size q={q} must be prime")
    if m < 1:
        raise ParameterError(f"extension degree m={m} must be >= 1")


def _check_rabin_size(q: int, m: int) -> None:
    """Reject q^(m/2) > 2^16, past what the irreducibility test supports.
    For a prime q, m // 2 > 16 implies it, so a huge m costs no power."""
    if m // 2 > 16 or q ** (m // 2) > 2**16:
        raise ParameterError("irreducibility check supports q^(m/2) <= 2^16")


def _spec_fields(line: str, keys: Sequence[str]) -> dict[str, str]:
    """The key=value tokens of a spec line.  A token without `=`, a repeated
    key or a key outside `keys` is a FormatError."""
    fields = {}
    for token in line.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise FormatError(f"malformed spec token {token!r}: expected key=value")
        if key in fields:
            raise FormatError(f"repeated spec key {key!r}")
        if key not in keys:
            raise FormatError(f"unknown spec key {key!r}: expected one of {', '.join(keys)}")
        fields[key] = value
    return fields


def _int_to_digits(code: int, q: int, length: int) -> tuple[int, ...]:
    digits = []
    for _ in range(length):
        code, r = divmod(code, q)
        digits.append(r)
    return tuple(digits)


def _digits_to_int(digits: Sequence[int], q: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * q + d
    return code


def _poly_rem(a: list[int], f: Sequence[int], q: int) -> list[int]:
    """Remainder of a modulo the monic polynomial f, coefficients mod q."""
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % q
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % q
    return [c % q for c in a[:df]]


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], f: Sequence[int], q: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % q
    return _poly_rem(prod, f, q)


def _poly_coprime(f: Sequence[int], g: Sequence[int], q: int) -> bool:
    """Whether the monic f and g share no factor of positive degree (Euclid)."""
    a, b = list(f), list(g)
    while any(b):
        while not b[-1]:
            b.pop()
        s = pow(b[-1], q - 2, q)
        a, b = [c * s % q for c in b], a
        b = _poly_rem(b, a, q)
    return len(a) == 1


class ExtField:
    """The tower F_q in F_{q^m}: field polynomial, basis, and arithmetic.

    `is_primitive` is True when alpha generates the multiplicative group; it
    is decided at construction, by the table walk up to TABLE_LIMIT elements
    and by powering past it.  A primitive walk stands in for Rabin's test.

    Immutable after construction; all operations are pure functions of their
    integer arguments, so one instance is safely shared across threads.
    """

    def __init__(self, q: int, m: int, modulus: Sequence[int] | None = None):
        _check_q_m(q, m)
        if modulus is None:
            try:
                modulus = DEFAULT_MODULI[(q, m)]
            except KeyError:
                raise ParameterError(
                    f"no default field polynomial for q={q}, m={m}; pass one explicitly"
                ) from None
        modulus = tuple(modulus)
        if any(type(c) is not int for c in modulus):
            raise FormatError(f"field polynomial coefficients must be ints, got {modulus!r}")
        if len(modulus) != m + 1:
            raise FormatError(f"field polynomial must have degree {m} (got {len(modulus) - 1})")
        if any(c < 0 or c >= q for c in modulus):
            raise FormatError("field polynomial coefficients must lie in [0, q)")
        if modulus[-1] != 1:
            raise FormatError("field polynomial must be monic")

        self.q = q
        self.m = m
        self.modulus = modulus
        self.order = q**m
        # alpha = residue of x: for m >= 2 the digit vector (0,1,0,...);
        # for m = 1 it reduces to -c0.
        self.alpha = q if m >= 2 else (q - modulus[0]) % q
        # q = 2: the bits of f, XORed in to reduce a product of degree m
        self._mod_mask = _digits_to_int(modulus, 2) if q == 2 else 0
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None  # odd q with tables only
        # The walk needs alpha to be a unit, so x | f skips it.
        self.is_primitive = self.order <= TABLE_LIMIT and modulus[0] != 0 and self._build_tables()
        if not self.is_primitive:
            if not self._is_irreducible():
                raise ParameterError(f"field polynomial {modulus} is reducible over F_{q}")
            if self.order > TABLE_LIMIT:
                self.is_primitive = self._check_primitive()

    # -- construction helpers -------------------------------------------------

    def _is_irreducible(self) -> bool:
        """Rabin's test, in the raw arithmetic mod f: x^(q^m) = x, and
        x^(q^(m/p)) - x is coprime to f for every prime p dividing m."""
        q, m, x = self.q, self.m, self.alpha
        _check_rabin_size(q, m)

        def minus_x(k: int) -> tuple[int, ...]:
            return _int_to_digits(self.sub(self._pow_raw(x, q**k), x), q, m)

        coprime = (_poly_coprime(self.modulus, minus_x(m // p), q) for p in _prime_factors(m))
        return not any(minus_x(m)) and all(coprime)

    def _check_primitive(self) -> bool:
        """alpha^(n/p) != 1 for every prime p dividing n = q^m - 1: the
        primitivity test that fields past TABLE_LIMIT run at construction in
        place of the walk."""
        if self.alpha == 0:  # m = 1 with modulus x: the residue of x is zero
            return False
        n = self.order - 1
        for p in _prime_factors(n):
            if self._pow_raw(self.alpha, n // p) == 1:
                return False
        return True

    def _alpha_step(self):
        """v -> v * alpha in O(m): shift every digit up one place, then fold
        the digit c pushed to place m back in as -c * (f_0, ..., f_{m-1})."""
        q, m = self.q, self.m
        if q == 2:
            top, mask = 1 << m, self._mod_mask

            def step(v: int) -> int:
                v <<= 1
                return v ^ mask if v & top else v

            return step
        top = q ** (m - 1)
        fold = [_digits_to_int([-c * f % q for f in self.modulus[:m]], q) for c in range(q)]
        add = self.add  # digit by digit: no Zech table exists yet

        def step(v: int) -> int:
            c, rest = divmod(v, top)
            return add(rest * q, fold[c])

        return step

    def _build_tables(self) -> bool:
        """Walk 1, alpha, alpha^2, ... and return whether alpha is primitive.

        f(0) != 0, so alpha is a unit of F_q[x]/(f) and its powers return to 1
        after its order, at most the number u <= n = q^m - 1 of units.  alpha
        is primitive exactly when the walk meets no 1 before step n: then u = n,
        every nonzero residue is a unit, and f is irreducible.  Only then are
        the exp, log (and for odd q Zech) tables kept."""
        n = self.order - 1
        step = self._alpha_step()
        exp = [1] * n
        log = [0] * self.order
        v = 1
        for i in range(1, n):
            v = step(v)
            if v == 1:
                return False
            exp[i] = v
            log[v] = i
        self._exp = exp + exp
        self._log = log
        if self.q != 2:
            # 1 + alpha^k only bumps the constant digit; it is 0 at k = n/2,
            # since alpha^(n/2) = -1, and that entry is marked -1.
            q = self.q
            ones = (c - c % q + (c % q + 1) % q for c in exp)
            self._zech = [log[c] if c else -1 for c in ones]
            self._half = n // 2
        return True

    # -- raw polynomial-basis arithmetic --------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        if self.q == 2:
            mod_mask = self._mod_mask
            top = 1 << self.m
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod_mask
            return r
        da = _int_to_digits(a, self.q, self.m)
        db = _int_to_digits(b, self.q, self.m)
        return _digits_to_int(_poly_mul_mod(da, db, self.modulus, self.q), self.q)

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        base = a
        while e:
            if e & 1:
                r = self._mul_raw(r, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return r

    # -- field operations ------------------------------------------------------

    def check(self, a: int) -> int:
        """Validate an element code, returning it unchanged."""
        if type(a) is not int or a < 0 or a >= self.order:
            raise FormatError(f"element code {a!r} out of range [0, {self.order})")
        return a

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        zech = self._zech
        if zech is not None:
            if a == 0 or b == 0:
                return a or b
            la = self._log[a]
            z = zech[(self._log[b] - la) % len(zech)]
            return self._exp[la + z] if z >= 0 else 0
        q = self.q
        out = 0
        mult = 1
        for _ in range(self.m):
            out += ((a + b) % q) * mult
            a //= q
            b //= q
            mult *= q
        return out

    def neg(self, a: int) -> int:
        if self.q == 2:
            return a
        if self._zech is not None:
            return self._exp[self._log[a] + self._half] if a else 0
        q = self.q
        out = 0
        mult = 1
        for _ in range(self.m):
            out += (-a % q) * mult
            a //= q
            mult *= q
        return out

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self._log is not None:
            n = self.order - 1
            return self._exp[(n - self._log[a]) % n]
        return self._pow_raw(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        n = self.order - 1
        if self._log is not None:
            return self._exp[(self._log[a] * e) % n]
        return self._pow_raw(a, e % n)

    # -- row kernels ------------------------------------------------------------

    def _scale_row(self, s: int, row: Sequence[int]) -> list[int]:
        """[s * a for a in row], choosing the arithmetic once per row."""
        log = self._log
        if log is None or s == 0:
            mul = self.mul
            return [mul(s, a) for a in row]
        exp, ls = self._exp, log[s]
        return [exp[ls + log[a]] if a else 0 for a in row]

    def _sub_scaled_row(self, row: Sequence[int], f: int, prow: Sequence[int]) -> list[int]:
        """[a - f * b for a, b in zip(row, prow)], choosing the arithmetic
        once per row: with tables each product is one exp lookup, and the
        difference is XOR for q = 2 and a + (-f) * b by the Zech `add`."""
        log = self._log
        if log is None or f == 0:
            mul, sub = self.mul, self.sub
            return [sub(a, mul(f, b)) for a, b in zip(row, prow)]
        exp, lf = self._exp, log[f]
        if self.q == 2:
            return [a ^ exp[lf + log[b]] if b else a for a, b in zip(row, prow)]
        add, lf = self.add, (lf + self._half) % (self.order - 1)  # log(-f)
        return [add(a, exp[lf + log[b]]) if b else a for a, b in zip(row, prow)]

    def _mul_rows(self, arows: Sequence[list[int]], brows: Sequence[list[int]], cols: int) -> list[list[int]]:
        """The rows of arows @ brows, `cols` wide, choosing the arithmetic once
        per left entry a: with tables each term is exp[log a + log b]."""
        log, exp = self._log, self._exp
        xor = self.q == 2
        mul, add = self.mul, self.add
        out = []
        for arow in arows:
            acc = [0] * cols
            for a, brow in zip(arow, brows):
                if a == 0:
                    continue
                if log is None:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = add(acc[j], b if a == 1 else mul(a, b))
                    continue
                la = log[a]
                if xor:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] ^= exp[la + log[b]]
                else:
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = add(acc[j], exp[la + log[b]])
            out.append(acc)
        return out

    def frobenius(self, a: int, i: int) -> int:
        """The q^i-power map a -> a^(q^i); identity for i = 0 or i = m."""
        if i < 0:
            raise ParameterError("frobenius exponent must be >= 0")
        return self.pow(a, self.q ** (i % self.m))

    # -- alpha-power notation ----------------------------------------------------

    def alpha_pow(self, k: int) -> int:
        """alpha^k for a primitive field polynomial (k taken mod q^m - 1)."""
        if self.order > TABLE_LIMIT:
            raise ParameterError("alpha-power notation supported only for q^m <= 2^20")
        if not self.is_primitive:
            raise ParameterError("field polynomial is not primitive; alpha-power notation unavailable")
        return self._exp[k % (self.order - 1)]

    # -- serialization -------------------------------------------------------------

    def to_spec(self) -> str:
        """Textual form `q=<int> m=<int> f=<c0,c1,...,cm>`."""
        coeffs = ",".join(str(c) for c in self.modulus)
        return f"q={self.q} m={self.m} f={coeffs}"

    @classmethod
    def from_spec(cls, text: str) -> "ExtField":
        fields = _spec_fields(text, ("q", "m", "f"))
        try:
            q = int(fields["q"])
            m = int(fields["m"])
            coeffs = tuple(int(c) for c in fields["f"].split(","))
        except (KeyError, ValueError) as exc:
            raise FormatError(f"malformed field spec {text!r}") from exc
        return cls(q, m, coeffs)

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtField)
            and self.q == other.q
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.q, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"ExtField(q={self.q}, m={self.m}, modulus={self.modulus})"
