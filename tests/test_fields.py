"""Field arithmetic: fixtures, independent oracles, and exhaustive properties."""

import ast
import itertools
import random
import time
from functools import cache, reduce
from pathlib import Path

import pytest

import rankmk
from conftest import REGIME_FIELDS
from rankmk.errors import FormatError, ParameterError
from rankmk.fields import DEFAULT_MODULI, TABLE_LIMIT, ExtField
from rankmk.matrix import MatQm, ext_expand


def _digits(code, q, n):
    out = []
    for _ in range(n):
        code, r = divmod(code, q)
        out.append(r)
    return out


def naive_mul(ctx, a, b):
    """Oracle: schoolbook polynomial multiply, then explicit reduction."""
    q, m, f = ctx.q, ctx.m, ctx.modulus
    prod = [0] * (2 * m)
    for i, x in enumerate(_digits(a, q, m)):
        for j, y in enumerate(_digits(b, q, m)):
            prod[i + j] = (prod[i + j] + x * y) % q
    for i in range(2 * m - 1, m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(m):
                prod[i - m + j] = (prod[i - m + j] - c * f[j]) % q
    return sum(d * q**i for i, d in enumerate(prod[:m]))


def test_worked_example_reduction(f32):
    # alpha^5 = alpha^2 + 1 under x^5 + x^2 + 1
    a4 = f32.pow(f32.alpha, 4)
    assert f32.mul(a4, f32.alpha) == 5


def test_mul_identity_exhaustive(f8):
    for a in range(f8.order):
        assert f8.mul(a, 1) == a
        assert f8.mul(1, a) == a


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2)])
def test_mul_table_matches_naive(q, m):
    ctx = ExtField(q, m)
    for a in range(ctx.order):
        for b in range(ctx.order):
            assert ctx.mul(a, b) == naive_mul(ctx, a, b)


@pytest.mark.parametrize("q,m", [(2, 3), (2, 4), (3, 2), (5, 1), (5, 2)])
def test_inverses(q, m):
    ctx = ExtField(q, m)
    for a in range(1, ctx.order):
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_add_sub_neg_consistency():
    ctx = ExtField(3, 2)
    for a in range(ctx.order):
        assert ctx.add(a, ctx.neg(a)) == 0
        for b in range(ctx.order):
            assert ctx.sub(ctx.add(a, b), b) == a


def _check_add_sub_neg(ctx):
    """add, sub and neg against digit-wise arithmetic mod q: all pairs for
    small fields, otherwise every a against a fixed seeded set of b."""
    q, m, order = ctx.q, ctx.m, ctx.order
    digits = [_digits(c, q, m) for c in range(order)]
    weights = [q**i for i in range(m)]

    def code(ds):
        return sum(d * w for d, w in zip(ds, weights))

    if order <= 343:
        bs = range(order)
    else:
        bs = sorted({0, 1, order - 1, *random.Random(order).sample(range(order), 64)})
    for a in range(order):
        da = digits[a]
        assert ctx.neg(a) == code([-x % q for x in da]), a
        for b in bs:
            db = digits[b]
            assert ctx.add(a, b) == code([(x + y) % q for x, y in zip(da, db)]), (a, b)
            assert ctx.sub(a, b) == code([(x - y) % q for x, y in zip(da, db)]), (a, b)


@pytest.mark.parametrize("q,m", sorted(k for k in DEFAULT_MODULI if k[0] != 2))
def test_table_add_sub_neg_match_digits(q, m):
    ctx = ExtField(q, m)
    assert ctx._zech is not None  # the Zech-logarithm path is the one under test
    _check_add_sub_neg(ctx)


def test_digit_loop_add_sub_neg_match_digits():
    ctx = ExtField(3, 2, (1, 0, 1))  # x^2 + 1: irreducible, but alpha has order 4
    assert not ctx.is_primitive and ctx._zech is None
    _check_add_sub_neg(ctx)


@pytest.mark.parametrize("q,m,modulus", REGIME_FIELDS.values(), ids=REGIME_FIELDS)
def test_row_kernels_match_per_entry_arithmetic(q, m, modulus):
    ctx = ExtField(q, m, modulus)
    assert (ctx._log is None) == (modulus is not None)
    assert (ctx._zech is None) == (modulus is not None or q == 2)
    rng = random.Random(ctx.order)
    top = ctx.order - 1
    rows = [[0] * 12] + [[0, 1, top, 0, *rng.choices(range(ctx.order), k=8)] for _ in range(5)]
    scalars = sorted({0, 1, top, *rng.sample(range(1, ctx.order), min(top, 16))})
    mul, sub = ctx.mul, ctx.sub
    for s in scalars:
        for row in rows:
            assert ctx._scale_row(s, row) == [mul(s, a) for a in row], (s, row)
            for prow in rows:
                want = [sub(a, mul(s, b)) for a, b in zip(row, prow)]
                assert ctx._sub_scaled_row(row, s, prow) == want, (row, s, prow)
    # products: each left row against the rows above, as a 6 x 12 right factor
    arows = [[0] * 6, [1, top, 0, 1, top, 1]] + [rng.choices(range(ctx.order), k=6) for _ in range(4)]
    add = ctx.add
    want = [[reduce(add, (mul(a, b[j]) for a, b in zip(arow, rows)), 0) for j in range(12)] for arow in arows]
    assert ctx._mul_rows(arows, rows, 12) == want


def test_only_fields_reads_the_tables():
    # The log/exp/Zech tables are the field's own format: every other module
    # goes through ExtField's operations and row kernels.
    tables = {"_log", "_exp", "_zech", "_half"}
    readers = []
    for path in sorted(Path(rankmk.__file__).parent.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in tables:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_subfield_closure():
    ctx = ExtField(3, 2)
    for a in range(3):
        for b in range(3):
            assert ctx.add(a, b) == (a + b) % 3
            assert ctx.mul(a, b) == (a * b) % 3


def test_frobenius_trivials(f8):
    for a in range(f8.order):
        assert f8.frobenius(a, 0) == a
        assert f8.frobenius(a, f8.m) == a
    with pytest.raises(ParameterError):
        f8.frobenius(1, -1)


def test_frobenius_alpha(f8):
    assert f8.frobenius(f8.alpha, 1) == f8.pow(f8.alpha, 2) == 4


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2)])
def test_frobenius_linear(q, m):
    ctx = ExtField(q, m)
    for i in (1, 2):
        for a in range(ctx.order):
            for b in range(ctx.order):
                assert ctx.frobenius(ctx.add(a, b), i) == ctx.add(
                    ctx.frobenius(a, i), ctx.frobenius(b, i)
                )
        for c in range(q):
            for a in range(ctx.order):
                assert ctx.frobenius(ctx.mul(c, a), i) == ctx.mul(c, ctx.frobenius(a, i))


def _coords(ctx, a):
    return [row[0] for row in ext_expand(MatQm(ctx, [[a]])).data]


@pytest.mark.parametrize("q,m", [(2, 3), (2, 5), (3, 2)])
def test_codes_are_polynomial_coordinates(q, m):
    # alpha^i is the i-th basis vector, a code's coordinates are its base-q
    # digits, and addition works on them digit-wise mod q
    ctx = ExtField(q, m)
    for i in range(m):
        assert _coords(ctx, ctx.pow(ctx.alpha, i)) == [int(j == i) for j in range(m)]
    for a in range(ctx.order):
        assert _coords(ctx, a) == _digits(a, q, m)
        for b in range(ctx.order):
            digitwise = [(x + y) % q for x, y in zip(_coords(ctx, a), _coords(ctx, b))]
            assert _coords(ctx, ctx.add(a, b)) == digitwise


def test_alpha_pow_is_bijection(f32):
    assert f32.alpha_pow(0) == 1
    assert f32.alpha_pow(5) == 5
    assert sorted(f32.alpha_pow(k) for k in range(31)) == list(range(1, 32))
    assert f32.alpha_pow(31) == 1  # k is taken mod q^m - 1


def test_non_primitive_modulus_rejected_for_alpha_pow():
    # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2 but alpha has order 5.
    ctx = ExtField(2, 4, (1, 1, 1, 1, 1))
    assert not ctx.is_primitive
    assert ctx.pow(ctx.alpha, 5) == 1
    with pytest.raises(ParameterError):
        ctx.alpha_pow(3)
    # arithmetic still works through the polynomial fallback
    for a in range(1, ctx.order):
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.mul(a, 1) == a
    for a in range(ctx.order):
        for b in range(ctx.order):
            assert ctx.mul(a, b) == naive_mul(ctx, a, b)


def test_reducible_modulus_rejected():
    with pytest.raises(ParameterError):
        ExtField(2, 4, (1, 0, 1, 0, 1))  # (x^2 + x + 1)^2


def _irreducible_by_trial_division(f, q, m):
    """Oracle: no monic polynomial of degree 1..m/2 divides f."""
    for deg in range(1, m // 2 + 1):
        for low in itertools.product(range(q), repeat=deg):
            g = list(low) + [1]
            rem = list(f)
            for i in range(m, deg - 1, -1):
                c = rem[i]
                for j in range(deg + 1):
                    rem[i - deg + j] = (rem[i - deg + j] - c * g[j]) % q
            if not any(rem):
                return False
    return True


def _accepted(q, m, f):
    try:
        ExtField(q, m, f)
    except ParameterError:
        return False
    return True


MODULUS_WALKS = [(2, 10), (3, 6), (5, 4), (7, 3)]


@cache
def _moduli_with_verdicts(q, max_m):
    """Every monic polynomial over F_q of degree 1..max_m, with the
    trial-division verdict on it: the two tests below walk these once."""
    moduli = [(m, [*low, 1]) for m in range(1, max_m + 1) for low in itertools.product(range(q), repeat=m)]
    return [(m, f, _irreducible_by_trial_division(f, q, m)) for m, f in moduli]


@pytest.mark.parametrize("q, max_m", MODULUS_WALKS)
def test_irreducibility_matches_trial_division(q, max_m):
    # every monic polynomial of degree <= max_m: accepted iff irreducible
    for m, f, irreducible in _moduli_with_verdicts(q, max_m):
        assert _accepted(q, m, f) == irreducible, f


@pytest.mark.parametrize("q, max_m", MODULUS_WALKS)
def test_primitive_walk_implies_irreducible(q, max_m, monkeypatch):
    # With Rabin's test switched off every modulus builds, and is_primitive is
    # the walk's own verdict: it must never call a reducible modulus primitive
    monkeypatch.setattr(ExtField, "_is_irreducible", lambda self: True)
    for m, f, irreducible in _moduli_with_verdicts(q, max_m):
        assert irreducible or not ExtField(q, m, f).is_primitive, f


def test_modulus_divisible_by_x_skips_walk(monkeypatch):
    # x | f makes alpha a zero divisor that never returns to 1, so the walk
    # would run all q^m - 1 steps; Rabin's test refuses f instead
    def refuse(self):
        raise AssertionError("the table walk ran")

    monkeypatch.setattr(ExtField, "_build_tables", refuse)
    for q, m in ((3, 12), (2, 4)):
        with pytest.raises(ParameterError, match="reducible"):
            ExtField(q, m, (0, 1) + (0,) * (m - 2) + (1,))  # x^m + x


def test_degree_32_spec_builds_quickly():
    # x^32 + x^22 + x^2 + x + 1 is irreducible; trial division by the ~131k
    # monic polynomials of degree <= 16 took seconds to show it.
    coeffs = [1 if i in (0, 1, 2, 22, 32) else 0 for i in range(33)]
    start = time.perf_counter()
    ctx = ExtField.from_spec("q=2 m=32 f=" + ",".join(map(str, coeffs)))
    assert time.perf_counter() - start < 0.5
    assert ctx.order == 2**32


def test_degenerate_degree_one_modulus():
    # modulus x gives F_q itself but a zero alpha: arithmetic must still be
    # exact mod q and alpha-power notation must be refused
    ctx = ExtField(3, 1, (0, 1))
    assert not ctx.is_primitive
    for a in range(3):
        for b in range(3):
            assert ctx.mul(a, b) == (a * b) % 3
            assert ctx.add(a, b) == (a + b) % 3
    with pytest.raises(ParameterError):
        ctx.alpha_pow(1)


def test_constructor_validation():
    with pytest.raises(ParameterError):
        ExtField(4, 2)  # q must be prime
    with pytest.raises(ParameterError):
        ExtField(2, 0)
    with pytest.raises(FormatError):
        ExtField(2, 3, (1, 1, 1))  # degree 2 != m
    with pytest.raises(FormatError):
        ExtField(2, 3, (1, 1, 0, 0))  # not monic
    # coefficients are ints: a float or a bool is refused, not truncated
    with pytest.raises(FormatError):
        ExtField(2, 4, (1, 1.9, 0, 0, 1))
    with pytest.raises(FormatError):
        ExtField(2, 4, (1, 1, 0, 0, True))
    with pytest.raises(FormatError):
        ExtField(2, 4).check(True)
    with pytest.raises(ParameterError):
        ExtField(11, 3)  # no default polynomial shipped
    with pytest.raises(ParameterError):
        ExtField(2**61 - 1, 1, (1, 1))  # prime, but past the 2^31 bound
    assert ExtField(2**31 - 1, 1, (1, 1)).order == 2**31 - 1  # largest supported prime


@pytest.mark.parametrize("q, max_m", [(2, 4), (3, 4), (5, 3)])
def test_alpha_walk_matches_raw_product(q, max_m):
    # Every monic modulus of degree <= max_m.  The table walk multiplies by
    # alpha with a shift and one fold and decides primitivity on its own;
    # _check_primitive and _mul_raw stay its independent oracles.
    for m in range(1, max_m + 1):
        for low in itertools.product(range(q), repeat=m):
            f = tuple(low) + (1,)
            if not _irreducible_by_trial_division(f, q, m):
                with pytest.raises(ParameterError):
                    ExtField(q, m, f)
                continue
            ctx = ExtField(q, m, f)
            assert ctx.is_primitive == ctx._check_primitive(), f
            if not ctx.is_primitive:
                assert ctx._exp is None and ctx._log is None and ctx._zech is None, f
                continue
            n = ctx.order - 1
            exp, log, zech = ctx._exp, ctx._log, ctx._zech
            assert len(exp) == 2 * n and exp[:n] == exp[n:], f
            for i in range(n):
                assert exp[i + 1] == ctx._mul_raw(exp[i], ctx.alpha), (f, i)
                assert log[exp[i]] == i, (f, i)
            if q != 2:
                for k in range(n):
                    one_plus = [(d + (i == 0)) % q for i, d in enumerate(_digits(exp[k], q, m))]
                    code = sum(d * q**i for i, d in enumerate(one_plus))
                    assert (exp[zech[k]] if zech[k] >= 0 else 0) == code, (f, k)


@pytest.mark.parametrize("middle, primitive", [(2, True), (7, False)])
def test_primitivity_past_table_limit(middle, primitive):
    # x^21 + x^2 + 1 is primitive; x^21 + x^7 + 1 is irreducible, but
    # x^((2^21 - 1)/127) = 1 mod it.  Both fields are past TABLE_LIMIT, so
    # construction decides it by powering and reading it changes nothing.
    ctx = ExtField(2, 21, tuple(int(i in (0, middle, 21)) for i in range(22)))
    assert ctx.order > TABLE_LIMIT and ctx._exp is None
    before = dict(vars(ctx))
    assert ctx.is_primitive is primitive
    assert vars(ctx) == before
    with pytest.raises(ParameterError, match=r"q\^m <= 2\^20"):
        ctx.alpha_pow(1)


def test_default_moduli_primitive(monkeypatch):
    # each default walk finds alpha primitive, which proves f irreducible,
    # so no default field runs Rabin's test
    def refuse(self):
        raise AssertionError("Rabin's test ran")

    monkeypatch.setattr(ExtField, "_is_irreducible", refuse)
    for (q, m) in DEFAULT_MODULI:
        assert ExtField(q, m).is_primitive, (q, m)


def test_pow_edges(f8):
    assert f8.pow(0, 0) == 1
    assert f8.pow(0, 5) == 0
    for a in range(1, f8.order):
        assert f8.pow(a, f8.order - 1) == 1
        assert f8.pow(a, -1) == f8.inv(a)


def test_spec_roundtrip(f32):
    assert f32.to_spec() == "q=2 m=5 f=1,0,1,0,0,1"
    assert ExtField.from_spec(f32.to_spec()) == f32
    with pytest.raises(FormatError):
        ExtField.from_spec("q=2 m=5")
    with pytest.raises(FormatError):
        ExtField.from_spec("q=2 m=x f=1,1")
    # a repeated key no longer lets the last one win, and an unknown key is refused
    with pytest.raises(FormatError, match="repeated spec key 'm'"):
        ExtField.from_spec("q=2 m=5 m=4 f=1,1,0,0,1")
    for extra in ["colour=red", "foo=bar", "k=1"]:
        with pytest.raises(FormatError, match="unknown spec key"):
            ExtField.from_spec(f"{f32.to_spec()} {extra}")
