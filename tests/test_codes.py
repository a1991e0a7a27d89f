"""Code construction: Moore matrices, parity checks, encoding, distances."""

import pytest

from conftest import alpha_mat, gab_code, twist, twisted_gabidulin
from rankmk.codes import (
    GabidulinSpec,
    LinearCodeSpec,
    code_spec_from_text,
    code_spec_to_text,
    gabidulin_generator,
    min_rank_distance_exhaustive,
    moore_matrix,
    parity_check_from_generator,
    resolve_code,
)
from rankmk.errors import FormatError, ParameterError
from rankmk.fields import ExtField
from rankmk.matrix import MatQm, rank_q, rank_qm, right_kernel_qm
from rankmk.simulate import SplitMix64, lo_condition_check, rand_matrix, sample_full_rank, trial_rng


def test_generator_worked_example(f32):
    spec = GabidulinSpec(f32, tuple(f32.alpha_pow(i) for i in range(5)), 2)
    assert gabidulin_generator(spec) == alpha_mat(f32, [[0, 1, 2, 3, 4], [0, 2, 4, 6, 8]])


def test_generator_k1(f32):
    spec = GabidulinSpec(f32, (1, f32.alpha), 1)
    assert gabidulin_generator(spec) == MatQm(f32, [[1, f32.alpha]])


def test_moore_matrix_rows():
    ctx = ExtField(2, 4)
    g = tuple(ctx.alpha_pow(i) for i in range(3))
    mm = moore_matrix(ctx, g, 3)
    for i in range(3):
        assert mm.data[i] == [ctx.frobenius(a, i) for a in g]


@pytest.mark.parametrize("bad", [-1, 16, True, 1.5])
def test_locators_checked_where_they_enter(bad):
    # -1 would index the log table from its end; 16 lies past its end; a
    # bool or a float is not an element code and is not truncated to one
    ctx = ExtField(2, 4)
    with pytest.raises(FormatError):
        GabidulinSpec(ctx, (bad, 2), 1)
    # nor is it a dimension: k = 1.5 would give d = 3.5, and k = True a [2, 1] code
    with pytest.raises(ParameterError if type(bad) is int else FormatError):
        GabidulinSpec(ctx, (1, 2), bad)
    with pytest.raises(FormatError):
        moore_matrix(ctx, [bad, 2], 2)
    with pytest.raises(FormatError):
        lo_condition_check((bad, 2, 4, 8), 2, MatQm.zeros(ctx, 2, 4))


def test_all_nonzero_codewords_have_weight_d():
    # [3, 2] code over F_8: every nonzero codeword has rank weight >= n-k+1 = 2
    ctx = ExtField(2, 3)
    spec = GabidulinSpec(ctx, (1, ctx.alpha, ctx.alpha_pow(2)), 2)
    gen = gabidulin_generator(spec)
    for msg_code in range(1, ctx.order**2):
        msg = MatQm(ctx, [[msg_code % ctx.order, msg_code // ctx.order]])
        assert rank_q(msg @ gen) >= 2


def test_parity_check_worked_example(f32, worked):
    spec = GabidulinSpec(f32, tuple(f32.alpha_pow(i) for i in range(5)), 2)
    h = parity_check_from_generator(gabidulin_generator(spec))
    assert h == worked["H"]


def test_parity_check_trivial():
    ctx = ExtField(2, 4)
    gen = MatQm(ctx, [[1, 0, 0, 0], [0, 1, 0, 0]])
    h = parity_check_from_generator(gen)
    assert h == MatQm(ctx, [[0, 0, 1, 0], [0, 0, 0, 1]])


def test_parity_check_random():
    ctx = ExtField(2, 4)
    rng = SplitMix64(21)
    for _ in range(20):
        gen = sample_full_rank(rng, ctx, 2, 5, 2, rank_over="qm")
        h = parity_check_from_generator(gen)
        assert h.rows == 3 and rank_qm(h) == 3
        assert (h @ gen.transpose()).is_zero()
        assert rank_qm(h) + rank_qm(gen) == gen.cols


def test_parity_check_rank_deficient():
    ctx = ExtField(2, 3)
    with pytest.raises(ParameterError):
        parity_check_from_generator(MatQm(ctx, [[1, 1, 0], [1, 1, 0]]))


def test_encode_worked_example(f32, worked):
    code = gab_code(2, 5, 5, 2)
    msg = alpha_mat(f32, [[1, 0], [2, 1]])
    word = msg @ code.gen
    assert word == worked["C"]
    assert (code.h @ word.transpose()).is_zero()


def test_encode_zero_and_random(f32):
    code = gab_code(2, 5, 5, 2)
    zero = MatQm.zeros(f32, 3, 2)
    assert (zero @ code.gen).is_zero()
    rng = SplitMix64(22)
    for _ in range(10):
        msg = rand_matrix(rng, f32, 3, 2)
        word = msg @ code.gen
        assert (code.h @ word.transpose()).is_zero()


@pytest.mark.parametrize("q,m,n,k", [(2, 3, 3, 1), (2, 3, 3, 2), (2, 4, 3, 1), (2, 4, 4, 3)])
def test_gabidulin_is_mrd(q, m, n, k):
    ctx = ExtField(q, m)
    spec = GabidulinSpec(ctx, tuple(ctx.alpha_pow(i) for i in range(n)), k)
    assert min_rank_distance_exhaustive(spec) == n - k + 1


def test_min_distance_degenerate_codes():
    ctx = ExtField(2, 3)
    rep = LinearCodeSpec(h=parity_check_from_generator(MatQm(ctx, [[1, 1, 1]])), gen=MatQm(ctx, [[1, 1, 1]]))
    assert min_rank_distance_exhaustive(rep) == 1
    full = GabidulinSpec(ctx, (1, ctx.alpha, ctx.alpha_pow(2)), 3)  # k = n
    assert min_rank_distance_exhaustive(full) == 1
    zero_dim = LinearCodeSpec(MatQm.identity(ExtField(2, 4), 3))  # [3,0]: only the zero word
    with pytest.raises(ParameterError, match="no nonzero codeword"):
        min_rank_distance_exhaustive(zero_dim)


def test_min_distance_guard():
    ctx = ExtField(2, 8)
    spec = GabidulinSpec(ctx, tuple(ctx.alpha_pow(i) for i in range(8)), 4)
    with pytest.raises(ParameterError):
        min_rank_distance_exhaustive(spec)


def test_locator_validation():
    ctx = ExtField(2, 4)
    with pytest.raises(ParameterError):
        GabidulinSpec(ctx, (1, ctx.alpha, ctx.add(ctx.alpha, 1)), 1)  # dependent locators
    with pytest.raises(ParameterError):
        GabidulinSpec(ctx, tuple(ctx.alpha_pow(i) for i in range(5)), 2)  # n > m
    with pytest.raises(ParameterError):
        GabidulinSpec(ctx, (1, ctx.alpha), 3)  # k > n


def test_linear_code_spec_validation():
    ctx = ExtField(2, 3)
    with pytest.raises(ParameterError):
        LinearCodeSpec(h=MatQm(ctx, [[1, 1, 0], [1, 1, 0]]))
    with pytest.raises(ParameterError):
        LinearCodeSpec(h=MatQm(ctx, [[1, 0, 0]]), gen=MatQm(ctx, [[1, 1, 1]]))
    # d within the Singleton bound 1 <= d <= n - k + 1 = 3 of a [3, 1] code
    h = MatQm(ctx, [[1, 0, 1], [0, 1, 1]])
    for d in (-7, 0, 4, 99):
        with pytest.raises(ParameterError):
            LinearCodeSpec(h=h, d=d)
    assert LinearCodeSpec(h=h, d=1).d == 1 and LinearCodeSpec(h=h, d=3).d == 3
    # d is an int: a float or a bool is refused, not compared as a number
    for d in (2.5, True):
        with pytest.raises(FormatError):
            LinearCodeSpec(h=h, d=d)


def test_generator_from_parity_check():
    code = gab_code(2, 4, 4, 2)
    gen2 = resolve_code(LinearCodeSpec(h=code.h)).gen
    assert gen2.rows == 2 and gen2 == right_kernel_qm(code.h)
    assert (code.h @ gen2.transpose()).is_zero()


def test_code_spec_roundtrip_gabidulin(f32):
    spec = GabidulinSpec(f32, tuple(f32.alpha_pow(i) for i in range(5)), 2)
    text = code_spec_to_text(spec)
    again = code_spec_from_text(text)
    assert again == spec
    assert code_spec_to_text(again) == text


def test_code_spec_roundtrip_generic(f32):
    code = gab_code(2, 5, 5, 2)
    spec = LinearCodeSpec(h=code.h, d=4)
    text = code_spec_to_text(spec)
    again = code_spec_from_text(text)
    assert again.h == spec.h and again.d == 4
    assert code_spec_to_text(again) == text


def test_code_spec_errors(f32):
    with pytest.raises(FormatError):
        code_spec_from_text("q=2 m=5 f=1,0,1,0,0,1\n")
    with pytest.raises(FormatError):
        code_spec_from_text("q=2 m=5 f=1,0,1,0,0,1\nkind=banana\n")
    with pytest.raises(FormatError):
        code_spec_from_text("q=2 m=5 f=1,0,1,0,0,1\nkind=gabidulin g=1,2 k=x\n")
    with pytest.raises(FormatError):
        code_spec_from_text("q=2 m=5 f=1,0,1,0,0,1\nkind=generic d=4\n")
    with pytest.raises(FormatError, match="malformed d="):
        code_spec_from_text("q=2 m=5 f=1,0,1,0,0,1\nkind=generic d=x H=\n2 5 1 2\n1 1\n")
    # a token without "=" is malformed, as in a field spec
    with pytest.raises(FormatError, match="junk"):
        code_spec_from_text("q=2 m=5 f=1,0,1,0,0,1\nkind=gabidulin junk g=1,2,4,8 k=1 k2\n")
    with pytest.raises(FormatError, match="'H'"):
        code_spec_from_text("q=2 m=5 f=1,0,1,0,0,1\nkind=generic d=2 H\n2 5 1 2\n1 1\n")
    # a repeated key is refused rather than the last one winning
    with pytest.raises(FormatError, match="repeated spec key 'g'"):
        code_spec_from_text("q=2 m=5 f=1,0,1,0,0,1\nkind=gabidulin g=1,2 g=1,2,4,8 k=1\n")
    with pytest.raises(FormatError, match="repeated spec key 'kind'"):
        code_spec_from_text("q=2 m=5 f=1,0,1,0,0,1\nkind=gabidulin kind=gabidulin g=1,2,4,8 k=1\n")
    with pytest.raises(FormatError, match="repeated spec key 'm'"):
        code_spec_from_text("q=2 m=5 m=4 f=1,1,0,0,1\nkind=gabidulin g=1,2,4,8 k=1\n")
    # each line takes only its own keys: q, m, f; kind, g, k; kind, d, H
    for field, kind in [
        ("q=2 m=5 f=1,0,1,0,0,1 colour=red", "kind=gabidulin g=1,2,4,8 k=1"),
        ("q=2 m=5 f=1,0,1,0,0,1", "kind=gabidulin g=1,2,4,8 k=1 foo=bar"),
        ("q=2 m=5 f=1,0,1,0,0,1", "kind=gabidulin g=1,2,4,8 k=1 d=4"),
        ("q=2 m=5 f=1,0,1,0,0,1", "kind=generic d=2 k=1 H="),
    ]:
        with pytest.raises(FormatError, match="unknown spec key"):
            code_spec_from_text(f"{field}\n{kind}\n2 5 1 2\n1 1\n")


def test_rank_weight_bounded_by_hamming_weight(f32):
    # justifies reusing the same Gabidulin codes for the burst decoder:
    # rank weight <= Hamming weight, so d_H >= d = n - k + 1 (and MDS gives =)
    rng = SplitMix64(23)
    for _ in range(50):
        vec = rand_matrix(rng, f32, 1, 5)
        hamming = sum(1 for a in vec.data[0] if a)
        assert rank_q(vec) <= hamming


def test_resolve_code_attaches_generator(f32):
    code = gab_code(2, 5, 5, 2)
    bare = LinearCodeSpec(h=code.h, d=4)
    resolved = resolve_code(bare)
    assert resolved.gen is not None
    assert (resolved.h @ resolved.gen.transpose()).is_zero()


@pytest.mark.parametrize("q, m, n, k", [(2, 4, 4, 1), (2, 5, 5, 2), (3, 4, 4, 2), (5, 3, 3, 1)])
def test_resolve_code_matches_checked_constructor(q, m, n, k):
    # resolve_code adopts the pair it derives unchecked; the checked
    # constructor must accept that pair and build an equal spec
    ctx = ExtField(q, m)
    spec = GabidulinSpec(ctx, tuple(ctx.alpha_pow(i) for i in range(n)), k)
    gen = gabidulin_generator(spec)
    resolved = resolve_code(spec)
    assert resolved == LinearCodeSpec(h=parity_check_from_generator(gen), d=spec.d, gen=gen)
    bare = LinearCodeSpec(h=resolved.h, d=spec.d)
    assert resolve_code(bare) == LinearCodeSpec(h=bare.h, d=bare.d, gen=right_kernel_qm(bare.h))


@pytest.mark.parametrize("m, mrd, d", [(4, True, 3), (4, False, 2), (5, True, 4), (5, False, 3)])
def test_twisted_gabidulin_distance_follows_the_norm_condition(m, mrd, d):
    # A twisted Gabidulin [m, 2] code over F_{3^m} is MRD, d = m - 1, when
    # the norm of its twist differs from (-1)^(2m) = 1.  The twists drawn
    # here that break the condition give a smaller d; the test below checks
    # every twist on m = 4.
    ctx = ExtField(3, m)
    code = twisted_gabidulin(ctx, 2, twist(ctx, 2, mrd, trial_rng(2213, m)))
    assert min_rank_distance_exhaustive(code) == d


def test_twisted_gabidulin_norm_condition_is_necessary():
    # Every nonzero twist of the [4, 2] code over F_{3^4}: d = 3 (MRD)
    # exactly when the norm differs from 1, and d = 2 for the 40 twists of
    # norm 1, so on this shape the condition is necessary as well.
    ctx = ExtField(3, 4)
    for eta in range(1, ctx.order):
        mrd = ctx.pow(eta, (3**4 - 1) // 2) != 1
        assert min_rank_distance_exhaustive(twisted_gabidulin(ctx, 2, eta)) == (3 if mrd else 2), eta
