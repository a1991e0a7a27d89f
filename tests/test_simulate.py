"""RNG contract, sampling distributions, bounds, counting, Monte-Carlo harness."""

import itertools
import time
from fractions import Fraction

import pytest

from conftest import alpha_mat, gab_code, planted_word
from rankmk.codes import GabidulinSpec, LinearCodeSpec
from rankmk import simulate
from rankmk.decoder import DecodeOutcome, FailureReason, decode
from rankmk.errors import FormatError, ParameterError
from rankmk.fields import ExtField
from rankmk.matrix import MatQ, MatQm, ext_expand, rank_q, rank_qm
from rankmk.simulate import (
    SimConfig,
    SplitMix64,
    _spans_kernel,
    count_matrices_rank,
    lo_condition_check,
    mix64,
    rand_matrix,
    run_trials,
    sample_error,
    sample_full_rank,
    success_lower_bound,
    trial_rng,
    wilson_interval,
)

# chi-squared critical value, 8 degrees of freedom, alpha = 0.001
CHI2_8_001 = 26.124


def test_splitmix_reference_vectors():
    # first outputs for seed 0, as published for SplitMix64
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_determinism_and_below():
    a, b = SplitMix64(99), SplitMix64(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    g = SplitMix64(7)
    draws = [g.below(6) for _ in range(1000)]
    assert set(draws) <= set(range(6))
    with pytest.raises(ParameterError):
        g.below(0)
    # past 2^64 the limit 2^64 - (2^64 mod n) is 0, so no word would be accepted
    with pytest.raises(ParameterError):
        g.below(2**64 + 1)
    assert SplitMix64(7).below(2**64) == SplitMix64(7).next_u64()


def test_trial_rng_contract():
    # per-trial seed is mix64(master + i * GAMMA)
    master, i = 424242, 17
    expected = SplitMix64(mix64((master + i * 0x9E3779B97F4A7C15) % 2**64))
    got = trial_rng(master, i)
    assert [got.next_u64() for _ in range(4)] == [expected.next_u64() for _ in range(4)]


_GAMMA_INVERSE = pow(0x9E3779B97F4A7C15, -1, 2**64)


def _words_drawn(before: int, after: int) -> int:
    """How many 64-bit words a SplitMix64 drew to go from state before to after."""
    return (after - before) * _GAMMA_INVERSE % 2**64


@pytest.mark.parametrize("bound", [2, 3, 16, 81, 3 * 2**62])
def test_below_many_is_successive_below(bound):
    batched, single = SplitMix64(bound), SplitMix64(bound)
    start = batched._s
    assert batched.below_many(bound, 400) == [single.below(bound) for _ in range(400)]
    assert batched._s == single._s
    # 3 * 2^62 rejects every word at or above it, about one in four
    rejected = _words_drawn(start, batched._s) - 400
    assert rejected > 50 if bound == 3 * 2**62 else rejected == 0
    assert batched.below_many(bound, 0) == [] and batched._s == single._s
    with pytest.raises(ParameterError):
        batched.below_many(0, 1)


# An entry bound of 2, 3, 16 and 81: the subfields and the fields F_16, F_81.
DRAW_BOUNDS = {2: ((2, 4), True), 3: ((3, 4), True), 16: ((2, 4), False), 81: ((3, 4), False)}


@pytest.mark.parametrize("bound", DRAW_BOUNDS)
def test_rand_matrix_draws_in_row_major_order(bound):
    (q, m), subfield = DRAW_BOUNDS[bound]
    ctx = ExtField(q, m)
    drawn, single = SplitMix64(bound), SplitMix64(bound)
    for rows, cols in ((3, 4), (1, 7), (3, 0), (0, 5), (4, 1)):
        before = drawn._s
        mat = rand_matrix(drawn, ctx, rows, cols, subfield=subfield)
        assert type(mat) is (MatQ if subfield else MatQm)
        assert (mat.rows, mat.cols) == (rows, cols)
        assert mat.data == [[single.below(bound) for _ in range(cols)] for _ in range(rows)]
        assert drawn._s == single._s
        assert _words_drawn(before, drawn._s) >= rows * cols
        if rows * cols == 0:
            assert drawn._s == before
    for rows, cols in ((-1, -1), (2, -1), (-1, 3)):
        with pytest.raises(ParameterError, match="negative side"):
            rand_matrix(drawn, ctx, rows, cols)


def test_run_trials_on_a_dimension_zero_code():
    # [3,0] over F_16: each trial's message is ell x 0 and draws no word
    code = LinearCodeSpec(MatQm.identity(ExtField(2, 4), 3))
    uniform = run_trials(SimConfig(code, 3, 2, 200, 11, "uniform")).tallies()
    fullrank = run_trials(SimConfig(code, 3, 2, 200, 11, "fullrank")).tallies()
    assert (uniform["successes"], uniform["support_failures"]) == (199, 1)
    assert (fullrank["successes"], fullrank["support_failures"]) == (200, 0)
    assert sum(uniform.values()) == sum(fullrank.values()) == 200


def test_sample_full_rank_trivials():
    ctx = ExtField(2, 3)
    rng = SplitMix64(1)
    assert sample_full_rank(rng, ctx, 2, 2, 0).is_zero()
    one = sample_full_rank(rng, ctx, 2, 2, 2, subfield=True)
    assert rank_q(one) == 2


def test_sample_full_rank_uniform_over_rank1():
    # 2x2 binary matrices of rank 1: exactly 9, hit uniformly
    ctx = ExtField(2, 1)
    rng = SplitMix64(2)
    n_draws = 20000
    counts = {}
    for _ in range(n_draws):
        m = sample_full_rank(rng, ctx, 2, 2, 1, subfield=True)
        key = tuple(tuple(r) for r in m.data)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 9 == count_matrices_rank(2, 2, 1, 2)
    expected = n_draws / 9
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_8_001


def test_sample_full_rank_guards(monkeypatch):
    ctx = ExtField(2, 3)
    rng = SplitMix64(3)
    with pytest.raises(ParameterError):
        sample_full_rank(rng, ctx, 2, 2, 3)
    with pytest.raises(ParameterError):
        sample_full_rank(rng, ctx, 2, 2, 1, rank_over="bogus")
    draws = []

    def zeros(rng, ctx, rows, cols, subfield=False):
        draws.append(1)
        return MatQm.zeros(ctx, rows, cols)

    monkeypatch.setattr(simulate, "rand_matrix", zeros)
    with pytest.raises(ParameterError, match="no rank-1 sample"):
        sample_full_rank(rng, ctx, 2, 2, 1)
    assert len(draws) == simulate.MAX_REJECTS


def test_sample_error_trivial_and_ranks():
    ctx = ExtField(2, 3)
    rng = SplitMix64(4)
    err, a, b = sample_error(rng, ctx, 2, 3, 0)
    assert err.is_zero() and a.cols == 0 and b.rows == 0
    for t in (1, 2):
        for mode in ("uniform", "fullrank"):
            err, a, b = sample_error(rng, ctx, 2, 3, t, mode)
            assert rank_q(err) == t
            assert err == a @ MatQm(ctx, b.data, b.cols)
            if mode == "fullrank":
                assert rank_qm(err) == t
    with pytest.raises(ParameterError):
        sample_error(rng, ctx, 2, 3, 4)
    with pytest.raises(ParameterError):
        sample_error(rng, ctx, 1, 3, 2, "fullrank")
    with pytest.raises(ParameterError, match="mode must be"):
        sample_error(rng, ctx, 2, 3, 1, "sometimes")


def test_sample_error_fullrank_frequency_meets_bound():
    # empirical frequency of the full-rank condition stays above the product
    # bound minus 3 sigma (q=2, m=3, ell=2, n=3, t=1: bound = 1 - 2^-6)
    ctx = ExtField(2, 3)
    rng = SplitMix64(5)
    n_draws = 20000
    hits = sum(
        rank_qm(sample_error(rng, ctx, 2, 3, 1, "uniform")[0]) == 1 for _ in range(n_draws)
    )
    bound = float(success_lower_bound(1, 2, 3, 2)[0])
    assert bound == 1 - 2**-6
    sigma = (bound * (1 - bound) / n_draws) ** 0.5
    assert hits / n_draws >= bound - 3 * sigma


def test_worked_example_error_factors(f32, worked):
    err = alpha_mat(f32, [[3, 1, 3, 1, 1], [1, 2, 1, 2, 2]])
    a, b = worked["A"], worked["B"]
    assert a @ MatQm(f32, b.data, b.cols) == err
    assert rank_q(err) == rank_qm(err) == 2


def test_success_lower_bound_values():
    assert success_lower_bound(0, 0, 4, 2) == (Fraction(1), Fraction(1))
    assert success_lower_bound(0, 10**12, 1, 2) == (1, 1)
    product, simple = success_lower_bound(2, 2, 4, 2)
    assert product == Fraction(255, 256) * Fraction(15, 16) == Fraction(3825, 4096)
    assert simple == Fraction(7, 8)
    assert product >= simple
    # monotone in the interleaving order
    prev = 0
    for ell in range(2, 7):
        value = success_lower_bound(2, ell, 4, 2)[1]
        assert value > prev
        prev = value
    with pytest.raises(ParameterError):
        success_lower_bound(3, 2, 4, 2)


def test_count_matrices_rank_small():
    assert count_matrices_rank(2, 2, 1, 2) == 9
    assert count_matrices_rank(5, 7, 0, 3) == 1
    assert sum(count_matrices_rank(3, 3, t, 2) for t in range(4)) == 2**9
    with pytest.raises(ParameterError):
        count_matrices_rank(2, 2, 3, 2)


def test_count_matrices_rank_matches_enumeration():
    q, n, m = 2, 3, 2
    tallies = [0] * (min(n, m) + 1)
    for entries in itertools.product(range(q), repeat=n * m):
        mat = MatQ(ExtField(q, 1), [list(entries[i * m : (i + 1) * m]) for i in range(n)], m)
        tallies[rank_q(mat)] += 1
    for t, count in enumerate(tallies):
        assert count == count_matrices_rank(n, m, t, q)


def test_wilson_interval():
    low, high = wilson_interval(90, 100)
    assert 0 < low < 0.9 < high < 1
    assert wilson_interval(100, 100)[1] == 1.0
    assert wilson_interval(0, 100)[0] == 0.0
    with pytest.raises(ParameterError):
        wilson_interval(0, 0)


def test_wilson_interval_is_exact_at_the_ends():
    # The float sums land an ulp inside [0, 1] for many counts (first at 7
    # and 13 trials); the interval must still reach 1 on all successes and
    # 0 on none.
    for trials in range(1, 400):
        assert wilson_interval(trials, trials)[1] == 1.0, trials
        assert wilson_interval(0, trials)[0] == 0.0, trials


def test_run_trials_deterministic():
    code = gab_code(2, 4, 4, 1)
    cfg = SimConfig(code=code, ell=2, t=2, trials=300, seed=123, mode="uniform")
    r1, r2 = run_trials(cfg), run_trials(cfg)
    assert r1.tallies() == r2.tallies()
    assert sum(r1.tallies().values()) == 300


def test_run_trials_zero_errors():
    code = gab_code(2, 4, 4, 1)
    cfg = SimConfig(code=code, ell=2, t=0, trials=50, seed=1, mode="uniform")
    assert run_trials(cfg).empirical_rate == 1.0


def test_run_trials_fullrank_within_guarantee_never_fails():
    code = gab_code(2, 5, 5, 2)  # d = 4, t = 2 = d - 2
    cfg = SimConfig(code=code, ell=3, t=2, trials=400, seed=9, mode="fullrank")
    report = run_trials(cfg, check_support_duality=True)
    assert report.successes == 400
    assert report.miscorrections == 0
    assert report.duality_violations == 0


@pytest.mark.parametrize("ell", [8, 64])
def test_run_trials_at_high_order(ell):
    # The paper's regime, ell >> t: with t = 2 = d - 2 on [4, 1] over F_{2^4},
    # a trial fails only without the full-rank condition, whose probability
    # the product bound caps; no failure of another kind, no miscorrection.
    cfg = SimConfig(code=gab_code(2, 4, 4, 1), ell=ell, t=2, trials=200, seed=2212, mode="uniform")
    report = run_trials(cfg, check_support_duality=True)
    assert report.bound_applies is True
    assert report.miscorrections == report.erasure_failures == report.verification_failures == 0
    assert report.duality_violations == 0
    assert report.wilson_high >= float(report.bound_product)


def test_support_duality_check_rejects_wrong_bases():
    code = gab_code(3, 4, 4, 1)
    ctx = code.ctx
    _, _, received = planted_word(code, 2, 2, 3)
    out = decode(code.h, received, code.d)
    assert out.success and out.b_hat.rows == 2
    b1, b2 = out.b_hat.data
    outside = next(
        e for e in MatQ.identity(ctx, 4).data
        if not (out.h_sub @ MatQ(ctx, [e]).transpose()).is_zero()
    )
    both = [ctx.add(a, b) for a, b in zip(b1, b2)]
    for x in (out.h_sub, ext_expand(out.h_sub)):  # as run_trials passes it, and expanded
        assert _spans_kernel(out.b_hat, x)
        assert _spans_kernel(MatQ(ctx, [both, b2]), x)  # another basis of the same space
        assert not _spans_kernel(MatQ(ctx, [b1]), x)  # too small
        assert not _spans_kernel(MatQ(ctx, [b1, b1]), x)  # dependent rows
        assert not _spans_kernel(MatQ(ctx, [b1, outside]), x)  # leaves the kernel
        assert not _spans_kernel(MatQ(ctx, [b1, b2, outside]), x)


def test_run_trials_gabidulin_spec_accepted():
    ctx = ExtField(2, 4)
    spec = GabidulinSpec(ctx, tuple(ctx.alpha_pow(i) for i in range(4)), 1)
    cfg = SimConfig(code=spec, ell=2, t=1, trials=50, seed=5, mode="uniform")
    report = run_trials(cfg)
    assert sum(report.tallies().values()) == 50
    assert report.empirical_rate > 0.9


def test_sim_config_validation():
    code = gab_code(2, 4, 4, 1)
    with pytest.raises(ParameterError):
        SimConfig(code=code, ell=2, t=5, trials=10, seed=0)
    for mode in ("uniform", "fullrank"):
        with pytest.raises(ParameterError, match=r"bounds require 0 <= t <= ell, got t=2, ell=1"):
            SimConfig(code=code, ell=1, t=2, trials=10, seed=0, mode=mode)
    with pytest.raises(ParameterError):
        SimConfig(code=code, ell=2, t=1, trials=0, seed=0)
    with pytest.raises(ParameterError):
        SimConfig(code=code, ell=2, t=1, trials=10, seed=0, mode="sometimes")
    good = dict(ell=2, t=1, trials=10, seed=0)
    for name, bad in itertools.product(good, (1.0, 1.5, True)):
        with pytest.raises(FormatError):
            SimConfig(code=code, **{**good, name: bad})


# The CSV row of each decode failure reason.
ROW_OF_REASON = {
    FailureReason.TOO_MANY_ERRORS: "support_failures",
    FailureReason.SUPPORT_DIMENSION_MISMATCH: "support_failures",
    FailureReason.RANK_DEFICIENT: "erasure_failures",
    FailureReason.VERIFICATION_FAILED: "verification_failures",
}


def test_tally_table_maps_every_reason():
    # an unmapped reason would otherwise raise only when a trial reaches it
    assert set(simulate._TALLY_OF) == set(FailureReason) | {None}
    assert set(ROW_OF_REASON) == set(FailureReason)


@pytest.mark.parametrize(
    "reason, t, row",
    [(None, 0, "successes"), (None, 2, "miscorrections")] + [(r, 2, row) for r, row in ROW_OF_REASON.items()],
)
def test_run_trials_counts_each_outcome_in_its_row(monkeypatch, reason, t, row):
    # a stub decoder reaches the outcomes no seeded run does; its "success"
    # returns the received word, which is the sent word only when t = 0
    def stub(h, received, d=None):
        if reason is None:
            return DecodeOutcome(None, t, c_hat=received)
        return DecodeOutcome(reason, t, detail="stub")

    monkeypatch.setattr(simulate, "decode", stub)
    report = run_trials(SimConfig(code=gab_code(2, 4, 4, 1), ell=2, t=t, trials=3, seed=0))
    expected = {f"{name},{3 if name == row else 0}" for name in report.tallies()}
    assert expected <= set(report.to_csv().splitlines())


def test_run_trials_rejects_t_above_ell_before_any_trial():
    # uniform errors admit t > ell, but a run's success bounds need t <= ell
    code = gab_code(2, 4, 4, 1)
    start = time.perf_counter()
    with pytest.raises(ParameterError):
        run_trials(SimConfig(code=code, ell=2, t=3, trials=20_000, seed=1, mode="uniform"))
    assert time.perf_counter() - start < 1.0


def test_report_csv_and_summary():
    code = gab_code(2, 4, 4, 1)
    cfg = SimConfig(code=code, ell=2, t=1, trials=20, seed=3, mode="fullrank")
    report = run_trials(cfg)
    csv = report.to_csv()
    assert csv.startswith("param,value\n")
    for key in ("successes", "miscorrections", "bound_product", "wilson_low", "seed"):
        assert any(line.startswith(key + ",") for line in csv.splitlines())
    summary = report.summary_line()
    assert summary.startswith("rate,") and " bound," in summary and " n,20 seed,3" in summary


def test_report_marks_where_the_bound_applies():
    # [5, 2] over F_{2^5} has d = 4: t = 3 > d - 2 is outside the bound's regime
    code = gab_code(2, 5, 5, 2)
    past = run_trials(SimConfig(code=code, ell=3, t=3, trials=300, seed=4))
    assert past.bound_applies is False and past.duality_violations is None
    lines = past.to_csv().splitlines()
    assert "bound_applies,0" in lines and "duality_violations," in lines
    assert past.successes == 0 and float(past.bound_product) > 0.9
    checked = run_trials(SimConfig(code=code, ell=3, t=3, trials=300, seed=4), check_support_duality=True)
    assert "duality_violations,0" in checked.to_csv().splitlines()
    inside = run_trials(SimConfig(code=code, ell=3, t=2, trials=300, seed=4), check_support_duality=True)
    assert inside.bound_applies is True
    assert {"bound_applies,1", "duality_violations,0"} <= set(inside.to_csv().splitlines())
    unknown_d = run_trials(SimConfig(code=LinearCodeSpec(code.h), ell=3, t=2, trials=20, seed=4))
    assert unknown_d.bound_applies is None and "bound_applies," in unknown_d.to_csv().splitlines()


# -- Loidreau-Overbeck success condition ----------------------------------------------


def test_lo_condition_zero_error():
    ctx = ExtField(2, 8)
    g = tuple(ctx.alpha_pow(i) for i in range(8))
    err = MatQm.zeros(ctx, 2, 8)
    assert lo_condition_check(g, 2, err)


def test_lo_condition_random_fullrank_errors():
    ctx = ExtField(2, 8)
    g = tuple(ctx.alpha_pow(i) for i in range(8))
    for seed in range(20):
        rng = trial_rng(seed, 0)
        err, _, _ = sample_error(rng, ctx, 2, 8, 2, "fullrank")
        assert lo_condition_check(g, 2, err)


def test_lo_condition_guards():
    ctx = ExtField(2, 4)
    g = tuple(ctx.alpha_pow(i) for i in range(4))
    with pytest.raises(ParameterError):
        lo_condition_check(g, 1, MatQm.zeros(ctx, 2, 3))  # width mismatch
    rng = trial_rng(1, 0)
    err, _, _ = sample_error(rng, ctx, 3, 4, 3, "fullrank")
    with pytest.raises(ParameterError):
        lo_condition_check(g, 1, err)  # n - t - 2 < 0
