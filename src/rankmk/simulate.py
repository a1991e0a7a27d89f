"""Random error generation and seeded Monte-Carlo measurement.

Reproducibility contract (language-independent):

* The generator is SplitMix64 (Steele, Lea, Flood; as in Java's
  SplittableRandom).  State s is a 64-bit integer; each draw performs
  s = (s + 0x9E3779B97F4A7C15) mod 2^64 and outputs mix64(s), where
  mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31 (all mod 2^64).
* `below(n)`, for 1 <= n <= 2^64, draws 64-bit words, rejecting
  w >= 2^64 - (2^64 mod n), and returns w mod n.
* Trial i of a run with master seed s uses a fresh SplitMix64 seeded with
  mix64((s + i * 0x9E3779B97F4A7C15) mod 2^64), so trials are independent
  of execution order and may run concurrently.
* Matrices are drawn entry by entry in row-major order; rank-conditioned
  sampling redraws the entire matrix until the condition holds; errors draw
  the support basis B first, then the coefficient matrix A.  (`rand_matrix`
  takes a matrix's entries from one `below_many` loop, which draws the same
  words, with the same rejections, as successive `below` calls.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .codes import GabidulinSpec, LinearCodeSpec, moore_matrix, resolve_code
from .decoder import FailureReason, decode
from .errors import FormatError, ParameterError
from .fields import ExtField, _check_q_m, _check_rabin_size
from .matrix import MatQ, MatQm, rank_q, rank_qm

_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# Two-sided 99% normal quantile, Phi^-1(0.995).
Z99 = 2.5758293035489004

# Give up on rank-conditioned rejection sampling after this many redraws.
MAX_REJECTS = 10_000

# The error distributions of `sample_error`, the first one the default.
MODES = ("uniform", "fullrank")


def mix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _rejection_limit(n: int) -> int:
    """The words below(n) accepts are those under 2^64 - (2^64 mod n)."""
    if not 0 < n <= 1 << 64:
        raise ParameterError("below() needs a bound in [1, 2^64]")
    return _MASK64 + 1 - ((_MASK64 + 1) % n)


class SplitMix64:
    """Counter-based 64-bit generator; see the module docstring for the contract."""

    def __init__(self, seed: int):
        self._s = seed & _MASK64

    def next_u64(self) -> int:
        self._s = (self._s + _GAMMA) & _MASK64
        return mix64(self._s)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection from 64-bit words."""
        limit = _rejection_limit(n)
        while True:
            w = self.next_u64()
            if w < limit:
                return w % n

    def below_many(self, n: int, count: int) -> list[int]:
        """[self.below(n) for _ in range(count)] in one loop: the same words,
        the same rejections and the same final state."""
        limit = _rejection_limit(n)
        s = self._s
        out: list[int] = []
        append = out.append
        while count > 0:
            s = (s + _GAMMA) & _MASK64
            w = mix64(s)
            if w < limit:
                append(w % n)
                count -= 1
        self._s = s
        return out


def trial_rng(master_seed: int, index: int) -> SplitMix64:
    """The per-trial generator prescribed by the reproducibility contract."""
    return SplitMix64(mix64((master_seed + index * _GAMMA) & _MASK64))


# -- sampling -----------------------------------------------------------------


def rand_matrix(rng: SplitMix64, ctx: ExtField, rows: int, cols: int, subfield: bool = False):
    if rows < 0 or cols < 0:
        raise ParameterError(f"matrix shape {rows}x{cols} has a negative side")
    bound = ctx.q if subfield else ctx.order
    cls = MatQ if subfield else MatQm
    flat = rng.below_many(bound, rows * cols)
    return cls._wrap(ctx, [flat[i * cols : (i + 1) * cols] for i in range(rows)], cols)


def sample_full_rank(
    rng: SplitMix64,
    ctx: ExtField,
    rows: int,
    cols: int,
    rank: int,
    subfield: bool = False,
    rank_over: str = "q",
):
    """Uniform matrix of the requested rank, by rejection from uniform.

    `subfield` picks the entry domain (F_q vs F_{q^m}); `rank_over` picks
    which rank is conditioned on ("q" or "qm").  Rejection from the uniform
    distribution preserves uniformity on the conditioned set.
    """
    if rank_over not in ("q", "qm"):
        raise ParameterError(f"rank_over must be 'q' or 'qm', got {rank_over!r}")
    max_rank = min(rows * (1 if subfield else ctx.m) if rank_over == "q" else rows, cols)
    if not 0 <= rank <= max_rank:
        raise ParameterError(f"target rank {rank} infeasible for this shape")
    if rank == 0:  # singleton set; consumes no draws
        return (MatQ if subfield else MatQm).zeros(ctx, rows, cols)
    measure = rank_q if rank_over == "q" else rank_qm
    for _ in range(MAX_REJECTS):
        mat = rand_matrix(rng, ctx, rows, cols, subfield=subfield)
        if measure(mat) == rank:
            return mat
    raise ParameterError(f"no rank-{rank} sample found after {MAX_REJECTS} draws")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ParameterError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")


def sample_error(
    rng: SplitMix64, ctx: ExtField, ell: int, n: int, t: int, mode: str = MODES[0]
) -> tuple[MatQm, MatQm, MatQ]:
    """Error E = A @ B of rank weight exactly t; returns (E, A, B).

    In "uniform" mode, (A, B) are uniform full-F_q-rank factors, which makes
    E uniform over all ell x n matrices of rank weight t (every such E has
    exactly |GL_t(F_q)| factor pairs).  In "fullrank" mode, A is redrawn
    until its extension-field rank is t, so E satisfies the full-rank
    condition by construction.
    """
    _check_mode(mode)
    if t > n or (mode == "uniform" and t > ell * ctx.m) or (mode == "fullrank" and t > ell):
        raise ParameterError(f"rank weight t={t} infeasible for ell={ell}, n={n}")
    basis = sample_full_rank(rng, ctx, t, n, t, subfield=True, rank_over="q")
    coeff = sample_full_rank(rng, ctx, ell, t, t, rank_over="q" if mode == "uniform" else "qm")
    return coeff @ basis, coeff, basis


# -- bounds and counting -------------------------------------------------------


def _check_t_ell(t: int, ell: int) -> None:
    if t < 0 or ell < t:
        raise ParameterError(f"bounds require 0 <= t <= ell, got t={t}, ell={ell}")


def success_lower_bound(t: int, ell: int, m: int, q: int) -> tuple[Fraction, Fraction]:
    """(product, simple) lower bounds on the full-rank-condition probability.

    product = prod_{i=0}^{t-1} (1 - q^(m(i-ell))), simple = 1 - t q^(m(t-1-ell)).
    q and m must be ones that ExtField(q, m) accepts.
    """
    _check_t_ell(t, ell)
    _check_q_m(q, m)
    _check_rabin_size(q, m)
    product = Fraction(1)
    for i in range(t):
        product *= 1 - Fraction(q) ** (m * (i - ell))
    simple = 1 - t * Fraction(q) ** (m * (t - 1 - ell)) if t else Fraction(1)
    return product, simple


def count_matrices_rank(n: int, m: int, t: int, q: int) -> int:
    """Number of n x m matrices of rank t over F_q."""
    if not 0 <= t <= min(n, m):
        raise ParameterError(f"rank t={t} out of range for {n} x {m}")
    out = Fraction(1)
    for i in range(t):
        out *= Fraction((q**m - q**i) * (q**n - q**i), q**t - q**i)
    assert out.denominator == 1
    return out.numerator


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """99 % Wilson score interval (z = Z99) for a binomial proportion.  It
    reaches 0 at 0 successes and 1 at `trials` successes exactly; those ends
    are returned as such, not as the float sums, which can miss them by an ulp."""
    if trials <= 0:
        raise ParameterError("wilson_interval needs at least one trial")
    p = successes / trials
    denom = 1 + Z99 * Z99 / trials
    center = (p + Z99 * Z99 / (2 * trials)) / denom
    half = Z99 * ((p * (1 - p) / trials + Z99 * Z99 / (4 * trials * trials)) ** 0.5) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


# -- Monte-Carlo harness --------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """One run of `run_trials`: its code, interleaving order ell, rank weight
    t, trial count, master seed and error mode (one of MODES).  A run needs
    0 <= t <= ell in either mode, as its success bounds do, and t <= n; the
    config refuses any other before a trial or a bound is computed."""

    code: GabidulinSpec | LinearCodeSpec
    ell: int
    t: int
    trials: int
    seed: int
    mode: str = MODES[0]

    def __post_init__(self):
        for name in ("ell", "t", "trials", "seed"):
            if type(getattr(self, name)) is not int:
                raise FormatError(f"{name} must be an int, got {getattr(self, name)!r}")
        _check_mode(self.mode)
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        n = self.code.n
        if self.t > n:
            raise ParameterError(f"t={self.t} exceeds code length {n}")
        _check_t_ell(self.t, self.ell)


@dataclass(frozen=True)
class SimReport:
    """Tallies of one run.  `bound_applies` says whether t <= d - 2, the
    regime in which the bounds bound the success rate (None when d is
    unknown); `duality_violations` is None when the check was off."""

    config: SimConfig
    successes: int
    support_failures: int
    erasure_failures: int
    verification_failures: int
    miscorrections: int
    bound_product: Fraction
    bound_simple: Fraction
    wilson_low: float
    wilson_high: float
    wall_time_s: float
    duality_violations: int | None = None
    bound_applies: bool | None = None

    @property
    def empirical_rate(self) -> float:
        return self.successes / self.config.trials

    def tallies(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _TALLIES}

    def to_csv(self) -> str:
        cfg = self.config
        ctx = cfg.code.ctx
        rows = [
            ("param", "value"),
            ("q", ctx.q),
            ("m", ctx.m),
            ("n", cfg.code.n),
            ("k", cfg.code.k),
            ("ell", cfg.ell),
            ("t", cfg.t),
            ("trials", cfg.trials),
            ("seed", cfg.seed),
            ("mode", cfg.mode),
        ]
        rows += list(self.tallies().items())
        rows += [
            ("empirical_rate", repr(self.empirical_rate)),
            ("bound_product", repr(float(self.bound_product))),
            ("bound_simple", repr(float(self.bound_simple))),
            ("wilson_low", repr(self.wilson_low)),
            ("wilson_high", repr(self.wilson_high)),
            ("wall_time_s", repr(self.wall_time_s)),
            ("bound_applies", "" if self.bound_applies is None else int(self.bound_applies)),
            ("duality_violations", "" if self.duality_violations is None else self.duality_violations),
        ]
        return "\n".join(f"{k},{v}" for k, v in rows) + "\n"

    def summary_line(self) -> str:
        return (
            f"rate,{self.empirical_rate!r} bound,{float(self.bound_product)!r} "
            f"n,{self.config.trials} seed,{self.config.seed}"
        )


# The CSV tally of each decode result: success (None) and every reason.  A
# success that returns a word other than the sent one is a miscorrection.
_TALLY_OF = {
    None: "successes",
    FailureReason.TOO_MANY_ERRORS: "support_failures",
    FailureReason.SUPPORT_DIMENSION_MISMATCH: "support_failures",
    FailureReason.RANK_DEFICIENT: "erasure_failures",
    FailureReason.VERIFICATION_FAILED: "verification_failures",
}
_TALLIES = ("successes", "support_failures", "erasure_failures", "verification_failures", "miscorrections")


def _spans_kernel(basis: MatQ, x: MatQm) -> bool:
    """Whether the rows of `basis` span the F_q-kernel of x, checked without
    computing a kernel: x @ basis^T = 0 puts the rows inside it (for rows
    over F_q, exactly when ext_expand(x) @ basis^T = 0), and
    rank(basis) = rows = n - rank_q(x) (rank-nullity) makes them fill it."""
    if not (x @ basis.transpose()).is_zero():
        return False
    return rank_q(basis) == basis.rows == x.cols - rank_q(x)


def _trial(cfg: SimConfig, code: LinearCodeSpec, i: int, check_support_duality: bool) -> tuple[str, bool]:
    """Trial i: its tally name, and whether it kept support duality (true
    unless the check is on and a success's basis fails it)."""
    rng = trial_rng(cfg.seed, i)
    sent = rand_matrix(rng, code.ctx, cfg.ell, code.k) @ code.gen
    err, _, _ = sample_error(rng, code.ctx, cfg.ell, code.n, cfg.t, cfg.mode)
    outcome = decode(code.h, sent.add(err), code.d)
    tally = "miscorrections" if outcome.success and outcome.c_hat != sent else _TALLY_OF[outcome.reason]
    checked = check_support_duality and outcome.success
    return tally, not checked or _spans_kernel(outcome.b_hat, outcome.h_sub)


def run_trials(cfg: SimConfig, check_support_duality: bool = False) -> SimReport:
    """Sample, encode, corrupt, decode and tally `cfg.trials` independent trials.

    Identical configs give identical tallies.  With check_support_duality,
    every successful decode also verifies that the recovered support basis
    spans the F_q-kernel of the expanded trailing parity-check rows.
    """
    code = resolve_code(cfg.code)
    product, simple = success_lower_bound(cfg.t, cfg.ell, code.ctx.m, code.ctx.q)
    start = time.perf_counter()
    counts = dict.fromkeys(_TALLIES, 0)
    violations = 0
    for i in range(cfg.trials):
        tally, dual_ok = _trial(cfg, code, i, check_support_duality)
        counts[tally] += 1
        violations += not dual_ok
    low, high = wilson_interval(counts["successes"], cfg.trials)
    return SimReport(
        config=cfg,
        **counts,
        bound_product=product,
        bound_simple=simple,
        wilson_low=low,
        wilson_high=high,
        wall_time_s=time.perf_counter() - start,
        duality_violations=violations if check_support_duality else None,
        bound_applies=None if code.d is None else cfg.t <= code.d - 2,
    )


# -- success condition of the Loidreau-Overbeck decoder ---------------------------


def lo_condition_check(g, k: int, err: MatQm) -> bool:
    """Whether the stacked locator/error Frobenius-power matrix has rank n - 1.

    Stacks g, g^[1], ..., g^[n-t-2] over E, E^[1], ..., E^[n-k-t-1] (entrywise
    q^i powers) and tests extension-field rank n - 1, the exact success
    condition of the Loidreau-Overbeck interleaved decoder; t is the rank
    weight of `err`.  A property test holds that a successful `decode`
    implies it.  Not conversely: with seed 2026 and 600 words per shape, it
    held where `decode` failed on 17 uniform words of [5,1] over F_{2^5}
    (ell = t = 2), 12 of [6,2] over F_{2^6} (ell = t = 2) and 1 of [5,1]
    (ell = 3, t = 2).  At t = d - 2 both agreed on every uniform and fullrank
    word of [4,1]/F_{2^4}, [6,2]/F_{2^6} (t = 3) and [5,2]/F_{3^5}.  It is
    stated on Gabidulin locators g, so not on generic or twisted Gabidulin
    codes, which `decode` also takes."""
    ctx = err.ctx
    g = list(g)
    n = len(g)
    if err.cols != n:
        raise ParameterError("error width does not match locator length")
    t = rank_q(err)
    if n - t - 2 < 0 or n - k - t - 1 < 0:
        raise ParameterError(f"t={t} too large for the stacked-rank condition (n={n}, k={k})")
    rows = list(moore_matrix(ctx, g, n - t - 1).data)
    for i in range(n - k - t):
        rows.extend([[ctx.frobenius(a, i) for a in row] for row in err.data])
    return rank_qm(MatQm._wrap(ctx, rows, n)) == n - 1
