"""Bit-identity of what the package computes, pinned as SHA-256 digests.

Each test hashes one section of observable results, built from seeded
inputs, and compares it with the digest the code gave when the test was
written:

- every `DecodeOutcome` attribute of `decode` and `mk_hamming_decode`, on
  rank errors and column bursts over three Gabidulin codes and one seeded
  generic code, with ell in {1, 2, 3} and t = 0 ... n - k;
- `rank_q` and `rank_qm` of wide, square and tall matrices of every rank,
  over F_16 and F_81;
- `run_trials` tallies, with the support-duality check, on two configs;
- `run_demo`'s stdout and return code, verbose and quiet, on the pass, the
  decoder's refusal and a tamper that decodes to another word;
- every `DecodeOutcome` attribute at high order, ell in {1, 2, 8, 32} with
  t <= ell, of `decode`, `mk_hamming_decode` and `_decode` with a support
  step that returns the first t_hat identity rows, on Gabidulin codes over
  F_16, F_81 and F_64: this reaches all five outcome kinds.

A change meant to keep these results must leave every digest as it is.  A
change that moves one must say why and write the new digest.  On a failure,
`_records` of the section shows the values behind the digest.
"""

import contextlib
import hashlib
import io

from conftest import column_burst, f8_code, gab_code

from rankmk.decoder import _decode, decode, mk_hamming_decode
from rankmk.demo import run_demo
from rankmk.fields import ExtField
from rankmk.matrix import MatQ, rank_q, rank_qm
from rankmk.simulate import SimConfig, rand_matrix, run_trials, sample_error, trial_rng

DIGESTS = {
    "outcomes": "56f3b3e23c12cfa1be56f7aa772e822e6c0f8242fbba1e5571b51a4637d6e7ae",
    "ranks": "7bcf095fe54b9ec92911b8b1b222a11de9ee7bf76bf2408338a2dbf4d3f8b957",
    "tallies": "e8754871f0e580f7e155b6ecd18480e4eff909ce8218a8fdb7533b4e838876f6",
    "demo": "11d2447b9f9e42a075208b5ce41e0576cec63d441c582a713af4fe586944a7cb",
    "high_order": "aff43c10f2837d3c29e32a634f4378b7d3eb3582e6fe6633729c2ce1c814a2ad",
}

OUTCOME_ATTRS = ("success", "reason", "t_hat", "c_hat", "a_hat", "b_hat", "h_sub", "beyond_guarantee", "detail")


def _digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _mat(mat):
    return None if mat is None else (type(mat).__name__, mat.rows, mat.cols, mat.data)


def _outcome(out) -> tuple:
    values = {name: getattr(out, name) for name in OUTCOME_ATTRS}
    values["reason"] = None if out.reason is None else out.reason.value
    for name in ("c_hat", "a_hat", "b_hat", "h_sub"):
        values[name] = _mat(values[name])
    return tuple(values.items())


def _outcome_records() -> list:
    rng = trial_rng(2301, 0)
    codes = [(c.h, c.gen, c.d) for c in (gab_code(2, 4, 4, 1), gab_code(3, 4, 4, 1), gab_code(2, 5, 5, 2))]
    codes.append((*f8_code(rng), None))  # not MRD: both decoders reach RANK_DEFICIENT
    records = []
    for h, gen, d in codes:
        ctx, n, k = h.ctx, h.cols, gen.rows
        for ell in (1, 2, 3):
            for t in range(n - k + 1):
                for _ in range(3):
                    word = rand_matrix(rng, ctx, ell, k) @ gen
                    rank_err, _, _ = sample_error(rng, ctx, ell, n, t)
                    for err in (rank_err, column_burst(rng, ctx, ell, n, t)):
                        received = word.add(err)
                        records.append(_outcome(decode(h, received, d)))
                        records.append(_outcome(mk_hamming_decode(h, received, d)))
    return records


def _rank_records() -> list:
    rng = trial_rng(2302, 0)
    records = []
    for ctx in (ExtField(2, 4), ExtField(3, 4)):
        for rows, cols in ((2, 5), (3, 6), (4, 4), (5, 2), (7, 3)):
            for inner in range(min(rows, cols) + 1):
                for subfield in (False, True):
                    left = rand_matrix(rng, ctx, rows, inner, subfield=subfield)
                    mat = left @ rand_matrix(rng, ctx, inner, cols, subfield=subfield)
                    records.append((ctx.q, rows, cols, inner, subfield, rank_q(mat), rank_qm(mat)))
    return records


def _tally_records() -> list:
    configs = [
        SimConfig(code=gab_code(2, 4, 4, 1), ell=2, t=2, trials=300, seed=2303),
        SimConfig(code=gab_code(3, 4, 4, 1), ell=3, t=2, trials=200, seed=2304, mode="fullrank"),
    ]
    records = []
    for cfg in configs:
        csv = run_trials(cfg, check_support_duality=True).to_csv()
        records.append([line for line in csv.splitlines() if not line.startswith("wall_time_s,")])
    return records


def _demo_records() -> list:
    records = []
    # (0, 0, 1): the decoder refuses; (0, 0, 7): it decodes to another word
    for tamper in (None, (0, 0, 1), (0, 0, 7)):
        for quiet in (False, True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_demo(quiet=quiet, tamper=tamper)
            records.append((tamper, quiet, code, out.getvalue()))
    return records


def _identity_support(h_sub, t_hat):
    """The first t_hat identity rows, whether or not they lie in ker(H_sub)."""
    n = h_sub.cols
    return MatQ(h_sub.ctx, [[int(j == i) for j in range(n)] for i in range(t_hat)], n)


def _high_order_records() -> list:
    rng = trial_rng(2401, 0)
    codes = [gab_code(2, 4, 4, 1), gab_code(2, 4, 4, 2), gab_code(3, 4, 4, 1)]
    codes += [gab_code(3, 4, 4, 2), gab_code(2, 6, 6, 2), gab_code(2, 6, 6, 3)]
    records = []
    for code in codes:
        h, gen, d = code.h, code.gen, code.d
        ctx, n, k = h.ctx, h.cols, gen.rows
        for ell in (1, 2, 8, 32):
            for t in range(min(ell, n - k) + 1):
                for _ in range(3):
                    word = rand_matrix(rng, ctx, ell, k) @ gen
                    rank_err, _, _ = sample_error(rng, ctx, ell, n, t)
                    for err in (rank_err, column_burst(rng, ctx, ell, n, t)):
                        received = word.add(err)
                        records.append(_outcome(decode(h, received, d)))
                        records.append(_outcome(mk_hamming_decode(h, received, d)))
                        records.append(_outcome(_decode(h, received, d, _identity_support)))
    return records


def test_decode_outcomes_are_unchanged():
    assert _digest(_outcome_records()) == DIGESTS["outcomes"]


def test_ranks_are_unchanged():
    assert _digest(_rank_records()) == DIGESTS["ranks"]


def test_run_trials_tallies_are_unchanged():
    assert _digest(_tally_records()) == DIGESTS["tallies"]


def test_demo_output_is_unchanged():
    assert _digest(_demo_records()) == DIGESTS["demo"]


def test_high_order_outcomes_are_unchanged():
    assert _digest(_high_order_records()) == DIGESTS["high_order"]
