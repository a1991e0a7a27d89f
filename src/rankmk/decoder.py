"""Syndrome decoding of high-order interleaved codes.

Both decoders run one pipeline.  The forward pass over the syndrome S, with
the row transform P carried onto H, gives P @ S = [R_top; 0] and
P @ H = [T; H_sub].  Each metric's support step, (H_sub, t_hat) -> basis of
B, is the one place where they differ.  It reads B off H_sub, so
H_sub @ B^T = 0 and the erasure system reduces to the t_hat x t_hat system
(T @ B^T) @ A^T = R_top.  A solution A has rank t_hat, as R_top has, so A @ B
has weight t_hat in either metric.  The one check left is that premise: after
a solve, H_sub @ B^T = 0 iff H @ C_hat^T = 0, as P and T @ B^T are invertible.

`decode` is the rank-metric decoder: the support is the F_q-kernel of the
coordinate-expanded trailing rows.  It is guaranteed to return the
transmitted codeword whenever t <= d - 2 errors occurred, the interleaving
order is at least t, and the error matrix has full rank over the extension
field.  `mk_hamming_decode` is the classic Metzner and Kapturowski (1990)
decoder for column-burst errors: the support is the set of all-zero
columns of the trailing rows.

The decoder only ever reads the parity-check matrix, never a generator.
All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ParameterError, RankDeficientError
from .matrix import (
    MatQ,
    MatQm,
    _forward_carry,
    _result_type,
    rank_q,
    rank_qm,
    right_kernel_q,
    solve_right,
)


class FailureReason(enum.Enum):
    """Why a decode failed.  Both decoders can reach TOO_MANY_ERRORS,
    SUPPORT_DIMENSION_MISMATCH and RANK_DEFICIENT; the last needs a nonzero
    codeword of weight <= t_hat < n - k, so it never occurs on an MRD code.
    A square erasure system of full rank always has a solution, so no
    reason is needed for an inconsistent one.  VERIFICATION_FAILED means
    H_sub @ B^T != 0 after a solve, so H @ C_hat^T != 0: a faulty support."""

    TOO_MANY_ERRORS = "too_many_errors"
    SUPPORT_DIMENSION_MISMATCH = "support_dimension_mismatch"
    RANK_DEFICIENT = "rank_deficient"
    VERIFICATION_FAILED = "verification_failed"


class DecodeFailure(Exception):
    """Raised by the pipeline stages; `decode` converts it to an outcome."""

    def __init__(self, reason: FailureReason, detail: str = ""):
        super().__init__(detail or reason.value)
        self.reason = reason


@dataclass(frozen=True)
class DecodeOutcome:
    """What a decode found.  `reason` is None exactly on a success, which
    alone carries the decoded word, its factors and the trailing rows;
    `detail` says in words why a decode failed and is empty on success."""

    reason: FailureReason | None
    t_hat: int
    c_hat: MatQm | None = None
    a_hat: MatQm | None = None
    b_hat: MatQ | None = None
    h_sub: MatQm | None = None
    beyond_guarantee: bool = False
    detail: str = ""

    @property
    def success(self) -> bool:
        return self.reason is None


def syndrome(h: MatQm, received: MatQm) -> MatQm:
    """S = H @ R^T; equals H @ E^T whenever R is a codeword plus E."""
    return h @ received.transpose()


def compute_hsub(h: MatQm, synd: MatQm) -> tuple[int, MatQm, MatQm, MatQm]:
    """Bring the syndrome S to row echelon form, carrying the row operations
    P onto H, and return (t_hat, H_sub, R_top, T): t_hat is the rank of S,
    P @ S is [R_top; 0] and P @ H is [T; H_sub], with t_hat rows in R_top
    and T.  It raises TOO_MANY_ERRORS when t_hat >= n - k leaves no zero row.

    This is the forward pass of `rref_carry(synd, h)` alone: H_sub is the
    same, and R_top and T are its RREF blocks times one invertible
    t_hat x t_hat matrix, which leaves the erasure solve's answer as it is."""
    work, pivots = _forward_carry(synd, h)
    t_hat = len(pivots)
    if t_hat >= h.rows:
        raise DecodeFailure(FailureReason.TOO_MANY_ERRORS, f"syndrome rank {t_hat} leaves no zero rows")
    ctx, s, carried = h.ctx, synd.cols, _result_type(synd, h)
    h_sub, top = (carried._wrap(ctx, [r[s:] for r in rows], h.cols) for rows in (work[t_hat:], work[:t_hat]))
    return t_hat, h_sub, type(synd)._wrap(ctx, [r[:s] for r in work[:t_hat]], s), top


def recover_support(h_sub: MatQm, t_hat: int) -> MatQ:
    """Rank support of the error: the canonical basis of the F_q-kernel of
    the expanded trailing rows, which must have dimension t_hat."""
    basis = right_kernel_q(h_sub)
    if basis.rows != t_hat:
        raise DecodeFailure(
            FailureReason.SUPPORT_DIMENSION_MISMATCH,
            f"support dimension {basis.rows} != syndrome rank {t_hat}",
        )
    return basis


def erasure_decode(top: MatQm, r_top: MatQm, basis: MatQ) -> MatQm:
    """A solving the square system (T @ B^T) @ A^T = R_top: T and R_top are
    the leading t rows of P @ H and P @ S (`compute_hsub`), B a support
    basis of t rows.  It is the paper's (H @ B^T) @ A^T = S times the
    invertible P, whose trailing rows read 0 = 0 as H_sub @ B^T = 0; the
    decoders check that premise after the solve.  Raises
    DecodeFailure(RANK_DEFICIENT) if T @ B^T is singular and FormatError if
    it is not square."""
    try:
        return solve_right(top @ basis.transpose(), r_top)
    except RankDeficientError as exc:
        raise DecodeFailure(FailureReason.RANK_DEFICIENT, str(exc)) from exc


def _burst_support(h_sub: MatQm, t_hat: int) -> MatQ:
    """Burst support: the all-zero columns of the trailing rows, as identity rows."""
    positions = [j for j, col in enumerate(zip(*h_sub.data)) if not any(col)]
    if len(positions) != t_hat:
        raise DecodeFailure(
            FailureReason.SUPPORT_DIMENSION_MISMATCH,
            f"{len(positions)} zero columns != syndrome rank {t_hat}",
        )
    n = h_sub.cols
    return MatQ._wrap(h_sub.ctx, [[int(j == p) for j in range(n)] for p in positions], n)


def _decode(h: MatQm, received: MatQm, d: int | None, recover) -> DecodeOutcome:
    """The pipeline shared by both metrics: syndrome, `compute_hsub`, the
    metric's support step `recover(h_sub, t_hat)`, which returns the support
    basis B or raises DecodeFailure, and the square erasure solve on the
    leading rows; then success requires H_sub @ B^T = 0 (H @ C_hat^T = 0).
    A failed outcome keeps the failure's detail text, naming the check.
    """
    if h.cols != received.cols:
        raise ParameterError(
            f"parity-check has {h.cols} columns but received word has {received.cols}"
        )
    synd = syndrome(h, received)
    try:
        t_hat, h_sub, r_top, top = compute_hsub(h, synd)
        basis = recover(h_sub, t_hat)
        a_hat = erasure_decode(top, r_top, basis)
    except DecodeFailure as failure:
        # Recomputed even where compute_hsub found t_hat: rankbench times this
        # rank_qm, a forward pass, as the failure path's own stage
        # (rankbench/NOTES.md).
        reason, detail, t_hat = failure.reason, str(failure), rank_qm(synd)
    else:
        reason, detail = None, ""
        if not (h_sub @ basis.transpose()).is_zero():
            reason, detail = FailureReason.VERIFICATION_FAILED, "H @ C_hat^T != 0"
    beyond = d is not None and t_hat > d - 2
    if reason is not None:
        return DecodeOutcome(reason, t_hat, beyond_guarantee=beyond, detail=detail)
    return DecodeOutcome(None, t_hat, received.sub(a_hat @ basis), a_hat, basis, h_sub, beyond)


def decode(h: MatQm, received: MatQm, d: int | None = None) -> DecodeOutcome:
    """Rank-metric decoding; never returns success with a non-codeword.

    A success with t_hat certifies c_hat as the unique codeword within rank
    distance t_hat of `received`, at distance exactly t_hat, so a
    miscorrection (a success with another codeword than the one sent) has
    t_hat < t.

    The minimum rank distance `d`, when known, only sets the
    beyond_guarantee flag (t_hat > d - 2); it is not used in computation.
    """
    return _decode(h, received, d, recover_support)


def beyond_d2_condition(h: MatQm, basis: MatQ) -> bool:
    """Whether the recovered support stays identifiable past the t <= d-2 regime.

    True iff appending any subfield row b outside the span of `basis` raises
    the extension-field rank of H @ [B^T | b^T] to t + 1; equivalently,
    C = H B^T has rank t and the space {b in F_q^n : H b^T in colspan(C)}
    has dimension exactly t.  With P echelonizing C, H b^T is in colspan(C)
    iff P[t:] H b^T = 0: the space is the F_q-kernel of compute_hsub(H, C).
    """
    t = basis.rows
    if rank_q(basis) != t:
        raise ParameterError("support basis rows must be independent over F_q")
    if t + 1 > h.rows:
        return False
    rank, h_sub, _, _ = compute_hsub(h, h @ basis.transpose())
    return rank == t and right_kernel_q(h_sub).rows == t


def mk_hamming_decode(h: MatQm, received: MatQm, d_hamming: int | None = None) -> DecodeOutcome:
    """Metzner-Kapturowski decoding of column-burst errors (Hamming metric).

    The support positions are the all-zero columns of the trailing rows of
    P @ H; the basis rows are the corresponding identity vectors.  Succeeds
    when the burst hits at most d_H - 2 positions and the error columns are
    independent over the extension field.  `d_hamming` only sets the
    beyond_guarantee flag, as `d` does for `decode`.

    As in the rank metric, a success with t_hat certifies c_hat as the
    unique codeword whose difference from `received` has at most t_hat
    nonzero columns, and it has exactly t_hat.
    """
    return _decode(h, received, d_hamming, _burst_support)
