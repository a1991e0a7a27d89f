"""Decoding of high-order interleaved rank-metric codes.

Exact linear algebra over F_q and F_{q^m}, Gabidulin code construction,
a generic syndrome decoder for interleaved rank errors plus its
Hamming-metric (Metzner-Kapturowski) sibling, and a seeded Monte-Carlo
harness for success-rate measurement.
"""

from .codes import (
    GabidulinSpec,
    LinearCodeSpec,
    gabidulin_generator,
    min_rank_distance_exhaustive,
    moore_matrix,
    parity_check_from_generator,
    resolve_code,
)
from .decoder import (
    DecodeOutcome,
    FailureReason,
    beyond_d2_condition,
    compute_hsub,
    decode,
    erasure_decode,
    mk_hamming_decode,
    recover_support,
    syndrome,
)
from .errors import FormatError, ParameterError, RankDeficientError
from .fields import ExtField
from .matrix import (
    MatQ,
    MatQm,
    ext_expand,
    mat_from_text,
    rank_q,
    rank_qm,
    right_kernel_q,
    right_kernel_qm,
    rref,
    rref_carry,
    solve_right,
)
from .simulate import (
    SimConfig,
    SimReport,
    SplitMix64,
    count_matrices_rank,
    lo_condition_check,
    run_trials,
    sample_error,
    sample_full_rank,
    success_lower_bound,
    trial_rng,
    wilson_interval,
)

__version__ = "0.1.0"
