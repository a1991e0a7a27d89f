"""Shared exception types."""


class FormatError(ValueError):
    """A textual artifact (field spec, matrix file, code spec) is malformed."""


class ParameterError(ValueError):
    """Parameters are infeasible or out of the supported range."""


class RankDeficientError(ArithmeticError):
    """Linear system has a rank-deficient coefficient matrix (solution not unique)."""
