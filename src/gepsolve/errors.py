"""Exception types shared across the toolkit.

Everything raised on purpose derives from :class:`GepSolveError` so callers
can catch one base class at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


class GepSolveError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GepSolveError):
    """Bad user-supplied data: files, shapes, flags."""


class NumericalError(GepSolveError):
    """A computation failed for numerical reasons."""


class DimensionMismatch(InputError):
    """Operand shapes are incompatible."""


class NotSquare(InputError):
    """A matrix that must be square is not."""


class AsymmetricEntries(InputError):
    """Entries violate the required symmetry tolerance."""


class NonFiniteEntries(InputError):
    """A matrix holds a NaN or infinite entry."""


class ParseError(InputError):
    """A matrix file could not be parsed."""


class NotPositiveDefinite(NumericalError):
    """A Cholesky pivot is nonpositive, below the relative threshold, or off the diagonal."""


class StaleFactor(InputError):
    """A cached factorization does not match the matrix it is used with."""


class PcgBreakdown(NumericalError):
    """PCG met a nonpositive curvature or inner-product value."""


class ZeroDiagonal(NumericalError):
    """A diagonal preconditioner met a nonpositive diagonal entry."""


class DegenerateDirection(NumericalError):
    """The iterate is (numerically) in the null space of A."""


class InvalidStepsize(InputError):
    """A stepsize or sampling interval violates its stability bound."""


class Breakdown(NumericalError):
    """A Krylov basis spans the whole space and the wanted Ritz pair
    still misses the stopping rule."""


class ZeroVector(InputError):
    """A vector that must be nonzero has zero norm."""


class NotNormalized(InputError):
    """A vector fails its required normalization tolerance."""


class StageFailure(NumericalError):
    """A deflation stage did not converge.

    Carries the 1-based failing stage and the eigenpairs accepted before it
    so partial results are not lost.
    """

    def __init__(self, stage: int, pairs: list, message: str = ""):
        self.stage = stage
        self.pairs = pairs
        super().__init__(message or f"stage {stage} failed with {len(pairs)} pairs accepted")
