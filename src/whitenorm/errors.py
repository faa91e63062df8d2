"""Exception hierarchy shared by all whitenorm modules."""


class WhitenormError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WhitenormError, ValueError):
    """Malformed input: non-coprime pairs, bad slope strings, q <= 0, ..."""


class ScopeError(WhitenormError):
    """Input outside the proven scope (p even, or p/q on an excluded slope),
    or a filling outside a verification suite's scope (p/q in {0, 4} for the
    suites that need roots)."""


class DegenerateCase(WhitenormError):
    """Closed-form formula undefined for this (p, q)."""


class ResultantIdentityMismatch(WhitenormError):
    """Sylvester determinant and closed form disagree after normalization."""


class SymmetryViolation(WhitenormError):
    """A resultant symmetry identity failed; the message names it."""


class ConvergenceFailure(WhitenormError):
    """The root solve did not certify.  It makes one start and raises the
    failure of the first stage that fails.  The message names the check
    that failed; the attributes say where and at what size, each None where
    the raiser does not know it:

    stage       "start" (the start found other than degree-many roots) or
                "discs" (the inclusion discs did not certify at the planned bits)
    degree      degree of the polynomial being solved: the one left after
                the roots +-1 are split off
    coeff_bits  bit length of its largest coefficient
    bits        fraction bits the lifts and discs were planned at (roots._plan)
    """

    def __init__(self, message: str, *, stage=None, degree=None, coeff_bits=None, bits=None):
        super().__init__(message)
        self.stage = stage
        self.degree = degree
        self.coeff_bits = coeff_bits
        self.bits = bits


class ClassificationViolation(WhitenormError):
    """A root-classification assertion failed; the message names it."""


class VerificationFailure(WhitenormError):
    """A verification check failed: a residual of a reconstructed
    representation, or a check of a verification suite."""


class CountMismatch(WhitenormError):
    """Numeric class count disagrees with the closed-form count."""


class SystemInconsistent(WhitenormError):
    """The norm linear system has no solution (distance-table bug)."""


class RankUnexpected(WhitenormError):
    """The norm linear system rank differs from the one expected in range."""


class CommonRootSuspected(WhitenormError):
    """Two polynomials that must share no root are not certified coprime."""
