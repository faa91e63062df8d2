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
    """Root iteration did not converge.  The root solve makes one start and
    raises the failure of the first stage that fails.  The message names
    the check that failed; the attributes say where, at what size and how
    close, each None where the raiser does not know it:

    stage       "aberth" (the double-precision start) or "refine" (the
                fixed-point sweeps and their inclusion discs)
    degree      degree of the polynomial being solved: the one left after
                the roots +-1 are split off
    coeff_bits  bit length of its largest coefficient
    bits        fraction bits of the last fixed-point rung
    sweeps      fixed-point sweeps made
    steps       base-2 exponent of each sweep's largest step
    """

    def __init__(self, message: str, *, stage=None, degree=None, coeff_bits=None,
                 bits=None, sweeps=None, steps=()):
        super().__init__(message)
        self.stage = stage
        self.degree = degree
        self.coeff_bits = coeff_bits
        self.bits = bits
        self.sweeps = sweeps
        self.steps = tuple(steps)


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
