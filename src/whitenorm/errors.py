"""Exception hierarchy shared by all whitenorm modules: one class per
outcome.  The CLI exits 1 on ValidationError, 3 on ScopeError and 2 on any
other WhitenormError; a verify suite that raises ScopeError is skipped and
one that raises any other WhitenormError fails.  The message names the
check or the refusal."""


class WhitenormError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WhitenormError, ValueError):
    """Malformed input: non-coprime pairs, bad slope strings, q <= 0, ..."""


class ScopeError(WhitenormError):
    """A valid filling outside a computation's scope, raised by the layer
    that owns the fact: p even or slope 3 for the seminorm's closed forms
    (seminorm), and p/q in {0, 4}, where res is a unit constant, for its
    roots (ResPoly.trivial_orders), its class count (reps.count_prep_classes)
    and d1 (cohomology.d1_poly)."""


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


class VerificationFailure(WhitenormError):
    """A check failed: an exact identity of res (the Sylvester certificate,
    a symmetry, the +-1 orders), a class count, the norm system, a
    classification of the certified roots, d2's coprimality, a residual of
    a reconstructed representation, or a check of a verification suite."""
