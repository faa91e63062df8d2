"""The one-variable Laurent polynomial whose non-trivial roots parametrize
eigenvalues of irreducible parabolic representations of the filled manifold.

Closed form:  s^(p-2q) + (-1)^(q+1) * 2 T_q(y(s)) + s^(-p+2q),  up to units.

Two inequivalent substitutions y(s) circulate for the same display; the
Sylvester elimination determinant is the ground truth, so at import time we
test both candidates against it on a seed set and keep the one that matches
every seed.  The winning convention is recorded on each ResPoly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ResultantIdentityMismatch, SymmetryViolation, ValidationError
from .laurent import (
    LaurentPoly,
    chebyshev_T,
    compose,
    filling_eigenvalue_poly,
    peripheral_quadric,
    sylvester_resultant_t,
)
from .slopes import validate_filling

# Candidate substitutions for y(s), as Laurent polynomials over Fraction.
Y_CANDIDATES: dict[str, LaurentPoly] = {
    "y = (-s^2 + 4 - s^-2)/2": LaurentPoly(
        {2: Fraction(-1, 2), 0: Fraction(4, 2), -2: Fraction(-1, 2)}
    ),
    "y = -s^2 + 2 - s^-2": LaurentPoly({2: Fraction(-1), 0: Fraction(2), -2: Fraction(-1)}),
}

_Y_SEEDS = ((1, 1), (-1, 1), (2, 1), (3, 2), (5, 3))


def _closed_form(p: int, q: int, y_sub: LaurentPoly) -> LaurentPoly:
    """s^(p-2q) + (-1)^(q+1) 2 T_q(y(s)) + s^(-p+2q) with exact coefficients."""
    middle = compose(chebyshev_T(q).map_coeffs(Fraction), y_sub).scale(
        Fraction(2 * (-1) ** (q + 1))
    )
    ends = LaurentPoly({p - 2 * q: Fraction(1)}) + LaurentPoly({-p + 2 * q: Fraction(1)})
    if p - 2 * q == 0:
        ends = LaurentPoly({0: Fraction(2)})
    return (middle + ends).to_int()


def _oracle(p: int, q: int) -> LaurentPoly:
    return sylvester_resultant_t(peripheral_quadric(), filling_eigenvalue_poly(p, q))


@lru_cache(maxsize=1)
def resolve_y_convention() -> str:
    """Pick the y(s) substitution that reproduces the Sylvester determinant
    on the seed set.  Exactly one candidate may survive."""
    survivors = []
    for name, sub in Y_CANDIDATES.items():
        if all(_closed_form(p, q, sub).unit_equal(_oracle(p, q)) for p, q in _Y_SEEDS):
            survivors.append(name)
    if len(survivors) != 1:
        raise ResultantIdentityMismatch(
            f"y-convention resolution found {len(survivors)} matching candidates: {survivors}"
        )
    return survivors[0]


@dataclass(frozen=True)
class ResPoly:
    """Characterization polynomial for one filling, in both constructions.

    closed_form and oracle_form are unit-normalized and must be equal; the
    redundancy is the transcription check.  span = 0 signals the degenerate
    fillings p/q in {0, 4} where the polynomial is a nonzero constant and
    there are no irreducible parabolic classes.
    """

    p: int
    q: int
    closed_form: LaurentPoly
    oracle_form: LaurentPoly
    y_convention: str
    formal: bool = False  # the q = 0 case (+-1, 0), defined by convention

    @property
    def poly(self) -> LaurentPoly:
        return self.closed_form

    @property
    def span(self) -> int:
        return self.closed_form.span

    @property
    def is_degenerate(self) -> bool:
        return self.span == 0


def _validate(p: int, q: int) -> None:
    """validate_filling, plus the formal slope (+-1, 0) that res defines by
    convention."""
    if isinstance(p, int) and isinstance(q, int) and q == 0 and abs(p) == 1:
        return
    validate_filling(p, q)


# typed, so that (5.0, 1) misses the cached (5, 1) and is validated
@lru_cache(maxsize=256, typed=True)
def build_res(p: int, q: int) -> ResPoly:
    """Construct res for the p/q filling from both routes and check they agree."""
    _validate(p, q)
    convention = resolve_y_convention()
    y_sub = Y_CANDIDATES[convention]
    closed = _closed_form(p, q, y_sub).normalize_unit()
    if q == 0:
        # No elimination to run: the t-degree of s^p - 1 is zero.  The closed
        # form itself is the defining convention here ((s-1)^2 up to units).
        return ResPoly(p, q, closed, closed, convention, formal=True)
    oracle = _oracle(p, q).normalize_unit()
    if closed != oracle:
        raise ResultantIdentityMismatch(
            f"closed form and Sylvester determinant disagree for ({p}, {q}) "
            f"under {convention}"
        )
    return ResPoly(p, q, closed, oracle, convention)


def trivial_root_orders(r: ResPoly) -> tuple[int, int]:
    """Exact vanishing orders of res at s = +1 and s = -1.

    q even gives (2, 0); p and q both odd give (0, 2); q odd with p even
    gives (0, 0).  Computed over the integers, not predicted.
    """
    if r.is_degenerate:
        raise ValidationError("degenerate polynomial (p/q in {0, 4}) has no roots")

    def order_at(x: int) -> int:
        f = r.poly
        for k in range(3):
            if f.eval_at_int(x) != 0:
                return k
            f = f.derivative()
        raise SymmetryViolation(f"vanishing order at s = {x} exceeds 2 for ({r.p}, {r.q})")

    orders = (order_at(1), order_at(-1))
    if r.q % 2 == 0:
        expected = (2, 0)
    elif r.p % 2 == 1:
        expected = (0, 2)
    else:
        expected = (0, 0)
    if orders != expected:
        raise SymmetryViolation(
            f"trivial-root orders {orders} differ from the parity pattern {expected} "
            f"for ({r.p}, {r.q})"
        )
    return orders


@dataclass(frozen=True)
class SymmetryReport:
    p: int
    q: int
    inverse_invariant: bool       # s -> 1/s fixes the root set (exact identity)
    negation_invariant: bool      # s -> -s identity; holds iff p is even
    negation_expected: bool
    mirror_pair_equal: bool       # res_{p,q} = res_{-p+4q,q} up to units
    real_coefficients: bool


def check_symmetries(r: ResPoly) -> SymmetryReport:
    """Assert the exact symmetry identities of res; raise naming any failure."""
    poly = r.poly
    inv_ok = poly.substitute_inv().unit_equal(poly)
    if not inv_ok:
        raise SymmetryViolation(f"s -> 1/s invariance fails for ({r.p}, {r.q})")
    neg_holds = poly.substitute_neg().unit_equal(poly)
    neg_expected = r.p % 2 == 0
    if neg_holds != neg_expected:
        raise SymmetryViolation(
            f"s -> -s invariance is {neg_holds} but p parity predicts {neg_expected} "
            f"for ({r.p}, {r.q})"
        )
    if r.q == 0:
        mirror_ok = True  # -p+4q = -p; (s-1)^2 is inversion-symmetric already
    else:
        mirror = build_res(-r.p + 4 * r.q, r.q)
        mirror_ok = mirror.poly.unit_equal(poly)
    if not mirror_ok:
        raise SymmetryViolation(f"p -> -p+4q mirror identity fails for ({r.p}, {r.q})")
    real_ok = all(not isinstance(c, complex) for c in poly.coeffs.values())
    return SymmetryReport(r.p, r.q, inv_ok, neg_holds, neg_expected, mirror_ok, real_ok)


def nontrivial_root_bound(p: int, q: int) -> int:
    """Number of distinct roots off {0, +-1}, assuming simplicity: the span
    minus the multiplicities at +-1."""
    _validate(p, q)
    if q > 0 and (p == 0 or p == 4 * q):
        raise ValidationError("p/q in {0, 4} has no non-trivial roots")
    r = build_res(p, q)
    o1, om1 = trivial_root_orders(r)
    return r.span - o1 - om1
