"""The one-variable Laurent polynomial whose non-trivial roots parametrize
eigenvalues of irreducible parabolic representations of the filled manifold.

Closed form:  s^(p-2q) + (-1)^(q+1) * 2 T_q(y(s)) + s^(-p+2q),  up to units,
with y = (-s^2 + 4 - s^-2)/2.  Since 2 T_q(y) = D_q(2y) for the Dickson
polynomial D_q (D_0 = 2, D_1 = w, D_{k+1} = w D_k - D_{k-1}), the closed form
is built as s^(p-2q) + (-1)^(q+1) D_q(-s^2 + 4 - s^-2) + s^(-p+2q), over the
integers.  No convention is chosen at run time: build_res checks the closed
form against the Sylvester determinant, one elimination per q, for every
filling, and the convention's name is the module constant Y_CONVENTION.

The closed form is also evaluated in fixed point (_res_value), for the
Newton steps (_newton) of the root solve and of reconstruction: near p = 2q
res's dense coefficients cancel badly, the closed form does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cxhp import HPComplex
from .errors import ResultantIdentityMismatch, SymmetryViolation, ValidationError
from .laurent import LaurentPoly, squarefree_refusal, sylvester_resultant_t
from .slopes import validate_filling

Y_CONVENTION = "y = (-s^2 + 4 - s^-2)/2"

# w = 2y, the argument of the Dickson polynomial
_W = LaurentPoly({2: -1, 0: 4, -2: -1})


@lru_cache(maxsize=256)  # every p of a q shares D_q(w), as it shares _bands
def _dickson(q: int) -> LaurentPoly:
    """D_q(w) at w = _W: D_0 = 2, D_1 = w, D_{k+1} = w D_k - D_{k-1};
    2 T_q(w/2)."""
    # start at (D_-1, D_0) = (w, 2), so that q steps give D_q
    d_prev, d = _W, LaurentPoly({0: 2})
    for _ in range(q):
        d_prev, d = d, _W * d - d_prev
    return d


def _closed_form(p: int, q: int) -> LaurentPoly:
    """s^(p-2q) + (-1)^(q+1) D_q(w) + s^(-p+2q), with w = -s^2 + 4 - s^-2.

    At p = 2q the two ends add up to the constant 2."""
    middle = _dickson(q)
    if q % 2 == 0:
        middle = -middle
    return middle + LaurentPoly({p - 2 * q: 1}) + LaurentPoly({-p + 2 * q: 1})


def _power(base: HPComplex, n: int) -> HPComplex:
    """base^n for n >= 0, by repeated squaring."""
    out = HPComplex.from_int(1, base.bits)
    while n:
        if n & 1:
            out *= base
        base *= base
        n >>= 1
    return out


def _newton(value, z: HPComplex, good: int) -> HPComplex:
    """Newton steps on f from z, a start good to `good` bits, at z's
    precision, where value(z) = (f(z), f'(z)).  Each step doubles the good
    bits, and the steps stop once they reach twice z's bits: one step past
    the precision, for margin.  A zero f' raises ZeroDivisionError."""
    while good < 2 * z.bits:
        f, df = value(z)
        z = z - f / df
        good *= 2
    return z


def _closed_form_hp(z: HPComplex, m: int, q: int) -> tuple[HPComplex, ...]:
    """The pieces of res's closed form z^m + z^-m + (-1)^(q+1) D_q(w) at z,
    m = p - 2q and w = 4 - z^2 - z^-2 (_closed_form): z^m, z^-m, w, D_q(w)
    and dD_q/dw.  The power is raised on whichever of z, 1/z lies outside
    the unit circle and the other one is its inverse, since a power of a
    small number keeps only the absolute precision of its base.  D and its
    derivative share one three-term loop, started as _dickson starts."""
    one = HPComplex.from_int(1, z.bits)
    outside = abs(z) >= 1
    big = _power(z if outside else one / z, abs(m))
    small = one / big
    zm, zm_inv = (big, small) if outside == (m >= 0) else (small, big)
    z2 = z * z
    w = 4 - z2 - one / z2
    # (D_-1, D_0) = (w, 2) and (D'_-1, D'_0) = (1, 0); D'_(k+1) = D_k + w D'_k - D'_(k-1)
    d_prev, d, dd_prev, dd = w, one * 2, one, one * 0
    for _ in range(q):
        d_prev, d, dd_prev, dd = d, w * d - d_prev, dd, d + w * dd - dd_prev
    return zm, zm_inv, w, d, dd


def _res_value(z: HPComplex, m: int, q: int) -> tuple[HPComplex, HPComplex]:
    """res's closed form and its derivative at z (_closed_form_hp), the
    value _newton takes."""
    zm, zm_inv, w, d, dd = _closed_form_hp(z, m, q)
    sign = 1 if q % 2 else -1
    # dw/dz = 2 (z^-2 - z^2)/z, and z^-2 = 4 - w - z^2
    return zm + zm_inv + sign * d, (m * (zm - zm_inv) + 2 * sign * dd * (4 - w - 2 * z * z)) / z


# s^4 t^2 + (-s^4 + 4 s^2 - 1) t + 1, the quadric in t cutting out the
# non-reducible component of the eigenvalue variety at u^2 = 1, v = -1; its
# t-coefficients, leading first
_QUADRIC = (LaurentPoly({4: 1}), LaurentPoly({4: -1, 2: 4, 0: -1}), LaurentPoly({0: 1}))


@lru_cache(maxsize=256)
def _bands(q: int) -> tuple[LaurentPoly, ...]:
    """(A, B, C) in Z[s] with Res_t(quadric, s^p t^q - 1) = A + s^p B + s^2p C
    for every p: each filling row holds s^p once, and each Leibniz term takes
    an exponent 0 to 4 from each of the q quadric rows, so A, B and C lie in
    [0, 4q].  q's one determinant, at P = 4q + 1, splits into [kP, kP + 4q]."""
    big = 4 * q + 1
    filling = [LaurentPoly({big: 1})] + [LaurentPoly()] * (q - 1) + [LaurentPoly({0: -1})]
    det = sylvester_resultant_t(list(_QUADRIC), filling)
    bands = [{e % big: c for e, c in det.coeffs.items() if e // big == k} for k in range(3)]
    return tuple(map(LaurentPoly, bands))


def _oracle(p: int, q: int) -> LaurentPoly:
    """The Sylvester determinant eliminating t between the quadric and the
    filling condition s^p t^q - 1, for q > 0 (build_res validates first)."""
    a, b, c = _bands(q)
    return a + b.shift(p) + c.shift(2 * p)


def resolve_y_convention() -> str:
    """The y(s) substitution of the closed form; build_res certifies it
    against the Sylvester determinant filling by filling."""
    return Y_CONVENTION


@dataclass(frozen=True)
class ResPoly:
    """Characterization polynomial for one filling, unit-normalized and
    certified equal to the Sylvester determinant.  span = 0 signals the
    degenerate fillings p/q in {0, 4} where the polynomial is a nonzero
    constant and there are no irreducible parabolic classes.

    It owns the exact facts of res, each computed when first read, once per
    polynomial (_split, _refusal): p/q and (4q - p)/q share them.
    """

    p: int
    q: int
    poly: LaurentPoly

    @property
    def span(self) -> int:
        return self.poly.span

    @property
    def is_degenerate(self) -> bool:
        return self.span == 0

    @property
    def trivial_orders(self) -> tuple[int, int]:
        """Exact vanishing orders of res at s = +1 and s = -1, by the split
        LaurentPoly.split_root makes, checked against the parity pattern:
        q even gives (2, 0); p and q both odd give (0, 2); q odd with p even
        gives (0, 0).  Computed over the integers, not predicted."""
        if self.is_degenerate:
            raise ValidationError("degenerate polynomial (p/q in {0, 4}) has no roots")
        orders = _split(self.poly)[:2]
        expected = (2, 0) if self.q % 2 == 0 else (0, 2) if self.p % 2 else (0, 0)
        if orders != expected:
            raise SymmetryViolation(
                f"trivial-root orders {orders} differ from the parity pattern {expected} "
                f"for ({self.p}, {self.q})"
            )
        return orders

    @property
    def quotient(self) -> tuple[int, ...]:
        """The dense integer coefficients, ascending, of res with its roots
        +-1 divided out (trivial_orders), certified squarefree
        (laurent.squarefree_refusal), so each of its roots is simple and
        its degree is the number of roots off {0, +-1}.  Raises
        ValidationError when the test refuses it."""
        self.trivial_orders  # the orders are checked first
        refused = _refusal(self.poly)
        if refused is not None:
            raise refused
        return _split(self.poly)[2]


# The exact facts of res, cached on the polynomial: the orders of +1 and -1,
# one split_root pass each, with the dense coefficients of the quotient left;
# and the squarefree test's refusal of that quotient, or None.
@lru_cache(maxsize=256)
def _split(poly: LaurentPoly) -> tuple[int, int, tuple[int, ...]]:
    o1, rest = poly.split_root(1)
    om1, rest = rest.split_root(-1)
    return o1, om1, tuple(rest.dense()[0])


@lru_cache(maxsize=256)
def _refusal(poly: LaurentPoly) -> ValidationError | None:
    return squarefree_refusal(_split(poly)[2])


# typed, so that (5.0, 1) misses the cached (5, 1) and is validated
@lru_cache(maxsize=256, typed=True)
def build_res(p: int, q: int) -> ResPoly:
    """Construct res for the p/q filling from both routes and check they agree."""
    validate_filling(p, q)
    closed = _closed_form(p, q).normalize_unit()
    if closed != _oracle(p, q).normalize_unit():
        raise ResultantIdentityMismatch(
            f"closed form and Sylvester determinant disagree for ({p}, {q}) "
            f"under {Y_CONVENTION}"
        )
    return ResPoly(p, q, closed)


def check_symmetries(r: ResPoly) -> bool:
    """Assert the exact symmetry identities of res, raising naming any
    failure: s -> 1/s fixes res, s -> -s fixes it iff p is even, and
    res_{p,q} = res_{-p+4q,q} up to units.  Returns whether s -> -s fixes res."""
    poly = r.poly
    if not poly.substitute_inv().unit_equal(poly):
        raise SymmetryViolation(f"s -> 1/s invariance fails for ({r.p}, {r.q})")
    neg_holds = poly.substitute_neg().unit_equal(poly)
    neg_expected = r.p % 2 == 0
    if neg_holds != neg_expected:
        raise SymmetryViolation(
            f"s -> -s invariance is {neg_holds} but p parity predicts {neg_expected} "
            f"for ({r.p}, {r.q})"
        )
    if not build_res(-r.p + 4 * r.q, r.q).poly.unit_equal(poly):
        raise SymmetryViolation(f"p -> -p+4q mirror identity fails for ({r.p}, {r.q})")
    return neg_holds


def nontrivial_root_bound(p: int, q: int) -> int:
    """The span of res minus its orders at +-1 (ResPoly.trivial_orders
    alone): its number of distinct roots off {0, +-1}, all simple as
    ResPoly.quotient certifies for count_prep_classes and the root solve.
    build_res validates (p, q); p/q in {0, 4} has no roots and raises."""
    r = build_res(p, q)
    return r.span - sum(r.trivial_orders)
