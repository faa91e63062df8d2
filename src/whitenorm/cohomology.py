"""The exact facts behind the smoothness and simple-zero claims, and the
two obstruction polynomials d1, d2 with their exact checks: d1's roots by a
sign rule, d2's avoidance of res by a modular gcd.

The twisted-cohomology ranks hold as identities in s and r = p/q, so no
matrix is built here.  Cochains are identified with C^6 via the entries of
their values on the two meridian generators; the matrices themselves are
kept, over the Laurent ring, as references in tests/test_cohomology.py,
which proves each minor named below with laurent.det_exact.  Columns are
1-based.

- The 3x6 coboundary span at slice parameter a (a = 1 reducible): its
  minor on columns (3, 4, 6) is -2 (s^2 - 1)/s^2 for every a, and every
  3x3 minor has the factor s^2 - 1.  Rank 3 exactly when s^2 != 1.
- The 5x6 presentation matrix at a non-abelian reducible representation:
  its minors on columns (1, 2, 3, 4, 6) and (1, 2, 3, 5, 6) are
  4r (s^2 - 1)^2 (s^4 - s^2 + 1)/s^2 and -2r (s^2 - 1)^4 (s^4 - s^2 - 1)/s^2,
  whose quartics differ by 2 and share no root, and every 5x5 minor has
  the factor s^2 - 1.  Rank 5 whenever p != 0 and s^2 != 1; below 5 at
  s^2 = 1.
- The presentation matrix extended by the trace-pairing row has
  determinant det P = 4r (s^2 - 1)^2 (s^4 - 2 s^2 + 2)/s^4 identically.
"""

from __future__ import annotations

from .errors import ScopeError, VerificationFailure
from .laurent import LaurentPoly, coprime
from .respq import build_res


# ---------------------------------------------------------------------------
# the two obstruction polynomials


def d1_poly(p: int, q: int) -> LaurentPoly:
    """p(p-4q) s^4 + (-6p^2 + 24pq - 32q^2) s^2 + p(p-4q)."""
    lead = p * (p - 4 * q)
    if lead == 0:
        raise ScopeError("d1 degenerates when p(p-4q) = 0")
    return LaurentPoly({4: lead, 2: -6 * p * p + 24 * p * q - 32 * q * q, 0: lead})


def d1_classification(p: int, q: int) -> str:
    """'real' or 'imaginary', the axis of all four roots of d1, by its sign
    rule: in u = s^2, d1 = A u^2 + B u + A (d1_poly) has discriminant
    B^2 - 4A^2 = 32 (p - 2q)^2 ((p - 2q)^2 + 4q^2) >= 0, root product 1 and
    root sum -B/A with -B > 0, so both u are positive (s real) iff A > 0."""
    return "real" if d1_poly(p, q)[4] > 0 else "imaginary"


_D2_COEFFS_EVEN = [
    11, -164, 1097, -4582, 14586, -41808, 115452, -286072, 595850, -1027864,
    1466502, -1708564, 1598312, -1182928, 683740, -304088, 101875, -24868,
    4185, -438, 22,
]  # coefficient of s^(2i); degree 40, constant 11, leading 22


def d2_poly() -> LaurentPoly:
    """The fixed degree-40 obstruction polynomial (even exponents only)."""
    return LaurentPoly({2 * i: c for i, c in enumerate(_D2_COEFFS_EVEN)})


def d2_check(p: int, q: int) -> None:
    """Prove that d2 and the characterization polynomial res share no root:
    gcd(res, d2) = 1 modulo 2^61 - 1 (laurent.coprime), which divides
    neither the leading 22 of d2 nor the leading 1 of the monic res.  No
    root is solved.  It always holds: d2 is primitive and irreducible over Q
    (sympy 1.14's factor_list: content 1, one factor) with leading
    coefficient 22, so none of its roots is an algebraic integer, while
    every root of the monic res is one.  A refusal raises
    VerificationFailure; being modular, it alone proves no common root."""
    if not coprime(build_res(p, q).poly.dense()[0], d2_poly().dense()[0]):
        raise VerificationFailure(
            f"d2 and the ({p},{q}) characterization polynomial are not certified coprime: "
            "gcd != 1 modulo 2^61 - 1"
        )
