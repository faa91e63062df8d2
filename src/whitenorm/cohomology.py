"""Small transcribable matrices controlling smoothness and simple-zero
claims: coboundary spans, the reducible presentation matrix, the 6x6
trace-pairing extension with its determinant closed form, and the two
obstruction polynomials d1, d2 with their root-avoidance checks.

Cochains are identified with C^6 via the entries of their values on the
two meridian generators.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .config import TOL
from .errors import (
    ClosedFormMismatch,
    CommonRootSuspected,
    DegenerateCase,
    RankMismatch,
    ValidationError,
)
from .laurent import LaurentPoly
from .roots import find_roots, nontrivial_roots, resultant_roots


def rank(m: np.ndarray) -> int:
    """Numeric rank: the singular values above TOL.rank_rel times the largest."""
    import numpy as np
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int((sv > TOL.rank_rel * sv[0]).sum())


def coboundary_matrix(s: complex, a: complex) -> np.ndarray:
    """3x6 span of the coboundaries at a representation in the partially
    diagonal slice (diagonal meridian eigenvalue s, parabolic parameter a);
    a = 1 is the reducible case.  Rank 3 whenever s != +-1."""
    if s == 0:
        raise ValidationError("s must be non-zero")
    si2 = 1 / (s * s)
    rows = [
        [0, 1 - s * s, 0, a, 1 - a * a, 1],
        [0, 0, 0, 2 * (a - 1) ** 2, -2 * a * (a - 1) ** 2, 2 * (a - 2)],
        [0, 0, 1 - si2, (2 - a) * (a - 1) ** 2, (a - 1) ** 4, -(a - 1) * (a - 3)],
    ]
    import numpy as np
    return np.array(rows, dtype=complex)


def _relation_cocycle_vector(s: complex) -> list[complex]:
    """The one non-trivial linear condition the 8-letter relation puts on
    cocycles at a non-abelian reducible representation."""
    s2 = s * s
    return [
        0,
        -2 * (s2 - 1),
        0,
        -2 * (s2 - 1) ** 2,
        (s2 - 1) ** 2 * (s2 * s2 - s2 - 1) / s2,
        0,
    ]


def reducible_presentation_matrix(s: complex, p: int, q: int) -> np.ndarray:
    """5x6 presentation matrix of the twisted cohomology at a non-abelian
    reducible representation (s^p = 1, s != +-1); rank 5, so the cohomology
    is one-dimensional.  At s = +-1 (no such representation) the matrix is
    still built, so callers can watch the rank drop, but nothing is
    asserted."""
    if s == 0:
        raise ValidationError("s must be non-zero")
    s2 = s * s
    rows = [
        [0, 1 - s2, 0, 1, 0, 1],
        [0, 0, 0, 0, 0, -2],
        [0, 0, 1 - s2, 0, 0, 0],
        [0, 2 * (1 - s2), 0, 2 * (-s2 * s2 + 2 * s2 - 1) / s2, (s2 * s2 - s2 - 1) * (s2 - 1) ** 2 / s2, 0],
        [p / q, 0, 0, 0, (s2 * s2 - 1) / s2, 0],
    ]
    import numpy as np
    m = np.array(rows, dtype=complex)
    # callers pass s = +-1 or s = e^(2 pi i k/|p|), at least 2 sin(pi/|p|)
    # from +-1; 1e-9 tells the two apart up to the rounding of s
    if abs(s - 1) > 1e-9 and abs(s + 1) > 1e-9:
        r = rank(m)
        if r != 5:
            raise RankMismatch(f"presentation matrix rank {r} != 5 at s={s}")
    return m


def trace_pairing_matrix(s: complex, p: int, q: int) -> np.ndarray:
    """The presentation matrix extended by the trace-pairing row; its
    determinant has the closed form (4p/q) s^-4 (s^2-1)^2 (s^4-2s^2+2).

    The rows are normalized so the determinant identity holds on the nose
    (the relation-cocycle row enters scaled by s^-2 and the third
    coboundary row by -s^-2); un-normalized rows reproduce the same rank
    statements but pick up stray unit factors s^k in the determinant.
    """
    if s == 0:
        raise ValidationError("s must be non-zero")
    s2 = s * s
    rel = _relation_cocycle_vector(s)
    rows = [
        [0, 1 - s2, 0, 1, 0, 1],
        [0, 0, 0, 0, 0, -2],
        [0, 0, 1 - 1 / s2, 0, 0, 0],
        [v / s2 for v in rel],
        [p / q, 0, 0, 0, (s2 * s2 - 1) / s2, 0],
        [0, 0, 0, 0, 1, 0],
    ]
    import numpy as np
    return np.array(rows, dtype=complex)


def det_p_closed_form(s: complex, p: int, q: int) -> complex:
    s2 = s * s
    return (4 * p / q) * (s2 - 1) ** 2 * (s2 * s2 - 2 * s2 + 2) / (s2 * s2)


def det_P_reducible(s: complex, p: int, q: int) -> complex:
    """Numeric determinant of the extended matrix, checked against the
    closed form to relative tolerance."""
    import numpy as np
    m = trace_pairing_matrix(s, p, q)
    det = complex(np.linalg.det(m))
    closed = det_p_closed_form(s, p, q)
    scale = max(abs(det), abs(closed), 1e-300)
    if abs(det - closed) > TOL.det_rel * scale:
        raise ClosedFormMismatch(
            f"det = {det} but closed form = {closed} at s={s}, (p,q)=({p},{q})"
        )
    return det


# ---------------------------------------------------------------------------
# the two obstruction polynomials


def d1_poly(p: int, q: int) -> LaurentPoly:
    """p(p-4q) s^4 + (-6p^2 + 24pq - 32q^2) s^2 + p(p-4q)."""
    lead = p * (p - 4 * q)
    if lead == 0:
        raise DegenerateCase("d1 degenerates when p(p-4q) = 0")
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


@lru_cache(maxsize=1)
def _d2_roots() -> tuple[complex, ...]:
    return tuple(r.value for r in find_roots(d2_poly()))


def d2_check(p: int, q: int) -> float:
    """Minimal distance between the roots of d2 and the non-trivial roots of
    the characterization polynomial; they must stay separated.  d2 is
    primitive and irreducible over Q (sympy 1.14's factor_list: content 1,
    one factor) with leading coefficient 22, so none of its roots is an
    algebraic integer, while every root of the monic resultant is one."""
    d2_roots = _d2_roots()
    res_roots = nontrivial_roots(resultant_roots(p, q)).values
    if not res_roots:
        return math.inf
    dist = min(abs(a - b) for a in d2_roots for b in res_roots)
    if dist <= TOL.root_avoid:
        raise CommonRootSuspected(
            f"d2 and the ({p},{q}) characterization polynomial have roots within {dist:.2e}"
        )
    return dist
