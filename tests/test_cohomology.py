import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from whitenorm.cohomology import d1_classification, d1_poly, d2_check, d2_poly
from whitenorm.errors import ScopeError, VerificationFailure
from whitenorm.laurent import LaurentPoly, det_exact
from whitenorm.roots import nontrivial_roots, resultant_roots

# The cohomology matrices over Z[s, 1/s], exact references for the identities
# the verify suite relies on (whitenorm.cohomology names them).  Cochains are
# C^6 via the entries of their values on the two meridians; the p/q row is
# scaled by q, so every entry is an integer Laurent polynomial.


def const(n):
    return LaurentPoly.constant(n)


ONE, ZERO, S2 = const(1), const(0), LaurentPoly({2: 1})
Q2 = S2 - ONE  # s^2 - 1
QUARTIC = S2 * S2 - S2 - ONE  # s^4 - s^2 - 1


def over_s(f, k):
    """f / s^k."""
    return f.shift(-k)


def coboundary_matrix(a):
    """3x6 span of the coboundaries in the partially diagonal slice
    (diagonal meridian eigenvalue s, parabolic parameter a, an integer
    here); a = 1 is the reducible case."""
    return [
        [ZERO, ONE - S2, ZERO, const(a), const(1 - a * a), ONE],
        [ZERO, ZERO, ZERO, const(2 * (a - 1) ** 2), const(-2 * a * (a - 1) ** 2), const(2 * (a - 2))],
        [ZERO, ZERO, over_s(Q2, 2), const((2 - a) * (a - 1) ** 2), const((a - 1) ** 4), const(-(a - 1) * (a - 3))],
    ]


def presentation_matrix(p, q):
    """5x6 presentation matrix of the twisted cohomology at a non-abelian
    reducible representation, its last row scaled by q."""
    return [
        [ZERO, ONE - S2, ZERO, ONE, ZERO, ONE],
        [ZERO, ZERO, ZERO, ZERO, ZERO, const(-2)],
        [ZERO, ZERO, ONE - S2, ZERO, ZERO, ZERO],
        [ZERO, const(-2) * Q2, ZERO, over_s(const(-2) * Q2 * Q2, 2), over_s(Q2 * Q2 * QUARTIC, 2), ZERO],
        [const(p), ZERO, ZERO, ZERO, over_s(const(q) * (S2 * S2 - ONE), 2), ZERO],
    ]


def trace_pairing_matrix(p, q):
    """The presentation matrix extended by the trace-pairing row, normalized
    so the determinant identity holds on the nose: the relation-cocycle row
    enters scaled by s^-2 and the third coboundary row by -s^-2.  Its p/q
    row is scaled by q."""
    m = presentation_matrix(p, q)
    # the one non-trivial linear condition the 8-letter relation puts on
    # cocycles at a non-abelian reducible representation
    relation = [ZERO, const(-2) * Q2, ZERO, const(-2) * Q2 * Q2, over_s(Q2 * Q2 * QUARTIC, 2), ZERO]
    return [
        m[0],
        m[1],
        [ZERO, ZERO, over_s(Q2, 2), ZERO, ZERO, ZERO],
        [over_s(v, 2) for v in relation],
        m[4],
        [ZERO, ZERO, ZERO, ZERO, ONE, ZERO],
    ]


def minor(m, cols):
    """The minor of m on the given 1-based columns, all rows."""
    return det_exact([[row[j - 1] for j in cols] for row in m])


def _at_unit(f, x):
    """f at s = x, for x = +-1."""
    return sum(c * x ** (e % 2) for e, c in f.coeffs.items())


def test_coboundary_rank_three():
    # each 3x3 minor has degree <= 9 in a (rows of degree 2, 3, 4), so ten
    # integer values of a prove these identities in a and s
    for a in range(10):
        m = coboundary_matrix(a)
        assert minor(m, (2, 3, 4)) == over_s(const(2 * (a - 1) ** 2) * Q2 * Q2, 2)
        assert minor(m, (2, 3, 6)) == over_s(const(2 * (a - 2)) * Q2 * Q2, 2)
        assert minor(m, (2, 3, 5)) == over_s(const(-2 * a * (a - 1) ** 2) * Q2 * Q2, 2)
        # rank 3 wherever s^2 != 1, whatever a: this minor alone is a unit
        # times s^2 - 1
        assert minor(m, (3, 4, 6)) == over_s(const(-2) * Q2, 2)
        # and below 3 at s = +-1, where every minor vanishes
        for cols in combinations(range(1, 7), 3):
            f = minor(m, cols)
            assert _at_unit(f, 1) == _at_unit(f, -1) == 0, (a, cols)


def test_presentation_matrix_rank_five():
    # column 1 is r e_5, so both minors are r times a polynomial in s
    # alone, here the q-scaled p; their quartics s^4 - s^2 +- 1 differ by 2
    # and share no root, so the rank is 5 wherever p != 0 and s^2 != 1
    for p, q in [(5, 1), (-5, 3), (65, 16), (3, 1)]:
        m = presentation_matrix(p, q)
        assert minor(m, (1, 2, 3, 4, 6)) == over_s(const(4 * p) * Q2 * Q2 * (S2 * S2 - S2 + ONE), 2)
        assert minor(m, (1, 2, 3, 5, 6)) == over_s(const(-2 * p) * Q2 * Q2 * Q2 * Q2 * QUARTIC, 2)


def test_presentation_matrix_degenerates_at_one():
    # at s = +-1 every 5x5 minor vanishes: no rank 5 there
    for p, q in [(5, 1), (-5, 3), (7, 2)]:
        m = presentation_matrix(p, q)
        for cols in combinations(range(1, 7), 5):
            f = minor(m, cols)
            assert _at_unit(f, 1) == _at_unit(f, -1) == 0, cols


def det_p_closed_form(p):
    """q det P = 4p (s^2 - 1)^2 (s^4 - 2 s^2 + 2)/s^4."""
    return over_s(const(4 * p) * Q2 * Q2 * (S2 * S2 - const(2) * S2 + const(2)), 4)


def test_det_p_matches_closed_form_on_grid():
    # det P is affine in r = p/q (one row holds r), so two independent
    # (p, q) prove the identity for every r; the rest are spot checks
    for p, q in [(5, 1), (0, 1), (-5, 3), (65, 16), (7, 2)]:
        assert det_exact(trace_pairing_matrix(p, q)) == det_p_closed_form(p)


def test_det_p_zero_cases():
    # det P vanishes at p = 0, and at s^2 = 1 +- i, the roots of its
    # quartic: |s^2|^2 = 2, so off the unit circle
    assert det_exact(trace_pairing_matrix(0, 1)).is_zero
    for u in (1 + 1j, 1 - 1j):
        assert u * u - 2 * u + 2 == 0 and u.real ** 2 + u.imag ** 2 == 2


def _d1_numpy_roots(p, q):
    dense, lo = d1_poly(p, q).dense()
    assert lo == 0
    return np.roots(dense[::-1])


def test_d1_poly_and_roots():
    assert d1_poly(5, 1) == LaurentPoly({4: 5, 2: -62, 0: 5})
    vals = sorted(_d1_numpy_roots(5, 1).real)
    assert vals[0] == pytest.approx(-vals[3]) and vals[1] == pytest.approx(-vals[2])
    with pytest.raises(ScopeError, match=r"^d1 degenerates when p\(p-4q\) = 0$"):
        d1_poly(4, 1)


def test_d1_sign_rule_over_a_grid():
    # d1 = A u^2 + B u + A in u = s^2: the discriminant identity and -B > 0
    # make the axis of the roots the sign of A, which numpy's roots confirm
    grid = [
        (p, q) for p in range(-40, 41) for q in range(1, 15)
        if math.gcd(abs(p), q) == 1 and p * (p - 4 * q) != 0
    ]
    for p, q in grid:
        d1 = d1_poly(p, q)
        a, b = d1[4], d1[2]
        assert d1[0] == a and set(d1.coeffs) == {0, 2, 4}
        assert b * b - 4 * a * a == 32 * (p - 2 * q) ** 2 * ((p - 2 * q) ** 2 + 4 * q * q)
        assert -b > 0
        axis = d1_classification(p, q)
        assert axis == ("real" if a > 0 else "imaginary")
        for r in _d1_numpy_roots(p, q):
            off, on = (r.imag, r.real) if axis == "real" else (r.real, r.imag)
            assert abs(off) <= 1e-6 * abs(on), (p, q, r)


def test_d1_classification_ranges():
    samples = {
        "real": [(5, 1), (9, 2), (-1, 1), (-3, 2), (-7, 3), (13, 3), (25, 4)],
        "imaginary": [(1, 1), (3, 2), (5, 2), (7, 2), (1, 4), (11, 3), (3, 4)],
    }
    for expected, pqs in samples.items():
        for p, q in pqs:
            assert d1_classification(p, q) == expected, (p, q)


def test_d2_checksum():
    poly = d2_poly()
    assert poly.maxdeg == 40
    assert poly[40] == 22
    assert poly[0] == 11
    assert all(e % 2 == 0 for e in poly.coeffs)
    assert len(poly.coeffs) == 21


def test_d2_root_avoidance():
    # the exact check passes, and the roots agree: d2's, by numpy, stay
    # clear of res's certified ones
    d2_roots = np.roots(d2_poly().dense()[0][::-1])
    for p, q in [(5, 1), (-1, 1), (7, 2), (-5, 3)]:
        assert d2_check(p, q) is None
        res_roots = nontrivial_roots(resultant_roots(p, q)).values
        assert min(abs(a - b) for a in d2_roots for b in res_roots) > 1e-3


def test_d2_detects_planted_collision(monkeypatch):
    import whitenorm.cohomology as co

    # plant a characterization polynomial that shares a factor with d2,
    # which is irreducible: (s^2 - 5) d2
    planted = LaurentPoly({2: 1, 0: -5}) * d2_poly()
    monkeypatch.setattr(co, "build_res", lambda p, q: SimpleNamespace(poly=planted))
    with pytest.raises(VerificationFailure, match=r"\(5,1\) .* not certified coprime"):
        co.d2_check(5, 1)
