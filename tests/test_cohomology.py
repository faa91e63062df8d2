import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from whitenorm.cohomology import (
    coboundary_matrix,
    d1_classification,
    d1_poly,
    d2_check,
    d2_poly,
    det_P_reducible,
    det_p_closed_form,
    rank,
    reducible_presentation_matrix,
    trace_pairing_matrix,
)
from whitenorm.errors import CommonRootSuspected, DegenerateCase
from whitenorm.laurent import LaurentPoly
from whitenorm.reps import prep_to_partially_diagonal, reconstruct_prep
from whitenorm.roots import nontrivial_roots, resultant_roots


def test_coboundary_rank_three():
    # at a genuine irreducible representation's slice parameters
    z = nontrivial_roots(resultant_roots(2, 1)).values[-1]
    pr = reconstruct_prep(z, 1, 2, 1)
    s, a, _ = prep_to_partially_diagonal(pr)
    assert rank(coboundary_matrix(s, a)) == 3
    # the reducible case a = 1 keeps rank 3, on and off the unit circle
    for s in (0.3 + 0.7j, cmath.exp(0.821j)):
        assert rank(coboundary_matrix(s, 1.0)) == 3
    # degenerating s -> 1 loses rank
    assert rank(coboundary_matrix(1 + 1e-12, 0.4 + 0.3j)) < 3


def test_presentation_matrix_rank_five():
    for p in (3, 5, 7, 15):
        for k in (1, 2):
            s = cmath.exp(2j * cmath.pi * k / p)
            m = reducible_presentation_matrix(s, p, 1)
            assert m.shape == (5, 6) and rank(m) == 5


def test_presentation_matrix_degenerates_at_one():
    m = reducible_presentation_matrix(1.0 + 0j, 5, 1)
    assert rank(m) < 5


def test_det_p_matches_closed_form_on_grid():
    worst = 0.0
    for k in range(50):
        r = 0.5 + 1.5 * k / 49
        s = r * cmath.exp(2j * math.pi * ((k * 0.6180339887) % 1.0))
        det = det_P_reducible(s, 5, 1)
        closed = det_p_closed_form(s, 5, 1)
        worst = max(worst, abs(det - closed) / abs(closed))
    assert worst <= 1e-8


def test_det_p_zero_cases():
    s = cmath.exp(2j * cmath.pi / 5)
    assert abs(complex(np.linalg.det(trace_pairing_matrix(s, 0, 1)))) < 1e-12
    # the quartic factor vanishes only off the unit circle
    for s2 in (1 + 1j, 1 - 1j):
        root = cmath.sqrt(s2)
        assert abs(abs(root) - 1) > 0.1
        assert abs(det_p_closed_form(root, 5, 1)) < 1e-10


def _d1_numpy_roots(p, q):
    dense, lo = d1_poly(p, q).dense()
    assert lo == 0
    return np.roots(dense[::-1])


def test_d1_poly_and_roots():
    assert d1_poly(5, 1) == LaurentPoly({4: 5, 2: -62, 0: 5})
    vals = sorted(_d1_numpy_roots(5, 1).real)
    assert vals[0] == pytest.approx(-vals[3]) and vals[1] == pytest.approx(-vals[2])
    with pytest.raises(DegenerateCase):
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
    with pytest.raises(CommonRootSuspected, match=r"\(5,1\) .* not certified coprime"):
        co.d2_check(5, 1)
