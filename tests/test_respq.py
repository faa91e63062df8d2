import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from whitenorm import respq
from whitenorm.errors import ScopeError, ValidationError, VerificationFailure
from whitenorm.laurent import LaurentPoly, sylvester_resultant_t
from whitenorm.respq import (
    _QUADRIC,
    _dickson,
    _oracle,
    build_res,
    check_symmetries,
    nontrivial_root_bound,
    resolve_y_convention,
)


def coprime_pairs(pmax=12, qmax=5):
    return (
        st.tuples(st.integers(-pmax, pmax), st.integers(1, qmax))
        .filter(lambda t: math.gcd(abs(t[0]), t[1]) == 1)
    )


def test_y_convention_resolved_by_oracle():
    assert resolve_y_convention() == respq.Y_CONVENTION == "y = (-s^2 + 4 - s^-2)/2"


def test_q_zero_is_no_filling():
    for p in (1, -1, 3):
        with pytest.raises(ValidationError):
            build_res(p, 0)
    with pytest.raises(ValidationError):
        nontrivial_root_bound(1, 0)


def test_degenerate_fillings_are_units():
    for p, q in [(0, 1), (4, 1)]:
        r = build_res(p, q)
        assert r.is_degenerate
        assert r.span == 0


def test_frozen_polynomial_minus1_1():
    assert build_res(-1, 1).poly == LaurentPoly({6: 1, 5: -1, 3: 4, 1: -1, 0: 1})


def test_validation():
    with pytest.raises(ValidationError):
        build_res(6, 2)
    with pytest.raises(ValidationError):
        build_res(1, -1)


def test_cached_filling_does_not_admit_float_twin():
    from whitenorm.roots import resultant_roots

    build_res(5, 1)
    resultant_roots(5, 1)
    with pytest.raises(ValidationError):
        build_res(5.0, 1)
    with pytest.raises(ValidationError):
        resultant_roots(5.0, 1)


def test_trivial_root_orders():
    assert build_res(-1, 1).trivial_orders == (0, 2)
    assert build_res(1, 2).trivial_orders == (2, 0)
    assert build_res(2, 1).trivial_orders == (0, 0)
    with pytest.raises(ScopeError, match="^degenerate constant, no roots$"):
        build_res(4, 1).trivial_orders


def test_symmetries():
    assert check_symmetries(build_res(2, 1)) is True    # s -> -s fixes res iff p even
    assert check_symmetries(build_res(1, 1)) is False
    check_symmetries(build_res(5, 1))                   # mirror pair 5/1 and -1/1
    assert build_res(5, 1).poly.unit_equal(build_res(-1, 1).poly)


def test_certificate_at_large_q():
    # a (q + 2)^2 Sylvester determinant with q = 128, and its mirror 255/128
    r = build_res(257, 128)
    assert r.span == 2 * max(abs(257 - 256), 256)
    assert check_symmetries(r) is False


def test_nontrivial_root_bounds():
    assert nontrivial_root_bound(-1, 1) == 4   # 2|p| + 4|q| - 2
    assert nontrivial_root_bound(5, 1) == 4    # 2|p| - 4|q| - 2
    assert nontrivial_root_bound(2, 1) == 4    # 4|q| for p even
    assert nontrivial_root_bound(65, 16) == 64
    with pytest.raises(ScopeError, match="^degenerate constant, no roots$"):
        nontrivial_root_bound(4, 1)


def _bound_table(p, q):
    ap, aq = abs(p), abs(q)
    if p % 2:
        if p < 0:
            return 2 * ap + 4 * aq - 2
        if p < 4 * q:
            return 4 * aq - 2
        return 2 * ap - 4 * aq - 2
    if p < 0:
        return 2 * ap + 4 * aq
    if p < 4 * q:
        return 4 * aq
    return 2 * ap - 4 * aq


@given(coprime_pairs())
@settings(max_examples=80, deadline=None)
def test_structure_properties(pq):
    p, q = pq
    r = build_res(p, q)
    poly = r.poly
    # palindromic and monic
    assert poly.substitute_inv().unit_equal(poly)
    if poly.span:
        assert poly[poly.maxdeg] == 1
    if p == 0 or p == 4 * q:
        assert r.is_degenerate
        return
    assert poly.span == 2 * max(abs(p - 2 * q), 2 * q)
    o1, om1 = r.trivial_orders
    assert nontrivial_root_bound(p, q) == poly.span - o1 - om1 == _bound_table(p, q)
    check_symmetries(r)


@pytest.mark.parametrize("q", range(1, 17))
def test_oracle_is_the_direct_determinant(q):
    # _oracle reads every p off q's one elimination (_bands); it must equal
    # the determinant eliminated at that p exactly, not up to units, also at
    # even, non-coprime and negative p and at p = 0, 2q and 4q
    for p in range(-4 * q - 9, 8 * q + 10):
        filling = [LaurentPoly({p: 1})] + [LaurentPoly()] * (q - 1) + [LaurentPoly({0: -1})]
        assert _oracle(p, q) == sylvester_resultant_t(list(_QUADRIC), filling), (p, q)


def test_wrong_convention_fails_identity():
    from whitenorm.respq import _closed_form, _oracle

    # y = -s^2 + 2 - s^-2 at 1/1: s^-1 + 2 T_1(y) + s = s^-1 + 2y + s
    wrong = LaurentPoly({2: -2, 1: 1, 0: 4, -1: 1, -2: -2})
    assert not wrong.unit_equal(_oracle(1, 1))
    assert _closed_form(1, 1).unit_equal(_oracle(1, 1))


def test_build_res_rejects_tampered_closed_form(monkeypatch):
    honest = respq._closed_form
    monkeypatch.setattr(respq, "_closed_form", lambda p, q: honest(p, q) + LaurentPoly({0: 1}))
    build_res.cache_clear()
    try:
        with pytest.raises(VerificationFailure, match="^closed form and Sylvester determinant disagree for \\(5, 1\\)"):
            build_res(5, 1)
    finally:
        build_res.cache_clear()


def test_dickson_bases():
    # D_q at w = -s^2 + 4 - s^-2
    w, two, three = respq._W, LaurentPoly({0: 2}), LaurentPoly({0: 3})
    assert w == LaurentPoly({2: -1, 0: 4, -2: -1})
    assert _dickson(0) == two
    assert _dickson(1) == w
    assert _dickson(2) == w * w - two
    assert _dickson(3) == w * w * w - three * w


def test_dickson_cosine_identity():
    # D_q(2 cosh psi) = 2 cosh(q psi), the hyperbolic side of
    # D_q(2 cos theta) = 2 cos(q theta): at s = e^(i phi),
    # w = 4 - s^2 - s^-2 = 4 - 2 cos(2 phi) = 2 cosh psi
    for q in range(13):
        dq = _dickson(q)
        for k in range(17):
            phi = 0.17 + 6.0 * k / 17
            s, psi = cmath.exp(1j * phi), math.acosh(2 - math.cos(2 * phi))
            terms = [c * s**e for e, c in dq.coeffs.items()]
            # the terms cancel near w = 2, so the bound scales with their sizes
            assert abs(sum(terms) - 2 * math.cosh(q * psi)) <= 1e-12 * sum(map(abs, terms))


def test_symmetry_checker_catches_tampering():
    import dataclasses

    good = build_res(5, 1)
    tampered = dataclasses.replace(good, poly=good.poly + LaurentPoly({1: 1}))
    with pytest.raises(VerificationFailure, match=r"^s -> 1/s invariance fails for \(5, 1\)$"):
        check_symmetries(tampered)
