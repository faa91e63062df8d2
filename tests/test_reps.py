import cmath
import dataclasses
import math

import pytest

from whitenorm.cxhp import HPComplex
from whitenorm.errors import CountMismatch, NoT, SingularPoint, ValidationError, VerificationFailure
from whitenorm.reps import (
    EigenTuple,
    GroupWord,
    Mat2,
    WORD_L0,
    WORD_REL_LHS,
    WORD_REL_RHS,
    _verify,
    all_prep_classes,
    count_prep_classes,
    discrete_faithful_filling_defect,
    discrete_faithful_matrices,
    eigenvariety_polys,
    inverse_eigenvalue_map,
    prep_to_partially_diagonal,
    reconstruct_prep,
    slice_f,
)
from whitenorm.roots import nontrivial_roots, resultant_roots

SQ2 = math.sqrt(2)


@pytest.fixture(scope="module")
def reducible_5_1():
    """all_prep_classes(5, 1)'s reducible entries: s = e^(2 pi i k/5) for
    k = 1, 2, each with both signs of the meridian trace."""
    return [pr for pr in all_prep_classes(5, 1) if pr.kind == "reducible"]


def test_word_normalization_and_identity():
    assert GroupWord.of().evaluate(Mat2(2, 0, 0, 0.5), Mat2(1, 0, 1, 1)) == Mat2.identity()
    w = GroupWord.of((0, 1), (0, -1), (1, 2))
    assert w.letters == ((1, 2),)
    with pytest.raises(ValidationError):
        GroupWord.of((0, 0))


def test_mat2_power_and_inverse():
    m = Mat2(2, 1, 0, 0.5)
    assert (m.power(3) @ m.power(-3) - Mat2.identity()).norm() < 1e-12
    assert m.power(0) == Mat2.identity() and m.power(1) == m and m.power(-1) == m.inverse_sl2()
    assert abs(m.inverse_sl2().det() - 1) < 1e-15


def test_longitude_spellings_agree_at_prep():
    pr = reconstruct_prep(SQ2 + 1, 1, 2, 1)
    assert pr.residuals["longitude_spellings"] < 1e-12


def test_longitude_identity_at_reducible(reducible_5_1):
    for pr in reducible_5_1:
        l0 = WORD_L0.evaluate(pr.m0, pr.m1)
        assert (l0 - Mat2.identity()).norm() < 1e-12


def test_slice_f_values():
    assert slice_f(2, 1, 0) == 0
    assert slice_f(1, 1, 1) == pytest.approx(5.0)
    with pytest.raises(ValidationError):
        slice_f(0, 1, 1)


def test_relator_difference_factors_through_slice_f():
    # the image of (lhs - rhs) of the relation at the normal form is the
    # fixed matrix [[-c, c(u^2-1)/u], [(s^2-1)/s, c]] times f(s, u, c);
    # this pins the 8-letter words and the slice polynomial jointly
    for s, u, c in [
        (1.7, 0.6, 0.9),
        (0.8, 1.9, -0.7),
        (1.3 + 0.2j, 0.8 - 0.1j, 0.4 + 0.7j),
        (0.7j, 1.1, 0.3 - 0.2j),
    ]:
        m0 = Mat2(s, c, 0, 1 / s)
        m1 = Mat2(u, 0, 1, 1 / u)
        diff = WORD_REL_LHS.evaluate(m0, m1) - WORD_REL_RHS.evaluate(m0, m1)
        f = slice_f(s, u, c)
        pred = Mat2(-c * f, c * (u * u - 1) / u * f, (s * s - 1) / s * f, c * f)
        assert (diff - pred).norm() <= 1e-12 * max(1.0, diff.norm())


def test_variety_polynomials_tie_together():
    # on u^2 = 1 the three full polynomials reduce to the three slice ones,
    # and the slice ones factor through the peripheral quadric
    from whitenorm.reps import peripheral_quadric_at

    for s, t, v in [(1.3 + 0.4j, 0.7 - 0.2j, -0.3 + 1.1j), (0.6, 2.0, 0.5), (2 + 1j, 0.3, 1.7 - 0.4j)]:
        for u in (1, -1):
            h1, h2, h3, g1, g2, g3 = eigenvariety_polys(EigenTuple(s, t, u, v))
            for h, g in ((h1, g1), (h2, g2), (h3, g3)):
                assert abs(h - g) < 1e-10 * (1 + abs(g))
            a, b, c0 = peripheral_quadric_at(s)
            k2 = a * t * t + b * t + c0
            assert abs(g1 - (t - 1) * k2) < 1e-10 * (1 + abs(k2))
    # at v = -1 the third slice polynomial is s^2 times the quadric
    s, t = 1.2 - 0.5j, 0.8 + 0.3j
    *_, g3 = eigenvariety_polys(EigenTuple(s, t, 1, -1))
    a, b, c0 = peripheral_quadric_at(s)
    assert abs(g3 - s * s * (a * t * t + b * t + c0)) < 1e-10


def test_eigenvariety_at_special_points():
    # complete-structure points: h1 = h2 = h3 = 0 at s^2 = u^2 = 1, t = v = -1
    for s in (1, -1):
        for u in (1, -1):
            h1, h2, h3, *_ = eigenvariety_polys(EigenTuple(s, -1, u, -1))
            assert max(abs(h1), abs(h2), abs(h3)) < 1e-12
    # reducible points: g1 = g2 = g3 = 0 at (s, 1, +-1, 1)
    for u in (1, -1):
        *_, g1, g2, g3 = eigenvariety_polys(EigenTuple(0.3 + 0.4j, 1, u, 1))
        assert max(abs(g1), abs(g2), abs(g3)) < 1e-12
    # a tuple off the variety leaves visible residue
    h = eigenvariety_polys(EigenTuple(1.3, 0.7, 0.9, 1.1))
    assert max(abs(x) for x in h[:3]) > 0.1


def test_solve_t():
    from whitenorm.reps import peripheral_quadric_at

    # at s = 1 + sqrt 2 the quadric branches collide (2/1); the branch is
    # chosen in fixed point, so t keeps its full double precision
    s = SQ2 + 1
    t = reconstruct_prep(s, 1, 2, 1).eigen.t
    assert t == pytest.approx(3 - 2 * SQ2, abs=1e-12)
    assert t == pytest.approx(s**-2, abs=1e-12)
    # s = 1 formal case: the quadric is (t + 1)^2, which forces t = -1
    assert peripheral_quadric_at(1) == (1, 2, 1)
    # conjugation symmetry
    rs = nontrivial_roots(resultant_roots(-1, 1))
    z = next(v for v in rs.values if v.imag > 0)
    t_z = reconstruct_prep(z, 1, -1, 1).eigen.t
    assert reconstruct_prep(z.conjugate(), 1, -1, 1).eigen.t == pytest.approx(t_z.conjugate())


def test_inverse_eigenvalue_map():
    s = 0.7 + 0.2j
    assert inverse_eigenvalue_map(EigenTuple(s, 1, 1, 1))[2] == 0
    t = reconstruct_prep(SQ2 + 1, 1, 2, 1).eigen.t
    _, _, c = inverse_eigenvalue_map(EigenTuple(SQ2 + 1, t, 1, -1))
    s0 = SQ2 + 1
    assert c == pytest.approx((s0 * s0 * (t - 1) + 2) * s0 / (s0 * s0 - 1), abs=1e-9)
    with pytest.raises(SingularPoint):
        inverse_eigenvalue_map(EigenTuple(1, 1, 1, 1))
    with pytest.raises(SingularPoint):
        inverse_eigenvalue_map(EigenTuple(0.5, 1, 0.5, 1))


def test_reconstruct_irreducible():
    pr = reconstruct_prep(SQ2 + 1, 1, 2, 1)
    assert pr.kind == "irreducible"
    assert pr.residuals["relator"] <= 1e-8
    assert pr.residuals["filling"] <= 1e-8
    assert pr.residuals["trace_mu1"] <= 1e-9
    assert pr.residuals["det"] <= 1e-10
    assert pr.residuals["trace_lambda1"] <= 1e-8
    # eigenvalue map entries: l0 and l1 upper-left entries are t and v = -1
    assert abs(pr.eigen.t - (3 - 2 * SQ2)) < 1e-9
    assert abs(pr.eigen.v + 1) < 1e-9


def test_reconstruct_both_signs():
    for sign in (1, -1):
        pr = reconstruct_prep(SQ2 + 1, sign, 2, 1)
        assert abs(pr.m1.trace() - 2 * sign) < 1e-9


def test_reconstruct_reducible(reducible_5_1):
    assert [(pr.sign_u, k) for pr in reducible_5_1 for k in (1, 2)
            if abs(pr.eigen.s - cmath.exp(2j * cmath.pi * k / 5)) < 1e-15] == [
        (1, 1), (-1, 1), (1, 2), (-1, 2)
    ]
    for pr in reducible_5_1:
        assert pr.residuals["filling"] <= 1e-8
        assert abs(pr.eigen.t - 1) < 1e-9


def test_det_gap_is_judged_by_det_one(reducible_5_1):
    # det rho(mu0) = 1 + eps: a gap of 1e-9 is below TOL.residual but above
    # TOL.det_one, the one threshold of the det residual
    pr = reducible_5_1[0]
    kind, s, t = pr.kind, HPComplex.from_complex(pr.eigen.s, 128), HPComplex.from_complex(pr.eigen.t, 128)
    one = HPComplex.from_int(1, 128)
    m1 = (one.re, 0, 0, 0, one.re, 0, one.re, 0)
    for eps, fails in ((1e-9, True), (1e-11, False)):
        d = one / s * (1 + eps)
        m0 = (s.re, s.im, 0, 0, 0, 0, d.re, d.im)
        if fails:
            with pytest.raises(VerificationFailure, match=r"over tolerance: \{'det': [^,]+\}$"):
                _verify(5, 1, kind, 1, s, t, m0, m1)
        else:
            assert abs(_verify(5, 1, kind, 1, s, t, m0, m1).residuals["det"] - eps) < 1e-13


def test_reconstruct_rejects_trivial_s():
    for s in (1.0, -1.0, 0.0):
        with pytest.raises(ValidationError):
            reconstruct_prep(s, 1, 5, 1)
    with pytest.raises(ValidationError):
        reconstruct_prep(SQ2 + 1, 2, 2, 1)
    # a point that is no root at all: either the quadric has no matching
    # branch (NoT) or the exact-root refinement guard trips
    with pytest.raises((ValidationError, NoT)):
        reconstruct_prep(3.7 + 0.1j, 1, 2, 1)


def test_discrete_faithful_points_do_not_fill():
    for s in (1, -1):
        for u in (1, -1):
            m0, m1, _ = discrete_faithful_matrices(s, u)
            rel = (WORD_REL_LHS.evaluate(m0, m1) - WORD_REL_RHS.evaluate(m0, m1)).norm()
            assert rel < 1e-12
            for p, q in [(5, 1), (-1, 1), (7, 2), (1, 1)]:
                assert discrete_faithful_filling_defect(p, q, s, u) > 1e-3


def test_character_pairing_s_and_inverse():
    words = [GroupWord.of((0, 1)), GroupWord.of((1, 1)), GroupWord.of((0, 1), (1, 1)), WORD_L0]
    for p, q in [(2, 1), (-1, 1), (5, 1)]:
        vals = nontrivial_roots(resultant_roots(p, q)).values
        z = vals[0]
        pa, pb = reconstruct_prep(z, 1, p, q), reconstruct_prep(1 / z, 1, p, q)
        for w in words:
            assert abs(pa.trace_of(w) - pb.trace_of(w)) < 1e-7


def test_count_prep_classes():
    assert (lambda c: (c.reducible, c.irreducible, c.total))(count_prep_classes(-1, 1)) == (0, 4, 4)
    assert (lambda c: (c.reducible, c.irreducible, c.total))(count_prep_classes(1, 1)) == (0, 2, 2)
    assert (lambda c: (c.reducible, c.irreducible, c.total))(count_prep_classes(5, 1)) == (4, 4, 8)
    with pytest.raises(ValidationError):
        count_prep_classes(4, 1)


def test_count_prep_classes_solves_no_root(monkeypatch):
    # 129/64 is beyond the root solve's range; its count is exact without it
    import whitenorm.roots as roots_mod

    def no_solve(*facts):
        raise AssertionError("count_prep_classes solved for roots")

    monkeypatch.setattr(roots_mod, "_solve", no_solve)
    assert count_prep_classes(129, 64).total == 382


def test_count_prep_classes_certifies_squarefree(monkeypatch):
    # the count is the degree of res's quotient after the +-1 split, which
    # it reads only once the squarefree test has certified it
    import whitenorm.laurent as laurent
    from whitenorm import respq

    tested = []
    squarefree = laurent._squarefree
    monkeypatch.setattr(laurent, "_squarefree", lambda c: tested.append(len(c) - 1) or squarefree(c))
    respq._refusal.cache_clear()
    assert count_prep_classes(129, 64).total == 382
    assert tested == [254]
    monkeypatch.setattr(laurent, "_squarefree", lambda c: False)
    respq._refusal.cache_clear()
    try:
        with pytest.raises(ValidationError, match="degree-254 polynomial .* not certified squarefree"):
            count_prep_classes(129, 64)
    finally:
        respq._refusal.cache_clear()  # drop the planted refusal


def test_count_prep_classes_checks_a_given_root_set():
    rs = resultant_roots(5, 1)
    assert count_prep_classes(5, 1, rootset=rs).irreducible == 4
    short = dataclasses.replace(rs, roots=tuple(r for r in rs if r.value != nontrivial_roots(rs).values[0]))
    with pytest.raises(CountMismatch, match="3 non-trivial roots in the root set, 4 exactly"):
        count_prep_classes(5, 1, rootset=short)


def test_all_prep_classes_5_1():
    classes = all_prep_classes(5, 1)
    assert len(classes) == 8
    kinds = sorted(pr.kind for pr in classes)
    assert kinds.count("reducible") == 4 and kinds.count("irreducible") == 4
    for pr in classes:
        assert abs(pr.m0.det() - 1) <= 1e-10 and abs(pr.m1.det() - 1) <= 1e-10


def test_all_prep_classes_lifts_each_class_once(monkeypatch):
    import whitenorm.reps as reps_mod

    calls = []
    refine = reps_mod._refine_on_int_poly

    def counting(value, z):
        calls.append(z.to_complex())
        return refine(value, z)

    monkeypatch.setattr(reps_mod, "_refine_on_int_poly", counting)
    classes = all_prep_classes(5, 1)
    # 2 irreducible + 2 reducible classes, each lifted once for both signs
    assert len(classes) == 8
    assert len(calls) == 4


def _class_bits(monkeypatch, p, q):
    """all_prep_classes(p, q) and the (s, fraction bits) of every build."""
    import whitenorm.reps as reps_mod

    seen = []
    verify = reps_mod._verify

    def spy(p, q, kind, sign_u, s, *rest):
        seen.append((s.to_complex(), s.bits))
        return verify(p, q, kind, sign_u, s, *rest)

    monkeypatch.setattr(reps_mod, "_verify", spy)
    return all_prep_classes(p, q), seen


@pytest.mark.parametrize("pq", [(5, 1), (-5, 3), (65, 3), (65, 16), (129, 32)])
def test_each_class_runs_at_its_filling_bound(monkeypatch, pq):
    import whitenorm.reps as reps_mod

    p, q = pq
    classes, seen = _class_bits(monkeypatch, p, q)
    assert len(seen) == len(classes) == count_prep_classes(p, q).total
    for s, bits in seen:
        assert bits % 64 == 0
        assert bits >= 2 * abs(p) * abs(math.log2(abs(s))) + reps_mod._GUARD


def test_all_prep_classes_129_32():
    # 2 * 129 * |log2 0.138| = 737 of the flat 768 bits went to the filling
    # check's amplification there, and its residual was 1.8e-6
    assert len(all_prep_classes(129, 32)) == 256


def test_precision_below_the_bound_fails_verification(monkeypatch):
    import whitenorm.reps as reps_mod

    # the class of 65/16 with |s| = 5.39 amplifies by 2^316: at 256 bits
    # (guard -64) the filling residual is far over tolerance, not passed
    s = max(nontrivial_roots(resultant_roots(65, 16)).values, key=abs)
    assert reconstruct_prep(s, 1, 65, 16).residuals["filling"] <= 1e-30
    monkeypatch.setattr(reps_mod, "_GUARD", -64)
    with pytest.raises(VerificationFailure, match="'filling'"):
        reconstruct_prep(s, 1, 65, 16)


def test_reducible_lifts_square_instead_of_horner(monkeypatch):
    import whitenorm.reps as reps_mod

    calls = []
    horner = reps_mod.hp_horner

    def spy(coeffs, z, bits):
        calls.append(len(coeffs))
        return horner(coeffs, z, bits)

    monkeypatch.setattr(reps_mod, "hp_horner", spy)
    for k in range(1, 33):
        s, t = reps_mod._lift_unity(k, 65)
        assert (s.bits, t.bits) == (128, 128)
        assert abs(s.to_complex() - cmath.exp(2j * cmath.pi * k / 65)) < 1e-15
    assert calls == []
    # the irreducible lifts still evaluate res by Horner
    assert len(all_prep_classes(5, 1)) == 8
    assert calls


def test_all_prep_classes_builds_res_once(monkeypatch):
    import whitenorm.reps as reps_mod
    import whitenorm.roots as roots_mod

    calls = []
    build = reps_mod.build_res

    def counting(p, q):
        calls.append((p, q))
        return build(p, q)

    # the root solve and every irreducible lift share one res_{p,q}; the
    # class count looks it up once more, for its squarefree certificate
    monkeypatch.setattr(reps_mod, "build_res", counting)
    monkeypatch.setattr(roots_mod, "build_res", counting)
    classes = all_prep_classes(65, 16)
    assert calls == [(65, 16), (65, 16)]
    assert len(classes) == 128  # the minimal norm 3p - 4q - 3


def test_prep_to_partially_diagonal_roundtrip():
    # in the slice m0 = diag(s, 1/s), m1 parabolic with corner entry a, the
    # trace +2 relation deflates to -(s^2-1)^2 a^2 + (s^2-1)(s^2-3) a - 2 and
    # the longitude eigenvalue is t = a/(2-a); the trace -2 slice maps onto
    # it by the central twist m1 -> -m1, i.e. a -> -a
    for sign in (1, -1):
        pr = reconstruct_prep(SQ2 + 1, sign, 2, 1)
        s, a, got_sign = prep_to_partially_diagonal(pr)
        assert got_sign == sign
        a *= sign
        s2 = s * s
        assert abs(-((s2 - 1) ** 2) * a * a + (s2 - 1) * (s2 - 3) * a - 2) <= 1e-8
        t = a / (2 - a)
        assert abs(s2 * t - 1) <= 1e-8  # the 2/1 filling: s^2 t = 1
        assert t == pytest.approx(pr.eigen.t, abs=1e-8)
