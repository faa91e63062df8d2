import cmath
import dataclasses
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from whitenorm.cxhp import HPComplex, hp, hp_float, hp_matmul, hp_matpow
from whitenorm.errors import ScopeError, ValidationError, VerificationFailure
from whitenorm.reps import (
    GroupWord,
    WORD_L0,
    WORD_REL_LHS,
    WORD_REL_RHS,
    _build,
    _lift,
    _verify,
    all_prep_classes,
    count_prep_classes,
)
from whitenorm.roots import Root, RootFlags, nontrivial_roots, resultant_roots
from whitenorm.verify import suite_preps

SQ2 = math.sqrt(2)


def _quadric(s, t):
    """s^4 t^2 + (-s^4 + 4 s^2 - 1) t + 1, the t-quadric of the eigenvalue
    variety at u^2 = 1, v = -1, for Fraction, complex or HPComplex s
    and t."""
    s2 = s * s
    s4 = s2 * s2
    return s4 * t * t + (4 * s2 - s4 - 1) * t + 1


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix over any ring: Fraction, complex or HPComplex entries.
    The reference arithmetic of the identities below; the package computes
    in cxhp's fixed-point kernel alone, whose hp_matmul and hp_matpow make
    the products of __matmul__ and power (tests/test_cxhp.py)."""

    a: object
    b: object
    c: object
    d: object

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inverse_sl2(self) -> "Mat2":
        # the inverse for det = 1
        return Mat2(self.d, -self.b, -self.c, self.a)

    def power(self, n: int) -> "Mat2":
        # starts from the first factor and stops squaring after the top bit
        base = self if n >= 0 else self.inverse_sl2()
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else out @ base
            n >>= 1
            if n:
                base = base @ base
        return Mat2.identity() if out is None else out


def _at(word, m0, m1):
    """The word at Mat2 generators."""
    return word.evaluate(m0, m1, Mat2.__matmul__, Mat2.power)


def _mat(m, bits):
    """A fixed-point matrix of a class (PRep.m0, m1, l0) as a Mat2 of
    doubles."""
    return Mat2(*(hp_float(m[i : i + 2], bits) for i in (0, 2, 4, 6)))


def _trace(pr, word):
    """The trace of a word at a class, in fixed point at its bits, as a
    double."""
    mul, power = partial(hp_matmul, bits=pr.bits), partial(hp_matpow, bits=pr.bits)
    return _mat(word.evaluate(pr.m0, pr.m1, mul, power), pr.bits).trace()


def inverse_eigenvalue_map(s, t, u, v):
    """The normal form's off-diagonal parameter c at peripheral eigenvalues
    (s, t, u, v): m0 = [[s, c], [0, 1/s]] and m1 = [[u, 0], [1, u]] put l0's
    and l1's upper-left entries at t and v.  Undefined at s = +-1 and
    s^2 = u^2.  reps._build computes it at u = +-1, v = -1 inline, in the
    same operations."""
    return (s * s * (t - 1) + u * u * (1 - v)) / ((s * s - u * u) / (s * u))


# The eigenvalue variety and the normal-form slice, as references: the
# package checks neither, since at every class it builds (u = +-1, v = -1)
# both are exact multiples of the relator residual, which reps._verify
# thresholds.  The tests below prove those identities.


def slice_f(s, u, c):
    """Defining polynomial of the normal-form slice of the representation
    variety; cubic in the off-diagonal parameter c.  Exact at Fraction
    arguments (1 / u with an int u is a float)."""
    si, ui = 1 / s, 1 / u
    return (
        (s - si) * (u - ui)
        + c * (si * si * ui * ui - ui * ui - si * si + 4 - s * s - u * u + s * s * u * u)
        + c * c * (2 * si * ui - s * ui - si * u + 2 * s * u)
        + c * c * c
    )


def eigenvariety_polys(s, t, u, v):
    """The three defining polynomials h1, h2, h3 of the eigenvalue variety at
    peripheral eigenvalues (s, t, u, v), plus their simplifications g1, g2,
    g3 on the slice u^2 = 1.  u enters only as u^2."""
    s2 = s * s
    s4 = s2 * s2
    s6 = s4 * s2
    t2, t3 = t * t, t * t * t
    u2 = u * u
    u4, u6 = u2 * u2, u2 * u2 * u2
    v2, v3 = v * v, v * v * v
    h1 = (
        t - s2 * t + s2 * t2 - s4 * t2 - u2 - 2 * s2 * t * u2 + s4 * t * u2
        - t2 * u2 + 2 * s2 * t2 * u2 + s4 * t3 * u2 + t * u4 - s2 * t * u4
        + s2 * t2 * u4 - s4 * t2 * u4
    )
    h2 = (
        s2 - v - s4 * v + u2 * v + 2 * s2 * u2 * v + s4 * u2 * v - s2 * u4 * v
        + s2 * v2 - u2 * v2 - 2 * s2 * u2 * v2 - s4 * u2 * v2 + u4 * v2
        + s4 * u4 * v2 - s2 * u4 * v3
    )
    h3 = (
        s4 * t - s6 * t - s2 * t * u2 + s4 * t * u2 + s6 * t2 * u2 - s2 * u2 * v
        + u4 * v + s2 * u4 * v - 2 * s4 * t * u4 * v - u6 * v + s2 * u6 * v2
    )
    g1 = (t - 1) * (t * (t - 1) * s4 + 4 * t * s2 + (1 - t))
    g2 = s2 * (1 - v) * (v + 1) * (v + 1)
    g3 = s2 * (t * (t - 1) * s4 + 2 * t * (1 - v) * s2 + (v2 - t))
    return h1, h2, h3, g1, g2, g3


def discrete_faithful_matrices(s, u):
    """The four-fold family of representations at s = +-1, u = +-1 attached
    to the complete structure of the unfilled exterior: the images of m0,
    m1, and the longitude word l0, on Gaussian-integer entries."""
    m0 = Mat2(s, -s * u + 1j, 0, s)
    m1 = Mat2(u, 0, 1, u)
    return m0, m1, _at(WORD_L0, m0, m1)


def discrete_faithful_filling_defect(p, q, s, u):
    """The largest entry of m0^p l0^q - I at the faithful point (s, u)."""
    m0, _, l0 = discrete_faithful_matrices(s, u)
    return _gap(m0.power(p) @ l0.power(q), Mat2.identity())


def _gap(x, y):
    """The largest entry of x - y, for 2x2 matrices."""
    return max(abs(a - b) for a, b in zip(dataclasses.astuple(x), dataclasses.astuple(y)))


def _grid(n):
    """n distinct Fractions, none of them 0 or +-1."""
    return [Fraction(2 * k + 1, 2) for k in range(n)]


def _reconstruct(s, sign_u, p, q):
    """The verified irreducible representation at the non-trivial root of
    res_{p,q} nearest s, with meridian trace 2 sign_u: the one-class slice
    of all_prep_classes."""
    root = min(nontrivial_roots(resultant_roots(p, q)), key=lambda r: abs(r.value - s))
    return _build(p, q, "irreducible", *_lift(root, p, q), signs=(sign_u,))[0]


def _planted(s, radius=0.0, bits=128):
    """A Root at s, which no solve certified, its centre at `bits`."""
    return Root(s, 1, RootFlags(False, False, False, False), radius, hp(s, bits), bits)


@pytest.fixture(scope="module")
def reducible_5_1():
    """all_prep_classes(5, 1)'s reducible entries: s = e^(2 pi i k/5) for
    k = 1, 2, each with both signs of the meridian trace."""
    return [pr for pr in all_prep_classes(5, 1) if pr.kind == "reducible"]


def test_word_normalization_and_identity():
    assert _at(GroupWord.of(), Mat2(2, 0, 0, 0.5), Mat2(1, 0, 1, 1)) == Mat2.identity()
    bits = 128
    m = (1 << bits, 0, 3 << bits, 0, 0, 0, 1 << bits, 0)
    mul, power = partial(hp_matmul, bits=bits), partial(hp_matpow, bits=bits)
    assert GroupWord.of().evaluate(m, m, mul, power) == (1 << bits, 0, 0, 0, 0, 0, 1 << bits, 0)
    w = GroupWord.of((0, 1), (0, -1), (1, 2))
    assert w.letters == ((1, 2),)
    with pytest.raises(ValidationError):
        GroupWord.of((0, 0))


def test_mat2_power_and_inverse():
    m = Mat2(2, 1, 0, 0.5)
    assert _gap(m.power(3) @ m.power(-3), Mat2.identity()) < 1e-12
    assert m.power(0) == Mat2.identity() and m.power(1) == m and m.power(-1) == m.inverse_sl2()
    assert abs(m.inverse_sl2().det() - 1) < 1e-15


def test_longitude_spellings_agree_at_prep():
    pr = _reconstruct(SQ2 + 1, 1, 2, 1)
    assert pr.residuals["longitude_spellings"] < 1e-12


def test_longitude_identity_at_reducible(reducible_5_1):
    # the l0 a class carries is the one _verify evaluated
    mul, power = partial(hp_matmul, bits=128), partial(hp_matpow, bits=128)
    for pr in reducible_5_1:
        assert pr.bits == 128 and pr.l0 == WORD_L0.evaluate(pr.m0, pr.m1, mul, power)
        assert _gap(_mat(pr.l0, pr.bits), Mat2.identity()) < 1e-12


def test_slice_f_values():
    one = Fraction(1)
    assert slice_f(Fraction(2), one, Fraction(0)) == 0
    assert slice_f(one, one, one) == 5


def test_relator_difference_factors_through_slice_f():
    # the image of (lhs - rhs) of the relation at the normal form is the
    # fixed matrix [[-c, c(u^2-1)/u], [(s^2-1)/s, c]] times f(s, u, c);
    # this pins the 8-letter words and the slice polynomial jointly.  Each
    # word has four letters m0^+-1, whose entries are s, c, 1/s or s, -c,
    # 1/s, and four m1^+-1, of entries u, 1, 1/u: its entries are Laurent
    # in s and u of exponents in [-4, 4] and of degree <= 4 in c, and so
    # are the predicted ones.  So s^4 u^4 times the difference has degree
    # <= 8 in s and in u and <= 4 in c, and zero on a 9 x 9 x 5 grid it is
    # zero
    for s, u, c in product(_grid(9), _grid(9), _grid(5)):
        m0, m1 = Mat2(s, c, 0, 1 / s), Mat2(u, 0, 1, 1 / u)
        lhs, rhs = _at(WORD_REL_LHS, m0, m1), _at(WORD_REL_RHS, m0, m1)
        f = slice_f(s, u, c)
        pred = (-c * f, c * (u * u - 1) / u * f, (s * s - 1) / s * f, c * f)
        assert [x - y for x, y in zip(dataclasses.astuple(lhs), dataclasses.astuple(rhs))] == list(pred)


def test_variety_polynomials_tie_together():
    # on u^2 = 1 the three full polynomials reduce to the three slice ones
    # for every s, t, v: h - g has degree <= 6 in s, <= 3 in t and <= 3 in
    # v, so zero on a 7 x 4 x 4 grid it is zero
    for s, t, v in product(_grid(7), _grid(4), _grid(4)):
        for u in (1, -1):
            h1, h2, h3, g1, g2, g3 = eigenvariety_polys(s, t, u, v)
            assert (h1, h2, h3) == (g1, g2, g3)
    # the slice ones factor through the peripheral quadric Q: g1 = (t - 1) Q
    # for every v, and at v = -1, g2 = 0 and g3 = s^2 Q.  Each difference has
    # degree <= 6 in s and <= 3 in t: a 7 x 4 grid proves it
    for s, t in product(_grid(7), _grid(4)):
        *_, g1, g2, g3 = eigenvariety_polys(s, t, 1, -1)
        assert (g1, g2, g3) == ((t - 1) * _quadric(s, t), 0, s * s * _quadric(s, t))


def test_slice_f_is_the_quadric_at_the_classes():
    # at u = +-1 and v = -1 the inverse map gives c = s u (s^2 t - s^2 + 2)
    # / (s^2 - 1): c (s^2 - 1) has degree <= 3 in s and <= 1 in t by its
    # formula, so a 4 x 2 grid proves it
    for s, t in product(_grid(4), _grid(2)):
        for u in (Fraction(1), Fraction(-1)):
            c = inverse_eigenvalue_map(s, t, u, Fraction(-1))
            assert c * (s * s - 1) == s * u * (s * s * t - s * s + 2)
    # and there f(s, u, c) = c s^2 Q / (s^2 - 1)^2: times s^2 (s^2 - 1)^3, the
    # difference is a polynomial of degree <= 11 in s and <= 3 in t (c^3
    # gives s^5 u N^3 with N = s^2 t - s^2 + 2), so a 12 x 4 grid proves it.
    # With the relator's factorization: at a class (s^2 != 1, c != 0) the
    # relator holds exactly where Q, f and every h and g vanish
    for s, t in product(_grid(12), _grid(4)):
        for u in (Fraction(1), Fraction(-1)):
            c = s * u * (s * s * t - s * s + 2) / (s * s - 1)
            assert slice_f(s, u, c) == c * s * s * _quadric(s, t) / (s * s - 1) ** 2


def test_a_class_at_c_zero_misses_v():
    # c = 0 would make the normal form reducible, where l1's upper-left
    # entry is 1, not v = -1: v_entry fails it by 2, so an irreducible class
    # passes only with c != 0
    one = HPComplex.from_int(1, 128)
    s, t = HPComplex.from_complex(0.378 - 0.441j, 128), HPComplex.from_complex(0.3 + 0.1j, 128)
    s_inv = one / s
    m0 = (s.re, s.im, 0, 0, 0, 0, s_inv.re, s_inv.im)
    m1 = (one.re, 0, 0, 0, one.re, 0, one.re, 0)
    with pytest.raises(VerificationFailure, match="'v_entry': 2.0"):
        _verify(5, 1, "irreducible", 1, s, t, m0, m1)


def test_eigenvariety_at_special_points():
    # complete-structure points: h1 = h2 = h3 = 0 at s^2 = u^2 = 1, t = v = -1
    for s in (1, -1):
        for u in (1, -1):
            assert eigenvariety_polys(s, -1, u, -1)[:3] == (0, 0, 0)
    # reducible points: g1 = g2 = g3 = 0 at (s, 1, +-1, 1)
    for u in (1, -1):
        assert eigenvariety_polys(Fraction(3, 5), 1, u, 1)[3:] == (0, 0, 0)
    # a tuple off the variety leaves visible residue
    h = eigenvariety_polys(Fraction(13, 10), Fraction(7, 10), Fraction(9, 10), Fraction(11, 10))
    assert max(abs(x) for x in h[:3]) > Fraction(1, 10)


def test_solve_t(monkeypatch):
    # at 2/1 (m = 0) the quadric branches collide at every root: s^2 t = 1,
    # and a real s gives a t whose imaginary part is exactly 0.0
    s = SQ2 + 1
    t = _reconstruct(s, 1, 2, 1).eigen.t
    assert t == pytest.approx(3 - 2 * SQ2, abs=1e-12)
    assert t == pytest.approx(s**-2, abs=1e-12)
    _, lifts = _lifts(monkeypatch, 2, 1)
    assert len(lifts) == 4  # two classes up to s ~ 1/s, both signs
    for _, s_hp, t_hp, *_ in lifts:
        assert s_hp.im == t_hp.im == 0
        assert t_hp.to_complex() == pytest.approx(s_hp.to_complex() ** -2, abs=1e-12)
    # s = 1 formal case: the quadric is (t + 1)^2, which forces t = -1
    assert _quadric(1, -1) == 0 and _quadric(1, -1 + 1e-3) != 0
    # conjugation symmetry
    rs = nontrivial_roots(resultant_roots(-1, 1))
    z = next(v for v in rs.values if v.imag > 0)
    t_z = _reconstruct(z, 1, -1, 1).eigen.t
    assert _reconstruct(z.conjugate(), 1, -1, 1).eigen.t == pytest.approx(t_z.conjugate())


def test_inverse_eigenvalue_map(monkeypatch):
    # c = 0 at t = v = 1, the reducible classes; undefined at s = +-1 and at
    # s^2 = u^2
    half, one = Fraction(1, 2), Fraction(1)
    assert inverse_eigenvalue_map(Fraction(7, 10), one, one, one) == 0
    for s, u in [(one, one), (-one, one), (half, half), (half, -half)]:
        with pytest.raises(ZeroDivisionError):
            inverse_eigenvalue_map(s, one, u, one)
    # _build's c is the map's at (s, t, u, -1), to the last bit of the
    # class's fixed point
    for p, q in [(2, 1), (5, 1), (65, 16)]:
        with monkeypatch.context() as patch:
            _, seen = _lifts(patch, p, q)
        irreducible = [x[1:] for x in seen if x[0] == "irreducible"]
        assert len(irreducible) == count_prep_classes(p, q).irreducible
        for s, t, sign_u, m0 in irreducible:
            c = inverse_eigenvalue_map(s, t, HPComplex.from_int(sign_u, s.bits), -1)
            assert m0[2:4] == (c.re, c.im)


def test_reconstruct_irreducible():
    pr = _reconstruct(SQ2 + 1, 1, 2, 1)
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
        pr = _reconstruct(SQ2 + 1, sign, 2, 1)
        assert abs(_mat(pr.m1, pr.bits).trace() - 2 * sign) < 1e-9


def test_reconstruct_reducible(reducible_5_1):
    assert [(pr.sign_u, k) for pr in reducible_5_1 for k in (1, 2)
            if abs(pr.eigen.s - cmath.exp(2j * cmath.pi * k / 5)) < 1e-15] == [
        (1, 1), (-1, 1), (1, 2), (-1, 2)
    ]
    for pr in reducible_5_1:
        assert pr.residuals["filling"] <= 1e-8
        assert abs(pr.eigen.t - 1) < 1e-9


def test_det_gap_is_judged_by_the_residual_bound(reducible_5_1):
    # det rho(mu0) = 1 + eps: a gap of 1e-9 is above the one bound of every
    # residual, 1e-10, and one of 1e-11 below it.  The gap moves the
    # longitude and filling residuals too, by a few eps
    pr = reducible_5_1[0]
    kind, s, t = pr.kind, HPComplex.from_complex(pr.eigen.s, 128), HPComplex.from_complex(pr.eigen.t, 128)
    one = HPComplex.from_int(1, 128)
    m1 = (one.re, 0, 0, 0, one.re, 0, one.re, 0)
    for eps, fails in ((1e-9, True), (1e-11, False)):
        d = one / s * HPComplex.from_complex(1 + eps, 128)
        m0 = (s.re, s.im, 0, 0, 0, 0, d.re, d.im)
        if fails:
            with pytest.raises(VerificationFailure, match=r"'det': 1\.0000000\d*e-09"):
                _verify(5, 1, kind, 1, s, t, m0, m1)
        else:
            assert abs(_verify(5, 1, kind, 1, s, t, m0, m1).residuals["det"] - eps) < 1e-13


def test_relator_gap_is_judged_by_the_residual_bound(reducible_5_1):
    # at a reducible class (t = 1, u = 1), c != 0 moves the relator by
    # 2 |s - 1/s| |c| (the slice polynomial is f = 2c + O(c^2) there): a gap
    # of 1e-9 is over the bound
    pr = reducible_5_1[0]
    s = HPComplex.from_complex(pr.eigen.s, 128)
    one = HPComplex.from_int(1, 128)
    s_inv = one / s
    c = HPComplex.from_complex(1e-9 / (2 * abs(pr.eigen.s - 1 / pr.eigen.s)), 128)
    m0 = (s.re, s.im, c.re, c.im, 0, 0, s_inv.re, s_inv.im)
    m1 = (one.re, 0, 0, 0, one.re, 0, one.re, 0)
    with pytest.raises(VerificationFailure) as info:
        _verify(5, 1, "reducible", 1, s, one, m0, m1)
    relator = float(re.search(r"'relator': ([^,}]+)", str(info.value)).group(1))
    assert relator == pytest.approx(1e-9, rel=1e-6)


def test_reconstruct_refuses_what_has_no_root():
    # the lift refines s on res's closed form from its disc's centre and
    # refuses to end outside the disc
    for s, p, q in [(3.7 + 0.1j, 2, 1), (0.5 + 0.2j, 5, 1)]:
        with pytest.raises(VerificationFailure, match="left its root's disc"):
            _lift(_planted(s, 2.0**-100), p, q)


def test_lift_divides_by_a_zero_derivative():
    # res is palindromic, so res'(1) = 0: the lift from s = 1 divides by
    # zero instead of returning its start
    with pytest.raises(ZeroDivisionError):
        _lift(_planted(1 + 0j), 5, 1)
    exact = Root(1 + 0j, 1, RootFlags(True, True, False, True), 0.0, (1, 0), 0)
    with pytest.raises(ZeroDivisionError):
        _lift(exact, 5, 1)


def test_discrete_faithful_points_do_not_fill():
    # with U(x) = [[1, x], [0, 1]], m0 = s U(-u + is) and l0 = -U(4u) at the
    # four faithful points, where the relation holds exactly, so
    # m0^p l0^q = s^p (-1)^q U(u(4q - p) + ips) for every p and q
    def unipotent(k, x):
        return Mat2(k, k * x, 0, k)

    for s, u in product((1, -1), (1, -1)):
        m0, m1, l0 = discrete_faithful_matrices(s, u)
        assert m0 == unipotent(s, -u + s * 1j) and l0 == unipotent(-1, 4 * u)
        assert _at(WORD_REL_LHS, m0, m1) == _at(WORD_REL_RHS, m0, m1)
        for p, q in product(range(-40, 41), range(1, 13)):
            k = s**p * (-1) ** q
            assert m0.power(p) @ l0.power(q) == unipotent(k, u * (4 * q - p) + 1j * p * s)
    # so the corner is the defect at all four points, to the last bit, and
    # it is all the preps suite computes
    for p, q in [(5, 1), (-1, 1), (7, 2), (1, 1), (65, 16), (-129, 8)]:
        defects = {discrete_faithful_filling_defect(p, q, s, u) for s in (1, -1) for u in (1, -1)}
        assert defects == {abs(complex(4 * q - p, p))}
        assert defects.pop() >= 2 * math.sqrt(2) * q
    assert "faithful defect 5.1e+00," in suite_preps(5, 1)


def test_character_pairing_s_and_inverse():
    words = [GroupWord.of((0, 1)), GroupWord.of((1, 1)), GroupWord.of((0, 1), (1, 1)), WORD_L0]
    for p, q in [(2, 1), (-1, 1), (5, 1)]:
        vals = nontrivial_roots(resultant_roots(p, q)).values
        z = vals[0]
        pa, pb = _reconstruct(z, 1, p, q), _reconstruct(1 / z, 1, p, q)
        for w in words:
            assert abs(_trace(pa, w) - _trace(pb, w)) < 1e-7


def test_count_prep_classes():
    assert (lambda c: (c.reducible, c.irreducible, c.total))(count_prep_classes(-1, 1)) == (0, 4, 4)
    assert (lambda c: (c.reducible, c.irreducible, c.total))(count_prep_classes(1, 1)) == (0, 2, 2)
    assert (lambda c: (c.reducible, c.irreducible, c.total))(count_prep_classes(5, 1)) == (4, 4, 8)
    with pytest.raises(ScopeError, match="^characterization polynomial is a unit: no irreducible classes$"):
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
    with pytest.raises(VerificationFailure, match="3 non-trivial roots in the root set, 4 exactly"):
        count_prep_classes(5, 1, rootset=short)


def test_all_prep_classes_5_1():
    classes = all_prep_classes(5, 1)
    assert len(classes) == 8
    kinds = sorted(pr.kind for pr in classes)
    assert kinds.count("reducible") == 4 and kinds.count("irreducible") == 4
    for pr in classes:
        assert abs(_mat(pr.m0, pr.bits).det() - 1) <= 1e-10
        assert abs(_mat(pr.m1, pr.bits).det() - 1) <= 1e-10


def test_all_prep_classes_lifts_each_class_once(monkeypatch):
    import whitenorm.reps as reps_mod

    calls = []
    newton = reps_mod._newton

    def counting(value, z, good):
        calls.append(z.to_complex())
        return newton(value, z, good)

    monkeypatch.setattr(reps_mod, "_newton", counting)
    classes = all_prep_classes(5, 1)
    # 2 irreducible + 2 reducible classes, each lifted once for both signs
    assert len(classes) == 8
    assert len(calls) == 4


def test_each_lift_makes_its_planned_steps(monkeypatch):
    # from a start good to g bits, Newton doubles the good bits each step:
    # ceil(log2(2 bits / g)) evaluations reach twice the class's bits
    import whitenorm.reps as reps_mod

    counts = []
    newton = reps_mod._newton

    def counting(value, z, good):
        calls = []
        out = newton(lambda w: calls.append(w) or value(w), z, good)
        counts.append((len(calls), math.ceil(math.log2(2 * z.bits / good))))
        return out

    monkeypatch.setattr(reps_mod, "_newton", counting)
    assert len(all_prep_classes(65, 3)) == 180
    assert len(counts) == 90
    assert all(made == planned < 10 for made, planned in counts)
    # the loop with a 10-step cap made 359, 11 lifts running all 10
    assert sum(made for made, _ in counts) < 359


def _lifts(monkeypatch, p, q):
    """all_prep_classes(p, q) and the fixed-point (kind, s, t, sign_u, m0)
    of every build."""
    import whitenorm.reps as reps_mod

    seen = []
    verify = reps_mod._verify

    def spy(p, q, kind, sign_u, s, t, m0, m1):
        seen.append((kind, s, t, sign_u, m0))
        return verify(p, q, kind, sign_u, s, t, m0, m1)

    monkeypatch.setattr(reps_mod, "_verify", spy)
    return all_prep_classes(p, q), seen


@pytest.mark.parametrize("pq", [(5, 1), (-5, 3), (65, 3), (65, 16), (129, 32)])
def test_each_class_runs_at_its_filling_bound(monkeypatch, pq):
    import whitenorm.reps as reps_mod

    p, q = pq
    classes, seen = _lifts(monkeypatch, p, q)
    assert len(seen) == len(classes) == count_prep_classes(p, q).total
    for _, s, *_ in seen:
        assert s.bits % 64 == 0
        assert s.bits >= 2 * abs(p) * abs(math.log2(abs(s.to_complex()))) + reps_mod._GUARD


@pytest.mark.parametrize("pq", [(5, 1), (-5, 3), (65, 3), (65, 16)])
def test_closed_form_t_is_on_the_quadric(monkeypatch, pq):
    # t is read off res's closed form, which puts it on the quadric only at
    # an exact root: within 2^16 units of the class's last bit, relative to
    # the quadric's largest term
    _, seen = _lifts(monkeypatch, *pq)
    irreducible = [(s, t) for kind, s, t, *_ in seen if kind == "irreducible"]
    assert len(irreducible) == count_prep_classes(*pq).irreducible
    for s, t in irreducible:
        scale = max(abs(s * s * s * s * t * t), abs(s * s * s * s * t), 1.0)
        assert abs(_quadric(s, t)) <= math.ldexp(scale, 16 - s.bits)


def test_closed_form_pieces_match_res():
    # respq._closed_form_hp's pieces against the Laurent polynomials respq
    # builds, and build_res certifies, summed term by term in doubles
    from whitenorm.respq import _closed_form, _closed_form_hp, _dickson

    def at(poly, z, derivative=False):
        terms = [c * (e * z ** (e - 1) if derivative else z**e) for e, c in poly.coeffs.items()]
        return sum(terms), sum(map(abs, terms))

    for p, q in [(5, 1), (-5, 3), (2, 1), (7, 2), (65, 16)]:
        sign = 1 if q % 2 else -1
        for z in (0.7 + 0.4j, 1.3 - 0.6j, -0.5 - 1.2j):
            zm, zm_inv, w, d, dd = (
                v.to_complex() for v in _closed_form_hp(HPComplex.from_complex(z, 256), p - 2 * q, q)
            )
            assert zm == pytest.approx(z ** (p - 2 * q), rel=1e-12)
            assert zm_inv == pytest.approx(z ** (2 * q - p), rel=1e-12)
            assert w == pytest.approx(4 - z * z - z**-2, rel=1e-12)
            for got, (want, scale) in [
                (zm + zm_inv + sign * d, at(_closed_form(p, q), z)),
                (d, at(_dickson(q), z)),
                (dd * 2 * (z**-3 - z), at(_dickson(q), z, derivative=True)),  # dD/dz
            ]:
                assert abs(got - want) <= 1e-12 * scale


def test_lift_reaches_the_class_precision():
    # t is on the quadric only at an exact root: lifted by dense Horner on
    # res instead of the closed form, 33/16's worst residual is 2.5e-30
    worst = max(r for pr in all_prep_classes(33, 16) for r in pr.residuals.values())
    assert worst <= 1e-33


def test_all_prep_classes_129_32():
    # 2 * 129 * |log2 0.138| = 737 of the flat 768 bits went to the filling
    # check's amplification there, and its residual was 1.8e-6
    assert len(all_prep_classes(129, 32)) == 256


def test_precision_below_the_bound_fails_verification(monkeypatch):
    import whitenorm.reps as reps_mod

    # the class of 65/16 with |s| = 5.39 amplifies by 2^316: at 256 bits
    # (guard -64) the filling residual is far over tolerance, not passed
    s = max(nontrivial_roots(resultant_roots(65, 16)).values, key=abs)
    assert _reconstruct(s, 1, 65, 16).residuals["filling"] <= 1e-30
    monkeypatch.setattr(reps_mod, "_GUARD", -64)
    with pytest.raises(VerificationFailure, match="'filling'"):
        _reconstruct(s, 1, 65, 16)


def test_reconstruction_makes_no_horner_call(monkeypatch):
    import whitenorm.cxhp as cxhp
    import whitenorm.reps as reps_mod
    import whitenorm.roots as roots_mod

    for p, q in [(5, 1), (65, 16)]:
        resultant_roots(p, q)  # the root solve alone evaluates by Horner
    calls = []
    horner = cxhp.hp_horner

    def spy(coeffs, z, bits):
        calls.append(len(coeffs))
        return horner(coeffs, z, bits)

    monkeypatch.setattr(cxhp, "hp_horner", spy)
    monkeypatch.setattr(roots_mod, "hp_horner", spy)
    for k in range(1, 33):
        s, t = reps_mod._lift_unity(k, 65)
        assert (s.bits, t.bits) == (128, 128)
        assert abs(s.to_complex() - cmath.exp(2j * cmath.pi * k / 65)) < 1e-15
    # the irreducible lifts evaluate res's closed form, not its dense form
    assert len(all_prep_classes(5, 1)) == 8
    assert len(all_prep_classes(65, 16)) == 128
    assert calls == []


def test_all_prep_classes_builds_res_once(monkeypatch):
    import whitenorm.reps as reps_mod
    import whitenorm.roots as roots_mod

    calls = []
    build = reps_mod.build_res

    def counting(p, q):
        calls.append((p, q))
        return build(p, q)

    # the root solve reads res_{p,q} once, and the class count looks it up
    # once more, for its squarefree certificate; the lifts read none
    monkeypatch.setattr(reps_mod, "build_res", counting)
    monkeypatch.setattr(roots_mod, "build_res", counting)
    classes = all_prep_classes(65, 16)
    assert calls == [(65, 16), (65, 16)]
    assert len(classes) == 128  # the minimal norm 3p - 4q - 3
