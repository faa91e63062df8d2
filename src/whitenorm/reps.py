"""Group words and the reconstruction of parabolic representations from
resultant roots.

The fundamental group of the unfilled two-bridge link exterior is generated
by two meridians m0, m1 with a single 8-letter relation; filling adds
m0^p l0^q = 1.  All words are stored once as data; the longitude l0 has two
spellings which are evaluated redundantly to catch transcription slips.

A class's kind is that of its source: a non-trivial root of res gives an
irreducible class, a |p|-th root of unity a reducible one.  Each class is
lifted once, in fixed point at its own precision (_bits): s is refined by a
fixed number of Newton steps (respq._newton), from its certified disc's
centre on res's closed form (respq._res_value), or from a double on
x^|p| - 1 if reducible, and an irreducible lift must end in its root's
disc.  If irreducible, t is read off the same closed form at s, with no
branch to choose.  One representation per meridian trace sign u = +-1 is
then built from the lift and verified by its residuals, whose relator
residual alone decides the eigenvalue-variety equations there (_build).  A class keeps the fixed-point
matrices its residuals were computed from, and no double-precision copy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial, reduce

from .cxhp import HPComplex, HPMat, hp_abs, hp_float, hp_matmul, hp_matpow, hp_mul
from .errors import CountMismatch, ValidationError, VerificationFailure
from .respq import _closed_form_hp, _newton, _power, _res_value, build_res
from .roots import CERTIFY_BITS, Root, RootSet, nontrivial_roots, resultant_rootset_of
from .slopes import validate_filling


# ---------------------------------------------------------------------------
# group words

Letter = tuple[int, int]  # (generator index 0|1, exponent)


@dataclass(frozen=True)
class GroupWord:
    letters: tuple[Letter, ...]

    @classmethod
    def of(cls, *letters: Letter) -> "GroupWord":
        merged: list[Letter] = []
        for gen, exp in letters:
            if gen not in (0, 1) or exp == 0:
                raise ValidationError(f"bad letter ({gen}, {exp})")
            if merged and merged[-1][0] == gen:
                total = merged[-1][1] + exp
                if total == 0:
                    merged.pop()
                else:
                    merged[-1] = (gen, total)
            else:
                merged.append((gen, exp))
        return cls(tuple(merged))

    def evaluate(self, m0, m1, mul, power):
        """The word at m0, m1: each letter's power, multiplied from the left,
        with the given product and power (_verify passes cxhp's fixed-point
        ones); the empty word is power(m0, 0)."""
        gens = (m0, m1)
        factors = [power(gens[gen], exp) for gen, exp in self.letters]
        return reduce(mul, factors) if factors else power(m0, 0)


# relation: m0 m1 m0^-1 m1^-1 m0^-1 m1 m0 m1  =  m1 m0 m1 m0^-1 m1^-1 m0^-1 m1 m0
WORD_REL_LHS = GroupWord.of((0, 1), (1, 1), (0, -1), (1, -1), (0, -1), (1, 1), (0, 1), (1, 1))
WORD_REL_RHS = GroupWord.of((1, 1), (0, 1), (1, 1), (0, -1), (1, -1), (0, -1), (1, 1), (0, 1))

# longitude of the filled cusp, two spellings (it commutes with m0)
WORD_L0_LONG = GroupWord.of(
    (0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1), (0, 1), (1, 1), (0, -2)
)
WORD_L0 = GroupWord.of((1, 1), (0, 1), (1, -1), (0, -1), (1, -1), (0, 1), (1, 1), (0, -1))

# longitude of the surviving cusp
WORD_L1 = GroupWord.of((0, 1), (1, 1), (0, -1), (1, -1), (0, -1), (1, 1), (0, 1), (1, -1))

# the 7 letters WORD_REL_LHS and WORD_L1 begin with; each ends in one more m1^+-1
_REL_L1_HEAD = GroupWord(WORD_REL_LHS.letters[:7])


# ---------------------------------------------------------------------------
# peripheral eigenvalues and the normal form


@dataclass(frozen=True)
class EigenTuple:
    """Upper-left entries (eigenvalues) of the peripheral images:
    s for m0, t for l0, u for m1, v for l1."""

    s: complex
    t: complex
    u: complex
    v: complex

    def __post_init__(self):
        if 0 in (self.s, self.t, self.u, self.v):
            raise ValidationError("eigenvalues must be non-zero")


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class PRep:
    """A verified parabolic representation of the filled manifold: the
    images of m0, m1 and of the longitude l0 (WORD_L0), in fixed point at
    `bits` fraction bits, as _verify checked them."""

    p: int
    q: int
    kind: str  # "reducible" | "irreducible"
    sign_u: int
    eigen: EigenTuple
    m0: HPMat
    m1: HPMat
    l0: HPMat
    bits: int
    residuals: dict


def _verify(p: int, q: int, kind: str, sign_u: int, s: HPComplex, t: HPComplex,
            m0: HPMat, m1: HPMat) -> PRep:
    """Residual checks, all carried out in fixed point at the class's
    precision (_bits, the bits of s): the filling product cancels entries of
    size max(|s|, 1/|s|)^|p|, so double precision could not certify
    _RESIDUAL there.  The words run on cxhp's 2x2 kernel, whose bits are
    those of the same products written with HPComplex operators."""
    bits = s.bits
    one = 1 << bits
    mul, power = partial(hp_matmul, bits=bits), partial(hp_matpow, bits=bits)

    def gap(x: HPMat, y: HPMat) -> float:
        return max(hp_abs((x[i] - y[i], x[i + 1] - y[i + 1]), bits) for i in (0, 2, 4, 6))

    def det_gap(m: HPMat) -> float:
        ad, bc = hp_mul(m[0:2], m[6:8], bits), hp_mul(m[2:4], m[4:6], bits)
        return hp_abs((ad[0] - bc[0] - one, ad[1] - bc[1]), bits)

    head = _REL_L1_HEAD.evaluate(m0, m1, mul, power)
    l0 = WORD_L0.evaluate(m0, m1, mul, power)
    l1 = mul(head, power(m1, -1))
    residuals = {
        "relator": gap(mul(head, m1), WORD_REL_RHS.evaluate(m0, m1, mul, power)),
        "longitude_spellings": gap(l0, WORD_L0_LONG.evaluate(m0, m1, mul, power)),
        "filling": gap(mul(power(m0, p), power(l0, q)), (one, 0, 0, 0, 0, 0, one, 0)),
        "trace_mu1": hp_abs((m1[0] + m1[6] - (2 * sign_u << bits), m1[1] + m1[7]), bits),
        "det": max(det_gap(m0), det_gap(m1)),
        "t_entry": hp_abs((l0[0] - t.re, l0[1] - t.im), bits),
    }
    if kind == "irreducible":
        residuals["trace_lambda1"] = hp_abs((l1[0] + l1[6] + 2 * one, l1[1] + l1[7]), bits)
        residuals["v_entry"] = hp_abs((l1[0] + one, l1[1]), bits)
    failing = {k: r for k, r in residuals.items() if r > _RESIDUAL}
    if failing:
        raise VerificationFailure(f"({p},{q}) s={s.to_complex()}: residuals over tolerance: {failing}")
    eigen = EigenTuple(s.to_complex(), t.to_complex(), complex(sign_u), hp_float(l1[0:2], bits))
    return PRep(p, q, kind, sign_u, eigen, m0, m1, l0, bits, residuals)


# m0^p and l0^q = m0^-p have entries up to A = max(|s|, 1/|s|)^|p|, and
# their product cancels terms of size A^2 down to I, so a truncation of
# 2^-bits grows to about A^2 2^-bits in the filling residual.  128 guard
# bits leave the computed residuals within about 2^-128 of the true ones:
# room for the factors the bound omits (|c|, |p|, the word lengths) and
# still some 100 bits below _RESIDUAL, so a passing residual certifies.
_GUARD = 128

# the one bound on every residual of a class.  The computed ones are far
# below it (2.5e-35 at worst over 20 fillings up to 255/64), so it refuses
# only a fault
_RESIDUAL = 1e-10


def _bits(s: complex, p: int) -> int:
    """Fraction bits for the class at s: 2|p| |log2 |s|| + _GUARD, rounded
    up to a multiple of 64."""
    return 64 * math.ceil((2 * abs(p) * abs(math.log2(abs(s))) + _GUARD) / 64)


def _lift(root: Root, p: int, q: int) -> tuple[HPComplex, HPComplex]:
    """The sign-independent half of an irreducible class's reconstruction:
    s, a non-trivial root of res_{p,q}, refined by Newton's method
    (respq._newton) in fixed point at the class's bits (_bits) on res's
    closed form (respq._res_value), from its disc's centre, which is good
    to CERTIFY_BITS; and the longitude eigenvalue t read off that form.  A lift that ends outside the root's
    disc raises VerificationFailure.

    With tau = s^2 t and x = -w, the quadric is tau + 1/tau = x and the
    filling relation tau^q = s^-m.  Since tau^q - tau^-q =
    (tau - 1/tau) E_(q-1)(x) and E_(q-1)(x) = (-1)^(q+1) D_q'(w)/q,
    tau - 1/tau is delta below.  D_q'(w) vanishes at a root only if
    s^(2m) = 1: never at a non-trivial root, none of which lies on |s| = 1,
    and at 2/1 (m = 0) D_1' = 1.  tau is taken from whichever of x +- delta
    does not cancel.  It is on the quadric only at an exact root, so s is
    converged on the closed form first: near p = 2q, res's dense
    coefficients would cost s some 110 bits to cancellation (97/48)."""
    m, sign = p - 2 * q, 1 if q % 2 else -1
    bits = _bits(root.value, p)
    shift = bits - root.bits
    re, im = (c << shift if shift >= 0 else c >> -shift for c in root.centre)
    s_hp = _newton(partial(_res_value, m=m, q=q), HPComplex(re, im, bits), CERTIFY_BITS)
    if not root.holds(s_hp.to_complex()):
        raise VerificationFailure(f"({p},{q}): the lift from s={root.value} left its root's disc")
    zm, zm_inv, w, _, dd = _closed_form_hp(s_hp, m, q)
    delta = sign * q * (zm_inv - zm) / dd
    x = -w
    if abs(x + delta) >= abs(x - delta):
        tau = (x + delta) / 2
    else:
        tau = HPComplex.from_int(2, s_hp.bits) / (x - delta)
    return s_hp, tau / (s_hp * s_hp)


def _lift_unity(k: int, p: int) -> tuple[HPComplex, HPComplex]:
    """s = e^(2 pi i k/|p|), the eigenvalue of a reducible class, sharpened
    from its double by Newton's method (_newton) on x^|p| - 1 at the class's
    precision so that the filling check is exact-grade, and its longitude
    eigenvalue t = 1."""
    n = abs(p)
    s = cmath.exp(2j * cmath.pi * k / n)

    def value(z: HPComplex) -> tuple[HPComplex, HPComplex]:
        w = _power(z, n - 1)  # by repeated squaring
        return z * w - 1, w * n

    # |s| = 1 exactly, and cmath's double is good to 52 bits
    s_hp = _newton(value, HPComplex.from_complex(s, _bits(1, p)), 52)
    return s_hp, HPComplex.from_int(1, s_hp.bits)


def _build(p: int, q: int, kind: str, s: HPComplex, t: HPComplex,
           signs: tuple[int, ...] = (1, -1)) -> list[PRep]:
    """The normal-form representations m0 = [[s, c], [0, 1/s]] and
    m1 = [[u, 0], [1, u]], u = sign_u, over a lifted class, one per sign in
    signs, each verified in fixed point (_verify).  A reducible class has
    c = 0.  An irreducible one has c = (s^2 (t - 1) + 2) / ((s^2 - 1)/(s u)),
    the inverse eigenvalue map at (s, t, u, v = -1), which puts l0's and l1's
    upper-left entries at t and -1; its disc clears |s| = 1, so s^2 != 1.
    The relator residual is also the class's variety check: at
    u = +-1 and v = -1 the relator difference is [[-c, 0], [(s^2 - 1)/s, c]]
    times the slice polynomial f, f = c s^2 Q/(s^2 - 1)^2 with Q the
    peripheral quadric, and the eigenvalue variety's polynomials are
    multiples of Q, all exact identities in s and t (tests/test_reps.py
    proves them).  So at an irreducible class, where s^2 != 1 and c != 0
    (at c = 0, l1's upper-left entry is 1 and v_entry refuses it), they
    vanish exactly where the relator holds."""
    bits = s.bits
    one = HPComplex.from_int(1, bits)
    s_inv = one / s
    preps = []
    for sign_u in signs:
        c = HPComplex.from_int(0, bits)
        if kind == "irreducible":
            c = (s * s * (t - 1) + 2) / ((s * s - 1) / (s * sign_u))
        m0 = (s.re, s.im, c.re, c.im, 0, 0, s_inv.re, s_inv.im)
        m1 = (sign_u * one.re, 0, 0, 0, one.re, 0, sign_u * one.re, 0)
        preps.append(_verify(p, q, kind, sign_u, s, t, m0, m1))
    return preps


# ---------------------------------------------------------------------------
# class counting


@dataclass(frozen=True)
class PrepCount:
    p: int
    q: int
    reducible: int
    irreducible: int
    total: int


def reducible_class_count(p: int) -> int:
    """Conjugacy classes of non-abelian reducible parabolic representations:
    pairs (s, +-1) with s^p = 1, s != +-1, modulo s ~ 1/s."""
    return abs(p) - 1 if p % 2 else abs(p) - 2


def expected_class_total(p: int, q: int) -> int:
    """Closed-form class count (reducible + irreducible), valid because
    all non-trivial roots are simple: ResPoly.quotient certifies it, and
    count_prep_classes compares its count, which reads that certificate,
    against this total."""
    ap, aq = abs(p), abs(q)
    if p % 2:
        if p < 0:
            return 3 * ap + 4 * aq - 3
        if p < 4 * q:
            return ap + 4 * aq - 3
        return 3 * ap - 4 * aq - 3
    if p < 0:
        return 3 * ap + 4 * aq - 2
    if p < 4 * q:
        return ap + 4 * aq - 2
    return 3 * ap - 4 * aq - 2


def count_prep_classes(p: int, q: int, rootset: RootSet | None = None) -> PrepCount:
    """Count conjugacy classes of parabolic representations from exact facts
    alone, with no root solve: the reducible closed form plus the degree of
    res's certified squarefree quotient (ResPoly.quotient), the span of res
    minus its exact orders at +-1, every root of which is simple.  A
    quotient the squarefree test refuses raises ValidationError.  A
    disagreement with the closed-form total, for any p, raises
    CountMismatch, and so does a given rootset whose non-trivial roots do
    not number exactly the count.
    """
    validate_filling(p, q)
    if p == 0 or p == 4 * q:
        raise ValidationError("p/q in {0, 4} is outside the counting range")
    irreducible = len(build_res(p, q).quotient) - 1
    if rootset is not None and len(nontrivial_roots(rootset)) != irreducible:
        raise CountMismatch(
            f"({p},{q}): {len(nontrivial_roots(rootset))} non-trivial roots in the root set, "
            f"{irreducible} exactly"
        )
    reducible = reducible_class_count(p)
    total = reducible + irreducible
    expected = expected_class_total(p, q)
    if total != expected:
        raise CountMismatch(
            f"({p},{q}): {total} classes found but the closed form gives {expected}"
        )
    return PrepCount(p, q, reducible, irreducible, total)


def all_prep_classes(p: int, q: int) -> list[PRep]:
    """One verified representation per conjugacy class, each with both signs
    of the meridian trace: first the irreducible classes, at the roots of
    res, then the reducible ones, at e^(2 pi i k/|p|) for
    1 <= k <= (|p| - 1) // 2.  Roots of res are taken up to s ~ 1/s: of each
    pair the member met first in the root set's (re, im) order represents
    it, so |s| may be below 1 (at 5/1 the first class has s = 0.378 -
    0.441i).  The classes built must number count_prep_classes' total, or
    CountMismatch is raised."""
    res = build_res(p, q)
    rootset = resultant_rootset_of(res)
    count = count_prep_classes(p, q, rootset=rootset)
    # res is palindromic, so 1/z is a root with z.  No disc meets |s| = 1, so
    # |z| < 1 is decided, and re(1/z) = re(z) / |z|^2 has the sign of re(z):
    # z precedes 1/z exactly when re(z) > 0 and |z| < 1 or re(z) < 0 and
    # |z| > 1.  A certified imaginary z (re exactly 0.0) precedes 1/z when
    # im(z) < 0.
    chosen = [
        r for r in nontrivial_roots(rootset)
        if (r.value.imag < 0 if r.value.real == 0.0 else (r.value.real > 0) == (abs(r.value) < 1))
    ]
    # the reducible classes: k ~ |p| - k is s ~ 1/s, and k = 0 and k = |p|/2
    # are s = +-1
    ks = range(1, (abs(p) - 1) // 2 + 1)
    if 2 * (len(chosen) + len(ks)) != count.total:
        raise CountMismatch(
            f"({p},{q}): {2 * (len(chosen) + len(ks))} classes chosen up to s ~ 1/s, "
            f"{count.total} counted"
        )
    lifts = [("irreducible", *_lift(r, p, q)) for r in chosen]
    lifts += [("reducible", *_lift_unity(k, p)) for k in ks]
    return [prep for lift in lifts for prep in _build(p, q, *lift)]
