"""SL2(C) matrices, group words, the eigenvalue variety, and the
reconstruction of parabolic representations from resultant roots.

The fundamental group of the unfilled two-bridge link exterior is generated
by two meridians m0, m1 with a single 8-letter relation; filling adds
m0^p l0^q = 1.  All words are stored once as data; the longitude l0 has two
spellings which are evaluated redundantly to catch transcription slips.

A class's kind is that of its source: a non-trivial root of res gives an
irreducible class, a |p|-th root of unity a reducible one.  Each class is
lifted once: s is refined in fixed point (on res, or on x^|p| - 1 if
reducible) and, if irreducible, t is chosen there as the quadric branch
with s^p t^q = 1.  One representation per meridian trace sign u = +-1 is
then built from the lift and verified.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import reduce

from .config import TOL
from .cxhp import HPComplex, hp_div, hp_horner
from .errors import (
    AmbiguousT,
    CountMismatch,
    NoT,
    SingularPoint,
    ValidationError,
    VerificationFailure,
)
from .respq import build_res
from .roots import RootSet, nontrivial_roots, resultant_rootset_of
from .slopes import validate_filling


# ---------------------------------------------------------------------------
# 2x2 complex matrices


@dataclass(frozen=True)
class Mat2:
    a: complex
    b: complex
    c: complex
    d: complex

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

    def __sub__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def inverse_sl2(self) -> "Mat2":
        # exact inverse for det = 1; keeps the determinant contract tight
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

    def norm(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


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

    def evaluate(self, m0: Mat2, m1: Mat2) -> Mat2:
        gens = (m0, m1)
        factors = [gens[gen].power(exp) for gen, exp in self.letters]
        return reduce(Mat2.__matmul__, factors) if factors else Mat2.identity()


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


# ---------------------------------------------------------------------------
# the eigenvalue variety


def slice_f(s: complex, u: complex, c: complex) -> complex:
    """Defining polynomial of the normal-form slice of the representation
    variety; cubic in the off-diagonal parameter c."""
    if s == 0 or u == 0:
        raise ValidationError("s and u must be non-zero")
    si, ui = 1 / s, 1 / u
    return (
        (s - si) * (u - ui)
        + c * (si * si * ui * ui - ui * ui - si * si + 4 - s * s - u * u + s * s * u * u)
        + c * c * (2 * si * ui - s * ui - si * u + 2 * s * u)
        + c * c * c
    )


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


def eigenvariety_polys(e: EigenTuple) -> tuple[complex, complex, complex, complex, complex, complex]:
    """The three defining polynomials of the eigenvalue variety, plus their
    three simplifications on the slice u^2 = 1."""
    s2 = e.s * e.s
    s4 = s2 * s2
    s6 = s4 * s2
    t, u, v = e.t, e.u, e.v
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


def peripheral_quadric_at(s: complex) -> tuple[complex, complex, complex]:
    """Coefficients (a, b, c) of the t-quadric at a fixed s, complex or
    HPComplex (c is the constant 1 either way)."""
    s2 = s * s
    s4 = s2 * s2
    return s4, -s4 + 4 * s2 - 1, 1 + 0j


def _power(base: complex, n: int) -> complex:
    if n < 0:
        return 1 / _power(base, -n)
    out = 1 + 0j
    while n:
        if n & 1:
            out *= base
        base *= base
        n >>= 1
    return out


def inverse_eigenvalue_map(e: EigenTuple) -> tuple[complex, complex, complex]:
    """Normal-form parameters (s, u, c) of the representation with the given
    peripheral eigenvalues, complex or HPComplex entries; undefined (raises
    SingularPoint) at s = +-1 and s^2 = u^2."""
    s, t, u, v = e.s, e.t, e.u, e.v
    # both guards reject the singular points themselves, up to the rounding
    # of a double input, and nothing else: the s of every class the package
    # reconstructs lies at least 2 sin(pi/|p|) from +-1 (a root of unity) or
    # has a disc clear of |s| = 1 (a non-trivial root)
    if abs(s - 1) < 1e-12 or abs(s + 1) < 1e-12:
        raise SingularPoint("inverse parametrization undefined at s = +-1")
    if abs(s * s - u * u) < 1e-12:
        raise SingularPoint("inverse parametrization undefined at s^2 = u^2")
    c = (s * s * (t - 1) + u * u * (1 - v)) / ((s * s - u * u) / (s * u))
    return s, u, c


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class PRep:
    """A verified parabolic representation of the filled manifold."""

    p: int
    q: int
    kind: str  # "reducible" | "irreducible"
    sign_u: int
    eigen: EigenTuple
    m0: Mat2
    m1: Mat2
    residuals: dict

    def trace_of(self, word: GroupWord) -> complex:
        return word.evaluate(self.m0, self.m1).trace()


def _mat_to_complex(m: Mat2) -> Mat2:
    return Mat2(m.a.to_complex(), m.b.to_complex(), m.c.to_complex(), m.d.to_complex())


def _solve_t_hp(s: HPComplex, p: int, q: int) -> HPComplex:
    """The longitude eigenvalue t over a resultant root s: the one quadric
    branch, by the stable quadratic formula in fixed point, with s^p t^q = 1.
    (Newton would crawl where the two branches collide.  A collision forces
    s^(2(p - 2q)) = 1, so |s| = 1, where no non-trivial root lies; only 2/1,
    where p = 2q, collides, and at every root.)"""
    a, b, _ = peripheral_quadric_at(s)
    disc = (b * b - 4 * a).sqrt()
    if (b.to_complex().conjugate() * disc.to_complex()).real > 0:
        disc = -disc
    u = (disc - b) / 2
    t1 = u / a
    t2 = HPComplex.from_int(1) / u if not u.is_zero() else t1
    sd = s.to_complex()
    sp = _power(sd, p)
    candidates = [t for t in (t1, t2) if abs(sp * _power(t.to_complex(), q) - 1) <= TOL.t_match]
    if not candidates:
        raise NoT(f"no quadric branch satisfies the filling relation at s={sd}")
    # Collided branches differ by the square root of the fixed-point rounding,
    # far below 1e-5.  Distinct branches that both pass have t1/t2 a q-th root
    # of unity, so they sit ~2*pi/|q| apart relative to |t|, far above 1e-5.
    if len(candidates) == 2 and abs(t1 - t2) > 1e-5 * (1 + abs(t1) + abs(t2)):
        raise AmbiguousT(f"both quadric branches satisfy the filling relation at s={sd}")
    return candidates[0]


# A double-rounded root moves by ~1e-16 relative under Newton; a move of
# 1e-6 relative, ten orders more, means the start was no root.
_REFINE_GUARD = 1e-6


def _refine_on_int_poly(coeffs: list[int], z: HPComplex) -> HPComplex:
    """Newton-refine z on an exact integer polynomial; refuse to move farther
    than _REFINE_GUARD from the start (the input must already be a root)."""
    der = [i * c for i, c in enumerate(coeffs)][1:]
    start = z.to_complex()
    v = (z.re, z.im)
    for _ in range(10):
        dv = hp_horner(der, v)
        if dv == (0, 0):
            break
        step = hp_div(hp_horner(coeffs, v), dv)
        # a zero step leaves v a fixed point: every later step is zero too
        if step == (0, 0):
            break
        v = (v[0] - step[0], v[1] - step[1])
    z = HPComplex(*v)
    if abs(z.to_complex() - start) > _REFINE_GUARD * (1 + abs(start)):
        raise ValidationError(
            f"{start} is not a root of the expected polynomial (moved by more than {_REFINE_GUARD})"
        )
    return z


def _verify(p: int, q: int, kind: str, sign_u: int, s: HPComplex, t: HPComplex,
            m0: Mat2, m1: Mat2) -> PRep:
    """Residual checks, all carried out in fixed-point high precision: the
    filling product multiplies entries of size |s|^p, so double precision
    could not certify 1e-8 there."""
    rel = (WORD_REL_LHS.evaluate(m0, m1) - WORD_REL_RHS.evaluate(m0, m1)).norm()
    l0 = WORD_L0.evaluate(m0, m1)
    l0_long = WORD_L0_LONG.evaluate(m0, m1)
    l0_spellings = (l0 - l0_long).norm()
    fill = (m0.power(p) @ l0.power(q) - Mat2.identity()).norm()
    l1 = WORD_L1.evaluate(m0, m1)
    trace_gap = abs(m1.trace() - 2 * sign_u)
    det_gap = max(abs(m0.det() - 1), abs(m1.det() - 1))
    residuals = {
        "relator": rel,
        "longitude_spellings": l0_spellings,
        "filling": fill,
        "trace_mu1": trace_gap,
        "det": det_gap,
        "t_entry": abs(l0.a - t),
    }
    if kind == "irreducible":
        residuals["trace_lambda1"] = abs(l1.trace() + 2)
        residuals["v_entry"] = abs(l1.a + 1)
    failing = {
        k: r for k, r in residuals.items()
        if r > {"trace_mu1": TOL.trace, "det": TOL.det_one}.get(k, TOL.residual)
    }
    if failing:
        raise VerificationFailure(f"({p},{q}) s={s.to_complex()}: residuals over tolerance: {failing}")
    eigen = EigenTuple(s.to_complex(), t.to_complex(), complex(sign_u), l1.a.to_complex())
    return PRep(p, q, kind, sign_u, eigen, _mat_to_complex(m0), _mat_to_complex(m1), residuals)


def _lift(s: complex, p: int, q: int, res_dense: list[int]) -> tuple[HPComplex, HPComplex]:
    """The sign-independent half of an irreducible class's reconstruction:
    s, a non-trivial root of res_{p,q} (coefficients res_dense), refined in
    fixed point, and the longitude eigenvalue t there."""
    # the double-rounded s costs half the digits of t where the quadric
    # branches collide (2/1 alone); re-converge it on the exact resultant first
    s_hp = _refine_on_int_poly(res_dense, HPComplex.from_complex(s))
    return s_hp, _solve_t_hp(s_hp, p, q)


def _lift_unity(k: int, p: int) -> HPComplex:
    """s = e^(2 pi i k/|p|), the eigenvalue of a reducible class, sharpened
    on x^|p| - 1 so that the filling check is exact-grade."""
    unity = [-1] + [0] * (abs(p) - 1) + [1]
    return _refine_on_int_poly(unity, HPComplex.from_complex(cmath.exp(2j * cmath.pi * k / abs(p))))


def _build(p: int, q: int, sign_u: int, kind: str, s: HPComplex, t: HPComplex) -> PRep:
    """The normal-form representation with meridian trace 2*sign_u over a
    lifted class, verified in fixed point and, if irreducible, on the
    variety equations."""
    zero, one, u = HPComplex.from_int(0), HPComplex.from_int(1), HPComplex.from_int(sign_u)
    c = zero
    if kind == "irreducible":
        _, _, c = inverse_eigenvalue_map(EigenTuple(s, t, u, -1))
    prep = _verify(p, q, kind, sign_u, s, t, Mat2(s, c, zero, one / s), Mat2(u, zero, one, u))
    if kind == "reducible":
        return prep
    # cross-checks on the variety equations (double precision is plenty here)
    e = prep.eigen
    h1, h2, h3, g1, g2, g3 = eigenvariety_polys(EigenTuple(e.s, e.t, complex(sign_u), -1))
    fval = slice_f(e.s, complex(sign_u), c.to_complex())
    worst = max(abs(h1), abs(h2), abs(h3), abs(g1), abs(g2), abs(g3))
    if worst > TOL.residual or abs(fval) > TOL.residual:
        raise VerificationFailure(
            f"({p},{q}) s={e.s}: variety residuals h/g={worst:.2e} f={abs(fval):.2e}"
        )
    return prep


def reconstruct_prep(s: complex, sign_u: int, p: int, q: int) -> PRep:
    """Build and verify the irreducible parabolic representation at s, a
    non-trivial root of res_{p,q}: t comes from the quadric, v = -1, and c
    from the inverse parametrization.  (all_prep_classes builds the
    reducible classes, at the |p|-th roots of unity, itself.)
    """
    if sign_u not in (1, -1):
        raise ValidationError("sign_u must be +-1")
    # Non-trivial resultant roots stay clear of +-1 (no disc meets |s| = 1),
    # so 1e-9 only rejects +-1 up to rounding.
    if abs(s) == 0 or abs(s - 1) < 1e-9 or abs(s + 1) < 1e-9:
        raise ValidationError(
            "s in {0, +1, -1} never yields a representation of the filled manifold"
        )
    return _build(p, q, sign_u, "irreducible", *_lift(s, p, q, build_res(p, q).poly.dense()[0]))


def discrete_faithful_matrices(s: int, u: int) -> tuple[Mat2, Mat2, Mat2]:
    """The four-fold family of representations at s = +-1, u = +-1 attached
    to the complete structure of the unfilled exterior: the images of m0,
    m1, and the longitude word l0 = -I + parabolic part with corner -4su.
    These never factor through any filling."""
    if s not in (1, -1) or u not in (1, -1):
        raise ValidationError("discrete faithful points have s, u in {+-1}")
    m0 = Mat2(s, -s * u + 1j, 0, s)
    m1 = Mat2(u, 0, 1, u)
    l0 = WORD_L0.evaluate(m0, m1)
    return m0, m1, l0


def discrete_faithful_filling_defect(p: int, q: int, s: int, u: int) -> float:
    m0, _, l0 = discrete_faithful_matrices(s, u)
    return (m0.power(p) @ l0.power(q) - Mat2.identity()).norm()


# ---------------------------------------------------------------------------
# the partially diagonal slice (diagonal m0, parabolic m1)


def prep_to_partially_diagonal(prep: PRep) -> tuple[complex, complex, int]:
    """Conjugate a normal-form representation into the partially diagonal
    slice; returns (s, a, sign)."""
    s = prep.eigen.s
    c = prep.m0.b
    x = c / (s - 1 / s)
    conj = Mat2(1, x, 0, 1)
    m1 = conj @ prep.m1 @ conj.inverse_sl2()
    sign = 1 if abs(m1.trace() - 2) < abs(m1.trace() + 2) else -1
    # an upper unipotent conjugator leaves the lower-left entry as it is, so
    # m1.c is the normal form's 1 (exactly 1.0 on every class of 5/1, -5/3,
    # 65/3, 65/16, 7/2, 2/1, 8/1, -1/1 and 12/5); 1e-9, the scale of
    # TOL.trace, fails only a conjugation gone wrong at O(1)
    if abs(m1.c - 1) > 1e-9:
        raise VerificationFailure("slice conversion lost the unit corner entry")
    return s, m1.a, sign


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
        z for z in nontrivial_roots(rootset).values
        if (z.imag < 0 if z.real == 0.0 else (z.real > 0) == (abs(z) < 1))
    ]
    # the reducible classes: k ~ |p| - k is s ~ 1/s, and k = 0 and k = |p|/2
    # are s = +-1
    ks = range(1, (abs(p) - 1) // 2 + 1)
    if 2 * (len(chosen) + len(ks)) != count.total:
        raise CountMismatch(
            f"({p},{q}): {2 * (len(chosen) + len(ks))} classes chosen up to s ~ 1/s, "
            f"{count.total} counted"
        )
    res_dense, _ = res.poly.dense()
    lifts = [("irreducible", *_lift(z, p, q, res_dense)) for z in chosen]
    lifts += [("reducible", _lift_unity(k, p), HPComplex.from_int(1)) for k in ks]
    return [_build(p, q, sign, *lift) for lift in lifts for sign in (1, -1)]
