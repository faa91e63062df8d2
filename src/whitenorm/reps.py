"""SL2(C) matrices, group words, the eigenvalue variety, and the
reconstruction of parabolic representations from resultant roots.

The fundamental group of the unfilled two-bridge link exterior is generated
by two meridians m0, m1 with a single 8-letter relation; filling adds
m0^p l0^q = 1.  All words are stored once as data; the longitude l0 has two
spellings which are evaluated redundantly to catch transcription slips.

Each class is lifted once: s is refined in fixed point (on res, or on
x^|p| - 1 if reducible) and t is chosen there as the quadric branch with
s^p t^q = 1.  One representation per meridian trace sign u = +-1 is then
built from the lift and verified.
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
from .roots import RootSet, nontrivial_roots, resultant_roots
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
    """Coefficients (a, b, c) of the t-quadric at a fixed s."""
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
    peripheral eigenvalues; undefined at s = +-1 and s^2 = u^2."""
    s, t, u, v = e.s, e.t, e.u, e.v
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
    (Newton would crawl where the two branches collide, which happens at
    every root when p is even and q = 1.)"""
    s2 = s * s
    a = s2 * s2
    b = 4 * s2 - a - 1
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


def _refine_on_int_poly(coeffs: list[int], z: HPComplex, guard: float) -> HPComplex:
    """Newton-refine z on an exact integer polynomial; refuse to move farther
    than guard from the start (the input must already be a root)."""
    der = [i * c for i, c in enumerate(coeffs)][1:]
    start = z.to_complex()
    v = (z.re, z.im)
    for _ in range(10):
        dv = hp_horner(der, v)
        if dv == (0, 0):
            break
        step = hp_div(hp_horner(coeffs, v), dv)
        v = (v[0] - step[0], v[1] - step[1])
    z = HPComplex(*v)
    if abs(z.to_complex() - start) > guard * (1 + abs(start)):
        raise ValidationError(
            f"{start} is not a root of the expected polynomial (moved by more than {guard})"
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
        if r > (TOL.trace if k == "trace_mu1" else TOL.residual)
    }
    if det_gap > TOL.det_one:
        failing["det"] = det_gap
    if failing:
        raise VerificationFailure(f"({p},{q}) s={s.to_complex()}: residuals over tolerance: {failing}")
    eigen = EigenTuple(s.to_complex(), t.to_complex(), complex(sign_u), l1.a.to_complex())
    return PRep(p, q, kind, sign_u, eigen, _mat_to_complex(m0), _mat_to_complex(m1), residuals)


def _lift(s: complex, p: int, q: int) -> tuple[str, HPComplex, HPComplex]:
    """The sign-independent half of a reconstruction: the kind of the class
    at s, s refined in fixed point, and the longitude eigenvalue t."""
    s = complex(s)
    # Non-trivial resultant roots and the roots of unity used here stay at
    # least ~2*pi/|p| from +-1, so 1e-9 only rejects +-1 up to rounding.
    if abs(s) == 0 or abs(s - 1) < 1e-9 or abs(s + 1) < 1e-9:
        raise ValidationError(
            "s in {0, +1, -1} never yields a representation of the filled manifold"
        )
    # The guard of both refinements below: s is the double rounding of a
    # root, so Newton moves it by ~1e-16 relative; a move of 1e-6, ten orders
    # more, means s was no root.
    s_hp = HPComplex.from_complex(s)
    if abs(_power(s, p) - 1) <= TOL.t_match:
        # root of unity: sharpen on x^|p| - 1 so the filling check is exact-grade
        unity = [0] * (abs(p) + 1)
        unity[0], unity[-1] = -1, 1
        return "reducible", _refine_on_int_poly(unity, s_hp, 1e-6), HPComplex.from_int(1)
    # the double-rounded s costs half the digits of t wherever the quadric
    # branches collide; re-converge it on the exact resultant first
    res_dense, _ = build_res(p, q).poly.dense()
    s_hp = _refine_on_int_poly(res_dense, s_hp, 1e-6)
    # c below divides by s^2 - 1; the exact trivial-root orders split +-1 off
    # res before its roots are solved, so 1e-12 only guards the division
    if abs((s_hp * s_hp - 1).to_complex()) < 1e-12:
        raise SingularPoint("inverse parametrization undefined at s = +-1, s^2 = u^2")
    return "irreducible", s_hp, _solve_t_hp(s_hp, p, q)


def _build(p: int, q: int, sign_u: int, kind: str, s: HPComplex, t: HPComplex) -> PRep:
    """The normal-form representation with meridian trace 2*sign_u over a
    lifted class, verified in fixed point and, if irreducible, on the
    variety equations."""
    zero, one, u = HPComplex.from_int(0), HPComplex.from_int(1), HPComplex.from_int(sign_u)
    c = zero
    if kind == "irreducible":
        # inverse parametrization c = (s^2(t-1) + u^2(1-v)) / (s^-1 u^-1 (s^2-u^2))
        s2 = s * s
        c = (s2 * (t - 1) + (1 - HPComplex.from_int(-1))) / ((s2 - 1) / (s * u))
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
    """Build and verify the parabolic representation attached to s.

    For s^p = 1 (s != +-1) the representation is non-abelian reducible with
    c = 0 and the longitude of the filled cusp mapping to the identity.
    Otherwise s must be a non-trivial resultant root; then t comes from the
    quadric, v = -1, and c from the inverse parametrization.
    """
    if sign_u not in (1, -1):
        raise ValidationError("sign_u must be +-1")
    return _build(p, q, sign_u, *_lift(s, p, q))


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


@dataclass(frozen=True)
class PartialDiagReport:
    r1_factored: complex
    r1_deflated: complex
    r2: complex
    t: complex


def partially_diagonal_check(s: complex, a: complex, p: int, q: int, sign: int = 1) -> PartialDiagReport:
    """Residuals of the relation polynomials in the slice where m0 is
    diagonal(s, 1/s) and m1 is parabolic with corner entry a.

    For trace +2 the relation polynomial factors as
    (a-1) * [-(s^2-1)^2 a^2 + (s^2-1)(s^2-3) a - 2] and the longitude
    eigenvalue is t = a/(2-a).  The trace -2 slice maps onto the +2 slice by
    the central twist m1 -> -m1, i.e. a -> -a.
    """
    if sign not in (1, -1):
        raise ValidationError("sign must be +-1")
    if sign == -1:
        plus = partially_diagonal_check(s, -a, p, q, 1)
        return PartialDiagReport(plus.r1_factored, plus.r1_deflated, plus.r2, plus.t)
    s2 = s * s
    deflated = -((s2 - 1) ** 2) * a * a + (s2 - 1) * (s2 - 3) * a - 2
    factored = (a - 1) * deflated
    if a == 2:
        raise ValidationError("a = 2 makes the longitude eigenvalue undefined")
    t = a / (2 - a)
    r2 = _power(s, p) * _power(t, q) - 1
    return PartialDiagReport(factored, deflated, r2, t)


def prep_to_partially_diagonal(prep: PRep) -> tuple[complex, complex, int]:
    """Conjugate a normal-form representation into the partially diagonal
    slice; returns (s, a, sign)."""
    s = prep.eigen.s
    c = prep.m0.b
    x = c / (s - 1 / s)
    conj = Mat2(1, x, 0, 1)
    m1 = conj @ prep.m1 @ conj.inverse_sl2()
    sign = 1 if abs(m1.trace() - 2) < abs(m1.trace() + 2) else -1
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
    expected_total: int
    attains_bound: bool


def reducible_class_count(p: int) -> int:
    """Conjugacy classes of non-abelian reducible parabolic representations:
    pairs (s, +-1) with s^p = 1, s != +-1, modulo s ~ 1/s."""
    return abs(p) - 1 if p % 2 else abs(p) - 2


def expected_class_total(p: int, q: int) -> int:
    """Closed-form class count (reducible + irreducible), valid when all
    non-trivial roots are simple."""
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
    """Count conjugacy classes of parabolic representations: the reducible
    closed form plus the number of distinct non-trivial resultant roots.

    For p odd a disagreement with the closed-form total signals a multiple
    root and raises; for p even (where simplicity is not settled) the gap
    is only reported via attains_bound.
    """
    validate_filling(p, q)
    if p == 0 or p == 4 * q:
        raise ValidationError("p/q in {0, 4} is outside the counting range")
    rs = rootset if rootset is not None else resultant_roots(p, q)
    irreducible = len(nontrivial_roots(rs))
    reducible = reducible_class_count(p)
    total = reducible + irreducible
    expected = expected_class_total(p, q)
    attains = total == expected
    if not attains and p % 2 == 1:
        raise CountMismatch(
            f"({p},{q}): {total} classes found but the closed form gives {expected}; "
            "a non-trivial root must be multiple"
        )
    return PrepCount(p, q, reducible, irreducible, total, expected, attains)


def all_prep_classes(p: int, q: int) -> list[PRep]:
    """One verified representation per conjugacy class, each with both signs
    of the meridian trace.  Roots are taken up to s ~ 1/s: of each pair the
    member met first in the root set's (re, im) order represents it, so |s|
    may be below 1 (at 5/1 the first class has s = 0.378 - 0.441i)."""
    rs = nontrivial_roots(resultant_roots(p, q))
    chosen: list[complex] = []
    for root in rs:
        z = root.value
        partner_present = any(abs(w - 1 / z) <= 1e-6 for w in chosen)
        if partner_present:
            continue
        chosen.append(z)
    # the reducible classes: s = e^(2 pi i k/|p|) up to s ~ 1/s, i.e. k ~ |p| - k,
    # without k = 0 and k = |p|/2 (s = +-1)
    chosen += [cmath.exp(2j * cmath.pi * k / abs(p)) for k in range(1, (abs(p) - 1) // 2 + 1)]
    reps = []
    for z in chosen:
        lift = _lift(z, p, q)
        for sign in (1, -1):
            reps.append(_build(p, q, sign, *lift))
    return reps
