"""Complex root extraction with certified inclusion discs and the
classification of resultant roots (real / imaginary / unit circle).

One pipeline, for polynomials with integer coefficients (find_roots).  The
trivial roots +-1 are split off exactly first: while f(x) = 0 for x = 1,
then x = -1, f is divided by (s - x), and x becomes a root of that order
with radius 0.  The rest must be certified squarefree exactly (_squarefree),
so every other root is simple.  On it, a deterministic double-precision
simultaneous iteration (Aberth-Ehrlich, Newton-polygon starting radii,
golden-angle phases) gives a start; it is refined by Gauss-Seidel Aberth
sweeps in fixed point on the exact coefficients (plain python ints, see
cxhp), on a ladder of 128, 256, 512 and 768 fraction bits whose top rung
is cxhp.BITS.  It climbs a rung once the rung is exhausted, every |f(z)|
within the error of its own evaluation, and stops when pairwise disjoint
Gerschgorin-Weierstrass inclusion discs certify every root to 2^-100.
Each disc then holds exactly one root, a simple one, and this is the one
root certificate: the printed double lies within 2^-53 |z| + r of it.
Every other fact about the root is read off its disc (see _package): its
realness and whether it meets the unit circle.  There is no
double-precision polish.  The refinement matters: resultant roots packed
near the unit circle reach condition numbers beyond 1e13, so double
precision alone cannot certify symmetry classes at 1e-8.

Each Root carries its own disc radius; a RootSet is the roots, sorted once
by (re, im), and the span.

No randomness anywhere; repeated runs emit identical bytes, whatever rung
the ladder stopped at.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cxhp import BITS, HP, hp, hp_abs, hp_div, hp_float, hp_horner, hp_int, hp_mul
from .errors import ConvergenceFailure, ClassificationViolation, ValidationError, WhitenormError
from .laurent import LaurentPoly
from .respq import ResPoly, build_res, trivial_root_orders

_GOLDEN = (math.sqrt(5) - 1) / 2


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class RootFlags:
    trivial_pm1: bool
    real: bool
    imaginary: bool
    unit_circle: bool


@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int  # the exact order of +-1; every other root is simple
    flags: RootFlags
    radius: float  # of its inclusion disc about value; 0.0 for the exact +-1


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    span: int

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    @property
    def values(self) -> list[complex]:
        return [r.value for r in self.roots]

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def disc_overlaps(self) -> list[tuple[int, int]]:
        """Index pairs of roots whose inclusion discs D(value, radius)
        meet.  Distinct roots of a certified set have disjoint discs."""
        rs = self.roots
        return [
            (i, j)
            for i, a in enumerate(rs)
            for j, b in enumerate(rs[i + 1 :], i + 1)
            if abs(a.value - b.value) <= a.radius + b.radius
        ]


# ---------------------------------------------------------------------------
# double-precision stage


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _initial_points(coeffs: np.ndarray) -> np.ndarray:
    """One starting radius per edge of the upper Newton polygon of
    (i, log|c_i|), phases from the golden-ratio sequence: the one start of
    MPSolve (Bini & Fiorentino, Numer. Algorithms 23 (2000))."""
    n = len(coeffs) - 1
    pts = [(i, math.log(abs(c))) for i, c in enumerate(coeffs) if c != 0]
    hull: list[tuple[int, float]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (pt[0] - x1) * (y2 - y1) >= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    radii = np.empty(n)
    pos = 0
    for (i1, y1), (i2, y2) in zip(hull, hull[1:]):
        r = math.exp((y1 - y2) / (i2 - i1))
        radii[pos : pos + (i2 - i1)] = r
        pos += i2 - i1
    k = np.arange(n)
    angles = 2.0 * math.pi * ((k * _GOLDEN + 0.29) % 1.0)
    return radii * np.exp(1j * angles)


# the iteration budget of the one double-precision pass
_ABERTH_ITERATIONS = 2000


# a start that overflows or divides by zero ends in its ConvergenceFailure,
# which is all a caller can act on; numpy's warnings would only add noise
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """The simultaneous-iteration pass.  Stops when corrections hit machine
    level, or when every iterate is backward-stable and corrections are
    small (the stall of ill-conditioned roots).  Fails at the first iterate
    that is not finite: the repulsion sums then make every iterate NaN, and
    neither stopping test can pass."""
    n = len(coeffs) - 1
    dcoeffs = coeffs[1:] * np.arange(1, n + 1)
    exponents = np.arange(len(coeffs))
    z = _initial_points(coeffs)
    for it in range(1, _ABERTH_ITERATIONS + 1):
        pv = _horner(coeffs, z)
        dv = _horner(dcoeffs, z)
        newton = np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        diff[diff == 0] = 1e-300
        repulse = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulse
        denom[denom == 0] = 1.0
        step = newton / denom
        z = z - step
        if not np.isfinite(z).all():
            raise ConvergenceFailure(
                f"double-precision start overflowed at iteration {it} on degree {n}: "
                "an iterate is not finite",
                stage="aberth", degree=n,
            )
        worst = float((np.abs(step) / (1.0 + np.abs(z))).max())
        # about 22 ulps of a double (eps = 2.2e-16): a smaller correction
        # only moves the iterate inside its own rounding noise, and the
        # fixed-point sweeps take every root on from here
        if worst < 5e-15:
            return z
        # ill-conditioned roots keep jittering inside their cond*eps ball, so
        # corrections never shrink; accept on backward stability alone.  Two
        # iterates doubled up on one root never give pairwise disjoint
        # discs, so the sweeps move them apart or fail at stage "refine".
        # Horner's rounding error is at most about 2n u sum_i |c_i||z|^i
        # (u = 2^-53), which reaches 1e-13 at degree 450, so this asks for
        # no more than double precision can tell at the degrees solved here
        scale = np.sum(np.abs(coeffs) * np.abs(z[:, None]) ** exponents[None, :], axis=1)
        if (np.abs(_horner(coeffs, z)) <= 1e-13 * scale).all():
            return z
    raise ConvergenceFailure(
        f"no convergence after {_ABERTH_ITERATIONS} iterations on degree {n}",
        stage="aberth", degree=n,
    )


# ---------------------------------------------------------------------------
# exact squarefree test

# a prime of 61 bits: residues stay small ints, and a squarefree f fails the
# test only when the prime divides its discriminant
_PRIME = (1 << 61) - 1


def _squarefree(int_coeffs: list[int]) -> bool:
    """Whether gcd(f, f') = 1 modulo the prime 2^61 - 1 for the integer
    polynomial f = sum_i int_coeffs[i] s^i, and the prime does not divide
    its leading coefficient.  Then f is squarefree over Q: a square factor
    g^2 of f over Z keeps its degree modulo the prime and would divide both
    f and f' there.  False proves nothing over Q: the prime may divide the
    discriminant of a squarefree f."""
    # leading coefficient first; each pass divides a by b, leaving b and the
    # remainder with its leading zeros dropped
    a = [c % _PRIME for c in reversed(int_coeffs)]
    b = [i * c % _PRIME for i, c in enumerate(int_coeffs)][:0:-1]
    if a[0] == 0:
        return False
    while True:
        while b and b[0] == 0:
            b.pop(0)
        if not b:
            return len(a) == 1
        inv = pow(b[0], -1, _PRIME)
        for k in range(len(a) - len(b) + 1):
            m = a[k] * inv % _PRIME
            a[k : k + len(b)] = [(x - m * y) % _PRIME for x, y in zip(a[k : k + len(b)], b)]
        a, b = b, a[len(a) - len(b) + 1 :]


# ---------------------------------------------------------------------------
# fixed-point refinement on a precision ladder (raw cxhp kernel in the hot loop)

# Fraction bits of the refinement rungs.  The top rung is the kernel's BITS,
# so a filling that settled at that precision before the ladder existed
# still has the same room.
_RUNGS = (128, 256, 512, BITS)
# The ladder stops once every inclusion radius is below 2^-100 (1 + |z|):
# 47 bits past double precision, so the double rounding of a disc's centre
# is that of its root unless the root lies within 2^-100 of a rounding
# boundary.
_CERTIFY_BITS = 100
# Relative error bound of one cxhp.hp_abs value (below 2^-51) and of one
# float product, with room.
_REL = 2.0**-50


def _sweep(int_coeffs: list[int], dcoeffs: list[int], z: list[HP], bits: int) -> tuple[int, bool]:
    """One Gauss-Seidel Aberth sweep over z in place, at `bits` fraction
    bits.  Returns the largest step component in units of 2^-bits, and
    whether the rung is exhausted (MPSolve's criterion): every |f(z_k)| is
    within _horner_error plus 4 * 2^-bits |f'(z_k)| for the rounding of z_k."""
    one = hp_int(1, bits)
    max_step = 0
    exhausted = True
    for k in range(len(z)):
        pv = hp_horner(int_coeffs, z[k], bits)
        dv = hp_horner(dcoeffs, z[k], bits)
        noise = _horner_error(len(z), z[k], bits) + math.ldexp(hp_abs(dv, bits), 2 - bits)
        exhausted = exhausted and hp_abs(pv, bits) <= noise
        if dv == (0, 0):
            continue
        newton = hp_div(pv, dv, bits)
        rep = (0, 0)
        for j in range(len(z)):
            if j == k:
                continue
            dz = (z[k][0] - z[j][0], z[k][1] - z[j][1])
            if dz == (0, 0):
                continue
            inv = hp_div(one, dz, bits)
            rep = (rep[0] + inv[0], rep[1] + inv[1])
        nr = hp_mul(newton, rep, bits)
        den = (one[0] - nr[0], -nr[1])
        if den == (0, 0):
            den = one
        step = hp_div(newton, den, bits)
        z[k] = (z[k][0] - step[0], z[k][1] - step[1])
        max_step = max(max_step, abs(step[0]), abs(step[1]))
    return max_step, exhausted


def _refine_hp(
    int_coeffs: list[int], raw: list[complex], sweeps: int = 48
) -> tuple[list[HP], int, list[float]]:
    """Gauss-Seidel Aberth sweeps in fixed point with exact integer
    coefficients, on the precision ladder _RUNGS, warm-started from the
    double-precision multiset; badly assigned iterates migrate to uncovered
    roots on the way.  f must be squarefree.

    The ladder climbs a rung after a sweep that finds the rung exhausted
    (_sweep), and only then.  The inclusion discs are computed after such a
    sweep, or after one whose largest step is below 2^-100, which may
    certify before the rung is exhausted; the ladder stops once every radius
    is below 2^-100 (1 + |z_i|) and the discs are pairwise disjoint.  At
    the top rung it sweeps on until they do; after `sweeps` sweeps in all
    it raises ConvergenceFailure.

    Returns the fixed-point centres, the fraction bits of the rung they
    are at and their inclusion radii (see _inclusion_discs)."""
    n = len(int_coeffs) - 1
    dcoeffs = [i * c for i, c in enumerate(int_coeffs)][1:]
    bits = _RUNGS[0]
    z = [hp(v, bits) for v in raw]
    steps: list[int] = []
    for _ in range(sweeps):
        step, exhausted = _sweep(int_coeffs, dcoeffs, z, bits)
        steps.append(step.bit_length() - 1 - bits)
        if not (exhausted or steps[-1] < -_CERTIFY_BITS):
            continue
        radii, disjoint = _inclusion_discs(int_coeffs, z, bits)
        if disjoint and all(
            r < math.ldexp(1.0 + abs(hp_float(v, bits)), -_CERTIFY_BITS) for r, v in zip(radii, z)
        ):
            return z, bits, radii
        if exhausted and bits < _RUNGS[-1]:
            up = _RUNGS[_RUNGS.index(bits) + 1] - bits
            z = [(re << up, im << up) for re, im in z]
            bits += up
    raise ConvergenceFailure(
        f"high-precision sweeps did not settle on degree {n} in {sweeps} sweeps: "
        f"the last sweep's largest step was 2^{steps[-1]}",
        stage="refine", degree=n, bits=bits, sweeps=len(steps), steps=steps,
    )


def _horner_error(n: int, z: HP, bits: int) -> float:
    """Bound on the truncation error of hp_horner at z on degree n, capped
    at 2^1000: under sqrt(2) sum_{k<n} |z|^k units of 2^-bits."""
    az = hp_abs(z, bits) * (1.0 + _REL)
    return 2.0 ** min(math.log2(1.5 * n) + (n - 1) * math.log2(max(1.0, az)) - bits, 1000.0)


def _inclusion_discs(int_coeffs: list[int], z: list[HP], bits: int) -> tuple[list[float], bool]:
    """Gerschgorin-Weierstrass inclusion discs D(z_i, r_i) about the
    fixed-point centres z_i, with

        r_i = n |f(z_i)| / |a_n prod_{j != i} (z_i - z_j)|,

    rounded outward.  The union of the discs holds every root of f, and
    each connected component of m discs holds exactly m roots counted
    with multiplicity (Bini & Fiorentino, Numer. Algorithms 23 (2000);
    Neumaier, J. Comput. Appl. Math. 156 (2003)).  So when the discs are
    pairwise disjoint, each holds exactly one root, a simple one.

    |f(z_i)| is the fixed-point Horner value plus its truncation bound
    (_horner_error); the denominator is a float product whose rounding is
    covered by a relative factor.  Returns the radii, infinite for
    coincident centres, and whether the discs are pairwise disjoint."""
    n = len(z)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = hp_abs((z[i][0] - z[j][0], z[i][1] - z[j][1]), bits)
    lead_m, lead_e = math.frexp(float(abs(int_coeffs[-1])))
    # n + 1 rounded factors and products of at most _REL each in the
    # denominator, and three roundings after it
    slack = 1.0 + 2 * (n + 2) * _REL
    radii = []
    for i, zi in enumerate(z):
        num = hp_abs(hp_horner(int_coeffs, zi, bits), bits) * (1.0 + _REL) + _horner_error(n, zi, bits)
        m, e = lead_m, lead_e
        for j in range(n):
            if j != i:
                m, k = math.frexp(m * dist[i][j])
                e += k
        if m == 0.0 or math.frexp(num)[1] - e > 1000:
            radii.append(math.inf)
            continue
        # below 2^-1022 a float loses relative precision; clamp outward
        radii.append(max(math.ldexp(n * num / m * slack, -e), 2.0**-1022))
    disjoint = all(
        dist[i][j] * (1.0 - _REL) > (radii[i] + radii[j]) * (1.0 + _REL)
        for i in range(n)
        for j in range(i + 1, n)
    )
    return radii, disjoint


def _on_axis(z: list[HP], bits: int, radii: list[float], i: int, sign: int) -> bool:
    """Whether the disc D(z_i, r_i) meets the real (sign +1) or imaginary
    (sign -1) axis and its mirror D(sign * conj(z_i), r_i) meets no other
    disc.  With sign +1 the mirror of the disc's root, a root when f is
    real, then lies in the disc again; with sign -1 likewise when moreover
    all exponents of f have one parity.  The disc holds one root, so that
    root is its own mirror and lies on the axis."""
    if abs(z[i][1] if sign == 1 else z[i][0]) > math.ldexp(radii[i], bits):
        return False
    mre, mim = sign * z[i][0], -sign * z[i][1]
    return all(
        j == i
        or hp_abs((mre - zr, mim - zim), bits) * (1.0 - _REL) > (radii[i] + radii[j]) * (1.0 + _REL)
        for j, (zr, zim) in enumerate(z)
    )


def _reach(value: complex, radius: float) -> float:
    """The radius of a root's disc about its double `value`, rounded outward
    over the rounding of its fixed-point centre and of a distance to it."""
    return radius + _REL * (1.0 + abs(value))


def _meets_unit_circle(value: complex, radius: float) -> bool:
    """Whether a root's disc meets |s| = 1: its flag, and classify's check."""
    return abs(abs(value) - 1.0) <= _reach(value, radius)


# ---------------------------------------------------------------------------
# the root pipeline


def _package(int_coeffs: list[int], z: list[HP], bits: int, radii: list[float]) -> list[Root]:
    """One simple root per inclusion disc, at the double rounding of its
    centre.  A disc whose mirror meets no other disc holds a real or (when
    the exponents of f all have one parity) a pure imaginary root
    (_on_axis), whose zero coordinate is then an exact 0.0.  The converse
    holds for real roots only: with mixed parities a centre may land on
    re = 0 exactly, and the root is not flagged imaginary.  A root is on
    the unit circle when its disc meets |s| = 1.  f has no root at +-1
    (find_roots split them off), so no root here is trivial.  Each root
    carries its disc's radius.  Unsorted; find_roots sorts."""
    # f(-s) = +-f(s): the roots are symmetric about the imaginary axis too
    parity = len({k % 2 for k, c in enumerate(int_coeffs) if c}) == 1
    roots = []
    for i, radius in enumerate(radii):
        value = hp_float(z[i], bits)
        real = _on_axis(z, bits, radii, i, 1)
        imaginary = not real and parity and _on_axis(z, bits, radii, i, -1)
        if real:
            value = complex(value.real, 0.0)
        elif imaginary:
            value = complex(0.0, value.imag)
        flags = RootFlags(
            trivial_pm1=False, real=real, imaginary=imaginary,
            unit_circle=_meets_unit_circle(value, radius),
        )
        roots.append(Root(value, 1, flags, radius))
    return roots


def find_roots(f: LaurentPoly) -> RootSet:
    """Roots of the non-zero Laurent polynomial f with integer
    coefficients, each with a certified inclusion disc.

    Exponent units s^k are stripped first, so only non-zero roots exist and
    their count, with multiplicity, equals the span.  The roots +-1 are
    split off exactly: while f(x) = 0 for x = 1, then x = -1, f is divided
    by (s - x), and x becomes a root of that order (its multiplicity) with
    radius 0 and the trivial_pm1 flag.  The rest must be certified
    squarefree (_squarefree), or ValidationError is raised: the test is
    modular, so that refusal does not by itself prove a repeated root.
    Only then is it solved, from one start: a double-precision Aberth pass
    from the Newton-polygon radii; fixed-point sweeps on the exact
    coefficients refine it on a precision ladder until pairwise disjoint
    Gerschgorin-Weierstrass inclusion discs certify every root.  Each disc
    holds exactly one root, a simple one, whose flags come from its disc
    (_package).  A coefficient beyond the range of a double fails the start
    at once.  A failure of either stage raises its ConvergenceFailure,
    with coeff_bits set; its degree and coeff_bits are those of the polynomial
    left after the split.  All roots are sorted once, by (re, im).
    """
    if f.is_zero:
        raise ValidationError("cannot take roots of the zero polynomial")
    span = f.span
    if span == 0:
        return RootSet(roots=(), span=0)
    f = f.shift(-f.mindeg)
    if not all(isinstance(c, int) for c in f.coeffs.values()):
        raise ValidationError("find_roots needs a polynomial with int coefficients")
    roots = []
    for x in (1, -1):
        order = 0
        while f.eval_at_int(x) == 0:
            f = f.exact_div(LaurentPoly({1: 1, 0: -x}))
            order += 1
        if order:
            flags = RootFlags(trivial_pm1=True, real=True, imaginary=False, unit_circle=True)
            roots.append(Root(complex(x), order, flags, 0.0))
    if f.span:
        int_coeffs = f.dense()[0]
        if not _squarefree(int_coeffs):
            raise ValidationError(
                f"the degree-{f.span} polynomial left after the +-1 split is not certified "
                "squarefree: gcd(f, f') != 1 modulo 2^61 - 1"
            )
        top = max(abs(c) for c in int_coeffs)
        try:
            if top > sys.float_info.max:
                raise ConvergenceFailure(
                    f"a coefficient of {top.bit_length()} bits is beyond the range of a double: "
                    f"no double-precision start on degree {f.span}",
                    stage="aberth", degree=f.span,
                )
            coeffs = np.asarray([complex(c) for c in int_coeffs], dtype=complex)
            coeffs = coeffs / coeffs[-1]
            raw = [complex(z) for z in _aberth(coeffs)]
            # no double-precision polish after refinement: at condition
            # numbers ~1e13 a double Newton step would re-smear the root
            z, bits, radii = _refine_hp(int_coeffs, raw)
            roots += _package(int_coeffs, z, bits, radii)
        except ConvergenceFailure as exc:
            exc.coeff_bits = top.bit_length()
            raise
    return RootSet(roots=tuple(sorted(roots, key=lambda r: (r.value.real, r.value.imag))), span=span)


# ---------------------------------------------------------------------------
# resultant root sets


@lru_cache(maxsize=256)
def _solve(poly: LaurentPoly) -> RootSet | WhitenormError:
    # lru_cache keeps no exceptions, so a failure is returned as a value
    try:
        return find_roots(poly)
    except WhitenormError as exc:
        return exc


def resultant_roots(p: int, q: int) -> RootSet:
    """RootSet of res_{p,q} (resultant_rootset_of)."""
    return resultant_rootset_of(build_res(p, q))


def resultant_rootset_of(r: ResPoly) -> RootSet:
    """find_roots of res, after trivial_root_orders has certified the
    exact orders of +-1 against the parity pattern of (p, q).

    The solve is cached on the polynomial, failures included: res depends
    only on |p - 2q| and q, so p/q and (4q - p)/q share one solve, and each
    polynomial is solved once per process.  RootSet is frozen, so sharing
    it is safe."""
    if r.is_degenerate:
        return RootSet(roots=(), span=0)
    trivial_root_orders(r)
    out = _solve(r.poly)
    if isinstance(out, WhitenormError):
        raise out
    return out


resultant_roots.cache_info = _solve.cache_info
resultant_roots.cache_clear = _solve.cache_clear


def nontrivial_roots(rs: RootSet) -> RootSet:
    """The roots other than the +-1 that find_roots split off exactly."""
    return RootSet(roots=tuple(r for r in rs if not r.flags.trivial_pm1), span=rs.span)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassificationReport:
    p: int
    q: int
    n_nontrivial: int
    real_count: int
    imaginary_count: int
    min_unit_circle_gap: float
    min_separation: float


def _closed_form_real_count(p: int, q: int) -> int:
    if p > 4 * q > 0 or p < 0:
        return 0
    # 0 < p < 4q: two positive roots for p odd, four real for p even
    return 2 if p % 2 == 1 else 4


def _closed_form_imaginary_count(p: int, q: int) -> int:
    if p % 4 != 0:
        return 0
    return 4 if (p > 4 * q > 0 or p < 0) else 0


def classify(rs: RootSet, p: int, q: int) -> ClassificationReport:
    """Count the real and pure imaginary roots among the non-trivial ones,
    from their certified flags, and compare against the closed-form
    expectations; fail when the disc of a non-trivial root meets |s| = 1
    (_meets_unit_circle on each Root's value and radius).  The report's circle
    gap and separation are those of the printed values."""
    nt = nontrivial_roots(rs)
    real = sum(r.flags.real for r in nt)
    imag = sum(r.flags.imaginary for r in nt)
    exp_real = _closed_form_real_count(p, q)
    exp_imag = _closed_form_imaginary_count(p, q)
    if real != exp_real:
        raise ClassificationViolation(
            f"({p},{q}): found {real} real non-trivial roots, expected {exp_real}"
        )
    if imag != exp_imag:
        raise ClassificationViolation(
            f"({p},{q}): found {imag} imaginary non-trivial roots, expected {exp_imag}"
        )
    values = nt.values
    gaps = [abs(abs(v) - 1.0) for v in values]
    min_gap = min(gaps) if gaps else math.inf
    met = [r.value for r in nt if _meets_unit_circle(r.value, r.radius)]
    if met:
        worst = min(met, key=lambda v: abs(abs(v) - 1.0))
        raise ClassificationViolation(
            f"({p},{q}): non-trivial root {worst} sits on the unit circle "
            f"(gap {abs(abs(worst) - 1.0):.2e})"
        )
    seps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]]
    min_sep = min(seps) if seps else math.inf
    return ClassificationReport(
        p=p,
        q=q,
        n_nontrivial=len(nt),
        real_count=real,
        imaginary_count=imag,
        min_unit_circle_gap=min_gap,
        min_separation=min_sep,
    )
