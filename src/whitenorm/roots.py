"""The certified roots of res and their classification (real / imaginary /
unit circle).

res's roots +-1 are split off exactly first, at their exact orders with
radius 0, and the quotient left is certified squarefree exactly
(respq.ResPoly's trivial_orders and quotient), so every other root is
simple.  Those roots solve res's filling equation: with tau + 1/tau =
s^2 - 4 + s^-2, tau^q s^m = 1 and m = p - 2q, in logs sigma = log s and
theta = log tau,

    cosh theta = cosh 2 sigma - 2,    q theta + m sigma = 2 pi i k

for an integer label k: Thurston's Dehn filling equation in the form
SnapPea solves it (Thurston 1979, ch. 4-5; Weeks 2005), here at every
label.  The start (_start) runs Newton's method at the label of each seed
of a fixed grid, walks from each new root to the labels k +- 1 by a
predictor-corrector step (Allgower & Georg 2003), and adds each root's
images under res's symmetries, until it holds n distinct doubles.  The
discs' own bound, read off the doubles, plans one precision (_plan); each
double is lifted once at it by Newton's method on the closed form in fixed
point (respq._newton, plain python ints, see cxhp), and pairwise disjoint
Gerschgorin-Weierstrass inclusion discs from the exact dense coefficients,
computed once, must certify every root to 2^-100 (_certify).  The
start needs none of its thresholds to be right: n pairwise disjoint discs
about a squarefree polynomial of degree n hold one root each, so a wrong
or missing start point can only fail the solve.  The disc is the one root
certificate: the printed double lies within 2^-53 |z| + r of its root, and
every other fact about the root is read off it (_package).

Each Root carries its disc: the radius, and the fixed-point centre at the
planned bits, from which reps lifts the root with no second solve.  A
RootSet is the roots, sorted once by (re, im), and the span.  No randomness
anywhere; repeated runs emit identical bytes, whatever bits certified.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .cxhp import HP, HPComplex, hp_abs, hp_float, hp_horner
from .errors import ConvergenceFailure, VerificationFailure, WhitenormError
from .respq import ResPoly, _newton, _res_value, build_res


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
    centre: HP  # the disc's fixed-point centre; (+-1, 0) for the exact +-1
    bits: int  # the centre's fraction bits, planned by _plan; 0 for the exact +-1

    def holds(self, z: complex) -> bool:
        """Whether z lies in the root's disc, rounded outward (_reach)."""
        return abs(z - self.value) <= _reach(self.value, self.radius)


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


# ---------------------------------------------------------------------------
# the start: res's filling equation, label by label

# The seeds: on circles of these radii about 0, at _PHASES phases each, half
# a step off the axes, with both branches of tau.  The order is fixed, so
# the start is deterministic.
_RADII = (1.0, 1.5, 0.7, 2.5, 1.2, 1.05, 3.5)
_PHASES = 64
# Newton steps a start point may take, and the step in sigma that ends them:
# the next step, about its square, is below double precision
_STEPS = 40
_CONVERGED = 1e-12
# Two doubles within this of each other, relative to 1 + |s|, are taken as
# one root; two roots this close fail the start
_SAME = 1e-9
# A double this close to +-1 is taken as one of the roots split off exactly,
# which are double roots: Newton's method stops short of them by about the
# square root of double precision
_TRIVIAL = 1e-6


def _correct(sigma: complex, k: int, m: int, q: int) -> complex | None:
    """Newton's method on g(sigma) = cosh theta - cosh 2 sigma + 2 with
    theta = (2 pi i k - m sigma)/q, the filling equation at label k, from
    sigma; None when it does not converge."""
    label = 2j * math.pi * k
    try:
        for _ in range(_STEPS):
            theta = (label - m * sigma) / q
            g = cmath.cosh(theta) - cmath.cosh(2 * sigma) + 2
            step = g / (-m / q * cmath.sinh(theta) - 2 * cmath.sinh(2 * sigma))
            sigma -= step
            if abs(step) < _CONVERGED:
                return sigma
    except (ArithmeticError, ValueError):
        pass
    return None


def _reduce(sigma: complex, k: int, m: int, q: int) -> tuple[complex, int]:
    """(sigma, k) with sigma's and theta's imaginary parts brought into
    [-pi, pi] by deck translations: sigma - 2 pi i j is label k - m j, and
    theta - 2 pi i l is label k - q l.  The root and its neighbours along
    the curve stay the same; cosh keeps its precision."""
    j = round(sigma.imag / (2 * math.pi))
    sigma, k = sigma - 2j * math.pi * j, k - m * j
    return sigma, k - q * round(((2j * math.pi * k - m * sigma) / q).imag / (2 * math.pi))


def _seeds(m: int, q: int):
    """(sigma, k) for each seed of the grid, k the label of its point of the
    quadric on either branch of tau."""
    for radius in _RADII:
        for j in range(_PHASES):
            s = cmath.rect(radius, 2 * math.pi * (j + 0.5) / _PHASES)
            sigma = cmath.log(s)
            x = s * s + 1 / (s * s) - 4
            root = cmath.sqrt(x * x - 4)
            for tau in ((x + root) / 2, (x - root) / 2):
                yield sigma, round((q * cmath.log(tau) + m * sigma).imag / (2 * math.pi))


def _start(m: int, q: int, n: int) -> list[complex]:
    """n distinct doubles near the non-trivial roots of res, m = p - 2q, on
    its filling equation: Newton's method at each seed's label (_seeds,
    _correct), and from each new root walks to the labels k + 1, k + 2, ...
    and k - 1, k - 2, ..., each step the tangent predictor
    sigma +- 2 pi i / G'(sigma), G = q theta + m sigma, then Newton, until
    Newton fails or meets a known root.  A new root's images conj(s), 1/s,
    1/conj(s), and -s of each for p even, are added with it.  Raises
    ConvergenceFailure(stage="start") unless the count ends at n."""
    found: list[complex] = []
    cells: dict[tuple[int, int], list[complex]] = {}

    def cell(s: complex) -> tuple[int, int]:
        return round(s.real * 1e6), round(s.imag * 1e6)

    def known(s: complex) -> bool:
        re, im = cell(s)
        return any(
            abs(s - t) <= _SAME * (1 + abs(s))
            for dr in (-1, 0, 1) for di in (-1, 0, 1) for t in cells.get((re + dr, im + di), ())
        )

    def add(sigma: complex | None) -> bool:
        """Whether e^sigma is a new root; if so, it is found with its images."""
        if sigma is None or known(s := cmath.exp(sigma)) or min(abs(s - 1), abs(s + 1)) < _TRIVIAL:
            return False
        images = [s, s.conjugate(), 1 / s, 1 / s.conjugate()]
        for z in images + [-z for z in images] * (m % 2 == 0):
            if not known(z):
                found.append(z)
                cells.setdefault(cell(z), []).append(z)
        return True

    def walk(sigma: complex, k: int, d: int) -> None:
        while True:
            sigma, k = _reduce(sigma, k, m, q)
            theta = (2j * math.pi * k - m * sigma) / q
            try:
                sigma += d * 2j * math.pi / (2 * q * cmath.sinh(2 * sigma) / cmath.sinh(theta) + m)
            except (ArithmeticError, ValueError):
                return
            k += d
            sigma = _correct(sigma, k, m, q)
            if not add(sigma):
                return

    for sigma, k in _seeds(m, q):
        if len(found) >= n:
            break
        sigma = _correct(sigma, k, m, q)
        if add(sigma):
            walk(sigma, k, 1)
            walk(sigma, k, -1)
    if len(found) != n:
        raise ConvergenceFailure(
            f"the start found {len(found)} distinct roots of the filling equation, "
            f"where degree {n} has {n}",
            stage="start", degree=n,
        )
    return found


# ---------------------------------------------------------------------------
# the certificate: fixed-point lifts at one planned precision, inclusion discs

# The discs certify once every inclusion radius is below 2^-100 (1 + |z|):
# 47 bits past double precision, so the double rounding of a disc's centre
# is that of its root unless the root lies within 2^-100 of a rounding
# boundary.  reps lifts each root from its centre, good to this many bits.
CERTIFY_BITS = 100
_START_BITS = 30  # good bits of a start point, whose last step was below 2^-39
_MARGIN = 1  # bits the plan keeps above the largest need it reads off the start
_REL = 2.0**-50  # relative error bound of one cxhp.hp_abs value (below 2^-51) or float product


def _horner_log2(n: int, az: float, bits: int) -> float:
    """log2 of 1.5 n max(1, az)^(n-1) 2^-bits, a bound on the truncation
    error of hp_horner at |z| <= az on degree n (sqrt(2) sum_{k<n} az^k units)."""
    return math.log2(1.5 * n) + (n - 1) * math.log2(max(1.0, az)) - bits


def _plan(int_coeffs: list[int], start: list[complex]) -> int:
    """The fraction bits of the lifts and discs: the bits each root needs,
    read in logs off its distinct double (_start) from _inclusion_discs'
    radius with |f(z_i)| at its truncation bound (_horner_log2), for
    2^-CERTIFY_BITS (1 + |z_i|); their largest plus _MARGIN, at least 128,
    rounded up to a multiple of 64."""
    n, lead = len(start), math.log2(abs(int_coeffs[-1]))
    need = max(
        math.log2(n) + _horner_log2(n, abs(z), 0) - lead + CERTIFY_BITS - math.log2(1 + abs(z))
        - sum(math.log2(abs(z - w)) for w in start if w != z)
        for z in start
    )
    return 64 * math.ceil(max(128, need + _MARGIN) / 64)


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
    (_horner_log2), each divided by the denominator's 2^e before it becomes
    a float; the denominator, a float mantissa and that exponent, has its
    rounding covered by a relative factor.  Returns the radii, infinite for
    coincident centres and past float range, and whether they are disjoint."""
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
        m, e = lead_m, lead_e
        for j in range(n):
            if j != i:
                m, k = math.frexp(m * dist[i][j])
                e += k
        value = hp_horner(int_coeffs, zi, bits)
        error = _horner_log2(n, hp_abs(zi, bits) * (1.0 + _REL), bits) - e
        if m == 0.0 or max(error, max(map(abs, value)).bit_length() - bits - e) > 1000:
            radii.append(math.inf)
            continue
        # below 2^-1022 a float loses relative precision; clamp outward
        num = max(hp_abs(value, bits + e) * (1.0 + _REL) + 2.0**error, 2.0**-1022)
        radii.append(n * num / m * slack)
    disjoint = all(
        dist[i][j] * (1.0 - _REL) > (radii[i] + radii[j]) * (1.0 + _REL)
        for i in range(n) for j in range(i + 1, n)
    )
    return radii, disjoint


def _on_axis(z: list[HP], bits: int, radii: list[float], i: int, sign: int) -> bool:
    """Whether the disc D(z_i, r_i) meets the real (sign +1) or imaginary
    (sign -1) axis and its mirror D(sign * conj(z_i), r_i) meets no other
    disc.  With sign +1 the mirror of the disc's root, a root when f is
    real, then lies in the disc again; with sign -1 likewise when moreover
    all exponents of f have one parity.  The disc holds one root, so that
    root is its own mirror and lies on the axis."""
    if Fraction(abs(z[i][1] if sign == 1 else z[i][0]), 1 << bits) > radii[i]:
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
    (split off before the solve), so no root here is trivial.  Each root
    carries its disc: the radius and the centre, whose coordinate is zeroed
    with the value's, so a lift from it stays on the axis.  Unsorted;
    _solve_res sorts."""
    # f(-s) = +-f(s): the roots are symmetric about the imaginary axis too
    parity = len({k % 2 for k, c in enumerate(int_coeffs) if c}) == 1
    roots = []
    for i, radius in enumerate(radii):
        (re, im), value = z[i], hp_float(z[i], bits)
        real = _on_axis(z, bits, radii, i, 1)
        imaginary = not real and parity and _on_axis(z, bits, radii, i, -1)
        if real:
            im, value = 0, complex(value.real, 0.0)
        elif imaginary:
            re, value = 0, complex(0.0, value.imag)
        flags = RootFlags(
            trivial_pm1=False, real=real, imaginary=imaginary,
            unit_circle=abs(abs(value) - 1.0) <= _reach(value, radius),
        )
        roots.append(Root(value, 1, flags, radius, (re, im), bits))
    return roots


def _certify(quotient: tuple[int, ...], start: list[complex], m: int, q: int) -> list[Root]:
    """The start's doubles, each lifted once at the planned bits (_plan)
    by Newton's method on res's closed form (respq._res_value) from
    _START_BITS good bits, and the inclusion discs about the lifts, once,
    on the quotient's exact coefficients.  Disjoint discs with every radius
    below 2^-CERTIFY_BITS (1 + |z|) give one root each (_package); else
    ConvergenceFailure(stage="discs") names the bits and the worst miss."""
    n, bits = len(quotient) - 1, _plan(quotient, start)
    value = partial(_res_value, m=m, q=q)
    lifts = [_newton(value, HPComplex.from_complex(v, bits), _START_BITS) for v in start]
    z = [(v.re, v.im) for v in lifts]
    radii, disjoint = _inclusion_discs(quotient, z, bits)
    if disjoint and all(r < math.ldexp(1 + abs(v), -CERTIFY_BITS) for r, v in zip(radii, lifts)):
        return _package(quotient, z, bits, radii)
    miss = max(math.log2(r) + CERTIFY_BITS - math.log2(1 + abs(v)) for r, v in zip(radii, lifts))
    why = "they were not pairwise disjoint" if miss < 0 else f"the worst radius missed by {miss:.1f} bits"
    raise ConvergenceFailure(
        f"the discs at the planned {bits} fraction bits did not certify degree {n} to 2^-{CERTIFY_BITS} "
        f"(1 + |z|): {why}", stage="discs", degree=n, bits=bits,
    )


def _solve_res(orders: tuple[int, int], quotient: tuple[int, ...], m: int, q: int) -> RootSet:
    """The roots of res, m = p - 2q: 1 and -1 at the given orders, with
    radius 0 and the trivial_pm1 flag, and those of the certified
    squarefree quotient (dense, ascending) from _start and _certify.  Either
    stage's ConvergenceFailure gets coeff_bits, the bit length of the
    quotient's largest coefficient.  Sorted once, by (re, im)."""
    flags = RootFlags(trivial_pm1=True, real=True, imaginary=False, unit_circle=True)
    roots = [Root(complex(x), order, flags, 0.0, (x, 0), 0) for x, order in zip((1, -1), orders) if order]
    degree = len(quotient) - 1
    if degree:
        try:
            roots += _certify(quotient, _start(m, q, degree), m, q)
        except ConvergenceFailure as exc:
            exc.coeff_bits = max(abs(c) for c in quotient).bit_length()
            raise
    roots.sort(key=lambda r: (r.value.real, r.value.imag))
    return RootSet(roots=tuple(roots), span=sum(orders) + degree)


# ---------------------------------------------------------------------------
# resultant root sets


@lru_cache(maxsize=256)
def _solve(orders: tuple[int, int], quotient: tuple[int, ...], m: int, q: int) -> RootSet | WhitenormError:
    # lru_cache keeps no exceptions, so a failure is returned as a value
    try:
        return _solve_res(orders, quotient, m, q)
    except WhitenormError as exc:
        return exc


def resultant_roots(p: int, q: int) -> RootSet:
    """RootSet of res_{p,q} (resultant_rootset_of)."""
    return resultant_rootset_of(build_res(p, q))


def resultant_rootset_of(r: ResPoly) -> RootSet:
    """The roots of res from its exact facts: the orders of +-1, checked
    against the parity pattern of (p, q) (ResPoly.trivial_orders), and the
    certified squarefree quotient (ResPoly.quotient), solved on res's
    filling equation (_solve_res).

    The solve is cached on those facts and |p - 2q|, failures included:
    res depends only on |p - 2q| and q, so p/q and (4q - p)/q share one
    solve, and each polynomial is solved once per process.  RootSet is
    frozen, so sharing it is safe."""
    if r.is_degenerate:
        return RootSet(roots=(), span=0)
    out = _solve(r.trivial_orders, r.quotient, abs(r.p - 2 * r.q), r.q)
    if isinstance(out, WhitenormError):
        raise out.with_traceback(None)  # else each raise grows the cached traceback
    return out


resultant_roots.cache_info = _solve.cache_info
resultant_roots.cache_clear = _solve.cache_clear


def nontrivial_roots(rs: RootSet) -> RootSet:
    """The roots other than the +-1 split off exactly before the solve."""
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
    return 4 if p % 4 == 0 and (p > 4 * q > 0 or p < 0) else 0


def classify(rs: RootSet, p: int, q: int) -> ClassificationReport:
    """Count the real and pure imaginary roots among the non-trivial ones,
    from their certified flags, and compare against the closed-form
    expectations; fail when the disc of a non-trivial root meets |s| = 1
    (its unit_circle flag, set by _package).  The report's circle
    gap and separation are those of the printed values."""
    nt = nontrivial_roots(rs)
    real = sum(r.flags.real for r in nt)
    imag = sum(r.flags.imaginary for r in nt)
    exp_real = _closed_form_real_count(p, q)
    exp_imag = _closed_form_imaginary_count(p, q)
    if real != exp_real:
        raise VerificationFailure(
            f"({p},{q}): found {real} real non-trivial roots, expected {exp_real}"
        )
    if imag != exp_imag:
        raise VerificationFailure(
            f"({p},{q}): found {imag} imaginary non-trivial roots, expected {exp_imag}"
        )
    values = nt.values
    min_gap = min((abs(abs(v) - 1.0) for v in values), default=math.inf)
    met = [r.value for r in nt if r.flags.unit_circle]
    if met:
        worst = min(met, key=lambda v: abs(abs(v) - 1.0))
        raise VerificationFailure(
            f"({p},{q}): non-trivial root {worst} sits on the unit circle "
            f"(gap {abs(abs(worst) - 1.0):.2e})"
        )
    min_sep = min((abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]), default=math.inf)
    return ClassificationReport(
        p=p, q=q, n_nontrivial=len(nt), real_count=real, imaginary_count=imag,
        min_unit_circle_gap=min_gap, min_separation=min_sep,
    )
