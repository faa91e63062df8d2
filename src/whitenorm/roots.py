"""Complex root extraction with certified multiplicities and the
classification of resultant roots (real / imaginary / unit circle).

One pipeline, for polynomials with integer coefficients (find_roots): a
deterministic double-precision simultaneous iteration (Aberth-Ehrlich,
Newton-polygon starting radii, golden-angle phases) gives a start; it is
refined by Gauss-Seidel Aberth sweeps in fixed point on the exact
coefficients (plain python ints, see cxhp), on a ladder of 128, 256, 512
and 768 fraction bits whose top rung is cxhp.BITS.  The ladder stops when
Gerschgorin-Weierstrass inclusion discs certify every root to 2^-100; the
refined multiset must rebuild the coefficients.  Every fact about a root
is read off the discs (see _package): its multiplicity, realness, whether
it is +-1 and whether it meets the unit circle.  There is no
double-precision polish.  The refinement matters: resultant roots packed
near the unit circle reach condition numbers beyond 1e13, so double
precision alone cannot certify symmetry classes at 1e-8.  Resultant root
sets split the trivial roots +-1 off exactly first.

No randomness anywhere; repeated runs emit identical bytes, whatever rung
the ladder stopped at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import TOL
from .cxhp import BITS, HP, hp, hp_div, hp_float, hp_horner, hp_int, hp_mul
from .errors import (
    ConvergenceFailure,
    ClassificationViolation,
    TrivialRootMismatch,
    ValidationError,
    WhitenormError,
)
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
    multiplicity: int
    flags: RootFlags


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    span: int
    pq: tuple[int, int] | None = None
    residuals: tuple[float, ...] = field(default=())
    radii: tuple[float, ...] = field(default=())

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
        pts = list(zip(self.values, self.radii))
        return [
            (i, j)
            for i, (a, ra) in enumerate(pts)
            for j, (b, rb) in enumerate(pts[i + 1 :], i + 1)
            if abs(a - b) <= ra + rb
        ]


# ---------------------------------------------------------------------------
# double-precision stage


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _backward_error(coeffs: np.ndarray, z: complex) -> float:
    num = abs(complex(_horner(coeffs, np.array([z]))[0]))
    den = float(np.sum(np.abs(coeffs) * np.abs(z) ** np.arange(len(coeffs))))
    return num / den if den else num


def _initial_points(coeffs: np.ndarray, attempt: int) -> np.ndarray:
    """One starting radius per edge of the upper Newton polygon of
    (i, log|c_i|), phases from the golden-ratio sequence."""
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
    radii *= 1.0 + 0.23 * attempt
    k = np.arange(n)
    angles = 2.0 * math.pi * ((k * _GOLDEN + 0.29 + 0.11 * attempt) % 1.0)
    return radii * np.exp(1j * angles)


# a start that overflows or divides by zero ends in its ConvergenceFailure,
# which is all a caller can act on; numpy's warnings would only add noise
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _aberth(coeffs: np.ndarray, attempt: int, max_iter: int = 2000) -> np.ndarray:
    """One simultaneous-iteration pass.  Stops when corrections hit machine
    level, or when every iterate is backward-stable and corrections are
    small (the stall of ill-conditioned or multiple roots)."""
    n = len(coeffs) - 1
    dcoeffs = coeffs[1:] * np.arange(1, n + 1)
    exponents = np.arange(len(coeffs))
    z = _initial_points(coeffs, attempt)
    for _ in range(max_iter):
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
        worst = float((np.abs(step) / (1.0 + np.abs(z))).max())
        # about 22 ulps of a double (eps = 2.2e-16): a smaller correction
        # only moves the iterate inside its own rounding noise, and the
        # fixed-point sweeps take every root on from here
        if worst < 5e-15:
            return z
        # ill-conditioned roots keep jittering inside their cond*eps ball, so
        # corrections never shrink; accept on backward stability alone (the
        # multiset verification catches any doubled-up configuration).
        # Horner's rounding error is at most about 2n u sum_i |c_i||z|^i
        # (u = 2^-53), which reaches 1e-13 at degree 450, so this asks for
        # no more than double precision can tell at the degrees solved here
        scale = np.sum(np.abs(coeffs) * np.abs(z[:, None]) ** exponents[None, :], axis=1)
        if (np.abs(_horner(coeffs, z)) <= 1e-13 * scale).all():
            return z
    raise ConvergenceFailure(
        f"no convergence after {max_iter} iterations on degree {n}", stage="aberth", degree=n
    )


def _components(n: int, linked) -> list[list[int]]:
    """Index groups, each in increasing order, of the connected components
    of the graph on range(n) with an edge wherever linked(i, j), i < j."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if linked(i, j):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


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
# Relative error bound of one _absf value (shift, int-to-float, hypot) and
# of one float product, with room.
_REL = 2.0**-50


def _sweep(int_coeffs: list[int], dcoeffs: list[int], z: list[HP], bits: int) -> int:
    """One Gauss-Seidel Aberth sweep over z in place, at `bits` fraction
    bits; returns the largest step component in units of 2^-bits."""
    one = hp_int(1, bits)
    max_step = 0
    for k in range(len(z)):
        pv = hp_horner(int_coeffs, z[k], bits)
        dv = hp_horner(dcoeffs, z[k], bits)
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
    return max_step


def _refine_hp(
    int_coeffs: list[int], raw: list[complex], sweeps: int = 48
) -> tuple[list[HP], int, list[float], list[list[int]]]:
    """Gauss-Seidel Aberth sweeps in fixed point with exact integer
    coefficients, on the precision ladder _RUNGS, warm-started from the
    double-precision multiset; badly assigned iterates migrate to uncovered
    roots on the way.

    The inclusion discs are computed after a sweep whose largest step is
    below 2^(-bits/2), the rung's floor (Aberth's method converges
    cubically on simple roots, so the iterates are then as good as the rung
    makes them); below 2^(-bits/4) and no smaller than the sweep before,
    a stall; or below 2^-100.  The ladder stops once every radius is below
    2^-100 (1 + |z_i|).  Otherwise it climbs a rung at a floor or a stall,
    and sweeps on after a small step alone: a multiple root converges
    linearly, about two bits a sweep.  At the top rung it sweeps on until
    the discs certify.  After `sweeps` sweeps in all it raises
    ConvergenceFailure; the 48 of the default take a double root from its
    ~2^-22 double start to the ~2^-105 steps at which its discs certify.

    Returns the fixed-point centres, the fraction bits of the rung they
    are at, their inclusion radii and the connected components of the
    discs (see _inclusion_discs)."""
    n = len(int_coeffs) - 1
    dcoeffs = [i * c for i, c in enumerate(int_coeffs)][1:]
    rung = 0
    bits = _RUNGS[rung]
    z = [hp(v, bits) for v in raw]
    steps: list[int] = []
    first = 0  # the rung's first sweep
    for _ in range(sweeps):
        steps.append(_sweep(int_coeffs, dcoeffs, z, bits).bit_length() - 1 - bits)
        # at the floor, or stalled short of it; a start still migrating
        # takes large steps that need not shrink
        floor = steps[-1] < -(bits // 2)
        stalled = steps[-1] < -(bits // 4) and len(steps) > first + 1 and steps[-1] >= steps[-2]
        # a multiple root converges linearly, with no floor or stall in sight
        if not (floor or stalled or steps[-1] < -_CERTIFY_BITS):
            continue
        radii, groups = _inclusion_discs(int_coeffs, z, bits)
        if all(r < math.ldexp(1.0 + abs(hp_float(v, bits)), -_CERTIFY_BITS) for r, v in zip(radii, z)):
            return z, bits, radii, groups
        if (floor or stalled) and rung + 1 < len(_RUNGS):
            rung += 1
            up = _RUNGS[rung] - bits
            bits = _RUNGS[rung]
            z = [(re << up, im << up) for re, im in z]
            first = len(steps)
    raise ConvergenceFailure(
        f"high-precision sweeps did not settle on degree {n} in {sweeps} sweeps: "
        f"the last sweep's largest step was 2^{steps[-1]}",
        stage="refine", degree=n, bits=bits, sweeps=len(steps), steps=steps,
    )


def _absf(re: int, im: int, bits: int) -> float:
    """|re + i im| / 2^bits as a float, to a relative error below _REL."""
    shift = max(re.bit_length(), im.bit_length()) - 62
    if shift <= 0:
        return math.ldexp(math.hypot(re, im), -bits)
    return math.ldexp(math.hypot(re >> shift, im >> shift), shift - bits)


def _inclusion_discs(
    int_coeffs: list[int], z: list[HP], bits: int
) -> tuple[list[float], list[list[int]]]:
    """Gerschgorin-Weierstrass inclusion discs D(z_i, r_i) about the
    fixed-point centres z_i, with

        r_i = n |f(z_i)| / |a_n prod_{j != i} (z_i - z_j)|,

    rounded outward.  The union of the discs holds every root of f, and
    each connected component of m discs holds exactly m roots counted
    with multiplicity (Bini & Fiorentino, Numer. Algorithms 23 (2000);
    Neumaier, J. Comput. Appl. Math. 156 (2003)).

    |f(z_i)| is the fixed-point Horner value plus its truncation bound
    (cxhp.hp_horner); the denominator is a float product whose rounding is
    covered by a relative factor.  Returns the radii and the components,
    as index groups; coincident centres give infinite radii."""
    n = len(z)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = _absf(z[i][0] - z[j][0], z[i][1] - z[j][1], bits)
    lead_m, lead_e = math.frexp(float(abs(int_coeffs[-1])))
    # n + 1 rounded factors and products of at most _REL each in the
    # denominator, and three roundings after it
    slack = 1.0 + 2 * (n + 2) * _REL
    radii = []
    for i, zi in enumerate(z):
        az = _absf(zi[0], zi[1], bits) * (1.0 + _REL)
        # hp_horner is off by less than sqrt(2) sum_{k<n} |z|^k units of 2^-bits
        t = math.log2(1.5 * n) + (n - 1) * math.log2(max(1.0, az)) - bits
        num = _absf(*hp_horner(int_coeffs, zi, bits), bits) * (1.0 + _REL) + 2.0 ** min(t, 1000.0)
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
    groups = _components(
        n, lambda i, j: dist[i][j] * (1.0 - _REL) <= (radii[i] + radii[j]) * (1.0 + _REL)
    )
    return radii, groups


def _on_axis(z: list[HP], bits: int, radii: list[float], group: list[int], sign: int) -> bool:
    """Whether the discs D(z_i, r_i) of the component `group` meet the real
    (sign +1) or imaginary (sign -1) axis and their mirrors
    D(sign * conj(z_i), r_i) meet no disc outside it.  With sign +1 the
    mirror of each root in the component, a root when f is real, then lies
    in the component again; with sign -1 likewise when moreover all
    exponents of f have one parity.  So the component's root, of the
    component's multiplicity, lies on the axis."""
    inside = set(group)
    if all(abs(z[i][1] if sign == 1 else z[i][0]) > math.ldexp(radii[i], bits) for i in group):
        return False
    for i in group:
        mre, mim = sign * z[i][0], -sign * z[i][1]
        for j, (zr, zim) in enumerate(z):
            if j not in inside and _absf(mre - zr, mim - zim, bits) * (1.0 - _REL) <= (radii[i] + radii[j]) * (1.0 + _REL):
                return False
    return True


def _reach(value: complex, radius: float) -> float:
    """The radius of a root's disc about its double `value`, rounded outward
    over the rounding of its fixed-point centre and of a distance to it."""
    return radius + _REL * (1.0 + abs(value))


def _meets_unit_circle(value: complex, radius: float) -> bool:
    """Whether a root's disc meets |s| = 1: its flag, and classify's check."""
    return abs(abs(value) - 1.0) <= _reach(value, radius)


def _verify_multiset_hp(int_coeffs: list[int], z: list[HP], bits: int) -> None:
    """Exact-grade multiset check, run at the rung where the ladder stopped:
    rebuild prod (x - z_i) in fixed point and compare with the integer
    coefficients.  A missing or doubled root shows up at O(1); a certified
    multiset agrees to 4e-37 or better on the benchmark's fillings, up to
    degree 192, at 128 bits (and to 2e-69 at 65/23, which stops at 256)."""
    poly = [hp_int(int_coeffs[-1], bits)]
    for r in z:
        poly.append((0, 0))
        for i in range(len(poly) - 1, 0, -1):
            m = hp_mul(poly[i - 1], r, bits)
            poly[i] = (poly[i][0] - m[0], poly[i][1] - m[1])
    worst = 0.0
    scale = float(max(abs(c) for c in int_coeffs))
    for built, want in zip(poly[::-1], int_coeffs):
        diff = hp_float((built[0] - hp_int(want, bits)[0], built[1]), bits)
        worst = max(worst, abs(diff) / scale)
    # far from both outcomes above, and above the error that radii below
    # 2^-100 (1 + |z|) leave in the rebuilt coefficients
    if worst > 1e-20:
        raise ConvergenceFailure(
            f"refined multiset reproduces coefficients to {worst:.2e} only",
            stage="multiset", degree=len(z), bits=bits,
        )


# ---------------------------------------------------------------------------
# the root pipeline


def _package(
    int_coeffs: list[int], coeffs: np.ndarray, z: list[HP], bits: int,
    radii: list[float], groups: list[list[int]],
) -> RootSet:
    """One root per connected component of the inclusion discs, its size
    the multiplicity, at the double rounding of its centres' mean; a
    component wider than a chain of its discs reaches raises.  A component
    whose mirror meets no other disc holds a real or (when the exponents of
    f all have one parity) a pure imaginary root (_on_axis), whose zero
    coordinate is then an exact 0.0.  A root is on the unit circle when its
    disc meets |s| = 1, and trivial when f(+-1) = 0 and its disc holds +-1.
    The roots are sorted by (re, im) and carry flags, backward errors and
    radii: for a cluster, that of the disc about its mean covering its
    members' discs."""
    n = len(z)
    # f(-s) = +-f(s): the roots are symmetric about the imaginary axis too
    parity = len({k % 2 for k, c in enumerate(int_coeffs) if c}) == 1
    pm1 = [x for x in (1, -1) if sum(c * x**k for k, c in enumerate(int_coeffs)) == 0]
    raw = [hp_float(v, bits) for v in z]
    roots = []
    residuals = []
    cover = []
    for idxs in groups:
        mult = len(idxs)
        # linked discs D(z_i, r_i) keep any two centres within 2 sum r_i;
        # the factor covers the roundings of both sides
        chain = 2.0 * sum(radii[i] for i in idxs) * (1.0 + (mult + 4) * _REL)
        width = max(_absf(z[i][0] - z[j][0], z[i][1] - z[j][1], bits) for i in idxs for j in idxs)
        if width * (1.0 - _REL) > chain:
            raise ConvergenceFailure(
                f"one of {len(groups)} disc components on degree {n} spans {width:.2e}, "
                f"beyond the {chain:.2e} its {mult} discs can chain",
                stage="discs", degree=n, bits=bits,
            )
        value = complex(sum(raw[i] for i in idxs) / mult)
        real = _on_axis(z, bits, radii, idxs, 1)
        imaginary = not real and parity and _on_axis(z, bits, radii, idxs, -1)
        if real:
            value = complex(value.real, 0.0)
        elif imaginary:
            value = complex(0.0, value.imag)
        err = _backward_error(coeffs, value)
        if err > TOL.root_residual:
            raise ConvergenceFailure(
                f"root {value} has backward error {err:.3e} > {TOL.root_residual:.1e}",
                stage="residual", degree=n, bits=bits,
            )
        if mult == 1:
            radius = radii[idxs[0]]
        else:
            radius = max(abs(raw[i] - value) + radii[i] for i in idxs) * (1.0 + _REL)
        flags = RootFlags(
            trivial_pm1=any(abs(value - x) <= _reach(value, radius) for x in pm1),
            real=real,
            imaginary=imaginary,
            unit_circle=_meets_unit_circle(value, radius),
        )
        roots.append(Root(value, mult, flags))
        residuals.append(err)
        cover.append(radius)
    order = sorted(range(len(roots)), key=lambda i: (roots[i].value.real, roots[i].value.imag))
    return RootSet(
        roots=tuple(roots[i] for i in order),
        span=n,
        residuals=tuple(residuals[i] for i in order),
        radii=tuple(cover[i] for i in order),
    )


def find_roots(f: LaurentPoly) -> RootSet:
    """Roots (with multiplicities) of the non-zero Laurent polynomial f with
    integer coefficients, each with a certified inclusion disc.

    Exponent units s^k are stripped first, so only non-zero roots exist and
    their count equals the span.  A double-precision Aberth pass gives the
    start; fixed-point sweeps on the exact coefficients refine it on a
    precision ladder until Gerschgorin-Weierstrass inclusion discs certify
    every root; the refined multiset must rebuild the coefficients.  Each
    connected component of discs is one root, its size the multiplicity,
    and the root's flags come from its disc (_package).  Three start
    configurations are tried in turn.  Residual acceptance uses the
    backward error |f(z)| / sum_i |c_i||z|^i.  A failure raises
    ConvergenceFailure with the fields of the last attempt.
    """
    if f.is_zero:
        raise ValidationError("cannot take roots of the zero polynomial")
    span = f.span
    if span == 0:
        return RootSet(roots=(), span=0)
    int_coeffs, _ = f.shift(-f.mindeg).dense()
    if not all(isinstance(c, int) for c in int_coeffs):
        raise ValidationError("find_roots needs a polynomial with int coefficients")
    coeff_bits = max(abs(c).bit_length() for c in int_coeffs)
    coeffs = np.asarray([complex(c) for c in int_coeffs], dtype=complex)
    coeffs = coeffs / coeffs[-1]
    failure: ConvergenceFailure | None = None
    for attempt in range(3):
        try:
            raw = [complex(z) for z in _aberth(coeffs, attempt)]
            # no double-precision polish after refinement: at condition
            # numbers ~1e13 a double Newton step would re-smear the root
            z, bits, radii, groups = _refine_hp(int_coeffs, raw)
            _verify_multiset_hp(int_coeffs, z, bits)
            return _package(int_coeffs, coeffs, z, bits, radii, groups)
        except ConvergenceFailure as exc:
            exc.attempt, exc.coeff_bits = attempt, coeff_bits
            failure = exc
    raise ConvergenceFailure(
        f"all start configurations failed on degree {span}: {failure}", **failure.fields()
    )


# ---------------------------------------------------------------------------
# resultant root sets


def _deflate_at(poly: LaurentPoly, x: int, order: int) -> LaurentPoly:
    """Exact division by (s - x)^order over the integers."""
    out = poly
    factor = LaurentPoly({1: 1, 0: -x})
    for _ in range(order):
        out = out.exact_div(factor)
    return out


@lru_cache(maxsize=256, typed=True)
def _solve(p: int, q: int) -> RootSet | WhitenormError:
    # lru_cache keeps no exceptions, so a failure is returned as a value;
    # typed, so that (5.0, 1) misses the cached (5, 1) and is validated
    try:
        return resultant_rootset_of(build_res(p, q))
    except WhitenormError as exc:
        return exc


def resultant_roots(p: int, q: int) -> RootSet:
    """RootSet of res_{p,q}: trivial roots at +-1 split off exactly, the
    deflated part solved by find_roots.

    Cached like build_res, failures included, so each filling is solved
    once per process.  RootSet is frozen, so sharing it is safe."""
    out = _solve(p, q)
    if isinstance(out, WhitenormError):
        raise out
    return out


resultant_roots.cache_info = _solve.cache_info
resultant_roots.cache_clear = _solve.cache_clear


def resultant_rootset_of(r: ResPoly) -> RootSet:
    if r.is_degenerate:
        return RootSet(roots=(), span=0, pq=(r.p, r.q))
    o1, om1 = trivial_root_orders(r)
    deflated = r.poly
    if o1:
        deflated = _deflate_at(deflated, 1, o1)
    if om1:
        deflated = _deflate_at(deflated, -1, om1)
    inner = find_roots(deflated)
    roots = list(inner.roots)
    residuals = list(inner.residuals)
    radii = list(inner.radii)
    for x, order in ((1, o1), (-1, om1)):
        if order:
            flags = RootFlags(trivial_pm1=True, real=True, imaginary=False, unit_circle=True)
            roots.append(Root(complex(x), order, flags))
            residuals.append(0.0)
            radii.append(0.0)  # exact
    order_ix = sorted(range(len(roots)), key=lambda i: (roots[i].value.real, roots[i].value.imag))
    return RootSet(
        roots=tuple(roots[i] for i in order_ix),
        span=r.span,
        pq=(r.p, r.q),
        residuals=tuple(residuals[i] for i in order_ix),
        radii=tuple(radii[i] for i in order_ix),
    )


def nontrivial_roots(rs: RootSet) -> RootSet:
    """Drop the roots flagged trivial_pm1 after checking their
    multiplicities at +1 and -1 against the exact vanishing orders."""
    if rs.pq is None:
        raise ValidationError("root set does not remember its (p, q) source")
    p, q = rs.pq
    if rs.span == 0:
        return rs
    o1, om1 = trivial_root_orders(build_res(p, q))
    trivial = [r for r in rs.roots if r.flags.trivial_pm1]
    seen1 = sum(r.multiplicity for r in trivial if r.value.real > 0)
    seenm1 = sum(r.multiplicity for r in trivial if r.value.real < 0)
    if (seen1, seenm1) != (o1, om1):
        raise TrivialRootMismatch(
            f"multiplicities at (+1, -1) are ({seen1}, {seenm1}), exact orders are ({o1}, {om1})"
        )
    kept = [i for i, r in enumerate(rs.roots) if not r.flags.trivial_pm1]
    return RootSet(
        roots=tuple(rs.roots[i] for i in kept),
        span=rs.span,
        pq=rs.pq,
        residuals=tuple(rs.residuals[i] for i in kept),
        radii=tuple(rs.radii[i] for i in kept),
    )


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassificationReport:
    p: int
    q: int
    n_nontrivial: int
    real_count: int
    expected_real: int
    imaginary_count: int
    expected_imaginary: int
    min_unit_circle_gap: float
    all_simple: bool
    min_separation: float


def _expected_real_count(p: int, q: int) -> int:
    if p > 4 * q > 0 or p < 0:
        return 0
    # 0 < p < 4q: two positive roots for p odd, four real for p even
    return 2 if p % 2 == 1 else 4


def _expected_imaginary_count(p: int, q: int) -> int:
    if p % 4 != 0:
        return 0
    return 4 if (p > 4 * q > 0 or p < 0) else 0


def classify(rs: RootSet, p: int, q: int) -> ClassificationReport:
    """Count the real and pure imaginary roots among the non-trivial ones,
    from their certified flags, and compare against the closed-form
    expectations; fail when the disc of a non-trivial root meets |s| = 1
    (_meets_unit_circle on RootSet.values and radii).  The report's circle
    gap and separation are those of the printed values."""
    nt = nontrivial_roots(rs)
    real = sum(r.multiplicity for r in nt if r.flags.real)
    imag = sum(r.multiplicity for r in nt if r.flags.imaginary)
    exp_real = _expected_real_count(p, q)
    exp_imag = _expected_imaginary_count(p, q)
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
    met = [v for v, r in zip(values, nt.radii) if _meets_unit_circle(v, r)]
    if met:
        worst = min(met, key=lambda v: abs(abs(v) - 1.0))
        raise ClassificationViolation(
            f"({p},{q}): non-trivial root {worst} sits on the unit circle "
            f"(gap {abs(abs(worst) - 1.0):.2e})"
        )
    seps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]]
    min_sep = min(seps) if seps else math.inf
    all_simple = all(r.multiplicity == 1 for r in nt)
    return ClassificationReport(
        p=p,
        q=q,
        n_nontrivial=len(nt),
        real_count=real,
        expected_real=exp_real,
        imaginary_count=imag,
        expected_imaginary=exp_imag,
        min_unit_circle_gap=min_gap,
        all_simple=all_simple,
        min_separation=min_sep,
    )
