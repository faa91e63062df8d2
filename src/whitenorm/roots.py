"""Complex root extraction with certified inclusion discs and the
classification of resultant roots (real / imaginary / unit circle).

One pipeline (_solve_split), for an integer polynomial whose trivial roots
+-1 are split off exactly first, each a root of its exact order with radius
0, and whose rest is certified squarefree exactly, so every other root is
simple.  For res the split and the certificate are respq.ResPoly's
(LaurentPoly.split_root, laurent.squarefree_refusal), and
resultant_rootset_of passes them in.  On the rest, a deterministic
double-precision simultaneous iteration (Aberth-Ehrlich, Newton-polygon
starting radii, golden-angle phases) gives a start.  Gauss-Seidel Aberth
sweeps refine it on the exact coefficients in fixed point (plain python ints,
see cxhp), but for the repulsion sum, a double sum: the step depends on it
only to second order (_sweep).  The sweeps run on a ladder of 128, 256, 512
and 768 fraction bits.  They climb a rung once the rung is exhausted, every
|f(z)| within the error of its own evaluation, and stop when pairwise
disjoint Gerschgorin-Weierstrass inclusion discs, computed afterwards from
the exact coefficients, certify every root to 2^-100.  Each disc then holds exactly one root, a simple one, and this is the
one root certificate: the printed double lies within 2^-53 |z| + r of it.
Every other fact about the root is read off its disc (see _package): its
realness and whether it meets the unit circle.  There is no double-precision
polish.  The refinement matters: resultant roots packed near the unit circle
reach condition numbers beyond 1e13, so double precision alone cannot certify
symmetry classes at 1e-8.

Each Root carries its own disc: the radius, and the fixed-point centre at
its rung's bits, from which reps lifts the root with no second solve.  A
RootSet is the roots, sorted once by (re, im), and the span.  No randomness
anywhere; repeated runs emit identical bytes, whatever rung the ladder
stopped at.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .cxhp import HP, hp, hp_abs, hp_div, hp_float, hp_horner, hp_int, hp_mul
from .errors import ConvergenceFailure, ClassificationViolation, WhitenormError
from .respq import ResPoly, build_res

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
    centre: HP  # the disc's fixed-point centre; (+-1, 0) for the exact +-1
    bits: int  # the centre's fraction bits: its rung's, 0 for the exact +-1

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
# double-precision stage


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    import numpy as np
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _initial_points(coeffs: np.ndarray) -> np.ndarray:
    """One starting radius per edge of the upper Newton polygon of
    (i, log|c_i|), phases from the golden-ratio sequence: the one start of
    MPSolve (Bini & Fiorentino, Numer. Algorithms 23 (2000))."""
    import numpy as np
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


def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """The simultaneous-iteration pass.  Stops when corrections hit machine
    level, or when every iterate is backward-stable and corrections are
    small (the stall of ill-conditioned roots).  Fails at the first iterate
    that is not finite: the repulsion sums then make every iterate NaN, and
    neither stopping test can pass."""
    import numpy as np
    n = len(coeffs) - 1
    dcoeffs = coeffs[1:] * np.arange(1, n + 1)
    exponents = np.arange(len(coeffs))
    z = _initial_points(coeffs)
    # a start that overflows or divides by zero ends in its ConvergenceFailure,
    # which is all a caller can act on; numpy's warnings would only add noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
# fixed-point refinement on a precision ladder (raw cxhp kernel in the hot loop)

# Fraction bits of the refinement rungs.  The top rung is the flat
# precision the kernel had before the ladder existed, so a filling that
# settled there still has the same room.
_RUNGS = (128, 256, 512, 768)
# The ladder stops once every inclusion radius is below 2^-100 (1 + |z|):
# 47 bits past double precision, so the double rounding of a disc's centre
# is that of its root unless the root lies within 2^-100 of a rounding
# boundary.  reps lifts each root from its centre, good to this many bits.
CERTIFY_BITS = 100
# Sweeps _refine_hp makes on all rungs together before it gives up.
_SWEEPS = 48
# Relative error bound of one cxhp.hp_abs value (below 2^-51) and of one
# float product, with room.
_REL = 2.0**-50


def _sweep(int_coeffs: list[int], dcoeffs: list[int], z: list[HP], bits: int) -> tuple[int, bool]:
    """One Gauss-Seidel Aberth sweep over z in place, at `bits` fraction
    bits.  f, f', N = f/f' and the step N / (1 - N S_k) are fixed point,
    the repulsion sum S_k = sum_{j != k} 1 / (z_k - z_j) a double sum: an
    error d in it moves the step by about N^2 d (Aberth, Math. Comp. 27
    (1973)), and the discs come afterwards from the exact coefficients.
    Returns the largest step component in units of 2^-bits, and whether the
    rung is exhausted (MPSolve's criterion): every |f(z_k)| is within
    _horner_error plus 4 * 2^-bits |f'(z_k)| for the rounding of z_k."""
    import numpy as np
    # hi + lo, two doubles: z_k - z_j keeps double precision if hi_k = hi_j
    def split(v: HP) -> tuple[complex, complex]:
        h = hp(hp_float(v, bits), bits)
        return hp_float(h, bits), hp_float((v[0] - h[0], v[1] - h[1]), bits)

    hi, lo = map(np.array, zip(*map(split, z)))
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
        dz = (hi[k] - hi) + (lo[k] - lo)
        nr = hp_mul(newton, hp(complex((1.0 / dz[dz != 0]).sum()), bits), bits)
        den = ((1 << bits) - nr[0], -nr[1])
        if den == (0, 0):
            den = hp_int(1, bits)
        step = hp_div(newton, den, bits)
        z[k] = (z[k][0] - step[0], z[k][1] - step[1])
        hi[k], lo[k] = split(z[k])
        max_step = max(max_step, abs(step[0]), abs(step[1]))
    return max_step, exhausted


def _refine_hp(int_coeffs: list[int], raw: list[complex]) -> tuple[list[HP], int, list[float]]:
    """Gauss-Seidel Aberth sweeps (_sweep) on the exact integer
    coefficients, on the precision ladder _RUNGS, warm-started from the
    double-precision multiset; badly assigned iterates migrate to uncovered
    roots on the way.  f must be squarefree.  The repulsion sum is a double
    sum: an error d in it moves a step by about N^2 d (_sweep), and the
    discs are computed afterwards, from the exact coefficients.

    The ladder climbs a rung after a sweep that finds the rung exhausted
    (_sweep), and only then.  The inclusion discs are computed after such a
    sweep, or after one whose largest step is below 2^-100, which may
    certify before the rung is exhausted; the ladder stops once every radius
    is below 2^-100 (1 + |z_i|) and the discs are pairwise disjoint.  At
    the top rung it sweeps on until they do; after _SWEEPS sweeps in all
    it raises ConvergenceFailure.

    Returns the fixed-point centres, the fraction bits of the rung they
    are at and their inclusion radii (see _inclusion_discs)."""
    n = len(int_coeffs) - 1
    dcoeffs = [i * c for i, c in enumerate(int_coeffs)][1:]
    bits = _RUNGS[0]
    steps: list[int] = []
    # cxhp.hp and hp_float pass through doubles; caught here, off the hot loop
    try:
        z = [hp(v, bits) for v in raw]
        for _ in range(_SWEEPS):
            step, exhausted = _sweep(int_coeffs, dcoeffs, z, bits)
            steps.append(step.bit_length() - 1 - bits)
            if not (exhausted or steps[-1] < -CERTIFY_BITS):
                continue
            radii, disjoint = _inclusion_discs(int_coeffs, z, bits)
            if disjoint and all(
                r < math.ldexp(1.0 + abs(hp_float(v, bits)), -CERTIFY_BITS) for r, v in zip(radii, z)
            ):
                return z, bits, radii
            if exhausted and bits < _RUNGS[-1]:
                up = _RUNGS[_RUNGS.index(bits) + 1] - bits
                z = [(re << up, im << up) for re, im in z]
                bits += up
    except OverflowError as exc:
        raise ConvergenceFailure(
            f"a fixed-point conversion overflowed a double at {bits} bits on degree {n}: {exc}",
            stage="refine", degree=n, bits=bits, sweeps=len(steps), steps=steps,
        ) from exc
    raise ConvergenceFailure(
        f"high-precision sweeps did not settle on degree {n} in {_SWEEPS} sweeps: "
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
    _solve_split sorts."""
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


def _solve_split(orders: tuple[int, int], quotient: tuple[int, ...]) -> RootSet:
    """The roots of a polynomial split at +-1: 1 and -1 at the given orders
    (their multiplicities), with radius 0 and the trivial_pm1 flag, and the
    roots of the certified squarefree quotient (dense integer coefficients,
    ascending), solved from one start by the pipeline of the module
    docstring, one simple root per disc with its flags from the disc
    (_package).  A coefficient beyond the range of a double fails the start
    at once; either stage's ConvergenceFailure gets coeff_bits, and its
    degree and coeff_bits are the quotient's.  Sorted once, by (re, im)."""
    flags = RootFlags(trivial_pm1=True, real=True, imaginary=False, unit_circle=True)
    roots = [Root(complex(x), order, flags, 0.0, (x, 0), 0) for x, order in zip((1, -1), orders) if order]
    degree = len(quotient) - 1
    if degree:
        top = max(abs(c) for c in quotient)
        try:
            if top > sys.float_info.max:
                raise ConvergenceFailure(
                    f"a coefficient of {top.bit_length()} bits is beyond the range of a double: "
                    f"no double-precision start on degree {degree}",
                    stage="aberth", degree=degree,
                )
            import numpy as np
            coeffs = np.asarray([complex(c) for c in quotient], dtype=complex)
            coeffs = coeffs / coeffs[-1]
            raw = [complex(z) for z in _aberth(coeffs)]
            # no double-precision polish after refinement: at condition
            # numbers ~1e13 a double Newton step would re-smear the root
            z, bits, radii = _refine_hp(quotient, raw)
            roots += _package(quotient, z, bits, radii)
        except ConvergenceFailure as exc:
            exc.coeff_bits = top.bit_length()
            raise
    roots.sort(key=lambda r: (r.value.real, r.value.imag))
    return RootSet(roots=tuple(roots), span=sum(orders) + degree)


# ---------------------------------------------------------------------------
# resultant root sets


@lru_cache(maxsize=256)
def _solve(orders: tuple[int, int], quotient: tuple[int, ...]) -> RootSet | WhitenormError:
    # lru_cache keeps no exceptions, so a failure is returned as a value
    try:
        return _solve_split(orders, quotient)
    except WhitenormError as exc:
        return exc


def resultant_roots(p: int, q: int) -> RootSet:
    """RootSet of res_{p,q} (resultant_rootset_of)."""
    return resultant_rootset_of(build_res(p, q))


def resultant_rootset_of(r: ResPoly) -> RootSet:
    """The roots of res from its exact facts: the orders of +-1, checked
    against the parity pattern of (p, q) (ResPoly.trivial_orders), and the
    certified squarefree quotient (ResPoly.quotient), solved by the
    pipeline's one entry (_solve_split).

    The solve is cached on those facts, failures included: res depends
    only on |p - 2q| and q, so p/q and (4q - p)/q share one solve, and each
    polynomial is solved once per process.  RootSet is frozen, so sharing
    it is safe."""
    if r.is_degenerate:
        return RootSet(roots=(), span=0)
    out = _solve(r.trivial_orders, r.quotient)
    if isinstance(out, WhitenormError):
        raise out
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
    if p % 4 != 0:
        return 0
    return 4 if (p > 4 * q > 0 or p < 0) else 0


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
    met = [r.value for r in nt if r.flags.unit_circle]
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
