"""Complex root extraction with multiplicity clustering and the
classification of resultant roots (real / imaginary / unit circle).

One pipeline, for polynomials with integer coefficients (find_roots): a
deterministic double-precision simultaneous iteration (Aberth-Ehrlich,
Newton-polygon starting radii, golden-angle phases) gives a start; it is
refined by Gauss-Seidel Aberth sweeps in fixed-point high precision on the
exact coefficients (plain python ints, ~230 decimal digits, see cxhp), and
the refined multiset must rebuild those coefficients.  There is no
double-precision polish.  The refinement matters: resultant roots packed
near the unit circle reach condition numbers beyond 1e13, so double
precision alone cannot certify symmetry classes at 1e-8.  Resultant root
sets split the trivial roots +-1 off exactly first.

No randomness anywhere; repeated runs emit identical bytes.
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

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    @property
    def values(self) -> list[complex]:
        return [r.value for r in self.roots]

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


def _classify_value(z: complex) -> RootFlags:
    scale = 1.0 + abs(z)
    trivial = abs(z - 1.0) <= TOL.cluster_rel * 2 or abs(z + 1.0) <= TOL.cluster_rel * 2
    return RootFlags(
        trivial_pm1=bool(trivial),
        real=bool(abs(z.imag) <= TOL.classify_rel * scale),
        imaginary=bool(abs(z.real) <= TOL.classify_rel * scale),
        unit_circle=bool(abs(abs(z) - 1.0) <= TOL.unit_circle),
    )


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
    raise ConvergenceFailure(f"no convergence after {max_iter} iterations on degree {n}")


def _cluster(points: list[complex], rel: float) -> list[list[int]]:
    """Index groups of the connected components of the 'closer than
    rel*(1+|z|)' graph."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            lim = rel * (1.0 + max(abs(points[i]), abs(points[j])))
            if abs(points[i] - points[j]) <= lim:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# fixed-point high-precision refinement (raw cxhp kernel in the hot loop)


def _refine_hp(
    int_coeffs: list[int], raw: list[complex], sweeps: int = 40
) -> tuple[list[complex], list[HP]]:
    """Gauss-Seidel Aberth sweeps in fixed point with exact integer
    coefficients.  Warm-started from the double-precision multiset, this
    pushes every root to ~2^-200 regardless of its condition number, and
    lets badly assigned iterates migrate to uncovered roots.  Returns the
    double roundings and the fixed-point values."""
    n = len(int_coeffs) - 1
    dcoeffs = [i * c for i, c in enumerate(int_coeffs)][1:]
    z = [hp(v) for v in raw]
    one = hp_int(1)
    # stop once steps drop below ~2^-95; multiple roots stall near 2^-104
    tiny = 1 << (BITS - 95)
    for _ in range(sweeps):
        max_step = 0
        for k in range(n):
            pv = hp_horner(int_coeffs, z[k])
            dv = hp_horner(dcoeffs, z[k])
            if dv == (0, 0):
                continue
            newton = hp_div(pv, dv)
            rep = (0, 0)
            for j in range(n):
                if j == k:
                    continue
                dz = (z[k][0] - z[j][0], z[k][1] - z[j][1])
                if dz == (0, 0):
                    continue
                inv = hp_div(one, dz)
                rep = (rep[0] + inv[0], rep[1] + inv[1])
            nr = hp_mul(newton, rep)
            den = (one[0] - nr[0], -nr[1])
            if den == (0, 0):
                den = one
            step = hp_div(newton, den)
            z[k] = (z[k][0] - step[0], z[k][1] - step[1])
            max_step = max(max_step, abs(step[0]), abs(step[1]))
        if max_step < tiny:
            break
    else:
        raise ConvergenceFailure(
            f"high-precision sweeps did not settle on degree {n} in {sweeps} sweeps: "
            f"the last sweep's largest step was 2^{max_step.bit_length() - 1 - BITS}"
        )
    return [hp_float(v) for v in z], z


def _verify_multiset_hp(int_coeffs: list[int], z: list[HP]) -> None:
    """Exact-grade multiset check: rebuild prod (x - z_i) in fixed point and
    compare with the integer coefficients.  A missing or doubled root shows
    up at O(1); a correct refined multiset agrees to 1e-120 or better on
    the benchmark's fillings, up to degree 192."""
    poly = [hp_int(int_coeffs[-1])]
    for r in z:
        poly.append((0, 0))
        for i in range(len(poly) - 1, 0, -1):
            m = hp_mul(poly[i - 1], r)
            poly[i] = (poly[i][0] - m[0], poly[i][1] - m[1])
    worst = 0.0
    scale = float(max(abs(c) for c in int_coeffs))
    for built, want in zip(poly[::-1], int_coeffs):
        diff = hp_float((built[0] - hp_int(want)[0], built[1]))
        worst = max(worst, abs(diff) / scale)
    # far from both outcomes above, and above the 2^-95 (~2.5e-29) step at
    # which the sweeps stop
    if worst > 1e-20:
        raise ConvergenceFailure(
            f"refined multiset reproduces coefficients to {worst:.2e} only"
        )


# ---------------------------------------------------------------------------
# the root pipeline


def _package(coeffs: np.ndarray, raw: list[complex], span: int) -> RootSet:
    """Merge approximations closer than TOL.cluster_rel into one root whose
    multiplicity is the cluster size, and package the roots, sorted by
    (re, im), with flags and backward errors."""
    roots = []
    residuals = []
    for idxs in _cluster(raw, TOL.cluster_rel):
        mult = len(idxs)
        z = complex(sum(raw[i] for i in idxs) / mult)
        err = _backward_error(coeffs, z)
        if err > TOL.root_residual:
            raise ConvergenceFailure(
                f"root {z} has backward error {err:.3e} > {TOL.root_residual:.1e}"
            )
        roots.append(Root(z, mult, _classify_value(z)))
        residuals.append(err)
    order = sorted(range(len(roots)), key=lambda i: (roots[i].value.real, roots[i].value.imag))
    return RootSet(
        roots=tuple(roots[i] for i in order),
        span=span,
        residuals=tuple(residuals[i] for i in order),
    )


def find_roots(f: LaurentPoly) -> RootSet:
    """Roots (with multiplicities) of the non-zero Laurent polynomial f with
    integer coefficients.

    Exponent units s^k are stripped first, so only non-zero roots exist and
    their count equals the span.  A double-precision Aberth pass gives the
    start, fixed-point sweeps on the exact coefficients refine it, and the
    refined multiset must rebuild the coefficients; three start
    configurations are tried in turn.  Roots closer than TOL.cluster_rel
    merge into one of higher multiplicity.  Residual acceptance uses the
    backward error |f(z)| / sum_i |c_i||z|^i.
    """
    if f.is_zero:
        raise ValidationError("cannot take roots of the zero polynomial")
    span = f.span
    if span == 0:
        return RootSet(roots=(), span=0)
    int_coeffs, _ = f.shift(-f.mindeg).dense()
    if not all(isinstance(c, int) for c in int_coeffs):
        raise ValidationError("find_roots needs a polynomial with int coefficients")
    coeffs = np.asarray([complex(c) for c in int_coeffs], dtype=complex)
    coeffs = coeffs / coeffs[-1]
    failure: Exception | None = None
    for attempt in range(3):
        try:
            raw = [complex(z) for z in _aberth(coeffs, attempt)]
            # no double-precision polish after refinement: at condition
            # numbers ~1e13 a double Newton step would re-smear the root
            refined, fixed = _refine_hp(int_coeffs, raw)
            _verify_multiset_hp(int_coeffs, fixed)
            return _package(coeffs, refined, span)
        except ConvergenceFailure as exc:
            failure = exc
    raise ConvergenceFailure(f"all start configurations failed on degree {span}: {failure}")


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
    for x, order in ((1, o1), (-1, om1)):
        if order:
            flags = RootFlags(trivial_pm1=True, real=True, imaginary=False, unit_circle=True)
            roots.append(Root(complex(x), order, flags))
            residuals.append(0.0)
    order_ix = sorted(range(len(roots)), key=lambda i: (roots[i].value.real, roots[i].value.imag))
    return RootSet(
        roots=tuple(roots[i] for i in order_ix),
        span=r.span,
        pq=(r.p, r.q),
        residuals=tuple(residuals[i] for i in order_ix),
    )


def nontrivial_roots(rs: RootSet) -> RootSet:
    """Drop the clusters at +-1 after checking their multiplicities against
    the exact vanishing orders."""
    if rs.pq is None:
        raise ValidationError("root set does not remember its (p, q) source")
    p, q = rs.pq
    if rs.span == 0:
        return rs
    o1, om1 = trivial_root_orders(build_res(p, q))
    seen1 = sum(r.multiplicity for r in rs.roots if abs(r.value - 1) <= TOL.cluster_rel * 2)
    seenm1 = sum(r.multiplicity for r in rs.roots if abs(r.value + 1) <= TOL.cluster_rel * 2)
    if (seen1, seenm1) != (o1, om1):
        raise TrivialRootMismatch(
            f"multiplicities at (+1, -1) are ({seen1}, {seenm1}), exact orders are ({o1}, {om1})"
        )
    kept = tuple(
        r
        for r in rs.roots
        if abs(r.value - 1) > TOL.cluster_rel * 2 and abs(r.value + 1) > TOL.cluster_rel * 2
    )
    return RootSet(roots=kept, span=rs.span, pq=rs.pq)


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
    """Count real / pure imaginary / unit-circle roots among the non-trivial
    ones and compare against the closed-form expectations."""
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
    gaps = [abs(abs(r.value) - 1.0) for r in nt]
    min_gap = min(gaps) if gaps else math.inf
    if min_gap <= TOL.unit_circle_exclusion:
        worst = min(nt.roots, key=lambda r: abs(abs(r.value) - 1.0))
        raise ClassificationViolation(
            f"({p},{q}): non-trivial root {worst.value} sits on the unit circle "
            f"(gap {min_gap:.2e})"
        )
    values = nt.values
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
