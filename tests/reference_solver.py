"""The reference root solver: the generic pipeline the package solved res
with before it solved res on its filling equation (whitenorm.roots), kept
for the tests as the reference Mat2 is kept in test_reps.

It solves any integer polynomial split at +-1 (_solve_split): a
deterministic double-precision Aberth-Ehrlich start with Newton-polygon
starting radii and golden-angle phases (_aberth), then Gauss-Seidel Aberth
sweeps on the exact coefficients in fixed point on the ladder of 128, 256,
512 and 768 fraction bits (_refine_hp), whose repulsion sum is a double
sum.  A rung is climbed once it is exhausted, and the ladder stops when
the package's own inclusion discs (roots._inclusion_discs) certify every
root to 2^-100; the roots are packaged as the package packages them
(roots._package).  So its root sets carry the same certificate as the
package's, and where both certify they must agree in values and flags.

Its failures are ConvergenceFailures of its own stages: "aberth" (the
double-precision start) and "refine" (the sweeps and their discs).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from whitenorm.cxhp import HP, hp, hp_abs, hp_div, hp_float, hp_horner, hp_int, hp_mul
from whitenorm.errors import ConvergenceFailure
from whitenorm.roots import (
    _REL,
    CERTIFY_BITS,
    Root,
    RootFlags,
    RootSet,
    _horner_log2,
    _inclusion_discs,
    _package,
)

_GOLDEN = (math.sqrt(5) - 1) / 2
# Fraction bits of the rungs, in the order the sweeps climb them.
_RUNGS = (128, 256, 512, 768)


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


# Sweeps _refine_hp makes on all rungs together before it gives up.
_SWEEPS = 48


def _horner_error(n: int, z: HP, bits: int) -> float:
    """The package's bound on the truncation error of hp_horner at z on
    degree n (roots._horner_log2), capped at 2^1000 for _sweep's noise."""
    return 2.0 ** min(_horner_log2(n, hp_abs(z, bits) * (1.0 + _REL), bits), 1000.0)


def _sweep(int_coeffs: list[int], dcoeffs: list[int], z: list[HP], bits: int) -> tuple[int, bool]:
    """One Gauss-Seidel Aberth sweep over z in place, at `bits` fraction
    bits.  f, f', N = f/f' and the step N / (1 - N S_k) are fixed point,
    the repulsion sum S_k = sum_{j != k} 1 / (z_k - z_j) a double sum: an
    error d in it moves the step by about N^2 d (Aberth, Math. Comp. 27
    (1973)), and the discs come afterwards from the exact coefficients.
    Returns the largest step component in units of 2^-bits, and whether the
    rung is exhausted (MPSolve's criterion): every |f(z_k)| is within
    _horner_error plus 4 * 2^-bits |f'(z_k)| for the rounding of z_k."""
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
            stage="refine", degree=n, bits=bits,
        ) from exc
    raise ConvergenceFailure(
        f"high-precision sweeps did not settle on degree {n} in {_SWEEPS} sweeps: "
        f"the last sweep's largest step was 2^{steps[-1]}",
        stage="refine", degree=n, bits=bits,
    )


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

