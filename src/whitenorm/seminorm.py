"""The total Culler-Shalen seminorm engine for p odd.

The norm of a slope g is sum_j a_j * dist(g, beta_j) over the three
candidate boundary slopes beta1 = 4, beta2 and beta3 = 0; beta2, the
coefficients a_j and the minimal norm s have closed forms per range of
p/q, in one table.  Everything here is exact integer /
rational arithmetic: the one numerical contact point (minimal norm =
number of parabolic classes) lives in the verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import ScopeError, ValidationError, VerificationFailure
from .reps import expected_class_total
from .slopes import INFINITY, Slope, distance, validate_filling


class SlopeRange(Enum):
    """The open interval cut out by {0, 2, 4} that holds p/q; for p odd,
    p/q is never an endpoint."""

    NEG_INF_0 = "(-inf,0)"
    ZERO_2 = "(0,2)"
    TWO_4 = "(2,4)"
    FOUR_INF = "(4,inf)"


def _require_scope(p: int, q: int) -> SlopeRange:
    validate_filling(p, q)
    if p % 2 == 0:
        raise ScopeError("p even: outside the closed forms")
    if p == 3 * q:
        raise ScopeError("slope 3: outside the closed forms")
    if p < 0:
        return SlopeRange.NEG_INF_0
    if p < 2 * q:
        return SlopeRange.ZERO_2
    if p < 4 * q:
        return SlopeRange.TWO_4
    return SlopeRange.FOUR_INF


_SEIFERT_CONE = {1: 6, 2: 4, 3: 3}  # sigma -> k with cone order |p - k q|
_SEIFERT_WEIGHT = {1: 2, 2: 3, 3: 4}


@dataclass(frozen=True)
class SeminormProfile:
    p: int
    q: int
    range_tag: SlopeRange
    betas: tuple[Slope, Slope, Slope]  # beta1 = 4, beta2, beta3 = 0
    a: tuple[int, int, int]
    s_min: int
    seifert: tuple[int, int, int]  # ||sigma|| for the Seifert slopes sigma = 1, 2, 3


def _table(p: int, q: int, rng: SlopeRange) -> tuple[Slope, tuple[int, int, int], int]:
    """beta2, (a1, a2, a3) and s on each open range of p/q.

    For p odd and gcd(p, q) = 1 each range's beta2 pair is primitive:
    gcd(4q, p) = 1; gcd(2p + 4q, p) = gcd(4q, p) = 1; gcd(-p + 6q, q) =
    gcd(p, q) = 1; and gcd(4q, p - 2q) = 1, since p - 2q is odd and
    gcd(q, p - 2q) = gcd(q, p) = 1.  Were one not, Slope.of would raise
    ValidationError: it never reduces silently.
    """
    if rng is SlopeRange.NEG_INF_0:
        return Slope.of(4 * q, p), (-p + 2 * q - 1, 2, 2 * q - 2), -3 * p + 4 * q - 3
    if rng is SlopeRange.ZERO_2:
        return Slope.of(2 * p + 4 * q, p), (-p + 2 * q - 1, 2, 2 * q - 2), p + 4 * q - 3
    if rng is SlopeRange.TWO_4:
        return Slope.of(-p + 6 * q, q), (p - 2 * q - 1, 4, 2 * q - 2), p + 4 * q - 3
    return Slope.of(4 * q, p - 2 * q), (p - 2 * q - 1, 2, 2 * q - 2), 3 * p - 4 * q - 3


# typed, as respq.build_res: a sweep row's three readers share one profile
@lru_cache(maxsize=256, typed=True)
def seminorm_profile(p: int, q: int) -> SeminormProfile:
    """Boundary slopes, coefficients, minimal norm and Seifert norms for the
    p/q filling.  The Seifert norms have the closed form
    ||sigma|| = s + w_sigma * (|p - k_sigma q| - 1) with (w, k) = (2, 6),
    (3, 4), (4, 3)."""
    rng = _require_scope(p, q)
    beta2, a, s_min = _table(p, q, rng)
    if not all(x >= 0 and x % 2 == 0 for x in (*a, s_min)):
        raise VerificationFailure(f"({p},{q}): coefficients {a} and s = {s_min} must be even and >= 0")
    seifert = tuple(
        s_min + _SEIFERT_WEIGHT[sig] * (abs(p - _SEIFERT_CONE[sig] * q) - 1) for sig in (1, 2, 3)
    )
    return SeminormProfile(p, q, rng, (Slope(4, 1), beta2, Slope(0, 1)), a, s_min, seifert)


def evaluate_norm(profile: SeminormProfile, gamma: Slope) -> int:
    return sum(aj * distance(gamma, bj) for aj, bj in zip(profile.a, profile.betas))


# ---------------------------------------------------------------------------
# Seifert fillings


@dataclass(frozen=True)
class CountTable:
    """Character counts of the filled Seifert manifold W(p/q, sigma)."""

    sigma: int
    psl2_total: int
    psl2_irreducible: int
    psl2_dihedral: int
    psl2_reducible: int
    psl2_nonabelian_reducible: int
    sl2_nonabelian: int  # the constant A with ||sigma|| = s + 2A


def _half(x: int) -> int:
    if x % 2:
        raise VerificationFailure(f"{x} must be even in a character count")
    return x // 2


def seifert_character_counts(prof: SeminormProfile, sigma: int) -> CountTable:
    """Character counts for the Seifert filling sigma in {1, 2, 3} of the
    profiled filling p/q (p odd).

    Rows are keyed by gcd(6, p) for sigma in {1, 3} and gcd(4, p) for
    sigma = 2; p odd only meets the odd-gcd rows.  The non-abelian SL2
    count is derived by the lifting rules (dihedral characters lift once,
    all other non-abelian characters twice) and must reproduce the closed
    form behind the Seifert norms.
    """
    if sigma not in (1, 2, 3):
        raise ValidationError("sigma must be 1, 2 or 3")
    p, q = prof.p, prof.q
    ap = abs(p)
    cone = abs(p - _SEIFERT_CONE[sigma] * q)
    if sigma == 1:
        key = math.gcd(6, p)
        # p odd: key in {1, 3}; both rows carry the same counts
        total = _half(ap + cone)
        irr = _half(cone - 1)
        dihedral = 0
        reducible = _half(ap + 1)
        nonab_red = 0
    elif sigma == 2:
        key = math.gcd(4, p)  # = 1 for p odd
        total = ap + cone
        irr = cone - 1
        dihedral = _half(cone - 1)
        reducible = ap + 1
        nonab_red = 0
    else:
        key = math.gcd(6, p)
        if key == 1:
            total = 3 * _half(ap - 1) + cone
            irr = cone - 1
            nonab_red = 0
        else:  # key == 3
            total = 3 * _half(ap - 1) + cone - 1
            irr = cone - 2
            nonab_red = 1
        dihedral = 0
        reducible = 3 * _half(ap - 1) + 1
    # dihedral characters sit inside the irreducible column, non-abelian
    # reducible ones inside the reducible column
    if total != irr + reducible:
        raise VerificationFailure(
            f"sigma={sigma}, gcd={key}: character table rows do not sum to the total"
        )
    # lifting: dihedral characters lift once, other non-abelian ones twice
    a_const = 2 * (irr - dihedral + nonab_red) + dihedral
    norm_sigma, s_min = prof.seifert[sigma - 1], prof.s_min
    if norm_sigma != s_min + 2 * a_const:
        raise VerificationFailure(
            f"sigma={sigma}: ||sigma|| = {norm_sigma} but s + 2A = {s_min + 2 * a_const}"
        )
    return CountTable(sigma, total, irr, dihedral, reducible, nonab_red, a_const)


# ---------------------------------------------------------------------------
# exact reconstruction of the closed forms from the Seifert norms


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gauss elimination over Q: returns (rank, particular solution or None,
    nullspace basis) for the augmented system."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    nrows, ncols = len(m), len(rows[0])
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    rank = r
    for i in range(rank, nrows):
        if m[i][ncols] != 0:
            return rank, None, []
    particular = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        particular[c] = m[i][ncols]
    free_cols = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, c in enumerate(piv_cols):
            vec[c] = -m[i][fc]
        basis.append(vec)
    return rank, particular, basis


@dataclass(frozen=True)
class LinearSystemResult:
    p: int
    q: int
    a: tuple[int, int, int]
    s_min: int
    rank: int
    z: int
    z_candidates: tuple[int, ...]
    reduction_used: str | None


def solve_linear_system(prof: SeminormProfile) -> LinearSystemResult:
    """Recover (a1, a2, a3, s) of the profiled filling p/q from its Seifert
    norms and slope distances, and compare them with the closed form.

    The 4x4 system (three Seifert slopes plus the meridian) has full rank
    only for p/q in (3, 4) or (4, 6).  Elsewhere it has rank 3 and the
    solution line is walked by s = bound - z with the class-count bound:
    the candidates are the z >= 0 making all of a1, a2, a3, s even and
    non-negative: each is affine in z, so z is kept when every a_i - b_i z,
    over one common denominator den, is a non-negative multiple of 2 den.
    On (-inf, 0) and (0, 2) the candidate is unique (z = 0).  On (2, 3) and
    (6, inf) it is not; there the mirror symmetry of the characterization
    polynomial under p -> -p + 4q moves the slope into a range where
    simplicity is settled, forcing the bound to be attained, i.e. z = 0.
    """
    p, q, rng, betas = prof.p, prof.q, prof.range_tag, prof.betas
    rows = []
    rhs = []
    for sig in (1, 2, 3):  # the Seifert slope sigma/1
        rows.append([Fraction(distance(Slope(sig, 1), b)) for b in betas] + [Fraction(-1)])
        rhs.append(Fraction(prof.seifert[sig - 1] - prof.s_min))
    rows.append([Fraction(distance(INFINITY, b)) for b in betas] + [Fraction(-1)])
    rhs.append(Fraction(0))

    rank, particular, basis = _solve_exact(rows, rhs)
    if particular is None:
        raise VerificationFailure(f"({p},{q}): norm system has no solution")

    in_three_four = rng is SlopeRange.TWO_4 and p > 3 * q
    in_four_six = rng is SlopeRange.FOUR_INF and p < 6 * q
    expect_rank4 = in_three_four or in_four_six
    if expect_rank4 != (rank == 4):
        raise VerificationFailure(f"({p},{q}): rank {rank} where {'4' if expect_rank4 else '3'} expected")

    bound = expected_class_total(p, q)
    if rank == 4:
        sol = particular
        z = 0
        candidates: tuple[int, ...] = ()
        reduction = None
        if sol[3] != bound:
            raise VerificationFailure(
                f"({p},{q}): unique solution has s = {sol[3]}, class bound {bound}"
            )
    else:
        if len(basis) != 1 or basis[0][3] == 0:
            raise VerificationFailure(f"({p},{q}): solution line degenerate in s")
        null = basis[0]
        sol = [particular[i] + (bound - particular[3]) / null[3] * null[i] for i in range(4)]
        slope = [v / null[3] for v in null]
        den = math.lcm(*(v.denominator for v in sol + slope))
        ab = [(int(x * den), int(y * den)) for x, y in zip(sol, slope)]
        candidates = tuple(
            z for z in range(bound + 1)
            if all((ai - bi * z) % (2 * den) == 0 and ai - bi * z >= 0 for ai, bi in ab)
        )
        if not candidates or candidates[0] != 0:
            raise VerificationFailure(f"({p},{q}): z = 0 not admissible, candidates {candidates}")
        if len(candidates) == 1:
            reduction = None
        else:
            # mirror p -> -p+4q lands in a settled range; simplicity transfers,
            # the class count attains its bound, and z = 0
            mirror = Fraction(-p + 4 * q, q)
            if not (mirror < 0 or 0 < mirror < 2):
                raise VerificationFailure(
                    f"({p},{q}): ambiguous candidates {candidates} and no mirror reduction"
                )
            reduction = f"characterization polynomial symmetry: ({p},{q}) ~ ({-p + 4 * q},{q})"
        z = 0

    a = tuple(int(v) for v in sol[:3])
    s_min = int(sol[3])
    if a != prof.a or s_min != prof.s_min:
        raise VerificationFailure(
            f"({p},{q}): reconstruction {(a, s_min)} differs from the closed form "
            f"{(prof.a, prof.s_min)}"
        )
    return LinearSystemResult(p, q, a, s_min, rank, z, candidates, reduction)
