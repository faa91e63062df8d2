"""The total Culler-Shalen seminorm engine for p odd.

The norm of a slope g is sum_j a_j * dist(g, beta_j) over the three
candidate boundary slopes; the coefficients a_j and the minimal norm s
have closed forms per range of p/q.  Everything here is exact integer /
rational arithmetic: the one numerical contact point (minimal norm =
number of parabolic classes) lives in the verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateCase,
    RankUnexpected,
    ScopeError,
    SystemInconsistent,
    ValidationError,
)
from .laurent import LaurentPoly
from .reps import expected_class_total
from .slopes import (
    INFINITY,
    BoundaryTriple,
    Slope,
    SlopeRange,
    boundary_slopes,
    classify_range,
    distance,
    validate_filling,
)


def _require_scope(p: int, q: int) -> SlopeRange:
    validate_filling(p, q)
    if p % 2 == 0:
        raise ScopeError("p even: outside the closed forms")
    if p == 3 * q:
        raise ScopeError("slope 3: outside the closed forms")
    return classify_range(Slope.of(p, q))


@dataclass(frozen=True)
class SeminormProfile:
    p: int
    q: int
    range_tag: SlopeRange
    betas: BoundaryTriple
    a: tuple[int, int, int]
    s_min: int


def _table_coeffs(p: int, q: int, rng: SlopeRange) -> tuple[tuple[int, int, int], int]:
    if rng is SlopeRange.NEG_INF_0:
        return (-p + 2 * q - 1, 2, 2 * q - 2), -3 * p + 4 * q - 3
    if rng is SlopeRange.ZERO_2:
        return (-p + 2 * q - 1, 2, 2 * q - 2), p + 4 * q - 3
    if rng is SlopeRange.TWO_4:
        return (p - 2 * q - 1, 4, 2 * q - 2), p + 4 * q - 3
    if rng is SlopeRange.FOUR_INF:
        return (p - 2 * q - 1, 2, 2 * q - 2), 3 * p - 4 * q - 3
    raise ScopeError(f"slope {p}/{q} sits on a range endpoint")  # unreachable for p odd


def seminorm_profile(p: int, q: int) -> SeminormProfile:
    """Boundary slopes, coefficients and minimal norm for the p/q filling."""
    rng = _require_scope(p, q)
    a, s_min = _table_coeffs(p, q, rng)
    assert all(x >= 0 and x % 2 == 0 for x in a) and s_min >= 0 and s_min % 2 == 0
    return SeminormProfile(p, q, rng, boundary_slopes(p, q), a, s_min)


def evaluate_norm(profile: SeminormProfile, gamma: Slope) -> int:
    return sum(aj * distance(gamma, bj) for aj, bj in zip(profile.a, profile.betas))


def detected_slopes(p: int, q: int) -> dict:
    """Which candidate boundary slopes carry a vertex of the norm polygon
    (a_j > 0), with the closed-form predictions for cross-checking."""
    prof = seminorm_profile(p, q)
    flags = tuple(aj > 0 for aj in prof.a)
    expected = (p != 2 * q - 1 and p != 2 * q + 1, True, q > 1)
    if flags != expected:
        raise SystemInconsistent(
            f"detected-slope pattern {flags} differs from prediction {expected}"
        )
    return {
        "beta": tuple(str(b) for b in prof.betas),
        "detected": flags,
        "rules": {
            "beta1": "detected unless p = 2q +- 1",
            "beta2": "always detected",
            "beta3": "detected iff q > 1",
        },
    }


# ---------------------------------------------------------------------------
# Seifert fillings


_SEIFERT_CONE = {1: 6, 2: 4, 3: 3}  # sigma -> k with cone order |p - k q|
_SEIFERT_WEIGHT = {1: 2, 2: 3, 3: 4}


def seifert_norms(p: int, q: int) -> tuple[int, int, int]:
    """Closed-form total seminorms of the three Seifert filling slopes:
    ||sigma|| = s + w_sigma * (|p - k_sigma q| - 1) with (w, k) = (2, 6),
    (3, 4), (4, 3)."""
    _require_scope(p, q)
    _, s_min = _table_coeffs(p, q, classify_range(Slope.of(p, q)))
    return tuple(
        s_min + _SEIFERT_WEIGHT[sig] * (abs(p - _SEIFERT_CONE[sig] * q) - 1)
        for sig in (1, 2, 3)
    )


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
        raise SystemInconsistent(f"{x} must be even in a character count")
    return x // 2


def seifert_character_counts(p: int, q: int, sigma: int) -> CountTable:
    """Character counts for the Seifert filling sigma in {1, 2, 3}, p odd.

    Rows are keyed by gcd(6, p) for sigma in {1, 3} and gcd(4, p) for
    sigma = 2; p odd only meets the odd-gcd rows.  The non-abelian SL2
    count is derived by the lifting rules (dihedral characters lift once,
    all other non-abelian characters twice) and must reproduce the closed
    form behind the Seifert norms.
    """
    _require_scope(p, q)
    if sigma not in (1, 2, 3):
        raise ValidationError("sigma must be 1, 2 or 3")
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
        raise SystemInconsistent(
            f"sigma={sigma}, gcd={key}: character table rows do not sum to the total"
        )
    # lifting: dihedral characters lift once, other non-abelian ones twice
    a_const = 2 * (irr - dihedral + nonab_red) + dihedral
    norm_sigma = seifert_norms(p, q)[sigma - 1]
    _, s_min = _table_coeffs(p, q, classify_range(Slope.of(p, q)))
    if norm_sigma != s_min + 2 * a_const:
        raise SystemInconsistent(
            f"sigma={sigma}: ||sigma|| = {norm_sigma} but s + 2A = {s_min + 2 * a_const}"
        )
    return CountTable(sigma, total, irr, dihedral, reducible, nonab_red, a_const)


def twisted_alexander(p: int, q: int, s_squared_is_one: bool) -> LaurentPoly:
    """Twisted Alexander polynomial of the diagonal character: t - 1 away
    from s^2 = 1, and q t^2 + (p - 2q) t + q at s^2 = 1 (the untwisted
    polynomial of the filled manifold)."""
    if s_squared_is_one:
        return LaurentPoly({2: q, 1: p - 2 * q, 0: q})
    return LaurentPoly({1: 1, 0: -1})


def nonabelian_reducible_u2(p: int, q: int) -> tuple[complex, complex]:
    """The two squared meridian eigenvalues of non-abelian reducible
    characters with s^2 = 1: roots of q x^2 + (p - 2q) x + q."""
    if q <= 0:
        raise ValidationError("q must be positive")
    if p == 0:
        raise DegenerateCase("p/q = 0 admits no such representation")
    import cmath

    disc = cmath.sqrt(complex(p * (p - 4 * q)))
    u2a = (-p + 2 * q + disc) / (2 * q)
    u2b = (-p + 2 * q - disc) / (2 * q)
    poly = twisted_alexander(p, q, True)
    for u2 in (u2a, u2b):
        val = sum(c * u2**e for e, c in poly.coeffs.items())
        # scaled by the size of the terms; the quadratic formula in double
        # leaves at most 7e-15 over all coprime |p| <= 200, q < 60, and a
        # wrong root leaves O(1)
        if abs(val) > 1e-9 * (1 + abs(u2)) ** 2 * (abs(p) + abs(q)):
            raise SystemInconsistent(f"u^2 = {u2} is not a root of {poly.pretty('t')}")
    return u2a, u2b


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


def solve_linear_system(p: int, q: int) -> LinearSystemResult:
    """Recover (a1, a2, a3, s) from the Seifert norms and slope distances.

    The 4x4 system (three Seifert slopes plus the meridian) has full rank
    only for p/q in (3, 4) or (4, 6).  Elsewhere it has rank 3 and the
    solution line is walked by s = bound - z with the class-count bound:
    the candidates are the z >= 0 making all of a1, a2, a3, s even and
    non-negative.  On (-inf, 0) and (0, 2) the candidate is unique (z = 0).
    On (2, 3) and (6, inf) it is not; there the mirror symmetry of the
    characterization polynomial under p -> -p + 4q moves the slope into a
    range where simplicity is settled, forcing the bound to be attained,
    i.e. z = 0.
    """
    rng = _require_scope(p, q)
    prof = seminorm_profile(p, q)
    betas = boundary_slopes(p, q)
    rows = []
    rhs = []
    for sig in (1, 2, 3):  # the Seifert slope sigma/1
        rows.append([Fraction(distance(Slope(sig, 1), b)) for b in betas] + [Fraction(-1)])
        rhs.append(Fraction(_SEIFERT_WEIGHT[sig] * (abs(p - _SEIFERT_CONE[sig] * q) - 1)))
    rows.append([Fraction(distance(INFINITY, b)) for b in betas] + [Fraction(-1)])
    rhs.append(Fraction(0))

    rank, particular, basis = _solve_exact(rows, rhs)
    if particular is None:
        raise SystemInconsistent(f"({p},{q}): norm system has no solution")

    in_three_four = rng is SlopeRange.TWO_4 and p > 3 * q
    in_four_six = rng is SlopeRange.FOUR_INF and p < 6 * q
    expect_rank4 = in_three_four or in_four_six
    if expect_rank4 != (rank == 4):
        raise RankUnexpected(f"({p},{q}): rank {rank} where {'4' if expect_rank4 else '3'} expected")

    bound = expected_class_total(p, q)
    if rank == 4:
        sol = particular
        z = 0
        candidates: tuple[int, ...] = ()
        reduction = None
        if sol[3] != bound:
            raise SystemInconsistent(
                f"({p},{q}): unique solution has s = {sol[3]}, class bound {bound}"
            )
    else:
        if len(basis) != 1 or basis[0][3] == 0:
            raise RankUnexpected(f"({p},{q}): solution line degenerate in s")
        null = basis[0]
        candidates = []
        for z_try in range(0, bound + 1):
            tau = (Fraction(bound - z_try) - particular[3]) / null[3]
            vals = [particular[i] + tau * null[i] for i in range(4)]
            if all(v.denominator == 1 and v >= 0 and v % 2 == 0 for v in vals):
                candidates.append(z_try)
        candidates = tuple(candidates)
        if not candidates or candidates[0] != 0:
            raise SystemInconsistent(f"({p},{q}): z = 0 not admissible, candidates {candidates}")
        if len(candidates) == 1:
            reduction = None
        else:
            # mirror p -> -p+4q lands in a settled range; simplicity transfers,
            # the class count attains its bound, and z = 0
            mirror = Fraction(-p + 4 * q, q)
            if not (mirror < 0 or 0 < mirror < 2):
                raise SystemInconsistent(
                    f"({p},{q}): ambiguous candidates {candidates} and no mirror reduction"
                )
            reduction = f"characterization polynomial symmetry: ({p},{q}) ~ ({-p + 4 * q},{q})"
        z = 0
        tau = (Fraction(bound) - particular[3]) / null[3]
        sol = [particular[i] + tau * null[i] for i in range(4)]

    a = tuple(int(v) for v in sol[:3])
    s_min = int(sol[3])
    if a != prof.a or s_min != prof.s_min:
        raise SystemInconsistent(
            f"({p},{q}): reconstruction {(a, s_min)} differs from the closed form "
            f"{(prof.a, prof.s_min)}"
        )
    return LinearSystemResult(p, q, a, s_min, rank, z, candidates, reduction)
