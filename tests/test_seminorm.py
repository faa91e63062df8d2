import dataclasses
import math

import pytest

from whitenorm.errors import ScopeError, ValidationError, VerificationFailure
from whitenorm.seminorm import (
    evaluate_norm,
    seifert_character_counts,
    seminorm_profile,
    solve_linear_system,
)
from whitenorm.slopes import INFINITY, Slope


def odd_sweep(pmax=25, qmax=8):
    for q in range(1, qmax + 1):
        for p in range(-pmax, pmax + 1):
            if p % 2 and math.gcd(abs(p), q) == 1 and p != 3 * q:
                yield p, q


def test_profile_spot_values():
    for p, q, a, s in [
        (-1, 1, (2, 2, 0), 4),
        (1, 1, (0, 2, 0), 2),
        (5, 1, (2, 2, 0), 8),
        (7, 2, (2, 4, 2), 12),
    ]:
        prof = seminorm_profile(p, q)
        assert prof.a == a and prof.s_min == s


def test_scope_errors():
    with pytest.raises(ScopeError):
        seminorm_profile(2, 1)
    with pytest.raises(ScopeError):
        seminorm_profile(3, 1)
    with pytest.raises(ValidationError):
        seminorm_profile(6, 2)
    with pytest.raises(ValidationError):
        seminorm_profile(1, -1)


def test_evaluate_norm_examples():
    assert evaluate_norm(seminorm_profile(-1, 1), INFINITY) == 4
    assert evaluate_norm(seminorm_profile(5, 1), Slope(1, 1)) == 8
    # the indefinite direction: the norm vanishes along the varying slope
    assert evaluate_norm(seminorm_profile(1, 1), Slope(6, 1)) == 0


def test_norm_is_even_and_coefficients_nonnegative():
    for p, q in odd_sweep(15, 5):
        prof = seminorm_profile(p, q)
        assert all(a >= 0 and a % 2 == 0 for a in prof.a)
        assert prof.s_min >= 0 and prof.s_min % 2 == 0


def test_bad_table_raises_system_inconsistent(monkeypatch, capsys):
    # the parity check is a raise, not an assert that python -O strips, and
    # the CLI reports it as a verification failure, not a traceback
    import whitenorm.seminorm as seminorm_mod
    from whitenorm.cli import main

    table = seminorm_mod._table
    monkeypatch.setattr(seminorm_mod, "_table", lambda p, q, rng: (*table(p, q, rng)[:2], 7))
    seminorm_profile.cache_clear()  # derive again rather than read the cached profile
    with pytest.raises(VerificationFailure, match=r"^\(5,1\): coefficients .* must be even and >= 0$"):
        seminorm_profile(5, 1)
    assert main(["norm", "5", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("verification failure: VerificationFailure: (5,1): coefficients ")
    assert err.endswith(" must be even and >= 0\n")


def test_minimal_norm_is_norm_of_meridian():
    for p, q in odd_sweep():
        prof = seminorm_profile(p, q)
        assert evaluate_norm(prof, INFINITY) == prof.s_min


def test_seifert_norm_examples():
    assert seminorm_profile(5, 1).seifert == (8, 8, 12)
    assert seminorm_profile(-1, 1).seifert == (16, 16, 16)


def test_seifert_norms_match_distance_evaluation():
    gammas = (Slope(1, 1), Slope(2, 1), Slope(3, 1))
    for p, q in odd_sweep():
        prof = seminorm_profile(p, q)
        norms = prof.seifert
        assert tuple(evaluate_norm(prof, g) for g in gammas) == norms


def test_character_counts_5_1():
    ct = seifert_character_counts(seminorm_profile(5, 1), 1)
    assert (ct.psl2_total, ct.psl2_irreducible, ct.sl2_nonabelian) == (3, 0, 0)
    ct = seifert_character_counts(seminorm_profile(5, 1), 2)
    assert ct.sl2_nonabelian == 0  # (3/2)(|p-4q|-1)
    ct = seifert_character_counts(seminorm_profile(5, 1), 3)
    assert ct.sl2_nonabelian == 2  # 2(|p-3q|-1)
    with pytest.raises(ValidationError):
        seifert_character_counts(seminorm_profile(5, 1), 4)
    with pytest.raises(ScopeError):
        seifert_character_counts(seminorm_profile(2, 1), 1)


def test_character_counts_consistency_sweep():
    for p, q in odd_sweep(15, 4):
        for sigma in (1, 2, 3):
            # all row sums asserted inside
            seifert_character_counts(seminorm_profile(p, q), sigma)


def test_character_counts_reject_a_planted_seifert_norm():
    # the counts read ||sigma|| from the profile, so a profile whose
    # ||1|| is off by 2 must fail the s + 2A identity
    prof = seminorm_profile(5, 1)
    planted = dataclasses.replace(prof, seifert=(prof.seifert[0] + 2, *prof.seifert[1:]))
    with pytest.raises(VerificationFailure, match=r"sigma=1: \|\|sigma\|\| = 10 but s \+ 2A = 8"):
        seifert_character_counts(planted, 1)
    for sigma in (2, 3):
        seifert_character_counts(planted, sigma)


def test_linear_system_examples():
    r = solve_linear_system(seminorm_profile(7, 2))
    assert (r.a, r.s_min, r.rank) == ((2, 4, 2), 12, 4)
    r = solve_linear_system(seminorm_profile(-1, 1))
    assert (r.a, r.s_min, r.rank, r.z, r.z_candidates) == ((2, 2, 0), 4, 3, 0, (0,))
    r = solve_linear_system(seminorm_profile(5, 1))
    assert (r.a, r.s_min, r.rank) == ((2, 2, 0), 8, 4)


def test_linear_system_ambiguous_range_uses_mirror():
    # on (2, 3) the parity/positivity constraints admit a second candidate
    r = solve_linear_system(seminorm_profile(5, 2))
    assert r.z_candidates == (0, 4)
    assert r.reduction_used is not None and "(3,2)" in r.reduction_used
    # far range (6, inf) also goes through the mirror
    r = solve_linear_system(seminorm_profile(13, 2))
    assert r.rank == 3 and r.reduction_used is not None


def test_linear_system_matches_profile_sweep():
    for p, q in odd_sweep(19, 6):
        res = solve_linear_system(seminorm_profile(p, q))
        prof = seminorm_profile(p, q)
        assert res.a == prof.a and res.s_min == prof.s_min
        assert res.z == 0


def _fraction_walk(p, q):
    """The candidate walk as one Fraction solve per z: (z_candidates, z,
    a, s_min, reduction_used), kept as the reference for the integer walk."""
    from fractions import Fraction

    from whitenorm.reps import expected_class_total
    from whitenorm.seminorm import _SEIFERT_CONE, _SEIFERT_WEIGHT, _solve_exact
    from whitenorm.slopes import distance

    betas = seminorm_profile(p, q).betas
    rows = [[Fraction(distance(Slope(sig, 1), b)) for b in betas] + [Fraction(-1)] for sig in (1, 2, 3)]
    rows.append([Fraction(distance(INFINITY, b)) for b in betas] + [Fraction(-1)])
    rhs = [Fraction(_SEIFERT_WEIGHT[sig] * (abs(p - _SEIFERT_CONE[sig] * q) - 1)) for sig in (1, 2, 3)]
    rank, particular, basis = _solve_exact(rows, rhs + [Fraction(0)])
    if rank == 4:
        return (), 0, tuple(int(v) for v in particular[:3]), int(particular[3]), None
    bound = expected_class_total(p, q)
    null = basis[0]

    def vals(z):
        tau = (Fraction(bound - z) - particular[3]) / null[3]
        return [particular[i] + tau * null[i] for i in range(4)]

    candidates = tuple(
        z for z in range(bound + 1)
        if all(v.denominator == 1 and v >= 0 and v % 2 == 0 for v in vals(z))
    )
    reduction = None
    if len(candidates) > 1:
        reduction = f"characterization polynomial symmetry: ({p},{q}) ~ ({-p + 4 * q},{q})"
    sol = vals(0)
    return candidates, 0, tuple(int(v) for v in sol[:3]), int(sol[3]), reduction


def test_integer_walk_matches_fraction_walk():
    for p, q in odd_sweep(25, 12):
        r = solve_linear_system(seminorm_profile(p, q))
        got = (r.z_candidates, r.z, r.a, r.s_min, r.reduction_used)
        assert got == _fraction_walk(p, q), (p, q)


def test_detected_slopes():
    # a boundary slope carries a vertex of the norm polygon iff a_j > 0:
    # beta1 unless p = 2q +- 1, beta2 always, beta3 iff q > 1
    for p, q in odd_sweep(25, 8):
        detected = tuple(aj > 0 for aj in seminorm_profile(p, q).a)
        assert detected == (abs(p - 2 * q) != 1, True, q > 1), (p, q)
