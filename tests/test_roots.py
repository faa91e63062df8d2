import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from whitenorm import respq
from whitenorm.cohomology import d2_check, d2_poly
from whitenorm.cxhp import hp, hp_abs, hp_float
from whitenorm.errors import ClassificationViolation, ConvergenceFailure, ValidationError
from whitenorm.laurent import LaurentPoly, _squarefree, squarefree_refusal
from whitenorm.respq import build_res
from whitenorm.roots import _REL, RootSet, _package, classify, nontrivial_roots, resultant_roots

import reference_solver as ref
from reference_solver import _refine_hp, _solve_split, _sweep

SQ2 = math.sqrt(2)


def find_roots(f: LaurentPoly) -> RootSet:
    """The reference solver (reference_solver) on a non-zero integer
    polynomial f, with the exact facts ResPoly gives res: the exponent unit
    stripped, +-1 split off with their orders, the rest certified
    squarefree or refused."""
    f = f.shift(-f.mindeg)
    o1, f = f.split_root(1)
    om1, f = f.split_root(-1)
    quotient = tuple(f.dense()[0])
    if refused := squarefree_refusal(quotient):
        raise refused
    return _solve_split((o1, om1), quotient)


def printed_discs_apart(rs: RootSet) -> bool:
    """Whether every two roots' discs about their printed doubles v stay
    apart however the centres rounded: |v_a - v_b| + 2^-53 (|re| + |im|) of
    both > r_a + r_b, with slack _REL.  The root solve proves the discs
    about its fixed-point centres c disjoint, |c_a - c_b| > r_a + r_b, and a
    printed value lies within 2^-53 (|re| + |im|) of its centre, so off the
    axes the sum bounds |c_a - c_b| from above and every certified set
    passes."""
    ulp = [2.0**-53 * (abs(r.value.real) + abs(r.value.imag)) for r in rs]
    return all(
        (abs(a.value - b.value) + ulp[i] + ulp[j]) * (1.0 + _REL) > a.radius + b.radius
        for i, a in enumerate(rs)
        for j, b in enumerate(rs.roots[i + 1 :], i + 1)
    )


def test_quadratic_difference():
    rs = find_roots(LaurentPoly({2: 1, 0: -1}))
    assert [(round(r.value.real, 12), r.multiplicity) for r in rs] == [(-1.0, 1), (1.0, 1)]
    assert all(r.flags.trivial_pm1 and r.flags.real and r.flags.unit_circle for r in rs)


def test_multiple_root_clustering():
    # (s - 2)^2 (s + 1)^2 (s - 5): the double root -1 is split off exactly,
    # and the double root 2 left after it is refused before any sweep
    s_2, s1 = LaurentPoly({1: 1, 0: -2}), LaurentPoly({1: 1, 0: 1})
    f = s_2 * s_2 * s1 * s1 * LaurentPoly({1: 1, 0: -5})
    with pytest.raises(ValidationError, match="degree-3 polynomial .* not certified squarefree"):
        find_roots(f)


def test_multiple_root_on_axis_prints_exact_zero():
    # (s^2 - 4)^2 (s^2 + 9): the double roots +-2 are refused, so no disc
    # ever holds more than one root
    with pytest.raises(ValidationError, match="not certified squarefree"):
        find_roots(LaurentPoly({2: 1, 0: -4}) * LaurentPoly({2: 1, 0: -4}) * LaurentPoly({2: 1, 0: 9}))


def test_refine_failure_names_degree_and_step(monkeypatch):
    # one sweep from a start far off +-sqrt(2) cannot reach a 2^-95 step
    monkeypatch.setattr(ref, "_SWEEPS", 1)
    with pytest.raises(ConvergenceFailure, match=r"degree 2 in 1 sweeps: .* 2\^-\d+$"):
        _refine_hp([-2, 0, 1], [1 + 0.5j, -1 - 0.3j])


def test_forced_refine_failure_names_stage_degree_and_step(monkeypatch):
    monkeypatch.setattr(ref, "_SWEEPS", 1)
    f = build_res(5, 1).poly
    with pytest.raises(ConvergenceFailure, match=r"in 1 sweeps: the last sweep's largest step was 2\^-\d+$") as info:
        find_roots(f)
    exc = info.value
    # only s^4 - 3s^3 + 5s^2 - 3s + 1, left after the double root -1 is
    # split off, reaches the sweeps
    assert (exc.stage, exc.degree, exc.bits, exc.coeff_bits) == ("refine", 4, 128, 3)


def test_failing_solve_makes_one_start(monkeypatch):
    starts = []
    aberth = ref._aberth

    def spy(coeffs, *args):
        starts.append(len(coeffs) - 1)
        return aberth(coeffs, *args)

    monkeypatch.setattr(ref, "_aberth", spy)
    monkeypatch.setattr(ref, "_SWEEPS", 1)
    with pytest.raises(ConvergenceFailure) as info:
        find_roots(build_res(5, 1).poly)
    # the refinement's own failure is raised, with no second start
    assert starts == [4]
    assert str(info.value).startswith("high-precision sweeps did not settle on degree 4")


@pytest.mark.parametrize(
    "other, order",
    [(LaurentPoly({1: 1, 0: -3}), 3), (LaurentPoly({2: 1, 0: 3}), 4)],
)
def test_multiple_pm1_roots_split_exactly(other, order):
    # (s - 1)^3 (s - 3) and (s - 1)^4 (s^2 + 3): a multiple root at 1
    # converges linearly in the sweeps, so it is divided out, not solved
    rs = find_roots(math.prod([LaurentPoly({1: 1, 0: -1})] * order, start=other))
    one = [r for r in rs if r.flags.trivial_pm1]
    assert [(r.value, r.multiplicity, r.radius) for r in one] == [(1, order, 0.0)]
    assert sum(r.multiplicity for r in rs) == rs.span == order + other.span
    assert sum(r.multiplicity for r in nontrivial_roots(rs)) == other.span


def test_imaginary_flag_needs_one_exponent_parity():
    # (s - a)(s^2 + 1) mixes exponent parities, so +-i are never certified
    # imaginary, although a centre may land on re = 0.0 (both do at a = -3);
    # an exact zero coordinate still follows from the flag, not conversely
    for a in (2, -3):
        rs = find_roots(LaurentPoly({1: 1, 0: -a}) * LaurentPoly({2: 1, 0: 1}))
        assert sorted((round(r.value.real, 7), round(r.value.imag, 7), r.multiplicity) for r in rs) == sorted(
            [(0.0, -1.0, 1), (0.0, 1.0, 1), (a, 0.0, 1)]
        )
        for r in rs:
            assert r.flags.real == (r.value.imag == 0.0)
            assert not r.flags.imaginary or r.value.real == 0.0
        assert not any(r.flags.imaginary for r in rs)
    assert [r.value for r in rs] == [-3, -1j, 1j]


# every filling of the coprime |p| <= 33, q <= 10 grid, odd and even p
CENSUS = [
    (p, q) for p in range(-33, 34) for q in range(1, 11)
    if math.gcd(abs(p), q) == 1 and p not in (0, 4 * q)
]


def test_census_squarefree_after_pm1_split():
    # ResPoly's quotient is certified, and its degree is the span less the
    # orders at +-1; and the d2 obstruction polynomial has no repeated root
    assert len(CENSUS) == 417
    for pq in CENSUS:
        r = build_res(*pq)
        assert len(r.quotient) - 1 == r.span - sum(r.trivial_orders), pq
    assert len(find_roots(d2_poly())) == 40


def test_census_d2_coprime_to_res():
    # gcd(res, d2) = 1 modulo 2^61 - 1 on every census filling
    assert len(CENSUS) == 417
    for pq in CENSUS:
        d2_check(*pq)


def test_mirror_fillings_share_one_split(monkeypatch):
    # 3/5 and its mirror 17/5 = (4q - p)/q have one polynomial: one split at
    # +1, one at -1 and one squarefree test serve both
    import whitenorm.laurent as laurent

    calls = []
    split_root, squarefree = LaurentPoly.split_root, laurent._squarefree
    monkeypatch.setattr(LaurentPoly, "split_root", lambda f, x: calls.append(x) or split_root(f, x))
    monkeypatch.setattr(laurent, "_squarefree", lambda c: calls.append("squarefree") or squarefree(c))
    respq._split.cache_clear()
    respq._refusal.cache_clear()
    for p in (3, 17):
        r = build_res(p, 5)
        assert r.trivial_orders == (0, 2)
        assert len(r.quotient) - 1 == 18
    assert calls == [1, -1, "squarefree"]


def _rational_gcd_degree(coeffs: list[int]) -> int:
    """deg gcd(f, f') over Q by Euclid's algorithm on Fractions
    (coefficients constant first)."""
    a = [Fraction(c) for c in coeffs]
    b = [i * c for i, c in enumerate(a)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        while len(a) >= len(b):
            m, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= m * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


# Degree <= 4 and |c_i| <= 5: by Hadamard's bound on the 7 x 7 Sylvester
# matrix of f and f' (three rows of norm <= 5 sqrt 5, four of norm
# <= 5 sqrt 30), a non-zero Res(f, f') = +-a_n disc(f) is below 8e8, far
# below 2^61 - 1, and the prime cannot divide a_n.  So the test mod the
# prime is exact here: it passes exactly when f is squarefree over Q.
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4).flatmap(
        lambda low: st.integers(-5, 5).filter(bool).map(lambda lead: [*low, lead])
    )
)
@example([-2, 0, 1])      # s^2 - 2
@example([4, 0, -3, 1])   # (s - 2)^2 (s + 1)
@example([0, 0, 0, 0, 5])  # 5 s^4
@settings(max_examples=200, deadline=None)
def test_squarefree_agrees_with_rational_gcd(coeffs):
    assert _squarefree(coeffs) == (_rational_gcd_degree(coeffs) == 0)


def test_close_simple_roots_stay_apart():
    # 3 and 3 + 1e-8 lie in disjoint discs: two simple real roots
    rs = find_roots(LaurentPoly({1: 1, 0: -3}) * LaurentPoly({1: 10**8, 0: -3 * 10**8 - 1}))
    assert [r.multiplicity for r in rs] == [1, 1]
    assert [r.value for r in rs] == [3.0, (3 * 10**8 + 1) / 10**8]
    assert all(r.flags.real and r.value.imag == 0.0 for r in rs)
    assert printed_discs_apart(rs)


def test_roots_closer_than_a_double_apart():
    # 3 and 3 + 2^-60 print as one double, but the repulsion sum sees
    # their iterates apart and the discs about the fixed-point centres
    # certify two simple roots
    rs = find_roots(LaurentPoly({1: 1, 0: -3}) * LaurentPoly({1: 2**60, 0: -3 * 2**60 - 1}))
    assert [(r.value, r.multiplicity, r.flags.real) for r in rs] == [(3.0, 1, True)] * 2
    assert all(0 < r.radius < 2.0**-62 for r in rs)
    # the printed doubles coincide, but the rounding of the centres leaves
    # room for disjoint discs
    assert printed_discs_apart(rs)
    # two discs of radius 0.1 about one printed value would meet wherever
    # the rounding put their centres
    root = dataclasses.replace(rs.roots[0], radius=0.1)
    assert not printed_discs_apart(RootSet(roots=(root, root), span=2))


def test_failed_start_reports_only_its_failure():
    # the coefficient 1e200, and |s|^240 at -89/16, overflow the
    # double-precision start; it fails at once, not after its budget
    for f in (LaurentPoly({2: 1, 1: -10**200, 0: 1}), build_res(-89, 16).poly):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceFailure, match=r"overflowed at iteration \d+ ") as info:
                find_roots(f)
        assert info.value.stage == "aberth"
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_coefficient_beyond_double_range_fails_the_start():
    # 10^400 has no double: the start is refused before it is built
    with pytest.raises(ConvergenceFailure, match="beyond the range of a double") as info:
        find_roots(LaurentPoly({2: 1, 1: -10**400, 0: 1}))
    assert info.value.stage == "aberth"
    assert (info.value.degree, info.value.coeff_bits) == (2, 1329)


def test_fixed_point_overflow_fails_the_refinement():
    # cxhp.hp converts every finite double exactly, so the root 2^900, whose
    # 2^900 * 2^128 has no double, certifies at 128 bits; an infinite start
    # has no fixed point, and the refinement fails at once
    assert [r.value for r in find_roots(LaurentPoly({1: 1, 0: -(2**900)}))] == [2.0**900]
    with pytest.raises(ConvergenceFailure, match="fixed-point conversion") as info:
        _refine_hp([-1, 1], [complex(math.inf, 0)])
    assert (info.value.stage, info.value.degree, info.value.bits) == ("refine", 1, 128)


ROOTS_GRID = [(5, 1), (-5, 3), (65, 3), (65, 16), (65, 23), (129, 16)]


@pytest.mark.parametrize("pq", [*ROOTS_GRID, (8, 1), (7, 2), (89, 44)])
def test_rootset_carries_disjoint_discs(pq):
    rs = resultant_roots(*pq)
    assert printed_discs_apart(rs)
    for root in rs:
        assert 0 <= root.radius < 2.0**-100 * (1 + abs(root.value))
        assert root.flags.real == (root.value.imag == 0.0)
        assert root.flags.imaginary == (root.value.real == 0.0)
        assert root.flags.unit_circle == root.flags.trivial_pm1
    assert all(r.radius > 0 for r in nontrivial_roots(rs))


def _same_roots(pq):
    """Whether resultant_roots(*pq) and the reference solver give the same
    roots: values, multiplicities and every flag."""
    r = build_res(*pq)
    want = _solve_split(r.trivial_orders, r.quotient)
    return [(x.value, x.multiplicity, x.flags) for x in resultant_roots(*pq)] == [
        (x.value, x.multiplicity, x.flags) for x in want
    ]


def test_resultant_roots_match_the_reference():
    # the two solves share no step before the discs: a start point lost,
    # doubled or misplaced on the filling equation would show here
    fillings = [pq for pq in CENSUS if pq[1] <= 6]
    assert len(fillings) == 253
    assert [pq for pq in fillings if not _same_roots(pq)] == []


@pytest.mark.slow
def test_resultant_roots_match_the_reference_on_the_census():
    assert [pq for pq in CENSUS if not _same_roots(pq)] == []


def test_forced_start_failure_names_the_count(monkeypatch):
    import whitenorm.roots as roots_mod

    # with no seed the start finds none of 5/1's four roots
    monkeypatch.setattr(roots_mod, "_RADII", ())
    resultant_roots.cache_clear()
    try:
        with pytest.raises(ConvergenceFailure, match="found 0 distinct roots .*, where degree 4 has 4$") as info:
            resultant_roots(5, 1)
    finally:
        resultant_roots.cache_clear()  # drop the planted failure
    exc = info.value
    assert (exc.stage, exc.degree, exc.coeff_bits, exc.bits) == ("start", 4, 3, None)


@pytest.mark.parametrize(
    "fault, why",
    [
        (None, None),
        ("overlap", "the discs were not pairwise disjoint and below 2^-100"),
        # as at 1025/512, where cxhp.hp_abs passes 2^1024 at every rung
        ("overflow", "a value overflowed a double (planted)"),
    ],
)
def test_forced_discs_failure_names_the_last_rung(monkeypatch, fault, why):
    import whitenorm.roots as roots_mod

    rungs = []
    certify = roots_mod._inclusion_discs

    def planted(int_coeffs, z, bits):
        rungs.append(bits)
        if fault == "overflow":
            raise OverflowError("planted")
        radii, disjoint = certify(int_coeffs, z, bits)
        return radii, disjoint and fault is None

    monkeypatch.setattr(roots_mod, "_inclusion_discs", planted)
    resultant_roots.cache_clear()
    try:
        if fault is None:
            # the first rung that certifies ends the solve
            assert {r.bits for r in nontrivial_roots(resultant_roots(5, 1))} == {128}
            assert rungs == [128]
            return
        with pytest.raises(ConvergenceFailure) as info:
            resultant_roots(5, 1)
    finally:
        resultant_roots.cache_clear()  # drop the planted failure
    assert rungs == [128, 256, 512, 768]
    exc = info.value
    assert str(exc) == f"no rung of (128, 256, 512, 768) fraction bits certified degree 4: at 768 bits {why}"
    assert (exc.stage, exc.degree, exc.coeff_bits, exc.bits) == ("discs", 4, 3, 768)


def test_near_double_root_climbs_past_128_bits(monkeypatch):
    rungs = []
    certify = ref._inclusion_discs

    def spy(int_coeffs, z, bits):
        rungs.append(bits)
        return certify(int_coeffs, z, bits)

    monkeypatch.setattr(ref, "_inclusion_discs", spy)
    # 1 - 2 s^12 (10 - s)^2 (Mignotte's construction) has two real roots
    # 10 -+ 7.07e-7, whose discs come apart only past 128 bits; the factor
    # 100 s - 1001 puts a third root 1e-2 away
    ten_minus_s = LaurentPoly({1: -1, 0: 10})
    mignotte = LaurentPoly({0: 1}) - LaurentPoly({12: 2}) * ten_minus_s * ten_minus_s
    rs = find_roots(mignotte * LaurentPoly({1: 100, 0: -1001}))
    assert rungs[0] == 128 and max(rungs) > 128
    assert sum(r.multiplicity for r in rs) == 15 and all(r.multiplicity == 1 for r in rs)
    near = [r.value for r in rs if abs(r.value - 10) < 1e-3]
    assert len(near) == 2 and all(v.imag == 0.0 for v in near)
    assert abs(near[1].real - near[0].real - 2 / math.sqrt(2e12)) < 1e-10
    assert printed_discs_apart(rs)


def _spy_sweeps(monkeypatch, before=None):
    """The fraction bits of every reference _sweep call; `before(z, bits)`
    runs first."""
    rungs = []
    sweep = ref._sweep

    def spy(int_coeffs, dcoeffs, z, bits):
        if before:
            before(z, bits)
        rungs.append(bits)
        return sweep(int_coeffs, dcoeffs, z, bits)

    monkeypatch.setattr(ref, "_sweep", spy)
    return rungs


# the reference solver's sweeps and final rung, which repeat exactly: a
# repulsion sum too coarse to keep the step's convergence shows here and not
# as timing noise
@pytest.mark.parametrize(
    "pq, sweeps, bits",
    [((5, 1), 2, 128), ((65, 16), 3, 128), ((65, 23), 10, 256), ((129, 16), 3, 128)],
)
def test_sweep_counts(monkeypatch, pq, sweeps, bits):
    rungs = _spy_sweeps(monkeypatch)
    find_roots(build_res(*pq).poly)
    assert (len(rungs), rungs[-1]) == (sweeps, bits)


@pytest.mark.parametrize(
    "coeffs, start, roots",
    [([-2, 0, 1], [1.4, 1.4], [-SQ2, SQ2]), ([-6, 11, -6, 1], [2.1, 2.1, 0.5], [1, 2, 3])],
)
def test_iterates_on_one_double(monkeypatch, coeffs, start, roots):
    # the first two iterates are one unit of 2^-128 apart and round to one
    # double: the repulsion sum stays finite, and the sweeps pull them
    # apart or fail at stage "refine"
    def nudge(z, bits):
        if z[0] == z[1]:
            z[1] = (z[1][0] + 1, z[1][1])

    z = [hp(v, 128) for v in start]
    nudge(z, 128)
    assert hp_float(z[0], 128) == hp_float(z[1], 128)
    with np.errstate(all="raise"):
        _sweep(coeffs, [i * c for i, c in enumerate(coeffs)][1:], z, 128)
    _spy_sweeps(monkeypatch, nudge)
    try:
        z, bits, radii = _refine_hp(coeffs, start)
    except ConvergenceFailure as exc:
        assert exc.stage == "refine"
        return
    assert sorted(hp_float(v, bits).real for v in z) == pytest.approx(roots, abs=1e-15)
    assert all(
        hp_abs((a[0] - b[0], a[1] - b[1]), bits) > ra + rb
        for i, (a, ra) in enumerate(zip(z, radii))
        for b, rb in zip(z[i + 1 :], radii[i + 1 :])
    )


def test_resultant_2_1_roots_exact():
    rs = resultant_roots(2, 1)
    expected = sorted([-(SQ2 + 1), -(SQ2 - 1), SQ2 - 1, SQ2 + 1])
    got = sorted(r.value.real for r in rs)
    assert max(abs(a - b) for a, b in zip(expected, got)) < 1e-10
    assert all(abs(r.value.imag) < 1e-10 and r.multiplicity == 1 for r in rs)


def test_resultant_minus1_1_structure():
    rs = resultant_roots(-1, 1)
    assert rs.span == 6 and sum(r.multiplicity for r in rs) == 6
    trivial = [r for r in rs if r.flags.trivial_pm1]
    assert len(trivial) == 1 and trivial[0].multiplicity == 2
    assert abs(trivial[0].value + 1) == 0
    nt = nontrivial_roots(rs)
    assert len(nt) == 4 and all(r.multiplicity == 1 for r in nt)
    assert all(abs(r.value.imag) > 1e-3 for r in nt)  # 4 simple non-real roots


def test_nontrivial_counts():
    assert len(nontrivial_roots(resultant_roots(-1, 1))) == 4
    assert len(nontrivial_roots(resultant_roots(1, 1))) == 2
    assert len(nontrivial_roots(resultant_roots(4, 1))) == 0


def test_nontrivial_roots_of_any_polynomial():
    assert len(nontrivial_roots(find_roots(LaurentPoly({2: 1, 0: -1})))) == 0


def test_classification_examples():
    rep = classify(resultant_roots(2, 1), 2, 1)
    assert (rep.real_count, rep.imaginary_count) == (4, 0)
    rep = classify(resultant_roots(-4, 1), -4, 1)
    assert rep.imaginary_count == 4
    rep = classify(resultant_roots(1, 1), 1, 1)
    assert rep.real_count == 2
    nt = nontrivial_roots(resultant_roots(1, 1))
    assert all(r.value.real > 0 for r in nt if r.flags.real)


def test_classification_raises_on_planted_violation():
    rs = resultant_roots(2, 1)
    with pytest.raises(ClassificationViolation):
        classify(rs, 5, 1)  # wrong expectations for this root set


def test_classification_rejects_disc_meeting_unit_circle():
    # _package owns the circle flag and classify reads it: the first disc,
    # widened to reach |s| = 1, is flagged, and the root set then fails
    rs = resultant_roots(5, 1)
    nt = list(nontrivial_roots(rs))
    radii = [r.radius for r in nt]
    radii[0] = abs(abs(nt[0].value) - 1.0) * 1.001
    wide = _package(list(build_res(5, 1).quotient), [r.centre for r in nt], nt[0].bits, radii)
    assert [r.flags.unit_circle for r in wide] == [True, False, False, False]
    trivial = [r for r in rs if r.flags.trivial_pm1]
    with pytest.raises(ClassificationViolation, match="unit circle"):
        classify(dataclasses.replace(rs, roots=tuple(trivial + wide)), 5, 1)
    classify(rs, 5, 1)


@pytest.mark.parametrize("pq", [(-1, 1), (1, 1), (5, 1), (7, 2), (-5, 3), (2, 1), (-4, 1), (8, 3)])
def test_rootset_invariants(pq):
    p, q = pq
    rs = resultant_roots(p, q)
    assert sum(r.multiplicity for r in rs) == rs.span
    assert all(r.radius < 2.0**-100 * (1 + abs(r.value)) for r in rs)
    values = nontrivial_roots(rs).values
    for v in values:
        assert min(abs(v - w) for w in values) == 0
        assert min(abs(1 / v - w) for w in values) < 1e-8   # closed under s -> 1/s
        assert min(abs(v.conjugate() - w) for w in values) < 1e-8
    if p % 2 == 0:
        for v in values:
            assert min(abs(-v - w) for w in values) < 1e-8  # s -> -s for p even
    if p % 2 == 1 and values:
        seps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]]
        assert min(seps) > 1e-6


@given(
    st.tuples(st.integers(-9, 9), st.integers(1, 4)).filter(
        lambda t: math.gcd(abs(t[0]), t[1]) == 1 and t[0] not in (0, 4 * t[1])
    )
)
@settings(max_examples=25, deadline=None)
def test_multiplicity_sum_property(pq):
    p, q = pq
    rs = resultant_roots(p, q)
    assert sum(r.multiplicity for r in rs) == rs.span
    classify(rs, p, q)


def test_deterministic_output():
    a = resultant_roots(7, 2)
    resultant_roots.cache_clear()  # solve again rather than share the cached set
    b = resultant_roots(7, 2)
    assert a is not b
    assert a.values == b.values
    assert [r.radius for r in a] == [r.radius for r in b]


def test_mirror_fillings_share_one_solve():
    # res depends only on |p - 2q| and q: 1/2 and 7/2 = (4q - p)/q
    resultant_roots.cache_clear()
    rs = resultant_roots(1, 2)
    assert resultant_roots(7, 2) is rs
    assert resultant_roots.cache_info().misses == 1
