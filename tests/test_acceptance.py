"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time

from whitenorm.cli import main
from whitenorm.cxhp import hp_float
from whitenorm.reps import all_prep_classes, count_prep_classes
from whitenorm.respq import _closed_form, _oracle, build_res, check_symmetries
from whitenorm.roots import classify, nontrivial_roots, resultant_roots
from whitenorm.seminorm import (
    evaluate_norm,
    seminorm_profile,
    solve_linear_system,
)
from whitenorm.slopes import INFINITY, Slope
from whitenorm import cohomology

ROOT_SAMPLES = [(-1, 1), (1, 1), (5, 1), (7, 2), (-5, 3), (65, 3), (65, 16), (65, 23)]


def _coprime_sweep(pmax=25, qmax=8, odd_only=False, skip_three=False):
    for q in range(1, qmax + 1):
        for p in range(-pmax, pmax + 1):
            if math.gcd(abs(p), q) != 1:
                continue
            if odd_only and p % 2 == 0:
                continue
            if skip_three and p == 3 * q:
                continue
            yield p, q


def _ok(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d}: PASS - {message}")


def test_criterion_01_resultant_identity():
    """Exact Sylvester determinant == closed form on the full (p, q) sweep."""
    start = time.monotonic()
    count = 0
    for p, q in _coprime_sweep():
        oracle = _oracle(p, q)
        closed = _closed_form(p, q)
        assert oracle.normalize_unit() == closed.normalize_unit(), (p, q)
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(1, f"{count} coprime pairs, exact integer equality, {elapsed:.1f}s < 60s")


def test_criterion_02_closed_form_spot_values():
    expected = {
        (-1, 1): ((2, 2, 0), 4),
        (1, 1): ((0, 2, 0), 2),
        (5, 1): ((2, 2, 0), 8),
        (7, 2): ((2, 4, 2), 12),
    }
    for (p, q), (a, s) in expected.items():
        prof = seminorm_profile(p, q)
        assert (prof.a, prof.s_min) == (a, s), (p, q)
    _ok(2, "coefficients and minimal norms match at the four spot fillings")


def test_criterion_03_minimal_norm_identity():
    count = 0
    for p, q in _coprime_sweep(odd_only=True, skip_three=True):
        prof = seminorm_profile(p, q)
        assert evaluate_norm(prof, INFINITY) == prof.s_min, (p, q)
        count += 1
    _ok(3, f"norm(meridian) == minimal norm on {count} fillings, exact")


def test_criterion_04_seifert_consistency():
    gammas = (Slope(1, 1), Slope(2, 1), Slope(3, 1))
    count = 0
    for p, q in _coprime_sweep(odd_only=True, skip_three=True):
        prof = seminorm_profile(p, q)
        norms = prof.seifert
        for gamma, closed in zip(gammas, norms):
            assert evaluate_norm(prof, gamma) == closed, (p, q, str(gamma))
        count += 1
    _ok(4, f"three Seifert norms match the closed forms on {count} fillings, exact")


def test_criterion_05_linear_system_reconstruction():
    samples = {
        "(-inf,0)": [(-1, 1), (-3, 1), (-5, 3), (-7, 2), (-9, 4), (-25, 8)],
        "(0,2)": [(1, 1), (1, 2), (3, 2), (5, 3), (7, 4), (9, 5)],
        "(2,4)": [(5, 2), (7, 3), (9, 4), (11, 4), (7, 2), (11, 3)],
        "(4,inf)": [(5, 1), (9, 2), (7, 1), (11, 2), (13, 2), (25, 3)],
    }
    for rng, pqs in samples.items():
        assert len(pqs) >= 5
        for p, q in pqs:
            prof = seminorm_profile(p, q)
            res = solve_linear_system(prof)
            assert prof.range_tag.value == rng, (p, q)
            assert res.a == prof.a and res.s_min == prof.s_min, (p, q)
            assert res.z == 0, (p, q)
    _ok(5, "norm system reproduces the closed forms with z = 0 on >= 5 samples per range")


def _table3_bound(p, q):
    ap, aq = abs(p), abs(q)
    if p % 2:
        if p < 0:
            return 2 * ap + 4 * aq - 2
        return 4 * aq - 2 if p < 4 * q else 2 * ap - 4 * aq - 2
    if p < 0:
        return 2 * ap + 4 * aq
    return 4 * aq if p < 4 * q else 2 * ap - 4 * aq


def test_criterion_06_root_counts_and_simplicity():
    lines = []
    for p, q in ROOT_SAMPLES:
        rs = resultant_roots(p, q)
        nt = nontrivial_roots(rs)
        bound = _table3_bound(p, q)
        assert len(nt) == bound, (p, q, len(nt), bound)
        assert all(r.multiplicity == 1 for r in nt), (p, q)
        values = nt.values
        seps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]]
        assert min(seps) > 1e-6, (p, q)
        count = count_prep_classes(p, q, rootset=rs)
        s_min = seminorm_profile(p, q).s_min
        assert count.total == s_min, (p, q, count.total, s_min)
        lines.append(f"({p},{q}):{bound}")
    _ok(6, "distinct simple roots match the count table and the minimal norm: " + " ".join(lines))


def test_criterion_07_lemma_suite():
    # trivial-root orders, exact
    assert build_res(-1, 1).trivial_orders == (0, 2)
    assert build_res(1, 2).trivial_orders == (2, 0)
    assert build_res(2, 1).trivial_orders == (0, 0)
    for p, q in ROOT_SAMPLES:
        o1, om1 = build_res(p, q).trivial_orders
        if q % 2 == 0:
            assert (o1, om1) == (2, 0)
        else:
            assert (o1, om1) == (0, 2)  # p odd on these samples
        check_symmetries(build_res(p, q))  # exact polynomial identities
        rep = classify(resultant_roots(p, q), p, q)
        assert rep.min_unit_circle_gap > 1e-6, (p, q)
    # p even lemma checks: real / imaginary counts
    assert classify(resultant_roots(2, 1), 2, 1).real_count == 4
    assert classify(resultant_roots(-4, 1), -4, 1).imaginary_count == 4
    # frozen radicals for the slope-2 filling
    sq2 = math.sqrt(2)
    expected = sorted([sq2 + 1, sq2 - 1, -sq2 - 1, -sq2 + 1])
    got = sorted(r.value.real for r in resultant_roots(2, 1))
    assert max(abs(a - b) for a, b in zip(expected, got)) < 1e-10
    assert all(abs(r.value.imag) < 1e-10 for r in resultant_roots(2, 1))
    _ok(7, "trivial orders, symmetry identities, real/imaginary counts, circle gap, radicals")


def test_criterion_08_representation_residuals():
    # the variety and slice references, which the package leaves to the
    # relator residual (tests/test_reps.py proves the identities)
    from test_reps import discrete_faithful_filling_defect, eigenvariety_polys, slice_f

    worst: dict[str, float] = {}
    n_classes = 0
    for p, q in ROOT_SAMPLES:
        for pr in all_prep_classes(p, q):
            n_classes += 1
            assert pr.residuals["relator"] <= 1e-8, (p, q)
            assert pr.residuals["filling"] <= 1e-8, (p, q)
            assert pr.residuals["trace_mu1"] <= 1e-9, (p, q)
            e = pr.eigen
            h1, h2, h3, *_ = eigenvariety_polys(e.s, e.t, complex(pr.sign_u), e.v)
            fval = slice_f(e.s, complex(pr.sign_u), hp_float(pr.m0[2:4], pr.bits))
            assert max(abs(h1), abs(h2), abs(h3)) <= 1e-8, (p, q)
            assert abs(fval) <= 1e-8, (p, q)
            for k, v in pr.residuals.items():
                worst[k] = max(worst.get(k, 0.0), v)
    for p, q in ROOT_SAMPLES:
        for s in (1, -1):
            for u in (1, -1):
                assert discrete_faithful_filling_defect(p, q, s, u) > 1e-3
    _ok(8, f"{n_classes} classes verified; worst residuals "
           + ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items())))


def test_criterion_09_cohomology_checks():
    # the matrices over Z[s, 1/s], their p/q row scaled by q
    from test_cohomology import (
        ONE,
        Q2,
        QUARTIC,
        S2,
        const,
        coboundary_matrix,
        det_p_closed_form,
        minor,
        over_s,
        presentation_matrix,
        trace_pairing_matrix,
    )

    from whitenorm.laurent import det_exact

    # coboundary rank 3 wherever s^2 != 1, for every a: the (3, 4, 6) minor
    # is -2 (s^2 - 1)/s^2, proven by ten values of a (degree <= 9 in a)
    for a in range(10):
        assert minor(coboundary_matrix(a), (3, 4, 6)) == over_s(const(-2) * Q2, 2)
    # reducible presentation rank 5 wherever p != 0 and s^2 != 1: two
    # minors, r times quartics s^4 - s^2 +- 1 that share no root
    for p in range(3, 16, 2):
        m = presentation_matrix(p, 1)
        assert minor(m, (1, 2, 3, 4, 6)) == over_s(const(4 * p) * Q2 * Q2 * (S2 * S2 - S2 + ONE), 2)
        assert minor(m, (1, 2, 3, 5, 6)) == over_s(const(-2 * p) * Q2 * Q2 * Q2 * Q2 * QUARTIC, 2)
    # det P equals its closed form identically: affine in r, so two values
    # of r prove it
    for p, q in [(5, 1), (-5, 3)]:
        assert det_exact(trace_pairing_matrix(p, q)) == det_p_closed_form(p)
    # obstruction polynomial root classes across the three ranges
    d1_samples = [(5, 1), (9, 2), (13, 3), (25, 4), (7, 1), (11, 2), (-1, 1),
                  (-3, 2), (-7, 3), (-9, 4), (-5, 1), (-11, 3), (1, 1), (3, 2),
                  (5, 2), (7, 2), (1, 4), (11, 3), (3, 4), (13, 4)]
    for p, q in d1_samples:
        cohomology.d1_classification(p, q)
    # d2 avoidance on samples: gcd(res, d2) = 1 modulo 2^61 - 1, or it raises
    d2_samples = [(5, 1), (-1, 1), (7, 2), (-5, 3)]
    for p, q in d2_samples:
        cohomology.d2_check(p, q)
    _ok(9, "ranks 3/5 and det P exact in s and r, d1 classes on 20 samples, "
           f"d2 coprime to res on {len(d2_samples)} samples")


def test_criterion_10_scope_behavior(capsys):
    assert main(["norm", "2", "1"]) == 3
    out = capsys.readouterr()
    assert out.out == ""  # nothing but the stderr message
    assert main(["norm", "3", "1"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    for p, q in [(0, 1), (4, 1)]:
        r = build_res(p, q)
        assert r.is_degenerate  # a unit: no non-zero roots
        assert len(nontrivial_roots(resultant_roots(p, q))) == 0
        assert main(["verify", str(p), str(q), "--suite", "preps"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suites"][0]["status"] == "skipped"
    _ok(10, "exit 3 with no partial output for p even and slope 3; "
            "degenerate fillings have unit polynomial and zero irreducible classes")
