"""Machine-checkable verification suites: each suite re-derives one slice
of the closed-form results for a concrete (p, q).  A suite returns its pass
details, raises ScopeError when p/q is outside its scope, and raises
VerificationFailure, or lets the raiser's WhitenormError through, when a
check fails; run_verify alone turns these into pass / fail / skipped."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from . import cohomology, reps, respq, seminorm
from .config import TOL
from .errors import ScopeError, ValidationError, VerificationFailure, WhitenormError
from .roots import classify, nontrivial_roots, resultant_roots
from .slopes import INFINITY, Slope, validate_filling

SUITES = ("resultant", "symmetries", "roots", "preps", "seifert", "linear", "cohomology")


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    p: int
    q: int
    status: str  # "pass" | "fail" | "skipped"
    details: str


@dataclass(frozen=True)
class VerificationReport:
    p: int
    q: int
    results: tuple[SuiteResult, ...]
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)


def _degenerate(p: int, q: int) -> bool:
    return p == 0 or p == 4 * q


def suite_resultant(p: int, q: int) -> str:
    """Sylvester determinant vs closed form, palindromicity, monic lead."""
    poly = respq.build_res(p, q).poly
    if not poly.substitute_inv().unit_equal(poly):
        raise VerificationFailure("not inversion-symmetric")
    if poly.span and poly[poly.maxdeg] != 1:
        raise VerificationFailure("not monic after normalization")
    expected_span = 0 if _degenerate(p, q) else 2 * max(abs(p - 2 * q), 2 * q)
    if poly.span != expected_span:
        raise VerificationFailure(f"span {poly.span} != {expected_span}")
    return f"span {poly.span}, oracle == closed form under convention '{respq.Y_CONVENTION}'"


def suite_symmetries(p: int, q: int) -> str:
    """Trivial-root orders and the four symmetry identities."""
    r = respq.build_res(p, q)
    if r.is_degenerate:
        raise ScopeError("degenerate constant, no roots")
    orders = r.trivial_orders
    negation_invariant = respq.check_symmetries(r)
    return (
        f"orders(+1,-1)={orders}, inversion/parity/mirror identities exact "
        f"(s->-s invariant: {negation_invariant})"
    )


def suite_roots(p: int, q: int) -> str:
    """Disjoint inclusion discs, symmetry classes, circle gap.  The count
    needs no check here: the exact +-1 split, the squarefree test and the
    disjoint discs fix it at nontrivial_root_bound.  Nor does the distance
    between roots: disjoint discs, one simple root each, already prove the
    roots distinct."""
    if _degenerate(p, q):
        raise ScopeError("degenerate constant, no roots")
    rs = resultant_roots(p, q)
    met = rs.disc_overlaps()
    if met:
        i, j = met[0]
        raise VerificationFailure(f"inclusion discs about {rs.values[i]} and {rs.values[j]} overlap")
    rep = classify(rs, p, q)
    bound = respq.nontrivial_root_bound(p, q)
    return (
        f"{rep.n_nontrivial}/{bound} non-trivial roots, {rep.real_count} real, "
        f"{rep.imaginary_count} imaginary, circle gap {rep.min_unit_circle_gap:.2e}"
    )


def suite_preps(p: int, q: int) -> str:
    """Reconstruct one representation per class (reps checks every
    residual and the number of classes) and report the worst residual."""
    if _degenerate(p, q):
        raise ScopeError("characterization polynomial is a unit: no irreducible classes")
    classes = reps.all_prep_classes(p, q)
    reducible = sum(pr.kind == "reducible" for pr in classes)
    worst = max(v for pr in classes for v in pr.residuals.values())
    defect = min(
        reps.discrete_faithful_filling_defect(p, q, s, u) for s in (1, -1) for u in (1, -1)
    )
    if defect <= TOL.faithful_defect:
        raise VerificationFailure(f"faithful point fills to {defect:.2e}")
    detail = (
        f"{reducible} reducible + {len(classes) - reducible} irreducible classes"
        f", worst residual {worst:.1e}, faithful defect {defect:.1e}"
    )
    # the minimal norm has its closed form for p odd off slope 3
    try:
        s_min = seminorm.seminorm_profile(p, q).s_min
    except ScopeError:
        return detail
    if s_min != len(classes):
        raise VerificationFailure(f"minimal norm {s_min} != class count {len(classes)}")
    return f"{detail}, classes == minimal norm {s_min}"


def suite_seifert(p: int, q: int) -> str:
    """Seifert norms from three independent routes: the closed form, the
    distances, and the character counts (which raise unless ||sigma|| =
    s + 2A)."""
    prof = seminorm.seminorm_profile(p, q)
    for sigma, gamma in ((1, Slope(1, 1)), (2, Slope(2, 1)), (3, Slope(3, 1))):
        via_profile = seminorm.evaluate_norm(prof, gamma)
        if via_profile != prof.seifert[sigma - 1]:
            raise VerificationFailure(
                f"||{sigma}|| = {via_profile} by distances, {prof.seifert[sigma - 1]} closed form"
            )
        seminorm.seifert_character_counts(prof, sigma)
    if seminorm.evaluate_norm(prof, INFINITY) != prof.s_min:
        raise VerificationFailure("norm of the meridian != minimal norm")
    return f"norms {prof.seifert} match distances and character counts; ||mu|| = {prof.s_min}"


def suite_linear(p: int, q: int) -> str:
    """Exact reconstruction of the coefficients from the norm system."""
    res = seminorm.solve_linear_system(seminorm.seminorm_profile(p, q))
    extra = f" via {res.reduction_used}" if res.reduction_used else ""
    return (
        f"rank {res.rank}, z = {res.z} (candidates {list(res.z_candidates)}){extra}, "
        f"a = {res.a}, s = {res.s_min}"
    )


def suite_cohomology(p: int, q: int) -> str:
    """Coboundary and presentation ranks, determinant closed form, d1/d2."""
    checks = []
    if not _degenerate(p, q):
        rs = nontrivial_roots(resultant_roots(p, q))
        if rs.values:
            s0 = max(rs.values, key=abs)
            pr = reps.reconstruct_prep(s0, 1, p, q)
            sd, a, _ = reps.prep_to_partially_diagonal(pr)
            rk = cohomology.rank(cohomology.coboundary_matrix(sd, a))
            if rk != 3:
                raise VerificationFailure(f"coboundary rank {rk} != 3")
            checks.append("coboundary rank 3 (irreducible)")
    rk_red = cohomology.rank(cohomology.coboundary_matrix(cmath.exp(0.821j), 1.0))
    if rk_red != 3:
        raise VerificationFailure(f"reducible coboundary rank {rk_red}")
    checks.append("coboundary rank 3 (reducible)")
    if abs(p) >= 3:
        s_unit = cmath.exp(2j * cmath.pi / abs(p))
        cohomology.reducible_presentation_matrix(s_unit, p, q)
        cohomology.det_P_reducible(s_unit, p, q)
        checks.append("presentation rank 5, det P matches closed form")
    if p * (p - 4 * q) != 0:
        cls = cohomology.d1_classification(p, q)
        checks.append(f"d1 roots all {cls}")
    if not _degenerate(p, q):
        cohomology.d2_check(p, q)
        checks.append("gcd(res, d2) = 1 mod 2^61 - 1")
    return "; ".join(checks)


_SUITE_FUNCS = {
    "resultant": suite_resultant,
    "symmetries": suite_symmetries,
    "roots": suite_roots,
    "preps": suite_preps,
    "seifert": suite_seifert,
    "linear": suite_linear,
    "cohomology": suite_cohomology,
}


def run_verify(p: int, q: int, suites: tuple[str, ...]) -> VerificationReport:
    """Run the named suites on p/q.  A suite that returns passes with its
    details; one that raises ScopeError (out of its scope: p/q in {0, 4} for
    the root suites, p even or slope 3 for the seminorm suites) is skipped
    with the message; one that raises any other WhitenormError fails with
    it."""
    validate_filling(p, q)
    results = []
    for name in suites:
        if name not in _SUITE_FUNCS:
            raise ValidationError(f"unknown suite {name!r}; choose from {SUITES}")
        try:
            status, details = "pass", _SUITE_FUNCS[name](p, q)
        except ScopeError as exc:
            status, details = "skipped", str(exc)
        except WhitenormError as exc:
            status, details = "fail", f"{type(exc).__name__}: {exc}"
        results.append(SuiteResult(name, p, q, status, details))
    summary = {
        "pass": sum(r.status == "pass" for r in results),
        "fail": sum(r.status == "fail" for r in results),
        "skipped": sum(r.status == "skipped" for r in results),
    }
    return VerificationReport(p, q, tuple(results), summary)
