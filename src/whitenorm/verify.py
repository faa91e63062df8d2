"""Machine-checkable verification suites: each suite re-derives one slice
of the closed-form results for a concrete (p, q) and reports pass / fail /
skipped(scope)."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from . import cohomology, reps, respq, seminorm
from .config import TOL
from .errors import ScopeError, ValidationError, WhitenormError
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


def suite_resultant(p: int, q: int) -> SuiteResult:
    """Sylvester determinant vs closed form, palindromicity, monic lead."""
    poly = respq.build_res(p, q).poly
    if not poly.substitute_inv().unit_equal(poly):
        return SuiteResult("resultant", p, q, "fail", "not inversion-symmetric")
    if poly.span and poly[poly.maxdeg] != 1:
        return SuiteResult("resultant", p, q, "fail", "not monic after normalization")
    expected_span = 0 if _degenerate(p, q) else 2 * max(abs(p - 2 * q), 2 * q)
    if poly.span != expected_span:
        return SuiteResult("resultant", p, q, "fail", f"span {poly.span} != {expected_span}")
    return SuiteResult(
        "resultant", p, q, "pass",
        f"span {poly.span}, oracle == closed form under convention '{respq.Y_CONVENTION}'",
    )


def suite_symmetries(p: int, q: int) -> SuiteResult:
    """Trivial-root orders and the four symmetry identities."""
    r = respq.build_res(p, q)
    if r.is_degenerate:
        return SuiteResult("symmetries", p, q, "skipped", "degenerate constant, no roots")
    orders = respq.trivial_root_orders(r)
    negation_invariant = respq.check_symmetries(r)
    return SuiteResult(
        "symmetries", p, q, "pass",
        f"orders(+1,-1)={orders}, inversion/parity/mirror identities exact "
        f"(s->-s invariant: {negation_invariant})",
    )


def suite_roots(p: int, q: int) -> SuiteResult:
    """Disjoint inclusion discs, symmetry classes, separation, circle gap.
    The count needs no check here: the exact +-1 split, the squarefree test
    and the disjoint discs fix it at nontrivial_root_bound."""
    if _degenerate(p, q):
        return SuiteResult("roots", p, q, "skipped", "degenerate constant, no roots")
    rs = resultant_roots(p, q)
    met = rs.disc_overlaps()
    if met:
        i, j = met[0]
        return SuiteResult(
            "roots", p, q, "fail",
            f"inclusion discs about {rs.values[i]} and {rs.values[j]} overlap",
        )
    rep = classify(rs, p, q)
    if p % 2 == 1 and rep.min_separation <= TOL.separation:
        return SuiteResult("roots", p, q, "fail", f"separation {rep.min_separation:.2e}")
    bound = respq.nontrivial_root_bound(p, q)
    return SuiteResult(
        "roots", p, q, "pass",
        f"{rep.n_nontrivial}/{bound} non-trivial roots, {rep.real_count} real, "
        f"{rep.imaginary_count} imaginary, circle gap {rep.min_unit_circle_gap:.2e}",
    )


def suite_preps(p: int, q: int) -> SuiteResult:
    """Reconstruct one representation per class (reps checks every
    residual) and report the worst residual."""
    if _degenerate(p, q):
        return SuiteResult(
            "preps", p, q, "skipped",
            "characterization polynomial is a unit: no irreducible classes",
        )
    count = reps.count_prep_classes(p, q)
    classes = reps.all_prep_classes(p, q)
    if len(classes) != count.total:
        return SuiteResult(
            "preps", p, q, "fail", f"built {len(classes)} classes, counted {count.total}"
        )
    worst: dict[str, float] = {}
    for pr in classes:
        for k, v in pr.residuals.items():
            worst[k] = max(worst.get(k, 0.0), v)
    defect = min(
        reps.discrete_faithful_filling_defect(p, q, s, u) for s in (1, -1) for u in (1, -1)
    )
    if defect <= TOL.faithful_defect:
        return SuiteResult("preps", p, q, "fail", f"faithful point fills to {defect:.2e}")
    detail = (
        f"{count.reducible} reducible + {count.irreducible} irreducible classes"
        f", worst residual {max(worst.values()):.1e}, faithful defect {defect:.1e}"
    )
    # the minimal norm has its closed form for p odd off slope 3
    if p % 2 == 1 and p != 3 * q:
        s_min = seminorm.seminorm_profile(p, q).s_min
        if s_min != count.total:
            return SuiteResult(
                "preps", p, q, "fail", f"minimal norm {s_min} != class count {count.total}"
            )
        detail += f", classes == minimal norm {s_min}"
    return SuiteResult("preps", p, q, "pass", detail)


def suite_seifert(p: int, q: int) -> SuiteResult:
    """Seifert norms from three independent routes: the closed form, the
    distances, and the character counts (which raise unless ||sigma|| =
    s + 2A)."""
    prof = seminorm.seminorm_profile(p, q)
    norms = seminorm.seifert_norms(p, q)
    for sigma, gamma in ((1, Slope(1, 1)), (2, Slope(2, 1)), (3, Slope(3, 1))):
        via_profile = seminorm.evaluate_norm(prof, gamma)
        if via_profile != norms[sigma - 1]:
            return SuiteResult(
                "seifert", p, q, "fail",
                f"||{sigma}|| = {via_profile} by distances, {norms[sigma - 1]} closed form",
            )
        seminorm.seifert_character_counts(p, q, sigma)
    if seminorm.evaluate_norm(prof, INFINITY) != prof.s_min:
        return SuiteResult("seifert", p, q, "fail", "norm of the meridian != minimal norm")
    return SuiteResult(
        "seifert", p, q, "pass",
        f"norms {norms} match distances and character counts; ||mu|| = {prof.s_min}",
    )


def suite_linear(p: int, q: int) -> SuiteResult:
    """Exact reconstruction of the coefficients from the norm system."""
    res = seminorm.solve_linear_system(p, q)
    extra = f" via {res.reduction_used}" if res.reduction_used else ""
    return SuiteResult(
        "linear", p, q, "pass",
        f"rank {res.rank}, z = {res.z} (candidates {list(res.z_candidates)}){extra}, "
        f"a = {res.a}, s = {res.s_min}",
    )


def suite_cohomology(p: int, q: int) -> SuiteResult:
    """Coboundary and presentation ranks, determinant closed form, d1/d2."""
    checks = []
    if not _degenerate(p, q):
        rs = nontrivial_roots(resultant_roots(p, q))
        if rs.values:
            s0 = max(rs.values, key=abs)
            pr = reps.reconstruct_prep(s0, 1, p, q)
            sd, a, _ = reps.prep_to_partially_diagonal(pr)
            rk = cohomology.coboundary_matrix(sd, a).rank()
            if rk != 3:
                return SuiteResult("cohomology", p, q, "fail", f"coboundary rank {rk} != 3")
            checks.append("coboundary rank 3 (irreducible)")
    rk_red = cohomology.coboundary_matrix(cmath.exp(0.821j), 1.0).rank()
    if rk_red != 3:
        return SuiteResult("cohomology", p, q, "fail", f"reducible coboundary rank {rk_red}")
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
        gap = cohomology.d2_check(p, q)
        checks.append(f"d2 root gap {gap:.2e}")
    return SuiteResult("cohomology", p, q, "pass", "; ".join(checks))


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
    """Run the named suites on p/q.  A suite that raises ScopeError (the
    seminorm suites, for p even or slope 3) is skipped with its message; one
    that raises any other WhitenormError fails with it."""
    validate_filling(p, q)
    results = []
    for name in suites:
        if name not in _SUITE_FUNCS:
            raise ValidationError(f"unknown suite {name!r}; choose from {SUITES}")
        try:
            results.append(_SUITE_FUNCS[name](p, q))
        except ScopeError as exc:
            results.append(SuiteResult(name, p, q, "skipped", str(exc)))
        except WhitenormError as exc:
            results.append(SuiteResult(name, p, q, "fail", f"{type(exc).__name__}: {exc}"))
    summary = {
        "pass": sum(r.status == "pass" for r in results),
        "fail": sum(r.status == "fail" for r in results),
        "skipped": sum(r.status == "skipped" for r in results),
    }
    return VerificationReport(p, q, tuple(results), summary)
