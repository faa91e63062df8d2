"""Machine-checkable verification suites: each suite re-derives one slice
of the closed-form results for a concrete (p, q).  A suite returns its pass
details.  When p/q is outside its scope it lets through the ScopeError of
the layer that owns the fact; when a check fails it raises
VerificationFailure or lets the raiser's WhitenormError through.
run_verify alone turns these into pass / fail / skipped."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cohomology, reps, respq, seminorm
from .errors import ScopeError, ValidationError, VerificationFailure, WhitenormError
from .roots import classify, resultant_roots
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


def suite_resultant(p: int, q: int) -> str:
    """Sylvester determinant vs closed form, palindromicity, monic lead."""
    poly = respq.build_res(p, q).poly
    if not poly.substitute_inv().unit_equal(poly):
        raise VerificationFailure("not inversion-symmetric")
    if poly.span and poly[poly.maxdeg] != 1:
        raise VerificationFailure("not monic after normalization")
    expected_span = 0 if p in (0, 4 * q) else 2 * max(abs(p - 2 * q), 2 * q)
    if poly.span != expected_span:
        raise VerificationFailure(f"span {poly.span} != {expected_span}")
    return f"span {poly.span}, oracle == closed form under convention '{respq.Y_CONVENTION}'"


def suite_symmetries(p: int, q: int) -> str:
    """Trivial-root orders and the four symmetry identities."""
    r = respq.build_res(p, q)
    orders = r.trivial_orders
    negation_invariant = respq.check_symmetries(r)
    return (
        f"orders(+1,-1)={orders}, inversion/parity/mirror identities exact "
        f"(s->-s invariant: {negation_invariant})"
    )


def suite_roots(p: int, q: int) -> str:
    """Symmetry classes and circle gap of the certified roots.  Neither the
    count nor the discs need a check here: the root solve returns only
    discs it proved pairwise disjoint, one simple root each, and the exact
    +-1 split, the squarefree test and those discs fix the count at
    nontrivial_root_bound, which refuses p/q in {0, 4} before the solve."""
    bound = respq.nontrivial_root_bound(p, q)
    rep = classify(resultant_roots(p, q), p, q)
    return (
        f"{rep.n_nontrivial}/{bound} non-trivial roots, {rep.real_count} real, "
        f"{rep.imaginary_count} imaginary, circle gap {rep.min_unit_circle_gap:.2e}"
    )


def suite_preps(p: int, q: int) -> str:
    """Reconstruct one representation per class (reps checks every
    residual and the number of classes) and report the worst residual and
    the faithful points' filling defect.  count_prep_classes refuses p/q
    in {0, 4}."""
    classes = reps.all_prep_classes(p, q)
    reducible = sum(pr.kind == "reducible" for pr in classes)
    worst = max(v for pr in classes for v in pr.residuals.values())
    # the faithful points s, u = +-1 of the unfilled exterior: with
    # U(x) = [[1, x], [0, 1]], m0 = s U(-u + is) and l0 = -U(4u), so
    # m0^p l0^q = s^p (-1)^q U(u(4q - p) + ips).  Its corner, at least
    # 2 sqrt(2) q, outweighs the diagonal's gap of 0 or 2 from I, so it is
    # the filling defect at all four points: none fills
    defect = abs(complex(4 * q - p, p))
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
    """Coboundary and presentation ranks, determinant closed form, d1/d2.
    The ranks and det P are identities in s and p/q (see cohomology): rank
    3 wherever s^2 != 1, rank 5 wherever also p != 0, and det P equal to its
    closed form everywhere.  So they hold at every class without solving
    for it: a non-trivial root of res is off +-1 by the exact split, and so
    is a reducible class's s = e^(2 pi i k/|p|), 1 <= k <= (|p| - 1)/2.
    No root is solved."""
    checks = []
    r = respq.build_res(p, q)
    if not r.is_degenerate and respq.nontrivial_root_bound(p, q) > 0:
        checks.append("coboundary rank 3 (irreducible)")
    if abs(p) >= 3:
        checks.append("presentation rank 5, det P matches closed form")
    if not r.is_degenerate:
        checks.append(f"d1 roots all {cohomology.d1_classification(p, q)}")
        cohomology.d2_check(p, q)
        checks.append("gcd(res, d2) = 1 mod 2^61 - 1")
    return "; ".join(checks) or "no check applies at p = 0"


_SUITE_FUNCS = {
    "resultant": suite_resultant,
    "symmetries": suite_symmetries,
    "roots": suite_roots,
    "preps": suite_preps,
    "seifert": suite_seifert,
    "linear": suite_linear,
    "cohomology": suite_cohomology,
}


def select_suites(names: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    """The suites named, once each in the order given; every suite if the
    names are none or include "all".  Any other name raises
    ValidationError, "all" or not."""
    for name in names:
        if name not in SUITES and name != "all":
            raise ValidationError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    return SUITES if not names or "all" in names else tuple(dict.fromkeys(names))


def run_verify(p: int, q: int, suites: list[str] | tuple[str, ...]) -> VerificationReport:
    """Run the suites named (select_suites, which checks every name before
    any suite runs) on p/q.  A suite that returns passes with its details;
    one that raises ScopeError (out of its scope: p/q in {0, 4} for the root
    suites, p even or slope 3 for the seminorm suites) is skipped with the
    message; one that raises any other WhitenormError fails with it."""
    validate_filling(p, q)
    results = []
    for name in select_suites(suites):
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
