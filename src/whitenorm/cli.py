"""Command-line front end.

Subcommands: norm, respq, roots, preps, verify, sweep.
Exit codes: 0 success, 1 argument/validation error, 2 verification failure,
3 scope exclusion (p even or slope 3), 4 I/O error.

Output is deterministic byte-for-byte: fixed JSON key order, no randomness
in any numeric path.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import reps, seminorm
from .cxhp import HPMat, hp_float
from .errors import ScopeError, ValidationError, WhitenormError
from .respq import Y_CONVENTION, build_res
from .roots import resultant_roots
from .slopes import INFINITY, Slope, validate_filling
from .verify import SUITES, run_verify


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _c(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _trace(m: HPMat, bits: int) -> dict:
    """The trace of a fixed-point 2x2 matrix: its diagonal entries' doubles,
    summed."""
    return _c(hp_float(m[0:2], bits) + hp_float(m[6:8], bits))


def cmd_norm(args) -> int:
    prof = seminorm.seminorm_profile(args.p, args.q)
    payload = {
        "schema": 1,
        "p": args.p,
        "q": args.q,
        "range": prof.range_tag.value,
        "beta": [str(b) for b in prof.betas],
        "a": list(prof.a),
        "s_min": prof.s_min,
    }
    if args.slope is not None:
        gamma = Slope.parse(args.slope)
        payload["slope"] = str(gamma)
        payload["norm_value"] = seminorm.evaluate_norm(prof, gamma)
    _emit(payload)
    return 0


def cmd_respq(args) -> int:
    r = build_res(args.p, args.q)
    if args.format == "text":
        print(f"res[{args.p}/{args.q}] = {r.poly.pretty()}")
        print(f"span {r.span}; convention {Y_CONVENTION}; degenerate {r.is_degenerate}")
        return 0
    _emit(
        {
            "schema": 1,
            "p": args.p,
            "q": args.q,
            "span": r.span,
            "degenerate": r.is_degenerate,
            "y_convention": Y_CONVENTION,
            "coefficients": r.poly.to_json_coeffs(),
        }
    )
    return 0


def cmd_roots(args) -> int:
    rs = resultant_roots(args.p, args.q)
    payload = {
        "schema": 1,
        "p": args.p,
        "q": args.q,
        "span": rs.span,
        "roots": [
            {
                "re": r.value.real,
                "im": r.value.imag,
                "multiplicity": r.multiplicity,
                "flags": {
                    "trivial_pm1": r.flags.trivial_pm1,
                    "real": r.flags.real,
                    "imaginary": r.flags.imaginary,
                    "unit_circle": r.flags.unit_circle,
                },
            }
            for r in rs
        ],
    }
    if args.plot_csv:
        with open(args.plot_csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("re,im\n")
            for r in rs:
                fh.write(f"{r.value.real!r},{r.value.imag!r}\n")
    _emit(payload)
    return 0


def cmd_preps(args) -> int:
    classes = reps.all_prep_classes(args.p, args.q)
    reducible = sum(pr.kind == "reducible" for pr in classes)
    payload = {
        "schema": 1,
        "p": args.p,
        "q": args.q,
        "reducible": reducible,
        "irreducible": len(classes) - reducible,
        "total": len(classes),
        "classes": [
            {
                "s": _c(pr.eigen.s),
                "t": _c(pr.eigen.t),
                "u": pr.sign_u,
                "kind": pr.kind,
                "residuals": {k: v for k, v in sorted(pr.residuals.items())},
                "trace_mu0": _trace(pr.m0, pr.bits),
                "trace_lambda0": _trace(pr.l0, pr.bits),
            }
            for pr in classes
        ],
    }
    _emit(payload)
    return 0


def _parse_suites(items: list[str]) -> tuple[str, ...]:
    names: list[str] = []
    for item in items:
        names.extend(x.strip() for x in item.split(",") if x.strip())
    for n in names:
        if n not in SUITES and n != "all":
            raise ValidationError(f"unknown suite {n!r}; choose from {', '.join(SUITES)} or all")
    if not names or "all" in names:
        return SUITES
    return tuple(dict.fromkeys(names))


def cmd_verify(args) -> int:
    report = run_verify(args.p, args.q, _parse_suites(args.suite))
    _emit(
        {
            "schema": 1,
            "p": args.p,
            "q": args.q,
            "suites": [
                {"suite": r.suite, "status": r.status, "details": r.details}
                for r in report.results
            ],
            "summary": report.summary,
        }
    )
    return 0 if report.ok else 2


def cmd_sweep(args) -> int:
    suites = _parse_suites(args.suite)
    header = [
        "p", "q", "range", "beta1", "beta2", "beta3",
        "a1", "a2", "a3", "s_min", "norm_inf", "seifert1", "seifert2", "seifert3",
    ] + [f"suite_{s}" for s in suites]
    rows = [header]
    for q in range(1, args.q_max + 1):
        for p in range(args.p_min, args.p_max + 1):
            if p % 2 == 0 or math.gcd(abs(p), q) != 1:
                continue
            report = run_verify(p, q, suites)
            status = [r.status for r in report.results]
            # slope 3 is outside the seminorm's closed forms: its columns
            # stay blank, and its suites run like any other filling's
            if p == 3 * q:
                rows.append([p, q, "3"] + [""] * 11 + status)
                continue
            prof = seminorm.seminorm_profile(p, q)
            rows.append(
                [p, q, prof.range_tag.value]
                + [str(b) for b in prof.betas]
                + list(prof.a)
                + [prof.s_min, seminorm.evaluate_norm(prof, INFINITY)]
                + list(prof.seifert)
                + status
            )
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {len(rows) - 1} rows to {args.out}")
    return 0


def _add_pq(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("p", type=int, help="filling numerator")
    parser.add_argument("q", type=int, help="filling denominator (q > 0)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="whitenorm",
        description="Culler-Shalen seminorms and parabolic representations "
        "of Dehn fillings of the Whitehead link exterior",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="seminorm coefficients and minimal norm")
    _add_pq(p_norm)
    p_norm.add_argument("--slope", default=None, help='evaluate the norm of a slope "a/b" or "inf"')
    p_norm.set_defaults(func=cmd_norm)

    p_res = sub.add_parser("respq", help="the parabolic characterization polynomial")
    _add_pq(p_res)
    p_res.add_argument("--format", choices=("json", "text"), default="json")
    p_res.set_defaults(func=cmd_respq)

    p_roots = sub.add_parser("roots", help="roots of the characterization polynomial")
    _add_pq(p_roots)
    p_roots.add_argument("--plot-csv", default=None, help="write re,im scatter data here")
    p_roots.set_defaults(func=cmd_roots)

    p_preps = sub.add_parser("preps", help="reconstructed parabolic representations")
    _add_pq(p_preps)
    p_preps.set_defaults(func=cmd_preps)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_pq(p_verify)
    p_verify.add_argument("--suite", action="append", default=[],
                          help=f"comma list from {', '.join(SUITES)}; default all")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="CSV over a (p, q) range (p odd)")
    p_sweep.add_argument("--p-min", type=int, required=True)
    p_sweep.add_argument("--p-max", type=int, required=True)
    p_sweep.add_argument("--q-max", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--suite", action="append", default=[],
                         help="suites to run per cell; default all")
    p_sweep.set_defaults(func=cmd_sweep)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value that starts with "-" for an option unless it is
    # a plain number, so "--slope -2/5" and "--slope -inf" would lose theirs;
    # norm's one option also answers to its abbreviations "--s" and up
    if argv[:1] == ["norm"]:
        for i in reversed(range(len(argv) - 1)):
            if len(argv[i]) >= 3 and "--slope".startswith(argv[i]):
                argv[i:i + 2] = [f"--slope={argv[i + 1]}"]
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if "p" in vars(args):
            validate_filling(args.p, args.q)
        return args.func(args)
    except ScopeError as exc:
        print(f"scope: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except WhitenormError as exc:
        print(f"verification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
