import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from whitenorm.cli import main
from whitenorm.errors import (
    ConvergenceFailure,
    CountMismatch,
    ScopeError,
    ValidationError,
    VerificationFailure,
)
from whitenorm.roots import resultant_roots
from whitenorm.verify import SUITES, run_verify

DIGESTS = Path(__file__).resolve().parents[1] / "benchmark" / "digests.json"
# the benchmark's exact-sweep workload: 164 rows, q <= 20
EXACT_SWEEP = "sweep --p-min -9 --p-max 9 --q-max 20 --suite resultant,symmetries,seifert,linear"


def test_run_verify_all_pass():
    report = run_verify(-1, 1, SUITES)
    assert report.ok
    assert report.summary == {"pass": 7, "fail": 0, "skipped": 0}


def test_run_verify_scope_skips():
    report = run_verify(4, 1, ("preps", "seifert", "linear"))
    statuses = {r.suite: r.status for r in report.results}
    assert statuses == {"preps": "skipped", "seifert": "skipped", "linear": "skipped"}
    assert "unit" in next(r.details for r in report.results if r.suite == "preps")
    assert report.ok


def test_seminorm_suites_derive_one_profile_each(monkeypatch):
    import whitenorm.seminorm as seminorm_mod

    calls = []
    require = seminorm_mod._require_scope

    def counting(p, q):
        calls.append((p, q))
        return require(p, q)

    # each suite reads one profile and passes it down to the character
    # counts and the linear system; the two suites share the cached one
    monkeypatch.setattr(seminorm_mod, "_require_scope", counting)
    seminorm_mod.seminorm_profile.cache_clear()
    report = run_verify(5, 1, ("seifert", "linear"))
    assert report.summary == {"pass": 2, "fail": 0, "skipped": 0}
    assert calls == [(5, 1)]


def test_run_verify_p_even_partial():
    report = run_verify(2, 1, SUITES)
    statuses = {r.suite: r.status for r in report.results}
    assert statuses["seifert"] == "skipped" and statuses["linear"] == "skipped"
    assert statuses["resultant"] == "pass" and statuses["roots"] == "pass"
    assert report.ok


def test_run_verify_rejects_bad_input():
    with pytest.raises(ValidationError):
        run_verify(6, 2, ("resultant",))
    with pytest.raises(ValidationError):
        run_verify(1, 1, ("nonsense",))


def test_cli_norm(capsys):
    assert main(["norm", "-1", "1", "--slope", "inf"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["a"] == [2, 2, 0]
    assert payload["s_min"] == 4
    assert payload["norm_value"] == 4
    assert payload["beta"] == ["4/1", "-4/1", "0/1"]


def test_cli_norm_negative_slope_after_space(capsys):
    # argparse alone reads "-2/5" and "-inf" as options, not as --slope's value
    def norm(*slope):
        assert main(["norm", "-5", "3", *slope]) == 0
        return capsys.readouterr().out

    assert norm("--slope", "-2/5") == norm("--slope=-2/5") == norm("--slo", "-2/5")
    assert norm("--slope", "-inf") == norm("--slope", "inf")
    # only norm's abbreviations are joined: "--s" of verify is its --suite
    assert main(["verify", "5", "1", "--s", "roots"]) == 0
    assert [s["suite"] for s in json.loads(capsys.readouterr().out)["suites"]] == ["roots"]


def test_cli_norm_says_why_it_refuses_a_slope(capsys):
    for slope in ("2/4", "2/0"):
        assert main(["norm", "5", "1", "--slope", slope]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "not primitive" in err, err


def test_preps_counts_classes_once(monkeypatch, capsys):
    import whitenorm.reps as reps_mod

    calls = []
    count = reps_mod.count_prep_classes

    def spy(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)

    monkeypatch.setattr(reps_mod, "count_prep_classes", spy)
    assert main(["preps", "5", "1"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert run_verify(5, 1, ("preps",)).ok
    assert len(calls) == 1


def test_cli_exit_codes(capsys):
    assert main(["norm", "2", "1"]) == 3      # p even: scope
    out, err = capsys.readouterr()
    assert out == ""                          # no partial output
    assert err == "scope: p even: outside the closed forms\n"
    assert main(["norm", "3", "1"]) == 3      # slope 3: scope
    assert capsys.readouterr().err == "scope: slope 3: outside the closed forms\n"
    assert main(["norm", "6", "2"]) == 1      # not coprime
    capsys.readouterr()
    assert main(["roots", "1", "0"]) == 1     # q = 0 is no filling
    assert main(["respq", "1", "0"]) == 1
    assert capsys.readouterr().out == ""
    assert main(["sweep", "--p-min", "1", "--p-max", "1", "--q-max", "1",
                 "--out", "/nonexistent/dir/x.csv"]) == 4
    capsys.readouterr()


def test_cli_respq(capsys):
    assert main(["respq", "-1", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"] == {"0": "1", "1": "-1", "3": "4", "5": "-1", "6": "1"}
    assert payload["span"] == 6
    assert not payload["degenerate"]
    assert main(["respq", "4", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate"] and payload["span"] == 0


def test_cli_roots_and_plot_csv(tmp_path, capsys):
    out = tmp_path / "roots.csv"
    assert main(["roots", "2", "1", "--plot-csv", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["span"] == 4
    assert len(payload["roots"]) == 4
    assert all(r["flags"]["real"] for r in payload["roots"])
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im" and len(lines) == 5


def test_cli_preps(capsys):
    assert main(["preps", "1", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 2
    assert all(c["kind"] == "irreducible" for c in payload["classes"])
    worst = max(max(c["residuals"].values()) for c in payload["classes"])
    assert worst <= 1e-8


def test_cli_verify_exit_zero(capsys):
    assert main(["verify", "-1", "1", "--suite", "resultant,symmetries,linear"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fail"] == 0
    assert {s["suite"] for s in payload["suites"]} == {"resultant", "symmetries", "linear"}


def test_cli_rejects_unknown_suite_next_to_all(capsys, tmp_path):
    # "all" selects every suite, but the other names are still checked
    assert main(["verify", "5", "1", "--suite", "bogus"]) == 1
    alone = capsys.readouterr()
    assert main(["verify", "5", "1", "--suite", "all,bogus"]) == 1
    assert capsys.readouterr() == alone
    assert alone.err.startswith("invalid input: unknown suite 'bogus'; choose from ")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--p-min", "1", "--p-max", "1", "--q-max", "1",
                 "--out", str(out), "--suite", "resultant,all,nope"]) == 1
    assert not out.exists()


def test_cli_verify_exit_two_on_failure(capsys, monkeypatch):
    import whitenorm.verify as verify_mod

    def broken(p, q):
        raise VerificationFailure("planted failure")

    monkeypatch.setitem(verify_mod._SUITE_FUNCS, "linear", broken)
    assert main(["verify", "-1", "1", "--suite", "linear"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fail"] == 1
    assert payload["suites"][0]["details"] == "VerificationFailure: planted failure"


def test_run_verify_builds_every_outcome(monkeypatch):
    import whitenorm.verify as verify_mod

    def out_of_scope(p, q):
        raise ScopeError("planted scope")

    # a suite returns its pass details and raises to skip or fail
    monkeypatch.setitem(verify_mod._SUITE_FUNCS, "resultant", lambda p, q: "planted pass")
    monkeypatch.setitem(verify_mod._SUITE_FUNCS, "symmetries", out_of_scope)
    report = run_verify(-1, 1, ("resultant", "symmetries"))
    assert [(r.status, r.details) for r in report.results] == [
        ("pass", "planted pass"), ("skipped", "planted scope"),
    ]
    assert report.summary == {"pass": 1, "fail": 0, "skipped": 1}

def test_cli_deterministic_output(capsys):
    assert main(["roots", "7", "2"]) == 0
    first = capsys.readouterr().out
    resultant_roots.cache_clear()  # solve again rather than print the cached set
    assert main(["roots", "7", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--p-min", "-3", "--p-max", "3", "--q-max", "2",
                 "--out", str(out), "--suite", "resultant,linear"])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 9  # header + 8 coprime odd-p cells
    assert lines[0].startswith("p,q,range,beta1")
    # the slope-3 cell appears with scope-skipped suites
    row31 = next(line for line in lines if line.startswith("3,1,"))
    assert "skipped" in row31
    # empty intersection gives a header-only file
    out2 = tmp_path / "empty.csv"
    assert main(["sweep", "--p-min", "5", "--p-max", "4", "--q-max", "1",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    header2 = out2.read_text().splitlines()
    assert len(header2) == 1 and header2[0].startswith("p,q,range")


_NUMPY_PROBE = """
import contextlib, io, sys
from whitenorm.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv

run("sweep", "--p-min", "-3", "--p-max", "3", "--q-max", "3",
    "--suite", "resultant,symmetries,seifert,linear", "--out", sys.argv[1])
run("respq", "5", "1")
run("norm", "-1", "1", "--slope", "inf")
assert "numpy" not in sys.modules, "the exact path loaded numpy"
run("roots", "5", "1")
assert "numpy" in sys.modules, "the root solve ran without numpy"
"""


def test_exact_path_loads_no_numpy(tmp_path):
    # a fresh interpreter: this test process has numpy loaded already
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(tmp_path / "sweep.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_one_root_solve_per_filling(capsys):
    resultant_roots.cache_clear()
    assert run_verify(5, 1, SUITES).ok
    assert resultant_roots.cache_info().misses == 1
    resultant_roots.cache_clear()
    assert main(["preps", "5", "1"]) == 0
    capsys.readouterr()
    assert resultant_roots.cache_info().misses == 1


def test_root_solve_failure_is_cached(monkeypatch):
    import whitenorm.roots as roots_mod

    calls = []

    def failing(orders, quotient):
        calls.append(quotient)
        raise ConvergenceFailure("planted failure")

    monkeypatch.setattr(roots_mod, "_solve_split", failing)
    resultant_roots.cache_clear()
    try:
        report = run_verify(5, 1, SUITES)
    finally:
        resultant_roots.cache_clear()  # drop the planted failure
    assert len(calls) == 1
    status = {r.suite: r.status for r in report.results}
    assert status["roots"] == status["preps"] == status["cohomology"] == "fail"


def test_exact_facts_once_per_filling(monkeypatch, tmp_path):
    # every suite reads res's +-1 split and squarefree test off its ResPoly:
    # one split_root per sign and one squarefree test per filling; the exact
    # suites of a sweep run no squarefree test at all
    import whitenorm.laurent as laurent
    from whitenorm import respq
    from whitenorm.laurent import LaurentPoly

    calls = []
    split_root, squarefree = LaurentPoly.split_root, laurent._squarefree
    monkeypatch.setattr(LaurentPoly, "split_root", lambda f, x: calls.append(x) or split_root(f, x))
    monkeypatch.setattr(laurent, "_squarefree", lambda c: calls.append("squarefree") or squarefree(c))
    for p, q in [(5, 1), (-5, 3), (65, 3), (65, 16)]:
        respq._split.cache_clear()
        respq._refusal.cache_clear()
        resultant_roots.cache_clear()
        calls.clear()
        assert run_verify(p, q, SUITES).ok
        assert calls == [1, -1, "squarefree"], (p, q)
    respq._split.cache_clear()
    respq._refusal.cache_clear()
    calls.clear()
    assert main([*EXACT_SWEEP.split(), "--out", str(tmp_path / "s.csv")]) == 0
    assert "squarefree" not in calls
    assert 0 < len(calls) <= 2 * 164


# stdout SHA-256 pinned here: of commands the benchmark does not run, and
# of those whose benchmark digest is stale
PREPS_DIGESTS = {
    "preps 5 1": "942628f493ed8b959e67b8f939e1b77f9b59ec7b2981aa4fcb9184157d45ff84",
    "preps -5 3": "c3d5887aeb3a9cb440b3468a366d0f82a0eac9070ea30cf0a6e4be2e1381347e",
    "preps 2 1": "80e8d26a0be8aa1b8ba40aba5fddd0d4feffb2168c976334621e86f049765a7c",
    "preps 8 1": "b629815b7439bac5f97d0746d9c512139dbe37f6ac344b4ddfa7382618f1e58b",
    "preps 7 2": "18e40fe7d73a1805ec86a6044a27a51d7705bcff6dc7999f7e58fe82b8b270ba",
    # every byte of the 64 reducible entries at |p| = 65
    "preps 65 3": "73a1d7f71a8e0cfcefe4848b5a5c0f9eeda8c6502a2514a7d828097653a894ba",
    "preps 65 16": "c1401ee6559a9e7377c9d6aca13a506db9695ecfa1f3e935afe5977680c50e77",
    # certified zero coordinates print as 0.0 (imaginary roots at 8/1,
    # real ones at 7/2)
    "roots 8 1": "fdf3c8c5b35e144f0d24b9d55545d19a22d6f0c24e544af774191042e726063d",
    "roots 7 2": "4cbf3b8b7fcf3a2238c90ee34d9fd83439d1641042687b1f6e61d702fe6b3efb",
    # benchmark/digests.json's entry predates the exact 0.0 imaginary parts
    # of this filling's two real roots and is stale until it is re-recorded
    "roots 65 23": "0b97e493e60064933aefd3b3531c7f5a36f9f80d740cf20f7ab9e70270c14e5b",
    # the y-convention of respq and of the resultant suite, and the s -> -s
    # flag of the symmetries suite, on odd, even and degenerate fillings
    "respq 5 1": "ebed83cde0c469dd046f05308fbbd9a49c155f74f7cead296a38d70f696b979e",
    "respq 5 1 --format text": "33b25f07b42f995d33743458530a3a9f8c29b0164021cc56bd0aa4fa5537aa80",
    "respq 4 1": "38c6cdb9552199501362cfdfc388db895e3226ef8d94fac3ce99eb1a684973ca",
    "verify 2 1 --suite all": "12d04cb195fc6dabff2fc2fc98d9e269ce9dc00e01fcf21dfa471104649be57f",
    "verify 3 1 --suite all": "fc3ca2aead3ec76a58063a4ca40cdea04c3ccf83100b069cea54a84695b334cd",
    "verify 4 1 --suite all": "a79076c68d02c410991a61596864149396aa76a366d8ee7415024028dbf938fb",
    # even-p fillings: their class count is checked against the closed form
    # and their roots are certified simple like those of odd p
    "verify 8 1 --suite all": "a5c519c4e09ab1fae3e28368fbf55b73b99ca3b910e37ccc97db31ce5bfa4519",
    "verify 12 5 --suite all": "28a5d5c1fd26c172e1dbfc57382db5658e33ae212ac5417dae1d6feb57e6f197",
    "verify 6 1 --suite all": "466a24db700813727359acf640441d6e33db6ea0945ef86e7294089365f28f11",
    # norm JSON on each open range of p/q: (0, 2), (2, 4), (4, inf), (-inf, 0)
    "norm 1 1 --slope 3": "9761390ec80aac4c21678e84033e37c91cb210fb1ce8d7ec9980f7526bb21b82",
    "norm 7 2 --slope inf": "24b1eb19d28ec21eec279e7daa13c77320f8ceac2c0535ce2e9ce8a1b660bc51",
    "norm 65 16 --slope 1/1": "1eccca2264d6e9e49e3fce0f1edea43260f4eb39b8b0abdfc92d2496a4193338",
    "norm -5 3 --slope=-2/5": "a9ea2b4ddb68e9ad76be9b3720d9ef765577ae892d50bc045887572619b1a73e",
    # benchmark/digests.json's verify-grid entries predate the residuals of
    # per-class precision and the exact d2 check's text, and are stale until
    # they are re-recorded
    "verify 5 1 --suite all": "43898d820020a34c652f52e925ab09c25962a7936549b89779b50b31a3e3d04b",
    "verify -5 3 --suite all": "3b8a8983bc9072bfc97865482d43a0d8392f9457a2993448ac9c8786108cfcf8",
    "verify 65 3 --suite all": "1db6c28d00a8f1a5eceb56b34c8bb9ee5b0bceeb08fffdf8d24dac767285142e",
    "verify 65 16 --suite all": "d2219c82a0c8ae2c0673d1c60610cdb87dd87ad158e74779de6c06c41296b80b",
}
# every other roots-grid command, checked against the benchmark's own
# digests
GRID_COMMANDS = ["roots 5 1", "roots -5 3", "roots 65 3", "roots 65 16", "roots 129 16"]


@pytest.mark.parametrize("command", [*GRID_COMMANDS, *PREPS_DIGESTS])
def test_cli_output_matches_benchmark_digest(command):
    expected = PREPS_DIGESTS.get(command) or json.loads(DIGESTS.read_text(encoding="utf-8"))[command]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == expected


def test_exact_sweep_csv_matches_benchmark_digest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main([*EXACT_SWEEP.split(), "--out", str(out)]) == 0
    capsys.readouterr()
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[EXACT_SWEEP]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_exact_sweep_eliminates_once_per_q(monkeypatch, tmp_path, capsys):
    # build_res checks every filling, mirrors included, against the Sylvester
    # determinant, and p enters it only as s^p: one elimination per q serves
    # them all, 20 where one per filling made 310
    import whitenorm.laurent as laurent
    from whitenorm import respq

    calls = []
    det_exact = laurent.det_exact
    monkeypatch.setattr(laurent, "det_exact", lambda m: calls.append(len(m)) or det_exact(m))
    respq.build_res.cache_clear()
    respq._bands.cache_clear()
    assert main([*EXACT_SWEEP.split(), "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    assert sorted(calls) == [q + 2 for q in range(1, 21)]


def test_exact_sweep_derives_each_profile_once(tmp_path, capsys):
    # the sweep row, the seifert suite and the linear suite share one profile
    from whitenorm.seminorm import seminorm_profile

    seminorm_profile.cache_clear()
    assert main([*EXACT_SWEEP.split(), "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    info = seminorm_profile.cache_info()
    assert (info.misses, info.hits) == (163, 2 * 163)


def test_certified_zero_coordinates_print_exactly(capsys):
    assert main(["roots", "65", "23"]) == 0
    roots = json.loads(capsys.readouterr().out)["roots"]
    real = [r for r in roots if r["flags"]["real"] and not r["flags"]["trivial_pm1"]]
    assert len(real) == 2 and all(r["im"] == 0.0 for r in real)
    assert main(["roots", "8", "1"]) == 0
    out = capsys.readouterr().out
    imag = [r for r in json.loads(out)["roots"] if r["flags"]["imaginary"]]
    assert len(imag) == 4 and all(r["re"] == 0.0 for r in imag)
    assert [r["im"] for r in imag] == sorted(r["im"] for r in imag)
    assert out.count('"re": 0.0,') == 4


def test_overlapping_discs_fail_roots_suite(monkeypatch, capsys):
    import whitenorm.roots as roots_mod

    certify = roots_mod._inclusion_discs

    def overlapping(int_coeffs, z, bits):
        radii, _ = certify(int_coeffs, z, bits)
        return radii, False

    monkeypatch.setattr(roots_mod, "_inclusion_discs", overlapping)
    resultant_roots.cache_clear()
    try:
        assert main(["verify", "5", "1", "--suite", "roots"]) == 2
    finally:
        resultant_roots.cache_clear()  # drop the planted failure
    suite = json.loads(capsys.readouterr().out)["suites"][0]
    # discs never certified disjoint: the sweeps run out at the top rung
    assert suite["status"] == "fail"
    assert "high-precision sweeps did not settle on degree 4 in 48 sweeps" in suite["details"]


def test_overlapping_radii_fail_roots_suite(monkeypatch, capsys):
    import whitenorm.verify as verify_mod

    rs = resultant_roots(5, 1)
    wide = dataclasses.replace(rs, roots=tuple(dataclasses.replace(r, radius=1.0) for r in rs))
    monkeypatch.setattr(verify_mod, "resultant_roots", lambda p, q: wide)
    assert main(["verify", "5", "1", "--suite", "roots"]) == 2
    suite = json.loads(capsys.readouterr().out)["suites"][0]
    assert suite["status"] == "fail" and "overlap" in suite["details"]


def test_close_roots_with_disjoint_discs_pass_roots_suite(monkeypatch, capsys):
    import whitenorm.verify as verify_mod

    # two non-trivial roots 1e-7 apart, each disc of radius ~5e-38: the
    # disjoint discs prove them distinct, and no distance floor applies
    rs = resultant_roots(5, 1)
    nt = [i for i, r in enumerate(rs.roots) if not r.flags.trivial_pm1]
    moved = list(rs.roots)
    moved[nt[1]] = dataclasses.replace(moved[nt[1]], value=moved[nt[0]].value + 1e-7)
    assert all(r.radius < 1e-30 for r in moved if not r.flags.trivial_pm1)
    close = dataclasses.replace(rs, roots=tuple(moved))
    monkeypatch.setattr(verify_mod, "resultant_roots", lambda p, q: close)
    assert main(["verify", "5", "1", "--suite", "roots"]) == 0
    suite = json.loads(capsys.readouterr().out)["suites"][0]
    assert suite["status"] == "pass"


def test_class_count_mismatch_fails_preps(monkeypatch, capsys):
    import whitenorm.reps as reps_mod

    count = reps_mod.count_prep_classes

    def off_by_two(p, q, rootset=None):
        c = count(p, q, rootset)
        return dataclasses.replace(c, total=c.total + 2)

    monkeypatch.setattr(reps_mod, "count_prep_classes", off_by_two)
    with pytest.raises(CountMismatch):
        reps_mod.all_prep_classes(5, 1)
    assert main(["preps", "5", "1"]) == 2
    assert "CountMismatch" in capsys.readouterr().err


_THREADS_CHILD = (
    "import os, sys; from whitenorm.cli import main; code = main(['roots', '5', '1']); "
    "print(code, len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr)"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
@pytest.mark.parametrize("user_value", [None, "2"])
def test_cli_runs_numpy_on_one_thread(user_value):
    # the roots command imports numpy, whose OpenBLAS would start a worker
    # per core; cli.main asks for one thread unless the user chose a count
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if user_value:
        env["OPENBLAS_NUM_THREADS"] = user_value
    child = subprocess.run(
        [sys.executable, "-c", _THREADS_CHILD], env=env, capture_output=True, text=True, check=True
    )
    code, tasks, value = child.stderr.split()
    assert (code, value) == ("0", user_value or "1")
    if user_value is None:
        assert tasks == "1"
