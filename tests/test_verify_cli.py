import dataclasses
import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from whitenorm.cli import main
from whitenorm.errors import ConvergenceFailure, ValidationError
from whitenorm.roots import resultant_roots
from whitenorm.verify import SUITES, run_verify

DIGESTS = Path(__file__).resolve().parents[1] / "benchmark" / "digests.json"


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


def test_cli_verify_exit_two_on_failure(capsys, monkeypatch):
    import whitenorm.verify as verify_mod

    def broken(p, q):
        return verify_mod.SuiteResult("linear", p, q, "fail", "planted failure")

    monkeypatch.setitem(verify_mod._SUITE_FUNCS, "linear", broken)
    assert main(["verify", "-1", "1", "--suite", "linear"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["fail"] == 1


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

    def failing(f):
        calls.append(f)
        raise ConvergenceFailure("planted failure")

    monkeypatch.setattr(roots_mod, "find_roots", failing)
    resultant_roots.cache_clear()
    try:
        report = run_verify(5, 1, SUITES)
    finally:
        resultant_roots.cache_clear()  # drop the planted failure
    assert len(calls) == 1
    status = {r.suite: r.status for r in report.results}
    assert status["roots"] == status["preps"] == status["cohomology"] == "fail"


# stdout SHA-256 pinned here: of commands the benchmark does not run, and
# of one whose benchmark digest is stale
PREPS_DIGESTS = {
    "preps 5 1": "c41cef04c2859181c1a34a6036509eb43e3068d7d4ec1615d4b17a2b5402aea9",
    "preps -5 3": "9c7b2c70a3fabe727fa6cd19691b000eec2f557309a67ea9e110b2d75dd1619b",
    "preps 2 1": "4c437182a1fdcac8779c229fc8ccb059165463b9000494b442ad0d6b9ed27ef3",
    "preps 8 1": "09ec5237aabeafd7e80df61c34e6878c76223bb46b1592c752a1e7f05ebe453d",
    "preps 7 2": "09379f19ee6595fa24755b6d35dc038a79acbd8f91108173ffbdeeac1278dc1b",
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
    "verify 2 1 --suite all": "1c27dad16340c1681901551302761eafbb0e224276870804a066271e80c5b239",
    "verify 3 1 --suite all": "3636e9ea43aca6cbf6241f41d0068f80f37881cff403b1370ae43e4778c13ada",
    "verify 4 1 --suite all": "a79076c68d02c410991a61596864149396aa76a366d8ee7415024028dbf938fb",
    # even-p fillings: their class count is checked against the closed form
    # and their roots are certified simple like those of odd p
    "verify 8 1 --suite all": "8c096e90b60ddc0990acdb0ca7d54c5254b03ec20e31546a7f9bc7222822d2bf",
    "verify 12 5 --suite all": "a308bab94f40aed85717621e148807331ff40d0bece0904c4adc3d91cf1944fd",
    "verify 6 1 --suite all": "ee4efe552c2c9bd8b901fcf01136f724163cfd380964cd519acd5c7b0be321d9",
}
# every other roots-grid and verify-grid command, checked against the
# benchmark's own digests
GRID_COMMANDS = [
    "roots 5 1", "roots -5 3", "roots 65 3", "roots 65 16", "roots 129 16",
    "verify 5 1 --suite all", "verify -5 3 --suite all",
    "verify 65 3 --suite all", "verify 65 16 --suite all",
]


@pytest.mark.parametrize("command", [*GRID_COMMANDS, *PREPS_DIGESTS])
def test_cli_output_matches_benchmark_digest(command):
    expected = PREPS_DIGESTS.get(command) or json.loads(DIGESTS.read_text(encoding="utf-8"))[command]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == expected


def test_exact_sweep_csv_matches_benchmark_digest(tmp_path, capsys):
    command = "sweep --p-min -9 --p-max 9 --q-max 20 --suite resultant,symmetries,seifert,linear"
    out = tmp_path / "sweep.csv"
    assert main([*command.split(), "--out", str(out)]) == 0
    capsys.readouterr()
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[command]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


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
