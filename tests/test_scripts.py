"""Smoke tests for scripts/: each script is loaded by file path and run on a
small input, so a change to the package internals they import shows here."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name, monkeypatch):
    # the scripts put src/ on sys.path when loaded; keep that local to the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_norm_survey_runs(monkeypatch, capsys):
    _load("norm_survey", monkeypatch).run(9, 3)  # raises on a row that fails
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "p/q"
    assert len(lines) > 1


def test_root_gallery_writes_csvs(monkeypatch, tmp_path, capsys):
    gallery = _load("root_gallery", monkeypatch)
    monkeypatch.setattr(gallery, "SHOWCASE", [(5, 1), (-5, 3)])
    gallery.run(tmp_path)
    capsys.readouterr()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == ["roots_-5_3.csv", "roots_5_1.csv"]
    for name in written:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "re,im,multiplicity"
        assert len(lines) > 1
