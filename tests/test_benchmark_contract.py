"""The benchmark drives the package from outside, through `tracer.py` and the
set-up snippet of `run.py`; both run here as the benchmark runs them, in a
child process with the checkout's src/ on PYTHONPATH.  benchmark/ is only
read."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=300
    )


def _setup_code():
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("benchmark/run.py defines no SETUP_CODE")


def test_setup_code_runs():
    proc = _run("-c", _setup_code())
    assert proc.returncode == 0, proc.stderr.decode()


def test_tracer_writes_trace(tmp_path):
    out = tmp_path / "trace.json"
    proc = _run(str(BENCH / "tracer.py"), str(out), "roots", "5", "1")
    assert proc.returncode == 0, proc.stderr.decode()
    trace = json.loads(out.read_text(encoding="utf-8"))
    assert trace["spans"]
    assert trace["build_res"]["misses"] >= 1
    assert trace["health"][0]["p"] == 5 and trace["health"][0]["degree"] == 4
