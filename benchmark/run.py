"""Benchmark of the whitenorm CLI, run from the root of a source checkout.

    python3 benchmark/run.py --workload roots-grid --seed 0 --seconds 32 --trace 0

Each invocation is a fresh `python -m whitenorm ...` process with cold caches,
as a researcher runs it; one driver process runs them one after another (a
closed loop with one client).  A pass runs every invocation of the workload
once; passes repeat, at least three times, and then as long as another
pass brings the run's length nearer to `--seconds` than stopping does.

--trace 0 prints the end-to-end metrics: wall and CPU time of a pass, each
the sum over its invocations of their median sample in the run; the largest
resident set of any child; and the median of the set-up samples taken
before each pass.  --trace 1 alternates untraced passes with passes run under
`tracer.py` and prints the per-layer metrics.  Both print, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics; the metric names and units are those of BENCHMARK.json.

Every invocation goes through the correctness gate of `Gate`.  The benchmark
writes only under `.bench_build/whitenorm/` in the checkout, and the bytecode
caches Python keeps beside the sources.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_SAMPLES = 2  # taken before each pass
# A run must end within 180 s; a child still running at this point is killed
# and counted as failed.
DEADLINE_S = 165.0
SETUP_CODE = "import whitenorm, whitenorm.respq as r; r.resolve_y_convention()"
BOUND_CODE = (
    "import json, sys; from whitenorm.respq import nontrivial_root_bound as b; "
    "print(json.dumps([b(p, q) for p, q in json.loads(sys.argv[1])]))"
)
# whitenorm.verify.SUITES, named here so that this process never imports whitenorm.
SUITES = ("resultant", "symmetries", "roots", "preps", "seifert", "linear", "cohomology")
# Functions whose own call counts and self times are reported, besides the
# per-module totals.
FUNCTIONS = {
    "laurent.sylvester_resultant_t": ("calls", "self_s"),
    "laurent.det_bareiss": ("self_s",),
    "respq.build_res": ("calls", "self_s"),
    "roots.resultant_roots": ("calls", "self_s"),
    "roots.resultant_rootset_of": ("self_s",),
    "roots.find_roots": ("calls", "self_s"),
    "reps.reconstruct_prep": ("calls", "self_s"),
    "reps.all_prep_classes": ("self_s",),
    "cohomology.d2_check": ("self_s",),
}


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    start: float  # time.perf_counter() at spawn; CLOCK_MONOTONIC, shared by all processes
    wall: float
    cpu: float


class Runner:
    """Starts whitenorm children from the checkout's sources, one at a time."""

    def __init__(self, root: Path, deadline: float) -> None:
        self.root = root
        self.work = root / ".bench_build" / "whitenorm"
        self.work.mkdir(parents=True, exist_ok=True)
        self.deadline = deadline
        # Children keep bytecode caches beside the sources, as an installed
        # package does; a cache prefix would recompile the standard library
        # and numpy in every child.
        self.env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP")
        }
        self.env["PYTHONPATH"] = str(root / "src")

    def spawn(self, argv: list[str]) -> Child:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += b"\nkilled at the benchmark deadline"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return Child(proc.returncode, out, err, start, wall, cpu)

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


@dataclass
class Outcome:
    inv: workloads.Invocation
    child: Child
    ok: bool
    reason: str
    digest: str
    trace: dict | None


class Gate:
    """The correctness gate.  An invocation fails if its exit code is not 0,
    a verify suite reports fail, a `roots` output has another number of
    non-trivial roots than `respq.nontrivial_root_bound(p, q)`, or the sweep
    CSV contains fail.  The SHA-256 of each stdout (the CSV for `sweep`) is
    compared with the one recorded for the default seed."""

    def __init__(self, runner: Runner, invocations: list[workloads.Invocation], seed: int) -> None:
        fillings = sorted({f for inv in invocations if inv.command == "roots" for f in inv.fillings})
        self.bounds: dict[tuple[int, int], int] = {}
        if fillings:
            child = runner.spawn(["-c", BOUND_CODE, json.dumps(fillings)])
            if child.code != 0:
                raise SystemExit(f"cannot compute root bounds:\n{child.stderr.decode(errors='replace')}")
            self.bounds = dict(zip(fillings, json.loads(child.stdout)))
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.expected = recorded if seed == workloads.DEFAULT_SEED else {}
        self.seen: dict[str, str] = {}

    def check(self, inv: workloads.Invocation, child: Child, csv_bytes: bytes | None) -> tuple[bool, str, str]:
        body = csv_bytes if inv.command == "sweep" else child.stdout
        digest = hashlib.sha256(body or b"").hexdigest()
        self.seen[" ".join(inv.args)] = digest
        if child.code != 0:
            return False, f"exit code {child.code}: {child.stderr.decode(errors='replace')[-400:]}", digest
        try:
            if inv.command == "roots":
                roots = json.loads(child.stdout)["roots"]
                found = sum(1 for r in roots if not r["flags"]["trivial_pm1"])
                want = self.bounds[inv.fillings[0]]
                if found != want:
                    return False, f"{found} non-trivial roots, bound {want}", digest
            elif inv.command == "verify":
                failed = [s["suite"] for s in json.loads(child.stdout)["suites"] if s["status"] == "fail"]
                if failed:
                    return False, f"suites failed: {failed}", digest
            elif csv_bytes is None:
                return False, "no sweep CSV written", digest
            elif any("fail" in row for row in csv.reader(io.StringIO(csv_bytes.decode()))):
                return False, "sweep CSV contains fail", digest
        except (ValueError, KeyError, TypeError) as exc:
            return False, f"unreadable output: {exc!r}", digest
        return True, "", digest

    def changed(self, outcomes: list[Outcome]) -> tuple[int, int]:
        """(digests compared, digests that differ) for one pass."""
        pairs = [(self.expected.get(" ".join(o.inv.args)), o.digest) for o in outcomes]
        pairs = [(want, got) for want, got in pairs if want is not None]
        return len(pairs), sum(want != got for want, got in pairs)


def run_pass(runner: Runner, gate: Gate, invocations, traced: bool) -> list[Outcome]:
    outcomes = []
    for i, inv in enumerate(invocations):
        if runner.out_of_time():
            break
        args = list(inv.args)
        csv_path = runner.work / "sweep.csv"
        if inv.command == "sweep":
            csv_path.unlink(missing_ok=True)
            args += ["--out", str(csv_path)]
        span_path = runner.work / f"spans-{i}.json"
        if traced:
            span_path.unlink(missing_ok=True)
            child = runner.spawn([str(HERE / "tracer.py"), str(span_path), *args])
        else:
            child = runner.spawn(["-m", "whitenorm", *args])
        csv_bytes = csv_path.read_bytes() if inv.command == "sweep" and csv_path.exists() else None
        ok, reason, digest = gate.check(inv, child, csv_bytes)
        trace = None
        if traced and span_path.exists():
            trace = json.loads(span_path.read_text(encoding="utf-8"))
        elif traced:
            ok, reason = False, reason or "tracer wrote no spans"
        if not ok:
            print(f"FAILED whitenorm {' '.join(inv.args)}: {reason}", file=sys.stderr)
        outcomes.append(Outcome(inv, child, ok, reason, digest, trace))
    return outcomes


def repeat(runner: Runner, seconds: float, step, at_least: int) -> None:
    """Call step() at least `at_least` times, then while another call brings
    the total nearer to `seconds` than stopping does."""
    start = time.monotonic()
    calls = 0
    while not runner.out_of_time():
        step(calls)
        calls += 1
        elapsed = time.monotonic() - start
        if calls >= at_least and elapsed + elapsed / calls / 2 > seconds:
            break


def median_pass(passes: list[list[Outcome]], key) -> float:
    """Sum over the invocations of a pass of each one's median sample.

    The host is shared, and its load changes the speed of a whole pass, in
    phases that last from seconds to a minute.  The fastest sample depends on
    whether a run happened to catch a quiet moment, and on how many passes
    fit; the median moves less from run to run in a busy phase, and as
    little in a quiet one."""
    samples = defaultdict(list)
    for outcomes in passes:
        for i, o in enumerate(outcomes):
            samples[i].append(key(o))
    return sum(statistics.median(v) for v in samples.values())


def _wall(o: Outcome) -> float:
    return o.child.wall


def setup_sample(runner: Runner) -> float:
    child = runner.spawn(["-c", SETUP_CODE])
    if child.code != 0:
        raise SystemExit(f"set-up failed:\n{child.stderr.decode(errors='replace')}")
    return child.wall


def end_to_end(runner, gate, invocations, seconds):
    setups: list[float] = []
    passes: list[list[Outcome]] = []

    def step(_: int) -> None:
        setups.extend(setup_sample(runner) for _ in range(SETUP_SAMPLES))
        passes.append(run_pass(runner, gate, invocations, False))

    # A median of three outvotes one pass slowed by the host.
    repeat(runner, seconds, step, at_least=3)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": median_pass(passes, _wall),
        "cpu_s": median_pass(passes, lambda o: o.child.cpu),
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": statistics.median(setups),
    }
    return passes, metrics, setups


def _span_table(outcomes: list[Outcome]):
    """Per function: [calls, total seconds, self seconds] over one traced pass.
    Self time is a span's duration minus the time its child spans cover."""
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for o in outcomes:
        if o.trace is None:
            continue
        names, spans = o.trace["names"], o.trace["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (ix, start, end, _), cover in zip(spans, covered):
            row = table[names[ix]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - cover
    return table


def _startup(o: Outcome) -> float:
    """Seconds from spawning the child to entering `cli.main`."""
    names, spans = o.trace["names"], o.trace["spans"]
    return min(start for ix, start, _, _ in spans if names[ix] == "cli.main") - o.child.start


def layer_values(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (timings and counts)."""
    table = _span_table(outcomes)
    out: dict[str, float] = {}
    for layer in LAYERS:
        rows = [v for k, v in table.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(r[0] for r in rows)
        out[f"{layer}.self_s"] = sum(r[2] for r in rows)
    for fn, kinds in FUNCTIONS.items():
        calls, _, self_s = table.get(fn, (0, 0.0, 0.0))
        if "calls" in kinds:
            out[f"{fn}.calls"] = calls
        if "self_s" in kinds:
            out[f"{fn}.self_s"] = self_s
    for suite in SUITES:
        out[f"verify.{suite}.total_s"] = table.get(f"verify.suite_{suite}", (0, 0.0, 0.0))[1]
    traced = [o for o in outcomes if o.trace is not None]
    out["respq.build_res.hits"] = sum(o.trace["build_res"]["hits"] for o in traced)
    out["respq.build_res.misses"] = sum(o.trace["build_res"]["misses"] for o in traced)
    out["cli.startup_s"] = sum(_startup(o) for o in traced)
    return out


def health_values(outcomes: list[Outcome]) -> dict[str, float]:
    """Size and health fields, identical on every pass of a seed.  A workload
    that computes no roots reports 0 for the root fields."""
    fields = {(h["p"], h["q"]): h for o in outcomes if o.trace for h in o.trace["health"]}.values()

    def pick(key, agg):
        vals = [h[key] for h in fields if key in h and math.isfinite(h[key])]
        return agg(vals) if vals else 0

    return {
        "respq.coeff_bits_max": pick("coeff_bits", max),
        "roots.degree_max": pick("degree", max),
        "roots.min_separation": pick("min_separation", min),
        "roots.min_unit_circle_gap": pick("min_unit_circle_gap", min),
        "reps.classes": pick("classes", sum),
    }


def per_layer(runner, gate, invocations, seconds):
    untraced: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []

    def pair(i: int) -> None:
        order = (False, True) if i % 2 == 0 else (True, False)
        for flag in order:
            (traced if flag else untraced).append(run_pass(runner, gate, invocations, flag))

    repeat(runner, seconds, pair, at_least=1)
    per_pass = [layer_values(p) for p in traced]
    metrics = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    metrics.update(health_values(traced[0]))
    # Every workload reports every invocation metric; those of other
    # workloads are 0.
    for name in workloads.WORKLOADS:
        for inv in workloads.build(name, workloads.DEFAULT_SEED):
            metrics[f"cli.{inv.command}.{inv.slot}_s"] = 0.0
    for inv in invocations:
        walls = [o.child.wall for p in untraced for o in p if o.inv is inv]
        metrics[f"cli.{inv.command}.{inv.slot}_s"] = statistics.median(walls) if walls else 0.0
    checked, changed = zip(*(gate.changed(p) for p in untraced + traced))
    metrics["cli.digests_checked"] = max(checked)
    metrics["cli.digest_changed"] = max(changed)
    metrics["trace.overhead_frac"] = (
        median_pass(traced, _wall) / median_pass(untraced, _wall) - 1
    )
    return untraced + traced, metrics, []


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "whitenorm" / "__init__.py").is_file():
        print(f"error: no whitenorm sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(root, time.monotonic() + DEADLINE_S)
    invocations = workloads.build(args.workload, args.seed)
    warm = runner.spawn(["-c", "import whitenorm"])  # writes bytecode caches
    if warm.code != 0:
        print(f"error: cannot import whitenorm:\n{warm.stderr.decode(errors='replace')}", file=sys.stderr)
        return 2
    gate = Gate(runner, invocations, args.seed)

    measure = per_layer if args.trace else end_to_end
    passes, values, setups = measure(runner, gate, invocations, args.seconds)
    outcomes = [o for p in passes for o in p]
    failed = sum(not o.ok for o in outcomes) + sum(len(invocations) - len(p) for p in passes)
    attempted = len(invocations) * len(passes)
    if args.trace:
        values["cli.failed_frac"] = failed / attempted
    # The digests of this run's outputs, merged over runs: after a deliberate
    # output change, copy this file over benchmark/digests.json at seed 0.
    seen_file = runner.work / "digests-seen.json"
    seen = json.loads(seen_file.read_text(encoding="utf-8")) if seen_file.exists() else {}
    seen_file.write_text(json.dumps({**seen, **gate.seen}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    log = runner.work / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps({
        "passes": [[{
            "args": o.inv.args, "wall_s": o.child.wall, "cpu_s": o.child.cpu, "ok": o.ok,
            "reason": o.reason, "sha256": o.digest, "trace": o.trace,
        } for o in p] for p in passes],
        "setup_s": setups,
        "metrics": values,
    }), encoding="utf-8")

    names = [m["name"] for m in listed]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metric set differs from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
