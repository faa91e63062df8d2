"""Run one whitenorm CLI invocation with a span around every public function
of every layer module, then write the spans and the size and health fields
of the fillings it touched as JSON.

    python benchmark/tracer.py OUT.json whitenorm-arguments...

The spans are recorded from outside the package: each public function of a
layer module is replaced by a recording wrapper at every whitenorm module
attribute, or value of a module-level dict, that refers to it.  So
`from .roots import resultant_roots` in `verify` is caught as well as
`roots.resultant_roots`, and so is the `verify._SUITE_FUNCS` table.

Spans stay in memory as [name index, start, end, parent span index] and are
written once, after the command returns.  The health fields are computed
after the wrappers are removed, so they are outside every span.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

LAYERS = ("laurent", "respq", "roots", "reps", "cohomology", "seminorm", "slopes", "verify", "cli")


class Recorder:
    """Wraps the layer functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.rootsets: dict[tuple[int, int], object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = self.rootsets if name == "roots.resultant_roots" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [ix, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None and len(args) >= 2:
                keep[(args[0], args[1])] = out
            return out

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"whitenorm.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "whitenorm" and not name.startswith("whitenorm."):
                continue
            for attr, obj in list(vars(mod).items()):
                containers = [(mod, attr, obj, False)]
                if isinstance(obj, dict):
                    containers = [(obj, k, v, True) for k, v in obj.items()]
                for owner, key, value, is_dict in containers:
                    hit = wrappers.get(id(value))
                    if hit is None or hit[0] is not value:
                        continue
                    self._patches.append((owner, key, value, is_dict))
                    if is_dict:
                        owner[key] = hit[1]
                    else:
                        setattr(owner, key, hit[1])

    def uninstall(self) -> None:
        for owner, key, value, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()


def fillings_of(argv: list[str]) -> list[tuple[int, int]]:
    """The fillings a `roots`, `verify` or `sweep` invocation computes."""
    if argv[0] in ("roots", "verify"):
        return [(int(argv[1]), int(argv[2]))]
    opts = dict(zip(argv[1::2], argv[2::2]))
    p_min, p_max, q_max = int(opts["--p-min"]), int(opts["--p-max"]), int(opts["--q-max"])
    return [
        (p, q)
        for q in range(1, q_max + 1)
        for p in range(p_min, p_max + 1)
        if p % 2 and math.gcd(abs(p), q) == 1 and p != 3 * q
    ]


def health(p: int, q: int, rootset) -> dict:
    """Size and health fields of one filling, from the public API."""
    from whitenorm import reps, respq, roots

    res = respq.build_res(p, q)
    out = {"p": p, "q": q, "coeff_bits": max(abs(c).bit_length() for c in res.poly.coeffs.values())}
    if res.is_degenerate:
        return out
    out["degree"] = respq.nontrivial_root_bound(p, q)
    if rootset is not None:
        rep = roots.classify(rootset, p, q)
        out["min_separation"] = rep.min_separation
        out["min_unit_circle_gap"] = rep.min_unit_circle_gap
        out["classes"] = reps.count_prep_classes(p, q, rootset=rootset).total
    return out


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install()
    from whitenorm import cli, respq

    code = cli.main(argv)
    rec.uninstall()
    cache = respq.build_res.cache_info()
    fields = [health(p, q, rec.rootsets.get((p, q))) for p, q in fillings_of(argv)]
    payload = {
        "names": rec.names,
        "spans": rec.spans,
        "build_res": {"hits": cache.hits, "misses": cache.misses},
        "health": fields,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
