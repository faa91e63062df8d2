"""The benchmark's workloads: which whitenorm CLI invocations a pass runs.

Seed 0 gives the default lists.  Any other seed replaces each default filling
with a held-out one drawn from that filling's pool, and moves the sweep's
p-window by 2 either way, so a claim can be re-checked on inputs it was not
tuned on.

A pool holds fillings of the default's size class: the same span of `res`
(so the same deflated degree) and sign of p, and, at the commit that defined
the benchmark, the same number of Aberth attempts and fixed-point refinement
sweeps in `resultant_roots`; for `verify`, |p| also stays within 4, since it
sets the number of reducible classes to reconstruct.  Counts repeat exactly
where times on a shared host do not.  Every pool member passes the
correctness gate, has q <= 24, and stays far from (129, 64), which fails
today.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("roots-grid", "verify-grid", "exact-sweep")
DEFAULT_SEED = 0

ROOTS_POOLS: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {
    (5, 1): ((-1, 1), (1, 1), (7, 1)),
    (-5, 3): ((-9, 1), (-7, 2), (-3, 4), (-1, 5)),
    (65, 3): ((61, 1), (63, 2), (67, 4), (69, 5), (73, 7), (75, 8), (77, 9), (79, 10)),
    (65, 16): ((59, 13), (61, 14)),
    (65, 23): ((3, 23), (27, 23), (89, 23)),
    (129, 16): ((125, 14), (127, 15), (131, 17), (133, 18)),
}
VERIFY_POOLS: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {
    (5, 1): ((-1, 1), (1, 1), (7, 1)),
    (-5, 3): ((-9, 1), (-7, 2), (-3, 4), (-1, 5)),
    (65, 3): ((61, 1), (63, 2), (67, 4), (69, 5)),
    (65, 16): ((59, 13), (61, 14)),
}

# q stops at 20: a pass's cost grows steeply with q, and at q <= 24 a pass
# took 15 s, too long for three of them to fit in one run.
SWEEP_WINDOW = (-9, 9, 20)
SWEEP_SHIFTS = (-2, 2)
SWEEP_SUITES = "resultant,symmetries,seifert,linear"


@dataclass(frozen=True)
class Invocation:
    """One `whitenorm` CLI invocation.

    `slot` names the default filling whose place it takes; it keys the
    per-invocation metrics so that they are the same names on every seed.
    """

    command: str
    args: tuple[str, ...]
    slot: str
    fillings: tuple[tuple[int, int], ...]


def _slot(p: int, q: int) -> str:
    return f"{p}_{q}".replace("-", "m")


def _draw(pools, rng):
    if rng is None:
        return [(default, default) for default in pools]
    return [(default, rng.choice(pool)) for default, pool in pools.items()]


def build(name: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of workload `name` under `seed`."""
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    if name == "roots-grid":
        return [
            Invocation("roots", ("roots", str(p), str(q)), _slot(*d), ((p, q),))
            for d, (p, q) in _draw(ROOTS_POOLS, rng)
        ]
    if name == "verify-grid":
        return [
            Invocation("verify", ("verify", str(p), str(q), "--suite", "all"), _slot(*d), ((p, q),))
            for d, (p, q) in _draw(VERIFY_POOLS, rng)
        ]
    if name == "exact-sweep":
        p_min, p_max, q_max = SWEEP_WINDOW
        shift = 0 if rng is None else rng.choice(SWEEP_SHIFTS)
        args = (
            "sweep", "--p-min", str(p_min + shift), "--p-max", str(p_max + shift),
            "--q-max", str(q_max), "--suite", SWEEP_SUITES,
        )
        return [Invocation("sweep", args, _slot(p_min, p_max) + f"_{q_max}", ())]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

