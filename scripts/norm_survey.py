#!/usr/bin/env python3
"""Print the seminorm data for all odd fillings in a small window, with the
linear-system reconstruction run on every row: solve_linear_system raises
unless it recovers the closed-form a and s, and its s is the class count.

Usage: python scripts/norm_survey.py [pmax] [qmax]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import math

from whitenorm.reps import expected_class_total
from whitenorm.seminorm import seminorm_profile, solve_linear_system


def run(pmax: int, qmax: int) -> None:
    print(f"{'p/q':>8} {'range':>9} {'beta2':>7} {'a1 a2 a3':>9} {'s':>4} "
          f"{'classes':>7} {'||1|| ||2|| ||3||':>17} rk z")
    for q in range(1, qmax + 1):
        for p in range(-pmax, pmax + 1):
            if p % 2 == 0 or math.gcd(abs(p), q) != 1 or p == 3 * q:
                continue
            prof = seminorm_profile(p, q)
            lin = solve_linear_system(prof)
            norms = prof.seifert
            classes = expected_class_total(p, q)
            print(
                f"{p:>4}/{q:<3} {prof.range_tag.value:>9} {str(prof.betas[1]):>7} "
                f"{prof.a[0]:>3}{prof.a[1]:>3}{prof.a[2]:>3} {prof.s_min:>4} "
                f"{classes:>7} {norms[0]:>5} {norms[1]:>5} {norms[2]:>5}  {lin.rank} {lin.z}"
            )


if __name__ == "__main__":
    pmax = int(sys.argv[1]) if len(sys.argv) > 1 else 9
    qmax = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    run(pmax, qmax)
