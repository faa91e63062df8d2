"""The envelope of the root solve (README, "Roots with certificates").

A sample of coprime fillings with |p| <= 255 and q <= 64, of degree 128
to 514, certifies: every root lies in its own inclusion disc, the discs are
pairwise disjoint, the classification holds and the class count equals its
closed form.  Two named fillings beyond the range fail at the stage that
names them.  113/56, 127/16, -129/8 and 255/64 reconstruct every class.
The whole file takes about 1 min on a shared 2-core VM, so it is marked
slow and runs only with `pytest -m slow`.
"""

import pytest

from whitenorm.errors import ConvergenceFailure
from whitenorm.reps import all_prep_classes, count_prep_classes, expected_class_total
from whitenorm.roots import classify, resultant_roots

pytestmark = pytest.mark.slow

ENVELOPE = [
    (129, 1), (-129, 1), (129, 8), (-129, 8), (127, 16), (-127, 16),
    (129, 32), (65, 32), (81, 40), (97, 48), (-97, 48),
    (49, 64), (-65, 64), (-129, 64), (1, 64), (255, 64),
]


@pytest.mark.parametrize("pq", ENVELOPE, ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_envelope_filling_certifies(pq):
    p, q = pq
    rs = resultant_roots(p, q)
    assert sum(r.multiplicity for r in rs) == rs.span
    assert rs.disc_overlaps() == []
    assert all(r.radius < 2.0**-100 * (1 + abs(r.value)) for r in rs)
    classify(rs, p, q)
    assert count_prep_classes(p, q, rs).total == expected_class_total(p, q)


@pytest.mark.parametrize(
    "pq, stage, message",
    [
        # the sweeps run out of budget at 256 bits (ROADMAP item 2)
        ((129, 64), "refine", "did not settle"),
        # |s|^384 overflows the double-precision start at its 2nd iteration
        ((-129, 32), "aberth", "overflowed"),
    ],
    ids=["129_64", "-129_32"],
)
def test_outside_envelope_fails_at_its_stage(pq, stage, message):
    with pytest.raises(ConvergenceFailure, match=message) as info:
        resultant_roots(*pq)
    assert info.value.stage == stage


# 255/64's class at s = 0.095 builds at 1920 bits; its variety check, once
# run in double precision, failed there at h/g = 6.5e-8
@pytest.mark.parametrize(
    "pq", [(113, 56), (127, 16), (-129, 8), (255, 64)], ids=lambda pq: f"{pq[0]}_{pq[1]}"
)
def test_envelope_filling_reconstructs(pq):
    assert len(all_prep_classes(*pq)) == count_prep_classes(*pq).total
