"""The envelope of the root solve (README, "Roots with certificates").

A sample of coprime fillings with |p| <= 255 and q <= 80, of degree 128
to 514, certifies: every root lies in its own inclusion disc, the discs are
pairwise disjoint, the classification holds and the class count equals its
closed form.  The sample holds the seven fillings that the generic Aberth
pipeline, the tests' reference solver, fails: 129/64, -129/32, -89/16,
115/57, 161/80, 117/58 and -1/64.  113/56, 127/16, -129/8 and 255/64
reconstruct every class.  The whole file is marked slow and runs only with
`pytest -m slow`.
"""

import pytest

from whitenorm.reps import all_prep_classes, count_prep_classes, expected_class_total
from whitenorm.roots import classify, resultant_roots

from test_roots import printed_discs_apart

pytestmark = pytest.mark.slow

ENVELOPE = [
    (129, 1), (-129, 1), (129, 8), (-129, 8), (127, 16), (-127, 16),
    (129, 32), (65, 32), (81, 40), (97, 48), (-97, 48),
    (49, 64), (-65, 64), (-129, 64), (1, 64), (255, 64),
    (129, 64), (-129, 32), (-89, 16), (115, 57), (161, 80), (117, 58), (-1, 64),
]


@pytest.mark.parametrize("pq", ENVELOPE, ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_envelope_filling_certifies(pq):
    p, q = pq
    rs = resultant_roots(p, q)
    assert sum(r.multiplicity for r in rs) == rs.span
    assert printed_discs_apart(rs)
    assert all(r.radius < 2.0**-100 * (1 + abs(r.value)) for r in rs)
    classify(rs, p, q)
    assert count_prep_classes(p, q, rs).total == expected_class_total(p, q)


# 255/64's class at s = 0.095 builds at 1920 bits, where every residual,
# the relator's with the variety equations it decides, runs in fixed point
@pytest.mark.parametrize(
    "pq", [(113, 56), (127, 16), (-129, 8), (255, 64)], ids=lambda pq: f"{pq[0]}_{pq[1]}"
)
def test_envelope_filling_reconstructs(pq):
    assert len(all_prep_classes(*pq)) == count_prep_classes(*pq).total
