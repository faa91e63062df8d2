import math

import pytest
from hypothesis import given, strategies as st

from whitenorm.errors import ScopeError, ValidationError
from whitenorm.seminorm import SlopeRange, seminorm_profile
from whitenorm.slopes import INFINITY, Slope, distance, validate_filling


def primitive_pairs():
    return (
        st.tuples(st.integers(-60, 60), st.integers(-60, 60))
        .filter(lambda t: (t[0], t[1]) != (0, 0) and math.gcd(abs(t[0]), abs(t[1])) == 1)
    )


def test_canonical_form_enforced():
    assert Slope.of(3, -1) == Slope(-3, 1)
    assert Slope.of(-1, 0) == INFINITY
    with pytest.raises(ValidationError):
        Slope(2, 4)
    with pytest.raises(ValidationError):
        Slope.of(6, 2)  # never silently reduced
    with pytest.raises(ValidationError):
        Slope(0, 0)
    with pytest.raises(ValidationError):
        Slope(1, -1)  # sign not canonical


def test_parse_and_print():
    assert Slope.parse("inf") == INFINITY
    assert Slope.parse("-4/1") == Slope(-4, 1)
    assert Slope.parse("7") == Slope(7, 1)
    assert str(Slope(4, 3)) == "4/3"
    assert str(INFINITY) == "inf"
    with pytest.raises(ValidationError):
        Slope.parse("x/y")


def test_parse_keeps_the_refusal_reason():
    # ValidationError is a ValueError: the refusal of a non-primitive pair
    # must not turn into "cannot parse"
    for text in ("2/4", "2/0"):
        with pytest.raises(ValidationError, match="not primitive"):
            Slope.parse(text)


@given(primitive_pairs())
def test_parse_print_roundtrip(pq):
    s = Slope.of(*pq)
    assert Slope.parse(str(s)) == s


def test_distance_examples():
    assert distance(Slope(4, 1), INFINITY) == 1
    assert distance(Slope(4, 1), Slope(4, 1)) == 0
    # 4q/p at (p, q) = (-1, 1) against slope 3
    assert distance(Slope.of(4, -1), Slope(3, 1)) == 7


@given(primitive_pairs(), primitive_pairs())
def test_distance_symmetric_and_separating(a, b):
    s1, s2 = Slope.of(*a), Slope.of(*b)
    assert distance(s1, s2) == distance(s2, s1)
    assert (distance(s1, s2) == 0) == (s1 == s2)


def test_classify_range():
    for (p, q), rng in (((-1, 1), SlopeRange.NEG_INF_0), ((1, 1), SlopeRange.ZERO_2),
                        ((7, 2), SlopeRange.TWO_4), ((5, 1), SlopeRange.FOUR_INF)):
        assert seminorm_profile(p, q).range_tag is rng
    for p in (0, 2, 4, 6):  # p even, the endpoints 0, 2 and 4 among them, is out of scope
        with pytest.raises(ScopeError):
            seminorm_profile(p, 1)


def test_validate_filling():
    validate_filling(-5, 3)
    validate_filling(0, 1)
    for p, q in ((6, 2), (1, 0), (1, -1), (1.0, 1), ("1", 1)):
        with pytest.raises(ValidationError):
            validate_filling(p, q)


def test_boundary_slopes_examples():
    assert seminorm_profile(-1, 1).betas == (Slope(4, 1), Slope(-4, 1), Slope(0, 1))
    assert seminorm_profile(1, 1).betas == (Slope(4, 1), Slope(6, 1), Slope(0, 1))
    assert seminorm_profile(5, 1).betas == (Slope(4, 1), Slope(4, 3), Slope(0, 1))


def test_boundary_slopes_validation():
    with pytest.raises(ValidationError):
        seminorm_profile(6, 2)
    with pytest.raises(ValidationError):
        seminorm_profile(1, 0)


def _expected_rows(p, q):
    """The four range-specific distance tables, encoded independently."""
    r = p / q
    gammas = [Slope(1, 1), Slope(2, 1), Slope(3, 1), INFINITY]
    if r < 0:
        rows = [(3, -p + 4 * q, 1), (2, -2 * p + 4 * q, 2), (1, -3 * p + 4 * q, 3), (1, -p, 1)]
    elif r < 2:
        rows = [(3, p + 4 * q, 1), (2, 4 * q, 2), (1, -p + 4 * q, 3), (1, p, 1)]
    elif r < 4:
        rows = [(3, -p + 5 * q, 1), (2, -p + 4 * q, 2), (1, abs(p - 3 * q), 3), (1, q, 1)]
    else:
        rows = [(3, abs(p - 6 * q), 1), (2, 2 * p - 8 * q, 2), (1, 3 * p - 10 * q, 3), (1, p - 2 * q, 1)]
    return gammas, rows


def _distance_row(p, q, gamma):
    return tuple(distance(gamma, b) for b in seminorm_profile(p, q).betas)


def test_distance_rows_match_range_tables():
    for q in range(1, 9):
        for p in range(-25, 26):
            if p % 2 == 0 or math.gcd(abs(p), q) != 1 or p == 3 * q:
                continue
            gammas, rows = _expected_rows(p, q)
            for gamma, expected in zip(gammas, rows):
                assert _distance_row(p, q, gamma) == expected, (p, q, str(gamma))


def test_distance_row_spot_values():
    assert _distance_row(-1, 1, Slope(1, 1)) == (3, 5, 1)
    assert _distance_row(5, 1, Slope(1, 1)) == (3, 1, 1)
    assert _distance_row(1, 1, INFINITY) == (1, 1, 1)
