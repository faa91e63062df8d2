from hypothesis import given, settings, strategies as st

from whitenorm.cxhp import hp_horner, hp_mul


def _horner_by_hp_mul(int_coeffs, z, bits):
    """The reference: Horner's rule composed of hp_mul calls."""
    acc = (0, 0)
    for c in reversed(int_coeffs):
        acc = hp_mul(acc, z, bits)
        acc = (acc[0] + (c << bits), acc[1])
    return acc


@st.composite
def _point(draw):
    # |z| up to about 6, both signs, so the shifts truncate in every quadrant
    bits = draw(st.sampled_from([128, 768]))
    part = st.integers(-(4 << bits), 4 << bits)
    return (draw(part), draw(part)), bits


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.integers(-(2**160), 2**160), min_size=1, max_size=40), point=_point())
def test_hp_horner_matches_hp_mul_reference(coeffs, point):
    z, bits = point
    assert hp_horner(coeffs, z, bits) == _horner_by_hp_mul(coeffs, z, bits)
