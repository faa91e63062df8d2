import math
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from whitenorm.cxhp import HPComplex, hp, hp_horner, hp_matmul, hp_matpow, hp_mul
from whitenorm.reps import WORD_L1, WORD_REL_LHS, Mat2


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


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=-(2.0**250), max_value=2.0**250, allow_subnormal=True),
    bits=st.sampled_from([128, 256, 512, 768]),
)
@example(x=5e-324, bits=128)
@example(x=-2.2250738585072014e-308, bits=768)
@example(x=1e-300, bits=256)
@example(x=-(2.0**250), bits=768)
def test_hp_is_exact_and_unchanged_up_to_768_bits(x, bits):
    # the root ladder's conversions stay what ldexp and round made them
    assert hp(complex(x, -x), bits) == (round(math.ldexp(x, bits)), round(math.ldexp(-x, bits)))


def test_hp_converts_past_the_range_of_a_double():
    assert hp(8.0, 2048) == (8 << 2048, 0)
    assert hp(complex(-(2.0**1000), 2.0**-1074), 1100) == (-(1 << 2100), 1 << 26)
    # inf and nan have no fixed point, and fail as round fails on them
    for bits in (128, 2048):
        with pytest.raises(OverflowError):
            hp(complex(math.inf, 0), bits)
        with pytest.raises(ValueError):
            hp(complex(0, math.nan), bits)


def test_hpcomplex_refuses_to_mix_precisions():
    a, b = HPComplex.from_complex(0.5 + 2j, 128), HPComplex.from_complex(0.5 + 2j, 256)
    assert (a * 2 - 1).to_complex() == (b * 2 - 1).to_complex() == 2j * 2
    for op in (a.__add__, a.__sub__, a.__mul__, a.__truediv__, a.__eq__):
        with pytest.raises(ValueError, match="128 and 256 bits"):
            op(b)


def _hp_entry(draw, bits):
    # |z| up to about 4, parts of either sign, so every shift truncates
    part = st.integers(-(4 << bits), 4 << bits)
    return HPComplex(draw(part), draw(part), bits)


@st.composite
def _matrix_pair(draw):
    bits = draw(st.sampled_from([128, 192, 896, 1920]))
    return [Mat2(*(_hp_entry(draw, bits) for _ in range(4))) for _ in range(2)], bits


def _raw(m):
    return tuple(v for z in (m.a, m.b, m.c, m.d) for v in (z.re, z.im))


@settings(max_examples=200, deadline=None)
@given(pair=_matrix_pair(), n=st.integers(-9, 9).filter(bool))
def test_hp_matmul_matches_hpcomplex_operators(pair, n):
    # the raw kernel truncates each entry product as HPComplex.__mul__ does
    (x, y), bits = pair
    assert hp_matmul(_raw(x), _raw(y), bits) == _raw(x @ y)
    # and hp_matpow makes Mat2.power's products (both invert by the det-1
    # formula, whatever the determinant)
    assert hp_matpow(_raw(x), n, bits) == _raw(x.power(n))
    assert hp_matpow(_raw(x), 0, bits) == (1 << bits, 0, 0, 0, 0, 0, 1 << bits, 0)


def test_shared_prefix_gives_the_direct_fold():
    # _verify folds WORD_REL_LHS and WORD_L1 from their shared 7 letters
    from whitenorm.reps import _REL_L1_HEAD

    assert WORD_REL_LHS.letters == _REL_L1_HEAD.letters + ((1, 1),)
    assert WORD_L1.letters == _REL_L1_HEAD.letters + ((1, -1),)
    bits = 192
    mul, power = partial(hp_matmul, bits=bits), partial(hp_matpow, bits=bits)
    s, c = HPComplex.from_complex(0.378 - 0.441j, bits), HPComplex.from_complex(1.3 + 0.2j, bits)
    s_inv, one = HPComplex.from_int(1, bits) / s, 1 << bits
    m0 = (s.re, s.im, c.re, c.im, 0, 0, s_inv.re, s_inv.im)
    m1 = (-one, 0, 0, 0, one, 0, -one, 0)
    head = _REL_L1_HEAD.evaluate(m0, m1, mul, power)
    assert mul(head, m1) == WORD_REL_LHS.evaluate(m0, m1, mul, power)
    assert mul(head, power(m1, -1)) == WORD_L1.evaluate(m0, m1, mul, power)
