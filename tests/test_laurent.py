
import pytest
from hypothesis import given, settings, strategies as st

import whitenorm.laurent as laurent
from whitenorm.errors import ValidationError
from whitenorm.laurent import LaurentPoly, det_exact, sylvester_matrix_t, sylvester_resultant_t

S = LaurentPoly({1: 1})
ONE = LaurentPoly.constant(1)
Z = LaurentPoly()
# s^4 t^2 + (-s^4 + 4 s^2 - 1) t + 1, by its t-coefficients, leading first
QUADRIC = [LaurentPoly({4: 1}), LaurentPoly({4: -1, 2: 4, 0: -1}), ONE]


def filling(p, q):
    """s^p t^q - 1, by its t-coefficients, leading first."""
    return [LaurentPoly({p: 1})] + [Z] * (q - 1) + [LaurentPoly({0: -1})]


def evaluate(f, x):
    """f at x by Horner's rule on its dense coefficients; x must be
    invertible when f has negative exponents."""
    dense, lo = f.dense()
    acc = 0
    for c in reversed(dense):
        acc = acc * x + c
    return acc * x**lo if lo >= 0 else acc / x ** (-lo)


def small_laurent(min_coeff=-9, max_coeff=9):
    return st.dictionaries(st.integers(-4, 4), st.integers(min_coeff, max_coeff), max_size=6).map(
        LaurentPoly
    )


def test_ring_smoke():
    assert (S - ONE) * (S + ONE) == LaurentPoly({2: 1, 0: -1})
    assert LaurentPoly({2: 1, 0: 3}).substitute_inv() == LaurentPoly({-2: 1, 0: 3})
    assert LaurentPoly({3: 1, 2: 1}).substitute_neg() == LaurentPoly({3: -1, 2: 1})
    assert LaurentPoly({5: 0}).is_zero


def test_evaluation_and_derivative():
    f = LaurentPoly({2: 1, 0: -3, -1: 2})
    assert evaluate(f, 2.0) == pytest.approx(4 - 3 + 1)
    # f = (s - 1)^2 (s + 2) / s: the exact split at +-1 gives the orders and quotients
    assert f.split_root(1) == (2, LaurentPoly({0: 1, -1: 2}))
    assert f.split_root(-1) == (0, f)
    assert evaluate(f, -1) == 1 - 3 - 2


def test_normalize_unit_examples():
    assert LaurentPoly({3: 1, 5: -1}).normalize_unit() == LaurentPoly({2: 1, 0: -1})
    assert LaurentPoly({-2: -1}).normalize_unit() == ONE
    assert LaurentPoly({1: 2, 0: -2}).normalize_unit() == LaurentPoly({1: 2, 0: -2})


@given(small_laurent().filter(lambda f: not f.is_zero), st.integers(-5, 5), st.booleans())
def test_normalize_unit_is_canonical(f, k, neg):
    g = f.shift(k)
    if neg:
        g = -g
    assert g.normalize_unit() == f.normalize_unit()
    assert f.normalize_unit().normalize_unit() == f.normalize_unit()
    assert f.normalize_unit().mindeg == 0
    assert f.unit_equal(g)


@given(small_laurent(), small_laurent(), small_laurent())
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# a dense-list reference for the ring operations: coefficient of s^e at
# index e + _OFF, wide enough for products and shifts of small_laurent
_OFF = 16


def _dense(f: LaurentPoly) -> list[int]:
    out = [0] * (2 * _OFF + 1)
    for e, c in f.coeffs.items():
        out[e + _OFF] = c
    return out


def _dense_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                out[i + j - _OFF] += x * y
    return out


def _dense_shift(a: list[int], k: int) -> list[int]:
    return [a[i - k] if 0 <= i - k < len(a) else 0 for i in range(len(a))]


@given(small_laurent(), small_laurent(), st.integers(-5, 5))
@settings(max_examples=200)
def test_ring_operations_match_dense_reference(a, b, k):
    da, db = _dense(a), _dense(b)
    cases = [
        (a + b, [x + y for x, y in zip(da, db)]),
        (a - b, [x - y for x, y in zip(da, db)]),
        (a * b, _dense_mul(da, db)),
        (-a, [-x for x in da]),
        (a.shift(k), _dense_shift(da, k)),
        (a - a, [0] * len(da)),
        (a + (-a), [0] * len(da)),
        ((a + b) - b, da),
        (a * b - b * a, [0] * len(da)),
    ]
    for got, want in cases:
        assert _dense(got) == want
        assert 0 not in got.coeffs.values()


def test_cancelling_operations_store_no_zero():
    assert ((S - ONE) * (S + ONE) - S * S + ONE).coeffs == {}


def test_sylvester_of_linear_factors():
    # f = t - a(s), g = t - b(s): the resultant is a - b up to sign
    a = LaurentPoly({2: 1, 0: 3})
    b = LaurentPoly({1: -2, 0: 1})
    res = sylvester_resultant_t([ONE, -a], [ONE, -b])
    assert res.unit_equal(a - b)


def _det3_by_rule(m):
    """Sarrus cofactor formula, written out; independent of det_exact."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_resultant_1_1_against_written_out_determinant():
    row_k1 = [LaurentPoly({1: 1}), LaurentPoly({0: -1}), Z]
    matrix = [
        row_k1,
        [Z] + row_k1[:2],
        [LaurentPoly({4: 1}), LaurentPoly({4: -1, 2: 4, 0: -1}), ONE],
    ]
    by_rule = _det3_by_rule(matrix)
    assert sylvester_resultant_t(filling(1, 1), QUADRIC).unit_equal(by_rule)
    assert by_rule.normalize_unit() == LaurentPoly({4: 1, 3: -1, 2: -4, 1: -1, 0: 1})


def test_resultant_2_1_frozen():
    res = sylvester_resultant_t(filling(2, 1), QUADRIC)
    assert res.normalize_unit() == LaurentPoly({4: 1, 2: -6, 0: 1})


def test_resultant_rejects_degenerate_inputs():
    # t-degree 0, no coefficient at all, and a zero leading coefficient
    for f in ([LaurentPoly({3: 1})], [], [Z, S, ONE]):
        with pytest.raises(ValidationError):
            sylvester_resultant_t(f, QUADRIC)
        with pytest.raises(ValidationError):
            sylvester_resultant_t(QUADRIC, f)


def test_resultant_vanishes_iff_common_root():
    # plant linear factors with known intersections: f = (t - c0)(t - c1),
    # g = (t - c0)(t - c2) share a factor -> resultant identically zero
    def lin(poly):
        return [ONE, -poly]

    def mul2(f, g):
        # product of two polynomials in t, by t-coefficients leading first
        out = [Z] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
        return out

    c0 = LaurentPoly({1: 1, 0: 2})
    c1 = LaurentPoly({2: 1})
    c2 = LaurentPoly({0: 5})
    shared = sylvester_resultant_t(mul2(lin(c0), lin(c1)), mul2(lin(c0), lin(c2)))
    assert shared.is_zero

    # no shared factor: res(s0) = 0 exactly when two planted roots collide at s0
    f = mul2(lin(c1), lin(c2))  # roots s^2 and 5
    g = lin(c0)                 # root s + 2
    res = sylvester_resultant_t(f, g)
    for s0 in range(-6, 7):
        collide = (s0 * s0 == s0 + 2) or (5 == s0 + 2)
        assert (evaluate(res, s0) == 0) == collide, s0


def test_resultant_nonzero_when_roots_stay_apart():
    # seeded pseudo-random integer bivariate polynomials, brute-force root
    # comparison at integer points of s
    import numpy as np

    rng_state = 12345

    def next_coeff():
        nonlocal rng_state
        rng_state = (1103515245 * rng_state + 12345) % (1 << 31)
        return rng_state % 7 - 3

    def t_coefficients():
        # the coefficient of s^es t^et is the (3 es + et)-th draw; t-degree
        # at most 2, leading first, with leading zero coefficients dropped
        draws = [next_coeff() for _ in range(9)]
        coeffs = [LaurentPoly({es: draws[3 * es + et] for es in range(3)}) for et in (2, 1, 0)]
        while coeffs and coeffs[0].is_zero:
            coeffs.pop(0)
        return coeffs

    for _ in range(12):
        f, g = t_coefficients(), t_coefficients()
        if len(f) < 2 or len(g) < 2:
            continue
        res = sylvester_resultant_t(f, g)
        for s0 in range(-3, 4):
            fc = [evaluate(c, s0) for c in f]
            gc = [evaluate(c, s0) for c in g]
            if fc[0] == 0 or gc[0] == 0 or s0 == 0:
                continue  # leading coefficient vanishes: resultant theory degrades
            dist = min(
                (abs(a - b) for a in np.roots(fc) for b in np.roots(gc)),
                default=float("inf"),
            )
            if dist > 1e-6:
                assert evaluate(res, s0) != 0, (s0, fc, gc)


def det_cofactor(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Cofactor-expansion determinant: the oracle for det_exact, with a
    factorial blowup that keeps it to small sizes."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = LaurentPoly()
    for j in range(n):
        if matrix[0][j].is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in matrix[1:]]
        term = matrix[0][j] * det_cofactor(minor)
        total = total + (-term if j % 2 else term)
    return total


def test_bareiss_matches_cofactor():
    for p, q in [(1, 1), (2, 1), (3, 2), (-1, 1), (5, 3)]:
        m = sylvester_matrix_t(filling(p, q), QUADRIC)
        assert det_exact(m) == det_cofactor(m)


def test_bareiss_zero_pivot_and_singular():
    z = LaurentPoly()
    m = [[z, ONE], [S, z]]
    assert det_exact(m) == -(S * ONE)
    singular = [[S, S], [S, S]]
    assert det_exact(singular).is_zero
    assert det_cofactor(singular).is_zero


def test_unit_pivot_after_row_swap():
    # column 0 has its only unit s^2 in row 1: one swap, so the sign flips
    two, three = LaurentPoly.constant(2), LaurentPoly.constant(3)
    m = [[two, S], [S**2, three]]
    assert det_exact(m) == det_cofactor(m) == LaurentPoly({0: 6, 3: -1})
    m3 = [[two, S, ONE], [S**2, three, S + ONE], [S + ONE, LaurentPoly(), LaurentPoly({0: 5})]]
    assert det_exact(m3) == det_cofactor(m3)


def test_negative_unit_pivot():
    m = [
        [LaurentPoly({3: -1}), LaurentPoly({0: 2}), ONE],
        [LaurentPoly({0: 4}), S + ONE, LaurentPoly()],
        [S, LaurentPoly({0: 3}), LaurentPoly({-1: 2})],
    ]
    assert det_exact(m) == det_cofactor(m)


def test_no_unit_pivot_is_bareiss_only():
    m = [
        [LaurentPoly({0: 2}), S + ONE, LaurentPoly({1: 3})],
        [S + LaurentPoly({0: 2}), LaurentPoly({0: 2}), LaurentPoly()],
        [LaurentPoly(), S**2 + ONE, LaurentPoly({0: 3})],
    ]
    assert not any(entry.is_unit for row in m for entry in row)
    assert det_exact(m) == det_cofactor(m)


def test_unit_steps_then_singular_remainder():
    # one unit column, then the trailing block [[x, y], [2x, 2y]] with no unit
    a, b, c, d = S + ONE, LaurentPoly({-1: 3}), LaurentPoly({0: 2}), S**2
    x, y = S + LaurentPoly({0: 2}), LaurentPoly({0: 3})
    m = [[ONE, a, b], [c, c * a + x, c * b + y], [d, d * a + x + x, d * b + y + y]]
    assert det_exact(m).is_zero
    assert det_cofactor(m).is_zero


def test_one_by_one():
    for entry in (LaurentPoly({3: -1}), S + LaurentPoly({0: 2}), LaurentPoly()):
        assert det_exact([[entry]]) == det_cofactor([[entry]]) == entry


def test_sylvester_leaves_two_by_two_to_cofactors(monkeypatch):
    # s^4, the quadric's leading t-coefficient, is the unit pivot of its q
    # rows; only the filling rows' last 2 x 2 block is left to expand
    sizes = []
    honest = laurent._cofactor_det

    def spy(block):
        sizes.append(len(block))
        return honest(block)

    monkeypatch.setattr(laurent, "_cofactor_det", spy)
    m = sylvester_matrix_t(QUADRIC, filling(65, 20))
    det_exact(m)
    # the one 2 x 2 block, then the two 1 x 1 minors its expansion recurses into
    assert sizes == [2, 1, 1]


def sparse_entry():
    unit = st.tuples(st.integers(-3, 3), st.sampled_from((1, -1))).map(
        lambda ec: LaurentPoly({ec[0]: ec[1]})
    )
    other = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3).map(LaurentPoly)
    return st.one_of(st.just(LaurentPoly()), unit, other)


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 4))
    return [[draw(sparse_entry()) for _ in range(n)] for _ in range(n)]


@given(sparse_matrices())
@settings(max_examples=100, deadline=None)
def test_bareiss_matches_cofactor_on_sparse_matrices(m):
    assert det_exact(m) == det_cofactor(m)


def test_json_roundtrip():
    f = LaurentPoly({-2: 3, 0: -(10**30), 5: 7})
    data = f.to_json_coeffs()
    assert data == {"-2": "3", "0": str(-(10**30)), "5": "7"}
    assert LaurentPoly({int(e): int(c) for e, c in data.items()}) == f


def test_coprime_modulo_the_prime_in_either_order():
    # laurent.coprime shares _squarefree's Euclid loop, which divides the
    # longer residue list by the shorter whichever comes first
    factor, other = LaurentPoly({1: 1, 0: -2}), LaurentPoly({4: 1, 1: 3, 0: 5})
    f = (factor * LaurentPoly({2: 1, 0: 1})).dense()[0]
    g = (factor * other).dense()[0]
    h = other.dense()[0]
    assert not laurent.coprime(f, g) and not laurent.coprime(g, f)
    assert laurent.coprime(f, h) and laurent.coprime(h, f)
    # a leading coefficient the prime divides proves nothing: refused
    assert not laurent.coprime([1, 2**61 - 1], h)
