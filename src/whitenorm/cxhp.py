"""Fixed-point complex arithmetic on plain python ints: the package's one
implementation of it.

A value is (re, im) scaled by 2^bits, and the caller always says how many
fraction bits: the root solve lifts its start on a ladder of 128 to 768
bits (roots._RUNGS), and reconstruction sizes its precision per class
(reps._bits), since the filling relation cancels entries of size
max(|s|, 1/|s|)^|p| down to I, which at 129/32 takes more than 768 bits.

Two layers share one set of formulas.  The raw kernel (`hp`, `hp_int`,
`hp_float`, `hp_abs`, `hp_mul`, `hp_div`, `hp_horner`, and `hp_matmul`,
`hp_matpow` on 2x2 matrices) works on (re, im) int tuples, takes the
fraction bits as its last argument, and serves the hot loops: the
inclusion discs of the root solve (roots._inclusion_discs, `hp_horner`'s
one user) and the group words of reconstruction (reps._verify).
`HPComplex` wraps the same kernel in operators for scalar formulas, the
Newton lifts on res's closed form (respq._res_value) and on x^|p| - 1
among them; each value carries its fraction bits, and an operation on two
precisions raises, as does one on a float or complex operand, which
from_complex converts explicitly.

Only ring operations and division are provided; everything is
deterministic, so identical inputs give identical bits on every platform.
"""

from __future__ import annotations

import math

HP = tuple[int, int]
# a 2x2 matrix (a, b; c, d) as (a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im)
HPMat = tuple[int, int, int, int, int, int, int, int]


# ---------------------------------------------------------------------------
# raw (re, im) kernel


def _fixed(x: float, bits: int) -> int:
    # exact at any bits, where round(ldexp(x, bits)) overflows past about
    # 1020; inf and nan raise OverflowError and ValueError as round does
    m, e = math.frexp(x)
    shift = e - 53 + bits
    return int(math.ldexp(m, 53)) << shift if shift >= 0 else round(math.ldexp(x, bits))


def hp(z: complex, bits: int) -> HP:
    return _fixed(z.real, bits), _fixed(z.imag, bits)


def hp_int(n: int, bits: int) -> HP:
    return n << bits, 0


def hp_float(v: HP, bits: int) -> complex:
    one = 1 << bits
    return complex(v[0] / one, v[1] / one)


def hp_abs(v: HP, bits: int) -> float:
    """|v| / 2^bits as a float, to a relative error below 2^-51 (int to
    float, hypot): beyond 500 bits the parts are shifted down first, so a
    huge value stays inside float range."""
    re, im = v
    shift = max(0, re.bit_length() - 500, im.bit_length() - 500)
    return math.ldexp(math.hypot(re >> shift, im >> shift), shift - bits)


def hp_mul(u: HP, v: HP, bits: int) -> HP:
    a, b = u
    c, d = v
    return (a * c - b * d) >> bits, (a * d + b * c) >> bits


def hp_div(u: HP, v: HP, bits: int) -> HP:
    a, b = u
    c, d = v
    den = c * c + d * d
    if den == 0:
        raise ZeroDivisionError("division by zero in fixed-point complex")
    return ((a * c + b * d) << bits) // den, ((b * c - a * d) << bits) // den


def hp_horner(int_coeffs: list[int], z: HP, bits: int) -> HP:
    """Value at z of the polynomial with ascending integer coefficients.

    Each product, hp_mul's formula inline on local ints, truncates both
    parts by less than one unit of 2^-bits, so the value is off by less than
    sqrt(2) * sum_{k<n} |z|^k units, n the degree (see roots._horner_error)."""
    zr, zi = z
    re = im = 0
    for c in reversed(int_coeffs):
        re, im = ((re * zr - im * zi) >> bits) + (c << bits), (re * zi + im * zr) >> bits
    return re, im


def hp_matmul(x: HPMat, y: HPMat, bits: int) -> HPMat:
    """The product x y.  Each entry sums two products, each truncated as
    hp_mul truncates it, so the bits are those of the textbook formula
    written with HPComplex operators."""
    ar, ai, br, bi, cr, ci, dr, di = x
    er, ei, fr, fi, gr, gi, hr, hi = y
    return (
        ((ar * er - ai * ei) >> bits) + ((br * gr - bi * gi) >> bits),
        ((ar * ei + ai * er) >> bits) + ((br * gi + bi * gr) >> bits),
        ((ar * fr - ai * fi) >> bits) + ((br * hr - bi * hi) >> bits),
        ((ar * fi + ai * fr) >> bits) + ((br * hi + bi * hr) >> bits),
        ((cr * er - ci * ei) >> bits) + ((dr * gr - di * gi) >> bits),
        ((cr * ei + ci * er) >> bits) + ((dr * gi + di * gr) >> bits),
        ((cr * fr - ci * fi) >> bits) + ((dr * hr - di * hi) >> bits),
        ((cr * fi + ci * fr) >> bits) + ((dr * hi + di * hr) >> bits),
    )


def hp_matpow(x: HPMat, n: int, bits: int) -> HPMat:
    """x^n for x of determinant 1: n < 0 starts from the inverse
    (d, -b; -c, a), the first factor is taken as it is, and squaring stops
    after the top bit.  x^0 is the identity."""
    if n < 0:
        ar, ai, br, bi, cr, ci, dr, di = x
        x, n = (dr, di, -br, -bi, -cr, -ci, ar, ai), -n
    out = None
    while n:
        if n & 1:
            out = x if out is None else hp_matmul(out, x, bits)
        n >>= 1
        if n:
            x = hp_matmul(x, x, bits)
    return (1 << bits, 0, 0, 0, 0, 0, 1 << bits, 0) if out is None else out


# ---------------------------------------------------------------------------
# operator wrapper


class HPComplex:
    __slots__ = ("re", "im", "bits")

    def __init__(self, re: int, im: int, bits: int):
        self.re = re
        self.im = im
        self.bits = bits

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_complex(cls, z, bits: int) -> "HPComplex":
        return cls(*hp(complex(z), bits), bits)

    @classmethod
    def from_int(cls, n: int, bits: int) -> "HPComplex":
        return cls(*hp_int(n, bits), bits)

    def to_complex(self) -> complex:
        return hp_float((self.re, self.im), self.bits)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "HPComplex":
        if isinstance(other, HPComplex):
            if other.bits != self.bits:
                raise ValueError(f"fixed-point operands at {self.bits} and {other.bits} bits")
            return other
        if isinstance(other, int):
            return HPComplex.from_int(other, self.bits)
        # a double carries 53 bits into arithmetic of hundreds: convert it
        # on purpose, with from_complex
        raise TypeError(f"fixed-point operand must be HPComplex or int, not {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return HPComplex(self.re + o.re, self.im + o.im, self.bits)

    def __sub__(self, other):
        o = self._coerce(other)
        return HPComplex(self.re - o.re, self.im - o.im, self.bits)

    def __rsub__(self, other):
        o = self._coerce(other)
        return HPComplex(o.re - self.re, o.im - self.im, self.bits)

    def __neg__(self):
        return HPComplex(-self.re, -self.im, self.bits)

    def __mul__(self, other):
        if isinstance(other, int):
            # hp_mul by (n << bits, 0) multiplies each part by n exactly
            return HPComplex(self.re * other, self.im * other, self.bits)
        o = self._coerce(other)
        return HPComplex(*hp_mul((self.re, self.im), (o.re, o.im), self.bits), self.bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return HPComplex(*hp_div((self.re, self.im), (o.re, o.im), self.bits), self.bits)

    def __abs__(self) -> float:
        return hp_abs((self.re, self.im), self.bits)

    def __repr__(self):
        return f"HPComplex({self.to_complex()!r}, bits={self.bits})"
