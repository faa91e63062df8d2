"""Fixed-point complex arithmetic on plain python ints: the package's one
implementation of it.

A value is (re, im) scaled by 2^bits.  BITS = 768 fraction bits (~230
decimal digits) cover the worst amplification met in this package:
verifying the filling relation multiplies entries of size |s|^p ~ 1e48,
whose products cancel down to ~1e-14, and certifying root symmetry classes
needs to beat condition numbers beyond 1e13.  768 bits is also the top
rung of the root refinement's precision ladder (roots._RUNGS), whose lower
rungs run the same kernel at 128, 256 and 512 bits.

Two layers share one set of formulas.  The raw kernel (`hp`, `hp_int`,
`hp_float`, `hp_abs`, `hp_mul`, `hp_div`, `hp_horner`) works on (re, im) int tuples,
takes the fraction bits as its last argument (default BITS), and serves
the hot loops: root refinement and Newton steps on integer polynomials.
`HPComplex` wraps the same kernel at BITS in operators for the matrix
code.

Only ring operations, division and square root are provided; everything is
deterministic, so identical inputs give identical bits on every platform.
"""

from __future__ import annotations

import cmath
import math

BITS = 768

HP = tuple[int, int]


# ---------------------------------------------------------------------------
# raw (re, im) kernel


def hp(z: complex, bits: int = BITS) -> HP:
    return round(math.ldexp(z.real, bits)), round(math.ldexp(z.imag, bits))


def hp_int(n: int, bits: int = BITS) -> HP:
    return n << bits, 0


def hp_float(v: HP, bits: int = BITS) -> complex:
    one = 1 << bits
    return complex(v[0] / one, v[1] / one)


def hp_abs(v: HP, bits: int = BITS) -> float:
    """|v| / 2^bits as a float, to a relative error below 2^-51 (int to
    float, hypot): beyond 500 bits the parts are shifted down first, so a
    huge value stays inside float range."""
    re, im = v
    shift = max(0, re.bit_length() - 500, im.bit_length() - 500)
    return math.ldexp(math.hypot(re >> shift, im >> shift), shift - bits)


def hp_mul(u: HP, v: HP, bits: int = BITS) -> HP:
    a, b = u
    c, d = v
    return (a * c - b * d) >> bits, (a * d + b * c) >> bits


def hp_div(u: HP, v: HP, bits: int = BITS) -> HP:
    a, b = u
    c, d = v
    den = c * c + d * d
    if den == 0:
        raise ZeroDivisionError("division by zero in fixed-point complex")
    return ((a * c + b * d) << bits) // den, ((b * c - a * d) << bits) // den


def hp_horner(int_coeffs: list[int], z: HP, bits: int = BITS) -> HP:
    """Value at z of the polynomial with ascending integer coefficients.

    Each product truncates both parts by less than one unit of 2^-bits, so
    the value is off by less than sqrt(2) * sum_{k<n} |z|^k units, n the
    degree (see roots._horner_error)."""
    acc = (0, 0)
    for c in reversed(int_coeffs):
        acc = hp_mul(acc, z, bits)
        acc = (acc[0] + (c << bits), acc[1])
    return acc


# ---------------------------------------------------------------------------
# operator wrapper


class HPComplex:
    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_complex(cls, z) -> "HPComplex":
        return cls(*hp(complex(z)))

    @classmethod
    def from_int(cls, n: int) -> "HPComplex":
        return cls(*hp_int(n))

    def to_complex(self) -> complex:
        return hp_float((self.re, self.im))

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "HPComplex":
        if isinstance(other, HPComplex):
            return other
        if isinstance(other, int):
            return HPComplex.from_int(other)
        return HPComplex.from_complex(other)

    def __add__(self, other):
        o = self._coerce(other)
        return HPComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return HPComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        return HPComplex(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return HPComplex(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        return HPComplex(*hp_mul((self.re, self.im), (o.re, o.im)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return HPComplex(*hp_div((self.re, self.im), (o.re, o.im)))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __eq__(self, other):
        o = self._coerce(other)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __abs__(self) -> float:
        return hp_abs((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- functions ------------------------------------------------------------

    def sqrt(self) -> "HPComplex":
        if self.is_zero():
            return HPComplex(0, 0)
        seed = cmath.sqrt(self.to_complex())
        if seed == 0:
            seed = 1e-150  # extreme underflow: let Newton recover
        x = HPComplex.from_complex(seed)
        for _ in range(9):
            x = (x + self / x) / 2
        return x

    def __repr__(self):
        return f"HPComplex({self.to_complex()!r})"
