"""Exact Laurent polynomial arithmetic and the Sylvester resultant.

LaurentPoly maps integer exponents to python int coefficients.  Zero
coefficients are never stored, so the empty map is the zero polynomial.

BivarPoly is the same idea in two variables s, t with integer coefficients;
its only job is to feed the Sylvester matrix in t whose determinant is the
elimination resultant, computed exactly by fraction-free (Bareiss)
elimination over the Laurent ring.
"""

from __future__ import annotations

from .errors import DegenerateInput, InexactDivision, ValidationError


class LaurentPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0} if coeffs else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def variable(cls) -> "LaurentPoly":
        return cls({1: 1})

    @classmethod
    def from_dense(cls, ascending, mindeg: int = 0) -> "LaurentPoly":
        return cls({mindeg + i: c for i, c in enumerate(ascending)})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def mindeg(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return min(self.coeffs)

    @property
    def maxdeg(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    @property
    def span(self) -> int:
        return 0 if self.is_zero else self.maxdeg - self.mindeg

    def __getitem__(self, e: int):
        return self.coeffs.get(e, 0)

    def dense(self) -> tuple[list, int]:
        """Coefficients ascending from mindeg, plus the mindeg offset."""
        if self.is_zero:
            return [], 0
        lo, hi = self.mindeg, self.maxdeg
        out = [0] * (hi - lo + 1)
        for e, c in self.coeffs.items():
            out[e - lo] = c
        return out, lo

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) + c
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v == 0:
                    out.pop(e, None)
                else:
                    out[e] = v
        return LaurentPoly(out)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit s^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers only exist for monomials; use shift")
        result = LaurentPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- substitutions and calculus -----------------------------------------

    def substitute_inv(self) -> "LaurentPoly":
        """s -> 1/s, i.e. negate every exponent."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def substitute_neg(self) -> "LaurentPoly":
        """s -> -s, i.e. flip the sign of odd-exponent coefficients."""
        return LaurentPoly({e: (c if e % 2 == 0 else -c) for e, c in self.coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: e * c for e, c in self.coeffs.items() if e != 0})

    def __call__(self, x):
        """Evaluate, allowing negative exponents (x must be invertible)."""
        if self.is_zero:
            return 0 * x
        dense, lo = self.dense()
        acc = 0
        for c in reversed(dense):
            acc = acc * x + c
        return acc * x**lo if lo >= 0 else acc / x ** (-lo)

    def eval_at_int(self, x: int):
        """Exact evaluation over the integers; requires mindeg >= 0 or x = +-1."""
        if self.is_zero:
            return 0
        if self.mindeg < 0 and x not in (1, -1):
            raise ValueError("exact evaluation with negative exponents needs x = +-1")
        if x in (1, -1):
            return sum(c * (x ** (e % 2)) for e, c in self.coeffs.items())
        dense, lo = self.dense()
        acc = 0
        for c in reversed(dense):
            acc = acc * x + c
        return acc * x**lo

    # -- normal forms --------------------------------------------------------

    def normalize_unit(self) -> "LaurentPoly":
        """Canonical representative up to units +-s^k: mindeg 0 and a
        positive leading (highest-degree) coefficient."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no unit normalization")
        shifted = self.shift(-self.mindeg)
        return -shifted if shifted[shifted.maxdeg] < 0 else shifted

    def unit_equal(self, other: "LaurentPoly") -> bool:
        """Equality up to multiplication by +-s^k."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.normalize_unit() == other.normalize_unit()

    # -- division -----------------------------------------------------------

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division in the Laurent ring; InexactDivision otherwise."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly()
        num, nlo = self.dense()
        den, dlo = divisor.dense()
        if len(num) < len(den):
            raise InexactDivision("dividend span shorter than divisor span")
        num = list(num)
        lead = den[-1]
        qlen = len(num) - len(den) + 1
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            top = num[i + len(den) - 1]
            if top == 0:
                continue
            q, r = divmod(top, lead)
            if r != 0:
                raise InexactDivision(f"leading coefficient {top} not divisible by {lead}")
            quot[i] = q
            for j, dc in enumerate(den):
                num[i + j] -= q * dc
        if any(c != 0 for c in num):
            raise InexactDivision("division left a remainder")
        return LaurentPoly.from_dense(quot, nlo - dlo)

    # -- presentation ---------------------------------------------------------

    def to_json_coeffs(self) -> dict[str, str]:
        """{"exponent": "coefficient"} with decimal big-integer strings."""
        return {str(e): str(self.coeffs[e]) for e in sorted(self.coeffs)}

    @classmethod
    def from_json_coeffs(cls, data: dict[str, str]) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in data.items()})

    def pretty(self, var: str = "s") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "- " if c < 0 else "+ "
            mag = -c if c < 0 else c
            if e == 0:
                term = f"{mag}"
            else:
                pw = var if e == 1 else f"{var}^{e}"
                term = pw if mag == 1 else f"{mag}*{pw}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "- " else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign.strip()} {term}"
        return text

    def __repr__(self):
        return f"LaurentPoly({self.pretty()})"


class BivarPoly:
    """Integer polynomial in s (Laurent) and t (ordinary), as {(es, et): c}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int]):
        self.coeffs = {(int(es), int(et)): int(c) for (es, et), c in coeffs.items() if c != 0}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def t_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return max(et for _, et in self.coeffs)

    def t_coefficient(self, j: int) -> LaurentPoly:
        return LaurentPoly({es: c for (es, et), c in self.coeffs.items() if et == j})

    def __call__(self, s, t):
        return sum(c * s**es * t**et for (es, et), c in self.coeffs.items())


def filling_eigenvalue_poly(p: int, q: int) -> BivarPoly:
    """s^p t^q - 1, the eigenvalue condition of the p/q filling."""
    if q <= 0:
        raise ValidationError("filling polynomial needs q > 0")
    return BivarPoly({(p, q): 1, (0, 0): -1})


def peripheral_quadric() -> BivarPoly:
    """s^4 t^2 + (-s^4 + 4 s^2 - 1) t + 1, the quadric in t cutting out the
    non-reducible component of the eigenvalue variety at u^2 = 1, v = -1."""
    return BivarPoly({(4, 2): 1, (4, 1): -1, (2, 1): 4, (0, 1): -1, (0, 0): 1})


def sylvester_matrix_t(f: BivarPoly, g: BivarPoly) -> list[list[LaurentPoly]]:
    """Sylvester matrix of f and g in t; entries are Laurent polynomials in s."""
    if f.is_zero or g.is_zero:
        raise DegenerateInput("resultant of the zero polynomial")
    m, n = f.t_degree(), g.t_degree()
    if m == 0 or n == 0:
        raise DegenerateInput("resultant needs positive t-degree on both sides")
    fc = [f.t_coefficient(j) for j in range(m, -1, -1)]  # leading first
    gc = [g.t_coefficient(j) for j in range(n, -1, -1)]
    size = m + n
    rows = []
    for i in range(n):
        row = [LaurentPoly()] * size
        row[i : i + m + 1] = fc
        rows.append(row)
    for i in range(m):
        row = [LaurentPoly()] * size
        row[i : i + n + 1] = gc
        rows.append(row)
    return rows


def det_bareiss(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square matrix over the integer Laurent ring by
    fraction-free elimination.  Row pivoting only; every interior division
    is exact by the Sylvester identity."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("determinant needs a square matrix")
    m = [row[:] for row in matrix]
    sign = 1
    prev = LaurentPoly.constant(1)
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly()
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = LaurentPoly()
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def det_cofactor(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Cofactor-expansion determinant; quadratic blowup, for small sizes and
    for cross-checking the elimination path."""
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


def sylvester_resultant_t(f: BivarPoly, g: BivarPoly) -> LaurentPoly:
    """Resultant of f and g with respect to t, exact over Z[s, 1/s]."""
    return det_bareiss(sylvester_matrix_t(f, g))
