"""Exact Laurent polynomial arithmetic and the Sylvester resultant.

LaurentPoly maps integer exponents to python int coefficients.  Zero
coefficients are never stored, so the empty map is the zero polynomial.

The Sylvester matrix in t of two polynomials, given by their t-coefficients
in LaurentPoly, has the elimination resultant as its determinant, computed
exactly over the Laurent ring: elimination on unit pivots +-s^e first,
which divides exactly, then cofactor expansion on the block left.
"""

from __future__ import annotations

from .errors import ValidationError


class LaurentPoly:
    """{exponent: coefficient}, no zero stored; each ring operation filters
    once (+ and - in their one pass, * at its end; _of skips the constructor's)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0} if coeffs else {}

    @classmethod
    def _of(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def from_dense(cls, ascending, mindeg: int = 0) -> "LaurentPoly":
        return cls({mindeg + i: c for i, c in enumerate(ascending)})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_unit(self) -> bool:
        """Whether this is +-s^e, a unit of Z[s, 1/s]."""
        return len(self.coeffs) == 1 and abs(next(iter(self.coeffs.values()))) == 1

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
                del out[e]
            else:
                out[e] = v
        return LaurentPoly._of(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) - c
            if v == 0:
                del out[e]
            else:
                out[e] = v
        return LaurentPoly._of(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        get = out.get
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit s^k."""
        return LaurentPoly._of({e + k: c for e, c in self.coeffs.items()})

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

    # -- substitutions ------------------------------------------------------

    def substitute_inv(self) -> "LaurentPoly":
        """s -> 1/s, i.e. negate every exponent."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def substitute_neg(self) -> "LaurentPoly":
        """s -> -s, i.e. flip the sign of odd-exponent coefficients."""
        return LaurentPoly({e: (c if e % 2 == 0 else -c) for e, c in self.coeffs.items()})

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

    def split_root(self, x: int) -> tuple[int, "LaurentPoly"]:
        """The exact order of the integer x as a root of this non-zero
        polynomial, and the quotient by (s - x) to that power: while f(x) = 0,
        f is divided exactly by s - x.  One synthetic-division pass gives
        both the quotient and the remainder f(x)."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no root order")
        dense, lo = self.dense()
        order = 0
        while True:
            acc, steps = 0, []
            for c in reversed(dense):
                acc = acc * x + c
                steps.append(acc)
            if acc != 0:
                return order, LaurentPoly.from_dense(dense, lo) if order else self
            dense = steps[-2::-1]
            order += 1

    # -- presentation ---------------------------------------------------------

    def to_json_coeffs(self) -> dict[str, str]:
        """{"exponent": "coefficient"} with decimal big-integer strings."""
        return {str(e): str(self.coeffs[e]) for e in sorted(self.coeffs)}

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


# a prime of 61 bits: residues stay small ints, and a squarefree f fails the
# test only when the prime divides its discriminant
_PRIME = (1 << 61) - 1


def _gcd_is_one(a: list[int], b: list[int]) -> bool:
    """Whether gcd(a, b) = 1 modulo _PRIME, for residue lists with the
    leading coefficient first and a[0] != 0; both lists are consumed.
    Each pass divides the longer by the shorter, leaving the shorter and
    the remainder with its leading zeros dropped."""
    while True:
        while b and b[0] == 0:
            b.pop(0)
        if not b:
            return len(a) == 1
        if len(a) < len(b):
            a, b = b, a
        inv = pow(b[0], -1, _PRIME)
        for k in range(len(a) - len(b) + 1):
            m = a[k] * inv % _PRIME
            a[k : k + len(b)] = [(x - m * y) % _PRIME for x, y in zip(a[k : k + len(b)], b)]
        a, b = b, a[len(a) - len(b) + 1 :]


def _squarefree(int_coeffs: tuple[int, ...]) -> bool:
    """Whether gcd(f, f') = 1 modulo the prime 2^61 - 1 for the integer
    polynomial f = sum_i int_coeffs[i] s^i, and the prime does not divide
    its leading coefficient.  Then f is squarefree over Q: a square factor
    g^2 of f over Z keeps its degree modulo the prime and would divide both
    f and f' there.  False proves nothing over Q: the prime may divide the
    discriminant of a squarefree f."""
    a = [c % _PRIME for c in reversed(int_coeffs)]
    if a[0] == 0:
        return False
    return _gcd_is_one(a, [i * c % _PRIME for i, c in enumerate(int_coeffs)][:0:-1])


def coprime(f: list[int], g: list[int]) -> bool:
    """Whether gcd(f, g) = 1 modulo the prime 2^61 - 1 for the non-zero
    integer polynomials with ascending coefficients f and g, and the prime
    divides neither leading coefficient.  Then f and g have no common root:
    a common factor over Z keeps its degree modulo the prime.  False proves
    nothing over Q."""
    a, b = ([c % _PRIME for c in reversed(h)] for h in (f, g))
    return a[0] != 0 and b[0] != 0 and _gcd_is_one(a, b)


def squarefree_refusal(int_coeffs: tuple[int, ...]) -> ValidationError | None:
    """None when _squarefree certifies sum_i int_coeffs[i] s^i, what a
    polynomial leaves after its +-1 split (LaurentPoly.split_root), else
    the error to raise; the test is modular, so the refusal alone proves
    no repeated root."""
    if _squarefree(int_coeffs):
        return None
    return ValidationError(
        f"the degree-{len(int_coeffs) - 1} polynomial left after the +-1 split is not certified "
        "squarefree: gcd(f, f') != 1 modulo 2^61 - 1"
    )


def sylvester_matrix_t(f: list[LaurentPoly], g: list[LaurentPoly]) -> list[list[LaurentPoly]]:
    """Sylvester matrix in t of two polynomials given by their t-coefficients,
    leading first; entries are Laurent polynomials in s."""
    if len(f) < 2 or len(g) < 2:
        raise ValidationError("resultant needs positive t-degree on both sides")
    if f[0].is_zero or g[0].is_zero:
        raise ValidationError("resultant needs a non-zero leading t-coefficient on both sides")
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [LaurentPoly()] * size
        row[i : i + m + 1] = f
        rows.append(row)
    for i in range(m):
        row = [LaurentPoly()] * size
        row[i : i + n + 1] = g
        rows.append(row)
    return rows


def det_exact(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square matrix over the integer Laurent ring,
    with row pivoting only, in two phases.

    Unit pivots first: while column k has an entry +-s^e in some row i >= k,
    that row is swapped up and divided exactly into the rows below.  Only
    the rows with a non-zero entry in column k, and only the pivot row's
    non-zero columns, are touched.  On the Sylvester matrix of the
    peripheral quadric, whose leading t-coefficient s^4 is a unit, the
    quadric's rows keep s^4 on the diagonal and only the two filling rows
    change, so this leaves a block of 2 x 2 or smaller.  Cofactor expansion
    then finishes the block left, with no division."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("determinant needs a square matrix")
    m = [row[:] for row in matrix]
    sign = 1
    unit_exp = 0  # the unit pivots so far multiply to sign * s^unit_exp
    start = 0
    while start < n:
        k = start
        i = next((i for i in range(k, n) if m[i][k].is_unit), None)
        if i is None:
            break
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        ((e, c),) = m[k][k].coeffs.items()
        sign *= c
        unit_exp += e
        cols = [j for j in range(k + 1, n) if not m[k][j].is_zero]
        for i in range(k + 1, n):
            if m[i][k].is_zero:
                continue
            mult = m[i][k].shift(-e)  # m[i][k] / (+-s^e), up to the sign c
            if c < 0:
                mult = -mult
            for j in cols:
                m[i][j] = m[i][j] - mult * m[k][j]
            m[i][k] = LaurentPoly()
        start += 1
    det = _cofactor_det([row[start:] for row in m[start:]]).shift(unit_exp)
    return -det if sign < 0 else det


def _cofactor_det(block: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by cofactor expansion along the first row; 1 for the
    empty block."""
    if len(block) <= 1:
        return block[0][0] if block else LaurentPoly.constant(1)
    total = LaurentPoly()
    for j, entry in enumerate(block[0]):
        if not entry.is_zero:
            term = entry * _cofactor_det([row[:j] + row[j + 1 :] for row in block[1:]])
            total = total - term if j % 2 else total + term
    return total


def sylvester_resultant_t(f: list[LaurentPoly], g: list[LaurentPoly]) -> LaurentPoly:
    """Resultant in t, exact over Z[s, 1/s], of two polynomials given by
    their t-coefficients, leading first."""
    return det_exact(sylvester_matrix_t(f, g))
