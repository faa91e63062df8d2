"""Slope arithmetic on a torus boundary.

A slope is a primitive pair (p, q) up to sign, written as the rational p/q
with inf = 1/0.  The canonical representative has q > 0, or (p, q) = (1, 0)
for inf.  Distance between slopes is the geometric intersection number
|p1*q2 - q1*p2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateSlope, ValidationError


class SlopeRange(Enum):
    """Which interval of the real line a finite slope p/q falls in.

    The endpoints 0, 2, 4 get their own markers; callers that only make
    sense on an open interval must treat the markers explicitly.
    """

    NEG_INF_0 = "(-inf,0)"
    ZERO_2 = "(0,2)"
    TWO_4 = "(2,4)"
    FOUR_INF = "(4,inf)"
    AT_0 = "0"
    AT_2 = "2"
    AT_4 = "4"


@dataclass(frozen=True, order=True)
class Slope:
    """A canonical slope: coprime (p, q) with q > 0, or (1, 0) for inf."""

    p: int
    q: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not isinstance(self.q, int):
            raise ValidationError(f"slope entries must be integers, got ({self.p!r}, {self.q!r})")
        if self.p == 0 and self.q == 0:
            raise ValidationError("(0, 0) is not a slope")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise ValidationError(f"({self.p}, {self.q}) is not primitive; refusing to reduce silently")
        if self.q < 0 or (self.q == 0 and self.p != 1):
            raise ValidationError(f"({self.p}, {self.q}) is not in canonical form (need q > 0 or (1, 0))")

    @classmethod
    def of(cls, p: int, q: int) -> "Slope":
        """Canonicalize the sign of a primitive pair.  Non-coprime input is an error."""
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return cls(p, q)

    @classmethod
    def reduced(cls, num: int, den: int) -> "Slope":
        """Build a slope from a possibly non-primitive fraction (used for
        formula outputs, never for user input)."""
        if num == 0 and den == 0:
            raise DegenerateSlope("0/0 has no slope")
        g = math.gcd(abs(num), abs(den))
        return cls.of(num // g, den // g)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        text = text.strip()
        if text in ("inf", "-inf", "1/0"):
            return cls(1, 0)
        if "/" in text:
            a, b = text.split("/", 1)
            try:
                return cls.of(int(a), int(b))
            except ValueError as exc:
                raise ValidationError(f"cannot parse slope {text!r}") from exc
        try:
            return cls.of(int(text), 1)
        except ValueError as exc:
            raise ValidationError(f"cannot parse slope {text!r}") from exc

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return "inf" if self.q == 0 else f"{self.p}/{self.q}"


INFINITY = Slope(1, 0)


def distance(g1: Slope, g2: Slope) -> int:
    """Geometric intersection number of two slopes."""
    return abs(g1.p * g2.q - g1.q * g2.p)


def classify_range(r: Slope) -> SlopeRange:
    """Locate a finite slope among the intervals cut out by {0, 2, 4}."""
    if r.is_infinite:
        raise ValidationError("range classification needs a finite slope")
    p, q = r.p, r.q
    if p == 0:
        return SlopeRange.AT_0
    if p == 2 * q:
        return SlopeRange.AT_2
    if p == 4 * q:
        return SlopeRange.AT_4
    if p < 0:
        return SlopeRange.NEG_INF_0
    if p < 2 * q:
        return SlopeRange.ZERO_2
    if p < 4 * q:
        return SlopeRange.TWO_4
    return SlopeRange.FOUR_INF


def validate_filling(p: int, q: int) -> None:
    """Raise ValidationError unless (p, q) names a filling: integers with
    q > 0 and gcd(p, q) = 1."""
    if not isinstance(p, int) or not isinstance(q, int):
        raise ValidationError(f"filling coefficients must be integers, got ({p!r}, {q!r})")
    if q <= 0:
        raise ValidationError(f"filling requires q > 0, got q = {q}")
    if math.gcd(abs(p), q) != 1:
        raise ValidationError(f"filling coefficients ({p}, {q}) are not coprime")


@dataclass(frozen=True)
class BoundaryTriple:
    """The three candidate boundary slopes of the filled manifold.

    beta1 = 4 and beta3 = 0 always; beta2 depends on the range of p/q.
    beta2_raw keeps the un-reduced formula output, since for p even the
    formula numerator and denominator can share a factor.
    """

    beta1: Slope
    beta2: Slope
    beta3: Slope
    beta2_raw: tuple[int, int]

    def __iter__(self):
        return iter((self.beta1, self.beta2, self.beta3))

    def __getitem__(self, i):
        return (self.beta1, self.beta2, self.beta3)[i]


def boundary_slopes(p: int, q: int) -> BoundaryTriple:
    """Candidate boundary slopes for the p/q filling.

    beta2 is 4q/p for p/q <= 0, (2p+4q)/p on [0,2], (-p+6q)/q on [2,4]
    and 4q/(p-2q) on [4,inf); at the endpoints the adjacent formulas agree
    as slope classes and the lower range's formula is used.
    """
    validate_filling(p, q)
    rng = classify_range(Slope.of(p, q))
    if rng in (SlopeRange.NEG_INF_0, SlopeRange.AT_0):
        raw = (4 * q, p)
    elif rng in (SlopeRange.ZERO_2, SlopeRange.AT_2):
        raw = (2 * p + 4 * q, p)
    elif rng in (SlopeRange.TWO_4, SlopeRange.AT_4):
        raw = (-p + 6 * q, q)
    else:
        raw = (4 * q, p - 2 * q)
    return BoundaryTriple(Slope(4, 1), Slope.reduced(*raw), Slope(0, 1), raw)
