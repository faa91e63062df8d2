"""Slope arithmetic on a torus boundary.

A slope is a primitive pair (p, q) up to sign, written as the rational p/q
with inf = 1/0.  The canonical representative has q > 0, or (p, q) = (1, 0)
for inf.  Distance between slopes is the geometric intersection number
|p1*q2 - q1*p2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


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
    def parse(cls, text: str) -> "Slope":
        text = text.strip()
        if text in ("inf", "-inf", "1/0"):
            return cls(1, 0)
        a, b = text.split("/", 1) if "/" in text else (text, "1")
        try:
            p, q = int(a), int(b)
        except ValueError as exc:
            raise ValidationError(f"cannot parse slope {text!r}") from exc
        # outside the try: Slope.of's ValidationError is a ValueError too
        return cls.of(p, q)

    def __str__(self) -> str:
        return "inf" if self.q == 0 else f"{self.p}/{self.q}"


INFINITY = Slope(1, 0)


def distance(g1: Slope, g2: Slope) -> int:
    """Geometric intersection number of two slopes."""
    return abs(g1.p * g2.q - g1.q * g2.p)


def validate_filling(p: int, q: int) -> None:
    """Raise ValidationError unless (p, q) names a filling: integers with
    q > 0 and gcd(p, q) = 1."""
    if not isinstance(p, int) or not isinstance(q, int):
        raise ValidationError(f"filling coefficients must be integers, got ({p!r}, {q!r})")
    if q <= 0:
        raise ValidationError(f"filling requires q > 0, got q = {q}")
    if math.gcd(abs(p), q) != 1:
        raise ValidationError(f"filling coefficients ({p}, {q}) are not coprime")
