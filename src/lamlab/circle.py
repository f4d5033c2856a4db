"""Exact arithmetic on the circle R/Z and the angle d-tupling map.

Angles are rational numbers modulo 1, kept as `fractions.Fraction` so every
comparison and every dynamical computation below is exact.  The map of
interest is t -> d*t (mod 1) for an integer degree d >= 2.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

__all__ = [
    "CirclePoint",
    "DnaryString",
    "angle",
    "parse_angle",
    "parse_dnary",
    "render_dnary",
    "sigma",
]

_DIGITS = "0123456789"
_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")  # no zero denominator


def check_degree(d: int) -> int:
    """Validate an integer degree d >= 2 and return it."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValueError(f"degree must be an integer >= 2, got {d!r}")
    return d


@dataclass(frozen=True, eq=False)
class CirclePoint:
    """A point of R/Z, stored as a reduced fraction in [0, 1).

    The value must be a Fraction or an int; a float or a string raises TypeError.
    Points compare by the integer terms of their values: equal terms for
    `==`, and cross-multiplied terms for order, which is the order of the
    values because both denominators are positive.  Comparing through
    `Fraction` would pass every operand through the `numbers.Rational` checks.
    """

    value: Fraction

    def __post_init__(self) -> None:
        v = self.value
        # a Fraction already in [0, 1) is kept as it is
        if type(v) is not Fraction or not 0 <= v.numerator < v.denominator:
            object.__setattr__(self, "value", _exact(v) % 1)

    def __hash__(self) -> int:
        # equal points have equal reduced terms; Fraction.__hash__ would
        # compute a modular inverse on every call
        v = self.value
        return hash((v.numerator, v.denominator))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        u, v = self.value, other.value
        return u.numerator == v.numerator and u.denominator == v.denominator

    def __lt__(self, other: CirclePoint) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        u, v = self.value, other.value
        return u.numerator * v.denominator < v.numerator * u.denominator

    def __le__(self, other: CirclePoint) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        u, v = self.value, other.value
        return u.numerator * v.denominator <= v.numerator * u.denominator

    def __gt__(self, other: CirclePoint) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        u, v = self.value, other.value
        return u.numerator * v.denominator > v.numerator * u.denominator

    def __ge__(self, other: CirclePoint) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        u, v = self.value, other.value
        return u.numerator * v.denominator >= v.numerator * u.denominator

    def __add__(self, other: CirclePoint | Fraction | int) -> CirclePoint:
        return CirclePoint(self.value + _raw(other))

    def __sub__(self, other: CirclePoint | Fraction | int) -> CirclePoint:
        return CirclePoint(self.value - _raw(other))

    def __mul__(self, k: int | Fraction) -> CirclePoint:
        return CirclePoint(self.value * k)

    __rmul__ = __mul__

    def distance(self, other: CirclePoint) -> Fraction:
        """Shortest arc distance between two points, in [0, 1/2]."""
        gap = (self.value - _raw(other)) % 1
        return min(gap, 1 - gap)

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return str(self.value)


def _exact(x: Fraction | int) -> Fraction:
    if not isinstance(x, Rational):
        raise TypeError(f"a circle point needs an exact rational, got {x!r}")
    return Fraction(x)


def _raw(x: CirclePoint | Fraction | int) -> Fraction:
    return x.value if isinstance(x, CirclePoint) else _exact(x)


def angle(x: CirclePoint | Fraction | int | str) -> CirclePoint:
    """Coerce a CirclePoint, Fraction, int or `p/q` string ("3/7") to a CirclePoint.

    Strings are read by `parse_angle` without a degree, so decimals and
    exponents are refused with ValueError; a float is refused with TypeError.
    """
    if isinstance(x, CirclePoint):
        return x
    if isinstance(x, str):
        return parse_angle(x)
    return CirclePoint(x)


def sigma(d: int, t: CirclePoint) -> CirclePoint:
    """Apply the angle d-tupling map t -> d*t mod 1."""
    check_degree(d)
    return CirclePoint(_raw(t) * d)


@dataclass(frozen=True)
class DnaryString:
    """A base-d digit expansion `preperiod _ period` of a rational angle."""

    base: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 2 <= self.base <= 10:
            raise ValueError("digit strings are supported for bases 2..10 only")
        if not self.period:
            raise ValueError("the periodic part must be nonempty")
        for digit in self.preperiod + self.period:
            if not 0 <= digit < self.base:
                raise ValueError(f"digit {digit} out of range for base {self.base}")

    def __str__(self) -> str:
        pre = "".join(_DIGITS[digit] for digit in self.preperiod)
        per = "".join(_DIGITS[digit] for digit in self.period)
        return f"{pre}_{per}"


def parse_dnary(s: str, d: int) -> CirclePoint:
    """Parse `digits _ digits` as a base-d expansion with repeating tail."""
    check_degree(d)
    if d > 10:
        raise ValueError("base-d strings are limited to d <= 10; use a p/q rational")
    if s.count("_") != 1:
        raise ValueError(f"malformed digit string {s!r}: expected one '_'")
    pre_s, per_s = s.split("_")
    if not per_s:
        raise ValueError(f"malformed digit string {s!r}: empty periodic part")
    for ch in pre_s + per_s:
        if ch not in _DIGITS or int(ch) >= d:
            raise ValueError(f"invalid base-{d} digit {ch!r} in {s!r}")
    m, k = len(pre_s), len(per_s)
    # Horner loop: int(s, d) refuses very long strings, exact periods need them
    head = tail = 0
    for ch in pre_s:
        head = head * d + int(ch)
    for ch in per_s:
        tail = tail * d + int(ch)
    return CirclePoint(Fraction(head, d**m) + Fraction(tail, d**m * (d**k - 1)))


def render_dnary(t: CirclePoint, d: int) -> DnaryString:
    """Base-d expansion of t with minimal preperiod and minimal period.

    Runs the digit recursion x -> d*x mod 1 on the numerator of x over its
    fixed denominator q, tracking exact remainders; the first repeated
    remainder pins down both minimal lengths at once.  An all-(d-1)
    repeating tail can never appear because remainders are exact.
    """
    check_degree(d)
    if d > 10:
        raise ValueError("base-d strings are limited to d <= 10; use a p/q rational")
    v = angle(t).value
    x, q = v.numerator, v.denominator
    seen: dict[int, int] = {}
    digits: list[int] = []
    while x not in seen:
        seen[x] = len(digits)
        digit, x = divmod(x * d, q)
        digits.append(digit)
    start = seen[x]
    return DnaryString(d, tuple(digits[:start]), tuple(digits[start:]))


def _rational(text: str) -> tuple[int, int] | None:
    """The terms (p, q) of an optionally signed ASCII integer or `p/q` with q > 0, else None.

    The terms are as written, not reduced.  Decimals and exponents are
    refused, so a short literal cannot expand into a huge integer.
    """
    if not _RATIONAL.fullmatch(text):
        return None
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


def parse_angle(text: str, d: int | None = None) -> CirclePoint:
    """Parse an angle literal: an integer or rational `p/q`, or a digit string `pre_per`.

    Only ASCII digits and an optional sign are read; decimals and exponents
    are refused, so a short literal cannot expand into a huge integer.
    """
    text = text.strip()
    if "_" in text:
        if d is None:
            raise ValueError("a degree is required to parse a digit-string angle")
        return parse_dnary(text, d)
    terms = _rational(text)
    if terms is None:
        raise ValueError(f"malformed angle literal {text!r}")
    p, q = terms
    return CirclePoint(Fraction(p % q, q))
