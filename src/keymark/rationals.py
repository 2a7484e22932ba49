"""Exact rational parsing and formatting.

All probability masses in this package are `fractions.Fraction` values, kept in
lowest terms by the stdlib type itself.  Masses enter as strings ("0.05",
"1/20", "3") and leave as strings; binary floats are rejected at every boundary
so no mass is ever silently rounded.

>>> parse_mass("0.05") * 20
Fraction(1, 1)
>>> mass_to_string(Fraction(1, 3))
'1/3'
>>> mass_to_string(Fraction(1, 20))
'0.05'

Sums of many masses are taken as integers over one common denominator D,
the LCM of the distinct denominators: each mass adds numerator * (D //
denominator), and only the finished sum becomes a Fraction.  The result is
exact, and each addition is an integer addition, not a Fraction addition
with its two gcds and a new object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import ParameterError

__all__ = ["parse_mass", "mass_to_string", "common_scale", "common_numerators", "exact_sum"]


def parse_mass(text: str) -> Fraction:
    """Parse a decimal string ("0.05") or fraction string ("1/20") exactly."""
    if not isinstance(text, str):
        raise ParameterError(f"expected a string, got {type(text).__name__}")
    cleaned = text.strip()
    lowered = cleaned.lower()
    if "e" in lowered or "nan" in lowered or "inf" in lowered:
        raise ParameterError(f"not a plain decimal or fraction: {text!r}")
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse rational from {text!r}") from exc


def common_scale(denominators: Iterable[int]) -> tuple[int, dict[int, int]]:
    """The LCM D of the denominators, and the map d -> D // d over them."""
    distinct = set(denominators)
    common = math.lcm(*distinct)
    return common, {d: common // d for d in distinct}


def common_numerators(values: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """The values as integers over the LCM D of their denominators, and D.

    >>> common_numerators([Fraction(1, 6), Fraction(1, 10), 2])
    ([5, 3, 60], 30)
    """
    ratios = [value.as_integer_ratio() for value in values]
    common, scale = common_scale(denominator for _, denominator in ratios)
    return [numerator * scale[denominator] for numerator, denominator in ratios], common


def exact_sum(values: Iterable[Fraction | int]) -> Fraction:
    """Exact sum of rationals: numerators summed per denominator, then once
    over their common denominator.

    >>> exact_sum([Fraction(1, 6), Fraction(1, 10), Fraction(-1, 15), 2])
    Fraction(11, 5)
    >>> exact_sum([])
    Fraction(0, 1)
    """
    by_denominator: dict[int, int] = {}
    for value in values:
        numerator, denominator = value.as_integer_ratio()
        by_denominator[denominator] = by_denominator.get(denominator, 0) + numerator
    common, scale = common_scale(by_denominator)
    return Fraction(sum(num * scale[den] for den, num in by_denominator.items()), common)


def _decimal_exponent(denominator: int) -> int | None:
    """Smallest k with denominator | 10^k, or None if no such k exists."""
    twos = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
    fives = 0
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    if denominator != 1:
        return None
    return max(twos, fives)


def mass_to_string(value: Fraction) -> str:
    """Render exactly: a finite decimal when one exists, else "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    k = _decimal_exponent(value.denominator)
    if k is None:
        return f"{value.numerator}/{value.denominator}"
    sign = "-" if value < 0 else ""
    scaled = abs(value.numerator) * 10**k // value.denominator
    digits = str(scaled).rjust(k + 1, "0")
    whole, frac = digits[:-k], digits[-k:]
    return f"{sign}{whole}.{frac}"
