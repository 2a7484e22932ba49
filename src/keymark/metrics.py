"""Exact structural verification and detection-error metrics.

check_scheme evaluates five properties exactly and reports the first
counterexample per property instead of raising.  It reads only
WatermarkScheme.decoded, whose one walk over the tables takes every exact
sum it compares, lists the row-sum mismatches and finds each table's first
negative cell; no check reads the tables itself.  The sums are integer
numerators over the view's common denominator D, and the checks compare
them with px(x)*D, alpha*D and alpha*D/T, which are integers too; a
Fraction is made only for a reported counterexample.  The error quantities
come from the same walk: the miss rate for m is table m's mass on cells
that do not decode to m, and the worst false alarm is the largest per-token
key-marginal mass on nonzero entries (the supremum over token distributions
of the false-alarm rate is attained at a single token), taken on the
integers before it becomes a Fraction.  optimal_value sums min(alpha/T,
px(x)) on px's own numerators (TokenDistribution.scaled), read over the
LCM of their denominator and alpha/T's, and makes one Fraction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .core import DecodedCells, ErrorReport, TokenDistribution, WatermarkScheme, check_instance
from .errors import ParameterError
from .split import cap_scale

__all__ = [
    "PropertyCheck",
    "PropertyReport",
    "check_scheme",
    "miss_detection",
    "worst_false_alarm",
    "false_alarm_by_token",
    "optimal_value",
    "error_report",
]

# A property's counterexample: (location, expected, actual).
Failure = tuple[str, Fraction, Fraction]

PROPERTY_NAMES = (
    "column-sum",
    "row-sum",
    "capped-column-sum",
    "alpha-bounded-total",
    "mass",
)


@dataclass(frozen=True)
class PropertyCheck:
    """One verified property; location pinpoints the first counterexample."""

    name: str
    passed: bool
    location: str = ""
    expected: Fraction | None = None
    actual: Fraction | None = None

    def describe(self) -> str:
        if self.passed:
            return f"{self.name}: ok"
        return (
            f"{self.name}: FAIL at {self.location} "
            f"(expected {self.expected}, got {self.actual})"
        )


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.passed]

    def describe(self) -> str:
        return "\n".join(c.describe() for c in self.checks)


def check_scheme(scheme: WatermarkScheme) -> PropertyReport:
    """Verify the five structural properties; failures become report entries.

    (1) every table's column sums equal px;
    (2) every key's row sum is the same under every message;
    (3) the mass decoding to m in column x is at least min(alpha/T, px(x));
    (4) for every token, the key-marginal mass decoding it to any nonzero
        message is at most alpha;
    (5) all stored masses are positive and each table sums to 1.
    """
    view = scheme.decoded
    common = view.denominator
    px = [_scaled(p, common) for p in scheme.px.probs]
    alpha = _scaled(scheme.alpha, common)
    cap = alpha // scheme.t  # exact: alpha/T's denominator divides D
    floors = [min(cap, p) for p in px]
    failures = (
        _column_failures(view.columns, px, operator.ne, common),
        _row_sum_failures(view),
        _column_failures(view.captured, floors, operator.lt, common),
        (
            (f"x={x}", scheme.alpha, Fraction(a, common))
            for x, a in enumerate(view.marked, 1)
            if a > alpha
        ),
        _mass_failures(view),
    )
    return PropertyReport(tuple(map(_first_failure, PROPERTY_NAMES, failures)))


def _scaled(value: Fraction, common: int) -> int:
    """value * common, for a common multiple of value's denominator."""
    return value.numerator * (common // value.denominator)


def _first_failure(name: str, failures: Iterator[Failure]) -> PropertyCheck:
    """The first (location, expected, actual) of failures, else a pass."""
    return next((PropertyCheck(name, False, *f) for f in failures), PropertyCheck(name, True))


def _column_failures(sums, bounds, fails: Callable[..., bool], common: int) -> Iterator[Failure]:
    """By table m, then token x: each (location, bound, sum) where fails(sum,
    bound), on numerators over common; the two reported become Fractions."""
    for m, row in enumerate(sums, start=1):
        for x, (actual, bound) in enumerate(zip(row, bounds), start=1):
            if fails(actual, bound):
                yield f"m={m}, x={x}", Fraction(bound, common), Fraction(actual, common)


def _row_sum_failures(view: DecodedCells) -> Iterator[Failure]:
    common = view.denominator
    for idx, m, reference, actual in view.row_mismatches:
        yield f"key={idx}, m={m}", Fraction(reference, common), Fraction(actual, common)


def _mass_failures(view: DecodedCells) -> Iterator[Failure]:
    for m, (negative, total) in enumerate(zip(view.negatives, view.totals), start=1):
        if negative is not None:
            idx, token, mass = negative
            yield f"m={m}, key={idx}, x={token}", Fraction(0), mass
        if total != view.denominator:
            yield f"m={m} total", Fraction(1), Fraction(total, view.denominator)


def miss_detection(scheme: WatermarkScheme, m: int) -> Fraction:
    """Mass the m-table puts on pairs that do not decode to m."""
    if not 1 <= m <= scheme.t:
        raise ParameterError(
            f"message {m} outside [1:{scheme.t}] (use worst_false_alarm for m=0)"
        )
    view = scheme.decoded
    return Fraction(view.missed[m - 1], view.denominator)


def false_alarm_by_token(scheme: WatermarkScheme) -> list[Fraction]:
    """Per token x (0-based), the key-marginal mass decoding x to a nonzero message."""
    view = scheme.decoded
    return [Fraction(v, view.denominator) for v in view.marked]


def worst_false_alarm(scheme: WatermarkScheme) -> Fraction:
    """max over tokens of the key-marginal mass decoding that token nonzero."""
    view = scheme.decoded
    return Fraction(max(view.marked), view.denominator)


def optimal_value(px: TokenDistribution, alpha: Fraction, t: int) -> Fraction:
    """Smallest achievable worst-case miss rate: 1 - sum_x min(alpha/T, px(x))."""
    alpha, t = check_instance(px, alpha, t)
    numerators, _ = px.scaled
    common, scale, cap, threshold = cap_scale(px, Fraction(alpha, t))
    light = [v for v in numerators if v < threshold]
    return Fraction(common - scale * sum(light) - cap * (px.n - len(light)), common)


def error_report(scheme: WatermarkScheme) -> ErrorReport:
    beta = tuple(miss_detection(scheme, m) for m in range(1, scheme.t + 1))
    optimum = optimal_value(scheme.px, scheme.alpha, scheme.t)
    return ErrorReport(
        beta=beta,
        worst_false_alarm=worst_false_alarm(scheme),
        optimal_value=optimum,
        gap=max(beta) - optimum,
    )
