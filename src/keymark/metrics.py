"""Exact structural verification and detection-error metrics.

check_scheme evaluates five properties with rational arithmetic and reports
the first counterexample per property instead of raising.  The error
quantities are closed sums over the sparse tables: the miss rate for m is
the mass on cells not decoding to m, and the worst false alarm is the
largest per-token key-marginal mass on nonzero entries (the supremum over
token distributions of the false-alarm rate is attained at a single token).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import ErrorReport, TokenDistribution, WatermarkScheme, exact_rational
from .errors import ParameterError

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
    cap = Fraction(scheme.alpha, scheme.t)
    checks: list[PropertyCheck] = []

    failure = None
    for table in scheme.tables:
        sums = [Fraction(0)] * scheme.n
        for _, token, mass in table.cells():
            sums[token - 1] += mass
        for x in range(1, scheme.n + 1):
            if sums[x - 1] != scheme.px.probs[x - 1]:
                failure = PropertyCheck(
                    "column-sum",
                    False,
                    f"m={table.m}, x={x}",
                    scheme.px.probs[x - 1],
                    sums[x - 1],
                )
                break
        if failure:
            break
    checks.append(failure or PropertyCheck("column-sum", True))

    failure = None
    for idx in sorted(scheme.key_support()):
        reference = scheme.tables[0].row_sum(idx)
        for table in scheme.tables[1:]:
            actual = table.row_sum(idx)
            if actual != reference:
                failure = PropertyCheck(
                    "row-sum", False, f"key={idx}, m={table.m}", reference, actual
                )
                break
        if failure:
            break
    checks.append(failure or PropertyCheck("row-sum", True))

    failure = None
    for table, messages in zip(scheme.tables, scheme.decoded.messages):
        hit = [Fraction(0)] * scheme.n
        for (_, token, mass), decoded in zip(table.cells(), messages):
            if decoded == table.m:
                hit[token - 1] += mass
        for x in range(1, scheme.n + 1):
            floor = min(cap, scheme.px.probs[x - 1])
            if hit[x - 1] < floor:
                failure = PropertyCheck(
                    "capped-column-sum", False, f"m={table.m}, x={x}", floor, hit[x - 1]
                )
                break
        if failure:
            break
    checks.append(failure or PropertyCheck("capped-column-sum", True))

    failure = None
    for x, marked in enumerate(false_alarm_by_token(scheme), start=1):
        if marked > scheme.alpha:
            failure = PropertyCheck(
                "alpha-bounded-total", False, f"x={x}", scheme.alpha, marked
            )
            break
    checks.append(failure or PropertyCheck("alpha-bounded-total", True))

    failure = None
    for table in scheme.tables:
        for idx, token, mass in table.cells():
            if mass < 0:
                failure = PropertyCheck(
                    "mass", False, f"m={table.m}, key={idx}, x={token}", Fraction(0), mass
                )
                break
        if failure:
            break
        total = table.total_mass()
        if total != 1:
            failure = PropertyCheck("mass", False, f"m={table.m} total", Fraction(1), total)
            break
    checks.append(failure or PropertyCheck("mass", True))

    return PropertyReport(tuple(checks))


def miss_detection(scheme: WatermarkScheme, m: int) -> Fraction:
    """Mass the m-table puts on pairs that do not decode to m."""
    if not 1 <= m <= scheme.t:
        raise ParameterError(
            f"message {m} outside [1:{scheme.t}] (use worst_false_alarm for m=0)"
        )
    cells = zip(scheme.table(m).cells(), scheme.decoded.messages[m - 1])
    return sum((mass for (_, _, mass), decoded in cells if decoded != m), Fraction(0))


def false_alarm_by_token(scheme: WatermarkScheme) -> list[Fraction]:
    """Per token x (0-based), the key-marginal mass decoding x to a nonzero message."""
    per_token = [Fraction(0)] * scheme.n
    keys = scheme.decoded.keys
    for idx, mass in scheme.pz.items():
        for pos, _ in keys[idx]:
            if pos < scheme.n:
                per_token[pos] += mass
    return per_token


def worst_false_alarm(scheme: WatermarkScheme) -> Fraction:
    """max over tokens of the key-marginal mass decoding that token nonzero."""
    return max(false_alarm_by_token(scheme))


def optimal_value(px: TokenDistribution, alpha: Fraction, t: int) -> Fraction:
    """Smallest achievable worst-case miss rate: 1 - sum_x min(alpha/T, px(x))."""
    alpha = exact_rational(alpha, "alpha")
    if not 0 <= alpha < 1:
        raise ParameterError(f"alpha={alpha} outside [0,1)")
    if not 1 <= t <= px.n:
        raise ParameterError(f"t={t} outside [1:{px.n}]")
    cap = Fraction(alpha, t)
    return 1 - sum((min(cap, p) for p in px.probs), Fraction(0))


def error_report(scheme: WatermarkScheme) -> ErrorReport:
    beta = tuple(miss_detection(scheme, m) for m in range(1, scheme.t + 1))
    optimum = optimal_value(scheme.px, scheme.alpha, scheme.t)
    return ErrorReport(
        beta=beta,
        worst_false_alarm=worst_false_alarm(scheme),
        optimal_value=optimum,
        gap=max(beta) - optimum,
    )
