"""Three-way split of a sorted token distribution around the alpha/T cap.

px = px1 + px2 + px3 where px3 is the overshoot above alpha/T, px1 is a
T-hot representable base, and px2 is a short non-decreasing tail (at most
T-1 positive entries).  When the capped vector a = min(alpha/T, px) is
already representable the split is trivial (px1 = a, px2 = 0); otherwise a
leveling value y flattens the tail of a until representability holds with
T * max(px1) = sum(px1) exactly.
Both entry points take px sorted and check (alpha, T) with
core.check_instance.

Every compare, count and sum runs on px's numerators over its common
denominator D (TokenDistribution.scaled), read over E = lcm(D, den(alpha/T))
by one scale factor E // D.  px is sorted, so the entries below the cap are
a prefix, found by bisection, and a is that prefix of px followed by the
cap: a, r and px1 reuse px's own Fraction objects and r's zeros share one,
so only the cap, y, the overshoot and px2's tail are new Fractions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import TokenDistribution, check_instance
from .errors import InvariantError, ParameterError

__all__ = ["PxSplit", "Capped", "capped", "cap_scale", "cap_vector", "split_px"]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PxSplit:
    """px1 + px2 + px3 = px; K counts px2's positive entries (its tail)."""

    px1: tuple[Fraction, ...]
    px2: tuple[Fraction, ...]
    px3: tuple[Fraction, ...]
    K: int
    K_tilde: int
    y: Fraction | None
    a: tuple[Fraction, ...]


class Capped(NamedTuple):
    """cap_vector's a and r, with a read as ints over E.

    a[:light] are px's own entries, each below the cap; the rest equal it.
    """

    a: tuple[Fraction, ...]
    r: tuple[Fraction, ...]
    numerators: tuple[int, ...]  # px's, over D
    light: int
    common: int  # E = lcm(D, den(alpha/T))
    scale: int  # E // D
    cap: int  # alpha/T * E
    total: int  # sum(a) * E

    def entry(self, i: int) -> int:
        """a[i] * E."""
        return self.scale * self.numerators[i] if i < self.light else self.cap


def cap_scale(px: TokenDistribution, cap: Fraction) -> tuple[int, int, int, int]:
    """(E, E // D, cap * E, threshold) for E = lcm(D, den(cap)): an entry of
    px with numerator v over D is below the cap exactly when v < threshold."""
    _, denominator = px.scaled
    common = math.lcm(denominator, cap.denominator)
    scale = common // denominator
    cap_scaled = cap.numerator * (common // cap.denominator)
    return common, scale, cap_scaled, -(-cap_scaled // scale)


def capped(px: TokenDistribution, alpha: Fraction, t: int) -> Capped:
    """The cap a = min(alpha/T, px) and r = px - a of a sorted px, as
    Fractions and as ints over E."""
    alpha, t = check_instance(px, alpha, t)
    if not px.is_sorted:
        raise ParameterError("distribution must be sorted non-decreasing")
    cap = Fraction(alpha, t)
    numerators, _ = px.scaled
    common, scale, cap_scaled, threshold = cap_scale(px, cap)
    light = bisect_left(numerators, threshold)
    heavy = px.n - light
    a = px.probs[:light] + (cap,) * heavy
    r = (_ZERO,) * light + tuple(p - cap for p in px.probs[light:])
    total = scale * sum(numerators[:light]) + cap_scaled * heavy
    return Capped(a, r, numerators, light, common, scale, cap_scaled, total)


def cap_vector(
    px: TokenDistribution, alpha: Fraction, t: int
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Cap at alpha/T: a = min(alpha/T, px) elementwise, r = px - a."""
    c = capped(px, alpha, t)
    return c.a, c.r


def split_px(px: TokenDistribution, alpha: Fraction, t: int) -> PxSplit:
    """Split px into a representable base, a leveling tail, and the overshoot.

    Case 2 scans k upward from K_tilde; the first k where the leveled value
    y = sum(a(1..N-k)) / (T-k) reaches a(N-k) is K.  The scan provably stops
    by k = T-1, y < a(N-K+1) strictly, and T * max(px1) = sum(px1).  Each
    step takes one entry off the head sum, on ints over E.
    """
    alpha, t = check_instance(px, alpha, t)
    c = capped(px, alpha, t)
    n = px.n
    k_tilde = n - c.light
    if t * c.entry(n - 1) <= c.total:
        return PxSplit(
            px1=c.a,
            px2=(_ZERO,) * n,
            px3=c.r,
            K=0,
            K_tilde=k_tilde,
            y=None,
            a=c.a,
        )

    head = c.total - c.cap * k_tilde  # sum(a[: n - k]) * E
    for k in range(k_tilde, t):
        if k > k_tilde:
            head -= c.entry(n - k)
        if head >= (t - k) * c.entry(n - k - 1):
            y = Fraction(head, c.common * (t - k))
            px1 = c.a[: n - k] + (y,) * k
            px2 = (_ZERO,) * (n - k) + tuple(v - y for v in c.a[n - k :])
            # Over E * (T-k): a(i) reads a(i) * E * (T-k) and y reads head.
            if any((t - k) * c.entry(i) <= head for i in range(n - k, n)):
                raise InvariantError("leveled tail entry not strictly positive")
            if t * head != (t - k) * c.scale * sum(c.numerators[: n - k]) + k * head:
                raise InvariantError("leveled base missed the boundary identity")
            return PxSplit(px1=px1, px2=px2, px3=c.r, K=k, K_tilde=k_tilde, y=y, a=c.a)
    raise InvariantError("leveling scan did not stop by k = T-1")
