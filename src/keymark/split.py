"""Three-way split of a sorted token distribution around the alpha/T cap.

px = px1 + px2 + px3 where px3 is the overshoot above alpha/T, px1 is a
T-hot representable base, and px2 is a short non-decreasing tail (at most
T-1 positive entries).  When the capped vector a = min(alpha/T, px) is
already representable the split is trivial (px1 = a, px2 = 0); otherwise a
leveling value y flattens the tail of a until representability holds with
T * max(px1) = sum(px1) exactly.
Both entry points take px sorted and check (alpha, T) with
core.check_instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import TokenDistribution, check_instance
from .errors import InvariantError, ParameterError
from .thot import is_t_hot_representable

__all__ = ["PxSplit", "cap_vector", "split_px"]


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


def cap_vector(
    px: TokenDistribution, alpha: Fraction, t: int
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Cap at alpha/T: a = min(alpha/T, px) elementwise, r = px - a."""
    alpha, t = check_instance(px, alpha, t)
    if not px.is_sorted:
        raise ParameterError("distribution must be sorted non-decreasing")
    cap = Fraction(alpha, t)
    a = tuple(min(cap, p) for p in px.probs)
    r = tuple(p - v for p, v in zip(px.probs, a))
    return a, r


def split_px(px: TokenDistribution, alpha: Fraction, t: int) -> PxSplit:
    """Split px into a representable base, a leveling tail, and the overshoot.

    Case 2 scans k upward from K_tilde; the first k where the leveled value
    y = sum(a(1..N-k)) / (T-k) reaches a(N-k) is K.  The scan provably stops
    by k = T-1, y < a(N-K+1) strictly, and T * max(px1) = sum(px1).
    """
    alpha, t = check_instance(px, alpha, t)
    a, px3 = cap_vector(px, alpha, t)
    n = px.n
    cap = Fraction(alpha, t)
    k_tilde = sum(1 for p in px.probs if p >= cap)
    if is_t_hot_representable(a, t):
        return PxSplit(
            px1=a,
            px2=(Fraction(0),) * n,
            px3=px3,
            K=0,
            K_tilde=k_tilde,
            y=None,
            a=a,
        )

    for k in range(k_tilde, t):
        head = sum(a[: n - k], Fraction(0))
        y = Fraction(head, t - k)
        if y >= a[n - k - 1]:
            px1 = a[: n - k] + (y,) * k
            px2 = tuple(av - pv for av, pv in zip(a, px1))
            if any(v <= 0 for v in px2[n - k :]):
                raise InvariantError("leveled tail entry not strictly positive")
            if t * y != sum(px1):
                raise InvariantError("leveled base missed the boundary identity")
            return PxSplit(px1=px1, px2=px2, px3=px3, K=k, K_tilde=k_tilde, y=y, a=a)
    raise InvariantError("leveling scan did not stop by k = T-1")
