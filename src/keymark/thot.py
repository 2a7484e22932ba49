"""Decomposition of non-negative vectors into weighted T-hot indicator vectors.

A vector is T-hot representable exactly when T times its largest entry is at
most its total (boundary equality included).  The greedy decomposition picks
the T largest residual entries each round and removes the largest weight that
keeps the residual non-negative and representable; each round zeroes an entry
or drives another to the boundary, so at most L rounds run.

Entries must be ints or Fractions and T an integer, else ParameterError.
Both entry points scale the entries once to ints over their common
denominator and test the sign, the representability and every greedy step
on those ints.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Sequence

from .core import exact_int, exact_rational
from .errors import InvariantError, ParameterError
from .rationals import common_numerators

__all__ = ["THotTerm", "THotDecomposition", "is_t_hot_representable", "decompose_t_hot"]


@dataclass(frozen=True)
class THotTerm:
    support: tuple[int, ...]  # the T positions of the term's ones, increasing
    weight: Fraction


@dataclass(frozen=True)
class THotDecomposition:
    terms: tuple[THotTerm, ...]
    length: int  # every support strictly increases inside [0:length)

    def __post_init__(self) -> None:
        for k, term in enumerate(self.terms, 1):
            pos = [exact_int(p, "support position") for p in term.support]
            if pos != sorted(set(pos)) or (pos and not 0 <= pos[0] <= pos[-1] < self.length):
                raise ParameterError(f"term {k} support {pos} not increasing in [0:{self.length})")
            if exact_rational(term.weight, "term weight") <= 0:
                raise ParameterError(f"term {k} has non-positive weight {term.weight}")

    @classmethod
    def unchecked(cls, terms: tuple[THotTerm, ...], length: int) -> "THotDecomposition":
        """The decomposition without __post_init__'s per-term checks: terms
        must be valid by construction, such as decompose_t_hot's own output
        (int supports from range, increasing, positive weights)."""
        decomp = object.__new__(cls)
        object.__setattr__(decomp, "terms", terms)
        object.__setattr__(decomp, "length", length)
        return decomp

    def reconstruct(self) -> tuple[Fraction, ...]:
        total = [Fraction(0)] * self.length
        for term in self.terms:
            for i in term.support:
                total[i] += term.weight
        return tuple(total)


def _check_inputs(a: Sequence[Fraction], t: int) -> tuple[list[int], int, int]:
    """The entries as ints over their common denominator D, D, and t as an
    int; a float or bool entry, a negative entry, or a t outside [1:len(a)]
    raises ParameterError.  The sign is read on the ints."""
    entries = [exact_rational(v, "entry") for v in a]
    if not entries:
        raise ParameterError("empty vector")
    t = exact_int(t, "t")
    if not 1 <= t <= len(entries):
        raise ParameterError(f"t={t} outside [1:{len(entries)}]")
    scaled, common = common_numerators(entries)
    if min(scaled) < 0:
        raise ParameterError("negative entry in vector")
    return scaled, common, t


def is_t_hot_representable(a: Sequence[Fraction], t: int) -> bool:
    """True iff t * max(a) <= sum(a)."""
    scaled, _, t = _check_inputs(a, t)
    return t * max(scaled) <= sum(scaled)


def decompose_t_hot(a: Sequence[Fraction], t: int) -> THotDecomposition:
    """Greedy decomposition of a representable vector into T-hot terms.

    Each round targets the T largest residual entries (ties to the lowest
    index) and uses the largest weight under which the residual stays
    non-negative and representable:

        weight = (1/T) * min( min_{j in supp} T*v(j),
                              min_{j not in supp} (sum(v) - T*v(j)) )

    For a representable nonzero residual the weight is provably positive, and
    the set {i : v(i)=0 or T*v(i)=sum(v)} gains a member every round, so the
    loop runs at most L times.

    The vector is scaled once to integers: with D the LCM of the entry
    denominators and unit = T*D, residual(i) = v(i)*unit and level =
    sum(residual)/T = sum(v)*D, an int, so T*v(i) <= sum(v) reads
    residual(i) <= level and a round's weight in units is
    min(residual(last of supp), level - residual((T+1)-th largest)).  Only
    the emitted term weights, weight/unit, are Fractions.

    The indices are kept sorted by (-residual(i), i), so the support is the
    first T of them.  A round lowers its T support entries by the same
    weight, which keeps their relative order, and reinserts them by binary
    search; the level falls by the weight.  Every invariant is checked on
    what changed: only support entries can go negative, the largest entry is
    the first in order, zeros only grow (from the support) and the boundary
    entries residual(i) = level are a prefix of the order with at most T
    members.  A round costs O(T log L) integer comparisons plus O(L) list
    moves for the order, so after the initial sort the at most L rounds take
    O(L T log L) integer operations, on integers no larger than sum(v)*unit.
    """
    scaled, common, t = _check_inputs(a, t)
    length = len(scaled)
    unit = t * common
    residual = [t * v for v in scaled]
    level = sum(scaled)
    if max(residual) > level:
        raise ParameterError(f"vector is not {t}-hot representable")

    # rank[i] = (-residual[i], i), kept current, so a probe only reads it.
    rank = [(-v, i) for i, v in enumerate(residual)]

    def boundary() -> list[int]:
        return list(takewhile(lambda i: residual[i] == level, order))

    order = sorted(range(length), key=rank.__getitem__)
    terms: list[THotTerm] = []
    frozen = boundary()
    for _ in range(length + 1):
        if level == 0:
            break
        support = order[:t]
        inner = residual[support[-1]]
        outer = level - residual[order[t]] if t < length else inner
        weight = min(inner, outer)
        if weight <= 0:
            raise InvariantError("greedy step produced a non-positive weight")
        terms.append(THotTerm(tuple(sorted(support)), Fraction(weight, unit)))
        del order[:t]
        for j in support:
            residual[j] -= weight
            rank[j] = (-residual[j], j)
            insort(order, j, key=rank.__getitem__)
        level -= weight
        if any(residual[j] < 0 for j in support):
            raise InvariantError("residual went negative")
        if residual[order[0]] > level:
            raise InvariantError("residual lost representability")
        if level == 0:
            continue
        # The saturated set is {zeros} + boundary, disjoint while the level is
        # nonzero.  Zeros stay zero (a zero in the support would have given a
        # zero weight), so the set grows strictly exactly when the old
        # boundary stays saturated and new zeros plus the new boundary
        # outnumber the old boundary.
        grown = boundary()
        new_zeros = sum(1 for j in support if residual[j] == 0)
        kept = all(residual[i] == 0 or residual[i] == level for i in frozen)
        if not kept or new_zeros + len(grown) <= len(frozen):
            raise InvariantError("saturated index set failed to grow")
        frozen = grown
    else:
        raise InvariantError(f"decomposition did not terminate in {length} rounds")
    return THotDecomposition.unchecked(tuple(terms), length)
