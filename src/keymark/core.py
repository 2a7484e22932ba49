"""Domain types and the key-pattern decoder.

A key is a length-L vector over [0:T].  The decoder reads the entry at the
drawn token's position: decode(x, zeta) = zeta[x-1].  The reduced key set
holds every placement of the values 1..T into L positions plus the all-zero
key, so its size is L!/(L-T)! + 1.  Key sets are never materialized; they are
index<->key bijections in lexicographic order on the entry tuples, which puts
the all-zero key at index 0.  A key's working form is its sparse key, the
(position, value) pairs of its nonzero entries: reduced keys rank and unrank
from their T nonzero positions in O(T) steps, whatever L is.  A scheme
decodes every stored cell once, on first use, into a view that the checks,
metrics, sampler and exporter all read, with the exact sums that the checks
and metrics compare.  The walk takes those sums as Python ints over one
common denominator D, the LCM of the distinct cell and pz denominators:
each mass adds numerator * (D // denominator), and only the finished sums
become Fractions, so no per-cell Fraction addition is made.

>>> ks = enumerate_reduced_keyset(3, 2)
>>> len(ks)
7
>>> ks.key(0)
(0, 0, 0)
>>> ks.index((0, 1, 2))
1
>>> ks.sparse_key(1)
((1, 1), (2, 2))
>>> decode(2, (0, 1, 2))
1
"""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, ParameterError, ValidationError
from .rationals import common_scale, exact_sum, parse_mass

__all__ = [
    "KeyVector",
    "SparseKey",
    "TokenDistribution",
    "KeySet",
    "ReducedKeySet",
    "ExplicitKeySet",
    "JointTable",
    "WatermarkScheme",
    "DecodedCells",
    "ErrorReport",
    "decode",
    "enumerate_reduced_keyset",
    "is_reduced_member",
    "ENUMERATION_CAP",
    "check_listing",
    "exact_rational",
    "exact_int",
    "check_instance",
]

KeyVector = tuple[int, ...]
# Nonzero entries of a key as (0-based position, value) pairs, by position.
SparseKey = tuple[tuple[int, int], ...]

_ZERO = Fraction(0)

# Most keys that an operation may list one by one.  The limit is fixed, and
# the lazy key sets themselves have no size limit.
ENUMERATION_CAP = 10**6


def check_listing(count: int, what: str, limit: int) -> None:
    """Raise CapacityError, before anything is listed, when count > limit."""
    if count > limit:
        raise CapacityError(f"{count} {what} exceed the fixed cap {limit}")


def exact_rational(value: object, what: str = "value") -> Fraction:
    """value as a Fraction.  Only ints and Fractions are accepted: a float or
    a bool would pass through Fraction() silently and is not an exact
    rational input, so it raises ParameterError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ParameterError(
        f"{what} must be an int or a Fraction, got {type(value).__name__} {value!r}"
    )


def exact_int(value: object, what: str) -> int:
    """value as an int.  Ints and numpy integers are accepted; a bool, a
    float or anything else raises ParameterError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ParameterError(f"{what} must be an integer, got {type(value).__name__}")


def check_instance(px: "TokenDistribution", alpha: object, t: object) -> tuple[Fraction, int]:
    """The one rule for an instance (P_X, alpha, T): alpha an exact rational
    in [0, 1) and T an integer in [1:N].  Returns alpha as a Fraction and T
    as an int; anything else raises ParameterError."""
    if not isinstance(px, TokenDistribution):
        raise ParameterError(f"px must be a TokenDistribution, got {type(px).__name__}")
    alpha = exact_rational(alpha, "alpha")
    if not 0 <= alpha < 1:
        raise ParameterError(f"alpha={alpha} outside [0,1)")
    t = exact_int(t, "t")
    if not 1 <= t <= px.n:
        raise ParameterError(f"t={t} outside [1:{px.n}]")
    return alpha, t


def decode(x: int, zeta: Sequence[int]) -> int:
    """Decoded message for token x under key zeta: the x-th entry (1-based x)."""
    if not 1 <= x <= len(zeta):
        raise IndexError(f"token index {x} outside [1:{len(zeta)}]")
    return zeta[x - 1]


def _decode_sparse(x: int, pairs: SparseKey) -> int:
    """decode() on a sparse key: the value paired with position x-1, else 0.

    Keys are kept as pairs, not a value -> position map, because an
    explicit key may repeat a value.
    """
    for pos, value in pairs:
        if pos == x - 1:
            return value
    return 0


def is_reduced_member(entries: Sequence[int], t: int) -> bool:
    """All-zero, or the nonzero entries are exactly {1, ..., t} each once."""
    nonzero = [v for v in entries if v != 0]
    if not nonzero:
        return all(v == 0 for v in entries)
    return len(nonzero) == t and sorted(nonzero) == list(range(1, t + 1))


@dataclass(frozen=True)
class TokenDistribution:
    """Exact probability vector over tokens, in the caller's token order.

    Every entry is an int or a Fraction (stored as a Fraction); a float or a
    bool raises ParameterError.  sort_perm is derived, not given:
    sort_perm[i] is the 0-based original index of the i-th smallest
    probability (stable, so ties keep their original relative order).
    """

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        probs = tuple(exact_rational(p, "probability") for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if not probs:
            raise ValidationError("empty distribution")
        if any(p < 0 for p in probs):
            raise ValidationError("negative probability entry")
        if sum(probs) != 1:
            raise ValidationError(f"probabilities sum to {sum(probs)}, not 1")

    @classmethod
    def from_fractions(cls, probs: Iterable[Fraction]) -> "TokenDistribution":
        return cls(tuple(probs))

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "TokenDistribution":
        return cls.from_fractions(parse_mass(t) for t in texts)

    @property
    def n(self) -> int:
        return len(self.probs)

    @cached_property
    def sort_perm(self) -> tuple[int, ...]:
        return tuple(sorted(range(self.n), key=self.probs.__getitem__))

    @property
    def sorted_probs(self) -> tuple[Fraction, ...]:
        return tuple(self.probs[i] for i in self.sort_perm)

    @property
    def is_sorted(self) -> bool:
        return self.sort_perm == tuple(range(self.n))


class KeySet:
    """Common interface: an ordered, indexable family of key vectors.

    size is the number of keys.  len() returns it too, but Python caps len()
    at sys.maxsize, which large reduced key sets exceed.
    """

    kind: str
    length: int
    t: int
    size: int

    def __len__(self) -> int:
        return self.size

    def key(self, index: int) -> KeyVector:
        raise NotImplementedError

    def index(self, key: Sequence[int]) -> int:
        raise NotImplementedError

    def sparse_key(self, index: int) -> SparseKey:
        """The key's nonzero entries as (position, value) pairs, by position."""
        return tuple((pos, value) for pos, value in enumerate(self.key(index)) if value)

    def sparse_index(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Index of the key whose nonzero entries are exactly `pairs`."""
        entries = [0] * self.length
        for pos, value in pairs:
            if not 0 <= pos < self.length:
                raise ParameterError(f"position {pos} outside [0:{self.length - 1}]")
            entries[pos] = value
        return self.index(entries)

    def __iter__(self) -> Iterator[KeyVector]:
        return (self.key(i) for i in range(self.size))

    def __contains__(self, key: Sequence[int]) -> bool:
        try:
            self.index(key)
        except (KeyError, ParameterError):
            return False
        return True

    @property
    def zero_index(self) -> int:
        """Index of the all-zero key."""
        return self.index((0,) * self.length)


class ReducedKeySet(KeySet):
    """Lazy bijection onto all placements of 1..T plus the all-zero key.

    Order is lexicographic on entry tuples.  The all-zero key is index 0; a
    placement key's index is 1 plus its lexicographic rank among placements.
    Rank and unrank count the completions of each candidate prefix, visiting
    only the T nonzero positions: O(T) perm calls to rank and O(T log L) to
    unrank, so no key vector is ever needed.  key() and index() convert
    between those sparse keys and full vectors.  Nothing is listed, so the
    set has no size limit; only operations that list keys check one.
    """

    kind = "reduced"

    def __init__(self, length: int, t: int) -> None:
        length, t = exact_int(length, "length"), exact_int(t, "t")
        if t < 1:
            raise ParameterError(f"t must be at least 1, got {t}")
        if t > length:
            raise ParameterError(f"t={t} exceeds key length {length}")
        if t > sys.maxsize:
            # math.perm takes at most sys.maxsize factors.
            raise ParameterError(f"t={t} exceeds {sys.maxsize}")
        self.length = length
        self.t = t
        self.size = math.perm(length, t) + 1

    def __repr__(self) -> str:
        return f"ReducedKeySet(length={self.length}, t={self.t})"

    @property
    def zero_index(self) -> int:
        return 0

    def key(self, index: int) -> KeyVector:
        entries = [0] * self.length
        for pos, value in self.sparse_key(index):
            entries[pos] = value
        return tuple(entries)

    def index(self, key: Sequence[int]) -> int:
        key = tuple(key)
        if len(key) != self.length:
            raise ParameterError(f"key length {len(key)} != {self.length}")
        return self.sparse_index((pos, value) for pos, value in enumerate(key) if value != 0)

    def sparse_key(self, index: int) -> SparseKey:
        if type(index) is not int:
            index = exact_int(index, "key index")
        if not 0 <= index < self.size:
            raise ParameterError(f"key index {index} outside [0:{self.size - 1}]")
        if index == 0:
            return ()
        rank = index - 1
        pairs: list[tuple[int, int]] = []
        unused = list(range(1, self.t + 1))
        pos = 0
        while unused:
            u = len(unused)
            # The perm(L-pos-1, u) completions with a zero at pos precede
            # every other key with this prefix.  That count falls as pos
            # grows, so the next nonzero position is the first one whose
            # zero-block no longer exceeds the rank; at pos = L-u it is 0.
            lo, hi = pos, self.length - u
            while lo < hi:
                mid = (lo + hi) // 2
                if math.perm(self.length - mid - 1, u) <= rank:
                    hi = mid
                else:
                    lo = mid + 1
            pos = lo
            remaining = self.length - pos - 1
            rank -= math.perm(remaining, u)
            chosen, rank = divmod(rank, math.perm(remaining, u - 1))
            pairs.append((pos, unused.pop(chosen)))
            pos += 1
        return tuple(pairs)

    def sparse_index(self, pairs: Iterable[tuple[int, int]]) -> int:
        pairs = sorted(pairs)
        if not pairs:
            return 0
        if pairs[0][0] < 0 or pairs[-1][0] >= self.length:
            raise ParameterError(f"positions of {pairs} outside [0:{self.length - 1}]")
        values = sorted(value for _, value in pairs)
        if values != list(range(1, self.t + 1)) or len({pos for pos, _ in pairs}) != self.t:
            raise KeyError(f"nonzero entries {tuple(pairs)} are not a member of {self!r}")
        # Rank only grows at nonzero positions: by every key with a zero
        # there, then by every key with a smaller unused value there.
        rank = 0
        unused = list(range(1, self.t + 1))
        for pos, value in pairs:
            remaining = self.length - pos - 1
            spot = unused.index(value)
            rank += math.perm(remaining, len(unused)) + spot * math.perm(remaining, len(unused) - 1)
            unused.pop(spot)
        return rank + 1


class ExplicitKeySet(KeySet):
    """A stored list of key vectors in a fixed order."""

    def __init__(self, keys: Iterable[Sequence[int]], t: int, kind: str = "explicit-list") -> None:
        stored = [tuple(exact_int(v, "key entry") for v in k) for k in keys]
        if not stored:
            raise ParameterError("explicit key set must contain at least one key")
        length = len(stored[0])
        t = exact_int(t, "t")
        if t < 1 or t > length:
            raise ParameterError(f"t={t} invalid for key length {length}")
        for k in stored:
            if len(k) != length:
                raise ValidationError("keys of differing lengths in explicit key set")
            if any(not 0 <= v <= t for v in k):
                raise ValidationError(f"key {k} has entries outside [0:{t}]")
        if len(set(stored)) != len(stored):
            raise ValidationError("duplicate keys in explicit key set")
        self.kind = kind
        self.length = length
        self.t = t
        self.size = len(stored)
        self._keys = stored
        self._index = {k: i for i, k in enumerate(stored)}

    def __repr__(self) -> str:
        return f"ExplicitKeySet({len(self._keys)} keys, length={self.length}, t={self.t})"

    def key(self, index: int) -> KeyVector:
        if type(index) is not int:
            index = exact_int(index, "key index")
        if not 0 <= index < len(self._keys):
            raise ParameterError(f"key index {index} outside [0:{len(self._keys) - 1}]")
        return self._keys[index]

    def index(self, key: Sequence[int]) -> int:
        return self._index[tuple(key)]


def enumerate_reduced_keyset(length: int, t: int) -> ReducedKeySet:
    """The reduced key set over `length` positions: placements of 1..t plus 0."""
    return ReducedKeySet(length, t)


@dataclass(frozen=True)
class JointTable:
    """Sparse joint distribution over (token, key) pairs for one message.

    rows maps key index -> {token (1-based) -> mass}.  Zero masses are never
    stored; builders drop cells that cancel to zero.  The table keeps its
    own copy of rows, ordered by key index and each row by token.
    """

    m: int
    rows: Mapping[int, Mapping[int, Fraction]]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValidationError(f"message index {self.m} must be >= 1")
        ordered: dict[int, dict[int, Fraction]] = {}
        for key_index in sorted(self.rows):
            row = self.rows[key_index]
            for token, mass in row.items():
                if not mass:
                    raise ValidationError(
                        f"explicit zero mass at key {key_index}, token {token}"
                    )
            ordered[key_index] = dict(sorted(row.items())) if len(row) > 1 else dict(row)
        object.__setattr__(self, "rows", ordered)

    def cell(self, key_index: int, token: int) -> Fraction:
        return self.rows.get(key_index, {}).get(token, Fraction(0))

    def cells(self) -> Iterator[tuple[int, int, Fraction]]:
        """(key_index, token, mass) triples by key index, then token."""
        for key_index, row in self.rows.items():
            for token, mass in row.items():
                yield key_index, token, mass

    def row_sum(self, key_index: int) -> Fraction:
        return _row_total(self.rows.get(key_index, {}))

    def total_mass(self) -> Fraction:
        return exact_sum(mass for row in self.rows.values() for mass in row.values())

    def key_support(self) -> set[int]:
        return set(self.rows)


def _row_total(row: Mapping[int, Fraction]) -> Fraction:
    """A row's mass in k - 1 additions for k cells: a one-cell row gives its
    own mass object, an empty row 0."""
    masses = iter(row.values())
    return sum(masses, next(masses, _ZERO))


def add_mass(rows: dict[int, dict[int, Fraction]], key_index: int, token: int, mass: Fraction) -> None:
    """Accumulate into a mutable row map, dropping cells that cancel to zero.

    A zero mass is a no-op.  A fresh cell stores the caller's mass object as
    it is; only a cell that already holds mass costs an exact addition, and
    a sum of zero removes the cell, then its row once the row is empty.
    """
    if mass == 0:
        return
    row = rows.setdefault(key_index, {})
    held = row.get(token)
    if held is None:
        row[token] = mass
        return
    updated = held + mass
    if updated == 0:
        del row[token]
        if not row:
            del rows[key_index]
    else:
        row[token] = updated


def merge_tables(m: int, *parts: JointTable) -> JointTable:
    """Cellwise sum of partial tables for the same message."""
    rows: dict[int, dict[int, Fraction]] = {}
    for part in parts:
        if part.m != m:
            raise ParameterError(f"cannot merge table for m={part.m} into m={m}")
        for key_index, token, mass in part.cells():
            add_mass(rows, key_index, token, mass)
    return JointTable(m, rows)


@dataclass(frozen=True)
class WatermarkScheme:
    """A complete scheme: key set, one joint table per message, key marginal.

    Keys may be longer than the token count (pseudo-token constructions use
    length n + extension), but table cells only ever reference real tokens
    1..n, and construction rejects any other token.  pz is defined as the
    row sums of the m=1 table.
    """

    n: int
    t: int
    alpha: Fraction
    px: TokenDistribution
    keyset: KeySet
    tables: tuple[JointTable, ...]
    pz: Mapping[int, Fraction]
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n != self.px.n:
            raise ValidationError(f"n={self.n} but px has {self.px.n} entries")
        if not 0 <= self.alpha < 1:
            raise ValidationError(f"alpha={self.alpha} outside [0,1)")
        if len(self.tables) != self.t:
            raise ValidationError(f"expected {self.t} tables, got {len(self.tables)}")
        for m, table in enumerate(self.tables, start=1):
            if table.m != m:
                raise ValidationError(f"table at slot {m} is labeled m={table.m}")
            rows = [row for row in table.rows.values() if row]
            for token in (min(map(min, rows), default=1), max(map(max, rows), default=1)):
                if not 1 <= token <= self.n:
                    raise ValidationError(f"table m={m}: token {token} outside [1:{self.n}]")
        if exact_sum(self.pz.values()) != 1:
            raise ValidationError("key marginal does not sum to 1")

    @classmethod
    def assemble(
        cls,
        alpha: Fraction,
        px: TokenDistribution,
        keyset: KeySet,
        tables: Sequence[JointTable],
        provenance: Mapping[str, object] | None = None,
    ) -> "WatermarkScheme":
        """Build a scheme, deriving pz from the m=1 table's row sums."""
        tables = tuple(tables)
        if not tables:
            raise ParameterError("at least one message table required")
        pz = {k: _row_total(row) for k, row in tables[0].rows.items()}
        return cls(
            n=px.n,
            t=len(tables),
            alpha=exact_rational(alpha, "alpha"),
            px=px,
            keyset=keyset,
            tables=tables,
            pz=pz,
            provenance=dict(provenance or {}),
        )

    def table(self, m: int) -> JointTable:
        if not 1 <= m <= self.t:
            raise ParameterError(f"message {m} outside [1:{self.t}]")
        return self.tables[m - 1]

    def key_support(self) -> set[int]:
        support: set[int] = set()
        for table in self.tables:
            support |= table.key_support()
        return support

    @cached_property
    def decoded(self) -> "DecodedCells":
        """Every stored cell decoded and summed once, on first use."""
        # Keys share their (position, value) tuples: there are at most L*T
        # distinct pairs, so each stored key costs one small tuple.
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        keys = {
            idx: tuple(shared.setdefault(pair, pair) for pair in self.keyset.sparse_key(idx))
            for idx in sorted(self.key_support() | set(self.pz))
        }
        common, scale = common_scale(
            {
                mass.denominator
                for table in self.tables
                for row in table.rows.values()
                for mass in row.values()
            }
            | {mass.denominator for mass in self.pz.values()}
        )
        n, t = self.n, self.t
        messages = [array("I") for _ in range(t)]
        columns, captured = [[0] * n for _ in range(t)], [[0] * n for _ in range(t)]
        negatives: list[tuple[int, int, Fraction] | None] = [None] * t
        mismatches: list[tuple[int, int, int, int]] = []
        # Key by key, in index order, which is each table's cells() order:
        # a key's row sums are compared as they are taken, and none is kept.
        for idx, pairs in keys.items():
            for m, table in enumerate(self.tables, start=1):
                row_total = 0
                row = table.rows.get(idx)
                if row is not None:
                    decodes, column, hit = messages[m - 1], columns[m - 1], captured[m - 1]
                    for token, mass in row.items():
                        numerator, denominator = mass.as_integer_ratio()
                        scaled = numerator * scale[denominator]
                        decoded = _decode_sparse(token, pairs)
                        decodes.append(decoded)
                        column[token - 1] += scaled
                        if decoded == m:
                            hit[token - 1] += scaled
                        row_total += scaled
                        if numerator < 0 and negatives[m - 1] is None:
                            negatives[m - 1] = (idx, token, mass)
                if m == 1:
                    reference = row_total
                elif row_total != reference:
                    mismatches.append((idx, m, reference, row_total))
        marked = [0] * n
        for idx, mass in self.pz.items():
            numerator, denominator = mass.as_integer_ratio()
            scaled = numerator * scale[denominator]
            for pos, _ in keys[idx]:
                if pos < n:
                    marked[pos] += scaled
        return DecodedCells(
            keys=keys,
            messages=tuple(messages),
            columns=tuple(tuple(Fraction(v, common) for v in column) for column in columns),
            captured=tuple(tuple(Fraction(v, common) for v in hit) for hit in captured),
            marked=tuple(Fraction(v, common) for v in marked),
            totals=tuple(Fraction(sum(column), common) for column in columns),
            missed=tuple(
                Fraction(sum(column) - sum(hit), common) for column, hit in zip(columns, captured)
            ),
            negatives=tuple(negatives),
            row_mismatches=tuple(
                (idx, m, Fraction(ref, common), Fraction(actual, common))
                for idx, m, ref, actual in mismatches
            ),
        )


@dataclass(frozen=True)
class DecodedCells:
    """A scheme's support keys in sparse form, each cell's decoded message,
    and the exact sums that the property checks and error metrics read.

    keys maps every key index stored in a table or in pz to its sparse key.
    messages[m-1][i] is the message that the i-th cell of table m, in
    cells() order, decodes to (0 when the key is zero at that token).
    columns[m-1][x-1] is table m's mass on token x, and captured[m-1][x-1]
    the part of it on cells that decode to m.  marked[x-1] is the pz mass
    on keys that are nonzero at token x.  totals[m-1] is table m's mass and
    missed[m-1] the part of it on cells that do not decode to m.
    negatives[m-1] is table m's first negative cell in cells() order, as
    (key, token, mass), or None.  row_mismatches lists each
    (key, m, reference, actual) where table m's row sum differs from table
    1's, by key and then m, over every key stored in any table; a key
    missing from a table has row sum 0 there.

    Every sum is taken as an int over the LCM of the scheme's distinct cell
    and pz denominators and converted to a Fraction once, at the end.  The
    walk goes key by key and compares a key's row sums as it takes them, so
    the view grows with the number of row-sum mismatches, not with the
    number of keys.
    """

    keys: Mapping[int, SparseKey]
    messages: tuple[array, ...]
    columns: tuple[tuple[Fraction, ...], ...]
    captured: tuple[tuple[Fraction, ...], ...]
    marked: tuple[Fraction, ...]
    totals: tuple[Fraction, ...]
    missed: tuple[Fraction, ...]
    negatives: tuple[tuple[int, int, Fraction] | None, ...]
    row_mismatches: tuple[tuple[int, int, Fraction, Fraction], ...]


@dataclass(frozen=True)
class ErrorReport:
    """Exact detection-error summary for one scheme."""

    beta: tuple[Fraction, ...]
    worst_false_alarm: Fraction
    optimal_value: Fraction
    gap: Fraction

    def __post_init__(self) -> None:
        for value in (*self.beta, self.worst_false_alarm, self.optimal_value):
            if not 0 <= value <= 1:
                raise ValidationError(f"error quantity {value} outside [0,1]")
