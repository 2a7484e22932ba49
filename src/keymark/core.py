"""Domain types and the key-pattern decoder.

A key is a length-L vector over [0:T].  The decoder reads the entry at the
drawn token's position: decode(x, zeta) = zeta[x-1].  The reduced key set
holds every placement of the values 1..T into L positions plus the all-zero
key, so its size is L!/(L-T)! + 1.  Key sets are never materialized; they are
index<->key bijections in lexicographic order on the entry tuples, which puts
the all-zero key at index 0.  A key's working form is its sparse key, the
(position, value) pairs of its nonzero entries: reduced keys rank and unrank
from their T nonzero positions in O(T) exact steps, whatever L is, and all
keys over one set of positions rank from one set of block sizes.  A
table's rows are ordered by key index and each row by token; the
constructions build them in that order and merge_tables keeps it, so their
tables skip JointTable's validating copy.  A scheme
decodes every stored cell once, on first use, into a view that the checks,
metrics, sampler and exporter all read, with the exact sums that the checks
and metrics compare.  The view takes each key that the construction listed
in sparse form from it and unranks the others, so a built scheme unranks
none and a loaded one each support key once.  The walk takes those
sums as Python ints over one common denominator D, the LCM of the distinct
cell and px denominators and those of alpha and alpha/T: each mass adds
numerator * (D // denominator).  The view keeps the sums as ints, and the
checks compare them with px, alpha and alpha/T scaled by D, so no per-cell
Fraction addition and no Fraction comparison is made; a Fraction is made
only for a value that is reported.

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
import operator
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapacityError, ParameterError, ValidationError
from .rationals import common_numerators, common_scale, parse_mass

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
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
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


@dataclass(frozen=True)
class TokenDistribution:
    """Exact probability vector over tokens, in the caller's token order.

    Every entry is an int or a Fraction (stored as a Fraction); a float or a
    bool raises ParameterError.  scaled is the pair (numerators, D): the
    entries as ints over their common denominator D, the LCM of their
    denominators, taken once when the distribution is made.  It is not a
    dataclass field, so equality, hashing, repr and dataclasses.replace see
    probs alone.  The cap, the split, the extension and the optimum all work
    on those ints.  sort_perm is derived, not given: sort_perm[i] is the
    0-based original index of the i-th smallest probability (stable, so ties
    keep their original relative order), sorted on the numerators.
    """

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        probs = tuple(exact_rational(p, "probability") for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if not probs:
            raise ValidationError("empty distribution")
        scaled, common = common_numerators(probs)
        if min(scaled) < 0:
            raise ValidationError("negative probability entry")
        if sum(scaled) != common:
            raise ValidationError(f"probabilities sum to {Fraction(sum(scaled), common)}, not 1")
        object.__setattr__(self, "scaled", (tuple(scaled), common))

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
        numerators, _ = self.scaled
        return tuple(sorted(range(self.n), key=numerators.__getitem__))

    @property
    def sorted_probs(self) -> tuple[Fraction, ...]:
        return tuple(self.probs[i] for i in self.sort_perm)

    @property
    def is_sorted(self) -> bool:
        return self.sort_perm == tuple(range(self.n))


class KeySet:
    """Common interface: an ordered, indexable family of key vectors.

    size is the number of keys.  len() returns it too, but Python caps len()
    at sys.maxsize, which large reduced key sets exceed.  Key sets compare
    by value: a reduced set by (length, t), an explicit one by (kind, t,
    keys in order).
    """

    kind: str
    length: int
    t: int
    size: int
    _value: tuple

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(self._value)

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
    only the T nonzero positions: O(T) perm calls each way (rank_support
    ranks every key over one set of positions from one set of block sizes;
    unrank tests exactly around a guess from the rank's u-th root, a float
    root or past 2^50 positions an exact one), so no
    key vector is ever needed.  key() and index() convert between those
    sparse keys and full vectors.  Nothing is listed, so the set has no size
    limit; only operations that list keys check one.
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
        self._value = (length, t)

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
        perm, rank = math.perm, index - 1
        pairs: list[tuple[int, int]] = []
        unused = list(range(1, self.t + 1))
        top = self.length - 1
        for u in range(self.t, 0, -1):
            # The perm(m, u) keys with a zero at position L-1-m come first,
            # so the next nonzero position leaves m after it: the largest m
            # in [lo, hi] = [u-1, top] with perm(m, u) <= rank, as
            # perm(u-1, u) = 0.  rank < perm(top+1, u), so m <= top anyway.
            lo, hi = u - 1, top
            if u <= 2:
                lo = hi = rank if u == 1 else (math.isqrt(4 * rank + 1) + 1) // 2
            elif hi - lo > 3:
                # perm(m, u) is just under (m - (u-1)/2)^u: the guess floor(
                # rank^(1/u) + (u-1)/2) is a float while m < 2^50 and the
                # rank has under 1000 bits (a float is exact to within 1/4
                # there, and holds the rank), else it comes from the exact
                # root of rank * 2^u.  Put in (lo, hi] by compares (cheaper
                # than min and max here), it only picks where exact tests
                # start; bisection ends a miss, and it settles a bracket of
                # 4 positions in as few probes.
                if hi < 1 << 50 and rank.bit_length() < 1000:
                    probe = int(rank ** (1 / u) + (u - 1) / 2)
                else:
                    probe = (_iroot(rank << u, u) + u - 1) // 2
                probe = lo + 1 if probe <= lo else probe if probe < hi else hi
                for _ in range(3):
                    if lo < probe <= hi:
                        if perm(probe, u) <= rank:
                            lo, probe = probe, probe + 1
                        else:
                            hi = probe = probe - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if perm(mid, u) <= rank:
                    lo = mid
                else:
                    hi = mid - 1
            block = perm(lo, u - 1)
            chosen, rank = divmod(rank - block * (lo - u + 1), block)
            pairs.append((self.length - 1 - lo, unused.pop(chosen)))
            top = lo - 1
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
        return self.unchecked_index(pairs)

    def unchecked_index(self, pairs: Sequence[tuple[int, int]]) -> int:
        """sparse_index without its checks: pairs must be a member's sparse
        key, sorted by position, such as a builder lists by construction."""
        if not pairs:
            return 0
        code = lehmer_code([value for _, value in pairs])
        return self.rank_support([pos for pos, _ in pairs], [code])[0]

    def rank_support(self, positions: Sequence[int], codes: Iterable[Sequence[int]]) -> list[int]:
        """Indices of the keys nonzero at positions p_0 < ... < p_{T-1}, one
        per Lehmer code: code[i] counts the values after p_i that are smaller
        than the value at p_i.  The codes must be of length T, each entry i
        in [0:T-i).

        Rank grows only at nonzero positions: at p_i by the perm(L-1-p_i,
        T-i) keys with a zero there, then by code[i] blocks of w_i =
        perm(L-1-p_i, T-1-i) keys with a smaller value there.  So every key
        over the positions is base + sum(code[i] * w_i), base = 1 + sum of
        the zero blocks, and one set of block sizes (T perm calls) ranks
        them all."""
        last, t = self.length - 1, self.t
        base, weights = 1, []
        for i, pos in enumerate(positions):
            block = math.perm(last - pos, t - 1 - i)
            weights.append(block)
            base += block * (last - pos - (t - 1 - i))
        return [base + sum(map(operator.mul, code, weights)) for code in codes]


def lehmer_code(values: Sequence[int]) -> list[int]:
    """The Lehmer code of values: code[i] counts the later values below values[i]."""
    unused = sorted(values)
    code = []
    for value in values:
        spot = unused.index(value)
        code.append(spot)
        del unused[spot]
    return code


def _iroot(n: int, u: int) -> int:
    """floor(n^(1/u)) for n >= 0, by Newton's method on ints: from an
    overestimate x, ((u-1)x + n // x^(u-1)) // u falls until it stops at
    the root."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // u)
    while True:
        y = ((u - 1) * x + n // x ** (u - 1)) // u
        if y >= x:
            return x
        x = y


class ExplicitKeySet(KeySet):
    """A stored list of key vectors in a fixed order."""

    def __init__(self, keys: Iterable[Sequence[int]], t: int, kind: str = "explicit-list") -> None:
        stored = tuple(tuple(exact_int(v, "key entry") for v in k) for k in keys)
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
        self._value = (kind, t, stored)
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

    @classmethod
    def unchecked(cls, m: int, rows: dict[int, dict[int, Fraction]]) -> "JointTable":
        """The table without __post_init__'s copy and checks: rows must be in
        a table's form by construction (ordered by key index, each row by
        token, no zero mass, such as another table's rows), and the caller
        hands them over and makes no other use of them."""
        table = object.__new__(cls)
        object.__setattr__(table, "m", m)
        object.__setattr__(table, "rows", rows)
        return table

    def cell(self, key_index: int, token: int) -> Fraction:
        return self.rows.get(key_index, {}).get(token, Fraction(0))

    def cells(self) -> Iterator[tuple[int, int, Fraction]]:
        """(key_index, token, mass) triples by key index, then token."""
        for key_index, row in self.rows.items():
            for token, mass in row.items():
                yield key_index, token, mass

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
    """Cellwise sum of partial tables for the same message.

    The parts are tables, so each is ordered by key index and each row by
    token.  The merge makes each merged row once, as a new dict, in key
    order: a key that one part holds takes a copy of its row, and the rows
    of a key that several parts hold are summed cell by cell and put in
    token order, cells that cancel to zero dropped.  An empty row is left
    out.  So no part changes, the result aliases no part's row, and it is
    in a table's form without a second copy, sort or zero scan.
    """
    for part in parts:
        if part.m != m:
            raise ParameterError(f"cannot merge table for m={part.m} into m={m}")
    sources = [part.rows for part in parts if part.rows]
    combined: dict[int, Mapping[int, Fraction]] = {}
    shared: set[int] = set()
    for source in sources:
        shared |= combined.keys() & source.keys()
        combined.update(source)
    order = sorted(combined) if len(sources) > 1 else combined
    rows = {k: dict(row) for k in order if (row := combined[k]) or k in shared}
    for key_index in shared:
        merged: dict[int, Fraction] = {}
        for source in sources:
            for token, mass in source.get(key_index, {}).items():
                held = merged.get(token)
                if held is None:
                    merged[token] = mass
                    continue
                total = held + mass
                if total:
                    merged[token] = total
                else:
                    del merged[token]
        if merged:
            rows[key_index] = dict(sorted(merged.items()))
        else:
            del rows[key_index]
    return JointTable.unchecked(m, rows)


@dataclass(frozen=True)
class WatermarkScheme:
    """A complete scheme: key set and one joint table per message.

    Keys may be longer than the token count (pseudo-token constructions use
    length n + extension), but table cells only ever reference real tokens
    1..n, and construction rejects any other token.  n, t and the key
    marginal pz are derived, not stored: px's size, the table count and
    the m=1 table's row sums.

    sparse_keys is set only by assemble, for the constructions: index ->
    sparse key of each key they listed, in any order.  The decoded view
    takes a support key from it where it holds the index and unranks the
    key otherwise, so a built scheme is checked, reported and exported
    without unranking a key, and a loaded one unranks each support key
    once.  It is no init field, so dataclasses.replace() drops it, and it
    takes no part in == or repr.
    """

    alpha: Fraction
    px: TokenDistribution
    keyset: KeySet
    tables: tuple[JointTable, ...]
    provenance: Mapping[str, object] = field(default_factory=dict)
    sparse_keys: Mapping[int, SparseKey] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < 1:
            raise ValidationError(f"alpha={self.alpha} outside [0,1)")
        if not self.tables:
            raise ValidationError("at least one message table required")
        for m, table in enumerate(self.tables, start=1):
            if table.m != m:
                raise ValidationError(f"table at slot {m} is labeled m={table.m}")
            rows = [row for row in table.rows.values() if row]
            for token in (min(map(min, rows), default=1), max(map(max, rows), default=1)):
                if not 1 <= token <= self.n:
                    raise ValidationError(f"table m={m}: token {token} outside [1:{self.n}]")

    @classmethod
    def assemble(
        cls,
        alpha: Fraction,
        px: TokenDistribution,
        keyset: KeySet,
        tables: Sequence[JointTable],
        provenance: Mapping[str, object] | None = None,
        sparse_keys: Mapping[int, SparseKey] | None = None,
    ) -> "WatermarkScheme":
        """Build a scheme, with the sparse keys a construction listed."""
        scheme = cls(
            exact_rational(alpha, "alpha"), px, keyset, tuple(tables), dict(provenance or {})
        )
        object.__setattr__(scheme, "sparse_keys", sparse_keys)
        return scheme

    @property
    def n(self) -> int:
        return self.px.n

    @property
    def t(self) -> int:
        return len(self.tables)

    @cached_property
    def pz(self) -> dict[int, Fraction]:
        return {k: _row_total(row) for k, row in self.tables[0].rows.items()}

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
        handed = self.sparse_keys or {}
        # Unranked keys share their (position, value) tuples: there are at
        # most L*T distinct pairs, so each stored key costs one small tuple.
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        keys = {
            idx: handed[idx] if idx in handed
            else tuple(shared.setdefault(pair, pair) for pair in self.keyset.sparse_key(idx))
            for idx in sorted(self.key_support())
        }
        common, scale = common_scale(
            {
                mass.denominator
                for table in self.tables
                for row in table.rows.values()
                for mass in row.values()
            }
            | {p.denominator for p in self.px.probs}
            | {self.alpha.denominator, Fraction(self.alpha, self.t).denominator}
        )
        n, t = self.n, self.t
        messages = [array("I") for _ in range(t)]
        columns, captured = [[0] * n for _ in range(t)], [[0] * n for _ in range(t)]
        negatives: list[tuple[int, int, Fraction] | None] = [None] * t
        mismatches: list[tuple[int, int, int, int]] = []
        marked = [0] * n
        # Key by key, in index order, which is each table's cells() order:
        # a key's row sums are compared as they are taken, and none is kept.
        # Its table-1 row sum is its pz mass.
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
                    for pos, _ in pairs:
                        if pos < n:
                            marked[pos] += row_total
                elif row_total != reference:
                    mismatches.append((idx, m, reference, row_total))
        return DecodedCells(
            keys=keys,
            messages=tuple(messages),
            denominator=common,
            columns=tuple(map(tuple, columns)),
            captured=tuple(map(tuple, captured)),
            marked=tuple(marked),
            totals=tuple(map(sum, columns)),
            missed=tuple(sum(column) - sum(hit) for column, hit in zip(columns, captured)),
            negatives=tuple(negatives),
            row_mismatches=tuple(mismatches),
        )


@dataclass(frozen=True)
class DecodedCells:
    """A scheme's support keys in sparse form, each cell's decoded message,
    and the exact sums that the property checks and error metrics read.

    keys maps every key index stored in a table to its sparse key, in
    index order: the tuple in the scheme's sparse_keys where it holds the
    index, else the key unranked once.
    messages[m-1][i] is the message that the i-th cell of table m, in
    cells() order, decodes to (0 when the key is zero at that token).

    Every sum is an int, the numerator of an exact mass over denominator,
    the LCM D of the scheme's distinct cell and px denominators and those
    of alpha and alpha/T, so px(x)*D, alpha*D and alpha*D/T are ints
    too and a check compares ints.  columns[m-1][x-1] is table m's mass on
    token x, and captured[m-1][x-1] the part of it on cells that decode to
    m.  marked[x-1] is the pz mass on keys that are nonzero at token x.
    totals[m-1] is table m's mass and missed[m-1] the part of it on cells
    that do not decode to m.  row_mismatches lists each
    (key, m, reference, actual) where table m's row sum differs from table
    1's, by key and then m, over every key stored in any table; a key
    missing from a table has row sum 0 there.  negatives[m-1] is table m's
    first negative cell in cells() order, as (key, token, mass) with the
    stored Fraction mass, or None.

    The walk goes key by key and compares a key's row sums as it takes them,
    so the view grows with the number of row-sum mismatches, not with the
    number of keys.
    """

    keys: Mapping[int, SparseKey]
    messages: tuple[array, ...]
    denominator: int
    columns: tuple[tuple[int, ...], ...]
    captured: tuple[tuple[int, ...], ...]
    marked: tuple[int, ...]
    totals: tuple[int, ...]
    missed: tuple[int, ...]
    negatives: tuple[tuple[int, int, Fraction] | None, ...]
    row_mismatches: tuple[tuple[int, int, int, int], ...]


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
