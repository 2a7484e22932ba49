"""Reference implementations that keymark replaced, kept for the tests.

The layered builders for construction A's parts 2 and 3 are those that
keymark.construct_a replaced with closed forms.  They break px2 into
suffix-indicator steps and add each step as its own layer: part 2 gives
delta_j / c to every anchored (token, message) cell of the last j tokens,
and part 3 pays px3(x)/R shares of delta_j * (T - j) to the anchored keys
whose last j coordinates avoid the message.  The tests compare the two cell
for cell.

The decoded-view sums and the five property checks below take every sum
one Fraction addition per cell and compare Fractions, as
WatermarkScheme.decoded and keymark.metrics did before they summed and
compared integers over one common denominator; they call no keymark.metrics
code but its public report types.

reference_decompose_t_hot is the greedy T-hot decomposition on Fractions,
as keymark.thot ran it before it scaled the vector to integers once.

reference_sparse_key is the reduced key set's unrank as it was before it
solved for each nonzero position: a bisection of math.perm probes over the
positions at each of the T levels, O(T log L) probes per key.

reference_unchecked_index is the reduced key set's rank as it was before it
ranked every key over one support from one set of block sizes: two
math.perm calls per nonzero position, per key.  The reference builders,
listing, merge and constructions below are construction A's and B's
build-then-merge path as it was then: each key ranked on its own through a
key -> index listing, each cell added with add_mass, each part table
validated, copied and sorted by JointTable, and the merged tables copied,
sorted and scanned once more.  The tests compare the two cell for cell, in
row and token order.

The Monte Carlo references build each inverse-CDF table from a running
Fraction sum converted to float cell by cell, and search the table once per
draw, as keymark.sim did before it took integer prefix sums and counted
each cell's draws from sorted draws.  No production code imports this
module.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Sequence

import numpy as np

from keymark.construct_a import (
    ENUMERATION_CAP,
    ImbalanceLedger,
    KeyListing,
    _anchored_tails,
    _exact_entries,
    _key_order,
    anchored_cell_count,
    assemble_checked,
    restore_supports,
    restore_token_order,
)
from keymark.construct_b import _fold_back, extend_px
from keymark.core import (
    JointTable,
    KeySet,
    ReducedKeySet,
    SparseKey,
    TokenDistribution,
    WatermarkScheme,
    add_mass,
    check_instance,
    check_listing,
    decode,
    exact_int,
    exact_rational,
)
from keymark.errors import InvariantError, ParameterError
from keymark.metrics import PROPERTY_NAMES, PropertyCheck, PropertyReport
from keymark.rationals import exact_sum, mass_to_string
from keymark.split import split_px
from keymark.thot import THotDecomposition, THotTerm, decompose_t_hot


@dataclass(frozen=True)
class StepDecomposition:
    """px2 as a sum of suffix indicators: increments[(j, delta)] means
    delta * (0,...,0, 1_j).  j runs 1..K; deltas may be zero."""

    increments: tuple[tuple[int, Fraction], ...]

    @property
    def k(self) -> int:
        return len(self.increments)

    def reconstruct(self, length: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * length
        for j, delta in self.increments:
            for pos in range(length - j, length):
                out[pos] += delta
        return tuple(out)


def step_decomposition(px2: Sequence[Fraction], t: int) -> StepDecomposition:
    """Decompose a non-decreasing tail vector into suffix-indicator steps."""
    length = len(px2)
    positive = [i for i, v in enumerate(px2) if v > 0]
    if any(v < 0 for v in px2):
        raise ParameterError("px2 has a negative entry")
    k = len(positive)
    if k == 0:
        return StepDecomposition(())
    if k > t - 1:
        raise ParameterError(f"px2 has {k} positive entries, more than t-1={t - 1}")
    if positive != list(range(length - k, length)):
        raise ParameterError("px2's positive entries must sit at the tail")
    if any(px2[i] > px2[i + 1] for i in range(length - k, length - 1)):
        raise ParameterError("px2 must be non-decreasing on its tail")
    increments = []
    for j in range(1, k + 1):
        below = px2[length - j - 1] if j < k else Fraction(0)
        increments.append((j, px2[length - j] - below))
    decomposition = StepDecomposition(tuple(increments))
    if decomposition.reconstruct(length) != tuple(px2):
        raise InvariantError("step decomposition failed to reconstruct px2")
    return decomposition


def anchored_pairs(keyset: KeySet, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """(index, entries at the last k positions) of every anchored key that
    construction A lists on a sorted view with those k anchors."""
    anchors = range(keyset.length - k, keyset.length)
    anchored = _anchored_tails(keyset, anchors, range(keyset.length), KeyListing(keyset))
    return [(idx, tail) for tail, members in anchored for idx in members]


def anchored_indices(keyset: KeySet, k: int) -> set[int]:
    """Indices of the anchored keys at the last k positions."""
    return {idx for idx, _ in anchored_pairs(keyset, k)}


def build_pm2_layered(
    px2: Sequence[Fraction], keyset: KeySet
) -> tuple[list[JointTable], dict[int, tuple[Fraction, ...]], Fraction]:
    """Part 2 one step layer at a time, with the imbalance measured per key:
    the tables, the gaps of every key with a nonzero gap, and the total."""
    t, length = keyset.t, keyset.length
    steps = step_decomposition(px2, t)
    if steps.k == 0:
        return [JointTable(m, {}) for m in range(1, t + 1)], {}, Fraction(0)
    k = steps.k
    anchored = anchored_pairs(keyset, k)
    cell_count = anchored_cell_count(length, t, k)
    rows_per_m: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    for j, delta in steps.increments:
        if delta == 0:
            continue
        share = Fraction(delta, cell_count)
        for token in range(length - j + 1, length + 1):
            slot = token - 1 - (length - k)
            for m in range(1, t + 1):
                for idx, tail in anchored:
                    if tail[slot] == m:
                        add_mass(rows_per_m[m - 1], idx, token, share)
    tables = [JointTable(m, rows) for m, rows in enumerate(rows_per_m, start=1)]
    per_key: dict[int, tuple[Fraction, ...]] = {}
    total = Fraction(0)
    for idx, _ in anchored:
        sums = [row_sum(table, idx) for table in tables]
        gaps = tuple(max(sums) - s for s in sums)
        if any(gaps):
            per_key[idx] = gaps
        total += gaps[0]
    return tables, per_key, total


def build_pm3_layered(
    px3: Sequence[Fraction],
    steps: StepDecomposition,
    imbalance: Fraction,
    keyset: KeySet,
) -> list[JointTable]:
    """Part 3 one step layer at a time, then the leftover on the zero key;
    imbalance is the part-2 total gap."""
    t, length = keyset.t, keyset.length
    total_overshoot = sum(px3, Fraction(0))
    tables: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    support = [x for x in range(1, length + 1) if x <= len(px3) and px3[x - 1] > 0]
    if total_overshoot == 0:
        return [JointTable(m, rows) for m, rows in enumerate(tables, start=1)]
    if steps.k > 0:
        anchored = anchored_pairs(keyset, steps.k)
        for j, delta in steps.increments:
            if delta == 0:
                continue
            for m in range(1, t + 1):
                eligible = [idx for idx, tail in anchored if m not in tail[steps.k - j:]]
                layer_mass = delta * (t - j)
                for x in support:
                    share = px3[x - 1] / total_overshoot * layer_mass / len(eligible)
                    for idx in eligible:
                        add_mass(tables[m - 1], idx, x, share)
    leftover = 1 - Fraction(imbalance, total_overshoot)
    for m in range(1, t + 1):
        for x in support:
            add_mass(tables[m - 1], keyset.zero_index, x, px3[x - 1] * leftover)
    return [JointTable(m, rows) for m, rows in enumerate(tables, start=1)]


def column_sum(table: JointTable, token: int) -> Fraction:
    """Table mass on one token, one Fraction addition per cell."""
    return sum((row[token] for row in table.rows.values() if token in row), Fraction(0))


def row_sum(table: JointTable, key_index: int) -> Fraction:
    """Table mass on one key, one Fraction addition per cell."""
    return sum(table.rows.get(key_index, {}).values(), Fraction(0))


def table_mass(table: JointTable) -> Fraction:
    """Table mass over every cell, one Fraction addition per cell."""
    return sum((mass for _, _, mass in table.cells()), Fraction(0))


def reference_decoded_sums(
    scheme: WatermarkScheme,
) -> tuple[list[tuple[Fraction, ...]], list[tuple[Fraction, ...]], tuple[Fraction, ...]]:
    """columns, captured and marked as the decoded view defines them."""
    keys = {idx: scheme.keyset.key(idx) for idx in scheme.key_support() | set(scheme.pz)}
    columns, captured = [], []
    for m, table in enumerate(scheme.tables, start=1):
        column, hit = [Fraction(0)] * scheme.n, [Fraction(0)] * scheme.n
        for idx, token, mass in table.cells():
            column[token - 1] += mass
            if decode(token, keys[idx]) == m:
                hit[token - 1] += mass
        columns.append(tuple(column))
        captured.append(tuple(hit))
    marked = [Fraction(0)] * scheme.n
    for idx, mass in scheme.pz.items():
        for pos, value in enumerate(keys[idx][: scheme.n]):
            if value:
                marked[pos] += mass
    return columns, captured, tuple(marked)


def reference_row_sum_failures(scheme: WatermarkScheme):
    for idx in sorted(scheme.key_support()):
        reference = row_sum(scheme.tables[0], idx)
        for table in scheme.tables[1:]:
            actual = row_sum(table, idx)
            if actual != reference:
                yield f"key={idx}, m={table.m}", reference, actual


def reference_mass_failures(scheme: WatermarkScheme):
    for table in scheme.tables:
        for idx, token, mass in table.cells():
            if mass < 0:
                yield f"m={table.m}, key={idx}, x={token}", Fraction(0), mass
        total = sum((mass for _, _, mass in table.cells()), Fraction(0))
        if total != 1:
            yield f"m={table.m} total", Fraction(1), total


def reference_column_failures(sums, bounds, fails):
    """By table m, then token x: each (location, bound, sum) where fails(sum, bound)."""
    for m, row in enumerate(sums, start=1):
        for x, (actual, bound) in enumerate(zip(row, bounds), start=1):
            if fails(actual, bound):
                yield f"m={m}, x={x}", bound, actual


def reference_check_scheme(scheme: WatermarkScheme) -> PropertyReport:
    """keymark.metrics.check_scheme on the per-cell Fraction sums above,
    compared as Fractions."""
    columns, captured, marked = reference_decoded_sums(scheme)
    cap = Fraction(scheme.alpha, scheme.t)
    floors = [min(cap, p) for p in scheme.px.probs]
    failures = (
        reference_column_failures(columns, scheme.px.probs, operator.ne),
        reference_row_sum_failures(scheme),
        reference_column_failures(captured, floors, operator.lt),
        ((f"x={x}", scheme.alpha, a) for x, a in enumerate(marked, 1) if a > scheme.alpha),
        reference_mass_failures(scheme),
    )
    checks = []
    for name, found in zip(PROPERTY_NAMES, failures):
        first = next(found, None)
        checks.append(PropertyCheck(name, False, *first) if first else PropertyCheck(name, True))
    return PropertyReport(tuple(checks))


def reference_cdf(masses: Sequence[Fraction]) -> np.ndarray:
    """Inverse-CDF table: one Fraction addition and one float() per cell."""
    prefix = []
    running = Fraction(0)
    for mass in masses:
        running += mass
        prefix.append(float(running))
    prefix[-1] = 1.0
    return np.asarray(prefix)


def reference_hits(
    scheme: WatermarkScheme, m: int, trials: int, seed: int, qx: TokenDistribution | None = None
) -> int:
    """keymark.sim.monte_carlo's hit count, each draw searched over every
    cell (m >= 1) or every pz key and tested on its full key (m = 0)."""
    rng = np.random.Generator(np.random.Philox(seed))
    if m == 0:
        keys = sorted(scheme.pz)
        qx_cdf = reference_cdf((qx or scheme.px).probs)
        xs = np.searchsorted(qx_cdf, rng.random(trials), side="right")
        pz_cdf = reference_cdf([scheme.pz[k] for k in keys])
        ks = np.searchsorted(pz_cdf, rng.random(trials), side="right")
        return sum(1 for x, k in zip(xs, ks) if scheme.keyset.key(keys[k])[x] != 0)
    cells = list(scheme.table(m).cells())
    cell_cdf = reference_cdf([mass for _, _, mass in cells])
    picks = np.searchsorted(cell_cdf, rng.random(trials), side="right")
    missed = [decode(token, scheme.keyset.key(idx)) != m for idx, token, _ in cells]
    return sum(missed[pick] for pick in picks)


def reference_inputs(a: Sequence[Fraction], t: int) -> tuple[list[Fraction], int]:
    """The entries as Fractions and t as an int; a float or bool entry, a
    negative entry, or a t outside [1:len(a)] raises ParameterError."""
    entries = [exact_rational(v, "entry") for v in a]
    if not entries:
        raise ParameterError("empty vector")
    t = exact_int(t, "t")
    if not 1 <= t <= len(entries):
        raise ParameterError(f"t={t} outside [1:{len(entries)}]")
    if any(v < 0 for v in entries):
        raise ParameterError("negative entry in vector")
    return entries, t


def reference_decompose_t_hot(a: Sequence[Fraction], t: int) -> THotDecomposition:
    """Greedy decomposition of a representable vector into T-hot terms.

    Each round targets the T largest residual entries (ties to the lowest
    index) and uses the largest weight under which the residual stays
    non-negative and representable:

        weight = (1/T) * min( min_{j in supp} T*v(j),
                              min_{j not in supp} (sum(v) - T*v(j)) )

    For a representable nonzero residual the weight is provably positive, and
    the set {i : v(i)=0 or T*v(i)=sum(v)} gains a member every round, so the
    loop runs at most L times.

    The indices are kept sorted by (-v(i), i), so the support is the first T
    of them and the outer minimum is sum(v) - T * (the (T+1)-th largest).  A
    round lowers its T support entries by the same weight, which keeps their
    relative order, and reinserts them by binary search; the sum is a running
    value.  Every invariant is checked on what changed: only support entries
    can go negative, the largest entry is the first in order, zeros only grow
    (from the support) and the boundary entries T*v(i)=sum(v) are a prefix of
    the order with at most T members.  A round costs O(T log L) exact
    operations plus O(L) list moves for the order, so after the initial sort
    the at most L rounds take O(L T log L) exact operations.
    """
    residual, t = reference_inputs(a, t)
    length = len(residual)
    total = sum(residual)
    if t * max(residual) > total:
        raise ParameterError(f"vector is not {t}-hot representable")

    # rank[i] = (-residual[i], i), kept current, so a probe only reads it.
    rank = [(-v, i) for i, v in enumerate(residual)]

    def boundary() -> list[int]:
        return list(takewhile(lambda i: t * residual[i] == total, order))

    order = sorted(range(length), key=rank.__getitem__)
    terms: list[THotTerm] = []
    frozen = boundary()
    for _ in range(length + 1):
        if total == 0:
            break
        support = order[:t]
        inner = t * residual[support[-1]]
        outer = total - t * residual[order[t]] if t < length else inner
        weight = Fraction(min(inner, outer), t)
        if weight <= 0:
            raise InvariantError("greedy step produced a non-positive weight")
        terms.append(THotTerm(tuple(sorted(support)), weight))
        del order[:t]
        for j in support:
            residual[j] -= weight
            rank[j] = (-residual[j], j)
            insort(order, j, key=rank.__getitem__)
        total -= t * weight
        if any(residual[j] < 0 for j in support):
            raise InvariantError("residual went negative")
        if t * residual[order[0]] > total:
            raise InvariantError("residual lost representability")
        if total == 0:
            continue
        # The saturated set is {zeros} + boundary, disjoint while the total is
        # nonzero.  Zeros stay zero (a zero in the support would have given a
        # zero weight), so the set grows strictly exactly when the old
        # boundary stays saturated and new zeros plus the new boundary
        # outnumber the old boundary.
        grown = boundary()
        new_zeros = sum(1 for j in support if residual[j] == 0)
        kept = all(residual[i] == 0 or t * residual[i] == total for i in frozen)
        if not kept or new_zeros + len(grown) <= len(frozen):
            raise InvariantError("saturated index set failed to grow")
        frozen = grown
    else:
        raise InvariantError(f"decomposition did not terminate in {length} rounds")
    return THotDecomposition(tuple(terms), length)


def reference_sparse_key(keyset: ReducedKeySet, index: int) -> SparseKey:
    """ReducedKeySet.sparse_key by bisection over positions at each level."""
    if not 0 <= index < keyset.size:
        raise ParameterError(f"key index {index} outside [0:{keyset.size - 1}]")
    if index == 0:
        return ()
    rank = index - 1
    pairs: list[tuple[int, int]] = []
    unused = list(range(1, keyset.t + 1))
    pos = 0
    while unused:
        u = len(unused)
        # The perm(L-pos-1, u) completions with a zero at pos precede
        # every other key with this prefix.  That count falls as pos
        # grows, so the next nonzero position is the first one whose
        # zero-block no longer exceeds the rank; at pos = L-u it is 0.
        lo, hi = pos, keyset.length - u
        while lo < hi:
            mid = (lo + hi) // 2
            if math.perm(keyset.length - mid - 1, u) <= rank:
                hi = mid
            else:
                lo = mid + 1
        pos = lo
        remaining = keyset.length - pos - 1
        rank -= math.perm(remaining, u)
        chosen, rank = divmod(rank, math.perm(remaining, u - 1))
        pairs.append((pos, unused.pop(chosen)))
        pos += 1
    return tuple(pairs)


def reference_unchecked_index(keyset: ReducedKeySet, pairs: Sequence[tuple[int, int]]) -> int:
    """ReducedKeySet.unchecked_index with two perm calls per nonzero position."""
    if not pairs:
        return 0
    # Rank only grows at nonzero positions: by every key with a zero
    # there, then by every key with a smaller unused value there.
    perm, last = math.perm, keyset.length - 1
    rank = 0
    unused = list(range(1, keyset.t + 1))
    for pos, value in pairs:
        remaining = last - pos
        spot = unused.index(value)
        rank += perm(remaining, len(unused)) + spot * perm(remaining, len(unused) - 1)
        unused.pop(spot)
    return rank + 1


class ReferenceKeyListing:
    """KeyListing with its key -> index map: add(key) ranks a key when a
    builder first meets it and looks it up after that."""

    def __init__(self, keyset: ReducedKeySet) -> None:
        self.keyset = keyset
        self.keys: dict[int, SparseKey] = {}
        self._indices: dict[SparseKey, int] = {}
        self._rows: dict[int, list[tuple[int, int]]] = {}

    def row(self, pos: int) -> list[tuple[int, int]]:
        """row(pos)[v] is the shared pair (pos, v), for v in [0:T]."""
        row = self._rows.get(pos)
        if row is None:
            row = self._rows[pos] = [(pos, v) for v in range(self.keyset.t + 1)]
        return row

    def add(self, key: SparseKey) -> int:
        """The index of key, a member's sparse key sorted by position (as the
        builders build it), ranked by reference_unchecked_index on first sight."""
        idx = self._indices.get(key)
        if idx is None:
            idx = self._indices[key] = reference_unchecked_index(self.keyset, key)
            self.keys[idx] = key
        return idx

    def hand_over(self) -> dict[int, SparseKey]:
        """The listed keys and the all-zero key, by index."""
        self.keys[self.keyset.zero_index] = ()
        return self.keys


def reference_structural_pairs(
    keyset: ReducedKeySet, support: Sequence[int], listing: ReferenceKeyListing,
    cyclic: bool = False,
) -> list[tuple[int, SparseKey]]:
    """(index, sparse key) of the T! keys with nonzero positions support, or,
    if cyclic, of the T keys s with message (j+s) mod T + 1 on support[j]."""
    t = keyset.t
    rows = [listing.row(pos) for pos in support]
    shifts = ([(j + s) % t + 1 for j in range(t)] for s in range(t))
    messages = shifts if cyclic else itertools.permutations(range(1, t + 1))
    cells = ([row[v] for row, v in zip(rows, values)] for values in messages)
    keys = [tuple(sorted(key) if cyclic else key) for key in cells]
    return [(listing.add(key), key) for key in keys]


def reference_anchored_tails(
    keyset: ReducedKeySet, anchors: Sequence[int], order: Sequence[int],
    listing: ReferenceKeyListing,
) -> list[tuple[tuple[int, ...], list[int]]]:
    """The anchored keys by their entries at the anchors, one key ranked at
    a time."""
    t, k, add = keyset.t, len(anchors), listing.add
    anchor_set = set(anchors)
    free = [listing.row(pos) for pos in order if pos not in anchor_set]
    anchored: list[tuple[tuple[int, ...], list[int]]] = []
    for tail in itertools.permutations(range(1, t + 1), k):
        rest = [v for v in range(1, t + 1) if v not in tail]
        tail_pairs = [listing.row(a)[v] for a, v in zip(anchors, tail)]
        members: list[int] = []
        for s in range(len(free)):
            window = [free[(s + j) % len(free)][v] for j, v in enumerate(rest)]
            members.append(add(tuple(sorted(window + tail_pairs))))
        anchored.append((tail, members))
    return anchored


def reference_build_pm1(
    decomp: THotDecomposition, keyset: ReducedKeySet, listing: ReferenceKeyListing,
    order: Sequence[int] | None = None,
) -> list[JointTable]:
    """build_pm1 with one add_mass per cell and a validated JointTable per message."""
    t = keyset.t
    if order is None:
        count = len(decomp.terms) * math.factorial(t)
        check_listing(count, f"structural keys ({len(decomp.terms)} terms, t={t})", ENUMERATION_CAP)
        share_denominator = math.factorial(t - 1)
    else:
        order, share_denominator = _key_order(order, keyset.length), 1
    rows_per_m: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    for term in decomp.terms:
        if len(term.support) != t:
            raise ParameterError(f"support {term.support} is not {t}-hot")
        support = term.support if order is None else [order[i] for i in term.support]
        share = Fraction(term.weight, share_denominator)
        for idx, key in reference_structural_pairs(keyset, support, listing, order is not None):
            for pos, m in key:
                add_mass(rows_per_m[m - 1], idx, pos + 1, share)
    return [JointTable(m, rows) for m, rows in enumerate(rows_per_m, start=1)]


def reference_build_pm2(
    px2: Sequence[Fraction], keyset: ReducedKeySet, listing: ReferenceKeyListing,
    order: Sequence[int],
) -> tuple[list[JointTable], ImbalanceLedger]:
    """build_pm2 with one row map per tail class, shared by its members
    until JointTable copies them."""
    t, length = keyset.t, keyset.length
    px2 = _exact_entries(px2, "px2", length)
    order = _key_order(order, length)
    anchors = [i for i, v in enumerate(px2) if v > 0]
    k = len(anchors)
    if k == 0:
        return [JointTable(m, {}) for m in range(1, t + 1)], ImbalanceLedger((), Fraction(0))
    cell_count = anchored_cell_count(length, t, k)
    slots = [(pos + 1, Fraction(px2[pos], cell_count)) for pos in anchors]
    hits = [[0] * t for _ in range(k)]
    rows_per_m: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    classes = []
    totals = [Fraction(0)] * t
    for tail, members in reference_anchored_tails(keyset, anchors, order, listing):
        sums = [Fraction(0)] * t
        for (token, share), m, slot_hits in zip(slots, tail, hits):
            # JointTable copies every row, so the members can share this one.
            rows_per_m[m - 1].update(dict.fromkeys(members, {token: share}))
            sums[m - 1] = share
            slot_hits[m - 1] += len(members)
        peak = max(sums)
        gaps = tuple(peak - s for s in sums)
        classes.append((members, gaps))
        for m_i, gap in enumerate(gaps):
            totals[m_i] += gap * len(members)
    for slot_hits in hits:
        for count in slot_hits:
            if count != cell_count:
                raise InvariantError(f"anchored slice size {count} != expected {cell_count}")
    if len(set(totals)) != 1:
        raise InvariantError(f"imbalance totals differ across messages: {totals}")
    expected_total = t * max(px2) - sum(px2, Fraction(0))
    if totals[0] != expected_total:
        raise InvariantError(
            f"measured imbalance {totals[0]} != closed form {expected_total}"
        )
    tables = [JointTable(m, rows) for m, rows in enumerate(rows_per_m, start=1)]
    return tables, ImbalanceLedger(tuple(classes), totals[0])


def reference_build_pm3(
    px3: Sequence[Fraction], ledger: ImbalanceLedger, keyset: KeySet
) -> list[JointTable]:
    """build_pm3 with the all-zero key's cells added by add_mass."""
    t, length = keyset.t, keyset.length
    px3 = _exact_entries(px3, "px3", length)
    total_overshoot = sum(px3, Fraction(0))
    tables: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    support = [x for x in range(1, length + 1) if px3[x - 1] > 0]
    if total_overshoot == 0:
        if ledger.total != 0:
            raise InvariantError("imbalance positive but no mass left to cancel it")
        return [JointTable(m, rows) for m, rows in enumerate(tables, start=1)]
    if ledger.total > total_overshoot:
        raise InvariantError(
            f"imbalance {ledger.total} exceeds remaining mass {total_overshoot}"
        )
    weights = [(x, px3[x - 1] / total_overshoot) for x in support]
    for members, gaps in ledger.classes:
        for rows, gap in zip(tables, gaps):
            if gap:
                rows.update(dict.fromkeys(members, {x: gap * w for x, w in weights}))
    leftover = 1 - Fraction(ledger.total, total_overshoot)
    for m in range(1, t + 1):
        for x in support:
            add_mass(tables[m - 1], keyset.zero_index, x, px3[x - 1] * leftover)
    return [JointTable(m, rows) for m, rows in enumerate(tables, start=1)]


def reference_merge_tables(m: int, *parts: JointTable) -> JointTable:
    """merge_tables that adopts a part's row until a second part adds to
    it, then lets JointTable make the merged table's one ordered copy."""
    rows: dict[int, dict[int, Fraction]] = {}
    copied: set[int] = set()
    for part in parts:
        if part.m != m:
            raise ParameterError(f"cannot merge table for m={part.m} into m={m}")
        for key_index, row in part.rows.items():
            if not row:
                continue
            if key_index not in rows:
                rows[key_index] = row
                copied.discard(key_index)
                continue
            if key_index not in copied:
                rows[key_index] = dict(rows[key_index])
                copied.add(key_index)
            for token, mass in row.items():
                add_mass(rows, key_index, token, mass)
    return JointTable(m, rows)


def reference_construct_a(px: TokenDistribution, alpha: Fraction, t: int) -> WatermarkScheme:
    """construct_a on the reference builders and merge."""
    alpha, t = check_instance(px, alpha, t)
    split = split_px(TokenDistribution(px.sorted_probs), alpha, t)
    if split.K and any(p3 and not p2 for p2, p3 in zip(split.px2, split.px3)):
        raise InvariantError("px3 is positive off the anchors")
    keyset = ReducedKeySet(px.n, t)
    decomp = restore_supports(px, decompose_t_hot(split.px1, t))
    listing = ReferenceKeyListing(keyset)
    pm1 = reference_build_pm1(decomp, keyset, listing)
    pm2, ledger = reference_build_pm2(
        restore_token_order(px, split.px2), keyset, listing, px.sort_perm
    )
    pm3 = reference_build_pm3(restore_token_order(px, split.px3), ledger, keyset)
    tables = [
        reference_merge_tables(m, pm1.pop(0), pm2.pop(0), pm3.pop(0)) for m in range(1, t + 1)
    ]
    provenance = {
        "method": "direct",
        "K": split.K,
        "K_tilde": split.K_tilde,
        "y": None if split.y is None else mass_to_string(split.y),
        "imbalance": mass_to_string(ledger.total),
        "overshoot": mass_to_string(sum(split.px3, Fraction(0))),
    }
    return assemble_checked(alpha, px, keyset, tables, provenance, listing)


def reference_construct_b(
    px: TokenDistribution, alpha: Fraction, t: int, force_pseudo: bool = False
) -> WatermarkScheme:
    """construct_b (greedy decomposition) on reference_build_pm1."""
    alpha, t = check_instance(px, alpha, t)
    ext = extend_px(TokenDistribution(px.sorted_probs), alpha, t, force_pseudo=force_pseudo)
    length = px.n + ext.n
    keyset = ReducedKeySet(length, t)
    decomposition = decompose_t_hot(ext.px_prime, t)
    listing = ReferenceKeyListing(keyset)
    order = px.sort_perm + tuple(range(px.n, length))
    prime_tables = reference_build_pm1(decomposition, keyset, listing, order)
    leftover = restore_token_order(px, ext.r)
    if ext.n == 0:
        zero_row = {x: r for x, r in enumerate(leftover, start=1) if r}
        tables = []
        for table in prime_tables:
            rows = {keyset.zero_index: dict(zero_row), **table.rows} if zero_row else table.rows
            tables.append(JointTable.unchecked(table.m, rows))
    else:
        shares = [(x, r / ext.R) for x, r in enumerate(leftover, start=1) if r > 0]
        if exact_sum(share for _, share in shares) != 1:
            raise InvariantError("fold-back shares do not total 1")
        tables = [_fold_back(table, px.n, shares) for table in prime_tables]
    provenance = {
        "method": "extended",
        "pseudo_tokens": ext.n,
        "leftover": mass_to_string(ext.R),
        "forced": force_pseudo,
    }
    return assemble_checked(alpha, px, keyset, tables, provenance, listing)
