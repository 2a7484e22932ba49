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

The Monte Carlo references build each inverse-CDF table from a running
Fraction sum converted to float cell by cell, and search the table once per
draw, as keymark.sim did before it took integer prefix sums and counted
each cell's draws from sorted draws.  No production code imports this
module.
"""

from __future__ import annotations

import math
import operator
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Sequence

import numpy as np

from keymark.construct_a import KeyListing, _anchored_tails, anchored_cell_count
from keymark.core import (
    JointTable,
    KeySet,
    ReducedKeySet,
    SparseKey,
    TokenDistribution,
    WatermarkScheme,
    add_mass,
    decode,
    exact_int,
    exact_rational,
)
from keymark.errors import InvariantError, ParameterError
from keymark.metrics import PROPERTY_NAMES, PropertyCheck, PropertyReport
from keymark.thot import THotDecomposition, THotTerm


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
