"""Direct construction of the per-message joint tables on the reduced key set.

The split and the T-hot decomposition run on px's sorted view, whose tie
rules fix the outputs; their results (each term's support, px2 and px3) are
then mapped to px's own token order, and three additive parts are built
there directly:

  part 1 spreads each T-hot term's weight uniformly over the keys whose
         support equals the term's support (weight / (T-1)! per cell);
  part 2 gives each anchored key (nonzero at the K tokens where px2 > 0,
         the heaviest ones) the cell px2(x)/c at every such token x, under
         the message the key holds there, with c anchored keys per
         (token, message) pair.  This leaves a row-sum imbalance of
         T*max(px2) - sum(px2) in total;
  part 3 lifts each anchored key's row sum under m to its peak with
         gap_m * px3(x)/R per token, R = sum(px3), and parks the
         remainder on the all-zero key.

Every key is ranked once, at its final positions.  The combined tables
have column sums equal to px, identical row sums across messages, and
decode-to-m column sums exactly min(alpha/T, px(x)).  All arithmetic is
exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    ENUMERATION_CAP,
    JointTable,
    KeySet,
    ReducedKeySet,
    SparseKey,
    TokenDistribution,
    WatermarkScheme,
    add_mass,
    check_instance,
    check_listing,
    merge_tables,
)
from .errors import InvariantError, ParameterError
from .rationals import mass_to_string
from .split import split_px
from .thot import THotDecomposition, THotTerm, decompose_t_hot

__all__ = [
    "ImbalanceLedger",
    "structural_keys",
    "anchored_keys",
    "build_pm1",
    "build_pm2",
    "build_pm3",
    "construct_a",
    "restore_token_order",
]


@dataclass(frozen=True)
class ImbalanceLedger:
    """Row-sum imbalance of the part-2 tables.

    per_key[key_index][m-1] is the gap between that key's largest row sum
    over messages and its row sum under m; keys whose gaps are all zero are
    left out.  Keys with the same tail share one gaps tuple.  The total gap
    is the same for every message; total stores that common value.
    """

    per_key: dict[int, tuple[Fraction, ...]]
    total: Fraction


def structural_keys(keyset: KeySet, omega: Sequence[int]) -> set[int]:
    """Indices of keys whose nonzero positions equal the support of omega.

    These are the T! orderings of 1..T over the support, listed one by one,
    so T! above ENUMERATION_CAP raises CapacityError before the first.
    """
    check_listing(math.factorial(keyset.t), "structural keys", ENUMERATION_CAP)
    return {idx for idx, _ in _structural_pairs(keyset, omega)}


def _structural_pairs(keyset: KeySet, omega: Sequence[int]) -> list[tuple[int, SparseKey]]:
    if len(omega) != keyset.length:
        raise ParameterError(f"omega length {len(omega)} != key length {keyset.length}")
    support = [i for i, bit in enumerate(omega) if bit]
    if len(support) != keyset.t:
        raise ParameterError(f"omega must have exactly {keyset.t} ones")
    pairs: list[tuple[int, SparseKey]] = []
    for values in itertools.permutations(range(1, keyset.t + 1)):
        key = tuple(zip(support, values))
        try:
            pairs.append((keyset.sparse_index(key), key))
        except KeyError:
            continue
    return pairs


def anchored_keys(keyset: KeySet, k: int) -> set[int]:
    """Indices of keys whose last k coordinates are all nonzero."""
    if not 1 <= k <= keyset.t - 1:
        raise ParameterError(f"anchor width {k} outside [1:{keyset.t - 1}]")
    return {idx for idx, _ in _anchored_tails(keyset, range(keyset.length - k, keyset.length))}


def _anchored_tails(
    keyset: KeySet, anchors: Sequence[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """(index, entries at anchors) of every key that is nonzero at all anchors.

    anchors are distinct 0-based positions, increasing.  On the reduced key
    set these are perm(t, k) * perm(L-k, t-k) keys for k anchors, each
    ranked once at its final positions; they are listed one by one, so a
    count above ENUMERATION_CAP raises CapacityError before the first.
    """
    t, length, k = keyset.t, keyset.length, len(anchors)
    if not isinstance(keyset, ReducedKeySet):
        keys = ((i, keyset.key(i)) for i in range(len(keyset)))
        tails = ((i, tuple(key[a] for a in anchors)) for i, key in keys)
        return [(i, tail) for i, tail in tails if all(tail)]
    check_listing(
        math.perm(t, k) * math.perm(length - k, t - k),
        f"anchored keys (length={length}, t={t}, k={k})",
        ENUMERATION_CAP,
    )
    anchor_set = set(anchors)
    free = [pos for pos in range(length) if pos not in anchor_set]
    anchored: list[tuple[int, tuple[int, ...]]] = []
    for tail in itertools.permutations(range(1, t + 1), k):
        rest = [v for v in range(1, t + 1) if v not in tail]
        tail_pairs = tuple(zip(anchors, tail))
        for head_positions in itertools.permutations(free, len(rest)):
            key = tuple(zip(head_positions, rest)) + tail_pairs
            anchored.append((keyset.sparse_index(key), tail))
    return anchored


def anchored_cell_count(n: int, t: int, k: int) -> int:
    """Anchored keys hitting a fixed (token, message) pair at one of k anchors.

    Fixing one anchor to a given message leaves k-1 anchors for the
    remaining values and t-k values for the other n-k slots, so the count is
    perm(t-1, k-1) * perm(n-k, t-k), independent of which pair was fixed.
    """
    return math.perm(t - 1, k - 1) * math.perm(n - k, t - k)


def build_pm1(decomp: THotDecomposition, keyset: KeySet) -> list[JointTable]:
    """Spread each term's weight over its structural keys, weight/(T-1)! per cell.

    Every key with the term's support assigns each message to exactly one
    token, so each key contributes one cell per message and column sums
    reconstruct the decomposed vector.  The T! keys of every term are listed
    one by one, so more than ENUMERATION_CAP of them in all raise
    CapacityError before the first.
    """
    if not isinstance(keyset, ReducedKeySet):
        raise ParameterError("part-1 allocation requires the reduced key set")
    t = keyset.t
    check_listing(
        len(decomp.terms) * math.factorial(t),
        f"structural keys ({len(decomp.terms)} terms, t={t})",
        ENUMERATION_CAP,
    )
    share_denominator = math.factorial(t - 1)
    rows_per_m: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    for term in decomp.terms:
        share = Fraction(term.weight, share_denominator)
        for idx, key in _structural_pairs(keyset, term.omega):
            for pos, m in key:
                add_mass(rows_per_m[m - 1], idx, pos + 1, share)
    return [JointTable(m, rows) for m, rows in enumerate(rows_per_m, start=1)]


def build_pm2(
    px2: Sequence[Fraction], keyset: KeySet
) -> tuple[list[JointTable], ImbalanceLedger]:
    """Spread px2 over the anchored keys: one cell px2(x)/c per anchor token.

    px2 must be non-negative with K <= T-1 positive entries; their positions,
    wherever they sit, are the anchors.  An anchored key (nonzero at every
    anchor) that holds message m at anchor token x gets px2(x)/c in table m,
    where c = anchored_cell_count(L, T, K) keys share each (token, message)
    pair; a count other than c raises InvariantError.  Row sums now differ
    across messages; the returned ledger records the per-key gaps and their
    total (equal for every message).  A key's part-2 rows depend only on its
    entries at the anchors, so the row sums, peak and gaps are taken once per
    distinct tail and each class adds gap * class size to the totals.  The
    totals must agree across messages and equal the closed form
    T*max(px2) - sum(px2), or InvariantError is raised.
    """
    t, length = keyset.t, keyset.length
    if any(v < 0 for v in px2):
        raise ParameterError("px2 has a negative entry")
    anchors = [i for i, v in enumerate(px2) if v > 0]
    k = len(anchors)
    if k == 0:
        return [JointTable(m, {}) for m in range(1, t + 1)], ImbalanceLedger({}, Fraction(0))
    if k > t - 1:
        raise ParameterError(f"px2 has {k} positive entries, more than t-1={t - 1}")
    anchored = _anchored_tails(keyset, anchors)
    cell_count = anchored_cell_count(length, t, k)
    slots = [(pos + 1, Fraction(px2[pos], cell_count)) for pos in anchors]
    hits = [[0] * t for _ in range(k)]
    rows_per_m: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    for idx, tail in anchored:
        for (token, share), m, slot_hits in zip(slots, tail, hits):
            rows_per_m[m - 1].setdefault(idx, {})[token] = share
            slot_hits[m - 1] += 1
    for slot_hits in hits:
        for count in slot_hits:
            if count != cell_count:
                raise InvariantError(f"anchored slice size {count} != expected {cell_count}")
    tables = [JointTable(m, rows) for m, rows in enumerate(rows_per_m, start=1)]

    # Keys sharing a tail share their part-2 rows: one member stands for all.
    classes: dict[tuple[int, ...], list[int]] = {}
    for idx, tail in anchored:
        classes.setdefault(tail, []).append(idx)
    per_key: dict[int, tuple[Fraction, ...]] = {}
    totals = [Fraction(0)] * t
    for members in classes.values():
        sums = [tables[m - 1].row_sum(members[0]) for m in range(1, t + 1)]
        peak = max(sums)
        gaps = tuple(peak - s for s in sums)
        if any(gaps):
            per_key.update(dict.fromkeys(members, gaps))
        for m_i, gap in enumerate(gaps):
            totals[m_i] += gap * len(members)
    if len(set(totals)) != 1:
        raise InvariantError(f"imbalance totals differ across messages: {totals}")
    expected_total = t * max(px2) - sum(px2, Fraction(0))
    if totals[0] != expected_total:
        raise InvariantError(
            f"measured imbalance {totals[0]} != closed form {expected_total}"
        )
    return tables, ImbalanceLedger(per_key, totals[0])


def build_pm3(
    px3: Sequence[Fraction], ledger: ImbalanceLedger, keyset: KeySet
) -> list[JointTable]:
    """Cancel the part-2 imbalance with px3 mass and park the rest on key 0.

    Each key in the ledger gets gap_m * px3(x)/R under message m on every
    token x with px3(x) > 0, where R = sum(px3); this lifts its row sum
    under m to its peak.  Keys of one tail class share their gaps, so the
    cells are computed once per class.  Every token with leftover
    cap then puts px3(x)*(1 - U/R) on the all-zero key, U = ledger.total.
    """
    t, length = keyset.t, keyset.length
    total_overshoot = sum(px3, Fraction(0))
    tables: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    support = [x for x in range(1, length + 1) if x <= len(px3) and px3[x - 1] > 0]
    if total_overshoot == 0:
        if ledger.total != 0:
            raise InvariantError("imbalance positive but no mass left to cancel it")
        return [JointTable(m, rows) for m, rows in enumerate(tables, start=1)]
    if ledger.total > total_overshoot:
        raise InvariantError(
            f"imbalance {ledger.total} exceeds remaining mass {total_overshoot}"
        )
    weights = [(x, px3[x - 1] / total_overshoot) for x in support]
    # Keyed by the identity of the gaps tuple that a tail class shares, so
    # no Fraction is hashed per key; per_key keeps every tuple alive.
    rows_by_class: dict[int, list[dict[int, Fraction]]] = {}
    for idx, gaps in ledger.per_key.items():
        class_rows = rows_by_class.get(id(gaps))
        if class_rows is None:
            class_rows = rows_by_class[id(gaps)] = [
                {x: gap * w for x, w in weights} if gap else {} for gap in gaps
            ]
        for rows, row in zip(tables, class_rows):
            if row:
                rows[idx] = dict(row)
    leftover = 1 - Fraction(ledger.total, total_overshoot)
    for m in range(1, t + 1):
        for x in support:
            add_mass(tables[m - 1], keyset.zero_index, x, px3[x - 1] * leftover)
    return [JointTable(m, rows) for m, rows in enumerate(tables, start=1)]


def restore_token_order(px: TokenDistribution, values: Sequence) -> tuple:
    """Map a vector on the sorted token view to px's own token order.

    Sorted entry i moves to position sort_perm[i]; entries beyond px.n (the
    extension slots of a longer key) stay where they are.  The constructions
    map their inputs with it, so the builders rank every key at its final
    positions.
    """
    moved = list(values)
    for pos, value in zip(px.sort_perm, values):
        moved[pos] = value
    return tuple(moved)


def construct_a(px: TokenDistribution, alpha: Fraction, t: int) -> WatermarkScheme:
    """Full scheme on the reduced key set over the real tokens only."""
    alpha, t = check_instance(px, alpha, t)
    split = split_px(TokenDistribution(px.sorted_probs), alpha, t)
    keyset = ReducedKeySet(px.n, t)
    terms = decompose_t_hot(split.px1, t).terms
    mapped = tuple(THotTerm(restore_token_order(px, term.omega), term.weight) for term in terms)
    pm1 = build_pm1(THotDecomposition(mapped), keyset)
    pm2, ledger = build_pm2(restore_token_order(px, split.px2), keyset)
    pm3 = build_pm3(restore_token_order(px, split.px3), ledger, keyset)
    tables = [
        merge_tables(m, pm1[m - 1], pm2[m - 1], pm3[m - 1]) for m in range(1, t + 1)
    ]
    for table in tables:
        if table.total_mass() != 1:
            raise InvariantError(f"table m={table.m} has mass {table.total_mass()}")
    provenance = {
        "method": "direct",
        "K": split.K,
        "K_tilde": split.K_tilde,
        "y": None if split.y is None else mass_to_string(split.y),
        "imbalance": mass_to_string(ledger.total),
        "overshoot": mass_to_string(sum(split.px3, Fraction(0))),
    }
    return WatermarkScheme.assemble(alpha, px, keyset, tables, provenance=provenance)
