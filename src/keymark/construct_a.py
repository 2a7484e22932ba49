"""Direct construction of the per-message joint tables on the reduced key set.

The split and the T-hot decomposition run on px's sorted view, whose tie
rules fix the outputs; their results (each term's support, px2 and px3) are
then mapped to px's own token order, and three additive parts are built
there directly:

  part 1 spreads each T-hot term's weight over all T! keys with its support
         (weight / (T-1)! per cell; construct_b takes T cyclic shifts);
  part 2 gives each anchored key (nonzero at the K tokens where px2 > 0,
         the heaviest ones) the cell px2(x)/c at every such token x, under
         the message the key holds there, with c anchored keys per
         (token, message) pair.  This leaves a row-sum imbalance of
         T*max(px2) - sum(px2) in total;
  part 3 lifts each anchored key's row sum under m to its peak with
         gap_m * px3(x)/R per token, R = sum(px3), and parks the
         remainder on the all-zero key.

An anchored key's part-2 and part-3 rows depend only on its tail, its
entries at the K anchors, so both parts are built once per tail class (the
keys with one tail) and shared by the class's keys: N-K cyclic windows, not
all perm(N-K, T-K) keys with its tail, with the same checks and optimum.

The builders list every key in sparse form at its final positions, a
member of the reduced key set by construction, and rank it in closed form
without the validating search: the keys over one support share its block
sizes, so each index is base + sum(code[i] * w_i) for the key's Lehmer
code (ReducedKeySet.rank_support).  One KeyListing per key set records
each distinct key once, and the scheme takes that record as sparse_keys,
so it is checked, reported and exported without unranking a key.  Each
builder writes every key's cells straight into its per-message rows, in
key order, and returns them through JointTable.unchecked; merge_tables
then makes each merged row once, so no table of construction A takes
JointTable's validating copy.  The combined tables have column sums
equal to px, identical row sums across messages, and decode-to-m column
sums exactly min(alpha/T, px(x)).  All arithmetic is exact.  Both
constructions end in assemble_checked, whose mass check reads the decoded
view's integer totals, the view that check_scheme then reuses.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .core import (
    ENUMERATION_CAP,
    JointTable,
    KeySet,
    ReducedKeySet,
    SparseKey,
    TokenDistribution,
    WatermarkScheme,
    check_instance,
    check_listing,
    exact_int,
    exact_rational,
    lehmer_code,
    merge_tables,
)
from .errors import InvariantError, ParameterError
from .rationals import mass_to_string
from .split import PxSplit, split_px
from .thot import THotDecomposition, THotTerm, decompose_t_hot

__all__ = [
    "ImbalanceLedger",
    "KeyListing",
    "build_pm1",
    "build_pm2",
    "build_pm3",
    "construct_a",
    "listed_keys",
    "restore_token_order",
]


@dataclass(frozen=True)
class ImbalanceLedger:
    """Row-sum imbalance of the part-2 tables, one entry per tail class.

    classes holds one (members, gaps) per tail class: the indices of its
    keys, which share their part-2 rows, and gaps[m-1], the gap between each
    member's largest row sum over messages and its row sum under m.  The
    total gap is the same for every message; total stores that common value.
    """

    classes: tuple[tuple[list[int], tuple[Fraction, ...]], ...]
    total: Fraction


class KeyListing:
    """The sparse keys that a construction's builders list in one key set.

    Keys are built from shared (position, value) tuples, one per distinct
    pair, and ranked in closed form: every key over one support from that
    support's one set of block sizes (ReducedKeySet.rank_support).  keys
    maps each index to its key.  supports maps each support whose T! keys
    part 1 listed to their indices in Lehmer-code order, so part 2 takes a
    key part 1 listed from there instead of ranking it again.  hand_over()
    adds the all-zero key and gives keys to WatermarkScheme as sparse_keys.
    """

    def __init__(self, keyset: ReducedKeySet) -> None:
        self.keyset = keyset
        self.keys: dict[int, SparseKey] = {}
        self.supports: dict[tuple[int, ...], list[int]] = {}
        self._rows: dict[int, list[tuple[int, int]]] = {}

    @cached_property
    def lexicographic(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """The T! orders of the messages 1..T, lexicographic, and their
        Lehmer codes: all T-tuples with entry i in [0:T-i), in the same order."""
        t = self.keyset.t
        return (
            list(itertools.permutations(range(1, t + 1))),
            list(itertools.product(*(range(t - i) for i in range(t)))),
        )

    def row(self, pos: int) -> list[tuple[int, int]]:
        """row(pos)[v] is the shared pair (pos, v), for v in [0:T]."""
        row = self._rows.get(pos)
        if row is None:
            row = self._rows[pos] = [(pos, v) for v in range(self.keyset.t + 1)]
        return row

    def hand_over(self) -> dict[int, SparseKey]:
        """The listed keys and the all-zero key, by index."""
        self.keys[self.keyset.zero_index] = ()
        return self.keys


def _own_listing(keyset: ReducedKeySet, listing: KeyListing | None) -> KeyListing:
    """listing, or a new one; ParameterError if it lists another key set."""
    if listing is not None and listing.keyset != keyset:
        raise ParameterError(f"listing of {listing.keyset!r} used for {keyset!r}")
    return KeyListing(keyset) if listing is None else listing


def _structural_pairs(
    keyset: ReducedKeySet, support: Sequence[int], listing: KeyListing | None = None,
    cyclic: bool = False,
) -> list[tuple[int, SparseKey]]:
    """(index, sparse key) of the T! keys with nonzero positions support (T
    distinct increasing positions below the key length), in lexicographic
    order, or, if cyclic, of the T keys s with message (j+s) mod T + 1 on
    support[j]; listing, when given, records each.  Each is built sorted, a
    member, and ranked from the support's one set of block sizes; the
    listing keeps the T! keys' indices under the support."""
    t = keyset.t
    listing = _own_listing(keyset, listing)
    positions = sorted(support)
    rows = [listing.row(pos) for pos in positions]
    if cyclic:
        slots = [support.index(pos) for pos in positions]
        messages = [[(j + s) % t + 1 for j in slots] for s in range(t)]
        codes = [lehmer_code(values) for values in messages]
    else:
        messages, codes = listing.lexicographic
    keys = [tuple(map(operator.getitem, rows, values)) for values in messages]
    indices = keyset.rank_support(positions, codes)
    if not cyclic:
        listing.supports[tuple(positions)] = indices
    pairs = list(zip(indices, keys))
    listing.keys.update(pairs)
    return pairs


def _anchored_tails(
    keyset: ReducedKeySet, anchors: Sequence[int], order: Sequence[int], listing: KeyListing
) -> list[tuple[tuple[int, ...], list[int]]]:
    """The anchored keys by their entries at the anchors: one (tail, indices
    of the keys with that tail) per tail; listing records each key.

    anchors are distinct increasing positions; the others, the free ones,
    are taken in order (the sorted view's, so px's labelling does not
    matter).  Each tail puts the other T-K messages, increasing, on free[s],
    ..., free[s+T-K-1] (mod L-K) for each shift s: L-K keys, not all
    perm(L-K, T-K) with that tail (the same keys at T-K = 1).  Each is built
    sorted, a member by construction.  A shift's window and the anchors are
    one support for every tail, ranked from one set of block sizes, or read
    from the listing where part 1 has listed that support's keys.
    """
    t, k = keyset.t, len(anchors)
    anchor_set = set(anchors)
    free = [pos for pos in order if pos not in anchor_set]
    tails = list(itertools.permutations(range(1, t + 1), k))
    rests = [[v for v in range(1, t + 1) if v not in tail] for tail in tails]
    radix = [math.factorial(t - 1 - i) for i in range(t)]
    members: list[list[int]] = [[] for _ in tails]
    for s in range(len(free)):
        window = [free[(s + j) % len(free)] for j in range(t - k)]
        positions = sorted(window + list(anchors))
        rows = [listing.row(pos) for pos in positions]
        messages = []
        for tail, rest in zip(tails, rests):
            held = dict(zip(anchors, tail))
            held.update(zip(window, rest))
            messages.append([held[pos] for pos in positions])
        codes = [lehmer_code(values) for values in messages]
        listed = listing.supports.get(tuple(positions))
        if listed is None:
            indices = keyset.rank_support(positions, codes)
            for idx, values in zip(indices, messages):
                listing.keys[idx] = tuple(map(operator.getitem, rows, values))
        else:
            indices = [listed[sum(map(operator.mul, code, radix))] for code in codes]
        for tail_members, idx in zip(members, indices):
            tail_members.append(idx)
    return list(zip(tails, members))


def anchored_cell_count(n: int, t: int, k: int) -> int:
    """Anchored keys hitting a fixed (token, message) pair at one of k anchors.

    Fixing one anchor to a given message leaves perm(t-1, k-1) tails, each
    with n-k cyclic windows (not the perm(n-k, t-k) keys of the full
    listing), so the count is perm(t-1, k-1) * (n-k) for every pair.
    """
    return math.perm(t - 1, k - 1) * (n - k)


def build_pm1(
    decomp: THotDecomposition, keyset: KeySet, listing: KeyListing | None = None,
    order: Sequence[int] | None = None,
) -> list[JointTable]:
    """Spread each term's weight over keys with its support; listing records them.

    Without order, each term's T! structural keys get weight/(T-1)! per cell;
    more than ENUMERATION_CAP keys in all raise CapacityError before the first.
    With order (construct_b's: the sorted view's, then the extension slots),
    position i of the decomposition is the key's order[i], and the T cyclic
    shifts of 1..T over the support in that order get the weight per cell.
    Both put each message once on each support position at the term's weight.
    Terms that share a support list its keys once, at their summed weight,
    and each key's T cells take one share object; the tables come out in
    key order, each row one cell.
    """
    if not isinstance(keyset, ReducedKeySet):
        raise ParameterError("part-1 allocation requires the reduced key set")
    if decomp.length != keyset.length:
        raise ParameterError(f"decomposition length {decomp.length} != key length {keyset.length}")
    listing, t = _own_listing(keyset, listing), keyset.t
    if order is None:
        count = len(decomp.terms) * math.factorial(t)
        check_listing(count, f"structural keys ({len(decomp.terms)} terms, t={t})", ENUMERATION_CAP)
        share_denominator = math.factorial(t - 1)
    else:
        order, share_denominator = _key_order(order, keyset.length), 1
    weights: dict[tuple[int, ...], Fraction] = {}
    for term in decomp.terms:
        if len(term.support) != t:
            raise ParameterError(f"support {term.support} is not {t}-hot")
        held = weights.get(term.support)
        weights[term.support] = term.weight if held is None else held + term.weight
    rows_per_m: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    for support, weight in weights.items():
        share = weight / share_denominator if share_denominator > 1 else weight
        mapped = support if order is None else [order[i] for i in support]
        for idx, key in _structural_pairs(keyset, mapped, listing, order is not None):
            for pos, m in key:
                rows_per_m[m - 1][idx] = {pos + 1: share}
    # Every key holds each message once, so every table has the same keys.
    ordered = sorted(rows_per_m[0])
    return [
        JointTable.unchecked(m, {idx: rows[idx] for idx in ordered})
        for m, rows in enumerate(rows_per_m, start=1)
    ]


def _key_order(order: Sequence[int], length: int) -> list[int]:
    """order as ints; ParameterError unless it is a permutation of [0:length)."""
    order = [exact_int(p, "order entry") for p in order]
    if sorted(order) != list(range(length)):
        raise ParameterError(f"order is not a permutation of the {length} positions")
    return order


def _exact_entries(values: Sequence[Fraction], what: str, length: int) -> list[Fraction]:
    """values as Fractions, one per key position; a float, bool or negative
    entry, or a count other than length, raises ParameterError."""
    entries = [exact_rational(v, f"{what} entry") for v in values]
    if len(entries) != length:
        raise ParameterError(f"{what} has {len(entries)} entries, key length {length}")
    if any(v < 0 for v in entries):
        raise ParameterError(f"{what} has a negative entry")
    return entries


def build_pm2(
    px2: Sequence[Fraction],
    keyset: KeySet,
    listing: KeyListing | None = None,
    order: Sequence[int] | None = None,
) -> tuple[list[JointTable], ImbalanceLedger]:
    """Spread px2 over the anchored keys: one cell px2(x)/c per anchor token.

    px2 must hold one non-negative int or Fraction per key position, K <= T-1
    of them positive; their positions, wherever they sit, are the anchors.
    order is every position once, in the sorted view's order (px.sort_perm;
    position order if omitted).  An anchored key that holds m at anchor x
    gets px2(x)/c in table m, where c = anchored_cell_count(L, T, K) keys
    share each (token, message) pair; a count other than c raises
    InvariantError.  Each tail class's rows, row sums and gaps are taken
    once from its tail, and each member gets its own one-cell rows, in key
    order.  The ledger records each
    class's gaps and their total (equal for every message), which must
    equal T*max(px2) - sum(px2), or InvariantError is raised.  listing,
    when given, records each anchored key.

    The anchored keys are cyclic windows, not all keys nonzero at the
    anchors.  Parts 2 and 3 fill anchor cells only, so a free token meets
    the checks only through its key marginal, the same share (T-K)/(L-K) of
    each class, and every check, each token's false alarm and the optimum
    are the full listing's.  Part 3 needs px3 > 0 only at anchors when K > 0
    (construct_a checks it): split_px then has K >= K_tilde, so the K_tilde
    tokens at or above alpha/T, which hold all of px3, have px2 > 0.
    """
    if not isinstance(keyset, ReducedKeySet):
        raise ParameterError("part-2 allocation requires the reduced key set")
    listing, t, length = _own_listing(keyset, listing), keyset.t, keyset.length
    px2 = _exact_entries(px2, "px2", length)
    order = range(length) if order is None else _key_order(order, length)
    anchors = [i for i, v in enumerate(px2) if v > 0]
    k = len(anchors)
    if k == 0:
        return [JointTable.unchecked(m, {}) for m in range(1, t + 1)], ImbalanceLedger((), Fraction(0))
    if k > t - 1:
        raise ParameterError(f"px2 has {k} positive entries, more than t-1={t - 1}")
    cell_count = anchored_cell_count(length, t, k)
    slots = [(pos + 1, Fraction(px2[pos], cell_count)) for pos in anchors]
    hits = [[0] * t for _ in range(k)]
    classes = []
    totals = [Fraction(0)] * t
    anchored = _anchored_tails(keyset, anchors, order, listing)
    for tail, members in anchored:
        sums = [Fraction(0)] * t
        for (_, share), m, slot_hits in zip(slots, tail, hits):
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
    rows_per_m: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    for idx, tail in sorted((idx, tail) for tail, members in anchored for idx in members):
        for (token, share), m in zip(slots, tail):
            rows_per_m[m - 1][idx] = {token: share}
    tables = [JointTable.unchecked(m, rows) for m, rows in enumerate(rows_per_m, start=1)]
    return tables, ImbalanceLedger(tuple(classes), totals[0])


def build_pm3(
    px3: Sequence[Fraction], ledger: ImbalanceLedger, keyset: KeySet
) -> list[JointTable]:
    """Cancel the part-2 imbalance with px3 mass and park the rest on key 0.

    px3 must hold one non-negative int or Fraction per key position.  Each
    key in the ledger gets gap_m * px3(x)/R under message m on every token x
    with px3(x) > 0, where R = sum(px3); this lifts its row sum under m to
    its peak.  The cells are computed once per tail class, and each member
    gets its own rows.  Every token with leftover cap also puts
    px3(x)*(1 - U/R) on the all-zero key, U = ledger.total.  The tables
    come out in key order.
    """
    t, length = keyset.t, keyset.length
    px3 = _exact_entries(px3, "px3", length)
    total_overshoot = sum(px3, Fraction(0))
    tables: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    support = [x for x in range(1, length + 1) if px3[x - 1] > 0]
    if total_overshoot == 0:
        if ledger.total != 0:
            raise InvariantError("imbalance positive but no mass left to cancel it")
        return [JointTable.unchecked(m, rows) for m, rows in enumerate(tables, start=1)]
    if ledger.total > total_overshoot:
        raise InvariantError(
            f"imbalance {ledger.total} exceeds remaining mass {total_overshoot}"
        )
    weights = [(x, px3[x - 1] / total_overshoot) for x in support]
    leftover = 1 - Fraction(ledger.total, total_overshoot)
    # Each key's cells under every message: the all-zero key's leftover, and
    # each class's lifts (none where the gap is 0).
    zero_cells = [(x, px3[x - 1] * leftover) for x in support] if leftover else []
    keyed = [(keyset.zero_index, [zero_cells] * t)]
    for members, gaps in ledger.classes:
        lifts = [[(x, gap * w) for x, w in weights] if gap else [] for gap in gaps]
        keyed += [(idx, lifts) for idx in members]
    keyed.sort(key=operator.itemgetter(0))
    for idx, lifts in keyed:
        for rows, cells in zip(tables, lifts):
            if cells:
                rows[idx] = dict(cells)
    return [JointTable.unchecked(m, rows) for m, rows in enumerate(tables, start=1)]


def restore_token_order(px: TokenDistribution, values: Sequence) -> tuple:
    """Map a length-N vector on the sorted token view to px's own token order.

    Sorted entry i moves to position sort_perm[i].  The constructions map
    px2, px3 and r with it, so the builders rank every key at its final
    positions.
    """
    moved = list(values)
    for pos, value in zip(px.sort_perm, values):
        moved[pos] = value
    return tuple(moved)


def restore_supports(px: TokenDistribution, decomp: THotDecomposition) -> THotDecomposition:
    """Map each term's support from the sorted token view to px's own order;
    positions from px.n on (the extension slots of a longer key) stay put.
    That moves the positions [0:length) among themselves, so the checked
    supports stay increasing inside [0:length) and skip the per-term checks."""
    if decomp.length < px.n:
        raise ParameterError(f"decomposition length {decomp.length} < token count {px.n}")
    where = px.sort_perm + tuple(range(px.n, decomp.length))
    terms = tuple(
        THotTerm(tuple(sorted(where[i] for i in term.support)), term.weight)
        for term in decomp.terms
    )
    return THotDecomposition.unchecked(terms, decomp.length)


def assemble_checked(
    alpha: Fraction, px: TokenDistribution, keyset: KeySet, tables: Sequence[JointTable],
    provenance: dict[str, object], listing: KeyListing,
) -> WatermarkScheme:
    """The constructions' scheme, with the keys listing recorded.

    InvariantError unless every table's mass is 1, read from the decoded
    view's integer totals; the view is cached, so check_scheme reuses it
    and the pipeline walks the cells once.
    """
    scheme = WatermarkScheme.assemble(alpha, px, keyset, tables, provenance, listing.hand_over())
    view = scheme.decoded
    for m, total in enumerate(view.totals, start=1):
        if total != view.denominator:
            raise InvariantError(f"table m={m} has mass {Fraction(total, view.denominator)}")
    return scheme


def _prepare(
    px: TokenDistribution, alpha: Fraction, t: int
) -> tuple[Fraction, int, PxSplit, ReducedKeySet, THotDecomposition]:
    """construct_a's instance check, split and T-hot decomposition, with
    each term's support in px's own token order."""
    alpha, t = check_instance(px, alpha, t)
    split = split_px(TokenDistribution(px.sorted_probs), alpha, t)
    if split.K and any(p3 and not p2 for p2, p3 in zip(split.px2, split.px3)):
        raise InvariantError("px3 is positive off the anchors")
    keyset = ReducedKeySet(px.n, t)
    return alpha, t, split, keyset, restore_supports(px, decompose_t_hot(split.px1, t))


def listed_keys(px: TokenDistribution, alpha: Fraction, t: int) -> Iterator[SparseKey]:
    """The keys construct_a(px, alpha, t) lists but the all-zero key, one by
    one, without a table: each term's T! structural keys (unranked), then
    the anchored keys.  A caller that needs them all in some key family can
    stop at the first one missing, before the tables are built."""
    _, t, split, keyset, decomp = _prepare(px, alpha, t)
    messages = list(itertools.permutations(range(1, t + 1)))
    for term in decomp.terms:
        for values in messages:
            yield tuple(zip(term.support, values))
    anchors = [pos for pos, p2 in enumerate(restore_token_order(px, split.px2)) if p2]
    if anchors:
        listing = KeyListing(keyset)
        _anchored_tails(keyset, anchors, px.sort_perm, listing)
        yield from listing.keys.values()


def construct_a(px: TokenDistribution, alpha: Fraction, t: int) -> WatermarkScheme:
    """Full scheme on the reduced key set over the real tokens only."""
    alpha, t, split, keyset, decomp = _prepare(px, alpha, t)
    listing = KeyListing(keyset)
    pm1 = build_pm1(decomp, keyset, listing)
    pm2, ledger = build_pm2(restore_token_order(px, split.px2), keyset, listing, px.sort_perm)
    pm3 = build_pm3(restore_token_order(px, split.px3), ledger, keyset)
    # Each message's parts are let go once merged, so the parts of only one
    # message sit next to the merged tables and the listed keys.
    tables = [merge_tables(m, pm1.pop(0), pm2.pop(0), pm3.pop(0)) for m in range(1, t + 1)]
    provenance = {
        "method": "direct",
        "K": split.K,
        "K_tilde": split.K_tilde,
        "y": None if split.y is None else mass_to_string(split.y),
        "imbalance": mass_to_string(ledger.total),
        "overshoot": mass_to_string(sum(split.px3, Fraction(0))),
    }
    return assemble_checked(alpha, px, keyset, tables, provenance, listing)
