import dataclasses
import importlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from goldens import COMBINED_A, PART1_A, PART2_A, table_as_cells
from layered_reference import (
    anchored_indices,
    anchored_pairs,
    build_pm2_layered,
    build_pm3_layered,
    column_sum,
    reference_construct_a,
    reference_construct_b,
    row_sum,
    step_decomposition,
    table_mass,
)
from test_output_digests import one_heavy, shuffled
from keymark.construct_a import (
    ImbalanceLedger,
    KeyListing,
    _structural_pairs,
    anchored_cell_count,
    build_pm1,
    build_pm2,
    build_pm3,
    construct_a,
)
from keymark.construct_b import construct_b
from keymark.core import (
    ENUMERATION_CAP,
    ExplicitKeySet,
    JointTable,
    ReducedKeySet,
    TokenDistribution,
    WatermarkScheme,
    add_mass,
    decode,
    enumerate_reduced_keyset,
    merge_tables,
)
from keymark.errors import CapacityError, InvariantError, ParameterError
from keymark.metrics import check_scheme, error_report
from keymark.serialize import deserialize_scheme, export_csv, serialize_scheme
from keymark.split import split_px
from keymark.thot import THotDecomposition, THotTerm, decompose_t_hot

PX_A = TokenDistribution.from_strings(["0.05", "0.1", "0.25", "0.6"])
ALPHA_A = F(9, 10)


def assert_scheme_properties(scheme: WatermarkScheme) -> None:
    """Directly re-derive the five structural properties from first principles.

    Sums run over the stored cells only; absent cells are zero by definition,
    so this equals the full sum over each preimage slice.
    """
    cap = F(scheme.alpha, scheme.t)
    ks = scheme.keyset
    reference_rows = {k: row_sum(scheme.tables[0], k) for k in scheme.key_support()}
    for m in range(1, scheme.t + 1):
        table = scheme.table(m)
        assert table_mass(table) == 1
        columns = [F(0)] * scheme.n
        captured = [F(0)] * scheme.n
        for idx, token, mass in table.cells():
            assert mass > 0
            columns[token - 1] += mass
            if decode(token, ks.key(idx)) == m:
                captured[token - 1] += mass
        for x in range(1, scheme.n + 1):
            assert columns[x - 1] == scheme.px.probs[x - 1]
            assert captured[x - 1] == min(cap, scheme.px.probs[x - 1])
        for key_index in scheme.key_support():
            assert row_sum(table, key_index) == reference_rows[key_index]
    for x in range(1, scheme.n + 1):
        alarm = sum(
            (mass for idx, mass in reference_rows.items() if ks.key(idx)[x - 1] != 0),
            F(0),
        )
        assert alarm <= scheme.alpha


def test_structural_keys_match_filter() -> None:
    for n, t in [(3, 2), (4, 3), (5, 2), (4, 4)]:
        ks = enumerate_reduced_keyset(n, t)
        for support in [tuple(range(t)), tuple(range(n - t, n))]:
            expected = {
                i
                for i in range(len(ks))
                if {p for p, v in enumerate(ks.key(i)) if v} == set(support)
            }
            pairs = _structural_pairs(ks, support)
            assert {idx for idx, _ in pairs} == expected
            assert len(pairs) == math.factorial(t)


def test_structural_keys_validation() -> None:
    # _structural_pairs takes a support as given.  THotDecomposition refuses
    # a repeated, unsorted, negative, non-integer or out-of-range position
    # as it is built; build_pm1 refuses a count other than T and a length
    # other than the key length.  Each raises ParameterError before any key
    # is listed.  (construct_b's own cases are in test_construct_b.)
    keyset = ReducedKeySet(4, 2)
    cases = [
        ((1, 1), 4, "not increasing in"),
        ((1, 0), 4, "not increasing in"),
        ((-1, 1), 4, "not increasing in"),
        ((0, 4), 4, r"not increasing in \[0:4\)"),
        ((0.0, 1), 4, "must be an integer"),
        ((0, 1, 2), 4, "not 2-hot"),
        ((0,), 4, "not 2-hot"),
        ((0, 4), 5, "length 5 != key length 4"),
    ]
    for support, length, match in cases:
        terms = [(support, F(1, 10)), ((1, 2), F(1, 5)), ((2, 3), F(1, 5))]
        listing = KeyListing(keyset)
        with pytest.raises(ParameterError, match=match):
            decomposition = THotDecomposition(tuple(THotTerm(s, w) for s, w in terms), length)
            build_pm1(decomposition, keyset, listing)
        assert listing.keys == {}
    # A float weight is not an exact rational.
    with pytest.raises(ParameterError, match="term weight must be an int or a Fraction"):
        THotDecomposition((THotTerm((0, 1), 0.5),), 4)


def assert_window_family(classes, anchors, length: int, t: int) -> None:
    """classes maps each tail to its anchored keys, as full vectors.  They
    form the cyclic window family: one class per tail, perm(T, K) of them,
    each of L-K distinct keys of the reduced key set that hold the tail at
    the anchors; each (anchor, message) pair is hit by anchored_cell_count
    keys, and each free position is nonzero in exactly T-K keys of every
    class."""
    k = len(anchors)
    assert sorted(classes) == sorted(itertools.permutations(range(1, t + 1), k))
    hits = {(a, m): 0 for a in anchors for m in range(1, t + 1)}
    for tail, keys in classes.items():
        assert len(keys) == len(set(keys)) == length - k
        for key in keys:
            assert len(key) == length
            assert sorted(v for v in key if v) == list(range(1, t + 1))
            assert tuple(key[a] for a in anchors) == tail
            for a in anchors:
                hits[a, key[a]] += 1
        for pos in set(range(length)) - set(anchors):
            assert sum(1 for key in keys if key[pos]) == t - k
    assert set(hits.values()) == {anchored_cell_count(length, t, k)}


def test_anchored_keys_match_filter() -> None:
    """On sorted views: the anchored keys at the last k positions are the
    cyclic windows, among the keys nonzero there, and all of them at
    T-K = 1."""
    for n, t in [(3, 2), (4, 3), (5, 3), (5, 4)]:
        ks = enumerate_reduced_keyset(n, t)
        for k in range(1, t):
            nonzero = {
                i
                for i in range(len(ks))
                if all(v != 0 for v in ks.key(i)[n - k :])
            }
            assert len(nonzero) == math.perm(t, k) * math.perm(n - k, t - k)
            found = anchored_indices(ks, k)
            assert len(found) == math.perm(t, k) * (n - k)
            assert found <= nonzero
            assert (found == nonzero) == (t - k == 1)
            classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for idx, tail in anchored_pairs(ks, k):
                classes.setdefault(tail, []).append(ks.key(idx))
            assert_window_family(classes, range(n - k, n), n, t)


def test_anchored_keys_examples() -> None:
    assert len(anchored_indices(enumerate_reduced_keyset(4, 3), 2)) == 12
    # 3 tails of 4 windows, where 3 * perm(4, 2) = 36 keys are nonzero at the
    # anchor.
    assert len(anchored_indices(enumerate_reduced_keyset(5, 3), 1)) == 12


def test_anchored_listing_cap() -> None:
    # heavy-40's listing: 3 tails of 39 windows, 117 anchored keys, where
    # 3 * perm(39, 2) = 4,446 keys are nonzero at the anchor.
    assert len(anchored_indices(enumerate_reduced_keyset(40, 3), 1)) == 117
    # The listing is linear in N, so no cap guards it: at N = 25, T = 5 it
    # holds 5 * 24 keys, not the 5 * perm(24, 4) = 1,275,120 above the cap.
    assert math.perm(5, 1) * math.perm(24, 4) > ENUMERATION_CAP
    assert len(anchored_indices(enumerate_reduced_keyset(25, 5), 1)) == 5 * 24
    # construct_a builds the 25-token T=5 input with one 0.95 token.
    px = TokenDistribution.from_strings(["1/480"] * 24 + ["0.95"])
    scheme = construct_a(px, F(1, 2), 5)
    assert check_scheme(scheme).ok and error_report(scheme).gap == 0


def test_structural_listing_cap() -> None:
    # T! structural keys per term: 9! = 362,880 fit, 10! = 3,628,800 do not,
    # so build_pm1 refuses even one 10-hot term.
    assert math.factorial(9) <= ENUMERATION_CAP < math.factorial(10)
    one_term = THotDecomposition((THotTerm(tuple(range(10)), F(1, 10)),), 10)
    with pytest.raises(CapacityError, match="3628800 structural keys"):
        build_pm1(one_term, enumerate_reduced_keyset(10, 10))
    # Three 9-hot terms list 3 * 9! keys in all, which build_pm1 refuses.
    decomp = decompose_t_hot([F(1, 30)] * 10, 9)
    assert len(decomp.terms) * math.factorial(9) > ENUMERATION_CAP
    with pytest.raises(CapacityError, match="structural keys"):
        build_pm1(decomp, enumerate_reduced_keyset(10, 9))
    # construct_a reaches the guard on 12 uniform tokens with T=10.
    px = TokenDistribution.from_strings(["1/12"] * 12)
    with pytest.raises(CapacityError, match="structural keys"):
        construct_a(px, F(1, 2), 10)


def test_anchored_cell_count_matches_filter() -> None:
    assert anchored_cell_count(4, 3, 2) == 4
    for n, t, k in [(4, 3, 1), (4, 3, 2), (5, 3, 2), (5, 4, 3), (6, 4, 2)]:
        ks = enumerate_reduced_keyset(n, t)
        pairs = [(i, ks.key(i)) for i in anchored_indices(ks, k)]
        for token in range(n - k + 1, n + 1):
            for m in range(1, t + 1):
                hits = sum(1 for _, key in pairs if key[token - 1] == m)
                assert hits == anchored_cell_count(n, t, k)


def test_step_decomposition_example() -> None:
    steps = step_decomposition((F(0), F(0), F(1, 10), F(3, 20)), 3)
    assert steps.increments == ((1, F(1, 20)), (2, F(1, 10)))
    assert steps.k == 2
    assert steps.reconstruct(4) == (F(0), F(0), F(1, 10), F(3, 20))


def test_step_decomposition_flat_tail_has_zero_delta() -> None:
    steps = step_decomposition((F(0), F(1, 10), F(1, 10)), 3)
    assert steps.increments == ((1, F(0)), (2, F(1, 10)))


def test_step_decomposition_empty() -> None:
    assert step_decomposition((F(0), F(0)), 2).increments == ()


def per_key(ledger: ImbalanceLedger) -> dict[int, tuple[F, ...]]:
    """The ledger's gaps expanded to every member of every tail class."""
    return {idx: gaps for members, gaps in ledger.classes for idx in members}


def test_build_pm2_validation() -> None:
    # More than t-1 positive entries and a negative entry.
    with pytest.raises(ParameterError):
        build_pm2((F(0), F(1, 10), F(1, 5)), ReducedKeySet(3, 2))
    with pytest.raises(ParameterError):
        build_pm2((F(0), F(-1, 10), F(1, 10)), ReducedKeySet(3, 3))


@pytest.mark.parametrize("bad", [0.2, True, F(-1, 10), -1])
def test_part_builders_refuse_inexact_or_negative_entries(bad) -> None:
    # A float or bool is not an exact rational, and no part takes negative
    # mass: each ends in ParameterError, not a TypeError or InvariantError.
    keyset = ReducedKeySet(3, 2)
    with pytest.raises(ParameterError, match="px2"):
        build_pm2((F(0), F(0), bad), keyset)
    with pytest.raises(ParameterError, match="px3"):
        build_pm3((F(1, 10), F(1, 5), bad), ImbalanceLedger((), F(0)), keyset)


def test_part_builders_refuse_a_length_other_than_the_key_length() -> None:
    # A longer px2 reached past the key positions (IndexError), and a longer
    # px3 lost its extra mass without a word.
    keyset = ReducedKeySet(3, 2)
    for entries in ((F(0), F(0)), (F(0), F(0), F(0), F(1, 10))):
        with pytest.raises(ParameterError, match="px2 has .* entries, key length 3"):
            build_pm2(entries, keyset)
        with pytest.raises(ParameterError, match="px3 has .* entries, key length 3"):
            build_pm3(entries, ImbalanceLedger((), F(0)), keyset)


@pytest.mark.parametrize("order", [(0, 0, 2), (0, 1), (0, 1, 2, 3), (0, 1, 3), (0.0, 1, 2)])
def test_build_pm2_refuses_an_order_that_is_not_a_permutation(order) -> None:
    # A repeated, missing, extra, out-of-range or float position would list
    # keys that are not members, ranked without the validating search.
    # build_pm1 takes the same check on construct_b's order.
    keyset = ReducedKeySet(3, 3)
    listing = KeyListing(keyset)
    with pytest.raises(ParameterError, match="order"):
        build_pm2((F(0), F(0), F(1, 10)), keyset, listing, order)
    with pytest.raises(ParameterError, match="order"):
        build_pm1(THotDecomposition((THotTerm((0, 1, 2), F(1)),), 3), keyset, listing, order)
    assert listing.keys == {}


def test_part_builders_refuse_a_listing_of_another_key_set() -> None:
    # A listing made for a shorter key set reached past its shared pairs
    # (IndexError); one shared across key sets reused the first set's
    # indices for keys of the second.
    short, long = ReducedKeySet(4, 2), ReducedKeySet(5, 2)
    decomposition = THotDecomposition((THotTerm((0, 1, 2), F(1, 3)),), 4)
    with pytest.raises(ParameterError, match="listing of"):
        build_pm1(decomposition, ReducedKeySet(4, 3), KeyListing(short))
    # Key sets compare by value, so a listing made for an equal one is taken.
    listing = KeyListing(ReducedKeySet(4, 2))
    terms = (THotTerm((0, 2), F(1, 2)), THotTerm((1, 3), F(1, 2)))
    build_pm1(THotDecomposition(terms, 4), short, listing)
    listed = dict(listing.keys)
    assert len(listed) == 4
    with pytest.raises(ParameterError, match="listing of"):
        build_pm2((F(0), F(0), F(0), F(0), F(1, 10)), long, listing)
    assert listing.keys == listed


def test_build_pm1_golden() -> None:
    keyset = enumerate_reduced_keyset(4, 3)
    split = split_px(PX_A, ALPHA_A, 3)
    tables = build_pm1(decompose_t_hot(split.px1, 3), keyset)
    for m in (1, 2, 3):
        assert table_as_cells(tables[m - 1], keyset) == PART1_A[m]


def test_build_pm1_requires_reduced_keyset() -> None:
    # Both listing builders refuse an explicit key set up front.
    explicit = ExplicitKeySet([(0, 0), (1, 0), (0, 1)], t=1)
    split = split_px(TokenDistribution.from_strings(["0.4", "0.6"]), F(1, 2), 1)
    decomp = decompose_t_hot(split.px1, 1)
    with pytest.raises(ParameterError, match="part-1 allocation requires"):
        build_pm1(decomp, explicit)
    with pytest.raises(ParameterError, match="part-2 allocation requires"):
        build_pm2(split.px2, explicit)


def test_build_pm2_golden() -> None:
    keyset = enumerate_reduced_keyset(4, 3)
    split = split_px(PX_A, ALPHA_A, 3)
    tables, ledger = build_pm2(split.px2, keyset)
    for m in (1, 2, 3):
        assert table_as_cells(tables[m - 1], keyset) == PART2_A[m]
    assert ledger.total == F(1, 5)
    # Example gap row: key (2,0,3,1) gets 3/80 under m=1, nothing under m=2,
    # 1/40 under m=3, so its gaps are (0, 3/80, 1/80).
    idx = keyset.index((2, 0, 3, 1))
    assert per_key(ledger)[idx] == (F(0), F(3, 80), F(1, 80))


def test_build_pm2_imbalance_totals_match_tables() -> None:
    keyset = enumerate_reduced_keyset(4, 3)
    split = split_px(PX_A, ALPHA_A, 3)
    tables, ledger = build_pm2(split.px2, keyset)
    for m in range(1, 4):
        measured = sum(
            (
                max(row_sum(tables[i], idx) for i in range(3)) - row_sum(tables[m - 1], idx)
                for idx in anchored_indices(keyset, 2)
            ),
            F(0),
        )
        assert measured == ledger.total


def test_build_pm2_empty_tail() -> None:
    keyset = enumerate_reduced_keyset(3, 2)
    tables, ledger = build_pm2((F(0), F(0), F(0)), keyset)
    assert all(table_mass(t) == 0 for t in tables)
    assert ledger.total == 0
    assert ledger.classes == ()


def test_build_pm3_golden_cells() -> None:
    keyset = enumerate_reduced_keyset(4, 3)
    split = split_px(PX_A, ALPHA_A, 3)
    _, ledger = build_pm2(split.px2, keyset)
    tables = build_pm3(split.px3, ledger, keyset)
    t1 = table_as_cells(tables[0], keyset)
    assert t1[(0, 0, 0, 0)] == {4: F(1, 10)}
    # Last two coordinates avoid m=1: both layers contribute.
    assert t1[(0, 1, 2, 3)] == {4: F(3, 80)}
    # zeta_3 = 1 excludes the inner layer; only the outer one pays 1/80.
    assert t1[(0, 2, 1, 3)] == {4: F(1, 80)}
    # zeta_4 = 1 decodes token 4 to m, so part 3 avoids the key entirely.
    assert (0, 2, 3, 1) not in t1
    for m in (1, 2, 3):
        assert table_mass(tables[m - 1]) == F(3, 10)
        assert column_sum(tables[m - 1], 4) == F(3, 10)


def test_construct_a_golden_tables() -> None:
    scheme = construct_a(PX_A, ALPHA_A, 3)
    for m in (1, 2, 3):
        assert table_as_cells(scheme.table(m), scheme.keyset) == COMBINED_A[m]
    assert len(scheme.key_support()) == 13
    assert scheme.pz[scheme.keyset.zero_index] == F(1, 10)
    assert scheme.pz[scheme.keyset.index((3, 0, 2, 1))] == F(1, 16)


def test_construct_a_golden_provenance() -> None:
    scheme = construct_a(PX_A, ALPHA_A, 3)
    assert scheme.provenance["method"] == "direct"
    assert scheme.provenance["K"] == 2
    assert scheme.provenance["K_tilde"] == 1
    assert scheme.provenance["y"] == "0.15"
    assert scheme.provenance["imbalance"] == "0.2"
    assert scheme.provenance["overshoot"] == "0.3"


def test_construct_a_golden_properties() -> None:
    assert_scheme_properties(construct_a(PX_A, ALPHA_A, 3))


def test_construct_a_unsorted_tokens() -> None:
    px = TokenDistribution.from_strings(["0.6", "0.05", "0.25", "0.1"])
    scheme = construct_a(px, ALPHA_A, 3)
    assert_scheme_properties(scheme)
    # Sorted token i maps to original token sort_perm[i-1]+1 = (2,4,3,1)[i-1];
    # the sorted golden cells land on permuted keys.
    cells = table_as_cells(scheme.table(1), scheme.keyset)
    assert cells[(3, 0, 2, 1)] == {4: F(1, 20), 1: F(3, 80)}
    assert cells[(0, 0, 0, 0)] == {1: F(1, 10)}
    assert len(scheme.key_support()) == 13


def test_construct_a_two_tokens_two_messages() -> None:
    px = TokenDistribution.from_strings(["0.5", "0.5"])
    scheme = construct_a(px, F(1, 2), 2)
    assert_scheme_properties(scheme)
    ks = scheme.keyset
    cells = table_as_cells(scheme.table(1), ks)
    assert cells[(0, 0)] == {1: F(1, 4), 2: F(1, 4)}
    assert cells[(1, 2)] == {1: F(1, 4)}
    assert cells[(2, 1)] == {2: F(1, 4)}
    # Every message misses exactly the unwatermarked share.
    for m in (1, 2):
        table = scheme.table(m)
        miss = sum(
            (mass for idx, tok, mass in table.cells() if decode(tok, ks.key(idx)) != m),
            F(0),
        )
        assert miss == F(1, 2)


def test_construct_a_single_message() -> None:
    px = TokenDistribution.from_strings(["0.3", "0.7"])
    scheme = construct_a(px, F(1, 2), 1)
    assert_scheme_properties(scheme)
    assert scheme.t == 1


def test_construct_a_alpha_zero() -> None:
    px = TokenDistribution.from_strings(["0.25", "0.75"])
    scheme = construct_a(px, F(0), 2)
    assert_scheme_properties(scheme)
    # Everything parks on the all-zero key: nothing is detectable at alpha=0.
    assert scheme.key_support() == {scheme.keyset.zero_index}


def test_construct_a_random_instances() -> None:
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 6)
        t = rng.randint(1, min(n, 4))
        denominator = rng.choice([20, 40, 100])
        weights = [rng.randint(0, 9) for _ in range(n)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        px = TokenDistribution.from_fractions(F(w * denominator, total * denominator) for w in weights)
        alpha = F(rng.randint(1, 99), 100)
        assert_scheme_properties(construct_a(px, alpha, t))


def restore_token_order_per_cell(px, keyset, tables):
    """Reference: the earlier restore, which re-adds every cell one by one."""
    if px.is_sorted:
        return list(tables)
    n, perm = px.n, px.sort_perm
    out = []
    for table in tables:
        rows: dict[int, dict[int, F]] = {}
        for idx, token, mass in table.cells():
            moved = [(perm[pos] if pos < n else pos, value) for pos, value in keyset.sparse_key(idx)]
            add_mass(rows, keyset.sparse_index(moved), perm[token - 1] + 1, mass)
        out.append(JointTable(table.m, rows))
    return out


@st.composite
def unsorted_instances(draw):
    """An unsorted px with alpha and T."""
    n = draw(st.integers(2, 6))
    t = draw(st.integers(1, n))
    weights = st.lists(st.integers(1, 9), min_size=n, max_size=n)
    weights = draw(weights.filter(lambda w: w != sorted(w)))
    px = TokenDistribution.from_fractions(F(w, sum(weights)) for w in weights)
    return px, F(draw(st.integers(1, 19)), 20), t


@settings(max_examples=100, deadline=None)
@given(unsorted_instances())
def test_restore_token_order_matches_per_cell_reference(case) -> None:
    """Building in px's own order gives, cell for cell, the per-cell remap of
    the same construction run on px's sorted view."""
    px, alpha, t = case
    view = TokenDistribution(px.sorted_probs)
    for build in (
        lambda p: construct_a(p, alpha, t),
        lambda p: construct_b(p, alpha, t),
        lambda p: construct_b(p, alpha, t, force_pseudo=True),
    ):
        scheme, on_view = build(px), build(view)
        expected = restore_token_order_per_cell(px, on_view.keyset, on_view.tables)
        assert scheme.keyset.length == on_view.keyset.length
        assert [(tb.m, list(tb.cells())) for tb in scheme.tables] == [
            (tb.m, list(tb.cells())) for tb in expected
        ]


def assert_ledger_per_key(px2, keyset: ReducedKeySet, k: int) -> None:
    """The ledger's classes, expanded per key, hold exactly the anchored keys
    with a nonzero gap, each with the gaps recomputed from that key's own
    row sums."""
    tables, ledger = build_pm2(px2, keyset)
    expected = {}
    for idx in anchored_indices(keyset, k):
        sums = [row_sum(table, idx) for table in tables]
        gaps = tuple(max(sums) - s for s in sums)
        if any(gaps):
            expected[idx] = gaps
    assert per_key(ledger) == expected


def test_build_pm2_per_key_ledger_random_leveling() -> None:
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 7)
        t = rng.randint(2, min(n, 4))
        weights = [rng.randint(1, 10) for _ in range(n - 1)] + [rng.randint(20, 300)]
        px = TokenDistribution.from_fractions(sorted(F(w, sum(weights)) for w in weights))
        split = split_px(px, F(rng.randint(5, 99), 100), t)
        if split.K >= 1:
            assert_ledger_per_key(split.px2, ReducedKeySet(n, t), split.K)
            checked += 1


def test_build_pm2_per_key_ledger_heavy_shape() -> None:
    # N = 40 with one 0.95 token: 4,446 anchored keys in three tail classes.
    light = [F(5 * i, 100 * 780) for i in range(1, 40)]
    px = TokenDistribution.from_fractions(light + [F(95, 100)])
    split = split_px(px, F(1, 2), 3)
    assert split.K == 1
    assert_ledger_per_key(split.px2, ReducedKeySet(40, 3), 1)


@pytest.mark.parametrize("anchors", [(3,), (0, 2, 5)])
def test_ledger_classes_partition_anchored_keys(anchors) -> None:
    """At K = 1 and K = T-1, anchors off the tail: the classes partition the
    anchored keys, the members of a class share one tail and no two classes
    do, and every class holds the L-K cyclic windows of its tail, which at
    K = T-1 are every key nonzero at the anchors."""
    n, t, k = 6, 4, len(anchors)
    keyset = enumerate_reduced_keyset(n, t)
    px2 = [F(pos + 1, 40) if pos in anchors else F(0) for pos in range(n)]
    _, ledger = build_pm2(px2, keyset)
    classes = {}
    for members, gaps in ledger.classes:
        assert any(gaps)
        member_tails = {tuple(keyset.key(idx)[a] for a in anchors) for idx in members}
        assert len(member_tails) == 1
        classes[member_tails.pop()] = [keyset.key(idx) for idx in members]
    assert len(classes) == len(ledger.classes) == math.perm(t, k)
    assert_window_family(classes, anchors, n, t)
    nonzero = [i for i in range(len(keyset)) if all(keyset.key(i)[a] for a in anchors)]
    listed = sorted(per_key(ledger))
    assert set(listed) <= set(nonzero)
    assert (listed == nonzero) == (t - k == 1)
    assert sum(len(members) for members, _ in ledger.classes) == len(listed)


def test_closed_form_parts_match_layered_reference() -> None:
    """build_pm2/build_pm3 give the layered builders' tables and ledger cell
    for cell, on sorted views where up to T-1 heavy tokens force leveling."""
    rng = random.Random(10)
    widest = distinct_steps = 0
    for _ in range(120):
        t = rng.randint(2, 5)
        n = rng.randint(t, 8)
        heavy = rng.randint(1, t - 1)
        weights = [rng.randint(1, 10) for _ in range(n - heavy)]
        weights += [rng.randint(20, 300) for _ in range(heavy)]
        px = TokenDistribution.from_fractions(sorted(F(w, sum(weights)) for w in weights))
        split = split_px(px, F(rng.randint(5, 99), 100), t)
        keyset = ReducedKeySet(n, t)
        pm2, ledger = build_pm2(split.px2, keyset)
        pm2_ref, per_key_ref, total_ref = build_pm2_layered(split.px2, keyset)
        assert [list(tb.cells()) for tb in pm2] == [list(tb.cells()) for tb in pm2_ref]
        assert (per_key(ledger), ledger.total) == (per_key_ref, total_ref)
        pm3 = build_pm3(split.px3, ledger, keyset)
        steps = step_decomposition(split.px2, t)
        pm3_ref = build_pm3_layered(split.px3, steps, total_ref, keyset)
        assert [list(tb.cells()) for tb in pm3] == [list(tb.cells()) for tb in pm3_ref]
        widest += t >= 3 and split.K == t - 1
        distinct_steps += len({delta for _, delta in steps.increments if delta}) > 1
    assert widest >= 20
    assert distinct_steps >= 20


def test_construct_a_refuses_overshoot_off_the_anchors(monkeypatch) -> None:
    # A split whose px3 sits on a token outside px2's support would put part-3
    # cells on a free token, where the windowed keys decode by their head.
    module = importlib.import_module("keymark.construct_a")
    split = split_px(PX_A, ALPHA_A, 3)
    moved = dataclasses.replace(split, px3=split.px3[::-1])
    monkeypatch.setattr(module, "split_px", lambda *args: moved)
    with pytest.raises(InvariantError, match="px3 is positive off the anchors"):
        construct_a(PX_A, ALPHA_A, 3)


def test_construct_a_refuses_a_table_whose_mass_is_not_one(monkeypatch) -> None:
    # The mass guard reads the decoded view's integer totals: one extra
    # part-3 cell in table 1 leaves that table's mass above 1.
    module = importlib.import_module("keymark.construct_a")
    real = module.build_pm3

    def build_pm3(*args):
        tables = real(*args)
        tables[0] = merge_tables(1, tables[0], JointTable(1, {0: {1: F(1, 1000)}}))
        return tables

    monkeypatch.setattr(module, "build_pm3", build_pm3)
    with pytest.raises(InvariantError, match=r"table m=1 has mass 1001/1000"):
        construct_a(PX_A, ALPHA_A, 3)


def test_one_heavy_at_vocabulary_scale(monkeypatch) -> None:
    """One 0.95 token among N = 1,024 and 2,048 at T = 3 (K = 1): the anchored
    listing holds 3 * (N-1) keys, so doubling N about doubles the traced
    peak of construct_a, and the larger scheme checks with gap 0.  Every
    key nonzero at the anchor, 3 * perm(N-1, 2) of them, would grow it
    fourfold."""
    module = importlib.import_module("keymark.construct_a")
    anchored_tails = module._anchored_tails
    listed = []

    def counted(*args):
        result = anchored_tails(*args)
        listed.append(sum(len(members) for _, members in result))
        return result

    monkeypatch.setattr(module, "_anchored_tails", counted)
    peaks = []
    for n in (1024, 2048):
        px = shuffled(one_heavy(n), 5)
        tracemalloc.start()
        try:
            scheme = construct_a(px, F(1, 2), 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert scheme.provenance["K"] == 1
        assert listed[-1] == 3 * (n - 1)
    assert peaks[1] <= 2.5 * peaks[0], peaks
    assert check_scheme(scheme).ok
    assert error_report(scheme).gap == 0


@st.composite
def tied_instances(draw) -> tuple[TokenDistribution, F, int]:
    """N <= 8, T <= 4, up to T-1 heavy tokens (so K from 0 to T-1) and
    light weights from 1..3, so that masses tie, in a drawn token order."""
    t = draw(st.integers(1, 4), label="T")
    n = draw(st.integers(max(t, 2), 8), label="N")
    heavy = draw(st.integers(0, min(t - 1, n - 1)), label="heavy tokens")
    weights = draw(st.lists(st.integers(1, 3), min_size=n - heavy, max_size=n - heavy))
    weights += draw(st.lists(st.sampled_from([6 * n, 12 * n]), min_size=heavy, max_size=heavy))
    weights = draw(st.permutations(weights), label="order")
    alpha = draw(st.sampled_from([F(1, 10), F(1, 2), F(3, 4), F(9, 10)]), label="alpha")
    total = sum(weights)
    return TokenDistribution.from_fractions(F(w, total) for w in weights), alpha, t


def assert_same_scheme(scheme: WatermarkScheme, reference: WatermarkScheme) -> None:
    """Equal tables cell for cell, in the same row and token order, with the
    same listed keys and provenance."""

    def ordered(s: WatermarkScheme) -> list:
        return [[(k, list(row.items())) for k, row in table.rows.items()] for table in s.tables]

    assert ordered(scheme) == ordered(reference)
    assert scheme.sparse_keys == reference.sparse_keys
    assert scheme.provenance == reference.provenance


@settings(max_examples=150, deadline=None)
@given(tied_instances(), st.booleans())
def test_constructions_match_the_build_then_merge_reference(instance, force) -> None:
    px, alpha, t = instance
    scheme = construct_a(px, alpha, t)
    event(f"K={scheme.provenance['K']} of T={t}")
    assert_same_scheme(scheme, reference_construct_a(px, alpha, t))
    assert_same_scheme(
        construct_b(px, alpha, t, force_pseudo=force),
        reference_construct_b(px, alpha, t, force_pseudo=force),
    )


def shuffled_px(weights: list[F], seed: int) -> TokenDistribution:
    total = sum(weights, F(0))
    probs = [w / total for w in weights]
    random.Random(seed).shuffle(probs)
    return TokenDistribution.from_fractions(probs)


# One 0.95 token and 39 light ones (heavy-40's shape, K = 1), and Zipf
# masses 1/i on 40 tokens, each in shuffled order.
HEAVY_40 = [F(95, 100)] + [F(5 * i, 78000) for i in range(1, 40)]
RANK_COUNT_CASES = {
    "construct_a heavy": (construct_a, shuffled_px(HEAVY_40, 3)),
    "construct_b zipf": (construct_b, shuffled_px([F(1, i) for i in range(1, 41)], 5)),
}


@pytest.mark.parametrize("case", sorted(RANK_COUNT_CASES))
def test_builders_rank_each_listed_key_once(case: str, monkeypatch) -> None:
    """Both constructions build in px's own token order and hand their keys
    to the scheme: construct, check, report and export unrank no key, each
    distinct listed key is ranked exactly once, from its support's block
    sizes, and no key goes through the validating sparse_index or the
    one-key unchecked_index.  A loaded scheme unranks each key once."""
    # The package attribute keymark.construct_a is the function, not the module.
    module = importlib.import_module("keymark.construct_a")
    build, px = RANK_COUNT_CASES[case]
    calls = {"sparse_key": 0, "sparse_index": 0, "unchecked_index": 0, "ranked": 0, "listed": 0}

    def counted(name):
        original = getattr(ReducedKeySet, name)

        def wrapper(self, arg):
            calls[name] += 1
            return original(self, arg)

        monkeypatch.setattr(ReducedKeySet, name, wrapper)

    rank_support = ReducedKeySet.rank_support

    def ranked(self, positions, codes):
        codes = list(codes)
        calls["ranked"] += len(codes)
        return rank_support(self, positions, codes)

    monkeypatch.setattr(ReducedKeySet, "rank_support", ranked)

    def listed(name):
        original = getattr(module, name)

        def wrapper(*args):
            result = original(*args)
            if name == "_anchored_tails":
                calls["listed"] += sum(len(members) for _, members in result)
            else:
                calls["listed"] += len(result)
            return result

        monkeypatch.setattr(module, name, wrapper)

    def check_report_export(scheme) -> None:
        assert check_scheme(scheme).ok
        assert error_report(scheme).gap == 0
        export_csv(scheme)

    counted("sparse_key")
    counted("sparse_index")
    counted("unchecked_index")
    listed("_structural_pairs")
    listed("_anchored_tails")
    scheme = build(px, F(1, 2), 3)
    check_report_export(scheme)
    assert calls["sparse_key"] == 0
    assert calls["sparse_index"] == 0
    assert calls["unchecked_index"] == 0
    assert len(scheme.key_support()) <= calls["listed"] + 1
    # One rank per distinct listed key: an anchored key that part 1 listed
    # is read from its support's ranks, and the all-zero key is handed over
    # without one.
    assert calls["ranked"] == len(scheme.sparse_keys) - 1
    if case == "construct_a heavy":
        assert calls["listed"] > calls["ranked"]
    loaded = deserialize_scheme(serialize_scheme(scheme))
    check_report_export(loaded)
    assert calls["sparse_key"] == len(loaded.key_support() | set(loaded.pz))
