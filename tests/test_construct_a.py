import importlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import COMBINED_A, PART1_A, PART2_A, table_as_cells
from layered_reference import build_pm2_layered, build_pm3_layered, column_sum, step_decomposition
from keymark.construct_a import (
    anchored_cell_count,
    anchored_keys,
    build_pm1,
    build_pm2,
    build_pm3,
    construct_a,
    structural_keys,
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
)
from keymark.errors import CapacityError, ParameterError
from keymark.split import split_px
from keymark.thot import decompose_t_hot

PX_A = TokenDistribution.from_strings(["0.05", "0.1", "0.25", "0.6"])
ALPHA_A = F(9, 10)


def assert_scheme_properties(scheme: WatermarkScheme) -> None:
    """Directly re-derive the five structural properties from first principles.

    Sums run over the stored cells only; absent cells are zero by definition,
    so this equals the full sum over each preimage slice.
    """
    cap = F(scheme.alpha, scheme.t)
    ks = scheme.keyset
    reference_rows = {k: scheme.tables[0].row_sum(k) for k in scheme.key_support()}
    for m in range(1, scheme.t + 1):
        table = scheme.table(m)
        assert table.total_mass() == 1
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
            assert table.row_sum(key_index) == reference_rows[key_index]
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
            omega = tuple(1 if i in support else 0 for i in range(n))
            expected = {
                i
                for i in range(len(ks))
                if {p for p, v in enumerate(ks.key(i)) if v} == set(support)
            }
            found = structural_keys(ks, omega)
            assert found == expected
            assert len(found) == math.factorial(t)


def test_structural_keys_validation() -> None:
    ks = enumerate_reduced_keyset(4, 3)
    with pytest.raises(ParameterError):
        structural_keys(ks, (1, 1, 1))
    with pytest.raises(ParameterError):
        structural_keys(ks, (1, 1, 0, 0))


def test_structural_keys_explicit_subset() -> None:
    # Explicit sets may hold only part of a support class; missing keys are skipped.
    ks = ExplicitKeySet([(0, 0, 0), (1, 2, 0), (2, 1, 0), (0, 1, 2)], t=2)
    assert structural_keys(ks, (1, 1, 0)) == {1, 2}
    assert structural_keys(ks, (0, 1, 1)) == {3}


def test_anchored_keys_match_filter() -> None:
    for n, t in [(3, 2), (4, 3), (5, 3), (5, 4)]:
        ks = enumerate_reduced_keyset(n, t)
        for k in range(1, t):
            expected = {
                i
                for i in range(len(ks))
                if all(v != 0 for v in ks.key(i)[n - k :])
            }
            found = anchored_keys(ks, k)
            assert found == expected
            assert len(found) == math.perm(t, k) * math.perm(n - k, t - k)


def test_anchored_keys_examples() -> None:
    assert len(anchored_keys(enumerate_reduced_keyset(4, 3), 2)) == 12
    assert len(anchored_keys(enumerate_reduced_keyset(5, 3), 1)) == 36


def test_anchored_keys_validation() -> None:
    ks = enumerate_reduced_keyset(4, 3)
    with pytest.raises(ParameterError):
        anchored_keys(ks, 0)
    with pytest.raises(ParameterError):
        anchored_keys(ks, 3)


def test_anchored_listing_cap() -> None:
    # heavy-40's listing: 3 * perm(39, 2) = 4,446 anchored keys.
    assert len(anchored_keys(enumerate_reduced_keyset(40, 3), 1)) == 4446
    # 5 * perm(24, 4) = 1,275,120 anchored keys are refused before any is listed.
    assert math.perm(5, 1) * math.perm(24, 4) > ENUMERATION_CAP
    with pytest.raises(CapacityError, match="1275120 anchored keys"):
        anchored_keys(enumerate_reduced_keyset(25, 5), 1)
    # construct_a reaches the guard on a 25-token T=5 input with one 0.95 token.
    px = TokenDistribution.from_strings(["1/480"] * 24 + ["0.95"])
    with pytest.raises(CapacityError, match="anchored keys"):
        construct_a(px, F(1, 2), 5)


def test_structural_listing_cap() -> None:
    # T! structural keys per term: 9! = 362,880 fit, 10! = 3,628,800 do not.
    assert math.factorial(9) <= ENUMERATION_CAP < math.factorial(10)
    with pytest.raises(CapacityError, match="3628800 structural keys"):
        structural_keys(enumerate_reduced_keyset(10, 10), (1,) * 10)
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
        pairs = [(i, ks.key(i)) for i in anchored_keys(ks, k)]
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


def test_build_pm2_validation() -> None:
    # More than t-1 positive entries and a negative entry.
    with pytest.raises(ParameterError):
        build_pm2((F(0), F(1, 10), F(1, 5)), ReducedKeySet(3, 2))
    with pytest.raises(ParameterError):
        build_pm2((F(0), F(-1, 10), F(1, 10)), ReducedKeySet(3, 3))


def test_build_pm1_golden() -> None:
    keyset = enumerate_reduced_keyset(4, 3)
    split = split_px(PX_A, ALPHA_A, 3)
    tables = build_pm1(decompose_t_hot(split.px1, 3), keyset)
    for m in (1, 2, 3):
        assert table_as_cells(tables[m - 1], keyset) == PART1_A[m]


def test_build_pm1_requires_reduced_keyset() -> None:
    explicit = ExplicitKeySet([(0, 0), (1, 0), (0, 1)], t=1)
    split = split_px(TokenDistribution.from_strings(["0.4", "0.6"]), F(1, 2), 1)
    decomp = decompose_t_hot(split.px1, 1)
    with pytest.raises(ParameterError):
        build_pm1(decomp, explicit)


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
    assert ledger.per_key[idx] == (F(0), F(3, 80), F(1, 80))


def test_build_pm2_imbalance_totals_match_tables() -> None:
    keyset = enumerate_reduced_keyset(4, 3)
    split = split_px(PX_A, ALPHA_A, 3)
    tables, ledger = build_pm2(split.px2, keyset)
    for m in range(1, 4):
        measured = sum(
            (
                max(tables[i].row_sum(idx) for i in range(3)) - tables[m - 1].row_sum(idx)
                for idx in anchored_keys(keyset, 2)
            ),
            F(0),
        )
        assert measured == ledger.total


def test_build_pm2_empty_tail() -> None:
    keyset = enumerate_reduced_keyset(3, 2)
    tables, ledger = build_pm2((F(0), F(0), F(0)), keyset)
    assert all(t.total_mass() == 0 for t in tables)
    assert ledger.total == 0
    assert ledger.per_key == {}


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
        assert tables[m - 1].total_mass() == F(3, 10)
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
    """ledger.per_key holds exactly the anchored keys with a nonzero gap, each
    with the gaps recomputed from that key's own row sums."""
    tables, ledger = build_pm2(px2, keyset)
    expected = {}
    for idx in anchored_keys(keyset, k):
        sums = [table.row_sum(idx) for table in tables]
        gaps = tuple(max(sums) - s for s in sums)
        if any(gaps):
            expected[idx] = gaps
    assert ledger.per_key == expected


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
        pm2_ref, ledger_ref = build_pm2_layered(split.px2, keyset)
        assert [list(tb.cells()) for tb in pm2] == [list(tb.cells()) for tb in pm2_ref]
        assert (ledger.per_key, ledger.total) == (ledger_ref.per_key, ledger_ref.total)
        pm3 = build_pm3(split.px3, ledger, keyset)
        steps = step_decomposition(split.px2, t)
        pm3_ref = build_pm3_layered(split.px3, steps, ledger_ref, keyset)
        assert [list(tb.cells()) for tb in pm3] == [list(tb.cells()) for tb in pm3_ref]
        widest += t >= 3 and split.K == t - 1
        distinct_steps += len({delta for _, delta in steps.increments if delta}) > 1
    assert widest >= 20
    assert distinct_steps >= 20


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
    """Both constructions build in px's own token order: no key is unranked,
    and no key is ranked more than once per listing."""
    # The package attribute keymark.construct_a is the function, not the module.
    module = importlib.import_module("keymark.construct_a")
    build, px = RANK_COUNT_CASES[case]
    calls = {"sparse_key": 0, "sparse_index": 0, "listed": 0}

    def counted(name):
        original = getattr(ReducedKeySet, name)

        def wrapper(self, arg):
            calls[name] += 1
            return original(self, arg)

        monkeypatch.setattr(ReducedKeySet, name, wrapper)

    def listed(name):
        original = getattr(module, name)

        def wrapper(*args):
            result = original(*args)
            calls["listed"] += len(result)
            return result

        monkeypatch.setattr(module, name, wrapper)

    counted("sparse_key")
    counted("sparse_index")
    listed("_structural_pairs")
    listed("_anchored_tails")
    scheme = build(px, F(1, 2), 3)
    assert calls["sparse_key"] == 0
    assert 0 < calls["sparse_index"] <= calls["listed"]
    assert len(scheme.key_support()) <= calls["listed"] + 1
