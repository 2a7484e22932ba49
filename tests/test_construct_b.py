import importlib
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import FOLDED_B, INSTANCE_B_TERMS, PRE_FOLD_B, table_as_cells
from layered_reference import row_sum
from keymark.construct_a import KeyListing, build_pm1, construct_a, restore_supports
from keymark.construct_b import construct_b, extend_px
from keymark.core import (
    JointTable,
    ReducedKeySet,
    TokenDistribution,
    decode,
    enumerate_reduced_keyset,
    merge_tables,
)
from keymark.errors import CapacityError, InvariantError, ParameterError
from keymark.metrics import check_scheme, error_report, optimal_value
from keymark.thot import THotDecomposition, THotTerm, decompose_t_hot

from test_construct_a import assert_scheme_properties

PX_A = TokenDistribution.from_strings(["0.05", "0.1", "0.25", "0.6"])
PX_B = TokenDistribution.from_strings(["0.1", "0.3", "0.6"])

TERMS_B = THotDecomposition(
    tuple(
        THotTerm(tuple(i for i, bit in enumerate(omega) if bit), weight)
        for weight, omega in INSTANCE_B_TERMS
    ),
    4,
)


def test_extend_px_not_needed_when_representable() -> None:
    ext = extend_px(PX_B, F(4, 5), 2)
    assert ext.n == 0
    assert ext.px_prime == (F(1, 10), F(3, 10), F(2, 5))
    assert ext.r == (F(0), F(0), F(1, 5))
    assert ext.R == F(1, 5)


def test_extend_px_forced() -> None:
    ext = extend_px(PX_B, F(4, 5), 2, force_pseudo=True)
    assert ext.n == 1
    assert ext.px_prime == (F(1, 10), F(3, 10), F(2, 5), F(1, 5))
    assert ext.R == F(1, 5)


def test_extend_px_required_by_heavy_tail() -> None:
    ext = extend_px(PX_A, F(9, 10), 3)
    assert ext.n == 1
    assert ext.px_prime == (F(1, 20), F(1, 10), F(1, 4), F(3, 10), F(3, 10))
    assert ext.R == F(3, 10)
    assert sum(ext.px_prime) == 1


def test_extend_px_multiple_pseudo_tokens() -> None:
    px = TokenDistribution.from_strings(["0.05", "0.05", "0.9"])
    ext = extend_px(px, F(3, 10), 1, force_pseudo=True)
    assert ext.n == 2
    assert ext.px_prime == (F(1, 20), F(1, 20), F(3, 10), F(3, 10), F(3, 10))


def test_extend_px_zero_cap_rejected() -> None:
    px = TokenDistribution.from_strings(["0.5", "0.5"])
    assert extend_px(px, F(0), 1).n == 0
    with pytest.raises(ParameterError):
        extend_px(px, F(0), 1, force_pseudo=True)


def test_part1_on_extended_keys_matches_golden() -> None:
    keyset = enumerate_reduced_keyset(4, 2)
    tables = build_pm1(TERMS_B, keyset)
    for m in (1, 2):
        assert table_as_cells(tables[m - 1], keyset) == PRE_FOLD_B[m]


def test_construct_b_golden_folded_tables() -> None:
    scheme = construct_b(PX_B, F(4, 5), 2, force_pseudo=True, decomposition=TERMS_B)
    assert scheme.keyset.length == 4
    assert len(scheme.keyset) == 13
    for m in (1, 2):
        assert table_as_cells(scheme.table(m), scheme.keyset) == FOLDED_B[m]
    assert_scheme_properties(scheme)
    assert scheme.provenance == {
        "method": "extended",
        "pseudo_tokens": 1,
        "leftover": "0.2",
        "forced": True,
    }


def test_construct_b_rejects_bad_injected_decompositions() -> None:
    short = THotDecomposition((THotTerm((0, 1), F(1, 2)),), 3)
    with pytest.raises(ParameterError, match="supplied length 3 != key length 4"):
        construct_b(PX_B, F(4, 5), 2, force_pseudo=True, decomposition=short)
    wrong_sum = THotDecomposition((THotTerm((0, 1), F(1, 2)),), 4)
    with pytest.raises(ParameterError, match="reconstruct"):
        construct_b(PX_B, F(4, 5), 2, force_pseudo=True, decomposition=wrong_sum)


GREEDY_B = [(term.support, term.weight) for term in TERMS_B.terms]


@pytest.mark.parametrize(
    "terms, match",
    [
        # Four extra terms that cancel out.
        (
            GREEDY_B + [((0, 1), F(1, 100)), ((2, 3), F(1, 100)),
                        ((0, 2), F(-1, 100)), ((1, 3), F(-1, 100))],
            "non-positive weight",
        ),
        (GREEDY_B + [((0, 1), F(0))], "non-positive weight"),
        # A repeated position would add the weight to its entry twice.
        ([((0, 0), F(1, 20)), ((1, 1), F(1, 20))] + GREEDY_B[1:], "not increasing"),
        (
            [((0,), F(1, 10)), ((1, 2, 3), F(1, 10)), ((1, 2), F(1, 10)),
             ((1, 2, 3), F(1, 10)), ((2,), F(1, 10))],
            "2-hot",
        ),
    ],
    ids=["cancelling", "zero-weight", "repeats", "mixed-widths"],
)
def test_construct_b_rejects_terms_that_reconstruct_but_are_not_t_hot(terms, match) -> None:
    # Each case sums to the extended vector, position by position.
    total = [F(0)] * 4
    for support, weight in terms:
        for i in support:
            total[i] += weight
    assert tuple(total) == extend_px(PX_B, F(4, 5), 2, force_pseudo=True).px_prime
    # A bad weight or position is refused as the decomposition is built, a
    # count other than T when construct_b lists the keys.
    with pytest.raises(ParameterError, match=match):
        decomposition = THotDecomposition(
            tuple(THotTerm(support, weight) for support, weight in terms), 4
        )
        construct_b(PX_B, F(4, 5), 2, force_pseudo=True, decomposition=decomposition)


def test_construct_b_without_extension() -> None:
    scheme = construct_b(PX_B, F(4, 5), 2)
    assert scheme.keyset.length == 3
    assert_scheme_properties(scheme)
    cells = table_as_cells(scheme.table(1), scheme.keyset)
    # Greedy terms 0.3*(0,1,1) and 0.1*(1,0,1); leftover 0.2 on the zero key.
    assert cells == {
        (0, 1, 2): {2: F(3, 10)},
        (0, 2, 1): {3: F(3, 10)},
        (1, 0, 2): {1: F(1, 10)},
        (2, 0, 1): {3: F(1, 10)},
        (0, 0, 0): {3: F(1, 5)},
    }


def test_construct_b_no_leftover_skips_zero_key() -> None:
    px = TokenDistribution.from_strings(["0.25", "0.25", "0.25", "0.25"])
    scheme = construct_b(px, F(1, 2), 2)
    assert scheme.keyset.length == 4
    assert scheme.keyset.zero_index not in scheme.key_support()
    assert_scheme_properties(scheme)


def test_construct_b_instance_a_extension() -> None:
    scheme = construct_b(PX_A, F(9, 10), 3)
    assert scheme.provenance["pseudo_tokens"] == 1
    assert scheme.keyset.length == 5
    assert_scheme_properties(scheme)
    # Same detection errors as the direct construction on the same instance.
    direct = construct_a(PX_A, F(9, 10), 3)
    for m in (1, 2, 3):
        def miss(s, m=m):
            ks = s.keyset
            return sum(
                (
                    mass
                    for idx, tok, mass in s.table(m).cells()
                    if decode(tok, ks.key(idx)) != m
                ),
                F(0),
            )
        assert miss(scheme) == miss(direct) == F(3, 10)


def test_construct_b_unsorted_tokens() -> None:
    px = TokenDistribution.from_strings(["0.6", "0.1", "0.3"])
    scheme = construct_b(px, F(4, 5), 2, force_pseudo=True)
    assert_scheme_properties(scheme)
    assert scheme.px.probs == (F(3, 5), F(1, 10), F(3, 10))


def test_construct_b_many_pseudo_tokens() -> None:
    px = TokenDistribution.from_strings(["0.5", "0.5"])
    scheme = construct_b(px, F(1, 5), 1, force_pseudo=True)
    assert scheme.provenance["pseudo_tokens"] == 3
    assert scheme.keyset.length == 5
    assert_scheme_properties(scheme)


def test_construct_b_random_instances() -> None:
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 6)
        t = rng.randint(1, min(n, 4))
        weights = [rng.randint(0, 9) for _ in range(n)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        px = TokenDistribution.from_fractions(F(w, total) for w in weights)
        alpha = F(rng.randint(1, 99), 100)
        force = rng.random() < 0.5
        scheme = construct_b(px, alpha, t, force_pseudo=force)
        assert_scheme_properties(scheme)


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.integers(0, 9), min_size=2, max_size=6).filter(any),
    t=st.integers(1, 4),
    alpha=st.integers(1, 99).map(lambda v: F(v, 100)),
    force=st.booleans(),
)
def test_fold_back_keeps_every_part1_row_sum(weights, t, alpha, force) -> None:
    """Each folded key's row sum is its part-1 row sum, because the fold-back
    shares total 1; with no pseudo token the all-zero key gets R."""
    px = TokenDistribution.from_fractions(F(w, sum(weights)) for w in weights)
    t = min(t, px.n)
    module = importlib.import_module("keymark.construct_b")
    part1: dict[int, dict[int, F]] = {}

    def build_pm1_spy(*args, **kwargs):
        tables = build_pm1(*args, **kwargs)
        for table in tables:
            part1[table.m] = {idx: row_sum(table, idx) for idx in table.rows}
        return tables

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "build_pm1", build_pm1_spy)
        scheme = construct_b(px, alpha, t, force_pseudo=force)
    ext = extend_px(TokenDistribution(px.sorted_probs), alpha, t, force_pseudo=force)
    zero = scheme.keyset.zero_index
    for table in scheme.tables:
        expected = dict(part1[table.m])
        assert zero not in expected
        if ext.n == 0 and ext.R:
            expected[zero] = ext.R
        assert {idx: row_sum(table, idx) for idx in table.rows} == expected


@pytest.mark.parametrize("force", [False, True])
def test_construct_b_refuses_a_table_whose_mass_is_not_one(force, monkeypatch) -> None:
    # The mass guard reads the decoded view's integer totals: one extra
    # part-1 cell in table 1 leaves that table's mass above 1, with or
    # without pseudo tokens to fold back.
    module = importlib.import_module("keymark.construct_b")

    def build_pm1_extra(*args):
        tables = build_pm1(*args)
        tables[0] = merge_tables(1, tables[0], JointTable(1, {1: {1: F(1, 1000)}}))
        return tables

    monkeypatch.setattr(module, "build_pm1", build_pm1_extra)
    with pytest.raises(InvariantError, match=r"table m=1 has mass 1001/1000"):
        construct_b(PX_B, F(4, 5), 2, force_pseudo=force)


def test_construct_b_refuses_fold_back_shares_that_do_not_total_one(monkeypatch) -> None:
    # Doubling the leftover r doubles every share r(x)/R, whose total must be 1.
    module = importlib.import_module("keymark.construct_b")
    real = module.restore_token_order
    monkeypatch.setattr(
        module, "restore_token_order", lambda px, values: tuple(2 * v for v in real(px, values))
    )
    with pytest.raises(InvariantError, match="fold-back shares do not total 1"):
        construct_b(PX_B, F(4, 5), 2, force_pseudo=True)
    with pytest.raises(InvariantError, match="table m=1 has mass 6/5"):
        construct_b(PX_B, F(4, 5), 2)


def part1_sums(tables, keys) -> tuple[dict, dict]:
    """Per (token, message): the mass decoding to the message on the token,
    and the key-marginal mass of the keys nonzero on the token; keys maps
    each index to its sparse key."""
    columns: dict[tuple[int, int], F] = {}
    marginals: dict[tuple[int, int], F] = {}
    for table in tables:
        for idx, row in table.rows.items():
            for token, mass in row.items():
                columns[token, table.m] = columns.get((token, table.m), F(0)) + mass
            key_mass = row_sum(table, idx)
            for pos, _ in keys[idx]:
                cell = (pos + 1, table.m)
                marginals[cell] = marginals.get(cell, F(0)) + key_mass
    return columns, marginals


def test_cyclic_part1_matches_the_t_factorial_spread() -> None:
    """The T cyclic shifts of one decomposition's terms give the T! spread's
    column sums and per-token key marginals, and construct_b on them is
    optimal."""
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(1, 8)
        t = rng.randint(1, min(n, 5))
        weights = [rng.randint(1, 30) for _ in range(n)]
        px = TokenDistribution.from_fractions(F(w, sum(weights)) for w in weights)
        alpha = F(rng.randint(5, 99), 100)
        for force in (False, True):
            ext = extend_px(TokenDistribution(px.sorted_probs), alpha, t, force_pseudo=force)
            decomp = decompose_t_hot(ext.px_prime, t)
            keyset = ReducedKeySet(decomp.length, t)
            order = px.sort_perm + tuple(range(px.n, decomp.length))
            listing = KeyListing(keyset)
            cyclic = build_pm1(decomp, keyset, listing, order)
            full = build_pm1(restore_supports(px, decomp), keyset, listing)
            assert part1_sums(cyclic, listing.keys) == part1_sums(full, listing.keys)
            assert len(set().union(*(tb.key_support() for tb in cyclic))) <= t * len(decomp.terms)
            scheme = construct_b(px, alpha, t, force_pseudo=force)
            report = error_report(scheme)
            assert check_scheme(scheme).ok and report.gap == 0
            assert set(report.beta) == {optimal_value(px, alpha, t)}


def test_construct_b_on_a_shuffled_zipf_of_2048_at_t_5() -> None:
    # T! = 120 keys per term would be 120 * terms; the cyclic family lists T.
    n, t, alpha = 2048, 5, F(1, 2)
    weights = [10**6 // i for i in range(1, n + 1)]
    random.Random(5).shuffle(weights)
    px = TokenDistribution.from_fractions(F(w, sum(weights)) for w in weights)
    ext = extend_px(TokenDistribution(px.sorted_probs), alpha, t)
    terms = len(decompose_t_hot(ext.px_prime, t).terms)
    scheme = construct_b(px, alpha, t)
    assert check_scheme(scheme).ok and error_report(scheme).gap == 0
    assert len(scheme.key_support()) <= t * terms + 1


def test_constructions_on_a_zipf_vocabulary_of_200() -> None:
    # perm(200, 3) = 7,880,400 placement keys: the key set lists none of them.
    weights = [10**6 // i for i in range(1, 201)]
    px = TokenDistribution.from_fractions(F(w, sum(weights)) for w in weights)
    for builder in (construct_a, construct_b):
        scheme = builder(px, F(1, 2), 3)
        assert check_scheme(scheme).ok
        assert error_report(scheme).gap == 0


def test_pseudo_path_memory_grows_linearly_in_key_length() -> None:
    # Forced pseudo tokens at alpha = 1/500 and 1/1000 give keys of 1,000
    # and 2,000 positions.  Terms carry T support positions, so doubling the
    # key length about doubles the traced peak; a dense length-L vector per
    # term would make it grow about fourfold.
    px = TokenDistribution.from_strings(["0.5", "0.25", "0.25"])
    peaks = []
    for alpha in (F(1, 500), F(1, 1000)):
        tracemalloc.start()
        try:
            scheme = construct_b(px, alpha, 2, force_pseudo=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert scheme.keyset.length == 2 / alpha
    assert peaks[1] <= 2.5 * peaks[0], peaks


TINY_FIRST = TokenDistribution.from_strings(["0.0000001", "0.5", "0.4999999"])


def test_pseudo_path_is_capped_before_anything_is_built() -> None:
    # At T=3 the first token sits below the cap alpha/3 once alpha > 3e-7,
    # and the pseudo count n = ceil(R / a_max) grows as T/alpha: 298 at
    # alpha = 1/100.  At alpha = 10^-6 it is about 3 * 10^6, so part 1's
    # bound of T cyclic keys for each of N + n terms passes the cap, and
    # extend_px refuses before it builds the extended vector.
    tiny_sorted = TokenDistribution(TINY_FIRST.sorted_probs)
    assert extend_px(tiny_sorted, F(1, 100), 3).n == 298
    scheme = construct_b(TINY_FIRST, F(1, 100), 3)
    assert scheme.provenance["pseudo_tokens"] == 298
    assert check_scheme(scheme).ok and error_report(scheme).gap == 0
    for alpha, force in ((F(1, 10**6), False), (F(1, 10**9), True)):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CapacityError, match="pseudo tokens"):
                construct_b(TINY_FIRST, alpha, 3, force_pseudo=force)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1 and peak < 10**6, (alpha, elapsed, peak)
    # At alpha = 10^-9 every token is at the cap, so a is representable
    # and no pseudo token is needed unless forced.
    assert extend_px(tiny_sorted, F(1, 10**9), 3).n == 0
