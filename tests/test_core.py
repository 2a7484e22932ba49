import dataclasses
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_reference import (
    column_sum,
    reference_merge_tables,
    reference_sparse_key,
    reference_unchecked_index,
    row_sum,
    table_mass,
)
from keymark.core import (
    ENUMERATION_CAP,
    ExplicitKeySet,
    JointTable,
    ReducedKeySet,
    SparseKey,
    TokenDistribution,
    WatermarkScheme,
    _iroot,
    add_mass,
    decode,
    enumerate_reduced_keyset,
    exact_rational,
    merge_tables,
)
from keymark.construct_a import construct_a
from keymark.construct_b import construct_b, extend_px
from keymark.errors import ParameterError, ValidationError
from keymark.lp import bijective_keyset, build_primal
from keymark.metrics import optimal_value
from keymark.rationals import common_numerators
from keymark.serialize import serialize_scheme
from keymark.split import cap_vector, split_px
from keymark.thot import decompose_t_hot, is_t_hot_representable


def is_reduced_member(entries: tuple[int, ...], t: int) -> bool:
    """Oracle: all-zero, or the nonzero entries are exactly {1, ..., t} each once."""
    nonzero = [v for v in entries if v != 0]
    if not nonzero:
        return all(v == 0 for v in entries)
    return len(nonzero) == t and sorted(nonzero) == list(range(1, t + 1))


def brute_force_keys(length: int, t: int) -> list[tuple[int, ...]]:
    """Oracle: filter the full grid, then sort lexicographically."""
    keys = [
        key
        for key in itertools.product(range(t + 1), repeat=length)
        if is_reduced_member(key, t)
    ]
    return sorted(keys)


def test_decode_examples() -> None:
    assert decode(2, (0, 1, 2)) == 1
    assert decode(1, (0, 0, 0)) == 0
    assert decode(4, (3, 0, 2, 1)) == 1
    assert decode(3, (3, 0, 2, 1)) == 2


def test_decode_rejects_out_of_range_token() -> None:
    with pytest.raises(IndexError):
        decode(0, (1, 2))
    with pytest.raises(IndexError):
        decode(3, (1, 2))


def test_is_reduced_member() -> None:
    assert is_reduced_member((0, 0, 0), 2)
    assert is_reduced_member((0, 1, 2), 2)
    assert is_reduced_member((2, 1, 0), 2)
    assert not is_reduced_member((1, 1, 0), 2)
    assert not is_reduced_member((0, 0, 1), 2)
    assert not is_reduced_member((0, 2, 2), 2)
    assert not is_reduced_member((3, 1, 2), 2)


def test_keyset_sizes() -> None:
    assert len(enumerate_reduced_keyset(4, 3)) == 25
    assert len(enumerate_reduced_keyset(3, 2)) == 7
    assert len(enumerate_reduced_keyset(1, 1)) == 2
    assert len(enumerate_reduced_keyset(6, 4)) == math.perm(6, 4) + 1


@pytest.mark.parametrize(
    ("length", "t"),
    [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (4, 4), (5, 3), (6, 2)],
)
def test_keyset_matches_brute_force(length: int, t: int) -> None:
    ks = enumerate_reduced_keyset(length, t)
    expected = brute_force_keys(length, t)
    assert len(ks) == len(expected)
    assert list(ks) == expected
    for i, key in enumerate(expected):
        assert ks.key(i) == key
        assert ks.index(key) == i


def lexicographic_placements(length: int, t: int) -> list[tuple[int, ...]]:
    """Oracle: the zero key, then every placement of 1..t in sorted order."""
    placements = []
    for positions in itertools.permutations(range(length), t):
        entries = [0] * length
        for value, pos in enumerate(positions, start=1):
            entries[pos] = value
        placements.append(tuple(entries))
    return [(0,) * length] + sorted(placements)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda length: st.tuples(st.just(length), st.integers(1, min(length, 4)))
    )
)
def test_sparse_rank_unrank_match_enumeration(shape: tuple[int, int]) -> None:
    length, t = shape
    ks = ReducedKeySet(length, t)
    expected = lexicographic_placements(length, t)
    assert len(ks) == len(expected)
    for i, key in enumerate(expected):
        pairs = tuple((pos, value) for pos, value in enumerate(key) if value)
        assert ks.sparse_key(i) == pairs
        assert ks.sparse_index(pairs) == i
        assert ks.sparse_index(reversed(pairs)) == i
        assert ks.key(i) == key
        assert ks.index(key) == i


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4096, 32768]), st.data())
def test_sparse_round_trip_and_order_at_vocabulary_sizes(length: int, data) -> None:
    ks = ReducedKeySet(length, 3)
    assert len(ks) == math.perm(length, 3) + 1
    i = data.draw(st.integers(0, len(ks) - 2), label="i")
    j = data.draw(st.integers(i + 1, len(ks) - 1), label="j")
    for index in (i, i + 1, j):
        pairs = ks.sparse_key(index)
        assert ks.sparse_index(pairs) == index
        positions = [pos for pos, _ in pairs]
        assert positions == sorted(set(positions))
        assert sorted(value for _, value in pairs) == ([] if index == 0 else [1, 2, 3])
    assert ks.key(i) < ks.key(i + 1) <= ks.key(j)
    assert ks.index(ks.key(j)) == j


def test_sparse_key_matches_the_bisection_reference_up_to_length_8() -> None:
    for length in range(1, 9):
        for t in range(1, length + 1):
            ks = ReducedKeySet(length, t)
            for index in range(ks.size):
                assert ks.sparse_key(index) == reference_sparse_key(ks, index), (length, t, index)


def block_edge_indices(ks: ReducedKeySet, prefix: SparseKey, m: int) -> list[int]:
    """Indices whose rank, once the nonzero entries `prefix` are placed, is
    perm(m, u) - 1, perm(m, u) or perm(m, u) + 1 for the u values left:
    the edges of the block of keys with m positions after the next nonzero
    one.  Those ranks exist in the block only below its size."""
    u = ks.t - len(prefix)
    after = prefix[-1][0] + 1 if prefix else 0
    block = math.perm(ks.length - after, u)
    left = sorted(set(range(1, ks.t + 1)) - {value for _, value in prefix})
    # The block's first key puts the values left, ascending, at the end.
    first = ks.unchecked_index(
        [*prefix, *((ks.length - u + i, value) for i, value in enumerate(left))]
    )
    edges = (math.perm(m, u) + d for d in (-1, 0, 1))
    return [first + rank for rank in edges if 0 <= rank < block]


@st.composite
def keys_at_block_edges(draw, max_length: int) -> tuple[ReducedKeySet, SparseKey, list[int]]:
    length = draw(st.integers(1, max_length), label="L")
    ks = ReducedKeySet(length, draw(st.integers(1, min(length, 12)), label="T"))
    u = draw(st.integers(1, ks.t), label="values left")
    values = draw(st.permutations(range(1, ks.t + 1)), label="values")
    positions = sorted(
        draw(
            st.sets(st.integers(0, max(length - u - 1, 0)), min_size=ks.t - u, max_size=ks.t - u),
            label="prefix positions",
        )
    )
    prefix = tuple(zip(positions, values))
    after = positions[-1] + 1 if positions else 0
    m = draw(st.integers(u - 1, length - after - 1), label="m")
    return ks, prefix, block_edge_indices(ks, prefix, m)


@settings(max_examples=300, deadline=None)
@given(keys_at_block_edges(10**30))
def test_sparse_key_matches_the_reference_at_block_edges(case) -> None:
    # Each level's rank sits at perm(m, u) - 1, perm(m, u) or perm(m, u) + 1,
    # where the float guess is closest to a wrong position.
    ks, prefix, indices = case
    for index in indices:
        pairs = ks.sparse_key(index)
        assert pairs == reference_sparse_key(ks, index)
        assert pairs[: len(prefix)] == prefix


@settings(max_examples=30, deadline=None)
@given(st.integers(10**30, 10**40), st.integers(11, 12), st.data())
def test_sparse_key_matches_the_reference_at_ranks_of_1000_bits(length, t, data) -> None:
    # Ranks of 1000 bits and more take no float guess; past 1024 bits a
    # float could not even hold them.
    ks = ReducedKeySet(length, t)
    assert (ks.size - 2).bit_length() >= 1000
    index = data.draw(st.integers(2**1000 + 1, ks.size - 1), label="index")
    for i in (index, ks.size - 1, 2**1000 + 1):
        assert ks.sparse_key(i) == reference_sparse_key(ks, i)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**3000), st.integers(1, 40))
def test_integer_root_is_exact(n: int, u: int) -> None:
    root = _iroot(n, u)
    assert root**u <= n < (root + 1) ** u


def distinct_below(rng: random.Random, bound: int, count: int) -> list[int]:
    """count distinct ints in [0, bound); rng.sample takes a range only
    while its length fits in a C ssize_t."""
    if bound <= sys.maxsize:
        return rng.sample(range(bound), count)
    drawn: set[int] = set()
    while len(drawn) < count:
        drawn.add(rng.randrange(bound))
    return list(drawn)


@pytest.mark.parametrize("length", [32768, 10**12, 10**30])
def test_sparse_key_makes_o_t_perm_calls(length: int, monkeypatch: pytest.MonkeyPatch) -> None:
    # The reference bisects with about log2(L) probes at each of the T levels
    # (about 85 per key at L = 32,768, T = 5); the unrank makes at most 3 per
    # level.  At L = 10^30, T = 12 the ranks of the first levels have 1000
    # bits or more, where the guess comes from an exact integer root.
    t = 12 if length == 10**30 else 5
    ks = ReducedKeySet(length, t)
    rng = random.Random(length)
    indices = [rng.randrange(ks.size) for _ in range(300)]
    for _ in range(30):
        prefix_length = rng.randrange(t)
        positions = sorted(distinct_below(rng, length - (t - prefix_length), prefix_length))
        prefix = tuple(zip(positions, rng.sample(range(1, t + 1), prefix_length)))
        m = rng.randrange(t - prefix_length - 1, length - (positions[-1] + 1 if positions else 0))
        indices += block_edge_indices(ks, prefix, m)
    indices += [1, 2, ks.size - 2, ks.size - 1]
    expected = [reference_sparse_key(ks, index) for index in indices]
    perm, calls = math.perm, []

    def counted(*args: int) -> int:
        calls[-1] += 1
        return perm(*args)

    monkeypatch.setattr(math, "perm", counted)
    for index, pairs in zip(indices, expected):
        calls.append(0)
        assert ks.sparse_key(index) == pairs
    assert max(calls) <= 3 * t


def test_closed_form_rank_matches_the_reference_up_to_length_7() -> None:
    # unchecked_index on every key, and rank_support on every support with
    # the T! Lehmer codes in lexicographic order, as construction A lists them.
    for length in range(1, 8):
        for t in range(1, min(length, 4) + 1):
            ks = ReducedKeySet(length, t)
            for index in range(ks.size):
                pairs = ks.sparse_key(index)
                assert ks.unchecked_index(pairs) == reference_unchecked_index(ks, pairs) == index
            codes = list(itertools.product(*(range(t - i) for i in range(t))))
            for positions in itertools.combinations(range(length), t):
                expected = [
                    reference_unchecked_index(ks, tuple(zip(positions, values)))
                    for values in itertools.permutations(range(1, t + 1))
                ]
                assert ks.rank_support(positions, codes) == expected


@pytest.mark.parametrize("length", [32768, 10**12])
def test_closed_form_rank_matches_the_reference_on_random_keys(length: int) -> None:
    t = 5
    ks = ReducedKeySet(length, t)
    rng = random.Random(length)
    for _ in range(300):
        pairs = tuple(zip(sorted(rng.sample(range(length), t)), rng.sample(range(1, t + 1), t)))
        index = ks.unchecked_index(pairs)
        assert index == reference_unchecked_index(ks, pairs)
        assert ks.sparse_key(index) == pairs


def test_keyset_zero_key_is_first() -> None:
    ks = enumerate_reduced_keyset(5, 3)
    assert ks.key(0) == (0, 0, 0, 0, 0)
    assert ks.zero_index == 0


def test_keyset_round_trip_large() -> None:
    ks = enumerate_reduced_keyset(7, 4)
    for i in range(len(ks)):
        assert ks.index(ks.key(i)) == i


def test_keyset_rejects_non_members() -> None:
    ks = enumerate_reduced_keyset(4, 3)
    with pytest.raises(KeyError):
        ks.index((1, 1, 2, 3))
    with pytest.raises(ParameterError):
        ks.index((0, 1, 2))
    with pytest.raises(ParameterError):
        ks.key(25)
    with pytest.raises(ParameterError):
        ks.key(-1)
    assert (0, 1, 2, 3) in ks
    assert (1, 1, 2, 3) not in ks
    with pytest.raises(KeyError):
        ks.sparse_index([(0, 1), (0, 2), (3, 3)])
    with pytest.raises(KeyError):
        ks.sparse_index([(0, 1), (1, 2)])
    with pytest.raises(ParameterError):
        ks.sparse_index([(0, 1), (1, 2), (4, 3)])
    with pytest.raises(ParameterError):
        ks.sparse_key(25)


def test_keyset_parameter_validation() -> None:
    with pytest.raises(ParameterError):
        ReducedKeySet(3, 0)
    with pytest.raises(ParameterError):
        ReducedKeySet(3, 4)
    # A document may carry any integer; one too large to count is typed too.
    with pytest.raises(ParameterError):
        ReducedKeySet(10**20, 10**20)


def test_reduced_keyset_has_no_size_cap(monkeypatch: pytest.MonkeyPatch) -> None:
    # The key set lists nothing, so no size or environment setting limits it;
    # the listing guard lives on part 1's structural keys (test_construct_a).
    monkeypatch.setenv("KEYMARK_KEYSET_CAP", "1")
    ks = enumerate_reduced_keyset(100, 10)
    # size is exact even beyond sys.maxsize, where len() cannot report it.
    assert ks.size == math.perm(100, 10) + 1 > sys.maxsize
    assert len(enumerate_reduced_keyset(30, 10)) == math.perm(30, 10) + 1 > ENUMERATION_CAP
    last = ks.sparse_key(ks.size - 1)
    assert last == tuple((pos, 10 - pos) for pos in range(10))
    assert ks.sparse_index(last) == ks.size - 1


def test_explicit_keyset() -> None:
    keys = [(0, 0, 0), (1, 2, 0), (2, 1, 0)]
    ks = ExplicitKeySet(keys, t=2)
    assert len(ks) == 3
    assert ks.key(1) == (1, 2, 0)
    assert ks.index((2, 1, 0)) == 2
    assert ks.zero_index == 0
    assert list(ks) == keys
    assert ks.sparse_key(2) == ((0, 2), (1, 1))
    assert ks.sparse_index([(1, 1), (0, 2)]) == 2
    assert ks.sparse_index([]) == 0


def test_explicit_keyset_validation() -> None:
    with pytest.raises(ValidationError):
        ExplicitKeySet([(0, 0), (0, 0)], t=1)
    with pytest.raises(ValidationError):
        ExplicitKeySet([(0, 0), (1, 0, 0)], t=1)
    with pytest.raises(ValidationError):
        ExplicitKeySet([(0, 3)], t=2)
    with pytest.raises(ParameterError):
        ExplicitKeySet([], t=1)


KEY_SET_SIZES = {
    "reduced t=True": lambda: ReducedKeySet(3, True),
    "reduced t=2.0": lambda: ReducedKeySet(3, 2.0),
    "reduced length=3.0": lambda: ReducedKeySet(3.0, 2),
    "enumerate t=2.0": lambda: enumerate_reduced_keyset(3, 2.0),
    "explicit t=2.0": lambda: ExplicitKeySet([(0, 0, 0), (1, 2, 0)], 2.0),
    "explicit t=True": lambda: ExplicitKeySet([(0, 0, 0), (1, 0, 0)], True),
    "bijective t=2.0": lambda: bijective_keyset(3, 2.0),
    "bijective n=3.0": lambda: bijective_keyset(3.0, 2),
}


@pytest.mark.parametrize("case", sorted(KEY_SET_SIZES))
def test_key_set_sizes_must_be_integers(case: str) -> None:
    # Unchecked, t=True or t=2.0 builds a key set that carries it, and a
    # float reaches math.perm as an untyped TypeError.
    with pytest.raises(ParameterError, match="must be an integer, got"):
        KEY_SET_SIZES[case]()


KEY_ENTRIES_AND_INDICES = {
    "explicit entry 1.7": lambda: ExplicitKeySet([(0, 0), (1.7, 0)], t=1),
    "explicit entry True": lambda: ExplicitKeySet([(0, 0), (True, 0)], t=1),
    "bijective seed entry 1.9": lambda: bijective_keyset(3, 2, seed_list=[(0, 0, 0), (1.9, 2, 0)]),
    "reduced key(True)": lambda: ReducedKeySet(3, 2).key(True),
    "reduced key(1.5)": lambda: ReducedKeySet(3, 2).key(1.5),
    "reduced sparse_key(1.0)": lambda: ReducedKeySet(3, 2).sparse_key(1.0),
    "explicit key(True)": lambda: ExplicitKeySet([(0, 0), (1, 0)], t=1).key(True),
    "explicit key(1.0)": lambda: ExplicitKeySet([(0, 0), (1, 0)], t=1).key(1.0),
}


@pytest.mark.parametrize("case", sorted(KEY_ENTRIES_AND_INDICES))
def test_key_entries_and_indices_must_be_integers(case: str) -> None:
    # Unchecked, a float entry is truncated (1.7 -> 1), a bool index reads
    # key 1, and a float index ends in an untyped TypeError.
    with pytest.raises(ParameterError, match="must be an integer, got"):
        KEY_ENTRIES_AND_INDICES[case]()


def test_numpy_integer_key_entries_and_indices() -> None:
    explicit = ExplicitKeySet([(0, 0), (np.int64(1), np.int32(0))], t=1)
    assert explicit.key(np.int64(1)) == (1, 0)
    assert all(type(v) is int for v in explicit.key(1))
    reduced = ReducedKeySet(3, 2)
    assert reduced.key(np.int64(1)) == (0, 1, 2)
    assert reduced.sparse_key(np.uint8(1)) == reduced.sparse_key(1)


def test_token_distribution_basics() -> None:
    px = TokenDistribution.from_strings(["0.25", "0.6", "0.15"])
    assert px.n == 3
    assert px.probs == (Fraction(1, 4), Fraction(3, 5), Fraction(3, 20))
    assert px.sorted_probs == (Fraction(3, 20), Fraction(1, 4), Fraction(3, 5))
    assert px.sort_perm == (2, 0, 1)
    assert not px.is_sorted
    assert TokenDistribution.from_strings(["0.4", "0.6"]).is_sorted


def test_token_distribution_sort_is_stable() -> None:
    px = TokenDistribution.from_strings(["0.3", "0.2", "0.3", "0.2"])
    assert px.sort_perm == (1, 3, 0, 2)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from([1, 2, 3, 7, 43, 1806, 997, 10**6, 3**40])),
        min_size=1,
        max_size=12,
    ).filter(lambda ws: any(w for w, _ in ws))
)
def test_token_distribution_sort_perm_matches_fraction_sort(weights) -> None:
    # Tied entries, and denominators whose LCM is far wider than any one.
    masses = [Fraction(w, d) for w, d in weights]
    total = sum(masses)
    px = TokenDistribution.from_fractions(m / total for m in masses)
    assert px.sort_perm == tuple(sorted(range(px.n), key=px.probs.__getitem__))
    numerators, common = common_numerators(px.probs)
    assert px.scaled == (tuple(numerators), common)


def test_token_distribution_numerators_are_not_a_field() -> None:
    # probs is the one field: equality, hashing, repr and replace read it
    # alone, and a replaced distribution takes its own numerators.
    px = TokenDistribution.from_strings(["0.25", "0.6", "0.15"])
    same = TokenDistribution((Fraction(1, 4), Fraction(3, 5), Fraction(3, 20)))
    assert [f.name for f in dataclasses.fields(px)] == ["probs"]
    assert px == same and hash(px) == hash(same) == hash((px.probs,))
    assert repr(px) == "TokenDistribution(probs=(Fraction(1, 4), Fraction(3, 5), Fraction(3, 20)))"
    assert px.scaled == ((5, 12, 3), 20)
    other = dataclasses.replace(px, probs=(Fraction(1, 3), Fraction(2, 3)))
    assert other == TokenDistribution((Fraction(1, 3), Fraction(2, 3)))
    assert other.scaled == ((1, 2), 3)
    with pytest.raises(ValidationError, match="^probabilities sum to 9/10, not 1$"):
        dataclasses.replace(px, probs=(Fraction(1, 2), Fraction(2, 5)))


def test_token_distribution_validation() -> None:
    with pytest.raises(ValidationError, match="^probabilities sum to 9/10, not 1$"):
        TokenDistribution.from_strings(["0.5", "0.4"])
    with pytest.raises(ValidationError, match="^negative probability entry$"):
        TokenDistribution.from_strings(["-0.5", "1.5"])
    with pytest.raises(ValidationError, match="^empty distribution$"):
        TokenDistribution.from_strings([])
    # Unrelated denominators: the total is exact over their common one.
    sylvester = [Fraction(1, d) for d in (2, 3, 7, 43, 1806)]
    assert TokenDistribution.from_fractions(sylvester).n == 5
    excess = Fraction(1, 3**40 * 1806)
    with pytest.raises(ValidationError, match=f"^probabilities sum to {1 + excess}, not 1$"):
        TokenDistribution.from_fractions([*sylvester[:-1], sylvester[-1] + excess])


@settings(max_examples=50)
@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8).filter(
        lambda ws: sum(ws) > 0
    )
)
def test_token_distribution_sort_perm_property(weights: list[int]) -> None:
    total = sum(weights)
    px = TokenDistribution.from_fractions(Fraction(w, total) for w in weights)
    view = px.sorted_probs
    assert sorted(view) == list(view)
    assert sorted(px.sort_perm) == list(range(px.n))
    assert tuple(px.probs[i] for i in px.sort_perm) == view


def test_joint_table_accessors() -> None:
    # Rows given out of order; cells() still runs by key index, then token.
    table = JointTable(
        1,
        {
            3: {4: Fraction(3, 80), 2: Fraction(1, 20)},
            0: {4: Fraction(1, 10)},
        },
    )
    assert table.cell(3, 2) == Fraction(1, 20)
    assert table.cell(3, 1) == 0
    assert table.cell(9, 1) == 0
    assert row_sum(table, 3) == Fraction(7, 80)
    assert row_sum(table, 5) == 0
    assert column_sum(table, 4) == Fraction(1, 10) + Fraction(3, 80)
    assert table_mass(table) == Fraction(15, 80)
    assert table.key_support() == {0, 3}
    assert list(table.cells()) == [
        (0, 4, Fraction(1, 10)),
        (3, 2, Fraction(1, 20)),
        (3, 4, Fraction(3, 80)),
    ]


def test_joint_table_rejects_stored_zero() -> None:
    with pytest.raises(ValidationError):
        JointTable(1, {0: {1: Fraction(0)}})
    with pytest.raises(ValidationError):
        JointTable(0, {0: {1: Fraction(1)}})


def test_add_mass_drops_cancelled_cells() -> None:
    rows: dict[int, dict[int, Fraction]] = {}
    add_mass(rows, 2, 1, Fraction(1, 3))
    add_mass(rows, 2, 1, Fraction(1, 6))
    assert rows == {2: {1: Fraction(1, 2)}}
    add_mass(rows, 2, 1, Fraction(-1, 2))
    assert rows == {}
    add_mass(rows, 5, 2, Fraction(0))
    assert rows == {}


def test_add_mass_fresh_cells_cancellation_and_zero() -> None:
    rows: dict[int, dict[int, Fraction]] = {}
    mass = Fraction(2, 7)
    add_mass(rows, 4, 3, mass)
    assert rows[4][3] is mass
    add_mass(rows, 4, 1, Fraction(1, 7))
    add_mass(rows, 4, 3, Fraction(-2, 7))
    assert rows == {4: {1: Fraction(1, 7)}}
    add_mass(rows, 4, 1, Fraction(-1, 7))
    assert rows == {}
    add_mass(rows, 9, 2, Fraction(0))
    assert rows == {}
    add_mass(rows, 9, 2, Fraction(1, 3))
    add_mass(rows, 9, 2, Fraction(0))
    assert rows == {9: {2: Fraction(1, 3)}}


def test_merge_tables() -> None:
    part1 = JointTable(2, {0: {1: Fraction(1, 4)}})
    part2 = JointTable(2, {0: {1: Fraction(1, 4)}, 1: {2: Fraction(1, 2)}})
    merged = merge_tables(2, part1, part2)
    assert merged.cell(0, 1) == Fraction(1, 2)
    assert merged.cell(1, 2) == Fraction(1, 2)
    assert table_mass(merged) == 1
    with pytest.raises(ParameterError):
        merge_tables(1, part1)


def test_merge_tables_leaves_shared_rows_of_its_parts_unchanged() -> None:
    # Key 0 is in both parts and its token-1 cell cancels; key 7 cancels
    # away entirely, and the part that holds it next must not be written to
    # when the part after that adds to it.
    parts = [
        JointTable(1, {0: {1: Fraction(1, 4), 2: Fraction(1, 8)}, 3: {2: Fraction(1, 2)}}),
        JointTable(1, {0: {1: Fraction(-1, 4)}, 5: {1: Fraction(1, 8)}}),
        JointTable(1, {7: {1: Fraction(1, 3)}}),
        JointTable(1, {7: {1: Fraction(-1, 3)}}),
        JointTable(1, {7: {2: Fraction(1, 5)}}),
        JointTable(1, {7: {2: Fraction(1, 5)}, 9: {}}),
    ]
    before = [{k: dict(row) for k, row in part.rows.items()} for part in parts]
    merged = merge_tables(1, *parts)
    assert [part.rows for part in parts] == before
    assert merged.rows == {
        0: {2: Fraction(1, 8)},
        3: {2: Fraction(1, 2)},
        5: {1: Fraction(1, 8)},
        7: {2: Fraction(2, 5)},
    }
    assert all(row is not part.rows.get(k) for part in parts for k, row in merged.rows.items())
    assert_same_rows(merged, reference_merge_tables(1, *parts))


def assert_same_rows(table: JointTable, reference: JointTable) -> None:
    """The same cells, in the same key and token order."""
    ordered = [(k, list(row.items())) for k, row in table.rows.items()]
    assert ordered == [(k, list(row.items())) for k, row in reference.rows.items()]


masses = st.fractions(min_value=-1, max_value=1, max_denominator=4)
part_rows = st.dictionaries(
    st.integers(0, 6), st.dictionaries(st.integers(1, 4), masses, max_size=3), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(st.lists(part_rows, max_size=4))
def test_merge_tables_matches_the_reference(rows_of_parts) -> None:
    # Cells that cancel, rows that empty and keys held by several parts
    # merge to the reference's cells in its key and token order, with no
    # part changed and no part's row aliased.
    parts = [
        JointTable(2, {k: {x: v for x, v in row.items() if v} for k, row in rows.items()})
        for rows in rows_of_parts
    ]
    before = [{k: dict(row) for k, row in part.rows.items()} for part in parts]
    merged = merge_tables(2, *parts)
    assert_same_rows(merged, reference_merge_tables(2, *parts))
    assert [part.rows for part in parts] == before
    assert all(row is not part.rows.get(k) for part in parts for k, row in merged.rows.items())


@pytest.mark.parametrize("bad", [0, 3])
def test_scheme_rejects_tokens_outside_range(bad: int) -> None:
    # Unchecked, a cell on token 0 counts as token 2 in the column sums, and
    # one on token 3 ends in an IndexError inside check_scheme.
    px = TokenDistribution.from_strings(["0.5", "0.5"])
    keyset = ReducedKeySet(3, 1)
    good = JointTable(1, {0: {1: Fraction(1, 2), 2: Fraction(1, 2)}})
    assert WatermarkScheme.assemble(Fraction(1, 2), px, keyset, [good]).n == 2
    table = JointTable(1, {0: {1: Fraction(1, 2), bad: Fraction(1, 2)}})
    with pytest.raises(ValidationError, match=rf"m=1: token {bad} outside \[1:2\]"):
        WatermarkScheme.assemble(Fraction(1, 2), px, keyset, [table])


PX_3 = TokenDistribution.from_strings(["0.2", "0.3", "0.5"])
FLOAT_ENTRY_POINTS = {
    "exact_rational": lambda v: exact_rational(v),
    "from_fractions": lambda v: TokenDistribution.from_fractions([v, Fraction(1, 2)]),
    "TokenDistribution": lambda v: TokenDistribution((v, Fraction(1, 2))),
    "split_px": lambda v: split_px(PX_3, v, 2),
    "cap_vector": lambda v: cap_vector(PX_3, v, 2),
    "extend_px": lambda v: extend_px(PX_3, v, 2),
    "decompose_t_hot": lambda v: decompose_t_hot([v, Fraction(1, 2)], 1),
    "is_t_hot_representable": lambda v: is_t_hot_representable([v, Fraction(1, 2)], 1),
    "assemble": lambda v: WatermarkScheme.assemble(
        v, TokenDistribution.from_strings(["1"]), ExplicitKeySet([(0,), (1,)], t=1),
        [JointTable(1, {1: {1: Fraction(1)}})],
    ),
    "optimal_value": lambda v: optimal_value(PX_3, v, 2),
    "build_primal": lambda v: build_primal(PX_3, v, 2, ReducedKeySet(3, 2)),
    "construct_a": lambda v: construct_a(PX_3, v, 2),
    "construct_b": lambda v: construct_b(PX_3, v, 2),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRY_POINTS))
def test_float_inputs_rejected(entry: str) -> None:
    # 0.5 and 0.1 as floats would pass through Fraction() unnoticed, the
    # latter as 3602879701896397/36028797018963968.
    call = FLOAT_ENTRY_POINTS[entry]
    for value in (0.5, 0.1, True):
        with pytest.raises(ParameterError, match="int or a Fraction"):
            call(value)
    call(Fraction(1, 2))


T_ENTRY_POINTS = {
    "construct_a": lambda t: construct_a(PX_3, Fraction(1, 2), t),
    "construct_b": lambda t: construct_b(PX_3, Fraction(1, 2), t),
    "optimal_value": lambda t: optimal_value(PX_3, Fraction(1, 2), t),
    "split_px": lambda t: split_px(PX_3, Fraction(1, 2), t),
    "build_primal": lambda t: build_primal(PX_3, Fraction(1, 2), t, ReducedKeySet(3, 2)),
}


@pytest.mark.parametrize("entry", sorted(T_ENTRY_POINTS))
@pytest.mark.parametrize("t", [2.0, True, "2"], ids=repr)
def test_non_integer_t_rejected(entry: str, t: object) -> None:
    # Unchecked, True builds a one-message scheme, and 2.0 or "2" ends in an
    # untyped TypeError.
    with pytest.raises(ParameterError, match=f"t must be an integer, got {type(t).__name__}"):
        T_ENTRY_POINTS[entry](t)


def test_px_must_be_a_token_distribution() -> None:
    # Unchecked, a bare tuple of masses ends in an untyped AttributeError.
    message = "px must be a TokenDistribution, got tuple"
    for call in (construct_a, construct_b, optimal_value, split_px):
        with pytest.raises(ParameterError, match=message):
            call(PX_3.probs, Fraction(1, 2), 2)
    with pytest.raises(ParameterError, match=message):
        build_primal(PX_3.probs, Fraction(1, 2), 2, ReducedKeySet(3, 2))


@pytest.mark.parametrize("build", [construct_a, construct_b])
def test_numpy_integer_t_builds_the_same_document(build) -> None:
    # Unsorted, so the token reordering runs too.  json.dumps refuses a
    # numpy integer, so a T that leaked into the document would show here.
    px = TokenDistribution.from_strings(["0.25", "0.05", "0.6", "0.1"])
    expected = json.dumps(serialize_scheme(build(px, Fraction(9, 10), 3)))
    assert json.dumps(serialize_scheme(build(px, Fraction(9, 10), np.int64(3)))) == expected
