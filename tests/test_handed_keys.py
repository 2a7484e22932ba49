"""The constructions hand the sparse keys they list to the scheme.

A built scheme's decoded view takes those keys instead of unranking each
support key, so each handed key must be the reduced key set's own key at
its index, and the view must equal, field by field, the one that a loaded
copy of the scheme builds by unranking.  A handed map may lack support
keys, hold other indices or list them in any order: the view unranks the
keys it lacks.
"""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_construct_a import assert_window_family
from test_output_digests import ALPHA, INSTANCES, T
from keymark.construct_a import KeyListing, _anchored_tails, _structural_pairs, construct_a
from keymark.construct_b import construct_b, extend_px
from keymark.core import JointTable, ReducedKeySet, TokenDistribution, WatermarkScheme
from keymark.serialize import deserialize_scheme, serialize_scheme
from keymark.split import split_px
from keymark.thot import THotDecomposition, THotTerm, decompose_t_hot


def halved_terms(px: TokenDistribution, alpha: F, t: int) -> THotDecomposition:
    """The greedy terms of construct_b's extended vector, each split into two
    halves and listed in reverse: a supplied decomposition (as `--term`
    gives one) in which every support appears twice."""
    ext = extend_px(TokenDistribution(px.sorted_probs), alpha, t)
    terms = decompose_t_hot(ext.px_prime, t).terms
    return THotDecomposition(
        tuple(THotTerm(term.support, term.weight / 2) for term in reversed(terms) for _ in range(2)),
        len(ext.px_prime),
    )


def builds(px: TokenDistribution, alpha: F, t: int):
    return {
        "a": construct_a(px, alpha, t),
        "b": construct_b(px, alpha, t),
        "b pseudo": construct_b(px, alpha, t, force_pseudo=True),
        "b terms": construct_b(px, alpha, t, decomposition=halved_terms(px, alpha, t)),
    }


def assert_same_view(scheme, loaded) -> None:
    built, unranked = scheme.decoded, loaded.decoded
    for field in dataclasses.fields(built):
        assert getattr(built, field.name) == getattr(unranked, field.name), field.name


def assert_handed_keys(scheme) -> None:
    keys = scheme.sparse_keys
    assert keys is not None
    assert scheme.key_support() <= set(keys)
    for idx, pairs in keys.items():
        assert pairs == scheme.keyset.sparse_key(idx)
    # Each distinct (position, value) pair is one shared tuple.
    pairs = [pair for key in keys.values() for pair in key]
    assert len({id(pair) for pair in pairs}) == len(set(pairs))
    loaded = deserialize_scheme(json.loads(json.dumps(serialize_scheme(scheme))))
    assert loaded.sparse_keys is None
    assert (loaded.tables, loaded.pz) == (scheme.tables, scheme.pz)
    for idx, pairs in scheme.decoded.keys.items():
        assert pairs is keys[idx]
    assert_same_view(scheme, loaded)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_handed_keys_on_digest_instances(name: str) -> None:
    for scheme in builds(INSTANCES[name][0], ALPHA, T).values():
        assert_handed_keys(scheme)


@st.composite
def leveled_instances(draw):
    """A shuffled px with 1 to T-1 heavy tokens, N <= 9 and T <= 5, whose
    split levels at least one token (K >= 1)."""
    t = draw(st.integers(2, 5))
    n = draw(st.integers(t, 9))
    heavy = draw(st.integers(1, t - 1))
    weights = draw(st.lists(st.integers(1, 10), min_size=n - heavy, max_size=n - heavy))
    weights += draw(st.lists(st.integers(20, 300), min_size=heavy, max_size=heavy))
    weights = draw(st.permutations(weights))
    px = TokenDistribution.from_fractions(F(w, sum(weights)) for w in weights)
    alpha = F(draw(st.integers(20, 99)), 100)
    assume(split_px(TokenDistribution(px.sorted_probs), alpha, t).K >= 1)
    return px, alpha, t


@settings(max_examples=20, deadline=None, derandomize=True)
@given(leveled_instances())
def test_handed_keys_on_leveled_instances(case) -> None:
    for scheme in builds(*case).values():
        assert_handed_keys(scheme)


@pytest.mark.parametrize(
    "length, t, anchors",
    [
        (5, 2, [2]),
        (6, 3, [0]),
        (6, 3, [5]),
        (7, 4, [1, 4]),
        (8, 4, [0, 7]),
        (8, 5, [0, 3, 6]),
        (9, 3, [4]),
    ],
)
def test_unchecked_rank_of_anchored_keys(length: int, t: int, anchors: list[int]) -> None:
    """Every anchored key, at any anchors and in any order of the free
    positions, ranks by unchecked_index to its sparse_index, with its
    entries at the anchors as the tail.  The listing is the cyclic window
    family in that order, among the keys nonzero at all anchors, and all of
    them at T-K = 1."""
    keyset = ReducedKeySet(length, t)
    listing = KeyListing(keyset)
    order = list(range(length))
    random.Random(10 * length + t).shuffle(order)
    anchored = _anchored_tails(keyset, anchors, order, listing)
    k = len(anchors)
    listed = [(idx, tail) for tail, members in anchored for idx in members]
    assert len(listed) == len(listing.keys) == math.perm(t, k) * (length - k)
    assert len(anchored) == math.perm(t, k)
    for idx, tail in listed:
        key = listing.keys[idx]
        assert keyset.unchecked_index(key) == keyset.sparse_index(key) == idx
        assert keyset.sparse_key(idx) == key
        assert tail == tuple(dict(key)[a] for a in anchors)
    free = [pos for pos in order if pos not in anchors]
    for tail, members in anchored:
        rest = [v for v in range(1, t + 1) if v not in tail]
        for shift, idx in enumerate(members):
            window = {free[(shift + j) % len(free)]: v for j, v in enumerate(rest)}
            assert dict(listing.keys[idx]) == window | dict(zip(anchors, tail))
    classes = {tail: [keyset.key(idx) for idx in members] for tail, members in anchored}
    assert_window_family(classes, anchors, length, t)
    nonzero = {
        idx
        for idx in range(keyset.size)
        if set(anchors) <= {pos for pos, _ in keyset.sparse_key(idx)}
    }
    assert {idx for idx, _ in listed} <= nonzero
    assert ({idx for idx, _ in listed} == nonzero) == (t - k == 1)


@pytest.mark.parametrize("n, pseudo", [(4, 0), (7, 0), (5, 3), (6, 2), (3, 6)])
def test_unchecked_rank_of_structural_keys(n: int, pseudo: int) -> None:
    """Every structural key of a random T-position support ranks by
    unchecked_index to its sparse_index and unranks back to itself, also on
    keys longer than the n real tokens, as construct_b's pseudo slots make
    them."""
    rng = random.Random(10 * n + pseudo)
    length = n + pseudo
    reached_pseudo = 0
    for t in range(1, min(length, 5) + 1):
        keyset = ReducedKeySet(length, t)
        for _ in range(8):
            support = sorted(rng.sample(range(length), t))
            reached_pseudo += max(support) >= n
            listing = KeyListing(keyset)
            pairs = _structural_pairs(keyset, support, listing)
            assert len({idx for idx, _ in pairs}) == len(pairs) == math.factorial(t)
            assert listing.keys == dict(pairs)
            for idx, key in pairs:
                assert [pos for pos, _ in key] == support
                assert keyset.unchecked_index(key) == keyset.sparse_index(key) == idx
                assert keyset.sparse_key(idx) == key
    assert reached_pseudo > 0 if pseudo else reached_pseudo == 0


def counted_unranks(monkeypatch) -> list[int]:
    """The indices ReducedKeySet.sparse_key unranks from here on."""
    unranked = []
    sparse_key = ReducedKeySet.sparse_key

    def counted(self, idx):
        unranked.append(idx)
        return sparse_key(self, idx)

    monkeypatch.setattr(ReducedKeySet, "sparse_key", counted)
    return unranked


def test_handed_map_may_lack_extra_or_reorder_keys(monkeypatch) -> None:
    """A map that lacks support keys, holds extra indices or runs in reverse,
    handed through assemble, gives the loaded scheme's view, and the view
    unranks each key it lacks exactly once."""
    scheme = construct_a(INSTANCES["one-heavy-12"][0], ALPHA, T)
    loaded = deserialize_scheme(serialize_scheme(scheme))
    loaded.decoded  # its unranks are not counted below
    keys = dict(scheme.sparse_keys)
    support = scheme.key_support()
    kept = dict(itertools.islice(keys.items(), 0, None, 2))
    extra = itertools.islice((idx for idx in itertools.count(1) if idx not in keys), 3)
    handed = {
        "missing keys": (kept, support - set(kept)),
        "extra keys": ({**keys, **{idx: scheme.keyset.sparse_key(idx) for idx in extra}}, set()),
        "reverse order": (dict(reversed(keys.items())), set()),
    }
    assert handed["missing keys"][1]
    unranked = counted_unranks(monkeypatch)
    for name, (sparse_keys, missing) in handed.items():
        unranked.clear()
        rebuilt = WatermarkScheme.assemble(
            scheme.alpha, scheme.px, scheme.keyset, scheme.tables, scheme.provenance, sparse_keys
        )
        assert_same_view(rebuilt, loaded)
        assert sorted(unranked) == sorted(missing), name
    # The map takes no part in == or repr; replace() drops it.
    plain = dataclasses.replace(scheme)
    assert plain.sparse_keys is None
    assert plain == scheme and repr(plain) == repr(scheme)
    assert "sparse_keys" not in repr(scheme)


def test_replaced_scheme_unranks_its_keys(monkeypatch) -> None:
    """dataclasses.replace builds a scheme with no handed keys: with new
    tables it gives the loaded scheme's view and unranks every support key
    once, so a replaced table can never be read through stale keys."""
    scheme = construct_a(INSTANCES["one-heavy-12"][0], ALPHA, T)
    loaded = deserialize_scheme(serialize_scheme(scheme))
    loaded.decoded
    unranked = counted_unranks(monkeypatch)
    tables = tuple(JointTable(table.m, table.rows) for table in scheme.tables)
    replaced = dataclasses.replace(scheme, tables=tables)
    assert replaced.sparse_keys is None
    assert_same_view(replaced, loaded)
    assert sorted(unranked) == sorted(scheme.key_support())


def test_replace_cannot_hand_keys() -> None:
    scheme = construct_a(INSTANCES["one-heavy-12"][0], ALPHA, T)
    with pytest.raises(ValueError, match="sparse_keys"):
        dataclasses.replace(scheme, sparse_keys=scheme.sparse_keys)
    with pytest.raises(TypeError):
        WatermarkScheme(scheme.alpha, scheme.px, scheme.keyset, scheme.tables, {}, scheme.sparse_keys)
