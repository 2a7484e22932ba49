from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_reference import reference_decompose_t_hot
from test_metrics import PRIMES
from keymark.core import TokenDistribution
from keymark.errors import ParameterError
from keymark.split import split_px
from keymark.thot import THotDecomposition, THotTerm, decompose_t_hot, is_t_hot_representable


def test_representability_rule() -> None:
    assert is_t_hot_representable([F(1, 20), F(1, 10), F(3, 20), F(3, 20)], 3)
    assert not is_t_hot_representable([F(1, 20), F(1, 10), F(3, 20), F(3, 10)], 3)
    # Boundary: t * max == sum counts as representable.
    assert is_t_hot_representable([F(1, 4), F(1, 4), F(1, 2)], 2)
    assert is_t_hot_representable([F(0), F(0), F(1, 2)], 1)
    assert is_t_hot_representable([F(0)], 1)


def test_representability_input_validation() -> None:
    with pytest.raises(ParameterError):
        is_t_hot_representable([], 1)
    with pytest.raises(ParameterError):
        is_t_hot_representable([F(1, 2)], 2)
    with pytest.raises(ParameterError):
        is_t_hot_representable([F(-1, 2), F(1, 2)], 1)
    with pytest.raises(ParameterError):
        decompose_t_hot([F(1, 20), F(1, 10), F(3, 20), F(3, 10)], 3)


def test_worked_greedy_trace_t3() -> None:
    # (0.05, 0.1, 0.15, 0.15) -> 0.1 on {2,3,4}, then 0.05 on {1,3,4}.
    a = [F(1, 20), F(1, 10), F(3, 20), F(3, 20)]
    decomp = decompose_t_hot(a, 3)
    assert decomp.terms == (
        THotTerm((1, 2, 3), F(1, 10)),
        THotTerm((0, 2, 3), F(1, 20)),
    )
    assert decomp.reconstruct() == tuple(a)


def test_worked_greedy_trace_t2() -> None:
    # (0.1, 0.3, 0.4, 0.2): support {2,3} first, weight capped by entry 2.
    a = [F(1, 10), F(3, 10), F(2, 5), F(1, 5)]
    decomp = decompose_t_hot(a, 2)
    assert decomp.terms == (
        THotTerm((1, 2), F(3, 10)),
        THotTerm((0, 3), F(1, 10)),
        THotTerm((2, 3), F(1, 10)),
    )
    assert decomp.reconstruct() == tuple(a)


def test_boundary_vector_single_term() -> None:
    a = [F(1, 4), F(1, 4), F(1, 2)]
    # t=2 boundary: weight is capped by the outer entry at index 0 or 1.
    decomp = decompose_t_hot(a, 2)
    assert decomp.reconstruct() == tuple(a)
    assert len(decomp.terms) <= 3


def test_zero_vector_decomposes_to_nothing() -> None:
    decomp = decompose_t_hot([F(0), F(0)], 1)
    assert decomp.terms == ()
    assert decomp.reconstruct() == (F(0), F(0))


def test_t_equals_length() -> None:
    a = [F(1, 3), F(1, 3), F(1, 3)]
    decomp = decompose_t_hot(a, 3)
    assert decomp.terms == (THotTerm((0, 1, 2), F(1, 3)),)


def test_t_equals_one() -> None:
    a = [F(2, 5), F(3, 5)]
    decomp = decompose_t_hot(a, 1)
    assert decomp.reconstruct() == tuple(a)
    for term in decomp.terms:
        assert len(term.support) == 1


@st.composite
def representable_vectors(draw):
    """Sums of random T-hot terms, which are representable by construction."""
    length = draw(st.integers(min_value=1, max_value=8))
    t = draw(st.integers(min_value=1, max_value=length))
    values = [F(0)] * length
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        support = draw(st.permutations(range(length)))[:t]
        weight = F(draw(st.integers(min_value=1, max_value=40)), 120)
        for i in support:
            values[i] += weight
    return values, t


@settings(max_examples=300, deadline=None)
@given(representable_vectors())
def test_greedy_reconstructs_exactly(case) -> None:
    values, t = case
    assert is_t_hot_representable(values, t)
    decomp = decompose_t_hot(values, t)
    assert decomp.length == len(values)
    assert decomp.reconstruct() == tuple(values)
    assert len(decomp.terms) <= len(values)
    for term in decomp.terms:
        assert term.weight > 0
        assert len(term.support) == t
        assert list(term.support) == sorted(set(term.support) & set(range(len(values))))


@settings(max_examples=200, deadline=None)
@given(representable_vectors())
def test_first_term_keeps_representability(case) -> None:
    values, t = case
    decomp = decompose_t_hot(values, t)
    residual = list(values)
    for term in decomp.terms:
        for i in term.support:
            residual[i] -= term.weight
        assert all(v >= 0 for v in residual)
        assert t * max(residual) <= sum(residual)
    assert sum(residual) == 0


def reference_decompose(a, t):
    """The quadratic greedy: re-sorts, re-sums and rescans every round."""
    residual = [F(v) for v in a]
    length = len(residual)
    if t * max(residual) > sum(residual):
        raise ParameterError("not representable")

    def saturated(v):
        s = sum(v)
        return frozenset(i for i in range(length) if v[i] == 0 or t * v[i] == s)

    terms = []
    frozen = saturated(residual)
    for _ in range(length + 1):
        total = sum(residual)
        if total == 0:
            break
        support = sorted(range(length), key=lambda i: (-residual[i], i))[:t]
        inner = min(t * residual[j] for j in support)
        outer = min(
            (total - t * residual[j] for j in range(length) if j not in support),
            default=inner,
        )
        weight = F(min(inner, outer), t)
        assert weight > 0
        terms.append(THotTerm(tuple(sorted(support)), weight))
        for j in support:
            residual[j] -= weight
        assert all(v >= 0 for v in residual)
        assert t * max(residual) <= sum(residual)
        grown = saturated(residual)
        assert sum(residual) == 0 or frozen < grown
        frozen = grown
    else:
        raise AssertionError("no termination")
    return THotDecomposition(tuple(terms), length)


@st.composite
def tied_vectors(draw):
    """Length <= 40 vectors with ties and zeros: T-hot sums, raw small
    numerators, or either with one entry lifted to the boundary T*max == sum."""
    length = draw(st.integers(min_value=1, max_value=40))
    t = draw(st.integers(min_value=1, max_value=length))
    if draw(st.booleans()):
        values = [F(0)] * length
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            support = draw(st.permutations(range(length)))[:t]
            weight = F(draw(st.integers(min_value=1, max_value=6)), 12)
            for i in support:
                values[i] += weight
    else:
        values = [F(v, 6) for v in draw(st.lists(st.integers(0, 4), min_size=length, max_size=length))]
    if t > 1 and draw(st.booleans()):
        top = max(range(length), key=lambda i: values[i])
        values[top] = F(sum(values) - values[top], t - 1)
    return values, t


@settings(max_examples=400, deadline=None)
@given(tied_vectors())
def test_matches_quadratic_reference(case) -> None:
    values, t = case
    if t * max(values) > sum(values):
        with pytest.raises(ParameterError):
            reference_decompose(values, t)
        with pytest.raises(ParameterError):
            decompose_t_hot(values, t)
        return
    assert decompose_t_hot(values, t) == reference_decompose(values, t)


@st.composite
def wide_vectors(draw):
    """Vectors over pairwise-coprime denominators, with ties and zeros:
    either sums of T-hot terms or entries from a small pool, and either
    possibly with its largest entry lifted to the boundary T*v == sum(v);
    t is 1, len(a) or any value in between."""
    length = draw(st.integers(min_value=1, max_value=14))
    t = draw(st.sampled_from([1, length, draw(st.integers(min_value=1, max_value=length))]))
    masses = st.builds(F, st.integers(min_value=1, max_value=60), st.sampled_from(PRIMES))
    if draw(st.booleans()):
        values = [F(0)] * length
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            weight = draw(masses)
            for i in draw(st.permutations(range(length)))[:t]:
                values[i] += weight
    else:
        pool = [F(0), *draw(st.lists(masses, min_size=1, max_size=3))]
        values = draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
    if t > 1 and draw(st.booleans()):
        top = max(range(length), key=values.__getitem__)
        values[top] = F(sum(values) - values[top], t - 1)
    return values, t


@settings(max_examples=500, deadline=None)
@given(wide_vectors())
def test_matches_fraction_greedy_term_for_term(case) -> None:
    values, t = case
    try:
        expected = reference_decompose_t_hot(values, t)
    except ParameterError as refused:
        assert not is_t_hot_representable(values, t)
        with pytest.raises(ParameterError) as raised:
            decompose_t_hot(values, t)
        assert str(raised.value) == str(refused)
        return
    assert is_t_hot_representable(values, t)
    assert decompose_t_hot(values, t) == expected


def test_reconstructs_zipf_px1_at_4096_tokens() -> None:
    length, grid = 4096, 10**6
    harmonic = sum(F(1, i) for i in range(1, length + 1))
    units = [max(1, int(F(grid, i) / harmonic)) for i in range(1, length + 1)]
    units[0] += grid - sum(units)
    px = TokenDistribution.from_fractions(sorted(F(u, grid) for u in units))
    px1 = split_px(px, F(1, 2), 3).px1
    decomp = decompose_t_hot(px1, 3)
    assert decomp.reconstruct() == px1
    assert len(decomp.terms) <= length
    assert all(term.weight > 0 and len(term.support) == 3 for term in decomp.terms)
