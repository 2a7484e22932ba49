import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keymark.core import TokenDistribution
from keymark.errors import ParameterError
from keymark.split import cap_vector, split_px
from keymark.thot import is_t_hot_representable

PX_A = TokenDistribution.from_strings(["0.05", "0.1", "0.25", "0.6"])


def test_cap_vector() -> None:
    a, r = cap_vector(PX_A, F(9, 10), 3)
    assert a == (F(1, 20), F(1, 10), F(1, 4), F(3, 10))
    assert r == (F(0), F(0), F(0), F(3, 10))


def test_split_leveling_case() -> None:
    split = split_px(PX_A, F(9, 10), 3)
    assert split.px1 == (F(1, 20), F(1, 10), F(3, 20), F(3, 20))
    assert split.px2 == (F(0), F(0), F(1, 10), F(3, 20))
    assert split.px3 == (F(0), F(0), F(0), F(3, 10))
    assert split.K == 2
    assert split.K_tilde == 1
    assert split.y == F(3, 20)
    # Leveled base sits exactly on the representability boundary.
    assert 3 * max(split.px1) == sum(split.px1)


def test_split_trivial_case_at_boundary() -> None:
    px = TokenDistribution.from_strings(["0.1", "0.3", "0.6"])
    split = split_px(px, F(4, 5), 2)
    assert split.px1 == (F(1, 10), F(3, 10), F(2, 5))
    assert split.px2 == (F(0), F(0), F(0))
    assert split.px3 == (F(0), F(0), F(1, 5))
    assert split.K == 0
    assert split.y is None


def test_split_leveling_starts_at_k_tilde() -> None:
    px = TokenDistribution.from_strings(["0.05", "0.05", "0.45", "0.45"])
    split = split_px(px, F(9, 10), 3)
    assert split.K == split.K_tilde == 2
    assert split.y == F(1, 10)
    assert split.px1 == (F(1, 20), F(1, 20), F(1, 10), F(1, 10))
    assert split.px2 == (F(0), F(0), F(1, 5), F(1, 5))
    assert split.px3 == (F(0), F(0), F(3, 20), F(3, 20))


def test_split_alpha_zero() -> None:
    px = TokenDistribution.from_strings(["0.5", "0.5"])
    split = split_px(px, F(0), 2)
    assert split.px1 == (F(0), F(0))
    assert split.px3 == px.probs


def test_split_input_validation() -> None:
    unsorted = TokenDistribution.from_strings(["0.6", "0.4"])
    with pytest.raises(ParameterError):
        split_px(unsorted, F(1, 2), 1)
    sorted_px = TokenDistribution.from_strings(["0.4", "0.6"])
    with pytest.raises(ParameterError):
        split_px(sorted_px, F(1), 1)
    with pytest.raises(ParameterError):
        split_px(sorted_px, F(1, 2), 3)


@st.composite
def sorted_instances(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    weights = sorted(
        draw(st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n).filter(sum))
    )
    total = sum(weights)
    px = TokenDistribution.from_fractions(F(w, total) for w in weights)
    t = draw(st.integers(min_value=1, max_value=n))
    alpha = F(draw(st.integers(min_value=0, max_value=99)), 100)
    return px, alpha, t


@settings(max_examples=400, deadline=None)
@given(sorted_instances())
def test_split_invariants(case) -> None:
    px, alpha, t = case
    split = split_px(px, alpha, t)
    n = px.n
    cap = F(alpha, t)

    recombined = tuple(
        p1 + p2 + p3 for p1, p2, p3 in zip(split.px1, split.px2, split.px3)
    )
    assert recombined == px.probs
    assert split.a == tuple(min(cap, p) for p in px.probs)
    assert split.px3 == tuple(p - v for p, v in zip(px.probs, split.a))
    assert is_t_hot_representable(split.px1, t)
    assert all(v >= 0 for v in split.px1 + split.px2 + split.px3)

    positives = [i for i, v in enumerate(split.px2) if v > 0]
    assert len(positives) == split.K
    assert split.K <= t - 1
    if split.y is None:
        assert split.K == 0
        assert is_t_hot_representable(split.a, t)
    else:
        assert split.K_tilde <= split.K <= t - 1
        assert t * max(split.px1) == sum(split.px1)
        # The tail of px1 is level at y and px2 fills back up to a.
        assert split.px1[n - split.K :] == (split.y,) * split.K
        assert all(split.px2[i] == split.a[i] - split.y for i in range(n - split.K, n))


def test_overshoot_lies_inside_the_leveled_tail() -> None:
    """When the split levels (K > 0), px3 is positive only where px2 is: the
    scan starts at K_tilde, so the K_tilde tokens at or above alpha/T, which
    hold all of px3, are among the last K.  Construction A's windowed
    anchored keys rest on this."""
    rng = random.Random(23)
    leveled = 0
    for _ in range(800):
        t = rng.randint(2, 5)
        n = rng.randint(t, 10)
        heavy = rng.randint(0, t - 1)
        weights = [rng.randint(1, 10) for _ in range(n - heavy)]
        weights += [rng.randint(20, 300) for _ in range(heavy)]
        px = TokenDistribution.from_fractions(sorted(F(w, sum(weights)) for w in weights))
        split = split_px(px, F(rng.randint(1, 99), 100), t)
        if split.K:
            leveled += 1
            assert split.K >= split.K_tilde
            assert all(p2 > 0 for p2, p3 in zip(split.px2, split.px3) if p3 > 0)
    assert leveled >= 200
