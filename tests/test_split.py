import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_reference import (
    reference_cap_vector,
    reference_extend_px,
    reference_optimal_value,
    reference_split_px,
)
from keymark.construct_b import extend_px
from keymark.core import ENUMERATION_CAP, TokenDistribution
from keymark.errors import CapacityError, ParameterError
from keymark.metrics import optimal_value
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


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ParameterError, CapacityError) as exc:
        return type(exc), str(exc)


@st.composite
def reference_instances(draw):
    """Sorted px of at most 12 tokens whose weights come from a few
    numerators over unrelated denominators, so ties and several
    denominators meet; alpha from a fixed set and a forced flag."""
    n = draw(st.integers(min_value=1, max_value=12))
    weight = st.builds(F, st.integers(0, 9), st.sampled_from([1, 2, 3, 7, 16, 99]))
    weights = draw(st.lists(weight, min_size=n, max_size=n).filter(any))
    total = sum(weights)
    px = TokenDistribution.from_fractions(sorted(w / total for w in weights))
    t = draw(st.integers(min_value=1, max_value=n))
    alpha = draw(st.sampled_from([F(0), F(1, 10**4), F(1, 2), F(99, 100)]))
    return px, alpha, t, draw(st.booleans())


def assert_matches_reference(px, alpha, t, force) -> tuple[int, str]:
    """The cap, split, optimum and extension equal the Fraction reference
    field for field; returns the split's K and the extension's path."""
    assert cap_vector(px, alpha, t) == reference_cap_vector(px, alpha, t)
    split = split_px(px, alpha, t)
    assert split == reference_split_px(px, alpha, t)
    assert optimal_value(px, alpha, t) == reference_optimal_value(px, alpha, t)
    ext = outcome(extend_px, px, alpha, t, force)
    if isinstance(ext, tuple) and ext[0] is CapacityError:
        # The reference would list every pseudo entry: check the count instead.
        a, r = reference_cap_vector(px, alpha, t)
        n = -(-sum(r) // a[-1])
        assert t * (px.n + n) > ENUMERATION_CAP and f"{n} pseudo tokens" in ext[1]
        return split.K, "capped"
    assert ext == outcome(reference_extend_px, px, alpha, t, force)
    if isinstance(ext, tuple):
        return split.K, "refused"
    if ext.R == 0:
        return split.K, "no leftover"
    if ext.n == 0:
        return split.K, "representable"
    return split.K, "forced" if force and extend_px(px, alpha, t).n == 0 else "pseudo"


@settings(max_examples=80, deadline=None)
@given(reference_instances())
def test_int_path_matches_the_fraction_reference(case) -> None:
    assert_matches_reference(*case)


def test_reference_draws_reach_every_path() -> None:
    """A seeded sweep over the same kind of instance reaches every K from 0
    to T-1 at T = 4, and the pseudo, forced, zero-leftover and refused
    paths, each matching the reference.  alpha = 1/10^4 is left to the
    Hypothesis draws: its pseudo path has about T * 10^4 entries, which the
    reference sums one Fraction at a time."""
    rng = random.Random(33)
    seen = set()
    for _ in range(500):
        n = rng.randint(1, 12)
        weights = [F(rng.randint(0, 9), rng.choice([1, 2, 3, 7, 16, 99])) for _ in range(n)]
        if not any(weights):
            continue
        px = TokenDistribution.from_fractions(sorted(w / sum(weights) for w in weights))
        t = rng.randint(1, n)
        alpha = rng.choice([F(0), F(1, 2), F(99, 100)])
        k, path = assert_matches_reference(px, alpha, t, rng.random() < 0.5)
        seen.add(path)
        if t == 4:
            seen.add(("K", k))
    assert {("K", k) for k in range(4)} <= seen
    assert {"pseudo", "forced", "no leftover", "representable", "refused"} <= seen


def test_int_path_raises_like_the_reference() -> None:
    unsorted = TokenDistribution.from_strings(["0.6", "0.4"])
    sorted_px = TokenDistribution.from_strings(["0.4", "0.6"])
    cases = [
        (cap_vector, reference_cap_vector, (unsorted, F(1, 2), 1)),
        (split_px, reference_split_px, (unsorted, F(1, 2), 1)),
        (extend_px, reference_extend_px, (unsorted, F(1, 2), 1)),
        (extend_px, reference_extend_px, (sorted_px, F(0), 1, True)),
    ]
    for t in (0, 3):
        cases += [
            (cap_vector, reference_cap_vector, (sorted_px, F(1, 2), t)),
            (split_px, reference_split_px, (sorted_px, F(1, 2), t)),
            (extend_px, reference_extend_px, (sorted_px, F(1, 2), t)),
            (optimal_value, reference_optimal_value, (unsorted, F(1, 2), t)),
        ]
    for fn, reference, args in cases:
        raised = outcome(fn, *args)
        assert isinstance(raised, tuple) and raised[0] is ParameterError, (fn, args)
        assert raised == outcome(reference, *args)


def test_int_path_takes_a_numpy_t_on_wide_numerators() -> None:
    # T arrives as a numpy integer and the numerators are wider than 64
    # bits (exact Zipf over 300 tokens): every product with T stays a
    # Python int.
    harmonic = sum((F(1, k) for k in range(1, 301)), F(0))
    px = TokenDistribution.from_fractions(sorted(F(1, k) / harmonic for k in range(1, 301)))
    for alpha in (F(1, 2), F(99, 100)):
        assert split_px(px, alpha, np.int64(3)) == split_px(px, alpha, 3)
        assert extend_px(px, alpha, np.int64(3), True) == extend_px(px, alpha, 3, True)
        assert optimal_value(px, alpha, np.int64(3)) == optimal_value(px, alpha, 3)
