"""Pinned SHA-256 digests of serialized schemes on fixed shuffled instances.

A change that only speeds construction up must leave these documents byte
for byte the same.  The digests were taken before the row-relabelling token
reorder and the per-tail imbalance ledger went in; those of two-step-10,
whose part-2 tail has two distinct nonzero steps, before parts 2 and 3 of
construction A were built in closed form.  one-heavy-12's construct_a
digest (K = 1, T-K = 2) was taken again when construction A's anchored
keys became cyclic windows, once its property checks passed with the same
beta, worst false alarm and per-token false alarms as the full listing.
Every construct_b digest was taken again, on the same condition against the
T! listing, when construction B's part 1 became the T cyclic shifts of each
term.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from keymark.construct_a import construct_a
from keymark.construct_b import construct_b
from keymark.core import TokenDistribution
from keymark.serialize import deserialize_scheme, serialize_scheme
from keymark.sim import monte_carlo
from keymark.split import split_px

ALPHA = F(1, 2)
T = 3


def shuffled(masses: list[F], step: int) -> TokenDistribution:
    """Token i takes masses[(step*i + 1) mod n]; step is coprime to n."""
    n = len(masses)
    return TokenDistribution.from_fractions(masses[(step * i + 1) % n] for i in range(n))


def one_heavy(n: int) -> list[F]:
    """One 0.95 token and n-1 light ones with masses proportional to 1..n-1."""
    light = n - 1
    total = light * (light + 1) // 2
    return [F(95, 100)] + [F(5 * i, 100 * total) for i in range(1, light + 1)]


def two_heavy() -> list[F]:
    """Two tokens above alpha/T with only 1/10 of light mass below them."""
    return [F(55, 100), F(35, 100)] + [F(i, 360) for i in range(1, 9)]


def two_step() -> list[F]:
    """One token above alpha/T and one just below it with 1/20 of light mass:
    the leveled tail px2 is (1/10, 7/60), so its two steps differ."""
    return [F(8, 10), F(15, 100)] + [F(i, 720) for i in range(1, 9)]


def zipf(n: int) -> list[F]:
    weights = [F(1, i) for i in range(1, n + 1)]
    total = sum(weights, F(0))
    return [w / total for w in weights]


# name -> (px, K of the split, construct_a digest, construct_b digest)
INSTANCES = {
    "one-heavy-12": (
        shuffled(one_heavy(12), 5),
        1,
        "d9669f5b1e6e2de912fef3203cf232e2b2ab6b0b9c7fad93c28c0680a41fc1af",
        "439e908478d42869c81347613c094dafd1ddcf48b09efac7440c165c1d246af4",
    ),
    "two-heavy-10": (
        shuffled(two_heavy(), 7),
        2,
        "1e3927e2f2bc32277346f4dfea048a115e42e3d94dc2aba2e66da9809ec9c1a5",
        "0e875679c5a458290d0d8c474bbfbed1b9ce689709f16aa1a015512cd229bb4e",
    ),
    "two-step-10": (
        shuffled(two_step(), 3),
        2,
        "6ecf2a0a711adb7d34bc3453af266eed878c97112d5c2868e1c13334ebd2b30a",
        "7ef023eaee1a54c9d350a1167caa81d8100f22d4d470339e9f5df9f12961127a",
    ),
    "zipf-30": (
        shuffled(zipf(30), 7),
        0,
        "8c6905d0e3cf10dd2b02a2c7109e87a152b1c2f7835acdb5ef584fd691c22ab5",
        "f99b7c57e24d65148ba8fa0bd3007e69b0449bdb73f89726e88e274cd8446a32",
    ),
}


def digest(scheme) -> str:
    text = json.dumps(serialize_scheme(scheme), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_instance_shape(name: str) -> None:
    px, k, _, _ = INSTANCES[name]
    assert not px.is_sorted
    assert split_px(TokenDistribution.from_fractions(px.sorted_probs), ALPHA, T).K == k


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_construct_a_digest(name: str) -> None:
    px, _, expected, _ = INSTANCES[name]
    assert digest(construct_a(px, ALPHA, T)) == expected


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_construct_b_digest(name: str) -> None:
    px, _, _, expected = INSTANCES[name]
    assert digest(construct_b(px, ALPHA, T)) == expected


@pytest.mark.parametrize("construct", [construct_a, construct_b], ids=["a", "b"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_document_round_trip(name: str, construct) -> None:
    # Loading shares one Fraction among the cells of each distinct mass text
    # and saving formats each distinct mass once; the document must not move.
    doc = json.loads(json.dumps(serialize_scheme(construct(INSTANCES[name][0], ALPHA, T))))
    assert serialize_scheme(deserialize_scheme(doc)) == doc


# name -> monte_carlo hits for m = 0..T at 20,000 trials and seed 5, for
# construct_a and construct_b, taken when each table's inverse CDF was a
# running Fraction sum searched cell by cell; one-heavy-12's construct_a
# hits again with its digest above, and the construct_b hits that moved
# with the construct_b digests.
MONTE_CARLO_HITS = {
    "one-heavy-12": ((9506, 15644, 15623, 15669), (9405, 15665, 15716, 15696)),
    "two-heavy-10": ((9076, 11283, 11377, 11349), (9017, 11373, 11303, 11382)),
    "two-step-10": ((9494, 12597, 12683, 12776), (9437, 12634, 12579, 12671)),
    "zipf-30": ((4779, 1659, 1659, 1659), (4780, 1659, 1659, 1659)),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_monte_carlo_hits(name: str) -> None:
    px = INSTANCES[name][0]
    for construct, expected in zip((construct_a, construct_b), MONTE_CARLO_HITS[name]):
        scheme = construct(px, ALPHA, T)
        assert tuple(monte_carlo(scheme, m, 20_000, 5).hits for m in range(T + 1)) == expected
