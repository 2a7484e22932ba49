"""Seeded inputs for the benchmark workloads.

Every input is an exact rational built from the workload seed alone: the
seed fixes token order, weight jitter and the Monte Carlo seeds, and the
program under test only ever receives the finished `TokenDistribution`s.
lp-cert's LP set is fixed (see `lp_round`).
A workload is a list of rounds.  A round is a few scheme instances (run
through construct and verify, one of them also simulated) plus a few LP
instances (one of them certified); the benchmark takes the simulated
instance and the certified LP in turn from round to round.  Jitter is kept
small so that the amount of work, and hence the timings, barely depend on
the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from keymark import TokenDistribution

# Largest reduced key set any workload enumerates is construct_b on zipf-200:
# perm(200, 3) = 7,880,400 placements, above the default cap of 10^6.
KEYSET_CAP = 10**7

# Paper's skewed three-token instance; the best bijective-key scheme has miss
# rate exactly 47/100 there (acceptance criterion 5).
BIJECTIVE_PX = (Fraction(1, 100), Fraction(4, 100), Fraction(95, 100))
BIJECTIVE_ALPHA = Fraction(99, 100)
BIJECTIVE_OPTIMUM = Fraction(47, 100)

# (n, T, P_X in hundredths, alpha) of each reduced LP in lp-cert, largest first.
# n=4/T=3 (0.08, 0.17, 0.31, 0.44), alpha=1/2 is left out: its one ~3 s
# solve gave only ~7 samples in a run, and their host-normalised times
# spread by 10-20% on a host whose speed changes during a solve.
LP_SHAPES = (
    (5, 2, (6, 13, 20, 27, 34), Fraction(3, 4)),
    (4, 2, (10, 20, 30, 40), Fraction(3, 4)),
    (3, 2, (20, 30, 50), Fraction(3, 4)),
)


@dataclass(frozen=True)
class SchemeInstance:
    px: TokenDistribution
    alpha: Fraction
    t: int


@dataclass(frozen=True)
class LpInstance:
    px: TokenDistribution
    alpha: Fraction
    t: int
    keyset: str  # "reduced" or "bijective"
    expected: Fraction | None  # None: the closed-form optimal_value


@dataclass(frozen=True)
class Round:
    schemes: tuple[SchemeInstance, ...]
    lps: tuple[LpInstance, ...]
    mc_seed: int  # Philox seed for this round's Monte Carlo estimates


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    smoke_params: dict
    make_round: Callable[[random.Random, dict], tuple[tuple, tuple]]
    trace_rounds: int


def to_grid(masses: list[Fraction], grid: int) -> list[Fraction]:
    """Round masses summing to 1 onto multiples of 1/grid, each at least 1/grid.

    Largest remainder keeps the total exactly 1; ties go to the lower index.
    """
    units = [math.floor(m * grid) for m in masses]
    order = sorted(range(len(masses)), key=lambda i: (units[i] - masses[i] * grid, i))
    for i in order[: grid - sum(units)]:
        units[i] += 1
    for i, value in enumerate(units):
        if value == 0:
            units[i] = 1
            units[units.index(max(units))] -= 1
    return [Fraction(u, grid) for u in units]


def _normalized(weights: list[Fraction]) -> list[Fraction]:
    total = sum(weights, Fraction(0))
    return [w / total for w in weights]


def head_lp(px: TokenDistribution, alpha: Fraction, t: int, grid: int) -> LpInstance:
    """Three-token coarsening of px (two largest tokens, the rest merged) on
    the 1/grid grid: the largest reduced LP a construction workload can
    certify in a fraction of a second.  The grid is coarse enough that the
    seed's jitter does not move the coarsening, whose cost differs by up to
    40% between neighbouring grid points."""
    ordered = sorted(px.probs, reverse=True)
    merged = [ordered[0], ordered[1], sum(ordered[2:], Fraction(0))]
    head = TokenDistribution.from_fractions(to_grid(merged, grid))
    return LpInstance(head, alpha, min(t, 3), "reduced", None)


def zipf_round(rng: random.Random, p: dict) -> tuple[tuple, tuple]:
    """Zipf masses 1/i with +-5% jitter on the 10^-6 grid, shuffled order."""
    weights = [
        Fraction(1000 + rng.randint(-50, 50), 1000 * (i + 1)) for i in range(p["n"])
    ]
    probs = to_grid(_normalized(weights), 10**6)
    rng.shuffle(probs)
    px = TokenDistribution.from_fractions(probs)
    return (SchemeInstance(px, p["alpha"], p["t"]),), (head_lp(px, p["alpha"], p["t"], p["head_grid"]),)


def heavy_round(rng: random.Random, p: dict) -> tuple[tuple, tuple]:
    """One 0.95 token plus n-1 light tokens sharing 0.05, shuffled order."""
    light = _normalized([Fraction(rng.randint(500, 1500)) for _ in range(p["n"] - 1)])
    probs = to_grid([Fraction(95, 100)] + [w * Fraction(5, 100) for w in light], 10**6)
    rng.shuffle(probs)
    px = TokenDistribution.from_fractions(probs)
    return (SchemeInstance(px, p["alpha"], p["t"]),), (head_lp(px, p["alpha"], p["t"], p["head_grid"]),)


def lp_round(rng: random.Random, p: dict) -> tuple[tuple, tuple]:
    """The fixed LP set.  It takes no jitter: moving one hundredth between
    two tokens of an n=4/T=3 LP changed its simplex time by up to 45%."""
    lps = []
    for n, t, base, alpha in p["shapes"]:
        px = TokenDistribution.from_fractions(Fraction(u, 100) for u in base)
        lps.append(LpInstance(px, alpha, t, "reduced", None))
    bijective = TokenDistribution.from_fractions(BIJECTIVE_PX)
    lps.append(LpInstance(bijective, BIJECTIVE_ALPHA, 2, "bijective", BIJECTIVE_OPTIMUM))
    return tuple(SchemeInstance(lp.px, lp.alpha, lp.t) for lp in lps), tuple(lps)


HALF = Fraction(1, 2)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zipf-200",
            {"n": 200, "alpha": HALF, "t": 3, "head_grid": 20},
            {"n": 12, "alpha": HALF, "t": 3, "head_grid": 20},
            zipf_round,
            trace_rounds=3,
        ),
        Workload(
            "heavy-40",
            {"n": 40, "alpha": HALF, "t": 3, "head_grid": 100},
            {"n": 8, "alpha": HALF, "t": 3, "head_grid": 100},
            heavy_round,
            trace_rounds=2,
        ),
        Workload(
            "lp-cert",
            {"shapes": LP_SHAPES},
            {"shapes": LP_SHAPES[-1:]},
            lp_round,
            trace_rounds=2 * (len(LP_SHAPES) + 1),  # certifies each LP twice
        ),
    )
}


def make_rounds(workload: Workload, seed: int, count: int, smoke: bool) -> list[Round]:
    """`count` rounds, round i drawn from its own generator seeded by (seed, i)."""
    params = workload.smoke_params if smoke else workload.params
    rounds = []
    for i in range(count):
        rng = random.Random(f"{workload.name}:{seed}:{i}")
        schemes, lps = workload.make_round(rng, params)
        rounds.append(Round(schemes, lps, rng.getrandbits(63)))
    return rounds
