"""Seeded sampling from a scheme and Monte Carlo error estimation.

Draws use numpy's counter-based Philox generator, so identical seeds give
identical trial streams on any platform.  Inverse-CDF tables are built from
exact prefix sums converted to float one prefix at a time (conversion is
correctly rounded, hence monotone); the last entry is clamped to 1.0 so no
draw can fall off the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import TokenDistribution, WatermarkScheme
from .errors import ParameterError
from .metrics import false_alarm_by_token, miss_detection

__all__ = ["TrialReport", "sample", "monte_carlo"]


@dataclass(frozen=True)
class TrialReport:
    """Monte Carlo estimate of one error rate against its exact value.

    stderr is the binomial standard error at the exact rate, so no hits of
    a small positive rate still give a finite z-score.
    """

    m: int
    trials: int
    hits: int
    estimate: float
    stderr: float
    exact: Fraction
    z_score: float

    @classmethod
    def from_counts(cls, m: int, trials: int, hits: int, exact: Fraction) -> "TrialReport":
        estimate = hits / trials
        stderr = math.sqrt(exact * (1 - exact) / trials)
        if stderr > 0:
            z = (estimate - float(exact)) / stderr
        else:
            z = 0.0 if Fraction(hits, trials) == exact else math.inf
        return cls(m, trials, hits, estimate, stderr, exact, z)


def _cdf(masses: list[Fraction]) -> np.ndarray:
    prefix = []
    running = Fraction(0)
    for mass in masses:
        running += mass
        prefix.append(float(running))
    prefix[-1] = 1.0
    return np.asarray(prefix)


def _table_support(scheme: WatermarkScheme, m: int):
    """Support cells of table m in enumeration order plus per-cell decodes."""
    table = scheme.table(m)
    cells = list(table.cells())
    if not cells:
        raise ParameterError(f"table m={m} is empty")
    masses = [mass for _, _, mass in cells]
    return cells, masses, np.asarray(scheme.decoded.messages[m - 1])


def _marginals(scheme: WatermarkScheme, qx: TokenDistribution):
    """Keys of pz in order, both CDFs, and each key's nonzero positions as a
    (keys, widest key) array padded with -1, which no token index matches.
    Reduced keys have T nonzero entries; explicit keys may have more."""
    key_indices = sorted(scheme.pz)
    pz_masses = [scheme.pz[idx] for idx in key_indices]
    keys = [scheme.decoded.keys[idx] for idx in key_indices]
    positions = np.full((len(keys), max(map(len, keys))), -1, dtype=np.int64)
    for row, pairs in enumerate(keys):
        for j, (pos, _) in enumerate(pairs):
            positions[row, j] = pos
    return key_indices, _cdf(list(qx.probs)), _cdf(pz_masses), positions


def sample(
    scheme: WatermarkScheme, m: int, seed: int, qx: TokenDistribution | None = None
) -> tuple[int, int]:
    """One draw of (token, key index); m=0 draws the pair independently."""
    rng = np.random.Generator(np.random.Philox(seed))
    if m == 0:
        qx = qx or scheme.px
        key_indices, qx_cdf, pz_cdf, _ = _marginals(scheme, qx)
        x = int(np.searchsorted(qx_cdf, rng.random(), side="right")) + 1
        key = key_indices[int(np.searchsorted(pz_cdf, rng.random(), side="right"))]
        return x, key
    cells, masses, _ = _table_support(scheme, m)
    pick = int(np.searchsorted(_cdf(masses), rng.random(), side="right"))
    idx, token, _ = cells[pick]
    return token, idx


def monte_carlo(
    scheme: WatermarkScheme,
    m: int,
    trials: int,
    seed: int,
    qx: TokenDistribution | None = None,
) -> TrialReport:
    """Estimate the miss rate of message m, or the false-alarm rate under qx
    (default px) when m=0, against the exact value."""
    if trials < 1:
        raise ParameterError(f"trials={trials} must be at least 1")
    if not 0 <= m <= scheme.t:
        raise ParameterError(f"message {m} outside [0:{scheme.t}]")
    rng = np.random.Generator(np.random.Philox(seed))
    if m == 0:
        qx = qx or scheme.px
        key_indices, qx_cdf, pz_cdf, positions = _marginals(scheme, qx)
        xs = np.searchsorted(qx_cdf, rng.random(trials), side="right")
        ks = np.searchsorted(pz_cdf, rng.random(trials), side="right")
        # A key's nonzero positions are distinct, so at most one column matches.
        hits = sum(int((column[ks] == xs).sum()) for column in positions.T)
        exact = sum(
            (q * marked for q, marked in zip(qx.probs, false_alarm_by_token(scheme))),
            Fraction(0),
        )
        return TrialReport.from_counts(0, trials, hits, exact)
    _, masses, decoded = _table_support(scheme, m)
    picks = np.searchsorted(_cdf(masses), rng.random(trials), side="right")
    hits = int((decoded[picks] != m).sum())
    return TrialReport.from_counts(m, trials, hits, miss_detection(scheme, m))
