"""Seeded sampling from a scheme and Monte Carlo error estimation.

Draws use numpy's counter-based Philox generator, so identical seeds give
identical trial streams on any platform.  This is the only module that
needs numpy, and it imports numpy on the first sample() or monte_carlo()
call rather than at import time, so a process that only builds, checks or
certifies schemes never loads it.  Inverse-CDF tables are built from
exact prefix sums, taken as integers over the LCM of the masses'
denominators and converted to float one prefix at a time.  An int/int
division is correctly rounded, hence monotone, and equals float() of the
same prefix as a Fraction; the last entry is clamped to 1.0 so no draw can
fall off the end.

An estimate counts draws per cell rather than finding each draw's cell.
The draws are sorted once, and a cell's count is the number of draws below
its CDF entry less the number below the entry before it: one search per
cell into the sorted draws, not one per draw into the table.  A draw equal
to an entry belongs to the next cell, as with an inverse-CDF search.  The
false-alarm estimate sorts the key draws, carries each token draw along
with its key draw, and tests each key's block of token draws against the
CDF interval of every token the key marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING

from .core import TokenDistribution, WatermarkScheme, exact_int
from .errors import ParameterError
from .metrics import miss_detection
from .rationals import common_numerators

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TrialReport", "check_draw", "sample", "monte_carlo"]


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
    import numpy as np

    scaled, common = common_numerators(masses)
    prefix = [running / common for running in accumulate(scaled)]
    prefix[-1] = 1.0
    return np.asarray(prefix)


def _cell_counts(draws: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Sort the draws in place; count those in each cell [cdf[i-1], cdf[i])."""
    import numpy as np

    draws.sort()
    return np.diff(draws.searchsorted(cdf, side="left"), prepend=0)


def _table_support(scheme: WatermarkScheme, m: int):
    """Support cells of table m in enumeration order plus per-cell decodes."""
    import numpy as np

    cells = list(scheme.table(m).cells())
    masses = [mass for _, _, mass in cells]
    return cells, masses, np.asarray(scheme.decoded.messages[m - 1])


def _marginals(scheme: WatermarkScheme, qx: TokenDistribution):
    """Keys of pz in order and the CDFs of qx and pz."""
    key_indices = sorted(scheme.pz)
    pz_masses = [scheme.pz[idx] for idx in key_indices]
    return key_indices, _cdf(list(qx.probs)), _cdf(pz_masses)


def _marked_tokens(scheme: WatermarkScheme, key_indices: list[int], n: int) -> np.ndarray:
    """Each key's nonzero positions as a (keys, widest key) array, padded
    with n, which also stands in for every position past the vocabulary.
    Reduced keys have T nonzero entries; explicit keys may have more."""
    import numpy as np

    keys = [scheme.decoded.keys[idx] for idx in key_indices]
    lengths = np.fromiter(map(len, keys), np.int64, len(keys))
    flat = np.fromiter((pos for pairs in keys for pos, _ in pairs), np.int64, int(lengths.sum()))
    positions = np.full((len(keys), int(lengths.max())), n, dtype=np.int64)
    # A boolean mask assigns in row-major order: each row's first entries.
    positions[np.arange(positions.shape[1]) < lengths[:, None]] = np.minimum(flat, n)
    return positions


def check_draw(
    scheme: WatermarkScheme,
    m: int,
    seed: int,
    qx: TokenDistribution | None = None,
    trials: int = 1,
) -> TokenDistribution:
    """Refuse a draw that the scheme cannot serve, whether or not it passes
    its checks: ParameterError for fewer than 1 trial, a message outside
    [0:T], a negative seed, a qx over another vocabulary, or an empty table
    to draw from (table 1, whose row sums are pz, for m=0).  Returns qx, px
    by default."""
    exact_int(trials, "trials")
    if trials < 1:
        raise ParameterError(f"trials={trials} must be at least 1")
    exact_int(m, "m")
    exact_int(seed, "seed")
    if not 0 <= m <= scheme.t:
        raise ParameterError(f"message {m} outside [0:{scheme.t}]")
    if seed < 0:
        raise ParameterError(f"seed={seed} must be non-negative")
    qx = scheme.px if qx is None else qx
    if qx.n != scheme.n:
        raise ParameterError(f"qx has {qx.n} tokens, the scheme has n={scheme.n}")
    if m == 0 and not scheme.tables[0].rows:
        raise ParameterError("table m=1 is empty, so pz has no key to draw")
    if m and not any(scheme.table(m).rows.values()):
        raise ParameterError(f"table m={m} is empty")
    return qx


def sample(
    scheme: WatermarkScheme, m: int, seed: int, qx: TokenDistribution | None = None
) -> tuple[int, int]:
    """One draw of (token, key index); m=0 draws the pair independently."""
    import numpy as np

    qx = check_draw(scheme, m, seed, qx)
    rng = np.random.Generator(np.random.Philox(seed))
    if m == 0:
        key_indices, qx_cdf, pz_cdf = _marginals(scheme, qx)
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
    import numpy as np

    qx = check_draw(scheme, m, seed, qx, trials)
    rng = np.random.Generator(np.random.Philox(seed))
    if m == 0:
        key_indices, qx_cdf, pz_cdf = _marginals(scheme, qx)
        marks = _marked_tokens(scheme, key_indices, qx.n)
        # Token x (0-based) covers [lower[x], upper[x]); index n covers nothing.
        lower = np.append(0.0, qx_cdf)
        upper = np.append(qx_cdf, 0.0)
        tokens = rng.random(trials)
        keys = rng.random(trials)
        by_key = keys.argsort()
        counts = _cell_counts(keys, pz_cdf)
        # The token draws in key order, written over the key draws: with
        # mode="clip", take() fills out without a buffer of its own.
        tokens = tokens.take(by_key, out=keys, mode="clip")
        del by_key  # the loop then holds at most two arrays of draws
        hits = 0
        # A key's nonzero positions are distinct, so at most one column matches.
        for column in marks.T:
            inside = tokens >= np.repeat(lower[column], counts)
            inside &= tokens < np.repeat(upper[column], counts)
            hits += int(np.count_nonzero(inside))
        q, q_common = common_numerators(qx.probs)
        view = scheme.decoded
        exact = Fraction(sum(a * b for a, b in zip(q, view.marked)), q_common * view.denominator)
        return TrialReport.from_counts(0, trials, hits, exact)
    _, masses, decoded = _table_support(scheme, m)
    # The CDF before the draws: made while they are alive, its allocations
    # land above them on the heap, which then cannot shrink when they go.
    cdf = _cdf(masses)
    counts = _cell_counts(rng.random(trials), cdf)
    hits = int(counts[decoded != m].sum())
    return TrialReport.from_counts(m, trials, hits, miss_detection(scheme, m))
