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

A miss-rate estimate only asks whether a draw lands on a cell that does
not decode to the message.  Cells in enumeration order fall into maximal
runs of equal miss status, and a draw lands in the run given by how many
run-end CDF entries lie at or below it, so the search runs over one entry
per run rather than one per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING

from .core import TokenDistribution, WatermarkScheme, exact_int
from .errors import ParameterError
from .metrics import false_alarm_by_token, miss_detection
from .rationals import common_scale

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np

    ratios = [mass.as_integer_ratio() for mass in masses]
    common, scale = common_scale(denominator for _, denominator in ratios)
    scaled = accumulate(numerator * scale[denominator] for numerator, denominator in ratios)
    prefix = [running / common for running in scaled]
    prefix[-1] = 1.0
    return np.asarray(prefix)


def _table_support(scheme: WatermarkScheme, m: int):
    """Support cells of table m in enumeration order plus per-cell decodes."""
    import numpy as np

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
    import numpy as np

    key_indices = sorted(scheme.pz)
    pz_masses = [scheme.pz[idx] for idx in key_indices]
    keys = [scheme.decoded.keys[idx] for idx in key_indices]
    lengths = np.fromiter(map(len, keys), np.int64, len(keys))
    flat = np.fromiter((pos for pairs in keys for pos, _ in pairs), np.int64, int(lengths.sum()))
    positions = np.full((len(keys), int(lengths.max())), -1, dtype=np.int64)
    # A boolean mask assigns in row-major order: each row's first entries.
    positions[np.arange(positions.shape[1]) < lengths[:, None]] = flat
    return key_indices, _cdf(list(qx.probs)), _cdf(pz_masses), positions


def _draw_inputs(
    scheme: WatermarkScheme, m: int, seed: int, qx: TokenDistribution | None
) -> TokenDistribution:
    """Check the message, seed and query distribution; return qx, px by default."""
    exact_int(m, "m")
    exact_int(seed, "seed")
    if not 0 <= m <= scheme.t:
        raise ParameterError(f"message {m} outside [0:{scheme.t}]")
    if seed < 0:
        raise ParameterError(f"seed={seed} must be non-negative")
    qx = scheme.px if qx is None else qx
    if qx.n != scheme.n:
        raise ParameterError(f"qx has {qx.n} tokens, the scheme has n={scheme.n}")
    return qx


def sample(
    scheme: WatermarkScheme, m: int, seed: int, qx: TokenDistribution | None = None
) -> tuple[int, int]:
    """One draw of (token, key index); m=0 draws the pair independently."""
    import numpy as np

    qx = _draw_inputs(scheme, m, seed, qx)
    rng = np.random.Generator(np.random.Philox(seed))
    if m == 0:
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
    import numpy as np

    exact_int(trials, "trials")
    if trials < 1:
        raise ParameterError(f"trials={trials} must be at least 1")
    qx = _draw_inputs(scheme, m, seed, qx)
    rng = np.random.Generator(np.random.Philox(seed))
    if m == 0:
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
    missed = decoded != m
    # Index of the last cell of each maximal run of equal miss status.
    ends = np.flatnonzero(np.append(missed[1:] != missed[:-1], True))
    runs = np.searchsorted(_cdf(masses)[ends], rng.random(trials), side="right")
    hits = int(np.count_nonzero(missed[ends][runs]))
    return TrialReport.from_counts(m, trials, hits, miss_detection(scheme, m))
