"""Reference implementations that keymark replaced, kept for the tests.

The layered builders for construction A's parts 2 and 3 are those that
keymark.construct_a replaced with closed forms.  They break px2 into
suffix-indicator steps and add each step as its own layer: part 2 gives
delta_j / c to every anchored (token, message) cell of the last j tokens,
and part 3 pays px3(x)/R shares of delta_j * (T - j) to the anchored keys
whose last j coordinates avoid the message.  The tests compare the two cell
for cell.

The decoded-view sums and the row-sum and mass checks below take every sum
one Fraction addition per cell, as WatermarkScheme.decoded and
keymark.metrics did before they summed integers over one common
denominator.

The Monte Carlo references build each inverse-CDF table from a running
Fraction sum converted to float cell by cell, and search every cell, as
keymark.sim did before it took integer prefix sums and searched one entry
per run of like cells.  No production code imports this module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from keymark.construct_a import ImbalanceLedger, _anchored_tails, anchored_cell_count
from keymark.core import (
    JointTable,
    KeySet,
    TokenDistribution,
    WatermarkScheme,
    add_mass,
    decode,
)
from keymark.errors import InvariantError, ParameterError
from keymark.metrics import (
    PROPERTY_NAMES,
    PropertyReport,
    _column_failures,
    _first_failure,
)


@dataclass(frozen=True)
class StepDecomposition:
    """px2 as a sum of suffix indicators: increments[(j, delta)] means
    delta * (0,...,0, 1_j).  j runs 1..K; deltas may be zero."""

    increments: tuple[tuple[int, Fraction], ...]

    @property
    def k(self) -> int:
        return len(self.increments)

    def reconstruct(self, length: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * length
        for j, delta in self.increments:
            for pos in range(length - j, length):
                out[pos] += delta
        return tuple(out)


def step_decomposition(px2: Sequence[Fraction], t: int) -> StepDecomposition:
    """Decompose a non-decreasing tail vector into suffix-indicator steps."""
    length = len(px2)
    positive = [i for i, v in enumerate(px2) if v > 0]
    if any(v < 0 for v in px2):
        raise ParameterError("px2 has a negative entry")
    k = len(positive)
    if k == 0:
        return StepDecomposition(())
    if k > t - 1:
        raise ParameterError(f"px2 has {k} positive entries, more than t-1={t - 1}")
    if positive != list(range(length - k, length)):
        raise ParameterError("px2's positive entries must sit at the tail")
    if any(px2[i] > px2[i + 1] for i in range(length - k, length - 1)):
        raise ParameterError("px2 must be non-decreasing on its tail")
    increments = []
    for j in range(1, k + 1):
        below = px2[length - j - 1] if j < k else Fraction(0)
        increments.append((j, px2[length - j] - below))
    decomposition = StepDecomposition(tuple(increments))
    if decomposition.reconstruct(length) != tuple(px2):
        raise InvariantError("step decomposition failed to reconstruct px2")
    return decomposition


def build_pm2_layered(
    px2: Sequence[Fraction], keyset: KeySet
) -> tuple[list[JointTable], ImbalanceLedger]:
    """Part 2 one step layer at a time, with the ledger measured per key."""
    t, length = keyset.t, keyset.length
    steps = step_decomposition(px2, t)
    if steps.k == 0:
        return [JointTable(m, {}) for m in range(1, t + 1)], ImbalanceLedger({}, Fraction(0))
    k = steps.k
    anchored = _anchored_tails(keyset, range(length - k, length))
    cell_count = anchored_cell_count(length, t, k)
    rows_per_m: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    for j, delta in steps.increments:
        if delta == 0:
            continue
        share = Fraction(delta, cell_count)
        for token in range(length - j + 1, length + 1):
            slot = token - 1 - (length - k)
            for m in range(1, t + 1):
                for idx, tail in anchored:
                    if tail[slot] == m:
                        add_mass(rows_per_m[m - 1], idx, token, share)
    tables = [JointTable(m, rows) for m, rows in enumerate(rows_per_m, start=1)]
    per_key: dict[int, tuple[Fraction, ...]] = {}
    total = Fraction(0)
    for idx, _ in anchored:
        sums = [table.row_sum(idx) for table in tables]
        gaps = tuple(max(sums) - s for s in sums)
        if any(gaps):
            per_key[idx] = gaps
        total += gaps[0]
    return tables, ImbalanceLedger(per_key, total)


def build_pm3_layered(
    px3: Sequence[Fraction],
    steps: StepDecomposition,
    ledger: ImbalanceLedger,
    keyset: KeySet,
) -> list[JointTable]:
    """Part 3 one step layer at a time, then the leftover on the zero key."""
    t, length = keyset.t, keyset.length
    total_overshoot = sum(px3, Fraction(0))
    tables: list[dict[int, dict[int, Fraction]]] = [{} for _ in range(t)]
    support = [x for x in range(1, length + 1) if x <= len(px3) and px3[x - 1] > 0]
    if total_overshoot == 0:
        return [JointTable(m, rows) for m, rows in enumerate(tables, start=1)]
    if steps.k > 0:
        anchored = _anchored_tails(keyset, range(length - steps.k, length))
        for j, delta in steps.increments:
            if delta == 0:
                continue
            for m in range(1, t + 1):
                eligible = [idx for idx, tail in anchored if m not in tail[steps.k - j:]]
                layer_mass = delta * (t - j)
                for x in support:
                    share = px3[x - 1] / total_overshoot * layer_mass / len(eligible)
                    for idx in eligible:
                        add_mass(tables[m - 1], idx, x, share)
    leftover = 1 - Fraction(ledger.total, total_overshoot)
    for m in range(1, t + 1):
        for x in support:
            add_mass(tables[m - 1], keyset.zero_index, x, px3[x - 1] * leftover)
    return [JointTable(m, rows) for m, rows in enumerate(tables, start=1)]


def column_sum(table: JointTable, token: int) -> Fraction:
    """Table mass on one token, one Fraction addition per cell."""
    return sum((row[token] for row in table.rows.values() if token in row), Fraction(0))


def reference_decoded_sums(
    scheme: WatermarkScheme,
) -> tuple[list[tuple[Fraction, ...]], list[tuple[Fraction, ...]], tuple[Fraction, ...]]:
    """columns, captured and marked as the decoded view defines them."""
    keys = {idx: scheme.keyset.key(idx) for idx in scheme.key_support() | set(scheme.pz)}
    columns, captured = [], []
    for m, table in enumerate(scheme.tables, start=1):
        column, hit = [Fraction(0)] * scheme.n, [Fraction(0)] * scheme.n
        for idx, token, mass in table.cells():
            column[token - 1] += mass
            if decode(token, keys[idx]) == m:
                hit[token - 1] += mass
        columns.append(tuple(column))
        captured.append(tuple(hit))
    marked = [Fraction(0)] * scheme.n
    for idx, mass in scheme.pz.items():
        for pos, value in enumerate(keys[idx][: scheme.n]):
            if value:
                marked[pos] += mass
    return columns, captured, tuple(marked)


def reference_row_sum_failures(scheme: WatermarkScheme):
    for idx in sorted(scheme.key_support()):
        reference = scheme.tables[0].row_sum(idx)
        for table in scheme.tables[1:]:
            actual = table.row_sum(idx)
            if actual != reference:
                yield f"key={idx}, m={table.m}", reference, actual


def reference_mass_failures(scheme: WatermarkScheme):
    for table in scheme.tables:
        for idx, token, mass in table.cells():
            if mass < 0:
                yield f"m={table.m}, key={idx}, x={token}", Fraction(0), mass
        total = sum((mass for _, _, mass in table.cells()), Fraction(0))
        if total != 1:
            yield f"m={table.m} total", Fraction(1), total


def reference_check_scheme(scheme: WatermarkScheme) -> PropertyReport:
    """keymark.metrics.check_scheme on the per-cell Fraction sums above."""
    columns, captured, marked = reference_decoded_sums(scheme)
    cap = Fraction(scheme.alpha, scheme.t)
    floors = [min(cap, p) for p in scheme.px.probs]
    failures = (
        _column_failures(columns, scheme.px.probs, operator.ne),
        reference_row_sum_failures(scheme),
        _column_failures(captured, floors, operator.lt),
        ((f"x={x}", scheme.alpha, a) for x, a in enumerate(marked, 1) if a > scheme.alpha),
        reference_mass_failures(scheme),
    )
    return PropertyReport(tuple(map(_first_failure, PROPERTY_NAMES, failures)))


def reference_cdf(masses: Sequence[Fraction]) -> np.ndarray:
    """Inverse-CDF table: one Fraction addition and one float() per cell."""
    prefix = []
    running = Fraction(0)
    for mass in masses:
        running += mass
        prefix.append(float(running))
    prefix[-1] = 1.0
    return np.asarray(prefix)


def reference_hits(
    scheme: WatermarkScheme, m: int, trials: int, seed: int, qx: TokenDistribution | None = None
) -> int:
    """keymark.sim.monte_carlo's hit count, each draw searched over every
    cell (m >= 1) or every pz key and tested on its full key (m = 0)."""
    rng = np.random.Generator(np.random.Philox(seed))
    if m == 0:
        keys = sorted(scheme.pz)
        qx_cdf = reference_cdf((qx or scheme.px).probs)
        xs = np.searchsorted(qx_cdf, rng.random(trials), side="right")
        pz_cdf = reference_cdf([scheme.pz[k] for k in keys])
        ks = np.searchsorted(pz_cdf, rng.random(trials), side="right")
        return sum(1 for x, k in zip(xs, ks) if scheme.keyset.key(keys[k])[x] != 0)
    cells = list(scheme.table(m).cells())
    cell_cdf = reference_cdf([mass for _, _, mass in cells])
    picks = np.searchsorted(cell_cdf, rng.random(trials), side="right")
    missed = [decode(token, scheme.keyset.key(idx)) != m for idx, token, _ in cells]
    return sum(missed[pick] for pick in picks)
