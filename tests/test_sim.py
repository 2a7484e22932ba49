import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import COMBINED_A
from layered_reference import reference_cdf, reference_hits
from test_output_digests import one_heavy, shuffled
from keymark.construct_a import construct_a
from keymark.construct_b import construct_b
from keymark.core import (
    ExplicitKeySet,
    JointTable,
    TokenDistribution,
    WatermarkScheme,
)
from keymark.errors import ParameterError
import keymark
from keymark.sim import TrialReport, _cdf, monte_carlo, sample

PX_A = TokenDistribution.from_strings(["0.05", "0.1", "0.25", "0.6"])

# 99.9% chi-square quantile at 3*12 degrees of freedom, hardcoded so the
# test needs no stats dependency.
CHI2_CRIT_DF36 = 67.986


def scheme_a() -> WatermarkScheme:
    return construct_a(PX_A, F(9, 10), 3)


def golden_pz() -> dict[tuple[int, ...], F]:
    return {key: sum(row.values(), F(0)) for key, row in COMBINED_A[1].items()}


def single_cell_scheme() -> WatermarkScheme:
    keyset = ExplicitKeySet([(0,), (1,)], t=1)
    table = JointTable(1, {1: {1: F(1)}})
    return WatermarkScheme.assemble(F(1, 2), TokenDistribution.from_strings(["1"]), keyset, [table])


def test_empty_key_marginal_is_a_parameter_error() -> None:
    # An empty table 1 leaves pz with no key, as an empty table m leaves
    # message m with no cell: nothing can be drawn.
    keyset = ExplicitKeySet([(0, 0), (1, 2)], t=2)
    tables = [JointTable(1, {}), JointTable(2, {1: {1: F(1, 2), 2: F(1, 2)}})]
    px = TokenDistribution.from_strings(["0.5", "0.5"])
    scheme = WatermarkScheme.assemble(F(1, 2), px, keyset, tables)
    for draw in (lambda m: sample(scheme, m, 0), lambda m: monte_carlo(scheme, m, 10, 0)):
        for m in (0, 1):
            with pytest.raises(ParameterError, match="table m=1 is empty"):
                draw(m)
        draw(2)


def test_sample_is_seed_reproducible() -> None:
    scheme = scheme_a()
    for m in (0, 1, 2, 3):
        draws = [sample(scheme, m, seed) for seed in range(20)]
        again = [sample(scheme, m, seed) for seed in range(20)]
        assert draws == again
        assert len(set(draws)) > 1


def test_sample_stays_on_support() -> None:
    scheme = scheme_a()
    for seed in range(50):
        token, idx = sample(scheme, 2, seed)
        assert 1 <= token <= scheme.n
        assert scheme.table(2).cell(idx, token) > 0


def test_sample_single_support_is_deterministic() -> None:
    scheme = single_cell_scheme()
    assert all(sample(scheme, 1, seed) == (1, 1) for seed in range(25))
    assert all(sample(scheme, 0, seed) == (1, 1) for seed in range(25))


def test_monte_carlo_miss_rates_within_4_sigma() -> None:
    scheme = scheme_a()
    for m in (1, 2, 3):
        report = monte_carlo(scheme, m, 20_000, seed=7)
        assert report.exact == F(3, 10)
        assert report.trials == 20_000
        assert report.estimate == report.hits / report.trials
        assert abs(report.z_score) <= 4


def test_monte_carlo_false_alarm_matches_golden_marginals() -> None:
    # Average false alarm under qx = px, derived from the frozen tables.
    scheme = scheme_a()
    expected = sum(
        (
            PX_A.probs[x] * mass
            for key, mass in golden_pz().items()
            for x in range(4)
            if key[x] != 0
        ),
        F(0),
    )
    report = monte_carlo(scheme, 0, 20_000, seed=11)
    assert expected == F(669, 800)
    assert report.exact == expected
    assert abs(report.z_score) <= 4


def test_monte_carlo_point_mass_query_hits_worst_token() -> None:
    scheme = scheme_a()
    qx = TokenDistribution.from_strings(["0", "0", "0", "1"])
    report = monte_carlo(scheme, 0, 20_000, seed=11, qx=qx)
    assert report.exact == F(9, 10)
    assert abs(report.z_score) <= 4


def test_monte_carlo_seed_behaviour() -> None:
    scheme = scheme_a()
    first = monte_carlo(scheme, 1, 5000, seed=3)
    second = monte_carlo(scheme, 1, 5000, seed=3)
    other = monte_carlo(scheme, 1, 5000, seed=4)
    assert (first.hits, first.estimate) == (second.hits, second.estimate)
    assert first.hits != other.hits
    for seed in (1, 2, 3):
        assert abs(monte_carlo(scheme, 2, 5000, seed=seed).z_score) <= 4


@pytest.mark.parametrize(
    "scheme",
    [
        scheme_a(),
        # One pseudo token: keys are longer than the vocabulary.
        construct_b(PX_A, F(9, 10), 3),
        # No extension: the leftover sits on the all-zero key.
        construct_b(TokenDistribution.from_strings(["0.1", "0.3", "0.6"]), F(4, 5), 2),
    ],
)
def test_false_alarm_hits_match_full_key_lookup(scheme) -> None:
    # Redraw the same Philox stream and test each drawn token on the full key.
    trials, seed = 5000, 13
    rng = np.random.Generator(np.random.Philox(seed))
    keys = sorted(scheme.pz)
    xs = np.searchsorted(_cdf(list(scheme.px.probs)), rng.random(trials), side="right")
    ks = np.searchsorted(_cdf([scheme.pz[k] for k in keys]), rng.random(trials), side="right")
    expected = sum(1 for x, k in zip(xs, ks) if scheme.keyset.key(keys[k])[x] != 0)
    assert monte_carlo(scheme, 0, trials, seed).hits == expected


def test_null_draws_are_independent() -> None:
    # Chi-square contingency test over (token, key) pairs drawn under m=0.
    scheme = scheme_a()
    keys = sorted(scheme.pz)
    kpos = {k: i for i, k in enumerate(keys)}
    counts = [[0] * len(keys) for _ in range(scheme.n)]
    draws = 4000
    for seed in range(draws):
        x, k = sample(scheme, 0, seed)
        counts[x - 1][kpos[k]] += 1
    row = [sum(r) for r in counts]
    col = [sum(counts[i][j] for i in range(scheme.n)) for j in range(len(keys))]
    stat = 0.0
    for i in range(scheme.n):
        for j in range(len(keys)):
            expected = row[i] * col[j] / draws
            assert expected >= 5
            stat += (counts[i][j] - expected) ** 2 / expected
    assert stat < CHI2_CRIT_DF36


def test_trial_report_fields() -> None:
    report = TrialReport.from_counts(1, 4, 1, F(1, 4))
    assert report.estimate == 0.25
    assert report.stderr == math.sqrt(0.25 * 0.75 / 4)
    assert report.z_score == 0.0

    clean = TrialReport.from_counts(2, 10, 0, F(0))
    assert clean.stderr == 0.0 and clean.z_score == 0.0

    # No hits of a positive rate: the standard error comes from the exact
    # rate, so z stays finite (0 hits in 10 at 1/10 has probability 0.35).
    unlucky = TrialReport.from_counts(2, 10, 0, F(1, 10))
    assert unlucky.stderr == pytest.approx(math.sqrt(0.1 * 0.9 / 10))
    assert unlucky.z_score == pytest.approx(-1.054, abs=1e-3)

    rare = TrialReport.from_counts(1, 10**5, 0, F("2.733e-5"))
    assert rare.estimate == 0.0 and abs(rare.z_score) < 2

    impossible = TrialReport.from_counts(2, 10, 1, F(0))
    assert impossible.stderr == 0.0 and math.isinf(impossible.z_score)

    saturated = TrialReport.from_counts(1, 10, 10, F(1))
    assert saturated.estimate == 1.0 and saturated.z_score == 0.0


def test_monte_carlo_validation() -> None:
    scheme = scheme_a()
    with pytest.raises(ParameterError, match="trials"):
        monte_carlo(scheme, 1, 0, seed=1)
    with pytest.raises(ParameterError, match="message"):
        monte_carlo(scheme, 4, 10, seed=1)
    with pytest.raises(ParameterError, match="message"):
        monte_carlo(scheme, -1, 10, seed=1)


@pytest.mark.parametrize(
    "m, trials, seed, message",
    [
        (1, 10, -1, "seed=-1 must be non-negative"),
        (1, 10, True, "seed must be an integer, got bool"),
        (1, 10, 1.0, "seed must be an integer, got float"),
        (1, 10, "1", "seed must be an integer, got str"),
        (True, 10, 1, "m must be an integer, got bool"),
        (1, True, 1, "trials must be an integer, got bool"),
        (1, 10.0, 1, "trials must be an integer, got float"),
    ],
)
def test_monte_carlo_rejects_bad_integers(m, trials, seed, message) -> None:
    with pytest.raises(ParameterError, match=message):
        monte_carlo(scheme_a(), m, trials, seed)


@pytest.mark.parametrize(
    "m, seed, message",
    [
        (1, -1, "seed=-1 must be non-negative"),
        (0, False, "seed must be an integer, got bool"),
        (True, 1, "m must be an integer, got bool"),
        (4, 1, r"message 4 outside \[0:3\]"),
    ],
)
def test_sample_rejects_bad_arguments(m, seed, message) -> None:
    with pytest.raises(ParameterError, match=message):
        sample(scheme_a(), m, seed)


def test_numpy_integer_arguments_draw_like_ints() -> None:
    scheme = scheme_a()
    assert monte_carlo(scheme, np.int64(2), np.int64(500), np.uint32(9)) == monte_carlo(
        scheme, 2, 500, 9
    )
    assert sample(scheme, np.int8(0), np.int64(4)) == sample(scheme, 0, 4)


@pytest.mark.parametrize("probs", [["0.5", "0.5"], ["0.2"] * 5])
def test_query_distribution_must_cover_the_vocabulary(probs) -> None:
    # zip() would cut the exact rate of a short qx short (9/20 from two
    # tokens of four), and no draw past its end would count.
    scheme = scheme_a()
    qx = TokenDistribution.from_strings(probs)
    message = f"qx has {len(probs)} tokens, the scheme has n=4"
    with pytest.raises(ParameterError, match=message):
        monte_carlo(scheme, 0, 100, seed=1, qx=qx)
    with pytest.raises(ParameterError, match=message):
        sample(scheme, 0, 1, qx=qx)


MERSENNE_61 = 2**61 - 1


def next_prime(k: int) -> int:
    """Smallest prime at least k (k >= 2), by trial division."""
    while any(k % d == 0 for d in range(2, math.isqrt(k) + 1)):
        k += 1
    return k


@st.composite
def cell_masses(draw, size: int) -> list[F]:
    """`size` positive masses summing to 1.  All but the last are at most
    1/size: w/p with p the least prime at or above size*w, w/(2^61 - 1), or
    10^-30, whose float interval next to a large prefix has zero width.
    The last cell takes the rest."""
    masses = []
    for _ in range(size - 1):
        kind = draw(st.sampled_from(["prime", "mersenne", "tiny"]))
        if kind == "prime":
            w = draw(st.integers(1, 10**4))
            masses.append(F(w, next_prime(size * w)))
        elif kind == "mersenne":
            masses.append(F(draw(st.integers(1, MERSENNE_61 // size)), MERSENNE_61))
        else:
            masses.append(F(1, 10**30))
    return [*masses, 1 - sum(masses, F(0))]


miss_flags = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=30),
    # All miss or all hit: one run.
    st.builds(lambda size, flag: [flag] * size, st.integers(1, 30), st.booleans()),
    # Alternating: one run per cell.
    st.builds(
        lambda size, first: [(i + first) % 2 == 1 for i in range(size)],
        st.integers(1, 30),
        st.integers(0, 1),
    ),
)


@st.composite
def explicit_schemes(draw) -> WatermarkScheme:
    """A scheme on an explicit key set whose table m has one cell per key,
    all on token 1, in a drawn miss pattern: a missing cell's key holds a
    value other than m at token 1.  The remaining entries spell each key's
    number in base t+1, so every key is distinct."""
    t = draw(st.integers(1, 3))
    flags = [draw(miss_flags) for _ in range(t)]
    count = sum(map(len, flags))
    width = 0
    while (t + 1) ** width < count:
        width += 1
    length = max(t, 1 + width)
    keys, tables = [], []
    for m, table_flags in enumerate(flags, start=1):
        masses = draw(cell_masses(len(table_flags)))
        rows = {}
        for missed, mass in zip(table_flags, masses):
            first = draw(st.sampled_from([v for v in range(t + 1) if v != m])) if missed else m
            number, digits = len(keys), []
            for _ in range(length - 1):
                number, digit = divmod(number, t + 1)
                digits.append(digit)
            rows[len(keys)] = {1: mass}
            keys.append((first, *digits))
        tables.append(JointTable(m, rows))
    px = TokenDistribution.from_fractions([F(1, length)] * length)
    return WatermarkScheme.assemble(F(1, 2), px, ExplicitKeySet(keys, t), tables)


@st.composite
def queries_with_zero_mass(draw, n: int) -> TokenDistribution:
    """A qx on n tokens with weights 0..3: one token has positive weight
    and, for n >= 2, another has none."""
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    positive = draw(st.integers(0, n - 1))
    weights[positive] = max(weights[positive], 1)
    if n > 1:
        weights[(positive + draw(st.integers(1, n - 1))) % n] = 0
    total = sum(weights)
    return TokenDistribution.from_fractions([F(w, total) for w in weights])


@settings(max_examples=60, deadline=None)
@given(scheme=explicit_schemes(), seed=st.integers(0, 2**64), data=st.data())
def test_monte_carlo_matches_per_cell_reference(scheme, seed, data) -> None:
    # Integer prefixes give the Fraction-prefix CDF bit for bit, and the
    # counts from sorted draws give the hits of the per-cell search.  A
    # zero-mass token of qx has an empty interval, which no draw falls in.
    for table in scheme.tables:
        masses = [mass for _, _, mass in table.cells()]
        assert np.array_equal(_cdf(masses), reference_cdf(masses))
    for m in range(scheme.t + 1):
        assert monte_carlo(scheme, m, 2000, seed).hits == reference_hits(scheme, m, 2000, seed)
    qx = data.draw(queries_with_zero_mass(scheme.n))
    assert monte_carlo(scheme, 0, 2000, seed, qx).hits == reference_hits(
        scheme, 0, 2000, seed, qx=qx
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.fractions(min_value=0, max_value=1), st.just(F(1, 10**30))),
        min_size=1,
        max_size=40,
    )
)
def test_cdf_matches_fraction_prefixes(masses) -> None:
    assert np.array_equal(_cdf(masses), reference_cdf(masses))


class _ConstantDraws:
    """Stands in for numpy's Generator: every draw is the same value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def __call__(self, bit_generator) -> "_ConstantDraws":
        return self

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def tie_scheme() -> WatermarkScheme:
    # Keys (0,0), (1,0), (0,1).  Table 1's cells in enumeration order hit,
    # miss and hit, so its CDF entries 0.25, 0.5 and 1.0 each end a run;
    # pz puts 1/4 on key 1 and 3/4 on key 2, and px is (1/2, 1/2).
    keyset = ExplicitKeySet([(0, 0), (1, 0), (0, 1)], t=1)
    table = JointTable(1, {1: {1: F(1, 4)}, 2: {1: F(1, 4), 2: F(1, 2)}})
    return WatermarkScheme.assemble(
        F(1, 2), TokenDistribution.from_strings(["1/2", "1/2"]), keyset, [table]
    )


@pytest.mark.parametrize(
    "draw, m, hits, pair",
    [
        # 0.25 ends the first (hit) cell, so it falls in the miss cell.
        (0.25, 1, 3, (1, 2)),
        # m = 0: 0.25 ends key 1's pz mass, so the key is key 2 (nonzero at
        # token 2), while the token is token 1.
        (0.25, 0, 0, (1, 2)),
        # 0.5 ends token 1's px mass, so the token is token 2, which key 2
        # marks.
        (0.5, 0, 3, (2, 2)),
        # 0.0 lies in the first cell of every table: the hit cell (key 1,
        # token 1), and under m = 0 token 1 and key 1, which marks it.
        (0.0, 1, 0, (1, 1)),
        (0.0, 0, 3, (1, 1)),
    ],
)
def test_a_draw_equal_to_a_cdf_entry_belongs_to_the_next_cell(
    monkeypatch, draw, m, hits, pair
) -> None:
    monkeypatch.setattr(np.random, "Generator", _ConstantDraws(draw))
    scheme = tie_scheme()
    assert monte_carlo(scheme, m, 3, 0).hits == hits
    assert sample(scheme, m, 0) == pair


def test_one_estimate_peaks_at_three_draw_arrays() -> None:
    # On a heavy-40-shaped scheme, m = 0 holds its token draws, its key
    # draws and their sort order at once, and m >= 1 only its draws.  The
    # token draws go into the key draws' buffer in key order; a take()
    # without mode="clip" there would add a fourth array.
    scheme = construct_a(shuffled(one_heavy(40), 7), F(1, 2), 3)
    trials = 10**5
    for m in (0, 1):
        # The first estimate builds the scheme's cached views untraced.
        monte_carlo(scheme, m, 10, 0)
        tracemalloc.start()
        try:
            monte_carlo(scheme, m, trials, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * trials + 256 * 1024, (m, peak)


# Builds, checks, saves, exports and certifies without a draw, through the
# library and through every CLI command but simulate, then draws once.
COLD_START = """
import sys
from fractions import Fraction as F
from pathlib import Path

import keymark
import keymark.cli
from keymark import (
    TokenDistribution, build_primal, check_scheme, construct_a, construct_b,
    deserialize_scheme, enumerate_reduced_keyset, error_report, export_csv,
    monte_carlo, serialize_scheme, solve,
)

px = TokenDistribution.from_strings(["0.05", "0.1", "0.25", "0.6"])
for scheme in (construct_a(px, F(9, 10), 3), construct_b(px, F(9, 10), 3)):
    check_scheme(scheme)
    error_report(scheme)
    export_csv(deserialize_scheme(serialize_scheme(scheme)))
skewed = TokenDistribution.from_strings(["0.01", "0.04", "0.95"])
solve(build_primal(skewed, F(99, 100), 2, enumerate_reduced_keyset(3, 2)))
path = str(Path(sys.argv[1]) / "scheme.json")
instance = ["--px", "0.05,0.1,0.25,0.6", "--alpha", "0.9", "--t", "3"]
for argv in (
    ["construct", *instance, "--out", path],
    ["verify", path],
    ["optimal", *instance],
    ["lp", "--px", "0.01,0.04,0.95", "--alpha", "0.99", "--t", "2"],
    ["export", path],
):
    assert keymark.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded before the first draw"
monte_carlo(scheme, 1, 10, 0)
assert "numpy" in sys.modules, "monte_carlo ran without numpy"
"""


def test_numpy_loads_on_the_first_draw_only(tmp_path) -> None:
    # The child imports the same keymark sources as this process.
    env = {**os.environ, "PYTHONPATH": str(Path(keymark.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
