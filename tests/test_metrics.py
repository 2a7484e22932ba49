import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from layered_reference import (
    column_sum,
    reference_check_scheme,
    reference_decoded_sums,
    reference_row_sum_failures,
)
from keymark.construct_a import construct_a
from keymark.construct_b import construct_b
from keymark.core import (
    ExplicitKeySet,
    JointTable,
    KeySet,
    TokenDistribution,
    WatermarkScheme,
    add_mass,
    decode,
    enumerate_reduced_keyset,
)
from keymark.errors import ParameterError
from keymark.lp import bijective_keyset
from keymark.metrics import (
    PROPERTY_NAMES,
    PropertyCheck,
    _row_sum_failures,
    check_scheme,
    error_report,
    false_alarm_by_token,
    miss_detection,
    optimal_value,
    worst_false_alarm,
)
from keymark.rationals import mass_to_string
from keymark.serialize import export_csv
from keymark.sim import _table_support, monte_carlo

PX_A = TokenDistribution.from_strings(["0.05", "0.1", "0.25", "0.6"])
ALPHA_A = F(9, 10)


def golden_scheme() -> WatermarkScheme:
    return construct_a(PX_A, ALPHA_A, 3)


def mutate(scheme: WatermarkScheme, changes: dict[int, list[tuple[tuple[int, ...], int, F]]]) -> WatermarkScheme:
    """Apply per-message (key vector, token, delta) adjustments and reassemble."""
    from keymark.core import JointTable, add_mass

    tables = []
    for table in scheme.tables:
        rows: dict[int, dict[int, F]] = {}
        for idx, token, mass in table.cells():
            add_mass(rows, idx, token, mass)
        for key, token, delta in changes.get(table.m, []):
            add_mass(rows, scheme.keyset.index(key), token, delta)
        tables.append(JointTable(table.m, rows))
    return WatermarkScheme.assemble(
        scheme.alpha, scheme.px, scheme.keyset, tables, provenance=scheme.provenance
    )


def failed_names(report) -> set[str]:
    return {c.name for c in report.failures()}


def test_property_names_order() -> None:
    report = check_scheme(golden_scheme())
    assert tuple(c.name for c in report.checks) == PROPERTY_NAMES


def test_golden_scheme_passes_all_checks() -> None:
    report = check_scheme(golden_scheme())
    assert report.ok
    assert report.failures() == []
    assert "ok" in report.describe()


def test_constructed_schemes_pass_checks() -> None:
    px = TokenDistribution.from_strings(["0.1", "0.3", "0.6"])
    assert check_scheme(construct_b(px, F(4, 5), 2, force_pseudo=True)).ok
    assert check_scheme(construct_b(px, F(4, 5), 2)).ok


def test_column_sum_violation_detected() -> None:
    zero = (0, 0, 0, 0)
    bad = mutate(
        golden_scheme(),
        {1: [(zero, 4, F(-1, 10)), (zero, 3, F(1, 10))]},
    )
    report = check_scheme(bad)
    names = failed_names(report)
    assert "column-sum" in names
    assert "row-sum" not in names
    assert "alpha-bounded-total" not in names
    assert "mass" not in names
    failure = next(c for c in report.failures() if c.name == "column-sum")
    assert failure.location == "m=1, x=3"
    assert failure.expected == F(1, 4)
    assert failure.actual == F(1, 4) + F(1, 10)


def test_row_sum_violation_detected() -> None:
    # Shift mass between keys inside one column of the m=2 table only.
    bad = mutate(
        golden_scheme(),
        {2: [((0, 1, 2, 3), 4, F(-1, 80)), ((0, 0, 0, 0), 4, F(1, 80))]},
    )
    report = check_scheme(bad)
    names = failed_names(report)
    assert "row-sum" in names
    assert "column-sum" not in names
    assert "capped-column-sum" not in names
    assert "mass" not in names
    failure = next(c for c in report.failures() if c.name == "row-sum")
    assert failure.location == "key=0, m=2"


def test_capped_column_sum_violation_detected() -> None:
    # A column-and-row preserving swap that moves decode-to-1 mass off x=3.
    changes = [
        ((0, 2, 1, 3), 3, F(-1, 80)),
        ((0, 2, 1, 3), 4, F(1, 80)),
        ((0, 0, 0, 0), 3, F(1, 80)),
        ((0, 0, 0, 0), 4, F(-1, 80)),
    ]
    bad = mutate(golden_scheme(), {1: changes})
    report = check_scheme(bad)
    assert failed_names(report) == {"capped-column-sum"}
    failure = report.failures()[0]
    assert failure.location == "m=1, x=3"
    assert failure.expected == F(1, 4)
    assert failure.actual == F(1, 4) - F(1, 80)


def test_alpha_bound_violation_detected() -> None:
    # Move the unwatermarked reserve onto a marked key in every table.
    changes = [((0, 0, 0, 0), 4, F(-1, 10)), ((0, 2, 3, 1), 4, F(1, 10))]
    bad = mutate(golden_scheme(), {1: changes, 2: changes, 3: changes})
    report = check_scheme(bad)
    assert failed_names(report) == {"alpha-bounded-total"}
    failure = report.failures()[0]
    assert failure.location == "x=3"
    assert failure.expected == F(9, 10)
    assert failure.actual == F(1)


def test_negative_mass_detected() -> None:
    # The compensating move keeps the table total at 1 so assembly succeeds.
    changes = [((0, 0, 0, 0), 4, F(-2, 10)), ((0, 0, 0, 0), 3, F(2, 10))]
    bad = mutate(golden_scheme(), {1: changes})
    report = check_scheme(bad)
    names = failed_names(report)
    assert "mass" in names
    assert "column-sum" in names
    assert "row-sum" not in names
    failure = next(c for c in report.failures() if c.name == "mass")
    assert failure.location == "m=1, key=0, x=4"
    assert failure.actual == F(-1, 10)


def test_total_mass_violation_detected() -> None:
    # Inflate a non-reference table; the key marginal from m=1 stays valid.
    changes = [((0, 0, 0, 0), 4, F(1, 80))]
    bad = mutate(golden_scheme(), {2: changes})
    report = check_scheme(bad)
    names = failed_names(report)
    assert "mass" in names
    assert "capped-column-sum" not in names
    assert "alpha-bounded-total" not in names
    failure = next(c for c in report.failures() if c.name == "mass")
    assert failure.location == "m=2 total"
    assert failure.actual == 1 + F(1, 80)


def test_miss_detection_golden() -> None:
    scheme = golden_scheme()
    for m in (1, 2, 3):
        assert miss_detection(scheme, m) == F(3, 10)


def test_miss_detection_instance_b() -> None:
    px = TokenDistribution.from_strings(["0.1", "0.3", "0.6"])
    scheme = construct_b(px, F(4, 5), 2, force_pseudo=True)
    assert miss_detection(scheme, 1) == F(1, 5)
    assert miss_detection(scheme, 2) == F(1, 5)


def test_miss_detection_alpha_zero_is_one() -> None:
    px = TokenDistribution.from_strings(["0.25", "0.75"])
    scheme = construct_a(px, F(0), 2)
    assert miss_detection(scheme, 1) == 1


def test_miss_detection_rejects_bad_message() -> None:
    scheme = golden_scheme()
    with pytest.raises(ParameterError, match="worst_false_alarm"):
        miss_detection(scheme, 0)
    with pytest.raises(ParameterError):
        miss_detection(scheme, 4)


def test_worst_false_alarm_golden() -> None:
    assert worst_false_alarm(golden_scheme()) == F(9, 10)


def test_worst_false_alarm_instance_b() -> None:
    px = TokenDistribution.from_strings(["0.1", "0.3", "0.6"])
    scheme = construct_b(px, F(4, 5), 2, force_pseudo=True)
    assert worst_false_alarm(scheme) == F(4, 5)


def test_worst_false_alarm_is_attained_at_a_token() -> None:
    # The false alarm under any token distribution is a convex combination of
    # per-token alarms, so the reported worst case dominates random mixtures.
    scheme = golden_scheme()
    wfa = worst_false_alarm(scheme)
    per_token = []
    for x in range(1, scheme.n + 1):
        alarm = sum(
            (
                mass
                for idx, mass in scheme.pz.items()
                if scheme.keyset.key(idx)[x - 1] != 0
            ),
            F(0),
        )
        per_token.append(alarm)
    assert wfa == max(per_token)
    rng = random.Random(3)
    for _ in range(25):
        weights = [rng.randint(0, 5) for _ in per_token]
        if sum(weights) == 0:
            weights[0] = 1
        mixture = sum(w * a for w, a in zip(weights, per_token)) / sum(weights)
        assert mixture <= wfa


def test_optimal_value_examples() -> None:
    assert optimal_value(PX_A, ALPHA_A, 3) == F(3, 10)
    assert optimal_value(PX_A, F(0), 3) == 1
    skewed = TokenDistribution.from_strings(["0.01", "0.04", "0.95"])
    assert optimal_value(skewed, F(99, 100), 2) == F(91, 200)
    px = TokenDistribution.from_strings(["0.1", "0.3", "0.6"])
    assert optimal_value(px, F(4, 5), 2) == F(1, 5)


def test_optimal_value_validation() -> None:
    with pytest.raises(ParameterError):
        optimal_value(PX_A, F(1), 3)
    with pytest.raises(ParameterError):
        optimal_value(PX_A, F(1, 2), 5)


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=7).filter(sum),
    st.integers(min_value=0, max_value=98),
    st.integers(min_value=1, max_value=7),
)
def test_optimal_value_monotonic(weights: list[int], alpha_pct: int, t: int) -> None:
    t = min(t, len(weights))
    total = sum(weights)
    px = TokenDistribution.from_fractions(F(w, total) for w in weights)
    lo = optimal_value(px, F(alpha_pct, 100), t)
    hi = optimal_value(px, F(alpha_pct + 1, 100), t)
    assert 0 <= hi <= lo <= 1
    if t < px.n:
        assert optimal_value(px, F(alpha_pct, 100), t + 1) >= lo


def test_error_report_golden() -> None:
    report = error_report(golden_scheme())
    assert report.beta == (F(3, 10), F(3, 10), F(3, 10))
    assert report.worst_false_alarm == F(9, 10)
    assert report.optimal_value == F(3, 10)
    assert report.gap == 0


def test_error_report_instance_b() -> None:
    px = TokenDistribution.from_strings(["0.1", "0.3", "0.6"])
    report = error_report(construct_b(px, F(4, 5), 2, force_pseudo=True))
    assert report.beta == (F(1, 5), F(1, 5))
    assert report.gap == 0
    assert report.worst_false_alarm <= F(4, 5)


def random_scheme(keyset: KeySet, n: int, rng: random.Random) -> WatermarkScheme:
    """Random positive tables of total mass 1 over a key set; most fail checks."""
    px = TokenDistribution.from_fractions([F(1, n)] * n)
    tables = []
    for m in range(1, keyset.t + 1):
        cells = sorted({(rng.randrange(len(keyset)), rng.randint(1, n)) for _ in range(3 * n)})
        weights = [rng.randint(1, 9) for _ in cells]
        rows: dict[int, dict[int, F]] = {}
        for (idx, token), weight in zip(cells, weights):
            add_mass(rows, idx, token, F(weight, sum(weights)))
        tables.append(JointTable(m, rows))
    return WatermarkScheme.assemble(F(rng.randint(1, 9), 10), px, keyset, tables)


def view_cases() -> list[WatermarkScheme]:
    rng = random.Random(11)
    # A key that repeats a value: (1, 1, 2) decodes tokens 1 and 2 to m=1.
    repeats = ExplicitKeySet([(0, 0, 0), (1, 1, 2), (2, 0, 2), (0, 2, 1), (1, 0, 0)], t=2)
    px_unsorted = TokenDistribution.from_strings(["0.3", "0.05", "0.4", "0.1", "0.15"])
    cases = [
        construct_a(px_unsorted, F(3, 5), 3),
        construct_a(TokenDistribution.from_strings(["0.6", "0.02", "0.3", "0.08"]), F(1, 2), 3),
        construct_b(px_unsorted, F(1, 2), 2, force_pseudo=True),
    ]
    for _ in range(4):
        cases.append(random_scheme(enumerate_reduced_keyset(5, 3), 5, rng))
        cases.append(random_scheme(bijective_keyset(4, 3), 4, rng))
        cases.append(random_scheme(repeats, 3, rng))
    return cases


def reference_decodes(scheme: WatermarkScheme, m: int) -> list[int]:
    return [decode(token, scheme.keyset.key(idx)) for idx, token, _ in scheme.table(m).cells()]


def reference_marked(scheme: WatermarkScheme) -> list[F]:
    keys = {idx: scheme.keyset.key(idx) for idx in scheme.key_support()}
    return [
        sum((scheme.pz.get(idx, F(0)) for idx, key in keys.items() if key[x] != 0), F(0))
        for x in range(scheme.n)
    ]


def reference_capped_check(scheme: WatermarkScheme) -> PropertyCheck:
    cap = F(scheme.alpha, scheme.t)
    for table in scheme.tables:
        hit = [F(0)] * scheme.n
        for (_, token, mass), decoded in zip(table.cells(), reference_decodes(scheme, table.m)):
            if decoded == table.m:
                hit[token - 1] += mass
        for x in range(1, scheme.n + 1):
            floor = min(cap, scheme.px.probs[x - 1])
            if hit[x - 1] < floor:
                return PropertyCheck("capped-column-sum", False, f"m={table.m}, x={x}", floor, hit[x - 1])
    return PropertyCheck("capped-column-sum", True)


def test_decoded_view_consumers_match_per_cell_decode() -> None:
    outcomes = set()
    repeats_seen = False
    for scheme in view_cases():
        marked = reference_marked(scheme)
        over = [x for x, mass in enumerate(marked, start=1) if mass > scheme.alpha]
        bounded = (
            PropertyCheck("alpha-bounded-total", False, f"x={over[0]}", scheme.alpha, marked[over[0] - 1])
            if over
            else PropertyCheck("alpha-bounded-total", True)
        )
        checks = check_scheme(scheme).checks
        assert checks[2] == reference_capped_check(scheme)
        assert checks[3] == bounded
        outcomes.add((checks[2].passed, checks[3].passed))
        assert false_alarm_by_token(scheme) == marked
        assert worst_false_alarm(scheme) == max(marked)
        exact_alarm = sum((q * a for q, a in zip(scheme.px.probs, marked)), F(0))
        assert monte_carlo(scheme, 0, trials=10, seed=0).exact == exact_alarm
        for m in range(1, scheme.t + 1):
            decoded = reference_decodes(scheme, m)
            missed = [mass for (_, _, mass), d in zip(scheme.table(m).cells(), decoded) if d != m]
            assert miss_detection(scheme, m) == sum(missed, F(0))
            assert _table_support(scheme, m)[2].tolist() == decoded
        assert export_csv(scheme).strip().splitlines()[4:] == [
            f"{table.m},{idx},{' '.join(map(str, scheme.keyset.key(idx)))},{token},{mass_to_string(mass)}"
            for table in scheme.tables
            for idx, token, mass in table.cells()
        ]
        if (1, 1, 2) in scheme.keyset:
            repeats_seen |= scheme.keyset.index((1, 1, 2)) in scheme.key_support()
    assert repeats_seen
    # The cases reach both outcomes of both decode-reading properties.
    assert {passed for passed, _ in outcomes} == {True, False}
    assert {passed for _, passed in outcomes} == {True, False}


def test_decoded_sums_match_table_walks() -> None:
    for scheme in view_cases():
        view = scheme.decoded
        assert view.marked == tuple(reference_marked(scheme))
        for table in scheme.tables:
            decoded = reference_decodes(scheme, table.m)
            captured = [F(0)] * scheme.n
            for (_, token, mass), d in zip(table.cells(), decoded):
                if d == table.m:
                    captured[token - 1] += mass
            columns = [column_sum(table, x) for x in range(1, scheme.n + 1)]
            assert view.columns[table.m - 1] == tuple(columns)
            assert view.captured[table.m - 1] == tuple(captured)
            assert sum(columns, F(0)) == table.total_mass() == view.totals[table.m - 1]


# Pairwise-coprime denominators, so a sum over several of them needs their
# whole product as its common denominator.
PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, int(p**0.5) + 1))]


@st.composite
def hand_built_schemes(draw) -> WatermarkScheme:
    """Schemes that break every property in turn: prime denominators up to
    997, negative cells, keys missing from some tables, empty tables, and a
    key set with pseudo positions past n (as construct_b's), which pz keys
    may use."""
    n = draw(st.integers(2, 5))
    t = draw(st.integers(1, min(3, n)))
    keyset = enumerate_reduced_keyset(n + draw(st.integers(0, 2)), t)
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    px = TokenDistribution.from_fractions(F(w, sum(weights)) for w in weights)
    masses = st.builds(
        F, st.integers(-9, 30).filter(bool), st.sampled_from(PRIMES[:3] + PRIMES[-40:])
    )
    key_indices = st.integers(0, keyset.size - 1)
    support = draw(st.lists(key_indices, min_size=1, max_size=6, unique=True))
    tables = []
    for m in range(1, t + 1):
        if m > 1 and draw(st.booleans()):
            # Table 1's rows with their masses moved between tokens: equal
            # row sums, so property 2 can pass.
            rows = {
                idx: dict(zip(draw(st.permutations(range(1, n + 1))), row.values()))
                for idx, row in tables[0].rows.items()
            }
        elif draw(st.integers(0, 4)) == 0:
            rows = {}
        else:
            rows = {
                idx: draw(st.dictionaries(st.integers(1, n), masses, min_size=1, max_size=n))
                for idx in draw(st.lists(st.sampled_from(support), unique=True))
            }
        tables.append(JointTable(m, rows))
    pz = draw(st.dictionaries(st.one_of(st.sampled_from(support), key_indices), masses, max_size=6))
    last = draw(key_indices)
    pz[last] = 1 - sum((mass for idx, mass in pz.items() if idx != last), F(0))
    alpha = F(draw(st.integers(0, 9)), 10)
    return WatermarkScheme(n, t, alpha, px, keyset, tuple(tables), pz)


@seed(12)
@settings(max_examples=300, deadline=None)
@given(hand_built_schemes())
def test_integer_sums_match_fraction_reference(scheme: WatermarkScheme) -> None:
    columns, captured, marked = reference_decoded_sums(scheme)
    view = scheme.decoded
    assert view.columns == tuple(columns)
    assert view.captured == tuple(captured)
    assert view.marked == marked
    assert list(_row_sum_failures(view)) == list(reference_row_sum_failures(scheme))
    report = check_scheme(scheme)
    assert report == reference_check_scheme(scheme)
    assert [c.describe() for c in report.checks] == [
        c.describe() for c in reference_check_scheme(scheme).checks
    ]
    for m in range(1, scheme.t + 1):
        assert miss_detection(scheme, m) == sum(columns[m - 1], F(0)) - sum(captured[m - 1], F(0))


def test_checks_match_fraction_reference_on_built_schemes() -> None:
    schemes = [*view_cases(), mutate(golden_scheme(), {2: [((0, 0, 0, 0), 1, F(-1, 7))]})]
    reports = [check_scheme(scheme) for scheme in schemes]
    assert reports == [reference_check_scheme(scheme) for scheme in schemes]
    # Both outcomes of the row-sum and mass checks are reached.
    assert {r.checks[1].passed for r in reports} == {True, False}
    assert {r.checks[4].passed for r in reports} == {True, False}


def heavy_scheme(n: int = 40, t: int = 3, seed: int = 1) -> WatermarkScheme:
    """One 0.95 token plus n-1 seeded light tokens on the 10^-6 grid, in a
    shuffled order: the shape whose construction A stores about 14k cells."""
    rng = random.Random(seed)
    light = [rng.randint(500, 1500) for _ in range(n - 1)]
    units = [50_000 * w // sum(light) for w in light]
    units[0] += 50_000 - sum(units)
    probs = [F(950_000, 10**6)] + [F(u, 10**6) for u in units]
    rng.shuffle(probs)
    return construct_a(TokenDistribution.from_fractions(probs), F(1, 2), t)


def test_check_and_report_work_does_not_grow_with_cells(monkeypatch) -> None:
    scheme = heavy_scheme()
    cells = sum(len(row) for table in scheme.tables for row in table.rows.values())
    assert cells > 10_000
    additions = 0

    def counting(add):
        def wrapped(a, b):
            nonlocal additions
            additions += 1
            return add(a, b)

        return wrapped

    monkeypatch.setattr(F, "__add__", counting(F.__add__))
    monkeypatch.setattr(F, "__radd__", counting(F.__radd__))
    report = check_scheme(scheme)
    errors = error_report(scheme)
    monkeypatch.undo()
    assert report.ok and errors.gap == 0
    assert 0 < additions <= 4 * scheme.n * scheme.t
