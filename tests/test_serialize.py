import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_output_digests import ALPHA, INSTANCES, T
from keymark.construct_a import construct_a
from keymark.construct_b import construct_b
from keymark.core import (
    ExplicitKeySet,
    JointTable,
    ReducedKeySet,
    TokenDistribution,
    WatermarkScheme,
    enumerate_reduced_keyset,
)
from keymark.errors import ParameterError, ValidationError
from keymark.lp import bijective_keyset
from keymark.metrics import check_scheme, error_report
from keymark.serialize import (
    DOCUMENT_VERSION,
    deserialize_scheme,
    export_csv,
    load_scheme,
    save_scheme,
    serialize_scheme,
)

PX_A = TokenDistribution.from_strings(["0.05", "0.1", "0.25", "0.6"])


def tiny_scheme() -> WatermarkScheme:
    keyset = ExplicitKeySet([(0, 0), (1, 0), (0, 1)], t=1)
    table = JointTable(1, {0: {1: Fraction(1, 2)}, 1: {1: Fraction(1, 4)}, 2: {2: Fraction(1, 4)}})
    px = TokenDistribution.from_strings(["0.75", "0.25"])
    return WatermarkScheme.assemble(Fraction(1, 2), px, keyset, [table])


def assert_same_scheme(a: WatermarkScheme, b: WatermarkScheme) -> None:
    assert (a.n, a.t, a.alpha) == (b.n, b.t, b.alpha)
    assert a.px.probs == b.px.probs
    assert a.keyset.kind == b.keyset.kind
    assert list(a.keyset) == list(b.keyset)
    for ta, tb in zip(a.tables, b.tables):
        assert dict(ta.rows) == dict(tb.rows)
    assert dict(a.pz) == dict(b.pz)


def test_round_trip_explicit_keyset() -> None:
    scheme = tiny_scheme()
    doc = serialize_scheme(scheme)
    assert doc["version"] == DOCUMENT_VERSION
    assert doc["keyset"]["keys"] == [[0, 0], [1, 0], [0, 1]]
    assert_same_scheme(scheme, deserialize_scheme(doc))


def test_round_trip_constructed_scheme(tmp_path: Path) -> None:
    scheme = construct_a(PX_A, Fraction(9, 10), 3)
    doc = serialize_scheme(scheme)
    # The reduced key set is restored from parameters, not a key list.
    assert "keys" not in doc["keyset"]
    restored = deserialize_scheme(doc)
    assert_same_scheme(scheme, restored)
    path = tmp_path / "scheme.json"
    save_scheme(scheme, path)
    assert_same_scheme(scheme, load_scheme(path))
    # The file is genuine JSON with string masses.
    raw = json.loads(path.read_text())
    assert raw["px"] == ["0.05", "0.1", "0.25", "0.6"]
    assert all(isinstance(cell[2], str) for cell in raw["tables"]["1"])


def test_pz_recomputed_from_first_table() -> None:
    scheme = tiny_scheme()
    restored = deserialize_scheme(serialize_scheme(scheme))
    assert restored.pz == {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}


@pytest.mark.parametrize(
    ("mutate", "message_part"),
    [
        (lambda d: d.update(version=2), "version"),
        (lambda d: d.pop("px"), "px"),
        (lambda d: d["tables"].pop("1"), "m=1"),
        (lambda d: d["tables"]["1"].append([0, 1, "-0.1"]), "not positive"),
        (lambda d: d["tables"]["1"].append([0, 1, "0"]), "not positive"),
        (lambda d: d["tables"]["1"].append([99, 1, "0.1"]), "out of range"),
        (lambda d: d["tables"]["1"].append([0, 9, "0.1"]), "outside"),
        (lambda d: d["tables"]["1"].append(d["tables"]["1"][0]), "duplicate"),
        (lambda d: d["tables"]["1"].__setitem__(0, [0, 1]), "expected"),
        (lambda d: d["keyset"].update(kind="mystery"), "unknown kind"),
        (lambda d: d.update(px=["0.5", "0.5", "0"]), "entries"),
        (lambda d: d.update(tables=list(d["tables"].values())), "'tables' must be an object"),
        (lambda d: d["tables"]["1"].__setitem__(0, 7), "key_index, token, mass"),
        (lambda d: d.update(n="2"), "'n' must be an integer"),
        (lambda d: d.update(t=True), "'t' must be an integer"),
        (lambda d: d.update(px="0.75,0.25"), "'px' must be a list"),
        (lambda d: d.update(keyset=[]), "'keyset' must be an object"),
        (lambda d: d["keyset"]["keys"].__setitem__(0, 5), r"keys\[0\] must be a list"),
        (lambda d: d["keyset"]["keys"].__setitem__(0, ["0", 0]), "entries must be an integer"),
        (lambda d: d["tables"].update({"1": {}}), "table m=1 must be a list"),
        (lambda d: d.update(provenance=[]), "'provenance' must be an object"),
        (lambda d: d["keyset"].update(t=2), "does not fit"),
        (lambda d: d["tables"]["1"].__setitem__(0, [True, 2, "0.05"]), "key index must be an int"),
        (lambda d: d["tables"]["1"].__setitem__(0, [1, True, "0.05"]), "token must be an int"),
        (lambda d: d.update(version=True), "'version' must be an integer"),
        (lambda d: d["tables"].update({"2": d["tables"]["1"]}), r"unexpected entries \['2'\]"),
        (lambda d: d["tables"].update({"0": []}), r"unexpected entries \['0'\] for t=1"),
        # A bad mass names its place: table, px entry or alpha.
        (lambda d: d["tables"]["1"][1].__setitem__(2, "abc"), r"^tables\.1\[1\]: cannot parse"),
        (lambda d: d["tables"]["1"][2].__setitem__(2, "1/0"), r"^tables\.1\[2\]: cannot parse"),
        (lambda d: d["tables"]["1"][0].__setitem__(2, []), r"^tables\.1\[0\]: expected a string"),
        (lambda d: d["tables"]["1"][0].__setitem__(2, {}), r"^tables\.1\[0\]: expected a string"),
        (lambda d: d["tables"]["1"][0].__setitem__(2, 1), r"^tables\.1\[0\]: expected a string"),
        (lambda d: d["px"].__setitem__(1, "1e-1"), r"^px\[1\]: not a plain decimal"),
        (lambda d: d["px"].__setitem__(0, None), r"^px\[0\]: expected a string"),
        (lambda d: d.update(alpha="half"), r"^alpha: cannot parse"),
    ],
)
def test_deserialize_rejects_bad_documents(mutate, message_part: str) -> None:
    doc = serialize_scheme(tiny_scheme())
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    with pytest.raises(ValidationError, match=message_part):
        deserialize_scheme(doc)


def test_equal_masses_in_two_spellings_load_equal() -> None:
    canonical = json.loads(json.dumps(serialize_scheme(construct_a(PX_A, Fraction(9, 10), 3))))
    doc = json.loads(json.dumps(canonical))
    same = [cell for cell in doc["tables"]["1"] if cell[2] == "0.05"][:2]
    assert len(same) == 2
    same[0][2] = "1/20"
    scheme = deserialize_scheme(doc)
    first, second = (scheme.tables[0].cell(key, token) for key, token, _ in same)
    assert first == second == Fraction(1, 20)
    assert check_scheme(scheme).ok
    # Saving writes the canonical spelling back.
    assert serialize_scheme(scheme) == canonical


@pytest.mark.parametrize("text", ["-0.1", "0", "abc", "1/0"])
def test_shared_bad_mass_names_its_first_cell(text: str) -> None:
    doc = json.loads(json.dumps(serialize_scheme(construct_a(PX_A, Fraction(9, 10), 3))))
    for m, position in (("3", 0), ("2", 4), ("2", 1)):
        doc["tables"][m][position][2] = text
    with pytest.raises(ValidationError, match=r"^tables\.2\[1\]: "):
        deserialize_scheme(doc)


def _paths(node, prefix=()):
    """(container path, key) of every value in a JSON document, depth first.

    Only the first two items of a list are visited; the rest repeat their
    structure.
    """
    items = node.items() if isinstance(node, dict) else list(enumerate(node))[:2]
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*prefix, key))


DROP = object()
# Dropped fields, values of other JSON kinds (bools too), integers out of
# range and malformed mass strings.
MUTATIONS = [
    DROP,
    *(None, True, False, 0, 1, 2.5, "", "x", [], {}, [1, 2, 3]),
    *(-(10**30), -2, -1, 3, 5, 26, 10**20, 10**30),
    *("abc", "1/0", "0/0", "1e-3", "nan", "inf", "-0.1", "1/-2", "0.5.5", "1//2", "2"),
]
FUZZ_DOCS = [
    serialize_scheme(tiny_scheme()),
    serialize_scheme(construct_a(PX_A, Fraction(9, 10), 3)),
]


def _mutate(doc, prefix, key, value) -> None:
    parent = doc
    for step in prefix:
        parent = parent[step]
    if value is DROP:
        del parent[key]
    else:
        parent[key] = json.loads(json.dumps(value))


def _load_typed(doc) -> None:
    """Load a mutated document; it may load, or fail with a typed input error."""
    try:
        deserialize_scheme(doc)
    except (ValidationError, ParameterError):
        pass


def test_every_single_mutation_loads_or_fails_typed() -> None:
    for source in FUZZ_DOCS:
        for prefix, key in _paths(source):
            for value in MUTATIONS:
                doc = json.loads(json.dumps(source))
                _mutate(doc, prefix, key, value)
                _load_typed(doc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_DOCS), st.data())
def test_mutated_documents_load_or_fail_typed(source, data) -> None:
    doc = json.loads(json.dumps(source))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = data.draw(st.sampled_from(paths), label="path")
        _mutate(doc, prefix, key, data.draw(st.sampled_from(MUTATIONS), label="value"))
    _load_typed(doc)


def test_load_scheme_reports_json_errors(tmp_path: Path) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"version\": 1,\n")
    with pytest.raises(ValidationError, match="line"):
        load_scheme(path)
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ValidationError, match="object"):
        load_scheme(path)


def test_export_csv_layout() -> None:
    scheme = tiny_scheme()
    text = export_csv(scheme)
    lines = text.strip().splitlines()
    assert lines[0] == "# n,2"
    assert lines[1] == "# t,1"
    assert lines[2] == "# alpha,0.5"
    assert lines[3] == "m,key_index,key,token,mass"
    assert lines[4:] == [
        "1,0,0 0,1,0.5",
        "1,1,1 0,1,0.25",
        "1,2,0 1,2,0.25",
    ]


def test_export_csv_constructed_scheme() -> None:
    scheme = construct_a(PX_A, Fraction(9, 10), 3)
    lines = export_csv(scheme).strip().splitlines()
    # 3 parameter rows + header + one row per stored cell.
    cell_count = sum(len(list(table.cells())) for table in scheme.tables)
    assert len(lines) == 4 + cell_count
    keyset = enumerate_reduced_keyset(4, 3)
    zero_row = f"1,{keyset.zero_index},0 0 0 0,4,0.1"
    assert zero_row in lines


def bijective_scheme() -> WatermarkScheme:
    """px = 1/3 each on the 3/2 bijective family: under each message, every
    token sits on the one nonzero key that decodes it to that message."""
    keyset = bijective_keyset(3, 2)
    third = Fraction(1, 3)
    px = TokenDistribution((third,) * 3)
    tables = [
        JointTable(
            m,
            {k: {x: third} for k, key in enumerate(keyset) for x, v in enumerate(key, 1) if v == m},
        )
        for m in (1, 2)
    ]
    return WatermarkScheme.assemble(Fraction(9, 10), px, keyset, tables)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_round_trip_compares_equal(name: str) -> None:
    px = INSTANCES[name][0]
    for scheme in (construct_a(px, ALPHA, T), construct_b(px, ALPHA, T)):
        loaded = deserialize_scheme(json.loads(json.dumps(serialize_scheme(scheme))))
        assert loaded == scheme
        assert loaded.keyset is not scheme.keyset


def within_rows(cells: list, rng: random.Random) -> None:
    """Move each key's first cell to the end of its row; keys stay in order."""
    rows: dict[int, list] = {}
    for cell in cells:
        rows.setdefault(cell[0], []).append(cell)
    cells[:] = [cell for row in rows.values() for cell in [*row[1:], row[0]]]


SHUFFLES = {
    "within rows": within_rows,
    "rows reversed": lambda cells, rng: cells.sort(key=lambda cell: -cell[0]),
    "cells reversed": lambda cells, rng: cells.reverse(),
    "across rows": lambda cells, rng: rng.shuffle(cells),
}


@pytest.mark.parametrize("shuffle", sorted(SHUFFLES))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_shuffled_documents_load_to_the_same_scheme(
    name: str, shuffle: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # A document in save order is adopted as it is read; one in any other
    # order is sorted by JointTable, to the same scheme in the same order.
    sorts = []
    checked = JointTable.__post_init__
    monkeypatch.setattr(JointTable, "__post_init__", lambda table: sorts.append(checked(table)))
    px = INSTANCES[name][0]
    rng = random.Random(f"{name}:{shuffle}")
    for scheme in (construct_a(px, ALPHA, T), construct_b(px, ALPHA, T)):
        text = json.dumps(serialize_scheme(scheme))
        sorts.clear()
        assert deserialize_scheme(json.loads(text)) == scheme
        assert sorts == []
        doc = json.loads(text)
        for cells in doc["tables"].values():
            SHUFFLES[shuffle](cells, rng)
        # Only a scheme whose rows each hold one cell keeps its order within rows.
        moved = json.dumps(doc) != text
        assert moved or shuffle == "within rows" and all(
            len(row) == 1 for table in scheme.tables for row in table.rows.values()
        )
        loaded = deserialize_scheme(doc)
        assert bool(sorts) == moved
        assert loaded == scheme
        assert [list(t.cells()) for t in loaded.tables] == [list(t.cells()) for t in scheme.tables]
        assert json.dumps(serialize_scheme(loaded)) == text
        assert check_scheme(loaded) == check_scheme(scheme)
        assert error_report(loaded) == error_report(scheme)


def test_duplicate_cell_in_an_ordered_document_is_refused() -> None:
    doc = json.loads(json.dumps(serialize_scheme(construct_a(PX_A, Fraction(9, 10), 3))))
    cells = doc["tables"]["2"]
    # The copy follows its cell, so every (key, token) before it is in order.
    cells.insert(4, [*cells[3][:2], "0.001"])
    with pytest.raises(ValidationError, match=r"^tables\.2\[4\]: duplicate cell for token"):
        deserialize_scheme(doc)


def test_round_trip_bijective_scheme_compares_equal() -> None:
    scheme = bijective_scheme()
    assert check_scheme(scheme).ok
    assert deserialize_scheme(json.loads(json.dumps(serialize_scheme(scheme)))) == scheme
    # The same keys under another kind are another key set, so another scheme.
    plain_list = ExplicitKeySet(list(scheme.keyset), 2)
    assert dataclasses.replace(scheme, keyset=plain_list) != scheme


def test_keysets_compare_by_value() -> None:
    keys = [(0, 0), (1, 0), (0, 1)]
    equal = [
        (ReducedKeySet(4, 2), ReducedKeySet(4, 2)),
        (ExplicitKeySet(keys, 1), ExplicitKeySet(list(keys), 1)),
        (bijective_keyset(3, 2), bijective_keyset(3, 2)),
    ]
    for a, b in equal:
        assert a == b and hash(a) == hash(b)
    unequal = {
        "length": (ReducedKeySet(4, 2), ReducedKeySet(5, 2)),
        "reduced t": (ReducedKeySet(4, 2), ReducedKeySet(4, 3)),
        "explicit t": (ExplicitKeySet(keys, 1), ExplicitKeySet(keys, 2)),
        "kind": (ExplicitKeySet(keys, 1), ExplicitKeySet(keys, 1, kind="bijective")),
        "key order": (ExplicitKeySet(keys, 1), ExplicitKeySet(keys[::-1], 1)),
        "class": (ReducedKeySet(2, 1), ExplicitKeySet(ReducedKeySet(2, 1), 1, kind="reduced")),
    }
    for name, (a, b) in unequal.items():
        assert a != b, name
