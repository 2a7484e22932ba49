"""Versioned scheme documents: JSON round-trip and CSV export.

The document is a plain dict (JSON-ready).  Masses serialize through
mass_to_string, so the canonical form is an exact decimal when the
denominator allows one and "p/q" otherwise.  The key marginal pz is not
stored: a scheme derives it from the row sums of the m=1 table.

A scheme holds far fewer distinct masses than cells, so each distinct mass
is formatted once on save, and each distinct mass text is parsed and
checked once on load, its cells sharing the one Fraction.  A bad mass is a
ValidationError that names the first place it occurs.  Cells are saved by
key, then token: a table read in that order is adopted without a copy or
sort, and one in any other order is sorted, each cell checked either way.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .core import (
    ENUMERATION_CAP,
    ExplicitKeySet,
    JointTable,
    KeySet,
    ReducedKeySet,
    TokenDistribution,
    WatermarkScheme,
    check_listing,
)
from .errors import ParameterError, ValidationError
from .rationals import mass_to_string, parse_mass

__all__ = [
    "DOCUMENT_VERSION",
    "serialize_scheme",
    "deserialize_scheme",
    "save_scheme",
    "load_scheme",
    "export_csv",
]

DOCUMENT_VERSION = 1


def serialize_scheme(scheme: WatermarkScheme) -> dict[str, Any]:
    keyset_doc: dict[str, Any] = {
        "kind": scheme.keyset.kind,
        "length": scheme.keyset.length,
        "t": scheme.keyset.t,
    }
    if not isinstance(scheme.keyset, ReducedKeySet):
        keyset_doc["keys"] = [list(k) for k in scheme.keyset]
    # Keyed by identity: the tables keep every mass alive while this runs,
    # and a Fraction hash per cell costs about as much as formatting it.
    texts: dict[int, str] = {}
    tables: dict[str, list[list[Any]]] = {}
    for table in scheme.tables:
        cells = tables[str(table.m)] = []
        for key_index, row in table.rows.items():
            for token, mass in row.items():
                text = texts.get(id(mass))
                if text is None:
                    text = texts[id(mass)] = mass_to_string(mass)
                cells.append([key_index, token, text])
    return {
        "version": DOCUMENT_VERSION,
        "n": scheme.n,
        "t": scheme.t,
        "alpha": mass_to_string(scheme.alpha),
        "px": [mass_to_string(p) for p in scheme.px.probs],
        "keyset": keyset_doc,
        "tables": tables,
        "provenance": dict(scheme.provenance),
    }


_KIND_NAMES = {int: "an integer", list: "a list", dict: "an object"}


def _check_kind(value: Any, kind: type, what: str) -> Any:
    """Return value if it is a JSON value of the given kind (bools are not ints)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{what} must be {_KIND_NAMES[kind]}, got {type(value).__name__}")
    return value


def _require(doc: Mapping[str, Any], field: str, where: str, kind: type | None = None) -> Any:
    if field not in doc:
        raise ValidationError(f"{where}: missing field {field!r}")
    if kind is None:
        return doc[field]
    return _check_kind(doc[field], kind, f"{where}: {field!r}")


def _parse_at(text: Any, where: str) -> Fraction:
    try:
        return parse_mass(text)
    except ParameterError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _positive_mass(text: Any, where: str) -> Fraction:
    mass = _parse_at(text, where)
    if mass <= 0:
        raise ValidationError(f"{where}: mass {text!r} is not positive")
    return mass


def _parse_keyset(doc: Any) -> KeySet:
    _check_kind(doc, dict, "document: 'keyset'")
    kind = _require(doc, "kind", "keyset")
    length = _require(doc, "length", "keyset", int)
    t = _require(doc, "t", "keyset", int)
    if kind == "reduced":
        return ReducedKeySet(length, t)
    if kind in ("bijective", "explicit-list"):
        keys = _require(doc, "keys", "keyset", list)
        for position, key in enumerate(keys):
            for value in _check_kind(key, list, f"keyset.keys[{position}]"):
                _check_kind(value, int, f"keyset.keys[{position}] entries")
        return ExplicitKeySet(keys, t, kind=kind)
    raise ValidationError(f"keyset: unknown kind {kind!r}")


def deserialize_scheme(doc: Mapping[str, Any]) -> WatermarkScheme:
    version = _require(doc, "version", "document", int)
    if version != DOCUMENT_VERSION:
        raise ValidationError(f"document: unsupported version {version!r}")
    n = _require(doc, "n", "document", int)
    t = _require(doc, "t", "document", int)
    alpha = _parse_at(_require(doc, "alpha", "document"), "alpha")
    px_texts = _require(doc, "px", "document", list)
    if len(px_texts) != n:
        raise ValidationError(f"document: px has {len(px_texts)} entries, n={n}")
    px = TokenDistribution.from_fractions(
        _parse_at(text, f"px[{position}]") for position, text in enumerate(px_texts)
    )
    keyset = _parse_keyset(_require(doc, "keyset", "document"))
    if keyset.t != t or keyset.length < n:
        raise ValidationError(
            f"keyset: length={keyset.length}, t={keyset.t} does not fit n={n}, t={t}"
        )
    tables_doc = _require(doc, "tables", "document", dict)
    names = {str(m) for m in range(1, t + 1)}
    stray = [name for name in tables_doc if name not in names]
    if stray:
        raise ValidationError(f"tables: unexpected entries {stray} for t={t}")
    # Each distinct mass text is parsed and checked once; its cells share
    # the Fraction.  Other JSON values ([] and {} are unhashable) are not
    # memoised and fail in _positive_mass.
    masses: dict[str, Fraction] = {}
    tables: list[JointTable] = []
    size = keyset.size
    for m in range(1, t + 1):
        cells = tables_doc.get(str(m))
        if cells is None:
            raise ValidationError(f"tables: missing table for m={m}")
        _check_kind(cells, list, f"tables: table m={m}")
        rows: dict[int, dict[int, Fraction]] = {}
        ordered, last_key, last_token, row = True, -1, 0, {}  # in save order?
        # A cell's place is formatted only when it is needed: on a failure,
        # or on the first parse of a mass text.
        for position, cell in enumerate(cells):
            if not isinstance(cell, list) or len(cell) != 3:
                raise ValidationError(f"tables.{m}[{position}]: expected [key_index, token, mass]")
            key_index, token, mass_text = cell
            if type(key_index) is not int or type(token) is not int:
                _check_kind(key_index, int, f"tables.{m}[{position}]: key index")
                _check_kind(token, int, f"tables.{m}[{position}]: token")
            if not 0 <= key_index < size:
                raise ValidationError(
                    f"tables.{m}[{position}]: key index {key_index} out of range"
                )
            if not 1 <= token <= n:
                raise ValidationError(f"tables.{m}[{position}]: token {token} outside [1:{n}]")
            if isinstance(mass_text, str):
                mass = masses.get(mass_text)
                if mass is None:
                    mass = masses[mass_text] = _positive_mass(mass_text, f"tables.{m}[{position}]")
            else:
                mass = _positive_mass(mass_text, f"tables.{m}[{position}]")
            if key_index != last_key:
                ordered &= key_index > last_key
                last_key, last_token = key_index, 0
                row = rows.setdefault(key_index, {})
            ordered &= token > last_token
            last_token = token
            if token in row:
                raise ValidationError(f"tables.{m}[{position}]: duplicate cell for token {token}")
            row[token] = mass
        tables.append(JointTable.unchecked(m, rows) if ordered else JointTable(m, rows))
    provenance = _check_kind(doc.get("provenance", {}), dict, "document: 'provenance'")
    return WatermarkScheme.assemble(alpha, px, keyset, tables, provenance=provenance)


def save_scheme(scheme: WatermarkScheme, path: str | Path) -> None:
    Path(path).write_text(json.dumps(serialize_scheme(scheme), indent=2) + "\n")


def load_scheme(path: str | Path) -> WatermarkScheme:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: document must be a JSON object")
    return deserialize_scheme(doc)


def export_csv(scheme: WatermarkScheme) -> str:
    """One row per stored (m, key, token, mass) cell, after a parameter block."""
    # Each row spells its key out in full.
    check_listing(scheme.keyset.length, "key entries per CSV row", ENUMERATION_CAP)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["# n", scheme.n])
    writer.writerow(["# t", scheme.t])
    writer.writerow(["# alpha", mass_to_string(scheme.alpha)])
    writer.writerow(["m", "key_index", "key", "token", "mass"])
    texts: dict[int, str] = {}
    for key_index, pairs in scheme.decoded.keys.items():
        entries = ["0"] * scheme.keyset.length
        for pos, value in pairs:
            entries[pos] = str(value)
        texts[key_index] = " ".join(entries)
    for table in scheme.tables:
        for key_index, token, mass in table.cells():
            writer.writerow([table.m, key_index, texts[key_index], token, mass_to_string(mass)])
    return out.getvalue()
