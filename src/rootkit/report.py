"""Lossless report documents and their JSON/CSV/table renderings.

Rationals are serialized as exact strings ("3", "-1/2"), never floats, and
all orderings are fixed at construction, so emitted documents are
byte-for-byte reproducible and parse back to equal values. The dataclasses
are the schema: JSON keys and CSV columns are their fields in declaration
order, and ``from_json`` rejects a field of the wrong JSON type, a key that
is not a field, and a schema version other than ``SCHEMA_VERSION``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields

from .classify import TheoremReport
from .core import RootSystem
from .linalg import vector, vector_strs

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class ReportRow:
    index: int
    bourbaki: int
    simple_root: tuple[str, ...]
    m: int
    m_dual: int
    special: bool
    cospecial: bool
    quasi_constant: bool
    dom_eq_levi_dom: bool
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class ReportDocument:
    schema_version: str
    ctype: str
    all_equivalent: bool
    highest_root: tuple[str, ...]
    highest_short: tuple[str, ...]
    rows: tuple[ReportRow, ...]


def document_from_report(s: RootSystem, report: TheoremReport) -> ReportDocument:
    rows = []
    for r in report.rows:
        rows.append(ReportRow(
            index=r.simple_index,
            bourbaki=r.simple_index + 1,
            simple_root=vector_strs(s.simples[r.simple_index]),
            m=r.m,
            m_dual=r.m_dual,
            special=r.special,
            cospecial=r.cospecial,
            quasi_constant=r.quasi_constant,
            dom_eq_levi_dom=r.dom_eq_levi_dom,
            witness=tuple(r.witness.letters) if r.witness is not None else None,
        ))
    return ReportDocument(
        schema_version=SCHEMA_VERSION,
        ctype=str(report.ctype),
        all_equivalent=report.all_equivalent,
        highest_root=vector_strs(report.highest_root),
        highest_short=vector_strs(report.highest_short),
        rows=tuple(rows),
    )


def to_json(doc: ReportDocument) -> str:
    """Every field in declaration order; tuples become arrays."""
    payload = {**vars(doc), "rows": [vars(r) for r in doc.rows]}
    return json.dumps(payload, indent=2) + "\n"


def _list_of(t):
    return lambda x: type(x) is list and all(type(e) is t for e in x)


# The JSON type each field must have, keyed by its annotation. json.loads
# yields exact types, so ``type(x) is int`` also rules out booleans.
_JSON_SHAPES = {
    "str": lambda x: type(x) is str,
    "int": lambda x: type(x) is int,
    "bool": lambda x: type(x) is bool,
    "tuple[str, ...]": _list_of(str),
    "tuple[int, ...] | None": lambda x: x is None or _list_of(int)(x),
    "tuple[ReportRow, ...]": lambda x: type(x) is list,
}


def _parse(cls, data):
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__}: expected a JSON object, got {data!r}")
    values = {}
    for f in fields(cls):
        if f.name not in data:
            raise ValueError(f"{cls.__name__}: missing field {f.name!r}")
        x = data[f.name]
        if not _JSON_SHAPES[f.type](x):
            raise ValueError(f"{cls.__name__}: field {f.name!r} has the wrong "
                             f"JSON type for {f.type}: {x!r}")
        if f.name == "schema_version" and x != SCHEMA_VERSION:
            raise ValueError(f"{cls.__name__}: field {f.name!r} is {x!r}, "
                             f"not {SCHEMA_VERSION!r}")
        if f.type == "tuple[str, ...]":
            try:
                x = vector_strs(vector(x))
            except ValueError as err:
                raise ValueError(f"{cls.__name__}: field {f.name!r} is not a "
                                 f"list of rationals: {x!r} ({err})") from None
        elif f.type == "tuple[ReportRow, ...]":
            x = tuple(_parse(ReportRow, r) for r in x)
        elif isinstance(x, list):
            x = tuple(x)
        values[f.name] = x
    unknown = sorted(data.keys() - values.keys())
    if unknown:
        raise ValueError(f"{cls.__name__}: unknown field {unknown[0]!r}")
    return cls(**values)


def from_json(text: str) -> ReportDocument:
    """Parse a document, checking the JSON type of every field.

    Raises ``ValueError`` naming the first missing, wrong-typed or unknown
    field, or a ``schema_version`` other than ``SCHEMA_VERSION``.
    Rationals come back in canonical form ("2/4" -> "1/2").
    """
    return _parse(ReportDocument, json.loads(text))


def _csv_cell(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, tuple):
        return " ".join(map(str, x))
    return "" if x is None else x


def to_csv(doc: ReportDocument) -> str:
    """One line per row: ``ctype`` and then the JSON row keys, in order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ctype", *(f.name for f in fields(ReportRow))])
    for r in doc.rows:
        writer.writerow([doc.ctype, *map(_csv_cell, vars(r).values())])
    return buf.getvalue()


def to_table(doc: ReportDocument) -> str:
    header = ["idx", "bourbaki", "simple root", "m", "m_dual", "special",
              "cospecial", "quasi_constant", "dom=levi_dom", "witness"]
    body = []
    for r in doc.rows:
        body.append([
            str(r.index),
            f"a{r.bourbaki}",
            "[" + ", ".join(r.simple_root) + "]",
            str(r.m),
            str(r.m_dual),
            "yes" if r.special else "no",
            "yes" if r.cospecial else "no",
            "yes" if r.quasi_constant else "no",
            "yes" if r.dom_eq_levi_dom else "no",
            "[" + " ".join(str(x) for x in r.witness) + "]" if r.witness is not None else "-",
        ])
    widths = [max(len(header[c]), *(len(row[c]) for row in body)) if body
              else len(header[c]) for c in range(len(header))]
    lines = [
        f"{doc.ctype}: all_equivalent={'yes' if doc.all_equivalent else 'no'}  "
        f"highest_root=[{', '.join(doc.highest_root)}]  "
        f"highest_short=[{', '.join(doc.highest_short)}]",
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
    ]
    for row in body:
        lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
