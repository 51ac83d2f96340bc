"""Versioned JSON forms for spaces and complexes.

Space files carry `points` plus exactly one of `opens`, `min_opens`, or
`leq`.  The optional `format` field pins the schema version.  Relation
input is completed to a preorder by reflexive-transitive closure before
the Alexandrov construction.
"""

from __future__ import annotations

import json
from pathlib import Path

from .complexes import ChainComplex
from .matrices import IntMatrix
from .spaces import FiniteSpace, from_min_opens, from_preorder, preorder_from_relation

SPACE_FORMAT = "finsplice-space/1"
COMPLEX_FORMAT = "finsplice-complex/1"
REPORT_FORMAT = "finsplice-report/1"


class SpaceFormatError(ValueError):
    """Space file does not follow the documented schema."""


def space_to_dict(space: FiniteSpace) -> dict:
    return {
        "format": SPACE_FORMAT,
        "points": list(space.points),
        "opens": [list(o) for o in space.opens],
    }


def _strings(value, message: str) -> tuple[str, ...]:
    """The value as a tuple of strings, if it is a JSON array of strings."""
    if not isinstance(value, list) or not all(isinstance(p, str) for p in value):
        raise SpaceFormatError(message)
    return tuple(value)


def space_from_dict(data: dict) -> FiniteSpace:
    if not isinstance(data, dict):
        raise SpaceFormatError("space file must hold a JSON object")
    fmt = data.get("format", SPACE_FORMAT)
    if fmt != SPACE_FORMAT:
        raise SpaceFormatError(f"unsupported format {fmt!r}, expected {SPACE_FORMAT!r}")
    if "points" not in data:
        raise SpaceFormatError("missing required field 'points'")
    points = _strings(data["points"], "'points' must be an array of strings")
    given = [key for key in ("opens", "min_opens", "leq") if key in data]
    if len(given) != 1:
        raise SpaceFormatError("exactly one of 'opens', 'min_opens', or 'leq' is required")
    key = given[0]
    value = data[key]
    if key == "opens":
        message = "'opens' must be an array of arrays of strings"
        if not isinstance(value, list):
            raise SpaceFormatError(message)
        return FiniteSpace(points, tuple(_strings(o, message) for o in value))
    if key == "min_opens":
        message = "'min_opens' must map each point to an array of points"
        if not isinstance(value, dict):
            raise SpaceFormatError(message)
        return from_min_opens(points, {k: _strings(v, message) for k, v in value.items()})
    message = "'leq' must be an array of two-element arrays of strings"
    if not isinstance(value, list):
        raise SpaceFormatError(message)
    pairs = [_strings(pair, message) for pair in value]
    if any(len(pair) != 2 for pair in pairs):
        raise SpaceFormatError(message)
    return from_preorder(preorder_from_relation(points, pairs))


def load_space(path: str | Path) -> FiniteSpace:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise SpaceFormatError(f"not valid JSON: {exc}") from exc
    return space_from_dict(data)


def dump_space(space: FiniteSpace, path: str | Path) -> None:
    Path(path).write_text(dumps(space_to_dict(space)), encoding="utf-8")


def complex_to_dict(complex_: ChainComplex) -> dict:
    return {
        "format": COMPLEX_FORMAT,
        "direction": complex_.direction,
        "basis": [list(labels) for labels in complex_.basis],
        "maps": [
            {"rows": m.rows, "cols": m.cols, "entries": m.to_lists()}
            for m in complex_.maps
        ],
    }


def complex_from_dict(data: dict) -> ChainComplex:
    if data.get("format", COMPLEX_FORMAT) != COMPLEX_FORMAT:
        raise ValueError(f"unsupported complex format {data.get('format')!r}")
    maps = tuple(
        IntMatrix(m["rows"], m["cols"], tuple(tuple(row) for row in m["entries"]))
        for m in data["maps"]
    )
    return ChainComplex(data["direction"], tuple(tuple(b) for b in data["basis"]), maps)


def dumps(payload: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
