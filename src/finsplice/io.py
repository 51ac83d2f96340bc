"""Versioned JSON forms for spaces, and the report writer.

Space files carry `points` plus exactly one of `opens`, `min_opens`, or
`leq`.  The optional `format` field pins the schema version.  Relation
input is completed to a preorder by reflexive-transitive closure; only
`opens` input and the written form list the opens.  Space files are the
one outside input, so they are checked here.  Reports are written by
`dumps`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .spaces import Preorder, from_min_opens, from_preorder, preorder_from_relation, validate_topology

SPACE_FORMAT = "finsplice-space/1"
REPORT_FORMAT = "finsplice-report/1"


class SpaceFormatError(ValueError):
    """Space file does not follow the documented schema."""


def space_to_dict(space: Preorder) -> dict:
    return {
        "format": SPACE_FORMAT,
        "points": list(space.points),
        "opens": [list(o) for o in space.opens],
    }


def _strings(value, message: str) -> tuple[str, ...]:
    """The value as a tuple of strings, if it is a JSON array of UTF-8-encodable strings.

    A JSON `\\ud800` escape decodes to a lone surrogate, which no output
    stream can write as UTF-8; like a file that is not UTF-8, it is an
    input error.
    """
    if not isinstance(value, list) or not all(isinstance(p, str) for p in value):
        raise SpaceFormatError(message)
    for p in value:
        if not p.isascii():
            try:
                p.encode("utf-8")
            except UnicodeEncodeError:
                raise SpaceFormatError(f"string {ascii(p)} cannot be encoded as UTF-8") from None
    return tuple(value)


def space_from_dict(data: dict) -> Preorder:
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
        return validate_topology(points, [_strings(o, message) for o in value])
    if key == "min_opens":
        message = "'min_opens' must map each point to an array of points"
        if not isinstance(value, dict):
            raise SpaceFormatError(message)
        return from_min_opens(points, {k: _strings(v, message) for k, v in value.items()})
    message = "'leq' must be an array of two-element arrays of strings"
    if not isinstance(value, list):
        raise SpaceFormatError(message)
    # A pair of the wrong length is named only once every pair is known to be strings.
    pairs, paired = [], True
    for pair in value:
        pairs.append(_strings(pair, message))
        paired = paired and len(pair) == 2
    if not paired:
        raise SpaceFormatError(message)
    return from_preorder(preorder_from_relation(points, pairs))


def load_space(path: str | Path) -> Preorder:
    try:
        with open(path, encoding="utf-8") as file:
            data = json.loads(file.read())
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise SpaceFormatError(f"not valid JSON: {exc}") from exc
    return space_from_dict(data)


def dump_space(space: Preorder, path: str | Path) -> None:
    Path(path).write_text(dumps(space_to_dict(space)), encoding="utf-8")


def dumps(payload: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text is the same as `json.dumps(payload, indent=2, sort_keys=True)`
    plus a newline, written without the standard library's pure-Python
    indenting encoder.  Accepted types: `dict` with `str` keys, `list`,
    `tuple`, `str`, `int`, `bool` and `None`.  A value of any other type,
    a subclass of these included, raises `TypeError`.

    A report may hold one container in several places, such as one group
    dict for every degree with that group.  One memo, keyed by the
    container's `id` and its indent, lives for the call: a dict, list or
    tuple already written at that indent reuses its text.  The payload
    holds every container until the call returns, so no id is reused
    while the memo lives.

    >>> print(dumps({"name": "c'", "ranks": [1, 0], "torsion": [], "t0": None}), end="")
    {
      "name": "c'",
      "ranks": [
        1,
        0
      ],
      "t0": null,
      "torsion": []
    }
    """
    return _encode(payload, "", {}) + "\n"


# The writers of the scalar types, keyed by exact type.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _encode(value, indent: str, memo: dict) -> str:
    """The JSON text of one value nested at `indent`; its closing bracket starts a line there.

    `memo` maps (id, indent) of each container written so far to its text.
    """
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        scalar = _SCALARS.get(kind)
        if scalar is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        return scalar(value)
    if not value:
        return "{}" if kind is dict else "[]"
    key = (id(value), indent)
    text = memo.get(key)
    if text is not None:
        return text
    inner = indent + "  "
    if kind is dict:
        items = []
        for name in sorted(value):
            item = value[name]
            scalar = _SCALARS.get(type(item))
            # encode_basestring_ascii raises TypeError for a key that is not a str.
            written = scalar(item) if scalar else _encode(item, inner, memo)
            items.append(encode_basestring_ascii(name) + ": " + written)
        text = "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    else:
        first = type(value[0])
        scalar = _SCALARS.get(first)
        # A list of scalars of one type is written with one join.
        if scalar is not None and all(type(item) is first for item in value):
            items = map(scalar, value)
        else:
            items = [_encode(item, inner, memo) for item in value]
        text = "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    memo[key] = text
    return text
