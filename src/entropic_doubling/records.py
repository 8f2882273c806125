"""Result records and their JSON: a record's JSON is its fields, by name.

Record.to_json() returns the dataclass fields shown in the record's repr, each
passed through plain(); a field left out of repr (repr=False) is left out of
JSON.  A record that also reports a value derived from its fields adds it in
a one-line to_json override, through plain() when it can hold numpy values.
plain() leaves only Python types, so a number in a record's JSON is an int or
a float, as verify_bundle's leaf match requires.  Subspace and Dist define
their own to_json (hex bases, sparse supports), and plain() uses it.  Trace
notes and bundle inputs hold records, Subspaces and Dists themselves, so a
solve serializes nothing, and plain() turns each into JSON once, when a
bundle is built.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def plain(obj):
    """obj with only JSON types: an object's own to_json (a Subspace, a Dist,
    a record), a dict value by value, a NamedTuple as the dict of its fields,
    a list or tuple as a list, an ndarray or a numpy scalar by tolist()."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {k: plain(v) for k, v in zip(obj._fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


class Record:
    """A dataclass result whose JSON is its repr fields, by name, made plain."""

    def to_json(self) -> dict:
        return {f.name: plain(getattr(self, f.name)) for f in fields(self) if f.repr}
