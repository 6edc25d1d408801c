"""The reader of scenario documents that hold generators.

:func:`read_document` decodes each inline generator matrix of an
``algebra-probe`` document a row at a time: a row of ``[float, float]``
pairs becomes a (w, 2) float64 array as soon as it closes, and
``parse._decode_entry`` stacks an entry's rows into its complex array
(:func:`_float_pairs`, :class:`_DecodedEntry`).  Only documents that
hold generators import this module.
"""

from __future__ import annotations

import json
import re
from itertools import chain

import numpy as np

__all__ = ["read_document"]

# The whitespace JSON allows between tokens, as the json module reads it.
_WHITESPACE = re.compile(r"[ \t\n\r]*").match


def _pair_row(row) -> np.ndarray | None:
    """A decoded matrix row as a (w, 2) float64 array if it is a non-empty
    list of ``[float, float]`` pairs, else ``None``.

    The checks run over the whole row at once, not entry by entry, and
    the array holds the row's float values as they are.
    """
    if type(row) is not list or not row or set(map(type, row)) != {list} or set(map(len, row)) != {2}:
        return None
    flat = list(chain.from_iterable(row))
    if set(map(type, flat)) != {float}:
        return None
    return np.array(flat).reshape(-1, 2)


class _Rows(list):
    """An inline matrix read a row at a time by :func:`read_document`: each
    row of float pairs is its :func:`_pair_row` array, any other row is
    as decoded."""


def _float_pairs(rows) -> np.ndarray | None:
    """``rows`` as a complex array if it is a non-empty rectangle of
    ``[float, float]`` pairs, all finite, else ``None``.

    ``rows`` is a decoded list of rows, or :class:`_Rows`.  The stacked
    float64 pairs are viewed as complex128, with no arithmetic, so every
    bit (signed zeros too) is the document's.
    """
    if type(rows) is list:
        rows = [_pair_row(row) for row in rows]
    elif type(rows) is not _Rows:
        return None
    if not rows or not all(type(row) is np.ndarray for row in rows) or len({row.shape for row in rows}) != 1:
        return None
    values = np.stack(rows)
    if not np.isfinite(values).all():
        return None
    return values.view(complex).reshape(values.shape[:2])


class _Unread(Exception):
    """Text that :func:`read_document` leaves to the decoder."""


def _array(text: str, i: int, item, values: list) -> tuple[list, int]:
    """The JSON array that opens at ``text[i]``, each element read by
    ``item(text, i) -> (value, end)`` and appended to ``values``; and the
    index after the array."""
    i = _WHITESPACE(text, i + 1).end()
    if text.startswith("]", i):
        return values, i + 1
    while True:
        value, i = item(text, i)
        values.append(value)
        i = _WHITESPACE(text, i).end()
        if text.startswith(",", i):
            i = _WHITESPACE(text, i + 1).end()
        elif text.startswith("]", i):
            return values, i + 1
        else:
            raise _Unread


def _object(text: str, i: int, scan, readers: dict) -> tuple[dict, int]:
    """The JSON object that opens at ``text[i]``, the value of each key in
    ``readers`` read by its reader and every other value by ``scan``; and
    the index after the object.  A repeated key keeps its first place
    and its last value, as the decoder does."""
    obj = {}
    i = _WHITESPACE(text, i + 1).end()
    if text.startswith("}", i):
        return obj, i + 1
    while True:
        if not text.startswith('"', i):
            raise _Unread
        key, i = scan(text, i)
        i = _WHITESPACE(text, i).end()
        if not text.startswith(":", i):
            raise _Unread
        value, i = readers.get(key, scan)(text, _WHITESPACE(text, i + 1).end())
        obj[key] = value
        i = _WHITESPACE(text, i).end()
        if text.startswith(",", i):
            i = _WHITESPACE(text, i + 1).end()
        elif text.startswith("}", i):
            return obj, i + 1
        else:
            raise _Unread


def read_document(text: str, decoder) -> object:
    """``decoder.decode(text)``, holding at most one inline matrix row's
    lists at a time.

    The reader walks the top-level object, its ``generators`` list, each
    entry object in that list and the rows of each entry's ``matrix``.
    Every other value, and each row, is read by ``decoder.raw_decode``; a
    row of float pairs becomes its array as soon as it closes.  Each
    object the walk reads goes through ``decoder.object_hook``, and an
    entry the hook does not decode gets its rows back as lists.  Text the
    walk does not read (a syntax error, a top level that is not an
    object, trailing data) goes to ``decoder.decode``, so the value and
    every error are the decoder's.
    """
    scan, hook = decoder.raw_decode, decoder.object_hook

    def row(text: str, i: int) -> tuple[object, int]:
        value, i = scan(text, i)
        pairs = _pair_row(value)
        return (value if pairs is None else pairs), i

    def matrix(text: str, i: int) -> tuple[object, int]:
        if not text.startswith("[", i):
            return scan(text, i)
        return _array(text, i, row, _Rows())

    def entry(text: str, i: int) -> tuple[object, int]:
        if not text.startswith("{", i):
            return scan(text, i)
        obj, i = _object(text, i, scan, {"matrix": matrix})
        obj = hook(obj)
        rows = obj.get("matrix")
        if type(rows) is _Rows:  # the hook left it alone: the rows as written
            obj["matrix"] = [row.tolist() if type(row) is np.ndarray else row for row in rows]
        return obj, i

    def generators(text: str, i: int) -> tuple[object, int]:
        if not text.startswith("[", i):
            return scan(text, i)
        return _array(text, i, entry, [])

    try:
        i = _WHITESPACE(text, 0).end()
        if not text.startswith("{", i):
            raise _Unread
        obj, i = _object(text, i, scan, {"generators": generators})
        if _WHITESPACE(text, i).end() != len(text):
            raise _Unread
        return hook(obj)
    except (_Unread, json.JSONDecodeError):
        pass
    return decoder.decode(text)


class _DecodedEntry(dict):
    """A generator entry whose matrix the decoder already made an array.

    It shows as the document wrote it, so a message that quotes it reads
    as it would have before decoding.
    """

    def __repr__(self) -> str:
        mat = self["matrix"]
        return repr({**self, "matrix": mat.view(float).reshape(*mat.shape, 2).tolist()})
