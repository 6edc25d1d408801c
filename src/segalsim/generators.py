"""The generators of an ``algebra-probe`` scenario.

A generator is a name (``QO``, ``QO_MS``, ``B``) or an inline
``{"space", "matrix"}`` entry.  A document that holds generators is read
by :func:`read_document`, which decodes each inline matrix a row at a
time: a row of ``[float, float]`` pairs becomes a (w, 2) float64 array as
soon as it closes, and ``scenarios._decode_entry`` stacks an entry's rows
into its complex array (:func:`_float_pairs`, :class:`_DecodedEntry`).
Any other matrix is read entry by entry at parse.  The named diagonal
generators ``QO`` and ``QO_MS`` are held as their diagonals, which
``generate_algebra`` makes dense only beside another generator; the list
is checked against ``MAX_WORKING_SET_BYTES`` before a named one is built,
a list of them alone counted as diagonals and any other list as dense.
Only documents that hold generators import this module; the
``algebra-probe`` runner is here too.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import Any

import numpy as np

from .algebra import generate_algebra, joint_spectral_resolution
from .config import ALGEBRA_TOL, MAX_WORKING_SET_BYTES
from .measurement import MeasurementModel, _pointer_diagonal, interference_observable
from .restriction import extremal_states
from .scenarios import ScenarioConfig, _fail, _number, _require_keys, _space_layout

__all__ = ["generator_bytes", "read_document"]

_GENERATOR_SPACES = {"QO": "O", "QO_MS": "MS", "B": "MS"}

# Bytes the class labelling of ``diagonal_algebra`` is counted to hold per
# entry of each diagonal, and per column beside them.  Its tracemalloc peak
# is about 160 + 126 n bytes a column for n generators of distinct values
# at d = 8192 (2.4 MB at n = 1), and at most 2 MiB for one generator of
# 4096 values there (``test_diagonal_algebra_working_set_at_large_d``).
_CLASSIFIER_BYTES = 256

# The whitespace JSON allows between tokens, as the json module reads it.
_WHITESPACE = re.compile(r"[ \t\n\r]*").match


def _named_generator(name: str, model: MeasurementModel) -> np.ndarray:
    """``B`` as its dense matrix; ``QO`` and ``QO_MS`` as the diagonal of
    the pointer operator, a length-d array."""
    if name == "B":
        return interference_observable(model)
    return _pointer_diagonal(model, _space_layout(model, _GENERATOR_SPACES[name]))


def generator_bytes(d: int, count: int, diagonal: bool) -> int:
    """Estimated bytes of ``count`` generators on d dimensions and of what
    ``generate_algebra`` holds beside them.

    Exactly diagonal generators are built and read as diagonals: 16 d
    bytes each, plus the class labelling of ``diagonal_algebra``, bounded
    at ``_CLASSIFIER_BYTES`` per entry of each diagonal and per column.
    Any other list holds each generator as a dense d x d array of 16 d^2
    bytes, and its adjoint letter, and at most ``count + 4`` arrays more,
    an over-estimate kept as a safe bound: the letter check's product
    buffer and b @ a; or, for commuting letters, the Hermitian combination
    and its two buffers, eigh's copy, workspace and eigenvectors, then the
    eigenvectors, their adjoint and one rotated generator.  The
    Gram-Schmidt closure checks its own buffer.
    """
    if diagonal:
        return 16 * d * count + _CLASSIFIER_BYTES * d * (count + 1)
    return 16 * d * d * (3 * count + 4)


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


def _generator_matrix(item: dict, bad: str) -> np.ndarray:
    """An inline generator entry's matrix as a complex array.

    The decoder's array is taken as it is.  A matrix still in lists (a
    decoded dict passed to ``parse_scenario``, or an entry the decoder
    left alone) goes through the decoder's ``_float_pairs`` first, then
    the entry-by-entry path that reads ints and reports any entry that is
    not a finite number.
    """
    if isinstance(item, _DecodedEntry):
        return item["matrix"]
    rows = item.get("matrix")
    mat = _float_pairs(rows)
    if mat is not None:
        return mat
    # _number's ConfigError is a ValueError, caught below.
    try:
        mat = np.array([[complex(_number(re, bad), _number(im, bad)) for re, im in row] for row in rows])
    except (TypeError, ValueError):
        _fail(bad)
    if not np.all(np.isfinite(mat)):
        _fail(bad)
    return mat


def _parse_generators(raw, model: MeasurementModel):
    """The generators list: names, and inline ``{"space", "matrix"}`` entries
    whose matrix each goes through ``_generator_matrix``.

    The named generators are built only once :func:`generator_bytes`, with
    every inline entry counted as not diagonal, is within
    ``MAX_WORKING_SET_BYTES``.
    """
    if not isinstance(raw, list) or not raw:
        _fail("generators: expected a non-empty list")
    entries: list[tuple[str, np.ndarray | None, str]] = []  # None: a name, built below
    for k, item in enumerate(raw):
        if isinstance(item, str):
            if item not in _GENERATOR_SPACES:
                _fail(f"generators: unknown name {item!r}; known names are {sorted(_GENERATOR_SPACES)}")
            entries.append((item, None, _GENERATOR_SPACES[item]))
            continue
        if isinstance(item, dict):
            _require_keys(item, {"matrix", "space"}, f"generators[{k}]")
            space = item.get("space", "O")
            if space not in ("O", "MS"):
                _fail(f"generators[{k}]: space must be 'O' or 'MS'")
            mat = _generator_matrix(
                item, f"generators[{k}]: matrix entries must be [re, im] pairs of finite numbers"
            )
            dim = _space_layout(model, space).dim
            if mat.shape != (dim, dim):
                _fail(f"generators[{k}]: matrix shape {mat.shape} does not match space {space}")
            entries.append((f"matrix[{k}]", mat, space))
            continue
        _fail(f"generators[{k}]: expected a name or a matrix entry")
    spaces = {space for _, _, space in entries}
    if len(spaces) != 1:
        _fail(f"generators: entries live on different spaces {sorted(spaces)}")
    space = spaces.pop()
    d = _space_layout(model, space).dim
    diagonal = all(mat is None and name != "B" for name, mat, _ in entries)
    need = generator_bytes(d, len(entries), diagonal)
    if need > MAX_WORKING_SET_BYTES:
        _fail(
            f"generators: {len(entries)} {'diagonal' if diagonal else 'dense'} generators on d = {d} "
            f"would hold about {need} bytes, over the {MAX_WORKING_SET_BYTES}-byte limit"
        )
    built = tuple((name, _named_generator(name, model) if mat is None else mat) for name, mat, _ in entries)
    return built, space


def _run_algebra_probe(cfg: ScenarioConfig):
    layout = _space_layout(cfg.model, cfg.generator_space)
    tol = cfg.tolerances.get("algebra", ALGEBRA_TOL)
    alg = generate_algebra([mat for _, mat in cfg.generators], layout, tol=tol)
    summary: dict[str, Any] = {
        "generators": [name for name, _ in cfg.generators],
        "space": cfg.generator_space,
        "dimension": alg.dimension,
        "commutative": alg.commutative,
    }
    if alg.commutative:
        chars = extremal_states(alg)
        summary["characters"] = [
            [float(v) for v in c.generator_values] for c in chars
        ]
        summary["projector_ranks"] = list(joint_spectral_resolution(alg).ranks)
    else:
        summary["characters"] = None
    return summary, None
