"""The generators of an ``algebra-probe`` scenario.

A generator is a name (``QO``, ``QO_MS``, ``B``) or an inline
``{"space", "matrix"}`` entry.  Inline matrices of ``[float, float]``
pairs become complex arrays while the document is decoded
(``scenarios._decode_entry`` imports :func:`_float_pairs` and
:class:`_DecodedEntry` from here); any other matrix is read entry by
entry at parse.  Every generator is dense, so the list is checked
against ``MAX_WORKING_SET_BYTES`` before a named one is built.  Only
documents that hold generators import this module.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .config import MAX_WORKING_SET_BYTES
from .measurement import MeasurementModel, interference_observable, pointer_operator
from .scenarios import _fail, _number, _require_keys, _space_layout

__all__ = ["generator_bytes"]

_GENERATOR_SPACES = {"QO": "O", "QO_MS": "MS", "B": "MS"}


def _named_generator(name: str, model: MeasurementModel) -> np.ndarray:
    if name == "B":
        return interference_observable(model)
    return pointer_operator(model, _space_layout(model, _GENERATOR_SPACES[name]))


def generator_bytes(d: int, count: int, diagonal: bool) -> int:
    """Estimated bytes of ``count`` dense generators on d dimensions and
    of the letter check ``generate_algebra`` runs on them.

    That is 16 d^2 bytes per generator and, unless every generator is
    exactly diagonal, three more d x d arrays: the products a @ b, b @ a
    and their difference.  The Gram-Schmidt closure checks its own
    buffer; the joint eigenbasis of commuting letters is not counted.
    """
    return 16 * d * d * (count + (0 if diagonal else 3))


def _float_pairs(rows) -> np.ndarray | None:
    """``rows`` as a complex array if it is a non-empty rectangle of
    ``[float, float]`` pairs, all finite, else ``None``.

    The array views the pairs' float64 values as complex128, with no
    arithmetic, so every bit (signed zeros too) is the document's.  The
    checks run over whole rows at once, not entry by entry.
    """
    if type(rows) is not list or not rows or set(map(type, rows)) != {list}:
        return None
    width = len(rows[0])
    if not width or set(map(len, rows)) != {width}:
        return None
    pairs = list(chain.from_iterable(rows))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = list(chain.from_iterable(pairs))
    if set(map(type, flat)) != {float}:
        return None
    values = np.array(flat)
    if not np.isfinite(values).all():
        return None
    return values.view(complex).reshape(len(rows), width)


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
            f"generators: {len(entries)} dense generators on d = {d} would hold about {need} bytes, "
            f"over the {MAX_WORKING_SET_BYTES}-byte limit"
        )
    built = tuple((name, _named_generator(name, model) if mat is None else mat) for name, mat, _ in entries)
    return built, space
