"""The generators of an ``algebra-probe`` scenario.

A generator is a name (``QO``, ``QO_MS``, ``B``) or an inline
``{"space", "matrix"}`` entry.  An inline matrix that
:mod:`segalsim.document` decoded is taken as its array; any other matrix
is read entry by entry at parse.  The named diagonal
generators ``QO`` and ``QO_MS`` are held as their diagonals, which
``generate_algebra`` makes dense only beside another generator; the list
is checked against ``MAX_WORKING_SET_BYTES`` before a named one is built,
a list of them alone counted as diagonals and any other list as dense.
Only ``algebra-probe`` scenarios import this module; their runner is
here too.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .algebra import generate_algebra, joint_spectral_resolution
from .config import ALGEBRA_TOL, MAX_WORKING_SET_BYTES
from .document import _DecodedEntry, _float_pairs
from .measurement import MeasurementModel, interference_observable
from .model import _pointer_diagonal
from .parse import _space_layout
from .readers import _fail, _number, _require_keys
from .restriction import extremal_states
from .scenarios import ScenarioConfig

__all__ = ["generator_bytes"]

_GENERATOR_SPACES = {"QO": "O", "QO_MS": "MS", "B": "MS"}

# Bytes the class labelling of ``diagonal_algebra`` is counted to hold per
# entry of each diagonal, and per column beside them.  Its tracemalloc peak
# is about 160 + 126 n bytes a column for n generators of distinct values
# at d = 8192 (2.4 MB at n = 1), and at most 2 MiB for one generator of
# 4096 values there (``test_diagonal_algebra_working_set_at_large_d``).
_CLASSIFIER_BYTES = 256


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
