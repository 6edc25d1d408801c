"""The grouping rule of a commutative algebra's joint values.

:func:`_classified_algebra` labels the columns of the joint eigenbasis by
their classes and runs the residual and accuracy checks, as the module
docstring of :mod:`segalsim.algebra` sets them out; the rule itself runs
in plain Python on the distinct values of each generator.  Every
commutative algebra is built here, from :func:`diagonal_algebra` and from
the eigenbasis path alike.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .algebra import OperatorAlgebra
from .config import CHARACTER_ATOL, check
from .linalg import SpaceLayout


def _classified_algebra(
    values: np.ndarray,
    off_diagonal: np.ndarray | list[float],
    layout: SpaceLayout,
    tol: float,
    gens: tuple[np.ndarray, ...] | None,
    v: np.ndarray | None,
) -> OperatorAlgebra:
    """The commutative algebra whose generators have the joint values
    ``values`` (one row per generator) on the columns of V.

    ``off_diagonal`` holds each |V^dag g V - diag(values)|.  ``gens`` and
    ``v`` ``None`` are exactly diagonal generators, stored as ``values``,
    and the identity.  Runs the residual and accuracy checks of the
    :mod:`segalsim.algebra` docstring.
    """
    labels, split_gaps = _joint_classes(values, tol)
    alg = OperatorAlgebra(
        layout,
        gens,
        tol,
        labels=labels,
        eigenvectors=v,
        joint_values=values,
        generator_diagonals=values if gens is None else None,
    )
    class_values = alg._class_values
    for g_idx, row in enumerate(values):
        scale = float(np.max(np.abs(row)))
        on_diagonal = np.linalg.norm(row - class_values[labels, g_idx])
        residual = float(np.hypot(off_diagonal[g_idx], on_diagonal))
        bound = CHARACTER_ATOL * scale
        check(f"generator {g_idx} is not diagonal on the joint eigenvectors", residual, bound)
        # A split must exceed the accuracy: at most the largest float below the gap.
        gap = np.nextafter(split_gaps[g_idx], 0.0)
        check(f"generator {g_idx}: joint values split within their accuracy", residual, gap)
    return alg


def _joint_classes(values: np.ndarray, tol: float) -> tuple[np.ndarray, list[float]]:
    """Class of each column under the grouping rule, in character order.

    ``values`` holds one row of joint values per generator.  Also returns
    each generator's smallest gap at a split (inf where nothing splits).
    A cluster wider than its merge width raises InvariantViolation.

    Plain Python: the chain rule runs on the k distinct values of each
    part of a row, found in one hashing pass, and the columns are mapped
    back through them.  A class is the tuple of its columns' cluster ids,
    the real parts of every generator first, then the imaginary parts.
    Classes are numbered in the order of the real values of their first
    column, rounded as ``np.round(x, 9)`` rounds them, then of that tuple
    (no NaN is left to sort: every NaN fails the chain check).
    """
    n, d = values.shape
    real_ids, imag_ids, split_gaps = [], [], []  # per generator; ids per column
    for g_idx, row in enumerate(values):
        width = float(tol * np.max(np.abs(row)))
        real, real_gap = _cluster_ids(row.real.tolist(), width, g_idx)
        imag, imag_gap = _cluster_ids(row.imag.tolist(), width, g_idx)
        real_ids.append(real)
        imag_ids.append(imag)
        split_gaps.append(min(real_gap, imag_gap))
    # Each class's first column: the last write of a key wins, so the
    # columns go in backwards.  The leading 0 makes n = 0 one class.
    backwards = zip(repeat(0, d), *map(reversed, real_ids), *map(reversed, imag_ids))
    first = dict(zip(backwards, range(d - 1, -1, -1)))
    reals = values.real[:, list(first.values())].tolist()  # a row per generator, a value per class
    by_value = sorted(zip(*[map(_round9, row) for row in reals], first))
    for label, key in enumerate(by_value):
        first[key[-1]] = label
    labels = map(first.__getitem__, zip(repeat(0, d), *real_ids, *imag_ids))
    return np.fromiter(labels, np.intp, d), split_gaps


def _cluster_ids(column_values: list[float], width: float, g_idx: int) -> tuple[list[int], float]:
    """The cluster id of each value of one part of a generator's joint
    values, and the smallest gap at a split (inf where none).

    The distinct values, sorted, split wherever a gap exceeds ``width``,
    and the widest cluster, its last value minus its first, is checked
    against ``width``.
    """
    distinct = set(column_values)
    ordered = sorted(x for x in distinct if x == x)
    if len(ordered) < len(distinct):
        ordered.append(math.nan)  # numpy sorts a NaN last, into the last cluster
    cluster, count, spread, smallest = {}, 0, -math.inf, math.inf
    start = prev = ordered[0]
    for x in ordered:
        gap = x - prev
        if gap > width:
            smallest = min(smallest, gap)
            spread = max(prev - start, spread)
            start = x
            count += 1
        cluster[x] = count
        prev = x
    spread = max(prev - start, spread)  # a NaN spread stays
    check(f"generator {g_idx}: chain of joint values wider than tol x scale", spread, width)
    return list(map(cluster.__getitem__, column_values)), smallest


def _round9(x: float) -> float:
    """``np.round(x, 9)`` bit for bit: x * 1e9 to the nearest integer, ties
    to even, divided by 1e9; an infinite product stays infinite."""
    y = x * 1e9
    if abs(y) < 2.0**52:  # above, every float is an integer
        y = math.copysign(round(y), y)
    return y / 1e9
