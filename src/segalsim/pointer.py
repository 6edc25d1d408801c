"""The pointer algebra, the restricted probabilities and premeasurement.

The pointer algebra on S (x) O, its class<->pointer map and the
environment records are the model's own set-up (``model._setup``, built
on first read and freed with the model).
The pointer observable is diag(qo_values) on O, so the class of column
|s_0, O_j> is pointer j's class: the algebra's labels there are the one
class<->pointer map, and a class that holds two pointer values is
refused.  The pointer algebra acts as the identity on E: its labels on
S (x) O (x) E are the S (x) O ones repeated e_dim times, and the
restricted states are the S (x) O ones.  No scenario run builds that
algebra (``pointer_algebra(model, environment=True)``) or a character.
Premeasurement is the ready/pointer swap on S (x) O amplitudes.  It
leaves a_i at |s_i, O_{i+1}> and 0 elsewhere, so the restricted pointer
probabilities and the interference expectation read the s a_i alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import PROBABILITY_FLOOR
from .algebra import OperatorAlgebra
from .model import (
    MeasurementModel,
    _Setup,
    _pointer_algebra_on,
    _source_kind,
    full_layout,
    ms_layout,
    ready_state,
)
from .restriction import AlgebraicState, Character, decompose_restricted, extremal_states
from .states import DensityMatrix, Gemenge, StateVector

__all__ = [
    "branch_mixture",
    "interference_expectation",
    "interference_observable",
    "pointer_algebra",
    "pointer_characters",
    "premeasure",
    "restricted_pointer_probabilities",
]


# ---------------------------------------------------------------------------
# the restricted pointer state


def pointer_algebra(model: MeasurementModel, environment: bool = False) -> OperatorAlgebra:
    """The observer's effective algebra: unit and pointer observable only,
    on S (x) O, or with ``environment`` built afresh on the pipeline
    layout, where its labels are the S (x) O ones repeated e_dim times."""
    algebra = model._setup.algebra  # refuses merged pointer values
    if environment and model.environment is not None:
        return _pointer_algebra_on(model, full_layout(model))
    return algebra


def pointer_characters(model: MeasurementModel) -> tuple[Character, ...]:
    """Characters of the S (x) O pointer algebra in ``qo_values`` order."""
    setup = model._setup
    chars = extremal_states(setup.algebra)
    return tuple(chars[k] for k in setup.pointer_class.tolist())


def restricted_pointer_probabilities(model: MeasurementModel, source: StateVector | Gemenge) -> np.ndarray:
    """Character weights of the post-measurement state of ``source``,
    restricted to the S (x) O pointer algebra.

    In ``qo_values`` order; weights at or below ``PROBABILITY_FLOOR`` are
    round-off of a structural zero and read exactly 0.
    """
    setup = model._setup
    branch = np.arange(model.s_dim)
    return _class_weights(setup, _branch_entries(model, source, branch, branch))[setup.pointer_class]


def _class_weights(setup: _Setup, entries: np.ndarray) -> np.ndarray:
    """The restricted pointer state's character weights in class order,
    those at or below ``PROBABILITY_FLOOR`` read as exactly 0."""
    probs = decompose_restricted(_pointer_state(setup, entries), setup.algebra)
    return np.where(probs > PROBABILITY_FLOOR, probs, 0.0)


def _pointer_state(setup: _Setup, entries: np.ndarray) -> AlgebraicState:
    """The pointer-algebra restriction of the S (x) O state with diagonal
    ``entries[i]`` at |s_i, O_{i+1}>, 0 elsewhere: class sums / sqrt(rank)."""
    sums = np.zeros(setup.algebra.dimension, dtype=complex)
    sums[setup.pointer_class[1 : len(entries) + 1]] = entries
    return AlgebraicState(setup.algebra, sums * setup.algebra._inv_sqrt_ranks)


# ---------------------------------------------------------------------------
# premeasurement dynamics


def _ready_pointer_swap(model: MeasurementModel, amplitudes: np.ndarray) -> np.ndarray:
    """The premeasurement on S (x) O amplitudes, its own inverse: within
    branch i, |s_i, O_0> and |s_i, O_i> trade places.  The ``+ 0.0`` gives
    the +0 the dense unitary product gives where the gather keeps a -0."""
    o = model.o_dim
    index = np.arange(model.s_dim * o).reshape(model.s_dim, o)
    branch = np.arange(model.s_dim)
    index[branch, 0] = branch * o + branch + 1
    index[branch, branch + 1] = branch * o
    return amplitudes[index.reshape(-1)] + 0.0


def _interference_pair(model: MeasurementModel) -> tuple[int, int]:
    """S (x) O indices of |s_1 O_1> and |s_2 O_2>, the two states the
    interference observable couples."""
    if model.s_dim != 2:
        raise ValueError("the interference observable is defined for s_dim = 2")
    return 1, model.o_dim + 2


def interference_observable(model: MeasurementModel) -> np.ndarray:
    """Cross-branch correlation witness |s_1 O_1><s_2 O_2| + h.c.

    Its expectation separates the post-measurement superposition from the
    matched branch mixture, but it lies outside the pointer algebra, so
    the register itself can never read it.  Defined for two branches.
    """
    i, j = _interference_pair(model)
    b = np.zeros((2 * model.o_dim, 2 * model.o_dim), dtype=complex)
    b[i, j] = 1.0
    b[j, i] = 1.0
    return b


def premeasure(model: MeasurementModel, psi_s: StateVector) -> StateVector:
    """Post-measurement pure state on S (x) O for an input system state."""
    return StateVector(ms_layout(model), _ready_pointer_swap(model, ready_state(model, psi_s).amplitudes))


def _branch_entries(model: MeasurementModel, source: StateVector | Gemenge, rows, cols):
    """Post-measurement entries b_r conj(b_c) at |s_r, O_{r+1}>, |s_c, O_{c+1}>, b the amplitudes
    ``+ 0.0`` (a -0 premeasures to +0); for an ensemble, weighted and summed over its rows in order."""
    if _source_kind(model, source) == "pure":
        b = source.amplitudes + 0.0
        return b[rows] * b[cols].conj()
    entries = np.zeros(len(rows), dtype=complex)
    for state, p in source.rows:
        b = state.amplitudes + 0.0
        entries += p * (b[rows] * b[cols].conj())
    return entries


def interference_expectation(model: MeasurementModel, source: StateVector | Gemenge) -> float:
    """<B> of the post-measurement state for the interference observable B.

    B has two unit entries, so <B> is the sum of the two state entries it
    reads; the ``+ 0.0`` gives the +0 the full trace gives when both are -0.
    """
    _interference_pair(model)  # defined for two branches
    x, y = _branch_entries(model, source, [0, 1], [1, 0]).real
    return float(x + y + 0.0)


def branch_mixture(model: MeasurementModel, amplitudes: Sequence[complex]) -> DensityMatrix:
    """Classical mixture of measured branches |s_i O_i> with weights |a_i|^2."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.size != model.s_dim:
        raise ValueError(f"expected {model.s_dim} amplitudes")
    lay = ms_layout(model)
    mat = np.zeros((lay.dim, lay.dim), dtype=complex)
    for i, a in enumerate(amps):
        idx = lay.basis_index((i, i + 1))
        mat[idx, idx] = abs(a) ** 2
    return DensityMatrix(lay, mat)
