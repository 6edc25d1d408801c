"""The per-model pointer set-up and premeasurement.

The pointer algebra on S (x) O, its characters in pointer order and the
environment records are built once per model and cached (``_setup``).
The pointer observable is diag(qo_values) on O, so the class of column
|s_0, O_j> is pointer j's class: the algebra's labels there are the one
class<->pointer map, and a class that holds two pointer values is
refused.  The pointer algebra acts as the identity on E, so restricting
the S (x) O (x) E state to it gives the S (x) O weights; that algebra is
built only when asked for (``pointer_algebra(model, environment=True)``)
and no scenario run does.  Premeasurement is the ready/pointer swap on
S (x) O amplitudes; the restricted pointer probabilities, the
interference expectation and the branch mixture are read from the
premeasured amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import InvariantViolation, PROBABILITY_FLOOR
from .algebra import OperatorAlgebra, diagonal_algebra
from .linalg import SpaceLayout
from .model import (
    MeasurementModel,
    _environment_records,
    _pointer_diagonal,
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
# cached per-model machinery


@dataclass(eq=False)
class _Setup:
    records: np.ndarray                        # (o_dim, e_dim) environment records
    algebra: OperatorAlgebra                   # the pointer algebra on S (x) O
    characters: tuple[Character, ...]          # pointer order (qo_values order)
    pointer_class: np.ndarray                  # pointer j's class: the label of |s_0, O_j>
    class_pointer: np.ndarray                  # class k's pointer, the inverse map


@lru_cache(maxsize=None)
def _setup(model: MeasurementModel) -> _Setup:
    algebra = _pointer_algebra_on(model, ms_layout(model))
    pointer_class = algebra.labels[: model.o_dim]
    characters = _pointer_order(model, algebra, pointer_class)
    class_pointer = np.empty(model.o_dim, np.min_scalar_type(model.o_dim - 1))
    class_pointer[pointer_class] = np.arange(model.o_dim)
    return _Setup(
        records=_environment_records(model),
        algebra=algebra,
        characters=characters,
        pointer_class=pointer_class,
        class_pointer=class_pointer,
    )


@lru_cache(maxsize=None)
def _environment_characters(model: MeasurementModel) -> tuple[Character, ...]:
    """The characters of the S (x) O (x) E pointer algebra in pointer
    order, read at its columns |s_0, O_j, E_0>; built only when asked."""
    algebra = _pointer_algebra_on(model, full_layout(model))
    e_dim = model.environment.e_dim
    return _pointer_order(model, algebra, algebra.labels[: model.o_dim * e_dim : e_dim])


def _pointer_algebra_on(model: MeasurementModel, layout: SpaceLayout) -> OperatorAlgebra:
    return diagonal_algebra(_pointer_diagonal(model, layout)[None], layout)


def _pointer_order(model: MeasurementModel, algebra: OperatorAlgebra, pointer_class: np.ndarray):
    """The algebra's characters in pointer order, ``pointer_class[j]``
    the class of pointer j.

    Every class holds a pointer column, so the map is onto; a class that
    holds more than one pointer value (values merged within the
    algebra's tolerance) is refused, naming its first pointer value.
    """
    classes = pointer_class.tolist()
    if algebra.dimension < len(classes):  # a class holds two pointer values
        j = next(j for j, k in enumerate(classes) if classes.count(k) > 1)
        raise InvariantViolation(f"pointer value {model.qo_values[j]!r} does not match one character")
    chars = extremal_states(algebra)
    return tuple(chars[k] for k in classes)


def pointer_algebra(model: MeasurementModel, environment: bool = False) -> OperatorAlgebra:
    """The observer's effective algebra: unit and pointer observable only,
    on S (x) O, or with ``environment`` on the pipeline layout."""
    return pointer_characters(model, environment)[0].algebra


def pointer_characters(model: MeasurementModel, environment: bool = False) -> tuple[Character, ...]:
    """Characters of the pointer algebra in ``qo_values`` order."""
    if environment and model.environment is not None:
        return _environment_characters(model)
    return _setup(model).characters


def restricted_pointer_probabilities(model: MeasurementModel, source: StateVector | Gemenge) -> np.ndarray:
    """Character weights of the post-measurement state of ``source``,
    restricted to the S (x) O pointer algebra.

    In ``qo_values`` order; weights at or below ``PROBABILITY_FLOOR`` are
    round-off of a structural zero and read exactly 0.
    """
    d = ms_layout(model).dim
    return _pointer_weights(model, _post_measurement_entries(model, source, np.arange(d), np.arange(d)))


def _pointer_state(model: MeasurementModel, diagonal: np.ndarray) -> AlgebraicState:
    """The S (x) O state with diagonal ``diagonal`` restricted to the
    pointer algebra, which reads nothing else of it."""
    alg = _setup(model).algebra
    # tr(rho B_j) = conj(<B_j, rho^dag>), and <B_j, rho^dag> reads only diag(rho)^*.
    return AlgebraicState(alg, alg.project_coefficients(diagonal.conj()).conj())


def _pointer_weights(model: MeasurementModel, diagonal: np.ndarray) -> np.ndarray:
    """Restricted pointer probabilities of the S (x) O state with diagonal
    ``diagonal``."""
    setup = _setup(model)
    weights = decompose_restricted(_pointer_state(model, diagonal), setup.algebra)
    probs = weights[setup.pointer_class]
    return np.where(probs > PROBABILITY_FLOOR, probs, 0.0)


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


def _post_measurement_entries(model: MeasurementModel, source: StateVector | Gemenge, rows, cols):
    """Entries ``rho[rows[n], cols[n]]`` of the post-measurement S (x) O
    state: a_r conj(a_c) of the premeasured amplitudes, as |a><a| holds it,
    or for an ensemble its probability-weighted sum over the rows, in order."""
    if _source_kind(model, source) == "pure":
        a = premeasure(model, source).amplitudes
        return a[rows] * a[cols].conj()
    entries = np.zeros(len(rows), dtype=complex)
    for state, p in source.rows:
        a = premeasure(model, state).amplitudes
        entries += p * (a[rows] * a[cols].conj())
    return entries


def interference_expectation(model: MeasurementModel, source: StateVector | Gemenge) -> float:
    """<B> of the post-measurement state for the interference observable B.

    B has two unit entries, so <B> is the sum of the two state entries it
    reads; the ``+ 0.0`` gives the +0 the full trace gives when both are -0.
    """
    i, j = _interference_pair(model)
    x, y = _post_measurement_entries(model, source, [i, j], [j, i]).real
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
