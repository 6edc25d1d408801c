"""The measurement model and its layouts.

A :class:`MeasurementModel` couples a measured system S to an observer
register O, optionally followed by an environment register E (the
pipeline is set out in :mod:`segalsim.measurement`).  This module holds
the model, its factory, its layouts, the ready input, the pointer
operator and the environment records, all read off the model alone.
The model holds its S (x) O pointer set-up (``MeasurementModel._setup``):
built on first read, kept on the model and freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .algebra import OperatorAlgebra, diagonal_algebra
from .config import MAX_DENSE_BYTES, InvariantViolation
from .linalg import SpaceLayout, basis_vector
from .states import Gemenge, StateVector

__all__ = [
    "EnvironmentSpec",
    "MeasurementModel",
    "full_layout",
    "make_model",
    "ms_layout",
    "pointer_operator",
    "ready_state",
    "system_layout",
    "system_state",
]


@dataclass(frozen=True)
class EnvironmentSpec:
    """Environment register: dimension, dephasing strength, branch overlap."""

    e_dim: int = 8
    coupling_strength: float = 1.0
    e_overlap: float = 0.0

    def __post_init__(self) -> None:
        if self.e_dim < 1:
            raise ValueError("environment dimension must be positive")
        if not 0.0 <= self.e_overlap < 1.0:
            raise ValueError(f"branch overlap {self.e_overlap!r} must lie in [0, 1)")


@dataclass(frozen=True)
class MeasurementModel:
    """Static description of one measurement setup.

    ``q_values`` are the eigenvalues of the measured observable on S;
    ``qo_values`` the pointer eigenvalues on O, entry 0 being the ready
    value and entry i (i >= 1) forced equal to ``q_values[i-1]`` so the
    register reads the observable out unbiasedly.
    """

    s_dim: int = 2
    o_dim: int = 3
    q_values: tuple[float, ...] = (1.0, -1.0)
    qo_values: tuple[float, ...] = (0.0, 1.0, -1.0)
    interaction_duration: float = 1.0
    environment: EnvironmentSpec | None = None

    def __post_init__(self) -> None:
        if self.s_dim < 1:
            raise ValueError("s_dim must be positive")
        if self.o_dim < self.s_dim + 1:
            raise ValueError(
                f"o_dim = {self.o_dim} leaves no ready state: need at least s_dim + 1 "
                f"= {self.s_dim + 1} pointer states"
            )
        q = tuple(float(v) for v in self.q_values)
        qo = tuple(float(v) for v in self.qo_values)
        object.__setattr__(self, "q_values", q)
        object.__setattr__(self, "qo_values", qo)
        if len(q) != self.s_dim:
            raise ValueError(f"expected {self.s_dim} q_values, got {len(q)}")
        if len(qo) != self.o_dim:
            raise ValueError(f"expected {self.o_dim} qo_values, got {len(qo)}")
        if len(set(qo)) != len(qo):
            raise ValueError(f"pointer values must be pairwise distinct, got {qo}")
        for i in range(self.s_dim):
            if qo[i + 1] != q[i]:
                raise ValueError(
                    f"unbiased readout requires qo_values[{i + 1}] == q_values[{i}] "
                    f"({qo[i + 1]!r} != {q[i]!r})"
                )
        if not self.interaction_duration > 0:
            raise ValueError("interaction duration must be positive")
        if self.environment is not None and self.environment.e_dim < self.s_dim + 2:
            raise ValueError(
                f"environment dim {self.environment.e_dim} too small to host "
                f"{self.s_dim} branch states plus the ready and shared directions"
            )

    @cached_property
    def _setup(self) -> _Setup:
        """The S (x) O pointer set-up.  Every class holds a pointer column, so
        ``pointer_class`` is onto; a class holding two pointer values (merged
        within the algebra's tolerance) is refused, naming its first one."""
        algebra = _pointer_algebra_on(self, ms_layout(self))
        pointer_class = algebra.labels[: self.o_dim]
        if algebra.dimension < self.o_dim:  # a class holds two pointer values
            classes = pointer_class.tolist()
            j = next(j for j, k in enumerate(classes) if classes.count(k) > 1)
            raise InvariantViolation(f"pointer value {self.qo_values[j]!r} does not match one character")
        class_pointer = np.empty(self.o_dim, np.min_scalar_type(self.o_dim - 1))
        class_pointer[pointer_class] = np.arange(self.o_dim)
        return _Setup(_environment_records(self), algebra, pointer_class, class_pointer)


@dataclass(eq=False)
class _Setup:
    records: np.ndarray                        # (o_dim, e_dim) environment records
    algebra: OperatorAlgebra                   # the pointer algebra on S (x) O
    pointer_class: np.ndarray                  # pointer j's class: the label of |s_0, O_j>
    class_pointer: np.ndarray                  # class k's pointer, the inverse map


def make_model(
    s_dim: int = 2,
    o_dim: int = 3,
    q_values: Sequence[float] | None = None,
    qo_values: Sequence[float] | None = None,
    interaction_duration: float = 1.0,
    environment: EnvironmentSpec | dict | None = None,
) -> MeasurementModel:
    """Model factory that fills value defaults for arbitrary dimensions.

    Default observable eigenvalues alternate (+1, -1, +2, -2, ...); pointer
    values are (0, *q_values) padded with fresh integers above max |q| for
    any extra register states.  The ready value 0 is a convention, not a
    physical constraint; pass explicit ``qo_values`` to change it.
    A model whose dense d x d operator would exceed ``MAX_DENSE_BYTES`` is
    refused before anything of its size is built.
    """
    if isinstance(environment, dict):
        environment = EnvironmentSpec(**environment)
    d = s_dim * o_dim * (1 if environment is None else environment.e_dim)
    if min(s_dim, o_dim) >= 1 and 16 * d * d > MAX_DENSE_BYTES:
        raise ValueError(
            f"dimension s_dim*o_dim*e_dim = {d} needs {16 * d * d} bytes per dense operator, "
            f"over the {MAX_DENSE_BYTES}-byte limit"
        )
    if q_values is None:
        q_values = tuple(
            float((i // 2 + 1) * (1 if i % 2 == 0 else -1)) for i in range(s_dim)
        )
    q_values = tuple(float(v) for v in q_values)
    if qo_values is None:
        qo = [0.0, *q_values]
        filler = float(int(max((abs(v) for v in qo), default=0.0)) + 1)
        while len(qo) < o_dim:
            qo.append(filler)
            filler += 1.0
        qo_values = tuple(qo)
    return MeasurementModel(
        s_dim=s_dim,
        o_dim=o_dim,
        q_values=tuple(q_values),
        qo_values=tuple(qo_values),
        interaction_duration=interaction_duration,
        environment=environment,
    )


def system_layout(model: MeasurementModel) -> SpaceLayout:
    return SpaceLayout((("S", model.s_dim),))


def ms_layout(model: MeasurementModel) -> SpaceLayout:
    return SpaceLayout((("S", model.s_dim), ("O", model.o_dim)))


def full_layout(model: MeasurementModel) -> SpaceLayout:
    """Pipeline layout: S (x) O, extended by E when an environment is set."""
    factors = [("S", model.s_dim), ("O", model.o_dim)]
    if model.environment is not None:
        factors.append(("E", model.environment.e_dim))
    return SpaceLayout(tuple(factors))


def system_state(model: MeasurementModel, amplitudes: Sequence[complex]) -> StateVector:
    return StateVector(system_layout(model), np.asarray(amplitudes, dtype=complex))


def _source_kind(model: MeasurementModel, source: StateVector | Gemenge) -> str:
    """``"gemenge"`` or ``"pure"``, once the source is checked to live on S."""
    if isinstance(source, Gemenge):
        kind, what = "gemenge", "ensemble rows"
    else:
        kind, what = "pure", "input state"
    if source.layout != system_layout(model):
        raise ValueError(f"{what} must live on the bare system layout")
    return kind


def ready_state(model: MeasurementModel, psi_s: StateVector) -> StateVector:
    """The input with the register ready: psi_s (x) |O_0> on S (x) O."""
    _source_kind(model, psi_s)
    return StateVector(ms_layout(model), np.kron(psi_s.amplitudes, basis_vector(model.o_dim, 0)))


def pointer_operator(model: MeasurementModel, layout: SpaceLayout) -> np.ndarray:
    """The pointer observable diag(qo_values) on the O factor of ``layout``,
    identity on every other factor."""
    return np.diag(_pointer_diagonal(model, layout))


def _pointer_diagonal(model: MeasurementModel, layout: SpaceLayout) -> np.ndarray:
    """Diagonal of :func:`pointer_operator`: qo_values on O, ones elsewhere."""
    q_o = np.asarray(model.qo_values, dtype=complex)
    return reduce(np.kron, [q_o if label == "O" else np.ones(dim) for label, dim in layout.factors])


def _pointer_algebra_on(model: MeasurementModel, layout: SpaceLayout) -> OperatorAlgebra:
    return diagonal_algebra(_pointer_diagonal(model, layout)[None], layout)


# ---------------------------------------------------------------------------
# environment coupling


def _environment_records(model: MeasurementModel) -> np.ndarray:
    """The E state left next to each pointer state |O_j>, one row per j.

    Rows 1..s_dim are the branch states sqrt(c) E_1 + sqrt(1-c) E_{1+i},
    pairwise overlap c = ``e_overlap`` and orthogonal to E_0; the ready
    row and any spare pointer rows keep E_0.  Without an environment the
    table is one column of ones.
    """
    env = model.environment
    if env is None:
        return np.ones((model.o_dim, 1))
    records = np.zeros((model.o_dim, env.e_dim))
    records[0, 0] = records[model.s_dim + 1 :, 0] = 1.0
    branches = np.arange(1, model.s_dim + 1)
    records[branches, 1] = np.sqrt(env.e_overlap)
    records[branches, 1 + branches] = np.sqrt(1.0 - env.e_overlap)
    return records
