"""The paper's doublet dynamics.

A doublet pairs the dynamical state, which only ever evolves unitarily,
with the information state of the observer register.  For an ensemble
(:class:`StatisticalDoublet`) that is the record distribution tr(rho P_j)
over the S (x) O pointer characters, for a state on S (x) O or on
S (x) O (x) E alike, recomputed from the state after every step;
for one event (:class:`DoubletState`) it is the one character the
register holds.  The premeasurement coupling as a Hamiltonian, its
Schroedinger-Liouville evolution and the erasure of a record by the
inverse swap live here.  No scenario but ``erasure``, whose runner is here,
runs any of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TRACE_ATOL, check
from .linalg import require_hermitian, unitary_from_hamiltonian
from .algebra import OperatorAlgebra
from .measurement import MeasurementModel, full_layout, ms_layout, pointer_characters, ready_state, system_state
from .pointer import _ready_pointer_swap
from .restriction import Character
from .scenarios import ScenarioConfig
from .states import DensityMatrix, StateVector, density_from_vector

__all__ = [
    "DoubletState",
    "StatisticalDoublet",
    "evolve_sle",
    "evolve_unitary",
    "initial_doublet",
    "interaction_hamiltonian",
    "record_erasure",
    "statistical_doublet",
]


def interaction_hamiltonian(model: MeasurementModel) -> np.ndarray:
    """Coupling whose propagator over the interaction window points the register.

    H = (pi / 2 dt) sum_i |s_i><s_i| (x) (|O_i><O_0| + |O_0><O_i|); evolving
    for dt rotates |O_0> fully into |O_i> on each branch, with a fixed
    per-branch phase of -i that cancels in every pointer probability.
    """
    o = model.o_dim
    dt = model.interaction_duration
    h = np.zeros((model.s_dim * o, model.s_dim * o), dtype=complex)
    scale = np.pi / (2.0 * dt)
    for alpha in range(model.s_dim):
        base = alpha * o
        h[base, base + alpha + 1] = scale
        h[base + alpha + 1, base] = scale
    return h


@dataclass(frozen=True, eq=False)
class StatisticalDoublet:
    """Ensemble-level doublet: dynamical density matrix plus the probability
    vector of pointer records, kept consistent with trace(P_j rho)."""

    dynamical: DensityMatrix
    information: np.ndarray
    characters: tuple[Character, ...]

    def __post_init__(self) -> None:
        info = np.array(self.information, dtype=float)
        info.setflags(write=False)
        object.__setattr__(self, "information", info)
        if info.size != len(self.characters):
            raise ValueError("information vector length must match character count")
        check("information vector has a negative entry, -min", -np.min(info), TRACE_ATOL)
        check("information vector does not sum to 1", abs(info.sum() - 1.0), TRACE_ATOL)
        recomputed = _records(self.dynamical, self.characters)
        drift = np.max(np.abs(recomputed - info))
        check("information vector inconsistent with the dynamical component", drift, 1e-9)


def _information_of(diagonal: np.ndarray, algebra: OperatorAlgebra, classes) -> np.ndarray:
    """The record distribution tr(rho P_k) over the classes ``classes``,
    in their order, from ``diagonal`` = diag(V^dag rho V) on ``algebra``:
    its sum over each class."""
    return np.clip(algebra.class_sums(diagonal.real)[classes], 0.0, None)


def _records(rho: DensityMatrix, characters: tuple[Character, ...]) -> np.ndarray:
    """The record distribution of ``rho`` over ``characters``, in their
    order; on S (x) O (x) E each class sums the e_dim entries of each of
    its S (x) O columns, as the S (x) O (x) E class sums do."""
    alg = characters[0].algebra
    return _information_of(alg.eigenbasis_diagonal(rho.matrix), alg, [c.projector_index for c in characters])


def _doublet(rho: DensityMatrix, characters: tuple[Character, ...]) -> StatisticalDoublet:
    """The doublet of ``rho`` with its record distribution read from it."""
    return StatisticalDoublet(rho, _records(rho, characters), characters)


def statistical_doublet(model: MeasurementModel, rho: DensityMatrix) -> StatisticalDoublet:
    """Doublet with the record distribution computed from the state."""
    if rho.layout not in (ms_layout(model), full_layout(model)):
        raise ValueError("state layout matches neither the measurement nor the full layout")
    return _doublet(rho, pointer_characters(model))


def initial_doublet(model: MeasurementModel, psi_s: StateVector) -> StatisticalDoublet:
    """Pre-measurement doublet: register ready, record distribution (1, 0, ...)."""
    return statistical_doublet(model, density_from_vector(ready_state(model, psi_s)))


def evolve_unitary(theta: StatisticalDoublet, u: np.ndarray) -> StatisticalDoublet:
    """Conjugate the dynamical component by a unitary; refresh the record
    distribution from the evolved state."""
    rho = theta.dynamical
    return _doublet(DensityMatrix(rho.layout, u @ rho.matrix @ u.conj().T), theta.characters)


def evolve_sle(theta: StatisticalDoublet, h: np.ndarray, t: float) -> StatisticalDoublet:
    """Unitary Schroedinger-Liouville step exp(-i h t) of the doublet.

    Hamiltonians commuting with every pointer projector leave the record
    distribution unchanged: no measurement means no information change.
    """
    h = require_hermitian(h, what="hamiltonian")
    if h.shape[0] != theta.dynamical.dim:
        raise ValueError("hamiltonian dimension does not match the doublet")
    return evolve_unitary(theta, unitary_from_hamiltonian(h, t))


def record_erasure(model: MeasurementModel, psi_s: StateVector) -> tuple[np.ndarray, ...]:
    """Premeasure ``psi_s``, then erase the record with the same swap.

    Returns the record distributions of the ready, the measured and the
    recovered state (the doublets evolved by the premeasurement and its
    inverse carry the same), and the recovered state's fidelity with the
    ready one.
    """
    ready = ready_state(model, psi_s).amplitudes
    measured = _ready_pointer_swap(model, ready)
    recovered = _ready_pointer_swap(model, measured)
    overlap = np.vdot(ready, recovered)
    setup = model._setup
    infos = [_information_of(a * a.conj(), setup.algebra, setup.pointer_class) for a in (ready, measured, recovered)]
    return (*infos, float((overlap * overlap.conj()).real))


@dataclass(frozen=True, eq=False)
class DoubletState:
    """Individual-event doublet: un-collapsed dynamical state plus the one
    pointer character this event's register actually holds."""

    dynamical: DensityMatrix
    information: Character
    event_index: int


def _run_erasure(cfg: ScenarioConfig):
    initial, measured, recovered, fidelity = record_erasure(
        cfg.model, system_state(cfg.model, cfg.amplitudes)
    )
    summary = {
        "pointer_values": list(cfg.model.qo_values),
        "information_initial": initial.tolist(),
        "information_after_measurement": measured.tolist(),
        "information_after_reversal": recovered.tolist(),
        "recovered_initial_state_fidelity": fidelity,
    }
    return summary, None
