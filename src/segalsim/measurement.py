"""End-to-end measurement models.

A :class:`MeasurementModel` couples a measured system S (dim 2 by default)
to an observer register O (dim 3: one ready state plus one pointer state
per S basis state), optionally followed by an environment register E.  The
pipeline for one event is

    sample the input (if it is an ensemble table)
    -> premeasurement unitary on S (x) O
    -> environment coupling (if configured)
    -> stochastic restriction onto the observer's pointer algebra.

The dynamical component of the state is never collapsed: an external
observer sees exact unitary evolution throughout, while the sampled
pointer character is what the register itself records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import (
    DEGENERACY_GAP,
    InvariantViolation,
    STATE_EQUALITY_ATOL,
    TRACE_ATOL,
)
from ._philox import event_uniforms
from .algebra import OperatorAlgebra, generate_algebra
from .linalg import (
    SpaceLayout,
    basis_vector,
    degenerate_clusters,
    hermitian_eig,
    identity,
    partial_trace,
    projector,
    require_hermitian,
    tensor,
    unitary_from_hamiltonian,
)
from .restriction import (
    BreuerReport,
    Character,
    breuer_indistinguishable,
    character_probabilities,
    decompose_restricted,
    draw_cumulative,
    extremal_states,
    restrict_state,
    sample_individual_restriction,
)
from .states import (
    DensityMatrix,
    Gemenge,
    StateVector,
    density_from_vector,
    expectation,
    inverse_cdf,
    purity,
    sample_gemenge,
)

__all__ = [
    "DoubletState",
    "EnvironmentSpec",
    "EventBatch",
    "EventRecord",
    "MeasurementModel",
    "PointerBasisReport",
    "StatisticalDoublet",
    "WignerFriendReport",
    "branch_mixture",
    "couple_environment",
    "event_rng",
    "evolve_sle",
    "evolve_unitary",
    "extract_pointer_basis",
    "full_layout",
    "initial_doublet",
    "interaction_hamiltonian",
    "interference_observable",
    "make_model",
    "ms_layout",
    "pointer_algebra",
    "pointer_characters",
    "pointer_histogram",
    "pointer_state_stability",
    "premeasure",
    "premeasurement_unitary",
    "run_ensemble",
    "run_event",
    "statistical_doublet",
    "system_layout",
    "system_state",
    "wigner_friend_report",
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
    """
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
    if isinstance(environment, dict):
        environment = EnvironmentSpec(**environment)
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


# ---------------------------------------------------------------------------
# cached per-model machinery


@dataclass(eq=False)
class _Setup:
    model: MeasurementModel
    layout: SpaceLayout
    ready_tail: np.ndarray
    pipeline_unitary: np.ndarray
    algebra: OperatorAlgebra
    characters: tuple[Character, ...]          # pointer order (qo_values order)
    projectors: tuple[np.ndarray, ...]         # pointer order
    extremal_to_pointer: np.ndarray
    pointer_to_extremal: np.ndarray
    ms_algebra: OperatorAlgebra


@lru_cache(maxsize=None)
def _setup(model: MeasurementModel) -> _Setup:
    layout = full_layout(model)
    u_ms = premeasurement_unitary(model)
    if model.environment is not None:
        pipeline = tensor(identity(model.s_dim), _environment_unitary(model)) @ tensor(
            u_ms, identity(model.environment.e_dim)
        )
        ready_tail = np.kron(
            basis_vector(model.o_dim, 0), basis_vector(model.environment.e_dim, 0)
        )
    else:
        pipeline = u_ms
        ready_tail = basis_vector(model.o_dim, 0)

    algebra = _pointer_algebra_on(model, layout)
    chars_ext = extremal_states(algebra)
    ext_to_ptr, ptr_to_ext = _pointer_permutation(model, chars_ext)
    characters = tuple(chars_ext[ptr_to_ext[j]] for j in range(model.o_dim))
    projectors = tuple(c.projector for c in characters)
    if model.environment is None:
        ms_alg = algebra
    else:
        ms_alg = _pointer_algebra_on(model, ms_layout(model))
    return _Setup(
        model=model,
        layout=layout,
        ready_tail=ready_tail,
        pipeline_unitary=pipeline,
        algebra=algebra,
        characters=characters,
        projectors=projectors,
        extremal_to_pointer=ext_to_ptr,
        pointer_to_extremal=ptr_to_ext,
        ms_algebra=ms_alg,
    )


def _pointer_operator(model: MeasurementModel) -> np.ndarray:
    return np.diag(np.asarray(model.qo_values, dtype=complex))


def _pointer_algebra_on(model: MeasurementModel, layout: SpaceLayout) -> OperatorAlgebra:
    ops = []
    for label, dim in layout.factors:
        ops.append(_pointer_operator(model) if label == "O" else identity(dim))
    return generate_algebra([tensor(*ops)], layout)


def _pointer_permutation(model, chars_ext):
    """Match extremal-order characters to pointer (qo_values) order."""
    ext_to_ptr = np.full(len(chars_ext), -1, dtype=int)
    ptr_to_ext = np.full(model.o_dim, -1, dtype=int)
    for k, char in enumerate(chars_ext):
        value = char.pointer_value()
        matches = [j for j, q in enumerate(model.qo_values) if abs(q - value) < 1e-7]
        if len(matches) != 1:
            raise InvariantViolation(
                f"character value {value!r} does not match one pointer value"
            )
        ext_to_ptr[k] = matches[0]
        ptr_to_ext[matches[0]] = k
    return ext_to_ptr, ptr_to_ext


def pointer_algebra(model: MeasurementModel, environment: bool = False) -> OperatorAlgebra:
    """The observer's effective algebra: unit and pointer observable only."""
    setup = _setup(model)
    return setup.algebra if environment else setup.ms_algebra


def pointer_characters(model: MeasurementModel, environment: bool = False) -> tuple[Character, ...]:
    """Characters of the pointer algebra in ``qo_values`` order."""
    setup = _setup(model)
    if environment or model.environment is None:
        return setup.characters
    chars_ext = extremal_states(setup.ms_algebra)
    _, ptr_to_ext = _pointer_permutation(model, chars_ext)
    return tuple(chars_ext[ptr_to_ext[j]] for j in range(model.o_dim))


# ---------------------------------------------------------------------------
# premeasurement dynamics


def premeasurement_unitary(model: MeasurementModel) -> np.ndarray:
    """Unitary sending |s_i>|O_0> to |s_i>|O_i>: conditional ready/pointer swap.

    Real, symmetric and self-inverse, so applying it twice is the exact
    erasure of the record.
    """
    o = model.o_dim
    u = np.zeros((model.s_dim * o, model.s_dim * o), dtype=complex)
    for alpha in range(model.s_dim):
        block = np.eye(o)
        block[[0, alpha + 1]] = block[[alpha + 1, 0]]
        u[alpha * o : (alpha + 1) * o, alpha * o : (alpha + 1) * o] = block
    return u


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


def interference_observable(model: MeasurementModel) -> np.ndarray:
    """Cross-branch correlation witness |s_1 O_1><s_2 O_2| + h.c.

    Its expectation separates the post-measurement superposition from the
    matched branch mixture, but it lies outside the pointer algebra, so
    the register itself can never read it.  Defined for two branches.
    """
    if model.s_dim != 2:
        raise ValueError("the interference observable is defined for s_dim = 2")
    d = 2 * model.o_dim
    b = np.zeros((d, d), dtype=complex)
    i, j = 1, model.o_dim + 2
    b[i, j] = 1.0
    b[j, i] = 1.0
    return b


def premeasure(model: MeasurementModel, psi_s: StateVector) -> StateVector:
    """Post-measurement pure state on S (x) O for an input system state."""
    if psi_s.layout != system_layout(model):
        raise ValueError("input state must live on the bare system layout")
    amp = np.kron(psi_s.amplitudes, basis_vector(model.o_dim, 0))
    return StateVector(ms_layout(model), premeasurement_unitary(model) @ amp)


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


# ---------------------------------------------------------------------------
# doublet states


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
        if np.min(info) < -TRACE_ATOL or abs(info.sum() - 1.0) > TRACE_ATOL:
            raise InvariantViolation(
                f"information vector is not a probability distribution: {info!r}"
            )
        recomputed = _information_of(self.dynamical, self.characters)
        if np.max(np.abs(recomputed - info)) > 1e-9:
            raise InvariantViolation(
                "information vector inconsistent with the dynamical component"
            )


def _information_of(rho: DensityMatrix, characters: tuple[Character, ...]) -> np.ndarray:
    probs = np.array(
        [float(np.einsum("ij,ji->", rho.matrix, c.projector).real) for c in characters]
    )
    return np.clip(probs, 0.0, None)


def statistical_doublet(model: MeasurementModel, rho: DensityMatrix) -> StatisticalDoublet:
    """Doublet with the record distribution computed from the state."""
    setup = _setup(model)
    if rho.layout == setup.layout:
        chars = setup.characters
    elif rho.layout == ms_layout(model):
        chars = pointer_characters(model, environment=False)
    else:
        raise ValueError("state layout matches neither the measurement nor the full layout")
    return StatisticalDoublet(rho, _information_of(rho, chars), chars)


def initial_doublet(model: MeasurementModel, psi_s: StateVector) -> StatisticalDoublet:
    """Pre-measurement doublet: register ready, record distribution (1, 0, ...)."""
    if psi_s.layout != system_layout(model):
        raise ValueError("input state must live on the bare system layout")
    full = psi_s.tensor(StateVector(SpaceLayout((("O", model.o_dim),)), basis_vector(model.o_dim, 0)))
    return statistical_doublet(model, density_from_vector(full))


def evolve_unitary(theta: StatisticalDoublet, u: np.ndarray) -> StatisticalDoublet:
    """Conjugate the dynamical component by a unitary; refresh the record
    distribution from the evolved state."""
    rho = theta.dynamical
    evolved = DensityMatrix(rho.layout, u @ rho.matrix @ u.conj().T)
    return StatisticalDoublet(evolved, _information_of(evolved, theta.characters), theta.characters)


def evolve_sle(theta: StatisticalDoublet, h: np.ndarray, t: float) -> StatisticalDoublet:
    """Unitary Schroedinger-Liouville step exp(-i h t) of the doublet.

    Hamiltonians commuting with every pointer projector leave the record
    distribution unchanged: no measurement means no information change.
    """
    h = require_hermitian(h, what="hamiltonian")
    if h.shape[0] != theta.dynamical.dim:
        raise ValueError("hamiltonian dimension does not match the doublet")
    return evolve_unitary(theta, unitary_from_hamiltonian(h, t))


# ---------------------------------------------------------------------------
# event sampling


@dataclass(frozen=True, eq=False)
class DoubletState:
    """Individual-event doublet: un-collapsed dynamical state plus the one
    pointer character this event's register actually holds."""

    dynamical: DensityMatrix
    information: Character
    event_index: int


@dataclass(frozen=True)
class EventRecord:
    """Log entry for one measurement event."""

    event_index: int
    seed: int | None
    input_kind: str
    gemenge_row: int | None
    pointer_index: int
    impression: float
    probability: float


def event_rng(seed: int, event_index: int) -> np.random.Generator:
    """Independent per-event stream: Philox keyed by (seed, event_index).

    The two 64-bit words form the 128-bit Philox key, so distinct events
    get cryptographically separated streams and any event can be replayed
    in isolation.
    """
    seed = int(seed)
    event_index = int(event_index)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if event_index < 0:
        raise ValueError("event index must be non-negative")
    return np.random.Generator(np.random.Philox(key=seed + (event_index << 64)))


def run_event(
    model: MeasurementModel,
    source: StateVector | Gemenge,
    rng: np.random.Generator,
    event_index: int = 0,
    seed: int | None = None,
) -> tuple[EventRecord, DoubletState]:
    """One full measurement event.

    The dynamical component returned is the exact unitary image of the
    input (no collapse); the record carries the sampled pointer character
    and the probability it was drawn with.
    """
    setup = _setup(model)
    if isinstance(source, Gemenge):
        if source.layout != system_layout(model):
            raise ValueError("ensemble rows must live on the bare system layout")
        row, psi_s = sample_gemenge(source, rng)
        kind = "gemenge"
    else:
        row = None
        psi_s = source
        kind = "pure"
    if psi_s.layout != system_layout(model):
        raise ValueError("input state must live on the bare system layout")

    amp = setup.pipeline_unitary @ np.kron(psi_s.amplitudes, setup.ready_tail)
    xi = StateVector(setup.layout, amp)
    char, prob = sample_individual_restriction(xi, setup.algebra, rng)
    pointer_index = int(setup.extremal_to_pointer[char.projector_index])
    record = EventRecord(
        event_index=event_index,
        seed=seed,
        input_kind=kind,
        gemenge_row=row,
        pointer_index=pointer_index,
        impression=model.qo_values[pointer_index],
        probability=prob,
    )
    return record, DoubletState(density_from_vector(xi), char, event_index)


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Columnar log of one ensemble run, event i at position i of each column.

    ``pointer_index`` and ``probability`` hold the sampled pointer and the
    probability it carried; ``gemenge_row`` holds the sampled ensemble row,
    or is ``None`` for a pure input.  The seed, the input kind and the
    pointer values are stored once.  Indexing and iteration give the
    per-event :class:`EventRecord` that :func:`run_event` returns.
    """

    seed: int
    input_kind: str
    pointer_values: tuple[float, ...]
    pointer_index: np.ndarray
    gemenge_row: np.ndarray | None
    probability: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.pointer_index, self.gemenge_row, self.probability):
            if column is not None:
                column.setflags(write=False)

    def __len__(self) -> int:
        return self.pointer_index.size

    def __getitem__(self, i: int) -> EventRecord:
        i = range(len(self))[i]
        pointer_index = int(self.pointer_index[i])
        return EventRecord(
            event_index=i,
            seed=self.seed,
            input_kind=self.input_kind,
            gemenge_row=None if self.gemenge_row is None else int(self.gemenge_row[i]),
            pointer_index=pointer_index,
            impression=self.pointer_values[pointer_index],
            probability=float(self.probability[i]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def run_ensemble(
    model: MeasurementModel,
    source: StateVector | Gemenge,
    n_events: int,
    seed: int,
) -> EventBatch:
    """Batch of events with per-event derived streams.

    Event i reproduces run_event(..., event_rng(seed, i)) record for
    record.  The deterministic pipeline prefix runs once per input row,
    all event streams are evaluated in one vectorized pass, and each
    inverse CDF is one search over the whole batch.
    """
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    setup = _setup(model)
    if isinstance(source, Gemenge):
        if source.layout != system_layout(model):
            raise ValueError("ensemble rows must live on the bare system layout")
        states = [state for state, _ in source.rows]
        kind = "gemenge"
    else:
        if source.layout != system_layout(model):
            raise ValueError("input state must live on the bare system layout")
        states = [source]
        kind = "pure"

    probs = []
    for state in states:
        amp = setup.pipeline_unitary @ np.kron(state.amplitudes, setup.ready_tail)
        probs.append(character_probabilities(StateVector(setup.layout, amp), setup.algebra))
    probs = np.array(probs)
    cumulatives = [draw_cumulative(p) for p in probs]

    # A pure input draws the pointer only; an ensemble draws its row first.
    uniforms = event_uniforms(seed, n_events, 2 if kind == "gemenge" else 1)
    if kind == "gemenge":
        rows = inverse_cdf(source.cumulative, uniforms[:, 0])
        k = np.empty(n_events, dtype=np.intp)
        order = np.argsort(rows)
        bounds = np.searchsorted(rows[order], np.arange(len(states) + 1))
        for row, cumulative in enumerate(cumulatives):
            events = order[bounds[row] : bounds[row + 1]]
            k[events] = inverse_cdf(cumulative, uniforms[events, 1])
        probability = probs[rows, k]
    else:
        rows = None
        k = inverse_cdf(cumulatives[0], uniforms[:, 0])
        probability = probs[0, k]
    return EventBatch(
        seed=seed,
        input_kind=kind,
        pointer_values=model.qo_values,
        pointer_index=setup.extremal_to_pointer[k],
        gemenge_row=rows,
        probability=probability,
    )


def pointer_histogram(model: MeasurementModel, records: EventBatch) -> np.ndarray:
    """Event counts per pointer value, in ``qo_values`` order."""
    return np.bincount(records.pointer_index, minlength=model.o_dim)


# ---------------------------------------------------------------------------
# environment coupling and decoherence


def _environment_branch_vectors(model: MeasurementModel) -> list[np.ndarray]:
    """Branch states E_1..E_s with pairwise overlap ``e_overlap``.

    Built from a shared direction plus orthogonal branch-distinct ones:
    sqrt(c) u + sqrt(1-c) f_i, all orthogonal to the ready state E_0.
    """
    env = model.environment
    c = env.e_overlap
    vectors = []
    for i in range(1, model.s_dim + 1):
        v = np.sqrt(c) * basis_vector(env.e_dim, 1) + np.sqrt(1.0 - c) * basis_vector(
            env.e_dim, 1 + i
        )
        vectors.append(v)
    return vectors


def _environment_unitary(model: MeasurementModel) -> np.ndarray:
    """Controlled shift on O (x) E sending |O_i>|E_0> to |O_i>|E_i>."""
    env = model.environment
    e0 = basis_vector(env.e_dim, 0)
    branches = _environment_branch_vectors(model)
    blocks = []
    for j in range(model.o_dim):
        if 1 <= j <= model.s_dim:
            w = branches[j - 1]
            # rotation by pi/2 in the (E_0, E_j) plane; identity elsewhere
            v = (
                identity(env.e_dim)
                - projector(e0)
                - projector(w)
                + np.outer(w, e0.conj())
                - np.outer(e0, w.conj())
            )
        else:
            v = identity(env.e_dim)
        blocks.append(v)
    d_o, d_e = model.o_dim, env.e_dim
    u = np.zeros((d_o * d_e, d_o * d_e), dtype=complex)
    for j, v in enumerate(blocks):
        u[j * d_e : (j + 1) * d_e, j * d_e : (j + 1) * d_e] = v
    return u


def couple_environment(model: MeasurementModel, rho_ms: DensityMatrix) -> DensityMatrix:
    """Entangle the register with its environment.

    E starts in the ready state; the controlled unitary correlates each
    pointer state |O_i> with a branch state |E_i> whose pairwise overlaps
    equal the configured ``e_overlap``.  Tracing E out afterwards scales
    the cross-branch coherences by exactly that overlap.
    """
    if model.environment is None:
        raise ValueError("model has no environment configured")
    if rho_ms.layout != ms_layout(model):
        raise ValueError("input state must live on the S (x) O layout")
    e0 = basis_vector(model.environment.e_dim, 0)
    big = tensor(rho_ms.matrix, projector(e0))
    w = tensor(identity(model.s_dim), _environment_unitary(model))
    return DensityMatrix(full_layout(model), w @ big @ w.conj().T)


@dataclass(frozen=True, eq=False)
class PointerBasisReport:
    """Recovered register basis and how unambiguous the recovery was."""

    vectors: tuple[np.ndarray, ...]
    weights: np.ndarray
    flag: str  # "UNIQUE" or "DEGENERATE-UNRESOLVED"
    residual: float


def extract_pointer_basis(
    rho_mse: DensityMatrix,
    weight_floor: float = 1e-10,
    gap: float = DEGENERACY_GAP,
    residual_tol: float = 1e-6,
) -> PointerBasisReport:
    """Recover the register basis selected by a tri-partite entangled state.

    Primary route: the eigenbasis of the O marginal.  Degenerate
    eigenvalue clusters are resolved through the S-conditioned O states
    (each measured branch pins down its own pointer vector, whatever the
    environment overlaps are); if the conditioned states cannot split a
    cluster either, the report says DEGENERATE-UNRESOLVED rather than
    picking a basis arbitrarily.  States whose S-diagonal blocks fail to
    factor into a single register direction are rejected as not being of
    the measured tri-partite form.
    """
    lay = rho_mse.layout
    for label in ("S", "O", "E"):
        if label not in lay.labels:
            raise ValueError(f"layout must carry an {label!r} factor, has {lay.labels}")
    s_ax = lay.axis("S")
    dims = lay.dims
    n = len(dims)
    sub_layout = lay.subset(set(lay.labels) - {"S"})

    # S-conditioned blocks <s_i| rho |s_i> on the remaining factors.
    t = rho_mse.matrix.reshape(dims + dims)
    conditional: list[tuple[float, np.ndarray]] = []  # (weight, normalized O state)
    residual = 0.0
    for i in range(dims[s_ax]):
        block = np.take(np.take(t, i, axis=s_ax + n), i, axis=s_ax)
        d_sub = sub_layout.dim
        block = block.reshape(d_sub, d_sub)
        weight = float(np.trace(block).real)
        if weight <= weight_floor:
            continue
        sigma = partial_trace(block, sub_layout, {"O"})
        eigvals = np.linalg.eigvalsh(sigma)
        residual = max(residual, 1.0 - float(eigvals[-1]) / weight)
        conditional.append((weight, sigma / weight))
    if residual > residual_tol:
        raise ValueError(
            f"state is not approximately tri-decomposable: branch residual {residual:.3e} "
            f"exceeds {residual_tol:.1e}"
        )

    rho_o = partial_trace(rho_mse.matrix, lay, {"O"})
    values, vectors = hermitian_eig(rho_o)
    significant = [k for k in range(values.size) if values[k] > weight_floor]
    clusters = [
        [significant[j] for j in group]
        for group in degenerate_clusters(values[significant], gap=gap)
    ]

    out_vectors: list[np.ndarray] = []
    out_weights: list[float] = []
    unresolved = False
    for cluster in clusters:
        if len(cluster) == 1:
            out_vectors.append(vectors[:, cluster[0]])
            out_weights.append(float(values[cluster[0]]))
            continue
        p_cluster = vectors[:, cluster] @ vectors[:, cluster].conj().T
        candidates: list[np.ndarray] = []
        for _, sigma in conditional:
            _, sig_vecs = hermitian_eig(sigma)
            u = sig_vecs[:, -1]
            projected = p_cluster @ u
            norm = float(np.linalg.norm(projected))
            if norm**2 < 0.5:
                continue
            candidate = projected / norm
            for prior in candidates:  # drop duplicates of an already-found branch
                candidate = candidate - prior * np.vdot(prior, candidate)
            norm = float(np.linalg.norm(candidate))
            if norm > 1e-6:
                candidates.append(candidate / norm)
        if len(candidates) == len(cluster):
            out_vectors.extend(candidates)
            out_weights.extend(float(values[k]) for k in cluster)
        else:
            unresolved = True
            out_vectors.extend(vectors[:, k] for k in cluster)
            out_weights.extend(float(values[k]) for k in cluster)

    return PointerBasisReport(
        vectors=tuple(out_vectors),
        weights=np.array(out_weights),
        flag="DEGENERATE-UNRESOLVED" if unresolved else "UNIQUE",
        residual=residual,
    )


def pointer_state_stability(
    model: MeasurementModel,
    o_state: StateVector,
    t_grid: Sequence[float],
) -> np.ndarray:
    """Register purity under environment dephasing, per grid time.

    The coupling g Q_O (x) V_E with V_E = diag(0, 1, ..., e_dim - 1)
    leaves every pointer eigenstate exactly pure, while superpositions of
    distinct pointer values dephase; the environment starts in the uniform
    superposition of V_E eigenstates so the decay is actually visible.
    """
    if model.environment is None:
        raise ValueError("model has no environment configured")
    if o_state.layout != SpaceLayout((("O", model.o_dim),)):
        raise ValueError("state must live on the bare register layout")
    env = model.environment
    g = env.coupling_strength
    qo = np.asarray(model.qo_values)
    v_e = np.arange(env.e_dim)
    phases = g * qo[:, None] * v_e[None, :]
    e_in = np.full(env.e_dim, 1.0 / np.sqrt(env.e_dim), dtype=complex)
    amp0 = o_state.amplitudes[:, None] * e_in[None, :]
    purities = []
    for t in t_grid:
        amp_t = np.exp(-1j * phases * float(t)) * amp0
        rho_o = amp_t @ amp_t.conj().T
        purities.append(float(np.einsum("ij,ji->", rho_o, rho_o).real))
    return np.array(purities)


# ---------------------------------------------------------------------------
# two-observer comparison


@dataclass(frozen=True, eq=False)
class WignerFriendReport:
    """External (never-collapsing) vs internal (record-sampling) accounts
    of the same measurement run."""

    b_expectation: float
    dynamical_purity: float
    histogram: np.ndarray
    frequencies: np.ndarray
    restricted_probabilities: np.ndarray
    breuer_pointer: BreuerReport
    breuer_with_interference: BreuerReport
    n_events: int
    seed: int


@lru_cache(maxsize=None)
def _interference_algebra(model: MeasurementModel) -> OperatorAlgebra:
    lay = ms_layout(model)
    ops = [tensor(identity(model.s_dim), _pointer_operator(model)), interference_observable(model)]
    return generate_algebra(ops, lay)


def wigner_friend_report(
    model: MeasurementModel,
    psi_s: StateVector,
    n_events: int,
    seed: int,
    breuer_tol: float = STATE_EQUALITY_ATOL,
    records: EventBatch | None = None,
) -> WignerFriendReport:
    """Run the two-observer comparison for a pure input state.

    ``records`` may carry a precomputed ensemble for the same
    (model, psi_s, n_events, seed); otherwise the events are run here.
    """
    post = premeasure(model, psi_s)
    rho_p = density_from_vector(post)
    rho_m = branch_mixture(model, psi_s.amplitudes)
    b = interference_observable(model)

    if records is None:
        records = run_ensemble(model, psi_s, n_events, seed)
    elif len(records) != n_events:
        raise ValueError("precomputed records do not match n_events")
    histogram = pointer_histogram(model, records)

    ms_alg = pointer_algebra(model, environment=False)
    ensemble = decompose_restricted(restrict_state(rho_p, ms_alg), ms_alg)
    chars = pointer_characters(model, environment=False)
    index_of = {id(c): j for j, c in enumerate(chars)}
    restricted = np.zeros(model.o_dim)
    for char, p in ensemble.rows:
        restricted[index_of[id(char)]] = p

    return WignerFriendReport(
        b_expectation=expectation(rho_p, b),
        dynamical_purity=purity(rho_p),
        histogram=histogram,
        frequencies=histogram / float(n_events),
        restricted_probabilities=restricted,
        breuer_pointer=breuer_indistinguishable(rho_p, rho_m, ms_alg, tol=breuer_tol),
        breuer_with_interference=breuer_indistinguishable(
            rho_p, rho_m, _interference_algebra(model), tol=breuer_tol
        ),
        n_events=n_events,
        seed=seed,
    )
