"""End-to-end measurement models.

A :class:`MeasurementModel` couples a measured system S (dim 2 by default)
to an observer register O (dim 3: one ready state plus one pointer state
per S basis state), optionally followed by an environment register E.  The
pipeline for one event is

    sample the input (if it is an ensemble table)
    -> premeasurement: the ready/pointer swap on S (x) O
    -> environment coupling (if configured)
    -> stochastic restriction onto the observer's pointer algebra.

Premeasurement is a permutation of amplitudes, its own inverse.  E always
starts ready, so the environment coupling acts as the isometry
|s, O_j> -> |s, O_j>|E_j>: one table of environment records, row j the E
state left next to pointer state |O_j>.  Every summary of a run is read
from the premeasured amplitudes and that table, with no density matrix.

The dynamical component of the state is never collapsed: an external
observer sees exact unitary evolution throughout, while the sampled
pointer character is what the register itself records.

This module holds what every event scenario runs: the model, its
layouts, the per-model pointer algebra, premeasurement, the restricted
probabilities, the environment records and the event runner.  The
doublet dynamics (:mod:`segalsim.doublet`), the decoherence summaries
(:mod:`segalsim.decoherence`) and the two-observer report
(:mod:`segalsim.wigner`) build on it and are imported only by the
scenarios that run them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .config import InvariantViolation, MAX_DENSE_BYTES, PROBABILITY_FLOOR
from ._philox import uniform_blocks
from .algebra import OperatorAlgebra, diagonal_algebra, joint_spectral_resolution
from .linalg import SpaceLayout, basis_vector
from .restriction import (
    AlgebraicState,
    Character,
    character_probabilities,
    decompose_restricted,
    draw_cumulative,
    extremal_states,
)
from .states import DensityMatrix, Gemenge, StateVector, table_inverse_cdf

__all__ = [
    "EnvironmentSpec",
    "EventBatch",
    "EventRecord",
    "MeasurementModel",
    "branch_mixture",
    "column_counts",
    "full_layout",
    "interference_expectation",
    "interference_observable",
    "make_model",
    "ms_layout",
    "pointer_algebra",
    "pointer_characters",
    "pointer_histogram",
    "pointer_operator",
    "premeasure",
    "ready_state",
    "restricted_pointer_probabilities",
    "run_ensemble",
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


# ---------------------------------------------------------------------------
# cached per-model machinery


@dataclass(eq=False)
class _Setup:
    layout: SpaceLayout
    records: np.ndarray                        # (o_dim, e_dim) environment records
    algebra: OperatorAlgebra
    characters: tuple[Character, ...]          # pointer order (qo_values order)
    extremal_to_pointer: np.ndarray
    ms_algebra: OperatorAlgebra                # the S (x) O layout
    ms_characters: tuple[Character, ...]       # pointer order


@lru_cache(maxsize=None)
def _setup(model: MeasurementModel) -> _Setup:
    layout = full_layout(model)
    algebra = _pointer_algebra_on(model, layout)
    characters, ext_to_ptr = _pointer_order(model, algebra)
    if model.environment is None:
        ms_alg, ms_characters = algebra, characters
    else:
        ms_alg = _pointer_algebra_on(model, ms_layout(model))
        ms_characters, _ = _pointer_order(model, ms_alg)
    return _Setup(
        layout=layout,
        records=_environment_records(model),
        algebra=algebra,
        characters=characters,
        extremal_to_pointer=ext_to_ptr,
        ms_algebra=ms_alg,
        ms_characters=ms_characters,
    )


def _pointer_algebra_on(model: MeasurementModel, layout: SpaceLayout) -> OperatorAlgebra:
    return diagonal_algebra(_pointer_diagonal(model, layout)[None], layout)


def _pointer_order(model, algebra):
    """The algebra's characters in pointer (qo_values) order, and the map
    from extremal order to pointer order.

    Character k matches every pointer value q with |q - value_k| < 1e-7,
    and the match must be one to one: pointer values that merged into one
    class leave a pointer value with no character.  The character values
    ascend, so one sweep over the sorted pointer values finds each match:
    the values within 1e-7 of value_k are consecutive, and neither end of
    that run moves down as k grows.  The sweep is plain Python; on the
    pointer algebra's k classes it costs less than the numpy sort and
    search code it would page in.
    """
    chars_ext = extremal_states(algebra)
    values = joint_spectral_resolution(algebra).generator_values[:, 0].tolist()
    qo = model.qo_values
    by_value = sorted(range(len(qo)), key=qo.__getitem__)
    ptr, lo = [], 0  # each character's one pointer index, else None
    for value in values:
        while lo < len(qo) and qo[by_value[lo]] < value and not abs(qo[by_value[lo]] - value) < 1e-7:
            lo += 1
        hi = lo
        while hi < len(qo) and abs(qo[by_value[hi]] - value) < 1e-7:
            hi += 1
        ptr.append(by_value[lo] if hi - lo == 1 else None)
    hits = Counter(ptr)
    bad = [f"character value {v!r} does not match one pointer value" for v, j in zip(values, ptr) if j is None]
    bad += [f"pointer value {q!r} does not match one character" for j, q in enumerate(qo) if hits[j] != 1]
    if bad:
        raise InvariantViolation(bad[0])
    by_pointer = dict(zip(ptr, chars_ext))
    return tuple(by_pointer[j] for j in range(len(qo))), np.array(ptr, np.min_scalar_type(model.o_dim - 1))


def pointer_algebra(model: MeasurementModel, environment: bool = False) -> OperatorAlgebra:
    """The observer's effective algebra: unit and pointer observable only."""
    setup = _setup(model)
    return setup.algebra if environment else setup.ms_algebra


def pointer_characters(model: MeasurementModel, environment: bool = False) -> tuple[Character, ...]:
    """Characters of the pointer algebra in ``qo_values`` order."""
    setup = _setup(model)
    return setup.characters if environment else setup.ms_characters


def restricted_pointer_probabilities(model: MeasurementModel, source: StateVector | Gemenge) -> np.ndarray:
    """Character weights of the post-measurement state of ``source``,
    restricted to the S (x) O pointer algebra.

    In ``qo_values`` order; weights at or below ``PROBABILITY_FLOOR`` are
    round-off of a structural zero and read exactly 0.
    """
    d = ms_layout(model).dim
    return _pointer_weights(model, _post_measurement_entries(model, source, np.arange(d), np.arange(d)))


def _pointer_weights(model: MeasurementModel, diagonal: np.ndarray) -> np.ndarray:
    """Restricted pointer probabilities of the S (x) O state with diagonal
    ``diagonal``, all that the diagonal pointer algebra reads of it."""
    setup = _setup(model)
    alg = setup.ms_algebra
    # tr(rho B_j) = conj(<B_j, rho^dag>), and <B_j, rho^dag> reads only diag(rho)^*.
    phi = AlgebraicState(alg, alg.project_coefficients(diagonal.conj()).conj())
    weights = decompose_restricted(phi, alg).probabilities
    probs = weights[[c.projector_index for c in setup.ms_characters]]
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



# ---------------------------------------------------------------------------
# event sampling

# Events per block of column_counts: np.bincount copies each block.
_COUNT_BLOCK = 2**16


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


def _pipeline_image(model: MeasurementModel, setup: _Setup, psi_s: StateVector) -> StateVector:
    """Exact image of a system state, every register ready, under the pipeline:
    the premeasured amplitude of |s, O_j> times environment record j."""
    amp = premeasure(model, psi_s).amplitudes.reshape(model.s_dim, model.o_dim, 1)
    return StateVector(setup.layout, (amp * setup.records).reshape(-1))


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Columnar log of one ensemble run, event i at position i of each column.

    An event is stored as its outcome code: ``pointer_index`` holds the
    sampled pointer and ``gemenge_row`` the sampled ensemble row, or is
    ``None`` for a pure input, each in the smallest unsigned dtype that
    holds its range (uint8 up to 256 pointers or rows).  The probability
    an event carried belongs to its row's restricted state, so it is
    stored once per outcome: ``outcome_probability[r, j]`` is the Born
    weight of pointer j for row r (one row for a pure input), and
    ``probability`` gathers it per event on demand.  The seed, the input
    kind and the pointer values are stored once.  Indexing and iteration
    give the per-event :class:`EventRecord`, equal record for record to
    the per-event reference ``run_event`` with ``event_rng`` in
    ``tests/_oracles.py``.
    """

    seed: int
    input_kind: str
    pointer_values: tuple[float, ...]
    pointer_index: np.ndarray
    gemenge_row: np.ndarray | None
    outcome_probability: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.pointer_index, self.gemenge_row, self.outcome_probability):
            if column is not None:
                column.setflags(write=False)

    def __len__(self) -> int:
        return self.pointer_index.size

    @property
    def probability(self) -> np.ndarray:
        """The probability each event was drawn with, a new array."""
        row = 0 if self.gemenge_row is None else self.gemenge_row
        return self.outcome_probability[row, self.pointer_index]

    def __getitem__(self, i: int) -> EventRecord:
        i = range(len(self))[i]
        pointer_index = int(self.pointer_index[i])
        row = None if self.gemenge_row is None else int(self.gemenge_row[i])
        return EventRecord(
            event_index=i,
            seed=self.seed,
            input_kind=self.input_kind,
            gemenge_row=row,
            pointer_index=pointer_index,
            impression=self.pointer_values[pointer_index],
            probability=float(self.outcome_probability[row or 0, pointer_index]),
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

    This is the stochastic individual restriction: event i draws its
    ensemble row (for a gemenge) and then its pointer character from the
    Philox stream keyed by (seed, i), each by ``table_inverse_cdf``, and
    equals ``run_event(..., event_rng(seed, i))`` of ``tests/_oracles.py``
    record for record.  The deterministic pipeline prefix runs once per
    input row; the event streams are then evaluated, and the inverse CDFs
    searched, one block of events at a time, straight into the batch's
    columns: one byte per event and column up to 256 pointers and rows.
    """
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    setup = _setup(model)
    kind = _source_kind(model, source)
    states = [state for state, _ in source.rows] if kind == "gemenge" else [source]
    images = [_pipeline_image(model, setup, state) for state in states]
    probs = np.array([character_probabilities(xi, setup.algebra) for xi in images])
    cumulatives = np.array([draw_cumulative(p) for p in probs])

    outcome_probability = np.zeros((len(states), model.o_dim))
    outcome_probability[:, setup.extremal_to_pointer] = probs
    pointer_index = np.empty(n_events, setup.extremal_to_pointer.dtype)
    rows = np.empty(n_events, np.min_scalar_type(len(states) - 1)) if kind == "gemenge" else None
    start = 0
    # A pure input draws the pointer only; an ensemble draws its row first.
    for uniforms in uniform_blocks(seed, n_events, 1 if rows is None else 2):
        stop = start + len(uniforms)
        row = 0
        if rows is not None:
            row = rows[start:stop] = table_inverse_cdf(source.cumulative[None], 0, uniforms[:, 0])
        k = table_inverse_cdf(cumulatives, row, uniforms[:, -1])
        pointer_index[start:stop] = setup.extremal_to_pointer[k]
        start = stop
        del uniforms, row, k  # no array of this block stays alive while the next is drawn
    return EventBatch(
        seed=seed,
        input_kind=kind,
        pointer_values=model.qo_values,
        pointer_index=pointer_index,
        gemenge_row=rows,
        outcome_probability=outcome_probability,
    )


def column_counts(column: np.ndarray, length: int) -> np.ndarray:
    """``np.bincount(column, minlength=length)`` of an EventBatch column, a
    block at a time: bincount casts its whole input to intp, eight bytes
    per event of a one-byte column."""
    counts = np.zeros(length, np.intp)
    for start in range(0, column.size, _COUNT_BLOCK):
        counts += np.bincount(column[start : start + _COUNT_BLOCK], minlength=length)
    return counts


def pointer_histogram(model: MeasurementModel, records: EventBatch) -> np.ndarray:
    """Event counts per pointer value, in ``qo_values`` order."""
    return column_counts(records.pointer_index, model.o_dim)


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
