"""Event sampling: the stochastic individual restriction.

:func:`run_ensemble` draws each event's ensemble row and pointer
character from its own Philox stream into a columnar
:class:`EventBatch`; :func:`pointer_histogram` and
:func:`column_counts` count its columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._philox import uniform_blocks
from .model import MeasurementModel, _source_kind
from .pointer import _class_weights
from .restriction import draw_cumulative
from .states import Gemenge, StateVector, table_inverse_cdf

__all__ = ["EventBatch", "EventRecord", "column_counts", "pointer_histogram", "run_ensemble"]

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


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Columnar log of one ensemble run, event i at position i of each column.

    An event is stored as its outcome code: ``pointer_index`` holds the
    sampled pointer and ``gemenge_row`` the sampled ensemble row, or is
    ``None`` for a pure input, each in the smallest unsigned dtype that
    holds its range (uint8 up to 256 pointers or rows).  The probability
    an event carried belongs to its row's restricted state, so it is
    stored once per outcome: ``outcome_probability[r, i]`` is row r's
    ``restricted_pointer_probabilities`` at pointer i+1, the only ones
    drawn (one row for a pure input).  The seed, the input kind and the
    pointer values are stored once.  Indexing and iteration give the per-event
    :class:`EventRecord`, equal record for record to the per-event
    reference ``run_event`` with ``event_rng`` in ``tests/_oracles.py``,
    the probability to a few ulps.
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
            probability=float(self.outcome_probability[row or 0, pointer_index - 1]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _draw_table(model: MeasurementModel, states: list[StateVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's weights at pointers 1..s_dim, their cumulatives in class order
    and each column's pointer, from one class-order weight row per state (its
    restricted pointer probabilities before the gather into pointer order).
    A cumulative is cut from the whole class-order row's, zeros included: the
    support alone would sum its total apart."""
    setup = model._setup
    support = setup.pointer_class[1 : model.s_dim + 1]
    order = sorted(support.tolist())
    weights = np.empty((len(states), model.s_dim))
    cumulatives = np.empty_like(weights)
    for state, w, cumulative in zip(states, weights, cumulatives):
        b = state.amplitudes + 0.0  # a -0 premeasures to +0
        row = _class_weights(setup, b * b.conj())
        w[:] = row[support]
        cumulative[:] = draw_cumulative(row)[order]
    return weights, cumulatives, setup.class_pointer[order]


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
    record for record, the probability to a few ulps.  Each input row's
    pointer weights are its restricted pointer probabilities, read once
    on S (x) O: the pointer algebra is the identity on E, so the
    environment leaves them as they are, and a weight floored to 0 is
    never drawn.  The pointer is drawn over the cumulative in class order
    (ascending pointer value).  The event streams are evaluated, and the
    inverse CDFs searched, one block of events at a time, straight into
    the batch's columns: one byte per event and column up to 256
    pointers and rows.
    """
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    kind = _source_kind(model, source)
    states = [state for state, _ in source.rows] if kind == "gemenge" else [source]
    outcome_probability, cumulatives, pointers = _draw_table(model, states)
    pointer_index = np.empty(n_events, pointers.dtype)
    rows = np.empty(n_events, np.min_scalar_type(len(states) - 1)) if kind == "gemenge" else None
    start = 0
    # A pure input draws the pointer only; an ensemble draws its row first.
    for uniforms in uniform_blocks(seed, n_events, 1 if rows is None else 2):
        stop = start + len(uniforms)
        row = 0
        if rows is not None:
            row = rows[start:stop] = table_inverse_cdf(source.cumulative[None], 0, uniforms[:, 0])
        k = table_inverse_cdf(cumulatives, row, uniforms[:, -1])
        pointer_index[start:stop] = pointers[k]
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
