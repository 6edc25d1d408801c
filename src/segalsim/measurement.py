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

The code lives in three modules, each imported by every event run:
:mod:`segalsim.model` (the model, its layouts, the environment
records and the per-model pointer set-up the model holds),
:mod:`segalsim.pointer` (the pointer algebra read off that set-up,
premeasurement and the restricted probabilities) and
:mod:`segalsim.events` (the event runner and its counts).  This module
gathers their public names.  The doublet dynamics
(:mod:`segalsim.doublet`), the decoherence summaries
(:mod:`segalsim.decoherence`) and the two-observer report
(:mod:`segalsim.wigner`) build on it and are imported only by the
scenarios that run them.
"""

from .events import EventBatch, EventRecord, column_counts, pointer_histogram, run_ensemble
from .model import (
    EnvironmentSpec,
    MeasurementModel,
    full_layout,
    make_model,
    ms_layout,
    pointer_operator,
    ready_state,
    system_layout,
    system_state,
)
from .pointer import (
    branch_mixture,
    interference_expectation,
    interference_observable,
    pointer_algebra,
    pointer_characters,
    premeasure,
    restricted_pointer_probabilities,
)

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
