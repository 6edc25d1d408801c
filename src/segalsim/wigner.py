"""The two-observer comparison (``wigner-friend``).

The external observer never collapses anything: it sees the dense
post-measurement density matrix, its purity and the interference
expectation.  The internal one, confined to the pointer algebra, sees
the sampled records; the Breuer verdicts compare the superposition with
the matched branch mixture through the pointer algebra and through the
algebra the interference observable adds, closed by Gram-Schmidt.  The
report holds d x d arrays, bounded at parse by :func:`wigner_friend_bytes`.
The scenario's runner is here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from .config import STATE_EQUALITY_ATOL
from .algebra import OperatorAlgebra, generate_algebra
from .measurement import (
    EventBatch,
    MeasurementModel,
    branch_mixture,
    interference_expectation,
    interference_observable,
    ms_layout,
    pointer_algebra,
    pointer_histogram,
    pointer_operator,
    premeasure,
    restricted_pointer_probabilities,
    run_ensemble,
    system_state,
)
from .restriction import BreuerReport, breuer_indistinguishable
from .scenarios import ScenarioConfig
from .states import StateVector, density_from_vector, purity

__all__ = [
    "WignerFriendReport",
    "wigner_friend_bytes",
    "wigner_friend_report",
]


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
    events: EventBatch


def wigner_friend_bytes(model: MeasurementModel) -> int:
    """Upper estimate of the bytes ``wigner_friend_report`` holds in dense
    arrays at once, from the model alone.

    That is the two d x d density matrices on S (x) O and the interference
    algebra's (o_dim + 4)-element basis, 16 d^2 bytes per element, in a
    row buffer that doubles as it grows: while it grows the old buffer and
    the new one, up to twice the basis, are both held.
    """
    d = ms_layout(model).dim
    return 16 * d * d * (2 + 3 * (model.o_dim + 4))


@lru_cache(maxsize=None)
def _interference_algebra(model: MeasurementModel) -> OperatorAlgebra:
    lay = ms_layout(model)
    return generate_algebra([pointer_operator(model, lay), interference_observable(model)], lay)


def wigner_friend_report(
    model: MeasurementModel,
    psi_s: StateVector,
    n_events: int,
    seed: int,
    breuer_tol: float = STATE_EQUALITY_ATOL,
) -> WignerFriendReport:
    """Run the two-observer comparison for a pure input state.

    The sampled batch is returned on the report as ``events``.
    """
    rho_p = density_from_vector(premeasure(model, psi_s))
    rho_m = branch_mixture(model, psi_s.amplitudes)

    events = run_ensemble(model, psi_s, n_events, seed)
    histogram = pointer_histogram(model, events)

    ms_alg = pointer_algebra(model, environment=False)
    return WignerFriendReport(
        b_expectation=interference_expectation(model, psi_s),
        dynamical_purity=purity(rho_p),
        histogram=histogram,
        frequencies=histogram / float(n_events),
        restricted_probabilities=restricted_pointer_probabilities(model, psi_s),
        breuer_pointer=breuer_indistinguishable(rho_p, rho_m, ms_alg, tol=breuer_tol),
        breuer_with_interference=breuer_indistinguishable(
            rho_p, rho_m, _interference_algebra(model), tol=breuer_tol
        ),
        n_events=n_events,
        seed=seed,
        events=events,
    )


def _breuer_summary(report) -> dict[str, Any]:
    return {
        "indistinguishable": report.indistinguishable,
        "max_deviation": report.max_deviation,
        "worst_element": report.worst_label,
    }


def _run_wigner_friend(cfg: ScenarioConfig):
    report = wigner_friend_report(
        cfg.model,
        system_state(cfg.model, cfg.amplitudes),
        cfg.n_events,
        cfg.seed,
        breuer_tol=cfg.tolerances.get("breuer", STATE_EQUALITY_ATOL),
    )
    summary = {
        "pointer_values": list(cfg.model.qo_values),
        "b_expectation": report.b_expectation,
        "dynamical_purity": report.dynamical_purity,
        "histogram": report.histogram.tolist(),
        "frequencies": report.frequencies.tolist(),
        "restricted_probabilities": report.restricted_probabilities.tolist(),
        "breuer_pointer": _breuer_summary(report.breuer_pointer),
        "breuer_with_interference": _breuer_summary(report.breuer_with_interference),
    }
    return summary, report.events
