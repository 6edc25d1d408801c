"""The two-observer comparison (``wigner-friend``) and its runner.

The external observer never collapses anything: it sees the unitary
post-measurement state, its purity and the interference expectation.
The internal one, confined to the pointer algebra, sees the sampled
records.  The Breuer verdicts compare rho_p = |a><a|, ``a`` the
premeasured amplitudes, with the matched branch mixture rho_m through
the pointer algebra and through the algebra the interference observable
B adds, all read from ``a``: nothing of size d x d is made.

- Pointer algebra.  It is diagonal and reads the two diagonals where
  they can be nonzero, at |s, O_{s+1}>: a * conj(a) there, and |amp_s|^2
  as ``branch_mixture`` writes it.
- Interference algebra: the pointer classes plus one M_2 on span{|i>,
  |j>}, (i, j) = ``pointer._interference_pair``, of dimension o_dim + 4.
  rho_p - rho_m is c = a_i conj(a_j) at (i, j), its conjugate at (j, i),
  and 0 elsewhere.  The Gram-Schmidt closure of the letters P (pointer)
  and B seeds I, P and B, then multiplies each element in turn by P and
  by B.  So basis[2] is B / sqrt(2), a seed; P basis[1] adds P^2 as
  basis[3], new because o_dim >= 3 pointer values are distinct; B
  basis[1] adds the residual of B P, (|i><j| - |j><i|) / sqrt(2) up to
  sign, as basis[4].  Every later product of P or B with an element is
  diagonal or in the span of those two, so only basis[2] and basis[4]
  have entries at (i, j): deviations sqrt(2) |Re c| and sqrt(2) |Im c|.
  Generator B deviates by 2 |Re c|, and every other entry by 0.  The
  closure route is ``tests/_oracles.py::dense_wigner_verdicts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .config import PSD_ATOL, STATE_EQUALITY_ATOL, TRACE_ATOL, check
from .measurement import (
    EventBatch,
    MeasurementModel,
    interference_expectation,
    pointer_histogram,
    premeasure,
    restricted_pointer_probabilities,
    run_ensemble,
    system_state,
)
from .pointer import _interference_pair, _pointer_state
from .restriction import BreuerReport, _breuer_verdict, _restricted_verdict
from .scenarios import ScenarioConfig
from .states import StateVector

__all__ = ["WignerFriendReport", "wigner_friend_report"]


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


def _breuer_verdicts(
    model: MeasurementModel, a: np.ndarray, amplitudes: np.ndarray, tol: float
) -> tuple[BreuerReport, BreuerReport]:
    """The pointer and interference verdicts on rho_p = |a><a| against
    the branch mixture of ``amplitudes`` (see the module docstring)."""
    weights = np.array([abs(x) ** 2 for x in amplitudes])  # branch_mixture's bits; np.abs rounds apart
    check("branch mixture weights do not sum to 1, |sum - 1|", abs(weights.sum() - 1.0), TRACE_ATOL)
    b = amplitudes + 0.0  # a at |s_i, O_{i+1}>, its only nonzero entries
    setup = model._setup
    pointer = _restricted_verdict(_pointer_state(setup, b * b.conj()), _pointer_state(setup, weights), tol)

    i, j = _interference_pair(model)
    c = complex(a[i] * a[j].conj())
    p, q = abs(a[i]) ** 2, abs(a[j]) ** 2
    lowest = (p + q - np.hypot(p - q, 2 * abs(c))) / 2  # of [[p, c], [c*, q]]
    check("state not positive on the interference block, -min eigenvalue", -lowest, PSD_ATOL)
    basis_dev = np.zeros(model.o_dim + 4)
    basis_dev[[2, 4]] = np.sqrt(2) * abs(c.real), np.sqrt(2) * abs(c.imag)
    return pointer, _breuer_verdict(basis_dev, [0.0, 2 * abs(c.real)], tol)


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
    a = premeasure(model, psi_s).amplitudes
    pointer, interference = _breuer_verdicts(model, a, psi_s.amplitudes, breuer_tol)
    events = run_ensemble(model, psi_s, n_events, seed)
    histogram = pointer_histogram(model, events)
    return WignerFriendReport(
        b_expectation=interference_expectation(model, psi_s),
        dynamical_purity=float(np.vdot(a, a).real) ** 2,
        histogram=histogram,
        frequencies=histogram / float(n_events),
        restricted_probabilities=restricted_pointer_probabilities(model, psi_s),
        breuer_pointer=pointer,
        breuer_with_interference=interference,
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
