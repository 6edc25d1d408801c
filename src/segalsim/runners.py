"""Scenario runs.

:func:`run_scenario` runs a parsed scenario into a :class:`RunReport`,
which :mod:`segalsim.serialize` writes byte-stably.  The event
scenarios need only the measurement modules; every other scenario's
runner lives in the module it runs (``wigner``, ``decoherence``,
``doublet``, ``generators``), imported when the scenario runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from .events import EventBatch, column_counts, pointer_histogram, run_ensemble
from .model import system_state
from .parse import ScenarioConfig
from .pointer import interference_expectation, restricted_pointer_probabilities
from .states import Gemenge, StateVector

__all__ = ["RunReport", "run_scenario"]


@dataclass
class RunReport:
    scenario: str
    config: dict[str, Any]
    summary: dict[str, Any]
    events: EventBatch | None
    wall_time_s: float


# ---------------------------------------------------------------------------
# scenario execution


def _born_probabilities(cfg: ScenarioConfig) -> list[float]:
    probs = [0.0] * cfg.model.o_dim
    if cfg.amplitudes is not None:
        weights = np.abs(cfg.amplitudes) ** 2
    else:
        weights = np.zeros(cfg.model.s_dim)
        for amps, p in cfg.gemenge_rows:
            weights += p * np.abs(amps) ** 2
    for i, w in enumerate(weights):
        probs[i + 1] = float(w)
    return probs


def _sampled_summary(cfg: ScenarioConfig, source: StateVector | Gemenge):
    """Events sampled from ``source`` and the summary shared by pure and
    gemenge runs."""
    records = run_ensemble(cfg.model, source, cfg.n_events, cfg.seed)
    histogram = pointer_histogram(cfg.model, records)
    summary = {
        "pointer_values": list(cfg.model.qo_values),
        "born_probabilities": _born_probabilities(cfg),
        "histogram": histogram.tolist(),
        "frequencies": (histogram / cfg.n_events).tolist(),
        "restricted_probabilities": restricted_pointer_probabilities(cfg.model, source).tolist(),
    }
    if cfg.model.s_dim == 2:
        summary["b_expectation"] = interference_expectation(cfg.model, source)
    return summary, records


def _run_pure(cfg: ScenarioConfig):
    return _sampled_summary(cfg, system_state(cfg.model, cfg.amplitudes))


def _run_gemenge(cfg: ScenarioConfig):
    w = Gemenge(tuple((system_state(cfg.model, amps), p) for amps, p in cfg.gemenge_rows))
    summary, records = _sampled_summary(cfg, w)
    summary["row_probabilities"] = [p for _, p in cfg.gemenge_rows]
    summary["row_histogram"] = column_counts(records.gemenge_row, len(cfg.gemenge_rows)).tolist()
    return summary, records


def _run_wigner_friend(cfg: ScenarioConfig):
    from .wigner import _run_wigner_friend

    return _run_wigner_friend(cfg)


def _run_decoherence(cfg: ScenarioConfig):
    from .decoherence import _run_decoherence

    return _run_decoherence(cfg)


def _run_erasure(cfg: ScenarioConfig):
    from .doublet import _run_erasure

    return _run_erasure(cfg)


def _run_algebra_probe(cfg: ScenarioConfig):
    from .generators import _run_algebra_probe

    return _run_algebra_probe(cfg)


_RUNNERS = {
    "pure": _run_pure,
    "gemenge": _run_gemenge,
    "wigner-friend": _run_wigner_friend,
    "decoherence": _run_decoherence,
    "erasure": _run_erasure,
    "algebra-probe": _run_algebra_probe,
}


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute a parsed scenario; deterministic given (config, seed)."""
    start = time.perf_counter()
    summary, events = _RUNNERS[cfg.scenario](cfg)
    wall = time.perf_counter() - start
    return RunReport(
        scenario=cfg.scenario,
        config=cfg.echo,
        summary=summary,
        events=events,
        wall_time_s=wall,
    )
