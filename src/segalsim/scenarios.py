"""Declarative scenario configs and their runs.

Configs are JSON documents (the one human-editable nested key-value format
the standard library already speaks).  :func:`parse_scenario` validates a
document and applies its defaults; :func:`run_scenario` runs it into a
:class:`RunReport`, which :mod:`segalsim.serialize` writes byte-stably.
The event scenarios need only :mod:`segalsim.measurement`; every other
scenario's runner lives in the module it runs (``wigner``, ``decoherence``,
``doublet``, ``generators``), imported when the scenario runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .config import MAX_EVENTS, MAX_WORKING_SET_BYTES
from .linalg import SpaceLayout
from .measurement import (
    EventBatch,
    MeasurementModel,
    column_counts,
    interference_expectation,
    make_model,
    ms_layout,
    pointer_histogram,
    restricted_pointer_probabilities,
    run_ensemble,
    system_state,
)
from .states import Gemenge, StateVector

__all__ = [
    "ConfigError",
    "RunReport",
    "SCENARIOS",
    "ScenarioConfig",
    "load_document",
    "parse_scenario",
    "run_scenario",
]

# The document keys every scenario accepts, and those each scenario reads
# beyond them.  Every other key is refused.
_COMMON_KEYS = {"scenario", "model", "n_events", "seed", "output_format", "tolerances"}
_SCENARIO_KEYS = {
    "pure": {"input"},
    "gemenge": {"input"},
    "wigner-friend": {"input"},
    "decoherence": {"input", "t_grid"},
    "erasure": {"input"},
    "algebra-probe": {"generators"},
}
SCENARIOS = tuple(_SCENARIO_KEYS)

# Config amplitudes may be rounded literals (0.7071 etc.); anything within
# this much of unit norm is renormalized exactly, anything further is a
# config mistake.
_NORM_SLACK = 1e-3


class ConfigError(ValueError):
    """Scenario document failed validation."""


@dataclass
class ScenarioConfig:
    scenario: str
    model: MeasurementModel
    amplitudes: np.ndarray | None
    gemenge_rows: tuple[tuple[np.ndarray, float], ...] | None
    generators: tuple[tuple[str, np.ndarray], ...] | None
    generator_space: str | None
    n_events: int
    seed: int
    output_format: str
    tolerances: dict[str, float]
    t_grid: np.ndarray | None
    echo: dict[str, Any] = field(repr=False, default_factory=dict)


@dataclass
class RunReport:
    scenario: str
    config: dict[str, Any]
    summary: dict[str, Any]
    events: EventBatch | None
    wall_time_s: float


def _fail(message: str) -> None:
    raise ConfigError(message)


def _require_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        _fail(f"{context}: unknown keys {sorted(unknown)}; allowed keys are {sorted(allowed)}")


def _number(value, context: str, sign: str = "") -> float:
    """``value`` as a float, if it is a finite JSON number and not a bool.

    ``sign`` ``"positive"`` or ``"non-negative"`` also bounds it below.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number) and {"": True, "positive": number > 0, "non-negative": number >= 0}[sign]:
            return number
    _fail(f"{context}: expected a finite {sign + ' ' if sign else ''}number, got {value!r}")


def _numbers(value, context: str) -> list[float]:
    if not isinstance(value, list):
        _fail(f"{context}: expected a list of numbers, got {value!r}")
    return [_number(v, f"{context}[{k}]") for k, v in enumerate(value)]


def _integer(value, context: str, least: int = 1, below: int | None = None) -> int:
    """``value``, if it is a JSON integer, not a bool, in [least, below)."""
    if isinstance(value, int) and not isinstance(value, bool):
        if least <= value and (below is None or value < below):
            return value
    span = f">= {least}" if below is None else f"in [{least}, {below})"
    _fail(f"{context}: expected an integer {span}, got {value!r}")


def _object(value, readers: dict, context: str) -> dict:
    """The keys of a JSON object each read by its reader; null reads as absent."""
    if not isinstance(value, dict):
        _fail(f"{context}: expected an object, got {value!r}")
    _require_keys(value, set(readers), context)
    return {k: readers[k](v, f"{context}.{k}") for k, v in value.items() if v is not None}


_ENVIRONMENT_READERS = {"e_dim": _integer, "coupling_strength": _number, "e_overlap": _number}
_MODEL_READERS = {
    "s_dim": _integer,
    "o_dim": _integer,
    "q_values": _numbers,
    "qo_values": _numbers,
    "interaction_duration": _number,
    "environment": lambda value, context: _object(value, _ENVIRONMENT_READERS, context),
}


def _parse_amplitudes(raw, expected: int, context: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        _fail(f"{context}: amplitudes must be a non-empty list of [re, im] pairs")
    values = []
    for k, pair in enumerate(raw):
        entries = _numbers(pair, f"{context}.amplitudes[{k}]")
        if len(entries) != 2:
            _fail(f"{context}.amplitudes[{k}]: expected a [re, im] pair, got {pair!r}")
        values.append(complex(*entries))
    amps = np.array(values, dtype=complex)
    if amps.size != expected:
        _fail(f"{context}: expected {expected} amplitudes for the system, got {amps.size}")
    norm_sq = float(np.vdot(amps, amps).real)
    if abs(norm_sq - 1.0) > _NORM_SLACK:
        _fail(f"{context}: normalization error, |amplitudes|^2 = {norm_sq!r} is not 1")
    return amps / np.sqrt(norm_sq)


def _parse_model(raw, scenario: str) -> MeasurementModel:
    kwargs = _object(raw, _MODEL_READERS, "model")
    if scenario == "decoherence":
        kwargs.setdefault("environment", {})  # needs a register environment; use defaults
    try:
        return make_model(**kwargs)
    except ValueError as exc:
        _fail(f"model: {exc}")


def _space_layout(model: MeasurementModel, space: str) -> SpaceLayout:
    """The register alone (``"O"``) or the measurement layout S (x) O (``"MS"``)."""
    return SpaceLayout((("O", model.o_dim),)) if space == "O" else ms_layout(model)


def _decode_entry(obj: dict) -> dict:
    """``json`` object hook: an entry shaped like an inline generator gets
    its float-pair matrix as an array as soon as the entry closes, so the
    decoder never holds two matrices' list trees at once."""
    if "matrix" in obj and obj.keys() <= {"matrix", "space"}:
        from .generators import _DecodedEntry, _float_pairs

        mat = _float_pairs(obj["matrix"])
        if mat is not None:
            return _DecodedEntry(obj, matrix=mat)
    return obj


def load_document(text: str) -> dict:
    """Decode a scenario document, which must be one JSON object, as
    ``json.loads(text, object_hook=_decode_entry)`` does.  A document that
    holds generators is read an inline matrix row at a time
    (``generators.read_document``); any other matrix stays lists and
    ``parse_scenario`` reads and reports it as before.
    """
    decoder = json.JSONDecoder(object_hook=_decode_entry)
    try:
        if text.startswith("\ufeff"):  # json.loads checks this, the decoder does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        if '"generators"' in text:  # a key written with escapes is decoded whole
            from .generators import read_document

            raw = read_document(text, decoder)
        else:
            raw = decoder.decode(text)
    except json.JSONDecodeError as exc:
        _fail(f"malformed config document: {exc}")
    except RecursionError as exc:  # raised by the decoder's scanner on deep nesting
        _fail(f"config document nests too deeply: {exc}")
    if not isinstance(raw, dict):
        _fail("config document must be a JSON object")
    return raw


def parse_scenario(document: str | dict) -> ScenarioConfig:
    """Validate a scenario document, as text or decoded, and apply defaults."""
    raw = load_document(document) if isinstance(document, str) else document
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        _fail(f"scenario: expected one of {list(SCENARIOS)}, got {scenario!r}")
    _require_keys(raw, _COMMON_KEYS | _SCENARIO_KEYS[scenario], "config")

    model = _parse_model(raw.get("model", {}), scenario)
    if scenario == "wigner-friend":
        if model.s_dim != 2:
            _fail("scenario wigner-friend needs s_dim = 2 (interference observable)")
        from .wigner import wigner_friend_bytes

        need = wigner_friend_bytes(model)
        if need > MAX_WORKING_SET_BYTES:
            _fail(
                f"scenario wigner-friend at o_dim = {model.o_dim} would hold about {need} bytes "
                f"of dense arrays, over the {MAX_WORKING_SET_BYTES}-byte limit"
            )
    if scenario == "decoherence" and model.s_dim < 2:
        _fail("scenario decoherence needs at least two measured branches")

    n_events = _integer(raw.get("n_events", 1000), "n_events", below=MAX_EVENTS + 1)
    seed = _integer(raw.get("seed", 0), "seed", 0, 2**64)
    output_format = raw.get("output_format", "json")
    if output_format not in ("json", "csv"):
        _fail(f"output_format: expected 'json' or 'csv', got {output_format!r}")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        _fail(f"tolerances: expected an object of positive numbers, got {type(tolerances).__name__}")
    _require_keys(tolerances, {"algebra", "breuer"}, "tolerances")
    tolerances = {k: _number(v, f"tolerances.{k}", "positive") for k, v in tolerances.items()}

    t_grid = None
    if raw.get("t_grid") is not None:
        t_grid = np.array(_numbers(raw["t_grid"], "t_grid"))
        if t_grid.size < 2:
            _fail("t_grid: need at least two grid points")

    amplitudes = None
    gemenge_rows = None
    input_raw = raw.get("input")
    if "input" in _SCENARIO_KEYS[scenario]:
        if not isinstance(input_raw, dict):
            _fail(f"input: scenario {scenario!r} needs an input section")
        _require_keys(input_raw, {"gemenge" if scenario == "gemenge" else "amplitudes"}, "input")
        if scenario == "gemenge":
            rows_raw = input_raw.get("gemenge")
            if not isinstance(rows_raw, list) or not rows_raw:
                _fail("input.gemenge: expected a non-empty list of rows")
            rows = []
            for k, row in enumerate(rows_raw):
                if not isinstance(row, dict):
                    _fail(f"input.gemenge[{k}]: expected an object")
                _require_keys(row, {"amplitudes", "probability"}, f"input.gemenge[{k}]")
                amps = _parse_amplitudes(
                    row.get("amplitudes"), model.s_dim, f"input.gemenge[{k}]"
                )
                p = _number(row.get("probability"), f"input.gemenge[{k}].probability", "non-negative")
                rows.append((amps, p))
            total = sum(p for _, p in rows)
            if abs(total - 1.0) > _NORM_SLACK:
                _fail(f"input.gemenge: normalization error, probabilities sum to {total!r}")
            gemenge_rows = tuple((amps, p / total) for amps, p in rows)
        else:
            amplitudes = _parse_amplitudes(input_raw.get("amplitudes"), model.s_dim, "input")

    generators = None
    generator_space = None
    if scenario == "algebra-probe":
        from .generators import _parse_generators

        generators, generator_space = _parse_generators(raw.get("generators"), model)

    echo: dict[str, Any] = {
        "scenario": scenario,
        "model": asdict(model),
        "n_events": n_events,
        "seed": seed,
        "output_format": output_format,
        "tolerances": tolerances,
    }
    if amplitudes is not None:
        echo["input"] = {"amplitudes": [[a.real, a.imag] for a in amplitudes]}
    if gemenge_rows is not None:
        echo["input"] = {
            "gemenge": [
                {"amplitudes": [[a.real, a.imag] for a in amps], "probability": p}
                for amps, p in gemenge_rows
            ]
        }
    if t_grid is not None:
        echo["t_grid"] = list(t_grid)
    if generators is not None:
        echo["generators"] = [name for name, _ in generators]

    return ScenarioConfig(
        scenario=scenario,
        model=model,
        amplitudes=amplitudes,
        gemenge_rows=gemenge_rows,
        generators=generators,
        generator_space=generator_space,
        n_events=n_events,
        seed=seed,
        output_format=output_format,
        tolerances=tolerances,
        t_grid=t_grid,
        echo=echo,
    )


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
