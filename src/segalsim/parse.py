"""Scenario documents: their decoding, validation and defaults.

:func:`load_document` decodes a document and :func:`parse_scenario`
validates it, applies its defaults and returns a :class:`ScenarioConfig`.
A document that holds generators is read by :mod:`segalsim.document`,
and its generator list by :mod:`segalsim.generators`, each imported only
for such a document.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .config import MAX_EVENTS
from .linalg import SpaceLayout
from .model import MeasurementModel, make_model, ms_layout
from .readers import _fail, _integer, _number, _numbers, _object, _require_keys

__all__ = ["SCENARIOS", "ScenarioConfig", "load_document", "parse_scenario"]

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
        from .document import _DecodedEntry, _float_pairs

        mat = _float_pairs(obj["matrix"])
        if mat is not None:
            return _DecodedEntry(obj, matrix=mat)
    return obj


def load_document(text: str) -> dict:
    """Decode a scenario document, which must be one JSON object, as
    ``json.loads(text, object_hook=_decode_entry)`` does.  A document that
    holds generators is read an inline matrix row at a time
    (``document.read_document``); any other matrix stays lists and
    ``parse_scenario`` reads and reports it as before.
    """
    decoder = json.JSONDecoder(object_hook=_decode_entry)
    try:
        if text.startswith("\ufeff"):  # json.loads checks this, the decoder does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        if '"generators"' in text:  # a key written with escapes is decoded whole
            from .document import read_document

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
    if scenario == "wigner-friend" and model.s_dim != 2:
        _fail("scenario wigner-friend needs s_dim = 2 (interference observable)")
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
