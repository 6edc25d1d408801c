"""Declarative scenario configs, deterministic reports and event logs.

Configs are JSON documents (the one human-editable nested key-value format
the standard library already speaks).  Reports serialize byte-stably:
keys sorted, floats canonicalized to 12 significant digits, and nothing
run-dependent (wall time stays out of the document; it is surfaced on
stderr by the CLI instead).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .algebra import generate_algebra
from .config import ALGEBRA_TOL, STATE_EQUALITY_ATOL
from .linalg import SpaceLayout, identity, tensor
from .measurement import (
    EventBatch,
    MeasurementModel,
    couple_environment,
    evolve_unitary,
    extract_pointer_basis,
    initial_doublet,
    interference_observable,
    make_model,
    ms_layout,
    pointer_algebra,
    pointer_characters,
    pointer_histogram,
    pointer_state_stability,
    premeasure,
    premeasurement_unitary,
    run_ensemble,
    system_state,
    wigner_friend_report,
)
from .restriction import decompose_restricted, extremal_states, restrict_state
from .states import (
    DensityMatrix,
    Gemenge,
    StateVector,
    density_from_vector,
    expectation,
    reduce_density,
    vector_fidelity,
)

__all__ = [
    "ConfigError",
    "RunReport",
    "SCENARIOS",
    "ScenarioConfig",
    "emit_report",
    "parse_scenario",
    "run_scenario",
]

SCENARIOS = ("pure", "gemenge", "wigner-friend", "decoherence", "erasure", "algebra-probe")

# Config amplitudes may be rounded literals (0.7071 etc.); anything within
# this much of unit norm is renormalized exactly, anything further is a
# config mistake.
_NORM_SLACK = 1e-3

_EVENT_COLUMNS = (
    "event_index",
    "gemenge_row",
    "pointer_index",
    "impression_value",
    "probability_used",
)

# Events per block of the event log; each block's row strings are joined
# before the next block is formatted.
_CSV_CHUNK = 2**16


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


def _parse_amplitudes(raw, expected: int, context: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        _fail(f"{context}: amplitudes must be a non-empty list of [re, im] pairs")
    values = []
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{context}: amplitude {k} must be a [re, im] pair, got {pair!r}")
        try:
            values.append(complex(float(pair[0]), float(pair[1])))
        except (TypeError, ValueError):
            _fail(f"{context}: amplitude {k} entries must be numbers, got {pair!r}")
    amps = np.array(values, dtype=complex)
    if amps.size != expected:
        _fail(f"{context}: expected {expected} amplitudes for the system, got {amps.size}")
    norm_sq = float(np.vdot(amps, amps).real)
    if abs(norm_sq - 1.0) > _NORM_SLACK:
        _fail(f"{context}: normalization error, |amplitudes|^2 = {norm_sq!r} is not 1")
    return amps / np.sqrt(norm_sq)


def _parse_model(raw: dict, scenario: str) -> MeasurementModel:
    _require_keys(
        raw,
        {"s_dim", "o_dim", "q_values", "qo_values", "interaction_duration", "environment"},
        "model",
    )
    env = raw.get("environment")
    if env is not None:
        _require_keys(env, {"e_dim", "coupling_strength", "e_overlap"}, "model.environment")
    if env is None and scenario == "decoherence":
        env = {}  # decoherence needs a register environment; use defaults
    try:
        return make_model(
            s_dim=int(raw.get("s_dim", 2)),
            o_dim=int(raw.get("o_dim", 3)),
            q_values=raw.get("q_values"),
            qo_values=raw.get("qo_values"),
            interaction_duration=float(raw.get("interaction_duration", 1.0)),
            environment=env,
        )
    except ValueError as exc:
        _fail(f"model: {exc}")


_GENERATOR_SPACES = {"QO": "O", "QO_MS": "MS", "B": "MS"}


def _named_generator(name: str, model: MeasurementModel) -> np.ndarray:
    q_o = np.diag(np.asarray(model.qo_values, dtype=complex))
    if name == "QO":
        return q_o
    if name == "QO_MS":
        return tensor(identity(model.s_dim), q_o)
    if name == "B":
        return interference_observable(model)
    _fail(f"generators: unknown name {name!r}; known names are {sorted(_GENERATOR_SPACES)}")


def _parse_generators(raw, model: MeasurementModel):
    if not isinstance(raw, list) or not raw:
        _fail("generators: expected a non-empty list")
    entries: list[tuple[str, np.ndarray, str]] = []
    for k, item in enumerate(raw):
        if isinstance(item, str):
            entries.append((item, _named_generator(item, model), _GENERATOR_SPACES[item]))
            continue
        if isinstance(item, dict):
            _require_keys(item, {"matrix", "space"}, f"generators[{k}]")
            space = item.get("space", "O")
            if space not in ("O", "MS"):
                _fail(f"generators[{k}]: space must be 'O' or 'MS'")
            rows = item.get("matrix")
            try:
                mat = np.array(
                    [[complex(float(c[0]), float(c[1])) for c in row] for row in rows]
                )
            except (TypeError, ValueError, IndexError):
                _fail(f"generators[{k}]: matrix must be rows of [re, im] pairs")
            dim = model.o_dim if space == "O" else model.s_dim * model.o_dim
            if mat.shape != (dim, dim):
                _fail(f"generators[{k}]: matrix shape {mat.shape} does not match space {space}")
            entries.append((f"matrix[{k}]", mat, space))
            continue
        _fail(f"generators[{k}]: expected a name or a matrix entry")
    spaces = {space for _, _, space in entries}
    if len(spaces) != 1:
        _fail(f"generators: entries live on different spaces {sorted(spaces)}")
    return tuple((name, mat) for name, mat, _ in entries), spaces.pop()


def parse_scenario(text: str) -> ScenarioConfig:
    """Validate a scenario document and apply defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"malformed config document: {exc}")
    if not isinstance(raw, dict):
        _fail("config document must be a JSON object")
    _require_keys(
        raw,
        {
            "scenario",
            "model",
            "input",
            "n_events",
            "seed",
            "output_format",
            "tolerances",
            "t_grid",
            "generators",
        },
        "config",
    )
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        _fail(f"scenario: expected one of {list(SCENARIOS)}, got {scenario!r}")

    model = _parse_model(raw.get("model", {}), scenario)
    if scenario == "wigner-friend" and model.s_dim != 2:
        _fail("scenario wigner-friend needs s_dim = 2 (interference observable)")
    if scenario == "decoherence" and model.s_dim < 2:
        _fail("scenario decoherence needs at least two measured branches")

    n_events = raw.get("n_events", 1000)
    if not isinstance(n_events, int) or n_events < 1:
        _fail(f"n_events: expected a positive integer, got {n_events!r}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        _fail(f"seed: expected an unsigned 64-bit integer, got {seed!r}")
    output_format = raw.get("output_format", "json")
    if output_format not in ("json", "csv"):
        _fail(f"output_format: expected 'json' or 'csv', got {output_format!r}")

    tolerances = dict(raw.get("tolerances", {}))
    _require_keys(tolerances, {"algebra", "breuer"}, "tolerances")
    tolerances = {k: float(v) for k, v in tolerances.items()}

    t_grid = None
    if raw.get("t_grid") is not None:
        try:
            t_grid = np.array([float(v) for v in raw["t_grid"]])
        except (TypeError, ValueError):
            _fail("t_grid: expected a list of numbers")
        if t_grid.size < 2:
            _fail("t_grid: need at least two grid points")

    amplitudes = None
    gemenge_rows = None
    input_raw = raw.get("input")
    needs_input = scenario in ("pure", "gemenge", "wigner-friend", "decoherence", "erasure")
    if needs_input:
        if not isinstance(input_raw, dict):
            _fail(f"input: scenario {scenario!r} needs an input section")
        _require_keys(input_raw, {"amplitudes", "gemenge"}, "input")
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
                try:
                    p = float(row.get("probability"))
                except (TypeError, ValueError):
                    _fail(f"input.gemenge[{k}]: probability must be a number")
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
        generators, generator_space = _parse_generators(raw.get("generators"), model)

    echo: dict[str, Any] = {
        "scenario": scenario,
        "model": {
            "s_dim": model.s_dim,
            "o_dim": model.o_dim,
            "q_values": list(model.q_values),
            "qo_values": list(model.qo_values),
            "interaction_duration": model.interaction_duration,
            "environment": None
            if model.environment is None
            else {
                "e_dim": model.environment.e_dim,
                "coupling_strength": model.environment.coupling_strength,
                "e_overlap": model.environment.e_overlap,
            },
        },
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


def _restricted_probabilities(cfg: ScenarioConfig, rho: DensityMatrix) -> list[float]:
    alg = pointer_algebra(cfg.model, environment=False)
    ensemble = decompose_restricted(restrict_state(rho, alg), alg)
    chars = pointer_characters(cfg.model, environment=False)
    index_of = {id(c): j for j, c in enumerate(chars)}
    out = [0.0] * cfg.model.o_dim
    for char, p in ensemble.rows:
        out[index_of[id(char)]] = float(p) if p > 1e-12 else 0.0
    return out


def _run_pure(cfg: ScenarioConfig):
    psi_s = system_state(cfg.model, cfg.amplitudes)
    records = run_ensemble(cfg.model, psi_s, cfg.n_events, cfg.seed)
    histogram = pointer_histogram(cfg.model, records)
    rho_p = density_from_vector(premeasure(cfg.model, psi_s))
    summary = {
        "pointer_values": list(cfg.model.qo_values),
        "born_probabilities": _born_probabilities(cfg),
        "histogram": histogram.tolist(),
        "frequencies": (histogram / cfg.n_events).tolist(),
        "restricted_probabilities": _restricted_probabilities(cfg, rho_p),
    }
    if cfg.model.s_dim == 2:
        summary["b_expectation"] = expectation(rho_p, interference_observable(cfg.model))
    return summary, records


def _build_gemenge(cfg: ScenarioConfig) -> Gemenge:
    return Gemenge(
        tuple((system_state(cfg.model, amps), p) for amps, p in cfg.gemenge_rows)
    )


def _run_gemenge(cfg: ScenarioConfig):
    w = _build_gemenge(cfg)
    records = run_ensemble(cfg.model, w, cfg.n_events, cfg.seed)
    histogram = pointer_histogram(cfg.model, records)
    row_counts = np.bincount(records.gemenge_row, minlength=len(cfg.gemenge_rows))
    u = premeasurement_unitary(cfg.model)
    mix = np.zeros((ms_layout(cfg.model).dim,) * 2, dtype=complex)
    for state, p in w.rows:
        post = u @ np.kron(state.amplitudes, [1.0] + [0.0] * (cfg.model.o_dim - 1))
        mix += p * np.outer(post, post.conj())
    rho_mix = DensityMatrix(ms_layout(cfg.model), mix)
    summary = {
        "pointer_values": list(cfg.model.qo_values),
        "row_probabilities": [p for _, p in cfg.gemenge_rows],
        "row_histogram": row_counts.tolist(),
        "born_probabilities": _born_probabilities(cfg),
        "histogram": histogram.tolist(),
        "frequencies": (histogram / cfg.n_events).tolist(),
        "restricted_probabilities": _restricted_probabilities(cfg, rho_mix),
    }
    if cfg.model.s_dim == 2:
        summary["b_expectation"] = expectation(rho_mix, interference_observable(cfg.model))
    return summary, records


def _breuer_summary(report) -> dict[str, Any]:
    return {
        "indistinguishable": report.indistinguishable,
        "max_deviation": report.max_deviation,
        "worst_element": report.worst_label,
    }


def _run_wigner_friend(cfg: ScenarioConfig):
    psi_s = system_state(cfg.model, cfg.amplitudes)
    records = run_ensemble(cfg.model, psi_s, cfg.n_events, cfg.seed)
    report = wigner_friend_report(
        cfg.model,
        psi_s,
        cfg.n_events,
        cfg.seed,
        breuer_tol=cfg.tolerances.get("breuer", STATE_EQUALITY_ATOL),
        records=records,
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
    return summary, records


def _run_decoherence(cfg: ScenarioConfig):
    model = cfg.model
    psi_s = system_state(model, cfg.amplitudes)
    rho_ms = density_from_vector(premeasure(model, psi_s))
    rho_full = couple_environment(model, rho_ms)
    back = reduce_density(rho_full, {"S", "O"})
    lay = ms_layout(model)
    i, j = lay.basis_index((0, 1)), lay.basis_index((1, 2))
    offdiag = abs(complex(back.matrix[i, j]))
    predicted = model.environment.e_overlap * abs(cfg.amplitudes[0] * cfg.amplitudes[1])

    basis_report = extract_pointer_basis(rho_full)
    overlaps = [
        [abs(complex(v[k])) for k in range(model.o_dim)] for v in basis_report.vectors
    ]

    t_grid = cfg.t_grid
    if t_grid is None:
        t_grid = np.linspace(0.0, 0.35, 8)
    o_layout = SpaceLayout((("O", model.o_dim),))
    pointer_state = StateVector(o_layout, [0.0, 1.0] + [0.0] * (model.o_dim - 2))
    sup = np.zeros(model.o_dim)
    sup[1] = sup[2] = 2**-0.5
    superposition = StateVector(o_layout, sup)
    summary = {
        "offdiagonal_magnitude": offdiag,
        "predicted_offdiagonal": predicted,
        "pointer_basis_flag": basis_report.flag,
        "pointer_basis_residual": basis_report.residual,
        "pointer_basis_weights": basis_report.weights.tolist(),
        "pointer_basis_overlaps": overlaps,
        "t_grid": list(map(float, t_grid)),
        "purity_pointer_state": pointer_state_stability(model, pointer_state, t_grid).tolist(),
        "purity_superposition": pointer_state_stability(model, superposition, t_grid).tolist(),
    }
    return summary, None


def _run_erasure(cfg: ScenarioConfig):
    model = cfg.model
    psi_s = system_state(model, cfg.amplitudes)
    theta = initial_doublet(model, psi_s)
    u = premeasurement_unitary(model)
    forward = evolve_unitary(theta, u)
    back = evolve_unitary(forward, u.conj().T)
    psi_in = StateVector(
        ms_layout(model),
        np.kron(psi_s.amplitudes, [1.0] + [0.0] * (model.o_dim - 1)),
    )
    summary = {
        "pointer_values": list(model.qo_values),
        "information_initial": theta.information.tolist(),
        "information_after_measurement": forward.information.tolist(),
        "information_after_reversal": back.information.tolist(),
        "recovered_initial_state_fidelity": vector_fidelity(back.dynamical, psi_in),
    }
    return summary, None


def _run_algebra_probe(cfg: ScenarioConfig):
    model = cfg.model
    if cfg.generator_space == "O":
        layout = SpaceLayout((("O", model.o_dim),))
    else:
        layout = ms_layout(model)
    tol = cfg.tolerances.get("algebra", ALGEBRA_TOL)
    alg = generate_algebra([mat for _, mat in cfg.generators], layout, tol=tol)
    summary: dict[str, Any] = {
        "generators": [name for name, _ in cfg.generators],
        "space": cfg.generator_space,
        "dimension": alg.dimension,
        "commutative": alg.commutative,
    }
    if alg.commutative:
        chars = extremal_states(alg)
        summary["characters"] = [
            [float(v) for v in c.generator_values] for c in chars
        ]
        summary["projector_ranks"] = [
            int(round(np.trace(c.projector).real)) for c in chars
        ]
    else:
        summary["characters"] = None
    return summary, None


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


# ---------------------------------------------------------------------------
# serialization


def _canonical(value):
    """Round floats to 12 significant digits so serialization is byte-stable
    and emit/parse round-trips are exact."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    return value


def _format_float(value: float) -> str:
    return f"{float(value):.12g}"


def _events_csv(events: EventBatch) -> str:
    """The event log: a header, then one row per event in event order.

    Every row after its event index is fixed by the (gemenge row, pointer)
    pair, so each pair present is formatted once and looked up per event.
    """
    o_dim = len(events.pointer_values)
    if events.gemenge_row is None:
        codes = events.pointer_index
    else:
        codes = events.gemenge_row * o_dim + events.pointer_index
    probability = np.zeros(int(codes.max()) + 1)
    probability[codes] = events.probability  # one value per code
    table = np.empty(probability.size, dtype=object)
    for code in np.flatnonzero(np.bincount(codes)):
        row, pointer = divmod(int(code), o_dim)
        table[code] = (
            f",{'' if events.gemenge_row is None else row},{pointer},"
            f"{_format_float(events.pointer_values[pointer])},"
            f"{_format_float(probability[code])}\n"
        )
    parts = [",".join(_EVENT_COLUMNS) + "\n"]
    for start in range(0, len(events), _CSV_CHUNK):
        stop = min(start + _CSV_CHUNK, len(events))
        parts.append("".join(map(str.__add__, map(str, range(start, stop)), table[codes[start:stop]])))
    return "".join(parts)


def emit_report(
    report: RunReport,
    fmt: str = "json",
    out: str | Path | None = None,
) -> str:
    """Serialize a report; returns the document text.

    ``json``: the summary document, with the event log written next to
    ``out`` (as ``<stem>.events.csv``) when a path is given and events
    exist.  ``csv``: the event log itself is the document.  Output bytes
    depend only on (config, seed) and the output file names.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    out_path = None if out is None else Path(out)

    if fmt == "csv":
        if report.events is None:
            raise ValueError(
                f"scenario {report.scenario!r} produces no event log; use the json format"
            )
        text = _events_csv(report.events)
        if out_path is not None:
            out_path.write_text(text, encoding="utf-8")
        return text

    event_log_name = None
    if report.events is not None and out_path is not None:
        event_log_name = out_path.stem + ".events.csv"
    doc = {
        "scenario": report.scenario,
        "config": _canonical(report.config),
        "summary": _canonical(report.summary),
        "n_events_logged": 0 if report.events is None else len(report.events),
        "event_log": event_log_name,
    }
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path is not None:
        out_path.write_text(text, encoding="utf-8")
        if event_log_name is not None:
            (out_path.parent / event_log_name).write_text(
                _events_csv(report.events), encoding="utf-8"
            )
    return text
