"""Seeded scenario configs for the benchmark workloads, with ground truth.

Every workload is a function of the workload seed alone: it returns the
scenario document the program sees (as canonical JSON bytes) and the
ground truth the output check compares against.  The program never sees
the ground truth, only the document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 1

# Amplitude weights are mixed with the uniform distribution so that no
# Born probability of a populated pointer falls below FLOOR / s_dim; the
# z-test on the histogram then stays well conditioned for every seed.
_FLOOR = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    document: bytes
    scenario: str
    n_events: int
    out_name: str                      # report.json, or events.csv for csv output
    truth: dict = field(default_factory=dict)

    @property
    def has_events(self) -> bool:
        return self.n_events > 0


def _weights(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.random(n) + 1e-3
    return _FLOOR / n + (1.0 - _FLOOR) * u / u.sum()


def _amplitudes(rng: np.random.Generator, s_dim: int) -> list[list[float]]:
    w = _weights(rng, s_dim)
    phases = rng.random(s_dim) * 2.0 * np.pi
    return [[float(np.sqrt(p) * np.cos(t)), float(np.sqrt(p) * np.sin(t))] for p, t in zip(w, phases)]


def _normalized_weights(pairs: list[list[float]]) -> np.ndarray:
    """|a_i|^2 after the exact renormalization parse_scenario applies."""
    amps = np.array([complex(re, im) for re, im in pairs])
    w = np.abs(amps) ** 2
    return w / w.sum()


def _encode(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


# Events per run of the event workloads.  The event path is still about
# nine tenths of a run, and a run is short enough for about ten runs in
# one measurement window: on a shared 2-vCPU machine single runs vary by
# ±15 %, so the median needs that many.
EVENTS = 250_000


def _philox_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def pure_250k(seed: int) -> Workload:
    rng = _rng(seed, 1)
    amps = _amplitudes(rng, 2)
    doc = {
        "scenario": "pure",
        "input": {"amplitudes": amps},
        "n_events": EVENTS,
        "seed": _philox_seed(rng),
        "output_format": "json",
    }
    born = [0.0, *_normalized_weights(amps)]
    return Workload(
        name="pure-250k",
        why="event path dominates (Philox, run_ensemble, histogram, CSV emit); setup is ~2 ms",
        document=_encode(doc),
        scenario="pure",
        n_events=EVENTS,
        out_name="report.json",
        truth={"born": born},
    )


def gemenge_250k(seed: int) -> Workload:
    rng = _rng(seed, 2)
    s_dim, n_rows = 3, 6
    rows = [{"amplitudes": _amplitudes(rng, s_dim)} for _ in range(n_rows)]
    row_p = _weights(rng, n_rows)
    for row, p in zip(rows, row_p):
        row["probability"] = float(p)
    doc = {
        "scenario": "gemenge",
        "model": {"s_dim": s_dim, "o_dim": s_dim + 1},
        "input": {"gemenge": rows},
        "n_events": EVENTS,
        "seed": _philox_seed(rng),
        "output_format": "csv",
    }
    p = np.array([row["probability"] for row in rows])
    p = p / p.sum()
    born = np.zeros(s_dim + 1)
    for row, p_r in zip(rows, p):
        born[1:] += p_r * _normalized_weights(row["amplitudes"])
    return Workload(
        name="gemenge-250k",
        why="same event layers with two draws per event, a row inverse CDF and the csv document",
        document=_encode(doc),
        scenario="gemenge",
        n_events=EVENTS,
        out_name="events.csv",
        truth={"born": born.tolist(), "row_probabilities": p.tolist()},
    )


def setup_env_d336(seed: int) -> Workload:
    rng = _rng(seed, 3)
    s_dim = 6
    amps = _amplitudes(rng, s_dim)
    doc = {
        "scenario": "pure",
        "model": {"s_dim": s_dim, "o_dim": s_dim + 1, "environment": {"e_dim": 8}},
        "input": {"amplitudes": amps},
        "n_events": 100_000,
        "seed": _philox_seed(rng),
        "output_format": "json",
    }
    return Workload(
        name="setup-env-d336",
        why="per-model setup dominates: two pointer closures (d=336, d=42), joint resolution, 336x336 unitary",
        document=_encode(doc),
        scenario="pure",
        n_events=100_000,
        out_name="report.json",
        truth={"born": [0.0, *_normalized_weights(amps)]},
    )


# Joint eigenvalues of the two generators: 22 of the 24 points of this
# grid, none of them 0, so every character value prints the same at 12
# significant digits whatever the rounding noise of the closure.
_GRID_A = (1.5, 2.5, 3.5, 4.5, 5.5, 6.5)
_GRID_B = (-2.5, -1.5, 1.5, 2.5)
# Ranks of the 22 joint eigenspaces; they sum to d = 110.  The multiset
# is fixed so every seed asks the closure for the same amount of work.
_RANKS = (1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 8, 12, 12)


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian_entries(u: np.ndarray, values: np.ndarray) -> list:
    h = (u * values) @ u.conj().T
    h = (h + h.conj().T) / 2.0  # exactly Hermitian entry by entry
    return np.stack([h.real, h.imag], axis=-1).tolist()


def algebra_generic_d110(seed: int) -> Workload:
    rng = _rng(seed, 4)
    s_dim, o_dim = 10, 11
    d = s_dim * o_dim
    grid = [(a, b) for a in _GRID_A for b in _GRID_B]
    keep = sorted(rng.choice(len(grid), size=len(_RANKS), replace=False))
    pairs = [grid[k] for k in keep]
    ranks = [int(r) for r in rng.permutation(_RANKS)]
    diag_a = np.repeat([a for a, _ in pairs], ranks)
    diag_b = np.repeat([b for _, b in pairs], ranks)
    u = _unitary(rng, d)
    doc = {
        "scenario": "algebra-probe",
        "model": {"s_dim": s_dim, "o_dim": o_dim},
        "generators": [
            {"space": "MS", "matrix": _hermitian_entries(u, diag_a)},
            {"space": "MS", "matrix": _hermitian_entries(u, diag_b)},
        ],
        "seed": _philox_seed(rng),
        "output_format": "json",
    }
    characters = sorted(zip(pairs, ranks))
    return Workload(
        name="algebra-generic-d110",
        why="generic Gram-Schmidt closure, commutativity check and joint resolution on a ~1 MB config",
        document=_encode(doc),
        scenario="algebra-probe",
        n_events=0,
        out_name="report.json",
        truth={
            "dimension": len(pairs),
            "characters": [list(pair) for pair, _ in characters],
            "projector_ranks": [rank for _, rank in characters],
        },
    )


GENERATORS = {
    "pure-250k": pure_250k,
    "gemenge-250k": gemenge_250k,
    "setup-env-d336": setup_env_d336,
    "algebra-generic-d110": algebra_generic_d110,
}


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
