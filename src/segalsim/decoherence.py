"""Decoherence summaries and pointer-basis extraction.

The environment records of :mod:`segalsim.measurement` scale every
cross-branch coherence of the register by their overlap; this module
reads that coherence and the S-conditioned register states, each an
o_dim x o_dim block summed over E from the record table, recovers the
register basis a tri-partite entangled state selects, and follows the
register's purity under the dephasing coupling g Q_O (x) V_E.  Only the
``decoherence`` scenario, whose runner is here, runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEGENERACY_GAP
from .linalg import SpaceLayout, degenerate_clusters, hermitian_eig
from .measurement import MeasurementModel, premeasure, system_state
from .parse import _space_layout
from .pointer import _setup
from .scenarios import ScenarioConfig
from .states import StateVector, basis_state

__all__ = [
    "PointerBasisReport",
    "environment_coherence",
    "environment_pointer_basis",
    "pointer_basis",
    "pointer_state_stability",
]


def _traced_block(records: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """<s| Tr_E(V rho V^dag) |s'> for the S (x) O block rho[s j, s' k] =
    left[j] conj(right[k]) of a pure state, V the environment coupling.

    Entry (j, k) sums (records[j, e] rho[s j, s' k]) records[k, e] over e,
    the factors in the order the coupled density matrix holds them.
    """
    rho = np.outer(left, right.conj())
    return ((records[:, None, :] * rho[:, :, None]) * records[None]).sum(axis=-1)


def environment_coherence(model: MeasurementModel, psi_s: StateVector) -> float:
    """|<s_0 O_1| rho_SO |s_1 O_2>| once E is traced out of the coupled state.

    The branch records overlap by ``e_overlap``, so the environment scales
    the cross-branch coherence by exactly that overlap.
    """
    a = premeasure(model, psi_s).amplitudes.reshape(model.s_dim, model.o_dim)
    return abs(complex(_traced_block(_setup(model).records, a[0], a[1])[1, 2]))


def environment_pointer_basis(model: MeasurementModel, psi_s: StateVector) -> PointerBasisReport:
    """:func:`pointer_basis` of the coupled post-measurement state of ``psi_s``."""
    records = _setup(model).records
    table = premeasure(model, psi_s).amplitudes.reshape(model.s_dim, model.o_dim)
    return pointer_basis(np.array([_traced_block(records, a, a) for a in table]))


@dataclass(frozen=True, eq=False)
class PointerBasisReport:
    """Recovered register basis and how unambiguous the recovery was."""

    vectors: tuple[np.ndarray, ...]
    weights: np.ndarray
    flag: str  # "UNIQUE" or "DEGENERATE-UNRESOLVED"
    residual: float


def pointer_basis(
    conditioned: np.ndarray,
    weight_floor: float = 1e-10,
    gap: float = DEGENERACY_GAP,
    residual_tol: float = 1e-6,
) -> PointerBasisReport:
    """Recover the register basis selected by a tri-partite entangled state.

    ``conditioned[i]`` is the S-conditioned register state <s_i| rho |s_i>
    with every other factor traced out, unnormalized; their sum is the O
    marginal.  Primary route: the eigenbasis of the O marginal.  Degenerate
    eigenvalue clusters are resolved through the S-conditioned O states
    (each measured branch pins down its own pointer vector, whatever the
    environment overlaps are); if the conditioned states cannot split a
    cluster either, the report says DEGENERATE-UNRESOLVED rather than
    picking a basis arbitrarily.  States whose S-conditioned states fail to
    be a single register direction are rejected as not being of the
    measured tri-partite form.
    """
    conditional: list[np.ndarray] = []  # normalized O states
    residual = 0.0
    for sigma in conditioned:
        weight = float(np.trace(sigma).real)
        if weight <= weight_floor:
            continue
        eigvals = np.linalg.eigvalsh(sigma)
        residual = max(residual, 1.0 - float(eigvals[-1]) / weight)
        conditional.append(sigma / weight)
    if residual > residual_tol:
        raise ValueError(
            f"state is not approximately tri-decomposable: branch residual {residual:.3e} "
            f"exceeds {residual_tol:.1e}"
        )

    values, vectors = hermitian_eig(conditioned.sum(axis=0))
    significant = [k for k in range(values.size) if values[k] > weight_floor]
    clusters = [
        [significant[j] for j in group]
        for group in degenerate_clusters(values[significant], gap=gap)
    ]

    out_vectors: list[np.ndarray] = []
    out_weights: list[float] = []
    unresolved = False
    for cluster in clusters:
        if len(cluster) == 1:
            out_vectors.append(vectors[:, cluster[0]])
            out_weights.append(float(values[cluster[0]]))
            continue
        p_cluster = vectors[:, cluster] @ vectors[:, cluster].conj().T
        candidates: list[np.ndarray] = []
        for sigma in conditional:
            _, sig_vecs = hermitian_eig(sigma)
            u = sig_vecs[:, -1]
            projected = p_cluster @ u
            norm = float(np.linalg.norm(projected))
            if norm**2 < 0.5:
                continue
            candidate = projected / norm
            for prior in candidates:  # drop duplicates of an already-found branch
                candidate = candidate - prior * np.vdot(prior, candidate)
            norm = float(np.linalg.norm(candidate))
            if norm > 1e-6:
                candidates.append(candidate / norm)
        if len(candidates) == len(cluster):
            out_vectors.extend(candidates)
            out_weights.extend(float(values[k]) for k in cluster)
        else:
            unresolved = True
            out_vectors.extend(vectors[:, k] for k in cluster)
            out_weights.extend(float(values[k]) for k in cluster)

    return PointerBasisReport(
        vectors=tuple(out_vectors),
        weights=np.array(out_weights),
        flag="DEGENERATE-UNRESOLVED" if unresolved else "UNIQUE",
        residual=residual,
    )


def pointer_state_stability(
    model: MeasurementModel,
    o_state: StateVector,
    t_grid: Sequence[float],
) -> np.ndarray:
    """Register purity under environment dephasing, per grid time.

    The coupling g Q_O (x) V_E with V_E = diag(0, 1, ..., e_dim - 1)
    leaves every pointer eigenstate exactly pure, while superpositions of
    distinct pointer values dephase; the environment starts in the uniform
    superposition of V_E eigenstates so the decay is actually visible.
    """
    if model.environment is None:
        raise ValueError("model has no environment configured")
    if o_state.layout != SpaceLayout((("O", model.o_dim),)):
        raise ValueError("state must live on the bare register layout")
    env = model.environment
    g = env.coupling_strength
    qo = np.asarray(model.qo_values)
    v_e = np.arange(env.e_dim)
    phases = g * qo[:, None] * v_e[None, :]
    e_in = np.full(env.e_dim, 1.0 / np.sqrt(env.e_dim), dtype=complex)
    amp0 = o_state.amplitudes[:, None] * e_in[None, :]
    purities = []
    for t in t_grid:
        amp_t = np.exp(-1j * phases * float(t)) * amp0
        rho_o = amp_t @ amp_t.conj().T
        purities.append(float(np.einsum("ij,ji->", rho_o, rho_o).real))
    return np.array(purities)


def _run_decoherence(cfg: ScenarioConfig):
    model = cfg.model
    psi_s = system_state(model, cfg.amplitudes)
    predicted = model.environment.e_overlap * abs(cfg.amplitudes[0] * cfg.amplitudes[1])
    basis_report = environment_pointer_basis(model, psi_s)
    overlaps = [
        [abs(complex(v[k])) for k in range(model.o_dim)] for v in basis_report.vectors
    ]

    t_grid = cfg.t_grid
    if t_grid is None:
        t_grid = np.linspace(0.0, 0.35, 8)
    o_layout = _space_layout(model, "O")
    pointer_state = basis_state(o_layout, (1,))
    sup = np.zeros(model.o_dim)
    sup[1] = sup[2] = 2**-0.5
    superposition = StateVector(o_layout, sup)
    summary = {
        "offdiagonal_magnitude": environment_coherence(model, psi_s),
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
