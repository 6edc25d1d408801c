"""Decoherence summaries and pointer-basis extraction.

The environment records of :mod:`segalsim.measurement` scale every
cross-branch coherence of the register by their overlap.  The
S-conditioned register states are W_s W_s^dag for the o_dim x e_dim
branch factors W_s = diag(a_s) records, a_s the premeasured amplitudes
of branch s, so the register basis a tri-partite entangled state selects
comes from thin SVDs of the factors; the coherence is O(e_dim), and the
register's purity under the dephasing coupling g Q_O (x) V_E is read
from its o_dim x e_dim amplitudes.  No o_dim x o_dim array is made.
Only the ``decoherence`` scenario, whose runner is here, runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEGENERACY_GAP, ORTHONORMALITY_ATOL, RECONSTRUCTION_ATOL, check
from .linalg import SpaceLayout, degenerate_clusters
from .measurement import MeasurementModel, premeasure, system_state
from .parse import _space_layout
from .pointer import _setup
from .scenarios import ScenarioConfig
from .states import StateVector, basis_state

__all__ = [
    "PointerBasisReport",
    "environment_coherence",
    "environment_pointer_basis",
    "pointer_basis_of_factors",
    "pointer_state_stability",
]


def environment_coherence(model: MeasurementModel, psi_s: StateVector) -> float:
    """|<s_0 O_1| rho_SO |s_1 O_2>| once E is traced out of the coupled state.

    The branch records overlap by ``e_overlap``, so the environment scales
    the cross-branch coherence by exactly that overlap.  It is entry (1, 2)
    of W_0 W_1^dag, summed in the coupled density matrix's factor order, so
    its bits are the dense route's.
    """
    a = premeasure(model, psi_s).amplitudes.reshape(model.s_dim, model.o_dim)
    rho_12 = a[0, 1:2] * a[1, 2:3].conj()  # an array: a numpy scalar product rounds apart
    records = _setup(model).records
    return abs(complex((records[1] * rho_12 * records[2]).sum()))


def environment_pointer_basis(model: MeasurementModel, psi_s: StateVector) -> PointerBasisReport:
    """:func:`pointer_basis_of_factors` of the coupled post-measurement state of
    ``psi_s``, from its branch factors W_s = diag(a_s) records."""
    a = premeasure(model, psi_s).amplitudes.reshape(model.s_dim, model.o_dim)
    return pointer_basis_of_factors(a[:, :, None] * _setup(model).records)


@dataclass(frozen=True, eq=False)
class PointerBasisReport:
    """Recovered register basis and how unambiguous the recovery was."""

    vectors: tuple[np.ndarray, ...]
    weights: np.ndarray
    flag: str  # "UNIQUE" or "DEGENERATE-UNRESOLVED"
    residual: float


def _svd(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin SVD: left singular vectors and descending singular values, checked."""
    u, sv, vh = np.linalg.svd(w, full_matrices=False)
    err = np.max(np.abs((u * sv) @ vh - w))
    check("singular value decomposition reconstruction error, max |U S V^dag - W|", err, RECONSTRUCTION_ATOL)
    ortho = np.max(np.abs(u.conj().T @ u - np.eye(sv.size)))
    check("singular vectors not orthonormal, max |U^dag U - I|", ortho, ORTHONORMALITY_ATOL)
    return u, sv


def pointer_basis_of_factors(
    factors: np.ndarray,
    weight_floor: float = 1e-10,
    gap: float = DEGENERACY_GAP,
    residual_tol: float = 1e-6,
) -> PointerBasisReport:
    """Recover the register basis selected by a tri-partite entangled state.

    ``factors[i]`` is an o_dim x r factor W_i of the unnormalized
    S-conditioned register state <s_i| rho |s_i> = W_i W_i^dag.  Primary
    route: the O marginal W W^dag, W the factors side by side, through the
    left singular vectors of W, weights the squared singular values
    ascending.  A degenerate cluster is resolved by the branches' top left
    singular vectors projected on its columns (each measured branch pins
    down its own pointer vector, whatever the environment overlaps are),
    or reported DEGENERATE-UNRESOLVED rather than picked arbitrarily, as
    when a branch's is neither parallel nor orthogonal to an earlier one
    (within 1e-6) and the branch order would pick the basis.  A
    branch residual 1 - s_0^2 / sum s^2 above ``residual_tol`` rejects the
    state as not of the measured tri-partite form.
    """
    tops: list[np.ndarray] = []  # each branch's register direction
    residual = 0.0
    for w in factors:
        u, sv = _svd(w)
        weight = float(np.sum(sv**2))
        if weight <= weight_floor:
            continue
        residual = max(residual, 1.0 - float(sv[0]) ** 2 / weight)
        tops.append(u[:, 0])
    if residual > residual_tol:
        raise ValueError(
            f"state is not approximately tri-decomposable: branch residual {residual:.3e} "
            f"exceeds {residual_tol:.1e}"
        )

    u, sv = _svd(np.concatenate(factors, axis=1))
    values, vectors = sv[::-1] ** 2, u[:, ::-1]
    significant = [k for k in range(values.size) if values[k] > weight_floor]
    clusters = [
        [significant[j] for j in group]
        for group in degenerate_clusters(values[significant], gap=gap)
    ]

    out_vectors: list[np.ndarray] = []
    unresolved = False
    for cluster in clusters:
        columns = vectors[:, cluster]
        if len(cluster) == 1:
            out_vectors.append(columns[:, 0])
            continue
        candidates: list[np.ndarray] = []
        for top in tops:
            projected = columns @ (columns.conj().T @ top)
            norm = float(np.linalg.norm(projected))
            if norm**2 < 0.5:
                continue
            candidate = projected / norm
            # A repeat of a found branch, or orthogonal to all; else unresolved.
            overlaps = [np.vdot(prior, candidate) for prior in candidates]
            if any(np.linalg.norm(candidate - prior * o) <= 1e-6 for prior, o in zip(candidates, overlaps)):
                continue
            if any(abs(o) > 1e-6 for o in overlaps):
                candidates = []
                break
            for prior in candidates:
                candidate = candidate - prior * np.vdot(prior, candidate)
            candidates.append(candidate / np.linalg.norm(candidate))
        if len(candidates) < len(cluster):
            unresolved = True
            candidates = list(columns.T)
        out_vectors.extend(candidates)

    return PointerBasisReport(
        vectors=tuple(out_vectors),
        weights=values[significant],
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
        gram = amp_t.conj().T @ amp_t  # e_dim x e_dim; its nonzero spectrum is rho_O's
        purities.append(float(np.vdot(gram, gram).real))
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
