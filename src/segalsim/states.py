"""Quantum state representations on labeled composite spaces.

Three carriers: :class:`StateVector` for pure individual states,
:class:`DensityMatrix` for statistical states, and :class:`Gemenge` for
ensemble tables that record which pure state occurs with which probability
(strictly finer data than the density matrix they average to).

Constructors validate their invariants and reject violations instead of
repairing them silently; a state that fails normalization or positivity is
a modeling bug upstream, not something to patch up quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import HERMITIAN_ATOL, InvariantViolation, PSD_ATOL, TRACE_ATOL
from .linalg import SpaceLayout, partial_trace, require_hermitian

__all__ = [
    "DensityMatrix",
    "Gemenge",
    "StateVector",
    "basis_state",
    "density_from_vector",
    "expectation",
    "gemenge_mix",
    "inverse_cdf",
    "purity",
    "reduce_density",
    "sample_gemenge",
    "vector_fidelity",
]


def _frozen_array(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on a labeled composite space."""

    layout: SpaceLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = _frozen_array(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        object.__setattr__(self, "amplitudes", amp)
        if amp.size != self.layout.dim:
            raise ValueError(
                f"amplitude count {amp.size} does not match layout dim {self.layout.dim}"
            )
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > TRACE_ATOL:
            raise InvariantViolation(f"state vector not normalized: |psi| = {norm!r}")

    @property
    def dim(self) -> int:
        return self.layout.dim

    def tensor(self, other: "StateVector") -> "StateVector":
        """Product state on the concatenated layout."""
        layout = SpaceLayout(self.layout.factors + other.layout.factors)
        return StateVector(layout, np.kron(self.amplitudes, other.amplitudes))


def basis_state(layout: SpaceLayout, indices: Sequence[int]) -> StateVector:
    """Product basis state with the given per-factor indices."""
    amp = np.zeros(layout.dim, dtype=complex)
    amp[layout.basis_index(indices)] = 1.0
    return StateVector(layout, amp)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite statistical state."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match layout dim {d}")
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > HERMITIAN_ATOL:
            raise InvariantViolation(f"density matrix not Hermitian: deviation {herm_dev:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvariantViolation(f"density matrix trace {tr!r} differs from 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -PSD_ATOL:
            raise InvariantViolation(f"density matrix has negative eigenvalue {lowest:.3e}")
        object.__setattr__(self, "matrix", _frozen_array(mat))

    @property
    def dim(self) -> int:
        return self.layout.dim


@dataclass(frozen=True, eq=False)
class Gemenge:
    """Ensemble table of pure states with occurrence probabilities."""

    rows: tuple[tuple[StateVector, float], ...]

    def __post_init__(self) -> None:
        rows = tuple((state, float(p)) for state, p in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("Gemenge needs at least one row")
        layout = rows[0][0].layout
        for state, p in rows:
            if state.layout != layout:
                raise ValueError("all Gemenge rows must share one layout")
            if p < -TRACE_ATOL or p > 1.0 + TRACE_ATOL:
                raise InvariantViolation(f"row probability {p!r} outside [0, 1]")
        total = sum(p for _, p in rows)
        if abs(total - 1.0) > TRACE_ATOL:
            raise InvariantViolation(f"Gemenge probabilities sum to {total!r}, not 1")
        cumulative = np.cumsum([max(p, 0.0) for _, p in rows])
        cumulative[-1] = 1.0
        object.__setattr__(self, "_cumulative", _frozen_array(cumulative, dtype=float))

    @property
    def layout(self) -> SpaceLayout:
        return self.rows[0][0].layout

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.rows])

    @property
    def cumulative(self) -> np.ndarray:
        """Cumulative row probabilities, for inverse-CDF sampling."""
        return self._cumulative


def density_from_vector(v: StateVector) -> DensityMatrix:
    """Rank-1 projector |v><v| as a density matrix."""
    return DensityMatrix(v.layout, np.outer(v.amplitudes, v.amplitudes.conj()))


def gemenge_mix(w: Gemenge) -> DensityMatrix:
    """Density matrix averaged over the ensemble table."""
    mat = np.zeros((w.layout.dim, w.layout.dim), dtype=complex)
    for state, p in w.rows:
        mat += p * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(w.layout, mat)


def inverse_cdf(cumulative: np.ndarray, u: float | np.ndarray) -> np.intp | np.ndarray:
    """Index of the first cumulative entry above ``u``, else the last index.

    ``u`` may be a scalar or an array of uniforms; the result has its
    shape.  An entry equal to its predecessor (zero probability) is never
    selected, and ``u`` at or past the last entry gives the last index.
    """
    return np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)


def sample_gemenge(w: Gemenge, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Draw one row of the ensemble table; deterministic under a fixed seed."""
    index = int(inverse_cdf(w.cumulative, rng.random()))
    return index, w.rows[index][0]


def expectation(rho: DensityMatrix, a: np.ndarray) -> float:
    """Expectation trace(rho a) of a Hermitian observable."""
    a = require_hermitian(a, what="observable")
    if a.shape[0] != rho.dim:
        raise ValueError(f"observable dim {a.shape[0]} does not match state dim {rho.dim}")
    value = complex(np.einsum("ij,ji->", rho.matrix, a))
    if abs(value.imag) > TRACE_ATOL:
        raise InvariantViolation(f"expectation has imaginary part {value.imag:.3e}")
    return float(value.real)


def reduce_density(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Partial trace onto the kept factors."""
    reduced = partial_trace(rho.matrix, rho.layout, keep)
    return DensityMatrix(rho.layout.subset(keep), reduced)


def purity(rho: DensityMatrix) -> float:
    return float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)


def vector_fidelity(rho: DensityMatrix, v: StateVector) -> float:
    """Overlap <v| rho |v> with a pure reference state."""
    if rho.layout != v.layout:
        raise ValueError("state and density matrix live on different layouts")
    return float(np.vdot(v.amplitudes, rho.matrix @ v.amplitudes).real)
