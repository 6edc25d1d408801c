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
from typing import Sequence

import numpy as np

from .config import HERMITIAN_ATOL, PSD_ATOL, TRACE_ATOL, check
from .linalg import SpaceLayout, require_hermitian

__all__ = [
    "DensityMatrix",
    "Gemenge",
    "StateVector",
    "basis_state",
    "density_from_vector",
    "expectation",
    "table_inverse_cdf",
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
        check("state vector not normalized, ||psi| - 1|", abs(norm - 1.0), TRACE_ATOL)

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
        check("density matrix not Hermitian, max |M - M^dag|", herm_dev, HERMITIAN_ATOL)
        check("density matrix trace differs from 1, |tr - 1|", abs(np.trace(mat) - 1.0), TRACE_ATOL)
        lowest = float(np.linalg.eigvalsh(mat)[0])
        check("density matrix has negative eigenvalue, -lowest", -lowest, PSD_ATOL)
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
        for state, _ in rows:
            if state.layout != layout:
                raise ValueError("all Gemenge rows must share one layout")
        probs = np.array([p for _, p in rows])
        outside = np.max(np.maximum(-probs, probs - 1.0))  # the worst row's distance from [0, 1]
        check("row probability outside [0, 1], by", outside, TRACE_ATOL)
        check("Gemenge probabilities do not sum to 1", abs(probs.sum() - 1.0), TRACE_ATOL)
        # Exactly 1 from the last positive row on: no zero row is drawn.
        cumulative = np.cumsum([max(p, 0.0) for _, p in rows])
        cumulative[cumulative == cumulative[-1]] = 1.0
        object.__setattr__(self, "_cumulative", _frozen_array(cumulative, dtype=float))

    @property
    def layout(self) -> SpaceLayout:
        return self.rows[0][0].layout

    @property
    def cumulative(self) -> np.ndarray:
        """Cumulative row probabilities, for inverse-CDF sampling."""
        return self._cumulative


def density_from_vector(v: StateVector) -> DensityMatrix:
    """Rank-1 projector |v><v| as a density matrix."""
    return DensityMatrix(v.layout, np.outer(v.amplitudes, v.amplitudes.conj()))


def table_inverse_cdf(table: np.ndarray, rows: int | np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each uniform ``u`` and its row ``r``, the index of the first
    entry of ``table[r]`` above ``u``, else the row's last index: the
    inverse CDF of that row.  An entry equal to its predecessor (zero
    probability) is never selected.  The result has the shape of ``u``.

    One binary search over all uniforms at once: each count takes every
    power-of-two step whose last entry is at or below its uniform, as one
    unmasked add of ``step * hit``.  It ends at the number of entries at or
    below ``u`` (``searchsorted(side="right")``), or past the row's end
    when the whole row is, and both cap to the same index.  Rows must be
    nondecreasing, as cumulatives are.  ``rows`` is read as intp, so a
    uint8 row column does not wrap.  The tests hold it against
    ``searchsorted`` (``inverse_cdf`` in ``tests/_oracles.py``).
    """
    m = table.shape[1]
    flat = table.ravel()
    before = np.asarray(rows, np.intp) * m - 1  # entry j of row r is flat[before + j + 1]
    count = np.zeros(np.shape(u), np.intp)
    step = 1 << (m.bit_length() - 1)
    while step:
        count += step * (flat[before + np.minimum(count + step, m)] <= u)
        step >>= 1
    return np.minimum(count, m - 1)


def expectation(rho: DensityMatrix, a: np.ndarray) -> float:
    """Expectation trace(rho a) of a Hermitian observable."""
    a = require_hermitian(a, what="observable")
    if a.shape[0] != rho.dim:
        raise ValueError(f"observable dim {a.shape[0]} does not match state dim {rho.dim}")
    value = complex(np.einsum("ij,ji->", rho.matrix, a))
    check("expectation has imaginary part, |Im|", abs(value.imag), TRACE_ATOL)
    return float(value.real)
