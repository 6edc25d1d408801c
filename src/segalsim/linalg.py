"""Dense complex linear-algebra kernel.

Operators are plain ``numpy.ndarray`` values with complex dtype; a
:class:`SpaceLayout` names the tensor factors of a composite space so
basis indices and factor embeddings can address them by label.  All
functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .config import (
    DEGENERACY_GAP,
    HERMITIAN_ATOL,
    ORTHONORMALITY_ATOL,
    RECONSTRUCTION_ATOL,
    check,
)

__all__ = [
    "SpaceLayout",
    "basis_vector",
    "degenerate_clusters",
    "hermitian_eig",
    "require_hermitian",
    "tensor",
    "unitary_from_hamiltonian",
]


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered tensor factorization of a composite Hilbert space.

    ``factors`` is a tuple of ``(label, dim)`` pairs.  Composite basis
    indices follow the Kronecker convention: the first factor varies
    slowest, so a product basis state with per-factor indices ``(i_0,
    i_1, ...)`` sits at ``sum(i_k * stride_k)`` with strides taken
    right-to-left.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(label), int(dim)) for label, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("layout needs at least one factor")
        labels = [label for label, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in layout: {labels}")
        for label, dim in factors:
            if dim < 1:
                raise ValueError(f"factor {label!r} has non-positive dimension {dim}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self.factors:
            out *= d
        return out

    def basis_index(self, indices: Sequence[int]) -> int:
        """Composite index of the product basis state with per-factor indices."""
        if len(indices) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} factor indices, got {len(indices)}")
        out = 0
        for (label, dim), idx in zip(self.factors, indices):
            if not 0 <= idx < dim:
                raise ValueError(f"index {idx} out of range for factor {label!r} of dim {dim}")
            out = out * dim + idx
        return out


def basis_vector(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def tensor(*operators: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, first factor slowest."""
    if not operators:
        raise ValueError("tensor needs at least one operator")
    mats = [np.asarray(m, dtype=complex) for m in operators]
    return reduce(np.kron, mats)


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    dev = float(np.max(np.abs(m - m.conj().T)))
    if not dev <= HERMITIAN_ATOL:  # a NaN deviation fails too
        raise ValueError(f"{what} is not Hermitian: max |M - M^dag| = {dev:.3e} > {HERMITIAN_ATOL:.1e}")
    return m


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with eigenvalues ascending and orthonormal
    eigenvector columns, so that ``m = vectors @ diag(values) @ vectors^dag``.
    Non-Hermitian input is rejected.  Use :func:`degenerate_clusters` on the
    returned values when downstream logic must not rely on the arbitrary
    basis choice inside a degenerate eigenspace.
    """
    m = require_hermitian(m)
    values, vectors = np.linalg.eigh(m)
    recon = (vectors * values) @ vectors.conj().T
    err = np.max(np.abs(recon - m))
    check("eigendecomposition reconstruction error, max |V w V^dag - M|", err, RECONSTRUCTION_ATOL)
    gram = vectors.conj().T @ vectors
    ortho = np.max(np.abs(gram - np.eye(m.shape[0])))
    check("eigenvectors not orthonormal, max |V^dag V - I|", ortho, ORTHONORMALITY_ATOL)
    return values, vectors


def degenerate_clusters(values: np.ndarray, gap: float = DEGENERACY_GAP) -> list[list[int]]:
    """Group indices of (sorted ascending) eigenvalues into degenerate clusters.

    Consecutive values closer than ``gap`` belong to one cluster.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    clusters = [[0]]
    for i in range(1, values.size):
        if values[i] - values[clusters[-1][-1]] < gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def unitary_from_hamiltonian(h: np.ndarray, t: float) -> np.ndarray:
    """Propagator exp(-i h t) of a Hermitian generator.

    Computed through the eigendecomposition of ``h``, which is exact at the
    matrix sizes this package targets (no series truncation).
    """
    values, vectors = hermitian_eig(h)
    phases = np.exp(-1j * values * float(t))
    u = (vectors * phases) @ vectors.conj().T
    err = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    check("propagator lost unitarity, max |U U^dag - I|", err, RECONSTRUCTION_ATOL)
    return u
