"""Finite-dimensional *-algebras of operators on a labeled space.

An :class:`OperatorAlgebra` is the smallest unital, adjoint- and
product-closed linear span containing its generators.  The letters are
the generators plus every adjoint that is not exactly equal to a
generator.  The algebra is commutative iff every pair of letters a, b
commutes within ``tol * |a| |b|`` (Hilbert-Schmidt norms): L^2 products
for L letters.  Exactly diagonal generators commute by construction and
skip the check.  Non-diagonal generators need ``tol >= d * eps``
(machine epsilon); below that floor a commutator cannot be told from its
round-off, and the input is refused.  The input's structure picks one of
two representations; there is no switch.

Commutative algebras are stored as ``(V, labels)``.  A commutative
*-algebra is the span of the joint spectral projectors of its
generators, and its characters are the points of their joint spectrum.
The columns of V are joint eigenvectors and ``labels[i]`` is the class
of column i; basis element k is P_k / sqrt(rank_k) for the projector
P_k onto the columns of class k, made dense only when read.  Beside the
labels the algebra keeps only the ranks, sqrt(rank) and 1/sqrt(rank),
O(d) in all; every read of the classes is one class sum, a bincount over
``labels``.  Character k is the class index k alone: it takes the value
1/sqrt(rank_k) on basis element k and 0 on every other.

- V.  When every generator is exactly diagonal, V is the identity,
  stored as ``None`` and never materialized, and the generators are
  stored as one (n, d) array of their diagonals (:func:`diagonal_algebra`
  takes them in that form).  Otherwise V comes from one ``eigh`` of a
  Philox-keyed real combination of the Hermitian and anti-Hermitian
  parts of the generators, each scaled to unit norm: generator i takes
  the coefficients 2u - 1, in [-1, 1), from the first block of the
  stream keyed by (``_EIGENBASIS_SEED``, i).  The joint values of
  generator g are diag(V^dag g V).
- Labels.  For each generator, and for the real and imaginary parts of
  its joint values apart, the distinct values, sorted, split wherever a
  gap exceeds ``tol`` times the generator's largest magnitude: ``tol`` is
  the width within which joint values merge.  A class is a tuple of
  cluster ids; classes are numbered in character order, lexicographic in
  the real joint values rounded to 9 decimals (as ``np.round`` rounds
  them), then in the cluster ids.  The rule runs in plain Python on the
  distinct values, with no numpy sort, unique or round: per-model setup
  would page in their code for this alone.
- Ambiguity.  Input the rule cannot decide raises InvariantViolation; it
  is never merged silently.  That is a cluster wider than ``tol`` times
  the scale (a chain of small gaps); a generator whose V^dag g V differs
  from the diagonal of its class values by more than ``CHARACTER_ATOL``
  times the scale (Frobenius norm), as after an unlucky draw; and a split
  no larger than that difference, the accuracy the joint values were
  measured to.

Cost: the letter check, one ``eigh`` and two d x d products per
generator; for n exactly diagonal generators, an O(d) hashing pass per
part of each and O(k log k) for its k distinct values, plus one pass
over the dense generators to see that they are diagonal when they do not
come as diagonals (length-d arrays, for :func:`generate_algebra`).

Non-commutative algebras (algebra-probe lists such as ["QO_MS", "B"],
Pauli-type probes) are closed by Gram-Schmidt in :mod:`segalsim.closure`,
which :func:`generate_algebra` imports only for letters that do not
commute.  Their basis is one (k, d, d) array.

The grouping rule and its checks live in :mod:`segalsim.classifier`.
The letters, their commutativity check and the joint eigenvectors live
in :mod:`segalsim.eigenbasis`, which :func:`generate_algebra` imports
only for dense generators that are not all exactly diagonal: no event
run compiles them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import ALGEBRA_TOL, CHARACTER_ATOL, InvariantViolation
from .linalg import SpaceLayout

__all__ = [
    "OperatorAlgebra",
    "SpectralResolution",
    "diagonal_algebra",
    "generate_algebra",
    "joint_spectral_resolution",
]


def _from_eigenbasis(v: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """The dense operator V diag(values) V^dag."""
    if v is None:
        return np.diag(values)
    return (v * values) @ v.conj().T


class OperatorAlgebra:
    """Unital *-closed operator span with an orthonormal basis.

    Instances are immutable by convention; the joint spectral resolution is
    computed lazily and cached.  Construct through :func:`generate_algebra`
    or :func:`diagonal_algebra`.

    A commutative algebra carries ``labels``, ``ranks`` and
    ``eigenvectors`` (V, or ``None`` for the identity): basis element j
    is V P_j V^dag / sqrt(ranks[j]), P_j the 0/1 diagonal of class j,
    read through :meth:`class_sums` only; the dense ``basis`` is built on
    first use.  A non-commutative algebra has ``labels`` ``None``; its
    basis is stored as one read-only (k, d, d) array and ``basis`` holds
    views into it.  Exactly diagonal generators are stored as the rows of
    ``generator_diagonals`` (``generators`` ``None``) and the dense
    ``generators`` are built on first use.
    """

    def __init__(
        self,
        layout: SpaceLayout,
        generators: tuple[np.ndarray, ...] | None,
        tol: float,
        stack: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        eigenvectors: np.ndarray | None = None,
        joint_values: np.ndarray | None = None,
        generator_diagonals: np.ndarray | None = None,
    ) -> None:
        self.layout = layout
        self._generators = generators
        self.generator_diagonals = generator_diagonals
        self.tol = tol
        self.labels = labels
        self.commutative = labels is not None
        self.eigenvectors = eigenvectors
        if labels is None:
            # One (k, d, d) array; the basis elements are views into it.
            stack.setflags(write=False)
            self._basis = tuple(stack)
            # Orthonormal rows of vectorized basis elements, for fast projections.
            self._basis_vec = stack.reshape(len(stack), -1)
        else:
            self._basis = None
            self.ranks = np.bincount(labels)
            self._sqrt_ranks = np.sqrt(self.ranks)
            self._inv_sqrt_ranks = 1.0 / self._sqrt_ranks
            # (class, generator): each generator's mean joint value over the class.
            sums = np.array([self.class_sums(row) for row in joint_values])
            self._class_values = sums.T / self.ranks[:, None]
        self._resolution: SpectralResolution | None = None
        self._characters = None

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        if self._generators is None:
            self._generators = tuple(np.diag(row) for row in self.generator_diagonals)
        return self._generators

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        if self._basis is None:
            self._basis = tuple(
                _from_eigenbasis(self.eigenvectors, (self.labels == j) * complex(scale))
                for j, scale in enumerate(self._inv_sqrt_ranks)
            )
        return self._basis

    @property
    def dimension(self) -> int:
        return len(self._basis) if self.labels is None else len(self.ranks)

    def class_sums(self, x: np.ndarray) -> np.ndarray:
        """Sum of ``x``, one entry per joint eigenvector, over each class."""
        if not np.iscomplexobj(x):
            return np.bincount(self.labels, x, len(self.ranks))
        sums = self.class_sums(x.real).astype(complex)
        sums.imag = self.class_sums(x.imag)
        return sums

    def eigenbasis_diagonal(self, a: np.ndarray) -> np.ndarray:
        """diag(V^dag a V): the expectation of ``a`` in each joint eigenvector."""
        if self.eigenvectors is None:
            return np.diagonal(a)
        return np.einsum("ij,ij->j", self.eigenvectors.conj(), a @ self.eigenvectors)

    def eigenbasis_amplitudes(self, amplitudes: np.ndarray) -> np.ndarray:
        """V^dag psi: a vector's amplitudes on the joint eigenvectors."""
        if self.eigenvectors is None:
            return amplitudes
        return self.eigenvectors.conj().T @ amplitudes

    def project_coefficients(self, a: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt components <B_j, a> of ``a`` against the basis; a
        commutative algebra also takes diag(V^dag a V), all it reads of ``a``."""
        a = np.asarray(a, dtype=complex)
        d = self.layout.dim
        if self.labels is not None and a.shape in ((d,), (d, d)):
            diagonal = a if a.ndim == 1 else self.eigenbasis_diagonal(a)
            return self.class_sums(diagonal) * self._inv_sqrt_ranks
        if a.shape != (d, d):
            raise ValueError(f"operator shape {a.shape} does not match algebra dim {d}")
        # Conjugate the vector, not the k x d^2 basis.
        return (self._basis_vec @ a.reshape(-1).conj()).conj()

    def __repr__(self) -> str:
        kind = "commutative" if self.commutative else "non-commutative"
        return f"OperatorAlgebra(dim={self.dimension}, {kind}, on {self.layout.labels})"


def generate_algebra(
    generators: list[np.ndarray] | tuple[np.ndarray, ...],
    layout: SpaceLayout,
    tol: float = ALGEBRA_TOL,
) -> OperatorAlgebra:
    """Close the generators into the smallest unital *-algebra span.

    A generator is a d x d matrix, or a length-d array that stands for the
    diagonal matrix it holds.  A list made only of such arrays goes to
    :func:`diagonal_algebra`, and a mixed list makes them dense.
    Commuting letters give the joint eigenbasis and its classes, others
    the Gram-Schmidt closure (see the module docstring).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = layout.dim
    gens = tuple(np.asarray(g, dtype=complex) for g in generators)
    for g in gens:
        if g.shape not in ((d,), (d, d)):
            raise ValueError(f"generator shape {g.shape} does not match layout dim {d}")
        if not np.all(np.isfinite(g)):
            raise ValueError("generator entries must be finite")
    if all(g.ndim == 1 for g in gens):
        return diagonal_algebra(np.array(gens).reshape(len(gens), d), layout, tol)
    gens = tuple(np.diag(g) if g.ndim == 1 else g for g in gens)
    if all(np.count_nonzero(g) == np.count_nonzero(np.diagonal(g)) for g in gens):
        return diagonal_algebra(np.array([np.diagonal(g) for g in gens]).reshape(len(gens), d), layout, tol)
    floor = d * np.finfo(float).eps
    if tol < floor:
        raise InvariantViolation(
            f"tol {tol:.3e} is below the round-off floor d * eps = {floor:.3e}: "
            "a letter commutator cannot be told from its round-off"
        )
    from .eigenbasis import _dense_algebra

    return _dense_algebra(gens, layout, tol)


def diagonal_algebra(
    diagonals: np.ndarray, layout: SpaceLayout, tol: float = ALGEBRA_TOL
) -> OperatorAlgebra:
    """The algebra generated by diag(row) for each row of an (n, d) array.

    The same algebra as :func:`generate_algebra` on the dense diagonal
    operators, built without any d x d array.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    values = np.asarray(diagonals, dtype=complex)
    if values.ndim != 2 or values.shape[1] != layout.dim:
        raise ValueError(f"diagonals shape {values.shape} does not match layout dim {layout.dim}")
    if not np.all(np.isfinite(values)):
        raise ValueError("generator entries must be finite")
    from .classifier import _classified_algebra

    return _classified_algebra(values, np.zeros(len(values)), layout, tol, None, None)


@dataclass(frozen=True, eq=False)
class SpectralResolution:
    """Minimal joint eigenprojectors of a commutative algebra.

    ``generator_values[k, g]`` is the (real) eigenvalue of generator ``g``
    on projector ``k``.  The j-th basis element takes the scalar
    delta_jk / sqrt(ranks[k]) there, so no table of those is kept.
    Projectors are ordered by their generator value vectors
    (lexicographic ascending), which is deterministic.

    Projector k sits on the joint eigenvectors (columns of
    ``eigenvectors``, ``None`` for the identity) whose ``labels`` entry is
    k; the dense ``projectors`` are built on first use.
    """

    generator_values: np.ndarray
    ranks: tuple[int, ...]
    labels: np.ndarray
    eigenvectors: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(
            _from_eigenbasis(self.eigenvectors, (self.labels == k).astype(complex))
            for k in range(len(self.ranks))
        )


def joint_spectral_resolution(alg: OperatorAlgebra) -> SpectralResolution:
    """Joint spectral projectors of a commutative algebra, one per class.

    Read off the algebra's eigenvectors and class labels, with no draw;
    the result is cached on the algebra.  Non-real joint values raise
    ValueError: the value table covers Hermitian generators.
    """
    if not alg.commutative:
        raise ValueError("joint spectral resolution requires a commutative algebra")
    values = alg._class_values
    offending = np.argwhere(np.abs(values.imag) > CHARACTER_ATOL)
    if offending.size:
        k, g_idx = offending[0]
        raise ValueError(
            f"generator {g_idx} has non-real joint eigenvalue {complex(values[k, g_idx])!r}; "
            "the spectral value table covers Hermitian generators"
        )
    if alg._resolution is None:
        alg._resolution = SpectralResolution(
            generator_values=values.real,
            ranks=tuple(alg.ranks.tolist()),
            labels=alg.labels,
            eigenvectors=alg.eigenvectors,
        )
    return alg._resolution
