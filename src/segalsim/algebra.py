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
labels the algebra keeps only the ranks and 1/sqrt(rank), O(d) in all;
every read of the classes is one class sum, a bincount over ``labels``.

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
  its joint values apart, the sorted values split wherever a gap exceeds
  ``tol`` times the generator's largest magnitude: ``tol`` is the width
  within which joint values merge.  A class is a tuple of cluster ids;
  classes are numbered in character order, lexicographic in the real
  joint values rounded to 9 decimals.
- Ambiguity.  Input the rule cannot decide raises InvariantViolation; it
  is never merged silently.  That is a cluster wider than ``tol`` times
  the scale (a chain of small gaps); a generator whose V^dag g V differs
  from the diagonal of its class values by more than ``CHARACTER_ATOL``
  times the scale (Frobenius norm), as after an unlucky draw; and a split
  no larger than that difference, the accuracy the joint values were
  measured to.

Cost: the letter check, one ``eigh`` and two d x d products per
generator; O(n d log d) for n exactly diagonal generators, plus one pass
over the dense generators to see that they are diagonal when they do not
come as diagonals.

Non-commutative algebras (the wigner-friend interference algebra,
Pauli-type probes) are closed by Gram-Schmidt.  The unital algebra
generated by S and S^dag is the span of all words in the letters, so it
is the smallest subspace that contains I and is closed under left
multiplication by each letter.  The span is seeded with {I} + letters,
orthonormalized with two-pass Gram-Schmidt under the Hilbert-Schmidt
inner product, and every basis element, in the order found, is
multiplied once by each letter; a product adds a direction when its
residual exceeds ``tol`` times its norm.  The dimension is bounded by
dim(H)^2; exceeding that bound signals numerical breakdown, not
mathematics.  The basis is one (k, d, d) array.  Cost: L k products of
d x d matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._philox import event_uniforms
from .config import ALGEBRA_TOL, CHARACTER_ATOL, MAX_WORKING_SET_BYTES, InvariantViolation
from .linalg import SpaceLayout

__all__ = [
    "OperatorAlgebra",
    "SpectralResolution",
    "diagonal_algebra",
    "generate_algebra",
    "joint_spectral_resolution",
]

# Philox key of the generator combination whose eigenvectors are the joint
# eigenbasis: every algebra is deterministic.
_EIGENBASIS_SEED = 0x5E6A1


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
            self._inv_sqrt_ranks = 1.0 / np.sqrt(self.ranks)
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

    @cached_property
    def positivity_table(self) -> np.ndarray:
        """Coefficients of I and of every B_j^dag B_j, one row each.

        A state with basis values v has <I> = table[0] @ v and
        <B_j^dag B_j> = table[j + 1] @ v, so the table is built once per
        algebra and each state's checks are one small product.
        """
        if self.labels is not None:
            # <B_j, I> = sqrt(rank_j), and B_j^dag B_j = B_j / sqrt(rank_j).
            return np.vstack([np.sqrt(self.ranks), np.diag(self._inv_sqrt_ranks)])
        rows = [self.project_coefficients(np.eye(self.layout.dim))]
        rows += [self.project_coefficients(m.conj().T @ m) for m in self.basis]
        return np.array(rows)

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

    Commuting letters give the joint eigenbasis and its classes, others
    the Gram-Schmidt closure (see the module docstring).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = layout.dim
    gens = tuple(np.asarray(g, dtype=complex) for g in generators)
    for g in gens:
        if g.shape != (d, d):
            raise ValueError(f"generator shape {g.shape} does not match layout dim {d}")
        if not np.all(np.isfinite(g)):
            raise ValueError("generator entries must be finite")
    if all(np.count_nonzero(g) == np.count_nonzero(np.diagonal(g)) for g in gens):
        return _commutative_algebra(gens, layout, tol, None)
    floor = d * np.finfo(float).eps
    if tol < floor:
        raise InvariantViolation(
            f"tol {tol:.3e} is below the round-off floor d * eps = {floor:.3e}: "
            "a letter commutator cannot be told from its round-off"
        )
    letters = list(gens)
    for g in gens:
        adjoint = g.conj().T
        if not any(np.array_equal(adjoint, h) for h in gens):
            letters.append(adjoint)
    if not _letters_commute(letters, tol):
        return _gram_schmidt_closure(gens, letters, layout, tol)
    return _commutative_algebra(gens, layout, tol, _joint_eigenvectors(gens, d))


def diagonal_algebra(
    diagonals: np.ndarray, layout: SpaceLayout, tol: float = ALGEBRA_TOL
) -> OperatorAlgebra:
    """The algebra generated by diag(row) for each row of an (n, d) array.

    The same algebra as :func:`generate_algebra` on the dense diagonal
    operators, built without any d x d array.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    values = np.asarray(diagonals, dtype=complex)
    if values.ndim != 2 or values.shape[1] != layout.dim:
        raise ValueError(f"diagonals shape {values.shape} does not match layout dim {layout.dim}")
    if not np.all(np.isfinite(values)):
        raise ValueError("generator entries must be finite")
    return _classified_algebra(values, np.zeros(len(values)), layout, tol, None, None)


def _letters_commute(letters: list[np.ndarray], tol: float) -> bool:
    """True iff every pair a, b of letters has |[a, b]| <= tol |a| |b| (HS norms)."""
    norms = [float(np.linalg.norm(a)) for a in letters]
    for i, a in enumerate(letters):
        for j in range(i + 1, len(letters)):
            b = letters[j]
            if not np.linalg.norm(a @ b - b @ a) <= tol * norms[i] * norms[j]:
                return False
    return True


def _joint_eigenvectors(gens: tuple[np.ndarray, ...], d: int) -> np.ndarray:
    """Eigenvectors of a Philox-keyed real combination of the generators'
    Hermitian and anti-Hermitian parts, each at unit norm.

    Generator i takes its two coefficients 2u - 1, in [-1, 1), from the
    first block of the stream keyed by (``_EIGENBASIS_SEED``, i).
    """
    coefficients = 2.0 * event_uniforms(_EIGENBASIS_SEED, len(gens), 2) - 1.0
    h = np.zeros((d, d), dtype=complex)
    for g, pair in zip(gens, coefficients):
        c_re, c_im = pair / (np.linalg.norm(g) or 1.0)
        h += c_re * (g + g.conj().T) / 2.0 + c_im * (g - g.conj().T) / 2.0j
    return np.linalg.eigh(h)[1]


def _commutative_algebra(
    gens: tuple[np.ndarray, ...], layout: SpaceLayout, tol: float, v: np.ndarray | None
) -> OperatorAlgebra:
    """The algebra of commuting generators on the joint eigenvectors V.

    ``v`` ``None`` is the identity, for exactly diagonal generators, which
    go to :func:`diagonal_algebra` as their diagonals.
    """
    n, d = len(gens), layout.dim
    if v is None:
        return diagonal_algebra(np.array([np.diagonal(g) for g in gens]).reshape(n, d), layout, tol)
    rotated = [v.conj().T @ g @ v for g in gens]
    values = np.array([np.diagonal(w) for w in rotated]).reshape(n, d)
    off_diagonal = [float(np.linalg.norm(w - np.diag(np.diagonal(w)))) for w in rotated]
    return _classified_algebra(values, off_diagonal, layout, tol, gens, v)


def _classified_algebra(
    values: np.ndarray,
    off_diagonal: np.ndarray | list[float],
    layout: SpaceLayout,
    tol: float,
    gens: tuple[np.ndarray, ...] | None,
    v: np.ndarray | None,
) -> OperatorAlgebra:
    """The commutative algebra whose generators have the joint values
    ``values`` (one row per generator) on the columns of V.

    ``off_diagonal`` holds each |V^dag g V - diag(values)|.  ``gens`` and
    ``v`` ``None`` are exactly diagonal generators, stored as ``values``,
    and the identity.  Runs the residual and accuracy checks of the module
    docstring.
    """
    labels, split_gaps = _joint_classes(values, tol)
    alg = OperatorAlgebra(
        layout,
        gens,
        tol,
        labels=labels,
        eigenvectors=v,
        joint_values=values,
        generator_diagonals=values if gens is None else None,
    )
    class_values = alg._class_values
    for g_idx, row in enumerate(values):
        scale = float(np.max(np.abs(row)))
        on_diagonal = np.linalg.norm(row - class_values[labels, g_idx])
        residual = float(np.hypot(off_diagonal[g_idx], on_diagonal))
        if residual > CHARACTER_ATOL * scale:
            raise InvariantViolation(
                f"generator {g_idx} is not diagonal on the joint eigenvectors: "
                f"|V^dag g V - diag(values)| = {residual:.3e}"
            )
        if split_gaps[g_idx] <= residual:
            raise InvariantViolation(
                f"generator {g_idx} has joint values split by {split_gaps[g_idx]:.3e}, within "
                f"their accuracy {residual:.3e}; ambiguous classes (tol too small for this data?)"
            )
    return alg


def _joint_classes(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Class of each column under the grouping rule, in character order.

    ``values`` holds one row of joint values per generator.  Also returns
    each generator's smallest gap at a split (inf where nothing splits).
    A cluster wider than its merge width raises InvariantViolation.
    """
    n, d = values.shape
    ids = np.empty((2 * n, d), dtype=np.intp)  # real parts first, then imaginary
    split_gaps = np.full(n, np.inf)
    for g_idx, row in enumerate(values):
        width = tol * np.max(np.abs(row))
        for part_idx, part in enumerate((row.real, row.imag)):
            order = np.argsort(part, kind="stable")
            ordered = part[order]
            gaps = np.diff(ordered)
            split = gaps > width
            starts = np.flatnonzero(np.r_[True, split])
            spread = float(np.max(ordered[np.r_[starts[1:], d] - 1] - ordered[starts]))
            if spread > width:
                raise InvariantViolation(
                    f"generator {g_idx} has a chain of joint values {spread:.3e} wide, more than "
                    f"tol x scale = {width:.3e}; ambiguous classes"
                )
            if split.any():
                split_gaps[g_idx] = min(split_gaps[g_idx], float(np.min(gaps[split])))
            ids[part_idx * n + g_idx, order] = np.cumsum(np.r_[0, split])
    _, first, labels = np.unique(ids.T, axis=0, return_index=True, return_inverse=True)
    real = values.real[:, first].T
    order = sorted(range(len(first)), key=lambda k: tuple(np.round(real[k], 9)))
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    return position[labels.reshape(-1)], split_gaps


def _orthonormal_append(rows: np.ndarray, op: np.ndarray, tol: float) -> np.ndarray | None:
    """Residual of ``op`` against the orthonormal rows, or None if in span."""
    v = op.reshape(-1)
    norm_in = float(np.linalg.norm(v))
    if norm_in == 0.0:
        return None
    r = v.astype(complex)
    for _ in range(2):  # second pass controls Gram-Schmidt cancellation error
        if rows.shape[0]:
            # rows^dag r, conjugating the vector instead of copying the rows
            r = r - rows.T @ (rows @ r.conj()).conj()
    norm_r = float(np.linalg.norm(r))
    if norm_r <= tol * norm_in:
        return None
    return r / norm_r


def _gram_schmidt_closure(
    gens: tuple[np.ndarray, ...], letters: list[np.ndarray], layout: SpaceLayout, tol: float
) -> OperatorAlgebra:
    """The non-commutative algebra generated by letters that do not commute.

    The span of I is grown by multiplying each basis element, in the
    order found, once by each letter on the left.

    Rows held plus rows requested, 16 d^2 bytes each, over
    MAX_WORKING_SET_BYTES raise ValueError before the row buffer is made or
    grown.  A wigner-friend model within ``measurement.wigner_friend_bytes``
    passes: its interference algebra has two Hermitian letters (a first
    request of 6 rows) and dimension o_dim + 4, so it grows from at most
    o_dim + 3 rows to twice that, under the estimate's 2 + 3 (o_dim + 4).
    """
    d = layout.dim
    max_dim = d * d

    def buffer(held: int, requested: int) -> np.ndarray:
        need = 16 * d * d * (held + requested)
        if need > MAX_WORKING_SET_BYTES:
            raise ValueError(
                f"algebra closure on d = {d} would hold {need} bytes of basis rows, "
                f"over the {MAX_WORKING_SET_BYTES}-byte limit"
            )
        return np.empty((requested, d * d), dtype=complex)

    rows = buffer(0, min(2 * (len(letters) + 1), max_dim))
    k = 0

    def adjoin(op: np.ndarray) -> None:
        nonlocal rows, k
        r = _orthonormal_append(rows[:k], op, tol)
        if r is None:
            return
        if k == max_dim:
            raise InvariantViolation(
                f"algebra closure did not stabilize within the dim^2 = {max_dim} bound; "
                "numerical breakdown (tol too small for this data?)"
            )
        if k == len(rows):
            grown = buffer(k, min(2 * k, max_dim))
            grown[:k] = rows
            rows = grown
        rows[k] = r
        k += 1

    for op in (np.eye(d, dtype=complex), *letters):
        adjoin(op)
    done = 0
    while done < k:
        for letter in letters:
            adjoin(letter @ rows[done].reshape(d, d))
        done += 1

    # Return the growth buffer's spare rows in place (a realloc, not a
    # copy, which would raise the peak): the basis holds exactly k rows.
    rows.resize((k, d * d))
    return OperatorAlgebra(layout, gens, tol, stack=rows.reshape(k, d, d))


@dataclass(frozen=True, eq=False)
class SpectralResolution:
    """Minimal joint eigenprojectors of a commutative algebra.

    ``generator_values[k, g]`` is the (real) eigenvalue of generator ``g``
    on projector ``k``; ``basis_values[k, j]`` the scalar the j-th basis
    element takes there.  Projectors are ordered by their generator value
    vectors (lexicographic ascending), which is deterministic.

    Projector k sits on the joint eigenvectors (columns of
    ``eigenvectors``, ``None`` for the identity) whose ``labels`` entry is
    k; the dense ``projectors`` are built on first use.
    """

    generator_values: np.ndarray
    basis_values: np.ndarray
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
        # Character k takes tr(P_k B_j) / rank_k = delta_jk / sqrt(rank_k).
        alg._resolution = SpectralResolution(
            generator_values=values.real,
            basis_values=np.diag(alg._inv_sqrt_ranks),
            ranks=tuple(alg.ranks.tolist()),
            labels=alg.labels,
            eigenvectors=alg.eigenvectors,
        )
    return alg._resolution
