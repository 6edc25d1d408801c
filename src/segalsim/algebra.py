"""Finite-dimensional *-algebras of operators on a labeled space.

An :class:`OperatorAlgebra` is the smallest unital, adjoint- and
product-closed linear span containing its generators, represented by an
orthonormal Hilbert-Schmidt basis.  Commutative algebras additionally
carry a joint spectral structure: a minimal family of joint
eigenprojectors on which every algebra element acts as a scalar, which is
what makes such an algebra isomorphic to an algebra of classical
observables (one function value per projector).

Closure algorithm.  There are two paths, and the input's structure picks
one; there is no switch.

- Diagonal path: every generator is exactly diagonal with finite
  entries, and each one's distinct diagonal values (real and imaginary
  parts taken apart) lie more than ``_SEPARATION * tol`` times its
  largest magnitude from each other.  The algebra is then known in
  closed form: the basis indices fall into classes of equal joint value
  tuple, and the algebra is the span of the 0/1 class masks P_k.  The
  basis is P_k / sqrt(rank_k), in character order, stored as its
  diagonals; the joint spectral resolution is read off the same
  partition with no random draw, and every invariant the generic path
  checks is checked on the diagonals.  Cost O(n d log d + k d) for n
  generators, k classes and dimension d, plus one pass over the dense
  generators to see that they are diagonal.
- Generic path, for all other input (and diagonal values close enough
  that Gram-Schmidt at ``tol`` could merge them): seed the span with
  {I} + generators + adjoints, orthonormalize with Gram-Schmidt under the
  Hilbert-Schmidt inner product, then repeatedly adjoin all pairwise
  products until the dimension stabilizes.  The dimension is bounded by
  dim(H)^2; exceeding that bound signals numerical breakdown, not
  mathematics.  Cost O(k^2 d^3).  It is the oracle the diagonal path is
  tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import (
    ALGEBRA_TOL,
    CHARACTER_ATOL,
    InvariantViolation,
    RECONSTRUCTION_ATOL,
    VALUE_MERGE_ATOL,
)
from .linalg import SpaceLayout, degenerate_clusters

__all__ = [
    "OperatorAlgebra",
    "SpectralResolution",
    "contains",
    "generate_algebra",
    "is_commutative",
    "joint_spectral_resolution",
]

# Diagonal generators take the diagonal path only when each one's
# distinct values are more than this many closure tolerances apart,
# relative to its largest magnitude.
_SEPARATION = 1e4


class OperatorAlgebra:
    """Unital *-closed operator span with an orthonormal basis.

    Instances are immutable by convention; the joint spectral resolution is
    computed lazily and cached.  Construct through :func:`generate_algebra`.

    An algebra of diagonal operators carries ``labels``: ``labels[i]`` is
    the class of basis index i, and basis element j is P_j / sqrt(rank_j)
    for the 0/1 mask P_j of class j.  Only those diagonals are stored
    (``basis_diagonals``, one row per element); the dense ``basis`` is
    built on first use.  Otherwise both are ``None``.
    """

    def __init__(
        self,
        layout: SpaceLayout,
        generators: tuple[np.ndarray, ...],
        basis: tuple[np.ndarray, ...] | None,
        commutative: bool,
        tol: float,
        labels: np.ndarray | None = None,
    ) -> None:
        self.layout = layout
        self.generators = generators
        self.commutative = commutative
        self.tol = tol
        self.labels = labels
        self._basis = basis
        if labels is None:
            self.basis_diagonals = None
            # Orthonormal rows of vectorized basis elements, for fast projections.
            self._basis_vec = np.array([b.reshape(-1) for b in basis])
        else:
            masks = labels == np.arange(labels.max() + 1)[:, None]
            self.basis_diagonals = masks / np.sqrt(masks.sum(axis=1))[:, None]
        self._resolution: SpectralResolution | None = None
        self._characters = None

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        if self._basis is None:
            self._basis = tuple(np.diag(row.astype(complex)) for row in self.basis_diagonals)
        return self._basis

    @property
    def dimension(self) -> int:
        return len(self._basis) if self.labels is None else len(self.basis_diagonals)

    def project_coefficients(self, a: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt components <B_j, a> of ``a`` against the basis."""
        a = np.asarray(a, dtype=complex)
        d = self.layout.dim
        if a.shape != (d, d):
            raise ValueError(f"operator shape {a.shape} does not match algebra dim {d}")
        if self.labels is not None:
            # Real diagonal basis: only the diagonal of ``a`` has a component.
            return self.basis_diagonals @ np.diagonal(a)
        return self._basis_vec.conj() @ a.reshape(-1)

    def project(self, a: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``a`` onto the algebra span."""
        coeffs = self.project_coefficients(a)
        if self.labels is not None:
            return np.diag(self.basis_diagonals.T @ coeffs)
        return (self._basis_vec.T @ coeffs).reshape(a.shape)

    def membership_residual(self, a: np.ndarray) -> float:
        """Relative distance of ``a`` from the span (0 for members)."""
        a = np.asarray(a, dtype=complex)
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            return 0.0
        residual = float(np.linalg.norm(a - self.project(a)))
        return residual / norm

    def __repr__(self) -> str:
        kind = "commutative" if self.commutative else "non-commutative"
        return f"OperatorAlgebra(dim={self.dimension}, {kind}, on {self.layout.labels})"


def _orthonormal_append(rows: np.ndarray, op: np.ndarray, tol: float) -> np.ndarray | None:
    """Residual of ``op`` against the orthonormal rows, or None if in span."""
    v = op.reshape(-1)
    norm_in = float(np.linalg.norm(v))
    if norm_in == 0.0:
        return None
    r = v.astype(complex)
    for _ in range(2):  # second pass controls Gram-Schmidt cancellation error
        if rows.shape[0]:
            r = r - rows.T @ (rows.conj() @ r)
    norm_r = float(np.linalg.norm(r))
    if norm_r <= tol * norm_in:
        return None
    return r / norm_r


def generate_algebra(
    generators: list[np.ndarray] | tuple[np.ndarray, ...],
    layout: SpaceLayout,
    tol: float = ALGEBRA_TOL,
) -> OperatorAlgebra:
    """Close the generators into the smallest unital *-algebra span.

    Well-separated diagonal generators take the diagonal path, everything
    else the Gram-Schmidt closure (see the module docstring).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = layout.dim
    gens = tuple(np.asarray(g, dtype=complex) for g in generators)
    for g in gens:
        if g.shape != (d, d):
            raise ValueError(f"generator shape {g.shape} does not match layout dim {d}")
    labels = _diagonal_partition(gens, d, tol)
    if labels is None:
        return _gram_schmidt_closure(gens, layout, tol)
    return OperatorAlgebra(layout, gens, None, True, tol, labels=labels)


def _diagonal_partition(gens: tuple[np.ndarray, ...], d: int, tol: float) -> np.ndarray | None:
    """Class of each basis index under equal joint diagonal values, or None.

    None unless every generator is exactly diagonal, finite and has its
    distinct values separated as the module docstring says.  Classes are
    numbered in character order: lexicographic in the real parts of the
    joint values rounded to 9 decimals, the order the generic resolution
    sorts by.
    """
    diagonals = np.array([np.diagonal(g) for g in gens]).reshape(len(gens), d)
    for g, diagonal in zip(gens, diagonals):
        if np.count_nonzero(g) != np.count_nonzero(diagonal):
            return None
        if not np.all(np.isfinite(diagonal)):
            return None
        floor = _SEPARATION * tol * np.max(np.abs(diagonal))
        for part in (diagonal.real, diagonal.imag):
            gaps = np.diff(np.sort(part))
            gaps = gaps[gaps > 0]  # between distinct values only
            if gaps.size and not np.min(gaps) > floor:
                return None
    keys = np.concatenate([diagonals.real, diagonals.imag]).T
    values, labels = np.unique(keys, axis=0, return_inverse=True)
    real = values[:, : len(gens)]
    order = sorted(range(len(values)), key=lambda k: tuple(np.round(real[k], 9)))
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    return position[labels.reshape(-1)]


def _gram_schmidt_closure(
    gens: tuple[np.ndarray, ...], layout: SpaceLayout, tol: float
) -> OperatorAlgebra:
    """The generic path: Gram-Schmidt closure of validated generators."""
    d = layout.dim
    max_dim = d * d

    rows = np.zeros((0, d * d), dtype=complex)
    seed = [np.eye(d, dtype=complex), *gens, *[g.conj().T for g in gens]]
    for op in seed:
        r = _orthonormal_append(rows, op, tol)
        if r is not None:
            rows = np.vstack([rows, r])

    passes = 0
    while True:
        ops = [rows[i].reshape(d, d) for i in range(rows.shape[0])]
        grew = False
        for a in ops:
            for b in ops:
                r = _orthonormal_append(rows, a @ b, tol)
                if r is not None:
                    rows = np.vstack([rows, r])
                    grew = True
        if not grew:
            break
        passes += 1
        if rows.shape[0] > max_dim or passes > max_dim:
            raise InvariantViolation(
                f"algebra closure did not stabilize within the dim^2 = {max_dim} bound; "
                "numerical breakdown (tol too small for this data?)"
            )

    basis = tuple(rows[i].reshape(d, d).copy() for i in range(rows.shape[0]))
    commutative = _max_commutator(basis) <= tol
    return OperatorAlgebra(layout, gens, basis, commutative, tol)


def _max_commutator(basis: tuple[np.ndarray, ...]) -> float:
    # Basis elements have unit HS norm, so this is already relative scale.
    worst = 0.0
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            worst = max(worst, float(np.linalg.norm(a @ b - b @ a)))
    return worst


def is_commutative(alg: OperatorAlgebra) -> bool:
    """True iff all basis pairs commute within the algebra tolerance."""
    return alg.commutative


def contains(alg: OperatorAlgebra, a: np.ndarray) -> bool:
    """Membership test: relative span residual at most the algebra tolerance."""
    return alg.membership_residual(a) <= alg.tol


@dataclass(frozen=True, eq=False)
class SpectralResolution:
    """Minimal joint eigenprojectors of a commutative algebra.

    ``generator_values[k, g]`` is the (real) eigenvalue of generator ``g``
    on projector ``k``; ``basis_values[k, j]`` the scalar the j-th basis
    element takes there.  Projectors are ordered by their generator value
    vectors (lexicographic ascending), which is deterministic.

    For a diagonal algebra ``labels[i]`` is the projector that basis index
    i belongs to, and the dense ``projectors`` are built from it on first
    use; otherwise they are given as ``dense_projectors``.
    """

    generator_values: np.ndarray
    basis_values: np.ndarray
    ranks: tuple[int, ...]
    labels: np.ndarray | None = None
    dense_projectors: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:
        if self.labels is None:
            return self.dense_projectors
        return tuple(np.diag((self.labels == k).astype(complex)) for k in range(len(self.ranks)))

    def element_values(self, op: np.ndarray) -> np.ndarray:
        """Scalar each projector assigns to an algebra element."""
        return np.array(
            [np.trace(p @ op) / rank for p, rank in zip(self.projectors, self.ranks)]
        )


def joint_spectral_resolution(
    alg: OperatorAlgebra,
    max_trials: int = 12,
    rng: np.random.Generator | None = None,
) -> SpectralResolution:
    """Joint diagonalization of a commutative algebra.

    Diagonalizes a generic Hermitian combination of the basis, merges
    eigenspaces whose per-element value vectors agree within
    ``VALUE_MERGE_ATOL``, and retries with fresh coefficients when an
    accidental eigenvalue collision leaves the projector count different
    from the algebra dimension.  The projector family does not depend on
    the draw (up to its deterministic ordering); the default-draw result
    is cached on the algebra.  A diagonal algebra is resolved from its
    partition instead, with no draw, and ``rng`` is not used.
    """
    if not alg.commutative:
        raise ValueError("joint spectral resolution requires a commutative algebra")
    if alg.labels is not None:
        if alg._resolution is None:
            alg._resolution = _diagonal_resolution(alg)
        return alg._resolution
    cacheable = rng is None
    if cacheable and alg._resolution is not None:
        return alg._resolution

    d = alg.layout.dim
    if rng is None:
        rng = np.random.default_rng(0x5E6A1)  # fixed seed: deterministic resolutions
    last_error = ""
    for _ in range(max_trials):
        h = np.zeros((d, d), dtype=complex)
        for m in alg.basis:
            c_re, c_im = rng.standard_normal(2)
            h += c_re * (m + m.conj().T) / 2.0 + c_im * (m - m.conj().T) / 2.0j
        norm = float(np.linalg.norm(h))
        if norm < 1e-12:
            continue
        h /= norm
        values, vectors = np.linalg.eigh(h)
        fine = degenerate_clusters(values, gap=1e-10)
        projs = [vectors[:, idx] @ vectors[:, idx].conj().T for idx in fine]

        merged = _merge_by_basis_values(alg, projs)
        if merged is None:
            last_error = "projector family inconsistent with the algebra"
            continue
        projs, basis_vals = merged
        if len(projs) != alg.dimension:
            last_error = (
                f"found {len(projs)} joint eigenspaces for an algebra of dimension {alg.dimension}"
            )
            continue

        resolution = _assemble_resolution(alg, projs, basis_vals)
        if resolution is not None:
            if cacheable:
                alg._resolution = resolution
            return resolution
        last_error = "projector consistency check failed"

    raise InvariantViolation(f"joint diagonalization failed after {max_trials} trials: {last_error}")


def _merge_by_basis_values(alg, projs):
    """Merge projectors whose basis value vectors coincide; None on failure."""
    vals = []
    for p in projs:
        rank = float(np.trace(p).real)
        vals.append(np.array([np.trace(p @ m) / rank for m in alg.basis]))
    groups: list[list[int]] = []
    for i in range(len(projs)):
        for group in groups:
            if np.max(np.abs(vals[i] - vals[group[0]])) <= VALUE_MERGE_ATOL:
                group.append(i)
                break
        else:
            groups.append([i])
    out_projs = []
    out_vals = []
    for group in groups:
        p = np.sum([projs[i] for i in group], axis=0)
        rank = float(np.trace(p).real)
        out_projs.append(p)
        out_vals.append(np.array([np.trace(p @ m) / rank for m in alg.basis]))
    return out_projs, out_vals


def _real_generator_values(values: np.ndarray) -> np.ndarray:
    """Real part of the (projector, generator) value table; non-real values raise."""
    offending = np.argwhere(np.abs(values.imag) > CHARACTER_ATOL)
    if offending.size:
        k, g_idx = offending[0]
        raise ValueError(
            f"generator {g_idx} has non-real joint eigenvalue {complex(values[k, g_idx])!r}; "
            "the spectral value table covers Hermitian generators"
        )
    return values.real


def _assemble_resolution(alg, projs, basis_vals):
    d = alg.layout.dim
    total = np.sum(projs, axis=0)
    if np.max(np.abs(total - np.eye(d))) > RECONSTRUCTION_ATOL:
        return None
    for k, p in enumerate(projs):
        if np.max(np.abs(p @ p - p)) > RECONSTRUCTION_ATOL:
            return None
        for m, lam in zip(alg.basis, basis_vals[k]):
            if np.max(np.abs(p @ m @ p - lam * p)) > CHARACTER_ATOL:
                return None

    gen_vals = np.zeros((len(projs), len(alg.generators)), dtype=complex)
    for k, p in enumerate(projs):
        rank = float(np.trace(p).real)
        for g_idx, g in enumerate(alg.generators):
            gen_vals[k, g_idx] = np.trace(p @ g) / rank
    gen_vals = _real_generator_values(gen_vals)

    order = sorted(
        range(len(projs)),
        key=lambda k: tuple(np.round(gen_vals[k], 9)),
    )
    projectors = tuple(projs[k] for k in order)
    ranks = tuple(int(round(np.trace(p).real)) for p in projectors)
    return SpectralResolution(
        generator_values=gen_vals[order],
        basis_values=np.array([basis_vals[k] for k in order]),
        ranks=ranks,
        dense_projectors=projectors,
    )


def _diagonal_resolution(alg: OperatorAlgebra) -> SpectralResolution:
    """Resolution of a diagonal algebra, read off its partition.

    Projector k is the mask of class k, already in character order.  The
    checks of :func:`_assemble_resolution` run on the diagonals: every
    operator involved is diagonal, so each product is entrywise and the
    off-diagonal entries, all zero, are left out.
    """
    labels, diagonals = alg.labels, alg.basis_diagonals
    masks = (labels == np.arange(alg.dimension)[:, None]).astype(float)
    ranks = masks.sum(axis=1)
    if np.max(np.abs(masks.sum(axis=0) - 1.0)) > RECONSTRUCTION_ATOL:
        raise InvariantViolation("diagonal projectors do not resolve the identity")
    if np.max(np.abs(masks * masks - masks)) > RECONSTRUCTION_ATOL:
        raise InvariantViolation("diagonal projector is not idempotent")
    basis_vals = masks @ diagonals.T / ranks[:, None]
    # P_k B_j P_k = lam P_k: on class k, the diagonal of B_j equals lam.
    if np.max(np.abs(diagonals - basis_vals[labels].T)) > CHARACTER_ATOL:
        raise InvariantViolation("basis element is not a scalar on its diagonal projector")
    gen_diagonals = np.array([np.diagonal(g) for g in alg.generators]).reshape(
        len(alg.generators), alg.layout.dim
    )
    return SpectralResolution(
        generator_values=_real_generator_values(masks @ gen_diagonals.T / ranks[:, None]),
        basis_values=basis_vals,
        ranks=tuple(int(r) for r in ranks),
        labels=labels,
    )
