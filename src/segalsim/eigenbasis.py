"""The eigenbasis path of :func:`segalsim.algebra.generate_algebra`.

Dense generators that are not all exactly diagonal come here: their
letters (the generators plus every adjoint that is not exactly a
generator) are checked for commutativity, and commuting letters are
resolved on the eigenvectors of one Philox-keyed combination of them
(the module docstring of :mod:`segalsim.algebra` has the rule).  No
event run takes this path: :func:`generate_algebra` imports the module
only for such input, as it imports :mod:`segalsim.closure` only for
letters that do not commute.
"""

from __future__ import annotations

import numpy as np

from ._philox import event_uniforms
from .algebra import OperatorAlgebra
from .classifier import _classified_algebra
from .linalg import SpaceLayout

# Philox key of the generator combination whose eigenvectors are the joint
# eigenbasis: every algebra is deterministic.
_EIGENBASIS_SEED = 0x5E6A1


def _dense_algebra(gens: tuple[np.ndarray, ...], layout: SpaceLayout, tol: float) -> OperatorAlgebra:
    """The algebra of d x d generators that are not all exactly diagonal:
    the joint eigenbasis of commuting letters, else the Gram-Schmidt
    closure.  ``tol`` is at least the round-off floor d * eps."""
    d = layout.dim
    # Letters made afresh for the closure: none stays bound beside the eigenbasis.
    if not _letters_commute(_letters(gens), tol):
        from .closure import _gram_schmidt_closure

        return _gram_schmidt_closure(gens, _letters(gens), layout, tol)
    return _commutative_algebra(gens, layout, tol, _joint_eigenvectors(gens, d))


def _letters(gens: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """The generators, then every adjoint that is not exactly a generator."""
    letters = list(gens)
    for g in gens:
        adjoint = g.conj().T
        if not any(np.array_equal(adjoint, h) for h in gens):
            letters.append(adjoint)
    return letters


def _letters_commute(letters: list[np.ndarray], tol: float) -> bool:
    """True iff every pair a, b of letters has |[a, b]| <= tol |a| |b| (HS norms)."""
    norms = [float(np.linalg.norm(a)) for a in letters]
    product = np.empty_like(letters[0])  # a @ b, then [a, b], for each pair in turn
    for i, a in enumerate(letters):
        for j in range(i + 1, len(letters)):
            b = letters[j]
            np.matmul(a, b, out=product)
            product -= b @ a
            if not np.linalg.norm(product) <= tol * norms[i] * norms[j]:
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
    adjoint, part = np.empty_like(h), np.empty_like(h)
    for g, pair in zip(gens, coefficients):
        c_re, c_im = pair / (np.linalg.norm(g) or 1.0)
        # h += c_re (g + g^dag) / 2 + c_im (g - g^dag) / 2i, in that order, in
        # place on two buffers laid out like h (mixed layouts would copy).
        adjoint[...] = g.T
        np.conjugate(adjoint, out=adjoint)
        np.add(g, adjoint, out=part)
        np.multiply(c_re, part, out=part)
        part /= 2.0
        np.subtract(g, adjoint, out=adjoint)
        np.multiply(c_im, adjoint, out=adjoint)
        adjoint /= 2.0j
        part += adjoint
        h += part
    del adjoint, part  # freed before eigh's copy and eigenvectors
    return np.linalg.eigh(h)[1]


def _commutative_algebra(
    gens: tuple[np.ndarray, ...], layout: SpaceLayout, tol: float, v: np.ndarray
) -> OperatorAlgebra:
    """The algebra of commuting generators on the joint eigenvectors V."""
    n, d = len(gens), layout.dim
    vh = v.conj().T
    values = np.empty((n, d), dtype=complex)
    off_diagonal = []
    w = np.empty((d, d), dtype=complex)
    for g, row in zip(gens, values):  # one rotated generator V^dag g V at a time
        np.matmul(vh @ g, v, out=w)
        row[:] = np.diagonal(w)
        w.reshape(-1)[:: d + 1] -= row  # w - diag(row), in place
        off_diagonal.append(float(np.linalg.norm(w)))
    del vh, w  # the classification reads the values only
    return _classified_algebra(values, off_diagonal, layout, tol, gens, v)
