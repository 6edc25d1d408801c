"""The Gram-Schmidt closure of a non-commutative algebra.

:func:`segalsim.algebra.generate_algebra` imports this module only when
its letters do not commute: algebra-probe lists such as ["QO_MS", "B"],
whose closure is the interference algebra that wigner-friend reads in
closed form, and Pauli-type probes.  The unital algebra generated by S
and S^dag is the span of all words in the letters, so it is the smallest
subspace that contains I and is closed under left multiplication by each
letter.  The span is seeded with {I} + letters, orthonormalized with
two-pass Gram-Schmidt under the Hilbert-Schmidt inner product, and every
basis element, in the order found, is multiplied once by each letter; a
product adds a direction when its residual exceeds ``tol`` times its
norm.  The dimension is bounded by dim(H)^2; exceeding that bound
signals numerical breakdown, not mathematics.  The basis is one
(k, d, d) array.  Cost: L k products of d x d matrices.
"""

from __future__ import annotations

import numpy as np

from .config import MAX_WORKING_SET_BYTES, InvariantViolation
from .algebra import OperatorAlgebra
from .linalg import SpaceLayout


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

    The row buffer doubles in place, by realloc.  Rows held plus rows
    requested, 16 d^2 bytes each (a realloc that cannot grow in place
    holds both), over MAX_WORKING_SET_BYTES raise ValueError before the
    row buffer is made or grown.  ["QO_MS", "B"] at s_dim 2 has two
    Hermitian letters (a first request of 6 rows) and dimension
    o_dim + 4, so it grows from at most o_dim + 3 rows to twice that.

    The resizes skip numpy's reference count check, which a tracer's
    extra reference to the frame's locals (``sys.settrace``, a profiler,
    a debugger) fails.  No view of the buffer is alive at either resize:
    the views the loop makes (``rows[:k]`` for a residual, ``rows[done]``
    for a product) are temporaries released before the next ``adjoin``,
    ``_orthonormal_append`` returns a new array, and the basis stack is
    a view made after the last resize.
    """
    d = layout.dim
    max_dim = d * d

    def buffer(held: int, requested: int) -> tuple[int, int]:
        """The shape of a buffer of ``requested`` rows with ``held`` rows
        filled, once their bytes are within the limit."""
        need = 16 * d * d * (held + requested)
        if need > MAX_WORKING_SET_BYTES:
            raise ValueError(
                f"algebra closure on d = {d} would hold {need} bytes of basis rows, "
                f"over the {MAX_WORKING_SET_BYTES}-byte limit"
            )
        return requested, d * d

    rows = np.empty(buffer(0, min(2 * (len(letters) + 1), max_dim)), dtype=complex)
    k = 0

    def adjoin(op: np.ndarray) -> None:
        nonlocal k
        r = _orthonormal_append(rows[:k], op, tol)
        if r is None:
            return
        if k == max_dim:
            raise InvariantViolation(
                f"algebra closure did not stabilize within the dim^2 = {max_dim} bound; "
                "numerical breakdown (tol too small for this data?)"
            )
        if k == len(rows):
            # Grown in place (a realloc, which zero-fills the new rows), so
            # the old rows are never copied into a second buffer.
            rows.resize(buffer(k, min(2 * k, max_dim)), refcheck=False)
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
    rows.resize((k, d * d), refcheck=False)
    return OperatorAlgebra(layout, gens, tol, stack=rows.reshape(k, d, d))
