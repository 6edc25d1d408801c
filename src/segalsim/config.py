"""Global numerical tolerances, error types and the one invariant check.

Every validation threshold used across the package lives here so that the
contracts are auditable in one place.  Values are absolute unless noted.
Every numeric-tolerance invariant is one call of :func:`check`, which
fails closed: a NaN never passes.
"""

# Hermiticity: max |M - M^dag| entrywise for matrices required to be Hermitian.
HERMITIAN_ATOL = 1e-12

# Unit trace / normalization checks (state vectors, density matrices, Gemenge
# probabilities, algebraic-state normalization).
TRACE_ATOL = 1e-10

# Eigenvalue floor for positive-semidefinite checks on density matrices.
PSD_ATOL = 1e-10

# Reconstruction error allowed for eigendecompositions and propagators
# (V diag(w) V^dag and U U^dag = I checks).
RECONSTRUCTION_ATOL = 1e-9

# Pairwise orthonormality of eigenvector columns and algebra bases.
ORTHONORMALITY_ATOL = 1e-10

# Eigenvalues closer than this are treated as one degenerate cluster.
DEGENERACY_GAP = 1e-8

# Algebra tolerance, relative.  Letters commute when |[a, b]| <= tol |a| |b|;
# a generator's joint values within tol x its largest magnitude merge into
# one class (a wider chain is ambiguous and raises); and it is the rank and
# membership cutoff of the Gram-Schmidt closure of non-commutative input.
ALGEBRA_TOL = 1e-9

# Character multiplicativity and projector-consistency checks.
CHARACTER_ATOL = 1e-8

# Default entrywise tolerance when comparing algebraic states (observer
# indistinguishability verdicts).
STATE_EQUALITY_ATOL = 1e-8

# Probabilities below this are treated as structurally zero.
PROBABILITY_FLOOR = 1e-12

# Most events a run may ask for, checked at parse.  An event holds one byte
# per EventBatch column up to 256 pointers and rows; uniforms, counts and log
# rows are made a block of events at a time.  A csv document returned as text
# (no ``out``) holds each row twice, as bytes and as text, about 60 bytes at a
# 30-byte row: 0.02 GB, or about 0.6 GB, at the cap.
MAX_EVENTS = 10**7

# Cap on d = s_dim * o_dim * e_dim, as the bytes of one dense d x d complex
# array (16 d^2), checked when the model is made, before any allocation.
# Per-model setup and every scenario run but algebra-probe hold no such
# array: their states stay amplitude vectors, and wigner-friend reads both
# Breuer verdicts from the premeasured amplitudes.  The algebra-probe
# generators are dense; the cap bounds one of them, and
# MAX_WORKING_SET_BYTES bounds the list and every closure buffer.  2**30
# bytes allows d up to 8192 (o_dim up to 4096 at s_dim 2); one such array
# at d = 2184 (s_dim 12, o_dim 13, e_dim 14) is 76 MB.
MAX_DENSE_BYTES = 2**30

# Cap on the bytes an algebra-probe's generator list is estimated to hold,
# checked at parse, before a named generator is built
# (``generators.generator_bytes``: a list of diagonal generators alone
# counts 16 d bytes each and 256 d bytes of class labelling per generator
# and once more; any other list 16 d^2 (3 n + 4) bytes for n, with
# adjoints, letter check or eigenbasis); ["QO_MS", "B"] at s_dim 2 passes
# up to o_dim 2590, and ["QO_MS"] * 8 passes at every d under the cap.
# The Gram-Schmidt closure checks its rows held plus requested, 16 d^2
# bytes each, before making its buffer.
# A commutative algebra holds O(d): class labels, sizes and 1/sqrt(size).
MAX_WORKING_SET_BYTES = 2**32


class InvariantViolation(ValueError):
    """A numerical invariant failed (non-Hermitian state, trace drift,
    negative probability, closure breakdown).

    Subclasses ``ValueError`` so generic input validation handlers catch it,
    but remains distinguishable: the CLI maps it to a dedicated exit code.
    """


def check(name: str, value: float, tol: float) -> None:
    """Raise InvariantViolation unless ``value <= tol``; a NaN ``value``
    or ``tol`` fails.  ``name`` says what failed and which quantity
    ``value`` is."""
    if not value <= tol:
        raise InvariantViolation(f"{name}: {value:.3e} > {tol:.1e}")
