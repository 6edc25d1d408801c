"""Independent brute-force oracles used to pin expected values.

Everything above the dense-route section is deliberately naive (explicit
index loops, SVD ranks) and shares no code with the package under test.
The dense-route section keeps the density-matrix forms of steps the
package now takes on amplitude vectors: the premeasurement unitary, the
coupled V rho V^dag, partial traces to density matrices, the ensemble
average and the dense-rho entry points of the pointer-basis extraction
and of the restricted pointer probabilities, the purity and the
wigner-friend Breuer verdicts (both d x d density matrices, restricted
to the pointer algebra and to the Gram-Schmidt closure of the pointer
operator and the interference observable).  The package's fast paths
are tested against them bit for bit, the interference verdict to 1e-11
relative.  The pointer-basis extraction also keeps its dense solver,
eigendecompositions of the o x o conditioned register states and O
marginal, which the package's thin SVDs of the branch factors replace:
flags and |v| are compared bit for bit, weights and residual at the
report's 12 digits.  The dense commutative
restriction keeps the character and positivity tables and the
least-squares decomposition that the O(k) class-index reads replace.
``joint_classes_numpy`` is the numpy classifier of joint values that
``classifier._joint_classes`` replaces with a plain-Python pass; the two are
compared label for label, gap for gap and message for message.
The algebra readers (projection, membership, projector values) work on a
package algebra's dense ``basis`` and ``projectors`` only, never on its
class labels.  The
per-event numpy.random section keeps the event sampler that
``run_ensemble`` replaces with its Philox block pass: one
``numpy.random.Generator`` per event and a ``searchsorted`` inverse CDF
per draw, on the generic route, the full S (x) O (x) E pipeline image
restricted to the pointer algebra on that layout, which it builds itself
from the pointer diagonal and reads pointer by pointer at its labels of
|s_0, O_j, E_0>.  ``run_ensemble``,
which reads the restricted S (x) O probabilities, is tested against it
record for record, the probability to a few ulps.  Its event keeps
the pipeline image as amplitudes, O(d); the dense doublet is built only
when a test asks for it.  The per-row length-d section keeps the route
the pure and gemenge reads took before they read the branch amplitudes
alone: each row premeasured, its length-d diagonal projected and
decomposed, and each row's (o,) weights and class-order cumulative; the
package's reads, weights and cumulatives are tested against it bit for
bit.  The document reference decodes a scenario
document in one ``json.loads``, each inline matrix's lists built whole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from segalsim.algebra import (
    OperatorAlgebra,
    SpectralResolution,
    diagonal_algebra,
    generate_algebra,
    joint_spectral_resolution,
)
from segalsim.config import (
    DEGENERACY_GAP,
    PROBABILITY_FLOOR,
    STATE_EQUALITY_ATOL,
    TRACE_ATOL,
    check,
)
from segalsim.linalg import SpaceLayout, degenerate_clusters, hermitian_eig
from segalsim.decoherence import PointerBasisReport
from segalsim.doublet import DoubletState
from segalsim.measurement import (
    EventRecord,
    MeasurementModel,
    branch_mixture,
    full_layout,
    interference_observable,
    ms_layout,
    pointer_algebra,
    pointer_characters,
    pointer_operator,
    premeasure,
)
from segalsim.model import _environment_records, _pointer_diagonal, _source_kind
from segalsim.restriction import (
    AlgebraicState,
    BreuerReport,
    Character,
    breuer_indistinguishable,
    character_probabilities,
    decompose_restricted,
    draw_cumulative,
    extremal_states,
    restrict_state,
)
from segalsim.parse import _decode_entry
from segalsim.scenarios import ConfigError
from segalsim.states import DensityMatrix, Gemenge, StateVector, density_from_vector


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a (not necessarily normalized) vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by explicit index arithmetic."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace over the factors not in ``keep`` by explicit summation."""
    n = len(dims)
    keep = tuple(sorted(keep))
    kept_dims = [dims[i] for i in keep]
    d_out = int(np.prod(kept_dims))
    out = np.zeros((d_out, d_out), dtype=complex)

    def flat(multi):
        idx = 0
        for i in range(n):
            idx = idx * dims[i] + multi[i]
        return idx

    def flat_kept(multi):
        idx = 0
        for pos, i in enumerate(keep):
            idx = idx * kept_dims[pos] + multi[i]
        return idx

    traced = [i for i in range(n) if i not in keep]
    for row_multi in np.ndindex(*dims):
        for col_multi in np.ndindex(*dims):
            if any(row_multi[i] != col_multi[i] for i in traced):
                continue
            out[flat_kept(row_multi), flat_kept(col_multi)] += m[flat(row_multi), flat(col_multi)]
    return out


def span_rank(vectors: list[np.ndarray], tol: float = 1e-9) -> int:
    stack = np.array([v.reshape(-1) for v in vectors])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def in_span(vectors: list[np.ndarray], candidate: np.ndarray, tol: float = 1e-9) -> bool:
    return span_rank(vectors + [candidate], tol) == span_rank(vectors, tol)


def closure_dimension_oracle(generators: list[np.ndarray], tol: float = 1e-9) -> tuple[int, bool]:
    """Dimension and commutativity of the smallest unital *-closed span
    containing the generators, found by blunt span growth with SVD ranks.

    Each candidate is scaled to unit Hilbert-Schmidt norm before its span
    test; scaling leaves the span alone, and without it repeated products
    of a generator with a wide spectrum overflow.  A product ``a @ b`` no
    larger than ``tol * |a| |b|`` is round-off of a zero product and is
    taken as zero, not scaled up into a new direction.
    """

    def unit(m: np.ndarray, scale: float = 0.0) -> np.ndarray:
        norm = np.linalg.norm(m)
        return m / norm if norm > tol * scale else np.zeros_like(m)

    d = generators[0].shape[0]
    ops: list[np.ndarray] = [np.eye(d, dtype=complex)]
    for g in generators:
        for candidate in (np.asarray(g, dtype=complex), np.asarray(g, dtype=complex).conj().T):
            candidate = unit(candidate)
            if not in_span(ops, candidate, tol):
                ops.append(candidate)
    while True:
        grew = False
        snapshot = list(ops)
        for a in snapshot:
            for b in snapshot:
                p = unit(a @ b, np.linalg.norm(a) * np.linalg.norm(b))
                if not in_span(ops, p, tol):
                    ops.append(p)
                    grew = True
        if not grew:
            break
        if len(ops) > d * d:
            raise AssertionError("oracle closure exceeded the d^2 bound")
    commutative = all(
        np.max(np.abs(a @ b - b @ a)) <= 1e-9 for a in ops for b in ops
    )
    return span_rank(ops, tol), commutative


def all_pairs_closure(
    generators: list[np.ndarray], d: int, tol: float = 1e-9
) -> tuple[list[np.ndarray], bool]:
    """Orthonormal basis and commutativity of the generated unital *-algebra.

    The all-pairs Gram-Schmidt closure: seed {I} + generators + adjoints,
    then adjoin every product of two basis elements, pass after pass,
    until a pass adds nothing.  Commutativity is the largest HS norm of a
    basis commutator against ``tol``.
    """
    rows = np.zeros((0, d * d), dtype=complex)

    def append(op):
        nonlocal rows
        v = op.reshape(-1)
        norm_in = float(np.linalg.norm(v))
        if norm_in == 0.0:
            return False
        r = v.astype(complex)
        for _ in range(2):
            if rows.shape[0]:
                r = r - rows.T @ (rows.conj() @ r)
        norm_r = float(np.linalg.norm(r))
        if norm_r <= tol * norm_in:
            return False
        rows = np.vstack([rows, r / norm_r])
        return True

    gens = [np.asarray(g, dtype=complex) for g in generators]
    for op in [np.eye(d, dtype=complex), *gens, *[g.conj().T for g in gens]]:
        append(op)
    while True:
        ops = [rows[i].reshape(d, d) for i in range(rows.shape[0])]
        grew = False
        for a in ops:
            for b in ops:
                grew = append(a @ b) or grew
        if not grew:
            break
        if rows.shape[0] > d * d:
            raise AssertionError("all-pairs closure exceeded the d^2 bound")
    basis = [rows[i].reshape(d, d).copy() for i in range(rows.shape[0])]
    worst = max(
        (float(np.linalg.norm(a @ b - b @ a)) for i, a in enumerate(basis) for b in basis[i + 1 :]),
        default=0.0,
    )
    return basis, worst <= tol


def joint_resolution_oracle(
    basis: list[np.ndarray], generators: list[np.ndarray], seed: int = 0x5E6A1, trials: int = 12
) -> tuple[np.ndarray, tuple[int, ...], list[np.ndarray]]:
    """Joint eigenprojectors of a commutative algebra given by a dense basis.

    The randomized basis-level resolution: diagonalize a random Hermitian
    combination of the basis elements, group eigenvalues closer than
    1e-10, merge groups whose basis-element values agree within 1e-7, and
    keep the draw only if there is one group per basis element and every
    element acts as a scalar on every group; else draw again.  Returns the
    generator values (complex), the ranks and the dense projectors, sorted
    by the real generator values rounded to 9 decimals.
    """
    d = basis[0].shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        h = np.zeros((d, d), dtype=complex)
        for m in basis:
            c_re, c_im = rng.standard_normal(2)
            h += c_re * (m + m.conj().T) / 2.0 + c_im * (m - m.conj().T) / 2.0j
        eigenvalues, vectors = np.linalg.eigh(h)
        clusters = np.split(np.arange(d), np.flatnonzero(np.diff(eigenvalues) > 1e-10) + 1)
        groups: list[tuple[np.ndarray, list[int]]] = []
        for idx in clusters:
            cols = vectors[:, idx]
            value = np.array([np.trace(cols.conj().T @ m @ cols) / len(idx) for m in basis])
            for group_value, members in groups:
                if np.max(np.abs(value - group_value)) <= 1e-7:
                    members.extend(idx)
                    break
            else:
                groups.append((value, list(idx)))
        if len(groups) != len(basis):
            continue
        projectors = [vectors[:, idx] @ vectors[:, idx].conj().T for _, idx in groups]
        ranks = [len(idx) for _, idx in groups]
        scalar = all(
            np.max(np.abs(p @ m @ p - np.trace(p @ m) / r * p)) <= 1e-8
            for p, r in zip(projectors, ranks)
            for m in basis
        )
        if not scalar:
            continue
        values = np.array(
            [[np.trace(p @ g) / r for g in generators] for p, r in zip(projectors, ranks)]
        ).reshape(len(groups), len(generators))
        order = sorted(range(len(groups)), key=lambda k: tuple(np.round(values[k].real, 9)))
        return values[order], tuple(ranks[k] for k in order), [projectors[k] for k in order]
    raise AssertionError(f"oracle resolution failed after {trials} draws")


def expm_series(h: np.ndarray, t: float, terms: int = 60) -> np.ndarray:
    """exp(-i h t) by straightforward Taylor summation."""
    d = h.shape[0]
    acc = np.eye(d, dtype=complex)
    term = np.eye(d, dtype=complex)
    x = -1j * t * np.asarray(h, dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        acc = acc + term
    return acc


def environment_unitary_oracle(s_dim: int, o_dim: int, e_dim: int, overlap: float) -> np.ndarray:
    """The environment coupling as a full unitary on S (x) O (x) E.

    Identity on S; on each branch pointer state |O_j> (1 <= j <= s_dim) a
    rotation by pi/2 in the plane of E_0 and the branch state
    w_j = sqrt(c) E_1 + sqrt(1 - c) E_{1+j}, identity on the ready and spare
    pointer states.  It sends |s>|O_j>|E_0> to |s>|O_j>|w_j>.
    """
    eye = np.eye(e_dim, dtype=complex)
    e0 = eye[0]
    u = np.zeros((o_dim * e_dim, o_dim * e_dim), dtype=complex)
    for j in range(o_dim):
        block = eye
        if 1 <= j <= s_dim:
            w = np.sqrt(overlap) * eye[1] + np.sqrt(1.0 - overlap) * eye[1 + j]
            block = (
                eye
                - np.outer(e0, e0.conj())
                - np.outer(w, w.conj())
                + np.outer(w, e0.conj())
                - np.outer(e0, w.conj())
            )
        u[j * e_dim : (j + 1) * e_dim, j * e_dim : (j + 1) * e_dim] = block
    return np.kron(np.eye(s_dim, dtype=complex), u)


# ---------------------------------------------------------------------------
# library readers only the tests call: factor positions and sub-layouts,
# the vectorized partial trace (checked against partial_trace_oracle),
# the Hilbert-Schmidt inner product and a character's variance


def layout_axis(layout: SpaceLayout, label: str) -> int:
    """Position of the factor named ``label``."""
    for i, (name, _) in enumerate(layout.factors):
        if name == label:
            return i
    raise ValueError(f"unknown factor label {label!r}; layout has {layout.labels}")


def layout_subset(layout: SpaceLayout, keep: Iterable[str]) -> SpaceLayout:
    """Sub-layout of the kept factors, preserving their order."""
    keep_set = set(keep)
    unknown = keep_set - set(layout.labels)
    if unknown:
        raise ValueError(f"unknown factor labels {sorted(unknown)}; layout has {layout.labels}")
    return SpaceLayout(tuple(f for f in layout.factors if f[0] in keep_set))


def partial_trace(m: np.ndarray, layout: SpaceLayout, keep: Iterable[str]) -> np.ndarray:
    """Trace out all factors of ``layout`` except ``keep``.

    The result acts on the kept factors in their original layout order;
    trace and positivity are preserved.
    """
    m = np.asarray(m, dtype=complex)
    dims = layout.dims
    d = layout.dim
    if m.shape != (d, d):
        raise ValueError(f"operator shape {m.shape} does not match layout dim {d}")
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("keep must name at least one factor")
    unknown = keep_set - set(layout.labels)
    if unknown:
        raise ValueError(f"unknown factor labels {sorted(unknown)}; layout has {layout.labels}")
    removed = [i for i, label in enumerate(layout.labels) if label not in keep_set]
    t = m.reshape(dims + dims)
    remaining = len(dims)
    for ax in sorted(removed, reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + remaining)
        remaining -= 1
    kept_dim = 1
    for i, dim in enumerate(dims):
        if i not in removed:
            kept_dim *= dim
    return np.ascontiguousarray(t.reshape(kept_dim, kept_dim))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product trace(a^dag b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def character_variance(char: Character, op: np.ndarray) -> float:
    """<op^2> - <op>^2 in a character; vanishes for every algebra element."""
    return char.expectation(op @ op) - char.expectation(op) ** 2


# ---------------------------------------------------------------------------
# dense route


def premeasurement_unitary(model: MeasurementModel) -> np.ndarray:
    """Unitary sending |s_i>|O_0> to |s_i>|O_i>: conditional ready/pointer swap.

    Real, symmetric and self-inverse, so applying it twice is the exact
    erasure of the record.
    """
    o = model.o_dim
    u = np.zeros((model.s_dim * o, model.s_dim * o), dtype=complex)
    for alpha in range(model.s_dim):
        block = np.eye(o)
        block[[0, alpha + 1]] = block[[alpha + 1, 0]]
        u[alpha * o : (alpha + 1) * o, alpha * o : (alpha + 1) * o] = block
    return u


def gemenge_mix(w: Gemenge) -> DensityMatrix:
    """Density matrix averaged over the ensemble table."""
    mat = np.zeros((w.layout.dim, w.layout.dim), dtype=complex)
    for state, p in w.rows:
        mat += p * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(w.layout, mat)


def purity(rho: DensityMatrix) -> float:
    return float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)


@lru_cache(maxsize=None)
def interference_algebra(model: MeasurementModel) -> OperatorAlgebra:
    """The Gram-Schmidt closure of the pointer operator and the
    interference observable B on S (x) O."""
    lay = ms_layout(model)
    return generate_algebra([pointer_operator(model, lay), interference_observable(model)], lay)


def dense_wigner_verdicts(
    model: MeasurementModel, psi_s: StateVector, tol: float = STATE_EQUALITY_ATOL
) -> tuple[BreuerReport, BreuerReport]:
    """The dense route of the wigner-friend Breuer verdicts: the d x d
    superposition and branch mixture compared through the pointer algebra
    and through :func:`interference_algebra`."""
    rho_p = density_from_vector(premeasure(model, psi_s))
    rho_m = branch_mixture(model, psi_s.amplitudes)
    return (
        breuer_indistinguishable(rho_p, rho_m, pointer_algebra(model), tol=tol),
        breuer_indistinguishable(rho_p, rho_m, interference_algebra(model), tol=tol),
    )


def reduce_density(rho: DensityMatrix, keep) -> DensityMatrix:
    """Partial trace onto the kept factors."""
    reduced = partial_trace(rho.matrix, rho.layout, keep)
    return DensityMatrix(layout_subset(rho.layout, keep), reduced)


def vector_fidelity(rho: DensityMatrix, v: StateVector) -> float:
    """Overlap <v| rho |v> with a pure reference state."""
    if rho.layout != v.layout:
        raise ValueError("state and density matrix live on different layouts")
    return float(np.vdot(v.amplitudes, rho.matrix @ v.amplitudes).real)


def couple_environment(model: MeasurementModel, rho_ms: DensityMatrix) -> DensityMatrix:
    """Entangle the register with its environment: V rho V^dag.

    E starts ready, so the coupling acts as the isometry
    V = I_S (x) sum_j |O_j>|E_j><O_j|, which appends to each pointer state
    its environment record.
    """
    if model.environment is None:
        raise ValueError("model has no environment configured")
    if rho_ms.layout != ms_layout(model):
        raise ValueError("input state must live on the S (x) O layout")
    records = _environment_records(model)
    rho = rho_ms.matrix.reshape(model.s_dim, model.o_dim, 1, model.s_dim, model.o_dim, 1)
    # entry (s j e, s' k f) is records[j, e] rho[s j, s' k] records[k, f]
    coupled = (records[:, :, None, None, None] * rho) * records
    layout = full_layout(model)
    return DensityMatrix(layout, coupled.reshape(layout.dim, layout.dim))


def traced_block(records: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """<s| Tr_E(V rho V^dag) |s'> for the S (x) O block rho[s j, s' k] =
    left[j] conj(right[k]) of a pure state, V the environment coupling.

    Entry (j, k) sums (records[j, e] rho[s j, s' k]) records[k, e] over e,
    the factors in the order the coupled density matrix holds them.
    """
    rho = np.outer(left, right.conj())
    return ((records[:, None, :] * rho[:, :, None]) * records[None]).sum(axis=-1)


def conditioned_blocks(rho_mse: DensityMatrix) -> np.ndarray:
    """The S-conditioned blocks <s_i| rho |s_i> of a dense S (x) O (x) E
    density matrix, each traced down to O."""
    lay = rho_mse.layout
    for label in ("S", "O", "E"):
        if label not in lay.labels:
            raise ValueError(f"layout must carry an {label!r} factor, has {lay.labels}")
    s_ax = layout_axis(lay, "S")
    dims = lay.dims
    sub_layout = layout_subset(lay, set(lay.labels) - {"S"})
    t = rho_mse.matrix.reshape(dims + dims)
    return np.array([
        partial_trace(
            np.take(np.take(t, i, axis=s_ax + len(dims)), i, axis=s_ax).reshape(sub_layout.dim, -1),
            sub_layout,
            {"O"},
        )
        for i in range(dims[s_ax])
    ])


def dense_pointer_basis(
    conditioned: np.ndarray,
    weight_floor: float = 1e-10,
    gap: float = DEGENERACY_GAP,
    residual_tol: float = 1e-6,
) -> PointerBasisReport:
    """The dense route of ``decoherence.pointer_basis_of_factors``, on the
    S-conditioned register states themselves, unnormalized:
    ``eigvalsh`` of each for its residual, ``hermitian_eig`` of their sum,
    the O marginal, for the basis, and each branch's top eigenvector
    projected through the o x o projector of a degenerate cluster.
    """
    conditional: list[np.ndarray] = []  # normalized O states
    residual = 0.0
    for sigma in conditioned:
        weight = float(np.trace(sigma).real)
        if weight <= weight_floor:
            continue
        eigvals = np.linalg.eigvalsh(sigma)
        residual = max(residual, 1.0 - float(eigvals[-1]) / weight)
        conditional.append(sigma / weight)
    if residual > residual_tol:
        raise ValueError(
            f"state is not approximately tri-decomposable: branch residual {residual:.3e} "
            f"exceeds {residual_tol:.1e}"
        )

    values, vectors = hermitian_eig(conditioned.sum(axis=0))
    significant = [k for k in range(values.size) if values[k] > weight_floor]
    clusters = [
        [significant[j] for j in group]
        for group in degenerate_clusters(values[significant], gap=gap)
    ]

    out_vectors: list[np.ndarray] = []
    out_weights: list[float] = []
    unresolved = False
    for cluster in clusters:
        if len(cluster) == 1:
            out_vectors.append(vectors[:, cluster[0]])
            out_weights.append(float(values[cluster[0]]))
            continue
        p_cluster = vectors[:, cluster] @ vectors[:, cluster].conj().T
        candidates: list[np.ndarray] = []
        for sigma in conditional:
            _, sig_vecs = hermitian_eig(sigma)
            u = sig_vecs[:, -1]
            projected = p_cluster @ u
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
        if len(candidates) == len(cluster):
            out_vectors.extend(candidates)
            out_weights.extend(float(values[k]) for k in cluster)
        else:
            unresolved = True
            out_vectors.extend(vectors[:, k] for k in cluster)
            out_weights.extend(float(values[k]) for k in cluster)

    return PointerBasisReport(
        vectors=tuple(out_vectors),
        weights=np.array(out_weights),
        flag="DEGENERATE-UNRESOLVED" if unresolved else "UNIQUE",
        residual=residual,
    )


def extract_pointer_basis(rho_mse: DensityMatrix, **options) -> PointerBasisReport:
    """:func:`dense_pointer_basis` of a dense S (x) O (x) E density matrix."""
    return dense_pointer_basis(conditioned_blocks(rho_mse), **options)


# ---------------------------------------------------------------------------
# dense commutative restriction
#
# The tables a commutative algebra's states and characters were once
# checked and decomposed through: the (k, k) character table, the
# (k + 1, k) positivity table and the least-squares decomposition.  The
# package reads the same quantities from the ranks in O(k).


def character_table(alg: OperatorAlgebra) -> np.ndarray:
    """Row k is character k's value on each basis element,
    tr(P_k B_j) / rank_k = delta_jk / sqrt(rank_k)."""
    return np.diag(1.0 / np.sqrt(joint_spectral_resolution(alg).ranks))


def positivity_table(alg: OperatorAlgebra) -> np.ndarray:
    """Coefficients of I (<B_j, I> = sqrt(rank_j)) and of every
    B_j^dag B_j = B_j / sqrt(rank_j), one row each."""
    return np.vstack([np.sqrt(joint_spectral_resolution(alg).ranks), character_table(alg)])


def check_state_dense(alg: OperatorAlgebra, values: np.ndarray) -> None:
    """The normalization and positivity checks of a state with basis
    values ``values``, through the dense positivity table."""
    table = positivity_table(alg) @ np.asarray(values, dtype=complex)
    check("state is not normalized, |<I> - 1|", abs(table[0] - 1.0), TRACE_ATOL)
    positives = table[1:]
    worst = np.max(np.maximum(-positives.real, np.abs(positives.imag)))
    check("positivity violated, max -eigenvalue or anti-Hermitian entry of rho_phi", worst, 1e-9)


def lstsq_decomposition(phi: AlgebraicState) -> np.ndarray:
    """``decompose_restricted`` by least squares against the dense
    character table, with its residual, imaginary-weight, negative-weight,
    [0, 1] and sum checks: the weights in ``extremal_states`` order."""
    matrix = character_table(phi.algebra).T
    weights, *_ = np.linalg.lstsq(matrix, phi.values, rcond=None)
    check("character decomposition residual", np.linalg.norm(matrix @ weights - phi.values), 1e-9)
    check("character decomposition has imaginary weights, max |Im|", np.max(np.abs(weights.imag)), 1e-9)
    probs = weights.real
    check("positivity violation: character weight below 0, -min", -np.min(probs), 1e-9)
    probs = np.clip(probs, 0.0, None)
    check("character probability outside [0, 1], by", np.max(np.maximum(-probs, probs - 1.0)), TRACE_ATOL)
    check("character probabilities do not sum to 1", abs(probs.sum() - 1.0), TRACE_ATOL)
    return probs


def joint_classes_numpy(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``classifier._joint_classes`` on whole rows with numpy's sort, unique,
    cumsum and round: the class of each column in character order, and
    each generator's smallest gap at a split (inf where nothing splits).
    A cluster wider than its merge width raises InvariantViolation."""
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
            check(f"generator {g_idx}: chain of joint values wider than tol x scale", spread, width)
            if split.any():
                split_gaps[g_idx] = min(split_gaps[g_idx], float(np.min(gaps[split])))
            ids[part_idx * n + g_idx, order] = np.cumsum(np.r_[0, split])
    _, first, labels = np.unique(ids.T, axis=0, return_index=True, return_inverse=True)
    real = values.real[:, first].T
    order = sorted(range(len(first)), key=lambda k: tuple(np.round(real[k], 9)))
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    return position[labels.reshape(-1)], split_gaps


def restricted_pointer_probabilities(model: MeasurementModel, rho: DensityMatrix) -> np.ndarray:
    """Character weights of a dense S (x) O density matrix restricted to the
    pointer algebra, through ``restrict_state``, in ``qo_values`` order."""
    alg = pointer_algebra(model)
    weights = decompose_restricted(restrict_state(rho, alg), alg)
    probs = weights[[c.projector_index for c in pointer_characters(model)]]
    return np.where(probs > PROBABILITY_FLOOR, probs, 0.0)


# ---------------------------------------------------------------------------
# per-row length-d route
#
# The route the pure and gemenge reads took before they read the s branch
# amplitudes alone: each row premeasured to its length-d S (x) O vector,
# the length-d diagonal (or entries) of the post-measurement state, the
# pointer algebra's ``project_coefficients`` and ``decompose_restricted``,
# and each row's full (o,) weights and class-order cumulative.


def _premeasured_entries(model: MeasurementModel, source: StateVector | Gemenge, rows, cols) -> np.ndarray:
    """Entries ``rho[rows[n], cols[n]]`` of the post-measurement S (x) O
    state from each row's premeasured amplitudes, summed over an
    ensemble's rows in order."""
    if isinstance(source, StateVector):
        a = premeasure(model, source).amplitudes
        return a[rows] * a[cols].conj()
    entries = np.zeros(len(rows), dtype=complex)
    for state, p in source.rows:
        a = premeasure(model, state).amplitudes
        entries += p * (a[rows] * a[cols].conj())
    return entries


def premeasured_pointer_probabilities(model: MeasurementModel, source: StateVector | Gemenge) -> np.ndarray:
    """Restricted pointer probabilities, ``qo_values`` order, read from the
    length-d diagonal of the premeasured state."""
    alg = pointer_algebra(model)
    d = ms_layout(model).dim
    diagonal = _premeasured_entries(model, source, np.arange(d), np.arange(d))
    values = alg.project_coefficients(diagonal.conj()).conj()
    weights = decompose_restricted(AlgebraicState(alg, values), alg)
    probs = weights[[c.projector_index for c in pointer_characters(model)]]
    return np.where(probs > PROBABILITY_FLOOR, probs, 0.0)


def premeasured_interference(model: MeasurementModel, source: StateVector | Gemenge) -> float:
    """<B> from the two premeasured entries at |s_1 O_1>, |s_2 O_2>."""
    i, j = 1, model.o_dim + 2
    x, y = _premeasured_entries(model, source, [i, j], [j, i]).real
    return float(x + y + 0.0)


def premeasured_draw_table(model: MeasurementModel, states) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each row's (o,) weights, its (o,) cumulative in class order and
    each class's pointer, as the sampler once held them."""
    weights = np.array([premeasured_pointer_probabilities(model, state) for state in states])
    class_pointer = [c.projector_index for c in pointer_characters(model)]
    class_pointer = [class_pointer.index(k) for k in range(model.o_dim)]
    cumulatives = np.array([draw_cumulative(w[class_pointer]) for w in weights])
    return weights, cumulatives, class_pointer


# ---------------------------------------------------------------------------
# dense readers of a package algebra: its dense basis and projectors only


def project(alg: OperatorAlgebra, a: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``a`` onto the span of ``alg.basis``."""
    a = np.asarray(a, dtype=complex)
    return sum((np.vdot(b, a) * b for b in alg.basis), np.zeros_like(a))


def membership_residual(alg: OperatorAlgebra, a: np.ndarray) -> float:
    """Relative distance of ``a`` from the algebra span (0 for members)."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(a - project(alg, a))) / norm


def contains(alg: OperatorAlgebra, a: np.ndarray) -> bool:
    """Membership: relative span residual at most the algebra tolerance."""
    return membership_residual(alg, a) <= alg.tol


def element_values(res: SpectralResolution, op: np.ndarray) -> np.ndarray:
    """Scalar each dense projector assigns to an algebra element: tr(P_k op) / rank_k."""
    return np.array([np.trace(p @ op) / r for p, r in zip(res.projectors, res.ranks)])


# ---------------------------------------------------------------------------
# per-event numpy.random route
#
# The generic route the sampler replaces: the full pipeline image on
# S (x) O (x) E, the pointer algebra on that layout and its character
# probabilities.  It calls the package's source check, premeasurement,
# environment records, diagonal algebra and cumulatives; the image, the
# pointer algebra's class<->pointer map, the per-event stream and the
# searchsorted inverse CDF are its own.


def pipeline_image(model: MeasurementModel, psi_s: StateVector) -> StateVector:
    """Exact image of a system state, every register ready, under the pipeline:
    the premeasured amplitude of |s, O_j> times environment record j."""
    amp = premeasure(model, psi_s).amplitudes.reshape(model.s_dim, model.o_dim, 1)
    return StateVector(full_layout(model), (amp * _environment_records(model)).reshape(-1))


@lru_cache(maxsize=None)
def pipeline_pointer_algebra(model: MeasurementModel) -> tuple[OperatorAlgebra, list[int]]:
    """The pointer algebra on S (x) O (x) E, built from the pointer
    diagonal, and each pointer's class: its label at |s_0, O_j, E_0>."""
    layout = full_layout(model)
    alg = diagonal_algebra(_pointer_diagonal(model, layout)[None], layout)
    e_dim = layout.dim // ms_layout(model).dim
    return alg, alg.labels[: model.o_dim * e_dim : e_dim].tolist()


def event_rng(seed: int, event_index: int) -> np.random.Generator:
    """Independent per-event stream: Philox keyed by (seed, event_index).

    The two 64-bit words form the 128-bit Philox key, so distinct events
    get cryptographically separated streams and any event can be replayed
    in isolation.
    """
    seed = int(seed)
    event_index = int(event_index)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if event_index < 0:
        raise ValueError("event index must be non-negative")
    return np.random.Generator(np.random.Philox(key=seed + (event_index << 64)))


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


def sample_individual_restriction(
    xi_ms: StateVector,
    alg: OperatorAlgebra,
    rng: np.random.Generator,
) -> tuple[Character, float]:
    """Restrict one individual pure state onto a commutative subalgebra.

    The global state fixes only the statistics; the individual outcome is
    drawn: character ``k`` appears with probability ``<xi| P_k |xi>``.
    Returns the sampled character and the probability it carried.
    Deterministic for a fixed generator state.
    """
    chars = extremal_states(alg)
    probs = character_probabilities(xi_ms, alg)
    k = int(inverse_cdf(draw_cumulative(probs), rng.random()))
    return chars[k], float(probs[k])


@dataclass(frozen=True)
class EventAmplitudes:
    """One event's doublet as O(d) data: the un-collapsed pipeline image
    as its amplitude vector, and the pointer character the event drew."""

    state: StateVector
    information: Character
    event_index: int

    def doublet(self) -> DoubletState:
        """The dense doublet: builds the d x d density matrix (and runs its
        eigvalsh check), O(d^3) an event."""
        return DoubletState(density_from_vector(self.state), self.information, self.event_index)


def run_event(
    model: MeasurementModel,
    source: StateVector | Gemenge,
    rng: np.random.Generator,
    event_index: int = 0,
    seed: int | None = None,
) -> tuple[EventRecord, EventAmplitudes]:
    """One full measurement event, in O(d).

    The dynamical component returned is the exact unitary image of the
    input (no collapse), as amplitudes; the record carries the sampled
    pointer character and the probability it was drawn with.
    """
    kind = _source_kind(model, source)
    row, psi_s = sample_gemenge(source, rng) if kind == "gemenge" else (None, source)
    xi = pipeline_image(model, psi_s)
    alg, pointer_class = pipeline_pointer_algebra(model)
    char, prob = sample_individual_restriction(xi, alg, rng)
    pointer_index = pointer_class.index(char.projector_index)
    record = EventRecord(
        event_index=event_index,
        seed=seed,
        input_kind=kind,
        gemenge_row=row,
        pointer_index=pointer_index,
        impression=model.qo_values[pointer_index],
        probability=prob,
    )
    return record, EventAmplitudes(xi, char, event_index)


def load_document_reference(text: str) -> dict:
    """``parse.load_document`` as one ``json.loads`` with its object
    hook: every matrix's list tree is built whole before the hook reads it."""
    try:
        raw = json.loads(text, object_hook=_decode_entry)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config document: {exc}") from None
    except RecursionError as exc:
        raise ConfigError(f"config document nests too deeply: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    return raw
