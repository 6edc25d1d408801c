"""States as linear functionals on operator algebras.

A global density matrix restricted to a subalgebra keeps exactly the
expectation values of that subalgebra's elements and nothing else: the
observer whose observables form the subalgebra cannot tell apart two
global states with equal restrictions.  On a commutative algebra the
restricted-state set is a simplex whose extreme points (characters) assign
a sharp eigenvalue to every element; an individual event restricts to one
of those characters at random, which is the stochastic map that turns a
deterministic global evolution into sampled pointer outcomes (drawn by
:func:`segalsim.measurement.run_ensemble`).

A character of a commutative algebra is its class index k: it takes the
value 1/sqrt(rank_k) on basis element k and 0 on every other, so a
state's checks, and its decomposition into characters, are O(k) in the
number of classes; the decomposition is its weight vector, one float
per character.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PROBABILITY_FLOOR, STATE_EQUALITY_ATOL, TRACE_ATOL, check
from .algebra import OperatorAlgebra, joint_spectral_resolution
from .states import DensityMatrix, StateVector

__all__ = [
    "AlgebraicState",
    "BreuerReport",
    "Character",
    "breuer_indistinguishable",
    "character_probabilities",
    "decompose_restricted",
    "draw_cumulative",
    "extremal_states",
    "restrict_state",
]


@dataclass(frozen=True, eq=False)
class AlgebraicState:
    """Normalized positive linear functional on an operator algebra.

    ``values[j]`` is the expectation the state assigns to the j-th
    orthonormal basis element of the algebra; anything outside the span
    evaluates to zero by construction.  The functional is positive on the
    algebra exactly when its density rho_phi = sum_j v_j B_j^dag, which
    lies in the algebra, is Hermitian, PSD and of unit trace, and that is
    what is checked.  On a commutative algebra rho_phi is v_k / sqrt(rank_k)
    on class k, its trace sum_k sqrt(rank_k) v_k, read in O(k); otherwise
    rho_phi is built from the basis rows and takes one ``eigvalsh``.
    """

    algebra: OperatorAlgebra
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=complex)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        alg = self.algebra
        if values.size != alg.dimension:
            raise ValueError(f"value count {values.size} does not match algebra dimension {alg.dimension}")
        if alg.commutative:
            # B_k = P_k / sqrt(rank_k): rho_phi is v_k / sqrt(rank_k) on class k.
            rho = values * alg._inv_sqrt_ranks
            _check_state(alg._sqrt_ranks @ values, rho.real, abs(rho.imag))
        else:
            rho = (values @ alg._basis_vec.conj()).reshape(alg.layout.dim, -1).T
            skew = (rho - rho.conj().T) / 2
            # A NaN or inf fails the trace check; eigvalsh is not asked about it.
            eigenvalues = np.linalg.eigvalsh(rho - skew) if np.isfinite(rho).all() else np.nan
            _check_state(np.trace(rho), eigenvalues, abs(skew))

    def evaluate(self, op: np.ndarray) -> complex:
        """Expectation of ``op``; components orthogonal to the span give 0."""
        coeffs = self.algebra.project_coefficients(op)
        return complex(coeffs @ self.values)

    def expectation(self, op: np.ndarray) -> float:
        value = self.evaluate(op)
        check("expectation has imaginary part, |Im|", abs(value.imag), TRACE_ATOL)
        return float(value.real)


def _check_state(trace, eigenvalues, skew) -> None:
    """The state checks on rho_phi: its trace, the eigenvalues of its
    Hermitian part and the entries of its anti-Hermitian part (arrays, or
    a scalar standing for all of them)."""
    check("state is not normalized, |<I> - 1|", abs(trace - 1.0), TRACE_ATOL)
    worst = np.maximum(-np.min(eigenvalues), np.max(skew))
    check("positivity violated, max -eigenvalue or anti-Hermitian entry of rho_phi", worst, 1e-9)


@dataclass(frozen=True, eq=False, init=False)
class Character(AlgebraicState):
    """Extremal restricted state of a commutative algebra.

    Multiplicative on the algebra (sharp value for every element): the
    classical point state sitting at one joint eigenvalue tuple.  It is
    the pair (algebra, class index); its one nonzero value,
    1/sqrt(rank_k) on basis element k, is checked in O(1), and the
    ``values`` row is made only when read.
    """

    projector_index: int

    def __init__(self, algebra: OperatorAlgebra, projector_index: int) -> None:
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "projector_index", projector_index)
        k = slice(projector_index, projector_index + 1)
        value = algebra._inv_sqrt_ranks[k]
        _check_state(algebra._sqrt_ranks[k] @ value, value * value, 0.0)

    @property
    def values(self) -> np.ndarray:
        """The state's value on each basis element, a new read-only row."""
        row = np.zeros(self.algebra.dimension, dtype=complex)
        row[self.projector_index] = self.algebra._inv_sqrt_ranks[self.projector_index]
        row.setflags(write=False)
        return row

    @property
    def generator_values(self) -> np.ndarray:
        """Each generator's sharp value on this character."""
        return joint_spectral_resolution(self.algebra).generator_values[self.projector_index]

    @property
    def projector(self) -> np.ndarray:
        """The dense joint eigenprojector this character sits on."""
        return joint_spectral_resolution(self.algebra).projectors[self.projector_index]

    def pointer_value(self, generator_index: int = 0) -> float:
        return float(self.generator_values[generator_index])


def restrict_state(rho: DensityMatrix, alg: OperatorAlgebra) -> AlgebraicState:
    """Evaluate a global state on the algebra only (the view from inside)."""
    if rho.dim != alg.layout.dim:
        raise ValueError(
            f"state dim {rho.dim} does not match algebra dim {alg.layout.dim}"
        )
    # tr(rho B_j) = conj(<B_j, rho^dag>)
    return AlgebraicState(alg, alg.project_coefficients(rho.matrix.conj().T).conj())


def extremal_states(alg: OperatorAlgebra) -> tuple[Character, ...]:
    """Characters of a commutative algebra, one per joint eigenprojector.

    These are exactly the extreme points of the restricted state set;
    non-commutative algebras are refused rather than approximated.
    """
    if not alg.commutative:
        raise ValueError("extremal state enumeration requires a commutative algebra")
    if alg._characters is not None:
        return alg._characters
    res = joint_spectral_resolution(alg)
    chars = tuple(Character(alg, k) for k in range(len(res.ranks)))
    alg._characters = chars
    return chars


def decompose_restricted(phi: AlgebraicState, alg: OperatorAlgebra) -> np.ndarray:
    """Unique convex decomposition of a restricted state into characters:
    its weight vector, a new float64 array in :func:`extremal_states` order.

    Character k takes 1/sqrt(rank_k) on basis element k alone, so the
    weights are w_k = v_k sqrt(rank_k), O(k).  For a state restricted
    from a density matrix they equal trace(rho P_k) over the joint
    eigenprojectors.
    """
    if phi.algebra is not alg:
        raise ValueError("state is not defined on the given algebra")
    extremal_states(alg)  # refuses a non-commutative algebra
    weights = phi.values * alg._sqrt_ranks
    # The characters, weighted, give the state back.
    residual = np.linalg.norm(weights * alg._inv_sqrt_ranks - phi.values)
    check("character decomposition residual", residual, 1e-9)
    imaginary = np.max(np.abs(weights.imag))
    check("character decomposition has imaginary weights, max |Im|", imaginary, 1e-9)
    probs = weights.real
    check("positivity violation: character weight below 0, -min", -np.min(probs), 1e-9)
    probs = np.clip(probs, 0.0, None)
    outside = np.max(np.maximum(-probs, probs - 1.0))  # the worst weight's distance from [0, 1]
    check("character probability outside [0, 1], by", outside, TRACE_ATOL)
    check("character probabilities do not sum to 1", abs(probs.sum() - 1.0), TRACE_ATOL)
    return probs


@dataclass(frozen=True, eq=False)
class BreuerReport:
    """Outcome of comparing two global states through one subalgebra."""

    indistinguishable: bool
    tol: float
    max_deviation: float
    worst_label: str

    def __bool__(self) -> bool:
        return self.indistinguishable


def breuer_indistinguishable(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    alg: OperatorAlgebra,
    tol: float = STATE_EQUALITY_ATOL,
) -> BreuerReport:
    """Can an observer confined to ``alg`` tell the two states apart?

    The verdict compares the restricted states entrywise on the
    orthonormal basis; the deviation report additionally covers the
    generators in their own normalization (:func:`_breuer_verdict`).
    Only the restricted values are read, never a dense basis element.
    """
    if rho1.layout != rho2.layout:
        raise ValueError("states must share one layout")
    return _restricted_verdict(restrict_state(rho1, alg), restrict_state(rho2, alg), tol)


def _restricted_verdict(phi1: AlgebraicState, phi2: AlgebraicState, tol: float) -> BreuerReport:
    """The Breuer verdict on two states restricted to one algebra."""
    alg = phi1.algebra
    # Exactly diagonal generators are read as their diagonals; build no diag.
    generators = alg.generators if alg.generator_diagonals is None else alg.generator_diagonals
    generator_dev = [abs(c @ phi1.values - c @ phi2.values) for c in map(alg.project_coefficients, generators)]
    return _breuer_verdict(np.abs(phi1.values - phi2.values), generator_dev, tol)


def _breuer_verdict(basis_dev: np.ndarray, generator_dev: list[float], tol: float) -> BreuerReport:
    """The one Breuer rule: indistinguishable when no basis deviation exceeds
    ``tol``; the report names the first largest deviation, basis elements first."""
    deviations = [*basis_dev, *generator_dev]
    worst = int(np.argmax(deviations))
    label = f"basis[{worst}]" if worst < len(basis_dev) else f"generator[{worst - len(basis_dev)}]"
    return BreuerReport(
        indistinguishable=bool(np.max(basis_dev) <= tol),
        tol=tol,
        max_deviation=float(deviations[worst]),
        worst_label=label,
    )


def character_probabilities(xi_ms: StateVector, alg: OperatorAlgebra) -> np.ndarray:
    """Per-character outcome probabilities ``<xi| P_k |xi>``.

    Ordered like :func:`extremal_states`.  Sums to one for a normalized
    state because the joint eigenprojectors resolve the identity.
    """
    if xi_ms.layout != alg.layout:
        raise ValueError(
            f"state layout {xi_ms.layout.labels} does not match algebra layout "
            f"{alg.layout.labels}"
        )
    if not alg.commutative:
        raise ValueError("character probabilities require a commutative algebra")
    # <xi|P_k|xi> is |V^dag xi|^2 summed over class k.
    amp = alg.eigenbasis_amplitudes(xi_ms.amplitudes)
    return alg.class_sums(np.abs(amp) ** 2)


def draw_cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution for inverse-CDF draws over ``probs``.

    It reads exactly 1 from the last nonzero weight on, so no zero weight
    is drawn, trailing ones included."""
    total = float(probs.sum())
    negated = -total if np.isfinite(total) else np.nan  # an infinite total fails too
    check("character probabilities vanish: state and algebra disagree", negated, -PROBABILITY_FLOOR)
    cumulative = np.cumsum(probs / total)
    cumulative[cumulative == cumulative[-1]] = 1.0
    return cumulative
