"""States as linear functionals on operator algebras.

A global density matrix restricted to a subalgebra keeps exactly the
expectation values of that subalgebra's elements and nothing else: the
observer whose observables form the subalgebra cannot tell apart two
global states with equal restrictions.  On a commutative algebra the
restricted-state set is a simplex whose extreme points (characters) assign
a sharp eigenvalue to every element; an individual event restricts to one
of those characters at random, which is the stochastic map that turns a
deterministic global evolution into sampled pointer outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (
    InvariantViolation,
    PROBABILITY_FLOOR,
    STATE_EQUALITY_ATOL,
    TRACE_ATOL,
)
from .algebra import OperatorAlgebra, joint_spectral_resolution
from .states import DensityMatrix, StateVector, inverse_cdf

__all__ = [
    "AlgebraicState",
    "BreuerReport",
    "Character",
    "EnsembleOverCharacters",
    "breuer_indistinguishable",
    "character_probabilities",
    "decompose_restricted",
    "draw_cumulative",
    "extremal_states",
    "restrict_state",
    "sample_individual_restriction",
]


@dataclass(frozen=True, eq=False)
class AlgebraicState:
    """Normalized positive linear functional on an operator algebra.

    ``values[j]`` is the expectation the state assigns to the j-th
    orthonormal basis element of the algebra; anything outside the span
    evaluates to zero by construction.
    """

    algebra: OperatorAlgebra
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=complex)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.size != self.algebra.dimension:
            raise ValueError(
                f"value count {values.size} does not match algebra dimension "
                f"{self.algebra.dimension}"
            )
        norm = self.evaluate(np.eye(self.algebra.layout.dim))
        if abs(norm - 1.0) > TRACE_ATOL:
            raise InvariantViolation(f"state is not normalized: <I> = {norm!r}")
        for j, m in enumerate(self.algebra.basis):
            positive = self.evaluate(m.conj().T @ m)
            if positive.real < -1e-9 or abs(positive.imag) > 1e-9:
                raise InvariantViolation(
                    f"positivity violated on basis element {j}: <M^dag M> = {positive!r}"
                )

    def evaluate(self, op: np.ndarray) -> complex:
        """Expectation of ``op``; components orthogonal to the span give 0."""
        coeffs = self.algebra.project_coefficients(op)
        return complex(coeffs @ self.values)

    def expectation(self, op: np.ndarray) -> float:
        value = self.evaluate(op)
        if abs(value.imag) > TRACE_ATOL:
            raise InvariantViolation(f"expectation has imaginary part {value.imag:.3e}")
        return float(value.real)


@dataclass(frozen=True, eq=False)
class Character(AlgebraicState):
    """Extremal restricted state of a commutative algebra.

    Multiplicative on the algebra (sharp value for every element): the
    classical point state sitting at one joint eigenvalue tuple.
    """

    projector_index: int
    generator_values: np.ndarray
    projector: np.ndarray

    def pointer_value(self, generator_index: int = 0) -> float:
        return float(self.generator_values[generator_index])

    def variance(self, op: np.ndarray) -> float:
        """<op^2> - <op>^2; vanishes for every algebra element."""
        return self.expectation(op @ op) - self.expectation(op) ** 2


@dataclass(frozen=True, eq=False)
class EnsembleOverCharacters:
    """Probability table over the characters of one commutative algebra."""

    rows: tuple[tuple[Character, float], ...]

    def __post_init__(self) -> None:
        rows = tuple((char, float(p)) for char, p in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("ensemble needs at least one row")
        for _, p in rows:
            if p < -TRACE_ATOL or p > 1.0 + TRACE_ATOL:
                raise InvariantViolation(f"character probability {p!r} outside [0, 1]")
        total = sum(p for _, p in rows)
        if abs(total - 1.0) > TRACE_ATOL:
            raise InvariantViolation(f"character probabilities sum to {total!r}, not 1")

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.rows])

    @property
    def characters(self) -> tuple[Character, ...]:
        return tuple(char for char, _ in self.rows)


def restrict_state(rho: DensityMatrix, alg: OperatorAlgebra) -> AlgebraicState:
    """Evaluate a global state on the algebra only (the view from inside)."""
    if rho.dim != alg.layout.dim:
        raise ValueError(
            f"state dim {rho.dim} does not match algebra dim {alg.layout.dim}"
        )
    values = np.array([np.trace(rho.matrix @ m) for m in alg.basis])
    return AlgebraicState(alg, values)


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
    chars = tuple(
        Character(
            algebra=alg,
            values=res.basis_values[k],
            projector_index=k,
            generator_values=res.generator_values[k],
            projector=res.projectors[k],
        )
        for k in range(len(res.projectors))
    )
    alg._characters = chars
    return chars


def decompose_restricted(phi: AlgebraicState, alg: OperatorAlgebra) -> EnsembleOverCharacters:
    """Unique convex decomposition of a restricted state into characters.

    For a state restricted from a density matrix the weights equal
    trace(rho P_k) over the joint eigenprojectors.
    """
    if phi.algebra is not alg:
        raise ValueError("state is not defined on the given algebra")
    chars = extremal_states(alg)
    matrix = np.array([c.values for c in chars]).T
    weights, *_ = np.linalg.lstsq(matrix, phi.values, rcond=None)
    residual = float(np.linalg.norm(matrix @ weights - phi.values))
    if residual > 1e-9:
        raise InvariantViolation(f"character decomposition residual {residual:.3e}")
    if np.max(np.abs(weights.imag)) > 1e-9:
        raise InvariantViolation("character decomposition has imaginary weights")
    probs = weights.real
    if np.min(probs) < -1e-9:
        raise InvariantViolation(
            f"positivity violation: character weight {np.min(probs):.3e} below 0"
        )
    probs = np.clip(probs, 0.0, None)
    return EnsembleOverCharacters(tuple(zip(chars, probs)))


@dataclass(frozen=True, eq=False)
class BreuerReport:
    """Outcome of comparing two global states through one subalgebra."""

    indistinguishable: bool
    tol: float
    max_deviation: float
    worst_label: str
    worst_element: np.ndarray
    basis_deviations: np.ndarray
    generator_deviations: np.ndarray

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
    generators in their own normalization, and names the worst offender.
    """
    if rho1.layout != rho2.layout:
        raise ValueError("states must share one layout")
    phi1 = restrict_state(rho1, alg)
    phi2 = restrict_state(rho2, alg)
    basis_dev = np.abs(phi1.values - phi2.values)
    gen_dev = np.array(
        [abs(phi1.evaluate(g) - phi2.evaluate(g)) for g in alg.generators]
    )
    labels = [f"basis[{j}]" for j in range(basis_dev.size)]
    elements = list(alg.basis)
    deviations = list(basis_dev)
    for g_idx, g in enumerate(alg.generators):
        labels.append(f"generator[{g_idx}]")
        elements.append(g)
        deviations.append(float(gen_dev[g_idx]))
    worst = int(np.argmax(deviations))
    return BreuerReport(
        indistinguishable=bool(np.max(basis_dev) <= tol),
        tol=tol,
        max_deviation=float(deviations[worst]),
        worst_label=labels[worst],
        worst_element=elements[worst],
        basis_deviations=basis_dev,
        generator_deviations=gen_dev,
    )


def character_probabilities(xi_ms: StateVector, alg: OperatorAlgebra) -> np.ndarray:
    """Per-character outcome probabilities ``<xi| P_k |xi>``.

    Ordered like :func:`extremal_states`; tiny negative round-off is
    clipped to zero.  Sums to one for a normalized state because the joint
    eigenprojectors resolve the identity.
    """
    if xi_ms.layout != alg.layout:
        raise ValueError(
            f"state layout {xi_ms.layout.labels} does not match algebra layout "
            f"{alg.layout.labels}"
        )
    chars = extremal_states(alg)
    amp = xi_ms.amplitudes
    probs = np.array([float(np.vdot(amp, c.projector @ amp).real) for c in chars])
    return np.clip(probs, 0.0, None)


def draw_cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution for inverse-CDF draws over ``probs``."""
    total = float(probs.sum())
    if total < PROBABILITY_FLOOR:
        raise InvariantViolation(
            "all character probabilities vanish; state and algebra are inconsistent"
        )
    cumulative = np.cumsum(probs / total)
    cumulative[-1] = 1.0
    return cumulative


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
