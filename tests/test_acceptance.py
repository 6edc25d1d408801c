"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion; each line carries the measured values and the wall time, which
is also asserted against the criterion's budget.
"""

import time

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from segalsim.algebra import generate_algebra
from segalsim.linalg import SpaceLayout, tensor
from segalsim.decoherence import environment_pointer_basis, pointer_state_stability
from segalsim.doublet import evolve_unitary, initial_doublet
from segalsim.measurement import (
    EnvironmentSpec,
    branch_mixture,
    interference_observable,
    make_model,
    ms_layout,
    pointer_algebra,
    pointer_histogram,
    premeasure,
    run_ensemble,
    system_state,
)
from segalsim.restriction import breuer_indistinguishable, extremal_states, restrict_state
from segalsim.states import (
    DensityMatrix,
    Gemenge,
    StateVector,
    density_from_vector,
    expectation,
)

from _oracles import (
    character_variance,
    closure_dimension_oracle,
    couple_environment,
    extract_pointer_basis,
    identity,
    premeasurement_unitary,
    reduce_density,
    vector_fidelity,
)

MODEL = make_model()
Q_O_EXT = tensor(identity(2), np.diag([0.0, 1.0, -1.0]).astype(complex))


class _Criterion:
    def __init__(self, number, budget_s, description):
        self.number = number
        self.budget_s = budget_s
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {verdict} ({elapsed:6.2f}s): {self.description}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget: {elapsed:.2f}s"
            )
        return False


def test_01_interference_value():
    with _Criterion(1, 1.0, "balanced superposition is the +1 eigenstate of the witness"):
        post = premeasure(MODEL, system_state(MODEL, [2**-0.5, 2**-0.5]))
        b = interference_observable(MODEL)
        assert expectation(density_from_vector(post), b) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(b @ post.amplitudes - post.amplitudes)) <= 1e-9


def test_02_mixed_state_interference_null():
    with _Criterion(2, 1.0, "witness expectation vanishes on branch mixtures"):
        rng = np.random.default_rng(202)
        b = interference_observable(MODEL)
        for _ in range(20):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            rho_m = branch_mixture(MODEL, a)
            assert abs(expectation(rho_m, b)) <= 1e-12


def test_03_born_statistics():
    with _Criterion(3, 10.0, "impression frequencies match squared amplitudes (3 x 1e5 events)"):
        n = 100_000
        for seed, p1 in enumerate((0.1, 0.3, 0.5)):
            psi = system_state(MODEL, [np.sqrt(p1), np.sqrt(1 - p1)])
            records = run_ensemble(MODEL, psi, n, seed=300 + seed)
            freq = pointer_histogram(MODEL, records) / n
            band = 4 * np.sqrt(p1 * (1 - p1) / n)
            assert abs(freq[1] - p1) <= band, f"p1={p1}: {freq[1]} not within {band}"
            assert abs(freq[2] - (1 - p1)) <= band


def test_04_breuer_indistinguishability():
    with _Criterion(4, 1.0, "pointer algebra hides purity; adding the witness reveals it"):
        rng = np.random.default_rng(404)
        uo = pointer_algebra(MODEL)
        with_b = generate_algebra([Q_O_EXT, interference_observable(MODEL)], ms_layout(MODEL))
        for _ in range(5):
            p1 = rng.uniform(0.05, 0.95)
            a1, a2 = np.sqrt(p1), np.sqrt(1 - p1)
            rho_p = density_from_vector(premeasure(MODEL, system_state(MODEL, [a1, a2])))
            rho_m = branch_mixture(MODEL, [a1, a2])
            inside = breuer_indistinguishable(rho_p, rho_m, uo, tol=1e-9)
            assert inside.indistinguishable
            assert inside.max_deviation <= 1e-9
            outside = breuer_indistinguishable(rho_p, rho_m, with_b, tol=1e-9)
            assert not outside.indistinguishable
            assert outside.max_deviation == pytest.approx(2 * a1 * a2, abs=1e-9)


def test_05_algebra_closure_oracle():
    with _Criterion(5, 1.0, "closures agree with the brute-force span oracle"):
        o_layout = SpaceLayout((("O", 3),))
        two = SpaceLayout((("S", 2),))
        q_o = np.diag([0.0, 1.0, -1.0]).astype(complex)
        alg = generate_algebra([q_o], o_layout)
        assert (alg.dimension, alg.commutative) == (3, True)
        assert closure_dimension_oracle([q_o]) == (3, True)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        alg2 = generate_algebra([sx, sz], two)
        assert (alg2.dimension, alg2.commutative) == (4, False)
        assert closure_dimension_oracle([sx, sz]) == (4, False)


def test_06_character_correctness():
    with _Criterion(6, 1.0, "exactly one sharp character per pointer value"):
        chars = extremal_states(pointer_algebra(MODEL))
        assert len(chars) == 3
        values = sorted(c.pointer_value() for c in chars)
        assert np.allclose(values, sorted((0.0, *MODEL.q_values)), atol=1e-9)
        for c in chars:
            assert character_variance(c, Q_O_EXT) <= 1e-8


def test_07_restriction_consistency():
    with _Criterion(7, 5.0, "restricted functionals reproduce global expectations on the span"):
        rng = np.random.default_rng(707)
        lay = ms_layout(MODEL)
        algebras = [
            pointer_algebra(MODEL),
            generate_algebra([Q_O_EXT, interference_observable(MODEL)], lay),
        ]
        for k in range(100):
            g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            m = g @ g.conj().T
            rho = DensityMatrix(lay, m / np.trace(m))
            alg = algebras[k % 2]
            phi = restrict_state(rho, alg)
            coeffs = rng.standard_normal(alg.dimension) + 1j * rng.standard_normal(alg.dimension)
            a = sum(c * b for c, b in zip(coeffs, alg.basis))
            assert abs(complex(np.trace(rho.matrix @ a)) - phi.evaluate(a)) <= 1e-9


def test_08_erasure_reversibility():
    with _Criterion(8, 1.0, "inverse premeasurement restores the input and clears the record"):
        psi_s = system_state(MODEL, [np.sqrt(0.3), np.sqrt(0.7)])
        theta = initial_doublet(MODEL, psi_s)
        u = premeasurement_unitary(MODEL)
        forward = evolve_unitary(theta, u)
        assert np.allclose(forward.information, [0.0, 0.3, 0.7], atol=1e-9)
        back = evolve_unitary(forward, u.conj().T)
        psi_in = StateVector(ms_layout(MODEL), np.kron(psi_s.amplitudes, [1.0, 0.0, 0.0]))
        assert vector_fidelity(back.dynamical, psi_in) >= 1.0 - 1e-9
        assert np.allclose(back.information, [1.0, 0.0, 0.0], atol=1e-9)


def test_09_decoherence():
    with _Criterion(9, 5.0, "environment overlap scales coherences; pointer states stay pure"):
        lay = ms_layout(MODEL)
        i, j = lay.basis_index((0, 1)), lay.basis_index((1, 2))

        orthogonal = make_model(environment=EnvironmentSpec(e_overlap=0.0))
        rho_ms = density_from_vector(
            premeasure(orthogonal, system_state(orthogonal, [2**-0.5, 2**-0.5]))
        )
        back = reduce_density(couple_environment(orthogonal, rho_ms), {"S", "O"})
        assert abs(back.matrix[i, j]) <= 1e-12

        half = make_model(environment=EnvironmentSpec(e_overlap=0.5))
        back_half = reduce_density(couple_environment(half, rho_ms), {"S", "O"})
        assert abs(back_half.matrix[i, j]) == pytest.approx(0.25, abs=1e-10)

        o_layout = SpaceLayout((("O", 3),))
        t_grid = np.linspace(0.0, 0.3, 6)
        pure_curve = pointer_state_stability(
            half, StateVector(o_layout, [0.0, 1.0, 0.0]), t_grid
        )
        assert np.max(np.abs(pure_curve - 1.0)) <= 1e-9
        sup_curve = pointer_state_stability(
            half, StateVector(o_layout, np.array([0.0, 1.0, 1.0]) / np.sqrt(2)), t_grid
        )
        assert np.all(sup_curve[1:] < 1.0 - 1e-6)


def test_10_pointer_basis_extraction():
    with _Criterion(10, 2.0, "tri-partite entanglement pins the register basis uniquely"):
        model = make_model(environment=EnvironmentSpec(e_overlap=0.0))

        def check(a1, a2):
            psi_s = system_state(model, [a1, a2])
            rho_ms = density_from_vector(premeasure(model, psi_s))
            dense = extract_pointer_basis(couple_environment(model, rho_ms))
            for report in (environment_pointer_basis(model, psi_s), dense):
                assert report.flag == "UNIQUE"
                assert len(report.vectors) == 2
                overlaps = np.array([[abs(v[k]) for k in (1, 2)] for v in report.vectors])
                # each recovered vector matches one register state up to phase
                assert np.all(np.sort(overlaps.max(axis=1)) >= 1.0 - 1e-8)
                assert np.allclose(np.sort(overlaps, axis=None)[:2], 0.0, atol=1e-8)

        check(np.sqrt(0.3), np.sqrt(0.7))
        check(2**-0.5, 2**-0.5)  # degenerate weights resolved by S-conditioning


def test_11_law_level_pure_mixed_equivalence():
    with _Criterion(11, 10.0, "pure vs ensemble-table inputs are one law (chi-square, 1e-3)"):
        n = 100_000
        a1, a2 = np.sqrt(0.3), np.sqrt(0.7)
        psi = system_state(MODEL, [a1, a2])
        table = Gemenge(
            (
                (system_state(MODEL, [1.0, 0.0]), 0.3),
                (system_state(MODEL, [0.0, 1.0]), 0.7),
            )
        )
        pure_counts = pointer_histogram(MODEL, run_ensemble(MODEL, psi, n, seed=1101))
        mixed_counts = pointer_histogram(MODEL, run_ensemble(MODEL, table, n, seed=1102))
        contingency = np.array([pure_counts[1:], mixed_counts[1:]])
        _, p_value, _, _ = chi2_contingency(contingency)
        assert p_value > 1e-3, f"equality rejected: p = {p_value}"
