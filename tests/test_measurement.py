import numpy as np
import pytest

from segalsim.config import InvariantViolation
from segalsim.linalg import SpaceLayout, identity, tensor, unitary_from_hamiltonian
from segalsim.measurement import (
    EnvironmentSpec,
    MeasurementModel,
    branch_mixture,
    couple_environment,
    event_rng,
    evolve_sle,
    evolve_unitary,
    extract_pointer_basis,
    full_layout,
    initial_doublet,
    interaction_hamiltonian,
    interference_observable,
    make_model,
    ms_layout,
    pointer_algebra,
    pointer_characters,
    pointer_histogram,
    pointer_state_stability,
    premeasure,
    premeasurement_unitary,
    run_ensemble,
    run_event,
    system_state,
    wigner_friend_report,
)
from segalsim.restriction import restrict_state
from segalsim.states import (
    DensityMatrix,
    Gemenge,
    StateVector,
    basis_state,
    density_from_vector,
    expectation,
    purity,
    reduce_density,
    vector_fidelity,
)

MODEL = make_model()


def env_model(e_overlap=0.0, coupling=1.0, e_dim=8):
    return make_model(
        environment=EnvironmentSpec(e_dim=e_dim, coupling_strength=coupling, e_overlap=e_overlap)
    )


def psi(a1, a2):
    return system_state(MODEL, [a1, a2])


class TestModelValidation:
    def test_needs_ready_state(self):
        with pytest.raises(ValueError, match="ready state"):
            make_model(s_dim=2, o_dim=2)

    def test_pointer_values_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            MeasurementModel(qo_values=(0.0, 1.0, 1.0), q_values=(1.0, 1.0))

    def test_unbiasedness_enforced(self):
        with pytest.raises(ValueError, match="unbiased"):
            MeasurementModel(q_values=(1.0, -1.0), qo_values=(0.0, 2.0, -1.0))

    def test_environment_dimension(self):
        with pytest.raises(ValueError, match="too small"):
            make_model(environment=EnvironmentSpec(e_dim=3))

    def test_make_model_defaults_generalize(self):
        m = make_model(s_dim=3, o_dim=5)
        assert m.q_values == (1.0, -1.0, 2.0)
        assert m.qo_values == (0.0, 1.0, -1.0, 2.0, 3.0)
        assert len(set(m.qo_values)) == 5


class TestPremeasurementUnitary:
    def test_branch_mapping(self):
        post = premeasure(MODEL, system_state(MODEL, [1.0, 0.0]))
        expected = basis_state(ms_layout(MODEL), (0, 1))
        assert np.allclose(post.amplitudes, expected.amplitudes, atol=1e-12)

    def test_superposition_entangles(self):
        a1, a2 = np.sqrt(0.3), np.sqrt(0.7) * 1j
        post = premeasure(MODEL, system_state(MODEL, [a1, a2]))
        expected = np.zeros(6, dtype=complex)
        expected[1] = a1
        expected[5] = a2
        assert np.allclose(post.amplitudes, expected, atol=1e-12)

    def test_unitarity(self):
        u = premeasurement_unitary(MODEL)
        assert np.max(np.abs(u @ u.conj().T - identity(6))) <= 1e-10

    def test_self_inverse(self):
        u = premeasurement_unitary(MODEL)
        assert np.max(np.abs(u @ u - identity(6))) <= 1e-12


class TestInteractionHamiltonian:
    def test_branch_phase(self):
        # Each branch acquires exactly the documented -i phase.
        h = interaction_hamiltonian(MODEL)
        u = unitary_from_hamiltonian(h, MODEL.interaction_duration)
        lay = ms_layout(MODEL)
        for i in range(2):
            start = lay.basis_index((i, 0))
            end = lay.basis_index((i, i + 1))
            col = u[:, start]
            assert abs(col[end] - (-1j)) <= 1e-10
            assert np.linalg.norm(np.delete(col, end)) <= 1e-10

    def test_zero_time_is_identity(self):
        h = interaction_hamiltonian(MODEL)
        assert np.allclose(unitary_from_hamiltonian(h, 0.0), identity(6), atol=1e-12)

    def test_matches_exact_unitary_up_to_phase(self):
        h = interaction_hamiltonian(MODEL)
        u_h = unitary_from_hamiltonian(h, MODEL.interaction_duration)
        u = premeasurement_unitary(MODEL)
        lay = ms_layout(MODEL)
        for i in range(2):
            col = lay.basis_index((i, 0))
            overlap = np.vdot(u[:, col], u_h[:, col])
            assert abs(abs(overlap) - 1.0) <= 1e-10

    def test_pointer_probabilities_agree_between_routes(self):
        a1, a2 = np.sqrt(0.3), np.sqrt(0.7)
        amp0 = np.kron([a1, a2], [1.0, 0.0, 0.0]).astype(complex)
        h = interaction_hamiltonian(MODEL)
        u_h = unitary_from_hamiltonian(h, MODEL.interaction_duration)
        u = premeasurement_unitary(MODEL)
        chars = pointer_characters(MODEL)
        for amp in (u @ amp0, u_h @ amp0):
            probs = [float(np.vdot(amp, c.projector @ amp).real) for c in chars]
            assert np.allclose(probs, [0.0, 0.3, 0.7], atol=1e-10)


class TestInterferenceObservable:
    def test_balanced_eigenvalue(self):
        b = interference_observable(MODEL)
        post = premeasure(MODEL, psi(2**-0.5, 2**-0.5))
        rho = density_from_vector(post)
        assert expectation(rho, b) == pytest.approx(1.0, abs=1e-12)
        # and the state is an eigenvector with eigenvalue 1
        assert np.max(np.abs(b @ post.amplitudes - post.amplitudes)) <= 1e-9

    def test_vanishes_on_branch_mixture(self):
        b = interference_observable(MODEL)
        rho = branch_mixture(MODEL, [np.sqrt(0.3), np.sqrt(0.7)])
        assert expectation(rho, b) == pytest.approx(0.0, abs=1e-14)

    def test_general_amplitudes(self):
        rng = np.random.default_rng(6)
        b = interference_observable(MODEL)
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            rho = density_from_vector(premeasure(MODEL, system_state(MODEL, a)))
            assert expectation(rho, b) == pytest.approx(
                2 * np.real(np.conj(a[0]) * a[1]), abs=1e-10
            )

    def test_hermitian_traceless(self):
        b = interference_observable(MODEL)
        assert np.max(np.abs(b - b.conj().T)) == 0.0
        assert np.trace(b) == 0.0

    def test_requires_two_branches(self):
        with pytest.raises(ValueError, match="s_dim = 2"):
            interference_observable(make_model(s_dim=3, o_dim=4))


class TestDoublets:
    def test_initial_information_is_ready(self):
        theta = initial_doublet(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)))
        assert np.allclose(theta.information, [1.0, 0.0, 0.0], atol=1e-12)

    def test_null_evolution_keeps_doublet(self):
        theta = initial_doublet(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)))
        evolved = evolve_sle(theta, np.zeros((6, 6)), 3.7)
        assert np.allclose(evolved.dynamical.matrix, theta.dynamical.matrix, atol=1e-12)
        assert np.allclose(evolved.information, theta.information, atol=1e-12)

    def test_measurement_updates_information(self):
        theta = initial_doublet(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)))
        h = interaction_hamiltonian(MODEL)
        after = evolve_sle(theta, h, MODEL.interaction_duration)
        assert np.allclose(after.information, [0.0, 0.3, 0.7], atol=1e-9)

    def test_erasure_by_reverse_evolution(self):
        theta = initial_doublet(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)))
        h = interaction_hamiltonian(MODEL)
        forward = evolve_sle(theta, h, MODEL.interaction_duration)
        back = evolve_sle(forward, h, -MODEL.interaction_duration)
        assert np.max(np.abs(back.dynamical.matrix - theta.dynamical.matrix)) <= 1e-9
        assert np.allclose(back.information, [1.0, 0.0, 0.0], atol=1e-9)

    def test_erasure_by_inverse_premeasurement(self):
        psi_in = psi(np.sqrt(0.3), np.sqrt(0.7))
        theta = initial_doublet(MODEL, psi_in)
        u = premeasurement_unitary(MODEL)
        forward = evolve_unitary(theta, u)
        assert np.allclose(forward.information, [0.0, 0.3, 0.7], atol=1e-9)
        back = evolve_unitary(forward, u.conj().T)
        initial_vec = StateVector(
            ms_layout(MODEL), np.kron(psi_in.amplitudes, [1.0, 0.0, 0.0])
        )
        assert vector_fidelity(back.dynamical, initial_vec) >= 1.0 - 1e-9
        assert np.allclose(back.information, [1.0, 0.0, 0.0], atol=1e-9)

    def test_system_local_hamiltonian_preserves_information(self):
        # Operational condition: no S-O interaction means no record change.
        rng = np.random.default_rng(9)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h_s = tensor((m + m.conj().T) / 2, identity(3))
        for start in (
            initial_doublet(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7))),
            evolve_unitary(
                initial_doublet(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7))),
                premeasurement_unitary(MODEL),
            ),
        ):
            evolved = evolve_sle(start, h_s, 2.1)
            assert np.max(np.abs(evolved.information - start.information)) <= 1e-9

    def test_inconsistent_information_rejected(self):
        theta = initial_doublet(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)))
        from segalsim.measurement import StatisticalDoublet

        with pytest.raises(InvariantViolation, match="inconsistent"):
            StatisticalDoublet(theta.dynamical, np.array([0.0, 0.5, 0.5]), theta.characters)


class TestRunEvent:
    def test_eigenstate_input(self):
        rng = event_rng(7, 0)
        record, doublet = run_event(MODEL, psi(0.0, 1.0), rng)
        assert record.pointer_index == 2
        assert record.impression == MODEL.qo_values[2] == -1.0
        assert record.probability == pytest.approx(1.0, abs=1e-10)
        assert purity(doublet.dynamical) == pytest.approx(1.0, abs=1e-9)

    def test_impression_matches_character(self):
        record, doublet = run_event(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)), event_rng(11, 0))
        assert abs(doublet.information.pointer_value() - record.impression) <= 1e-7

    def test_dynamical_component_not_collapsed(self):
        # The external account stays pure whatever the register sampled.
        post = premeasure(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)))
        for i in range(10):
            _, doublet = run_event(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)), event_rng(3, i))
            assert np.max(np.abs(doublet.dynamical.matrix - density_from_vector(post).matrix)) <= 1e-12

    def test_gemenge_row_recorded(self):
        w = Gemenge(((psi(1.0, 0.0), 0.3), (psi(0.0, 1.0), 0.7)))
        record, _ = run_event(MODEL, w, event_rng(5, 0))
        assert record.input_kind == "gemenge"
        assert record.gemenge_row in (0, 1)
        # the pointer matches the sampled branch deterministically
        assert record.pointer_index == record.gemenge_row + 1

    def test_determinism(self):
        w = Gemenge(((psi(1.0, 0.0), 0.3), (psi(0.0, 1.0), 0.7)))
        r1 = [run_event(MODEL, w, event_rng(99, i), event_index=i)[0] for i in range(40)]
        r2 = [run_event(MODEL, w, event_rng(99, i), event_index=i)[0] for i in range(40)]
        assert r1 == r2

    def test_ensemble_matches_per_event_reference(self):
        # The vectorized batch against the generic per-event pipeline,
        # record for record, including an environment model and an
        # ensemble row that is never drawn.
        env = env_model(e_overlap=0.3, e_dim=4)
        three = make_model(s_dim=3, o_dim=5)
        cases = (
            (MODEL, psi(np.sqrt(0.3), np.sqrt(0.7))),
            (MODEL, Gemenge(((psi(1.0, 0.0), 0.3), (psi(0.0, 1.0), 0.7)))),
            (env, system_state(env, [np.sqrt(0.3), 1j * np.sqrt(0.7)])),
            (
                three,
                Gemenge(
                    (
                        (system_state(three, [0.6, 0.8, 0.0]), 0.25),
                        (system_state(three, [1.0, 0.0, 0.0]), 0.0),
                        (system_state(three, [0.5j, 0.5, 0.5**0.5]), 0.75),
                    )
                ),
            ),
        )
        for model, source in cases:
            batch = run_ensemble(model, source, 200, 17)
            reference = [
                run_event(model, source, event_rng(17, i), event_index=i, seed=17)[0]
                for i in range(200)
            ]
            assert list(batch) == reference

    def test_environment_pipeline_keeps_purity(self):
        model = env_model(e_overlap=0.5)
        _, doublet = run_event(model, system_state(model, [np.sqrt(0.3), np.sqrt(0.7)]), event_rng(1, 0))
        assert doublet.dynamical.layout == full_layout(model)
        assert purity(doublet.dynamical) == pytest.approx(1.0, abs=1e-9)


class TestEventStreams:
    def test_batch_uniforms_match_per_event_generators(self):
        # The vectorized stream kernel must be bit-identical to the
        # per-event generators it replaces.
        from segalsim._philox import event_uniforms

        for seed in (0, 1, 987654321, 2**63, 2**64 - 2, 2**64 - 1):
            batch = event_uniforms(seed, 25, 3)
            for i in range(25):
                g = event_rng(seed, i)
                reference = [g.random() for _ in range(3)]
                assert batch[i].tolist() == reference

    def test_batch_uniforms_match_across_kernel_chunks(self, monkeypatch):
        from segalsim import _philox

        monkeypatch.setattr(_philox, "_CHUNK", 4)
        batch = _philox.event_uniforms(2**64 - 1, 10, 2)
        for i in range(10):
            g = event_rng(2**64 - 1, i)
            assert batch[i].tolist() == [g.random(), g.random()]

    def test_block_kernel_matches_at_large_event_indices(self):
        # Event indices past 2**32 fill the high key word's upper half;
        # the kernel takes the indices directly, so none of the events
        # before them are evaluated.
        from segalsim._philox import _first_block

        indices = [2**32 - 1, 2**32, 2**40, 2**63]
        for seed in (0, 2**63, 2**64 - 2, 2**64 - 1):
            batch = _first_block(seed, np.array(indices, dtype=np.uint64), 4)
            for row, i in zip(batch, indices):
                g = event_rng(seed, i)
                assert row.tolist() == [g.random() for _ in range(4)]

    def test_event_rng_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            event_rng(2**64, 0)


class TestBornAgreement:
    def test_twenty_random_amplitude_pairs(self):
        rng = np.random.default_rng(2718)
        n = 100_000
        for trial in range(20):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            p1 = abs(a[0]) ** 2
            records = run_ensemble(MODEL, system_state(MODEL, a), n, seed=trial)
            freq = pointer_histogram(MODEL, records) / n
            band = 4 * np.sqrt(p1 * (1 - p1) / n)
            assert abs(freq[1] - p1) <= band, f"pair {trial}: {freq[1]} vs {p1}"


class TestEnvironmentCoupling:
    def test_orthogonal_branches_kill_coherences(self):
        model = env_model(e_overlap=0.0)
        rho_ms = density_from_vector(premeasure(model, system_state(model, [2**-0.5, 2**-0.5])))
        rho_full = couple_environment(model, rho_ms)
        back = reduce_density(rho_full, {"S", "O"})
        lay = ms_layout(model)
        i, j = lay.basis_index((0, 1)), lay.basis_index((1, 2))
        assert abs(back.matrix[i, j]) <= 1e-12
        assert back.matrix[i, i] == pytest.approx(0.5, abs=1e-12)

    def test_partial_overlap_scales_coherences(self):
        model = env_model(e_overlap=0.5)
        rho_ms = density_from_vector(premeasure(model, system_state(model, [2**-0.5, 2**-0.5])))
        back = reduce_density(couple_environment(model, rho_ms), {"S", "O"})
        lay = ms_layout(model)
        i, j = lay.basis_index((0, 1)), lay.basis_index((1, 2))
        assert abs(back.matrix[i, j]) == pytest.approx(0.25, abs=1e-10)

    def test_branch_overlaps_as_configured(self):
        from segalsim.measurement import _environment_branch_vectors

        model = env_model(e_overlap=0.5)
        vecs = _environment_branch_vectors(model)
        for i, v in enumerate(vecs):
            assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)
            for w in vecs[i + 1 :]:
                assert np.vdot(v, w).real == pytest.approx(0.5, abs=1e-12)

    def test_restriction_unchanged_by_decoherence(self):
        # The register's effective algebra gives the same view with or
        # without the environment trace.
        model = env_model(e_overlap=0.0)
        rho_ms = density_from_vector(
            premeasure(model, system_state(model, [np.sqrt(0.3), np.sqrt(0.7)]))
        )
        rho_after = reduce_density(couple_environment(model, rho_ms), {"S", "O"})
        alg = pointer_algebra(model, environment=False)
        phi_pure = restrict_state(rho_ms, alg)
        phi_after = restrict_state(rho_after, alg)
        assert np.max(np.abs(phi_pure.values - phi_after.values)) <= 1e-9

    def test_requires_environment(self):
        rho_ms = density_from_vector(premeasure(MODEL, psi(1.0, 0.0)))
        with pytest.raises(ValueError, match="no environment"):
            couple_environment(MODEL, rho_ms)


class TestExtractPointerBasis:
    def lab_state(self, model, a1, a2):
        rho_ms = density_from_vector(premeasure(model, system_state(model, [a1, a2])))
        return couple_environment(model, rho_ms)

    def overlaps(self, vectors, indices):
        return np.array([[abs(v[i]) for i in indices] for v in vectors])

    def test_distinct_weights(self):
        model = env_model(e_overlap=0.0)
        report = extract_pointer_basis(self.lab_state(model, np.sqrt(0.3), np.sqrt(0.7)))
        assert report.flag == "UNIQUE"
        assert len(report.vectors) == 2
        table = self.overlaps(report.vectors, (1, 2))
        # each recovered vector coincides with one register basis state
        assert np.allclose(np.sort(table.max(axis=1)), [1.0, 1.0], atol=1e-8)
        assert np.allclose(np.sort(table.flatten())[:2], [0.0, 0.0], atol=1e-8)

    def test_degenerate_weights_resolved_by_conditioning(self):
        model = env_model(e_overlap=0.0)
        report = extract_pointer_basis(self.lab_state(model, 2**-0.5, 2**-0.5))
        assert report.flag == "UNIQUE"
        table = self.overlaps(report.vectors, (1, 2))
        assert np.allclose(np.sort(table.max(axis=1)), [1.0, 1.0], atol=1e-8)

    def test_degenerate_with_overlapping_environment(self):
        model = env_model(e_overlap=0.5)
        report = extract_pointer_basis(self.lab_state(model, 2**-0.5, 2**-0.5))
        assert report.flag == "UNIQUE"
        table = self.overlaps(report.vectors, (1, 2))
        assert np.allclose(np.sort(table.max(axis=1)), [1.0, 1.0], atol=1e-8)

    def test_product_state(self):
        model = env_model()
        lay = full_layout(model)
        rho = density_from_vector(basis_state(lay, (0, 1, 1)))
        report = extract_pointer_basis(rho)
        assert report.flag == "UNIQUE"
        assert len(report.vectors) == 1
        assert abs(report.vectors[0][1]) == pytest.approx(1.0, abs=1e-10)

    def test_non_tri_form_rejected(self):
        model = env_model()
        lay = full_layout(model)
        rho = DensityMatrix(lay, identity(lay.dim) / lay.dim)
        with pytest.raises(ValueError, match="tri-decomposable"):
            extract_pointer_basis(rho)


class TestPointerStateStability:
    O_LAYOUT = SpaceLayout((("O", 3),))

    def test_pointer_state_stays_pure(self):
        model = env_model()
        t_grid = np.linspace(0.0, 2.0, 9)
        purities = pointer_state_stability(
            model, StateVector(self.O_LAYOUT, [0.0, 1.0, 0.0]), t_grid
        )
        assert np.max(np.abs(purities - 1.0)) <= 1e-9

    def test_superposition_dephases_monotonically(self):
        model = env_model()
        t_grid = np.linspace(0.0, 0.35, 8)
        sup = StateVector(self.O_LAYOUT, np.array([0.0, 1.0, 1.0]) / np.sqrt(2))
        purities = pointer_state_stability(model, sup, t_grid)
        assert purities[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(purities) < 0)
        assert purities[1] < 1.0 - 1e-6

    def test_zero_coupling_is_static(self):
        model = env_model(coupling=0.0)
        sup = StateVector(self.O_LAYOUT, np.array([0.0, 1.0, 1.0]) / np.sqrt(2))
        purities = pointer_state_stability(model, sup, np.linspace(0.0, 2.0, 5))
        assert np.max(np.abs(purities - 1.0)) <= 1e-12


class TestWignerFriend:
    def test_balanced_superposition(self):
        report = wigner_friend_report(MODEL, psi(2**-0.5, 2**-0.5), 100_000, seed=1)
        assert report.b_expectation == pytest.approx(1.0, abs=1e-10)
        assert report.dynamical_purity == pytest.approx(1.0, abs=1e-10)
        band = 3 * np.sqrt(0.25 / report.n_events)
        assert abs(report.frequencies[1] - 0.5) <= band
        assert report.breuer_pointer.indistinguishable
        assert not report.breuer_with_interference.indistinguishable

    def test_no_superposition(self):
        report = wigner_friend_report(MODEL, psi(1.0, 0.0), 2_000, seed=32)
        assert report.b_expectation == pytest.approx(0.0, abs=1e-12)
        assert report.histogram[1] == report.n_events
        assert np.allclose(report.restricted_probabilities, [0.0, 1.0, 0.0], atol=1e-10)

    def test_asymmetric_amplitudes(self):
        report = wigner_friend_report(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)), 50_000, seed=33)
        assert report.b_expectation == pytest.approx(2 * np.sqrt(0.21), abs=1e-10)
        band = 3 * np.sqrt(0.3 * 0.7 / report.n_events)
        assert abs(report.frequencies[1] - 0.3) <= band
        assert np.allclose(report.restricted_probabilities, [0.0, 0.3, 0.7], atol=1e-9)
