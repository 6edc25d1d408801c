import dataclasses
import gc
import itertools
import tracemalloc
import types

import numpy as np
import pytest

from segalsim.algebra import generate_algebra, joint_spectral_resolution
from segalsim.config import ALGEBRA_TOL, InvariantViolation
from segalsim.linalg import SpaceLayout, tensor, unitary_from_hamiltonian
from segalsim.measurement import (
    EnvironmentSpec,
    MeasurementModel,
    branch_mixture,
    full_layout,
    interference_expectation,
    interference_observable,
    make_model,
    ms_layout,
    pointer_algebra,
    pointer_characters,
    pointer_histogram,
    pointer_operator,
    premeasure,
    ready_state,
    restricted_pointer_probabilities,
    run_ensemble,
    system_layout,
    system_state,
)
from segalsim.model import _environment_records
from segalsim.pointer import _environment_characters, _interference_pair, _pointer_weights, _ready_pointer_swap, _setup
from segalsim.decoherence import (
    environment_coherence,
    environment_pointer_basis,
    pointer_basis_of_factors,
    pointer_state_stability,
)
from segalsim.doublet import (
    _information_of,
    evolve_sle,
    evolve_unitary,
    initial_doublet,
    interaction_hamiltonian,
    record_erasure,
)
from segalsim.wigner import _breuer_verdicts, wigner_friend_report
from segalsim.restriction import (
    breuer_indistinguishable,
    character_probabilities,
    extremal_states,
    restrict_state,
)
from segalsim.states import (
    DensityMatrix,
    Gemenge,
    StateVector,
    basis_state,
    density_from_vector,
    expectation,
)

import _oracles
from _oracles import (
    all_pairs_closure,
    character_table,
    conditioned_blocks,
    couple_environment,
    dense_pointer_basis,
    dense_wigner_verdicts,
    environment_unitary_oracle,
    event_rng,
    extract_pointer_basis,
    gemenge_mix,
    identity,
    interference_algebra,
    joint_resolution_oracle,
    kron_oracle,
    layout_subset,
    partial_trace,
    pipeline_image,
    premeasurement_unitary,
    purity,
    reduce_density,
    run_event,
    traced_block,
    vector_fidelity,
)

MODEL = make_model()


def wide_gemenge():
    """A 40-row ensemble at s_dim 3, o_dim 9: its (row, pointer) codes run
    past 256 while each of the two columns fits one byte."""
    model = make_model(s_dim=3, o_dim=9)
    rng = np.random.default_rng(40)
    amps = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    weights = rng.random(40)
    weights[7] = 0.0  # a row that is never drawn
    rows = tuple(
        (system_state(model, a / np.linalg.norm(a)), w / weights.sum()) for a, w in zip(amps, weights)
    )
    return model, Gemenge(rows)


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
        from segalsim.doublet import StatisticalDoublet

        with pytest.raises(InvariantViolation, match="inconsistent"):
            StatisticalDoublet(theta.dynamical, np.array([0.0, 0.5, 0.5]), theta.characters)


class TestRunEvent:
    def test_eigenstate_input(self):
        rng = event_rng(7, 0)
        record, event = run_event(MODEL, psi(0.0, 1.0), rng)
        assert record.pointer_index == 2
        assert record.impression == MODEL.qo_values[2] == -1.0
        assert record.probability == pytest.approx(1.0, abs=1e-10)
        assert purity(event.doublet().dynamical) == pytest.approx(1.0, abs=1e-9)

    def test_impression_matches_character(self):
        record, event = run_event(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)), event_rng(11, 0))
        assert abs(event.information.pointer_value() - record.impression) <= 1e-7

    def test_dynamical_component_not_collapsed(self):
        # The external account stays pure whatever the register sampled.
        post = premeasure(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)))
        for i in range(10):
            _, event = run_event(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)), event_rng(3, i))
            assert np.array_equal(event.state.amplitudes, post.amplitudes)
            if i < 3:  # the dense doublet of the same image
                dense = event.doublet().dynamical.matrix
                assert np.max(np.abs(dense - density_from_vector(post).matrix)) <= 1e-12

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
        self._assert_ensemble_matches_per_event_reference()

    def test_ensemble_matches_per_event_reference_across_blocks(self, monkeypatch):
        # Blocks of four events: each block groups its own events by row,
        # and most blocks draw only some of the rows.
        from segalsim import _philox

        monkeypatch.setattr(_philox, "_CHUNK", 4)
        self._assert_ensemble_matches_per_event_reference()

    @staticmethod
    def _assert_ensemble_matches_per_event_reference():
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
        wide_model, wide_source = wide_gemenge()
        many_pointers = make_model(s_dim=2, o_dim=257)
        cases += (
            # rows x o_dim codes past 256, each column still one byte
            (wide_model, wide_source),
            # a pointer column past 256 values
            (many_pointers, system_state(many_pointers, [0.6, 0.8j])),
        )
        for model, source in cases:
            n = 200 if model.o_dim <= 256 else 1000
            batch = run_ensemble(model, source, n, 17)
            events = [run_event(model, source, event_rng(17, i), event_index=i, seed=17) for i in range(n)]
            # The batch draws from the restricted S (x) O probabilities, the
            # reference from the S (x) O (x) E image: the outcomes agree, the
            # probabilities to a few ulps of their sums' order.
            for got, (want, _) in zip(batch, events, strict=True):
                assert dataclasses.replace(got, probability=want.probability) == want
                assert abs(got.probability - want.probability) <= 8 * np.spacing(want.probability)
            for _, event in events[:3]:  # the dense doublet is a valid pure state
                assert purity(event.doublet().dynamical) == pytest.approx(1.0, abs=1e-9)
            assert batch.pointer_index.dtype == (np.uint16 if model.o_dim > 256 else np.uint8)
            assert batch.gemenge_row is None or batch.gemenge_row.dtype == np.uint8

    def test_wide_gemenge_log_matches_per_event_records(self):
        # The log reads its probabilities from the batch's table, as the
        # batch's own records do, so the rows are formatted from run_event.
        from segalsim import serialize

        model, source = wide_gemenge()
        lines = [",".join(serialize._EVENT_COLUMNS)]
        for i in range(200):
            r = run_event(model, source, event_rng(17, i), event_index=i, seed=17)[0]
            lines.append(f"{i},{r.gemenge_row},{r.pointer_index},{r.impression:.12g},{r.probability:.12g}")
        batch = run_ensemble(model, source, 200, 17)
        assert int(batch.gemenge_row.max()) * model.o_dim > 255  # codes drawn past one byte
        log = b"".join(map(bytes, serialize._event_log(batch)))
        assert log == ("\n".join(lines) + "\n").encode("ascii")

    def test_off_system_source_rejected_alike(self):
        # run_event, run_ensemble and premeasure share one layout check.
        on_ms = premeasure(MODEL, psi(0.6, 0.8))
        mixed = Gemenge(((on_ms, 1.0),))
        for source, message in ((on_ms, "input state"), (mixed, "ensemble rows")):
            with pytest.raises(ValueError, match=f"{message} must live on the bare system layout"):
                run_event(MODEL, source, event_rng(1, 0))
            with pytest.raises(ValueError, match=f"{message} must live on the bare system layout"):
                run_ensemble(MODEL, source, 10, 1)
        with pytest.raises(ValueError, match="input state must live on the bare system layout"):
            premeasure(MODEL, on_ms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_input_fails_closed(self, bad):
        # A state whose amplitudes skipped StateVector's check.  Let through,
        # a NaN would draw pointer 2 for every event and restrict to [0, 0, 0].
        state = system_state(MODEL, [1.0, 0.0])
        object.__setattr__(state, "amplitudes", np.array([bad, 0.0], dtype=complex))
        with pytest.raises(InvariantViolation):
            run_ensemble(MODEL, state, 10, 1)
        with pytest.raises(InvariantViolation):
            restricted_pointer_probabilities(MODEL, state)
        with pytest.raises(InvariantViolation):
            system_state(MODEL, [bad, 1.0])

    def test_environment_pipeline_keeps_purity(self):
        model = env_model(e_overlap=0.5)
        _, event = run_event(model, system_state(model, [np.sqrt(0.3), np.sqrt(0.7)]), event_rng(1, 0))
        dynamical = event.doublet().dynamical
        assert dynamical.layout == full_layout(model)
        assert purity(dynamical) == pytest.approx(1.0, abs=1e-9)


class TestEventStreams:
    def test_ensemble_makes_no_temporaries_of_its_length(self):
        # Beyond what the batch holds, what run_ensemble and the histogram
        # allocate does not grow with the event count; the batch holds one
        # byte per event and column.
        w = Gemenge(((psi(1.0, 0.0), 0.3), (psi(0.6, 0.8), 0.7)))
        run_ensemble(MODEL, w, 10, 1)  # per-model setup, outside the trace
        extra = []
        for n in (2**17, 2**19):
            tracemalloc.start()
            batch = run_ensemble(MODEL, w, n, 1)
            pointer_histogram(MODEL, batch)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert batch.pointer_index.nbytes + batch.gemenge_row.nbytes == 2 * n
            held = (batch.pointer_index, batch.gemenge_row, batch.outcome_probability)
            extra.append(peak - sum(array.nbytes for array in held))
        assert extra[1] - extra[0] < 2**16

    def test_one_event_block_alive_at_a_time(self):
        # Beyond the batch, a run's peak is one block of 2**13 events: the
        # Philox kernel's eight uint64 buffers, 512 KiB, with no array of
        # the previous block beside them (its uniforms alone are 128 KiB
        # at two draws) and the key and scratch buffers dropped before the
        # block's uniforms are made.  The peak reads 0.50 MiB; keeping the
        # previous block reads 0.75, keeping the kernel's buffers 0.63,
        # and blocks of 2**14 events 1.00.
        w = Gemenge(((psi(1.0, 0.0), 0.3), (psi(0.6, 0.8), 0.7)))
        run_ensemble(MODEL, w, 10, 1)  # per-model setup, outside the trace
        tracemalloc.start()
        batch = run_ensemble(MODEL, w, 2 * 10**5, 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        held = (batch.pointer_index, batch.gemenge_row, batch.outcome_probability)
        assert peak - sum(array.nbytes for array in held) < 0.6 * 2**20

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

    def test_uniform_blocks_split_the_batch(self, monkeypatch):
        from segalsim import _philox

        monkeypatch.setattr(_philox, "_CHUNK", 4)
        blocks = list(_philox.uniform_blocks(5, 10, 2))
        assert [len(b) for b in blocks] == [4, 4, 2]
        assert np.array_equal(np.concatenate(blocks), _philox.event_uniforms(5, 10, 2))
        with pytest.raises(ValueError, match="seed"):
            _philox.uniform_blocks(2**64, 10, 2)  # checked at the call, not the first block

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
        model = env_model(e_overlap=0.5)
        records = _environment_records(model)
        ready, vecs = records[0], records[1 : model.s_dim + 1]
        assert ready.tolist() == [1.0] + [0.0] * 7
        for i, v in enumerate(vecs):
            assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)
            assert np.vdot(ready, v).real == pytest.approx(0.0, abs=1e-12)
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
    """The dense oracle on dense S (x) O (x) E states, and the package
    solver on factors of the same S-conditioned states beside it."""

    def lab_state(self, model, a1, a2):
        rho_ms = density_from_vector(premeasure(model, system_state(model, [a1, a2])))
        return couple_environment(model, rho_ms)

    def overlaps(self, vectors, indices):
        return np.array([[abs(v[i]) for i in indices] for v in vectors])

    def extract(self, rho):
        """The oracle's report, once the package solver's report on factors
        W_i = V_i sqrt(lambda_i) of the same conditioned states agrees."""
        conditioned = conditioned_blocks(rho)
        factors = []
        for sigma in conditioned:
            values, vectors = np.linalg.eigh(sigma)
            factors.append(vectors * np.sqrt(np.clip(values, 0.0, None)))
        try:
            dense = dense_pointer_basis(conditioned)
        except ValueError:
            with pytest.raises(ValueError, match="tri-decomposable"):
                pointer_basis_of_factors(np.array(factors))
            raise
        report = pointer_basis_of_factors(np.array(factors))
        assert report.flag == dense.flag
        assert np.allclose(report.weights, dense.weights, rtol=0, atol=1e-14)
        assert report.residual == pytest.approx(dense.residual, abs=1e-14)
        # The same weighted register basis; resolved vectors agree up to a phase.
        v, dense_v = np.array(report.vectors), np.array(dense.vectors)
        assert np.allclose((v.T * report.weights) @ v.conj(), (dense_v.T * dense.weights) @ dense_v.conj(), atol=1e-14)
        if dense.flag == "UNIQUE":
            assert np.allclose(np.abs(np.sum(v.conj() * dense_v, axis=1)), 1.0, rtol=0, atol=1e-12)
        return dense

    def test_distinct_weights(self):
        model = env_model(e_overlap=0.0)
        report = self.extract(self.lab_state(model, np.sqrt(0.3), np.sqrt(0.7)))
        assert report.flag == "UNIQUE"
        assert len(report.vectors) == 2
        table = self.overlaps(report.vectors, (1, 2))
        # each recovered vector coincides with one register basis state
        assert np.allclose(np.sort(table.max(axis=1)), [1.0, 1.0], atol=1e-8)
        assert np.allclose(np.sort(table.flatten())[:2], [0.0, 0.0], atol=1e-8)

    def test_degenerate_weights_resolved_by_conditioning(self):
        model = env_model(e_overlap=0.0)
        report = self.extract(self.lab_state(model, 2**-0.5, 2**-0.5))
        assert report.flag == "UNIQUE"
        table = self.overlaps(report.vectors, (1, 2))
        assert np.allclose(np.sort(table.max(axis=1)), [1.0, 1.0], atol=1e-8)

    def test_degenerate_with_overlapping_environment(self):
        model = env_model(e_overlap=0.5)
        report = self.extract(self.lab_state(model, 2**-0.5, 2**-0.5))
        assert report.flag == "UNIQUE"
        table = self.overlaps(report.vectors, (1, 2))
        assert np.allclose(np.sort(table.max(axis=1)), [1.0, 1.0], atol=1e-8)

    def test_product_state(self):
        model = env_model()
        lay = full_layout(model)
        rho = density_from_vector(basis_state(lay, (0, 1, 1)))
        report = self.extract(rho)
        assert report.flag == "UNIQUE"
        assert len(report.vectors) == 1
        assert abs(report.vectors[0][1]) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_cluster_unresolved(self):
        # Branch s leaves the register in u_s = sqrt(0.6) O_0 + sqrt(0.4) g_s,
        # the g_s three unit vectors 120 degrees apart in span{O_1, O_2}.
        # The O marginal is diag(0.6, 0.2, 0.2), and no branch has half its
        # weight in the degenerate 0.2 cluster, so nothing resolves it.
        lay = SpaceLayout((("S", 3), ("O", 3), ("E", 3)))
        amplitudes = np.zeros(lay.dim, dtype=complex)
        for s in range(3):
            u = [np.sqrt(0.6), np.sqrt(0.4) * np.cos(2 * np.pi * s / 3), np.sqrt(0.4) * np.sin(2 * np.pi * s / 3)]
            for j in range(3):
                amplitudes[lay.basis_index((s, j, s))] = u[j] / np.sqrt(3)
        report = self.extract(density_from_vector(StateVector(lay, amplitudes)))
        assert report.flag == "DEGENERATE-UNRESOLVED"
        assert np.allclose(report.weights, [0.2, 0.2, 0.6], atol=1e-12)
        assert report.residual == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_branches_at_120_degrees_unresolved_in_every_order(self, order):
        # Three equal-weight branches leave the register in g_0, g_1, g_2,
        # 120 degrees apart in span{O_1, O_2}: the O marginal is I / 2 there,
        # one degenerate cluster.  Each branch lies in it, but g_1 is
        # neither parallel nor orthogonal to g_0, so whichever two branches
        # came first would pick the basis; no order may resolve it.
        lay = SpaceLayout((("S", 3), ("O", 3), ("E", 3)))
        amplitudes = np.zeros(lay.dim, dtype=complex)
        for s, k in enumerate(order):
            angle = 2 * np.pi * k / 3
            amplitudes[lay.basis_index((s, 1, s))] = np.cos(angle) / np.sqrt(3)
            amplitudes[lay.basis_index((s, 2, s))] = np.sin(angle) / np.sqrt(3)
        report = self.extract(density_from_vector(StateVector(lay, amplitudes)))
        assert report.flag == "DEGENERATE-UNRESOLVED"
        assert np.allclose(report.weights, [0.5, 0.5], atol=1e-12)

    def test_non_tri_form_rejected(self):
        model = env_model()
        lay = full_layout(model)
        rho = DensityMatrix(lay, identity(lay.dim) / lay.dim)
        with pytest.raises(ValueError, match="tri-decomposable"):
            self.extract(rho)


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
        assert list(report.events) == list(run_ensemble(MODEL, psi(1.0, 0.0), 2_000, 32))
        assert np.array_equal(pointer_histogram(MODEL, report.events), report.histogram)
        assert np.allclose(report.restricted_probabilities, [0.0, 1.0, 0.0], atol=1e-10)

    def test_asymmetric_amplitudes(self):
        report = wigner_friend_report(MODEL, psi(np.sqrt(0.3), np.sqrt(0.7)), 50_000, seed=33)
        assert report.b_expectation == pytest.approx(2 * np.sqrt(0.21), abs=1e-10)
        band = 3 * np.sqrt(0.3 * 0.7 / report.n_events)
        assert abs(report.frequencies[1] - 0.3) <= band
        assert np.allclose(report.restricted_probabilities, [0.0, 0.3, 0.7], atol=1e-9)

    def test_restricted_probabilities_zero_round_off(self):
        report = wigner_friend_report(MODEL, psi(0.6, 0.8j), 100, seed=13)
        assert report.restricted_probabilities[0] == 0.0
        assert np.allclose(report.restricted_probabilities, [0.0, 0.36, 0.64], atol=1e-12)

    def test_verdicts_build_no_dense_pointer_basis(self):
        # The Breuer verdict reads the restricted values only, so the
        # pointer algebra's o dense d x d basis elements are never made.
        # A model no other test uses, so its cached algebra is fresh.
        model = make_model(s_dim=2, o_dim=6, qo_values=[0.0, 1.0, -1.0, 2.5, 3.5, 4.5])
        source = system_state(model, [0.6, 0.8j])
        alg = pointer_algebra(model)
        assert alg._basis is None
        report = wigner_friend_report(model, source, 50, seed=3)
        assert report.breuer_pointer.indistinguishable
        assert not report.breuer_with_interference.indistinguishable
        rho_p = density_from_vector(premeasure(model, source))
        verdict = breuer_indistinguishable(rho_p, branch_mixture(model, source.amplitudes), alg)
        assert verdict.indistinguishable and verdict.worst_label.startswith("basis[")
        assert pointer_algebra(model) is alg and alg._basis is None

    def test_verdicts_build_no_dense_pointer_generators(self):
        # The generator deviations read the diagonal generators as rows;
        # no dense d x d np.diag is built and cached on the algebra.
        model = make_model(s_dim=2, o_dim=5, qo_values=[0.5, 1.0, -1.0, 7.0, -3.0])
        report = wigner_friend_report(model, system_state(model, [0.8, 0.6]), 50, seed=5)
        assert report.breuer_pointer.indistinguishable
        assert pointer_algebra(model)._generators is None


def wigner_grid():
    """Seeded (model, input, tol) triples for the wigner-friend verdicts:
    o_dim up to 20, default and drawn pointer values, and a coherence
    c = a_i conj(a_j) that is generic, real, imaginary, made with signed
    zeros, or exactly 0."""
    rng = np.random.default_rng(27)
    for o_dim in (3, 4, 7, 20):
        qo = list(rng.permutation(o_dim) + rng.uniform(0.0, 0.5, o_dim))
        for model in (make_model(o_dim=o_dim), make_model(o_dim=o_dim, q_values=qo[1:3], qo_values=qo)):
            for n in range(12):
                x, y = rng.standard_normal(2), rng.standard_normal(2)
                amps = [
                    [complex(x[0], y[0]), complex(x[1], y[1])],  # generic
                    [complex(x[0], y[0]), complex(x[1], y[1])],
                    [complex(x[0], 0.0), complex(x[1], 0.0)],  # real
                    [complex(x[0], 0.0), complex(0.0, x[1])],  # imaginary
                    [complex(x[0], y[0]), complex(x[0], y[0]) * 1j],
                    [complex(-0.0, x[0]), complex(x[1], -0.0)],  # signed zeros, c != 0
                    [complex(-x[0], -0.0), complex(-0.0, -y[1])],
                    [complex(1.0, 0.0), complex(0.0, 0.0)],  # c = 0
                    [complex(0.0, 0.0), complex(x[1], y[1])],
                    [complex(-1.0, -0.0), complex(-0.0, -0.0)],
                    [complex(x[0], y[0]), complex(-0.0, 0.0)],
                    [complex(-0.0, -0.0), complex(-0.0, y[1])],
                ][n]
                amps = np.array(amps) / np.linalg.norm(amps)
                tol = 1e-8 if n % 2 else float(10 ** rng.uniform(-3, 0))
                yield model, system_state(model, amps), tol


class TestWignerVerdictsMatchDenseRoute:
    """The verdicts read from the premeasured amplitudes against the d x d
    superposition and branch mixture restricted to the pointer algebra and
    to the Gram-Schmidt closure of the pointer operator and B."""

    def test_verdicts_match(self):
        seen = set()
        for model, source, tol in wigner_grid():
            pointer, interference = _breuer_verdicts(model, premeasure(model, source).amplitudes, source.amplitudes, tol)
            dense_pointer, dense_interference = dense_wigner_verdicts(model, source, tol)
            assert vars(pointer) == vars(dense_pointer)  # bit for bit
            a = premeasure(model, source).amplitudes
            i, j = _interference_pair(model)
            c = a[i] * a[j].conj()
            if c == 0:
                # Only the diagonals' round-off is left, read by P in its own scale.
                seen.add("zero")
                scale = max(1.0, *map(abs, model.qo_values))
                for verdict in (interference, dense_interference):
                    assert verdict.indistinguishable and verdict.max_deviation <= 1e-15 * scale
                continue
            seen.add("real" if c.imag == 0 else "imaginary" if c.real == 0 else "generic")
            assert interference.indistinguishable == dense_interference.indistinguishable
            assert interference.worst_label == dense_interference.worst_label
            assert interference.max_deviation == pytest.approx(dense_interference.max_deviation, rel=1e-11, abs=0)
        assert seen == {"zero", "real", "imaginary", "generic"}

    def test_mixture_weights_checked(self):
        source = system_state(MODEL, [0.6, 0.8j])
        a = premeasure(MODEL, source).amplitudes
        with pytest.raises(InvariantViolation, match="branch mixture weights do not sum to 1"):
            _breuer_verdicts(MODEL, a, source.amplitudes * 1.001, 1e-8)

    @pytest.mark.parametrize("o_dim", [3, 4, 7, 20])
    def test_only_basis_2_and_4_read_the_coherence(self, o_dim):
        # The closure seeds I, P and B / sqrt(2), then adds P^2 and the
        # residual of B P; every later element is diagonal.
        model = make_model(o_dim=o_dim)
        alg = interference_algebra(model)
        i, j = _interference_pair(model)
        assert alg.dimension == o_dim + 4
        reading = [k for k, b in enumerate(alg.basis) if b[i, j] != 0 or b[j, i] != 0]
        assert reading == [2, 4]
        assert np.allclose(alg.basis[2], interference_observable(model) / np.sqrt(2), rtol=0, atol=1e-15)
        # (|i><j| - |j><i|) / sqrt(2), up to sign.
        assert abs(alg.basis[4][i, j]) == pytest.approx(2**-0.5, abs=1e-15)
        assert alg.basis[4][j, i] == pytest.approx(-alg.basis[4][i, j], abs=1e-15)


def random_vector(rng, layout):
    amp = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return StateVector(layout, amp / np.linalg.norm(amp))


def random_density(rng, layout):
    a = rng.standard_normal((layout.dim,) * 2) + 1j * rng.standard_normal((layout.dim,) * 2)
    m = a @ a.conj().T
    return DensityMatrix(layout, m / np.trace(m))


MASK_MODELS = [MODEL, make_model(s_dim=3, o_dim=4, environment={"e_dim": 5})]


class TestMaskedPointerProbabilities:
    """The pointer algebras are diagonal, so their probabilities are masked
    sums; they must equal the dense <psi|P_k|psi> and tr(rho P_k)."""

    @pytest.mark.parametrize("model", MASK_MODELS, ids=["default", "s3-env"])
    @pytest.mark.parametrize("environment", [True, False])
    def test_character_probabilities_match_dense(self, model, environment):
        alg = pointer_algebra(model, environment=environment)
        basis, _ = all_pairs_closure(list(alg.generators), alg.layout.dim)
        _, _, oracle_projectors = joint_resolution_oracle(basis, list(alg.generators))
        rng = np.random.default_rng(41)
        for _ in range(5):
            xi = random_vector(rng, alg.layout)
            amp = xi.amplitudes
            dense = [float(np.vdot(amp, c.projector @ amp).real) for c in extremal_states(alg)]
            probs = character_probabilities(xi, alg)
            assert np.allclose(probs, dense, atol=1e-12)
            oracle = [float(np.vdot(amp, p @ amp).real) for p in oracle_projectors]
            assert np.allclose(probs, oracle, atol=1e-10)

    @pytest.mark.parametrize("model", MASK_MODELS, ids=["default", "s3-env"])
    @pytest.mark.parametrize("environment", [True, False])
    def test_information_matches_dense(self, model, environment):
        chars = pointer_characters(model, environment=environment)
        rng = np.random.default_rng(42)
        for _ in range(5):
            rho = random_density(rng, chars[0].algebra.layout)
            dense = [float(np.trace(rho.matrix @ c.projector).real) for c in chars]
            diagonal = chars[0].algebra.eigenbasis_diagonal(rho.matrix)
            classes = [c.projector_index for c in chars]
            assert np.allclose(_information_of(diagonal, chars[0].algebra, classes), dense, atol=1e-12)

    def test_restricted_pointer_probabilities_in_pointer_order(self):
        model = MASK_MODELS[1]
        rho = random_density(np.random.default_rng(43), ms_layout(model))
        chars = pointer_characters(model, environment=False)
        dense = [float(np.trace(rho.matrix @ c.projector).real) for c in chars]
        assert [c.pointer_value() for c in chars] == list(model.qo_values)
        assert np.allclose(_pointer_weights(model, np.diagonal(rho.matrix)), dense, atol=1e-12)

    def test_ms_characters_built_once(self):
        model = MASK_MODELS[1]
        first = pointer_characters(model, environment=False)
        again = pointer_characters(model, environment=False)
        assert all(a is b for a, b in zip(first, again))
        assert first[0].algebra is pointer_algebra(model, environment=False)


# (s_dim, o_dim, e_dim, e_overlap); o_dim > s_dim + 1 leaves spare pointer states.
ORACLE_MODELS = [
    (2, 3, 4, 0.0),
    (2, 5, 4, 0.3),
    (3, 4, 5, 0.9),
    (3, 6, 6, 0.3),
    (6, 7, 8, 0.0),
    (6, 9, 8, 0.9),
]


class TestEnvironmentRecordsOracle:
    """The coupling applied as the isometry on E ready, through the table of
    environment records, equals the full controlled-rotation unitary bit for
    bit: each entry is one product of the factors the dense route summed
    with exact zeros."""

    @pytest.mark.parametrize("dims", ORACLE_MODELS, ids=str)
    def test_oracle_is_unitary(self, dims):
        u = environment_unitary_oracle(*dims)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)

    @pytest.mark.parametrize("dims", ORACLE_MODELS, ids=str)
    def test_couple_environment_matches_unitary(self, dims):
        s_dim, o_dim, e_dim, overlap = dims
        model = make_model(s_dim, o_dim, environment={"e_dim": e_dim, "e_overlap": overlap})
        u = environment_unitary_oracle(*dims)
        e_ready = np.zeros((e_dim, e_dim), dtype=complex)
        e_ready[0, 0] = 1.0
        rng = np.random.default_rng(sum(dims[:3]))
        for _ in range(5):
            rho = random_density(rng, ms_layout(model))
            expected = u @ np.kron(rho.matrix, e_ready) @ u.conj().T
            assert np.array_equal(couple_environment(model, rho).matrix, expected)

    @pytest.mark.parametrize(
        "dims", ORACLE_MODELS + [(2, 3, None, 0.0), (3, 5, None, 0.0)], ids=str
    )
    def test_pipeline_image_matches_unitary(self, dims):
        s_dim, o_dim, e_dim, overlap = dims
        environment = None if e_dim is None else {"e_dim": e_dim, "e_overlap": overlap}
        model = make_model(s_dim, o_dim, environment=environment)
        pipeline = premeasurement_unitary(model)
        if e_dim is not None:
            pipeline = environment_unitary_oracle(*dims) @ np.kron(pipeline, np.eye(e_dim))
        ready = np.zeros(pipeline.shape[0] // s_dim, dtype=complex)
        ready[0] = 1.0
        rng = np.random.default_rng(sum(dims[:2]))
        for trial in range(6):
            psi_s = random_vector(rng, system_layout(model))
            amp = np.where(np.arange(s_dim) == trial % s_dim, 0.0, psi_s.amplitudes)
            psi_s = StateVector(psi_s.layout, amp / np.linalg.norm(amp))
            image = pipeline_image(model, psi_s).amplitudes
            assert np.array_equal(image, pipeline @ np.kron(psi_s.amplitudes, ready))


# The four zeros a sign can give a complex amplitude.
SIGNED_ZEROS = [complex(-0.0, -0.0), complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]


def signed_zero_amplitudes(rng, n, trial):
    """Random normalized amplitudes, a third of them all in the negative
    quadrant, with about a third of the entries one of the signed zeros."""
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if trial % 3 == 1:
        a = -np.abs(a.real) - 1j * np.abs(a.imag)
    a[rng.random(n) < 0.3] = SIGNED_ZEROS[trial % 4]
    if not np.any(a):
        a[0] = 1.0
    return a / np.linalg.norm(a)


def twelve_digits(values):
    """The values as a report prints them."""
    return [f"{float(v):.12g}" for v in values]


def same_bits(x, y):
    """Equal as stored: signed zeros count."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestVectorRoutesMatchDenseRoute:
    """The scenario path reads the post-measurement state from amplitudes;
    each read must equal, bit for bit, what the dense route through density
    matrices, the premeasurement unitary and the coupled V rho V^dag gives."""

    @pytest.mark.parametrize("dims", [(2, 3), (2, 5), (3, 4), (5, 7), (8, 9), (12, 14)], ids=str)
    def test_swap_matches_unitary(self, dims):
        model = make_model(*dims)
        u = premeasurement_unitary(model)
        rng = np.random.default_rng(sum(dims))
        for trial in range(12):
            v = signed_zero_amplitudes(rng, ms_layout(model).dim, trial)
            assert same_bits(_ready_pointer_swap(model, v), u @ v)
            psi_s = system_state(model, signed_zero_amplitudes(rng, model.s_dim, trial))
            ready = ready_state(model, psi_s).amplitudes
            assert same_bits(premeasure(model, psi_s).amplitudes, u @ ready)
            assert same_bits(_ready_pointer_swap(model, premeasure(model, psi_s).amplitudes), u @ (u @ ready))

    @pytest.mark.parametrize("spare", [0, 2])
    @pytest.mark.parametrize("s_dim", [2, 3, 5, 8, 12])
    def test_restricted_probabilities_and_interference(self, s_dim, spare):
        model = make_model(s_dim, s_dim + 1 + spare)
        rng = np.random.default_rng(100 * s_dim + spare)
        for trial in range(12):
            psi_s = system_state(model, signed_zero_amplitudes(rng, s_dim, trial))
            weights = rng.random(1 + trial % 4)
            weights[rng.random(weights.size) < 0.2] = 0.0
            weights[0] += weights.sum() == 0.0
            rows = tuple(
                (system_state(model, signed_zero_amplitudes(rng, s_dim, trial + k)), float(p))
                for k, p in enumerate(weights / weights.sum())
            )
            ensemble = Gemenge(rows)
            dense = {
                psi_s: density_from_vector(premeasure(model, psi_s)),
                ensemble: gemenge_mix(Gemenge(tuple((premeasure(model, st), p) for st, p in rows))),
            }
            for source, rho in dense.items():
                assert same_bits(
                    restricted_pointer_probabilities(model, source),
                    _oracles.restricted_pointer_probabilities(model, rho),
                )
                if s_dim == 2:
                    b = expectation(rho, interference_observable(model))
                    assert same_bits(interference_expectation(model, source), b)

    @pytest.mark.parametrize(
        "dims", ORACLE_MODELS + [(2, 3, 20, 0.5), (2, 3, 130, 0.3), (4, 5, 6, 0.5)], ids=str
    )
    def test_decoherence_reads(self, dims):
        s_dim, o_dim, e_dim, overlap = dims
        model = make_model(s_dim, o_dim, environment={"e_dim": e_dim, "e_overlap": overlap})
        records = _environment_records(model)
        rng = np.random.default_rng(sum(dims[:3]))
        for trial in range(6):
            amp = signed_zero_amplitudes(rng, s_dim, trial)
            if trial == 5:
                amp = np.full(s_dim, s_dim**-0.5, dtype=complex)  # degenerate pointer weights
            psi_s = system_state(model, amp)
            full = couple_environment(model, density_from_vector(premeasure(model, psi_s)))
            back = reduce_density(full, {"S", "O"})
            assert same_bits(environment_coherence(model, psi_s), abs(complex(back.matrix[1, o_dim + 2])))
            table = premeasure(model, psi_s).amplitudes.reshape(s_dim, o_dim)
            blocks = np.array([traced_block(records, a, a) for a in table])
            t = full.matrix.reshape(full.layout.dims * 2)
            o_e = layout_subset(full.layout, {"O", "E"})
            for i, block in enumerate(blocks):
                dense_block = t[i, :, :, i].reshape(o_e.dim, o_e.dim)
                assert same_bits(block, partial_trace(dense_block, o_e, {"O"}))
                assert same_bits(np.trace(block).real, np.trace(dense_block).real)
            assert same_bits(blocks.sum(axis=0), partial_trace(full.matrix, full.layout, {"O"}))
            report, dense_report = environment_pointer_basis(model, psi_s), extract_pointer_basis(full)
            assert report.flag == dense_report.flag
            assert same_bits(np.abs(report.vectors), np.abs(dense_report.vectors))
            # The SVD of the factors and the eigendecompositions of their
            # products part in the last bits, never at the report's 12 digits.
            assert twelve_digits(report.weights) == twelve_digits(dense_report.weights)
            assert twelve_digits([report.residual]) == twelve_digits([dense_report.residual])

    @pytest.mark.parametrize("dims", [(2, 3), (2, 5), (3, 4), (5, 8), (12, 14)], ids=str)
    def test_erasure_reads(self, dims):
        model = make_model(*dims)
        u = premeasurement_unitary(model)
        rng = np.random.default_rng(sum(dims) + 7)
        for trial in range(12):
            psi_s = system_state(model, signed_zero_amplitudes(rng, model.s_dim, trial))
            theta = initial_doublet(model, psi_s)
            forward = evolve_unitary(theta, u)
            back = evolve_unitary(forward, u.conj().T)
            initial, measured, recovered, fidelity = record_erasure(model, psi_s)
            assert same_bits(initial, theta.information)
            assert same_bits(measured, forward.information)
            assert same_bits(recovered, back.information)
            # <v|rho|v> sums in BLAS order over a d x d matrix, |<v|psi>|^2
            # over the recovered vector: they may part in the last two bits,
            # never at the twelve digits a report keeps.
            dense = vector_fidelity(back.dynamical, ready_state(model, psi_s))
            assert abs(fidelity - dense) <= 2 * np.finfo(float).eps
            assert f"{fidelity:.12g}" == f"{dense:.12g}"


def test_d720_pointer_setup():
    # d = 8 * 9 * 10: 25 s through a Gram-Schmidt closure, well under a
    # second on the diagonal classes.  A dense detour would show up as a
    # tier-1 run that is that much slower.
    model = make_model(s_dim=8, o_dim=9, environment={"e_dim": 10})
    alg = pointer_algebra(model, environment=True)
    assert alg.layout.dim == 720
    res = joint_spectral_resolution(alg)
    assert res.ranks == (80,) * 9
    assert res.generator_values[:, 0].tolist() == sorted(model.qo_values)
    chars = pointer_characters(model, environment=True)
    assert [c.pointer_value() for c in chars] == list(model.qo_values)
    ms_res = joint_spectral_resolution(pointer_algebra(model, environment=False))
    assert ms_res.ranks == (8,) * 9


@pytest.mark.parametrize("seed", range(4))
def test_pointer_classes_read_off_the_labels(seed):
    # The class of pointer j is the algebra's label at |s_0, O_j(, E_0)>,
    # on S (x) O and on S (x) O (x) E alike.  A spare pointer value sits
    # 0.5e-7 to 2e-7 from another (its own class: the merge width is
    # about 1e-8 here) or inside the merge width (one class, refused,
    # naming the first pointer value of that class).
    rng = np.random.default_rng([61, seed])
    offsets = [0.5e-7, -0.99e-7, 1e-7, -1.01e-7, 2e-7]
    for _ in range(30):
        o_dim = int(rng.integers(4, 12))
        environment = {"e_dim": int(rng.integers(4, 6))} if rng.random() < 0.5 else None
        qo = np.array(make_model(s_dim=2, o_dim=o_dim).qo_values)
        merged = None
        if rng.random() < 0.7:  # a spare pointer value next to another
            spare, partner = int(rng.integers(3, o_dim)), int(rng.integers(0, o_dim - 1))
            partner += partner >= spare
            width = ALGEBRA_TOL * np.max(np.abs(qo))
            if rng.random() < 0.3:
                qo[spare] = qo[partner] + rng.uniform(-0.5, 0.5) * width
                merged = min(spare, partner) if qo[spare] != qo[partner] else None
            else:
                qo[spare] = qo[partner] + rng.choice(offsets)
            if qo[spare] == qo[partner]:
                continue
        model = make_model(s_dim=2, o_dim=o_dim, qo_values=qo, environment=environment)
        e_dim = 1 if environment is None else environment["e_dim"]
        for env in (False, True):
            if merged is not None:
                message = f"pointer value {float(qo[merged])!r} does not match one character"
                with pytest.raises(InvariantViolation) as raised:
                    pointer_characters(model, env)
                assert str(raised.value) == message
                continue
            chars = pointer_characters(model, env)
            assert pointer_algebra(model, env).dimension == o_dim
            step = e_dim if env else 1
            for j, char in enumerate(chars):
                column = np.zeros(char.algebra.layout.dim)
                column[j * step] = 1.0
                assert np.array_equal(char.projector @ column, column)
                assert abs(char.pointer_value() - qo[j]) <= 1e-12 * max(1.0, abs(qo[j]))
        if merged is None:
            setup = _setup(model)
            assert np.array_equal(setup.pointer_class, [c.projector_index for c in setup.characters])
            assert np.array_equal(setup.class_pointer[setup.pointer_class], np.arange(o_dim))


def test_pointer_values_within_1e7_run():
    # Apart by more than the merge width, 5e-8 apart: four classes.
    model = make_model(s_dim=2, o_dim=4, qo_values=(0.0, 1.0, -1.0, 1.0 + 5e-8))
    assert pointer_algebra(model).dimension == 4
    assert [c.pointer_value() for c in pointer_characters(model)] == list(model.qo_values)
    psi_s = system_state(model, [0.6, 0.8])
    batch = run_ensemble(model, psi_s, 100, 5)
    assert pointer_histogram(model, batch).tolist()[3] == 0
    assert restricted_pointer_probabilities(model, psi_s).tolist() == pytest.approx([0.0, 0.36, 0.64, 0.0])


@pytest.mark.parametrize("case", ["pure", "gemenge", "environment"])
def test_outcome_probability_is_the_restricted_probabilities(case):
    # The sampler draws from the weights the report prints, bit for bit.
    if case == "gemenge":
        model, source = wide_gemenge()
        rows = [state for state, _ in source.rows]
    else:
        model = env_model(e_overlap=0.3, e_dim=5) if case == "environment" else make_model(s_dim=3, o_dim=6)
        source = system_state(model, [0.6, 0.8j] if model.s_dim == 2 else [0.6, 0.0, 0.8j])
        rows = [source]
    batch = run_ensemble(model, source, 50, 9)
    assert batch.outcome_probability.shape == (len(rows), model.o_dim)
    for row, state in zip(batch.outcome_probability, rows, strict=True):
        assert row.tobytes() == restricted_pointer_probabilities(model, state).tobytes()


def test_pure_run_with_environment_builds_one_pointer_algebra(monkeypatch):
    # One pointer algebra per scenario, on S (x) O: the environment is
    # left out of it, as the pointer algebra is the identity on E.
    from segalsim import pointer
    from segalsim.scenarios import parse_scenario, run_scenario

    built = []
    diagonal_algebra = pointer.diagonal_algebra
    monkeypatch.setattr(pointer, "diagonal_algebra", lambda values, layout: built.append(layout.dim) or diagonal_algebra(values, layout))
    cfg = parse_scenario(
        {
            "scenario": "pure",
            "model": {"s_dim": 3, "o_dim": 5, "environment": {"e_dim": 7}},
            "input": {"amplitudes": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]},
            "n_events": 100,
        }
    )
    _setup.cache_clear()
    _environment_characters.cache_clear()
    try:
        run_scenario(cfg)
    finally:
        _setup.cache_clear()
    assert built == [3 * 5]


def test_merged_pointer_values_are_refused():
    # Three spare pointer values within the algebra's merge width make one
    # class, whose mean matches one of them: the other two would read
    # that character's probability again, and the pointer probabilities
    # would sum past 1.
    model = make_model(
        s_dim=2, o_dim=5, q_values=(1000.0, -1.0), qo_values=(0.0, 1000.0, -1.0, 1000.0 + 4e-7, 1000.0 + 8e-7)
    )
    with pytest.raises(InvariantViolation, match="pointer value 1000.0 does not match one character"):
        pointer_characters(model)


DIAGONAL_MODELS = [
    MODEL,
    make_model(s_dim=2, o_dim=5),
    make_model(s_dim=3, o_dim=4, environment={"e_dim": 5}),
    make_model(s_dim=2, o_dim=5, environment={"e_dim": 6, "e_overlap": 0.4}),
]
DIAGONAL_IDS = ["default", "spare", "s3-env", "spare-env"]


def _reachable_arrays(root):
    """Every ndarray reachable from ``root`` through instance attributes
    and containers; classes, modules and functions are not followed."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
        ):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


class TestDiagonalPointerAlgebra:
    """The pointer algebras are built from the pointer diagonal; they must
    equal the algebra generate_algebra closes over the dense pointer operator,
    and the joint-eigenbasis algebra of the same operator turned by a unitary."""

    @pytest.mark.parametrize("model", DIAGONAL_MODELS, ids=DIAGONAL_IDS)
    @pytest.mark.parametrize("environment", [True, False])
    def test_matches_generate_algebra(self, model, environment):
        alg = pointer_algebra(model, environment=environment)
        dense = pointer_operator(model, alg.layout)
        ref = generate_algebra([dense], alg.layout)
        assert np.array_equal(alg.labels, ref.labels)
        assert np.array_equal(alg._class_values, ref._class_values)
        for char, other in zip(extremal_states(alg), extremal_states(ref), strict=True):
            assert char.projector_index == other.projector_index
            assert np.array_equal(char.values, other.values)
            assert np.array_equal(char.generator_values, other.generator_values)
        rng = np.random.default_rng(44)
        for _ in range(3):
            a = rng.standard_normal(dense.shape) + 1j * rng.standard_normal(dense.shape)
            assert np.array_equal(alg.project_coefficients(a), ref.project_coefficients(a))

    @pytest.mark.parametrize("model", DIAGONAL_MODELS, ids=DIAGONAL_IDS)
    @pytest.mark.parametrize("environment", [True, False])
    def test_matches_joint_eigenbasis_path(self, model, environment):
        alg = pointer_algebra(model, environment=environment)
        dense = pointer_operator(model, alg.layout)
        rng = np.random.default_rng(45)
        d = alg.layout.dim
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        turned = generate_algebra([u @ dense @ u.conj().T], alg.layout)
        assert turned.eigenvectors is not None
        assert np.allclose(turned._class_values, alg._class_values, atol=1e-9)
        assert np.array_equal(np.bincount(turned.labels), np.bincount(alg.labels))
        for _ in range(3):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert np.allclose(
                turned.project_coefficients(u @ a @ u.conj().T),
                alg.project_coefficients(a),
                atol=1e-9,
            )

    @pytest.mark.parametrize("model", DIAGONAL_MODELS, ids=DIAGONAL_IDS)
    @pytest.mark.parametrize("environment", [True, False])
    def test_generator_is_the_pointer_operator(self, model, environment):
        alg = pointer_algebra(model, environment=environment)
        (generator,) = alg.generators
        dense = pointer_operator(model, alg.layout)
        assert generator.dtype == dense.dtype and generator.tobytes() == dense.tobytes()
        factors = [
            np.diag(model.qo_values) if label == "O" else np.eye(dim)
            for label, dim in alg.layout.factors
        ]
        oracle = factors[0]
        for factor in factors[1:]:
            oracle = kron_oracle(oracle, factor)
        assert np.array_equal(generator, oracle)

    @pytest.mark.parametrize("model", DIAGONAL_MODELS, ids=DIAGONAL_IDS)
    @pytest.mark.parametrize("environment", [True, False])
    def test_matches_dense_closure_oracle(self, model, environment):
        # The class-label algebra against the all-pairs Gram-Schmidt closure
        # of the dense pointer operator and its randomized resolution, which
        # share no code with it.  The oracle's basis is another orthonormal
        # basis of the same span: compare on B_j = P_j / sqrt(rank_j) built
        # from the oracle projectors.
        alg = pointer_algebra(model, environment=environment)
        dense = pointer_operator(model, alg.layout)
        basis, commutative = all_pairs_closure([dense], alg.layout.dim)
        values, ranks, projectors = joint_resolution_oracle(basis, [dense])
        res = joint_spectral_resolution(alg)
        assert commutative and alg.commutative
        assert alg.dimension == len(basis) == len(projectors)
        assert res.ranks == ranks
        assert np.allclose(res.generator_values, values, atol=1e-12)
        oracle_basis = [p / np.sqrt(r) for p, r in zip(projectors, ranks)]
        table = [[np.trace(p @ b).real / r for b in oracle_basis] for p, r in zip(projectors, ranks)]
        assert np.allclose(character_table(alg), table, atol=1e-12)
        assert np.allclose([c.values for c in extremal_states(alg)], table, atol=1e-12)
        rng = np.random.default_rng(46)
        d = alg.layout.dim
        for _ in range(3):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            coefficients = [np.vdot(b, a) for b in oracle_basis]
            assert np.allclose(alg.project_coefficients(a), coefficients, atol=1e-12)

    def test_setup_holds_no_dense_array(self):
        model = make_model(s_dim=2, o_dim=40, environment={"e_dim": 15})
        d = ms_layout(model).dim
        assert d == 80
        setup = _setup.__wrapped__(model)  # a fresh setup, not the cached one
        assert setup.algebra.layout.dim == d
        # The class labels, the pointer diagonal and the (o_dim, e_dim)
        # environment records; no (classes, d) table and nothing of the
        # S (x) O (x) E layout.
        assert setup.records.shape == (40, 15)
        assert max(a.size for a in _reachable_arrays(setup) if a is not setup.records) <= d
        setup.algebra.generators  # made dense on first read, and kept
        assert max(a.size for a in _reachable_arrays(setup)) == d * d

    def test_setup_and_first_read_stay_small(self):
        # pure at s_dim 90, o_dim 91: d = 8190 in 91 classes.  A (classes, d)
        # float table alone would be 5.7 MiB; the setup and the first
        # restricted probabilities stay O(d).
        model = make_model(s_dim=90, o_dim=91)
        psi_s = system_state(model, np.full(90, 1 / np.sqrt(90)))
        _setup.cache_clear()
        tracemalloc.start()
        probs = restricted_pointer_probabilities(model, psi_s)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.isclose(probs.sum(), 1.0)
        assert peak < 2 * 2**20

    def test_restricted_read_holds_no_object_per_character(self):
        # One read at s_dim 2, o_dim 4096 (d = 8192, 4096 characters) with
        # the setup built: the premeasured amplitudes, the diagonal and the
        # restricted values are a few length-d arrays, and the weights one
        # float each.  A (Character, float) pair per character read 7.9
        # complex rows of length d; the weight array reads 5.0.
        model = make_model(s_dim=2, o_dim=4096)
        psi_s = system_state(model, [0.6, 0.8])
        restricted_pointer_probabilities(model, psi_s)  # per-model setup, outside the trace
        d = ms_layout(model).dim
        tracemalloc.start()
        probs = restricted_pointer_probabilities(model, psi_s)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert probs[[1, 2]].tolist() == pytest.approx([0.36, 0.64])
        assert peak < 6 * 16 * d
