import numpy as np
import pytest

from segalsim.algebra import diagonal_algebra, generate_algebra
from segalsim.config import InvariantViolation
from segalsim.linalg import SpaceLayout, tensor
from segalsim.restriction import (
    AlgebraicState,
    breuer_indistinguishable,
    decompose_restricted,
    draw_cumulative,
    extremal_states,
    restrict_state,
)
from segalsim.states import DensityMatrix, Gemenge, StateVector, basis_state, density_from_vector, table_inverse_cdf

from _oracles import (
    character_table,
    character_variance,
    check_state_dense,
    gemenge_mix,
    identity,
    lstsq_decomposition,
    sample_individual_restriction,
)

O = SpaceLayout((("O", 3),))
MS = SpaceLayout((("S", 2), ("O", 3)))

Q_O = np.diag([0.0, 1.0, -1.0]).astype(complex)


def q_o_extended():
    return tensor(identity(2), Q_O)


def interference_op():
    b = np.zeros((6, 6), dtype=complex)
    b[1, 5] = 1.0
    b[5, 1] = 1.0
    return b


def rotated_pointer():
    """q_o_extended() turned by a fixed random unitary: not diagonal."""
    rng = np.random.default_rng(37)
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    return u @ q_o_extended() @ u.conj().T


def nilpotent_op():
    """|1><5|: its algebra has basis elements with B^dag B != B B^dag."""
    e = np.zeros((6, 6), dtype=complex)
    e[1, 5] = 1.0
    return e


def pointer_algebra():
    return generate_algebra([q_o_extended()], MS)


def ms_entangled(a1, a2):
    amp = np.zeros(6, dtype=complex)
    amp[1] = a1
    amp[5] = a2
    return StateVector(MS, amp)


def branch_mixture(p1, p2):
    return gemenge_mix(
        Gemenge(((basis_state(MS, (0, 1)), p1), (basis_state(MS, (1, 2)), p2)))
    )


def random_density(rng, layout):
    d = layout.dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityMatrix(layout, m / np.trace(m))


def char_by_value(chars, value):
    for c in chars:
        if abs(c.pointer_value() - value) < 1e-7:
            return c
    raise AssertionError(f"no character at pointer value {value}")


class TestRestrictState:
    def test_balanced_superposition(self):
        alg = pointer_algebra()
        phi = restrict_state(density_from_vector(ms_entangled(2**-0.5, 2**-0.5)), alg)
        assert phi.expectation(q_o_extended()) == pytest.approx(0.0, abs=1e-10)
        assert phi.expectation(identity(6)) == pytest.approx(1.0, abs=1e-10)

    def test_pure_and_mixed_restrict_identically(self):
        alg = pointer_algebra()
        phi_pure = restrict_state(density_from_vector(ms_entangled(2**-0.5, 2**-0.5)), alg)
        phi_mix = restrict_state(branch_mixture(0.5, 0.5), alg)
        assert np.max(np.abs(phi_pure.values - phi_mix.values)) <= 1e-10

    def test_maximally_mixed_is_tracial(self):
        alg = pointer_algebra()
        phi = restrict_state(DensityMatrix(MS, identity(6) / 6), alg)
        for j, m in enumerate(alg.basis):
            expected = np.trace(m) / 6
            assert phi.values[j] == pytest.approx(expected, abs=1e-12)

    def test_no_information_outside_span(self):
        alg = pointer_algebra()
        phi = restrict_state(density_from_vector(ms_entangled(2**-0.5, 2**-0.5)), alg)
        assert abs(phi.evaluate(interference_op())) <= 1e-12

    def test_consistency_on_random_states(self):
        # <rho; A> agrees with the restricted functional for span members.
        alg = pointer_algebra()
        rng = np.random.default_rng(42)
        for _ in range(100):
            rho = random_density(rng, MS)
            phi = restrict_state(rho, alg)
            coeffs = rng.standard_normal(alg.dimension) + 1j * rng.standard_normal(alg.dimension)
            a = sum(c * m for c, m in zip(coeffs, alg.basis))
            direct = complex(np.trace(rho.matrix @ a))
            assert abs(direct - phi.evaluate(a)) <= 1e-9

    def test_dimension_mismatch_rejected(self):
        alg = generate_algebra([Q_O], O)
        with pytest.raises(ValueError, match="does not match"):
            restrict_state(DensityMatrix(MS, identity(6) / 6), alg)


class TestExtremalStates:
    def test_pointer_characters(self):
        chars = extremal_states(pointer_algebra())
        assert len(chars) == 3
        values = sorted(c.pointer_value() for c in chars)
        assert np.allclose(values, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_unit_algebra_single_character(self):
        alg = generate_algebra([identity(3)], O)
        chars = extremal_states(alg)
        assert len(chars) == 1
        assert chars[0].expectation(identity(3)) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_generator_merges_sectors(self):
        # Q_O^2 has eigenvalues (0, 1, 1): the +-1 sectors collapse into one
        # character, giving a coarser resolution with 2 points.
        alg = generate_algebra([Q_O @ Q_O], O)
        chars = extremal_states(alg)
        assert len(chars) == 2
        assert sorted(c.pointer_value() for c in chars) == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_characters_are_multiplicative(self):
        alg = pointer_algebra()
        for c in extremal_states(alg):
            for m in alg.basis:
                for n in alg.basis:
                    lhs = c.evaluate(m @ n)
                    rhs = c.evaluate(m) * c.evaluate(n)
                    assert abs(lhs - rhs) <= 1e-8

    def test_sharp_pointer_value(self):
        # No extremal state has an uncertain pointer: variance vanishes.
        for c in extremal_states(pointer_algebra()):
            assert character_variance(c, q_o_extended()) <= 1e-8

    def test_non_commutative_refused(self):
        alg = generate_algebra([q_o_extended(), interference_op()], MS)
        with pytest.raises(ValueError, match="commutative"):
            extremal_states(alg)


class TestDecomposeRestricted:
    def test_born_weights(self):
        alg = pointer_algebra()
        rho = density_from_vector(ms_entangled(np.sqrt(0.3), np.sqrt(0.7)))
        probs = decompose_restricted(restrict_state(rho, alg), alg)
        by_value = {round(c.pointer_value()): p for (c, p) in zip(extremal_states(alg), probs)}
        assert by_value[1] == pytest.approx(0.3, abs=1e-10)
        assert by_value[-1] == pytest.approx(0.7, abs=1e-10)
        assert by_value[0] == pytest.approx(0.0, abs=1e-10)

    def test_character_decomposes_to_itself(self):
        alg = pointer_algebra()
        chars = extremal_states(alg)
        probs = decompose_restricted(chars[1], alg)
        expected = np.zeros(3)
        expected[1] = 1.0
        assert np.allclose(probs, expected, atol=1e-10)

    def test_tracial_state_uniform(self):
        alg = pointer_algebra()
        phi = restrict_state(DensityMatrix(MS, identity(6) / 6), alg)
        probs = decompose_restricted(phi, alg)
        assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-10)

    def test_weights_equal_projector_traces(self):
        alg = pointer_algebra()
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = random_density(rng, MS)
            probs = decompose_restricted(restrict_state(rho, alg), alg)
            for char, p in zip(extremal_states(alg), probs):
                assert p == pytest.approx(
                    float(np.trace(rho.matrix @ char.projector).real), abs=1e-9
                )

    def test_round_trip_reconstruction(self):
        alg = pointer_algebra()
        rng = np.random.default_rng(12)
        rho = random_density(rng, MS)
        phi = restrict_state(rho, alg)
        recon = character_table(alg).T @ decompose_restricted(phi, alg)
        assert np.max(np.abs(recon - phi.values)) <= 1e-9

    def test_unique_up_to_character_permutation(self):
        # Re-solving against a permuted character basis returns the same
        # weights, permuted.
        alg = pointer_algebra()
        rng = np.random.default_rng(13)
        rho = random_density(rng, MS)
        phi = restrict_state(rho, alg)
        probs = decompose_restricted(phi, alg)
        perm = [2, 0, 1]
        matrix = character_table(alg)[perm].T
        permuted, *_ = np.linalg.lstsq(matrix, phi.values, rcond=None)
        assert np.max(np.abs(permuted.real - probs[perm])) <= 1e-9


class TestBreuer:
    def test_pure_vs_mixed_on_pointer_algebra(self):
        alg = pointer_algebra()
        rho_p = density_from_vector(ms_entangled(2**-0.5, 2**-0.5))
        rho_m = branch_mixture(0.5, 0.5)
        report = breuer_indistinguishable(rho_p, rho_m, alg, tol=1e-9)
        assert report.indistinguishable
        assert report.max_deviation <= 1e-9

    def test_interference_term_distinguishes(self):
        a1, a2 = np.sqrt(0.3), np.sqrt(0.7)
        alg = generate_algebra([q_o_extended(), interference_op()], MS)
        rho_p = density_from_vector(ms_entangled(a1, a2))
        rho_m = branch_mixture(0.3, 0.7)
        report = breuer_indistinguishable(rho_p, rho_m, alg, tol=1e-9)
        assert not report.indistinguishable
        assert report.worst_label == "generator[1]"
        assert report.max_deviation == pytest.approx(2 * a1 * a2, abs=1e-9)

    def test_reflexive(self):
        alg = pointer_algebra()
        rng = np.random.default_rng(21)
        rho = random_density(rng, MS)
        assert breuer_indistinguishable(rho, rho, alg).indistinguishable

    def test_indistinguishable_implies_same_sampling_law(self):
        alg = pointer_algebra()
        rho_p = density_from_vector(ms_entangled(2**-0.5, 2**-0.5))
        rho_m = branch_mixture(0.5, 0.5)
        assert breuer_indistinguishable(rho_p, rho_m, alg, tol=1e-9)
        p1 = decompose_restricted(restrict_state(rho_p, alg), alg)
        p2 = decompose_restricted(restrict_state(rho_m, alg), alg)
        assert np.max(np.abs(p1 - p2)) <= 1e-9


class TestSampleIndividualRestriction:
    def test_eigenstate_input_is_deterministic(self):
        alg = pointer_algebra()
        xi = basis_state(MS, (0, 1))  # |s1 O1>
        rng = np.random.default_rng(31)
        for _ in range(20):
            char, p = sample_individual_restriction(xi, alg, rng)
            assert char.pointer_value() == pytest.approx(1.0, abs=1e-9)
            assert p == pytest.approx(1.0, abs=1e-10)

    def test_ready_state_stays_ready(self):
        alg = pointer_algebra()
        psi_in = StateVector(
            MS, np.kron(np.array([2**-0.5, 2**-0.5]), np.array([1.0, 0.0, 0.0]))
        )
        rng = np.random.default_rng(32)
        char, p = sample_individual_restriction(psi_in, alg, rng)
        assert char.pointer_value() == pytest.approx(0.0, abs=1e-9)
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_balanced_superposition_frequency(self):
        alg = pointer_algebra()
        xi = ms_entangled(2**-0.5, 2**-0.5)
        rng = np.random.default_rng(33)
        n = 100_000
        hits = 0
        for _ in range(n):
            char, p = sample_individual_restriction(xi, alg, rng)
            assert p == pytest.approx(0.5, abs=1e-10)
            hits += char.pointer_value() > 0.5
        assert abs(hits / n - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_statistics_match_decomposition(self):
        alg = pointer_algebra()
        xi = ms_entangled(np.sqrt(0.3), np.sqrt(0.7))
        expected = decompose_restricted(restrict_state(density_from_vector(xi), alg), alg)
        rng = np.random.default_rng(34)
        n = 50_000
        counts = np.zeros(3)
        for _ in range(n):
            char, _ = sample_individual_restriction(xi, alg, rng)
            counts[char.projector_index] += 1
        freq = counts / n
        for k in range(3):
            band = 4 * np.sqrt(max(expected[k] * (1 - expected[k]), 1e-12) / n)
            assert abs(freq[k] - expected[k]) <= max(band, 1e-9)

    def test_deterministic_under_seed(self):
        alg = pointer_algebra()
        xi = ms_entangled(np.sqrt(0.3), np.sqrt(0.7))
        seq1 = [
            sample_individual_restriction(xi, alg, rng)[0].projector_index
            for rng in [np.random.default_rng(35)]
            for _ in range(30)
        ]
        rng = np.random.default_rng(35)
        seq2 = [sample_individual_restriction(xi, alg, rng)[0].projector_index for _ in range(30)]
        assert seq1 == seq2

    def test_layout_mismatch_rejected(self):
        alg = generate_algebra([Q_O], O)
        xi = basis_state(MS, (0, 1))
        with pytest.raises(ValueError, match="does not match"):
            sample_individual_restriction(xi, alg, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_draw_cumulative_fails_closed(bad):
    with pytest.raises(InvariantViolation, match="vanish"):
        draw_cumulative(np.array([bad, 1.0]))


def test_draw_cumulative_never_draws_a_zero_weight():
    # Trailing zero weights (spare pointers sort last) keep the last
    # nonzero weight's cumulative, which round-off can leave below 1: the
    # largest uniform below 1 must still draw the last nonzero weight.
    rng = np.random.default_rng(39)
    below = 0
    for _ in range(200):
        probs = np.r_[rng.dirichlet(np.ones(5)), 0.0, 0.0]
        below += np.cumsum(probs / probs.sum())[4] < 1.0
        cumulative = draw_cumulative(probs)
        assert cumulative[4:].tolist() == [1.0, 1.0, 1.0]
        assert table_inverse_cdf(cumulative[None], 0, np.array([np.nextafter(1.0, 0.0)]))[0] == 4
    assert below  # the grid holds the case the rule is for


class TestAlgebraicStateValidation:
    def test_unnormalized_rejected(self):
        alg = pointer_algebra()
        good = restrict_state(DensityMatrix(MS, identity(6) / 6), alg)
        with pytest.raises(InvariantViolation, match="not normalized"):
            AlgebraicState(alg, good.values * 2.0)

    @pytest.mark.parametrize("path", ["diagonal", "generic"])
    def test_non_positive_rejected_on_both_paths(self, path):
        # phi(a) = sum_k w_k tr(P_k a) / rank_k with one negative weight:
        # normalized, but negative on the projector P_1.
        if path == "diagonal":
            alg = pointer_algebra()
        else:
            alg = generate_algebra([rotated_pointer()], MS)
        weights = [1.5, -0.5, 0.0]
        chars = extremal_states(alg)
        values = sum(w * c.values for w, c in zip(weights, chars))
        AlgebraicState(alg, sum(c.values for c in chars) / 3)  # a positive mix passes
        with pytest.raises(InvariantViolation, match="positivity violated"):
            AlgebraicState(alg, values)

    @pytest.mark.parametrize(
        "make",
        [
            pointer_algebra,
            lambda: generate_algebra([rotated_pointer()], MS),
            lambda: generate_algebra([interference_op()], MS),
            lambda: generate_algebra([q_o_extended(), nilpotent_op()], MS),
            lambda: generate_algebra([interference_op(), q_o_extended()], MS),
        ],
        ids=["diagonal", "generic-pointer", "generic-interference", "non-commutative", "interference-algebra"],
    )
    def test_state_check_is_the_density_in_the_algebra(self, make):
        # A functional is positive on the algebra exactly when its density
        # rho_phi = sum_j v_j B_j^dag, built here from the dense basis, is
        # PSD.  Restricted density matrices pass; functionals of Hermitian,
        # unit-trace matrices pass exactly when rho_phi's lowest
        # eigenvalue does.
        alg = make()
        rng = np.random.default_rng(36)
        for _ in range(3):
            restrict_state(random_density(rng, MS), alg)
        for scale in (0.5, 1.0, 3.0):
            h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            h = (h + h.conj().T) / 12
            m = identity(6) / 6 + scale * (h - np.trace(h) / 6 * identity(6))  # unit trace
            values = alg.project_coefficients(m.conj().T).conj()
            rho_phi = sum(v * b.conj().T for v, b in zip(values, alg.basis))
            lowest = np.linalg.eigvalsh(rho_phi)[0]
            if lowest >= 0:
                AlgebraicState(alg, values)
            else:
                with pytest.raises(InvariantViolation, match="positivity violated"):
                    AlgebraicState(alg, values)

    def test_pauli_functional_outside_the_bloch_ball_is_refused(self):
        # <B_j^dag B_j> >= 0 on each basis element holds for this functional
        # (Bloch length 1.56); its density, lowest eigenvalue -0.279, is not
        # positive.  Density matrices on the same algebra still pass.
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        two = SpaceLayout((("Q", 2),))
        alg = generate_algebra([sx, sz], two)
        assert not alg.commutative and alg.dimension == 4
        m = (identity(2) + 0.9 * (sx + sy + sz)) / 2
        assert np.isclose(np.linalg.eigvalsh(m)[0], -0.279, atol=1e-3)
        with pytest.raises(InvariantViolation, match="positivity violated"):
            AlgebraicState(alg, alg.project_coefficients(m.conj().T).conj())
        rng = np.random.default_rng(38)
        for _ in range(5):
            phi = restrict_state(random_density(rng, two), alg)
            assert phi.expectation(identity(2)) == pytest.approx(1.0, abs=1e-12)
        AlgebraicState(alg, alg.project_coefficients((identity(2) + sz).conj().T / 2).conj())  # a pure state


# ---------------------------------------------------------------------------
# The O(k) class-index restriction against the dense tables it replaces.

RANKS = [(1,), (1, 1, 1), (2, 5, 1), (3, 3, 3), (1, 4, 1, 7), (6, 1)]


def ranked_algebra(ranks):
    """The diagonal algebra whose classes, in order, have these ranks."""
    diagonal = np.repeat(np.arange(len(ranks), dtype=float), ranks)
    return diagonal_algebra(diagonal[None], SpaceLayout((("O", diagonal.size),)))


def value_grid(ranks):
    """Basis values v_j = w_j / sqrt(rank_j) of states and near-states:
    random weights, a character, signed zeros, and weights, imaginary
    parts and totals on either side of each check's tolerance."""
    rng = np.random.default_rng([55, *ranks])
    k = len(ranks)
    r = np.array(ranks, dtype=float)
    grid = [rng.dirichlet(np.ones(k)) for _ in range(8)]
    grid += [np.eye(k)[0], np.full(k, 1.0 / k)]
    for total in (1 + 2e-10, 1 + 5e-11, 1 - 2e-10):
        grid.append(np.full(k, total / k))
    if k > 1:
        for below in (-1.5e-9, -0.5e-9, -0.5e-9 / r[-1]):  # w_j / r_j below 0
            w = np.full(k, 1.0 / k)
            w[-1] = below * r[-1]
            w[0] += 1.0 / k - w[-1]
            grid.append(w)
    values = [w / np.sqrt(r) + 0j for w in grid]
    zeros = np.eye(k)[0] / np.sqrt(r) + 0j
    zeros[1:] = complex(-0.0, -0.0)  # signed zeros off the character
    values.append(zeros)
    values.append(np.conj(zeros))
    for imag in (2e-9, 0.5e-9):
        w = np.full(k, 1.0 / k) + 0j
        w[0] += 1j * imag
        w[-1] -= 1j * imag  # <I> stays real
        values.append(w / np.sqrt(r))
        values.append(w.real / np.sqrt(r) + 1j * imag)  # <I> is not real
    for bad in (np.nan, np.inf, -np.inf):
        v = np.eye(k)[0] / np.sqrt(r) + 0j
        v[-1] = bad
        values.append(v)
    return values


def outcome(run):
    """The name of the invariant ``run`` fails, or "ok" and its result."""
    try:
        return "ok", run()
    except InvariantViolation as exc:
        return str(exc).rsplit(":", 1)[0], None


class TestClassIndexRestriction:
    @pytest.mark.parametrize("ranks", RANKS, ids=["-".join(map(str, r)) for r in RANKS])
    def test_checks_and_weights_match_dense_tables(self, ranks):
        # The O(k) state checks fail exactly where the positivity table's
        # fail, under the same name; v * sqrt(rank) is the least-squares
        # solution to within a few ulps, and its checks fail where the
        # least-squares weights' do.
        alg = ranked_algebra(ranks)
        eps = np.finfo(float).eps
        for values in value_grid(ranks):
            with np.errstate(invalid="ignore"):  # the NaN and inf rows
                state, phi = outcome(lambda: AlgebraicState(alg, values))
                dense, _ = outcome(lambda: check_state_dense(alg, values))
            assert state == dense, values
            if phi is None:
                continue
            name, weights = outcome(lambda: decompose_restricted(phi, alg))
            dense, reference = outcome(lambda: lstsq_decomposition(phi))
            assert name == dense, values
            if weights is not None:
                assert np.max(np.abs(weights - reference)) <= 4 * eps

    @pytest.mark.parametrize("ranks", RANKS, ids=["-".join(map(str, r)) for r in RANKS])
    def test_decomposition_is_its_weight_array(self, ranks):
        # One float64 weight per character, in extremal_states order: bit
        # for bit the clipped v_k sqrt(rank_k), each weight read as a float.
        alg = ranked_algebra(ranks)
        decomposed = 0
        for values in value_grid(ranks):
            with np.errstate(invalid="ignore"):  # the NaN and inf rows
                _, phi = outcome(lambda: AlgebraicState(alg, values))
            if phi is None:
                continue
            _, weights = outcome(lambda: decompose_restricted(phi, alg))
            if weights is None:
                continue
            expected = np.array([float(w) for w in np.clip((phi.values * np.sqrt(ranks)).real, 0.0, None)])
            assert type(weights) is np.ndarray and weights.dtype == np.float64
            assert weights.shape == (alg.dimension,) == (len(extremal_states(alg)),)
            assert weights.tobytes() == expected.tobytes(), values
            decomposed += 1
        assert decomposed >= 10

    @pytest.mark.parametrize("ranks", RANKS, ids=["-".join(map(str, r)) for r in RANKS])
    def test_character_is_its_class_index(self, ranks):
        # A character's row, made on demand, is the dense table's row; it
        # passes the dense checks and decomposes onto itself.
        alg = ranked_algebra(ranks)
        table = character_table(alg)
        for k, char in enumerate(extremal_states(alg)):
            assert char.projector_index == k and char.algebra is alg
            assert np.array_equal(char.values, table[k])
            check_state_dense(alg, char.values)
            assert np.array_equal(decompose_restricted(char, alg), np.eye(len(ranks))[k])

    def test_character_runs_both_state_checks(self, monkeypatch):
        from segalsim import restriction

        names = []
        monkeypatch.setattr(restriction, "check", lambda name, value, tol: names.append(name))
        restriction.Character(ranked_algebra((2, 5, 1)), 1)
        assert names == [
            "state is not normalized, |<I> - 1|",
            "positivity violated, max -eigenvalue or anti-Hermitian entry of rho_phi",
        ]

    def test_character_is_frozen(self):
        # Characters are cached and shared per algebra, and their class
        # index picks their weight: it cannot be reassigned.
        from dataclasses import FrozenInstanceError

        char = extremal_states(ranked_algebra((2, 5, 1)))[1]
        with pytest.raises(FrozenInstanceError):
            char.projector_index = 0
        assert "projector_index=1" in repr(char)

    def test_commutative_state_check_builds_no_basis(self):
        # rho_phi is diagonal on the classes: the check reads v_k / sqrt(rank_k)
        # and sum_k sqrt(rank_k) v_k, and no dense basis element is made.
        alg = ranked_algebra((2, 5, 1))
        AlgebraicState(alg, np.array([0.2, 0.5, 0.3]) / np.sqrt(alg.ranks))
        with pytest.raises(InvariantViolation, match="positivity violated"):
            AlgebraicState(alg, np.array([1.2, 0.1, -0.3]) / np.sqrt(alg.ranks))
        assert alg._basis is None
