import numpy as np
import pytest

from segalsim.config import InvariantViolation
from segalsim.linalg import SpaceLayout, tensor
from segalsim.states import (
    DensityMatrix,
    Gemenge,
    StateVector,
    basis_state,
    density_from_vector,
    expectation,
    table_inverse_cdf,
)

from _oracles import (
    gemenge_mix,
    identity,
    inverse_cdf,
    purity,
    reduce_density,
    sample_gemenge,
    vector_fidelity,
)

S = SpaceLayout((("S", 2),))
O = SpaceLayout((("O", 3),))
MS = SpaceLayout((("S", 2), ("O", 3)))


def ms_entangled(a1, a2):
    """Post-measurement state a1|s1 O1> + a2|s2 O2| on the 2x3 layout."""
    amp = np.zeros(6, dtype=complex)
    amp[1] = a1
    amp[5] = a2
    return StateVector(MS, amp)


def branch_gemenge(p1, p2):
    return Gemenge(((basis_state(MS, (0, 1)), p1), (basis_state(MS, (1, 2)), p2)))


def interference_op():
    b = np.zeros((6, 6), dtype=complex)
    b[1, 5] = 1.0
    b[5, 1] = 1.0
    return b


class TestStateVector:
    def test_normalization_enforced(self):
        with pytest.raises(InvariantViolation, match="not normalized"):
            StateVector(S, [1.0, 1.0])

    def test_size_must_match_layout(self):
        with pytest.raises(ValueError, match="does not match"):
            StateVector(S, [1.0, 0.0, 0.0])

    def test_tensor_concatenates_layouts(self):
        psi = basis_state(S, (1,)).tensor(basis_state(O, (0,)))
        assert psi.layout == MS
        assert psi.amplitudes[3] == 1.0

    def test_amplitudes_frozen(self):
        psi = basis_state(S, (0,))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation, match="Hermitian"):
            DensityMatrix(S, m)

    def test_trace_enforced(self):
        with pytest.raises(InvariantViolation, match="trace"):
            DensityMatrix(S, np.diag([0.5, 0.4]).astype(complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvariantViolation, match="negative eigenvalue"):
            DensityMatrix(S, np.diag([1.5, -0.5]).astype(complex))


class TestDensityFromVector:
    def test_basis_state(self):
        rho = density_from_vector(basis_state(O, (0,)))
        assert np.array_equal(rho.matrix, np.diag([1.0, 0.0, 0.0]).astype(complex))

    def test_uniform_superposition(self):
        psi = StateVector(S, np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(density_from_vector(psi).matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_entangled_projector_entries(self):
        # Expanding the 50/50 entangled state gives four 1/2 entries
        # at indices {1, 5} x {1, 5}.
        rho = density_from_vector(ms_entangled(1 / np.sqrt(2), 1 / np.sqrt(2)))
        expected = np.zeros((6, 6), dtype=complex)
        for i in (1, 5):
            for j in (1, 5):
                expected[i, j] = 0.5
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_purity_is_one(self):
        rng = np.random.default_rng(5)
        amp = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        amp /= np.linalg.norm(amp)
        assert purity(density_from_vector(StateVector(MS, amp))) == pytest.approx(1.0, abs=1e-9)


# Row weights whose normalized cumulative sum ends below 1.
PARSED_WEIGHTS = [0.282, 0.215, 0.639, 0.805, 0.0]


class TestGemenge:
    def test_single_row_mix(self):
        w = Gemenge(((basis_state(S, (0,)), 1.0),))
        assert np.array_equal(gemenge_mix(w).matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_branch_mixture_matches_weights(self):
        rho = gemenge_mix(branch_gemenge(0.3, 0.7))
        expected = np.zeros((6, 6), dtype=complex)
        expected[1, 1] = 0.3
        expected[5, 5] = 0.7
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_maximally_mixed(self):
        w = Gemenge(((basis_state(S, (0,)), 0.5), (basis_state(S, (1,)), 0.5)))
        assert np.allclose(gemenge_mix(w).matrix, identity(2) / 2, atol=1e-15)

    def test_probability_sum_enforced(self):
        with pytest.raises(InvariantViolation, match="sum"):
            Gemenge(((basis_state(S, (0,)), 0.5), (basis_state(S, (1,)), 0.4)))

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share one layout"):
            Gemenge(((basis_state(S, (0,)), 0.5), (basis_state(O, (0,)), 0.5)))

    @pytest.mark.parametrize(
        "probs",
        [[0.1] * 10 + [0.0], [x / sum(PARSED_WEIGHTS) for x in PARSED_WEIGHTS]],
        ids=["tenths", "parsed"],
    )
    def test_trailing_zero_row_is_never_drawn(self, probs):
        # The rows' cumulative sum stops at 0.9999999999999999 at the last
        # positive row (the second list is normalized as the config parser
        # normalizes it); the largest uniform, 1 - 2**-53, must draw that row.
        w = Gemenge(tuple((basis_state(S, (0,)), p) for p in probs))
        last = int(np.flatnonzero(probs)[-1])
        assert np.cumsum(probs)[last] < 1.0
        assert w.cumulative[last:].tolist() == [1.0] * (len(probs) - last)
        assert table_inverse_cdf(w.cumulative[None], 0, np.array([1 - 2**-53]))[0] == last


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
class TestNonFiniteFailsClosed:
    # Every check passes only at value <= tol, which a NaN fails; an
    # infinity exceeds the tolerance or turns into a NaN on the way.
    def test_state_vector(self, bad):
        with pytest.raises(InvariantViolation, match="not normalized"):
            StateVector(S, [bad, 1.0])

    def test_gemenge_probability(self, bad):
        with pytest.raises(InvariantViolation, match="outside"):
            Gemenge(((basis_state(S, (0,)), bad), (basis_state(S, (1,)), 1.0)))

    def test_density_matrix(self, bad):
        with pytest.raises(InvariantViolation, match="Hermitian"):
            DensityMatrix(S, np.array([[0.5, bad], [bad, 0.5]]))


class TestSampleGemenge:
    def test_single_row_always_zero(self):
        w = Gemenge(((basis_state(S, (0,)), 1.0),))
        rng = np.random.default_rng(0)
        assert all(sample_gemenge(w, rng)[0] == 0 for _ in range(50))

    def test_deterministic_under_seed(self):
        w = branch_gemenge(0.3, 0.7)
        rng = np.random.default_rng(7)
        seq1 = [sample_gemenge(w, rng)[0] for _ in range(20)]
        rng = np.random.default_rng(7)
        seq2 = [sample_gemenge(w, rng)[0] for _ in range(20)]
        assert seq1 == seq2

    def test_binomial_frequency(self):
        # 3 sigma binomial band around 0.3 for 1e5 draws: +-0.00435.
        w = branch_gemenge(0.3, 0.7)
        rng = np.random.default_rng(2024)
        n = 100_000
        hits = sum(sample_gemenge(w, rng)[0] == 0 for _ in range(n))
        assert abs(hits / n - 0.3) <= 3 * np.sqrt(0.3 * 0.7 / n)

    def test_mix_equals_empirical_average(self):
        w = branch_gemenge(0.3, 0.7)
        rng = np.random.default_rng(99)
        n = 100_000
        counts = np.zeros(len(w.rows))
        for _ in range(n):
            counts[sample_gemenge(w, rng)[0]] += 1
        empirical = np.zeros((6, 6), dtype=complex)
        for (state, _), c in zip(w.rows, counts):
            empirical += (c / n) * np.outer(state.amplitudes, state.amplitudes.conj())
        assert np.max(np.abs(empirical - gemenge_mix(w).matrix)) <= 5e-3


class TestInverseCdf:
    CUMULATIVES = (
        [1.0],
        [0.25, 0.5, 1.0],
        [0.0, 0.0, 0.4, 0.4, 0.4, 1.0],  # leading and inner flat runs
        [0.3, 1.0, 1.0],  # trailing zero-probability entry
        [0.5, 0.9999999999999999, 1.0],
        [0.2, 0.9],  # u past the last entry clamps to it
    )

    @staticmethod
    def scan(cumulative, u):
        """Linear scan: first entry with u < c, else the last index."""
        for k, c in enumerate(cumulative):
            if u < c:
                return k
        return len(cumulative) - 1

    def test_matches_scan_at_edges(self):
        for cumulative in self.CUMULATIVES:
            points = [0.0, 1.0 - 2**-53, *cumulative, *(np.nextafter(c, 0.0) for c in cumulative)]
            expected = [self.scan(cumulative, u) for u in points]
            arr = np.array(cumulative)
            assert inverse_cdf(arr, np.array(points)).tolist() == expected
            assert [int(inverse_cdf(arr, u)) for u in points] == expected
            table = table_inverse_cdf(arr[None], 0, np.array(points))
            assert table.tolist() == expected

    @pytest.mark.parametrize(
        "width, dtype",
        [
            pytest.param(width, dtype, id=str(width) if dtype is np.int64 else f"{width}-uint8")
            for dtype in (np.int64, np.uint8)
            for width in (1, 2, 3, 4, 5, 8, 9, 200)
        ],
    )
    def test_table_rows_match_inverse_cdf(self, width, dtype):
        # The all-rows search against one search per event, on rows with
        # zero-probability entries, uniforms on entries and a row whose
        # last entry lies below some uniforms.  Rows as uint8, the dtype of
        # EventBatch.gemenge_row, are read as intp: row * width must not
        # wrap at 256.
        rng = np.random.default_rng(width)
        probs = rng.random((40, width))
        if width > 1:
            probs[:, rng.integers(width)] = 0.0
        table = np.cumsum(probs, axis=1) / probs.sum(axis=1, keepdims=True)
        table[1] *= 0.75
        rows = rng.integers(0, len(table), 5000)
        u = rng.random(5000)
        u[:500] = table[rows[:500], rng.integers(width, size=500)]
        expected = [inverse_cdf(table[r], x) for r, x in zip(rows, u)]
        assert table_inverse_cdf(table, rows.astype(dtype), u).tolist() == expected


class TestExpectation:
    def test_interference_pure_state(self):
        rho = density_from_vector(ms_entangled(1 / np.sqrt(2), 1 / np.sqrt(2)))
        assert expectation(rho, interference_op()) == pytest.approx(1.0, abs=1e-12)

    def test_interference_mixture_vanishes(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = rng.uniform(0.05, 0.95)
            rho = gemenge_mix(branch_gemenge(p, 1 - p))
            assert expectation(rho, interference_op()) == pytest.approx(0.0, abs=1e-14)

    def test_unbiased_pointer_readout(self):
        # <Q_O> on the post-measurement state equals <Q> on the input:
        # 0.3*(+1) + 0.7*(-1) = -0.4 with pointer values (0, 1, -1).
        a1, a2 = np.sqrt(0.3), np.sqrt(0.7)
        rho = density_from_vector(ms_entangled(a1, a2))
        q_o_ext = tensor(identity(2), np.diag([0.0, 1.0, -1.0]))
        assert expectation(rho, q_o_ext) == pytest.approx(-0.4, abs=1e-10)
        psi_s = StateVector(S, [a1, a2])
        q = np.diag([1.0, -1.0]).astype(complex)
        assert expectation(density_from_vector(psi_s), q) == pytest.approx(-0.4, abs=1e-10)

    def test_unbiased_for_every_input(self):
        rng = np.random.default_rng(23)
        q = np.diag([1.0, -1.0]).astype(complex)
        q_o_ext = tensor(identity(2), np.diag([0.0, 1.0, -1.0]))
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            lhs = expectation(density_from_vector(StateVector(S, a)), q)
            rhs = expectation(density_from_vector(ms_entangled(a[0], a[1])), q_o_ext)
            assert abs(lhs - rhs) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(19)
        m1 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = (m1 + m1.conj().T) / 2
        m2 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = (m2 + m2.conj().T) / 2
        rho = gemenge_mix(branch_gemenge(0.4, 0.6))
        alpha, beta = 0.7, -1.3
        lhs = expectation(rho, alpha * a + beta * b)
        rhs = alpha * expectation(rho, a) + beta * expectation(rho, b)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_non_hermitian_observable_rejected(self):
        rho = density_from_vector(basis_state(S, (0,)))
        with pytest.raises(ValueError, match="not Hermitian"):
            expectation(rho, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_mixed_state_purity_below_one(self):
        rho = gemenge_mix(branch_gemenge(0.4, 0.6))
        assert purity(rho) < 1.0 - 1e-3


class TestReduceDensity:
    def test_pointer_marginal(self):
        rho = density_from_vector(ms_entangled(np.sqrt(0.3), np.sqrt(0.7)))
        r_o = reduce_density(rho, {"O"})
        assert r_o.layout == O
        assert np.allclose(r_o.matrix, np.diag([0.0, 0.3, 0.7]), atol=1e-12)

    def test_fidelity_with_self(self):
        psi = ms_entangled(np.sqrt(0.3), np.sqrt(0.7))
        assert vector_fidelity(density_from_vector(psi), psi) == pytest.approx(1.0, abs=1e-12)
