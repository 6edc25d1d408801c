import numpy as np
import pytest

from segalsim.linalg import (
    SpaceLayout,
    basis_vector,
    degenerate_clusters,
    hermitian_eig,
    require_hermitian,
    tensor,
    unitary_from_hamiltonian,
)

from _oracles import (
    expm_series,
    hs_inner,
    identity,
    kron_oracle,
    layout_axis,
    layout_subset,
    partial_trace,
    partial_trace_oracle,
    projector,
)

MS = SpaceLayout((("S", 2), ("O", 3)))


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng, d):
    m = random_matrix(rng, d)
    return (m + m.conj().T) / 2


def interference_op():
    # |s1 O1><s2 O2| + h.c. on the 2x3 layout: basis indices 1 and 5.
    b = np.zeros((6, 6), dtype=complex)
    b[1, 5] = 1.0
    b[5, 1] = 1.0
    return b


class TestSpaceLayout:
    def test_basic_properties(self):
        assert MS.dim == 6
        assert MS.labels == ("S", "O")
        assert MS.dims == (2, 3)
        assert layout_axis(MS, "O") == 1
        assert MS.basis_index((1, 2)) == 5

    def test_subset_preserves_order(self):
        lay = SpaceLayout((("S", 2), ("O", 3), ("E", 4)))
        assert layout_subset(lay, {"E", "S"}).labels == ("S", "E")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpaceLayout((("S", 2), ("S", 3)))

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            SpaceLayout((("S", 0),))


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(identity(2), identity(3)), identity(6))

    def test_diagonal_kron(self):
        got = tensor(np.diag([1.0, -1.0]), identity(2))
        assert np.array_equal(got, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))

    def test_rank_one_projector_index(self):
        # Oracle: kron of |s1><s1| and |O1><O1| has its single nonzero
        # entry at composite index 0*3 + 1 = 1.
        got = tensor(projector(basis_vector(2, 0)), projector(basis_vector(3, 1)))
        expected = np.zeros((6, 6), dtype=complex)
        expected[1, 1] = 1.0
        assert np.array_equal(got, expected)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(11)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 3)
        assert np.allclose(tensor(a, b), kron_oracle(a, b), atol=0)

    def test_associativity_exact(self):
        # Dyadic entries keep float multiplication exact.
        a = np.diag([1.0, -0.5]).astype(complex)
        b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        c = np.diag([0.25, 2.0, -1.0]).astype(complex)
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(12)
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 4)
        assert np.trace(tensor(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(21)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        b = b @ b.conj().T
        b /= np.trace(b)
        lay = SpaceLayout((("A", 2), ("B", 3)))
        assert np.allclose(partial_trace(tensor(a, b), lay, {"A"}), a, atol=1e-12)

    def test_entangled_pointer_marginal(self):
        # Tr_S of the 50/50 entangled measurement state: diag(0, 1/2, 1/2).
        amp = np.zeros(6, dtype=complex)
        amp[1] = amp[5] = 1 / np.sqrt(2)
        rho = np.outer(amp, amp.conj())
        got = partial_trace(rho, MS, {"O"})
        assert np.allclose(got, np.diag([0.0, 0.5, 0.5]), atol=1e-12)

    def test_branch_mixture_marginal(self):
        # Frozen from partial_trace_oracle: diagonal branch mixture with
        # weights (0.3, 0.7) has O marginal diag(0, 0.3, 0.7).
        rho = np.zeros((6, 6), dtype=complex)
        rho[1, 1] = 0.3
        rho[5, 5] = 0.7
        got = partial_trace(rho, MS, {"O"})
        assert np.allclose(got, np.diag([0.0, 0.3, 0.7]), atol=1e-12)

    def test_matches_loop_oracle_three_factors(self):
        rng = np.random.default_rng(22)
        lay = SpaceLayout((("S", 2), ("O", 3), ("E", 2)))
        m = random_matrix(rng, 12)
        got = partial_trace(m, lay, {"S", "E"})
        assert np.allclose(got, partial_trace_oracle(m, (2, 3, 2), (0, 2)), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(23)
        lay = SpaceLayout((("S", 2), ("O", 3), ("E", 2)))
        m = random_matrix(rng, 12)
        for keep in ({"S"}, {"O"}, {"S", "E"}, {"S", "O", "E"}):
            assert abs(np.trace(partial_trace(m, lay, keep)) - np.trace(m)) <= 1e-12

    def test_composes_over_complements(self):
        rng = np.random.default_rng(24)
        lay = SpaceLayout((("S", 2), ("O", 3), ("E", 2)))
        m = random_matrix(rng, 12)
        via_two_steps = partial_trace(
            partial_trace(m, lay, {"S", "O"}), SpaceLayout((("S", 2), ("O", 3))), {"O"}
        )
        assert np.allclose(via_two_steps, partial_trace(m, lay, {"O"}), atol=1e-12)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown factor"):
            partial_trace(identity(6), MS, {"X"})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(identity(5), MS, {"O"})


class TestHermitianEig:
    def test_already_diagonal(self):
        values, _ = hermitian_eig(np.diag([0.0, 1.0, -1.0]).astype(complex))
        assert np.allclose(values, [-1.0, 0.0, 1.0], atol=0)

    def test_flip_operator(self):
        values, vectors = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(values, [-1.0, 1.0], atol=1e-12)
        assert np.allclose(vectors.conj().T @ vectors, identity(2), atol=1e-10)

    def test_interference_op_spectrum(self):
        # Oracle: B^2 is a rank-2 projector, so spectrum is {-1, 0 x4, +1}.
        values, vectors = hermitian_eig(interference_op())
        assert np.allclose(values, [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)
        recon = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(recon - interference_op())) <= 1e-9

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            h = random_hermitian(rng, 5)
            values, _ = hermitian_eig(h)
            assert abs(values.sum() - np.trace(h).real) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_fails_closed(self, bad):
        # M - M^dag is NaN on a non-finite diagonal, and a NaN deviation
        # must not pass as Hermitian.
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(np.array([[bad, 0], [0, 1]], dtype=complex))


def test_degenerate_clusters_groups_close_values():
    values = np.array([-1.0, 0.0, 0.0 + 1e-10, 0.0 + 2e-10, 1.0])
    assert degenerate_clusters(values) == [[0], [1, 2, 3], [4]]


class TestPropagator:
    def test_null_generator(self):
        assert np.allclose(unitary_from_hamiltonian(np.zeros((3, 3)), 7.3), identity(3), atol=0)

    def test_diagonal_exponential(self):
        got = unitary_from_hamiltonian(np.diag([1.0, -1.0]).astype(complex), np.pi)
        assert np.allclose(got, -identity(2), atol=1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(41)
        h = random_hermitian(rng, 4)
        t = 0.7
        assert np.allclose(unitary_from_hamiltonian(h, t), expm_series(h, t), atol=1e-12)

    def test_forward_backward_is_identity(self):
        rng = np.random.default_rng(42)
        h = random_hermitian(rng, 5)
        u_fwd = unitary_from_hamiltonian(h, 1.3)
        u_bwd = unitary_from_hamiltonian(h, -1.3)
        assert np.max(np.abs(u_fwd @ u_bwd - identity(5))) <= 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            unitary_from_hamiltonian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestHSInner:
    def test_identity_trace(self):
        assert hs_inner(identity(2), identity(2)) == 2.0

    def test_traceless_vs_identity(self):
        assert hs_inner(np.diag([1.0, -1.0]).astype(complex), identity(2)) == 0.0

    def test_interference_op_norm(self):
        assert hs_inner(interference_op(), interference_op()) == pytest.approx(2.0, abs=0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(51)
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            hs_inner(identity(2), identity(3))
