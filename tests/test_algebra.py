import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segalsim import classifier, eigenbasis
from segalsim.algebra import diagonal_algebra, generate_algebra, joint_spectral_resolution
from segalsim.classifier import _joint_classes
from segalsim.config import ALGEBRA_TOL, InvariantViolation
from segalsim.eigenbasis import _commutative_algebra, _letters_commute
from segalsim.linalg import SpaceLayout, tensor
from segalsim.measurement import (
    full_layout,
    interference_observable,
    make_model,
    ms_layout,
    pointer_algebra,
    pointer_operator,
)
from segalsim.model import _pointer_diagonal
from segalsim.pointer import _environment_characters, _setup
from segalsim.restriction import extremal_states

from _oracles import (
    all_pairs_closure,
    character_table,
    closure_dimension_oracle,
    contains,
    element_values,
    identity,
    joint_classes_numpy,
    joint_resolution_oracle,
    membership_residual,
    positivity_table,
)

O = SpaceLayout((("O", 3),))
MS = SpaceLayout((("S", 2), ("O", 3)))
TWO = SpaceLayout((("S", 2),))

Q_O = np.diag([0.0, 1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SX_O = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)


def q_o_extended():
    return tensor(identity(2), Q_O)


def interference_op():
    b = np.zeros((6, 6), dtype=complex)
    b[1, 5] = 1.0
    b[5, 1] = 1.0
    return b


class TestGenerateAlgebra:
    def test_unit_algebra(self):
        alg = generate_algebra([identity(3)], O)
        assert alg.dimension == 1
        assert alg.commutative

    def test_pointer_algebra_dimension(self):
        # Oracle closure_dimension_oracle([Q_O]) == (3, True): three distinct
        # eigenvalues give the full diagonal algebra span{I, Q, Q^2}.
        alg = generate_algebra([Q_O], O)
        assert alg.dimension == 3
        assert alg.commutative

    def test_pauli_pair_gives_full_matrix_algebra(self):
        # Oracle closure_dimension_oracle([SX, SZ]) == (4, False).
        alg = generate_algebra([SX, SZ], TWO)
        assert alg.dimension == 4
        assert not alg.commutative

    @pytest.mark.parametrize("case", ["pauli-plus-one", "interference"])
    def test_closure_basis_holds_exactly_its_rows(self, case):
        # The closure's row buffer grows by doubling (6 rows, then 12) and
        # is shrunk in place at the end: the basis owns 16 k d^2 bytes.
        if case == "pauli-plus-one":  # M_2 (+) C, k = 5
            x, z = np.zeros((3, 3), complex), np.zeros((3, 3), complex)
            x[:2, :2], x[2, 2], z[:2, :2] = SX, 1.0, SZ
            gens, layout = [x, z], O
        else:
            gens, layout = [q_o_extended(), interference_op()], MS
        alg = generate_algebra(gens, layout)
        assert not alg.commutative and alg.dimension not in (6, 12)
        owner = alg.basis[0].base
        assert all(b.base is owner for b in alg.basis)
        assert owner.nbytes == 16 * alg.dimension * layout.dim**2

    def test_closure_grows_one_buffer(self):
        # wigner-friend's interference algebra at s_dim 2, o_dim 20 has
        # k = 24 elements on d = 40: the buffer grows from 6 rows to 12 and
        # 24.  A growth by copy would hold the old and the new buffer at
        # once (a peak of 39 rows); grown in place, the peak is the 24-row
        # buffer and a few d x d temporaries of the residual.
        model = make_model(s_dim=2, o_dim=20)
        layout = ms_layout(model)
        gens = [pointer_operator(model, layout), interference_observable(model)]
        tracemalloc.start()
        try:
            alg = generate_algebra(gens, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row = 16 * layout.dim**2
        assert alg.dimension == 24
        assert peak < (24 + 8) * row

    def test_commuting_path_holds_few_arrays(self):
        # Two commuting, non-diagonal Hermitian generators at d = 64: the
        # letter check, the joint eigenbasis and the rotation each hold a
        # few d x d arrays, and none is kept past its step.  Holding an
        # adjoint letter and every rotated generator at once would peak at
        # about 6 arrays beyond the generators.
        d = 64
        rng = np.random.default_rng(11)
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        spectra = [np.repeat(np.arange(4.0), 16), np.tile(np.arange(2.0), 32)]
        gens = [(u * values) @ u.conj().T for values in spectra]
        gens = [(g + g.conj().T) / 2 for g in gens]
        layout = SpaceLayout((("O", d),))
        tracemalloc.start()
        try:
            alg = generate_algebra(gens, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alg.commutative and alg.ranks.tolist() == [8] * 8
        assert peak < 5 * 16 * d**2

    def test_matches_oracle_on_random_generators(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            g = (m + m.conj().T) / 2
            dim, comm = closure_dimension_oracle([g])
            alg = generate_algebra([g], O)
            assert alg.dimension == dim
            assert alg.commutative == comm

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            generate_algebra([identity(2)], O)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, entry):
        gen = Q_O.copy()
        gen[1, 1] = entry
        with pytest.raises(ValueError, match="must be finite"):
            generate_algebra([gen], O)

    def test_tol_below_round_off_floor_rejected(self):
        # Non-diagonal generators need tol >= d * eps; exactly at it they close.
        floor = 3 * np.finfo(float).eps
        with pytest.raises(InvariantViolation, match="round-off floor"):
            generate_algebra([SX_O], O, tol=floor / 2)
        assert generate_algebra([SX_O], O, tol=floor).dimension == 3

    def test_diagonal_generator_keeps_any_positive_tol(self):
        alg = generate_algebra([Q_O], O, tol=1e-30)
        assert alg.dimension == 3 and alg.commutative

    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("route", ["diagonals", "dense-diagonal", "dense"])
    def test_tol_must_be_positive(self, tol, route):
        # A NaN tol is refused as a bad argument, as every tol that is not
        # above 0 is, before any classification can read it.
        with pytest.raises(ValueError, match="tol must be positive"):
            if route == "diagonals":
                diagonal_algebra(np.diagonal(Q_O)[None], O, tol)
            else:
                generate_algebra([Q_O if route == "dense-diagonal" else SX_O], O, tol=tol)

    def test_basis_orthonormal(self):
        alg = generate_algebra([q_o_extended(), interference_op()], MS)
        gram = np.array([[np.vdot(a, b) for b in alg.basis] for a in alg.basis])
        assert np.max(np.abs(gram - np.eye(alg.dimension))) <= 1e-10

    def test_closed_under_adjoint_and_product(self):
        alg = generate_algebra([q_o_extended(), interference_op()], MS)
        for m in alg.basis:
            assert membership_residual(alg, m.conj().T) <= alg.tol
        for a in alg.basis:
            for b in alg.basis:
                assert membership_residual(alg, a @ b) <= alg.tol

    def test_identity_in_span(self):
        alg = generate_algebra([SX], TWO)
        assert membership_residual(alg, identity(2)) <= alg.tol

    def test_closure_idempotent(self):
        alg = generate_algebra([Q_O], O)
        again = generate_algebra(list(alg.basis), O)
        assert again.dimension == alg.dimension
        for m in alg.basis:
            assert membership_residual(again, m) <= again.tol
        for m in again.basis:
            assert membership_residual(alg, m) <= alg.tol

    def test_dimension_bound(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        alg = generate_algebra([m], O)
        assert 1 <= alg.dimension <= 9


class TestCommutativity:
    def test_single_hermitian_generator(self):
        assert generate_algebra([Q_O], O).commutative

    def test_full_matrix_algebra(self):
        assert not generate_algebra([SX, SZ], TWO).commutative

    def test_pointer_with_interference_term(self):
        # [Q_O extended, B] != 0, so the joint algebra is non-commutative.
        comm = q_o_extended() @ interference_op() - interference_op() @ q_o_extended()
        assert np.max(np.abs(comm)) > 0.5
        assert not generate_algebra([q_o_extended(), interference_op()], MS).commutative


class TestContains:
    def test_polynomial_of_generator(self):
        assert contains(generate_algebra([Q_O], O), Q_O @ Q_O)

    def test_interference_term_outside_pointer_algebra(self):
        alg = generate_algebra([q_o_extended()], MS)
        assert not contains(alg, interference_op())

    def test_zero_matrix(self):
        assert contains(generate_algebra([Q_O], O), np.zeros((3, 3)))


class TestJointSpectralResolution:
    def test_diagonal_generator(self):
        res = joint_spectral_resolution(generate_algebra([Q_O], O))
        assert len(res.projectors) == 3
        assert res.ranks == (1, 1, 1)
        assert np.allclose(sorted(res.generator_values[:, 0]), [-1.0, 0.0, 1.0], atol=1e-9)

    def test_unit_algebra(self):
        res = joint_spectral_resolution(generate_algebra([identity(2)], TWO))
        assert len(res.projectors) == 1
        assert np.allclose(res.projectors[0], identity(2), atol=1e-12)
        assert res.generator_values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_tensor_extension_doubles_multiplicity(self):
        res = joint_spectral_resolution(generate_algebra([q_o_extended()], MS))
        assert len(res.projectors) == 3
        assert res.ranks == (2, 2, 2)
        assert np.allclose(sorted(res.generator_values[:, 0]), [-1.0, 0.0, 1.0], atol=1e-9)

    def test_projector_family_properties(self):
        res = joint_spectral_resolution(generate_algebra([q_o_extended()], MS))
        total = np.sum(res.projectors, axis=0)
        assert np.max(np.abs(total - identity(6))) <= 1e-9
        for j, p in enumerate(res.projectors):
            assert np.max(np.abs(p - p.conj().T)) <= 1e-9
            assert np.max(np.abs(p @ p - p)) <= 1e-9
            for k, q in enumerate(res.projectors):
                if j != k:
                    assert np.max(np.abs(p @ q)) <= 1e-9

    def test_generators_reconstruct(self):
        alg = generate_algebra([Q_O], O)
        res = joint_spectral_resolution(alg)
        recon = np.sum(
            [lam * p for lam, p in zip(res.generator_values[:, 0], res.projectors)], axis=0
        )
        assert np.max(np.abs(recon - Q_O)) <= 1e-8

    def test_independent_of_random_draw(self, monkeypatch):
        # Diagonal generators take no draw: the seed cannot move anything,
        # while a rotated generator's eigenvectors show that it is read.
        (gen,), _ = rotated(np.random.default_rng(5), q_o_extended())
        reference = joint_spectral_resolution(generate_algebra([q_o_extended()], MS))
        drawn = set()
        for trial in range(10):
            monkeypatch.setattr(eigenbasis, "_EIGENBASIS_SEED", 1000 + trial)
            res = joint_spectral_resolution(generate_algebra([q_o_extended()], MS))
            for p, q in zip(reference.projectors, res.projectors):
                assert np.max(np.abs(p - q)) <= 1e-7
            drawn.add(generate_algebra([gen], MS).eigenvectors.tobytes())
        assert len(drawn) > 1

    def test_values_are_algebra_isomorphism(self):
        # Multiplicativity: value vectors of products are entrywise products.
        for gen in (Q_O, rotated(np.random.default_rng(7), Q_O)[0][0]):
            alg = generate_algebra([gen], O)
            res = joint_spectral_resolution(alg)
            rng = np.random.default_rng(8)
            for _ in range(10):
                a = sum(c * m for c, m in zip(rng.standard_normal(alg.dimension), alg.basis))
                b = sum(c * m for c, m in zip(rng.standard_normal(alg.dimension), alg.basis))
                lhs = element_values(res, a @ b)
                rhs = element_values(res, a) * element_values(res, b)
                assert np.max(np.abs(lhs - rhs)) <= 1e-8

    @pytest.mark.parametrize("rank", [2, 5, 7, 20])
    def test_character_and_positivity_tables_are_exact(self, rank):
        # Character k takes 1/sqrt(rank_k) on B_k, and <B_k, I> = sqrt(rank_k),
        # read off the ranks: no sum whose order the BLAS picks.
        layout = SpaceLayout((("O", 3 * rank),))
        alg = generate_algebra([np.diag(np.repeat([0.0, 1.0, 2.0], rank))], layout)
        table = np.diag(np.full(3, 1 / np.sqrt(rank)))
        assert np.array_equal(character_table(alg), table)
        assert np.array_equal(positivity_table(alg), np.vstack([np.full(3, np.sqrt(rank)), table]))
        # The package's characters read those rows off the ranks.
        assert np.array_equal([c.values for c in extremal_states(alg)], table)

    def test_non_commutative_rejected(self):
        with pytest.raises(ValueError, match="commutative"):
            joint_spectral_resolution(generate_algebra([SX, SZ], TWO))

    def test_generic_path_independent_of_random_draw(self, monkeypatch):
        # A rotated generator takes the draw; every seed finds the same
        # projectors, U P_k U^dag for the known U.
        (gen,), u = rotated(np.random.default_rng(5), q_o_extended())
        reference = joint_spectral_resolution(generate_algebra([q_o_extended()], MS))
        drawn = set()
        for trial in range(10):
            monkeypatch.setattr(eigenbasis, "_EIGENBASIS_SEED", 1000 + trial)
            res = joint_spectral_resolution(generate_algebra([gen], MS))
            assert res.ranks == reference.ranks
            for p, q in zip(reference.projectors, res.projectors):
                assert np.max(np.abs(u @ p @ u.conj().T - q)) <= 1e-7
            drawn.add(res.eigenvectors.tobytes())
        assert len(drawn) > 1


# Oracle: the eigenbasis representation against the all-pairs closure and
# the randomized resolution of tests/_oracles.py, on diagonal generators
# and on the same generators rotated by a random unitary.

LAYOUTS = [
    SpaceLayout((("O", 7),)),
    MS,
    SpaceLayout((("S", 2), ("O", 3), ("E", 2))),
]


def rotated(rng, *gens):
    """U g U^dag for each generator, one random unitary U; and U."""
    d = gens[0].shape[0]
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return [u @ np.asarray(g, dtype=complex) @ u.conj().T for g in gens], u


def random_diagonals(rng, layout, n, complex_values=False):
    """n diagonal generators whose joint values repeat across the basis."""
    d = layout.dim
    k = int(rng.integers(1, d + 1))
    if rng.random() < 0.5:
        points = rng.integers(-3, 4, size=(k, n)) / 2.0  # values shared by generators
    else:
        points = rng.standard_normal((k, n))
    if complex_values:
        points = points + 1j * rng.integers(-2, 3, size=(k, n))
    if rng.random() < 0.5 and len(layout.factors) > 1:
        # one factor carries the values, the others are identities
        label, dim = layout.factors[int(rng.integers(len(layout.factors)))]
        small = points[rng.integers(0, k, dim)]
        gens = []
        for g in range(n):
            ops = [np.diag(small[:, g]) if f == label else np.eye(m) for f, m in layout.factors]
            gens.append(tensor(*ops))
        return gens
    values = points[rng.integers(0, k, d)]
    return [np.diag(values[:, g]) for g in range(n)]


def oracle_basis(gens, layout):
    """Basis and commutativity from the all-pairs closure."""
    return all_pairs_closure([np.asarray(g, dtype=complex) for g in gens], layout.dim)


def assert_same_algebra(alg, gens):
    basis, commutative = oracle_basis(gens, alg.layout)
    assert alg.dimension == len(basis)
    assert alg.commutative and commutative
    for m in basis:
        assert contains(alg, m)
    for m in alg.basis:
        assert in_oracle_span(basis, m)
    return basis


def assert_same_resolution(alg, gens):
    basis = assert_same_algebra(alg, gens)
    values, ranks, projectors = joint_resolution_oracle(basis, list(alg.generators))
    res = joint_spectral_resolution(alg)
    assert res.ranks == ranks
    assert np.allclose(res.generator_values, values.real, atol=1e-9)
    for p, q in zip(res.projectors, projectors):
        assert np.allclose(p, q, atol=1e-7)
    chars = [c.generator_values.tolist() for c in extremal_states(alg)]
    assert np.allclose(chars, values.real, atol=1e-9)


def assert_rotation_agrees(alg, gens):
    """The rotated generators give the same classes, values and U P U^dag."""
    rotated_gens, u = rotated(np.random.default_rng(alg.layout.dim), *gens)
    turned = generate_algebra(rotated_gens, alg.layout)
    res, res_turned = joint_spectral_resolution(alg), joint_spectral_resolution(turned)
    assert turned.eigenvectors is not None
    assert res_turned.ranks == res.ranks
    assert np.allclose(res_turned.generator_values, res.generator_values, atol=1e-9)
    for p, q in zip(res.projectors, res_turned.projectors):
        assert np.allclose(u @ p @ u.conj().T, q, atol=1e-7)
    return turned


class TestDiagonalPathOracle:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda lay: "x".join(map(str, lay.dims)))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_real_diagonals_match_generic(self, layout, n):
        rng = np.random.default_rng([7, layout.dim, n])
        for _ in range(4):
            gens = random_diagonals(rng, layout, n)
            alg = generate_algebra(gens, layout)
            assert alg.eigenvectors is None
            assert_same_resolution(alg, gens)
            assert_rotation_agrees(alg, gens)

    def test_diagonal_arrays_stand_for_their_matrices(self):
        # A length-d array is the diagonal matrix it holds: a list of them
        # alone is read as diagonals, and a mixed list makes them dense.
        model = make_model(s_dim=2, o_dim=3)
        qo = pointer_operator(model, MS)
        b = interference_observable(model)
        rng = np.random.default_rng(9)
        for dense in ([qo], random_diagonals(rng, MS, 2)):
            alg = generate_algebra([np.diagonal(g) for g in dense], MS)
            ref = generate_algebra(dense, MS)
            assert alg.eigenvectors is None and alg.dimension == ref.dimension
            assert np.array_equal(alg.labels, ref.labels)
            assert np.array_equal(alg.generator_diagonals, ref.generator_diagonals)
        mixed = generate_algebra([np.diagonal(qo), b], MS)
        ref = generate_algebra([qo, b], MS)
        assert not mixed.commutative and mixed.dimension == ref.dimension
        assert np.array_equal(mixed.basis, ref.basis)
        with pytest.raises(ValueError, match=r"generator shape \(5,\) does not match layout dim 6"):
            generate_algebra([np.ones(5)], MS)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda lay: "x".join(map(str, lay.dims)))
    def test_complex_diagonals_match_generic_and_raise_alike(self, layout):
        rng = np.random.default_rng([8, layout.dim])
        for n in (1, 2):
            gens = random_diagonals(rng, layout, n, complex_values=True)
            if n == 2:
                gens[0] = gens[0].real  # only generator 1 has non-real values
            alg = generate_algebra(gens, layout)
            assert_same_algebra(alg, gens)
            turned = generate_algebra(rotated(rng, *gens)[0], layout)
            assert turned.eigenvectors is not None
            assert turned.dimension == alg.dimension
            if not np.any(np.diagonal(gens[-1]).imag):
                continue  # every value drawn happened to be real
            message = f"generator {n - 1} has non-real joint eigenvalue"
            for a in (alg, turned):
                with pytest.raises(ValueError, match=message):
                    joint_spectral_resolution(a)

    def test_empty_generator_list(self):
        alg = generate_algebra([], MS)
        assert alg.dimension == 1
        assert_same_algebra(alg, [])
        res = joint_spectral_resolution(alg)
        assert res.ranks == (6,)
        assert np.allclose(res.projectors[0], identity(6))
        assert res.generator_values.shape == (1, 0)

    def test_projections_match_dense_basis(self):
        # project_coefficients reads diag(V^dag a V) only; the dense basis
        # gives the same components of any operator, diagonal or rotated.
        rng = np.random.default_rng(9)
        layout = LAYOUTS[2]
        gens = random_diagonals(rng, layout, 2)
        for turned in (gens, rotated(rng, *gens)[0]):
            alg = generate_algebra(turned, layout)
            for _ in range(3):
                a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
                dense = np.array([np.vdot(b, a) for b in alg.basis])
                assert np.allclose(alg.project_coefficients(a), dense, atol=1e-12)

    @pytest.mark.parametrize("factor, path", [(0.9, "generic"), (1.1, "diagonal")])
    def test_near_collision_at_fallback_boundary(self, factor, path):
        # Values 1.8e-5 and 2.2e-5 apart are distinct at tol = 1e-9, given
        # as a diagonal ("diagonal") or rotated by a random unitary ("generic").
        layout = SpaceLayout((("O", 8),))
        delta = factor * 1e4 * ALGEBRA_TOL * 2.0  # the largest magnitude is 2
        gen = np.diag([0.0, 1.0, 1.0 + delta, 1.0 + delta, -1.0, 2.0, 2.0, 0.0])
        if path == "generic":
            gen = rotated(np.random.default_rng(10), gen)[0][0]
        alg = generate_algebra([gen], layout)
        assert alg.dimension == 5
        assert_same_resolution(alg, [gen])

    def test_merging_collision_gives_generic_answer(self):
        # Values 1e-12 apart are one value at tol = 1e-9, in the oracle
        # closure and in both representations.
        layout = SpaceLayout((("O", 4),))
        gen = np.diag([0.0, 1.0, 1.0 + 1e-12, -1.0])
        alg = generate_algebra([gen], layout)
        assert alg.dimension == len(oracle_basis([gen], layout)[0]) == 3
        assert closure_dimension_oracle([gen]) == (3, True)
        assert assert_rotation_agrees(alg, [gen]).dimension == 3

    def test_off_diagonal_entry_takes_generic_path(self):
        gen = np.diag([0.0, 1.0, -1.0]).astype(complex)
        gen[0, 2] = gen[2, 0] = 1e-300
        alg = generate_algebra([gen], O)
        assert alg.eigenvectors is not None
        res = joint_spectral_resolution(alg)
        assert res.ranks == (1, 1, 1)
        assert np.allclose(res.generator_values[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)


# Oracle: the letter closure against the all-pairs closure it replaces.


def rotated_hermitian_pair(rng, values_a, values_b):
    """U diag(a) U^dag and U diag(b) U^dag for one random unitary U."""
    return rotated(rng, np.diag(np.asarray(values_a, float)), np.diag(np.asarray(values_b, float)))


def in_oracle_span(basis, m, tol=ALGEBRA_TOL):
    rows = np.array([b.reshape(-1) for b in basis])
    v = m.reshape(-1)
    return np.linalg.norm(v - rows.T @ (rows.conj() @ v)) <= tol * np.linalg.norm(v)


def assert_matches_all_pairs(gens, layout):
    alg = generate_algebra(gens, layout)
    basis, commutative = oracle_basis(gens, layout)
    assert alg.dimension == len(basis)
    assert alg.commutative == commutative
    for m in basis:
        assert contains(alg, m)
    for m in alg.basis:
        assert in_oracle_span(basis, m)
    if gens:
        assert closure_dimension_oracle(list(gens)) == (alg.dimension, alg.commutative)
    return alg


E12 = np.array([[0, 1], [0, 0]], dtype=complex)


class TestLetterClosureOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_commuting_rotated_pairs(self, seed):
        rng = np.random.default_rng([11, seed])
        d = int(rng.integers(4, 9))
        classes = rng.integers(0, 3, size=(d, 2))
        gens, _ = rotated_hermitian_pair(rng, 2.0 * classes[:, 0] - 1.5, 1.5 * classes[:, 1] + 1.0)
        alg = assert_matches_all_pairs(gens, SpaceLayout((("O", d),)))
        assert alg.commutative
        assert alg.dimension == len({tuple(c) for c in classes})
        assert_same_resolution(alg, gens)

    def test_pauli_pair(self):
        alg = assert_matches_all_pairs([SX, SZ], TWO)
        assert alg.dimension == 4 and not alg.commutative

    def test_nilpotent_needs_adjoint_letter(self):
        # E12 @ E12 = 0: only the adjoint letter E21 reaches M_2.
        alg = assert_matches_all_pairs([E12], TWO)
        assert alg.dimension == 4 and not alg.commutative
        # E21 is exactly E12^dag, so it is one letter, not two.
        assert assert_matches_all_pairs([E12, E12.T.copy()], TWO).dimension == 4

    def test_zero_eigenvalue_products_vanish(self):
        # P Q = Q P = 0 exactly; Q^2 = I - P.
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        q = np.zeros((3, 3), dtype=complex)
        q[1, 2] = q[2, 1] = 1.0
        alg = assert_matches_all_pairs([p, q], O)
        assert alg.dimension == 3 and alg.commutative
        # Rotated orthogonal projectors: P Q is zero only up to round-off.
        pair, _ = rotated(np.random.default_rng(16), p, np.diag([0.0, 1.0, 0.0]))
        alg = assert_matches_all_pairs(pair, O)
        assert alg.dimension == 3 and alg.commutative

    def test_random_non_normal_3x3(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        alg = assert_matches_all_pairs([m], O)
        assert alg.dimension == 9 and not alg.commutative

    def test_empty_generator_list(self):
        alg = assert_matches_all_pairs([], O)
        assert alg.dimension == 1 and alg.commutative
        assert np.allclose(alg.basis[0], identity(3) / np.sqrt(3))

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_max_commutator_covers_all_pairs(self, k):
        # Only letters i and j fail to commute; every other letter lives
        # on index 2 alone.  The letter check must find each such pair.
        x = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
        z = np.diag([1.0, -1.0, 0.0]).astype(complex)
        for i in range(k):
            for j in range(i + 1, k):
                letters = [np.diag([0.0, 0.0, 1.0 + n]).astype(complex) for n in range(k)]
                assert _letters_commute(letters, ALGEBRA_TOL)
                letters[i], letters[j] = x, z
                assert not _letters_commute(letters, ALGEBRA_TOL)

    def test_basis_is_one_read_only_stack(self):
        alg = generate_algebra([SX, SZ], TWO)
        assert all(b.base is not None and not b.flags.writeable for b in alg.basis)
        gram = np.array([[np.vdot(a, b) for b in alg.basis] for a in alg.basis])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def dense_resolution_values(res, alg):
    """Character values, generator_values and ranks from trace(p @ m) / rank."""
    ranks = [int(round(np.trace(p).real)) for p in res.projectors]
    basis_vals = [[np.trace(p @ m) / r for m in alg.basis] for p, r in zip(res.projectors, ranks)]
    gen_vals = [[np.trace(p @ g) / r for g in alg.generators] for p, r in zip(res.projectors, ranks)]
    return np.array(basis_vals), np.array(gen_vals), tuple(ranks)


class TestBlockResolutionOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_block_values_match_dense_formulas(self, seed):
        rng = np.random.default_rng([13, seed])
        values_a = np.repeat([-2.0, 1.0, 3.0], [1, 2, 3])
        values_b = np.array([0.5, -1.5, 0.5, 2.5, 2.5, 0.5])
        gens, u = rotated_hermitian_pair(rng, values_a, values_b)
        layout = SpaceLayout((("O", 6),))
        alg = generate_algebra(gens, layout)
        res = joint_spectral_resolution(alg)
        basis_vals, gen_vals, ranks = dense_resolution_values(res, alg)
        assert res.ranks == ranks
        assert np.allclose(character_table(alg), basis_vals, atol=1e-12)
        assert np.allclose([c.values for c in extremal_states(alg)], basis_vals, atol=1e-12)
        assert np.allclose(res.generator_values, gen_vals.real, atol=1e-12)
        # Ground truth: one projector per distinct (a, b) pair, in value order.
        pairs = sorted(set(zip(values_a, values_b)))
        assert np.allclose(res.generator_values, pairs, atol=1e-9)
        for (a, b), p in zip(pairs, res.projectors):
            cols = u[:, (values_a == a) & (values_b == b)]
            assert np.allclose(p, cols @ cols.conj().T, atol=1e-9)
        assert_same_resolution(alg, gens)

    def test_inconsistent_blocks_rejected(self):
        # Eigenvectors that mix two eigenspaces with different values fail
        # the V^dag g V check; the true eigenvectors pass it.
        rng = np.random.default_rng(14)
        values = np.array([-1.0, -1.0, 2.0, 2.0, 5.0])
        gens, u = rotated_hermitian_pair(rng, values, values)
        layout = SpaceLayout((("O", 5),))
        alg = _commutative_algebra(tuple(gens[:1]), layout, ALGEBRA_TOL, u)
        assert joint_spectral_resolution(alg).ranks == (2, 2, 1)
        mixed = u.copy()
        mixed[:, 1] = (u[:, 1] + u[:, 2]) / np.sqrt(2)
        mixed[:, 2] = (u[:, 1] - u[:, 2]) / np.sqrt(2)
        with pytest.raises(InvariantViolation, match="not diagonal on the joint eigenvectors"):
            _commutative_algebra(tuple(gens[:1]), layout, ALGEBRA_TOL, mixed)

    def test_interference_observable(self):
        alg = generate_algebra([interference_op()], MS)
        res = joint_spectral_resolution(alg)
        basis_vals, gen_vals, ranks = dense_resolution_values(res, alg)
        assert res.ranks == ranks == (1, 4, 1)
        assert np.allclose(character_table(alg), basis_vals, atol=1e-12)
        assert np.allclose([c.values for c in extremal_states(alg)], basis_vals, atol=1e-12)
        assert np.allclose(res.generator_values, gen_vals.real, atol=1e-12)
        assert np.allclose(res.generator_values[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)


# Clustered spectra: a rotated generator whose eigenvalues sit 0.01 apart.

CLUSTERED = np.array([-2.5, -1.5, -0.5, 0.5, 1.0, 1.01, 1.02, 1.5, 2.5])
O9 = SpaceLayout((("O", 9),))


def clustered_generator(seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    h = (u * CLUSTERED) @ u.conj().T
    return (h + h.conj().T) / 2.0


class TestClusteredSpectra:
    @pytest.mark.parametrize("seed", range(8))
    def test_rotated_generator_resolves(self, seed):
        alg = generate_algebra([clustered_generator(seed)], O9)
        assert alg.dimension == 9 and alg.commutative
        res = joint_spectral_resolution(alg)
        assert res.ranks == (1,) * 9
        assert np.allclose(res.generator_values[:, 0], CLUSTERED, atol=1e-9)
        chars = [c.pointer_value() for c in extremal_states(alg)]
        assert np.allclose(chars, CLUSTERED, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_closure_matches_oracle(self, seed):
        gen = clustered_generator(seed)
        alg = generate_algebra([gen], O9)
        assert closure_dimension_oracle([gen]) == (alg.dimension, alg.commutative) == (9, True)

    def test_plain_diagonal_gives_the_same_answer(self):
        alg = generate_algebra([np.diag(CLUSTERED[::-1])], O9)
        res = joint_spectral_resolution(alg)
        assert alg.dimension == 9 and res.ranks == (1,) * 9
        assert res.generator_values[:, 0].tolist() == CLUSTERED.tolist()

    def test_chained_cluster_is_ambiguous(self):
        # Gaps of 0.6e-9 merge at tol = 1e-9, but the chain spans 1.2e-9.
        gen = np.diag([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9, -1.0])
        for g in (gen, rotated(np.random.default_rng(15), gen)[0][0]):
            with pytest.raises(InvariantViolation, match="chain of joint values"):
                generate_algebra([g], SpaceLayout((("O", 4),)))

    def test_split_within_accuracy_is_ambiguous(self):
        # Eigenvectors off by 1e-10 measure the joint values to about 1e-10;
        # a split of 1e-11, though wider than tol x scale, cannot be told.
        gen = np.diag([0.0, 1e-11, 1.0]).astype(complex)
        theta = 1e-10
        v = np.eye(3, dtype=complex)
        v[0, 0] = v[2, 2] = np.cos(theta)
        v[0, 2], v[2, 0] = -np.sin(theta), np.sin(theta)
        assert generate_algebra([gen], O, 1e-12).dimension == 3
        with pytest.raises(InvariantViolation, match="within their accuracy"):
            _commutative_algebra((gen,), O, 1e-12, v)


def classified(classifier, values, tol):
    """The labels and split gaps of ``classifier``, or the message it raised."""
    try:
        labels, split_gaps = classifier(values, tol)
    except InvariantViolation as error:
        return str(error)
    return labels.tolist(), [float(gap) for gap in split_gaps]


@st.composite
def joint_value_rows(draw):
    """Up to 3 rows of up to 64 joint values, and a tol: exact ties, signed
    zeros, gaps at, just under and just over tol x scale, chains of gaps
    under it that span more, imaginary parts, and scales at which
    x * 1e9 overflows."""
    n, d = draw(st.integers(0, 3)), draw(st.integers(1, 64))
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.25]))
    rows = []
    for _ in range(n):
        scale = draw(st.sampled_from([1.0, -3.5e-7, 1.8e299, 1.7e299, -1.8e299]))
        # Column 0 is the largest magnitude: the width is tol x |scale|.
        width = tol * abs(scale)
        under, over = np.nextafter(width, 0.0), np.nextafter(width, np.inf)
        free = [x * abs(scale) for x in draw(st.lists(st.floats(-0.9, 0.9), max_size=3))]
        reals = [0.0, -0.0, width, under, over, -width, 0.6 * width, 1.2 * width, 2.0 * over, 0.5 * scale]
        reals.append(0.9995 * scale)  # at 1.8e299, x * 1e9 overflows here too
        imags = [0.0, -0.0, width, 0.6 * width, 1.2 * width, 0.25 * scale]
        # A few values a row, each in many columns.
        reals = draw(st.lists(st.sampled_from(reals + free), min_size=1, max_size=4))
        imags = draw(st.lists(st.sampled_from(imags), min_size=1, max_size=2))
        picks = st.tuples(st.integers(0, len(reals) - 1), st.integers(0, len(imags) - 1))
        columns = draw(st.lists(picks, min_size=d - 1, max_size=d - 1))
        rows.append([scale, *(complex(reals[i], imags[j]) for i, j in columns)])
    return np.array(rows, dtype=complex).reshape(n, d), tol


class TestJointClassesOracle:
    """The plain-Python classifier against the numpy one it replaced."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(joint_value_rows())
    # Both values of generator 0 round to inf, so generator 1 orders them.
    @example((np.array([[1.8e299, 1.799e299], [1.0, 2.0]], dtype=complex), 1e-9))
    def test_matches_numpy_classifier(self, case):
        values, tol = case
        with np.errstate(over="ignore"):  # np.round of x * 1e9 past the float range
            expected = classified(joint_classes_numpy, values, tol)
        assert classified(_joint_classes, values, tol) == expected

    @pytest.mark.parametrize(
        "row",
        [[np.inf, 1], [np.inf], [-np.inf, np.inf], [np.nan, 1], [1, np.nan, 2], [complex(1, np.nan), 2],
         [complex(np.inf, np.nan)], [complex(0, np.inf), 1], [1e308, -1e308], [complex(1e308, 1e308), 0],
         [np.nan, 1, np.nan, 2, np.nan, 3, np.nan, 4, np.nan]],
    )
    def test_non_finite_values_raise_alike(self, row):
        # Joint values of finite generators can overflow on the eigenbasis path.
        values = np.array([row], dtype=complex)
        with np.errstate(all="ignore"):
            expected = classified(joint_classes_numpy, values, 1e-9)
            assert classified(_joint_classes, values, 1e-9) == expected

    def test_rounding_is_numpy_round(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(20000) * 10.0 ** rng.integers(-14, 14, 20000)
        ties = (rng.integers(-10**6, 10**6, 2000) + 0.5) / 1e9  # halves at the 10th decimal
        x = np.concatenate([x, ties, [0.0, -0.0, -3e-10, 5e-10, 4.5e6, 1.8e299, -1.7e299, 1.8e300, -np.inf]])
        rounded = np.array([classifier._round9(v) for v in x.tolist()])
        with np.errstate(over="ignore"):
            assert rounded.tobytes() == np.round(x, 9).tobytes()

    @pytest.mark.parametrize(
        "model",
        [make_model(s_dim=6, o_dim=7, environment={"e_dim": 8}), make_model(s_dim=3, o_dim=4)],
        ids=["setup-env-d336", "gemenge"],
    )
    def test_pointer_setup_runs_no_numpy_sort(self, monkeypatch, model):
        # The classes come from plain Python: numpy's sort, unique, cumsum,
        # diff and round code is not paged in by the per-model setup.
        def refused(*args, **kwargs):
            raise AssertionError("numpy sort code called")

        _setup.cache_clear()
        _environment_characters.cache_clear()
        with monkeypatch.context() as patch:
            for name in ("argsort", "sort", "lexsort", "unique", "cumsum", "diff", "round"):
                patch.setattr(np, name, refused)
            algebras = pointer_algebra(model, environment=True), pointer_algebra(model)
        for alg, layout in zip(algebras, (full_layout(model), ms_layout(model))):
            labels, _ = joint_classes_numpy(_pointer_diagonal(model, layout)[None], ALGEBRA_TOL)
            assert alg.labels.tolist() == labels.tolist()
        _setup.cache_clear()
        _environment_characters.cache_clear()

    def test_diagonal_algebra_working_set_at_large_d(self):
        # d = 8192 with 4096 distinct values: the classifier keeps no Python
        # object per entry beyond the labelling's lists of shared ids.
        values = np.repeat(np.arange(4096.0), 2)[None]
        layout = SpaceLayout((("O", values.shape[1]),))
        tracemalloc.start()
        try:
            alg = diagonal_algebra(values, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alg.dimension == 4096 and alg.ranks.tolist() == [2] * 4096
        assert peak < 2 * 2**20
