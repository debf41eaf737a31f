"""Hermitian solves, block-diagonal structure, eig oracle, seeded sampling."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rsma_sim import (
    DimensionMismatch,
    SingularMatrix,
    trial_rng,
)
from rsma_sim.linalg import BlockDiag, blockdiag_solve

from oracles import (
    cholesky_pivot_rule,
    dense_blocks,
    hermitian_solve,
    principal_gep_oracle,
    sample_complex_gaussian,
    seeded_rng,
    solve_one,
    to_dense,
)


def random_hpd(rng, n, shift=0.5):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x @ x.conj().T + shift * np.eye(n)


class TestHermitianSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0j, -1.0])
        np.testing.assert_allclose(hermitian_solve(np.eye(3), b), b, atol=1e-14)

    def test_diagonal(self):
        x = hermitian_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_hpd_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_hpd(rng, 6)
            b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            x = hermitian_solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_indefinite_hermitian(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = x + x.conj().T  # Hermitian, generally indefinite
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        sol = hermitian_solve(a, b)
        assert np.linalg.norm(a @ sol - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_raises(self):
        a = np.diag([1.0, 1e-30])
        with pytest.raises(SingularMatrix):
            hermitian_solve(a, np.ones(2))

    def test_dimension_errors(self):
        with pytest.raises(DimensionMismatch):
            hermitian_solve(np.eye(3), np.ones(2))
        with pytest.raises(DimensionMismatch):
            hermitian_solve(np.ones((2, 3)), np.ones(2))


def random_vectors(rng, k_vectors, n):
    return rng.standard_normal((k_vectors, n)) + 1j * rng.standard_normal((k_vectors, n))


def random_blockdiag(rng, n, m, k_vectors=2, batch=1):
    """Positive definite BlockDiag with random diagonals, vectors and weights."""
    diag = rng.uniform(0.5, 2.0, (batch, n))
    weights = rng.uniform(0.0, 3.0, (batch, m, k_vectors))
    return BlockDiag(diag, random_vectors(rng, k_vectors, n), weights)


class TestBlockDiag:
    def test_identity_blocks(self):
        bd = BlockDiag(np.ones((1, 2)), np.zeros((0, 2)), np.zeros((1, 2, 0)))
        v = np.ones(4, dtype=complex)
        np.testing.assert_allclose(solve_one(bd, v), v, atol=1e-14)

    def test_scalar_blocks(self):
        bd = BlockDiag(np.array([[1.0]]), np.array([[1.0j]]), np.array([[[1.0], [3.0]]]))
        np.testing.assert_allclose(solve_one(bd, np.array([2.0, 4.0])), [1.0, 1.0], atol=1e-14)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        bd = random_blockdiag(rng, 3, 4)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        np.testing.assert_allclose(bd.matvec(v)[0], to_dense(bd) @ v, rtol=1e-12)

    def test_three_blocks_match_dense_solve(self):
        rng = np.random.default_rng(4)
        bd = random_blockdiag(rng, 4, 3)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        got = solve_one(bd, v)
        want = hermitian_solve(to_dense(bd), v)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 5),
        k_vectors=st.integers(0, 4),
        batch=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blockwise_equals_dense_solve(self, n, m, k_vectors, batch, seed):
        # every element of a batch matches its own dense solve
        rng = np.random.default_rng(seed)
        bd = random_blockdiag(rng, n, m, k_vectors, batch)
        v = rng.standard_normal((batch, n * m)) + 1j * rng.standard_normal((batch, n * m))
        got, faults = blockdiag_solve(bd, v)
        assert faults == [None] * batch
        dense = scipy.linalg.block_diag(*dense_blocks(bd))
        want = hermitian_solve(dense, v.reshape(-1)).reshape(batch, -1)
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)
        np.testing.assert_allclose(bd.matvec(v).reshape(-1), dense @ v.reshape(-1), rtol=1e-12)

    @pytest.mark.parametrize("case", ["no vectors", "equal blocks", "zero-weight block"])
    def test_downdate_edge_cases_match_dense_solve(self, case):
        # no downdate at all (K = 0 or every block equal to the shared base)
        # and a rank-K downdate (a block with no outer products)
        rng = np.random.default_rng(23)
        bd = random_blockdiag(rng, 5, 4, k_vectors=0 if case == "no vectors" else 3, batch=2)
        weights = bd.weights.copy()
        if case == "equal blocks":
            weights[:] = weights[:, :1]
        elif case == "zero-weight block":
            weights[:, 2] = 0.0
        bd = BlockDiag(bd.diag, bd.vectors, weights)
        v = rng.standard_normal((2, bd.size)) + 1j * rng.standard_normal((2, bd.size))
        got, faults = blockdiag_solve(bd, v)
        assert faults == [None, None]
        dense = scipy.linalg.block_diag(*dense_blocks(bd))
        want = hermitian_solve(dense, v.reshape(-1)).reshape(2, -1)
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)

    def test_failed_element_named_and_batch_mates_solved(self):
        # element 1's block 2 is within PIVOT_RTOL of singular; elements 0
        # and 2 still match their dense solves
        rng = np.random.default_rng(24)
        good = random_blockdiag(rng, 4, 3, k_vectors=2, batch=3)
        weights = good.weights.copy()
        weights[1, 2, 0] = 1e16
        bd = BlockDiag(good.diag, good.vectors, weights)
        v = rng.standard_normal((3, bd.size)) + 1j * rng.standard_normal((3, bd.size))
        got, faults = blockdiag_solve(bd, v)
        assert isinstance(faults[1], SingularMatrix) and faults[1].block_index == 2
        assert faults[0] is None and faults[2] is None
        assert np.isnan(got[1]).all()
        blocks = dense_blocks(bd).reshape(3, bd.n_blocks, bd.block_dim, bd.block_dim)
        for b in (0, 2):
            want = hermitian_solve(scipy.linalg.block_diag(*blocks[b]), v[b])
            assert np.linalg.norm(got[b] - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)

    def test_singular_block_identified(self):
        # block 1 is I - e_0 e_0^H = diag(0, 1): exactly singular
        vectors = np.array([[1.0, 0.0]])
        bd = BlockDiag(np.ones((1, 2)), vectors, np.array([[[0.5], [-1.0]]]))
        with pytest.raises(SingularMatrix) as excinfo:
            solve_one(bd, np.ones(4))
        assert excinfo.value.block_index == 1
        # a zero diagonal leaves every block without a floor
        zero = BlockDiag(np.zeros((1, 2)), vectors, np.array([[[1.0], [1.0]]]))
        with pytest.raises(SingularMatrix) as excinfo:
            solve_one(zero, np.ones(4))
        assert excinfo.value.block_index == 0

    def test_near_singular_block_identified(self):
        # positive definite, but block 2 is diag(1 + 1e15, 1): its floor is
        # within PIVOT_RTOL of its norm
        weights = np.array([[[0.0], [1.0], [1e15], [0.0]]])
        bd = BlockDiag(np.ones((1, 2)), np.array([[1.0, 0.0]]), weights)
        with pytest.raises(SingularMatrix) as excinfo:
            solve_one(bd, np.ones(8))
        assert excinfo.value.block_index == 2

    def test_indefinite_block_identified(self):
        rng = np.random.default_rng(13)
        weights = np.array([[[1.0, 2.0], [1.0, -10.0], [0.5, 0.5]]])
        bd = BlockDiag(np.ones((1, 3)), random_vectors(rng, 2, 3), weights)
        indefinite = dense_blocks(bd)[1]
        assert np.linalg.eigvalsh(indefinite).min() < 0 < np.linalg.eigvalsh(indefinite).max()
        with pytest.raises(SingularMatrix) as excinfo:
            solve_one(bd, np.ones(9))
        assert excinfo.value.block_index == 1

    def test_faulty_elements_leave_batch_mates_alone(self):
        # elements 1 (a singular block 1) and 3 (a NaN diagonal) fail; the
        # others solve exactly as they do on their own
        rng = np.random.default_rng(21)
        good = random_blockdiag(rng, 3, 2, batch=4)
        diag, weights = good.diag.copy(), good.weights.copy()
        weights[1, 1, 0] = -1.0
        diag[3, 2] = np.nan
        bd = BlockDiag(diag, good.vectors, weights)
        v = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        got, faults = blockdiag_solve(bd, v)
        assert faults[0] is None and faults[2] is None
        assert isinstance(faults[1], SingularMatrix) and faults[1].block_index == 1
        assert str(faults[1]) == "block 1 singular: negative weight"
        assert isinstance(faults[3], DimensionMismatch)
        assert np.isnan(got[[1, 3]]).all()
        for b in (0, 2):
            alone = BlockDiag(good.diag[b:b + 1], good.vectors, good.weights[b:b + 1])
            np.testing.assert_array_equal(got[b], solve_one(alone, v[b]))

    def test_non_hermitian_rejected(self):
        vectors = np.ones((1, 2), dtype=complex)
        with pytest.raises(DimensionMismatch):
            BlockDiag(np.ones((1, 2)), vectors, np.array([[[1.0 + 1e-3j]]]))
        with pytest.raises(DimensionMismatch):
            BlockDiag(np.array([[1.0, 1.0j]]), vectors, np.ones((1, 1, 1)))

    def test_non_finite_entries_fail_the_solve(self):
        vectors = np.ones((1, 2), dtype=complex)
        for diag, weights, v in (
            (np.array([[1.0, np.nan]]), np.ones((1, 1, 1)), np.ones(2)),
            (np.ones((1, 2)), np.array([[[np.inf]]]), np.ones(2)),
            (np.ones((1, 2)), np.ones((1, 1, 1)), np.array([1.0, np.inf])),
        ):
            with pytest.raises(DimensionMismatch, match="must be finite"):
                solve_one(BlockDiag(diag, vectors, weights), v)

    def test_shapes_checked(self):
        vectors = np.ones((1, 2), dtype=complex)
        with pytest.raises(DimensionMismatch):
            blockdiag_solve(BlockDiag(np.ones((2, 2)), vectors, np.ones((2, 1, 1))), np.ones(2))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 4),
        k_vectors=st.integers(1, 3),
        log_floor=st.floats(-20.0, 0.0),
        log_weight=st.floats(-3.0, 3.0),
        negative=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accepted_blocks_pass_cholesky_pivot_rule(
        self, n, m, k_vectors, log_floor, log_weight, negative, seed
    ):
        # the structural check is at least as strict as the Cholesky pivot
        # rule: whatever it accepts, the rule accepts too
        rng = np.random.default_rng(seed)
        diag = 10.0 ** log_floor * rng.uniform(1.0, 10.0, (1, n))
        weights = 10.0 ** log_weight * rng.uniform(0.0, 1.0, (1, m, k_vectors))
        if negative:
            weights[0, rng.integers(m), rng.integers(k_vectors)] *= -1e-3
        bd = BlockDiag(diag, random_vectors(rng, k_vectors, n), weights)
        try:
            solve_one(bd, np.ones(bd.size))
        except SingularMatrix:
            return
        assert cholesky_pivot_rule(dense_blocks(bd)).all()

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 4),
        k_vectors=st.integers(1, 4),
        log_floor=st.floats(-20.0, 0.0),
        log_weight=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accepted_blocks_solve_backward_stably(
        self, n, m, k_vectors, log_floor, log_weight, seed
    ):
        # every block of an accepted pencil, K >= n included, is solved with
        # a normwise backward error at roundoff, however large the weights
        # are next to the diagonal floor
        rng = np.random.default_rng(seed)
        diag = 10.0 ** log_floor * rng.uniform(1.0, 10.0, (1, n))
        weights = 10.0 ** log_weight * rng.uniform(0.0, 1.0, (1, m, k_vectors))
        bd = BlockDiag(diag, random_vectors(rng, k_vectors, n), weights)
        v = rng.standard_normal(bd.size) + 1j * rng.standard_normal(bd.size)
        try:
            x = solve_one(bd, v)
        except SingularMatrix:
            return
        for block, xj, vj in zip(dense_blocks(bd), x.reshape(m, n), v.reshape(m, n)):
            error = np.linalg.norm(block @ xj - vj) / (
                np.linalg.norm(block, 2) * np.linalg.norm(xj) + np.linalg.norm(vj))
            assert error <= 1e-13


class TestPrincipalGepOracle:
    def test_diagonal_pencil(self):
        val, vec = principal_gep_oracle(np.diag([1.0, 3.0]), np.eye(2))
        assert val == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(vec, [0.0, 1.0], atol=1e-12)

    def test_identity_pencil(self):
        rng = np.random.default_rng(5)
        a = random_hpd(rng, 4)
        val, vec = principal_gep_oracle(a, a.copy())
        assert val == pytest.approx(1.0, abs=1e-10)
        resid = np.linalg.solve(a, a @ vec) - vec
        assert np.linalg.norm(resid) < 1e-10

    def test_random_pencil_residual(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_hpd(rng, 5)
            b = random_hpd(rng, 5)
            val, vec = principal_gep_oracle(a, b)
            assert np.linalg.norm(a @ vec - val * (b @ vec)) <= 1e-8

    def test_failure_raises(self):
        with pytest.raises(DimensionMismatch):
            principal_gep_oracle(np.eye(3), np.eye(2))


class TestSampling:
    def test_reproducible(self):
        a = sample_complex_gaussian(seeded_rng(123), 8)
        b = sample_complex_gaussian(seeded_rng(123), 8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sample_complex_gaussian(seeded_rng(1), 8)
        b = sample_complex_gaussian(seeded_rng(2), 8)
        assert not np.allclose(a, b)

    def test_moments(self):
        draws = sample_complex_gaussian(seeded_rng(99), 100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02
        # circular symmetry: real/imag parts each carry half the variance
        assert abs(draws.real.var() - 0.5) < 0.02
        assert abs(draws.imag.var() - 0.5) < 0.02

    def test_invalid_length(self):
        with pytest.raises(DimensionMismatch):
            sample_complex_gaussian(seeded_rng(0), 0)

    def test_trial_streams_independent_of_order(self):
        early = sample_complex_gaussian(trial_rng(42, 3), 4)
        sample_complex_gaussian(trial_rng(42, 0), 4)  # interleaved other stream
        late = sample_complex_gaussian(trial_rng(42, 3), 4)
        np.testing.assert_array_equal(early, late)

    def test_trial_streams_distinct(self):
        a = sample_complex_gaussian(trial_rng(42, 0), 4)
        b = sample_complex_gaussian(trial_rng(42, 1), 4)
        assert not np.allclose(a, b)
