"""Hermitian solves, block-diagonal structure, eig oracle, seeded sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsma_sim import (
    BlockDiag,
    ConvergenceFailure,
    DimensionMismatch,
    SingularMatrix,
    blockdiag_solve,
    canonical_phase,
    sample_complex_gaussian,
    seeded_rng,
    trial_rng,
)

from oracles import hermitian_solve, principal_gep_oracle, to_dense


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


class TestBlockDiag:
    def test_identity_blocks(self):
        bd = BlockDiag(np.array([np.eye(2), np.eye(2)]))
        v = np.ones(4, dtype=complex)
        np.testing.assert_allclose(blockdiag_solve(bd, v), v, atol=1e-14)

    def test_scalar_blocks(self):
        bd = BlockDiag(np.array([[[2.0]], [[4.0]]], dtype=complex))
        np.testing.assert_allclose(
            blockdiag_solve(bd, np.array([2.0, 4.0])), [1.0, 1.0], atol=1e-14
        )

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        bd = BlockDiag(np.array([random_hpd(rng, 3) for _ in range(4)]))
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        np.testing.assert_allclose(bd.matvec(v), to_dense(bd) @ v, rtol=1e-12)

    def test_three_blocks_match_dense_solve(self):
        rng = np.random.default_rng(4)
        bd = BlockDiag(np.array([random_hpd(rng, 4) for _ in range(3)]))
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        got = blockdiag_solve(bd, v)
        want = hermitian_solve(to_dense(bd), v)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_blockwise_equals_dense_solve(self, n, m, seed):
        rng = np.random.default_rng(seed)
        bd = BlockDiag(np.array([random_hpd(rng, n) for _ in range(m)]))
        v = rng.standard_normal(n * m) + 1j * rng.standard_normal(n * m)
        got = blockdiag_solve(bd, v)
        want = hermitian_solve(to_dense(bd), v)
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)

    def test_singular_block_identified(self):
        blocks = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
        bd = BlockDiag(blocks)
        with pytest.raises(SingularMatrix) as excinfo:
            blockdiag_solve(bd, np.ones(4))
        assert excinfo.value.block_index == 1

    def test_near_singular_block_identified(self):
        # positive definite, so the batched Cholesky succeeds; the pivot
        # rule still rejects the 1e-30 pivot
        blocks = np.array([np.eye(2), 2.0 * np.eye(2), np.diag([1.0, 1e-30]), np.eye(2)])
        with pytest.raises(SingularMatrix) as excinfo:
            blockdiag_solve(BlockDiag(blocks), np.ones(8))
        assert excinfo.value.block_index == 2

    def test_indefinite_block_identified(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        indefinite = x + x.conj().T - 10.0 * np.eye(3)
        indefinite[0, 0] = 5.0
        blocks = np.array([random_hpd(rng, 3), indefinite, random_hpd(rng, 3)])
        assert np.linalg.eigvalsh(indefinite).min() < 0 < np.linalg.eigvalsh(indefinite).max()
        with pytest.raises(SingularMatrix) as excinfo:
            blockdiag_solve(BlockDiag(blocks), np.ones(9))
        assert excinfo.value.block_index == 1

    def test_non_hermitian_rejected(self):
        blocks = np.zeros((1, 2, 2), dtype=complex)
        blocks[0] = [[1.0, 2.0], [0.0, 1.0]]
        with pytest.raises(DimensionMismatch):
            BlockDiag(blocks)


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

    def test_phase_convention(self):
        rng = np.random.default_rng(7)
        _, vec = principal_gep_oracle(random_hpd(rng, 5), random_hpd(rng, 5))
        pivot = vec[np.argmax(np.abs(vec))]
        assert abs(pivot.imag) < 1e-14 and pivot.real > 0

    def test_failure_raises(self):
        with pytest.raises((ConvergenceFailure, DimensionMismatch)):
            principal_gep_oracle(np.eye(3), np.eye(2))


class TestCanonicalPhase:
    def test_pins_largest_entry(self):
        v = np.array([0.3 - 0.1j, -1.2 + 0.9j, 0.05j])
        out = canonical_phase(v)
        pivot = out[np.argmax(np.abs(out))]
        assert abs(pivot.imag) < 1e-14 and pivot.real > 0
        np.testing.assert_allclose(np.abs(out), np.abs(v), rtol=1e-12)

    def test_idempotent(self):
        v = canonical_phase(np.array([1.0 + 1j, 2.0 - 3j]))
        np.testing.assert_allclose(canonical_phase(v), v, rtol=1e-15)

    def test_zero_vector(self):
        np.testing.assert_array_equal(canonical_phase(np.zeros(3)), np.zeros(3))


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
