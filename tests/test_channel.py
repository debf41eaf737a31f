"""One-ring covariances, Karhunen-Loeve sampling, angle-of-departure draws."""

import math

import numpy as np
import pytest

from rsma_sim import (
    ConvergenceFailure,
    DimensionMismatch,
    draw_aods,
    kl_factorize,
    one_ring_covariance,
    sample_channel,
)
from rsma_sim.channel import _gauss_legendre

from oracles import (
    dense_one_ring,
    factorization_metadata,
    seeded_rng,
    trapezoid_one_ring,
)


class TestOneRingCovariance:
    def test_unit_diagonal(self):
        cov = one_ring_covariance(4, math.pi / 3)
        np.testing.assert_array_equal(np.diag(cov), np.ones(4))

    def test_matches_trapezoid_oracle(self):
        cov = one_ring_covariance(4, math.pi / 3)
        oracle = trapezoid_one_ring(4, math.pi / 3)
        assert np.abs(cov - oracle).max() < 1e-8

    def test_matches_dense_oracle_exactly(self):
        random_aods = tuple(seeded_rng(12).uniform(0.0, math.pi, 3))
        cases = [
            (n, aod)
            for n in (1, 2, 3, 4, 8, 16)
            for aod in (0.0, 0.2, 1.1, 2.7) + random_aods
        ]
        # the dense oracle takes about 0.1 s a call at N=64 and 0.5 s at N=128
        cases += [(64, 0.4), (64, random_aods[0]), (128, random_aods[1])]
        for n, aod in cases:
            np.testing.assert_array_equal(one_ring_covariance(n, aod), dense_one_ring(n, aod))

    def test_ula_is_hermitian_toeplitz(self):
        cov = one_ring_covariance(8, 1.1)
        np.testing.assert_array_equal(cov, cov.conj().T)
        for offset in range(-7, 8):
            band = np.diagonal(cov, offset)
            np.testing.assert_array_equal(band, np.full(band.shape, band[0]))

    def test_cached_nodes_read_only(self):
        one_ring_covariance(4, 1.0)
        nodes, weights = _gauss_legendre(16)
        assert _gauss_legendre(16)[0] is nodes
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_unconverged_quadrature_raises(self, monkeypatch):
        # 64 antennas need more than 32 nodes; the cap is lowered so the
        # raise path runs without computing the 4096-node rule.
        monkeypatch.setattr("rsma_sim.channel.MAX_QUADRATURE_NODES", 32)
        for aod in (0.3, 1.0, math.pi / 2):
            with pytest.raises(ConvergenceFailure, match="32 nodes"):
                one_ring_covariance(64, aod)

    def test_hermitian_and_nearly_psd(self):
        for aod in (0.2, 1.1, 2.7):
            cov = one_ring_covariance(6, aod)
            assert np.abs(cov - cov.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(cov).min() >= -1e-9

    def test_input_validation(self):
        for n, aod in ((4, -0.1), (4, math.pi), (0, 1.0)):
            with pytest.raises(DimensionMismatch):
                one_ring_covariance(n, aod)


class TestKlFactorize:
    def test_identity_covariance(self):
        basis, eigvals = kl_factorize(np.eye(5))
        assert basis.shape == (5, 5)
        np.testing.assert_allclose(eigvals, np.ones(5), atol=1e-12)
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(5), atol=1e-12)

    def test_rank_one(self):
        a = np.array([1.0 + 1j, -2.0, 0.5j])
        cov = np.outer(a, a.conj())
        basis, eigvals = kl_factorize(cov)
        assert basis.shape == (3, 1)
        assert eigvals[0] == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(44)
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        cov = x @ x.conj().T
        basis, eigvals = kl_factorize(cov)
        np.testing.assert_allclose((basis * eigvals) @ basis.conj().T, cov, atol=1e-8)

    def test_one_ring_rank_truncation(self):
        cov = one_ring_covariance(8, 1.0)
        basis, eigvals = kl_factorize(cov)
        assert len(eigvals) <= 8
        assert np.all(eigvals > 0)
        # orthonormal columns
        np.testing.assert_allclose(
            basis.conj().T @ basis, np.eye(len(eigvals)), atol=1e-12
        )


class TestSampleChannel:
    def _factorizations(self, n=4):
        return [kl_factorize(one_ring_covariance(n, a)) for a in (0.8, 1.5)]

    def test_deterministic(self):
        facs = self._factorizations()
        a = sample_channel(facs, seeded_rng(7))
        b = sample_channel(facs, seeded_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_zero_covariance_gives_zero_channel(self):
        facs = [kl_factorize(np.zeros((3, 3)))]
        h = sample_channel(facs, seeded_rng(1))
        np.testing.assert_array_equal(h, np.zeros((3, 1)))
        assert factorization_metadata(facs)[1] == (0,)

    def test_column_space(self):
        facs = self._factorizations()
        channel = sample_channel(facs, seeded_rng(3))
        for k, (basis, _) in enumerate(facs):
            h = channel[:, k]
            projected = basis @ (basis.conj().T @ h)
            np.testing.assert_allclose(projected, h, atol=1e-10)

    def test_empirical_covariance(self):
        facs = self._factorizations()
        rng = seeded_rng(5)
        trials = 100_000
        draws = np.array([sample_channel(facs, rng) for _ in range(trials)])  # (trials, N, K)
        empirical = np.einsum("tnk,tmk->knm", draws, draws.conj()) / trials
        for (basis, eigvals), got in zip(facs, empirical):
            want = (basis * eigvals) @ basis.conj().T
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel < 0.02

    def test_covariance_metadata_unit_diagonal(self):
        covariances, _ = factorization_metadata(self._factorizations())
        for cov in covariances:
            np.testing.assert_allclose(np.diag(cov).real, np.ones(4), atol=1e-9)
            assert np.abs(cov - cov.conj().T).max() < 1e-12


class TestDrawAods:
    def test_random_mode_range(self):
        aods = draw_aods(seeded_rng(2), 500, "random_aod")
        assert np.all((aods >= 0.0) & (aods < math.pi))

    def test_correlated_mode_spread(self):
        for seed in range(20):
            aods = draw_aods(seeded_rng(seed), 6, "correlated_aod")
            assert np.all((aods >= 0.0) & (aods < math.pi))
            assert aods.max() - aods.min() <= math.pi / 6 + 1e-12

    def test_unknown_mode(self):
        for mode in ("clustered", "random"):
            with pytest.raises(DimensionMismatch):
                draw_aods(seeded_rng(0), 2, mode)
