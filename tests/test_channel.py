"""One-ring covariances, plane-wave and Karhunen-Loeve sampling, angle-of-departure draws."""

import copy
import itertools
import math

import numpy as np
import pytest
import scipy.special

from rsma_sim import (
    DimensionMismatch,
    sample_channel,
)
from rsma_sim.channel import (
    _BATCH_ENTRIES,
    ANGULAR_SPREAD,
    QUADRATURE_TOL,
    _gauss_legendre,
    _node_count,
    draw_aods,
    kl_factorize,
    one_ring_covariance,
)

from oracles import (
    dense_one_ring,
    factorization_metadata,
    kl_sample_channel,
    plane_wave_basis,
    sample_complex_gaussian,
    seeded_rng,
    steering_basis,
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
        # the dense oracle takes about 0.02 s a call at N=64 and 0.15 s at N=128
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
        nodes, weights = _gauss_legendre(_node_count(4))
        assert _gauss_legendre(_node_count(4))[0] is nodes
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_node_count_meets_tolerance(self):
        # the lag sums of the q(N)-node rule, over exact phases, against a
        # (2q + 64)-node rule from an independent Gauss-Legendre routine;
        # the worst gap is 1.8e-12 (N = 128, aod = pi/2), 56x under QUADRATURE_TOL
        def lag_sums(n, aod, nodes, weights):
            x = aod + ANGULAR_SPREAD * nodes
            sums = []
            for lags in np.array_split(np.arange(n), -(-n // 256)):  # at most 256 lags at a time
                angle = math.pi * np.outer(np.cos(x), lags)
                sums.append(0.5 * (weights @ np.cos(angle) - 1j * (weights @ np.sin(angle))))
            return np.concatenate(sums)

        aods = (0.0, math.pi / 2, np.nextafter(math.pi, 0.0))
        aods += tuple(seeded_rng(14).uniform(0.0, math.pi, 2))
        for n in (1, 2, 3, 4, 5, 17, 64, 65, 128, 2048):
            q = _node_count(n)
            reference = scipy.special.roots_legendre(2 * q + 64)
            for aod in aods:
                got = lag_sums(n, aod, *_gauss_legendre(q))
                assert np.abs(got - lag_sums(n, aod, *reference)).max() <= QUADRATURE_TOL

    def test_hermitian_and_nearly_psd(self):
        for aod in (0.2, 1.1, 2.7):
            cov = one_ring_covariance(6, aod)
            assert np.abs(cov - cov.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(cov).min() >= -1e-9

    def test_input_validation(self):
        def draw(n, aod):
            return sample_channel(n, [aod], seeded_rng(0))

        for one_ring in (one_ring_covariance, draw):
            for n, aod in ((4, -0.1), (4, math.pi), (0, 1.0), (4.5, 1.0), (2.2, 1.0), (True, 1.0),
                           (-10**5000, 1.0), (4, 10**5000)):
                # an integer too long to print still gets a short message
                with pytest.raises(DimensionMismatch, match="too long to print|must"):
                    one_ring(n, aod)
            # q(2049) nodes are cheap, but far above MAX_SIZE leggauss's eigenproblem is not
            with pytest.raises(DimensionMismatch, match=r"in 1\.\.2048"):
                one_ring(2049, 1.0)
        for n in (np.int64(4), np.int32(4)):
            np.testing.assert_array_equal(one_ring_covariance(n, 1.0), one_ring_covariance(4, 1.0))


class TestOneRingFactor:
    def test_reconstructs_covariance(self):
        for n in (1, 2, 4, 8, 64, 128):
            for aod in (0.0, 0.2, 1.1, 2.7):
                basis, weights = plane_wave_basis(n, aod)
                assert basis.shape == (n, len(weights))
                rebuilt = (basis * weights) @ basis.conj().T
                assert np.abs(rebuilt - one_ring_covariance(n, aod)).max() <= 1e-13

    def test_basis_matches_direct_steering_vectors(self):
        random_aods = tuple(seeded_rng(13).uniform(0.0, math.pi, 2))
        for n in (1, 2, 3, 4, 17, 64, 128):
            for aod in (0.0, 0.2, 1.1, 2.7) + random_aods:
                basis, weights = plane_wave_basis(n, aod)
                direct, direct_weights = steering_basis(n, aod)
                np.testing.assert_array_equal(weights, direct_weights)
                assert np.abs(basis - direct).max() <= 16 * n * math.pi * np.finfo(float).eps

    def test_weights_positive_and_sum_to_one(self):
        for n, aod in ((4, 0.8), (64, 1.2)):
            _, weights = plane_wave_basis(n, aod)
            assert np.all(weights > 0)
            assert weights.sum() == pytest.approx(1.0, abs=1e-14)


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


def kl_one_ring(n, aod):
    return kl_factorize(one_ring_covariance(n, aod))


class TestSampleChannel:
    AODS = (0.8, 1.5)

    def _factorizations(self, n=4, factor=kl_one_ring):
        return [factor(n, a) for a in self.AODS]

    def test_deterministic(self):
        a = sample_channel(4, self.AODS, seeded_rng(7))
        b = sample_channel(4, self.AODS, seeded_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_zero_covariance_gives_zero_channel(self):
        facs = [kl_factorize(np.zeros((3, 3)))]
        h = kl_sample_channel(facs, seeded_rng(1))
        np.testing.assert_array_equal(h, np.zeros((3, 1)))
        assert factorization_metadata(facs)[1] == (0,)

    def test_column_space(self):
        facs = self._factorizations()
        channel = kl_sample_channel(facs, seeded_rng(3))
        for k, (basis, _) in enumerate(facs):
            h = channel[:, k]
            projected = basis @ (basis.conj().T @ h)
            np.testing.assert_allclose(projected, h, atol=1e-10)

    @pytest.mark.parametrize("factor", [kl_one_ring, plane_wave_basis], ids=["kl", "plane_waves"])
    def test_draws_follow_basis_formula(self, factor):
        # the dense reference draw that test_draws_match_dense_basis_draw
        # holds sample_channel to, and that criteria 7, 8 and 10 draw from
        facs = self._factorizations(factor=factor)
        rng = seeded_rng(5)
        for _ in range(5):
            clone = copy.deepcopy(rng)
            want = np.column_stack([
                basis @ (np.sqrt(weights) * sample_complex_gaussian(clone, len(weights)))
                for basis, weights in facs
            ])
            np.testing.assert_array_equal(kl_sample_channel(facs, rng), want)

    def test_batched_draw_matches_per_user_steering_sums(self, monkeypatch):
        # one draw for all K users equals, user by user, sum_q sqrt(w_q) g_q a(x_q)
        # through directly evaluated steering vectors, with g taken from the
        # generator user by user; the bound is test_draws_match_dense_basis_draw's
        eps = np.finfo(float).eps
        # the default budget draws every user in one batch, a budget of 1 one user a batch
        for budget in (_BATCH_ENTRIES, 1):
            monkeypatch.setattr("rsma_sim.channel._BATCH_ENTRIES", budget)
            for n, k in itertools.product((1, 2, 3, 5, 17, 64, 65), (1, 3, 8)):
                rng = seeded_rng(100 * n + k)
                aods = rng.uniform(0.0, math.pi, k)
                clone = copy.deepcopy(rng)
                got = sample_channel(n, aods, rng)
                assert got.shape == (n, k)
                for user, aod in enumerate(aods):
                    basis, weights = steering_basis(n, aod)
                    c = np.sqrt(weights) * sample_complex_gaussian(clone, len(weights))
                    bound = 16 * n * math.pi * eps * np.abs(c).sum()
                    assert np.abs(got[:, user] - basis @ c).max() <= bound
                assert rng.random() == clone.random()

    def test_draws_match_dense_basis_draw(self):
        # N = 3, 5, 17, 63 and 65 cut the last outer block short of N. Each
        # product-built steering vector is within 16*N*pi*eps of the direct
        # one (test_basis_matches_direct_steering_vectors), so a draw is
        # within that times sum |c| of the dense draw through direct ones.
        eps = np.finfo(float).eps
        for n in (1, 2, 3, 5, 17, 63, 64, 65, 128):
            rng = seeded_rng(n)
            reference, coefficients = copy.deepcopy(rng), copy.deepcopy(rng)
            facs = [steering_basis(n, a) for a in self.AODS]
            want = kl_sample_channel(facs, reference)
            got = sample_channel(n, self.AODS, rng)
            assert got.shape == (n, len(self.AODS))
            for k, (_, weights) in enumerate(facs):
                c = np.sqrt(weights) * sample_complex_gaussian(coefficients, len(weights))
                bound = 16 * n * math.pi * eps * np.abs(c).sum()
                assert np.abs(got[:, k] - want[:, k]).max() <= bound
            # the draw took its Gaussians from the generator in the reference's order
            assert rng.random() == reference.random()

    @pytest.mark.parametrize("factor", [kl_one_ring, plane_wave_basis], ids=["kl", "plane_waves"])
    def test_empirical_covariance(self, factor):
        # kl_sample_channel's dense draw, drawn for all trials of a user at once
        rng = seeded_rng(5)
        trials = 100_000
        for aod, (basis, weights) in zip(self.AODS, self._factorizations(factor=factor)):
            g = sample_complex_gaussian(rng, trials * len(weights)).reshape(trials, -1)
            draws = (np.sqrt(weights) * g) @ basis.T  # (trials, N)
            got = draws.T @ draws.conj() / trials
            want = one_ring_covariance(4, aod)
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
        for mode in ("clustered", "random", 10**5000):
            with pytest.raises(DimensionMismatch, match="unknown channel mode"):
                draw_aods(seeded_rng(0), 2, mode)
