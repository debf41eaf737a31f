"""Quantization-aware MRT/ZF/RZF baselines and power normalization."""

import numpy as np
import pytest

from rsma_sim import (
    DimensionMismatch,
    QuantizerProfile,
    RankDeficient,
    ZeroPrecoder,
    baseline_precoder,
    check_power,
    effective_channel,
    normalize_power,
    rate_report,
)

from oracles import ideal_profile, random_channel, random_profile, vector_angle


class TestNormalizePower:
    def test_frobenius_two_halves(self):
        profile = ideal_profile(2, 1)
        f = np.eye(2, dtype=complex) * np.sqrt(2.0)  # Frobenius norm 2
        scaled = normalize_power(f, profile)
        np.testing.assert_allclose(scaled, f / 2.0, rtol=1e-12)

    def test_already_normalized_unchanged(self):
        rng = np.random.default_rng(0)
        profile = random_profile(rng, 3, 2)
        f = random_channel(rng, 3, 3)
        f = f / np.sqrt(check_power(f, profile))
        np.testing.assert_allclose(normalize_power(f, profile), f, rtol=1e-12)

    def test_random_inputs_hit_budget_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            profile = random_profile(rng, 4, 2)
            f = 3.7 * random_channel(rng, 4, 3)
            scaled = normalize_power(f, profile)
            assert check_power(scaled, profile) == pytest.approx(1.0, abs=1e-12)

    def test_zero_precoder_rejected(self):
        with pytest.raises(ZeroPrecoder):
            normalize_power(np.zeros((2, 2)), ideal_profile(2, 1))


class TestBaselinePrecoder:
    def setup_method(self):
        self.rng = np.random.default_rng(2)

    def test_unknown_kind(self):
        with pytest.raises(DimensionMismatch):
            baseline_precoder("ZF", random_channel(self.rng, 2, 1), ideal_profile(2, 1), 1.0)

    def test_single_user_collapse(self):
        # K=1: all three kinds beamform along the effective channel
        h = random_channel(self.rng, 4, 1)
        profile = QuantizerProfile([3, 5, 2, 8], [4])
        h_eff = effective_channel(profile, h)[:, 0]
        for kind in ("QMRT", "QZF", "QRZF"):
            f = baseline_precoder(kind, h, profile, 10.0)
            np.testing.assert_array_equal(f[:, 0], np.zeros(4))
            assert vector_angle(f[:, 1], h_eff) < 1e-6

    def test_zero_forcing_property(self):
        h = random_channel(self.rng, 5, 3)
        profile = QuantizerProfile([4, 3, 6, 2, 7], [5, 3, 8])
        f = baseline_precoder("QZF", h, profile, 10.0)
        h_eff = effective_channel(profile, h)
        for k in range(3):
            for j in range(3):
                if j != k:
                    assert abs(h_eff[:, k].conj() @ f[:, j + 1]) < 1e-9

    def test_rzf_limits(self):
        h = random_channel(self.rng, 4, 2)
        profile = QuantizerProfile([4] * 4, [6] * 2)
        # loading K/snr: huge SNR -> ZF, tiny SNR -> MRT
        f_zf = baseline_precoder("QZF", h, profile, 1e12)
        f_rzf_small = baseline_precoder("QRZF", h, profile, 1e12)
        f_mrt = baseline_precoder("QMRT", h, profile, 1e-9)
        f_rzf_large = baseline_precoder("QRZF", h, profile, 1e-9)
        for k in range(2):
            assert vector_angle(f_rzf_small[:, k + 1], f_zf[:, k + 1]) < 1e-3
            assert vector_angle(f_rzf_large[:, k + 1], f_mrt[:, k + 1]) < 1e-3

    def test_equal_power_split_and_budget(self):
        h = random_channel(self.rng, 4, 3)
        profile = QuantizerProfile([2, 4, 6, 8], [1, 5, 8])
        for kind in ("QMRT", "QZF", "QRZF"):
            f = baseline_precoder(kind, h, profile, 25.0)
            assert check_power(f, profile) == pytest.approx(1.0, abs=1e-12)
            norms = np.linalg.norm(f[:, 1:], axis=0)
            np.testing.assert_allclose(norms, norms[0], rtol=1e-12)

    def test_unquantized_matches_textbook(self):
        h = random_channel(self.rng, 4, 2)
        profile = ideal_profile(4, 2)
        snr = 20.0

        mrt = baseline_precoder("QMRT", h, profile, snr)
        for k in range(2):
            assert vector_angle(mrt[:, k + 1], h[:, k]) < 1e-6

        zf = baseline_precoder("QZF", h, profile, snr)
        textbook_zf = h @ np.linalg.inv(h.conj().T @ h)
        for k in range(2):
            assert vector_angle(zf[:, k + 1], textbook_zf[:, k]) < 1e-6

        rzf = baseline_precoder("QRZF", h, profile, snr)
        loading = 2 / snr
        textbook_rzf = h @ np.linalg.inv(h.conj().T @ h + loading * np.eye(2))
        for k in range(2):
            assert vector_angle(rzf[:, k + 1], textbook_rzf[:, k]) < 1e-6

    def test_rank_deficient_rejected(self):
        h1 = random_channel(self.rng, 3, 1)
        h = np.column_stack([h1, h1])  # duplicated user channel
        with pytest.raises(RankDeficient):
            baseline_precoder("QZF", h, ideal_profile(3, 2), 10.0)

    def test_overloaded_zf_rejected(self):
        h = random_channel(self.rng, 2, 3)  # K > N
        with pytest.raises(RankDeficient):
            baseline_precoder("QZF", h, ideal_profile(2, 3), 10.0)

    def test_rates_flow_through_shared_report(self):
        # baselines evaluate through the same rate computation as the
        # iterative solvers; the zero common column yields zero common rate
        h = random_channel(self.rng, 4, 2)
        profile = QuantizerProfile([4] * 4, [6] * 2)
        f = baseline_precoder("QRZF", h, profile, 100.0)
        report = rate_report(h, f, profile, 100.0)
        assert report.common_rate == 0.0
        assert report.sum_se == pytest.approx(report.private_rates.sum(), rel=1e-14)
