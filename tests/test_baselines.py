"""Quantization-aware MRT/ZF/RZF baselines: one outcome per SNR point."""

import numpy as np
import pytest

from rsma_sim import (
    DimensionMismatch,
    QuantizerProfile,
    RankDeficient,
    ZeroPrecoder,
    baseline_precoder,
    check_power,
    rate_report,
)

from oracles import (
    effective_channel,
    ideal_profile,
    random_channel,
    random_profile,
    vector_angle,
)


class TestBaselinePrecoder:
    def setup_method(self):
        self.rng = np.random.default_rng(2)

    def test_unknown_kind(self):
        for kind in ("ZF", 10**5000):
            with pytest.raises(DimensionMismatch, match="kind must be one of"):
                baseline_precoder(kind, random_channel(self.rng, 2, 1), ideal_profile(2, 1), 1.0)

    def test_single_user_collapse(self):
        # K=1: all three kinds beamform along the effective channel
        h = random_channel(self.rng, 4, 1)
        profile = QuantizerProfile([3, 5, 2, 8], [4])
        h_eff = effective_channel(profile, h)[:, 0]
        for kind in ("QMRT", "QZF", "QRZF"):
            [f] = baseline_precoder(kind, h, profile, 10.0)
            np.testing.assert_array_equal(f[:, 0], np.zeros(4))
            assert vector_angle(f[:, 1], h_eff) < 1e-6

    def test_zero_forcing_property(self):
        h = random_channel(self.rng, 5, 3)
        profile = QuantizerProfile([4, 3, 6, 2, 7], [5, 3, 8])
        [f] = baseline_precoder("QZF", h, profile, 10.0)
        h_eff = effective_channel(profile, h)
        for k in range(3):
            for j in range(3):
                if j != k:
                    assert abs(h_eff[:, k].conj() @ f[:, j + 1]) < 1e-9

    def test_rzf_limits(self):
        h = random_channel(self.rng, 4, 2)
        profile = QuantizerProfile([4] * 4, [6] * 2)
        # loading K/snr: huge SNR -> ZF, tiny SNR -> MRT
        [f_zf] = baseline_precoder("QZF", h, profile, 1e12)
        [f_rzf_small] = baseline_precoder("QRZF", h, profile, 1e12)
        [f_mrt] = baseline_precoder("QMRT", h, profile, 1e-9)
        [f_rzf_large] = baseline_precoder("QRZF", h, profile, 1e-9)
        for k in range(2):
            assert vector_angle(f_rzf_small[:, k + 1], f_zf[:, k + 1]) < 1e-3
            assert vector_angle(f_rzf_large[:, k + 1], f_mrt[:, k + 1]) < 1e-3

    def test_equal_power_split_and_budget(self):
        h = random_channel(self.rng, 4, 3)
        profile = QuantizerProfile([2, 4, 6, 8], [1, 5, 8])
        for kind in ("QMRT", "QZF", "QRZF"):
            [f] = baseline_precoder(kind, h, profile, 25.0)
            assert check_power(f, profile) == pytest.approx(1.0, abs=1e-12)
            norms = np.linalg.norm(f[:, 1:], axis=0)
            np.testing.assert_allclose(norms, norms[0], rtol=1e-12)

    def test_unquantized_matches_textbook(self):
        h = random_channel(self.rng, 4, 2)
        profile = ideal_profile(4, 2)
        snr = 20.0

        [mrt] = baseline_precoder("QMRT", h, profile, snr)
        for k in range(2):
            assert vector_angle(mrt[:, k + 1], h[:, k]) < 1e-6

        [zf] = baseline_precoder("QZF", h, profile, snr)
        textbook_zf = h @ np.linalg.inv(h.conj().T @ h)
        for k in range(2):
            assert vector_angle(zf[:, k + 1], textbook_zf[:, k]) < 1e-6

        [rzf] = baseline_precoder("QRZF", h, profile, snr)
        loading = 2 / snr
        textbook_rzf = h @ np.linalg.inv(h.conj().T @ h + loading * np.eye(2))
        for k in range(2):
            assert vector_angle(rzf[:, k + 1], textbook_rzf[:, k]) < 1e-6

    def test_rank_deficient_rejected(self):
        h1 = random_channel(self.rng, 3, 1)
        h = np.column_stack([h1, h1])  # duplicated user channel
        # a point's failure is its list entry; only whole-call errors raise
        [error] = baseline_precoder("QZF", h, ideal_profile(3, 2), 10.0)
        assert isinstance(error, RankDeficient)

    def test_overloaded_zf_rejected(self):
        h = random_channel(self.rng, 2, 3)  # K > N
        [error] = baseline_precoder("QZF", h, ideal_profile(2, 3), 10.0)
        assert isinstance(error, RankDeficient)

    def test_batched_snrs_match_scalar_calls(self):
        # one call over a trial's SNR points returns what a call per point
        # returns, bit for bit, whatever its batch mates; MRT and ZF repeat
        # one SNR-free precoder
        snrs = [1e-3, 1.0, 10.0, 1e4, 1e9]
        for n, k_users in ((4, 2), (8, 3), (64, 8)):
            h = random_channel(self.rng, n, k_users)
            profile = random_profile(self.rng, n, k_users)
            for kind in ("QMRT", "QZF", "QRZF"):
                batch = baseline_precoder(kind, h, profile, snrs)
                assert len(batch) == len(snrs)
                reversed_batch = baseline_precoder(kind, h, profile, snrs[::-1])[::-1]
                for snr, f, f_reversed in zip(snrs, batch, reversed_batch):
                    [single] = baseline_precoder(kind, h, profile, snr)
                    np.testing.assert_array_equal(f, single)
                    np.testing.assert_array_equal(f_reversed, single)

    def test_rank_deficient_point_fails_alone(self):
        # a rank-1 effective channel: RZF's loading K / snr keeps the 10 point
        # regular, while at 1e20 the loaded Gram matrix is singular
        h1 = random_channel(self.rng, 3, 1)
        h = np.column_stack([h1, h1])
        profile = QuantizerProfile([4] * 3, [6] * 2)
        at_10, at_huge = baseline_precoder("QRZF", h, profile, [10.0, 1e20])
        np.testing.assert_array_equal(at_10, baseline_precoder("QRZF", h, profile, 10.0)[0])
        assert isinstance(at_huge, RankDeficient)
        assert str(at_huge) == "effective channel Gram matrix is singular (kind=QRZF)"
        [alone] = baseline_precoder("QRZF", h, profile, 1e20)
        assert isinstance(alone, RankDeficient) and str(alone) == str(at_huge)
        zf = baseline_precoder("QZF", h, profile, [10.0, 1e20])
        assert all(isinstance(e, RankDeficient) for e in zf)

    def test_vanished_column_fails_every_point(self):
        h = random_channel(self.rng, 3, 2)
        h[:, 1] = 0.0
        errors = baseline_precoder("QRZF", h, ideal_profile(3, 2), [1.0, 100.0])
        assert [str(e) for e in errors] == ["an effective channel column vanishes"] * 2
        [error] = baseline_precoder("QMRT", h, ideal_profile(3, 2), 1.0)
        assert isinstance(error, ZeroPrecoder)
        assert str(error) == "an effective channel column vanishes"

    def test_rates_flow_through_shared_report(self):
        # baselines evaluate through the same rate computation as the
        # iterative solvers; the zero common column yields zero common rate
        h = random_channel(self.rng, 4, 2)
        profile = QuantizerProfile([4] * 4, [6] * 2)
        [f] = baseline_precoder("QRZF", h, profile, 100.0)
        report = rate_report(h, f, profile, 100.0)
        assert report.common_rate == 0.0
        assert report.sum_se == pytest.approx(report.private_rates.sum(), rel=1e-14)
