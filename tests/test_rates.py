"""SINR formulas, rate reports, power accounting, smoothed minimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsma_sim import (
    DimensionMismatch,
    QuantizerProfile,
    check_power,
    lse_min,
    rate_report,
    softmin_weights,
)

from oracles import (
    direct_sinr_common,
    direct_sinr_private,
    ideal_profile,
    long_form_power,
    random_channel,
    random_precoder,
    random_profile,
)


def sinrs(h, f, profile, power):
    """Per-user (common, private) SINRs from one rate report."""
    report = rate_report(h, f, profile, power)
    return report.common_sinrs, report.private_sinrs


class TestSinrTrivial:
    def test_zero_common_precoder(self):
        profile = ideal_profile(2, 1)
        h = np.ones((2, 1), dtype=complex)
        f = np.array([[0.0, 1.0], [0.0, 0.5]], dtype=complex)
        assert sinrs(h, f, profile, 1.0)[0][0] == 0.0

    def test_zero_private_precoder(self):
        profile = ideal_profile(2, 1)
        h = np.ones((2, 1), dtype=complex)
        f = np.array([[1.0, 0.0], [0.5, 0.0]], dtype=complex)
        assert sinrs(h, f, profile, 1.0)[1][0] == 0.0

    def test_single_user_unit_snr(self):
        profile = ideal_profile(1, 1)
        h = np.array([[1.0 + 0j]])
        common_only = np.array([[1.0, 0.0]], dtype=complex)
        private_only = np.array([[0.0, 1.0]], dtype=complex)
        assert sinrs(h, common_only, profile, 1.0)[0][0] == pytest.approx(1.0)
        assert sinrs(h, private_only, profile, 1.0)[1][0] == pytest.approx(1.0)
        report = rate_report(h, private_only, profile, 1.0)
        assert report.private_rates[0] == pytest.approx(1.0, abs=1e-12)


class TestSinrAgainstLongForm:
    """Reorganized single-division SINRs vs full covariance assembly."""

    def test_random_instances(self):
        # Unit-power precoders, and precoders that use 0.3 and 3 times the
        # budget: the noise term must not follow the precoder's norm.
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            k_users = int(rng.integers(1, 5))
            profile = random_profile(rng, n, k_users)
            h = random_channel(rng, n, k_users)
            f_unit = random_precoder(rng, profile, n, k_users)
            power = 10.0 ** rng.uniform(-1.0, 4.0)
            for used in (1.0, 0.3, 3.0):
                f = f_unit * math.sqrt(used)
                assert check_power(f, profile) == pytest.approx(used, rel=1e-12)
                got_c, got_p = sinrs(h, f, profile, power)
                for k in range(k_users):
                    want = direct_sinr_common(k, h, f, profile, power, 1.0)
                    assert got_c[k] == pytest.approx(want, rel=1e-10)
                    want = direct_sinr_private(k, h, f, profile, power, 1.0)
                    assert got_p[k] == pytest.approx(want, rel=1e-10)

    def test_adc_only_reduction(self):
        # With ideal DACs the common SINR collapses to
        # a|h^H f0|^2 / (sum_{i>=1}|h^H f_i|^2 + (1-a)|h^H f0|^2 + s2/P).
        rng = np.random.default_rng(102)
        for _ in range(25):
            n, k_users = 4, 3
            profile = QuantizerProfile(
                [math.inf] * n, [int(b) for b in rng.integers(1, 9, k_users)]
            )
            h = random_channel(rng, n, k_users)
            f = random_precoder(rng, profile, n, k_users)
            power = 10.0 ** rng.uniform(0.0, 3.0)
            for k in range(k_users):
                hk = h[:, k]
                a = profile.adc_alpha[k]
                gains = np.abs(hk.conj() @ f) ** 2
                expected = a * gains[0] / (
                    gains[1:].sum() + (1 - a) * gains[0] + 1.0 / power
                )
                got = sinrs(h, f, profile, power)[0][k]
                assert got == pytest.approx(expected, rel=1e-10)

    def test_dac_only_homogeneous_reduction(self):
        # Ideal ADCs, homogeneous DACs: exact form with the noise floor
        # scaled by the common gain,
        # a|h^H f0|^2 / (a sum_{i>=1}|h^H f_i|^2
        #               + (1-a) sum_i f_i^H diag(|h|^2) f_i + s2/(a P)).
        rng = np.random.default_rng(103)
        for bits in (1, 3, 5):
            n, k_users = 3, 2
            profile = QuantizerProfile([bits] * n, [math.inf] * k_users)
            h = random_channel(rng, n, k_users)
            f = random_precoder(rng, profile, n, k_users)
            power = 10.0 ** rng.uniform(0.0, 3.0)
            a = profile.dac_alpha[0]
            for k in range(k_users):
                hk = h[:, k]
                gains = np.abs(hk.conj() @ f) ** 2
                diag_terms = (np.abs(hk) ** 2) @ (np.abs(f) ** 2)
                expected = a * gains[0] / (
                    a * gains[1:].sum()
                    + (1 - a) * diag_terms.sum()
                    + 1.0 / (a * power)
                )
                got = sinrs(h, f, profile, power)[0][k]
                assert got == pytest.approx(expected, rel=1e-10)

    def test_unquantized_reduction(self):
        # All-infinite resolutions: plain RSMA SINRs with no distortion terms.
        rng = np.random.default_rng(104)
        n, k_users = 4, 2
        profile = ideal_profile(n, k_users)
        h = random_channel(rng, n, k_users)
        f = random_precoder(rng, profile, n, k_users)
        power = 50.0
        got_c, got_p = sinrs(h, f, profile, power)
        for k in range(k_users):
            hk = h[:, k]
            gains = np.abs(hk.conj() @ f) ** 2
            want_c = gains[0] / (gains[1:].sum() + 1.0 / power)
            want_p = gains[k + 1] / (
                gains[1:].sum() - gains[k + 1] + 1.0 / power
            )
            assert got_c[k] == pytest.approx(want_c, rel=1e-12)
            assert got_p[k] == pytest.approx(want_p, rel=1e-12)


class TestRateReport:
    def test_zero_precoder(self):
        profile = ideal_profile(2, 2)
        h = random_channel(np.random.default_rng(1), 2, 2)
        report = rate_report(h, np.zeros((2, 3)), profile, 1.0)
        assert report.common_rate == 0.0
        assert report.sum_se == 0.0
        np.testing.assert_array_equal(report.private_rates, np.zeros(2))

    def test_symmetric_users(self):
        rng = np.random.default_rng(2)
        h1 = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
        h = np.column_stack([h1, h1])
        f = np.column_stack([h1, h1, h1]) / np.sqrt(3 * np.linalg.norm(h1) ** 2)
        profile = QuantizerProfile([4, 4, 4], [6, 6])
        report = rate_report(h, f, profile, 10.0)
        assert report.common_rates[0] == report.common_rates[1] == report.common_rate

    def test_sum_recomposition(self):
        rng = np.random.default_rng(3)
        profile = random_profile(rng, 4, 3)
        h = random_channel(rng, 4, 3)
        f = random_precoder(rng, profile, 4, 3)
        report = rate_report(h, f, profile, 100.0)
        recomputed = report.common_rates.min() + report.private_rates.sum()
        assert report.sum_se == pytest.approx(recomputed, rel=1e-14)
        assert report.common_rate == report.common_rates.min()
        assert np.all(report.common_rates >= 0)
        assert np.all(report.private_rates >= 0)

    def test_input_validation(self):
        profile = ideal_profile(3, 2)
        h = np.ones((3, 2), dtype=complex)
        f = np.ones((3, 3), dtype=complex)
        assert rate_report(h, f, profile, 1.0).sum_se > 0
        cases = [
            (np.ones(3), f, r"channel shape \(3,\), expected \(3, 2\)"),
            (h, np.ones(3), r"precoder shape \(3,\), expected \(3, 3\)"),
            (h, np.ones((4, 3)), r"precoder shape \(4, 3\), expected \(3, 3\)"),
            (np.ones((4, 2)), np.ones((4, 3)), r"channel shape \(4, 2\), expected \(3, 2\)"),
            (h, np.ones((3, 2)), r"precoder shape \(3, 2\), expected \(3, 3\)"),
        ]
        for channel, f_matrix, message in cases:
            with pytest.raises(DimensionMismatch, match=message):
                rate_report(channel, f_matrix, profile, 1.0)

    def test_batched_matches_per_precoder_calls(self):
        # a (B, N, K+1) stack with one SNR per precoder scores each precoder
        # exactly as a call of its own does, SDMA stacks (zero common column)
        # included; a single precoder keeps per-user fields and scalar sums
        rng = np.random.default_rng(7)
        fields = ("common_sinrs", "private_sinrs", "common_rates", "common_rate",
                  "private_rates", "sum_se")
        for _ in range(40):
            n = int(rng.choice([1, 2, 4, 5, 16, 64]))
            k_users = int(rng.integers(1, 9))
            profile = random_profile(rng, n, k_users)
            h = random_channel(rng, n, k_users)
            batch = int(rng.integers(1, 9))
            stack = np.stack([random_precoder(rng, profile, n, k_users) for _ in range(batch)])
            if rng.random() < 0.5:
                stack[:, :, 0] = 0.0
            snrs = 10.0 ** rng.uniform(-2.0, 6.0, batch)
            report = rate_report(h, stack, profile, snrs)
            for i in range(batch):
                alone = rate_report(h, stack[i], profile, snrs[i])
                assert np.shape(alone.sum_se) == () and alone.private_rates.shape == (k_users,)
                for field in fields:
                    np.testing.assert_array_equal(getattr(report, field)[i], getattr(alone, field))
            shared = rate_report(h, stack, profile, snrs[0])
            np.testing.assert_array_equal(shared.sum_se[0], report.sum_se[0])

    def test_stack_shape_validation(self):
        profile = ideal_profile(3, 2)
        h = np.ones((3, 2), dtype=complex)
        for f_matrix in (np.ones((2, 4, 3)), np.ones((1, 2, 3, 3))):
            with pytest.raises(DimensionMismatch, match="precoder shape"):
                rate_report(h, f_matrix, profile, 1.0)
        for snr in ([1.0, 2.0], [1.0]):
            with pytest.raises(DimensionMismatch, match=r"SNRs for precoders of shape \(3, 3, 3\)"):
                rate_report(h, np.ones((3, 3, 3)), profile, snr)
        with pytest.raises(DimensionMismatch, match="1 SNRs for precoders of shape"):
            rate_report(h, np.ones((3, 3)), profile, [1.0])


class TestCheckPower:
    def test_zero(self):
        assert check_power(np.zeros((3, 2)), ideal_profile(3, 1)) == 0.0

    def test_unit_frobenius_perfect_quantization(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        f = f / np.linalg.norm(f)
        assert check_power(f, ideal_profile(3, 2)) == pytest.approx(1.0, rel=1e-12)

    def test_matches_long_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            k_users = int(rng.integers(1, 4))
            profile = random_profile(rng, n, k_users)
            f = random_precoder(rng, profile, n, k_users, normalized=False)
            power = 10.0 ** rng.uniform(-1.0, 3.0)
            assert check_power(f, profile) == pytest.approx(
                long_form_power(f, profile, power), rel=1e-10
            )


    def test_non_matrix_rejected(self):
        # a precoder is an (N, S) matrix; other ranks fail with DimensionMismatch,
        # not numpy's AxisError
        profile = QuantizerProfile([4] * 4, [6] * 2)
        for f_matrix in (np.ones(4), np.ones(()), np.ones((4, 3, 1)), np.ones((3, 3))):
            with pytest.raises(DimensionMismatch, match="precoder shape"):
                check_power(f_matrix, profile)


class TestLseMin:
    def test_equal_entries_closed_form(self):
        for count in (1, 3, 7):
            values = [2.5] * count
            assert lse_min(values, 0.4) == pytest.approx(
                2.5 - 0.4 * math.log(count), rel=1e-12
            )

    def test_tight_for_separated_values(self):
        assert lse_min([0.0, 10.0], 0.01) == pytest.approx(0.0, abs=1e-12)

    def test_three_ones(self):
        assert lse_min([1.0, 1.0, 1.0], 0.5) == pytest.approx(
            1.0 - 0.5 * math.log(3.0), rel=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        tau=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_sandwich_bounds(self, values, tau):
        result = lse_min(values, tau)
        low = min(values)
        assert result <= low + 1e-9
        assert result >= low - tau * math.log(len(values)) - 1e-9

    def test_overflow_safe_large_dynamic_range(self):
        values = [0.0, 1e3]
        result = lse_min(values, 0.01)
        assert math.isfinite(result)
        assert result == pytest.approx(0.0, abs=1e-12)
        # and in the other order of magnitude direction
        assert math.isfinite(lse_min([-1e3, 0.0], 0.01))

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            lse_min([], 0.1)
        with pytest.raises(DimensionMismatch):
            lse_min([1.0], 0.0)


class TestSoftminWeights:
    def test_uniform_for_equal_values(self):
        np.testing.assert_allclose(softmin_weights([2.0, 2.0, 2.0], 0.7), np.ones(3) / 3)

    def test_concentrates_on_minimum(self):
        w = softmin_weights([0.0, 5.0, 9.0], 0.05)
        assert w[0] == pytest.approx(1.0, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = softmin_weights(rng.uniform(-50, 50, size=5), 0.3)
            assert w.sum() == pytest.approx(1.0, rel=1e-12)
            assert np.all(w >= 0)
