"""Distortion factors, quantizer profiles and the long-form noise oracles."""

import math
import warnings

import numpy as np
import pytest

from rsma_sim import (
    DimensionMismatch,
    InvalidResolution,
    QuantizerProfile,
    baseline_precoder,
    build_forms,
    rate_report,
)
from rsma_sim.quantization import BETA_TABLE, beta_of_bits
from oracles import (
    adc_noise_variance,
    dac_noise_covariance,
    ideal_profile,
    is_unquantized,
    lloyd_max_beta,
    random_channel,
)


class TestBetaOfBits:
    def test_infinite_is_exact_zero(self):
        assert beta_of_bits(math.inf) == 0.0

    def test_six_bits_closed_form(self):
        expected = math.pi * math.sqrt(3.0) / 2.0 * 2.0**-12
        assert beta_of_bits(6) == pytest.approx(expected, rel=1e-15)

    def test_table_values(self):
        expected = [0.3634, 0.1175, 0.03454, 0.009497, 0.002499]
        assert [beta_of_bits(b) for b in range(1, 6)] == expected

    @pytest.mark.parametrize("bits", range(1, 6))
    def test_table_matches_lloyd_max_oracle(self, bits):
        # The published constants round a 4-digit table whose own precision
        # is a few tenths of a percent at 4-5 bits; 0.5% still catches any
        # transcription slip.
        oracle = lloyd_max_beta(bits)
        assert abs(BETA_TABLE[bits] - oracle) / oracle < 5e-3

    def test_monotone_decreasing(self):
        values = [beta_of_bits(b) for b in range(1, 13)] + [beta_of_bits(math.inf)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 0.0 <= min(values) and max(values) <= 0.3634

    def test_huge_resolution_underflows_to_zero(self):
        assert beta_of_bits(10**400) == 0.0
        assert beta_of_bits(np.int64(2**62)) == 0.0

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, -10**5000, [10**5000]],
                             ids=["0", "-3", "2.5", "True", "unprintable_int", "unprintable_list"])
    def test_invalid_resolution(self, bad):
        # a value too long to print gets the typed error too, not a ValueError
        with pytest.raises(InvalidResolution):
            beta_of_bits(bad)


class TestQuantizerProfile:
    def test_alpha_plus_beta_exactly_one(self):
        bits = list(range(1, 13)) + [math.inf]
        profile = QuantizerProfile(bits, bits)
        assert np.all(profile.dac_alpha + profile.dac_beta == 1.0)
        assert np.all(profile.adc_alpha + profile.adc_beta == 1.0)

    def test_gains_derived_from_bits(self):
        dac, adc = [1, 3, 6, 40, math.inf], [2, 9]
        profile = QuantizerProfile(dac, adc)
        assert profile == QuantizerProfile(tuple(dac), tuple(adc))
        assert profile != QuantizerProfile(dac, [2, 8])
        assert profile.dac_bits == tuple(dac)
        for bits, alpha in ((dac, profile.dac_alpha), (adc, profile.adc_alpha)):
            np.testing.assert_array_equal(alpha, [1.0 - beta_of_bits(b) for b in bits])

    def test_alpha_range(self):
        profile = QuantizerProfile(list(range(1, 9)), [1])
        assert np.all(profile.dac_alpha > 0.6)
        assert np.all(profile.dac_alpha <= 1.0)

    def test_infinite_bits_give_unit_gain(self):
        profile = ideal_profile(3, 2)
        assert np.all(profile.dac_alpha == 1.0)
        assert np.all(profile.dac_beta == 0.0)
        assert is_unquantized(profile)

    @pytest.mark.parametrize("shape", [(4, 2), (4,), (3, 4), (1, 3)],
                             ids=["K-1-users", "vector", "transposed", "one-row"])
    @pytest.mark.parametrize("caller", ["build_forms", "rate_report", "QMRT", "QZF", "QRZF"])
    def test_channel_checked_by_every_caller(self, caller, shape):
        # every entry point that takes a channel checks it against the
        # profile; a (1, K) channel would otherwise broadcast silently
        # against the per-antenna gains
        profile = QuantizerProfile([4] * 4, [6] * 3)

        def call(h):
            if caller == "build_forms":
                return build_forms(h, profile, 10.0)
            if caller == "rate_report":
                return rate_report(h, np.ones((4, 4)), profile, 10.0)
            return baseline_precoder(caller, h, profile, 10.0)

        call(random_channel(np.random.default_rng(3), 4, 3))
        with pytest.raises(DimensionMismatch, match=r"channel shape .*, expected \(4, 3\)"):
            call(np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("case", ["nan", "inf", "no-users"])
    @pytest.mark.parametrize("caller", ["build_forms", "rate_report", "QMRT", "QZF", "QRZF"])
    def test_empty_or_non_finite_channel_rejected(self, caller, case):
        # without the check, rates come out NaN, baselines return a NaN
        # precoder or hit a raw IndexError, and the solve faults per point
        if case == "no-users":
            profile, h = QuantizerProfile([4, 4], []), np.ones((2, 0), dtype=complex)
        else:
            profile = QuantizerProfile([4] * 4, [6] * 3)
            h = random_channel(np.random.default_rng(5), 4, 3)
            h[2, 1] = np.nan if case == "nan" else np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DimensionMismatch, match="must be nonempty and finite"):
                if caller == "build_forms":
                    build_forms(h, profile, [10.0, 100.0])
                elif caller == "rate_report":
                    rate_report(h, np.ones((len(h), profile.n_users + 1)), profile, 10.0)
                else:
                    baseline_precoder(caller, h, profile, [10.0, 100.0])


class TestDacNoiseCovariance:
    def test_all_infinite_is_exact_zero(self):
        profile = ideal_profile(3, 2)
        f = np.ones((3, 3), dtype=complex)
        assert np.all(dac_noise_covariance(profile, f, 5.0) == 0.0)

    def test_single_antenna_example(self):
        profile = QuantizerProfile([6], [])
        beta = math.pi * math.sqrt(3.0) / 2.0 * 2.0**-12
        expected = (1.0 - beta) * beta
        cov = dac_noise_covariance(profile, np.array([[1.0 + 0j]]), 1.0)
        assert cov[0, 0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(6.638e-4, rel=1e-3)

    def test_entries_match_elementwise_brute_force(self):
        rng = np.random.default_rng(21)
        profile = QuantizerProfile([1, 3, 8, math.inf], [4, 4])
        f = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        power = 2.5
        cov = dac_noise_covariance(profile, f, power)
        for n in range(4):
            expected = (
                profile.dac_alpha[n]
                * profile.dac_beta[n]
                * power
                * sum(abs(f[n, i]) ** 2 for i in range(3))
            )
            assert cov[n, n] == pytest.approx(expected, rel=1e-12, abs=1e-300)
        assert np.all(cov == np.diag(np.diag(cov)))
        assert np.all(np.diag(cov) >= 0.0)

    def test_dimension_mismatch(self):
        profile = QuantizerProfile([4, 4], [4])
        with pytest.raises(DimensionMismatch):
            dac_noise_covariance(profile, np.ones((3, 2)), 1.0)


class TestAdcNoiseVariance:
    def test_infinite_adc_is_exact_zero(self):
        profile = QuantizerProfile([3, 3], [math.inf, 4])
        h = np.ones((2, 2), dtype=complex)
        f = np.ones((2, 3), dtype=complex)
        assert adc_noise_variance(profile, 0, h, f, 1.0, 1.0) == 0.0

    def test_scalar_example(self):
        # One antenna with an ideal DAC, unit channel, all power on the
        # private stream: variance is alpha*beta*(P + sigma^2) = 2*alpha*beta.
        profile = QuantizerProfile([math.inf], [6])
        h = np.array([[1.0 + 0j]])
        f = np.array([[0.0, 1.0]], dtype=complex)
        beta = math.pi * math.sqrt(3.0) / 2.0 * 2.0**-12
        expected = (1.0 - beta) * beta * 2.0
        got = adc_noise_variance(profile, 0, h, f, 1.0, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.3276e-3, rel=1e-3)

    def test_matches_covariance_assembly(self):
        # Direct form: alpha*beta*(h^H E[x_q x_q^H] h + sigma^2) with the
        # transmit covariance assembled from the DAC noise covariance.
        rng = np.random.default_rng(31)
        profile = QuantizerProfile([2, 5, 7], [3, 6])
        h = random_channel(rng, 3, 2)
        f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        power, noise = 4.0, 1.5
        phi_a = np.diag(profile.dac_alpha)
        xq_cov = power * phi_a @ f @ f.conj().T @ phi_a.conj().T
        xq_cov = xq_cov + dac_noise_covariance(profile, f, power)
        for k in range(2):
            hk = h[:, k]
            direct = (
                profile.adc_alpha[k]
                * profile.adc_beta[k]
                * ((hk.conj() @ xq_cov @ hk).real + noise)
            )
            got = adc_noise_variance(profile, k, h, f, power, noise)
            assert got == pytest.approx(direct, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(32)
        profile = QuantizerProfile([1, 1], [1, 1])
        h = random_channel(rng, 2, 2)
        f = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        assert adc_noise_variance(profile, 1, h, f, 10.0, 1.0) >= 0.0

    def test_dimension_mismatch(self):
        profile = QuantizerProfile([4, 4], [4])
        with pytest.raises(DimensionMismatch):
            adc_noise_variance(profile, 0, np.ones((3, 1)), np.ones((3, 2)), 1.0, 1.0)
