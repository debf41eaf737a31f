"""Quadratic forms, smoothed objective, KKT pencil, power-iteration solvers."""

import itertools
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsma_sim import gpi
from rsma_sim import (
    DimensionMismatch,
    QuadraticForms,
    QuantizerProfile,
    SolverOptions,
    ZeroPrecoder,
    build_forms,
    check_power,
    gpi_solve,
    init_precoder,
    load_spec,
    rate_report,
    run_experiment,
    sample_channel,
    trial_rng,
)
from rsma_sim.channel import draw_aods
from rsma_sim.gpi import kkt_matrices
from rsma_sim.linalg import blockdiag_solve
from rsma_sim.quantization import BETA_TABLE
from oracles import (
    BIT_POOL,
    dense_blocks,
    dense_kkt,
    dense_one_ring,
    element_quadratics,
    extract_precoder,
    frozen_power_iteration,
    hermitian_solve,
    ideal_profile,
    kl_factorize,
    kl_sample_channel,
    nep_residual,
    objective,
    principal_gep_oracle,
    random_channel,
    random_profile,
    scalar_gpi_solve,
    sdma_gpi_solve,
    solve_one,
    stack_precoder,
    stream_rates,
    to_dense,
    vector_angle,
)


def random_unit_stack(rng, dim):
    w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return w / np.linalg.norm(w)


def correlated_instance(seed, n=4, k_users=2, dac=4, adc=6):
    rng = trial_rng(seed, 0)
    aods = draw_aods(rng, k_users, "correlated_aod")
    facs = [kl_factorize(dense_one_ring(n, float(a))) for a in aods]
    h = kl_sample_channel(facs, rng)
    profile = QuantizerProfile([dac] * n, [adc] * k_users)
    return h, profile


class TestBuildForms:
    def test_zero_channel_degenerates(self):
        profile = QuantizerProfile([4, 4], [6, 6])
        forms = build_forms(np.zeros((2, 2)), profile, 10.0)
        w = random_unit_stack(np.random.default_rng(0), forms.dim)
        a_c, b_c, a_p, b_p = element_quadratics(forms, w)
        np.testing.assert_allclose(a_c / b_c, np.ones(2), rtol=1e-14)
        np.testing.assert_allclose(a_p / b_p, np.ones(2), rtol=1e-14)
        common, private = stream_rates(forms, w)
        np.testing.assert_allclose(common, 0.0, atol=1e-14)
        np.testing.assert_allclose(private, 0.0, atol=1e-14)
        pencil_a, pencil_b = kkt_matrices(forms, w, 0.3)
        np.testing.assert_allclose(
            dense_blocks(pencil_a), dense_blocks(pencil_b), rtol=1e-13
        )

    def test_common_stream_mode_per_element(self):
        h, profile = correlated_instance(3)
        forms = build_forms(h, profile, [10.0, 1e3, 1e5], [True, False, True])
        np.testing.assert_array_equal(forms.include_common, [True, False, True])
        np.testing.assert_array_equal(build_forms(h, profile, [1.0, 2.0], False).include_common,
                                      [False, False])
        with pytest.raises(DimensionMismatch, match="modes"):
            build_forms(h, profile, [10.0, 1e3], [True, False, True])
        # forms built directly default to RSMA and take one bool for every element
        fields = (forms.weighted_channels, forms.distortion_diags, forms.adc_alpha,
                  forms.dac_alpha, forms.noise_over_power)
        np.testing.assert_array_equal(QuadraticForms(*fields).include_common, [True] * 3)
        np.testing.assert_array_equal(QuadraticForms(*fields, False).include_common, [False] * 3)
        with pytest.raises(DimensionMismatch, match="modes"):
            QuadraticForms(*fields, [True, False])

    def test_perfect_quantization_gain_matrices(self):
        rng = np.random.default_rng(1)
        h = random_channel(rng, 3, 2)
        forms = build_forms(h, ideal_profile(3, 2), 5.0)
        np.testing.assert_array_equal(forms.weighted_channels, h.T)
        np.testing.assert_array_equal(forms.distortion_diags, np.zeros((2, 3)))
        np.testing.assert_array_equal(forms.adc_alpha, np.ones(2))

    def test_ratios_match_rates_module(self):
        # Central correctness link: log2 of the quadratic-form ratios must
        # reproduce the SINR-based rates for the unstacked precoder.
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k_users = int(rng.integers(1, 5))
            profile = random_profile(rng, n, k_users)
            h = random_channel(rng, n, k_users)
            power = 10.0 ** rng.uniform(0.0, 3.0)
            forms = build_forms(h, profile, power)
            w = random_unit_stack(rng, forms.dim)
            f = extract_precoder(w, profile)
            common, private = stream_rates(forms, w)
            report = rate_report(h, f, profile, power)
            for k in range(k_users):
                want_c = math.log2(1.0 + report.common_sinrs[k])
                want_p = math.log2(1.0 + report.private_sinrs[k])
                assert common[k] == pytest.approx(want_c, rel=1e-9, abs=1e-12)
                assert private[k] == pytest.approx(want_p, rel=1e-9, abs=1e-12)


class TestObjective:
    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        h = random_channel(rng, 4, 2)
        profile = QuantizerProfile([3] * 4, [5] * 2)
        forms = build_forms(h, profile, 60.0)
        w = random_unit_stack(rng, forms.dim)
        base = objective(forms, w, 0.3)
        for factor in (2.0, 1e-3, -4.0, 0.7 - 2.1j):
            assert objective(forms, factor * w, 0.3) == pytest.approx(base, rel=1e-12)

    def test_single_user_composition(self):
        rng = np.random.default_rng(4)
        h = random_channel(rng, 3, 1)
        profile = QuantizerProfile([4, 4, 4], [6])
        power = 20.0
        forms = build_forms(h, profile, power)
        w = random_unit_stack(rng, forms.dim)
        f = extract_precoder(w, profile)
        report = rate_report(h, f, profile, power)
        # single user: smoothed min over one value is exact
        assert objective(forms, w, 0.5) == pytest.approx(
            report.common_rate + report.private_rates.sum(), rel=1e-9
        )

    def test_small_tau_approaches_exact_min(self):
        rng = np.random.default_rng(5)
        h = random_channel(rng, 4, 3)
        profile = QuantizerProfile([4] * 4, [6] * 3)
        forms = build_forms(h, profile, 30.0)
        w = random_unit_stack(rng, forms.dim)
        common, private = stream_rates(forms, w)
        exact = common.min() + private.sum()
        smoothed = objective(forms, w, 0.001)
        assert exact - 0.001 * math.log(3) - 1e-12 <= smoothed <= exact + 1e-12


class TestKktMatrices:
    def test_block_structure(self):
        rng = np.random.default_rng(6)
        h = random_channel(rng, 3, 2)
        profile = QuantizerProfile([2, 4, 6], [3, 7])
        forms = build_forms(h, profile, 15.0)
        w = random_unit_stack(rng, forms.dim)
        pencil_a, pencil_b = kkt_matrices(forms, w, 0.3)
        assert pencil_a.n_blocks == 3 and pencil_a.block_dim == 3
        assert pencil_b.n_blocks == 3 and pencil_b.block_dim == 3
        # normalized quotients: w^H A w = w^H B w = K + 1 exactly at w itself
        assert np.vdot(w, pencil_a.matvec(w)).real == pytest.approx(3.0, rel=1e-12)
        assert np.vdot(w, pencil_b.matvec(w)).real == pytest.approx(3.0, rel=1e-12)

    def test_mixed_batch_elements_match_single_mode_forms(self):
        # an element's pencil and objective do not depend on its batch mates'
        # modes; an SDMA element's vector has a zero common block
        h, profile = correlated_instance(4)
        rng = np.random.default_rng(24)
        snrs, modes = [10.0, 1e3, 1e5], [True, False, False]
        forms = build_forms(h, profile, snrs, modes)
        w = np.array([random_unit_stack(rng, forms.dim) for _ in snrs])
        w[~np.array(modes), :4] = 0.0
        pencils = kkt_matrices(forms, w, 1.0)
        for b, (snr, mode) in enumerate(zip(snrs, modes)):
            single = build_forms(h, profile, snr, mode)
            for got, want in zip(pencils, kkt_matrices(single, w[b], 1.0)):
                for field in ("diag", "weights"):
                    np.testing.assert_allclose(
                        getattr(got, field)[b], getattr(want, field)[0], rtol=1e-14, atol=0)
            np.testing.assert_allclose(
                objective(forms, w, 1.0)[b], objective(single, w[b], 1.0)[0], rtol=1e-14)

    def test_gradient_direction_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            n = int(rng.integers(2, 5))
            k_users = int(rng.integers(1, 4))
            profile = random_profile(rng, n, k_users)
            h = random_channel(rng, n, k_users)
            forms = build_forms(h, profile, 10.0 ** rng.uniform(0, 3))
            w = random_unit_stack(rng, forms.dim)
            tau = 0.5
            pencil_a, pencil_b = kkt_matrices(forms, w, tau)
            rho = (
                np.vdot(w, pencil_a.matvec(w)).real
                / np.vdot(w, pencil_b.matvec(w)).real
            )
            direction = pencil_a.matvec(w) - rho * pencil_b.matvec(w)

            step = 1e-6
            grad = np.zeros(forms.dim, dtype=complex)
            for i in range(forms.dim):
                for unit in (1.0, 1j):
                    bump = np.zeros(forms.dim, dtype=complex)
                    bump[i] = unit * step
                    [delta] = objective(forms, w + bump, tau) - objective(
                        forms, w - bump, tau
                    )
                    grad[i] += unit * delta / (2 * step)
            deviation = np.linalg.norm(
                grad / np.linalg.norm(grad) - direction / np.linalg.norm(direction)
            )
            assert deviation <= 1e-4

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        k_users=st.integers(1, 4),
        dac_bits=st.lists(st.sampled_from(BIT_POOL), min_size=6, max_size=6),
        adc_bits=st.lists(st.sampled_from(BIT_POOL), min_size=4, max_size=4),
        snr_db=st.floats(0.0, 60.0),
        include_common=st.booleans(),
    )
    def test_denominator_pencil_positive_definite(
        self, seed, n, k_users, dac_bits, adc_bits, snr_db, include_common
    ):
        # the block solve's singularity check relies on this for every iterate
        rng = np.random.default_rng(seed)
        profile = QuantizerProfile(dac_bits[:n], adc_bits[:k_users])
        h = random_channel(rng, n, k_users)
        forms = build_forms(h, profile, 10.0 ** (snr_db / 10.0), include_common)
        w = random_unit_stack(rng, forms.dim)
        _, pencil_b = kkt_matrices(forms, w, 1.0)
        assert np.linalg.eigvalsh(dense_blocks(pencil_b)).min() > 0
        solve_one(pencil_b, w)  # passes the singularity check too

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        k_users=st.integers(1, 4),
        dac_bits=st.lists(st.sampled_from(BIT_POOL), min_size=6, max_size=6),
        adc_bits=st.lists(st.sampled_from(BIT_POOL), min_size=4, max_size=4),
        snr_db=st.floats(0.0, 80.0),
        include_common=st.booleans(),
    )
    def test_blocks_match_dense_kkt(
        self, seed, n, k_users, dac_bits, adc_bits, snr_db, include_common
    ):
        # The dense construction subtracts the cancelled beam gains from the
        # full gain sum, so its rounding error scales with that sum's norm;
        # the solve must stay within the condition bound of a dense solve.
        rng = np.random.default_rng(seed)
        profile = QuantizerProfile(dac_bits[:n], adc_bits[:k_users])
        h = random_channel(rng, n, k_users)
        forms = build_forms(h, profile, 10.0 ** (snr_db / 10.0), include_common)
        w = random_unit_stack(rng, forms.dim)
        pencil_a, pencil_b = kkt_matrices(forms, w, 1.0)
        blocks_a, blocks_b, base_a, base_b = dense_kkt(forms, w, 1.0)
        pairs = ((pencil_a, blocks_a, base_a), (pencil_b, blocks_b, base_b))
        for pencil, blocks, base in pairs:
            assert (pencil.weights >= 0).all()
            error = np.linalg.norm(dense_blocks(pencil) - blocks)
            assert error <= 1e-12 * np.linalg.norm(base)
        [rhs] = pencil_a.matvec(w)
        dense = to_dense(pencil_b)
        got = solve_one(pencil_b, rhs)
        want = hermitian_solve(dense, rhs)
        tol = 1e-14 * np.linalg.cond(dense)
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    @pytest.mark.parametrize("include_common", [True, False])
    @pytest.mark.parametrize("snr_db", [0.0, 30.0, 60.0])
    def test_blockdiag_solve_matches_dense_oracle(self, snr_db, include_common):
        # pencils at the start and the end of real solves, correlated users
        for seed in range(3):
            h, profile = correlated_instance(seed)
            forms = build_forms(h, profile, 10.0 ** (snr_db / 10.0), include_common)
            opts = SolverOptions(tau=1.0)
            w0 = init_precoder(forms)
            [result] = gpi_solve(forms, opts, w0)
            for w in (w0, stack_precoder(result.precoder, forms)):
                pencil_a, pencil_b = kkt_matrices(forms, w, opts.tau)
                [rhs] = pencil_a.matvec(w)
                dense = to_dense(pencil_b)
                got = solve_one(pencil_b, rhs)
                want = hermitian_solve(dense, rhs)
                tol = 1e-14 * np.linalg.cond(dense)
                assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    @pytest.mark.parametrize("include_common", [True, False])
    @pytest.mark.parametrize("adc_bits", [8, math.inf])
    @pytest.mark.parametrize("n, k_users", [(4, 2), (64, 8)])
    def test_blockdiag_solve_backward_error(self, n, k_users, adc_bits, include_common):
        # every block of every SNR point from -30 to 90 dB, at the start and
        # after a few steps, is solved to a normwise backward error
        # ||B_j x_j - r_j|| / (||B_j||_2 ||x_j||) of at most 1e-11
        rng = trial_rng(3, 0)
        dac_bits = [4] * n if n == 4 else [int(b) for b in rng.integers(2, 9, n)]
        aods = draw_aods(rng, k_users, "random_aod")
        h = kl_sample_channel([kl_factorize(dense_one_ring(n, float(a))) for a in aods], rng)
        profile = QuantizerProfile(dac_bits, [adc_bits] * k_users)
        snr_db = np.arange(-30.0, 91.0, 15.0)
        forms = build_forms(h, profile, 10.0 ** (snr_db / 10.0), include_common)
        w0 = init_precoder(forms)
        stepped = gpi_solve(forms, SolverOptions(tau=1.0, t_max=3), w0)
        starts = (w0, np.array([stack_precoder(r.precoder, forms) for r in stepped]))
        for w in starts:
            pencil_a, pencil_b = kkt_matrices(forms, w, 1.0)
            rhs = pencil_a.matvec(w)
            got, faults = blockdiag_solve(pencil_b, rhs)
            assert faults == [None] * forms.batch
            blocks = dense_blocks(pencil_b)
            x, r = got.reshape(len(blocks), n, 1), rhs.reshape(len(blocks), n, 1)
            # an SDMA element's block 0 maps its zero common block to exact zeros
            live = np.tile((np.arange(k_users + 1) > 0) | include_common, forms.batch)
            assert not x[~live].any()
            blocks, x, r = blocks[live], x[live], r[live]
            error = np.linalg.norm(blocks @ x - r, axis=(1, 2)) / (
                np.linalg.norm(blocks, 2, axis=(1, 2)) * np.linalg.norm(x, axis=(1, 2)))
            assert error.max() <= 1e-11


class TestGpiSolve:
    def test_row_norms_equal_numpy_norms(self):
        # the loop's row norms sum the same squares as np.linalg.norm, so
        # they are bit-identical to it
        rng = np.random.default_rng(30)
        for shape, scale in (((7, 12), 1.0), ((3, 576), 1e-150), ((1, 9), 1e150)):
            x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            np.testing.assert_array_equal(gpi._row_norms(x), np.linalg.norm(x, axis=-1))

    def test_equal_pencil_fixed_point(self):
        # zero channel makes numerator and denominator matrices equal, so
        # any start is a fixed point
        profile = QuantizerProfile([4, 4], [6, 6])
        forms = build_forms(np.zeros((2, 2)), profile, 10.0)
        w0 = random_unit_stack(np.random.default_rng(8), forms.dim)
        [result] = gpi_solve(forms, SolverOptions(), w0)
        assert result.converged
        assert result.iterations == 0
        assert result.residual < 1e-10

    def test_converged_solve_properties(self):
        h, profile = correlated_instance(1)
        power = 10.0 ** 2.0
        forms = build_forms(h, profile, power)
        w0 = init_precoder(forms)
        opts = SolverOptions(tau=0.3, epsilon=0.01, t_max=500)
        [result] = gpi_solve(forms, opts, w0)
        assert result.converged
        w = stack_precoder(result.precoder, forms)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        assert result.residual <= opts.epsilon
        # the returned point is at least as good as the start
        assert objective(forms, w, opts.tau) >= objective(forms, w0, opts.tau) - 1e-9
        # power constraint holds with equality for the extracted precoder
        assert check_power(result.precoder, profile) == pytest.approx(1.0, abs=1e-10)

    def test_frozen_pencil_matches_dense_oracle(self):
        # with the pencil frozen, the update is plain generalized power
        # iteration and must land on the dominant eigenvector
        rng = np.random.default_rng(9)
        h, profile = correlated_instance(2)
        forms = build_forms(h, profile, 100.0)
        w = random_unit_stack(rng, forms.dim)
        pencil_a, pencil_b = kkt_matrices(forms, w, 0.3)
        v = frozen_power_iteration(pencil_a, pencil_b, random_unit_stack(rng, forms.dim),
                                   1e-14, 20_000)
        _, oracle_vec = principal_gep_oracle(to_dense(pencil_a), to_dense(pencil_b))
        assert vector_angle(v, oracle_vec) < 1e-6

    def test_returned_objective_at_least_start(self):
        # the iteration has no monotonicity guarantee, but at the tuned
        # temperature the point it stops at improves on the matched filter
        for seed in range(10):
            for power, include_common in itertools.product((1e2, 1e3), (True, False)):
                h, profile = correlated_instance(seed)
                forms = build_forms(h, profile, power, include_common)
                w0 = init_precoder(forms)
                [result] = gpi_solve(forms, SolverOptions(tau=1.0), w0)
                w = stack_precoder(result.precoder, forms)
                assert objective(forms, w, 1.0) >= objective(forms, w0, 1.0) - 1e-9

    def test_cycling_mixed_dac_trial_converges(self):
        # trial 0 of the mixed-DAC sweep (three 3-bit DACs and one 8-bit DAC,
        # 50 dB) cycles under the plain step; the damped step settles it
        rng = trial_rng(90, 0)
        aods = draw_aods(rng, 2, "correlated_aod")
        h = kl_sample_channel([kl_factorize(dense_one_ring(4, float(a))) for a in aods], rng)
        forms = build_forms(h, QuantizerProfile([3, 3, 3, 8], [8, 8]), 10.0 ** 5.0)
        opts = SolverOptions(tau=1.0)
        [result] = gpi_solve(forms, opts, init_precoder(forms))
        assert result.converged
        assert result.iterations < 20
        assert result.residual <= opts.epsilon

    def test_step_phase_does_not_fake_a_cycle(self):
        # trial 88 of the fig2 sweep at base_seed 1, 10 dB, SDMA: its plain
        # steps converge, but steps pinned to a largest entry whose index
        # moves differ from their iterates by a global phase, looked like a
        # period-2 cycle, and the half step then stalled until t_max
        forms = build_forms(fig2_channel(88, base_seed=1), FIG2_PROFILE, 10.0, False)
        opts = SolverOptions(tau=1.0, epsilon=0.01, t_max=500)
        [result] = gpi_solve(forms, opts, init_precoder(forms))
        assert result.converged
        assert result.iterations <= 20

    @pytest.mark.parametrize("theta", [0.4, 2.0, -2.9])
    def test_start_phase_does_not_matter(self, theta):
        # rates and the residual ignore a global phase, and each step is
        # rotated onto its own iterate: a rotated start rotates the whole
        # trajectory and changes nothing else
        h = fig2_channel(3)
        snrs = 10.0 ** (np.arange(0, 70, 10) / 10.0)
        forms = build_forms(h, FIG2_PROFILE, np.tile(snrs, 2), np.repeat([True, False], 7))
        start, turn = init_precoder(forms), np.exp(1j * theta)
        wants = gpi_solve(forms, SolverOptions(), start)
        gots = gpi_solve(forms, SolverOptions(), turn * start)
        for want, got in zip(wants, gots):
            assert got.iterations == want.iterations
            assert got.residual == pytest.approx(want.residual, rel=0, abs=1e-12)
            np.testing.assert_allclose(got.precoder, turn * want.precoder, rtol=0, atol=1e-12)
        want_se, got_se = (rate_report(h, np.stack([r.precoder for r in results]), FIG2_PROFILE,
                                       np.tile(snrs, 2)).sum_se for results in (wants, gots))
        np.testing.assert_allclose(got_se, want_se, rtol=0, atol=1e-12)

    def test_image_orthogonal_to_iterate_is_not_rotated(self, monkeypatch):
        # no phase brings an image with w^H x = 0 nearer w: the step is the
        # normalized image, with no division by zero
        h, profile = correlated_instance(4)
        forms = build_forms(h, profile, 100.0)
        w0, image = np.zeros((2, forms.dim), dtype=complex)
        w0[[0, 4]] = 0.5 ** 0.5
        image[8:] = 2j
        monkeypatch.setattr(gpi, "blockdiag_solve", lambda pencil, rhs: (image[None], [None]))
        [result] = gpi_solve(forms, SolverOptions(t_max=1), w0)
        assert result.iterations == 1
        np.testing.assert_allclose(
            stack_precoder(result.precoder, forms), image / np.linalg.norm(image), rtol=0, atol=1e-15)

    def test_start_of_other_mode_rejected(self):
        # an RSMA start has a common block that SDMA forms must not carry, and
        # an SDMA start's zero common block would pin an RSMA solve to SDMA;
        # a start of the wrong length fits neither mode
        h, profile = correlated_instance(3)
        rsma = init_precoder(build_forms(h, profile, 10.0))
        sdma = init_precoder(build_forms(h, profile, 10.0, False))
        mixed = build_forms(h, profile, [10.0, 1e3], [True, False])
        for forms, start in ((build_forms(h, profile, 10.0, False), rsma),
                             (build_forms(h, profile, 10.0), sdma),
                             (mixed, np.vstack([rsma, rsma])),
                             (mixed, np.vstack([sdma, sdma])),
                             (mixed, np.vstack([sdma, rsma]))):
            with pytest.raises(DimensionMismatch, match="starting vector"):
                gpi_solve(forms, SolverOptions(), start)
        results = gpi_solve(mixed, SolverOptions(), np.vstack([rsma, sdma]))
        assert all(r.converged for r in results)
        for include_common in (True, False):
            forms = build_forms(h, profile, 10.0, include_common)
            with pytest.raises(DimensionMismatch, match="starting vector"):
                gpi_solve(forms, SolverOptions(), rsma[0, h.shape[0]:])

    def test_zero_start_rejected(self):
        h, profile = correlated_instance(4)
        forms = build_forms(h, profile, 10.0)
        with pytest.raises(ZeroPrecoder):
            gpi_solve(forms, SolverOptions(), np.zeros(forms.dim))

    def test_options_validation(self):
        from rsma_sim import ValidationError

        with pytest.raises(ValidationError):
            SolverOptions(tau=0.0)
        with pytest.raises(ValidationError):
            SolverOptions(epsilon=-1.0)
        with pytest.raises(ValidationError):
            SolverOptions(t_max=0)
        # a direct call gets the same type errors as a config
        for bad in ({"t_max": 2.5}, {"t_max": True}, {"t_max": "9"},
                    {"tau": "1"}, {"tau": None}, {"tau": True},
                    # too long to print: the message names the field, not a ValueError
                    {"t_max": -10**5000}, {"tau": -10**5000}):
            name = next(iter(bad))
            with pytest.raises(ValidationError, match=f"solver '{name}' must be") as info:
                SolverOptions(**bad)
            assert len(str(info.value)) <= 150
        with pytest.raises(ValidationError, match="positive and finite"):
            SolverOptions(tau=10**400)
        # numpy scalars are numbers too; comparing them must not overflow a cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opts = SolverOptions(tau=np.float32(1.0), epsilon=np.float16(0.01),
                                 t_max=np.int64(20))
        assert (opts.tau, opts.t_max) == (1.0, 20)


FIG2_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fig2_sweep.json"
FIG2_PROFILE = QuantizerProfile([4] * 4, [6] * 2)


def fig2_channel(trial, base_seed=70):
    """The channel that trial ``trial`` of configs/fig2_sweep.json draws at ``base_seed``."""
    rng = trial_rng(base_seed, trial)
    aods = draw_aods(rng, 2, "random_aod")
    return sample_channel(4, aods, rng)


def assert_batch_matches_scalar_oracle(h, profile, snr_db, include_common, opts):
    """One batched solve over ``snr_db`` against a scalar solve per point."""
    snrs = 10.0 ** (np.asarray(snr_db) / 10.0)
    forms = build_forms(h, profile, snrs, include_common)
    results = gpi_solve(forms, opts, init_precoder(forms))
    assert len(results) == len(snrs)
    for snr, got in zip(snrs, results):
        single = build_forms(h, profile, snr, include_common)
        want = scalar_gpi_solve(single, opts, init_precoder(single))
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        np.testing.assert_allclose(stack_precoder(got.precoder, forms),
                                   stack_precoder(want.precoder, single), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.residual, want.residual, rtol=1e-9)
        np.testing.assert_allclose(got.precoder, want.precoder, rtol=0, atol=1e-12)
    return results


def assert_merged_sdma_matches_reference(h, profile, snr_db, opts):
    """One batch of RSMA and SDMA points against the K-block SDMA solve per point.

    Each SNR value appears once with the common stream on and once with it
    off; the SDMA elements must take the reference's trajectory.
    """
    snrs = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    forms = build_forms(h, profile, np.tile(snrs, 2), np.repeat([True, False], len(snrs)))
    results = gpi_solve(forms, opts, init_precoder(forms))
    for snr, got in zip(snrs, results[len(snrs):]):
        want = sdma_gpi_solve(build_forms(h, profile, snr), opts)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        np.testing.assert_allclose(got.precoder, want.precoder, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.residual, want.residual, rtol=1e-9)
    return results


class TestBatchedSolve:
    def test_fig2_channel_is_the_sweeps(self):
        spec = replace(load_spec(FIG2_CONFIG.read_text()), trials=1)
        want = [r for r in run_experiment(spec) if r.algorithm == "QGPIRS"]
        snrs = 10.0 ** (np.array(spec.snr_db) / 10.0)
        h = fig2_channel(0)
        forms = build_forms(h, FIG2_PROFILE, snrs)
        results = gpi_solve(forms, spec.solver, init_precoder(forms))
        for snr, got, record in zip(snrs, results, want):
            assert got.iterations == record.iterations
            assert got.residual == pytest.approx(record.residual, rel=1e-9)
            sum_se = rate_report(h, got.precoder, FIG2_PROFILE, snr).sum_se
            assert sum_se == pytest.approx(record.sum_se, rel=1e-12)

    @pytest.mark.parametrize("include_common", [True, False])
    def test_fig2_trials_match_scalar_oracle(self, include_common):
        for trial in range(20):
            assert_batch_matches_scalar_oracle(
                fig2_channel(trial), FIG2_PROFILE, range(0, 70, 10), include_common,
                SolverOptions(tau=1.0),
            )

    def test_fig2_sdma_points_match_k_block_reference(self):
        for trial in range(20):
            assert_merged_sdma_matches_reference(
                fig2_channel(trial), FIG2_PROFILE, range(0, 70, 10), SolverOptions(tau=1.0))

    def test_criterion_9_sdma_points_match_k_block_reference(self):
        # the channels the criterion-9 sweep draws (seed 90), solved with
        # the common stream on and off in one batch
        profile = QuantizerProfile([3, 3, 3, 8], [8, 8])
        for trial in range(100):
            rng = trial_rng(90, trial)
            aods = draw_aods(rng, 2, "correlated_aod")
            h = sample_channel(4, aods, rng)
            assert_merged_sdma_matches_reference(h, profile, [50], SolverOptions(tau=1.0))

    def test_half_step_switch_is_per_element(self):
        # the cycling criterion-9 trial (see test_cycling_mixed_dac_trial_converges)
        # switches to the half step at 50 dB; batched with points that do
        # not, each element still takes its own scalar trajectory
        rng = trial_rng(90, 0)
        aods = draw_aods(rng, 2, "correlated_aod")
        h = kl_sample_channel([kl_factorize(dense_one_ring(4, float(a))) for a in aods], rng)
        results = assert_batch_matches_scalar_oracle(
            h, QuantizerProfile([3, 3, 3, 8], [8, 8]), [50, 0, 30, 60], True,
            SolverOptions(tau=1.0),
        )
        assert results[0].iterations == 9

    def test_per_element_starts(self):
        h, profile = correlated_instance(9)
        forms = build_forms(h, profile, [10.0, 1e4])
        other = random_unit_stack(np.random.default_rng(23), forms.dim)
        starts = np.stack([init_precoder(forms)[0], other])
        results = gpi_solve(forms, SolverOptions(tau=1.0), starts)
        for snr, start, got in zip((10.0, 1e4), starts, results):
            single = build_forms(h, profile, snr)
            want = scalar_gpi_solve(single, SolverOptions(tau=1.0), start)
            assert got.iterations == want.iterations
            np.testing.assert_allclose(stack_precoder(got.precoder, forms),
                                       stack_precoder(want.precoder, single), rtol=0, atol=1e-12)


class TestInitAndExtract:
    def test_single_user_init(self):
        rng = np.random.default_rng(10)
        h = random_channel(rng, 3, 1)
        profile = QuantizerProfile([4, 4, 4], [6])
        w = init_precoder(build_forms(h, profile, 1.0))
        f = extract_precoder(w, profile)
        # K=1: the common column equals the private column equals h
        assert vector_angle(f[:, 0], h[:, 0]) < 1e-6
        np.testing.assert_allclose(f[:, 0], f[:, 1], rtol=1e-12)

    def test_orthogonal_channels_common_column(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        profile = ideal_profile(3, 2)
        f = extract_precoder(init_precoder(build_forms(h, profile, 1.0)), profile)
        assert vector_angle(f[:, 0], np.array([0.5, 0.5, 0.0])) < 1e-6

    def test_unit_norm(self):
        rng = np.random.default_rng(11)
        for include_common in (True, False):
            h = random_channel(rng, 4, 3)
            profile = random_profile(rng, 4, 3)
            w = init_precoder(build_forms(h, profile, 1.0, include_common))
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(ZeroPrecoder):
            init_precoder(build_forms(np.zeros((3, 2)), ideal_profile(3, 2), 1.0))

    def test_extract_is_identity_for_perfect_quantization(self):
        rng = np.random.default_rng(12)
        profile = ideal_profile(2, 1)
        w = random_unit_stack(rng, 4)
        f = extract_precoder(w, profile)
        np.testing.assert_allclose(f.T.reshape(-1), w, rtol=1e-15)

    def test_extract_scales_rows(self):
        profile = QuantizerProfile((1, math.inf), (4,))
        w = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
        f = extract_precoder(w, profile)
        # a 1-bit DAC has gain 1 - BETA_TABLE[1]; its row is unweighted by
        # the square root, the infinite-resolution row is unchanged
        np.testing.assert_allclose(f[0], [(1.0 - BETA_TABLE[1]) ** -0.5] * 2, rtol=1e-15)
        np.testing.assert_array_equal(f[1], [1.0, 1.0])

    @pytest.mark.parametrize("include_common", [True, False])
    def test_init_matches_stacked_matched_filter(self, include_common):
        rng = np.random.default_rng(16)
        for _ in range(10):
            h = random_channel(rng, 4, 3)
            profile = random_profile(rng, 4, 3)
            [got] = init_precoder(build_forms(h, profile, 10.0, include_common))
            if include_common:
                want = stack_precoder(np.hstack([h.mean(axis=1, keepdims=True), h]), profile)
                # the common block averages weighted rather than raw channels
                np.testing.assert_allclose(got, want / np.linalg.norm(want), rtol=0, atol=1e-15)
            else:
                # SDMA: the K-block matched filter behind a zero common block
                want = stack_precoder(h, profile)
                np.testing.assert_array_equal(got[:4], np.zeros(4))
                np.testing.assert_array_equal(got[4:], want / np.linalg.norm(want))

    def test_one_start_per_element(self):
        h, profile = correlated_instance(3)
        forms = build_forms(h, profile, [10.0, 1e3, 1e5], [False, True, False])
        starts = init_precoder(forms)
        assert starts.shape == (3, forms.dim)
        np.testing.assert_array_equal(starts[0], starts[2])
        [rsma] = init_precoder(build_forms(h, profile, 1.0))
        np.testing.assert_array_equal(starts[1], rsma)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        profile = random_profile(rng, 4, 2)
        f = random_channel(rng, 4, 3)
        back = extract_precoder(stack_precoder(f, profile), profile)
        np.testing.assert_allclose(back, f, rtol=1e-12)

    def test_power_consistency(self):
        rng = np.random.default_rng(14)
        profile = random_profile(rng, 3, 2)
        w = random_unit_stack(rng, 9)
        f = extract_precoder(w, profile)
        assert check_power(f, profile) == pytest.approx(1.0, abs=1e-10)


def sdma_solve(h, profile, power, opts):
    """Q-GPI-SEM: the power iteration without the common stream."""
    forms = build_forms(h, profile, power, include_common=False)
    [result] = gpi_solve(forms, opts, init_precoder(forms))
    return result


class TestGpiSemSolve:
    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(15)
        h = random_channel(rng, 4, 1)
        profile = ideal_profile(4, 1)
        result = sdma_solve(h, profile, 10.0 ** 4.0, SolverOptions())
        assert vector_angle(result.precoder[:, 1], h[:, 0]) < 1e-3

    def test_common_column_zero(self):
        h, profile = correlated_instance(5)
        result = sdma_solve(h, profile, 100.0, SolverOptions())
        np.testing.assert_array_equal(result.precoder[:, 0], np.zeros(4))
        # the private blocks alone carry the whole unit-norm iterate
        w = stack_precoder(result.precoder, build_forms(h, profile, 100.0, include_common=False))
        np.testing.assert_array_equal(w[:4], np.zeros(4))
        assert np.linalg.norm(w[4:]) == pytest.approx(1.0, abs=1e-12)

    def test_objective_ignores_tau(self):
        h, profile = correlated_instance(6)
        forms = build_forms(h, profile, 100.0, include_common=False)
        w = random_unit_stack(np.random.default_rng(16), forms.dim)
        assert objective(forms, w, 0.01) == objective(forms, w, 10.0)

    def test_rsma_at_least_as_good_on_average(self):
        # paired Monte Carlo: with a common stream available the solver
        # should not lose sum spectral efficiency on average
        gains = []
        opts = SolverOptions(tau=1.0)
        power = 10.0 ** 4.0
        for seed in range(100):
            h, profile = correlated_instance(seed)
            forms = build_forms(h, profile, power)
            [rs_result] = gpi_solve(forms, opts, init_precoder(forms))
            sem_result = sdma_solve(h, profile, power, opts)
            se_rs = rate_report(h, rs_result.precoder, profile, power).sum_se
            se_sem = rate_report(h, sem_result.precoder, profile, power).sum_se
            gains.append(se_rs - se_sem)
        assert np.mean(gains) >= 0.0


class TestNepResidual:
    def test_small_at_convergence(self):
        h, profile = correlated_instance(7)
        forms = build_forms(h, profile, 10.0 ** 2.5)
        opts = SolverOptions(tau=0.3, epsilon=1e-4, t_max=2000)
        [result] = gpi_solve(forms, opts, init_precoder(forms))
        assert result.converged
        assert result.residual <= opts.epsilon

    def test_large_away_from_stationarity(self):
        h, profile = correlated_instance(8)
        forms = build_forms(h, profile, 100.0)
        w = random_unit_stack(np.random.default_rng(17), forms.dim)
        assert nep_residual(forms, w, 0.3) > 1e-3

    def test_scale_free(self):
        h, profile = correlated_instance(8)
        forms = build_forms(h, profile, 100.0)
        w = random_unit_stack(np.random.default_rng(18), forms.dim)
        assert nep_residual(forms, 3.7 * w, 0.3) == pytest.approx(
            nep_residual(forms, w, 0.3), rel=1e-12
        )

    @pytest.mark.parametrize("include_common", [True, False])
    def test_matches_solve_residual(self, include_common):
        for seed in range(3):
            h, profile = correlated_instance(seed)
            forms = build_forms(h, profile, 10.0 ** 3.0, include_common)
            [result] = gpi_solve(forms, SolverOptions(tau=1.0), init_precoder(forms))
            assert nep_residual(forms, stack_precoder(result.precoder, forms), 1.0) == pytest.approx(
                result.residual, rel=1e-9
            )
