"""Acceptance suite: formula equivalences, solver guarantees, and
desk-scale reproduction of the qualitative experimental findings.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output).
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rsma_sim import (
    QuantizerProfile,
    SolverOptions,
    build_forms,
    check_power,
    gpi_solve,
    init_precoder,
    load_spec,
    rate_report,
    run_experiment,
    summarize,
    trial_rng,
)
from rsma_sim.channel import draw_aods
from rsma_sim.gpi import kkt_matrices
from oracles import (
    adc_noise_variance,
    dac_noise_covariance,
    dense_one_ring,
    direct_sinr_common,
    direct_sinr_private,
    element_quadratics,
    extract_precoder,
    frozen_power_iteration,
    ideal_profile,
    kl_factorize,
    kl_sample_channel,
    long_form_power,
    lse_min,
    objective,
    principal_gap,
    principal_gep_oracle,
    random_channel,
    random_precoder,
    random_profile,
    scalar_iteration,
    seeded_rng,
    stack_precoder,
    to_dense,
    vector_angle,
)

CRITERION_9_CONFIG = Path(__file__).resolve().parent / "golden" / "criterion_9.json"
FIG2_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fig2_sweep.json"
# A converged GPI point's principal-eigenvector gap is at most this many epsilons. Over
# ten fig2 seeds (70-79, 14,000 points) every gap but one is at most 6.9 epsilons; the
# one above, 13.8, is an early stop of ROADMAP item 1 at seed 73.
CERTIFICATE_EPSILONS = 10
# criterion 9's QGPIRS solves stop early, ROADMAP item 1
EARLY_STOP = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def sample_instance(rng, max_n=6, max_k=4):
    n = int(rng.integers(1, max_n + 1))
    k_users = int(rng.integers(1, max_k + 1))
    profile = random_profile(rng, n, k_users)
    h = random_channel(rng, n, k_users)
    power = 10.0 ** rng.uniform(-1.0, 4.0)
    return n, k_users, profile, h, power


def test_criterion_1_formula_equivalence():
    with criterion(1, "reorganized SINRs and reduced power match long forms (1e-10)"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n, k_users, profile, h, power = sample_instance(rng)
            f = random_precoder(rng, profile, n, k_users)
            report = rate_report(h, f, profile, power)
            for k in range(k_users):
                got_c = report.common_sinrs[k]
                want_c = direct_sinr_common(k, h, f, profile, power, 1.0)
                assert abs(got_c - want_c) <= 1e-10 * max(abs(want_c), 1e-30)
                got_p = report.private_sinrs[k]
                want_p = direct_sinr_private(k, h, f, profile, power, 1.0)
                assert abs(got_p - want_p) <= 1e-10 * max(abs(want_p), 1e-30)
            reduced = check_power(f, profile)
            long = long_form_power(f, profile, power)
            assert abs(reduced - long) <= 1e-10 * abs(long)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_rayleigh_form_correctness():
    with criterion(2, "quadratic-form ratios equal 1+SINR for both streams (1e-9)"):
        started = time.perf_counter()
        rng = np.random.default_rng(2025)
        for _ in range(200):
            n, k_users, profile, h, power = sample_instance(rng)
            forms = build_forms(h, profile, power)
            w = rng.standard_normal(forms.dim) + 1j * rng.standard_normal(forms.dim)
            w = w / np.linalg.norm(w)
            f = extract_precoder(w, profile)
            a_c, b_c, a_p, b_p = element_quadratics(forms, w)
            report = rate_report(h, f, profile, power)
            for k in range(k_users):
                want = 1.0 + report.common_sinrs[k]
                assert abs(a_c[k] / b_c[k] - want) <= 1e-9 * want
                want = 1.0 + report.private_sinrs[k]
                assert abs(a_p[k] / b_p[k] - want) <= 1e-9 * want
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_gradient_check():
    with criterion(3, "pencil direction matches finite-difference gradient (1e-4)"):
        started = time.perf_counter()
        rng = np.random.default_rng(2026)
        tau = 0.5
        for _ in range(50):
            n = int(rng.integers(2, 5))
            k_users = int(rng.integers(1, 4))
            profile = random_profile(rng, n, k_users)
            h = random_channel(rng, n, k_users)
            power = 10.0 ** rng.uniform(0.0, 3.0)
            forms = build_forms(h, profile, power)
            w = rng.standard_normal(forms.dim) + 1j * rng.standard_normal(forms.dim)
            w = w / np.linalg.norm(w)
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
                    [delta] = objective(forms, w + bump, tau) - objective(forms, w - bump, tau)
                    grad[i] += unit * delta / (2 * step)
            deviation = np.linalg.norm(
                grad / np.linalg.norm(grad) - direction / np.linalg.norm(direction)
            )
            assert deviation <= 1e-4
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_4_nep_fixed_point():
    with criterion(4, "converged solves have residual <= epsilon; frozen pencil hits oracle"):
        started = time.perf_counter()
        rng = np.random.default_rng(2027)
        opts = SolverOptions(tau=1.0, epsilon=0.01, t_max=500)
        converged_count = 0
        for _ in range(30):
            n = int(rng.integers(2, 7))
            k_users = int(rng.integers(1, 5))
            profile = random_profile(rng, n, k_users)
            h = random_channel(rng, n, k_users)
            power = 10.0 ** rng.uniform(0.0, 4.0)
            forms = build_forms(h, profile, power)
            [result] = gpi_solve(forms, opts, init_precoder(forms))
            if result.converged:
                converged_count += 1
                assert result.residual <= opts.epsilon, f"residual {result.residual}"
        assert converged_count >= 25  # ensure the check actually exercised solves

        # frozen pencil: plain generalized power iteration vs dense oracle
        h = random_channel(rng, 4, 2)
        profile = QuantizerProfile([4] * 4, [6] * 2)
        forms = build_forms(h, profile, 100.0)
        w = rng.standard_normal(forms.dim) + 1j * rng.standard_normal(forms.dim)
        w = w / np.linalg.norm(w)
        pencil_a, pencil_b = kkt_matrices(forms, w, 1.0)
        v = rng.standard_normal(forms.dim) + 1j * rng.standard_normal(forms.dim)
        v = frozen_power_iteration(pencil_a, pencil_b, v / np.linalg.norm(v), 1e-15, 50_000)
        _, oracle_vec = principal_gep_oracle(to_dense(pencil_a), to_dense(pencil_b))
        assert vector_angle(v, oracle_vec) <= 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_5_lse_sandwich():
    with criterion(5, "smoothed min within [min - tau*ln(K), min] on 1e4 inputs"):
        started = time.perf_counter()
        rng = np.random.default_rng(2028)
        for _ in range(10_000):
            count = int(rng.integers(1, 9))
            scale = 10.0 ** rng.uniform(0, 3)  # spans a 1e3 dynamic range
            values = rng.uniform(-scale, scale, size=count)
            tau = 10.0 ** rng.uniform(-2, 1)
            smoothed = lse_min(values, tau)
            low = values.min()
            assert smoothed <= low + 1e-9
            assert smoothed >= low - tau * math.log(count) - 1e-9
        # tight for well-separated inputs at small tau
        assert lse_min([0.0, 10.0, 25.0], 0.01) == pytest.approx(0.0, abs=1e-12)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def _reference_unquantized_gpi_rs(h, power, options):
    """Dense, quantization-free rate-splitting power iteration.

    Its matrices and softmin weights share no package code, and it steps
    through the tests' one GPI loop, ``scalar_iteration``; used to show the
    general solver collapses to it when every converter has infinite
    resolution. Returns ``(w, iterations, residual)``.
    """
    n, k_users = h.shape
    dim = n * (k_users + 1)

    mats_a_c, mats_b_c, mats_a_p, mats_b_p = [], [], [], []
    for k in range(k_users):
        gain = np.outer(h[:, k], h[:, k].conj())
        full = np.zeros((dim, dim), dtype=complex)
        for j in range(k_users + 1):
            full[j * n : (j + 1) * n, j * n : (j + 1) * n] = gain
        a_c = full + np.eye(dim) / power
        b_c = a_c.copy()
        b_c[:n, :n] -= gain
        a_p = b_c
        b_p = a_p.copy()
        s = (k + 1) * n
        b_p[s : s + n, s : s + n] -= gain
        mats_a_c.append(a_c)
        mats_b_c.append(b_c)
        mats_a_p.append(a_p)
        mats_b_p.append(b_p)

    def image(vec):
        qa_c, qb_c, qa_p, qb_p = (np.array([np.vdot(vec, m @ vec).real for m in mats])
                                  for mats in (mats_a_c, mats_b_c, mats_a_p, mats_b_p))
        common = np.log2(qa_c / qb_c)
        shifted = np.exp(-(common - common.min()) / options.tau)
        mu = shifted / shifted.sum()
        big_a = sum(
            mu[k] * mats_a_c[k] / qa_c[k] + mats_a_p[k] / qa_p[k]
            for k in range(k_users)
        )
        big_b = sum(
            mu[k] * mats_b_c[k] / qb_c[k] + mats_b_p[k] / qb_p[k]
            for k in range(k_users)
        )
        return np.linalg.solve(big_b, big_a @ vec)

    f0 = np.hstack([h.mean(axis=1, keepdims=True), h])
    w = f0.T.reshape(-1)
    return scalar_iteration(image, options, w / np.linalg.norm(w))


def test_criterion_6_degeneration():
    with criterion(6, "infinite resolution: zero quantization noise, unquantized solver"):
        started = time.perf_counter()
        n, k_users = 4, 2
        profile = ideal_profile(n, k_users)
        rng = seeded_rng(606)
        facs = [kl_factorize(dense_one_ring(n, a)) for a in (0.9, 1.2)]
        h = kl_sample_channel(facs, rng)
        f = random_precoder(rng, profile, n, k_users)
        power = 100.0

        # quantization noise is exactly zero, not merely small
        assert np.all(dac_noise_covariance(profile, f, power) == 0.0)
        for k in range(k_users):
            assert adc_noise_variance(profile, k, h, f, power, 1.0) == 0.0

        # the general forms carry no distortion terms at all
        forms = build_forms(h, profile, power)
        assert np.all(forms.distortion_diags == 0.0)
        np.testing.assert_array_equal(forms.weighted_channels, h.T)

        # whole-solver degeneration: same trajectory as the dedicated
        # unquantized implementation, given the same channel draw
        opts = SolverOptions(tau=1.0, epsilon=0.01, t_max=500)
        [result] = gpi_solve(forms, opts, init_precoder(forms))
        ref_w, ref_iters, ref_residual = _reference_unquantized_gpi_rs(h, power, opts)
        assert result.iterations == ref_iters
        assert result.converged == (ref_residual <= opts.epsilon)
        np.testing.assert_allclose(result.residual, ref_residual, rtol=1e-9)
        np.testing.assert_allclose(stack_precoder(result.precoder, forms), ref_w, atol=1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_7_figure2_ordering():
    with criterion(7, "RSMA >= SDMA >= linear baselines - 0.1 at 20/30/40 dB"):
        started = time.perf_counter()
        # the shipped fig2 config at three of its SNRs; per-trial draws do not depend on them
        spec = replace(load_spec(FIG2_CONFIG.read_text()), snr_db=(20.0, 30.0, 40.0))
        rows = summarize(run_experiment(spec))
        means = {(r.snr_db, r.algorithm): r.mean_sum_se for r in rows}
        for snr in (20.0, 30.0, 40.0):
            rsma = means[(snr, "QGPIRS")]
            sdma = means[(snr, "QGPISEM")]
            best_linear = max(means[(snr, a)] for a in ("QMRT", "QZF", "QRZF"))
            assert rsma >= sdma, f"SNR {snr}: {rsma} < {sdma}"
            assert sdma >= best_linear - 0.1, f"SNR {snr}: {sdma} < {best_linear} - 0.1"
        gap = means[(40.0, "QGPIRS")] - means[(40.0, "QGPISEM")]
        assert gap >= 0.1, f"RSMA gain at 40 dB only {gap:.3f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_8_correlation_effect():
    with criterion(8, "RSMA-over-SDMA gain grows as user angles close in"):
        started = time.perf_counter()
        n, k_users = 4, 2
        profile = QuantizerProfile([4] * n, [8] * k_users)
        power = 10.0 ** 5.0
        opts = SolverOptions(tau=1.0, epsilon=0.01, t_max=500)

        def mean_gain(delta, trials=100):
            gains = []
            for t in range(trials):
                rng = trial_rng(808, t)
                center = rng.uniform(0.3, math.pi - 0.3 - delta)
                facs = [
                    kl_factorize(dense_one_ring(n, center)),
                    kl_factorize(dense_one_ring(n, center + delta)),
                ]
                h = kl_sample_channel(facs, rng)
                forms = build_forms(h, profile, power)
                [rs_res] = gpi_solve(forms, opts, init_precoder(forms))
                sem_forms = build_forms(h, profile, power, include_common=False)
                sem_w0 = init_precoder(sem_forms)
                [sem_res] = gpi_solve(sem_forms, opts, sem_w0)
                se_rs = rate_report(h, rs_res.precoder, profile, power).sum_se
                se_sem = rate_report(h, sem_res.precoder, profile, power).sum_se
                gains.append(se_rs - se_sem)
            return float(np.mean(gains))

        close_gain = mean_gain(math.pi / 36)
        far_gain = mean_gain(math.pi / 2)
        assert close_gain > far_gain, f"{close_gain:.3f} <= {far_gain:.3f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_9_mixed_dac_power_concentration():
    with criterion(9, "RSMA converges and parks power on the high-resolution DAC antenna"):
        started = time.perf_counter()
        # three 3-bit DACs and one 8-bit DAC at 50 dB; its summary is a golden file
        spec = load_spec(CRITERION_9_CONFIG.read_text())
        records = run_experiment(spec)
        rsma = [r for r in records if r.algorithm == "QGPIRS"]
        settled = sum(r.converged and r.residual <= spec.solver.epsilon for r in rsma) / len(rsma)
        assert settled >= 0.95, f"only {settled:.2f} of QGPIRS solves converge"
        ratios = {r.algorithm: r.mean_power_ratio for r in summarize(records)}
        rsma_frac = ratios["QGPIRS"][3]   # antenna 4 carries the 8-bit DAC
        sdma_frac = ratios["QGPISEM"][3]
        assert rsma_frac > sdma_frac, f"{rsma_frac:.3f} <= {sdma_frac:.3f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


@EARLY_STOP
@pytest.mark.parametrize("base_seed", [90, 123])
def test_no_qgpirs_point_below_qgpisem(base_seed):
    # the QGPISEM precoder is a feasible RSMA precoder with the common stream off, so a
    # QGPIRS solve that stops far below it at the same (trial, snr) point stopped early
    spec = replace(load_spec(CRITERION_9_CONFIG.read_text()), base_seed=base_seed)
    sum_se = {(r.trial_index, r.snr_db, r.algorithm): r.sum_se for r in run_experiment(spec)}
    gaps = sorted(sum_se[(t, snr, "QGPISEM")] - value
                  for (t, snr, algorithm), value in sum_se.items() if algorithm == "QGPIRS")
    below = [gap for gap in gaps if gap > 0.01]
    assert not below, f"{len(below)} QGPIRS records below QGPISEM, worst by {gaps[-1]:.3f}"


@pytest.mark.parametrize("config, base_seed", [
    (FIG2_CONFIG, 70),
    # one of 1,400 converged points stops early: gap 0.138 at trial 93, 10 dB, QGPIRS
    pytest.param(FIG2_CONFIG, 73, marks=EARLY_STOP),
    pytest.param(CRITERION_9_CONFIG, 90, marks=EARLY_STOP),
    pytest.param(CRITERION_9_CONFIG, 123, marks=EARLY_STOP),
], ids=["fig2-70", "fig2-73", "criterion_9-90", "criterion_9-123"])
def test_criterion_11_principal_eigenvector_certificate(config, base_seed, monkeypatch):
    with criterion(11, "each converged GPI point is its pencil's principal eigenvector"):
        spec = replace(load_spec(config.read_text()), base_seed=base_seed)
        solves = []

        def recorded_solve(forms, options, w0):
            results = gpi_solve(forms, options, w0)
            solves.append((forms, results))
            return results

        # the sweep's own solves, each element certified at the point it returned
        monkeypatch.setattr("rsma_sim.harness.gpi_solve", recorded_solve)
        run_experiment(spec)
        gaps = []
        for forms, results in solves:
            kept = [b for b, result in enumerate(results)
                    if not isinstance(result, Exception) and result.converged]
            if kept:
                gaps += list(principal_gap(
                    replace(forms, noise_over_power=forms.noise_over_power[kept],
                            include_common=forms.include_common[kept]),
                    [results[b] for b in kept], spec.solver.tau))
        bound = CERTIFICATE_EPSILONS * spec.solver.epsilon
        above = [gap for gap in gaps if gap > bound]
        assert gaps and not above, (f"{len(above)} of {len(gaps)} gaps above {bound}, "
                                    f"worst {max(gaps):.3f}")


def test_criterion_10_performance_envelope():
    with criterion(10, "N=8, K=4 solve completes 500 iterations under 1 s"):
        n, k_users = 8, 4
        rng = trial_rng(1010, 0)
        aods = draw_aods(rng, k_users, "correlated_aod")
        facs = [kl_factorize(dense_one_ring(n, float(a))) for a in aods]
        h = kl_sample_channel(facs, rng)
        profile = QuantizerProfile([3, 3, 3, 3, 10, 10, 10, 10], [10] * k_users)
        power = 10.0 ** 4.0
        forms = build_forms(h, profile, power)
        w0 = init_precoder(forms)
        # an epsilon below attainable step sizes forces the full iteration budget
        opts = SolverOptions(tau=1.0, epsilon=1e-300, t_max=500)
        started = time.perf_counter()
        [result] = gpi_solve(forms, opts, w0)
        elapsed = time.perf_counter() - started
        assert result.iterations == 500
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
