"""Exact SINRs and spectral efficiencies for the common and private streams.

The transmitter sends one common stream (precoder column 0), decoded by
every user with all private streams treated as noise, plus K private
streams decoded after the common stream is cancelled. Quantization
distortion from both converter stages stays in the interference budget
of both stream types because cancellation removes only the quantized
common signal, not its distortion.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class RateReport:
    """Per-user SINRs/rates and the sum spectral efficiency; a precoder stack adds a batch axis."""

    common_sinrs: np.ndarray      # (..., K)
    private_sinrs: np.ndarray     # (..., K) after the common stream is cancelled
    common_rates: np.ndarray      # (..., K) bits/s/Hz supportable by each user
    common_rate: np.ndarray       # (...,) min over users (exact, no smoothing)
    private_rates: np.ndarray     # (..., K) bits/s/Hz
    sum_se: np.ndarray            # (...,) common_rate + sum(private_rates)


def quadratic_terms(vectors, diag_weights, streams, noise):
    """Beam gains and total received power of every user over every stream.

    Returns (beam, totals) where ``beam[k, i] = |v_k^H s_i|^2`` and
    ``totals[k] = sum_i beam[k, i] + sum_i s_i^H diag(d_k) s_i + noise``,
    with ``v_k = vectors[k]``, ``d_k = diag_weights[k]`` and
    ``s_i = streams[i]``. Every stream rate is a ratio of two such sums.
    Leading batch axes of ``streams`` carry over; ``noise`` broadcasts.
    """
    beam = np.abs(vectors.conj() @ np.swapaxes(streams, -1, -2)) ** 2          # (..., K, S)
    distort = diag_weights @ np.swapaxes(np.abs(streams) ** 2, -1, -2)        # (..., K, S)
    return beam, beam.sum(axis=-1) + distort.sum(axis=-1) + noise


def interference(beam, totals, adc_alpha):
    """Interference-plus-noise of each stream under SIC, from quadratic_terms' outputs.

    The common stream (column 0) decodes against the total minus its own
    quantized signal; user k's private stream (column k + 1) also has the
    cancelled common signal removed. Returns (common, private), each (..., K).
    """
    common = totals - adc_alpha * beam[..., 0]
    return common, common - adc_alpha * beam.diagonal(1, -2, -1)


def rate_report(channel, f_matrix, profile, snr):
    """Evaluate all stream rates for a precoder or a (B, N, K+1) stack of them.

    User k sees stream i with gain ``|h_k^H Phi_a f_i|^2`` and DAC
    distortion ``f_i^H Phi_a Phi_b diag(|h_k|^2) f_i``; the noise term is
    ``1 / snr`` whatever power F actually uses. The common rate is the
    exact minimum over users of the rates at which each could decode the
    common stream; the sum spectral efficiency adds the K private rates.
    A stack takes one ``snr`` for all its precoders or one per precoder,
    and each precoder scores exactly as it does in a call of its own;
    a single precoder's common_rate and sum_se are numpy floats.
    """
    channel = profile.check_channel(channel)
    f_matrix = np.asarray(f_matrix, dtype=complex)
    n_antennas, n_users = channel.shape
    if f_matrix.ndim not in (2, 3) or f_matrix.shape[-2:] != (n_antennas, n_users + 1):
        raise DimensionMismatch(
            f"precoder shape {f_matrix.shape}, expected {(n_antennas, n_users + 1)}"
        )
    noise = 1.0 / np.asarray(snr, dtype=float)
    if noise.ndim != 0 and noise.shape != f_matrix.shape[:-2]:
        raise DimensionMismatch(f"{noise.size} SNRs for precoders of shape {f_matrix.shape}")

    beam, totals = quadratic_terms(
        channel.T * profile.dac_alpha,
        profile.dac_alpha * profile.dac_beta * np.abs(channel.T) ** 2,
        np.swapaxes(f_matrix, -1, -2),
        noise[..., None],
    )
    alpha = profile.adc_alpha
    common, private = interference(beam, totals, alpha)
    common_sinrs = alpha * beam[..., 0] / common
    private_sinrs = alpha * beam.diagonal(1, -2, -1) / private
    common_rates = np.log2(1.0 + common_sinrs)
    private_rates = np.log2(1.0 + private_sinrs)
    common_rate = common_rates.min(axis=-1)
    return RateReport(
        common_sinrs=common_sinrs,
        private_sinrs=private_sinrs,
        common_rates=common_rates,
        common_rate=common_rate,
        private_rates=private_rates,
        sum_se=common_rate + private_rates.sum(axis=-1),
    )


def check_power(f_matrix, profile):
    """Transmit power used by a precoder, normalized to the power budget.

    Equals ``tr(Phi_a F F^H)``; the DAC distortion returns the power it
    removes from the signal path, so the full constraint collapses to
    this weighted trace being at most 1.
    """
    f_matrix = np.asarray(f_matrix, dtype=complex)
    if f_matrix.ndim != 2 or f_matrix.shape[0] != profile.n_antennas:
        raise DimensionMismatch(f"precoder shape {f_matrix.shape}, need {profile.n_antennas} rows")
    row_power = np.sum(np.abs(f_matrix) ** 2, axis=1)
    return float(profile.dac_alpha @ row_power)


def softmin_weights(values, tau):
    """Weights ``exp(-x_k/tau) / sum_l exp(-x_l/tau)``, min-shifted.

    These are the gradient weights of the smoothed minimum
    ``-tau * ln(sum_i exp(-x_i / tau))``; the smallest entry dominates as
    tau -> 0. Normalized along the last axis.
    """
    values = np.asarray(values, dtype=float)
    shifted = np.exp(-(values - values.min(axis=-1, keepdims=True)) / tau)
    return shifted / shifted.sum(axis=-1, keepdims=True)
