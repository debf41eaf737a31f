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
    """Per-user SINRs/rates and the resulting sum spectral efficiency."""

    common_sinrs: np.ndarray      # (K,)
    private_sinrs: np.ndarray     # (K,) after the common stream is cancelled
    common_rates: np.ndarray      # (K,) bits/s/Hz supportable by each user
    common_rate: float            # min over users (exact, no smoothing)
    private_rates: np.ndarray     # (K,) bits/s/Hz
    sum_se: float                 # common_rate + sum(private_rates)


def quadratic_terms(vectors, diag_weights, streams, noise):
    """Beam gains and total received power of every user over every stream.

    Returns (beam, totals) where ``beam[k, i] = |v_k^H s_i|^2`` and
    ``totals[k] = sum_i beam[k, i] + sum_i s_i^H diag(d_k) s_i + noise``,
    with ``v_k = vectors[k]``, ``d_k = diag_weights[k]`` and
    ``s_i = streams[i]``. Every stream rate is a ratio of two such sums.
    """
    beam = np.abs(vectors.conj() @ streams.T) ** 2                  # (K, S)
    distort = diag_weights @ (np.abs(streams) ** 2).T               # (K, S)
    return beam, beam.sum(axis=1) + distort.sum(axis=1) + noise


def rate_report(channel, f_matrix, profile, snr):
    """Evaluate all stream rates for a precoder.

    User k sees stream i with gain ``|h_k^H Phi_a f_i|^2`` and DAC
    distortion ``f_i^H Phi_a Phi_b diag(|h_k|^2) f_i``; the noise term is
    ``1 / snr`` whatever power F actually uses. The common rate is the
    exact minimum over users of the rates at which each could decode the
    common stream; the sum spectral efficiency adds the K private rates.
    """
    channel = np.asarray(channel, dtype=complex)
    f_matrix = np.asarray(f_matrix, dtype=complex)
    n_antennas, n_users = profile.n_antennas, profile.n_users
    if channel.shape != (n_antennas, n_users):
        raise DimensionMismatch(f"channel shape {channel.shape}, expected {(n_antennas, n_users)}")
    if f_matrix.shape != (n_antennas, n_users + 1):
        raise DimensionMismatch(
            f"precoder shape {f_matrix.shape}, expected {(n_antennas, n_users + 1)}"
        )

    beam, totals = quadratic_terms(
        channel.T * profile.dac_alpha,
        profile.dac_alpha * profile.dac_beta * np.abs(channel.T) ** 2,
        f_matrix.T,
        1.0 / snr,
    )
    alpha = profile.adc_alpha
    users = np.arange(n_users)
    common = alpha * beam[:, 0]
    private = alpha * beam[users, users + 1]
    common_sinrs = common / (totals - common)
    private_sinrs = private / (totals - alpha * (beam[:, 0] + beam[users, users + 1]))
    common_rates = np.log2(1.0 + common_sinrs)
    private_rates = np.log2(1.0 + private_sinrs)
    common_rate = float(common_rates.min())
    return RateReport(
        common_sinrs=common_sinrs,
        private_sinrs=private_sinrs,
        common_rates=common_rates,
        common_rate=common_rate,
        private_rates=private_rates,
        sum_se=common_rate + float(private_rates.sum()),
    )


def check_power(f_matrix, profile):
    """Transmit power used by a precoder, normalized to the power budget.

    Equals ``tr(Phi_a F F^H)``; the DAC distortion returns the power it
    removes from the signal path, so the full constraint collapses to
    this weighted trace being at most 1.
    """
    f_matrix = np.asarray(f_matrix, dtype=complex)
    if f_matrix.shape[0] != profile.n_antennas:
        raise DimensionMismatch("precoder rows must match the antenna count")
    row_power = np.sum(np.abs(f_matrix) ** 2, axis=1)
    return float(profile.dac_alpha @ row_power)


def lse_min(values, tau):
    """Smoothed minimum ``-tau * ln(sum_i exp(-x_i / tau))``.

    Lies in [min - tau*ln(len(values)), min] and tightens as tau -> 0.
    Computed in min-shifted form so small tau cannot underflow.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DimensionMismatch("lse_min needs a nonempty list")
    if not tau > 0:
        raise DimensionMismatch(f"tau must be positive, got {tau}")
    low = values.min()
    return float(low - tau * np.log(np.sum(np.exp(-(values - low) / tau))))


def softmin_weights(values, tau):
    """Weights ``exp(-x_k/tau) / sum_l exp(-x_l/tau)``, min-shifted.

    These are the gradient weights of :func:`lse_min`; the smallest entry
    dominates as tau -> 0.
    """
    values = np.asarray(values, dtype=float)
    shifted = np.exp(-(values - values.min()) / tau)
    return shifted / shifted.sum()
