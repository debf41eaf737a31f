"""Closed-form quantization-aware linear precoders (SDMA only).

All three act on the effective channel (the true channel scaled by the
converter gains): matched filtering, zero forcing, and regularized zero
forcing with the usual noise-over-power loading. Streams get equal power
and the whole precoder is scaled to use the full reduced power budget.
"""

import numpy as np

from .errors import DimensionMismatch, RankDeficient, ZeroPrecoder
from .rates import check_power

BASELINE_KINDS = ("QMRT", "QZF", "QRZF")
_GRAM_RTOL = 1e-12


def normalize_power(f_matrix, profile):
    """Scale a precoder so it uses the power budget with equality."""
    used = check_power(f_matrix, profile)
    if used == 0.0:
        raise ZeroPrecoder("precoder carries no power")
    return np.asarray(f_matrix, dtype=complex) / np.sqrt(used)


def baseline_precoder(kind, channel, profile, snr):
    """Quantization-aware MRT/ZF/RZF precoder on the effective channel.

    Returns an (N, K+1) precoder with a zero common column, per-stream
    directions normalized to equal power, and the total scaled so the
    reduced power constraint holds with equality. The RZF loading is
    ``K / snr``, with ``snr`` the linear transmit power over the noise power.
    """
    if kind not in BASELINE_KINDS:
        raise DimensionMismatch(f"kind must be one of {BASELINE_KINDS}, got {kind!r}")
    channel = profile.check_channel(channel)
    h_eff = profile.dac_alpha[:, None] * channel * profile.adc_alpha
    n_users = profile.n_users

    if kind == "QMRT":
        directions = h_eff.copy()
    else:
        gram = h_eff.conj().T @ h_eff
        if kind == "QRZF":
            gram = gram + (n_users / snr) * np.eye(n_users)
        eigvals = np.linalg.eigvalsh(gram)
        if eigvals[-1] <= 0 or eigvals[0] <= _GRAM_RTOL * eigvals[-1]:
            raise RankDeficient(
                f"effective channel Gram matrix is singular (kind={kind})"
            )
        directions = np.linalg.solve(gram, h_eff.conj().T).conj().T

    # scaling each column by its peak first keeps the norm from underflowing
    # when a huge RZF loading leaves entries near the smallest float
    peaks = np.abs(directions).max(axis=0)
    if np.any(peaks == 0):
        raise ZeroPrecoder("an effective channel column vanishes")
    directions = directions / peaks
    directions = directions / np.linalg.norm(directions, axis=0)

    f_matrix = np.hstack(
        [np.zeros((channel.shape[0], 1), dtype=complex), directions / np.sqrt(n_users)]
    )
    return normalize_power(f_matrix, profile)
