"""Closed-form quantization-aware linear precoders (SDMA only).

All three act on the effective channel (the true channel scaled by the
converter gains): matched filtering, zero forcing, and regularized zero
forcing with the usual noise-over-power loading. Streams get equal power
and the whole precoder is scaled to use the full reduced power budget.
"""

import numpy as np

from .errors import DimensionMismatch, RankDeficient, ZeroPrecoder, shown
from .rates import check_power

BASELINE_KINDS = ("QMRT", "QZF", "QRZF")
_GRAM_RTOL = 1e-12


def baseline_precoder(kind, channel, profile, snr):
    """Quantization-aware MRT/ZF/RZF precoders on the effective channel at B SNR points.

    Each is an (N, K+1) precoder with a zero common column, per-stream
    directions normalized to equal power, and the total scaled so the
    reduced power constraint holds with equality. The RZF loading is
    ``K / snr``, with ``snr`` the linear transmit power over the noise power:
    B values, or a scalar as a batch of one. The list holds B entries, each
    point's precoder or its own RankDeficient or ZeroPrecoder; only an unknown
    kind or a bad channel raises. MRT and ZF do not depend on the SNR: their
    list repeats one precoder (or one error).
    """
    if kind not in BASELINE_KINDS:
        raise DimensionMismatch(f"kind must be one of {BASELINE_KINDS}, got {shown(kind)}")
    channel = profile.check_channel(channel)
    h_eff = profile.dac_alpha[:, None] * channel * profile.adc_alpha
    n_users = profile.n_users
    snrs = np.asarray(snr, dtype=float).reshape(-1)

    # MRT's C-order copy fixes the column norms' summation order whatever the channel's layout
    if kind == "QMRT":
        singular, directions = [False], h_eff[None].copy()
    else:
        gram = (h_eff.conj().T @ h_eff)[None]
        if kind == "QRZF":
            gram = gram + (n_users / snrs)[:, None, None] * np.eye(n_users)
        eigvals = np.linalg.eigvalsh(gram)
        singular = (eigvals[:, -1] <= 0) | (eigvals[:, 0] <= _GRAM_RTOL * eigvals[:, -1])
        gram[singular] = np.eye(n_users)  # so one solve serves every point; its result is dropped
        directions = np.linalg.solve(gram, h_eff.conj().T).conj().swapaxes(-1, -2)

    # scaling each column by its peak first keeps the norm from underflowing
    # when a huge RZF loading leaves entries near the smallest float
    peaks = np.abs(directions).max(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # a vanished column fails below
        directions = directions / peaks
        directions = directions / np.linalg.norm(directions, axis=-2, keepdims=True)
    zeros = np.zeros(directions.shape[:-1] + (1,), dtype=complex)
    stack = np.concatenate([zeros, directions / np.sqrt(n_users)], axis=-1)
    vanished = (peaks == 0).any(axis=(-2, -1))
    points = [
        RankDeficient(f"effective channel Gram matrix is singular (kind={kind})") if bad
        else ZeroPrecoder("an effective channel column vanishes") if gone
        else f_matrix / np.sqrt(check_power(f_matrix, profile))
        for bad, gone, f_matrix in zip(singular, vanished, stack)
    ]
    return points * len(snrs) if kind != "QRZF" else points
