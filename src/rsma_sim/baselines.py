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
    """Quantization-aware MRT/ZF/RZF precoders on the effective channel at B SNR points.

    Each is an (N, K+1) precoder with a zero common column, per-stream
    directions normalized to equal power, and the total scaled so the
    reduced power constraint holds with equality. The RZF loading is
    ``K / snr``, with ``snr`` the linear transmit power over the noise power.
    ``snr`` is a sequence of B values, for which the result lists each
    point's precoder or, where that point fails, its error; or a scalar,
    for which the precoder is returned or its error raised. MRT and ZF do
    not depend on the SNR: their list repeats one precoder (or one error).
    """
    if kind not in BASELINE_KINDS:
        raise DimensionMismatch(f"kind must be one of {BASELINE_KINDS}, got {kind!r}")
    channel = profile.check_channel(channel)
    h_eff = profile.dac_alpha[:, None] * channel * profile.adc_alpha
    n_users = profile.n_users
    snrs = np.asarray(snr, dtype=float).reshape(-1)

    # errors holds one entry per distinct point, directions the (N, K) stack of those solved;
    # MRT's C-order copy fixes the column norms' summation order whatever the channel's layout
    if kind == "QMRT":
        errors, directions = [None], h_eff[None].copy()
    else:
        gram = (h_eff.conj().T @ h_eff)[None]
        if kind == "QRZF":
            gram = gram + (n_users / snrs)[:, None, None] * np.eye(n_users)
        eigvals = np.linalg.eigvalsh(gram)
        singular = (eigvals[:, -1] <= 0) | (eigvals[:, 0] <= _GRAM_RTOL * eigvals[:, -1])
        errors = [RankDeficient(f"effective channel Gram matrix is singular (kind={kind})")
                  if bad else None for bad in singular]
        directions = np.linalg.solve(gram[~singular], h_eff.conj().T).conj().swapaxes(-1, -2)

    # scaling each column by its peak first keeps the norm from underflowing
    # when a huge RZF loading leaves entries near the smallest float
    peaks = np.abs(directions).max(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # a vanished column fails below
        directions = directions / peaks
        directions = directions / np.linalg.norm(directions, axis=-2, keepdims=True)
    zeros = np.zeros(directions.shape[:-1] + (1,), dtype=complex)
    solved = zip(np.concatenate([zeros, directions / np.sqrt(n_users)], axis=-1),
                 (peaks == 0).any(axis=(-2, -1)))
    points = []
    for error in errors:
        if error is None:
            f_matrix, vanished = next(solved)
            error = ZeroPrecoder("an effective channel column vanishes") if vanished else None
        points.append(error or normalize_power(f_matrix, profile))
    if np.ndim(snr) == 0:
        if isinstance(points[0], Exception):
            raise points[0]
        return points[0]
    return points * len(snrs) if kind != "QRZF" else points
