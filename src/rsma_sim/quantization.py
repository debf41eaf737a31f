"""Additive quantization noise model for low-resolution DACs and ADCs.

A b-bit converter is linearized as ``output = alpha * input + q`` with
``q`` uncorrelated Gaussian distortion. ``beta = 1 - alpha`` is the
normalized mean-squared error of the optimal scalar quantizer for a
unit-variance Gaussian input. Infinite resolution (``math.inf`` bits)
means a distortion-free converter and shares the same code path.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ValidationError, shown

# Distortion of the minimum-MSE scalar quantizer of a unit-variance Gaussian,
# 1 through 5 bits. Above 5 bits the closed-form high-resolution
# approximation (pi*sqrt(3)/2) * 2^(-2b) takes over.
BETA_TABLE = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}


def beta_of_bits(bits):
    """Normalized quantization distortion for a b-bit converter.

    Tabulated for 1..5 bits, closed-form ``(pi*sqrt(3)/2) * 4^-b`` above,
    exactly zero for infinite resolution. Any positive int is accepted;
    the closed form underflows to zero for very large ones.
    """
    if bits == math.inf:
        return 0.0
    if not isinstance(bits, (int, np.integer)) or isinstance(bits, bool):
        raise ValidationError(f"resolution must be a positive integer or inf, got {shown(bits)}")
    if bits <= 0:
        raise ValidationError(f"resolution must be positive, got {shown(bits)}")
    if bits <= 5:
        return BETA_TABLE[int(bits)]
    return math.ldexp(math.pi * math.sqrt(3.0) / 2.0, -2 * int(bits))


@dataclass(frozen=True)
class QuantizerProfile:
    """Per-antenna DAC and per-user ADC resolutions with derived gains.

    Built from the two resolution lists (ints or ``math.inf``); the gains
    are derived from them and take no part in equality.
    """

    dac_bits: tuple
    adc_bits: tuple
    dac_alpha: np.ndarray = field(init=False, repr=False, compare=False)
    dac_beta: np.ndarray = field(init=False, repr=False, compare=False)
    adc_alpha: np.ndarray = field(init=False, repr=False, compare=False)
    adc_beta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for bank in ("dac", "adc"):
            bits = tuple(getattr(self, f"{bank}_bits"))
            alpha = np.array([1.0 - beta_of_bits(b) for b in bits], dtype=float)
            object.__setattr__(self, f"{bank}_bits", bits)
            object.__setattr__(self, f"{bank}_alpha", alpha)
            # so alpha + beta == 1 exactly: 1 - alpha is exact because alpha lies in [0.5, 1]
            object.__setattr__(self, f"{bank}_beta", 1.0 - alpha)

    @property
    def n_antennas(self):
        return len(self.dac_bits)

    @property
    def n_users(self):
        return len(self.adc_bits)

    def check_channel(self, channel):
        """The channel as a complex (N, K) array, nonempty and finite; else DimensionMismatch."""
        channel = np.asarray(channel, dtype=complex)
        if channel.shape != (self.n_antennas, self.n_users):
            raise DimensionMismatch(
                f"channel shape {channel.shape}, expected {(self.n_antennas, self.n_users)}"
            )
        if channel.size == 0 or not np.isfinite(channel).all():
            raise DimensionMismatch(f"channel {channel.shape} must be nonempty and finite")
        return channel
