"""Sum-spectral-efficiency precoder optimization by generalized power iteration.

Both stream rates are Rayleigh quotients of a stacked, gain-weighted
precoding vector, so the smoothed objective's first-order optimality
condition is a nonlinear eigenvalue problem: a block-diagonal pencil whose
matrices depend on the current iterate. The solver repeatedly applies the
inverse-denominator/numerator update of a generalized power iteration,
renormalizing each step, until the iterate settles.

The quantization-aware SDMA variant runs the same machinery without the
common stream (``include_common=False``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidProfile,
    ValidationError,
    ZeroChannel,
    ZeroPrecoder,
)
from .linalg import BlockDiag, blockdiag_solve, canonical_phase
from .rates import lse_min, quadratic_terms, softmin_weights


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls for the power-iteration solvers.

    tau is the smoothing temperature of the common-rate minimum (bits);
    epsilon the iterate-difference convergence threshold; t_max the
    iteration cap.
    """

    tau: float = 0.3
    epsilon: float = 0.01
    t_max: int = 500

    def __post_init__(self):
        if not self.tau > 0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if self.t_max < 1:
            raise ValidationError(f"t_max must be at least 1, got {self.t_max}")


@dataclass(frozen=True)
class QuadraticForms:
    """Per-user ingredients of the Rayleigh-quotient rate expressions.

    For user k, the rank-one beam gain lives on ``weighted_channels[k]``
    (the channel scaled by the square-root DAC gains) and the converter
    distortion appears as the real diagonal ``distortion_diags[k]``.
    ``include_common`` selects RSMA (common stream occupies block 0)
    versus SDMA (private streams only).
    """

    weighted_channels: np.ndarray   # (K, N) complex
    distortion_diags: np.ndarray    # (K, N) real, nonnegative
    adc_alpha: np.ndarray           # (K,)
    dac_alpha: np.ndarray           # (N,), needed to unstack precoders
    noise_over_power: float
    include_common: bool = True

    @property
    def n_users(self):
        return self.weighted_channels.shape[0]

    @property
    def n_antennas(self):
        return self.weighted_channels.shape[1]

    @property
    def n_streams(self):
        return self.n_users + 1 if self.include_common else self.n_users

    @property
    def dim(self):
        return self.n_streams * self.n_antennas


def build_forms(channel, profile, power, noise_power, include_common=True):
    """Assemble the quadratic forms for a channel/profile/SNR operating point."""
    channel = np.asarray(channel, dtype=complex)
    if channel.shape != (profile.n_antennas, profile.n_users):
        raise DimensionMismatch(
            f"channel {channel.shape} inconsistent with profile "
            f"({profile.n_antennas} antennas, {profile.n_users} users)"
        )
    if np.any(profile.dac_alpha <= 0):
        raise InvalidProfile("DAC gains must be strictly positive")
    sqrt_alpha = np.sqrt(profile.dac_alpha)
    return QuadraticForms(
        weighted_channels=(sqrt_alpha[:, None] * channel).T.copy(),
        distortion_diags=(profile.dac_beta[:, None] * np.abs(channel) ** 2).T.copy(),
        adc_alpha=profile.adc_alpha.copy(),
        dac_alpha=profile.dac_alpha.copy(),
        noise_over_power=noise_power / power,
        include_common=include_common,
    )


def _quadratics(forms, w):
    """Numerator/denominator values of the rate quotients at a stacked vector.

    Returns (a_common, b_common, a_private, b_private); the common pair is
    None in SDMA mode. Valid for any nonzero w, not just unit norm: the
    noise term scales with ||w||^2, which keeps every quotient invariant
    to scaling.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape != (forms.dim,):
        raise DimensionMismatch(f"stacked vector must have length {forms.dim}")
    rows = w.reshape(forms.n_streams, forms.n_antennas)
    noise = forms.noise_over_power * float(np.vdot(w, w).real)
    beam, totals = quadratic_terms(forms.weighted_channels, forms.distortion_diags, rows, noise)
    users = np.arange(forms.n_users)
    if forms.include_common:
        a_common = totals
        b_common = a_common - forms.adc_alpha * beam[:, 0]
        a_private = b_common
        b_private = a_private - forms.adc_alpha * beam[users, users + 1]
        return a_common, b_common, a_private, b_private
    a_private = totals
    b_private = a_private - forms.adc_alpha * beam[users, users]
    return None, None, a_private, b_private


def objective(forms, w, tau):
    """Smoothed sum spectral efficiency at w (bits/s/Hz).

    RSMA: smoothed minimum of the per-user common rates plus the private
    rates; SDMA: private rates only (tau unused). Invariant to scaling
    of w.
    """
    a_c, b_c, a_p, b_p = _quadratics(forms, w)
    private = float(np.log2(a_p / b_p).sum())
    if a_c is None:
        return private
    return lse_min(np.log2(a_c / b_c), tau) + private


def kkt_matrices(forms, w, tau):
    """Block-diagonal pencil of the first-order optimality condition at w.

    Each stream's quotient contributes its numerator matrix over its
    current numerator value (and likewise for denominators); common-stream
    contributions carry the softmin weight of that user's common rate.
    The overall scalar prefactors of the optimality condition are omitted:
    they rescale the pencil without moving its eigenvectors.

    Every block is a coefficient-weighted sum of the users' gain matrices,
    so both pencils share the distortion-plus-noise diagonal and differ
    only in the weight each block puts on each beam gain ``m_k m_k^H``.
    """
    a_c, b_c, a_p, b_p = _quadratics(forms, w)
    m = forms.weighted_channels
    alpha = forms.adc_alpha
    users = np.arange(forms.n_users)

    if forms.include_common:
        mu = softmin_weights(np.log2(a_c / b_c), tau)
        coeff_a = mu / a_c + 1.0 / a_p
        coeff_b = mu / b_c + 1.0 / b_p
    else:
        coeff_a = 1.0 / a_p
        coeff_b = 1.0 / b_p

    d, noise = forms.distortion_diags, forms.noise_over_power
    diag_a = coeff_a @ d + coeff_a.sum() * noise
    diag_b = coeff_b @ d + coeff_b.sum() * noise
    weights_a = np.repeat(coeff_a[None, :], forms.n_streams, axis=0)
    weights_b = np.repeat(coeff_b[None, :], forms.n_streams, axis=0)
    # Cancelling the common stream removes its beam gain from every
    # private-rate numerator; each private stream's own gain leaves its
    # denominator at that user's block. With alpha <= 1 the differences
    # below stay nonnegative in floating point.
    own_blocks = users + 1 if forms.include_common else users
    weights_b[own_blocks, users] = coeff_b - alpha / b_p
    if forms.include_common:
        weights_a[0] = coeff_a - alpha / a_p
        weights_b[0] = (1.0 - alpha) * coeff_b
    return BlockDiag(diag_a, m, weights_a), BlockDiag(diag_b, m, weights_b)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one power-iteration solve."""

    precoder: np.ndarray          # (N, K+1); column 0 zero for SDMA
    stacked: np.ndarray           # unit-norm stacked vector actually returned
    iterations: int
    objective_trace: np.ndarray   # objective at start plus after each iteration
    converged: bool
    residual: float               # eigenvector-equation residual at the returned point


def nep_residual(forms, w, tau):
    """Fixed-point residual ``||B^-1 A w - rho w||`` of the pencil at w.

    rho is the generalized Rayleigh quotient of the pair at w; the value
    vanishes exactly at stationary points of the smoothed objective.
    """
    w = np.asarray(w, dtype=complex)
    w = w / np.linalg.norm(w)
    pencil_a, pencil_b = kkt_matrices(forms, w, tau)
    image_a = pencil_a.matvec(w)
    image = blockdiag_solve(pencil_b, image_a)
    rho = float(np.vdot(w, image_a).real / np.vdot(w, pencil_b.matvec(w)).real)
    return float(np.linalg.norm(image - rho * w))


def gpi_solve(forms, options, w0):
    """Run the generalized power iteration from a stacked starting point.

    Iterates ``w <- normalize(B(w)^-1 A(w) w)`` until the canonical-phase
    iterate difference drops to ``options.epsilon`` or ``options.t_max``
    is reached. The visited point with the highest objective is returned;
    the iteration itself is not guaranteed monotone.
    """
    w0 = np.asarray(w0, dtype=complex)
    if w0.shape != (forms.dim,):
        raise DimensionMismatch(f"starting vector must have length {forms.dim}")
    norm0 = np.linalg.norm(w0)
    if norm0 == 0:
        raise ZeroPrecoder("starting stacked precoder is zero")

    w = canonical_phase(w0 / norm0)
    trace = [objective(forms, w, options.tau)]
    best_w, best_obj = w, trace[0]
    converged = False
    iterations = 0
    for _ in range(options.t_max):
        pencil_a, pencil_b = kkt_matrices(forms, w, options.tau)
        image = blockdiag_solve(pencil_b, pencil_a.matvec(w))
        w_next = canonical_phase(image / np.linalg.norm(image))
        iterations += 1
        value = objective(forms, w_next, options.tau)
        trace.append(value)
        if value > best_obj:
            best_obj, best_w = value, w_next
        step = np.linalg.norm(w_next - w)
        w = w_next
        if step <= options.epsilon:
            converged = True
            break

    return SolveResult(
        precoder=_to_full_precoder(forms, best_w),
        stacked=best_w,
        iterations=iterations,
        objective_trace=np.asarray(trace),
        converged=converged,
        residual=nep_residual(forms, best_w, options.tau),
    )


def _to_full_precoder(forms, w):
    """Unstack to an (N, K+1) precoder, inserting a zero common column for SDMA."""
    rows = np.asarray(w, dtype=complex).reshape(forms.n_streams, forms.n_antennas)
    f_matrix = (rows.T / np.sqrt(forms.dac_alpha)[:, None]).copy()
    if forms.include_common:
        return f_matrix
    zero = np.zeros((forms.n_antennas, 1), dtype=complex)
    return np.hstack([zero, f_matrix])


def stack_precoder(f_matrix, profile):
    """Stack a precoder into the gain-weighted vector the solver iterates on.

    Column j maps to block j via ``w_j = sqrt(Phi_a) f_j``; no
    normalization is applied.
    """
    f_matrix = np.asarray(f_matrix, dtype=complex)
    if f_matrix.shape[0] != profile.n_antennas:
        raise DimensionMismatch("precoder rows must match the antenna count")
    weighted = np.sqrt(profile.dac_alpha)[:, None] * f_matrix
    return weighted.T.reshape(-1).copy()


def init_precoder(channel, profile, include_common=True):
    """Matched-filter starting point, stacked and normalized to unit power.

    Private columns are the user channels; with ``include_common`` (RSMA)
    a leading common column is the average of the user channels.
    """
    channel = np.asarray(channel, dtype=complex)
    if np.linalg.norm(channel) == 0:
        raise ZeroChannel("all channel columns vanish")
    if include_common:
        common = channel.mean(axis=1, keepdims=True)
        f_matrix = np.hstack([common, channel])
    else:
        f_matrix = channel
    w = stack_precoder(f_matrix, profile)
    return canonical_phase(w / np.linalg.norm(w))

