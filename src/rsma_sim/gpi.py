"""Sum-spectral-efficiency precoder optimization by generalized power iteration.

Both stream rates are Rayleigh quotients of a stacked, gain-weighted
precoding vector, so the smoothed objective's first-order optimality
condition is a nonlinear eigenvalue problem: a block-diagonal pencil whose
matrices depend on the current iterate. The solver repeatedly applies the
inverse-denominator/numerator update of a generalized power iteration,
renormalizing each step, until the iterate is an eigenvector of the
pencil to within a relative residual.

Forms, pencils and iterates carry a leading batch axis over a trial's SNR
points (a scalar SNR is a batch of one): one pencil build and block solve
per iteration serve them all, and each keeps its own stop test and step.

The quantization-aware SDMA variant switches the common stream off per
element (``include_common``), so one batch mixes RSMA and SDMA points.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import POSITIVE, DimensionMismatch, ZeroPrecoder, integer, real
from .linalg import BlockDiag, blockdiag_solve
from .rates import interference, quadratic_terms, softmin_weights


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls for the power-iteration solvers.

    tau is the smoothing temperature of the common-rate minimum (bits);
    epsilon the bound on the relative NEP residual at which a solve has
    converged; t_max the iteration cap. tau and epsilon are positive finite
    numbers and t_max an integer >= 1, a numpy scalar too but not a bool;
    any other setting, of the wrong type or value, raises ValidationError.
    """

    tau: float = 1.0
    epsilon: float = 0.01
    t_max: int = 500

    def __post_init__(self):
        for name in ("tau", "epsilon"):
            real(getattr(self, name), f"solver {name!r}", *POSITIVE)
        integer(self.t_max, "solver 't_max'")


@dataclass(frozen=True)
class QuadraticForms:
    """Per-user ingredients of the Rayleigh-quotient rate expressions.

    For user k, the rank-one beam gain lives on ``weighted_channels[k]``
    (the channel scaled by the square-root DAC gains) and the converter
    distortion appears as the real diagonal ``distortion_diags[k]``.
    Stacked vectors have K+1 blocks, the common stream's first; element b
    is SDMA where ``include_common[b]`` is False: that block zero, no common rate.
    """

    weighted_channels: np.ndarray   # (K, N) complex
    distortion_diags: np.ndarray    # (K, N) real, nonnegative
    adc_alpha: np.ndarray           # (K,)
    dac_alpha: np.ndarray           # (N,), needed to unstack precoders
    noise_over_power: np.ndarray    # (B,)
    include_common: np.ndarray = True   # (B,) bool, or one bool for all

    def __post_init__(self):
        modes = np.asarray(self.include_common, dtype=bool)
        if modes.shape not in ((), (self.batch,)):
            raise DimensionMismatch(f"{modes.size} common-stream modes for {self.batch} elements")
        object.__setattr__(self, "include_common", np.broadcast_to(modes, (self.batch,)))

    @property
    def batch(self):
        return self.noise_over_power.size

    @property
    def n_users(self):
        return self.weighted_channels.shape[0]

    @property
    def n_antennas(self):
        return self.weighted_channels.shape[1]

    @property
    def dim(self):
        return (self.n_users + 1) * self.n_antennas


def build_forms(channel, profile, snr, include_common=True):
    """Assemble the quadratic forms for a channel and profile at B SNR points.

    ``snr`` is the linear transmit power over the noise power, B values or a
    scalar for a batch of one; ``include_common`` is one bool or B of them.
    """
    channel = profile.check_channel(channel)
    return QuadraticForms(
        weighted_channels=(np.sqrt(profile.dac_alpha)[:, None] * channel).T.copy(),
        distortion_diags=(profile.dac_beta[:, None] * np.abs(channel) ** 2).T.copy(),
        adc_alpha=profile.adc_alpha.copy(),
        dac_alpha=profile.dac_alpha.copy(),
        noise_over_power=1.0 / np.asarray(snr, dtype=float).reshape(-1),
        include_common=include_common,
    )


def _stacked(forms, w, name="stacked vector"):
    """w as a (B, dim) stack; a single stacked vector serves every element."""
    w = np.asarray(w, dtype=complex)
    if w.shape not in ((forms.dim,), (forms.batch, forms.dim)):
        raise DimensionMismatch(f"{name} must have length {forms.dim}")
    return w if w.ndim == 2 else np.broadcast_to(w, (forms.batch, forms.dim))


def _quadratics(forms, w):
    """Numerator/denominator values of the rate quotients at stacked vectors.

    Returns (totals, common, private), each (B, K), as ``interference`` names
    them: the common quotient is totals / common and each private one common /
    private; with a zero common block the first two are equal. Valid for any nonzero w,
    not just unit norm: the noise term scales with ||w||^2, which keeps
    every quotient invariant to scaling.
    """
    w = _stacked(forms, w)
    rows = w.reshape(forms.batch, forms.n_users + 1, forms.n_antennas)
    noise = forms.noise_over_power[:, None] * (w.conj() * w).real.sum(axis=1, keepdims=True)
    beam, totals = quadratic_terms(forms.weighted_channels, forms.distortion_diags, rows, noise)
    common, private = interference(beam, totals, forms.adc_alpha)
    return totals, common, private


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
    Where the common stream is off the softmin weights are zero: the private
    blocks are the SDMA pencil's, and block 0 maps a zero common block to zero.
    """
    totals, common, private = _quadratics(forms, w)
    m, k, alpha = forms.weighted_channels, forms.n_users, forms.adc_alpha

    mu = softmin_weights(np.log2(totals / common), tau) * forms.include_common[:, None]
    coeff_a = mu / totals + 1.0 / common
    coeff_b = mu / common + 1.0 / private

    d, noise = forms.distortion_diags, forms.noise_over_power[:, None]
    diag_a = coeff_a @ d + coeff_a.sum(axis=1, keepdims=True) * noise
    diag_b = coeff_b @ d + coeff_b.sum(axis=1, keepdims=True) * noise
    weights_a = coeff_a[:, None, :].repeat(k + 1, axis=1)
    weights_b = coeff_b[:, None, :].repeat(k + 1, axis=1)
    # Cancelling the common stream removes its beam gain from every
    # private-rate numerator; each private stream's own gain leaves its
    # denominator at that user's block. Those own weights sit every K+1
    # flat entries from user 0's in the first private block. With
    # alpha <= 1 the differences below stay nonnegative in floating point.
    weights_b.reshape(forms.batch, -1)[:, k:: k + 1] = coeff_b - alpha / private
    weights_a[:, 0] = coeff_a - alpha / common
    weights_b[:, 0] = (1.0 - alpha) * coeff_b
    return BlockDiag(diag_a, m, weights_a), BlockDiag(diag_b, m, weights_b)


@dataclass(frozen=True)
class SolveResult:
    """One operating point's precoder and how the solve that found it ended."""

    precoder: np.ndarray          # (N, K+1); column 0 zero for SDMA
    iterations: int
    converged: bool               # residual <= epsilon
    residual: float               # relative NEP residual at the returned point


def _image_and_residual(forms, w, tau):
    """Images ``x = B(w)^-1 A(w) w`` of the unit rows of w, their norms, their
    overlaps ``w^H x``, relative residuals ``||x - (w^H x) w|| / ||x||``,
    and the block solve's faults."""
    pencil_a, pencil_b = kkt_matrices(forms, w, tau)
    image, faults = blockdiag_solve(pencil_b, pencil_a.matvec(w))
    norms = _row_norms(image)
    overlap = (w.conj() * image).sum(axis=1)
    return image, norms, overlap, _row_norms(image - overlap[:, None] * w) / norms, faults


def _row_norms(v):
    """``np.linalg.norm(v, axis=-1)``, the same sums, without its per-call argument handling."""
    return np.sqrt((v.conj() * v).real.sum(axis=-1))


def _unit(v):
    return v / _row_norms(v)[..., None]


def gpi_solve(forms, options, w0):
    """Run the generalized power iteration from a stacked starting point.

    Each iteration maps w to ``T(w) = normalize(B(w)^-1 A(w) w)``, rotated
    onto w: the pencil fixes its eigenvector only up to a global phase, and
    the rotation makes ``w^H T(w)`` real and positive, so a step differs
    from w only as far as the residual says. Once a period-2 cycle shows
    (``T(w)`` lands nearer the previous iterate than the current one, each
    distance taken at its best global phase), every later step is the half
    step ``normalize(w + T(w))``. The solve returns the first iterate whose
    relative residual is at most ``options.epsilon``, or the iterate
    reached after ``options.t_max`` steps.

    Each batch element has its own stop test and half-step switch and
    leaves the batch when it stops or fails the block solve. ``w0`` is one
    start or a (B, dim) stack, nonzero in block 0 exactly where the common
    stream is on; returns each element's SolveResult or error.
    """
    w = _stacked(forms, w0, "starting vector")
    if (np.linalg.norm(w, axis=1) == 0).any():
        raise ZeroPrecoder("starting stacked precoder is zero")
    if (w[:, :forms.n_antennas].any(axis=1) != forms.include_common).any():
        raise DimensionMismatch("starting vector: common block zero on RSMA or nonzero on SDMA")
    w = w_prev = _unit(w)
    # row i of w, w_prev, damped, image, norms and overlap is element rows[i]; part has their forms
    results, rows, part = [None] * forms.batch, np.arange(forms.batch), forms
    damped = np.zeros(forms.batch, dtype=bool)
    for t in range(options.t_max + 1):
        image, norms, overlap, residual, faults = _image_and_residual(part, w, options.tau)
        going = (residual > options.epsilon) & (t < options.t_max)  # False for a fault's NaN
        if not going.all():
            for i in np.flatnonzero(~going):
                results[rows[i]] = faults[i] or SolveResult(
                    _to_full_precoder(forms, w[i]), t, bool(residual[i] <= options.epsilon),
                    float(residual[i]))
            if not going.any():
                return results
            rows, w, w_prev, damped, image, norms, overlap = (
                a[going] for a in (rows, w, w_prev, damped, image, norms, overlap))
            part = replace(forms, noise_over_power=forms.noise_over_power[rows],
                           include_common=forms.include_common[rows])
        # conj(w^H x) / |w^H x|, or 1 where w^H x is 0
        size = np.abs(overlap)
        turn = np.divide(overlap.conj(), size, out=np.ones_like(overlap), where=size > 0)
        step = image * (turn / norms)[:, None]
        # ||a - e^{i phi} b||^2 is least at 2 - 2|a^H b| for unit a, b: the
        # distance test ||T(w) - w_prev|| < 0.5 ||T(w) - w|| at the best phases
        damped |= 1 - np.abs((w_prev.conj() * step).sum(1)) < 0.25 * (1 - size / norms)
        if damped.any():
            step[damped] = _unit(w[damped] + step[damped])
        w_prev, w = w, step


def _to_full_precoder(forms, w):
    """Unstack to an (N, K+1) precoder."""
    rows = w.reshape(forms.n_users + 1, forms.n_antennas)
    return np.ascontiguousarray(rows.T) / np.sqrt(forms.dac_alpha)[:, None]


def init_precoder(forms):
    """Matched-filter starting points, one per element, stacked and of unit norm.

    Private blocks are the gain-weighted user channels; the common block is
    their mean for an RSMA element and zero for an SDMA one.
    """
    m = forms.weighted_channels
    if np.linalg.norm(m) == 0:
        raise ZeroPrecoder("all channel columns vanish")
    rsma = np.vstack([m.mean(axis=0), m]).reshape(-1)
    sdma = np.concatenate([np.zeros(forms.n_antennas), m.reshape(-1) / np.linalg.norm(m)])
    return np.where(forms.include_common[:, None], rsma / np.linalg.norm(rsma), sdma)
