"""Independent reference computations used as test oracles.

Everything here is deliberately written from the long-form definitions
(full covariance assembly, brute-force quadrature, textbook iterations)
so it shares no shortcuts with the implementation it checks.
"""

import math

import numpy as np
import scipy.linalg

from rsma_sim import (
    DimensionMismatch,
    QuantizerProfile,
    SingularMatrix,
    SolveResult,
    ZeroPrecoder,
    check_power,
)
from rsma_sim.channel import ANGULAR_SPREAD, _node_count, _one_ring_rule, _split_tables
from rsma_sim.gpi import _quadratics, _to_full_precoder, kkt_matrices
from rsma_sim.linalg import PIVOT_RTOL, BlockDiag, blockdiag_solve
from rsma_sim.rates import quadratic_terms, softmin_weights

BIT_POOL = [1, 2, 3, 4, 5, 6, 7, 8, math.inf]
# Eigenvalues below this fraction of the largest are treated as numerical
# rank deficiency and truncated.
RANK_TOL = 1e-10


class OracleFailure(Exception):
    """A dense reference computation failed."""


def seeded_rng(seed):
    """Counter-based (Philox) generator: same seed, same draws, any platform."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def ideal_profile(n_antennas, n_users):
    """Profile with infinite resolution everywhere (no quantization)."""
    return QuantizerProfile([math.inf] * n_antennas, [math.inf] * n_users)


def is_unquantized(profile):
    return all(b == math.inf for b in profile.dac_bits + profile.adc_bits)


def stack_precoder(f_matrix, profile):
    """Stack a precoder into the gain-weighted vector the solver iterates on.

    Column j maps to block j via ``w_j = sqrt(Phi_a) f_j``; no
    normalization is applied, and an SDMA precoder's zero common column
    gives a zero block 0. ``profile`` may be a solve's forms, so a solve's
    precoder stacks back to the unit vector it returned.
    """
    f_matrix = np.asarray(f_matrix, dtype=complex)
    if f_matrix.shape[0] != profile.n_antennas:
        raise DimensionMismatch("precoder rows must match the antenna count")
    weighted = np.sqrt(profile.dac_alpha)[:, None] * f_matrix
    return weighted.T.reshape(-1).copy()


def extract_precoder(w, profile):
    """Invert ``stack_precoder``: F from a stacked vector, with power ``||w||^2``."""
    rows = np.asarray(w, dtype=complex).reshape(-1, profile.n_antennas)
    return rows.T / np.sqrt(profile.dac_alpha)[:, None]


def effective_channel(profile, channel):
    """``diag(dac_alpha) H diag(adc_alpha)``: the channel seen through the converter gains."""
    channel = np.asarray(channel, dtype=complex)
    return np.diag(profile.dac_alpha) @ channel @ np.diag(profile.adc_alpha)


def element_quadratics(forms, w):
    """Rate quotients' (a_common, b_common, a_private, b_private) of a batch of one.

    ``_quadratics`` returns the three distinct sums, without the batch axis here:
    the common quotient's denominator is the private one's numerator.
    """
    totals, common, private = (q[0] for q in _quadratics(forms, w))
    return totals, common, common, private


def stream_rates(forms, w):
    """Common and private stream rates (bits/s/Hz) at w."""
    a_c, b_c, a_p, b_p = element_quadratics(forms, w)
    return np.log2(a_c / b_c), np.log2(a_p / b_p)


def lse_min(values, tau):
    """Smoothed minimum ``-tau * ln(sum_i exp(-x_i / tau))``.

    Lies in [min - tau*ln(len(values)), min] and tightens as tau -> 0.
    Computed in min-shifted form so small tau cannot underflow; reduces
    the last axis.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DimensionMismatch("lse_min needs a nonempty list")
    if not tau > 0:
        raise DimensionMismatch(f"tau must be positive, got {tau}")
    low = values.min(axis=-1)
    return low - tau * np.log(np.sum(np.exp(-(values - np.expand_dims(low, -1)) / tau), axis=-1))


def objective(forms, w, tau):
    """Smoothed sum spectral efficiency at w (bits/s/Hz), one per element.

    RSMA: smoothed minimum of the per-user common rates plus the private
    rates; SDMA: private rates only (tau unused). Invariant to scaling
    of w.
    """
    totals, common, private = _quadratics(forms, w)
    common_rate = np.where(forms.include_common, lse_min(np.log2(totals / common), tau), 0.0)
    return common_rate + np.log2(common / private).sum(axis=1)


def random_profile(rng, n_antennas, n_users, pool=BIT_POOL):
    dac = [pool[i] for i in rng.integers(0, len(pool), n_antennas)]
    adc = [pool[i] for i in rng.integers(0, len(pool), n_users)]
    return QuantizerProfile(dac, adc)


def random_channel(rng, n_antennas, n_users):
    return sample_complex_gaussian(rng, n_antennas * n_users).reshape(n_antennas, n_users)


def random_precoder(rng, profile, n_antennas, n_users, normalized=True):
    f = sample_complex_gaussian(rng, n_antennas * (n_users + 1)).reshape(n_antennas, n_users + 1)
    if normalized:
        f = f / np.sqrt(check_power(f, profile))
    return f


def dac_noise_covariance(profile, f_matrix, power):
    """Covariance of the DAC distortion for a given precoder.

    Diagonal N x N matrix with entries
    ``alpha_n * beta_n * power * sum_i |F[n, i]|^2``; exactly zero when
    every DAC has infinite resolution.
    """
    f_matrix = np.asarray(f_matrix, dtype=complex)
    if f_matrix.ndim != 2 or f_matrix.shape[0] != profile.n_antennas:
        raise DimensionMismatch(
            f"precoder has {f_matrix.shape} but profile covers {profile.n_antennas} antennas"
        )
    row_power = np.sum(np.abs(f_matrix) ** 2, axis=1)
    return np.diag(profile.dac_alpha * profile.dac_beta * power * row_power)


def adc_noise_variance(profile, k, channel, f_matrix, power, noise_power):
    """Variance of the ADC distortion observed by user k.

    Expands the distortion of the received analog signal in terms of the
    precoder columns:

        alpha_k * beta_k * (power * sum_i [ |h_k^H Phi_a f_i|^2
            + f_i^H Phi_a Phi_b diag(|h_k|^2) f_i ] + noise_power)

    Zero when user k's ADC has infinite resolution.
    """
    channel = np.asarray(channel, dtype=complex)
    f_matrix = np.asarray(f_matrix, dtype=complex)
    if channel.shape[0] != profile.n_antennas or f_matrix.shape[0] != profile.n_antennas:
        raise DimensionMismatch("channel/precoder rows must match the antenna count")
    if channel.shape[1] != profile.n_users:
        raise DimensionMismatch("channel columns must match the user count")

    h_k = channel[:, k]
    beam_gains = np.abs((h_k.conj() * profile.dac_alpha) @ f_matrix) ** 2
    diag_weights = profile.dac_alpha * profile.dac_beta * np.abs(h_k) ** 2
    diag_terms = diag_weights @ (np.abs(f_matrix) ** 2)
    total = power * (beam_gains.sum() + diag_terms.sum()) + noise_power
    return float(profile.adc_alpha[k] * profile.adc_beta[k] * total)


def direct_sinr_common(k, channel, f_matrix, profile, power, noise_power):
    """Common-stream SINR assembled from the full noise covariances."""
    h = channel[:, k]
    a = profile.adc_alpha[k]
    phi_a = np.diag(profile.dac_alpha)
    r_dac = dac_noise_covariance(profile, f_matrix, power)
    gains = np.abs(h.conj() @ phi_a @ f_matrix) ** 2
    iui = power * a**2 * gains[1:].sum()
    quant = a**2 * (h.conj() @ r_dac @ h).real + adc_noise_variance(
        profile, k, channel, f_matrix, power, noise_power
    )
    return power * a**2 * gains[0] / (iui + quant + a**2 * noise_power)


def direct_sinr_private(k, channel, f_matrix, profile, power, noise_power):
    """Private-stream SINR assembled from the full noise covariances."""
    h = channel[:, k]
    a = profile.adc_alpha[k]
    phi_a = np.diag(profile.dac_alpha)
    r_dac = dac_noise_covariance(profile, f_matrix, power)
    gains = np.abs(h.conj() @ phi_a @ f_matrix) ** 2
    iui = power * a**2 * (gains[1:].sum() - gains[k + 1])
    quant = a**2 * (h.conj() @ r_dac @ h).real + adc_noise_variance(
        profile, k, channel, f_matrix, power, noise_power
    )
    return power * a**2 * gains[k + 1] / (iui + quant + a**2 * noise_power)


def long_form_power(f_matrix, profile, power):
    """Transmit power from the full quantized-signal covariance, over power."""
    phi_a = np.diag(profile.dac_alpha)
    cov = power * phi_a @ f_matrix @ f_matrix.conj().T @ phi_a.conj().T
    cov = cov + dac_noise_covariance(profile, f_matrix, power)
    return float(np.trace(cov).real / power)


def _ula_displacements(n_antennas):
    """All N^2 pairwise displacements r_n - r_m of a half-wavelength ULA."""
    pos = np.zeros((n_antennas, 2))
    pos[:, 0] = 0.5 * np.arange(n_antennas)
    dx = pos[:, 0][:, None] - pos[:, 0][None, :]
    dy = pos[:, 1][:, None] - pos[:, 1][None, :]
    return dx, dy


def trapezoid_one_ring(n_antennas, aod, n_points=100_000):
    """One-ring covariance by brute-force trapezoid quadrature."""
    dx, dy = _ula_displacements(n_antennas)
    x = np.linspace(aod - ANGULAR_SPREAD, aod + ANGULAR_SPREAD, n_points)
    phase = np.cos(x)[:, None, None] * dx + np.sin(x)[:, None, None] * dy
    values = np.exp(-2j * math.pi * phase)
    return np.trapezoid(values, x, axis=0) / (2.0 * ANGULAR_SPREAD)


def dense_one_ring(n_antennas, aod):
    """One-ring covariance by Gauss-Legendre quadrature over all N^2 entries.

    Evaluates the planar integrand at every antenna pair, at the package's
    node count q(N) with fresh nodes.
    """
    dx, dy = _ula_displacements(n_antennas)
    nodes, weights = np.polynomial.legendre.leggauss(_node_count(n_antennas))
    x = aod + ANGULAR_SPREAD * nodes
    phase = np.cos(x)[:, None, None] * dx + np.sin(x)[:, None, None] * dy
    cov = np.einsum("q,qnm->nm", 0.5 * weights, np.exp(-2j * math.pi * phase))
    cov = 0.5 * (cov + cov.conj().T)
    np.fill_diagonal(cov, 1.0)
    return cov


def plane_wave_basis(n_antennas, aod):
    """``(basis, weights)``: the draw's split tables expanded to the (N, q) steering matrix.

    Row d = r + split*m of ``basis`` is ``outer[m] * inner[r]``, the
    product-built steering vector entry ``exp(-j*pi*d*cos(x_q))``, from the
    rule and tables that :func:`rsma_sim.sample_channel` draws through.
    """
    x, weights = _one_ring_rule(n_antennas, [aod])
    inner, outer = _split_tables(n_antennas, x[0])
    basis = (outer[:, None] * inner).reshape(-1, len(weights))
    return basis[:n_antennas], weights


def steering_basis(n_antennas, aod):
    """``(basis, weights)`` of the one-ring rule with directly evaluated steering vectors.

    Column q of ``basis`` is ``exp(-j*pi*n*cos(x_q))`` at the rule's node
    x_q, one phase per antenna, with no products.
    """
    x, weights = _one_ring_rule(n_antennas, [aod])
    return np.exp(-1j * math.pi * np.outer(np.arange(n_antennas), np.cos(x[0]))), weights


def kl_factorize(cov):
    """Truncated eigenfactorization ``cov ~= U diag(lam) U^H``.

    Returns orthonormal eigenvectors U (N x r) and the r eigenvalues above
    ``RANK_TOL`` times the largest, sorted descending.
    """
    cov = np.asarray(cov, dtype=complex)
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > RANK_TOL * max(vals[0], 0.0)
    return np.ascontiguousarray(vecs[:, keep]), vals[keep].copy()


def sample_complex_gaussian(rng, n):
    """Draw n i.i.d. circularly symmetric complex normal values.

    Zero mean, unit variance: real and imaginary parts each carry
    variance 1/2.
    """
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def kl_sample_channel(factorizations, rng):
    """One (N, K) channel from per-user ``(basis, weights)`` pairs, dense.

    Takes :func:`kl_factorize` pairs, or plane-wave ones
    from :func:`plane_wave_basis` or :func:`steering_basis`; the basis need
    not be orthonormal. User
    k's column is ``basis_k @ (sqrt(w_k) * g_k)`` with a fresh standard
    complex Gaussian g_k, one entry per weight, drawn user by user, so its
    covariance is ``basis_k diag(w_k) basis_k^H``; an empty factor gives a
    zero column.
    """
    columns = []
    for basis, weights in factorizations:
        if len(weights) == 0:
            columns.append(np.zeros(basis.shape[0], dtype=complex))
        else:
            g = sample_complex_gaussian(rng, len(weights))
            columns.append(basis @ (np.sqrt(weights) * g))
    return np.column_stack(columns)


def factorization_metadata(factorizations):
    """Per-user covariances ``U diag(lam) U^H`` and ranks from KL factors."""
    covariances = tuple(
        (basis * eigvals) @ basis.conj().T for basis, eigvals in factorizations
    )
    ranks = tuple(len(eigvals) for _, eigvals in factorizations)
    return covariances, ranks


def lloyd_max_beta(bits, max_iters=200_000):
    """Distortion of the optimal scalar quantizer for a unit Gaussian.

    Plain Lloyd iteration on the exact Gaussian pdf/cdf, run to a fixed
    point; the distortion is the normalized mean-squared error.
    """
    levels = 2**bits
    sqrt2pi = math.sqrt(2.0 * math.pi)

    def pdf(x):
        return np.exp(-x * x / 2.0) / sqrt2pi

    def cdf(x):
        return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))

    centers = np.array([-4.0 + 8.0 * (i + 0.5) / levels for i in range(levels)])
    prev_mse = None
    for _ in range(max_iters):
        edges = (centers[1:] + centers[:-1]) / 2.0
        p_lo = np.concatenate(([0.0], pdf(edges)))
        p_hi = np.concatenate((pdf(edges), [0.0]))
        c_lo = np.concatenate(([0.0], cdf(edges)))
        c_hi = np.concatenate((cdf(edges), [1.0]))
        mass = c_hi - c_lo
        centers = (p_lo - p_hi) / mass
        mse = 1.0 - float(np.sum(mass * centers**2))
        if prev_mse is not None and abs(mse - prev_mse) < 1e-16:
            break
        prev_mse = mse
    return mse


def vector_angle(u, v):
    """Principal angle between complex one-dimensional subspaces."""
    u = np.asarray(u).ravel()
    v = np.asarray(v).ravel()
    cos = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(min(1.0, cos)))


def dense_blocks(bd):
    """A BlockDiag's (B * m, n, n) block stack, element by element, one
    outer product at a time."""
    blocks = np.zeros((bd.batch, bd.n_blocks, bd.block_dim, bd.block_dim), dtype=complex)
    for b, j in np.ndindex(bd.batch, bd.n_blocks):
        blocks[b, j] = np.diag(bd.diag[b])
        for weight, vec in zip(bd.weights[b, j], bd.vectors):
            blocks[b, j] += weight * np.outer(vec, vec.conj())
    return blocks.reshape(-1, bd.block_dim, bd.block_dim)


def principal_gap(forms, results, tau):
    """How far each returned point of a solve is from its pencil's principal eigenvector.

    ``results`` holds one SolveResult per element of ``forms``. At element
    b's returned unit point w, with the ``kkt_matrices`` pencil (A, B) and
    ``rho = Re(w^H A w) / Re(w^H B w)``, gap b is the largest
    ``lambda_max(A_j, B_j) / rho - 1`` over the blocks j the element uses
    (block 0 only where the common stream is on). Each dense block pair is
    reduced by the Cholesky factor L of B_j to ``L^-1 A_j L^-H``, as LAPACK's
    generalized Hermitian eigensolver does. A gap is about 0 where w is the
    principal eigenvector of every block it uses.
    """
    w = np.stack([stack_precoder(result.precoder, forms) for result in results])
    pencil_a, pencil_b = kkt_matrices(forms, w, tau)
    rho = ((w.conj() * pencil_a.matvec(w)).sum(axis=1).real
           / (w.conj() * pencil_b.matvec(w)).sum(axis=1).real)
    shape = (forms.batch, forms.n_users + 1, forms.n_antennas, forms.n_antennas)
    blocks_a, blocks_b = dense_blocks(pencil_a).reshape(shape), dense_blocks(pencil_b).reshape(shape)
    factor = np.linalg.cholesky(blocks_b)
    half = np.linalg.solve(factor, blocks_a)
    lam = np.linalg.eigvalsh(np.linalg.solve(factor, half.conj().swapaxes(-1, -2)))[..., -1]
    lam[~forms.include_common, 0] = -np.inf
    return lam.max(axis=1) / rho - 1.0


def solve_one(bd, v):
    """Block solve of a batch of one that raises its fault, as the unbatched solve did."""
    (x,), (fault,) = blockdiag_solve(bd, v)
    if fault:
        raise fault
    return x


def dense_blockdiag_solve(bd, v):
    """``blockdiag_solve`` with each passing element solved densely.

    Keeps the package's faults and NaN rows; every other element is solved
    by ``hermitian_solve`` on its full block-diagonal matrix.
    """
    x, faults = blockdiag_solve(bd, v)
    blocks = dense_blocks(bd).reshape(bd.batch, bd.n_blocks, bd.block_dim, bd.block_dim)
    rhs = np.asarray(v, dtype=complex).reshape(bd.batch, bd.size)
    for b, fault in enumerate(faults):
        if fault is None:
            x[b] = hermitian_solve(scipy.linalg.block_diag(*blocks[b]), rhs[b])
    return x, faults


def to_dense(bd):
    """Assemble a BlockDiag's full dense matrix; of a batch of one, its element's."""
    return scipy.linalg.block_diag(*dense_blocks(bd))


def dense_kkt(forms, w, tau):
    """Dense numerator and denominator block stacks of the KKT pencil.

    Builds each block as the full coefficient-weighted sum of the users'
    gain matrices, ``base_a`` or ``base_b``, and then subtracts, block by
    block, the beam gains that cancellation or the stream's own signal
    removes. Returns ``(blocks_a, blocks_b, base_a, base_b)``, with
    (K+1, N, N) stacks. The common rates' softmin weights are zero in SDMA
    mode. The bases' norms set the scale of the rounding error of the
    subtractions.
    """
    a_c, b_c, a_p, b_p = element_quadratics(forms, w)
    m = forms.weighted_channels
    alpha = forms.adc_alpha
    n, s = forms.n_antennas, forms.n_users + 1
    [noise] = forms.noise_over_power

    def gain_sum(coeffs, distortion_diags=None):
        rank_part = (m.T * coeffs) @ m.conj()
        if distortion_diags is None:
            return rank_part
        return rank_part + np.diag(coeffs @ distortion_diags)

    mu = softmin_weights(np.log2(a_c / b_c), tau) if forms.include_common else 0.0
    coeff_a = mu / a_c + 1.0 / a_p
    coeff_b = mu / b_c + 1.0 / b_p

    d = forms.distortion_diags
    base_a = gain_sum(coeff_a, d) + (coeff_a.sum() * noise) * np.eye(n)
    base_b = gain_sum(coeff_b, d) + (coeff_b.sum() * noise) * np.eye(n)

    blocks_a = np.repeat(base_a[None, :, :], s, axis=0)
    blocks_b = np.repeat(base_b[None, :, :], s, axis=0)
    blocks_a[0] -= gain_sum(alpha / a_p)
    blocks_b[0] -= gain_sum(alpha * coeff_b)
    blocks_b[1:] -= np.einsum("k,ki,kj->kij", alpha / b_p, m, m.conj())
    return blocks_a, blocks_b, base_a, base_b


def cholesky_pivot_rule(blocks):
    """Per-block verdict of the Cholesky pivot rule on a (m, n, n) stack.

    A block passes when it is positive definite and its smallest squared
    Cholesky pivot exceeds ``PIVOT_RTOL * ||block||_F``.
    """
    verdicts = []
    for block in blocks:
        try:
            factor = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            verdicts.append(False)
            continue
        pivot = np.diagonal(factor).real.min() ** 2
        verdicts.append(bool(pivot > PIVOT_RTOL * np.linalg.norm(block)))
    return np.array(verdicts)


def hermitian_solve(a, b):
    """Solve ``a @ x = b`` for Hermitian ``a`` via an LDL^H factorization.

    Dense reference for the block solve; unlike it, handles indefinite
    matrices.

    Parameters
    ----------
    a : (n, n) complex Hermitian matrix
    b : (n,) or (n, k) right-hand side

    Raises
    ------
    SingularMatrix
        If any pivot magnitude falls below ``PIVOT_RTOL * ||a||_F``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix size {a.shape[0]}")

    # LAPACK ignores the imaginary part of the diagonal; strip the rounding
    # noise explicitly so the factorization sees an exactly Hermitian matrix.
    a = a.copy()
    np.fill_diagonal(a, a.diagonal().real)

    lu, d, perm = scipy.linalg.ldl(a, hermitian=True)
    pivots = np.abs(scipy.linalg.eigvalsh(d))
    tol = PIVOT_RTOL * np.linalg.norm(a)
    if pivots.size and pivots.min() <= tol:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below tolerance {tol:.3e}"
        )

    lower = lu[perm, :]
    z = scipy.linalg.solve_triangular(lower, b[perm], lower=True, unit_diagonal=True)
    y = np.linalg.solve(d, z)
    xp = scipy.linalg.solve_triangular(
        lower.conj().T, y, lower=False, unit_diagonal=True
    )
    x = np.empty_like(xp)
    x[perm] = xp
    return x


def principal_gep_oracle(a, b):
    """Largest-eigenvalue pair of the Hermitian pencil ``b^{-1} a``.

    Dense reference solver used to cross-check iterative eigenvector
    computations. ``b`` must be positive definite.

    Returns
    -------
    (eigenvalue, eigenvector)
        Eigenvector has unit norm; its global phase is arbitrary.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible pencil shapes {a.shape}, {b.shape}")
    try:
        vals, vecs = scipy.linalg.eigh(a, b)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise OracleFailure(f"dense generalized eigensolver failed: {exc}") from exc
    vec = vecs[:, -1]
    return float(vals[-1]), vec / np.linalg.norm(vec)


def rotated_onto(v, w):
    """``e^{i phi} v`` for the global phase phi that makes ``w^H e^{i phi} v`` real
    and nonnegative: the rotation of v nearest w. v itself where ``w^H v = 0``."""
    overlap = np.vdot(w, v)
    return v if overlap == 0 else v * (np.conj(overlap) / abs(overlap))


def eigen_residual(w, x):
    """Relative residual ``||x - (w^H x) w|| / ||x||`` of an image x of the unit vector w."""
    return float(np.linalg.norm(x - np.vdot(w, x) * w) / np.linalg.norm(x))


def scalar_iteration(image, options, w):
    """The generalized power iteration of one operating point, as a scalar loop.

    The one GPI reference loop of the tests. ``image(w)`` is
    ``B(w)^-1 A(w) w`` at the unbatched unit vector w. The loop stops,
    steps and switches to the half step by the package's rules: each step
    is rotated onto its iterate, and the cycle test takes each distance at
    its best global phase. Returns ``(w, iterations, residual)`` or raises
    what ``image`` raises.
    """
    w_prev = w
    damped = False
    for iterations in range(options.t_max + 1):
        x = image(w)
        residual = eigen_residual(w, x)
        if residual <= options.epsilon or iterations == options.t_max:
            break
        step = rotated_onto(x / np.linalg.norm(x), w)
        damped = damped or (np.linalg.norm(rotated_onto(step, w_prev) - w_prev)
                            < 0.5 * np.linalg.norm(step - w))
        if damped:
            step = (w + step) / np.linalg.norm(w + step)
        w_prev, w = w, step
    return w, iterations, residual


def frozen_power_iteration(pencil_a, pencil_b, v, tol, max_steps):
    """Plain generalized power iteration on a frozen pencil pair from the unit vector v.

    Each step ``B^-1 A v`` is normalized and rotated onto its iterate; the
    loop stops after the first step that moves less than ``tol``, or after
    ``max_steps`` steps, and returns the last step.
    """
    for _ in range(max_steps):
        step = solve_one(pencil_b, pencil_a.matvec(v))
        step = rotated_onto(step / np.linalg.norm(step), v)
        settled = np.linalg.norm(step - v) < tol
        v = step
        if settled:
            break
    return v


def kkt_image(forms, w, tau):
    """``B(w)^-1 A(w) w`` of the ``kkt_matrices`` pencil, at the unbatched vector w
    of a batch of one; raises the block solve's fault."""
    pencil_a, pencil_b = kkt_matrices(forms, w, tau)
    return solve_one(pencil_b, pencil_a.matvec(w))


def nep_residual(forms, w, tau):
    """Relative residual of the eigenvector equation ``B(w)^-1 A(w) w ~ w``, batch of one.

    The residual :func:`scalar_iteration` stops on, taken at ``w / ||w||``:
    invariant to the scale and phase of w, and zero exactly at stationary
    points of :func:`objective`. Raises the block solve's fault.
    """
    w = np.asarray(w, dtype=complex) / np.linalg.norm(w)
    return eigen_residual(w, kkt_image(forms, w, tau))


def scalar_gpi_solve(forms, options, w0):
    """The generalized power iteration for one operating point, as a scalar loop.

    Reference for each element of ``gpi_solve``'s batched loop: ``forms``
    is a batch of one, ``w0`` one start (unbatched or a batch of one) and
    every vector of the loop unbatched. Returns a SolveResult or raises the
    block solve's fault.
    """
    w0 = np.asarray(w0, dtype=complex).reshape(-1)
    if w0.shape != (forms.dim,):
        raise DimensionMismatch(f"starting vector must have length {forms.dim}")
    norm0 = np.linalg.norm(w0)
    if norm0 == 0:
        raise ZeroPrecoder("starting stacked precoder is zero")

    w, iterations, residual = scalar_iteration(
        lambda w: kkt_image(forms, w, options.tau), options, w0 / norm0)
    return SolveResult(
        precoder=_to_full_precoder(forms, w),
        iterations=iterations,
        converged=residual <= options.epsilon,
        residual=residual,
    )


def sdma_pencils(forms, w):
    """The SDMA pencil pair at a K-block stacked vector: private streams only.

    Block k acts on user k's private precoder; there is no common block.
    User k's numerator and denominator are its total received power and
    that total less its own (quantized) beam gain, and every block puts
    weight ``1/a_k`` (numerator) or ``1/b_k`` (denominator) on each beam
    gain, less ``alpha_k / b_k`` on its own gain in the denominator.
    """
    m, alpha = forms.weighted_channels, forms.adc_alpha
    k_users = forms.n_users
    w = np.asarray(w, dtype=complex).reshape(1, -1)
    noise = forms.noise_over_power[:, None]
    beam, totals = quadratic_terms(
        m, forms.distortion_diags, w.reshape(1, k_users, forms.n_antennas),
        noise * (w.conj() * w).real.sum(axis=1, keepdims=True))
    private = totals - alpha * beam.diagonal(0, -2, -1)
    coeff_a, coeff_b = 1.0 / totals, 1.0 / private
    weights_a = coeff_a[:, None, :].repeat(k_users, axis=1)
    weights_b = coeff_b[:, None, :].repeat(k_users, axis=1)
    weights_b[0, range(k_users), range(k_users)] = (coeff_b - alpha / private)[0]
    d = forms.distortion_diags
    return (BlockDiag(coeff_a @ d + coeff_a.sum(axis=1, keepdims=True) * noise, m, weights_a),
            BlockDiag(coeff_b @ d + coeff_b.sum(axis=1, keepdims=True) * noise, m, weights_b))


def sdma_gpi_solve(forms, options):
    """Q-GPI-SEM of one operating point on K-block stacked vectors.

    The scalar loop on :func:`sdma_pencils` from the K-block matched
    filter: reference for the package's SDMA elements, which carry a zero
    common block through the RSMA pencil. Returns a SolveResult whose
    precoder has a zero common column.
    """
    def image(w):
        pencil_a, pencil_b = sdma_pencils(forms, w)
        return solve_one(pencil_b, pencil_a.matvec(w))

    w = forms.weighted_channels.reshape(-1)
    w, iterations, residual = scalar_iteration(image, options, w / np.linalg.norm(w))
    rows = np.vstack([np.zeros(forms.n_antennas), w.reshape(forms.n_users, forms.n_antennas)])
    return SolveResult(
        precoder=rows.T / np.sqrt(forms.dac_alpha)[:, None],
        iterations=iterations,
        converged=residual <= options.epsilon,
        residual=residual,
    )
