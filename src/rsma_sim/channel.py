"""Spatially correlated channel generation via the one-ring scattering model.

The access point is a uniform linear array with half-wavelength spacing.
Each user's N x N spatial covariance is an integral over the scatter ring
around its angle of departure; channels are drawn straight from the plane
waves of the quadrature that evaluates it, with no eigendecomposition.
"""

import functools
import math

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch
from .linalg import sample_complex_gaussian

# Half-width of every user's scatter ring around its angle of departure.
ANGULAR_SPREAD = math.pi / 6
# The quadrature stops once no covariance entry moves by this much.
QUADRATURE_TOL = 1e-10
# Eigenvalues below this fraction of the largest are treated as numerical
# rank deficiency and truncated.
RANK_TOL = 1e-10
# Node count past which the one-ring quadrature gives up.
MAX_QUADRATURE_NODES = 4096
CHANNEL_MODES = ("random_aod", "correlated_aod")


def one_ring_covariance(n_antennas, aod):
    """Spatial covariance of the one-ring model at a half-wavelength ULA.

    Entry (n, m) averages ``exp(-j*2*pi * cos(x) * (n - m) / 2)`` over the
    ring ``x in [aod - ANGULAR_SPREAD, aod + ANGULAR_SPREAD]``. It depends
    only on the lag n - m, and lag -d is the conjugate of lag d, so the
    rule of :func:`one_ring_factor` is summed once per lag 0, 1, ..., N - 1
    and the matrix is filled as a Hermitian Toeplitz matrix.

    Raises
    ------
    DimensionMismatch
        If ``n_antennas < 1`` or ``aod`` lies outside [0, pi).
    ConvergenceFailure
        If the estimate still moves by ``QUADRATURE_TOL`` or more at
        ``MAX_QUADRATURE_NODES`` (4096) nodes.
    """
    basis, weights = one_ring_factor(n_antennas, aod)
    values = np.einsum("q,qd->d", weights, basis.T)
    lag = np.subtract.outer(np.arange(n_antennas), np.arange(n_antennas))
    lower = values[np.abs(lag)]
    cov = np.where(lag >= 0, lower, lower.conj())
    # zero displacement makes the integrand identically one
    np.fill_diagonal(cov, 1.0)
    return cov


def one_ring_factor(n_antennas, aod):
    """Plane-wave factor ``(basis, weights)`` of the one-ring covariance.

    Gauss-Legendre quadrature, with nodes cached per count, doubles the
    node count from 16 until no lag sum ``weights @ basis.T`` moves by
    ``QUADRATURE_TOL``. At that rule's q nodes x_q, ``basis`` (N, q) holds
    the steering vectors ``exp(-j*pi*n*cos(x_q))`` and ``weights`` (q,) is
    positive and sums to one, so ``basis diag(weights) basis^H`` is
    :func:`one_ring_covariance` up to roundoff and :func:`sample_channel`
    draws from the pair with no eigendecomposition. Raises as
    :func:`one_ring_covariance` does.
    """
    if n_antennas < 1:
        raise DimensionMismatch(f"n_antennas must be >= 1, got {n_antennas}")
    if not 0.0 <= aod < math.pi:
        raise DimensionMismatch(f"aod must lie in [0, pi), got {aod}")
    disp = 0.5 * np.arange(n_antennas)
    lo, hi = aod - ANGULAR_SPREAD, aod + ANGULAR_SPREAD

    def rule(n_nodes):
        nodes, weights = _gauss_legendre(n_nodes)
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * weights / (2.0 * ANGULAR_SPREAD)
        angle = -2.0 * math.pi * (np.cos(x)[:, None] * disp)
        # cos and sin written in place equal np.exp(1j * angle) value for value
        steering = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=steering.real)
        np.sin(angle, out=steering.imag)
        return steering, w, np.einsum("q,qd->d", w, steering)

    n_nodes = 16
    values = rule(n_nodes)[2]
    while True:
        n_nodes *= 2
        steering, weights, refined = rule(n_nodes)
        change = np.abs(refined - values).max()
        values = refined
        if change < QUADRATURE_TOL:
            return steering.T, weights
        if n_nodes >= MAX_QUADRATURE_NODES:
            raise ConvergenceFailure(
                f"one-ring quadrature still changed by {change:.3e} "
                f"(tolerance {QUADRATURE_TOL:.1e}) at {n_nodes} nodes"
            )


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n_nodes):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    The doubling asks only for powers of two from 16 to
    ``MAX_QUADRATURE_NODES``, so the cache holds at most 9 entries.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def kl_factorize(cov):
    """Truncated eigenfactorization ``cov ~= U diag(lam) U^H``.

    Returns orthonormal eigenvectors U (N x r) and the r eigenvalues above
    ``RANK_TOL`` times the largest, sorted descending. Kept only for the
    benchmark's channel layers and the tests.
    """
    cov = np.asarray(cov, dtype=complex)
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > RANK_TOL * max(vals[0], 0.0)
    return np.ascontiguousarray(vecs[:, keep]), vals[keep].copy()


def sample_channel(factorizations, rng):
    """Draw one block-fading channel from per-user factorizations.

    ``factorizations`` holds (basis, weights) pairs from :func:`one_ring_factor`
    or :func:`kl_factorize`; the basis need not be orthonormal. User k's
    column is ``basis_k diag(sqrt(w_k)) g_k`` with a fresh standard complex
    Gaussian g_k, one entry per weight, so its covariance is
    ``basis_k diag(w_k) basis_k^H``. Returns the (N, K) complex channel matrix.
    """
    columns = []
    for basis, weights in factorizations:
        rank = len(weights)
        if rank == 0:
            columns.append(np.zeros(basis.shape[0], dtype=complex))
        else:
            g = sample_complex_gaussian(rng, rank)
            columns.append(basis @ (np.sqrt(weights) * g))
    return np.column_stack(columns)


def draw_aods(rng, n_users, channel_mode):
    """Draw user angles of departure.

    "random_aod" draws each angle i.i.d. uniform over [0, pi).
    "correlated_aod" draws a common center uniformly over
    [pi/12, pi - pi/12] and then per-user offsets uniform over
    [-pi/12, pi/12], so all pairwise angle differences stay within pi/6.
    """
    if channel_mode == "random_aod":
        return rng.uniform(0.0, math.pi, size=n_users)
    if channel_mode == "correlated_aod":
        center = rng.uniform(math.pi / 12, math.pi - math.pi / 12)
        return center + rng.uniform(-math.pi / 12, math.pi / 12, size=n_users)
    raise DimensionMismatch(f"unknown channel mode {channel_mode!r}")
