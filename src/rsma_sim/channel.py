"""Spatially correlated channel generation via the one-ring scattering model.

The access point is a uniform linear array with half-wavelength spacing.
Each user's N x N spatial covariance is an integral over the scatter ring
around its angle of departure; channels are drawn straight from the plane
waves of the quadrature that evaluates it, with no eigendecomposition.

The quadrature never evaluates all N phases of a node. Lag r + split*m,
with split = ceil(sqrt(N)), is the product of the phases of lags r and
split*m, so each doubling level takes cos and sin of at most 2*split
phases per node. Product-built values sit within ``16*N*pi*eps`` of the
directly evaluated ones; a stop test that lands within that band of
``QUADRATURE_TOL`` is redone on exact phases, so the rule stops where a
doubling over exact phases does. :func:`one_ring_covariance` is bit-exact
(lag sums over exact phases); :func:`one_ring_factor`'s basis is
product-built and agrees with the exact steering vectors to that band.
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
    and the matrix is filled as a Hermitian Toeplitz matrix. The lag sums
    are taken once, at the stopping rule's nodes, over phases evaluated
    directly for every lag, not built as products, so the result is
    bit-exact: it equals a doubling over all N^2 entries value for value.

    Raises
    ------
    DimensionMismatch
        If ``n_antennas`` is not an integer >= 1 (a bool is not) or
        ``aod`` lies outside [0, pi).
    ConvergenceFailure
        If the estimate still moves by ``QUADRATURE_TOL`` or more at
        ``MAX_QUADRATURE_NODES`` (4096) nodes.
    """
    x, weights, _ = _one_ring_rule(n_antennas, aod)
    values = _lag_sums(x, weights, n_antennas)
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
    draws from the pair with no eigendecomposition.

    No level evaluates N phases per node. With ``split = ceil(sqrt(N))``,
    the phase of lag ``d = r + split*m`` is the product of the phases of
    lags r < split and split*m, so each level takes cos and sin of at most
    2*split phases per node and tests its stop rule on lag sums built
    from those products; the returned basis is the last level's outer
    product, each entry within ``16*N*pi*eps`` of the directly evaluated
    phase. A stop test whose change lies within that band of
    ``QUADRATURE_TOL``, and the test at ``MAX_QUADRATURE_NODES``, is redone
    on the exact lag sums of :func:`one_ring_covariance`, so the node
    count, and so ``weights``, is that of a doubling over exact phases.
    Raises as :func:`one_ring_covariance` does.
    """
    _, weights, (inner, outer) = _one_ring_rule(n_antennas, aod)
    basis = (outer[:, None] * inner).reshape(-1, len(weights))
    return basis[:n_antennas], weights


def _one_ring_rule(n_antennas, aod):
    """Nodes, weights and split phase tables of the converged one-ring rule.

    Returns ``(x, w, (inner, outer))`` for q nodes: inner (split, q) holds
    the plane waves of lags r < split and outer (ceil(N / split), q) those
    of lags split*m.
    """
    if isinstance(n_antennas, bool) or not isinstance(n_antennas, (int, np.integer)):
        raise DimensionMismatch(f"n_antennas must be an integer, got {n_antennas!r}")
    if n_antennas < 1:
        raise DimensionMismatch(f"n_antennas must be >= 1, got {n_antennas}")
    if not 0.0 <= aod < math.pi:
        raise DimensionMismatch(f"aod must lie in [0, pi), got {aod}")
    split, angles, band = _split_phases(n_antennas)
    lo, hi = aod - ANGULAR_SPREAD, aod + ANGULAR_SPREAD

    def level(n_nodes):
        nodes, weights = _gauss_legendre(n_nodes)
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * weights / (2.0 * ANGULAR_SPREAD)
        table = _plane_waves(angles * np.cos(x))
        inner, outer = table[:split], table[split:]
        sums = np.dot(outer * w, inner.T).ravel()[:n_antennas]
        return (x, w, (inner, outer)), sums

    n_nodes = 16
    coarse, values = level(n_nodes)
    while True:
        n_nodes *= 2
        fine, refined = level(n_nodes)
        change = np.abs(refined - values).max()
        last = n_nodes >= MAX_QUADRATURE_NODES
        if last or abs(change - QUADRATURE_TOL) <= band:
            # product-built sums may sit on the other side of the tolerance
            exact, exact_coarse = (_lag_sums(x, w, n_antennas) for x, w, _ in (fine, coarse))
            change = np.abs(exact - exact_coarse).max()
        if change < QUADRATURE_TOL:
            return fine
        if last:
            raise ConvergenceFailure(
                f"one-ring quadrature still changed by {change:.3e} "
                f"(tolerance {QUADRATURE_TOL:.1e}) at {n_nodes} nodes"
            )
        coarse, values = fine, refined


@functools.lru_cache(maxsize=16)
def _split_phases(n_antennas):
    """``(split, angles, band)`` of the split phase tables for N antennas.

    ``split = ceil(sqrt(N))``; the column ``angles`` holds ``-pi*d`` for the
    lags d = 0..split-1 and then d = split*m < N, so a level's tables take at
    most 2*ceil(sqrt(N)) phases per node. ``band`` bounds how far a
    product-built lag sum, and so a stop test's change, may sit from the
    exact one: phase roundoff grows with the lag, and over 1,016 rules
    with N from 1 to 256 no lag sum moved by more than 0.5*N*pi*eps.
    """
    split = math.isqrt(n_antennas - 1) + 1
    angles = -math.pi * np.array([*range(split), *range(0, n_antennas, split)], dtype=float)[:, None]
    angles.flags.writeable = False
    return split, angles, 16 * n_antennas * math.pi * np.finfo(float).eps


def _plane_waves(angle):
    """``exp(j*angle)`` for a real array of angles."""
    # cos and sin written in place equal np.exp(1j * angle) value for value
    waves = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=waves.real)
    np.sin(angle, out=waves.imag)
    return waves


def _lag_sums(x, w, n_antennas):
    """Exact lag sums ``sum_q w_q exp(-j*pi*d*cos(x_q))`` for d < N."""
    angle = -2.0 * math.pi * (np.cos(x)[:, None] * (0.5 * np.arange(n_antennas)))
    return np.einsum("q,qd->d", w, _plane_waves(angle))


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
