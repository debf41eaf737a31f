"""Spatially correlated channel generation via the one-ring scattering model.

Each user's N x N spatial covariance is an integral over the scatter ring
around its angle of departure; channels are then drawn through a
Karhunen-Loeve factorization of that covariance. Antenna positions are
expressed in carrier wavelengths, which absorbs the wavelength constant
into the geometry.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch
from .linalg import sample_complex_gaussian

DEFAULT_ANGULAR_SPREAD = math.pi / 6
# Eigenvalues below this fraction of the largest are treated as numerical
# rank deficiency and truncated.
DEFAULT_RANK_TOL = 1e-10
# Node count past which the one-ring quadrature gives up.
MAX_QUADRATURE_NODES = 4096


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna positions in the plane, in units of wavelength."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise DimensionMismatch(f"positions must be (N, 2), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise DimensionMismatch("antenna positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n_antennas(self):
        return self.positions.shape[0]


def half_wavelength_ula(n_antennas):
    """Uniform linear array along the x axis with half-wavelength spacing."""
    pos = np.zeros((n_antennas, 2))
    pos[:, 0] = 0.5 * np.arange(n_antennas)
    return ArrayGeometry(pos)


@dataclass(frozen=True)
class UserGeometry:
    """Angle of departure (radians) and angular spread of one user's ring."""

    aod: float
    spread: float = DEFAULT_ANGULAR_SPREAD

    def __post_init__(self):
        if not 0.0 <= self.aod < math.pi:
            raise DimensionMismatch(f"aod must lie in [0, pi), got {self.aod}")
        if not self.spread > 0.0:
            raise DimensionMismatch(f"spread must be positive, got {self.spread}")


def one_ring_covariance(geom, user, abs_tol=1e-10):
    """Spatial covariance of the one-ring model for one user.

    Entry (n, m) averages ``exp(-j*2*pi * [cos x, sin x] . (r_n - r_m))``
    over the ring ``x in [aod - spread, aod + spread]``. The integrand
    depends only on the displacement ``r_n - r_m``, so the integral is
    evaluated once per distinct displacement (2N - 1 of them for a ULA)
    and scattered back to the N x N matrix. Gauss-Legendre quadrature,
    with nodes cached per count, doubles the node count until every entry
    changes by less than ``abs_tol``.

    Raises
    ------
    ConvergenceFailure
        If the estimate still moves by ``abs_tol`` or more at
        ``MAX_QUADRATURE_NODES`` (4096) nodes.
    """
    pos = geom.positions
    dx = pos[:, 0][:, None] - pos[:, 0][None, :]
    dy = pos[:, 1][:, None] - pos[:, 1][None, :]
    disp, inverse = np.unique((dx + 1j * dy).ravel(), return_inverse=True)
    dx, dy = disp.real, disp.imag
    lo, hi = user.aod - user.spread, user.aod + user.spread

    def estimate(n_nodes):
        nodes, weights = _gauss_legendre(n_nodes)
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * weights / (2.0 * user.spread)
        phase = np.cos(x)[:, None] * dx + np.sin(x)[:, None] * dy
        return np.einsum("q,qd->d", w, np.exp(-2j * math.pi * phase))

    n_nodes = 16
    values = estimate(n_nodes)
    while True:
        n_nodes *= 2
        refined = estimate(n_nodes)
        change = np.abs(refined - values).max()
        values = refined
        if change < abs_tol:
            break
        if n_nodes >= MAX_QUADRATURE_NODES:
            raise ConvergenceFailure(
                f"one-ring quadrature still changed by {change:.3e} "
                f"(tolerance {abs_tol:.1e}) at {n_nodes} nodes"
            )
    cov = values[inverse].reshape(geom.n_antennas, geom.n_antennas)
    cov = 0.5 * (cov + cov.conj().T)
    # zero displacement makes the integrand identically one
    np.fill_diagonal(cov, 1.0)
    return cov


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


def kl_factorize(cov, rank_tol=DEFAULT_RANK_TOL):
    """Truncated eigenfactorization ``cov ~= U diag(lam) U^H``.

    Returns orthonormal eigenvectors U (N x r) and the r eigenvalues above
    ``rank_tol`` times the largest, sorted descending.
    """
    cov = np.asarray(cov, dtype=complex)
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > rank_tol * max(vals[0], 0.0)
    return np.ascontiguousarray(vecs[:, keep]), vals[keep].copy()


def sample_channel(factorizations, rng):
    """Draw one block-fading channel from per-user factorizations.

    ``factorizations`` is a sequence of (U, eigenvalues) pairs as returned
    by :func:`kl_factorize`; user k's column is ``U_k diag(sqrt(lam_k)) g_k``
    with a fresh standard complex Gaussian g_k. Returns the (N, K)
    complex channel matrix.
    """
    columns = []
    for basis, eigvals in factorizations:
        rank = len(eigvals)
        if rank == 0:
            columns.append(np.zeros(basis.shape[0], dtype=complex))
        else:
            g = sample_complex_gaussian(rng, rank)
            columns.append(basis @ (np.sqrt(eigvals) * g))
    return np.column_stack(columns)


def draw_aods(rng, n_users, mode):
    """Draw user angles of departure.

    "random" draws each angle i.i.d. uniform over [0, pi). "correlated"
    draws a common center uniformly over [pi/12, pi - pi/12] and then
    per-user offsets uniform over [-pi/12, pi/12], so all pairwise angle
    differences stay within pi/6.
    """
    if mode == "random":
        return rng.uniform(0.0, math.pi, size=n_users)
    if mode == "correlated":
        center = rng.uniform(math.pi / 12, math.pi - math.pi / 12)
        return center + rng.uniform(-math.pi / 12, math.pi / 12, size=n_users)
    raise DimensionMismatch(f"unknown aod mode {mode!r}")


def effective_channel(profile, channel):
    """Channel as seen through the converter gains.

    Column k is scaled elementwise by the per-antenna DAC gains and by
    user k's ADC gain; with infinite resolutions this is the channel
    itself.
    """
    channel = np.asarray(channel, dtype=complex)
    if channel.shape != (profile.n_antennas, profile.n_users):
        raise DimensionMismatch(
            f"channel {channel.shape} inconsistent with profile "
            f"({profile.n_antennas} antennas, {profile.n_users} users)"
        )
    return profile.dac_alpha[:, None] * channel * profile.adc_alpha[None, :]
