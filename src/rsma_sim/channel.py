"""Spatially correlated channel generation via the one-ring scattering model.

The access point is a uniform linear array with half-wavelength spacing.
Each user's N x N spatial covariance is an integral over the scatter ring
around its angle of departure; channels are drawn straight from the plane
waves of the quadrature that evaluates it, with no eigendecomposition.

The quadrature is one Gauss-Legendre rule whose node count q(N) an
a-priori error bound fixes, so no rule is refined or retested. No code
forms the (N, q) steering matrix or evaluates all N phases of a node. With
z = exp(-j*pi*cos(x)) at a node x and split = ceil(sqrt(N)), the phase of
lag r + split*m is z^r * (z^split)^m: one plane wave per node fills the
tables of z^r (r < split) and z^(split*m) by products, each within
``16*N*pi*eps`` of the directly evaluated phase. :func:`sample_channel`
draws all users of a channel through the tables at once.
"""

import functools
import math

import numpy as np

from .errors import DimensionMismatch, integer, shown

# Largest antenna count, and the harness's bound on N and K. At N = 2048 the rule has q = 1,756
# nodes, and leggauss(1756) runs once per process: about 0.5 s on one core (0.85 s for 2048)
MAX_SIZE = 2048
# Half-width of every user's scatter ring around its angle of departure.
ANGULAR_SPREAD = math.pi / 6
# Largest error of any covariance entry that the node count q(N) admits.
QUADRATURE_TOL = 1e-10
# Users x nodes x antennas of one batch of sample_channel: one batch for all
# users at N = K = 2048 (q = 1,756) would hold gigabytes of tables.
_BATCH_ENTRIES = 2**20
CHANNEL_MODES = ("random_aod", "correlated_aod")


def sample_channel(n_antennas, aods, rng):
    """Draw one block-fading channel for users at the given angles of departure.

    User k's column is the one-ring plane-wave sum ``sum_q c_q a(x_q)``
    with ``c = sqrt(weights) * g`` over the q(N)-node rule on the ring
    around ``aods[k]``, and g a standard complex Gaussian with one entry
    per node. All users' g come from one ``rng.standard_normal((K, 2, q))``
    call, which takes them user by user (real parts, then imaginary parts),
    as K draws of q values would. With the split tables ``inner`` of z^r and
    ``outer`` of z^(split*m), the columns are ``((outer * c) @ inner.T)``
    cut to N entries, one batched product over the users, so each user's
    covariance is the rule's ``sum_q weights[q] a(x_q) a(x_q)^H`` up to
    roundoff. Returns the (N, K) complex channel matrix.

    Raises
    ------
    DimensionMismatch
        If ``n_antennas`` is not an integer in 1..MAX_SIZE (a bool is not)
        or an AoD lies outside [0, pi).
    """
    x, weights = _one_ring_rule(n_antennas, aods)
    n_users, n_nodes = x.shape
    g = rng.standard_normal((n_users, 2, n_nodes))
    c = np.sqrt(weights) * ((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    channel = np.empty((n_antennas, n_users), dtype=complex)
    batch = max(1, _BATCH_ENTRIES // (n_nodes * n_antennas))
    for start in range(0, n_users, batch):
        users = slice(start, start + batch)
        inner, outer = _split_tables(n_antennas, x[users])
        # (k, n_outer, q) @ (k, q, split): row m, column r of user k is antenna r + split*m
        blocks = np.matmul((outer * c[users]).transpose(1, 0, 2), inner.transpose(1, 2, 0))
        channel[:, users] = blocks.reshape(len(blocks), -1)[:, :n_antennas].T
    return channel


def _one_ring_rule(n_antennas, aods):
    """Nodes ``x`` (K, q) of the q(N)-node rule on each user's ring, and its weights (q,)."""
    integer(n_antennas, "n_antennas", most=MAX_SIZE, error=DimensionMismatch)
    for aod in aods:
        if not 0.0 <= aod < math.pi:
            raise DimensionMismatch(f"aod must lie in [0, pi), got {shown(aod)}")
    nodes, weights = _gauss_legendre(_node_count(n_antennas))
    # the ring has length 2*ANGULAR_SPREAD, so weights summing to one are half the [-1, 1] ones
    return np.asarray(aods, dtype=float)[:, None] + ANGULAR_SPREAD * nodes, 0.5 * weights


@functools.lru_cache(maxsize=None)
def _node_count(n_antennas):
    """Node count q(N) of a Gauss-Legendre rule whose lag sums all lie within ``QUADRATURE_TOL``.

    On the ring ``x = aod + ANGULAR_SPREAD * t``, lag d's integrand
    ``exp(-j*pi*d*cos(x))`` is entire in t. On the Bernstein ellipse E_rho,
    where ``|Im t| <= (rho - 1/rho) / 2``, its modulus is at most
    ``M = exp(pi*(N-1)*sinh(ANGULAR_SPREAD*(rho - 1/rho)/2))`` for every
    lag d < N and every AoD. A q-node rule is exact to degree 2q - 1, so
    with weights summing to one it errs by at most
    ``(32/15) * M * rho**(2 - 2q) / (rho**2 - 1)`` for q >= 2 (Trefethen,
    "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM Review 50(1),
    2008, Theorem 4.5, whose rule I_n has n + 1 nodes). q(N) is the least
    q >= 2 whose bound meets ``QUADRATURE_TOL`` at some rho of a grid that
    holds the optimum for every N up to 2048: q(4) = 13, q(64) = 75 and
    q(2048) = 1,756. Cached per N.
    """
    rho = 1.0 + np.geomspace(1e-3, 1e3, 2001)
    log_m = math.pi * (n_antennas - 1) * np.sinh(0.5 * ANGULAR_SPREAD * (rho - 1.0 / rho))
    # log of (32/15) * M * rho**2 / (rho**2 - 1) / QUADRATURE_TOL, which 2*q*log(rho) must reach
    excess = math.log(32.0 / 15.0 / QUADRATURE_TOL) + log_m + np.log(rho**2 / (rho**2 - 1.0))
    return max(2, math.ceil((excess / (2.0 * np.log(rho))).min()))


def _split_tables(n_antennas, x):
    """Tables ``inner`` (split,) + x.shape and ``outer`` (ceil(N / split),) + x.shape at nodes x."""
    split = math.isqrt(n_antennas - 1) + 1
    z = np.exp(1j * (-math.pi * np.cos(x)))
    inner = _powers(z, split)
    return inner, _powers(inner[-1] * z, -(-n_antennas // split))


def _powers(base, count):
    """``base**k`` for k < count, a (count,) + base.shape table filled in ceil(log2(count)) doublings."""
    table = np.empty((count,) + base.shape, dtype=complex)
    table[0] = 1.0
    table[1:2] = base  # no row to fill when count is 1
    filled = 2
    while filled < count:
        grow = min(filled, count - filled)
        # rows filled..filled+grow-1 are rows 0..grow-1 times base**filled
        np.multiply(table[:grow], table[filled - 1] * base, out=table[filled:filled + grow])
        filled += grow
    return table


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n_nodes):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    Asked only for q(N), so the cache holds one entry per antenna count
    drawn for.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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
    raise DimensionMismatch(f"unknown channel mode {shown(channel_mode)}")
