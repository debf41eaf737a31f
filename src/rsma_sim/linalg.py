"""Block-diagonal Hermitian solves and per-trial random streams.

Everything here operates on plain complex numpy arrays. The block-diagonal
container mirrors the structure of the solver's iteration matrices, one
per batch element: every block is one real diagonal shared by all blocks
plus nonnegatively weighted outer products of the same few vectors, so the
blocks are Hermitian by construction and their smallest eigenvalue is at
least the smallest diagonal entry. The block solve checks that floor
against each block's norm bound, which costs no factorization. It then
scales each element by its diagonal and takes one thin QR factorization of
its scaled vectors; on that orthonormal basis every block is the identity
plus a K x K matrix, so an element costs ``O(n K^2)`` plus ``O(m (n K + K^3))``
for its m blocks, and nothing of size n x n is formed or factored.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

# Relative tolerance of the singularity check. The iteration matrices are
# positive definite but approach singularity at extreme SNR, so a block
# whose diagonal floor is at most PIVOT_RTOL times its Frobenius norm bound
# must fail instead of returning garbage. The floor bounds every squared
# Cholesky pivot from below and the norm bound is at least the Frobenius
# norm, so no block with a squared Cholesky pivot at most PIVOT_RTOL times
# its Frobenius norm passes.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class BlockDiag:
    """Batch of B block-diagonal Hermitian matrices of m blocks of size n.

    Block j of element b is ``diag(diag[b]) + sum_k weights[b, j, k] v_k v_k^H``,
    where v_k is row k of ``vectors``: ``diag`` is (B, n) real, ``vectors``
    (K, n) complex and shared, ``weights`` (B, m, K) real. Block j acts on
    the j-th length-n slice of a stacked vector.

    Construction checks only that ``diag`` and ``weights`` are real; the
    solve's sign test cannot, as numpy orders complex numbers by real part
    (``1j >= 0``). Arrays are kept as given, with no shape check: in the
    package only ``kkt_matrices`` builds a pencil.
    """

    diag: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.diag) or np.iscomplexobj(self.weights):
            raise DimensionMismatch("diag and weights must be real")

    @property
    def batch(self):
        return self.diag.shape[0]

    @property
    def n_blocks(self):
        return self.weights.shape[1]

    @property
    def block_dim(self):
        return self.diag.shape[1]

    @property
    def size(self):
        return self.n_blocks * self.block_dim

    def matvec(self, v):
        """Apply each element to its stacked vector; v holds B * size entries."""
        cols = np.asarray(v, dtype=complex).reshape(self.batch, self.n_blocks, self.block_dim)
        coords = self.weights * (cols @ self.vectors.conj().T)
        return (cols * self.diag[:, None, :] + coords @ self.vectors).reshape(self.batch, -1)


def blockdiag_solve(bd, v):
    """Solve ``bd[b] @ x[b] = v[b]`` for every element b in one batched call.

    Returns ``(x, faults)``: ``faults[b]`` is None, or element b's error
    and ``x[b]`` NaN: DimensionMismatch for non-finite entries, else
    SingularMatrix naming the first block that fails the check. Block j
    passes when its weights are nonnegative and the floor ``min(diag[b])``
    (at most its smallest eigenvalue) exceeds PIVOT_RTOL times ``||diag[b]||
    + sum_k weights[b, j, k] ||v_k||^2`` (at least its Frobenius norm).

    With U the (n, K) matrix of the vectors, ``S = diag(diag[b])^-1/2`` and
    ``W_j = diag(weights[b, j]) >= 0``, block j of a passing element is
    ``S^-1 (I + S U W_j U^H S) S^-1``. One thin QR ``S U = Q R`` per element
    and ``y_j = S v_j`` give ``x_j = S [(I - QQ^H) y_j + Q M_j^-1 Q^H y_j]``,
    where ``M_j = I + R W_j R^H`` has every eigenvalue at least 1 (Woodbury
    on an orthonormal basis); the K x K systems of all blocks of all
    elements go through one batched solve. ``I - QQ^H`` is applied twice:
    one pass leaves roundoff of order ``eps ||y_j||`` inside range(Q), where
    the block's gain amplifies it (Giraud, Langou & Rozloznik 2005).
    """
    v = np.asarray(v, dtype=complex)
    if v.size != bd.batch * bd.size:
        raise DimensionMismatch(f"vector shape {v.shape} != ({bd.batch}, {bd.size})")
    v = v.reshape(bd.batch, bd.size)
    # ufunc reductions: at the solver's sizes the array methods' argument handling costs more
    floor = np.minimum.reduce(bd.diag, axis=1)
    tol = PIVOT_RTOL * (np.sqrt(np.add.reduce(bd.diag ** 2, axis=1))[:, None]
                        + bd.weights @ np.add.reduce(np.abs(bd.vectors) ** 2, axis=1))
    nonnegative = np.logical_and.reduce(bd.weights >= 0, axis=2)
    # non-finite entries make floor or tol NaN or infinite, or finite False, failing the check
    finite = np.logical_and.reduce(np.isfinite(v), axis=1)
    safe = nonnegative & (floor[:, None] > tol) & finite[:, None]
    faults, weights, diag, rhs = [None] * bd.batch, bd.weights, bd.diag, v
    if not safe.all():
        ok = np.logical_and.reduce(safe, axis=1)
        for b in np.flatnonzero(~ok):
            j = int(np.argmin(safe[b]))
            reason = "negative weight" if not nonnegative[b, j] else (
                f"diagonal floor {floor[b]:.3e} below tolerance {tol[b, j]:.3e}")
            faults[b] = SingularMatrix(f"block {j} singular: {reason}", block_index=j)
            if not all(np.isfinite(a).all() for a in (diag[b], weights[b], bd.vectors, v[b])):
                faults[b] = DimensionMismatch("pencil entries and right-hand side must be finite")
        weights, diag, rhs = weights[ok], diag[ok], v[ok]
    count, m, n, k = len(rhs), bd.n_blocks, bd.block_dim, len(bd.vectors)
    scale = diag ** -0.5
    q, r = np.linalg.qr(scale[..., None] * bd.vectors.T)
    rank = q.shape[-1]
    qt, qh = q.transpose(0, 2, 1), q.conj()
    y = scale[:, None, :] * rhs.reshape(count, m, n)
    # rows hold the blocks' vectors, so y @ conj(Q) is Q^H y and c @ Q^T is Q c
    coords = y @ qh
    outside = y - coords @ qt
    # M_j = I + sum_k weights[b, j, k] r_k r_k^H over the columns r_k of R
    rt = r.transpose(0, 2, 1)
    kernel = weights @ (rt[..., :, None] * rt.conj()[..., None, :]).reshape(count, k, rank * rank)
    kernel[..., :: rank + 1] += 1.0
    inside = np.linalg.solve(kernel.reshape(count, m, rank, rank), coords[..., None])[..., 0]
    # the second pass of I - QQ^H folds into the last product
    solved = scale[:, None, :] * (outside + (inside - outside @ qh) @ qt)
    if count == bd.batch:
        return solved.reshape(count, m * n), faults
    x = np.full_like(v, np.nan)
    x[ok] = solved.reshape(count, m * n)
    return x, faults


def trial_rng(base_seed, trial_index):
    """Independent per-trial stream keyed on (base_seed, trial_index).

    Streams do not overlap and do not depend on the order in which trials
    execute, which keeps parallel Monte Carlo runs deterministic.
    """
    ss = np.random.SeedSequence(base_seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.Philox(ss))
