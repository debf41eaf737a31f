"""Block-diagonal Hermitian solves, phase pinning, and seeded sampling.

Everything here operates on plain complex numpy arrays. The block-diagonal
container mirrors the structure of the solver's iteration matrices: every
block is one real diagonal shared by all blocks plus nonnegatively weighted
outer products of the same few vectors, so the blocks are Hermitian by
construction and their smallest eigenvalue is at least the smallest
diagonal entry. The block solve checks that floor against each block's
norm bound, which costs no factorization, and then solves the whole
(m, n, n) stack with one batched LU call; a block that fails the check
raises SingularMatrix naming that block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

# Relative tolerance of the singularity check. The iteration matrices are
# positive definite but approach singularity at extreme SNR, so a block
# whose diagonal floor is at most PIVOT_RTOL times its Frobenius norm bound
# must raise instead of returning garbage. The floor bounds every squared
# Cholesky pivot from below and the norm bound is at least the Frobenius
# norm, so no block with a squared Cholesky pivot at most PIVOT_RTOL times
# its Frobenius norm passes.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class BlockDiag:
    """Block-diagonal Hermitian matrix of m blocks of size n.

    Block j is ``diag(diag) + sum_k weights[j, k] v_k v_k^H``, where v_k
    is row k of ``vectors``: ``diag`` is (n,) real, ``vectors`` (K, n)
    complex and ``weights`` (m, K) real. Block j acts on the j-th
    length-n slice of a stacked vector.
    """

    diag: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.diag) or np.iscomplexobj(self.weights):
            raise DimensionMismatch("diag and weights must be real")
        diag = np.asarray(self.diag, dtype=float)
        vectors = np.asarray(self.vectors, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if (
            diag.ndim != 1 or diag.size == 0 or weights.ndim != 2
            or weights.shape[0] == 0 or vectors.shape != (weights.shape[1], diag.size)
        ):
            raise DimensionMismatch(
                f"expected diag (n,), vectors (K, n), weights (m, K); got "
                f"{diag.shape}, {vectors.shape}, {weights.shape}"
            )
        if not (np.isfinite(diag).all() and np.isfinite(weights).all()
                and np.isfinite(vectors).all()):
            raise DimensionMismatch("diag, vectors and weights must be finite")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "weights", weights)

    @property
    def n_blocks(self):
        return self.weights.shape[0]

    @property
    def block_dim(self):
        return self.diag.size

    @property
    def size(self):
        return self.n_blocks * self.block_dim

    def matvec(self, v):
        """Apply the block-diagonal matrix to a stacked vector."""
        cols = np.asarray(v, dtype=complex).reshape(self.n_blocks, self.block_dim)
        coords = self.weights * (cols @ self.vectors.conj().T)
        return (cols * self.diag + coords @ self.vectors).reshape(-1)


def blockdiag_solve(bd, v):
    """Solve ``bd @ x = v`` for all blocks in one batched call.

    Block j passes the singularity check when its weights are nonnegative
    and the diagonal floor ``min(bd.diag)``, a lower bound on its smallest
    eigenvalue, exceeds PIVOT_RTOL times ``||diag||_2 + sum_k weights[j, k]
    ||v_k||^2``, an upper bound on its Frobenius norm. The first block
    that fails raises SingularMatrix with its index. The blocks are then
    formed with one batched matmul and solved with one batched LU.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (bd.size,):
        raise DimensionMismatch(f"vector shape {v.shape} != ({bd.size},)")
    floor = bd.diag.min()
    tol = PIVOT_RTOL * (
        np.linalg.norm(bd.diag) + bd.weights @ (np.abs(bd.vectors) ** 2).sum(axis=1)
    )
    nonnegative = (bd.weights >= 0).all(axis=1)
    safe = nonnegative & (floor > tol)
    if not safe.all():
        j = int(np.argmin(safe))
        reason = (
            "negative weight" if not nonnegative[j]
            else f"diagonal floor {floor:.3e} below tolerance {tol[j]:.3e}"
        )
        raise SingularMatrix(f"block {j} singular: {reason}", block_index=j)
    blocks = (bd.weights[:, None, :] * bd.vectors.T) @ bd.vectors.conj()
    blocks.reshape(bd.n_blocks, -1)[:, :: bd.block_dim + 1] += bd.diag
    cols = v.reshape(bd.n_blocks, bd.block_dim, 1)
    return np.linalg.solve(blocks, cols).reshape(-1)


def canonical_phase(v):
    """Rotate a complex vector so its largest-magnitude entry is real positive.

    Eigenvectors and stacked precoders carry an arbitrary global phase;
    pinning it makes vector differences across iterations and runs
    well defined. The zero vector is returned unchanged.
    """
    v = np.asarray(v, dtype=complex)
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if pivot == 0:
        return v.copy()
    return v * (np.conj(pivot) / np.abs(pivot))


def trial_rng(base_seed, trial_index):
    """Independent per-trial stream keyed on (base_seed, trial_index).

    Streams do not overlap and do not depend on the order in which trials
    execute, which keeps parallel Monte Carlo runs deterministic.
    """
    ss = np.random.SeedSequence(base_seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.Philox(ss))


def sample_complex_gaussian(rng, n):
    """Draw n i.i.d. circularly symmetric complex normal values.

    Zero mean, unit variance: real and imaginary parts each carry
    variance 1/2.
    """
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
