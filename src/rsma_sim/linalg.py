"""Block-diagonal Hermitian solves, phase pinning, and seeded sampling.

Everything here operates on plain complex numpy arrays. The block-diagonal
container mirrors the structure of the solver's iteration matrices, whose
inversion cost must stay linear in the number of blocks. Those matrices are
positive definite by construction, so the block solve factors the whole
(m, n, n) stack with one batched Cholesky call, which doubles as the
singularity check: a block that is indefinite, or whose pivots fall below
tolerance, raises SingularMatrix naming that block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

# Relative pivot tolerance for the Cholesky check. The iteration matrices
# are positive definite but approach singularity at extreme SNR, so a
# block whose smallest squared pivot is at most PIVOT_RTOL times its
# Frobenius norm must raise instead of returning garbage.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class BlockDiag:
    """Block-diagonal Hermitian matrix stored as a (m, n, n) stack.

    Block j acts on the j-th length-n slice of a stacked vector.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.ascontiguousarray(np.asarray(self.blocks, dtype=complex))
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise DimensionMismatch(f"expected (m, n, n) block stack, got {blocks.shape}")
        herm_err = np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max()
        scale = max(np.abs(blocks).max(), 1.0)
        if herm_err > 1e-12 * scale:
            raise DimensionMismatch(f"blocks are not Hermitian (deviation {herm_err:.3e})")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_blocks(self):
        return self.blocks.shape[0]

    @property
    def block_dim(self):
        return self.blocks.shape[1]

    @property
    def size(self):
        return self.n_blocks * self.block_dim

    def matvec(self, v):
        """Apply the block-diagonal matrix to a stacked vector."""
        cols = np.asarray(v, dtype=complex).reshape(self.n_blocks, self.block_dim)
        return np.einsum("bij,bj->bi", self.blocks, cols).reshape(-1)


def _min_pivots(blocks):
    """Smallest squared Cholesky pivot of each block of a (m, n, n) stack.

    A block that is not positive definite gets -inf. The whole stack is
    factored in one call; only when that call fails are the blocks
    factored one at a time, to find which of them failed.
    """
    try:
        factors = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        if len(blocks) == 1:
            return np.array([-np.inf])
        return np.concatenate([_min_pivots(block[None]) for block in blocks])
    return np.diagonal(factors, axis1=1, axis2=2).real.min(axis=1) ** 2


def blockdiag_solve(bd, v):
    """Solve ``bd @ x = v`` for all blocks in one batched call.

    Every block must be positive definite, which the solver's denominator
    pencils are by construction. A batched Cholesky factorization checks
    this first: a block that is not positive definite, or whose smallest
    squared pivot is at most ``PIVOT_RTOL * ||block||_F``, raises
    SingularMatrix with its index.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (bd.size,):
        raise DimensionMismatch(f"vector shape {v.shape} != ({bd.size},)")
    pivots = _min_pivots(bd.blocks)
    tol = PIVOT_RTOL * np.linalg.norm(bd.blocks, axis=(1, 2))
    safe = pivots > tol
    if not safe.all():
        j = int(np.argmin(safe))
        reason = (
            "not positive definite" if pivots[j] == -np.inf
            else f"pivot {pivots[j]:.3e} below tolerance {tol[j]:.3e}"
        )
        raise SingularMatrix(f"block {j} singular: {reason}", block_index=j)
    cols = v.reshape(bd.n_blocks, bd.block_dim, 1)
    return np.linalg.solve(bd.blocks, cols).reshape(-1)


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


def seeded_rng(seed):
    """Counter-based (Philox) generator: same seed, same draws, any platform."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


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
