"""Per-group Gaussian kernels and the Gram blocks a solve runs on.

One bandwidth gamma per group; the default comes from the per-group median
heuristic, with a shared-gamma override available at the call sites that
build KernelSpec. `gram_blocks` returns a GramBlocks container holding a
training set's d blocks. Each starts dense; the solver may ask the container,
once, to replace its blocks by pivoted-Cholesky factors L (n x r, Fine &
Scheinberg 2001; Harbrecht, Peters & Schneider 2012) when a solve runs long,
so that a product costs O(n r) instead of O(n^2). By construction a factor's
trace error tr(K - L L^T) is at most n * 1e-10. A factored block's exact
values are rebuilt from the training rows on demand, entry for entry as
first built. A GramBlocks serves the solver only: scoring and interpretation
build `cross_gram` blocks for one tile of rows at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .data import DataError, Dataset, GroupPartition

# Pivoted Cholesky stops once every remaining diagonal entry of K - L L^T is
# at most _FACTOR_EPS, so tr(K - L L^T) <= n * _FACTOR_EPS, and gives up at
# rank n / 2, where two products with L cost as much as one with K.
_FACTOR_EPS = 1e-10
# Rows rebuilt at once: of a factored block, for an exact product with it,
# and of a scored set of rows (query or training), whose cross-Gram blocks
# are never built whole, so scoring holds d n_train x _CHUNK_ROWS kernel
# values at a time.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian bandwidths, one per group: K(a, b) = exp(-gamma ||a - b||^2)."""

    gammas: tuple[float, ...]

    def __post_init__(self):
        gammas = tuple(float(g) for g in self.gammas)
        if any(g <= 0 for g in gammas):
            raise DataError("kernel bandwidths must be positive")
        object.__setattr__(self, "gammas", gammas)

    @classmethod
    def shared(cls, gamma: float, d: int) -> "KernelSpec":
        return cls(tuple(gamma for _ in range(d)))


def gaussian_kernel(a, b, gamma: float) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DataError("kernel arguments must have equal length")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("kernel arguments must be finite")
    if gamma <= 0:
        raise DataError("gamma must be positive")
    return float(np.exp(-gamma * np.sum((a - b) ** 2)))


def _kernel_matrix(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    # cdist sums explicit squared differences, so the result is exactly
    # symmetric and exactly zero for identical rows (unlike the gemm form),
    # and each entry is the same whichever rows are computed together.
    D = cdist(A, B, "sqeuclidean")
    D *= -gamma
    np.exp(D, out=D)
    return D


def _kernel_blocks(train: Dataset, other: Dataset, partition: GroupPartition,
                   spec: KernelSpec, groups=None) -> list[np.ndarray]:
    if len(spec.gammas) != partition.d:
        raise DataError("one gamma per group required")
    return [_kernel_matrix(train.samples[:, partition.groups[j]],
                           other.samples[:, partition.groups[j]],
                           spec.gammas[j])
            for j in (range(partition.d) if groups is None else groups)]


def _pivoted_cholesky(kernel_row, n: int):
    """L^T when K's factor L has rank below n / 2, else None.

    K is an n x n Gaussian Gram matrix (unit diagonal) and kernel_row(p) its
    row p; one row is read per step. L^T is stored row by row, so each
    step's update is one product with the rows found so far.
    """
    resid = np.ones(n)          # diagonal of K - L L^T
    Lt = np.empty((n // 2, n))
    for k in range(n // 2):
        p = int(np.argmax(resid))
        if resid[p] <= _FACTOR_EPS:
            return Lt[:k].copy()
        row = kernel_row(p) - Lt[:k, p] @ Lt[:k]
        row /= np.sqrt(resid[p])
        Lt[k] = row
        resid -= row * row
    return None


class GramBlocks(Sequence):
    """A training set's Gram blocks K_j, each dense or as a low-rank factor.

    `blocks[j]` is K_j as a read-only array (a factored block is rebuilt in
    full for the caller). `dot(j, v)` is the exact K_j v: a factored block's
    rows are rebuilt _CHUNK_ROWS at a time, bit for bit as first built.
    `fast_dot(j, v)` is L_j (L_j^T v) where block j is factored. Factoring
    is tried once, until `drop_factors` rebuilds the blocks dense; built from
    plain arrays (no training rows), the container never factors.
    `norms_sq` caches each block's spectral norm squared, taken while dense.
    """

    def __init__(self, blocks, rows=None, gammas=None):
        self._dense = list(blocks)
        self._rows, self._gammas = rows, gammas
        self._factors = [None] * len(self._dense)   # L_j^T where factored
        self._may_factor = rows is not None         # factoring not yet tried
        self.n = self._dense[0].shape[0] if self._dense else 0
        if any(K.shape != (self.n, self.n) for K in self._dense):
            raise DataError("Gram blocks must be square and of one size")
        self.norms_sq = {}

    def __len__(self):
        return len(self._dense)

    def __getitem__(self, j):
        K = self._dense[j]
        if K is None:
            K = self._kernel_rows(j, 0, self.n)
            K.setflags(write=False)
        return K

    def _kernel_rows(self, j, start, stop):
        X = self._rows[j]
        return _kernel_matrix(X[start:stop], X, self._gammas[j])

    def factored(self, j) -> bool:
        return self._factors[j] is not None

    def dot(self, j, v) -> np.ndarray:
        """Exact K_j v."""
        if self._dense[j] is not None:
            return self._dense[j] @ v
        out = np.empty(self.n)
        for start in range(0, self.n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, self.n)
            out[start:stop] = self._kernel_rows(j, start, stop) @ v
        return out

    def fast_dot(self, j, v) -> np.ndarray:
        """K_j v, through the factor L_j (L_j^T v) where block j has one."""
        Lt = self._factors[j]
        return self._dense[j] @ v if Lt is None else Lt.T @ (Lt @ v)

    def drop_factors(self):
        """Rebuild every factored block dense; factoring may then run again."""
        for j, Lt in enumerate(self._factors):
            if Lt is not None:
                self._dense[j] = self[j]
                self._factors[j] = None
                self._may_factor = True

    def factorize(self) -> bool:
        """Factor every block that allows it; True if any was factored.

        Tried once; later calls do nothing until `drop_factors`. A block is
        factored, and its dense array dropped, when its pivoted Cholesky
        factor has rank below n / 2; tr(K - L L^T) is at most n * 1e-10 by
        construction. The factor reads kernel rows rebuilt from the training
        rows, so the dense array is dropped first (and rebuilt if the block
        stays dense): memory never holds a factor beside all d dense blocks.
        """
        if not self._may_factor:
            return False
        self._may_factor = False
        for j in range(len(self)):
            self._dense[j] = None
            self._factors[j] = _pivoted_cholesky(
                lambda p: self._kernel_rows(j, p, p + 1)[0], self.n)
            if self._factors[j] is None:
                self._dense[j] = self[j]
        return any(Lt is not None for Lt in self._factors)


def gram_blocks(train: Dataset, partition: GroupPartition,
                spec: KernelSpec) -> GramBlocks:
    """Gram matrix of each group's kernel over the training samples."""
    blocks = _kernel_blocks(train, train, partition, spec)
    for B in blocks:
        B.setflags(write=False)
    rows = [train.samples[:, idx] for idx in partition.groups]
    return GramBlocks(blocks, rows, spec.gammas)


def cross_gram(train: Dataset, query: Dataset, partition: GroupPartition,
               spec: KernelSpec, *, groups=None) -> list[np.ndarray]:
    """Per-group kernel matrices between training rows and query rows.

    With `groups`, only those groups' blocks are built, in that order.
    """
    if query.feature_names != train.feature_names:
        raise DataError("query columns do not match training columns")
    return _kernel_blocks(train, query, partition, spec, groups)


def median_heuristic_gamma(train: Dataset,
                           partition: GroupPartition) -> KernelSpec:
    """gamma_j = 1 / median of nonzero pairwise squared distances in group j."""
    if train.n < 2:
        raise DataError("median heuristic requires at least 2 samples")
    gammas = []
    for j, idx in enumerate(partition.groups):
        # the upper triangle of _sq_dists(A, A), entry for entry
        d2 = pdist(train.samples[:, idx], "sqeuclidean")
        d2 = d2[d2 > 0]
        if d2.size == 0:
            raise DataError(f"all pairwise distances are zero in group "
                            f"{partition.group_names[j]!r}")
        gammas.append(1.0 / float(np.median(d2)))
    return KernelSpec(tuple(gammas))
