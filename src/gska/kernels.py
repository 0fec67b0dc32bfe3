"""Per-group Gaussian kernels and dense Gram blocks.

One bandwidth gamma per group; the default comes from the per-group median
heuristic, with a shared-gamma override available at the call sites that
build KernelSpec. Storage is dense: at the intended scale (n up to a few
thousand) d n^2 blocks are the simple, cache-friendly choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .data import DataError, Dataset, GroupPartition


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


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # cdist sums explicit squared differences, so the result is exactly
    # symmetric and exactly zero for identical rows (unlike the gemm form).
    return cdist(A, B, "sqeuclidean")


def _kernel_blocks(train: Dataset, other: Dataset, partition: GroupPartition,
                   spec: KernelSpec, groups=None) -> list[np.ndarray]:
    if len(spec.gammas) != partition.d:
        raise DataError("one gamma per group required")
    blocks = []
    for j in range(partition.d) if groups is None else groups:
        idx = partition.groups[j]
        D = _sq_dists(train.samples[:, idx], other.samples[:, idx])
        D *= -spec.gammas[j]
        np.exp(D, out=D)
        blocks.append(D)
    return blocks


def gram_blocks(train: Dataset, partition: GroupPartition,
                spec: KernelSpec) -> list[np.ndarray]:
    """Gram matrix of each group's kernel over the training samples."""
    blocks = _kernel_blocks(train, train, partition, spec)
    for B in blocks:
        B.setflags(write=False)
    return blocks


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
