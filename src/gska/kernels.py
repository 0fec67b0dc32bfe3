"""Per-group Gaussian kernels and the Gram blocks a solve runs on.

One bandwidth gamma per group; the default comes from the per-group median
heuristic, with a shared-gamma override available at the call sites that
build KernelSpec. `gram_blocks` returns a GramBlocks container for a
training set's d blocks that holds the training rows and the bandwidths but
no block: each is built dense the first time a product or a caller needs
it, so a solve that goes to the bases after reading one block's gradient
never holds the others. The solver may ask the container, once, to replace
every block by an orthonormal eigenbasis U_j with eigenvalues Lambda_j,
K_j ~ U_j diag(Lambda_j) U_j^T, for a solve far below lambda_max.
Every basis is built to an error budget B, the spectral-norm error
||K_j - U_j Lambda_j U_j^T||_2 the solve that asks for it allows
(solver.basis_budget), and the container records the budget its bases meet.
A block whose pivoted-Cholesky factor L (n x r, Fine & Scheinberg 2001;
Harbrecht, Peters & Schneider 2012) reaches tr(K - L L^T) <= B, which bounds
the spectral norm of that PSD error, at a rank below n / 2 takes its basis
from the thin SVD of L, so that a product costs O(n r) instead of O(n^2).
Any other block takes its basis from a full eigendecomposition, keeping the
eigenvalues above B. Both decompositions are plain numpy calls (QR and SVD,
or eigh), so they run in the one LAPACK and BLAS that pivoted Cholesky and
the solver's products use too. The bases are built one block at a time,
each block's factor or rebuilt dense array freed before the next block
starts, and are then stacked once into one array of the rows U_j^T, so
that a solve's gradients for all blocks take one product with the stack,
and its summed margins another. Beside the bases built so far, a full-rank
block's eigendecomposition holds three n x n arrays while it runs, and a
factor's QR four n x r_j arrays; the stacking holds the bases twice. While
the bases are held, a block's exact values are rebuilt from the training
rows on demand, entry for entry as its dense array is built. A GramBlocks
serves the solver only: scoring and interpretation build `cross_gram`
blocks for one tile of rows at a time.

The median heuristic selects its median by counting (Floyd & Rivest 1975):
the quantiles of about m^(2/3) evenly spread pairs, of the m = n(n - 1)/2,
bracket the median, and one sweep over the strict upper triangle of the
squared distances, a tile of rows at a time, counts the zeros and the
entries below the bracket and keeps the entries inside it. The median of
the positive entries is then selected from those few, bit for bit the
value `np.median` gives over all of them; a bracket that misses widens on
the side it missed and sweeps again. A sweep holds about 0.6 MB of tiles
whatever n is, beside the candidates, about 3 m^(2/3) values.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import DataError, Dataset, GroupPartition

# No basis is built to a budget below n * _FACTOR_EPS (GramBlocks.floor):
# there the decompositions' own rounding is no longer negligible. Pivoted
# Cholesky gives up at rank n / 2, where two products with L cost as much
# as one with K.
_FACTOR_EPS = 1e-10
# Rows of a block held in a basis rebuilt at once, for an exact product
_CHUNK_ROWS = 256
# Squared distances the median heuristic's sweep computes at once: a tile of
# _MEDIAN_TILE_ENTRIES // n rows, so that its buffers stay small and reused
_MEDIAN_TILE_ENTRIES = 1 << 16
# Half-width of the median's bracket, in standard errors of the sampled
# median's rank (sqrt(s) / 2 of s sampled pairs)
_BRACKET_Z = 3.0


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian bandwidths, one per group: K(a, b) = exp(-gamma ||a - b||^2)."""

    gammas: tuple[float, ...]

    def __post_init__(self):
        gammas = tuple(float(g) for g in self.gammas)
        if any(g <= 0 for g in gammas):
            raise DataError("kernel bandwidths must be positive")
        if not all(g < np.inf for g in gammas):
            raise DataError(f"kernel bandwidths must be finite, got "
                            f"gammas={gammas!r}")
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
    with np.errstate(over="ignore"):    # -inf where it overflows: exp gives 0
        D *= -gamma
    np.exp(D, out=D)
    return D


def _pivoted_cholesky(kernel_row, n: int, budget: float):
    """L^T with tr(K - L L^T) <= budget when such an L has rank below n / 2,
    else None.

    K is an n x n Gaussian Gram matrix (unit diagonal) and kernel_row(p) its
    row p; one row is read per step. L^T is stored row by row, so each
    step's update is one product with the rows found so far.
    """
    resid = np.ones(n)          # diagonal of K - L L^T
    Lt = np.empty((n // 2, n))
    for k in range(n // 2):
        if resid.sum() <= budget:
            return Lt[:k].copy()
        p = int(np.argmax(resid))
        row = kernel_row(p) - Lt[:k, p] @ Lt[:k]
        row /= np.sqrt(resid[p])
        Lt[k] = row
        resid -= row * row
    return None


def _basis_from_factor(Lt):
    """(U^T, s^2) with L L^T = U diag(s^2) U^T, from the factor's rows L^T.

    L = U diag(s) V^T, so L L^T = U s^2 U^T. Householder QR L = Q R
    (reduced), then the SVD R = W diag(s) V^T of the small r x r factor:
    U = Q W is orthonormal to rounding (eigenvectors of an explicit L^T L
    are not), and U^T = W^T Q^T is one product, a new r x n array. While
    the QR runs, four n x r arrays sit beside Lt (numpy's copy of L and its
    Q, and its LAPACK wrapper's workspace copies of both: 21 MiB at
    n = 2000, r = 350).
    """
    Q, R = np.linalg.qr(Lt.T)
    W, s, _ = np.linalg.svd(R)
    return W.T @ Q.T, s * s


def _basis_from_gram(K, budget: float):
    """(U^T, Lambda): the eigenvectors of K with eigenvalues above budget,
    one per row, in ascending order of eigenvalue.

    Divide and conquer (LAPACK syevd). Beside K and LAPACK's workspace it
    holds two n x n arrays: numpy's copy of K, which LAPACK overwrites with
    the eigenvectors, and U, into which numpy copies them. The kept rows are
    copied into an array of their own, so that U is freed on return.
    """
    w, U = np.linalg.eigh(K)
    keep = int(np.searchsorted(w, budget, side="right"))
    return U[:, keep:].T.copy(), w[keep:]


def _flat(parts) -> np.ndarray:
    """The arrays in `parts` end to end, empty where there are none."""
    return np.concatenate(parts) if parts else np.empty(0)


class GramBlocks(Sequence):
    """A training set's Gram blocks K_j, each dense or not yet built, or all
    in eigenbases.

    `blocks[j]` is K_j as a read-only array. `dot(j, v)` is the exact K_j v.
    While no bases are held, either builds block j dense the first time it
    is needed, with one `_kernel_matrix` over the group's training rows, and
    keeps it. A block held in a basis is rebuilt in full for `blocks[j]`,
    and its rows _CHUNK_ROWS at a time for `dot`, bit for bit as the dense
    array. `to_eigenbasis(budget)` replaces every block by U_j (n x r_j,
    orthonormal) and Lambda_j with ||K_j - U_j Lambda_j U_j^T||_2 at most
    `budget` (then recorded), and `drop_bases` leaves every block unbuilt
    again. Built from plain arrays (no training rows), the container holds
    them and never leaves them.

    The d bases are held as one array, the rows U_j^T stacked in group
    order (sum_j r_j x n), with the eigenvalues in one flat vector beside
    it: the bases are built block by block and stacked by one
    concatenation, and the dense blocks are never stacked. A solve works on
    one flat vector of coordinates, block j's at offsets[j]:offsets[j + 1]:
    alpha_j itself while dense (n each), beta_j = U_j^T alpha_j in a basis
    (r_j each).
    `coords(j, a)` maps alpha_j to block j's coordinates and `expand(j, x)`
    back, and `eigvals(j)` is Lambda_j (None while dense); in a basis, all
    three are views into or products with the stack. `gradients(s)` is every
    block's K_j s in its coordinates, Lambda (U^T s) in a basis, and
    `scores(x)` is sum_j K_j alpha_j, (Lambda x) U^T in a basis: one product
    each with the stack. `exact_gradients(s)` and `exact_scores(a)` are the
    same products exactly, in alpha coordinates (n values a block), through
    `dot`: the dense arrays while no bases are held, rows rebuilt in chunks
    otherwise. Without bases, `gradients` and `scores` are these, so the
    dense path is the exact one. All four take `groups`, a sequence of
    group ids, to work on those blocks alone, their coordinates end to end
    in that order: a dense solve's working set, whose products then cost in
    proportion to it. While the bases are held, `gradients` and `scores`
    raise on a working set: a solve in the bases works on every group, and
    there one product with the whole stack costs less than one per block.
    `norms_sq` caches each block's spectral norm squared, taken while dense.

    `budget` is the error bound the bases were built to (None while dense).
    `shared_budget` is the tightest budget among the solves that will share
    these blocks (inf unless a caller sets it): a build takes it where it is
    tighter than the one asked for, so that one build serves them all.
    `floor` is the tightest budget a build may take.
    """

    def __init__(self, blocks=(), rows=None, gammas=None):
        # plain arrays, or each group's training rows and bandwidth, from
        # which every block starts unbuilt (None)
        self._rows, self._gammas = rows, gammas
        self._dense = list(blocks) if rows is None else [None] * len(rows)
        self._Ut = self._eig = None     # the stacked bases, or None
        self.budget = None
        self.shared_budget = np.inf
        given = self._dense if rows is None else rows
        self.n = given[0].shape[0] if given else 0
        if any(K.shape != (self.n, self.n) for K in self._dense
               if K is not None):
            raise DataError("Gram blocks must be square and of one size")
        self.offsets = np.arange(len(self._dense) + 1) * self.n
        self.norms_sq = {}

    def __len__(self):
        return len(self._dense)

    def __getitem__(self, j):
        K = self._dense[j]
        if K is None:
            K = self._kernel_rows(j, 0, self.n)
            K.setflags(write=False)
            if self._Ut is None:
                self._dense[j] = K
        return K

    @property
    def floor(self) -> float:
        """The tightest budget a basis is built to, n * _FACTOR_EPS."""
        return self.n * _FACTOR_EPS

    def _kernel_rows(self, j, start, stop):
        X = self._rows[j]
        return _kernel_matrix(X[start:stop], X, self._gammas[j])

    def _part(self, v, j):
        return v[self.offsets[j]:self.offsets[j + 1]]

    def eigvals(self, j):
        """Lambda_j, or None while dense."""
        return None if self._eig is None else self._part(self._eig, j)

    def dot(self, j, v) -> np.ndarray:
        """Exact K_j v."""
        if self._Ut is None:
            return self[j] @ v
        out = np.empty(self.n)
        for start in range(0, self.n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, self.n)
            out[start:stop] = self._kernel_rows(j, start, stop) @ v
        return out

    def dots(self, j, vs) -> list[np.ndarray]:
        """Exact K_j v for each v in vs. A block not yet built is built
        for these products alone and not kept."""
        K = self._dense[j]
        if K is None and self._Ut is None:
            K = self._kernel_rows(j, 0, self.n)
        if K is None:
            return [self.dot(j, v) for v in vs]
        return [K @ v for v in vs]

    def coords(self, j, a) -> np.ndarray:
        """Block j's coordinates of alpha_j: U_j^T alpha_j, or alpha_j."""
        return a if self._Ut is None else self._part(self._Ut, j) @ a

    def expand(self, j, x) -> np.ndarray:
        """alpha_j from block j's coordinates: U_j x, or x."""
        return x if self._Ut is None else x @ self._part(self._Ut, j)

    def _ids(self, groups):
        return range(len(self)) if groups is None else groups

    def exact_gradients(self, s, groups=None) -> np.ndarray:
        """The exact K_j s of every group j in `groups` (all by default), n
        values each, as one flat vector."""
        return _flat([self.dot(j, s) for j in self._ids(groups)])

    def exact_scores(self, a, groups=None) -> np.ndarray:
        """Exact sum_j K_j alpha_j over the groups j in `groups` (all by
        default) from their flat alpha a, n values a block."""
        ids = self._ids(groups)
        # a zero block adds exactly nothing, so it is skipped
        f = np.zeros(self.n)
        for j, a_j in zip(ids, np.reshape(a, (len(ids), self.n))):
            if np.any(a_j):
                f += self.dot(j, a_j)
        return f

    def _stacked(self, groups) -> bool:
        # whether the bases are held; a working set is a dense solve's only
        if self._Ut is not None and groups is not None:
            raise ValueError("the bases hold every group: no working set")
        return self._Ut is not None

    def gradients(self, s, groups=None) -> np.ndarray:
        """The K_j s of every group j in `groups` (all by default) in its
        coordinates, as one flat vector."""
        if not self._stacked(groups):
            return self.exact_gradients(s, groups)
        return self._eig * (self._Ut @ s)

    def scores(self, x, groups=None) -> np.ndarray:
        """sum_j K_j alpha_j from the flat coordinates x of the groups in
        `groups` (all by default), held in that order."""
        if not self._stacked(groups):
            return self.exact_scores(x, groups)
        return (self._eig * x) @ self._Ut

    def drop_bases(self):
        """Drop the bases, leaving every block unbuilt until it is needed;
        the bases may then be built again."""
        if self._Ut is not None:
            self._Ut = self._eig = self.budget = None
            self.offsets = np.arange(len(self) + 1) * self.n

    def _basis(self, j, budget):
        # block j's (U_j^T, Lambda_j); its factor is freed on return
        Lt = _pivoted_cholesky(
            lambda p: self._kernel_rows(j, p, p + 1)[0], self.n, budget)
        if Lt is None:
            return _basis_from_gram(self._kernel_rows(j, 0, self.n), budget)
        return _basis_from_factor(Lt)

    def to_eigenbasis(self, budget: float) -> bool:
        """Hold every block in an eigenbasis; True if this call built them.

        Each basis's error ||K_j - U_j Lambda_j U_j^T||_2 is at most the
        smaller of budget and shared_budget, but never below floor; that
        bound is recorded as `budget`. Does nothing without training rows
        or while the blocks hold bases (until `drop_bases`). Every dense
        array built so far is dropped first. Then one block at a time,
        pivoted Cholesky reads kernel rows rebuilt from the training rows,
        and the block's basis is built at once: from the thin SVD of a
        factor of rank r_j below n / 2, or else from eigh of the block
        rebuilt dense. The factor or rebuilt block is freed before the next
        block starts, so beside the bases built so far memory holds one
        block's workspace: the factor and four n x r_j arrays while its QR
        runs, or three n x n arrays and LAPACK's workspace while eigh runs.
        The d bases are then stacked by one concatenation, which holds them
        twice for a moment.
        """
        if self._rows is None or self._Ut is not None:
            return False
        budget = max(self.floor, min(budget, self.shared_budget))
        self._dense = [None] * len(self)
        Ut, eig = zip(*(self._basis(j, budget) for j in range(len(self))))
        self._Ut, self._eig = np.concatenate(Ut), np.concatenate(eig)
        self.offsets = np.cumsum([0, *map(len, eig)])
        self.budget = budget
        return True


def gram_blocks(train: Dataset, partition: GroupPartition,
                spec: KernelSpec) -> GramBlocks:
    """Gram matrix of each group's kernel over the training samples.

    No block is built here: the container keeps each group's training rows
    and bandwidth, and builds a block the first time it is needed (see
    GramBlocks).
    """
    if len(spec.gammas) != partition.d:
        raise DataError("one gamma per group required")
    rows = [train.samples[:, idx] for idx in partition.groups]
    return GramBlocks(rows=rows, gammas=spec.gammas)


def cross_gram(train: Dataset, query: Dataset, partition: GroupPartition,
               spec: KernelSpec, *, groups=None) -> list[np.ndarray]:
    """Per-group kernel matrices between training rows and query rows.

    With `groups`, only those groups' blocks are built, in that order.
    """
    if query.feature_names != train.feature_names:
        raise DataError("query columns do not match training columns")
    if len(spec.gammas) != partition.d:
        raise DataError("one gamma per group required")
    return [_kernel_matrix(train.samples[:, partition.groups[j]],
                           query.samples[:, partition.groups[j]],
                           spec.gammas[j])
            for j in (range(partition.d) if groups is None else groups)]


def _pair_sample(X: np.ndarray) -> np.ndarray:
    """Sorted positive squared distances of about m^(2/3) pairs of X's rows.

    The pairs are evenly spread over the m = n(n - 1)/2 pairs i < j in
    row-major order. Their distances are summed one column at a time, so
    memory stays a few floats per pair however many features there are.
    """
    n = len(X)
    m = n * (n - 1) // 2
    s = min(m, max(64, round(m ** (2 / 3))))
    k = np.arange(s, dtype=np.int64) * m // s + m // (2 * s)
    row_len = np.arange(n - 1, 0, -1)
    starts = np.cumsum(row_len) - row_len
    i = np.searchsorted(starts, k, side="right") - 1
    j = k - starts[i] + i + 1
    d = np.zeros(s)
    for col in X.T:
        diff = col[i] - col[j]
        d += diff * diff
    return np.sort(d[d > 0])


def _median_bracket(sample: np.ndarray, below: int, above: int):
    """[lo, hi]: the sample's values `below` ranks under its median and
    `above` ranks over it; past the sample's ends, all positives and inf."""
    mid = len(sample) // 2
    lo = sample[mid - below] if mid - below >= 0 else np.nextafter(0.0, 1.0)
    hi = sample[mid + above] if mid + above < len(sample) else np.inf
    return lo, hi


def _sweep_sq_dists(X: np.ndarray, lo: float, hi: float):
    """(zeros, entries in (0, lo), entries in [lo, hi]) of pdist(X)**2.

    cdist writes each tile of rows into one reused buffer, the strict upper
    triangle's columns only; the tile's entries on and below the diagonal
    are set to NaN, which no comparison counts.
    """
    n = len(X)
    rows = max(1, min(n - 1, _MEDIAN_TILE_ENTRIES // n))
    buf = np.empty(rows * (n - 1))
    lt, le = np.empty((2, rows * (n - 1)), dtype=bool)
    lower = np.tri(rows, rows, -1, dtype=bool)
    zeros = under = 0
    inside = []
    for start in range(0, n - 1, rows):
        r, c = min(rows, n - 1 - start), n - 1 - start
        D = buf[:r * c].reshape(r, c)
        below, within = lt[:r * c].reshape(r, c), le[:r * c].reshape(r, c)
        cdist(X[start:start + r], X[start + 1:], "sqeuclidean", out=D)
        np.copyto(D[:, :r], np.nan, where=lower[:r, :r])
        np.equal(D, 0.0, out=below)
        zeros += np.count_nonzero(below)
        np.less(D, lo, out=below)
        under += np.count_nonzero(below)
        np.less_equal(D, hi, out=within)
        np.greater(within, below, out=within)       # and not below lo
        inside.append(D[within])
    return zeros, under - zeros, np.concatenate(inside)


def _median_sq_dist(X: np.ndarray) -> float | None:
    """np.median of the positive entries of pdist(X, "sqeuclidean"), or
    None if there are none; bit for bit, without forming them all."""
    m = len(X) * (len(X) - 1) // 2
    sample = _pair_sample(X)
    below = above = max(1, int(_BRACKET_Z * np.sqrt(len(sample)) / 2))
    while True:
        lo, hi = _median_bracket(sample, below, above)
        zeros, under, inside = _sweep_sq_dists(X, lo, hi)
        positives = m - zeros
        if positives == 0:
            return None
        # np.median's ranks: the middle one, or the middle two averaged
        k1, k2 = (positives - 1) // 2 - under, positives // 2 - under
        if k1 >= 0 and k2 < len(inside):
            part = np.partition(inside, [k1, k2])
            return float(np.mean(part[k1:k2 + 1]))
        if k1 < 0:
            below *= 4
        if k2 >= len(inside):
            above *= 4


def median_heuristic_gamma(train: Dataset,
                           partition: GroupPartition) -> KernelSpec:
    """gamma_j = 1 / median of nonzero pairwise squared distances in group j.

    The median is exact: the same value as `np.median` over the positive
    entries of the strict upper triangle of cdist(X_j, X_j, "sqeuclidean"),
    selected by counting in one sweep over row tiles (see the module
    docstring), so memory stays near 0.6 MB plus about 3 m^(2/3) candidate
    values, not the m = n(n - 1)/2 distances.
    """
    if train.n < 2:
        raise DataError("median heuristic requires at least 2 samples")
    gammas = []
    for j, idx in enumerate(partition.groups):
        med = _median_sq_dist(train.samples[:, idx])
        if med is None:
            raise DataError(f"all pairwise distances are zero in group "
                            f"{partition.group_names[j]!r}")
        gammas.append(1.0 / med)
    return KernelSpec(tuple(gammas))
