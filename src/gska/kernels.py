"""Per-group Gaussian kernels and the Gram blocks a solve runs on.

One bandwidth gamma per group; the default comes from the per-group median
heuristic, with a shared-gamma override available at the call sites that
build KernelSpec. `gram_blocks` returns a GramBlocks container holding a
training set's d blocks. Each starts dense; the solver may ask the container,
once, to replace every block by an orthonormal eigenbasis U_j with
eigenvalues Lambda_j, K_j ~ U_j diag(Lambda_j) U_j^T, when a solve runs long.
Every basis is built to an error budget B, the spectral-norm error
||K_j - U_j Lambda_j U_j^T||_2 the solve that asks for it allows
(solver.basis_budget), and the container records the budget its bases meet.
A block whose pivoted-Cholesky factor L (n x r, Fine & Scheinberg 2001;
Harbrecht, Peters & Schneider 2012) reaches tr(K - L L^T) <= B, which bounds
the spectral norm of that PSD error, at a rank below n / 2 takes its basis
from the thin SVD of L, so that a product costs O(n r) instead of O(n^2).
Any other block takes its basis from a full eigendecomposition, keeping the
eigenvalues above B. The d bases are held as one stacked array of the
rows U_j^T, each written straight into its rows in place of the dense array
or the factor, never beside it, so that a solve's gradients for all blocks
take one product with the stack, and its summed margins another. A block's
exact values are rebuilt from the training rows on demand, entry for entry
as first built. A GramBlocks serves the solver only: scoring and
interpretation build `cross_gram` blocks for one tile of rows at a time.

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
import scipy.linalg
from scipy.spatial.distance import cdist

from .data import DataError, Dataset, GroupPartition

# No basis is built to a budget below n * _FACTOR_EPS (GramBlocks.floor):
# there the decompositions' own rounding is no longer negligible. Pivoted
# Cholesky gives up at rank n / 2, where two products with L cost as much
# as one with K.
_FACTOR_EPS = 1e-10
# Rows of a block held in a basis rebuilt at once, for an exact product
_CHUNK_ROWS = 256
# Rows of Q multiplied at once where a factor's basis is formed over it: few,
# so that the tile's temporary adds little to the decomposition's workspace
_QR_TILE = 64
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


def _kernel_matrix(A: np.ndarray, B: np.ndarray, gamma: float,
                   out=None) -> np.ndarray:
    # cdist sums explicit squared differences, so the result is exactly
    # symmetric and exactly zero for identical rows (unlike the gemm form),
    # and each entry is the same whichever rows are computed together.
    D = cdist(A, B, "sqeuclidean", out=out)
    with np.errstate(over="ignore"):    # -inf where it overflows: exp gives 0
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
    """Eigenvalues s^2 of L L^T; Lt's memory is left holding U^T.

    L = U diag(s) V^T, so L L^T = U s^2 U^T. Householder QR L = Q R in
    place, then the SVD R = W diag(s) V^T of the small r x r factor: U = Q W
    is orthonormal to rounding (eigenvectors of an explicit L^T L are not).
    U is formed over Q a tile of rows at a time and written back into Lt, so
    the basis occupies the factor's memory and nothing beside it.
    """
    Q, R = scipy.linalg.qr(Lt.T, mode="economic", overwrite_a=True,
                           check_finite=False)
    # R^T = V diag(s) W^T, taken from R^T's own (Fortran-ordered) memory
    _, s, Wt = scipy.linalg.svd(R.T, overwrite_a=True, check_finite=False)
    del R
    U = Lt.T            # Q itself where the QR ran in place
    for start in range(0, len(Q), _QR_TILE):
        U[start:start + _QR_TILE] = Q[start:start + _QR_TILE] @ Wt.T
    return s * s


def _basis_from_gram(K, budget: float):
    """Eigenvalues of K above budget; K's first rows are left holding the
    matching rows of U^T.

    Divide and conquer (LAPACK syevd). K is symmetric, so its transpose is
    the Fortran-ordered K that the eigensolver overwrites with the
    eigenvectors, one per row of K in ascending order, instead of copying.
    The kept rows then move up over the dropped ones, in chunks that do not
    overlap, so that no copy of them is made.
    """
    w, U, info = scipy.linalg.lapack.dsyevd(K.T, compute_v=1, lower=1,
                                            overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"eigendecomposition failed ({info})")
    if not np.may_share_memory(U, K):
        K.T[...] = U
    del U
    keep = int(np.searchsorted(w, budget, side="right"))
    for start in range(keep, len(K), keep or len(K)):
        stop = min(start + keep, len(K))
        K[start - keep:stop - keep] = K[start:stop]
    return w[keep:]


class GramBlocks(Sequence):
    """A training set's Gram blocks K_j, all dense or all in eigenbases.

    `blocks[j]` is K_j as a read-only array (a block held in a basis is
    rebuilt in full for the caller). `dot(j, v)` is the exact K_j v: a basis
    block's rows are rebuilt _CHUNK_ROWS at a time, bit for bit as first
    built. `to_eigenbasis(budget)` replaces every block by U_j (n x r_j,
    orthonormal) and Lambda_j with ||K_j - U_j Lambda_j U_j^T||_2 at most
    `budget` (then recorded), and `drop_bases` rebuilds them dense. Built
    from plain arrays (no training rows), the container never leaves them.

    The d bases are held as one array, the rows U_j^T stacked in group
    order (sum_j r_j x n), with the eigenvalues in one flat vector beside
    it; the dense blocks are never stacked. A solve works on one flat vector
    of coordinates, block j's at offsets[j]:offsets[j + 1]: alpha_j itself
    while dense (n each), beta_j = U_j^T alpha_j in a basis (r_j each).
    `coords(j, a)` maps alpha_j to block j's coordinates and `expand(j, x)`
    back, and `eigvals(j)` is Lambda_j (None while dense); in a basis, all
    three are views into or products with the stack. `gradients(s)` is every
    block's K_j s in its coordinates, Lambda (U^T s) in a basis, and
    `scores(x)` is sum_j K_j alpha_j, (Lambda x) U^T in a basis: one product
    each with the stack. `exact_gradients(s)` and `exact_scores(a)` are the
    same products exactly, in alpha coordinates (n values a block), through
    `dot`: the dense arrays where held, rows rebuilt in chunks otherwise.
    While the blocks are dense, `gradients` and `scores` are these, so the
    dense path is the exact one. `norms_sq` caches each block's spectral
    norm squared, taken while dense.

    `budget` is the error bound the bases were built to (None while dense).
    `shared_budget` is the tightest budget among the solves that will share
    these blocks (inf unless a caller sets it): a build takes it where it is
    tighter than the one asked for, so that one build serves them all.
    `floor` is the tightest budget a build may take.
    """

    def __init__(self, blocks, rows=None, gammas=None):
        self._dense = list(blocks)
        self._rows, self._gammas = rows, gammas
        self._Ut = self._eig = None     # the stacked bases, or None
        self.budget = None
        self.shared_budget = np.inf
        self.n = self._dense[0].shape[0] if self._dense else 0
        if any(K.shape != (self.n, self.n) for K in self._dense):
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
        return K

    @property
    def floor(self) -> float:
        """The tightest budget a basis is built to, n * _FACTOR_EPS."""
        return self.n * _FACTOR_EPS

    def _kernel_rows(self, j, start, stop, out=None):
        X = self._rows[j]
        return _kernel_matrix(X[start:stop], X, self._gammas[j], out)

    def _part(self, v, j):
        return v[self.offsets[j]:self.offsets[j + 1]]

    def eigvals(self, j):
        """Lambda_j, or None while dense."""
        return None if self._eig is None else self._part(self._eig, j)

    def dot(self, j, v) -> np.ndarray:
        """Exact K_j v."""
        if self._dense[j] is not None:
            return self._dense[j] @ v
        out = np.empty(self.n)
        for start in range(0, self.n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, self.n)
            out[start:stop] = self._kernel_rows(j, start, stop) @ v
        return out

    def coords(self, j, a) -> np.ndarray:
        """Block j's coordinates of alpha_j: U_j^T alpha_j, or alpha_j."""
        return a if self._Ut is None else self._part(self._Ut, j) @ a

    def expand(self, j, x) -> np.ndarray:
        """alpha_j from block j's coordinates: U_j x, or x."""
        return x if self._Ut is None else x @ self._part(self._Ut, j)

    def exact_gradients(self, s) -> np.ndarray:
        """Every block's exact K_j s, n values each, as one flat vector."""
        return np.concatenate([self.dot(j, s) for j in range(len(self))])

    def exact_scores(self, a) -> np.ndarray:
        """Exact sum_j K_j alpha_j from the flat alpha a, n values a block."""
        # a zero block adds exactly nothing, so it is skipped
        f = np.zeros(self.n)
        for j, a_j in enumerate(np.reshape(a, (len(self), self.n))):
            if np.any(a_j):
                f += self.dot(j, a_j)
        return f

    def gradients(self, s) -> np.ndarray:
        """Every block's K_j s in its coordinates, as one flat vector."""
        if self._Ut is None:
            return self.exact_gradients(s)
        return self._eig * (self._Ut @ s)

    def scores(self, x) -> np.ndarray:
        """sum_j K_j alpha_j from the flat coordinates x."""
        if self._Ut is None:
            return self.exact_scores(x)
        return (self._eig * x) @ self._Ut

    def drop_bases(self):
        """Rebuild every block dense; the bases may then be built again."""
        if self._Ut is not None:
            self._Ut = self._eig = self.budget = None
            self._dense = [self[j] for j in range(len(self))]
            self.offsets = np.arange(len(self) + 1) * self.n

    def to_eigenbasis(self, budget: float) -> bool:
        """Hold every block in an eigenbasis; True if this call built them.

        Each basis's error ||K_j - U_j Lambda_j U_j^T||_2 is at most the
        smaller of budget and shared_budget, but never below floor; that
        bound is recorded as `budget`. Does nothing without training rows
        or while the blocks hold bases (until `drop_bases`). Each block's
        dense array is dropped first, and pivoted Cholesky reads kernel rows
        rebuilt from the training rows. Only once every block has been
        tried does the decomposition run, block by block in the stack's
        rows: a factor of rank below n / 2 is moved there and turned into
        its basis in place (the thin SVD of the factor), and any other block
        is rebuilt dense there and decomposed in place. The stack is
        allocated for n rows per such block and cut to the rows kept once
        all are built. So memory never holds a basis or its workspace beside
        all d dense blocks, and no block's basis is held beside the stack.
        """
        if self._rows is None or self._Ut is not None:
            return False
        budget = max(self.floor, min(budget, self.shared_budget))
        factors = []
        for j in range(len(self)):
            self._dense[j] = None
            factors.append(_pivoted_cholesky(
                lambda p: self._kernel_rows(j, p, p + 1)[0], self.n, budget))
        stack = np.empty((sum(self.n if Lt is None else len(Lt)
                              for Lt in factors), self.n))
        eig, offsets = [], [0]
        for j in range(len(self)):
            Lt, factors[j] = factors[j], None
            o = offsets[-1]
            if Lt is None:
                lam = _basis_from_gram(
                    self._kernel_rows(j, 0, self.n, out=stack[o:o + self.n]),
                    budget)
            else:
                r = len(Lt)
                stack[o:o + r] = Lt
                del Lt
                lam = _basis_from_factor(stack[o:o + r])
            eig.append(lam)
            offsets.append(o + len(lam))
        # cut in place: no view of the stack outlives the calls that wrote
        # it (a profiler's reference to `stack` itself may, so the
        # reference count is not checked)
        stack.resize((offsets[-1], self.n), refcheck=False)
        self._Ut, self._eig = stack, np.concatenate(eig)
        self.offsets = np.array(offsets)
        self.budget = budget
        return True


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
