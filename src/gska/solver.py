"""Monotone accelerated proximal gradient for the group-sparse kernel objective.

Minimizes, over coefficient blocks alpha^(j) in R^n,

    (1/n) sum_i c(y_i) loss(y_i * f_i)  +  lam * sum_j w_j ||alpha^(j)||_2,
    f_i = sum_j (K^(j) alpha^(j))_i

with FISTA (Beck & Teboulle 2009) over all blocks at once. Each block's
smooth term is upper-bounded by a quadratic with a diagonal curvature,
every coordinate's gamma_j on a dense block (global loss curvature times
the spectral norm of K^(j)T K^(j) / n, times a 1.01 safety factor). The
prox step is the group soft-threshold in the metric s times that diagonal,
one scalar equation per block whose Newton start is its root where the
diagonal is constant; the shared multiplier s backtracks on the quadratic
upper bound and shrinks by 0.97 after each accepted step. Momentum restarts
when the step turns against it (O'Donoghue & Candes 2015), and a step that
would raise the objective is rejected, so the objective trace never
increases. The solve stops on the largest per-group KKT residual at the
returned point, in units of lam * w_j: once it meets tol, it runs on until
the residual reaches tol / 10. Deterministic given inputs: no
randomization, fixed summation order.

With fit_intercept, every margin gains an unpenalized b, one more FISTA
coordinate: it shares the momentum, its gradient dR/db sums the per-sample
slopes of the block gradients, and its curvature 1.01 * L * c_max, times s,
joins the quadratic bound, the restart test and the gradient mapping. The
backtracking cap becomes s >= d + 1 (Cauchy-Schwarz over d + 1 blocks). The
KKT residual holds |dR/db| in units of lam * min_j w_j: `converged` covers b.

Products with the Gram blocks go through a kernels.GramBlocks (plain arrays
are wrapped in one), which builds each block dense when a product first
needs it and can hold every block in an orthonormal eigenbasis, K_j ~ U_j
diag(Lambda_j) U_j^T. Every solve on blocks without bases whose start is not
settled decides its coordinates by one rule, before its first iteration: it
reads the gradient at alpha = 0 one block at a time (a cold start's own; a
warm start takes it after its own residual, one more pass), and the first
block whose own ||g_j|| / w_j is at least 3 lam (so lam <= lambda_max / 3)
and whose own KKT residual there is above tol / 10 asks for the bases. The
start is mapped into them, and the blocks after that one are never built
dense. Where no block decides, the solve runs dense to the end. Its
iterations, like those of later solves
on the same blocks whose budget the bases meet, run in beta_j = U_j^T
alpha_j (variable-metric forward-backward splitting: Becker & Fadili 2012;
Chouzenoux, Pesquet & Repetti 2014). There ||beta_j|| = ||alpha_j||, so
the penalty is unchanged, and block j's
curvature is bounded coordinate by coordinate, m_j = 1.01 * L * c_max *
Lambda_j^2 / n, in place of the one scalar gamma_j that the largest
eigenvalue sets; the prox step is the group soft-threshold in that metric.
The shared multiplier s still backtracks, and its cap still bounds the
coupling between blocks by Cauchy-Schwarz. Each basis is built to the
solve's error budget (basis_budget): its error cannot move a gradient by
more than 1% of tol * lam * w_j. A solve reuses bases built to its budget or
a tighter one and drops looser ones, its blocks then built dense again as
its products need them; one whose budget is under GramBlocks.floor, a tiny
tol or lam = 0 (where no penalty bounds ||alpha||, so no budget bounds the
margins' error), runs dense. The objective
then moves by at most 1% of tol times the penalty term, which bounds how far
the trace can rise at its last entry. That entry, the KKT residual that
decides `converged` (reported as SolveReport.kkt_residual), and the public
objective, group_gradient and lambda_max use exact kernel values at alpha_j
= U_j beta_j. A solve in the bases computes no dense curvature gamma_j.

Every iteration works on whole arrays over a working set W of groups, with
a fixed number of numpy calls whatever d is and products with W's blocks
alone. A cold start that stays dense sets aside each group whose ||g_j|| /
w_j at alpha = 0, from the gradient it has already taken, is below 2 lam -
lambda_max (the basic strong rule: Tibshirani, Bien, Friedman, Hastie,
Simon, Taylor & Tibshirani 2012); every other solve keeps W = all groups,
as a solve in the bases must: there the stacked products take every block.
W's coordinates are one flat vector, block j's at offsets[j]:offsets[j +
1], where a set-aside block's segment is empty. W's gradients take one
`gradients` call and the summed margins one `scores` call, a single product
each with the stacked bases. One batched group_update solves the secular
equations together, each from its previous root rescaled by the change in
s. The penalty, the quadratic bound, the restart test, the gradient mapping
and the KKT check reduce the flat vectors group by group, and the loss's
per-sample factors are formed once per solve (coherence.LabelledRisk). Only
W's blocks take a curvature (so a power iteration), and the backtracking cap
stays d (+ 1 with an intercept), so that where no set-aside block would have
moved, the iterates are those of the solve on all groups. Once the residual
over W reaches tol / 10, each set-aside block takes one exact product at
the iterate; any whose residual is above tol / 10 joins W at zero, with a
momentum restart, and the iterations go on.
The exact final objective and KKT check, over every group, and the public
objective, group_gradient and lambda_max, use that same arithmetic on
alpha's own flat coordinates (n per block), with GramBlocks.exact_scores and
exact_gradients for the products, in one helper (_exact). On blocks without
bases those are the iterations' own products: a solve that stops on the
residual reports its last iterate's objective and its residual over W and
the set-aside blocks' check as they are, and _exact recomputes them at the
returned alpha only after max_iters, at the rounding floor or in the bases.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coherence import (ClassWeights, CoherenceParams, LabelledRisk,
                        curvature_bound, slope_bound)
from .data import DataError, GroupPartition
from .kernels import GramBlocks, _flat


class SolverError(RuntimeError):
    """Raised when the optimizer encounters an internal inconsistency."""


# Where momentum carries the residual through tol in one large step (near
# lambda_max a solve meets tol in ~6 iterations), the first residual below
# tol lands anywhere in (0, tol]; a solve that meets tol runs on to
# _SETTLE_SHRINK * tol, so that the answer's accuracy is steady.
_SETTLE_SHRINK = 0.1
# A solve on blocks without bases at lam <= lambda_max / _BASES_FIRST takes
# eigenbases before its first iteration. Timing solves alone on the
# synthetic data (2 cores), the bases cost 0.07-0.43 s more at 0.8
# lambda_max, where a dense solve takes 5-10 iterations, and break even near
# 0.28 lambda_max at n = 500, 1/3 at n = 2000 and 0.45 at n = 2400 (a cv
# fold of 3000 rows).
_BASES_FIRST = 3.0
# share of tol * lam * w_j a basis's approximation error may move a block
# gradient
_FACTOR_SHARE = 0.01
# Newton steps for the metric prox's scalar equation, which converges
# monotonically and quadratically (a dozen steps at most in practice)
_PROX_MAX_ITERS = 100
_PROX_STOP = 1.0 + 4.0 * np.finfo(float).eps
# power iteration: relative change that ends it, and its iteration cap
_POWER_TOL = 1e-8
_POWER_MAX_ITERS = 500
_UNIT_WEIGHTS = ClassWeights()


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    sigma: float = 1.0
    max_iters: int = 1000
    tol: float = 1e-2
    # None: inverse-frequency in model.fit and the other prepared-fold
    # solves, unit weights in a bare solve
    class_weights: ClassWeights | None = None
    fit_intercept: bool = False

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise DataError(f"lam must be finite and non-negative, "
                            f"got {self.lam!r}")
        if not 0 < self.tol < np.inf or self.max_iters < 1:
            raise DataError(f"tol must be finite and positive and max_iters "
                            f">= 1, got tol={self.tol!r}, "
                            f"max_iters={self.max_iters!r}")
        self.loss_params        # rejects a bad sigma

    @cached_property
    def loss_params(self) -> CoherenceParams:
        # built once: a solve reads it several times per iteration
        return CoherenceParams(self.sigma)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    objective_trace: tuple[float, ...]
    converged: bool
    active_groups: tuple[int, ...]
    intercept: float = 0.0
    # the exact final KKT residual that decides `converged`; a loaded model
    # has none
    kkt_residual: float = math.nan


def _class_weights(cfg: SolverConfig) -> ClassWeights:
    # what a solve weights the classes by: unit weights where cfg has none
    return _UNIT_WEIGHTS if cfg.class_weights is None else cfg.class_weights


def _c_max(cfg: SolverConfig) -> float:
    # the larger class weight, which scales every curvature bound
    cw = _class_weights(cfg)
    return max(cw.weight_pos, cw.weight_neg)


def basis_budget(n: int, partition: GroupPartition,
                 cfg: SolverConfig) -> float:
    """B, the largest ||K_j - U_j Lambda_j U_j^T||_2 a solve at cfg allows.

    A block gradient multiplies a vector of norm at most c_max sup|loss'| /
    sqrt(n), so a basis error of B moves it by at most 1% of tol * lam *
    min_j w_j:

        B = 0.01 tol lam min_j w_j sqrt(n) / (c_max sup|loss'|)

    At lam = 0 that is 0, under every GramBlocks.floor, so the solve runs
    dense: no penalty bounds ||alpha||, and a factor's basis error moves the
    margins by up to B ||alpha||.
    """
    return float(_FACTOR_SHARE * cfg.tol * cfg.lam * min(partition.weights)
                 * np.sqrt(n) / (_c_max(cfg) * slope_bound(cfg.loss_params)))


def _as_blocks(gram) -> GramBlocks:
    return gram if isinstance(gram, GramBlocks) else GramBlocks(gram)


def _entry(gram, labels, partition: GroupPartition, cfg: SolverConfig,
           alpha=None):
    """A public entry point's blocks, risk and alpha (zero where None)."""
    labels = np.asarray(labels, dtype=float)
    shape = (partition.d, labels.size)
    alpha = np.zeros(shape) if alpha is None else np.asarray(alpha, float)
    if alpha.shape != shape:
        raise DataError("alpha must be d blocks of n coefficients")
    return (_as_blocks(gram),
            LabelledRisk(labels, _class_weights(cfg), cfg.loss_params), alpha)


def _exact(blocks: GramBlocks, risk: LabelledRisk, alpha,
           partition: GroupPartition, lam: float, b: float,
           fit_intercept: bool = False, kkt: bool = True):
    """The objective, the KKT residual (NaN without kkt) and the slopes
    dR/df at alpha (d blocks of n) and intercept b, from exact kernel values.

    The same risk and group reductions as the iterations, on alpha's own
    coordinates. Margins that are not finite raise DataError.
    """
    x = alpha.ravel()
    groups = _Groups(np.arange(partition.d + 1) * blocks.n, lam,
                     partition.weights)
    f = blocks.exact_scores(x)
    if not np.all(np.isfinite(f + b)):
        raise DataError("margin must be finite")
    r, s = risk.risk_and_slopes(f, b)
    obj = r + groups.penalty(x)
    if not kkt:
        return obj, math.nan, s
    g_b = float(np.sum(s)) if fit_intercept else 0.0
    return obj, groups.kkt(x, blocks.exact_gradients(s), g_b), s


def objective(alpha, gram, labels, partition: GroupPartition,
              cfg: SolverConfig, intercept: float = 0.0) -> float:
    blocks, risk, alpha = _entry(gram, labels, partition, cfg, alpha)
    return _exact(blocks, risk, alpha, partition, cfg.lam, intercept,
                  kkt=False)[0]


def group_gradient(alpha, gram, labels, partition: GroupPartition,
                   cfg: SolverConfig, j: int,
                   intercept: float = 0.0) -> np.ndarray:
    if not (0 <= j < partition.d):
        raise DataError(f"invalid group id {j}")
    blocks, risk, alpha = _entry(gram, labels, partition, cfg, alpha)
    _, _, s = _exact(blocks, risk, alpha, partition, cfg.lam, intercept,
                     kkt=False)
    return blocks.dot(j, s)


def spectral_norm_sq(K: np.ndarray) -> float:
    """Largest eigenvalue of K^T K by power iteration, deterministic start.

    Where clustered top eigenvalues (a near-identity kernel at a large
    gamma) keep the estimate creeping past the iteration cap, the exact
    value from the singular values of K.
    """
    n = K.shape[0]
    w = K.T @ (K @ (np.ones(n) / np.sqrt(n)))
    est = 0.0
    for _ in range(_POWER_MAX_ITERS):
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = K.T @ (K @ v)       # the estimate's product is the next iterate's
        new_est = float(v @ w)
        if abs(new_est - est) <= _POWER_TOL * max(1.0, abs(new_est)):
            return new_est
        est = new_est
    return float(np.linalg.norm(K, 2)) ** 2


def majorization_constant(gram, labels, cfg: SolverConfig, j: int):
    """Curvature of group j's quadratic upper bound, one per coordinate.

    On a dense block, every coordinate's is gamma_j = 1.01 * L * c_max *
    lambda_max(K^T K) / n with L the global loss curvature bound and c_max
    the larger class weight; a GramBlocks keeps lambda_max(K^T K) of each
    block from its first use. On a block held in an eigenbasis, the
    diagonal m_j = 1.01 * L * c_max * Lambda_j^2 / n.
    """
    labels = np.asarray(labels)
    blocks = _as_blocks(gram)
    eig = blocks.eigvals(j)
    if eig is not None:
        spectrum = eig * eig
    else:
        if j not in blocks.norms_sq:
            blocks.norms_sq[j] = spectral_norm_sq(blocks[j])
        spectrum = np.full(labels.size, blocks.norms_sq[j])
    L = curvature_bound(cfg.loss_params)
    return 1.01 * L * _c_max(cfg) * spectrum / labels.size


def _segment_reducer(starts, held):
    """reduce(ufunc, v): ufunc.reduceat of v over the segments that start at
    `starts`, 0 for each empty one (False in `held`).

    reduceat gives an empty segment (a basis that keeps no eigenvalue) the
    next one's first entry, or fails where it starts at the end, so only
    the others are reduced; where none is empty, this is reduceat itself.
    """
    if held.all():
        return lambda ufunc, v: ufunc.reduceat(v, starts)
    held_starts = np.asarray(starts)[held]

    def reduce(ufunc, v):
        out = np.zeros(held.size)
        out[held] = ufunc.reduceat(v, held_starts)
        return out
    return reduce


def group_update(alpha, grad, gamma, lam: float, w, offsets=None,
                 nu=None) -> np.ndarray:
    """Proximal step of lam * w_j ||.|| in the majorizer's metric, per group.

    For one block, alpha, grad and gamma hold its coordinates and w is w_j.
    For all blocks at once, they are flat vectors holding block j at
    offsets[j]:offsets[j + 1], and w holds the d weights; the result is
    flat alike. Block j minimizes (1/2)(b - u)^T diag(gamma_j) (b - u) +
    lam w_j ||b|| with u = alpha_j - grad_j / gamma_j, where gamma_j >= 0 is
    one curvature per coordinate (zero only where grad_j is) or a scalar,
    the same for every coordinate. b = 0 when ||gamma_j u|| <= lam w_j, and
    otherwise b = gamma_j u / (gamma_j + mu), where mu > 0 solves
    mu ||gamma_j u / (gamma_j + mu)|| = lam w_j; at a constant gamma_j this
    is the group soft-threshold u (1 - lam w_j / ||gamma_j u||).
    gamma_j u = gamma_j alpha_j - grad_j is formed directly, so a zero
    curvature never divides.

    Newton runs on the d scalar equations together, each block stopping by
    its own test. `nu`, an array of d starting multipliers nu = 1 / mu (0
    for none), is overwritten with each block's root (0 where the block is
    zero or takes the plain step). A start is taken only where the metric
    is not constant and the start lies right of the block's own start nu0;
    the root is the same as from nu0. An empty block (equal offsets) is
    zero, with root 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    grad = np.asarray(grad, dtype=float)
    m = np.asarray(gamma, dtype=float)
    if m.shape != alpha.shape:
        m = np.broadcast_to(m, alpha.shape)
    starts, sizes = ((0,), alpha.shape) if offsets is None else (
        offsets[:-1], offsets[1:] - offsets[:-1])
    held = np.asarray(sizes) > 0
    reduce = _segment_reducer(starts, held)
    thresh = lam * np.atleast_1d(np.asarray(w, dtype=float))
    m_max = reduce(np.maximum, m)
    m_min = reduce(np.minimum, m)
    if not (np.all(m_max[held] > 0) and np.all(m_min[held] >= 0)):
        raise DataError("gamma_j must be non-negative and not all zero")
    a = m * alpha - grad
    a2 = a * a
    norm = np.sqrt(reduce(np.add, a2))
    # With nu = 1 / mu, b = nu a / (1 + nu m) and ||b|| / nu = thresh. The
    # reciprocal 1 / ||a / (1 + nu m)|| is concave and increasing in nu
    # (the perspective of the trust-region secular function), so Newton on
    # it from a nu left of the root climbs to the root without passing it,
    # and one step from right of the root lands left of it.
    # At nu0, ||a / (1 + nu0 m)|| >= norm / (1 + nu0 max m) = thresh, with
    # equality (the root) where m is constant. nu0 is infinite where thresh
    # is 0 or norm / thresh overflows: the plain step a / m.
    with np.errstate(all="ignore"):
        nu0 = np.where(thresh > 0, (norm / thresh - 1.0) / m_max, np.inf)
        inv_thresh, stop = 1.0 / thresh, thresh * _PROX_STOP
    zero = norm <= thresh
    newton = ~zero & (nu0 < np.inf)
    v = np.where(newton, nu0, 0.0)
    right = None
    if nu is not None:
        # warm starts right of nu0 where the metric is not constant
        right = newton & (m_min < m_max) & (nu > nu0)
        v = np.where(right, nu, v)
    active = newton.copy()
    with np.errstate(all="ignore"):
        for _ in range(_PROX_MAX_ITERS):
            inv = np.repeat(v, sizes) * m
            inv += 1.0
            np.divide(1.0, inv, out=inv)
            e = a2 * inv
            e *= inv
            q2 = reduce(np.add, e)      # ||a / (1 + nu m)||^2
            qn = np.sqrt(q2)
            # d(1/qn)/dnu = sum(a^2 m / (1 + nu m)^3) / qn^3
            e *= inv
            step = q2 * (qn * inv_thresh - 1.0) / reduce(np.add, e * m)
            go = (qn > stop) & (step > 1e-15 * v)
            if right is not None:
                # a warm start right of the root steps left, to nu0 at most
                right &= qn < thresh
                go |= right
                np.maximum(step, nu0 - v, out=step, where=right)
                right = None
            active &= go
            if not active.any():
                break
            np.add(v, step, out=v, where=active)
        nu_c = np.repeat(v, sizes)
        out = nu_c * a / (1.0 + nu_c * m)
    if not newton.all():
        out[np.repeat(zero, sizes)] = 0.0
        p = np.repeat(~(zero | newton), sizes)
        out[p] = np.divide(a[p], m[p], out=np.zeros(np.count_nonzero(p)),
                           where=m[p] > 0)
    if nu is not None:
        nu[...] = v
    return out


class _Groups:
    """The groups' segments of a solve's flat coordinates, with lam * w_j
    and the units a residual is measured in, per group and for b."""

    def __init__(self, offsets, lam: float, weights):
        self.offsets = offsets
        self._sizes = np.diff(offsets)
        self._reduce = _segment_reducer(offsets[:-1], self._sizes > 0)
        self.weights = np.asarray(weights, dtype=float)
        self.thresh = lam * self.weights
        # lam * w_j, or w_j where that is 0 (lam 0, or below the smallest
        # float); b's are those of the smallest w_j
        self._units = np.where(self.thresh > 0, self.thresh, self.weights)
        self._b_units = float(self._units[np.argmin(self.weights)])

    def norms(self, v) -> np.ndarray:
        return np.sqrt(self._reduce(np.add, v * v))

    def penalty(self, x) -> float:
        return float(self.thresh @ self.norms(x))

    def mapping(self, v, v_b: float) -> float:
        """Largest ||v_j|| and |v_b| in units: the gradient mapping's
        residual, where v is the curvature times the step."""
        with np.errstate(over="ignore"):
            return max(float(np.max(self.norms(v) / self._units)),
                       abs(v_b) / self._b_units)

    def violations(self, x, g) -> np.ndarray:
        """Each group's KKT violation at the flat coordinates x, with
        gradients g, in its units: an active block needs g_j + lam w_j x_j /
        ||x_j|| = 0, a zero block ||g_j|| <= lam w_j."""
        norm_x = self.norms(x)
        with np.errstate(all="ignore"):
            coef = np.where(norm_x > 0, self.thresh / norm_x, 0.0)
            return np.where(
                norm_x > 0, self.norms(g + np.repeat(coef, self._sizes) * x),
                np.maximum(self.norms(g) - self.thresh, 0.0)) / self._units

    def kkt(self, x, g, g_b: float) -> float:
        """The largest violation, with b's: dR/db g_b must be 0."""
        viols = self.violations(x, g)
        viol_b = abs(g_b) / self._b_units
        # max keeps a NaN only as its first argument: `converged` must
        # never be true on one
        return math.nan if math.isnan(viol_b) else max(float(np.max(viols)),
                                                       viol_b)


def _layout(held, sizes) -> np.ndarray:
    """Offsets of flat coordinates that hold the blocks in `held`, each of
    its size in `sizes`; every other block's segment is empty."""
    return np.concatenate(([0], np.cumsum(np.where(held, sizes, 0))))


def _to_coords(blocks: GramBlocks, alpha) -> np.ndarray:
    return np.concatenate([blocks.coords(j, a) for j, a in enumerate(alpha)])


def solve(gram, labels, partition: GroupPartition, cfg: SolverConfig,
          init=None):
    """Run monotone accelerated proximal gradient (FISTA) to convergence.

    Returns (alpha, SolveReport). Converged means the largest per-group KKT
    residual at the returned alpha is at most cfg.tol * lam * w_j (cfg.tol *
    w_j when lam is 0) and, with cfg.fit_intercept, that |dR/db| at the
    returned intercept is at most cfg.tol * lam * min_j w_j. The solve
    stops once the residual reaches cfg.tol / 10, after cfg.max_iters
    iterations, or once not even a plain prox-gradient step lowers the
    computed objective (the rounding floor, near 1e-6 lam w_j); it warns on
    stderr where the returned point is not within cfg.tol.

    With cfg.fit_intercept, b starts at 0 and each step moves it with the
    blocks under one line search, whose backtracking stops at s >= d + 1.

    Iterations work on whole arrays over a working set W of groups: W's
    coordinates as one flat vector, W's gradients from one `gradients`
    call and the margins from one `scores` call, and one batched
    `group_update` per backtracking attempt, warm-started from the previous
    multipliers. W is every group but those a cold start on dense blocks
    sets aside by the basic strong rule, ||g_j|| / w_j < 2 lam -
    lambda_max at alpha = 0; once W's residual reaches cfg.tol / 10, a
    set-aside block whose own residual is above that joins W (see the
    module docstring). On a GramBlocks from kernels.gram_blocks, every
    iteration of a solve at 0 < lam <= lambda_max / 3 runs in the blocks'
    eigenbases, with a per-coordinate majorizer, as does every iteration
    where the blocks already hold bases within the solve's basis_budget.
    Cold or warm, an unsettled start on blocks without bases reads that
    ratio off the gradient at alpha = 0 block by block, and builds no block
    dense past the first one whose own ratio and residual decide for the
    bases. alpha is returned in its own coordinates, and the objective
    reported last in the trace, `converged` and the report's kkt_residual
    are exact kernel values at the returned alpha and intercept, over every
    group, with the iterations' own risk and group reductions.

    An init that is not finite, or whose margins or objective are not,
    raises DataError before any basis is built.
    """
    labels = np.asarray(labels, dtype=float)
    n, d = labels.size, partition.d
    blocks = _as_blocks(gram)
    if len(blocks) != d or blocks.n != n:
        raise DataError("gram blocks inconsistent with labels/partition")
    alpha = np.zeros((d, n)) if init is None else np.array(init, dtype=float)
    if alpha.shape != (d, n):
        raise DataError("init must have shape (d, n)")
    if not np.all(np.isfinite(alpha)):
        raise DataError("init must be finite")

    lam, weights = cfg.lam, partition.weights
    # bases built to this budget or a tighter one serve; looser ones are
    # dropped, as are all where the budget is under the floor that the
    # decompositions' rounding sets
    budget = basis_budget(n, partition, cfg)
    may_factor = blocks.floor <= budget
    if not may_factor or (blocks.budget is not None
                          and blocks.budget > budget):
        blocks.drop_bases()
    risk = LabelledRisk(labels, _class_weights(cfg), cfg.loss_params)
    settle = _SETTLE_SHRINK * cfg.tol
    # the working set W is every group not set aside: only a cold start's
    # strong rule, below, sets any aside
    aside = np.zeros(d, dtype=bool)

    def grads(f, b):
        # the risk and slopes at margins f + b, W's gradients as one flat
        # vector, and dR/db where the solve fits an intercept (else 0)
        r, s = risk.risk_and_slopes(f, b)
        return (r, s, blocks.gradients(s, work),
                float(np.sum(s)) if cfg.fit_intercept else 0.0)

    def storage():
        # W's ids for the products (None for all), and the segments and
        # curvatures of its coordinates as held, a set-aside group's empty
        kept = np.flatnonzero(~aside)
        return (None if kept.size == d else kept,
                _Groups(_layout(~aside, np.diff(blocks.offsets)), lam,
                        weights),
                _flat([majorization_constant(blocks, labels, cfg, j)
                       for j in kept]))

    # b's curvature (module docstring); without an intercept dR/db is 0, so
    # b stays 0 and its terms below add exactly 0
    curv_b = float(1.01 * curvature_bound(cfg.loss_params) * _c_max(cfg))
    # by Cauchy-Schwarz over the d blocks and a fitted b, scale >= cap bounds
    cap = d + cfg.fit_intercept

    # iterates live in the blocks' coordinates: alpha_j, or U_j^T alpha_j;
    # the start is checked in those the blocks hold (exact without bases)
    work, groups = None, _Groups(blocks.offsets, lam, weights)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _to_coords(blocks, alpha)
        f, b = blocks.scores(x), 0.0
        if not np.all(np.isfinite(f)):
            raise DataError("margin must be finite")
        r, s = risk.risk_and_slopes(f, b)
        if not np.isfinite(r + groups.penalty(x)):
            raise DataError("init must give a finite objective")
    g_b = float(np.sum(s)) if cfg.fit_intercept else 0.0
    # A solve on blocks without bases chooses its coordinates here, once,
    # unless its start is settled. A warm start first takes its own
    # residual. Then the gradient at alpha = 0 (whose largest ||g_j|| / w_j
    # is lambda_max; a cold start's own) is read one block at a time, each
    # block built as its product needs it: the first block whose own ratio
    # shows lam <= lambda_max / 3 and whose own residual there is above tol
    # / 10 takes the bases, the start is mapped into them, and the blocks
    # after it are never built dense. A cold start's residual is then its
    # deciding block's, a lower bound on the start's.
    choose = may_factor and blocks.budget is None
    cold = not np.any(alpha)
    g = kkt = None
    if not (choose and cold):
        g = blocks.gradients(s)
        kkt = groups.kkt(x, g, g_b)
    if choose and (cold or not kkt <= settle):
        s0 = s if cold else risk.risk_and_slopes(np.zeros(n), 0.0)[1]
        parts = []
        for j in range(d):
            parts.append(blocks.dot(j, s0))
            one = _Groups(np.array([0, n]), lam, weights[j:j + 1])
            viol = one.kkt(np.zeros(n), parts[j], 0.0)
            if (viol > settle
                    and float(np.max(one.norms(parts[j]) / one.weights))
                    >= _BASES_FIRST * lam and blocks.to_eigenbasis(budget)):
                kkt = viol if cold else kkt
                x = _to_coords(blocks, alpha)
                f, g = blocks.scores(x), None
                r = risk.risk(f, b)
                break
        else:
            if cold:
                g = np.concatenate(parts)
                kkt = groups.kkt(x, g, g_b)
                # the strong rule sets aside each group whose ||g_j|| / w_j
                # is below 2 lam - lambda_max: W's coordinates and
                # gradients are the others'
                ratio = groups.norms(g) / groups.weights
                aside = ratio < 2.0 * lam - np.max(ratio)
                held = np.repeat(~aside, n)
                x, g = x[held], g[held]
    met = kkt <= cfg.tol        # kkt has met tol at some iterate
    work, groups, curv = storage()
    obj = r + groups.penalty(x)
    trace = [obj]
    x_prev, b_prev, f_prev = x, b, f
    t = 1.0         # momentum sequence; 1 means restarted
    scale = 1.0     # backtracked multiplier on the curvature constants
    # each block's last prox multiplier times scale: the next one's start
    warm = np.zeros(d)
    it = 0
    while it < cfg.max_iters and not kkt <= settle:
        it += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        if beta == 0.0:
            if g is None:
                r, s, g, g_b = grads(f, b)
            y, y_b, f_y, r_y, g_y, gb_y = x, b, f, r, g, g_b
        else:
            # margins are linear in alpha and b, so extrapolating them is exact
            y = x + beta * (x - x_prev)
            y_b = b + beta * (b - b_prev)
            f_y = f + beta * (f - f_prev)
            r_y, _, g_y, gb_y = grads(f_y, y_b)
        while True:
            nu = warm / scale
            z = group_update(y, g_y, scale * curv, lam, groups.weights,
                             groups.offsets, nu)
            warm = nu * scale
            z_b = y_b - gb_y / (scale * curv_b)
            f_z = blocks.scores(z, work)
            r_z = risk.risk(f_z, z_b)
            step, step_b = z - y, z_b - y_b
            bound = (r_y + float(g_y @ step) + gb_y * step_b
                     + 0.5 * scale * (float(step @ (curv * step))
                                      + curv_b * step_b * step_b))
            if r_z <= bound or scale >= cap:
                break
            scale *= 2.0
        obj_z = r_z + groups.penalty(z)
        if not np.isfinite(obj_z):
            raise SolverError("non-finite objective; majorization constant bug")
        if obj_z > obj:
            # monotone safeguard: reject the step and restart the momentum
            trace.append(obj)
            if beta == 0.0:
                break       # not even a plain step descends: rounding floor
            t, x_prev, b_prev, f_prev = 1.0, x, b, f
            continue
        # adaptive restart when the step turns against the momentum
        restart = (float((y - z) @ (z - x)) + (y_b - z_b) * (z_b - b)) > 0.0
        t = 1.0 if restart else t_next
        x_prev, b_prev, f_prev = x, b, f
        x, b, f, r, obj = z, z_b, f_z, r_z, obj_z
        trace.append(obj)
        g = None
        # gradient mapping at z: the KKT residual there if grad(z) = grad(y)
        mapping = groups.mapping(scale * curv * step, scale * curv_b * step_b)
        if mapping <= cfg.tol or met:
            _, s, g, g_b = grads(f, b)
            kkt = groups.kkt(x, g, g_b)
            met = met or kkt <= cfg.tol
        if kkt <= settle and aside.any():
            # W's residual has settled: each set-aside block takes one exact
            # product at x, and those above tol / 10 join W at zero (dense
            # coordinates, n a block), with a momentum restart
            viols = _Groups(_layout(aside, n), lam, weights).violations(
                np.zeros(n * np.count_nonzero(aside)),
                blocks.exact_gradients(s, np.flatnonzero(aside)))
            kkt = max(kkt, float(np.max(viols)))
            join = ~(viols <= settle)
            if join.any():
                x = np.insert(x, np.repeat(groups.offsets[:-1][join], n), 0.0)
                aside &= ~join
                work, groups, curv = storage()
                t, x_prev, b_prev, f_prev, g = 1.0, x, b, f, None
        scale *= 0.97

    alpha = np.zeros((d, n))
    for j in np.flatnonzero(~aside):
        alpha[j] = blocks.expand(j, x[groups.offsets[j]:groups.offsets[j + 1]])
    # the reported objective and KKT residual use exact kernel values: on
    # blocks without bases, those of the iterate where the residual over
    # every group settled, else recomputed at the returned alpha
    if not (kkt <= settle and blocks.budget is None):
        trace[-1], kkt, _ = _exact(blocks, risk, alpha, partition, lam, b,
                                   cfg.fit_intercept)
    converged = kkt <= cfg.tol
    if not converged:
        print(f"gska: warning: solve stopped after {it} iterations "
              f"(max_iters={cfg.max_iters}) at lambda={lam!r}, "
              f"sigma={cfg.sigma!r} with KKT residual {kkt:.3g} > "
              f"tol={cfg.tol!r}", file=sys.stderr)
    active = tuple(j for j in range(d) if np.any(alpha[j]))
    alpha.setflags(write=False)
    report = SolveReport(iterations=it, objective_trace=tuple(trace),
                         converged=converged, active_groups=active,
                         intercept=b, kkt_residual=kkt)
    return alpha, report


def lambda_max(gram, labels, partition: GroupPartition,
               cfg: SolverConfig) -> float:
    """Smallest lam at which the all-zero solution is optimal.

    max_j ||grad_j at alpha = 0||_2 / w_j, the KKT residual of alpha = 0 at
    lam = 0; for lam at or above this value the zero blocks satisfy the
    subgradient condition.
    """
    return lambda_maxes(gram, labels, partition, [cfg])[0]


def lambda_maxes(gram, labels, partition: GroupPartition,
                 cfgs) -> list[float]:
    """lambda_max at each config in cfgs, in one pass over the blocks.

    Each block is read once for every config's gradient at alpha = 0, and
    a block not yet built is built for those products alone, so the pass
    holds at most one block beside those already held. The residuals are
    those of `_exact`, bit for bit.
    """
    blocks = _as_blocks(gram)
    labels = np.asarray(labels, dtype=float)
    slopes = [LabelledRisk(labels, _class_weights(cfg), cfg.loss_params)
              .risk_and_slopes(np.zeros(blocks.n), 0.0)[1] for cfg in cfgs]
    grads = zip(*(blocks.dots(j, slopes) for j in range(len(blocks))))
    groups = _Groups(np.arange(partition.d + 1) * blocks.n, 0.0,
                     partition.weights)
    zero = np.zeros(partition.d * blocks.n)
    return [groups.kkt(zero, _flat(g), 0.0) for g in grads]
