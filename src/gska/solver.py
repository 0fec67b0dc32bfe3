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
are wrapped in one). A solve still running after 50 iterations asks it to
hold every block in an orthonormal eigenbasis, K_j ~ U_j diag(Lambda_j)
U_j^T, and the remaining iterations, like later solves on the same blocks
whose budget the bases meet, run in beta_j = U_j^T alpha_j (variable-metric
forward-backward splitting: Becker & Fadili 2012; Chouzenoux, Pesquet &
Repetti 2014). There
||beta_j|| = ||alpha_j||, so the penalty is unchanged, and block j's
curvature is bounded coordinate by coordinate, m_j = 1.01 * L * c_max *
Lambda_j^2 / n, in place of the one scalar gamma_j that the largest
eigenvalue sets; the prox step is the group soft-threshold in that metric.
The shared multiplier s still backtracks, and its cap still bounds the
coupling between blocks by Cauchy-Schwarz. Each basis is built to the
solve's error budget (basis_budget): its error cannot move a gradient by
more than 1% of tol * lam * w_j. A solve reuses bases built to its budget or
a tighter one and rebuilds dense the blocks held in looser ones; one whose
budget is under GramBlocks.floor, a tiny tol, runs dense. The objective
then moves by at most 1% of tol times the penalty term, which bounds how far
the trace can rise where a solve switches to the bases and at its last
entry. That entry, the KKT residual that decides `converged` (reported as
SolveReport.kkt_residual), and the public objective, group_gradient and
lambda_max use exact kernel values at alpha_j = U_j beta_j. A solve that
meets tol within its first 50 iterations stays dense to the end.

Every iteration works on whole arrays, with a fixed number of numpy calls
whatever d is. The blocks' coordinates are one flat vector, block j's at
GramBlocks.offsets[j]:offsets[j + 1]. All blocks' gradients take one
`gradients` call and the summed margins one `scores` call, a single product
each with the stacked bases. One batched group_update solves the d secular
equations together, each from its previous root rescaled by the change in s.
The penalty, the quadratic bound, the restart test, the gradient mapping
and the KKT check reduce the flat vectors group by group, and the loss's
per-sample factors are formed once per solve (coherence.LabelledRisk).
The exact final objective and KKT check, and the public objective,
group_gradient and lambda_max, use that same arithmetic on alpha's own flat
coordinates (n per block), with GramBlocks.exact_scores and exact_gradients
for the products, in one helper (_exact); on dense blocks those are the
iterations' own products.
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
from .kernels import GramBlocks


class SolverError(RuntimeError):
    """Raised when the optimizer encounters an internal inconsistency."""


# Where momentum carries the residual through tol in one large step (near
# lambda_max a solve meets tol in ~6 iterations), the first residual below
# tol lands anywhere in (0, tol]; a solve that meets tol runs on to
# _SETTLE_SHRINK * tol, so that the answer's accuracy is steady.
_SETTLE_SHRINK = 0.1
# After this many iterations (in dense products, about the cost of factoring
# the blocks at n = 2000) a solve that has not met tol asks for eigenbases;
# shorter solves stay dense.
_FACTOR_AFTER = 50
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


def basis_budget(n: int, partition: GroupPartition,
                 cfg: SolverConfig) -> float:
    """B, the largest ||K_j - U_j Lambda_j U_j^T||_2 a solve at cfg allows.

    A block gradient multiplies a vector of norm at most c_max sup|loss'| /
    sqrt(n), so a basis error of B moves it by at most 1% of tol * lam *
    min_j w_j (tol * min_j w_j at lam 0):

        B = 0.01 tol lam min_j w_j sqrt(n) / (c_max sup|loss'|)
    """
    cw = _class_weights(cfg)
    c_max = max(cw.weight_pos, cw.weight_neg)
    return float(_FACTOR_SHARE * cfg.tol * (cfg.lam if cfg.lam > 0 else 1.0)
                 * min(partition.weights) * np.sqrt(n)
                 / (c_max * slope_bound(cfg.loss_params)))


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
    cw = _class_weights(cfg)
    c_max = max(cw.weight_pos, cw.weight_neg)
    return 1.01 * L * c_max * spectrum / labels.size


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
    the root is the same as from nu0.
    """
    alpha = np.asarray(alpha, dtype=float)
    grad = np.asarray(grad, dtype=float)
    m = np.asarray(gamma, dtype=float)
    if m.shape != alpha.shape:
        m = np.broadcast_to(m, alpha.shape)
    starts, sizes = ((0,), alpha.shape) if offsets is None else (
        offsets[:-1], offsets[1:] - offsets[:-1])
    thresh = lam * np.atleast_1d(np.asarray(w, dtype=float))
    m_max = np.maximum.reduceat(m, starts)
    m_min = np.minimum.reduceat(m, starts)
    if not (m_max.min() > 0 and m_min.min() >= 0):
        raise DataError("gamma_j must be non-negative and not all zero")
    a = m * alpha - grad
    a2 = a * a
    norm = np.sqrt(np.add.reduceat(a2, starts))
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
            q2 = np.add.reduceat(e, starts)     # ||a / (1 + nu m)||^2
            qn = np.sqrt(q2)
            # d(1/qn)/dnu = sum(a^2 m / (1 + nu m)^3) / qn^3
            e *= inv
            step = (q2 * (qn * inv_thresh - 1.0)
                    / np.add.reduceat(e * m, starts))
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
        self._starts, self._sizes = offsets[:-1], np.diff(offsets)
        self.weights = np.asarray(weights, dtype=float)
        self.thresh = lam * self.weights
        # lam * w_j, or w_j where that is 0 (lam 0, or below the smallest
        # float); b's are those of the smallest w_j
        self._units = np.where(self.thresh > 0, self.thresh, self.weights)
        self._b_units = float(self._units[np.argmin(self.weights)])

    def norms(self, v) -> np.ndarray:
        return np.sqrt(np.add.reduceat(v * v, self._starts))

    def penalty(self, x) -> float:
        return float(self.thresh @ self.norms(x))

    def mapping(self, v, v_b: float) -> float:
        """Largest ||v_j|| and |v_b| in units: the gradient mapping's
        residual, where v is the curvature times the step."""
        with np.errstate(over="ignore"):
            return max(float(np.max(self.norms(v) / self._units)),
                       abs(v_b) / self._b_units)

    def kkt(self, x, g, g_b: float) -> float:
        """Largest KKT violation at the flat coordinates x, with gradients
        g and dR/db g_b, in the groups' units: an active block needs g_j +
        lam w_j x_j / ||x_j|| = 0, a zero block ||g_j|| <= lam w_j, and b
        needs g_b = 0."""
        norm_x = self.norms(x)
        with np.errstate(all="ignore"):
            coef = np.where(norm_x > 0, self.thresh / norm_x, 0.0)
            viols = np.where(
                norm_x > 0, self.norms(g + np.repeat(coef, self._sizes) * x),
                np.maximum(self.norms(g) - self.thresh, 0.0)) / self._units
        viol_b = abs(g_b) / self._b_units
        # max keeps a NaN only as its first argument: `converged` must
        # never be true on one
        return math.nan if math.isnan(viol_b) else max(float(np.max(viols)),
                                                       viol_b)


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

    Iterations work on whole arrays: the blocks' coordinates as one flat
    vector (GramBlocks.offsets), every block's gradient from one
    `gradients` call and the margins from one `scores` call, and one
    batched `group_update` per backtracking attempt, warm-started from the
    previous multipliers. On a GramBlocks from kernels.gram_blocks,
    iterations past the 50th of a solve that has not met cfg.tol by then
    run in the blocks' eigenbases, with a per-coordinate majorizer (see the
    module docstring), and every iteration does where the blocks already
    hold bases within the solve's basis_budget; alpha is returned in its
    own coordinates, and the objective reported last in the trace,
    `converged` and the report's kkt_residual are computed from exact
    kernel values at the returned alpha, with the iterations' own risk and
    group reductions.
    """
    labels = np.asarray(labels, dtype=float)
    n, d = labels.size, partition.d
    blocks = _as_blocks(gram)
    if len(blocks) != d or blocks.n != n:
        raise DataError("gram blocks inconsistent with labels/partition")
    alpha = np.zeros((d, n)) if init is None else np.array(init, dtype=float)
    if alpha.shape != (d, n):
        raise DataError("init must have shape (d, n)")

    lam, weights = cfg.lam, partition.weights
    cw = _class_weights(cfg)
    c_max = max(cw.weight_pos, cw.weight_neg)
    # bases built to this budget or a tighter one serve; looser ones are
    # dropped, as are all where the budget is under the floor that the
    # decompositions' rounding sets
    budget = basis_budget(n, partition, cfg)
    may_factor = blocks.floor <= budget
    if not may_factor or (blocks.budget is not None
                          and blocks.budget > budget):
        blocks.drop_bases()
    risk = LabelledRisk(labels, cw, cfg.loss_params)

    def grads(f, b):
        # the risk at margins f + b, the blocks' gradients as one flat
        # vector, and dR/db where the solve fits an intercept (else 0)
        r, s = risk.risk_and_slopes(f, b)
        return (r, blocks.gradients(s),
                float(np.sum(s)) if cfg.fit_intercept else 0.0)

    def storage():
        # the segments and curvatures of the blocks' coordinates as held
        return _Groups(blocks.offsets, lam, weights), np.concatenate(
            [majorization_constant(blocks, labels, cfg, j)
             for j in range(d)])

    # b's curvature (module docstring); without an intercept dR/db is 0, so
    # b stays 0 and its terms below add exactly 0
    curv_b = float(1.01 * curvature_bound(cfg.loss_params) * c_max)
    # by Cauchy-Schwarz over the d blocks and a fitted b, scale >= cap bounds
    cap = d + cfg.fit_intercept

    # iterates live in the blocks' coordinates: alpha_j, or U_j^T alpha_j
    groups, curv = storage()
    x = _to_coords(blocks, alpha)
    f, b = blocks.scores(x), 0.0
    r, g, g_b = grads(f, b)                 # g: at x, or None
    obj = r + groups.penalty(x)
    kkt = groups.kkt(x, g, g_b)
    met = kkt <= cfg.tol        # kkt has met tol at some iterate
    trace = [obj]
    x_prev, b_prev, f_prev = x, b, f
    t = 1.0         # momentum sequence; 1 means restarted
    scale = 1.0     # backtracked multiplier on the curvature constants
    # each block's last prox multiplier times scale: the next one's start
    warm = np.zeros(d)
    it = 0
    while it < cfg.max_iters and not kkt <= _SETTLE_SHRINK * cfg.tol:
        if (it == _FACTOR_AFTER and not met and may_factor
                and blocks.to_eigenbasis(budget)):
            # go on from the same point in the blocks' eigenbases
            x, x_prev = (_to_coords(blocks, v.reshape(d, n))
                         for v in (x, x_prev))
            groups, curv = storage()
            f, f_prev = blocks.scores(x), blocks.scores(x_prev)
            r = risk.risk(f, b)
            obj = r + groups.penalty(x)
            g, warm = None, np.zeros(d)
        it += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        if beta == 0.0:
            if g is None:
                r, g, g_b = grads(f, b)
            y, y_b, f_y, r_y, g_y, gb_y = x, b, f, r, g, g_b
        else:
            # margins are linear in alpha and b, so extrapolating them is exact
            y = x + beta * (x - x_prev)
            y_b = b + beta * (b - b_prev)
            f_y = f + beta * (f - f_prev)
            r_y, g_y, gb_y = grads(f_y, y_b)
        while True:
            nu = warm / scale
            z = group_update(y, g_y, scale * curv, lam, groups.weights,
                             groups.offsets, nu)
            warm = nu * scale
            z_b = y_b - gb_y / (scale * curv_b)
            f_z = blocks.scores(z)
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
            _, g, g_b = grads(f, b)
            kkt = groups.kkt(x, g, g_b)
            met = met or kkt <= cfg.tol
        scale *= 0.97

    # the reported objective and KKT residual use exact kernel values
    alpha = np.array([blocks.expand(j, x_j) for j, x_j in
                      enumerate(np.split(x, groups.offsets[1:-1]))])
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
    blocks, risk, zero = _entry(gram, labels, partition, cfg)
    return _exact(blocks, risk, zero, partition, 0.0, 0.0)[1]
