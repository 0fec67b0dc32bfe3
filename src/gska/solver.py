"""Monotone accelerated proximal gradient for the group-sparse kernel objective.

Minimizes, over coefficient blocks alpha^(j) in R^n,

    (1/n) sum_i c(y_i) loss(y_i * f_i)  +  lam * sum_j w_j ||alpha^(j)||_2,
    f_i = sum_j (K^(j) alpha^(j))_i

with FISTA (Beck & Teboulle 2009) over all blocks at once. Each block's
smooth term is upper-bounded by a quadratic with a diagonal curvature,
every coordinate's gamma_j on a dense block (global loss curvature times
the spectral norm of K^(j)T K^(j) / n, times a 1.01 safety factor). The
prox step is the group soft-threshold in the metric s times that diagonal,
in closed form where the diagonal is constant; the shared multiplier s
backtracks on the quadratic upper bound and shrinks by 0.97 after each
accepted step. Momentum restarts when the step turns against it
(O'Donoghue & Candes 2015), and a step that would raise the objective is
rejected, so the objective trace never increases. The solve stops on the
largest per-group KKT residual at the returned point, in units of
lam * w_j: once it meets tol, it runs on until the residual reaches
tol / 10. Deterministic given inputs: no randomization, fixed summation
order.

With fit_intercept, every margin gains an unpenalized b, one more FISTA
coordinate: it shares the momentum, its gradient dR/db sums the per-sample
slopes of the block gradients, and its curvature 1.01 * L * c_max, times s,
joins the quadratic bound, the restart test and the gradient mapping. The
backtracking cap becomes s >= d + 1 (Cauchy-Schwarz over d + 1 blocks). The
KKT residual holds |dR/db| in units of lam * min_j w_j: `converged` covers b.

Products with the Gram blocks go through a kernels.GramBlocks (plain arrays
are wrapped in one). A solve still running after 50 iterations asks it to
hold every block in an orthonormal eigenbasis, K_j ~ U_j diag(Lambda_j)
U_j^T, and the remaining iterations, like later solves on the same blocks,
run in beta_j = U_j^T alpha_j (variable-metric forward-backward splitting:
Becker & Fadili 2012; Chouzenoux, Pesquet & Repetti 2014). There
||beta_j|| = ||alpha_j||, so the penalty is unchanged, and block j's
curvature is bounded coordinate by coordinate, m_j = 1.01 * L * c_max *
Lambda_j^2 / n, in place of the one scalar gamma_j that the largest
eigenvalue sets; the prox step is the group soft-threshold in that metric.
The shared multiplier s still backtracks, and its cap still bounds the
coupling between blocks by Cauchy-Schwarz. A basis from a pivoted-Cholesky
factor has trace error at most n * 1e-10, one from a full eigendecomposition
drops eigenvalues at or below 1e-10; a solve allows bases only when that
error cannot move a gradient by more than 1% of tol * lam * w_j, so one that
asks for a tiny tol runs dense (rebuilding blocks an earlier solve held in a
basis). The objective then moves by at most 1% of tol times the penalty
term, which bounds how far the trace can rise where a solve switches to the
bases and at its last entry. That entry, the KKT residual that decides
`converged`, and the public objective, group_gradient and lambda_max use
exact kernel values at alpha_j = U_j beta_j. A solve that meets tol within
its first 50 iterations stays dense to the end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coherence import (ClassWeights, CoherenceParams, curvature_bound,
                        empirical_risk, loss_grad, slope_bound)
from .data import DataError, GroupPartition
from .kernels import _FACTOR_EPS, GramBlocks


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


def _class_weights(cfg: SolverConfig) -> ClassWeights:
    # what a solve weights the classes by: unit weights where cfg has none
    return _UNIT_WEIGHTS if cfg.class_weights is None else cfg.class_weights


def _as_blocks(gram) -> GramBlocks:
    return gram if isinstance(gram, GramBlocks) else GramBlocks(gram)


def _scores(alpha, dot) -> np.ndarray:
    # f = sum_j K^(j) alpha^(j), without the intercept; dot(j, v) is K^(j) v.
    # A zero block adds exactly nothing, so it is skipped.
    f = np.zeros(alpha.shape[1])
    for j, a_j in enumerate(alpha):
        if np.any(a_j):
            f += dot(j, a_j)
    return f


def _risk(f, b, labels, cfg: SolverConfig) -> float:
    return empirical_risk(labels * (f + b), labels, _class_weights(cfg),
                          cfg.loss_params)


def _slopes(f, b, labels, cfg: SolverConfig) -> np.ndarray:
    # dR/df = (1/n) c(y) loss'(y (f + b)) y: block j's risk gradient is
    # K^(j) of it, and dR/db is its sum
    c = _class_weights(cfg).per_sample(labels)
    slope = loss_grad(labels * (f + b), cfg.loss_params)
    return c * slope * labels / labels.size


def _grads(f, b, dot, groups, labels, cfg: SolverConfig):
    # block gradients of the risk, j in groups, and dR/db where the solve
    # fits an intercept (else 0), from one set of per-sample slopes
    common = _slopes(f, b, labels, cfg)
    grad_b = float(np.sum(common)) if cfg.fit_intercept else 0.0
    return [dot(j, common) for j in groups], grad_b


def objective(alpha, gram, labels, partition: GroupPartition,
              cfg: SolverConfig, intercept: float = 0.0) -> float:
    alpha = np.asarray(alpha, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if alpha.shape != (partition.d, labels.size):
        raise DataError("alpha must be d blocks of n coefficients")
    return (_risk(_scores(alpha, _as_blocks(gram).dot), intercept, labels,
                  cfg)
            + _penalty(alpha, partition.weights, cfg.lam))


def _penalty(alpha, weights, lam: float) -> float:
    # the group-lasso term; solve and objective both score through it
    return lam * sum(w * float(np.linalg.norm(a_j))
                     for w, a_j in zip(weights, alpha))


def group_gradient(alpha, gram, labels, partition: GroupPartition,
                   cfg: SolverConfig, j: int,
                   intercept: float = 0.0) -> np.ndarray:
    if not (0 <= j < partition.d):
        raise DataError(f"invalid group id {j}")
    alpha = np.asarray(alpha, dtype=float)
    labels = np.asarray(labels, dtype=float)
    dot = _as_blocks(gram).dot
    return _grads(_scores(alpha, dot), intercept, dot, (j,), labels,
                  cfg)[0][0]


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


def group_update(alpha_j, grad_j, gamma_j, lam: float,
                 w_j: float) -> np.ndarray:
    """Proximal step of lam * w_j ||.|| in the majorizer's metric.

    Minimizes (1/2)(b - u)^T diag(gamma_j) (b - u) + lam w_j ||b|| with
    u = alpha_j - grad_j / gamma_j, where gamma_j >= 0 is one curvature per
    coordinate (zero only where grad_j is) or a scalar, the same for every
    coordinate. b = 0 when ||gamma_j u|| <= lam w_j, and otherwise
    b = gamma_j u / (gamma_j + mu), where mu > 0 solves
    mu ||gamma_j u / (gamma_j + mu)|| = lam w_j; at a constant gamma_j this
    is the group soft-threshold u (1 - lam w_j / ||gamma_j u||).
    gamma_j u = gamma_j alpha_j - grad_j is formed directly, so a zero
    curvature never divides.
    """
    alpha_j = np.asarray(alpha_j, dtype=float)
    grad_j = np.asarray(grad_j, dtype=float)
    thresh = lam * w_j
    m = np.broadcast_to(np.asarray(gamma_j, dtype=float), alpha_j.shape)
    m_max = float(np.max(m))
    if not (m_max > 0 and float(np.min(m)) >= 0):
        raise DataError("gamma_j must be non-negative and not all zero")
    a = m * alpha_j - grad_j
    norm = float(np.linalg.norm(a))
    if norm <= thresh:
        return np.zeros_like(a)
    # With nu = 1 / mu, b = nu a / (1 + nu m) and ||b|| / nu = thresh. The
    # reciprocal 1 / ||a / (1 + nu m)|| is concave and increasing in nu
    # (the perspective of the trust-region secular function), so Newton on
    # it from a nu left of the root climbs to the root without passing it.
    # At nu0, ||a / (1 + nu0 m)|| >= norm / (1 + nu0 max m) = thresh, with
    # equality (the root) where m is constant. nu0 is infinite where thresh
    # is 0 or norm / thresh overflows: the plain step a / m.
    nu = (norm / thresh - 1.0) / m_max if thresh > 0 else math.inf
    if nu == math.inf:
        return np.divide(a, m, out=np.zeros_like(a), where=m > 0)
    a2 = a * a
    a2m = a2 * m
    for _ in range(_PROX_MAX_ITERS):
        inv = 1.0 / (1.0 + nu * m)
        inv2 = inv * inv
        qn = np.sqrt(float(a2 @ inv2))       # ||a / (1 + nu m)||
        if qn <= thresh * _PROX_STOP:
            break
        # d(1/qn)/dnu = sum(a^2 m / (1 + nu m)^3) / qn^3
        step = (1.0 / thresh - 1.0 / qn) * qn ** 3 / float(a2m @ (inv2 * inv))
        if not step > 1e-15 * nu:
            break
        nu += step
    return nu * a / (1.0 + nu * m)


def _units(lam: float, w: float) -> float:
    # lam * w_j, or w_j where that is 0 (lam 0, or below the smallest float)
    thresh = lam * w
    return thresh if thresh > 0 else w


def _kkt_residual(alpha, grads, lam: float, weights,
                  grad_b: float = 0.0) -> float:
    """Largest KKT violation, in units of lam * w_j (w_j at lam 0).

    An active block needs g_j + lam w_j alpha_j / ||alpha_j|| = 0, a zero
    block ||g_j|| <= lam w_j, and a fitted intercept dR/db = grad_b = 0,
    measured in units of lam * min_j w_j.
    """
    viols = [abs(grad_b) / _units(lam, min(weights))]
    for a, g, w in zip(alpha, grads, weights):
        thresh = lam * w
        norm_a = float(np.linalg.norm(a))
        if norm_a > 0:
            viol = float(np.linalg.norm(g + (thresh / norm_a) * a))
        else:
            viol = max(float(np.linalg.norm(g)) - thresh, 0.0)
        viols.append(viol / _units(lam, w))
    # max would drop a NaN after the first entry; `converged` must never
    # be true on one
    return math.nan if any(map(math.isnan, viols)) else max(viols)


def _to_coords(blocks: GramBlocks, alpha) -> np.ndarray:
    return np.array([blocks.coords(j, a) for j, a in enumerate(alpha)])


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

    On a GramBlocks from kernels.gram_blocks, iterations past the 50th of a
    solve that has not met cfg.tol by then run in the blocks' eigenbases,
    with a per-coordinate majorizer (see the module docstring); alpha is
    returned in its own coordinates, and the objective reported last in the
    trace and `converged` are still computed from exact kernel values at
    the returned alpha.
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
    groups = range(d)
    # A basis's error E = K - U Lambda U^T has ||E v|| <= n _FACTOR_EPS ||v||
    # (tr(E) bounds it for a PSD factor's error, _FACTOR_EPS for dropped
    # eigenvalues), and the vector a block gradient multiplies has norm at
    # most c_max sup|loss'| / sqrt(n).
    cw = _class_weights(cfg)
    c_max = max(cw.weight_pos, cw.weight_neg)
    may_factor = n * _FACTOR_EPS <= (
        _FACTOR_SHARE * cfg.tol * (lam if lam > 0 else 1.0) * min(weights)
        * np.sqrt(n) / (c_max * slope_bound(cfg.loss_params)))
    if not may_factor:
        blocks.drop_bases()
    # iterates live in each block's coordinates: alpha_j, or U_j^T alpha_j
    alpha = _to_coords(blocks, alpha)
    curv = [majorization_constant(blocks, labels, cfg, j) for j in groups]
    dot = blocks.margins

    # b's curvature (module docstring); without an intercept dR/db is 0, so
    # b stays 0 and its terms below add exactly 0
    curv_b = float(1.01 * curvature_bound(cfg.loss_params) * c_max)
    # by Cauchy-Schwarz over the d blocks and a fitted b, scale >= cap bounds
    cap = d + cfg.fit_intercept
    # what the gradient mapping and the KKT residual are measured in
    units = [_units(lam, w) for w in weights]
    b_units = _units(lam, min(weights))

    f, b = _scores(alpha, dot), 0.0
    obj = _risk(f, b, labels, cfg) + _penalty(alpha, weights, lam)
    grad = blocks.gradient
    g, g_b = _grads(f, b, grad, groups, labels, cfg)    # at alpha, or None
    kkt = _kkt_residual(alpha, g, lam, weights, g_b)
    met = kkt <= cfg.tol        # kkt has met tol at some iterate
    trace = [obj]
    alpha_prev, b_prev, f_prev = alpha, b, f
    t = 1.0         # momentum sequence; 1 means restarted
    scale = 1.0     # backtracked multiplier on the curvature constants
    it = 0
    while it < cfg.max_iters and not kkt <= _SETTLE_SHRINK * cfg.tol:
        if (it == _FACTOR_AFTER and not met and may_factor
                and blocks.to_eigenbasis()):
            # go on from the same point in the blocks' eigenbases
            alpha = _to_coords(blocks, alpha)
            alpha_prev = _to_coords(blocks, alpha_prev)
            curv = [majorization_constant(blocks, labels, cfg, j)
                    for j in groups]
            f, f_prev = _scores(alpha, dot), _scores(alpha_prev, dot)
            obj = _risk(f, b, labels, cfg) + _penalty(alpha, weights, lam)
            g = None
        it += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        if beta == 0.0:
            if g is None:
                g, g_b = _grads(f, b, grad, groups, labels, cfg)
            y, y_b, f_y, g_y, gb_y = alpha, b, f, g, g_b
        else:
            # margins are linear in alpha and b, so extrapolating them is exact
            y = alpha + beta * (alpha - alpha_prev)
            y_b = b + beta * (b - b_prev)
            f_y = f + beta * (f - f_prev)
            g_y, gb_y = _grads(f_y, y_b, grad, groups, labels, cfg)
        r_y = _risk(f_y, y_b, labels, cfg)
        while True:
            z = np.array([group_update(y[j], g_y[j], scale * curv[j], lam,
                                       weights[j]) for j in range(d)])
            z_b = y_b - gb_y / (scale * curv_b)
            f_z = _scores(z, dot)
            r_z = _risk(f_z, z_b, labels, cfg)
            step, step_b = z - y, z_b - y_b
            bound = (r_y + float(np.sum(g_y * step)) + gb_y * step_b
                     + 0.5 * scale * (sum(float(s @ (c * s))
                                          for c, s in zip(curv, step))
                                      + curv_b * step_b * step_b))
            if r_z <= bound or scale >= cap:
                break
            scale *= 2.0
        obj_z = r_z + _penalty(z, weights, lam)
        if not np.isfinite(obj_z):
            raise SolverError("non-finite objective; majorization constant bug")
        if obj_z > obj:
            # monotone safeguard: reject the step and restart the momentum
            trace.append(obj)
            if beta == 0.0:
                break       # not even a plain step descends: rounding floor
            t, alpha_prev, b_prev, f_prev = 1.0, alpha, b, f
            continue
        # adaptive restart when the step turns against the momentum
        restart = (float(np.sum((y - z) * (z - alpha)))
                   + (y_b - z_b) * (z_b - b)) > 0.0
        t = 1.0 if restart else t_next
        alpha_prev, b_prev, f_prev = alpha, b, f
        alpha, b, f, obj = z, z_b, f_z, obj_z
        trace.append(obj)
        g = None
        # gradient mapping at z: the KKT residual there if grad(z) = grad(y)
        mapping = max(scale * curv_b * abs(step_b) / b_units,
                      *(float(np.linalg.norm(scale * c * s)) / u
                        for c, s, u in zip(curv, step, units)))
        if mapping <= cfg.tol or met:
            g, g_b = _grads(f, b, grad, groups, labels, cfg)
            kkt = _kkt_residual(alpha, g, lam, weights, g_b)
            met = met or kkt <= cfg.tol
        scale *= 0.97

    # the reported objective and KKT residual use exact kernel values
    alpha = np.array([blocks.expand(j, x) for j, x in enumerate(alpha)])
    f = _scores(alpha, blocks.dot)
    trace[-1] = _risk(f, b, labels, cfg) + _penalty(alpha, weights, lam)
    g, g_b = _grads(f, b, blocks.dot, groups, labels, cfg)
    kkt = _kkt_residual(alpha, g, lam, weights, g_b)
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
                         intercept=b)
    return alpha, report


def lambda_max(gram, labels, partition: GroupPartition,
               cfg: SolverConfig) -> float:
    """Smallest lam at which the all-zero solution is optimal.

    max_j ||grad_j at alpha = 0||_2 / w_j, the KKT residual of alpha = 0 at
    lam = 0; for lam at or above this value the zero blocks satisfy the
    subgradient condition.
    """
    labels = np.asarray(labels, dtype=float)
    zero = np.zeros((partition.d, labels.size))
    grads, _ = _grads(zero[0], 0.0, _as_blocks(gram).dot, range(partition.d),
                      labels, cfg)
    return _kkt_residual(zero, grads, 0.0, partition.weights)
