"""Monotone accelerated proximal gradient for the group-sparse kernel objective.

Minimizes, over coefficient blocks alpha^(j) in R^n,

    (1/n) sum_i c(y_i) loss(y_i * f_i)  +  lam * sum_j w_j ||alpha^(j)||_2,
    f_i = sum_j (K^(j) alpha^(j))_i

with FISTA (Beck & Teboulle 2009) over all blocks at once. Each block's
smooth term is upper-bounded by a quadratic with curvature gamma_j (global
loss curvature times the spectral norm of K^(j)T K^(j) / n, times a 1.01
safety factor); the prox step is the closed-form group soft-threshold with
curvature s * gamma_j, where the shared multiplier s backtracks on the
quadratic upper bound and shrinks by 0.97 after each accepted step.
Momentum restarts when the step turns against it (O'Donoghue & Candes
2015), and a step that would raise the objective is rejected, so the
objective trace never increases. The solve stops on the largest per-group
KKT residual at the returned point, in units of lam * w_j: once it meets
tol, up to 8 more iterations aim for tol / 10. Deterministic given
inputs: no randomization, fixed summation order.

With fit_intercept, every margin gains an unpenalized b. Before the first
iteration and after each accepted step, b takes one Newton step on the
weighted risk with the loss's exact second derivative, halved until the
risk does not rise. The KKT residual then also holds |dR/db| in units of
lam * min_j w_j, so `converged` certifies b as well.

Products with the Gram blocks go through a kernels.GramBlocks (plain arrays
are wrapped in one). A solve still running after 50 iterations asks it to
factor its blocks by pivoted Cholesky, and the remaining iterations, like
later solves on the same blocks, multiply by L_j (L_j^T v). A factor's
trace error is at most n * 1e-10 by construction; a solve allows factors
only when that bound cannot move a gradient by more than 1% of
tol * lam * w_j, so one that asks for a tiny tol runs dense (rebuilding
blocks an earlier solve factored). The objective then moves by at most 1%
of tol times the penalty term, which bounds how far the trace can rise
where a solve switches to factors and at its last entry. That entry, the
KKT residual that decides `converged`, and the public objective,
group_gradient and lambda_max use exact kernel values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .coherence import (ClassWeights, CoherenceParams, curvature_bound,
                        empirical_risk, loss_curvature, loss_grad, slope_bound)
from .data import DataError, GroupPartition
from .kernels import _FACTOR_EPS, GramBlocks


class SolverError(RuntimeError):
    """Raised when the optimizer encounters an internal inconsistency."""


# Where momentum carries the residual through tol in one large step (near
# lambda_max a solve meets tol in ~6 iterations), the first residual below
# tol lands anywhere in (0, tol]. A few more iterations towards tol / 10
# make the answer's accuracy steady there; a slow solve, whose residual
# falls ~1% per iteration, pays at most _SETTLE_ITERS more.
_SETTLE_ITERS = 8
_SETTLE_SHRINK = 0.1
# After this many iterations (in dense products, about the cost of factoring
# the blocks at n = 2000) a solve asks for factors; shorter solves stay dense.
_FACTOR_AFTER = 50
# share of tol * lam * w_j a factor's trace error may move a block gradient
_FACTOR_SHARE = 0.01
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
        if self.lam < 0:
            raise DataError("lam must be non-negative")
        if self.tol <= 0 or self.max_iters < 1:
            raise DataError("tol must be positive and max_iters >= 1")

    @property
    def loss_params(self) -> CoherenceParams:
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


def _grads(f, b, dot, groups, labels, cfg: SolverConfig) -> list[np.ndarray]:
    # block gradients of the risk, j in groups
    common = _slopes(f, b, labels, cfg)
    return [dot(j, common) for j in groups]


def _grad_b(f, b, labels, cfg: SolverConfig) -> float:
    # dR/db where the solve fits an intercept, else 0
    if not cfg.fit_intercept:
        return 0.0
    return float(np.sum(_slopes(f, b, labels, cfg)))


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
    return _grads(_scores(alpha, dot), intercept, dot, (j,), labels, cfg)[0]


def spectral_norm_sq(K: np.ndarray) -> float:
    """Largest eigenvalue of K^T K by power iteration, deterministic start."""
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
    raise SolverError("power iteration failed to converge")


def majorization_constant(gram, labels, cfg: SolverConfig, j: int) -> float:
    """Curvature constant for group j's quadratic upper bound.

    gamma_j = 1.01 * L * c_max * lambda_max(K^T K) / n with L the global
    loss curvature bound and c_max the larger class weight. A GramBlocks
    keeps lambda_max(K^T K) of each block from its first use, while the
    block is dense; K - L L^T is PSD, so the value still bounds a factor.
    """
    labels = np.asarray(labels)
    blocks = _as_blocks(gram)
    if j not in blocks.norms_sq:
        blocks.norms_sq[j] = spectral_norm_sq(blocks[j])
    L = curvature_bound(cfg.loss_params)
    cw = _class_weights(cfg)
    c_max = max(cw.weight_pos, cw.weight_neg)
    return 1.01 * L * c_max * blocks.norms_sq[j] / labels.size


def group_update(alpha_j, grad_j, gamma_j: float, lam: float,
                 w_j: float) -> np.ndarray:
    """Closed-form proximal step: group soft-threshold of the majorizer."""
    if gamma_j <= 0:
        raise DataError("gamma_j must be positive")
    u = gamma_j * np.asarray(alpha_j, dtype=float) - np.asarray(grad_j, dtype=float)
    norm = float(np.linalg.norm(u))
    thresh = lam * w_j
    if norm <= thresh:
        return np.zeros_like(u)
    return (u / gamma_j) * (1.0 - thresh / norm)


def _intercept_step(f, b, labels, cfg: SolverConfig) -> float:
    # one Newton step in b, halved while the weighted risk rises; the floor
    # keeps it finite where every margin is in a linear piece of the loss
    c = _class_weights(cfg).per_sample(labels)
    h = max(np.mean(c * loss_curvature(labels * (f + b), cfg.loss_params)),
            1e-12 * curvature_bound(cfg.loss_params) * np.mean(c))
    step = _grad_b(f, b, labels, cfg) / float(h)
    r0, t = _risk(f, b, labels, cfg), 1.0
    while _risk(f, b - t * step, labels, cfg) > r0:
        t *= 0.5
    return b - t * step


def _kkt_residual(alpha, grads, lam: float, weights,
                  grad_b: float = 0.0) -> float:
    """Largest KKT violation, in units of lam * w_j (w_j at lam 0).

    An active block needs g_j + lam w_j alpha_j / ||alpha_j|| = 0, a zero
    block ||g_j|| <= lam w_j, and a fitted intercept dR/db = grad_b = 0,
    measured in units of lam * min_j w_j.
    """
    w_min = min(weights)
    worst = abs(grad_b) / (lam * w_min if lam > 0 else w_min)
    for a, g, w in zip(alpha, grads, weights):
        thresh = lam * w
        norm_a = float(np.linalg.norm(a))
        if norm_a > 0:
            viol = float(np.linalg.norm(g + (thresh / norm_a) * a))
        else:
            viol = max(float(np.linalg.norm(g)) - thresh, 0.0)
        worst = max(worst, viol / (thresh if thresh > 0 else w))
    return worst


def solve(gram, labels, partition: GroupPartition, cfg: SolverConfig,
          init=None):
    """Run monotone accelerated proximal gradient (FISTA) to convergence.

    Returns (alpha, SolveReport). Converged means the largest per-group KKT
    residual at the returned alpha is at most cfg.tol * lam * w_j (cfg.tol *
    w_j when lam is 0) and, with cfg.fit_intercept, that |dR/db| at the
    returned intercept is at most cfg.tol * lam * min_j w_j. Once the
    residual is first found within cfg.tol, the solve stops when it reaches
    cfg.tol / 10 or, from 8 iterations later, at the first iterate within
    cfg.tol. Otherwise it stops after cfg.max_iters iterations, or earlier
    once not even a plain prox-gradient step lowers the computed objective
    (the rounding floor, near 1e-6 lam w_j), and warns on stderr.

    On a GramBlocks from kernels.gram_blocks, iterations past the 50th may
    run on pivoted-Cholesky factors of the blocks (see the module
    docstring); the objective reported last in the trace and `converged`
    are still computed from exact kernel values at the returned alpha.
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
    gammas = [majorization_constant(blocks, labels, cfg, j) for j in groups]
    # With E = K - L L^T PSD, ||E v|| <= tr(E) ||v|| <= n _FACTOR_EPS ||v||,
    # and the vector a block gradient multiplies has norm at most
    # c_max sup|loss'| / sqrt(n).
    cw = _class_weights(cfg)
    c_max = max(cw.weight_pos, cw.weight_neg)
    may_factor = n * _FACTOR_EPS <= (
        _FACTOR_SHARE * cfg.tol * (lam if lam > 0 else 1.0) * min(weights)
        * np.sqrt(n) / (c_max * slope_bound(cfg.loss_params)))
    if not may_factor:
        blocks.drop_factors()
    dot = blocks.fast_dot

    f = _scores(alpha, dot)
    intercept = 0.0
    if cfg.fit_intercept:
        intercept = _intercept_step(f, intercept, labels, cfg)
    obj = _risk(f, intercept, labels, cfg) + _penalty(alpha, weights, lam)
    g = _grads(f, intercept, dot, groups, labels, cfg)  # at alpha, or None
    kkt = _kkt_residual(alpha, g, lam, weights,
                        _grad_b(f, intercept, labels, cfg))
    met = 0 if kkt <= cfg.tol else None     # iteration kkt first met tol
    trace = [obj]
    alpha_prev, f_prev = alpha, f
    t = 1.0         # momentum sequence; 1 means restarted
    scale = 1.0     # backtracked multiplier on the curvature constants
    it = 0
    while it < cfg.max_iters and not (kkt <= cfg.tol and (
            kkt <= _SETTLE_SHRINK * cfg.tol or it >= met + _SETTLE_ITERS)):
        if it == _FACTOR_AFTER and may_factor and blocks.factorize():
            # go on from the same point with margins through the factors
            f, f_prev = _scores(alpha, dot), _scores(alpha_prev, dot)
            obj = _risk(f, intercept, labels, cfg) + _penalty(alpha, weights,
                                                              lam)
            g = None
        it += 1
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        if beta == 0.0:
            if g is None:
                g = _grads(f, intercept, dot, groups, labels, cfg)
            y, f_y, g_y = alpha, f, g
        else:
            # margins are linear in alpha, so extrapolating them is exact
            y = alpha + beta * (alpha - alpha_prev)
            f_y = f + beta * (f - f_prev)
            g_y = _grads(f_y, intercept, dot, groups, labels, cfg)
        r_y = _risk(f_y, intercept, labels, cfg)
        while True:
            z = np.array([group_update(y[j], g_y[j], scale * gammas[j], lam,
                                       weights[j]) for j in range(d)])
            f_z = _scores(z, dot)
            r_z = _risk(f_z, intercept, labels, cfg)
            step = z - y
            bound = r_y + float(np.sum(g_y * step)) + 0.5 * scale * sum(
                gm * float(s @ s) for gm, s in zip(gammas, step))
            # by Cauchy-Schwarz over the d blocks, scale >= d always bounds
            if r_z <= bound or scale >= d:
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
            t, alpha_prev, f_prev = 1.0, alpha, f
            continue
        # adaptive restart when the step turns against the momentum
        restart = float(np.sum((y - z) * (z - alpha))) > 0.0
        t = 1.0 if restart else t_next
        alpha_prev, f_prev, alpha, f = alpha, f, z, f_z
        if cfg.fit_intercept:
            intercept = _intercept_step(f, intercept, labels, cfg)
            obj_z = (_risk(f, intercept, labels, cfg)
                     + _penalty(alpha, weights, lam))
        obj = obj_z
        trace.append(obj)
        g = None
        # gradient mapping at z: the KKT residual there if grad(z) = grad(y)
        mapping = max(scale * gm * float(np.linalg.norm(s))
                      / (lam * w if lam > 0 else w)
                      for gm, s, w in zip(gammas, step, weights))
        if mapping <= cfg.tol or met is not None:
            g = _grads(f, intercept, dot, groups, labels, cfg)
            kkt = _kkt_residual(alpha, g, lam, weights,
                                _grad_b(f, intercept, labels, cfg))
            if met is None and kkt <= cfg.tol:
                met = it
        scale *= 0.97

    # the reported objective and KKT residual use exact kernel values
    f = _scores(alpha, blocks.dot)
    trace[-1] = (_risk(f, intercept, labels, cfg)
                 + _penalty(alpha, weights, lam))
    g = _grads(f, intercept, blocks.dot, groups, labels, cfg)
    kkt = _kkt_residual(alpha, g, lam, weights,
                        _grad_b(f, intercept, labels, cfg))
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
                         intercept=intercept)
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
    grads = _grads(zero[0], 0.0, _as_blocks(gram).dot, range(partition.d),
                   labels, cfg)
    return _kkt_residual(zero, grads, 0.0, partition.weights)
