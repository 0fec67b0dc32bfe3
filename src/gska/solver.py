"""Blockwise majorization descent for the group-sparse kernel objective.

Minimizes, over coefficient blocks alpha^(j) in R^n,

    (1/n) sum_i c(y_i) loss(y_i * f_i)  +  lam * sum_j w_j ||alpha^(j)||_2,
    f_i = sum_j (K^(j) alpha^(j))_i

by cycling groups in fixed order. Each block's smooth term is upper-bounded
by a quadratic with curvature gamma_j (global loss curvature times the
spectral norm of K^(j)T K^(j) / n, times a 1.01 safety factor), giving a
closed-form group soft-threshold update. Deterministic given inputs: cyclic
sweeps, no randomization, fixed summation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coherence import (ClassWeights, CoherenceParams, curvature_bound,
                        empirical_risk, loss_grad)
from .data import DataError, GroupPartition


class SolverError(RuntimeError):
    """Raised when the optimizer encounters an internal inconsistency."""


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    sigma: float = 1.0
    max_iters: int = 1000
    tol: float = 1e-6
    class_weights: ClassWeights = field(default_factory=ClassWeights)
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


def _margins(alpha: np.ndarray, gram, labels: np.ndarray,
             intercept: float = 0.0) -> np.ndarray:
    f = np.full(labels.shape, intercept, dtype=float)
    for j, K in enumerate(gram):
        f += K @ alpha[j]
    return labels * f


def objective(alpha, gram, labels, partition: GroupPartition,
              cfg: SolverConfig, intercept: float = 0.0) -> float:
    alpha = np.asarray(alpha, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if alpha.shape != (partition.d, labels.size):
        raise DataError("alpha must be d blocks of n coefficients")
    return _penalized(_margins(alpha, gram, labels, intercept), alpha, labels,
                      partition, cfg)


def _penalized(margins, alpha, labels, partition: GroupPartition,
               cfg: SolverConfig) -> float:
    # weighted risk at the given margins plus the group-lasso penalty
    risk = empirical_risk(margins, labels, cfg.class_weights, cfg.loss_params)
    penalty = sum(w * float(np.linalg.norm(alpha[j]))
                  for j, w in enumerate(partition.weights))
    return risk + cfg.lam * penalty


def _risk_grad_common(margins, labels, cfg: SolverConfig) -> np.ndarray:
    # (1/n) c(y) loss'(m) y, the shared factor of every group gradient
    c = cfg.class_weights.per_sample(labels)
    return c * loss_grad(margins, cfg.loss_params) * labels / labels.size


def group_gradient(alpha, gram, labels, partition: GroupPartition,
                   cfg: SolverConfig, j: int) -> np.ndarray:
    if not (0 <= j < partition.d):
        raise DataError(f"invalid group id {j}")
    alpha = np.asarray(alpha, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m = _margins(alpha, gram, labels)
    return gram[j] @ _risk_grad_common(m, labels, cfg)


def spectral_norm_sq(K: np.ndarray, tol: float = 1e-8,
                     max_iters: int = 500) -> float:
    """Largest eigenvalue of K^T K by power iteration, deterministic start."""
    n = K.shape[0]
    v = np.ones(n) / np.sqrt(n)
    est = 0.0
    for _ in range(max_iters):
        w = K.T @ (K @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        new_est = float(v_new @ (K.T @ (K @ v_new)))
        if abs(new_est - est) <= tol * max(1.0, abs(new_est)):
            return new_est
        est, v = new_est, v_new
    raise SolverError("power iteration failed to converge")


def majorization_constant(gram, labels, cfg: SolverConfig, j: int) -> float:
    """Curvature constant for group j's quadratic upper bound.

    gamma_j = 1.01 * L * c_max * lambda_max(K^T K) / n with L the global
    loss curvature bound and c_max the larger class weight.
    """
    labels = np.asarray(labels)
    L = curvature_bound(cfg.loss_params)
    c_max = max(cfg.class_weights.weight_pos, cfg.class_weights.weight_neg)
    return 1.01 * L * c_max * spectral_norm_sq(gram[j]) / labels.size


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


def _fit_intercept_1d(f_no_b, labels, cfg: SolverConfig, b0: float) -> float:
    # scalar Newton with backtracking on the weighted risk in b
    c = cfg.class_weights.per_sample(labels)
    params = cfg.loss_params
    L = curvature_bound(params) * float(np.mean(c))

    def risk(b):
        return empirical_risk(labels * (f_no_b + b), labels,
                              cfg.class_weights, params)

    b = b0
    for _ in range(100):
        g = float(np.mean(c * loss_grad(labels * (f_no_b + b), params) * labels))
        step = g / L
        if abs(step) < 1e-12:
            break
        r0 = risk(b)
        t = 1.0
        while risk(b - t * step) > r0 and t > 1e-8:
            t *= 0.5
        b -= t * step
    return b


def solve(gram, labels, partition: GroupPartition, cfg: SolverConfig,
          init=None):
    """Run cyclic groupwise majorization descent to convergence.

    Returns (alpha, SolveReport). Convergence: relative objective decrease
    over a full sweep below cfg.tol, or max_iters sweeps.
    """
    labels = np.asarray(labels, dtype=float)
    n, d = labels.size, partition.d
    if len(gram) != d or any(K.shape != (n, n) for K in gram):
        raise DataError("gram blocks inconsistent with labels/partition")
    alpha = np.zeros((d, n)) if init is None else np.array(init, dtype=float)
    if alpha.shape != (d, n):
        raise DataError("init must have shape (d, n)")

    gammas = [majorization_constant(gram, labels, cfg, j) for j in range(d)]
    intercept = 0.0
    f = np.zeros(n)
    for j in range(d):
        f += gram[j] @ alpha[j]

    trace = [_penalized(labels * (f + intercept), alpha, labels, partition,
                        cfg)]
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_iters + 1):
        for j in range(d):
            m = labels * (f + intercept)
            grad_j = gram[j] @ _risk_grad_common(m, labels, cfg)
            new_aj = group_update(alpha[j], grad_j, gammas[j], cfg.lam,
                                  partition.weights[j])
            delta = new_aj - alpha[j]
            if np.any(delta):
                f += gram[j] @ delta
                alpha[j] = new_aj
        if cfg.fit_intercept:
            intercept = _fit_intercept_1d(f, labels, cfg, intercept)
        obj = _penalized(labels * (f + intercept), alpha, labels, partition,
                         cfg)
        if not np.isfinite(obj):
            raise SolverError("non-finite objective; majorization constant bug")
        trace.append(obj)
        prev = trace[-2]
        if prev - obj <= cfg.tol * max(1.0, abs(prev)):
            converged = True
            break

    active = tuple(j for j in range(d) if np.any(alpha[j]))
    alpha.setflags(write=False)
    report = SolveReport(iterations=sweeps, objective_trace=tuple(trace),
                         converged=converged, active_groups=active,
                         intercept=intercept)
    return alpha, report


def lambda_max(gram, labels, partition: GroupPartition,
               cfg: SolverConfig) -> float:
    """Smallest lam at which the all-zero solution is optimal.

    max_j ||grad_j at alpha = 0||_2 / w_j; for lam at or above this value
    the zero blocks satisfy the subgradient condition.
    """
    labels = np.asarray(labels, dtype=float)
    zero = np.zeros((partition.d, labels.size))
    m = _margins(zero, gram, labels)
    common = _risk_grad_common(m, labels, cfg)
    return max(float(np.linalg.norm(gram[j] @ common)) / partition.weights[j]
               for j in range(partition.d))
