"""Elastic-net penalized logistic regression for top-k feature screening.

The penalty is lam * (rho ||beta||_1 + (1 - rho)/2 ||beta||_2^2) with an
unpenalized intercept b. Each lambda of a decreasing grid is solved from the
previous point by accelerated proximal gradient (FISTA, Beck & Teboulle 2009)
over (b, beta) together: a fixed step 1/L with L = (||X||_2^2 + n)/(4n) +
lam (1 - rho), which bounds the logistic loss's curvature, a soft-threshold
of beta only, and a momentum restart when the step turns against it
(O'Donoghue & Candes 2015). A point stops once its KKT residual is below
kkt_tol; a path with points that hit the iteration cap warns on stderr.
Features are ranked by mean absolute standardized coefficient at the
CV-chosen lambda across folds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .data import DataError, Dataset, standardize, stratified_kfold

# proximal-gradient iterations per lambda before a path point stops unconverged
_MAX_ITERS = 10000
# default grid: this many points from en_lambda_max down to _GRID_SPAN of it
_GRID_POINTS = 50
_GRID_SPAN = 1e-3


@dataclass(frozen=True)
class ENConfig:
    alpha_mix: float = 0.5            # L1 share rho
    lambda_grid: tuple[float, ...] | None = None   # decreasing; None = auto
    k: int = 10
    folds: int = 5
    kkt_tol: float = 1e-6

    def __post_init__(self):
        if not (0.0 <= self.alpha_mix <= 1.0):
            raise DataError("alpha_mix must be in [0, 1]")
        if self.lambda_grid is not None:
            grid = tuple(float(v) for v in self.lambda_grid)
            if any(v <= 0 for v in grid) or any(np.diff(grid) >= 0):
                raise DataError("lambda_grid must be strictly decreasing "
                                "and positive")
            object.__setattr__(self, "lambda_grid", grid)
        if self.k < 1 or self.folds < 2:
            raise DataError("k must be >= 1 and folds >= 2")


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[str, ...]
    chosen_lambda: float
    fold_scores: np.ndarray           # (n_lambda,) mean CV deviance
    lambda_grid: tuple[float, ...]
    padded: bool = False              # True if ranking fell back to smaller lam


def _null_intercept(y: np.ndarray) -> float:
    n_pos = int(np.sum(y > 0))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("single-class data")
    return float(np.log(n_pos / n_neg))


def en_lambda_max(X: np.ndarray, y: np.ndarray, rho: float) -> float:
    """Smallest lam with an all-zero coefficient vector (null intercept kept)."""
    if rho <= 0:
        raise DataError(f"en_lambda_max requires a positive L1 share, "
                        f"got alpha_mix={rho!r}")
    b0 = _null_intercept(y)
    r = expit(-y * b0)                 # null-model residual factor
    g = (X * (-y * r)[:, None]).mean(axis=0)
    top = float(np.max(np.abs(g))) / rho
    if not top < np.inf:
        raise DataError(f"en_lambda_max overflows at alpha_mix={rho!r}")
    return top


def _prox_grad_fit(X, y, lam, rho, beta, intercept, kkt_tol, x_norm_sq):
    """Restarted FISTA over (b, beta) from a warm start; returns (beta, b, kkt).

    x_norm_sq is ||X||_2^2, so L bounds the curvature of the smooth part
    over (b, beta) jointly and the fixed step 1/L needs no backtracking.
    """
    n = X.shape[0]
    l1 = lam * rho
    l2 = lam * (1.0 - rho)
    L = (x_norm_sq + n) / (4.0 * n) + l2
    w = np.concatenate(([intercept], beta))      # (b, beta)
    w_prev = w
    t = 1.0         # momentum sequence; 1 means restarted
    for _ in range(_MAX_ITERS):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = w + (t - 1.0) / t_next * (w - w_prev)
        r = -y * expit(-y * (z[0] + X @ z[1:])) / n
        u = z - np.concatenate(([r.sum()], X.T @ r + l2 * z[1:])) / L
        u[1:] = np.sign(u[1:]) * np.maximum(np.abs(u[1:]) - l1 / L, 0.0)
        # adaptive restart when the step turns against the momentum
        t = 1.0 if float((z - u) @ (u - w)) > 0.0 else t_next
        w_prev, w = w, u
        kkt = _kkt_residual(X, y, y * (w[0] + X @ w[1:]), w[1:], l1, l2)
        if kkt < kkt_tol:
            break
    return w[1:], float(w[0]), kkt


def _kkt_residual(X, y, m, beta, l1, l2):
    s = expit(-m)
    g = X.T @ (-y * s) / X.shape[0] + l2 * beta
    g0 = float(np.mean(-y * s))
    res = np.where(beta != 0, np.abs(g + l1 * np.sign(beta)),
                   np.maximum(np.abs(g) - l1, 0.0))
    return max(float(res.max(initial=0.0)), abs(g0))


def _default_grid(X, y, rho):
    top = en_lambda_max(X, y, rho)
    return tuple(np.geomspace(top, top * _GRID_SPAN, _GRID_POINTS))


def en_logistic_path(data: Dataset, cfg: ENConfig):
    """Warm-started coefficient path over the lambda grid.

    Returns (lambda_grid, coefs (n_lambda, p), intercepts (n_lambda,)).
    Input features are assumed standardized.
    """
    X, y = data.samples, data.labels
    grid = cfg.lambda_grid or _default_grid(X, y, cfg.alpha_mix)
    x_norm_sq = float(np.linalg.norm(X, 2)) ** 2
    beta = np.zeros(data.p)
    intercept = _null_intercept(y)
    coefs = np.empty((len(grid), data.p))
    intercepts = np.empty(len(grid))
    kkts = np.empty(len(grid))
    for t, lam in enumerate(grid):
        beta, intercept, kkts[t] = _prox_grad_fit(
            X, y, lam, cfg.alpha_mix, beta, intercept, cfg.kkt_tol, x_norm_sq)
        coefs[t] = beta
        intercepts[t] = intercept
    missed = kkts >= cfg.kkt_tol
    if missed.any():
        worst = int(np.argmax(kkts))
        print(f"gska: warning: {int(missed.sum())} of {len(grid)} elastic-net "
              f"path points stopped after {_MAX_ITERS} iterations; worst at "
              f"lambda={grid[worst]!r} with KKT residual {kkts[worst]:.3g} >= "
              f"kkt_tol={cfg.kkt_tol!r}", file=sys.stderr)
    return grid, coefs, intercepts


def _deviance(X, y, beta, intercept) -> float:
    m = y * (intercept + X @ beta)
    return float(2.0 * np.mean(np.logaddexp(0.0, -m)))


def select_top_k(data: Dataset, cfg: ENConfig, seed: int) -> SelectionResult:
    """Pick the top-k features by CV-tuned elastic-net logistic regression.

    Lambda minimizes mean k-fold CV deviance (no one-standard-error rule);
    features are ranked by mean |beta| at that lambda across folds. If fewer
    than k features are active there, the remainder is ranked by |beta| at
    the next-smaller lambda and the result is flagged as padded.
    """
    std_data, _ = standardize(data)
    X, y = std_data.samples, std_data.labels
    grid = cfg.lambda_grid or _default_grid(X, y, cfg.alpha_mix)
    if cfg.k > data.p:
        raise DataError("k cannot exceed the feature count")
    folds = stratified_kfold(y, cfg.folds, seed)
    cfg = replace(cfg, lambda_grid=grid)
    n_lam = len(grid)
    dev = np.zeros((cfg.folds, n_lam))
    fold_coefs = np.zeros((cfg.folds, n_lam, data.p))
    for f in range(cfg.folds):
        te = folds == f
        _, fold_coefs[f], intercepts = en_logistic_path(
            std_data.subset(~te), cfg)
        dev[f] = [_deviance(X[te], y[te], beta, b)
                  for beta, b in zip(fold_coefs[f], intercepts)]
    mean_dev = dev.mean(axis=0)
    best_t = int(np.argmin(mean_dev))
    rank_score = np.abs(fold_coefs[:, best_t, :]).mean(axis=0)
    padded = False
    if int(np.count_nonzero(rank_score)) < cfg.k and best_t + 1 < n_lam:
        fallback = np.abs(fold_coefs[:, best_t + 1, :]).mean(axis=0)
        rank_score = np.where(rank_score > 0, rank_score + fallback.max(),
                              fallback)
        padded = True
    order = np.argsort(-rank_score, kind="stable")
    selected = tuple(data.feature_names[i] for i in order[:cfg.k])
    return SelectionResult(selected=selected,
                           chosen_lambda=cfg.lambda_grid[best_t],
                           fold_scores=mean_dev, lambda_grid=cfg.lambda_grid,
                           padded=padded)
