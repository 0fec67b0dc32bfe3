"""Metrics, stratified cross-validation, grid search, and significance tests.

Folds are stratified because the intended regime is heavily imbalanced
(about 12% positives): unstratified 5-fold splits can lack positives
entirely, leaving AUROC undefined. Reported SDs use the population (1/k)
convention.

CV, grid search and the default lambda grid solve through the model's
prepared-fold path, which builds each training set's Gram once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from . import interpret, model as model_mod
from .data import DataError, Dataset, GroupPartition, stratified_kfold
from .kernels import KernelSpec
from .solver import SolverConfig, lambda_maxes


@dataclass(frozen=True)
class MetricSet:
    auroc: float         # in [0, 1]
    accuracy: float      # percent
    f1: float            # percent, positive class = +1


@dataclass(frozen=True)
class CvReport:
    per_fold: tuple[MetricSet, ...]
    mean: MetricSet
    sd: MetricSet
    fold_assignments: np.ndarray
    per_fold_group_importance: np.ndarray     # (k, d)
    group_names: tuple[str, ...]


@dataclass(frozen=True)
class GridResult:
    points: tuple[tuple[float, float, float], ...]   # (lam, sigma, mean AUROC)
    best_lambda: float
    best_sigma: float
    best_auroc: float
    # per point, as in points: the folds whose solve ended unconverged
    unconverged: tuple[int, ...]


def auroc(scores, labels) -> float:
    """P(score of a random positive > random negative), ties counted half.

    Exact Mann-Whitney U: for each positive, the negatives scored below it
    plus half those tied with it, counted by binary search.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.shape != y.shape:
        raise DataError("scores and labels must have equal length")
    pos = y > 0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC requires both classes")
    neg = np.sort(s[~pos])
    below = np.searchsorted(neg, s[pos], side="left")
    at_or_below = np.searchsorted(neg, s[pos], side="right")
    u = float(np.sum(below + at_or_below)) / 2.0
    return u / (n_pos * n_neg)


def accuracy_f1(predictions, labels) -> tuple[float, float]:
    """(accuracy %, F1 % for class +1). F1 = 0 when there are no true positives
    but positives were predicted or exist."""
    pred = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if pred.shape != y.shape:
        raise DataError("predictions and labels must have equal length")
    acc = float(np.mean(pred == y)) * 100.0
    tp = int(np.sum((pred > 0) & (y > 0)))
    fp = int(np.sum((pred > 0) & (y < 0)))
    fn = int(np.sum((pred < 0) & (y > 0)))
    if tp == 0:
        f1 = 100.0 if fp == 0 and fn == 0 else 0.0
    else:
        prec = tp / (tp + fp)
        rec = tp / (tp + fn)
        f1 = 200.0 * prec * rec / (prec + rec)
    return acc, f1


def _fold_metrics(data, partition, cfg, kernel, fold_mask):
    """Fit on ~fold_mask; return (MetricSet on fold_mask rows, importances)."""
    test = data.subset(fold_mask)
    fitted = model_mod.fit(data.subset(~fold_mask), partition, cfg, kernel)
    scores = model_mod.decision_function(fitted, test)
    acc, f1 = accuracy_f1(np.where(scores > 0, 1.0, -1.0), test.labels)
    contrib = [gi.contribution for gi in interpret.group_contribution(fitted)]
    return MetricSet(auroc(scores, test.labels), acc, f1), contrib


def cross_validate(data: Dataset, partition: GroupPartition, cfg: SolverConfig,
                   k: int = 5, seed: int = 0,
                   kernel: KernelSpec | None = None) -> CvReport:
    """Stratified k-fold CV of the kernel additive classifier."""
    assign = stratified_kfold(data.labels, k, seed)
    per_fold, importances = zip(*(
        _fold_metrics(data, partition, cfg, kernel, assign == f)
        for f in range(k)))
    mean = MetricSet(*(float(np.mean([getattr(m, f) for m in per_fold]))
                       for f in ("auroc", "accuracy", "f1")))
    sd = MetricSet(*(float(np.std([getattr(m, f) for m in per_fold]))
                     for f in ("auroc", "accuracy", "f1")))
    return CvReport(per_fold=per_fold, mean=mean, sd=sd,
                    fold_assignments=assign,
                    per_fold_group_importance=np.array(importances),
                    group_names=partition.group_names)


DEFAULT_SIGMAS = (0.5, 1.0, 2.0)
_DEFAULT_LAMBDA_POINTS = 20


def default_lambda_grid(data: Dataset, partition: GroupPartition,
                        sigmas=DEFAULT_SIGMAS,
                        kernel: KernelSpec | None = None) -> tuple[float, ...]:
    """20 log-spaced points from 1e-4 up to the largest lambda_max over
    sigmas, read in one pass that holds one Gram block at a time."""
    fold = model_mod._prepare_fold(data, partition, kernel)
    top = max(lambda_maxes(
        fold.gram, fold.train.labels, partition,
        [SolverConfig(0.0, s, class_weights=fold.class_weights)
         for s in sigmas]))
    top = max(top, 2e-4)
    return tuple(np.geomspace(1e-4, top, _DEFAULT_LAMBDA_POINTS))


def _grid_values(values, name: str) -> list[float]:
    """Sorted grid; a repeated value would add each fold's AUROC twice."""
    values = [float(v) for v in values]
    if not values:
        raise DataError("grids must be non-empty")
    for v in values:
        if not np.isfinite(v):
            raise DataError(f"{name} grid value {v!r} is not finite")
    values.sort()
    for a, b in zip(values, values[1:]):
        if a == b:
            raise DataError(f"{name} grid repeats the value {a!r}")
    return values


def grid_search(data: Dataset, partition: GroupPartition,
                lambdas=None, sigmas=DEFAULT_SIGMAS, k: int = 5,
                seed: int = 0, kernel: KernelSpec | None = None, *,
                tol: float = SolverConfig.tol,
                max_iters: int = SolverConfig.max_iters) -> GridResult:
    """Mean CV AUROC per (lambda, sigma). Each fold solves the whole grid
    along one path (solver.solve_path), warm-starting along decreasing
    lambda. Ties break toward larger lambda, then larger sigma. Every solve
    runs to `tol` within `max_iters` (SolverConfig's); `unconverged` counts,
    per point, the folds whose solve did not get there."""
    sigmas = _grid_values(sigmas, "sigma")
    if lambdas is None:
        lambdas = default_lambda_grid(data, partition, sigmas, kernel=kernel)
    lambdas = _grid_values(lambdas, "lambda")
    if lambdas[0] < 0:
        raise DataError(f"lambda grid value {lambdas[0]!r} is negative")
    assign = stratified_kfold(data.labels, k, seed)
    cfgs = [SolverConfig(lam, s, max_iters=max_iters, tol=tol)
            for lam in lambdas for s in sigmas]
    sums = {(lam, s): 0.0 for lam in lambdas for s in sigmas}
    unconverged = dict.fromkeys(sums, 0)
    for f in range(k):
        mask = assign == f
        fold = model_mod._prepare_fold(data.subset(~mask), partition, kernel)
        test = data.subset(mask)
        for fitted in model_mod._solve_fold(fold, cfgs):
            point = (fitted.lam, fitted.loss_params.sigma)
            scores = model_mod.decision_function(fitted, test)
            sums[point] += auroc(scores, test.labels)
            unconverged[point] += not fitted.report.converged
        del fold    # free this fold's Gram before the next one is built
    points = tuple((lam, s, total / k) for (lam, s), total in sums.items())
    best = max(points, key=lambda pt: (pt[2], pt[0], pt[1]))
    return GridResult(points=points, best_lambda=best[0], best_sigma=best[1],
                      best_auroc=best[2],
                      unconverged=tuple(unconverged.values()))


def pearson_matrix(a, b) -> np.ndarray:
    """Pairwise Pearson r between columns of a (n, p) and b (n, q).

    Constant columns give undefined r, reported as NaN.
    """
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise DataError("inputs must be matrices with equal row counts")
    n = A.shape[0]
    if n < 3:
        raise DataError("pearson_matrix requires at least 3 rows")
    Ac = A - A.mean(axis=0)
    Bc = B - B.mean(axis=0)
    cov = Ac.T @ Bc / n
    sa = A.std(axis=0)
    sb = B.std(axis=0)
    denom = np.outer(sa, sb)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), np.nan)
    return r


def paired_ttest(a, b) -> tuple[float, float]:
    """Two-sided paired t-test on equal-length vectors; returns (t, p).

    Sample (k-1) sd, df = k-1. Degenerate zero-variance differences map to
    p = 0 (nonzero mean) or p = 1 (zero mean).
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("paired_ttest requires equal-length vectors")
    k = x.size
    if k < 2:
        raise DataError("paired_ttest requires at least 2 pairs")
    d = x - y
    sd = float(np.std(d, ddof=1))
    mean = float(np.mean(d))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return float(np.sign(mean)) * np.inf, 0.0
    t = mean / (sd / np.sqrt(k))
    p = 2.0 * float(stdtr(k - 1, -abs(t)))
    return t, p
