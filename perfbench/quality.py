"""Solution-quality measures for the benchmark, computed outside any timed region.

A solve is judged by its penalized objective and by its group-lasso KKT
residual, so that a run which is faster only because the solver stopped
earlier shows up as a worse solution. Both use the package's public
`solver.objective` and `solver.group_gradient`; the dense Gram blocks are
rebuilt here from the solve's standardized training data and bandwidths, so
the check does not depend on how the package stores its kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from gska import solver
from gska.data import Dataset, GroupPartition
from gska.kernels import KernelSpec
from gska.model import ModelState


@dataclass(frozen=True)
class SolveRecord:
    """Everything needed to re-evaluate one solve after the fact."""

    train: Dataset              # standardized training data of the solve
    partition: GroupPartition
    kernel: KernelSpec
    cfg: solver.SolverConfig    # lam, sigma and class weights of the solve
    alpha: np.ndarray
    report: solver.SolveReport

    @classmethod
    def from_model(cls, model: ModelState) -> "SolveRecord":
        cfg = solver.SolverConfig(model.lam, model.loss_params.sigma,
                                  class_weights=model.class_weights)
        return cls(model.train, model.partition, model.kernel, cfg,
                   model.alpha, model.report)


def dense_gram(train: Dataset, partition: GroupPartition,
               kernel: KernelSpec) -> list[np.ndarray]:
    """Reference Gram blocks exp(-gamma_j ||a - b||^2) over the training rows."""
    return [np.exp(-kernel.gammas[j]
                   * cdist(train.samples[:, idx], train.samples[:, idx],
                           "sqeuclidean"))
            for j, idx in enumerate(partition.groups)]


def kkt_residual(alpha, gram, labels, partition: GroupPartition,
                 cfg: solver.SolverConfig) -> float:
    """Largest group-lasso KKT violation over groups, in units of lam * w_j.

    For an active block the stationarity condition is
    g_j + lam w_j alpha_j / ||alpha_j|| = 0; for a zero block it is
    ||g_j|| <= lam w_j. Zero means every group satisfies its condition.
    """
    alpha = np.asarray(alpha, dtype=float)
    worst = 0.0
    for j, w in enumerate(partition.weights):
        scale = cfg.lam * w
        if scale <= 0:
            raise ValueError("KKT residual needs lam * w_j > 0")
        g = solver.group_gradient(alpha, gram, labels, partition, cfg, j)
        norm_a = float(np.linalg.norm(alpha[j]))
        if norm_a > 0:
            viol = float(np.linalg.norm(g + scale * alpha[j] / norm_a))
        else:
            viol = max(float(np.linalg.norm(g)) - scale, 0.0)
        worst = max(worst, viol / scale)
    return worst


def evaluate(records: list[SolveRecord]) -> dict:
    """Objective, KKT residual and convergence over a workload's solves."""
    if not records:
        raise ValueError("no solves to evaluate")
    objectives, kkts = [], []
    gram, gram_key = None, None
    for rec in records:
        key = (id(rec.train), rec.kernel)
        if key != gram_key:       # grid solves share one Gram per fold
            gram, gram_key = dense_gram(rec.train, rec.partition,
                                        rec.kernel), key
        labels = rec.train.labels
        objectives.append(solver.objective(rec.alpha, gram, labels,
                                           rec.partition, rec.cfg,
                                           rec.report.intercept))
        kkts.append(kkt_residual(rec.alpha, gram, labels, rec.partition,
                                 rec.cfg))
    sweeps = [rec.report.iterations for rec in records]
    return {"objective": float(np.mean(objectives)),
            "kkt_residual": max(kkts),
            "sweeps_per_solve": float(np.mean(sweeps)),
            "solves": len(records),
            "unconverged_share": float(np.mean([not r.report.converged
                                                for r in records]))}
