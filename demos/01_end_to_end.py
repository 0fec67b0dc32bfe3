"""End-to-end walkthrough on synthetic data.

Generates a grouped dataset with two informative groups, picks
hyperparameters by grid search, fits the group-sparse kernel classifier,
and reports cross-validated metrics plus the recovered group structure.

Run:  python3 demos/01_end_to_end.py
"""

import numpy as np

import gska
from gska.solver import SolverConfig

data, partition, truth = gska.synth_generate(n=500, seed=1, noise=0.2)
print(f"dataset: n={data.n}, p={data.p}, "
      f"positives={int(np.sum(data.labels > 0))}")
print(f"groups: {partition.group_names}")
print(f"informative groups: {[partition.group_names[j] for j in truth]}")

print("\ngrid search over (lambda, sigma) by 5-fold CV AUROC...")
grid = gska.grid_search(data, partition, lambdas=[0.01, 0.03, 0.1],
                        sigmas=[0.5, 1.0], k=5, seed=1)
for lam, sigma, a in grid.points:
    print(f"  lambda={lam:<5g} sigma={sigma:<4g} auroc={a:.4f}")
print(f"best: lambda={grid.best_lambda}, sigma={grid.best_sigma}")

cfg = SolverConfig(grid.best_lambda, grid.best_sigma)
cv = gska.cross_validate(data, partition, cfg, k=5, seed=1)
print(f"\n5-fold CV: AUROC {cv.mean.auroc:.4f} ({cv.sd.auroc:.4f}), "
      f"ACC {cv.mean.accuracy:.2f} ({cv.sd.accuracy:.2f}), "
      f"F1 {cv.mean.f1:.2f} ({cv.sd.f1:.2f})")

full_cfg = SolverConfig(grid.best_lambda, grid.best_sigma, max_iters=5000,
                        tol=1e-4)
model = gska.fit(data, partition, full_cfg)
print(f"\nfull fit: converged={model.report.converged} "
      f"after {model.report.iterations} iterations")
print("group contributions (RMS of each component over training points):")
for gi in gska.group_contribution(model):
    tag = " <- informative" if gi.group_name in (
        partition.group_names[j] for j in truth) else ""
    print(f"  {gi.group_name}: {gi.contribution:.4f} "
          f"(share {gi.normalized_share:.3f}){tag}")
