"""Partial dependence and group importance for a fitted model.

The synthetic latent signal is sin(2 x1) + x2^2 - 1 + 0.8 x4 x5, so the
partial dependence of group g1 on f2 should be U-shaped and the curves
for the noise groups g3/g4 should be nearly flat.

Run:  python3 demos/03_interpretation.py [output_dir]
"""

import sys

import gska
from gska.solver import SolverConfig

data, partition, truth = gska.synth_generate(n=500, seed=24, noise=0.05)
model = gska.fit(data, partition,
                 SolverConfig(0.02, max_iters=3000, tol=1e-5))

print("group importance:")
for gi in gska.group_contribution(model):
    print(f"  {gi.group_name}: contribution={gi.contribution:.4f} "
          f"share={gi.normalized_share:.3f}")

curve = gska.partial_dependence(model, data, 0, "f2", grid_size=21)
print("\npartial dependence of g1 on f2 (expect a dip near 0):")
lo, hi = curve.values.min(), curve.values.max()
span = (hi - lo) or 1.0
for g, v in zip(curve.grid, curve.values):
    bar = "#" * int(40 * (v - lo) / span)
    print(f"  {g:+7.3f} {v:+8.4f} {bar}")

flat = gska.partial_dependence(model, data, 3, "f10", grid_size=21)
print(f"\nnoise group g4 on f10: value range "
      f"[{flat.values.min():+.4f}, {flat.values.max():+.4f}] (near flat)")

if len(sys.argv) > 1:
    written = gska.export_interpretation(model, data, sys.argv[1])
    print(f"\nwrote {len(written)} CSV files to {sys.argv[1]}")
