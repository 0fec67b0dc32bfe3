"""Write a fixed set of `gska` artifacts, to compare checkouts byte for byte.

    python3 scripts/artifact_set.py OUT_DIR

For each of the seeds 1 and 104729, OUT_DIR/seed_<seed>/ receives the
synthetic inputs (noise 0.2, the 4 groups of 3 features) and, for each run
below, its artifact and its stdout and stderr as <run>.stdout and
<run>.stderr:

    fit_n2000           fit, n 2000, lambda 0.03, sigma 1
    fit_n500            fit, n 500, lambda 0.03, sigma 1
    grid_n500           grid, n 500, lambdas 0.01 0.03 0.1, sigmas 0.5 1
    cv_n3000            cv, n 3000, lambda 1, sigma 1
    cv_intercept_n500   cv --intercept, n 500, lambda 0.01, sigma 1
    grid_tol_n500       grid, n 500, 5 lambdas 0.001-0.1, sigmas 0.5 1 2,
                        --tol 1e-3
    grid_default_n300   grid, n 300, the default lambda and sigma grids
    grid_lam0_n300      grid, n 300, lambdas 0 0.01 0.03, sigmas 0.5 1,
                        3 folds: the lambda = 0 solves run dense, after
                        every sigma's path in the bases
    predict_q50k        predict, fit_n500's model on a 50 000-row query
                        (synthetic, seed + 1 000 003), to predict_q50k.csv

The seed is the synthetic data's, and the fold seed of `cv` and `grid`. Each
run is its own process with OPENBLAS_NUM_THREADS=1, because artifacts differ
in their last bits between BLAS thread counts, and runs in its seed's
directory with relative paths, so that stdout names no checkout. The
package is imported from this checkout's `src`. Runs of two checkouts into
two directories compare with `diff -r`. Every run's exit code is printed;
the script exits 1 if any run failed. The set takes about a minute and a
half for both seeds on 2 cores, most of it the default grid; the query
files take 12 MB a seed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOISE = "0.2"
QUERY_ROWS = 50_000
QUERY_SEED = 1_000_003  # added to the seed, as the benchmark's query is


def runs(seed: int) -> dict[str, list[str]]:
    """Each run's name and its `gska` arguments, in the seed's directory."""
    s = str(seed)

    def data(n):
        return ["--data", f"n{n}/features.csv", "--groups",
                f"n{n}/groups.json"]

    return {
        "fit_n2000": ["fit", *data(2000), "--lambda", "0.03", "--sigma", "1",
                      "--out", "fit_n2000.json"],
        "fit_n500": ["fit", *data(500), "--lambda", "0.03", "--sigma", "1",
                     "--out", "fit_n500.json"],
        "grid_n500": ["grid", *data(500), "--lambdas", "0.01", "0.03", "0.1",
                      "--sigmas", "0.5", "1.0", "--folds", "5", "--seed", s,
                      "--out", "grid_n500.json"],
        "cv_n3000": ["cv", *data(3000), "--lambda", "1", "--sigma", "1",
                     "--folds", "5", "--seed", s, "--out", "cv_n3000.json"],
        "cv_intercept_n500": ["cv", *data(500), "--intercept", "--lambda",
                              "0.01", "--sigma", "1", "--seed", s,
                              "--out", "cv_intercept_n500.json"],
        "grid_tol_n500": ["grid", *data(500), "--lambdas", "0.001", "0.003",
                          "0.01", "0.03", "0.1", "--sigmas", "0.5", "1",
                          "2", "--tol", "1e-3", "--seed", s,
                          "--out", "grid_tol_n500.json"],
        "grid_default_n300": ["grid", *data(300), "--seed", s,
                              "--out", "grid_default_n300.json"],
        "grid_lam0_n300": ["grid", *data(300), "--lambdas", "0", "0.01",
                           "0.03", "--sigmas", "0.5", "1", "--folds", "3",
                           "--seed", s, "--out", "grid_lam0_n300.json"],
        "predict_q50k": ["predict", "--model", "fit_n500.json", "--data",
                         "q50k/features.csv", "--out", "predict_q50k.csv"],
    }


def gska(argv, cwd: Path, name: str) -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(cwd / f"{name}.stdout", "wb") as out, \
            open(cwd / f"{name}.stderr", "wb") as err:
        return subprocess.run([sys.executable, "-m", "gska.cli", *argv],
                              cwd=cwd, env=env, stdout=out,
                              stderr=err).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory")
    args = parser.parse_args(argv)
    failed = False
    for seed in (1, 104729):
        work = args.out / f"seed_{seed}"
        work.mkdir(parents=True, exist_ok=True)
        for name, n, data_seed in [
                *((f"n{n}", n, seed) for n in (300, 500, 2000, 3000)),
                ("q50k", QUERY_ROWS, seed + QUERY_SEED)]:
            rc = gska(["synth", "--n", str(n), "--seed", str(data_seed),
                       "--noise", NOISE, "--out", name], work,
                      f"synth_{name}")
            failed |= rc != 0
        for name, run in runs(seed).items():
            rc = gska(run, work, name)
            print(f"seed {seed} {name}: exit {rc}", flush=True)
            failed |= rc != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
