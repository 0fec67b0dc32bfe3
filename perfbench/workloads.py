"""The four benchmark workloads: inputs, CLI invocation, output checks, quality.

Each workload runs one `gska` subcommand through `gska.cli.run`. Inputs are
made by the CLI's own `synth` command from the benchmark seed (noise 0.2, the
paper's 4 groups of 3 features). Why each workload exists, and which layer
it loads, is recorded in perfbench/DESIGN.md.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from pathlib import Path

import numpy as np

from gska import cli, data, evaluation, model, solver

from quality import SolveRecord, dense_gram

NOISE = 0.2
SIGMA = 1.0
LAM_FIT = 0.03          # fit_n2000 and the predict_q50k model
LAM_SPARSE = 1.0        # about 0.8 lambda_max: one active group, 9-27 sweeps
FOLDS = 5
GRID_LAMBDAS = ("0.01", "0.03", "0.1")
GRID_SIGMAS = ("0.5", "1.0")
QUERY_ROWS = 50_000
CHECKED_ROWS = 1_000
OTHER_SEED = 1_000_003  # offset for query and hold-out data
REL_TOL = 1e-12
GROUPS = data.SYNTH_GROUPS.d


def run_cli(argv) -> tuple[int, str]:
    """Run one CLI invocation in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run([str(a) for a in argv])
    return rc, buf.getvalue()


def synth(out: Path, n: int, seed: int) -> Path:
    rc, _ = run_cli(["synth", "--n", n, "--seed", seed, "--noise", NOISE,
                     "--out", out])
    if rc != 0:
        raise RuntimeError(f"gska synth failed with exit code {rc}")
    return out


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


class Workload:
    """One CLI invocation on seeded inputs, with its checks and quality."""

    name = ""
    capture = ()        # functions whose solves the quality check needs

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> None:
        """Write the workload's inputs under `work`."""
        self.inputs = synth(work / "train", self.n, self.seed)

    def argv(self, out: Path) -> list:
        raise NotImplementedError

    def check(self, out: Path, summary: dict) -> list[str]:
        """Problems found in one invocation's artifacts (empty when correct)."""
        raise NotImplementedError

    def records(self, out: Path, captured) -> list[SolveRecord]:
        """The solves whose quality the run reports."""
        return captured.records

    def auroc(self, out: Path) -> float:
        """The held-out AUROC the run reports."""
        raise NotImplementedError

    largest_array = "one fold's Gram blocks, d n_train^2 float64"

    def largest_array_bytes(self) -> int:
        """Bytes of the largest array the workload computes at once."""
        n_train = self.n - self.n // FOLDS
        return 8 * GROUPS * n_train ** 2

    def train_args(self):
        return ["--data", self.inputs / "features.csv",
                "--groups", self.inputs / "groups.json"]


class Fit(Workload):
    name = "fit_n2000"
    n = 2000
    largest_array = "Gram blocks, d n^2 float64"

    def largest_array_bytes(self):
        return 8 * GROUPS * self.n ** 2

    def argv(self, out):
        return ["fit", *self.train_args(), "--lambda", LAM_FIT,
                "--sigma", SIGMA, "--out", out / "model.json"]

    def check(self, out, summary):
        fitted = model.load(out / "model.json")
        rec = SolveRecord.from_model(fitted)
        gram = dense_gram(rec.train, rec.partition, rec.kernel)
        obj = solver.objective(rec.alpha, gram, rec.train.labels,
                               rec.partition, rec.cfg, rec.report.intercept)
        problems = []
        if not close(summary["objective"], obj):
            problems.append(f"summary objective {summary['objective']!r} "
                            f"!= recomputed {obj!r}")
        if not {"g1", "g2"} <= set(summary["active_groups"]):
            problems.append(f"truth groups g1, g2 not all active: "
                            f"{summary['active_groups']}")
        return problems

    def records(self, out, captured):
        return [SolveRecord.from_model(model.load(out / "model.json"))]

    def auroc(self, out):
        """Held-out AUROC on n fresh rows from another seed."""
        fitted = model.load(out / "model.json")
        hold, _, _ = data.synth_generate(self.n, self.seed + OTHER_SEED, NOISE)
        return evaluation.auroc(model.decision_function(fitted, hold),
                                hold.labels)


class Grid(Workload):
    name = "grid_n500"
    n = 500
    capture = ("kernels.gram_blocks", "solver.solve")

    def argv(self, out):
        return ["grid", *self.train_args(), "--lambdas", *GRID_LAMBDAS,
                "--sigmas", *GRID_SIGMAS, "--folds", FOLDS,
                "--seed", self.seed, "--out", out / "grid.json"]

    def check(self, out, summary):
        doc = json.loads((out / "grid.json").read_text())
        points = doc["points"]
        best = doc["best"]
        top = max(p["auroc"] for p in points)
        problems = []
        if len(points) != len(GRID_LAMBDAS) * len(GRID_SIGMAS):
            problems.append(f"{len(points)} grid points")
        if best["auroc"] != top or not any(
                (p["lambda"], p["sigma"], p["auroc"])
                == (best["lambda"], best["sigma"], top) for p in points):
            problems.append(f"best {best} is not a point with the maximum "
                            f"mean AUROC {top}")
        return problems

    def auroc(self, out):
        return json.loads((out / "grid.json").read_text())["best"]["auroc"]


class CvSparse(Workload):
    name = "cv_sparse_n3000"
    n = 3000
    capture = ("model.fit",)

    def argv(self, out):
        return ["cv", *self.train_args(), "--lambda", LAM_SPARSE,
                "--sigma", SIGMA, "--folds", FOLDS, "--seed", self.seed,
                "--out", out / "cv.json"]

    def check(self, out, summary):
        doc = json.loads((out / "cv.json").read_text())
        folds = doc["per_fold"]
        problems = []
        if len(folds) != FOLDS:
            problems.append(f"{len(folds)} per_fold entries, expected {FOLDS}")
        for key, mean in doc["mean"].items():
            if not close(mean, float(np.mean([f[key] for f in folds]))):
                problems.append(f"mean {key} {mean!r} is not the fold mean")
        return problems

    def auroc(self, out):
        return json.loads((out / "cv.json").read_text())["mean"]["auroc"]


class PredictQuery(Workload):
    name = "predict_q50k"
    n = 500
    largest_array = "cross-Gram blocks, d n_train n_query float64"

    def largest_array_bytes(self):
        return 8 * GROUPS * self.n * QUERY_ROWS

    def setup(self, work):
        super().setup(work)
        self.query = synth(work / "query", QUERY_ROWS,
                           self.seed + OTHER_SEED) / "features.csv"
        self.model = work / "model.json"
        rc, _ = run_cli(["fit", *self.train_args(), "--lambda", LAM_FIT,
                         "--sigma", SIGMA, "--out", self.model])
        if rc != 0:
            raise RuntimeError(f"gska fit failed with exit code {rc}")

    def argv(self, out):
        return ["predict", "--model", self.model, "--data", self.query,
                "--out", out / "pred.csv"]

    def _read(self, out):
        with open(out / "pred.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]

    def check(self, out, summary):
        header, rows = self._read(out)
        problems = []
        if header != ["sample_id", "score", "prediction"]:
            problems.append(f"prediction header {header}")
        if summary["n"] != QUERY_ROWS or len(rows) != QUERY_ROWS:
            return problems + [f"{len(rows)} prediction rows, summary n "
                               f"{summary['n']}, expected {QUERY_ROWS}"]
        if [r[0] for r in rows] != [str(i) for i in range(QUERY_ROWS)]:
            problems.append("sample ids are not the query row numbers")
        scores = np.array([float(r[1]) for r in rows])
        preds = np.array([int(r[2]) for r in rows])
        if np.any(preds != np.where(scores > 0, 1, -1)):
            problems.append("a prediction differs from the sign of its score")
        picked = np.random.default_rng(self.seed).choice(
            QUERY_ROWS, CHECKED_ROWS, replace=False)
        expect = model.decision_function(model.load(self.model),
                                         self._query.subset(picked))
        if not np.allclose(scores[picked], expect, rtol=REL_TOL,
                           atol=REL_TOL):
            problems.append("sampled scores differ from decision_function")
        return problems

    @functools.cached_property
    def _query(self) -> data.Dataset:
        # the rows written to the query CSV; repr floats round-trip exactly
        query, _, _ = data.synth_generate(QUERY_ROWS, self.seed + OTHER_SEED,
                                          NOISE)
        return query

    def records(self, out, captured):
        return [SolveRecord.from_model(model.load(self.model))]

    def auroc(self, out):
        _, rows = self._read(out)
        return evaluation.auroc(np.array([float(r[1]) for r in rows]),
                                self._query.labels)


WORKLOADS = {w.name: w for w in (Fit, Grid, CvSparse, PredictQuery)}
