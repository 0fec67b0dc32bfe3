"""Fitted classifier: the prepared-fold path, scoring, prediction, persistence.

`_prepare_fold` builds a training set's Gram once; fit, cross-validation,
grid search and the default lambda grid all solve from it, and fit and grid
search solve through `_solve_fold`, one solver.solve_path per fold. A
fitted model keeps no Gram: it is plain data, the same whether fitted or
loaded.

The decision function is the additive kernel expansion over the stored
(standardized) training points, so the model file carries the training
features along with the coefficient blocks. Scoring walks the query a tile
of about 2^17 / n_train rows at a time (256 at 500 training rows, 48 at
2400), so it holds one tile's cross-Gram blocks, at most 2^17 values (1 MB)
per group, however many rows the query has; the training rows' components
for interpretation are scored the same way.
Serialization is versioned JSON with floats written via repr, which
round-trips exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .coherence import ClassWeights, CoherenceParams
from .data import (DataError, Dataset, FileError, GroupPartition,
                   ScalingParams, apply_scaling, finite_number, standardize)
from .kernels import (GramBlocks, KernelSpec, cross_gram, gram_blocks,
                      median_heuristic_gamma)
from .solver import SolveReport, SolverConfig, solve_path

SCHEMA_VERSION = 1
# Kernel values in one group's cross-Gram tile while scoring (1 MB)
_TILE_ENTRIES = 1 << 17


@dataclass(frozen=True)
class ModelState:
    alpha: np.ndarray                 # (d, n) coefficient blocks
    train: Dataset                    # standardized training data
    scaling: ScalingParams
    partition: GroupPartition
    kernel: KernelSpec
    loss_params: CoherenceParams
    lam: float
    class_weights: ClassWeights
    report: SolveReport

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (self.partition.d, self.train.n):
            raise DataError("alpha shape must be (group count, training rows)")
        if self.scaling.means.shape[0] != self.train.p:
            raise DataError("scaling dimension must match training columns")
        if not np.all(np.isfinite(alpha)):
            raise DataError("alpha must be finite")
        if not np.isfinite(self.report.intercept):
            raise DataError("intercept must be finite")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class _Fold:
    """A training set prepared for solving at any (lambda, sigma)."""

    train: Dataset                    # standardized training data
    scaling: ScalingParams
    partition: GroupPartition
    kernel: KernelSpec
    class_weights: ClassWeights       # inverse-frequency
    gram: GramBlocks                  # exactly as gram_blocks returned it


def _prepare_fold(data: Dataset, partition: GroupPartition,
                  kernel: KernelSpec | None = None) -> _Fold:
    """Validate and standardize; median-heuristic bandwidths unless given."""
    partition.validate_against(data.p)
    if np.all(data.labels == data.labels[0]):
        raise DataError("single-class training set")
    std_data, scaling = standardize(data)
    if kernel is None:
        kernel = median_heuristic_gamma(std_data, partition)
    cw = ClassWeights.inverse_frequency(std_data.labels)
    return _Fold(std_data, scaling, partition, kernel, cw,
                 gram_blocks(std_data, partition, kernel))


def _solve_fold(fold: _Fold, cfgs):
    """A ModelState per config, in solver.solve_path's order; class weights
    None in a config mean inverse-frequency."""
    cfgs = [cfg if cfg.class_weights is not None
            else replace(cfg, class_weights=fold.class_weights)
            for cfg in cfgs]
    for cfg, alpha, report in solve_path(fold.gram, fold.train.labels,
                                         fold.partition, cfgs):
        yield ModelState(alpha=alpha, train=fold.train, scaling=fold.scaling,
                         partition=fold.partition, kernel=fold.kernel,
                         loss_params=cfg.loss_params, lam=cfg.lam,
                         class_weights=cfg.class_weights, report=report)


def fit(data: Dataset, partition: GroupPartition, cfg: SolverConfig,
        kernel: KernelSpec | None = None) -> ModelState:
    """Prepare and solve; class weights None in cfg mean inverse-frequency."""
    return next(_solve_fold(_prepare_fold(data, partition, kernel), [cfg]))


def _model_columns(model: ModelState, data: Dataset) -> Dataset:
    """Reorder data's columns by name to the model's training columns."""
    names = model.train.feature_names
    if data.feature_names == names:
        return data
    missing = [f for f in names if f not in data.feature_names]
    if missing:
        raise DataError(f"data is missing the training column {missing[0]!r}")
    order = [data.feature_names.index(f) for f in names]
    return Dataset(data.samples[:, order], data.labels, names,
                   data.sample_ids)


def _align_query(model: ModelState, query: Dataset) -> Dataset:
    """Reorder query columns by feature name and apply the stored scaling."""
    return apply_scaling(_model_columns(model, query), model.scaling)


def _tile_rows(n_train: int) -> int:
    """Query rows scored at once: _TILE_ENTRIES // n_train, down to a
    multiple of 8 (at least 8). The BLAS product alpha_j K_j works on 8
    columns at a time; tiles of other widths change the last bit of some
    scores against a product over more columns. At 500 training rows this
    is 256, the fixed tile it replaces."""
    return max(8, _TILE_ENTRIES // n_train // 8 * 8)


def _expansion(model: ModelState, q: Dataset, groups, base: float):
    """base + sum over j in groups of alpha_j K_j(train, q), per query row.

    q is aligned and scaled. The cross-Gram blocks are built for one tile of
    _tile_rows(n_train) query rows at a time; each entry comes out as with
    the whole query at once, and each tile column's product with alpha_j
    does at the sizes the tests check.
    """
    f = np.full(q.n, base, dtype=float)
    rows = _tile_rows(model.train.n)
    for lo in range(0, q.n, rows):
        hi = min(lo + rows, q.n)
        tile = Dataset(q.samples[lo:hi], q.labels[lo:hi], q.feature_names,
                       q.sample_ids[lo:hi])
        blocks = cross_gram(model.train, tile, model.partition, model.kernel,
                            groups=groups)
        for j in groups:
            # popped, so that no block outlives its tile
            f[lo:hi] += model.alpha[j] @ blocks.pop(0)
    return f


def decision_function(model: ModelState, query: Dataset) -> np.ndarray:
    """Additive kernel score per query point (before taking the sign).

    Groups whose coefficients are all zero are skipped. Memory beyond the
    query and the scores is one tile's cross-Gram blocks: at most 2^17
    kernel values per group (8 n_train past 16 384 training rows).
    """
    q = _align_query(model, query)
    active = [j for j in range(model.partition.d) if np.any(model.alpha[j])]
    return _expansion(model, q, active, model.report.intercept)


def predict(model: ModelState, query: Dataset) -> np.ndarray:
    """Class marks: +1 where the score is positive, else -1 (ties to -1)."""
    return np.where(decision_function(model, query) > 0, 1.0, -1.0)


def _model_doc(model: ModelState) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scaling": {"means": model.scaling.means.tolist(),
                    "stds": model.scaling.stds.tolist()},
        "partition": {"groups": [list(g) for g in model.partition.groups],
                      "group_names": list(model.partition.group_names),
                      "weights": list(model.partition.weights)},
        "feature_names": list(model.train.feature_names),
        "gammas": list(model.kernel.gammas),
        "sigma": model.loss_params.sigma,
        "lambda": model.lam,
        "class_weights": {"pos": model.class_weights.weight_pos,
                          "neg": model.class_weights.weight_neg},
        "alpha": model.alpha.tolist(),
        "train_features": model.train.samples.tolist(),
        "train_labels": model.train.labels.tolist(),
        "train_sample_ids": list(model.train.sample_ids),
        "report": {"iterations": model.report.iterations,
                   "converged": model.report.converged,
                   "active_groups": list(model.report.active_groups),
                   "final_objective": model.report.objective_trace[-1],
                   "intercept": model.report.intercept},
    }


def save(model: ModelState, path):
    """Write the model as versioned JSON; floats serialize losslessly."""
    # json.dumps runs the C encoder; json.dump, writing to a file, runs the
    # pure-Python one, about twice as slow for the same bytes
    text = json.dumps(_model_doc(model), sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load(path) -> ModelState:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise FileError(f"cannot open {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: corrupted model file: not UTF-8: {e}") \
            from e
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: corrupted model file: {e}") from e
    try:
        version = doc["schema_version"]
    except (KeyError, TypeError) as e:
        raise DataError(f"{path}: model file violates schema ({e})") from e
    if version != SCHEMA_VERSION:
        raise DataError(f"unsupported model schema version {version}")
    try:
        scaling = ScalingParams(np.array(doc["scaling"]["means"]),
                                np.array(doc["scaling"]["stds"]))
        partition = GroupPartition(
            tuple(tuple(g) for g in doc["partition"]["groups"]),
            tuple(doc["partition"]["group_names"]),
            tuple(doc["partition"]["weights"]))
        train = Dataset(np.array(doc["train_features"], dtype=float),
                        np.array(doc["train_labels"], dtype=float),
                        tuple(doc["feature_names"]),
                        tuple(doc["train_sample_ids"]))
        rep = doc["report"]
        lam, its = doc["lambda"], rep["iterations"]
        converged, final = rep["converged"], rep["final_objective"]
        b = rep.get("intercept", 0.0)
        for name, value, ok, what in (
                ("lambda", lam, finite_number(lam) and lam >= 0,
                 "a finite number >= 0"),
                ("report.iterations", its, type(its) is int and its >= 0,
                 "an integer >= 0"),
                ("report.converged", converged, type(converged) is bool,
                 "true or false"),
                ("report.final_objective", final, finite_number(final),
                 "a finite number"),
                ("report.intercept", b, finite_number(b), "a finite number")):
            if not ok:
                raise DataError(f"{name} must be {what}, got {value!r}")
        report = SolveReport(iterations=its, objective_trace=(final,),
                             converged=converged, active_groups=(),
                             intercept=float(b))
        model = ModelState(alpha=np.array(doc["alpha"], dtype=float),
                           train=train, scaling=scaling, partition=partition,
                           kernel=KernelSpec(tuple(doc["gammas"])),
                           loss_params=CoherenceParams(doc["sigma"]),
                           lam=lam,
                           class_weights=ClassWeights(
                               doc["class_weights"]["pos"],
                               doc["class_weights"]["neg"]),
                           report=report)
        # as the solver reports them: the blocks with a nonzero coefficient
        active = [j for j in range(partition.d) if np.any(model.alpha[j])]
        listed = rep["active_groups"]
        if listed != active or any(type(j) is not int for j in listed):
            raise DataError(f"report.active_groups must be {active!r}, the "
                            f"groups with nonzero alpha, got {listed!r}")
        return replace(model, report=replace(report,
                                             active_groups=tuple(active)))
    except DataError as e:
        # raised by the records built from the file; name the file
        raise DataError(f"{path}: {e}") from e
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as e:
        raise DataError(f"{path}: model file violates schema ({e})") from e
