"""Group-wise interpretability: components, importances, partial dependence.

Group importance is the empirical root-mean-square of a group's component
values over the training points (the "contribution to predictions" reading);
the RKHS-norm alternative sqrt(alpha^T K alpha) is available via
rkhs_contribution. Partial dependence grids are in original, unstandardized
units so the curves stay readable; scaling is applied internally.

Components are scored a tile of rows at a time, like
`model.decision_function`, at query points and at the stored training points
alike, so no n_train x n_train Gram block is built.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .data import SAMPLE_ID_COLUMN, DataError, Dataset
from .model import ModelState, _align_query, _expansion, _model_columns


@dataclass(frozen=True)
class PDCurve:
    group_id: int
    feature_name: str
    grid: np.ndarray            # strictly increasing, original units
    values: np.ndarray          # component response per grid point
    reference: dict             # fixed values used for other in-group features

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.shape != values.shape:
            raise DataError("grid and values must have equal length")
        if np.any(np.diff(grid) <= 0):
            raise DataError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class GroupImportance:
    group_id: int
    group_name: str
    contribution: float
    normalized_share: float


def _check_group(model: ModelState, j: int):
    # a negative j would index from the end
    if not (0 <= j < model.partition.d):
        raise DataError(f"invalid group id {j}")


def component_values(model: ModelState, query: Dataset, j: int) -> np.ndarray:
    """Value of group j's component function alone at each query point."""
    _check_group(model, j)
    return _expansion(model, _align_query(model, query), (j,), 0.0)


def _component_matrix(model: ModelState) -> np.ndarray:
    # (d, n) components at the training points; zero groups stay exact zeros
    comps = np.zeros(model.alpha.shape)
    for j, a in enumerate(model.alpha):
        if np.any(a):
            comps[j] = _expansion(model, model.train, (j,), 0.0)
    return comps


def _importances(model: ModelState, comps) -> list[GroupImportance]:
    contrib = np.sqrt(np.mean(comps ** 2, axis=1))
    total = float(contrib.sum())
    shares = contrib / total if total > 0 else np.zeros_like(contrib)
    return [GroupImportance(j, model.partition.group_names[j],
                            float(contrib[j]), float(shares[j]))
            for j in range(model.partition.d)]


def group_contribution(model: ModelState) -> list[GroupImportance]:
    """Empirical 2-norm of each component over training points, with shares."""
    return _importances(model, _component_matrix(model))


def rkhs_contribution(model: ModelState) -> np.ndarray:
    """Alternative importance sqrt(alpha^(j)T K^(j) alpha^(j)) per group."""
    comps = _component_matrix(model)
    return np.array([float(np.sqrt(max(c @ a, 0.0)))
                     for c, a in zip(comps, model.alpha)])


def partial_dependence(model: ModelState, train: Dataset, j: int,
                       feature: str, grid_size: int = 50) -> PDCurve:
    """Sweep one feature of group j over its training range.

    train's columns are matched to the model's by name. Other in-group
    features are fixed at their training medians (original units);
    out-of-group features are irrelevant by additivity. Values are reported
    raw, not centered.
    """
    _check_group(model, j)
    if grid_size < 2:
        raise DataError("grid_size must be at least 2")
    names = model.train.feature_names
    if feature not in names:
        raise DataError(f"unknown feature {feature!r}")
    col = names.index(feature)
    if col not in model.partition.groups[j]:
        raise DataError(f"feature {feature!r} is not in group "
                        f"{model.partition.group_names[j]!r}")
    train = _model_columns(model, train)
    train_col = train.samples[:, col]
    lo, hi = float(train_col.min()), float(train_col.max())
    if lo == hi:
        hi = lo + 1.0     # degenerate constant feature: unit-width grid
    grid = np.linspace(lo, hi, grid_size)

    medians = np.median(train.samples, axis=0)
    reference = {names[i]: float(medians[i])
                 for i in model.partition.groups[j] if i != col}
    Q = np.tile(medians, (grid_size, 1))
    Q[:, col] = grid
    query = Dataset(Q, np.ones(grid_size), names,
                    tuple(f"pd{i}" for i in range(grid_size)))
    values = component_values(model, query, j)
    return PDCurve(j, feature, grid, values, reference)


def export_interpretation(model: ModelState, train: Dataset, out_dir,
                          grid_size: int = 50, scatter: bool = False):
    """Write one PD CSV per (group, feature) plus group_importance.csv.

    With scatter=True, also writes per-sample component scatters
    (component_scatter_<group>.csv with columns sample_id,value).
    Returns the list of written paths. Raises DataError, before writing
    anything, if a feature name holds a path separator or two (group,
    feature) pairs would share a PD file name.
    """
    pd_files = {}       # file name -> (group id, group name, feature name)
    for j, gname in enumerate(model.partition.group_names):
        for col in model.partition.groups[j]:
            fname = model.train.feature_names[col]
            if "/" in fname or "\\" in fname:
                raise DataError(f"feature {fname!r} contains a path "
                                "separator, so it cannot name a PD file")
            name = f"pd_{gname}_{fname}.csv"
            if name in pd_files:
                _, g0, f0 = pd_files[name]
                raise DataError(f"group {g0!r} feature {f0!r} and group "
                                f"{gname!r} feature {fname!r} both name "
                                f"the PD file {name}")
            pd_files[name] = (j, gname, fname)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, (j, _, fname) in pd_files.items():
        curve = partial_dependence(model, train, j, fname, grid_size)
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["grid", "value"])
            for g, v in zip(curve.grid, curve.values):
                writer.writerow([repr(float(g)), repr(float(v))])
        written.append(path)
    comps = _component_matrix(model)
    imp_path = os.path.join(out_dir, "group_importance.csv")
    with open(imp_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "contribution", "share"])
        for gi in _importances(model, comps):
            writer.writerow([gi.group_name, repr(gi.contribution),
                             repr(gi.normalized_share)])
    written.append(imp_path)
    if scatter:
        for j in range(model.partition.d):
            gname = model.partition.group_names[j]
            path = os.path.join(out_dir, f"component_scatter_{gname}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([SAMPLE_ID_COLUMN, "value"])
                for sid, v in zip(model.train.sample_ids, comps[j]):
                    writer.writerow([sid, repr(float(v))])
            written.append(path)
    return written


def read_pd_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a PD CSV back into (grid, values)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["grid", "value"]:
            raise DataError(f"{path}: not a PD CSV")
        rows = [(float(a), float(b)) for a, b in reader]
    grid, values = zip(*rows)
    return np.array(grid), np.array(values)
