"""Tabular dataset handling: CSV I/O, grouping, standardization, stratified
fold assignment, synthetic data.

Labels are canonicalized to {-1, +1} at the boundary; all internal math
works with signed labels. Standardization is z-score with population (1/n)
standard deviation; zero-variance columns map to zero instead of erroring so
degenerate folds still run.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Raised for malformed input data or configuration."""


class FileError(DataError):
    """Raised when a file cannot be read or written (I/O-level failure)."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, p) with signed labels and identifying metadata."""

    samples: np.ndarray          # (n, p) float
    labels: np.ndarray           # (n,) values in {-1, +1}
    feature_names: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.samples, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if X.ndim != 2:
            raise DataError("samples must be a 2-d matrix")
        if y.shape != (X.shape[0],):
            raise DataError("labels length must match sample count")
        if not np.all(np.isfinite(X)):
            bad = np.argwhere(~np.isfinite(X))[0]
            raise DataError(f"non-finite feature value at row {bad[0]}, column "
                            f"{self.feature_names[bad[1]]!r}")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise DataError("labels must be -1 or +1")
        if len(self.feature_names) != X.shape[1]:
            raise DataError("feature name count must match column count")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("feature names must be unique")
        if len(self.sample_ids) != X.shape[0]:
            raise DataError("sample id count must match row count")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "samples", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return Dataset(self.samples[rows].copy(), self.labels[rows].copy(),
                       self.feature_names,
                       tuple(self.sample_ids[i] for i in rows))


def stratified_kfold(labels, k: int, seed: int) -> np.ndarray:
    """Fold index per sample; per-class fold sizes differ by at most 1."""
    y = np.asarray(labels, dtype=float)
    if k < 2:
        raise DataError("k must be at least 2")
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    assign = np.full(y.size, -1, dtype=int)
    for cls in (1.0, -1.0):
        idx = np.flatnonzero(y == cls)
        if idx.size < k:
            raise DataError(f"class {int(cls):+d} has {idx.size} samples, "
                            f"fewer than k={k}")
        idx = idx[rng.permutation(idx.size)]
        assign[idx] = np.arange(idx.size) % k
    return assign


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint feature-index groups covering all p columns exactly once."""

    groups: tuple[tuple[int, ...], ...]   # 0-based column indices
    group_names: tuple[str, ...]
    weights: tuple[float, ...] = field(default=())

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        names = tuple(self.group_names)
        weights = tuple(float(w) for w in self.weights) if self.weights \
            else tuple(1.0 for _ in groups)
        if len(names) != len(groups) or len(weights) != len(groups):
            raise DataError("group names/weights must match group count")
        if not groups or any(len(g) == 0 for g in groups):
            raise DataError("groups must be non-empty")
        for j, name in enumerate(names):
            # a name becomes part of interpretation file names
            if not name or "/" in name or "\\" in name:
                raise DataError(f"group {j} has the name {name!r}; a group "
                                "name must be non-empty, without / or \\")
            if name in names[:j]:
                raise DataError(f"group name {name!r} is used twice")
        seen = set()
        for name, g in zip(names, groups):
            for i in g:
                if i in seen:
                    raise DataError(f"groups overlap: column {i} is listed "
                                    f"again in group {name!r}")
                seen.add(i)
        if sorted(seen) != list(range(len(seen))):
            raise DataError("groups must form a contiguous partition of columns")
        for name, w in zip(names, weights):
            if not w > 0:
                raise DataError(f"weight of group {name!r} is {w!r}; group "
                                "weights must be positive")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "group_names", names)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return len(self.groups)

    @property
    def p(self) -> int:
        return sum(len(g) for g in self.groups)

    def validate_against(self, p: int):
        if self.p != p:
            raise DataError(f"groups must partition all {p} columns exactly")

    def with_weights(self, weights) -> "GroupPartition":
        return GroupPartition(self.groups, self.group_names, tuple(weights))

    def sqrt_size_weights(self) -> "GroupPartition":
        return self.with_weights(tuple(float(np.sqrt(len(g))) for g in self.groups))


@dataclass(frozen=True)
class ScalingParams:
    """Per-column mean and population std recorded at training time."""

    means: np.ndarray
    stds: np.ndarray   # std of a constant column recorded as 0

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        stds = np.asarray(self.stds, dtype=float)
        if means.shape != stds.shape or means.ndim != 1:
            raise DataError("means and stds must be equal-length vectors")
        if np.any(stds < 0):
            raise DataError("stds must be non-negative")
        means.setflags(write=False)
        stds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)


def _parse_label(raw: str, row: int, path) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise DataError(f"{path}: row {row}: label {raw!r} is not numeric")
    if v in (-1.0, 1.0):
        return v
    if v == 0.0:
        return -1.0
    raise DataError(f"{path}: row {row}: label {raw!r} outside permitted set "
                    "{-1, +1, 0, 1}")


SAMPLE_ID_COLUMN = "sample_id"

# Bytes a file may hold for the C reader to read it as the csv module and
# float() would: printable ASCII without quotes, tab, and line ends
_PLAIN = bytes(sorted(set(range(0x20, 0x7f)) - {ord('"')})) + b"\t\n\r"


def load_csv(path, label_column: str) -> Dataset:
    """Read a UTF-8, comma-separated, headered CSV into a Dataset.

    The label column accepts -1/+1 or 0/1 (0 maps to -1). A `sample_id`
    column other than the label column (the name `predict` writes) gives the
    sample ids verbatim and is not a feature; without one, the ids are the
    row numbers. Every other cell must parse as a finite real, as float()
    reads it.

    A file of plain ASCII without quotes, blank lines or a lone CR, whose
    lines all fit the csv module's field limit, is read by numpy's C
    reader in one pass. Any other file, and any file in which the C reader
    meets a cell it cannot read, a non-finite feature or a label outside
    the set, is read row by row with the csv module and float(), which name
    the row and column of every error. Both give the same Dataset, bit for
    bit.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise FileError(f"cannot open {path}: {e}") from e
    return _read_plain(raw, label_column) or _read_rows(path, raw,
                                                        label_column)


def _header(path, label_column, header):
    """The label column's and the sample id column's (or None) indices."""
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate header names")
    if label_column not in header:
        raise DataError(f"{path}: label column {label_column!r} not found")
    id_idx = (header.index(SAMPLE_ID_COLUMN) if SAMPLE_ID_COLUMN in header
              and SAMPLE_ID_COLUMN != label_column else None)
    return header.index(label_column), id_idx


def _read_plain(raw: bytes, label_column: str) -> Dataset | None:
    """raw's Dataset by numpy's C reader, or None for a file it may read
    otherwise than the row loop, or in which the row loop finds an error."""
    if raw.translate(None, _PLAIN):
        return None
    # the C reader skips a blank line, where the row loop finds an empty row
    lines = list(map(len, io.BytesIO(raw)))
    if len(lines) < 2 or max(lines) > csv.field_size_limit():
        return None
    header = raw[:lines[0] - 1].decode("ascii").removesuffix("\r")
    # the csv module ends a row at a lone CR; the C reader fails on one
    # within a line
    if not header or "\r" in header:
        return None
    header = header.split(",")
    try:
        label_idx, id_idx = _header(None, label_column, header)
    except DataError:
        return None
    ids = []
    # the id cells reach the converter verbatim, as the csv module reads them
    converters = (None if id_idx is None
                  else {id_idx: lambda cell: ids.append(cell) or 0.0})
    try:
        table = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None,
                           skiprows=1, ndmin=2, encoding="ascii",
                           converters=converters)
    except ValueError:
        return None
    if table.shape != (len(lines) - 1, len(header)):
        return None
    cols = [i for i in range(len(header)) if i not in (label_idx, id_idx)]
    # take, unlike indexing, gives the row loop's C order
    X = table.take(cols, axis=1)
    y = table[:, label_idx]
    y = np.where(y == 0, -1.0, y)
    if not (np.all(np.isfinite(X)) and np.all((y == 1) | (y == -1))):
        return None
    if id_idx is None:
        ids = map(str, range(len(y)))
    return Dataset(X, y, tuple(header[i] for i in cols), tuple(ids))


def _where(r: int) -> str:
    return "header" if r < 0 else f"row {r}"


def _csv_rows(path, raw: bytes):
    """raw's csv rows, the header first, decoded as UTF-8 as they are read.
    A row the csv module cannot read or that is not UTF-8 raises a
    DataError that names it."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                         newline=""))
    r = -1      # the header's
    while True:
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            raise DataError(f"{path}: {_where(r)}: {e}") from e
        except UnicodeDecodeError:
            # the text is decoded ahead of the rows: find the byte's row
            raise _undecodable(path, raw) from None
        yield cells
        r += 1


def _undecodable(path, raw: bytes) -> DataError:
    """The DataError for raw's first byte that is not UTF-8, naming its row."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        at = e.start
    # the rows before the byte, and one more that holds it
    r = sum(1 for _ in _csv_rows(path, raw[:at] + b"x")) - 2
    return DataError(f"{path}: {_where(r)}: byte {raw[at]:#04x} at offset "
                     f"{at} is not UTF-8")


def _read_rows(path, raw: bytes, label_column: str) -> Dataset:
    """raw's Dataset, read row by row with the csv module and float()."""
    reader = _csv_rows(path, raw)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file")
    label_idx, id_idx = _header(path, label_column, header)
    skip = (label_idx, id_idx)
    names = [h for i, h in enumerate(header) if i not in skip]
    rows, labels, ids = [], [], []
    for r, cells in enumerate(reader):
        if len(cells) != len(header):
            raise DataError(f"{path}: row {r} has {len(cells)} cells, "
                            f"expected {len(header)}")
        labels.append(_parse_label(cells[label_idx], r, path))
        vals = []
        for i, cell in enumerate(cells):
            if i in skip:
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(f"{path}: row {r}, column {header[i]!r}: "
                                f"cannot parse {cell!r}")
        rows.append(vals)
        ids.append(str(r) if id_idx is None else cells[id_idx])
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        # Dataset names the row and column of the first non-finite cell
        return Dataset(np.array(rows, dtype=float), np.array(labels),
                       tuple(names), tuple(ids))
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def write_csv(data: Dataset, path, label_column: str = "label"):
    """Write a Dataset back to CSV with full-precision (repr) floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.feature_names) + [label_column])
        for i in range(data.n):
            row = [repr(float(v)) for v in data.samples[i]]
            row.append(str(int(data.labels[i])))
            writer.writerow(row)


def standardize(data: Dataset) -> tuple[Dataset, ScalingParams]:
    """Z-score each column using population (1/n) std; constant columns -> 0."""
    if data.n < 2:
        raise DataError("standardize requires at least 2 samples")
    means = data.samples.mean(axis=0)
    stds = data.samples.std(axis=0)     # population convention
    params = ScalingParams(means, stds)
    return apply_scaling(data, params), params


def apply_scaling(data: Dataset, scaling: ScalingParams) -> Dataset:
    if scaling.means.shape[0] != data.p:
        raise DataError("scaling dimension does not match dataset columns")
    safe = np.where(scaling.stds > 0, scaling.stds, 1.0)
    Z = (data.samples - scaling.means) / safe
    Z[:, scaling.stds == 0] = 0.0
    return Dataset(Z, data.labels.copy(), data.feature_names, data.sample_ids)


# Synthetic verification data. Generated with numpy's PCG64 (default_rng),
# which is a documented counter-based generator: identical seeds reproduce
# identical datasets on any platform.
SYNTH_P = 12
SYNTH_GROUPS = GroupPartition(
    groups=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
    group_names=("g1", "g2", "g3", "g4"),
)
SYNTH_TRUTH = (0, 1)   # group indices carrying signal


def synth_latent(X: np.ndarray) -> np.ndarray:
    """Latent score using only groups 1-2: sin(2 x1) + x2^2 - 1 + 0.8 x4 x5."""
    return np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2 - 1.0 + 0.8 * X[:, 3] * X[:, 4]


def synth_generate(n: int, seed: int, noise: float):
    """Seeded synthetic dataset: 12 standard-normal features in 4 groups of 3.

    Only groups 1 and 2 influence the label. Returns
    (Dataset, GroupPartition, truth group indices).
    """
    if n < 40:
        raise DataError("synthetic generator requires n >= 40")
    if not (0.0 <= noise < 1.0):
        raise DataError("noise must be in [0, 1)")
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, SYNTH_P))
    g = synth_latent(X)
    if noise > 0:
        g = g + rng.standard_normal(n) * (noise * g.std())
    y = np.where(g >= 0, 1.0, -1.0)
    names = tuple(f"f{j + 1}" for j in range(SYNTH_P))
    ids = tuple(str(i) for i in range(n))
    return Dataset(X, y, names, ids), SYNTH_GROUPS, SYNTH_TRUTH


def finite_number(v) -> bool:
    """Whether a JSON value is a number in float's range: not true, false,
    NaN, an infinity or an integer too large for a float."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def load_groups_json(path, feature_names) -> GroupPartition:
    """Parse the group configuration JSON against a dataset's feature names.

    Schema: {"groups": [{"name": str, "features": [str...], "weight": num?}]}.
    Omitted weight defaults to 1.0.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise FileError(f"cannot open {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("groups"), list):
        raise DataError(f"{path}: expected an object with a 'groups' list")
    index = {name: i for i, name in enumerate(feature_names)}
    groups, names, weights = [], [], []
    seen = set()
    for i, entry in enumerate(doc["groups"]):
        try:
            name, feats = entry["name"], entry["features"]
        except (KeyError, TypeError):
            raise DataError(f"{path}: each group needs 'name' and 'features'")
        if not isinstance(name, str):
            raise DataError(f"{path}: 'name' of group {i} is {name!r}, not a "
                            "string")
        names.append(name)
        if not isinstance(feats, list):
            raise DataError(f"{path}: 'features' of group {names[-1]!r} must "
                            "be a list")
        idxs = []
        for f in feats:
            if not isinstance(f, str) or f not in index:
                raise DataError(f"{path}: unknown feature {f!r} in group "
                                f"{names[-1]!r}")
            if f in seen:
                raise DataError(f"{path}: groups overlap: feature {f!r} is "
                                f"listed again in group {names[-1]!r}")
            seen.add(f)
            idxs.append(index[f])
        groups.append(tuple(idxs))
        weight = entry.get("weight", 1.0)
        if not finite_number(weight):
            raise DataError(f"{path}: 'weight' of group {names[-1]!r} is "
                            f"{weight!r}, not a finite number")
        weights.append(float(weight))
    try:
        part = GroupPartition(tuple(groups), tuple(names), tuple(weights))
        part.validate_against(len(feature_names))
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
    return part


def dump_groups_json(partition: GroupPartition, feature_names, path):
    doc = {"groups": [
        {"name": partition.group_names[j],
         "features": [feature_names[i] for i in partition.groups[j]],
         "weight": partition.weights[j]}
        for j in range(partition.d)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
