"""Seeded synthetic benchmarks, dataset file loaders, and a 2-D PCA embedding.

Generation draws from numpy's PCG64 generator, so a (name, seed, n) triple
reproduces a dataset bit-for-bit under a pinned numpy version; the triple and
the generator name are written into the CSV metadata header of every
generated file.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import LabeledDataset

__all__ = [
    "DatasetSpec",
    "DATASET_NAMES",
    "GENERATOR_NAME",
    "GENERATOR_VERSION",
    "generate",
    "load_libsvm",
    "save_libsvm",
    "load_csv",
    "save_csv",
    "pca_top2",
]

GENERATOR_NAME = "numpy-pcg64"
GENERATOR_VERSION = 1

_PCA_TOL = 1e-9
_PCA_MAX_ITER = 10_000

# (mean, sigma, label) per radial Gaussian component. The two-cloud benchmark
# uses unit clouds at distance 2*sqrt(2); the in-line benchmark alternates
# tight clouds along the x axis so a fine-bandwidth probe separates them; the
# mixed benchmark interleaves four wide clouds whose hinge-optimal direction
# sits far from the best single-threshold direction.
_COMPONENTS = {
    "two-gauss": (
        ((0.0, 0.0), 1.0, -1),
        ((2.0, 2.0), 1.0, +1),
    ),
    "four-line": (
        ((0.0, 0.0), 0.1, -1),
        ((1.5, 0.0), 0.1, +1),
        ((3.0, 0.0), 0.1, -1),
        ((4.5, 0.0), 0.1, +1),
    ),
    "four-mixed": (
        ((2.09, 2.67), 0.77, -1),
        ((2.80, 1.93), 0.77, +1),
        ((1.21, 2.97), 0.77, -1),
        ((2.00, 1.66), 0.77, +1),
    ),
}

DATASET_NAMES = tuple(_COMPONENTS)


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic benchmark draw."""

    name: str
    seed: int
    n_per_component: int

    def __post_init__(self):
        if self.name not in _COMPONENTS:
            raise ValueError(
                f"unknown dataset {self.name!r}; valid names: {', '.join(DATASET_NAMES)}"
            )
        if self.n_per_component < 2:
            raise ValueError("n_per_component must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def generate(spec: DatasetSpec) -> LabeledDataset:
    """Draw the benchmark: for each component, n_per_component points from a
    radial Gaussian, in the fixed component order of the recipe."""
    rng = np.random.default_rng(spec.seed)
    blocks = []
    labels = []
    for mean, sigma, label in _COMPONENTS[spec.name]:
        blocks.append(rng.standard_normal((spec.n_per_component, 2)) * sigma + mean)
        labels.append(np.full(spec.n_per_component, label))
    return LabeledDataset.from_arrays(np.vstack(blocks), np.concatenate(labels))


def _map_label(raw: float) -> int:
    return -1 if raw <= 0 else 1


def load_libsvm(path) -> LabeledDataset:
    """Parse sparse "<label> <index>:<value> ..." lines (1-based indices).

    Labels at or below zero map to -1, positive ones to +1; absent indices
    are zero and the dimension is the largest index seen anywhere.
    """
    rows = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                label = _map_label(float(fields[0]))
                entries = []
                for field in fields[1:]:
                    index_text, value_text = field.split(":", 1)
                    index = int(index_text)
                    if index < 1:
                        raise ValueError("indices are 1-based")
                    entries.append((index, float(value_text)))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed line {lineno}: {exc}") from exc
            if entries:
                max_index = max(max_index, max(index for index, _ in entries))
            rows.append((label, entries))
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    if max_index == 0:
        raise ValueError(f"{path}: no feature values present")
    points = np.zeros((len(rows), max_index))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, (label, entries) in enumerate(rows):
        labels[i] = label
        for index, value in entries:
            points[i, index - 1] = value
    return LabeledDataset.from_arrays(points, labels)


def save_libsvm(data: LabeledDataset, path):
    """Write the sparse text format read back by ``load_libsvm``."""
    with open(path, "w", encoding="utf-8") as handle:
        for point, label in zip(data.points, data.labels):
            parts = [f"{label:+d}"]
            parts += [
                f"{j + 1}:{float(value)!r}"
                for j, value in enumerate(point)
                if value != 0.0
            ]
            handle.write(" ".join(parts) + "\n")


def load_csv(path, label_column: int | None = None) -> LabeledDataset:
    """Load a rectangular numeric CSV; one designated column holds labels.

    ``label_column`` defaults to the last column. Labels may be -1/+1 or 0/1
    (0 maps to -1). A leading non-numeric header row and '#'-prefixed comment
    lines are skipped.
    """
    rows = []
    width = None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for lineno, cells in enumerate(csv.reader(handle), start=1):
            if not cells or (cells[0].lstrip().startswith("#")):
                continue
            try:
                row = list(map(float, cells))  # float() ignores surrounding blanks
            except ValueError:
                if width is None:
                    continue  # header row
                raise ValueError(f"{path}: non-numeric cell on line {lineno}") from None
            if width is None:
                width = len(row)
                if width < 2:
                    raise ValueError(f"{path}: need at least one feature and a label")
            elif len(row) != width:
                raise ValueError(f"{path}: ragged row on line {lineno}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    table = np.asarray(rows)
    column = table.shape[1] - 1 if label_column is None else label_column
    if not 0 <= column < table.shape[1]:
        raise ValueError(f"{path}: label column {column} out of range")
    labels = np.where(table[:, column] <= 0, -1, 1).astype(np.int64)
    points = np.delete(table, column, axis=1)
    return LabeledDataset.from_arrays(points, labels)


def save_csv(data: LabeledDataset, path, metadata: dict | None = None):
    """Write features plus a trailing label column, with an optional
    '#'-prefixed metadata line and a header row."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if metadata:
            pairs = " ".join(f"{key}={value}" for key, value in metadata.items())
            handle.write(f"# {pairs}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(data.dim)] + ["label"])
        for point, label in zip(data.points, data.labels):
            writer.writerow([repr(float(value)) for value in point] + [int(label)])


def _power_iterate(cov: np.ndarray, start: np.ndarray, orthogonal_to=None):
    v = start / np.linalg.norm(start)
    for _ in range(_PCA_MAX_ITER):
        w = cov @ v
        if orthogonal_to is not None:
            w -= (w @ orthogonal_to) * orthogonal_to
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return v, 0.0  # start vector already spans a null direction
        w /= norm
        if w @ v < 0:
            w = -w
        if np.linalg.norm(w - v) <= _PCA_TOL:
            return w, float(w @ cov @ w)
        v = w
    raise RuntimeError(
        f"power iteration did not converge within {_PCA_MAX_ITER} iterations"
    )


def pca_top2(data: LabeledDataset) -> tuple[LabeledDataset, np.ndarray]:
    """Embed the dataset on its top two principal components.

    Components come from power iteration with deflation on the covariance of
    the centered points (tolerance 1e-9). Returns the 2-D dataset and a
    (2, dim) array of the unit-norm, mutually orthogonal components.
    """
    if data.dim < 2:
        raise ValueError("need at least 2 dimensions to embed")
    if data.points.shape[0] < 3:
        raise ValueError("need at least 3 points to embed")
    centered = data.points - data.points.mean(axis=0)
    cov = (centered.T @ centered) / centered.shape[0]
    rng = np.random.default_rng(0x9E3779B9)
    first, top_value = _power_iterate(cov, rng.standard_normal(data.dim))
    deflated = cov - top_value * np.outer(first, first)
    second, _ = _power_iterate(deflated, rng.standard_normal(data.dim), orthogonal_to=first)
    components = np.vstack([first, second])
    coords = centered @ components.T
    return LabeledDataset.from_arrays(coords, data.labels), components
