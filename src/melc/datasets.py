"""Seeded synthetic benchmarks, dataset file loaders, and a 2-D PCA embedding.

Generation draws from numpy's PCG64 generator, so a (name, seed, n) triple
reproduces a dataset bit-for-bit under a pinned numpy version; the triple and
the generator name are written into the CSV metadata header of every
generated file.
"""

import csv
import re
from dataclasses import dataclass

import numpy as np

from .geometry import LabeledDataset

__all__ = [
    "DatasetSpec",
    "generate",
    "load_libsvm",
    "save_libsvm",
    "load_csv",
    "save_csv",
    "pca_top2",
]

GENERATOR_NAME = "numpy-pcg64"
GENERATOR_VERSION = 1

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


# One cell of a CSV line under the csv module's default dialect: a quoted
# part, where "" stands for one quote, then the rest up to the next comma; or
# a plain run up to the next comma.
_CELL = re.compile(r'(?:"((?:[^"]|"")*)"?([^,]*)|([^,]*))(,?)')


def _cells(line: str) -> list[str]:
    """The cells of one nonempty CSV line, split and unquoted as
    ``np.loadtxt(..., delimiter=",", quotechar='"')`` reads them."""
    cells, pos = [], 0
    while True:
        match = _CELL.match(line, pos)
        quoted, tail, plain, comma = match.groups()
        cells.append(plain if quoted is None else quoted.replace('""', '"') + tail)
        if not comma:
            return cells
        pos = match.end()


def _records(lines):
    """(line number, numbers or None when a cell is not numeric) for every
    line that is neither blank nor a '#' comment."""
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        cells = _cells(line)
        if cells[0].lstrip().startswith("#"):
            continue
        try:
            yield lineno, [float(cell) for cell in cells]  # float() ignores blanks
        except ValueError:
            yield lineno, None


def _checked_rows(path, lines) -> list[list[float]]:
    """The numeric rows, one line at a time; raises the error of the first
    line that is ragged or has a non-numeric cell past the header."""
    rows = []
    for lineno, row in _records(lines):
        if row is None:
            if rows:
                raise ValueError(f"{path}: non-numeric cell on line {lineno}")
        elif rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}: ragged row on line {lineno}")
        else:
            if not rows and len(row) < 2:
                raise ValueError(f"{path}: need at least one feature and a label")
            rows.append(row)
    return rows


def load_csv(path, label_column: int | None = None) -> LabeledDataset:
    """Load a rectangular numeric CSV; one designated column holds labels.

    ``label_column`` defaults to the last column. Labels may be -1/+1 or 0/1
    (0 maps to -1). Leading non-numeric header rows and '#'-prefixed comment
    lines are skipped. ``np.loadtxt`` parses the rows from the first numeric
    one on; a file it rejects is read again line by line, which accepts what
    Python's ``float`` does and names the first ragged or non-numeric line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    first = next((lineno for lineno, row in _records(lines) if row is not None), None)
    if first is None:
        raise ValueError(f"{path}: empty dataset file")
    try:
        table = np.loadtxt(
            lines[first - 1 :], delimiter=",", quotechar='"', comments=None, ndmin=2
        )
    except ValueError:
        table = np.asarray(_checked_rows(path, lines))
    if table.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature and a label")
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


def pca_top2(data: LabeledDataset) -> tuple[LabeledDataset, np.ndarray]:
    """Embed the dataset on its top two principal components.

    Components are the eigenvectors of the two largest eigenvalues of the
    covariance of the centered points (``np.linalg.eigh``), each signed so
    that its entry of largest magnitude, the first one on a tie, is
    positive. Returns the 2-D dataset and a (2, dim) array of the unit-norm,
    mutually orthogonal components.
    """
    if data.dim < 2:
        raise ValueError("need at least 2 dimensions to embed")
    if data.points.shape[0] < 3:
        raise ValueError("need at least 3 points to embed")
    centered = data.points - data.points.mean(axis=0)
    cov = (centered.T @ centered) / centered.shape[0]
    _, vectors = np.linalg.eigh(cov)  # ascending eigenvalues
    components = vectors[:, [-1, -2]].T
    lead = components[np.arange(2), np.argmax(np.abs(components), axis=1)]
    components *= np.where(lead < 0, -1.0, 1.0)[:, None]
    coords = centered @ components.T
    return LabeledDataset.from_arrays(coords, data.labels), components
