"""Labeled point sets, unit directions, and 1D projections.

Everything here is a pure function on immutable values; the heavy lifting
(densities, risks, sweeps) lives in the sibling modules.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabeledDataset",
    "UnitDirection",
    "project",
    "cosine_alignment",
]

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class LabeledDataset:
    """d-dimensional points with labels in {-1, +1}.

    Attributes
    ----------
    points : np.ndarray
        Array of shape (n, dim), one point per row.
    labels : np.ndarray
        Array of shape (n,) holding -1 or +1 per point.
    dim : int
        Dimension of the points.
    """

    points: np.ndarray
    labels: np.ndarray
    dim: int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if points.ndim != 2:
            raise ValueError("points must be a (n, dim) array")
        if labels.ndim != 1 or labels.shape[0] != points.shape[0]:
            raise ValueError("labels must be one value per point")
        if points.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if points.shape[1] != self.dim:
            raise ValueError("points do not match the declared dimension")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        if not np.all((labels == -1) | (labels == 1)):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_arrays(cls, points, labels) -> "LabeledDataset":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be a (n, dim) array")
        return cls(points=points, labels=np.asarray(labels), dim=points.shape[1])

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def class_counts(self) -> tuple[int, int]:
        """Number of points in the -1 and +1 class, in that order."""
        n_minus = int(np.sum(self.labels == -1))
        return n_minus, self.points.shape[0] - n_minus

    def class_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Row arrays of the -1 class and the +1 class, order preserved."""
        neg = self.labels == -1
        return self.points[neg], self.points[~neg]

    def require_both_classes(self):
        n_minus, n_plus = self.class_counts()
        if n_minus == 0 or n_plus == 0:
            raise ValueError("both classes must be nonempty")


@dataclass(frozen=True)
class UnitDirection:
    """A direction vector of Euclidean norm 1 (within 1e-12)."""

    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=np.float64)
        if comp.ndim != 1 or comp.size < 1:
            raise ValueError("direction must be a nonempty 1-D vector")
        norm = float(np.linalg.norm(comp))
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"direction must have unit norm, got {norm!r}")
        object.__setattr__(self, "components", comp)

    @classmethod
    def from_vector(cls, vec) -> "UnitDirection":
        """Normalize an arbitrary nonzero vector to unit length."""
        vec = np.asarray(vec, dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(components=vec / norm)

    @classmethod
    def from_angle(cls, angle: float) -> "UnitDirection":
        """2D direction (cos angle, sin angle)."""
        return cls(components=np.array([math.cos(angle), math.sin(angle)]))

    @property
    def dim(self) -> int:
        return self.components.shape[0]


def project(data: LabeledDataset, v: UnitDirection) -> tuple[np.ndarray, np.ndarray]:
    """Project every point onto a direction, split by class.

    Parameters
    ----------
    data : LabeledDataset
    v : UnitDirection
        Must match the dataset dimension.

    Returns
    -------
    (minus, plus) : tuple of np.ndarray
        Inner products <v, x_i> of the -1 class and of the +1 class,
        each in the original point order.
    """
    if data.dim != v.dim:
        raise ValueError("dimension mismatch between dataset and direction")
    scalars = data.points @ v.components
    neg = data.labels == -1
    return scalars[neg], scalars[~neg]


def cosine_alignment(v1: UnitDirection, v2: UnitDirection) -> float:
    """|<v1, v2>| in [0, 1]; v and -v index the same multithreshold family."""
    if v1.dim != v2.dim:
        raise ValueError("dimension mismatch between directions")
    return min(abs(float(v1.components @ v2.components)), 1.0)
