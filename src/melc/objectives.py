"""Scalar objectives evaluated per projection direction.

Covers the cross information potential, the quadratic Renyi entropies built
from it, and the hinge-loss baseline with exact optimal bias.

A ``ProjectedPair`` keeps its pair grid (``kde._PairGrid``): ``cip`` takes
both class densities' binned values there, each evaluated at most once per
pair, and ``melc.risk`` reads the same values for the default overlap
quadrature and the threshold scan. ``renyi_entropy`` takes one bare density
and evaluates it on its own window.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kde import (
    Kde1d,
    _cross_integral,
    _PairGrid,
    self_integral,
    silverman_bandwidth,
)

__all__ = [
    "ProjectedPair",
    "projected_pair",
    "rescaled_pair",
    "cip",
    "renyi_cross_entropy",
    "renyi_entropy",
    "best_bias_hinge",
]


@dataclass(frozen=True)
class ProjectedPair:
    """The two class densities on a common 1-D axis."""

    f_minus: Kde1d
    f_plus: Kde1d

    @cached_property
    def _pair_grid(self) -> _PairGrid:
        """The pair grid of the two densities, with each density's binned
        values there computed at most once: ``cip``, the default overlap
        quadrature and the threshold scan of ``melc.risk`` share them."""
        return _PairGrid(self.f_minus, self.f_plus)


def projected_pair(minus, plus, sigma_minus=None, sigma_plus=None) -> ProjectedPair:
    """Build class KDEs from projected scalars; a bandwidth left None is the
    Silverman rule of its class."""
    minus = np.asarray(minus, dtype=np.float64)
    plus = np.asarray(plus, dtype=np.float64)
    if sigma_minus is None:
        sigma_minus = silverman_bandwidth(minus)
    if sigma_plus is None:
        sigma_plus = silverman_bandwidth(plus)
    return ProjectedPair(
        f_minus=Kde1d(minus, sigma_minus),
        f_plus=Kde1d(plus, sigma_plus),
    )


def rescaled_pair(minus, plus, sigma_minus, sigma_plus, tail_k) -> ProjectedPair:
    """Build the pair on the axis rescaled so a tail_k-sigma buffered interval
    around all centers lands on [0, 1]; bandwidths are scaled along, and a
    bandwidth left None is the Silverman rule as in ``projected_pair``.

    The interval is [lo, hi], the centers padded by tail_k times the larger
    bandwidth, and x maps to x / (hi - lo) - lo / (hi - lo)."""
    pair = projected_pair(minus, plus, sigma_minus, sigma_plus)
    if not tail_k > 0:
        raise ValueError("tail_k must be positive")
    densities = (pair.f_minus, pair.f_plus)
    centers = np.concatenate([f.centers for f in densities])
    pad = tail_k * max(f.bandwidth for f in densities)
    lo = float(centers.min()) - pad
    hi = float(centers.max()) + pad
    scale = 1.0 / (hi - lo)
    offset = -lo * scale
    return ProjectedPair(
        *(Kde1d(scale * f.centers + offset, f.bandwidth * scale) for f in densities)
    )


def cip(p: ProjectedPair) -> float:
    """Cross information potential: the integral of f_minus * f_plus,
    ``cross_integral(p.f_minus, p.f_plus)`` bit for bit, with the binned
    densities taken from the pair's own grid."""
    return _cross_integral(p._pair_grid)


def renyi_cross_entropy(p: ProjectedPair) -> float:
    """Quadratic Renyi cross entropy, -ln of the cross information potential.

    Infinite when the potential underflows to zero (numerically separated
    classes)."""
    value = cip(p)
    if value <= 0.0:
        return math.inf
    return -math.log(value)


def renyi_entropy(f: Kde1d) -> float:
    """Quadratic Renyi entropy of a density, -ln of its squared integral."""
    return -math.log(self_integral(f))


def best_bias_hinge(minus, plus) -> tuple[float, float]:
    """Bias minimizing the mean hinge loss of the score x - b on a projection.

    The objective is convex and piecewise linear in b with kinks at x - 1 for
    +1 points and x + 1 for -1 points, so scanning the breakpoint superset
    {x - 1} union {x + 1} over all points is exact. Ties go to the smaller b.

    Returns
    -------
    (bias, loss)
    """
    minus = np.asarray(minus, dtype=np.float64)
    plus = np.asarray(plus, dtype=np.float64)
    if minus.size == 0 or plus.size == 0:
        raise ValueError("both classes must be nonempty")
    points = np.concatenate([minus, plus])
    candidates = np.unique(np.concatenate([points - 1.0, points + 1.0]))

    # Sorted kink positions with prefix sums: the loss at b decomposes into
    # sum over plus-kinks k <= b of (b - k) plus sum over minus-kinks k > b
    # of (k - b).
    kinks_plus = np.sort(plus - 1.0)
    kinks_minus = np.sort(minus + 1.0)
    prefix_plus = np.concatenate([[0.0], np.cumsum(kinks_plus)])
    prefix_minus = np.concatenate([[0.0], np.cumsum(kinks_minus)])

    idx_plus = np.searchsorted(kinks_plus, candidates, side="right")
    idx_minus = np.searchsorted(kinks_minus, candidates, side="right")
    rising = candidates * idx_plus - prefix_plus[idx_plus]
    falling = (prefix_minus[-1] - prefix_minus[idx_minus]) - candidates * (
        kinks_minus.size - idx_minus
    )
    losses = (rising + falling) / points.size
    best = int(np.argmin(losses))
    return float(candidates[best]), float(losses[best])
