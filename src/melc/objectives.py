"""Scalar objectives evaluated per projection direction.

Covers the cross information potential, the quadratic Renyi entropies built
from it, and the hinge-loss baseline with exact optimal bias.

``cip`` and ``renyi_entropy`` are ``kde.cross_integral`` and
``kde.self_integral``: wide kernels take them from the densities' Fourier
coefficients on a coarse lattice, within 1e-13 relative of the direct sum,
and build no grid density. A ``ProjectedPair`` keeps its pair grid
(``kde._PairGrid``) for ``melc.risk``: the default overlap quadrature and
the threshold scan read both class densities' binned values there, each
evaluated at most once per pair.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kde import (
    Kde1d,
    _PairGrid,
    cross_integral,
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
        values there computed at most once: the default overlap quadrature
        and the threshold scan of ``melc.risk`` share them. ``cip`` does not
        use it."""
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
    ``cross_integral(p.f_minus, p.f_plus)``. Wide kernels take it from both
    densities' Fourier coefficients on a lattice of step 0.19 of the narrower
    bandwidth, off by about 1e-16 of the two kernel peaks and so within
    1e-13 relative of the direct sum where it is kept; the others from the
    direct sum."""
    return cross_integral(p.f_minus, p.f_plus)


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


def _merge(*runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending merge of ascending arrays, and for each of its entries
    the index in the arrays' concatenation it came from. A stable argsort
    finds the runs and merges them in linear time."""
    joined = np.concatenate(runs)
    order = np.argsort(joined, kind="stable")
    return joined[order], order


def best_bias_hinge(minus, plus) -> tuple[float, float]:
    """Bias minimizing the mean hinge loss of the score x - b on a projection.

    The objective is convex and piecewise linear in b with kinks at x - 1 for
    +1 points and x + 1 for -1 points, so scanning the breakpoint superset
    {x - 1} union {x + 1} over all points is exact. Ties go to the smaller b.

    Returns
    -------
    (bias, loss)
    """
    minus = np.sort(np.asarray(minus, dtype=np.float64))
    plus = np.sort(np.asarray(plus, dtype=np.float64))
    if minus.size == 0 or plus.size == 0:
        raise ValueError("both classes must be nonempty")

    # Sorted kink positions with prefix sums: the loss at b decomposes into
    # sum over plus-kinks k <= b of (b - k) plus sum over minus-kinks k > b
    # of (k - b). Rounding is monotone, so x - 1 and x + 1 ascend with x.
    kinks_plus = plus - 1.0
    kinks_minus = minus + 1.0
    prefix_plus = np.concatenate([[0.0], np.cumsum(kinks_plus)])
    prefix_minus = np.concatenate([[0.0], np.cumsum(kinks_minus)])
    # The candidates, every distinct x - 1 and x + 1, are the last entries of
    # the runs of equal values in the merge of all four shifts, and the kinks
    # at or below each are those up to there.
    size = minus.size + plus.size
    shifts, order = _merge(kinks_plus, kinks_minus, minus - 1.0, plus + 1.0)
    last = np.flatnonzero(np.append(shifts[1:] != shifts[:-1], True))
    candidates = shifts[last]
    idx_plus = np.cumsum(order < plus.size)[last]
    idx_minus = np.cumsum((order >= plus.size) & (order < size))[last]
    rising = candidates * idx_plus - prefix_plus[idx_plus]
    falling = (prefix_minus[-1] - prefix_minus[idx_minus]) - candidates * (
        kinks_minus.size - idx_minus
    )
    losses = (rising + falling) / size
    best = int(np.argmin(losses))
    return float(candidates[best]), float(losses[best])
