"""Scalar objectives evaluated per projection direction.

Covers the cross information potential, the quadratic Renyi entropies built
from it, the Cauchy-Schwarz divergence, a closed-form potential for radial
Gaussian classes, and the hinge-loss baseline with exact optimal bias.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AffineMap1d, UnitDirection, unit_rescale
from .kde import Kde1d, cross_integral, rescale_kde, self_integral, silverman_bandwidth

__all__ = [
    "ProjectedPair",
    "GaussianSpec",
    "projected_pair",
    "rescaled_pair",
    "cip",
    "renyi_cross_entropy",
    "renyi_entropy",
    "cauchy_schwarz_divergence",
    "gaussian_cip_closed_form",
    "best_bias_hinge",
]


@dataclass(frozen=True)
class ProjectedPair:
    """The two class densities on a common (possibly rescaled) 1-D axis."""

    f_minus: Kde1d
    f_plus: Kde1d
    applied_map: AffineMap1d | None = None


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
    bandwidth left None is the Silverman rule as in ``projected_pair``."""
    pair = projected_pair(minus, plus, sigma_minus, sigma_plus)
    f_minus, f_plus = pair.f_minus, pair.f_plus
    mapping = unit_rescale(minus, plus, f_minus.bandwidth, f_plus.bandwidth, tail_k)
    f_minus, f_plus = rescale_kde(f_minus, mapping), rescale_kde(f_plus, mapping)
    return ProjectedPair(f_minus=f_minus, f_plus=f_plus, applied_map=mapping)


def cip(p: ProjectedPair) -> float:
    """Cross information potential: the integral of f_minus * f_plus."""
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


def cauchy_schwarz_divergence(p: ProjectedPair) -> float:
    """2 * cross entropy - entropy(f_minus) - entropy(f_plus); nonnegative,
    zero exactly when the two mixtures coincide."""
    return (
        2.0 * renyi_cross_entropy(p)
        - renyi_entropy(p.f_minus)
        - renyi_entropy(p.f_plus)
    )


@dataclass(frozen=True)
class GaussianSpec:
    """A radial Gaussian class: mean vector and one isotropic sigma."""

    mean: np.ndarray
    sigma: float

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be a positive finite number")
        object.__setattr__(self, "mean", mean)


def gaussian_cip_closed_form(
    g_minus: GaussianSpec, g_plus: GaussianSpec, v: UnitDirection
) -> float:
    """Cross information potential of two radial Gaussians projected on v.

    Projections of radial Gaussians are 1-D Gaussians with the same sigmas,
    so the potential is

        exp(-(<v, m_minus> - <v, m_plus>)^2 / (2 (s_-^2 + s_+^2)))
            / sqrt(2 pi (s_-^2 + s_+^2)).
    """
    if g_minus.mean.shape != g_plus.mean.shape:
        raise ValueError("dimension mismatch between Gaussian means")
    if g_minus.mean.shape[0] != v.dim:
        raise ValueError("dimension mismatch between means and direction")
    var_sum = g_minus.sigma**2 + g_plus.sigma**2
    delta = float(v.components @ (g_minus.mean - g_plus.mean))
    return math.exp(-(delta * delta) / (2.0 * var_sum)) / math.sqrt(
        2.0 * math.pi * var_sum
    )


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
