"""Balanced Bayes-risk integrals and multithreshold decision rules.

The minimal class-balanced error attainable by any multithreshold classifier
on a fixed projection equals the integral of min(f_minus, f_plus) weighted by
1/2, which is computed here by trapezoid quadrature. The pointwise-optimal
rule itself, sign(f_plus - f_minus), is extracted as an explicit threshold
model so that points can be classified without re-evaluating densities.

The overlap quadrature evaluates the densities with the binned FFT
evaluator of ``melc.kde`` where it applies. Its error is absolute, about
1e-16 of the peak density, so an overlap below 1e-3 is recomputed with the
direct evaluator: -ln(overlap) in the entropy bound then stays within 1e-12.
Where the center distances alone bound the overlap below 1e-3, the direct
evaluator runs from the start.
Threshold extraction always uses the direct evaluator, because the sign of
f_plus - f_minus in the tails decides the rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AffineMap1d, LabeledDataset, UnitDirection, project
from .kde import (
    binned_density_on_grid,
    eval_on_sorted_grid,
    kde_eval,
    min_density_bound,
)
from .objectives import ProjectedPair, projected_pair, renyi_cross_entropy

__all__ = [
    "MultithresholdModel",
    "RiskEstimate",
    "BoundCheck",
    "DEFAULT_GRID_POINTS",
    "overlap_integral",
    "eaa_bayes_risk_for_direction",
    "build_multithreshold_model",
    "classify",
    "empirical_balanced_error",
    "best_single_threshold_error",
    "bound_check",
]

DEFAULT_GRID_POINTS = 4096
DEFAULT_REFINE_TOL = 1e-10
_WINDOW_STDS = 8.0
_MIN_GRID_POINTS = 64

# Below this mass the two densities are treated as numerically separated: the
# entropy bound's hypothesis (strictly positive overlap) is void.
_SEPARABLE_OVERLAP = 1e-300

_BOUND_SLACK = 1e-9

# Overlaps from binned densities below this are recomputed directly: the
# binned error is absolute, and -ln(overlap) must stay within 1e-12.
_BINNED_OVERLAP_MIN = 1e-3


@dataclass(frozen=True)
class MultithresholdModel:
    """Sign-alternating interval classifier on a 1-D projection.

    ``thresholds`` is strictly increasing (possibly empty) on the axis the
    model was built on; ``applied_map`` records the affine rescale applied to
    projections before thresholding, if any. The predicted label left of all
    thresholds is ``leftmost_sign`` and flips across each threshold.
    """

    direction: UnitDirection
    thresholds: np.ndarray
    leftmost_sign: int
    applied_map: AffineMap1d | None = None

    def __post_init__(self):
        thresholds = np.atleast_1d(np.asarray(self.thresholds, dtype=np.float64))
        if thresholds.size and not np.all(np.diff(thresholds) > 0):
            raise ValueError("thresholds must be strictly increasing")
        if self.leftmost_sign not in (-1, 1):
            raise ValueError("leftmost_sign must be -1 or +1")
        object.__setattr__(self, "thresholds", thresholds)


@dataclass(frozen=True)
class RiskEstimate:
    """Overlap mass of the two projected densities and the implied balanced
    Bayes risk, eaa_risk = overlap / 2."""

    overlap: float
    eaa_risk: float
    grid_points: int

    def __post_init__(self):
        if not (-1e-6 <= self.overlap <= 2.0):
            raise ValueError("overlap outside [0, 2]")
        if abs(self.eaa_risk - self.overlap / 2.0) > 1e-15:
            raise ValueError("eaa_risk must equal overlap / 2")


@dataclass(frozen=True)
class BoundCheck:
    """One evaluation of the entropy lower bound on the overlap mass.

    lhs = -ln(overlap over [0, 1]); rhs = half the quadratic Renyi cross
    entropy of the pair. ``holds`` is lhs >= rhs - 1e-9. Pairs whose overlap
    or potential underflows float64 are flagged separable and count as
    holding by convention."""

    lhs: float
    rhs: float
    holds: bool
    separable: bool = False


def _pair_window(p: ProjectedPair) -> tuple[float, float]:
    centers_lo = min(float(p.f_minus.centers.min()), float(p.f_plus.centers.min()))
    centers_hi = max(float(p.f_minus.centers.max()), float(p.f_plus.centers.max()))
    sigma_max = max(p.f_minus.bandwidth, p.f_plus.bandwidth)
    return centers_lo - _WINDOW_STDS * sigma_max, centers_hi + _WINDOW_STDS * sigma_max


def _check_grid_points(grid_points: int):
    if grid_points < _MIN_GRID_POINTS:
        raise ValueError(f"grid_points must be at least {_MIN_GRID_POINTS}")


def overlap_integral(
    p: ProjectedPair,
    grid_points: int = DEFAULT_GRID_POINTS,
    window: tuple[float, float] | None = None,
) -> float:
    """Trapezoid quadrature of min(f_minus, f_plus).

    The default window spans the centers of both mixtures padded by 8 maximal
    bandwidths; pass ``window`` to integrate over a fixed interval instead.
    Densities come from the binned evaluator where it applies; an overlap
    below 1e-3, or one bounded below it by the center distances, comes from
    direct densities.
    """
    _check_grid_points(grid_points)
    if window is None:
        window = _pair_window(p)
    grid = np.linspace(window[0], window[1], grid_points)
    densities = (p.f_minus, p.f_plus)
    # The overlap is at most the window width times the largest value of
    # min(f_minus, f_plus); below the floor a binned pass would be discarded.
    width = window[1] - window[0]
    if width * min_density_bound(*densities) >= _BINNED_OVERLAP_MIN:
        binned = [binned_density_on_grid(f, grid) for f in densities]
        if any(v is not None for v in binned):
            fm, fp = (
                eval_on_sorted_grid(f, grid) if v is None else v
                for f, v in zip(densities, binned)
            )
            overlap = float(np.trapezoid(np.minimum(fm, fp), grid))
            if overlap >= _BINNED_OVERLAP_MIN:
                return overlap
    fm = eval_on_sorted_grid(p.f_minus, grid)
    fp = eval_on_sorted_grid(p.f_plus, grid)
    return float(np.trapezoid(np.minimum(fm, fp), grid))


def eaa_bayes_risk_for_direction(
    data: LabeledDataset,
    v: UnitDirection,
    bandwidth_override=None,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> RiskEstimate:
    """Balanced Bayes risk of the multithreshold family on one projection.

    Projects the dataset on ``v``, builds the class KDEs (Silverman
    bandwidths unless ``bandwidth_override`` gives one shared value), and
    returns the overlap mass with eaa_risk = overlap / 2.
    """
    data.require_both_classes()
    minus, plus = project(data, v)
    pair = projected_pair(minus, plus, bandwidth_override, bandwidth_override)
    overlap = overlap_integral(pair, grid_points)
    return RiskEstimate(
        overlap=overlap, eaa_risk=overlap / 2.0, grid_points=grid_points
    )


def _bisect_roots(p: ProjectedPair, lo, hi, g_lo):
    """Refine sign-change brackets of f_plus - f_minus by joint bisection."""
    lo = lo.copy()
    hi = hi.copy()
    positive_left = g_lo > 0
    for _ in range(200):  # brackets halve each step; 200 outruns float64
        if not np.any(hi - lo > DEFAULT_REFINE_TOL):
            break
        mid = 0.5 * (lo + hi)
        g_mid = kde_eval(p.f_plus, mid) - kde_eval(p.f_minus, mid)
        go_right = (g_mid > 0) == positive_left
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def build_multithreshold_model(
    p: ProjectedPair,
    v: UnitDirection,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> MultithresholdModel:
    """Extract the decision rule sign(f_plus - f_minus) as threshold crossings.

    Zeros of the density difference are located by sign change on the grid and
    refined by bisection to brackets no wider than ``DEFAULT_REFINE_TOL``. The
    sign at the left end of the integration window fixes the leftmost region's
    label; no thresholds at all means one class dominates everywhere.
    """
    _check_grid_points(grid_points)
    window = _pair_window(p)
    grid = np.linspace(window[0], window[1], grid_points)
    diff = eval_on_sorted_grid(p.f_plus, grid) - eval_on_sorted_grid(p.f_minus, grid)
    signs = np.sign(diff)

    nonzero = np.flatnonzero(signs != 0)
    if nonzero.size == 0:
        # Identical mixtures: the difference vanishes everywhere on the grid.
        return MultithresholdModel(
            direction=v,
            thresholds=np.empty(0),
            leftmost_sign=1,
            applied_map=p.applied_map,
        )
    leftmost_sign = int(signs[nonzero[0]])

    # Brackets between consecutive nonzero grid points of opposite sign; flat
    # zero runs in between collapse to their midpoint (a tie-break formality,
    # Gaussian mixtures have measure-zero flat regions).
    lo_list = []
    hi_list = []
    g_lo_list = []
    exact = []
    for left, right in zip(nonzero[:-1], nonzero[1:]):
        if signs[left] == signs[right]:
            continue
        if right - left > 1:
            exact.append(0.5 * (grid[left] + grid[right]))
        else:
            lo_list.append(grid[left])
            hi_list.append(grid[right])
            g_lo_list.append(diff[left])
    roots = []
    if lo_list:
        refined = _bisect_roots(
            p, np.asarray(lo_list), np.asarray(hi_list), np.asarray(g_lo_list)
        )
        roots.extend(refined.tolist())
    roots.extend(exact)
    thresholds = np.sort(np.asarray(roots))
    return MultithresholdModel(
        direction=v,
        thresholds=thresholds,
        leftmost_sign=leftmost_sign,
        applied_map=p.applied_map,
    )


def classify(model: MultithresholdModel, x):
    """Label a point (or an (n, d) batch) by the threshold model.

    The point is projected on the model's direction, passed through the
    recorded affine map, and assigned ``leftmost_sign`` when an even number of
    thresholds lies strictly below the result, the opposite sign otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    points = np.atleast_2d(x)
    if points.shape[1] != model.direction.dim:
        raise ValueError("dimension mismatch between point and model direction")
    t = points @ model.direction.components
    if model.applied_map is not None:
        t = model.applied_map.apply(t)
    below = np.searchsorted(model.thresholds, t, side="left")
    labels = np.where(below % 2 == 0, model.leftmost_sign, -model.leftmost_sign)
    if single:
        return int(labels[0])
    return labels


def empirical_balanced_error(model: MultithresholdModel, data: LabeledDataset) -> float:
    """Mean of the two per-class error rates of the model on the dataset."""
    data.require_both_classes()
    predicted = classify(model, data.points)
    neg = data.labels == -1
    err_minus = float(np.mean(predicted[neg] != -1))
    err_plus = float(np.mean(predicted[~neg] != 1))
    return 0.5 * err_minus + 0.5 * err_plus


def best_single_threshold_error(minus, plus) -> float:
    """Minimal balanced error of a single-threshold rule on a 1-D projection.

    Scans both orientations over every midpoint of the sorted merged scalars
    plus sentinels outside the data range; exact for the empirical measure.
    """
    minus = np.sort(np.asarray(minus, dtype=np.float64))
    plus = np.sort(np.asarray(plus, dtype=np.float64))
    if minus.size == 0 or plus.size == 0:
        raise ValueError("both classes must be nonempty")
    merged = np.sort(np.concatenate([minus, plus]))
    candidates = np.concatenate(
        [[merged[0] - 1.0], 0.5 * (merged[:-1] + merged[1:]), [merged[-1] + 1.0]]
    )
    # Orientation A: predict +1 iff x > t.
    minus_above = 1.0 - np.searchsorted(minus, candidates, side="right") / minus.size
    plus_at_or_below = np.searchsorted(plus, candidates, side="right") / plus.size
    err_a = 0.5 * (minus_above + plus_at_or_below)
    # Orientation B: predict +1 iff x < t.
    minus_below = np.searchsorted(minus, candidates, side="left") / minus.size
    plus_at_or_above = 1.0 - np.searchsorted(plus, candidates, side="left") / plus.size
    err_b = 0.5 * (minus_below + plus_at_or_above)
    return float(min(err_a.min(), err_b.min()))


def bound_check(
    p: ProjectedPair, grid_points: int = DEFAULT_GRID_POINTS
) -> BoundCheck:
    """Check -ln(overlap over [0, 1]) >= half the quadratic cross entropy.

    The pair must already live on the rescaled axis (all centers inside
    [0, 1], normally via ``rescaled_pair`` with tail_k >= 5). When either the
    overlap or the cross information potential underflows float64, the pair
    is reported separable and the bound holds by convention, its hypothesis
    (strictly positive overlap) being numerically void.
    """
    _check_grid_points(grid_points)
    centers = np.concatenate([p.f_minus.centers, p.f_plus.centers])
    if centers.min() < -1e-9 or centers.max() > 1.0 + 1e-9:
        raise ValueError("pair is not rescaled to the unit interval")
    overlap = overlap_integral(p, grid_points, window=(0.0, 1.0))
    rhs = 0.5 * renyi_cross_entropy(p)
    lhs = -math.log(overlap) if overlap > 0.0 else math.inf
    if overlap <= _SEPARABLE_OVERLAP or math.isinf(rhs):
        return BoundCheck(lhs=lhs, rhs=rhs, holds=True, separable=True)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - _BOUND_SLACK))
