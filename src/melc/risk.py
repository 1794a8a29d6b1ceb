"""Balanced Bayes-risk integrals and multithreshold decision rules.

The minimal class-balanced error attainable by any multithreshold classifier
on a fixed projection equals the integral of min(f_minus, f_plus) weighted by
1/2, which is computed here by trapezoid quadrature. The pointwise-optimal
rule itself, sign(f_plus - f_minus), is extracted as an explicit threshold
model so that points can be classified without re-evaluating densities.

The overlap quadrature evaluates the densities with the binned FFT
evaluator of ``melc.kde`` where it applies. On the default window at the
default node count the grid is the pair's own pair grid, and the binned
densities are the pair's, evaluated at most once per pair and shared with
``cip`` and the threshold scan; any other window or node count, as
``bound_check``'s [0, 1], evaluates its own. The binned error is absolute,
about 1e-16 of the peak density, so an overlap below 1e-3 is recomputed with
the direct evaluator: -ln(overlap) in the entropy bound then stays within
1e-12. Where the center distances alone bound the overlap below 1e-3, the
direct evaluator runs from the start. The direct minimum of the two densities is
bit for bit that of both densities on the full grid, but each density is
evaluated only at the nodes that both densities reach and where it is not
certainly the larger one.

Threshold extraction reads the sign of f_plus - f_minus from the binned
densities only at grid nodes where the difference exceeds a margin of 1e-12
of the larger kernel peak, 1000 times the binned error. Every other node and
every bisection midpoint takes the sign of ln f_plus - ln f_minus from the
log-domain band evaluator of ``melc.kde``, which stays finite where the
densities underflow, so the rule is defined at any bandwidth.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LabeledDataset, UnitDirection, project
from .kde import (
    _PAIR_GRID_POINTS,
    _grid_minimum,
    _LogBand,
    _pair_window,
    binned_density_on_grid,
    eval_on_sorted_grid,
    min_density_bound,
)
from .objectives import ProjectedPair, projected_pair, renyi_cross_entropy

__all__ = [
    "MultithresholdModel",
    "RiskEstimate",
    "BoundCheck",
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
_MIN_GRID_POINTS = 64

# Below this mass the two densities are treated as numerically separated: the
# entropy bound's hypothesis (strictly positive overlap) is void.
_SEPARABLE_OVERLAP = 1e-300

_BOUND_SLACK = 1e-9

# Overlaps from binned densities below this are recomputed directly: the
# binned error is absolute, and -ln(overlap) must stay within 1e-12.
_BINNED_OVERLAP_MIN = 1e-3

# The threshold scan takes a node's sign from the binned densities where
# |f_plus - f_minus| exceeds this share of the larger kernel peak. Against the
# direct evaluator the binned error measured at most 1.12e-15 of a kernel peak
# (three datasets, three seeds, 200 to 2000 points a class, 24 angles: 1296
# densities, the largest at four-line's angle 0 with 2000 a class). It
# grows with the nodes' rounding, about 0.01 eps |x| / sigma of a peak at
# offsets |x| far beyond sigma, which the second term covers 1000 times over.
_SIGN_MARGIN = 1e-12
_SIGN_OFFSET = 16.0
# Two log densities within this many units of rounding of their magnitudes
# tie, as equal densities do: the same terms summed in another order, as
# mirror-image classes give them, differ by a few.
_TIE_ULPS = 64


@dataclass(frozen=True)
class MultithresholdModel:
    """Sign-alternating interval classifier on a 1-D projection.

    ``thresholds`` is strictly increasing (possibly empty) on the projection
    axis of ``direction``. The predicted label left of all thresholds is
    ``leftmost_sign`` and flips across each threshold.
    """

    direction: UnitDirection
    thresholds: np.ndarray
    leftmost_sign: int

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


def _check_grid_points(grid_points: int):
    if grid_points < _MIN_GRID_POINTS:
        raise ValueError(f"grid_points must be at least {_MIN_GRID_POINTS}")


def _grid(p: ProjectedPair, grid_points: int, window=None) -> np.ndarray:
    """``grid_points`` nodes over ``window``, by default the pair window,
    where at _PAIR_GRID_POINTS nodes they are the pair's own pair grid."""
    if window is None:
        if grid_points == _PAIR_GRID_POINTS:
            return p._pair_grid.nodes
        window = _pair_window(p.f_minus, p.f_plus)
    return np.linspace(window[0], window[1], grid_points)


def _binned(p: ProjectedPair, grid: np.ndarray) -> tuple:
    """Binned (f_minus, f_plus) on ``grid``, None where the direct evaluator
    must be used. On the pair's own pair grid they are the pair's values,
    evaluated at most once and shared with ``cip``; on any other grid they
    are evaluated here."""
    shared = p._pair_grid
    if grid is shared.nodes:
        return shared.f_values, shared.g_values
    return tuple(binned_density_on_grid(f, grid) for f in (p.f_minus, p.f_plus))


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
    direct densities. On the default window at the default node count the
    grid is the pair's own, so the binned densities are the ones ``cip``
    evaluates.
    """
    _check_grid_points(grid_points)
    grid = _grid(p, grid_points, window)
    densities = (p.f_minus, p.f_plus)
    # The overlap is at most the window width times the largest value of
    # min(f_minus, f_plus); below the floor a binned pass would be discarded.
    width = grid[-1] - grid[0]
    if width * min_density_bound(*densities) >= _BINNED_OVERLAP_MIN:
        binned = _binned(p, grid)
        if any(v is not None for v in binned):
            fm, fp = (
                eval_on_sorted_grid(f, grid) if v is None else v
                for f, v in zip(densities, binned)
            )
            overlap = float(np.trapezoid(np.minimum(fm, fp), grid))
            if overlap >= _BINNED_OVERLAP_MIN:
                return overlap
    return float(np.trapezoid(_grid_minimum(p.f_minus, p.f_plus, grid), grid))


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


def _signs(log_plus: np.ndarray, log_minus: np.ndarray) -> np.ndarray:
    """sign(f_plus - f_minus) from the two log densities; 0 where they agree
    within _TIE_ULPS units of rounding of their magnitudes."""
    diff = log_plus - log_minus
    scale = np.maximum(1.0, np.maximum(np.abs(log_plus), np.abs(log_minus)))
    return np.where(np.abs(diff) > _TIE_ULPS * np.finfo(float).eps * scale, np.sign(diff), 0.0)


def _bisect_roots(p: ProjectedPair, lo, hi, positive_left):
    """Refine sign-change brackets of f_plus - f_minus by joint bisection.

    Each bracket's centers are found once and every midpoint takes the sign
    of ln f_plus - ln f_minus on them; a tie counts as not positive.
    """
    bands = _LogBand(p.f_plus, lo, hi), _LogBand(p.f_minus, lo, hi)
    for _ in range(200):  # brackets halve each step; 200 outruns float64
        if not np.any(hi - lo > DEFAULT_REFINE_TOL):
            break
        mid = 0.5 * (lo + hi)
        go_right = (_signs(*(band(mid) for band in bands)) > 0) == positive_left
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _grid_signs(p: ProjectedPair, grid: np.ndarray) -> np.ndarray:
    """The sign of f_plus - f_minus at every node. Where both densities are
    binned, a node whose binned difference exceeds the margin keeps the
    binned sign; the others take the sign of ln f_plus - ln f_minus."""
    signs = np.zeros(grid.size)
    minus, plus = _binned(p, grid)
    doubt = slice(None)
    if minus is not None and plus is not None:
        sigma = min(p.f_plus.bandwidth, p.f_minus.bandwidth)
        scale = max(abs(grid[0]), abs(grid[-1]))
        rounding = _SIGN_OFFSET * np.finfo(float).eps * scale / sigma
        margin = (_SIGN_MARGIN + rounding) / (sigma * math.sqrt(2.0 * math.pi))
        diff = plus - minus
        sure = np.abs(diff) > margin
        signs[sure] = np.sign(diff[sure])
        doubt = np.flatnonzero(~sure)
    nodes = grid[doubt]
    signs[doubt] = _signs(*(_LogBand(f, nodes, nodes)(nodes) for f in (p.f_plus, p.f_minus)))
    return signs


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
    grid = _grid(p, grid_points)
    signs = _grid_signs(p, grid)

    nonzero = np.flatnonzero(signs != 0)
    if nonzero.size == 0:
        # Identical mixtures: the difference vanishes everywhere on the grid.
        return MultithresholdModel(direction=v, thresholds=np.empty(0), leftmost_sign=1)
    leftmost_sign = int(signs[nonzero[0]])

    # Brackets between consecutive nonzero grid points of opposite sign; flat
    # zero runs in between collapse to their midpoint (a tie-break formality,
    # Gaussian mixtures have measure-zero flat regions).
    left, right = nonzero[:-1], nonzero[1:]
    change = signs[left] != signs[right]
    left, right = left[change], right[change]
    adjacent = right - left == 1
    roots = []
    if np.any(adjacent):
        bracketed = left[adjacent]
        refined = _bisect_roots(
            p, grid[bracketed], grid[bracketed + 1], signs[bracketed] > 0
        )
        roots.extend(refined.tolist())
    roots.extend((0.5 * (grid[left[~adjacent]] + grid[right[~adjacent]])).tolist())
    thresholds = np.sort(np.asarray(roots))
    return MultithresholdModel(
        direction=v, thresholds=thresholds, leftmost_sign=leftmost_sign
    )


def classify(model: MultithresholdModel, x):
    """Label a point (or an (n, d) batch) by the threshold model.

    The point is projected on the model's direction and assigned
    ``leftmost_sign`` when an even number of thresholds lies strictly below
    the projection, the opposite sign otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    points = np.atleast_2d(x)
    if points.shape[1] != model.direction.dim:
        raise ValueError("dimension mismatch between point and model direction")
    t = points @ model.direction.components
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
