"""Exhaustive direction sweep over the half-circle of 2-D unit vectors.

Every angle gets one record holding all per-direction objectives: the cross
information potential and its entropies, the hinge baseline at its optimal
bias, the best single-threshold balanced error, and the overlap-based
balanced Bayes risk. ``train`` fits the model on the direction that
``melc_direction`` scans for. ``bound_sweep`` checks the entropy bound per
angle and ``bound_summary`` totals its results.

``bandwidth_override`` is one bandwidth shared by both classes; None means
the Silverman rule per class and per angle.
"""

import heapq
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import LabeledDataset, UnitDirection, cosine_alignment, project
from .kde import (
    _cip_lower_bound,
    _closest_pair_bound,
    _count_cip_bound,
    _lattice_cip_screen,
)
from .objectives import (
    best_bias_hinge,
    cip,
    projected_pair,
    renyi_entropy,
    rescaled_pair,
)
from .risk import (
    DEFAULT_GRID_POINTS,
    BoundCheck,
    MultithresholdModel,
    best_single_threshold_error,
    bound_check,
    build_multithreshold_model,
    overlap_integral,
)

__all__ = [
    "SweepRecord",
    "ComparisonRow",
    "angle_grid",
    "sweep",
    "melc_direction",
    "train",
    "bound_sweep",
    "bound_summary",
    "select_best",
    "relative_error",
    "compare",
]

# Column order of the per-angle scalar fields, as serialized by the CLI.
SWEEP_FIELDS = (
    "cip",
    "h2x",
    "dcs",
    "hinge",
    "hinge_bias",
    "linear01",
    "overlap",
    "eaa_risk",
)

# Best errors at or below this are treated as numerically zero Bayes risk:
# relative errors are undefined there and absolute gaps are reported instead.
SEPARABLE_TOL = 1e-9

# Relative slack of the direction scan's lower bounds: covers the binned
# pair sum's error of 1e-12 and the direct sum's truncation, both relative to
# the potential, and the rounding of the bounds themselves.
_BOUND_SLACK = 1e-9

# Angles whose screen estimate over every offset is computed at once. One
# angle a call made the scan on four-line at sigma 0.02 (500 points a
# component, 360 angles, 256 refined) take 124 ms against 110 ms (medians of
# 30 alternating runs, 2-vCPU x86 host).
_REFINE_BATCH = 16

# Bandwidths of buffer on each side of the centers before the bound check's
# rescale to [0, 1].
DEFAULT_TAIL_K = 5.0


@dataclass(frozen=True)
class SweepRecord:
    """All per-direction objective values at one angle of the sweep."""

    angle: float
    direction: UnitDirection
    cip: float
    h2x: float
    dcs: float
    hinge: float
    hinge_bias: float
    linear01: float
    overlap: float
    eaa_risk: float


@dataclass(frozen=True)
class ComparisonRow:
    """How the surrogate optima compare against the direct-error optima.

    e_hinge is the relative excess of the single-threshold balanced error at
    the hinge-optimal angle over the best such error anywhere (an absolute gap
    when ``hinge_separable``); cos_hinge aligns the two directions. e_melc and
    cos_melc do the same for the entropy objective against the balanced Bayes
    risk.
    """

    dataset: str
    e_hinge: float
    cos_hinge: float
    e_melc: float
    cos_melc: float
    hinge_separable: bool = False
    melc_separable: bool = False


def angle_grid(n: int) -> list[tuple[float, UnitDirection]]:
    """Angles k*pi/n for k = 0..n-1 with their unit directions.

    The half-circle suffices: v and -v give the same projections up to sign
    and therefore the same objectives.
    """
    return [(angle, UnitDirection.from_angle(angle)) for angle in _angles(n)]


def _angles(n: int) -> list[float]:
    if n < 2:
        raise ValueError("need at least 2 angles")
    return [k * math.pi / n for k in range(n)]


def sweep(
    data: LabeledDataset,
    n: int,
    bandwidth_override=None,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> list[SweepRecord]:
    """Evaluate every objective at every angle of the n-point grid.

    Parameters
    ----------
    data : LabeledDataset
        Two-dimensional dataset with both classes present.
    n : int
        Number of grid angles over the half-circle.
    bandwidth_override : float, optional
        Fixed KDE bandwidth for both classes instead of the per-angle
        Silverman rule.
    grid_points : int
        Quadrature resolution for the overlap integral.

    Returns
    -------
    list of SweepRecord, ordered by angle index and deterministic for fixed
    inputs.
    """
    if data.dim != 2:
        raise ValueError("sweep requires a 2-D dataset")
    data.require_both_classes()

    def evaluate(entry):
        angle, direction = entry
        minus, plus = project(data, direction)
        pair = projected_pair(minus, plus, bandwidth_override, bandwidth_override)
        potential = cip(pair)
        h2x = -math.log(potential) if potential > 0 else math.inf
        bias, hinge = best_bias_hinge(minus, plus)
        overlap = overlap_integral(pair, grid_points)
        return SweepRecord(
            angle=angle,
            direction=direction,
            cip=potential,
            h2x=h2x,
            dcs=2.0 * h2x - renyi_entropy(pair.f_minus) - renyi_entropy(pair.f_plus),
            hinge=hinge,
            hinge_bias=bias,
            linear01=best_single_threshold_error(minus, plus),
            overlap=overlap,
            eaa_risk=overlap / 2.0,
        )

    return [evaluate(entry) for entry in angle_grid(n)]


def melc_direction(
    data: LabeledDataset, n: int, bandwidth_override=None
) -> tuple[float, UnitDirection]:
    """Train the non-regularized model: the angle-grid direction maximizing
    the quadratic Renyi cross entropy (equivalently minimizing the cross
    information potential) of the projected class densities.

    Cheaper than ``sweep`` when only the trained direction is needed, since
    no quadrature, hinge, or threshold scans are evaluated.

    The angle is the first-index argmin of ``cip`` over the grid, as a scan
    of every angle would return it, found best first (``_best_first``) from
    two tiers of lower bounds: a cheap one at every angle, and a tight one
    only at the angles the cheap one cannot rule out. Where the all-angle
    lattice screen applies (``kde._lattice_cip_screen``) and every
    closed-form value lands within its estimate's bound, the cheap tier is
    its ridge sum over the heavy offsets and the tight one its full
    estimate minus error bound, computed for up to _REFINE_BATCH angles at
    a time. Otherwise every angle's pair is built in angle order, so a
    degenerate projection raises where the scan would, and bounded by
    counts in bins (``kde._count_cip_bound``); the tight tier rebuilds the
    pair for the binned Jensen bound (``kde._cip_lower_bound``). A tight
    bound of at most 0, as where a potential is below the screen's absolute
    error or no bins of the two classes lie within reach, is raised to the
    closest cross pair's term (``kde._closest_pair_bound``).
    """
    if data.dim != 2:
        raise ValueError("direction scan requires a 2-D dataset")
    data.require_both_classes()

    angles = _angles(n)
    # The rows are UnitDirection.from_angle's components bit for bit.
    directions = np.array([[math.cos(angle), math.sin(angle)] for angle in angles])

    def entry(k):
        return angles[k], UnitDirection.from_angle(angles[k])

    def pair(k):
        minus, plus = project(data, entry(k)[1])
        return projected_pair(minus, plus, bandwidth_override, bandwidth_override)

    def potential(k):
        return cip(pair(k))

    def raised(bound, k, p=None):
        # Where a bound says nothing, the closest cross pair's term of angle
        # k's pair p still bounds the potential: every pair term is
        # non-negative.
        if bound > 0.0:
            return bound
        p = pair(k) if p is None else p
        return _closest_pair_bound(p.f_minus, p.f_plus)

    screen = _lattice_cip_screen(*data.class_points(), directions, bandwidth_override)
    if screen is not None:
        tight = {}

        def refine_screened(ks):
            estimates, bounds = screen.tight(ks)
            tight.update(zip(ks, zip(estimates.tolist(), bounds.tolist())))
            return [raised(tight[k][0] - tight[k][1], k) for k in ks]

        def within(k, value):
            estimate, bound = tight[k]
            return abs(value - estimate) <= bound

        best = _best_first(screen.cheap, refine_screened, potential, within, _REFINE_BATCH)
        if best is not None:
            return entry(best)

    def counted(k):
        p = pair(k)
        return _count_cip_bound(p.f_minus, p.f_plus)

    def refine(ks):
        pairs = map(pair, ks)
        return [raised(_cip_lower_bound(p.f_minus, p.f_plus), k, p) for k, p in zip(ks, pairs)]

    return entry(_best_first([counted(k) for k in range(n)], refine, potential))


def train(
    data: LabeledDataset,
    n: int,
    bandwidth_override=None,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[float, MultithresholdModel, tuple[float, float]]:
    """Train the model: the ``melc_direction`` angle of the n-point grid and,
    on its projection, the rule sign(f_plus - f_minus) as a threshold model
    (``build_multithreshold_model`` at ``grid_points`` nodes).

    Returns (angle, model, (bandwidth of f_minus, bandwidth of f_plus)).
    """
    angle, direction = melc_direction(data, n, bandwidth_override)
    minus, plus = project(data, direction)
    pair = projected_pair(minus, plus, bandwidth_override, bandwidth_override)
    model = build_multithreshold_model(pair, direction, grid_points)
    return angle, model, (pair.f_minus.bandwidth, pair.f_plus.bandwidth)


def _best_first(cheap, refine, potential, within=None, batch=1):
    """The first index of the smallest ``potential(k)``, given cheap lower
    bounds ``cheap[k]`` on every value and tighter ones from ``refine(ks)``,
    a list of bounds for the indices ``ks``, all valid up to _BOUND_SLACK.

    Entries are popped in ascending order of (bound, index), each index
    first with its cheap bound. Popping a cheap entry refines it, together
    with up to ``batch`` - 1 more cheap entries at the front, and pushes
    each back with the larger of its two bounds; popping a refined entry
    evaluates ``potential``. This stops when the next bound exceeds the
    best value times 1 + _BOUND_SLACK, or the best value is 0: a potential
    is never negative, and a later index with a bound of 0 loses the tie.
    So an index is left out only when a valid bound rules it out, and the
    evaluations come in the order of their final bounds. None as soon as
    ``within(k, value)`` fails.
    """
    heap = [(bound, k, False) for k, bound in enumerate(np.fmax(cheap, 0.0).tolist())]
    heapq.heapify(heap)
    best, best_k = math.inf, None

    def front():
        # The front entry, or None where the stop rule ends the scan.
        if heap and best != 0.0 and heap[0][0] <= best * (1.0 + _BOUND_SLACK):
            return heap[0]
        return None

    while (top := front()) is not None:
        if not top[2]:
            popped = [heapq.heappop(heap)]
            while len(popped) < batch and (top := front()) is not None and not top[2]:
                popped.append(heapq.heappop(heap))
            for (bound, k, _), tight in zip(popped, refine([k for _, k, _ in popped])):
                heapq.heappush(heap, (tight if tight > bound else bound, k, True))
            continue
        _, k, _ = heapq.heappop(heap)
        value = potential(k)
        if within is not None and not within(k, value):
            return None
        if value < best or (value == best and k < best_k):
            best, best_k = value, k
    return best_k


def bound_sweep(
    data: LabeledDataset,
    n: int,
    bandwidth_override=None,
    tail_k: float = DEFAULT_TAIL_K,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> list[tuple[float, BoundCheck]]:
    """Check the entropy bound on the overlap at every angle of the n-point grid.

    Each projection is rescaled so its tail_k-bandwidth buffered center range
    is [0, 1] (``rescaled_pair``), then passed to ``bound_check``. Returns one
    (angle, BoundCheck) per angle, in angle order.
    """
    if data.dim != 2:
        raise ValueError("bound sweep requires a 2-D dataset")
    data.require_both_classes()

    results = []
    for angle, direction in angle_grid(n):
        minus, plus = project(data, direction)
        pair = rescaled_pair(minus, plus, bandwidth_override, bandwidth_override, tail_k)
        results.append((angle, bound_check(pair, grid_points)))
    return results


def bound_summary(results) -> dict:
    """Totals of ``bound_sweep``'s results: the number of angles where the
    bound fails (``violations``) and of separable ones
    (``separable_angles``), and the smallest finite ``slack`` over the other
    angles with its angle, the first on a tie (both None where there is
    none)."""
    slacks = [
        (result.slack, angle)
        for angle, result in results
        if not result.separable and result.slack < math.inf
    ]
    min_slack, min_slack_angle = min(slacks, key=lambda entry: entry[0], default=(None, None))
    return {
        "violations": sum(not result.holds for _, result in results),
        "separable_angles": sum(result.separable for _, result in results),
        "min_slack": min_slack,
        "min_slack_angle_rad": min_slack_angle,
    }


def select_best(records, objective_field: str, minimize: bool) -> SweepRecord:
    """Extremal record by one scalar field; ties go to the smallest angle."""
    records = list(records)
    if not records:
        raise ValueError("cannot select from an empty record list")
    best = records[0]
    best_value = getattr(best, objective_field)
    for record in records[1:]:
        value = getattr(record, objective_field)
        better = (value < best_value) if minimize else (value > best_value)
        if better or (value == best_value and record.angle < best.angle):
            best = record
            best_value = value
    return best


def relative_error(chosen_value: float, best_value: float) -> float:
    """(chosen - best) / best, defined only for a strictly positive best."""
    if best_value <= 0:
        raise ValueError("zero Bayes risk: relative error undefined")
    return (chosen_value - best_value) / best_value


def _error_and_flag(chosen: float, best: float):
    if best <= SEPARABLE_TOL:
        return chosen - best, True
    return relative_error(chosen, best), False


def compare(
    data: LabeledDataset,
    n: int,
    bandwidth_override=None,
    grid_points: int = DEFAULT_GRID_POINTS,
    dataset_name: str = "",
) -> ComparisonRow:
    """Compare surrogate optima with direct-error optima over the n-point grid.

    The hinge side pits the hinge-optimal direction against the best
    single-threshold balanced error; the entropy side pits the cross-entropy
    maximizer, the direction ``classify`` trains (``melc_direction``), against
    the smallest balanced Bayes risk. Sides whose best error is numerically
    zero are flagged separable and report absolute gaps.
    """
    data.require_both_classes()

    def evaluate(angle, direction):
        minus, plus = project(data, direction)
        pair = projected_pair(minus, plus, bandwidth_override, bandwidth_override)
        return SimpleNamespace(
            angle=angle,
            direction=direction,
            hinge=best_bias_hinge(minus, plus)[1],
            linear01=best_single_threshold_error(minus, plus),
            eaa_risk=overlap_integral(pair, grid_points) / 2.0,
        )

    rows = [evaluate(*entry) for entry in angle_grid(n)]
    at_hinge = select_best(rows, "hinge", minimize=True)
    at_linear = select_best(rows, "linear01", minimize=True)
    entropy_angle, _ = melc_direction(data, n, bandwidth_override)
    at_entropy = next(row for row in rows if row.angle == entropy_angle)
    at_bayes = select_best(rows, "eaa_risk", minimize=True)

    e_hinge, hinge_sep = _error_and_flag(at_hinge.linear01, at_linear.linear01)
    e_melc, melc_sep = _error_and_flag(at_entropy.eaa_risk, at_bayes.eaa_risk)
    return ComparisonRow(
        dataset=dataset_name,
        e_hinge=e_hinge,
        cos_hinge=cosine_alignment(at_hinge.direction, at_linear.direction),
        e_melc=e_melc,
        cos_melc=cosine_alignment(at_entropy.direction, at_bayes.direction),
        hinge_separable=hinge_sep,
        melc_separable=melc_sep,
    )
