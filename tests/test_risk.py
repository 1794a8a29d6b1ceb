import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clusters, grid_density_oracle
from melc import kde, risk
from melc.datasets import DatasetSpec, generate
from melc.geometry import LabeledDataset, UnitDirection, project
from melc.kde import (
    DegenerateBandwidthError,
    Kde1d,
    binned_density_on_grid,
    cross_integral,
    eval_on_sorted_grid,
    kde_eval,
    min_density_bound,
    silverman_bandwidth,
)
from melc.objectives import ProjectedPair, cip, projected_pair, rescaled_pair
from melc.risk import (
    DEFAULT_GRID_POINTS,
    BoundCheck,
    MultithresholdModel,
    RiskEstimate,
    best_single_threshold_error,
    bound_check,
    build_multithreshold_model,
    classify,
    eaa_bayes_risk_for_direction,
    empirical_balanced_error,
    overlap_integral,
)

X_AXIS = UnitDirection.from_angle(0.0)


def std_normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2))


def random_pair(rng, max_centers=10, spread=2.0):
    f = Kde1d(
        rng.normal(scale=spread, size=rng.integers(1, max_centers + 1)),
        rng.uniform(0.05, 1.0),
    )
    g = Kde1d(
        rng.normal(scale=spread, size=rng.integers(1, max_centers + 1)),
        rng.uniform(0.05, 1.0),
    )
    return ProjectedPair(f, g)


class TestOverlapIntegral:
    def test_identical_densities_integrate_to_one(self, rng):
        centers = rng.normal(size=6)
        pair = ProjectedPair(Kde1d(centers, 0.5), Kde1d(centers.copy(), 0.5))
        assert overlap_integral(pair) == pytest.approx(1.0, abs=1e-6)

    def test_far_separated_vanishes(self):
        pair = ProjectedPair(Kde1d([0.0], 1.0), Kde1d([100.0], 1.0))
        assert overlap_integral(pair) <= 1e-10

    def test_two_unit_gaussians_at_distance_two(self):
        # Equal-sigma Gaussians cross at the midpoint; the overlap is the two
        # symmetric tails, 2 * Phi(-1), per the error-function oracle.
        pair = ProjectedPair(Kde1d([0.0], 1.0), Kde1d([2.0], 1.0))
        expected = 2.0 * std_normal_cdf(-1.0)
        assert overlap_integral(pair) == pytest.approx(expected, abs=1e-5)
        assert expected == pytest.approx(0.31731050786291415, rel=1e-12)

    def test_grid_points_validated(self):
        pair = ProjectedPair(Kde1d([0.0], 1.0), Kde1d([1.0], 1.0))
        with pytest.raises(ValueError, match="grid_points"):
            overlap_integral(pair, grid_points=32)

    def test_overlap_bounded_by_root_of_product_integral(self, rng):
        # overlap over [0,1] <= sqrt(quadrature of f*g over [0,1]): pointwise
        # min{a,b} <= sqrt(ab) plus the weighted Cauchy-Schwarz step both hold
        # exactly for trapezoid sums on the unit interval.
        for _ in range(25):
            pair = random_pair(rng, spread=0.3)
            pair = rescaled_pair(
                pair.f_minus.centers,
                pair.f_plus.centers,
                pair.f_minus.bandwidth,
                pair.f_plus.bandwidth,
                5.0,
            )
            grid = np.linspace(0.0, 1.0, 2048)
            fm = kde_eval(pair.f_minus, grid)
            fp = kde_eval(pair.f_plus, grid)
            overlap = np.trapezoid(np.minimum(fm, fp), grid)
            cip_on_unit = np.trapezoid(fm * fp, grid)
            assert overlap <= math.sqrt(cip_on_unit) + 1e-12


class TestGridFunctionSchwarzInequality:
    def test_integral_bounded_by_root_of_square_integral(self, rng):
        # For nonnegative f on [0,1]: int f <= sqrt(int f^2), by the Schwarz
        # inequality with the constant function; exact for trapezoid weights.
        grid = np.linspace(0.0, 1.0, 513)
        for _ in range(200):
            f = rng.uniform(0.0, rng.uniform(0.1, 10.0), size=grid.size)
            assert np.trapezoid(f, grid) <= math.sqrt(np.trapezoid(f * f, grid)) + 1e-9


def make_two_clouds(rng, separation, sigma=0.2, n=50):
    minus = rng.normal(scale=sigma, size=(n, 2))
    plus = rng.normal(scale=sigma, size=(n, 2)) + [separation, 0.0]
    points = np.vstack([minus, plus])
    labels = np.concatenate([np.full(n, -1), np.full(n, 1)])
    return LabeledDataset.from_arrays(points, labels)


class TestEaaBayesRisk:
    def test_separated_clouds_near_zero(self, rng):
        data = make_two_clouds(rng, separation=50.0)
        estimate = eaa_bayes_risk_for_direction(data, X_AXIS, bandwidth_override=0.1)
        assert estimate.eaa_risk < 1e-6

    @pytest.mark.parametrize("sigma", [None, 0.3])
    def test_override_matches_hand_built_pair(self, rng, sigma):
        data = make_two_clouds(rng, separation=0.5)
        direction = UnitDirection.from_angle(0.4)
        minus, plus = project(data, direction)
        if sigma is None:
            sigmas = (silverman_bandwidth(minus), silverman_bandwidth(plus))
        else:
            sigmas = (sigma, sigma)
        estimate = eaa_bayes_risk_for_direction(data, direction, bandwidth_override=sigma)
        assert estimate.overlap == overlap_integral(projected_pair(minus, plus, *sigmas))

    def test_identical_class_clouds(self, rng):
        points = rng.normal(size=(400, 2))
        labels = np.concatenate([np.full(200, -1), np.full(200, 1)])
        data = LabeledDataset.from_arrays(points, labels)
        estimate = eaa_bayes_risk_for_direction(data, X_AXIS)
        assert estimate.eaa_risk == pytest.approx(0.5, abs=0.05)

    def test_eaa_is_half_overlap(self, rng):
        data = make_two_clouds(rng, separation=1.0)
        estimate = eaa_bayes_risk_for_direction(data, X_AXIS)
        assert estimate.eaa_risk == estimate.overlap / 2.0

    def test_label_exchange_invariance(self, rng):
        data = make_two_clouds(rng, separation=1.0)
        flipped = LabeledDataset.from_arrays(data.points, -data.labels)
        a = eaa_bayes_risk_for_direction(data, X_AXIS)
        b = eaa_bayes_risk_for_direction(flipped, X_AXIS)
        assert a.overlap == pytest.approx(b.overlap, rel=1e-12)

    def test_lower_bounds_enumerated_classifiers(self, rng):
        # Any classifier with up to 3 thresholds on a coarse grid must err at
        # least as much (by quadrature) as the overlap bound, up to tolerance.
        from itertools import combinations

        for _ in range(5):
            data = make_two_clouds(rng, separation=rng.uniform(0.3, 1.5), n=30)
            estimate = eaa_bayes_risk_for_direction(data, X_AXIS)
            minus = data.points[data.labels == -1, 0]
            plus = data.points[data.labels == 1, 0]
            from melc.kde import silverman_bandwidth

            pair = ProjectedPair(
                Kde1d(minus, silverman_bandwidth(minus)),
                Kde1d(plus, silverman_bandwidth(plus)),
            )
            lo = min(minus.min(), plus.min()) - 8 * max(
                pair.f_minus.bandwidth, pair.f_plus.bandwidth
            )
            hi = max(minus.max(), plus.max()) + 8 * max(
                pair.f_minus.bandwidth, pair.f_plus.bandwidth
            )
            grid = np.linspace(lo, hi, 2048)
            fm = kde_eval(pair.f_minus, grid)
            fp = kde_eval(pair.f_plus, grid)
            candidates = np.linspace(lo, hi, 10)[1:-1]
            best = math.inf
            for count in range(0, 4):
                for thresholds in combinations(candidates, count):
                    below = np.searchsorted(np.asarray(thresholds), grid, side="left")
                    for leftmost in (-1, 1):
                        signs = np.where(below % 2 == 0, leftmost, -leftmost)
                        err = 0.5 * np.trapezoid(np.where(signs == 1, fm, 0.0), grid)
                        err += 0.5 * np.trapezoid(np.where(signs == -1, fp, 0.0), grid)
                        best = min(best, float(err))
            assert estimate.eaa_risk <= best + 1e-4


class TestBuildMultithresholdModel:
    def test_symmetric_single_centers(self):
        pair = ProjectedPair(Kde1d([0.0], 0.5), Kde1d([1.0], 0.5))
        model = build_multithreshold_model(pair, X_AXIS)
        assert model.thresholds.size == 1
        assert model.thresholds[0] == pytest.approx(0.5, abs=1e-9)
        assert model.leftmost_sign == -1

    def test_far_separated_clusters_single_threshold(self, rng):
        minus = rng.normal(scale=0.3, size=8)
        plus = rng.normal(scale=0.3, size=8) + 10.0
        pair = ProjectedPair(Kde1d(minus, 0.3), Kde1d(plus, 0.3))
        model = build_multithreshold_model(pair, X_AXIS)
        assert model.thresholds.size == 1
        assert minus.max() < model.thresholds[0] < plus.min()

    def test_identical_mixtures_no_thresholds(self, rng):
        centers = rng.normal(size=5)
        pair = ProjectedPair(Kde1d(centers, 0.5), Kde1d(centers.copy(), 0.5))
        model = build_multithreshold_model(pair, X_AXIS)
        assert model.thresholds.size == 0

    def test_classification_matches_density_comparison(self, rng):
        refine_tol = 1e-10
        for _ in range(5):
            pair = random_pair(rng, max_centers=6, spread=1.5)
            model = build_multithreshold_model(pair, X_AXIS)
            sigma_max = max(pair.f_minus.bandwidth, pair.f_plus.bandwidth)
            lo = min(pair.f_minus.centers.min(), pair.f_plus.centers.min())
            hi = max(pair.f_minus.centers.max(), pair.f_plus.centers.max())
            xs = rng.uniform(lo - 8 * sigma_max, hi + 8 * sigma_max, size=2000)
            if model.thresholds.size:
                gap = np.min(
                    np.abs(xs[:, None] - model.thresholds[None, :]), axis=1
                )
                xs = xs[gap > refine_tol]
            fm = kde_eval(pair.f_minus, xs)
            fp = kde_eval(pair.f_plus, xs)
            # Restrict to where some density mass exists; in the far tails the
            # sign of a sub-1e-12 difference is not a meaningful reference.
            xs = xs[np.maximum(fm, fp) >= 1e-12]
            direct = np.sign(
                kde_eval(pair.f_plus, xs) - kde_eval(pair.f_minus, xs)
            )
            points = np.column_stack([xs, np.zeros_like(xs)])
            predicted = classify(model, points)
            np.testing.assert_array_equal(predicted, direct)


class TestClassify:
    def test_counting_rule(self):
        model = MultithresholdModel(
            direction=X_AXIS, thresholds=np.array([0.5]), leftmost_sign=-1
        )
        assert classify(model, np.array([0.0, 7.0])) == -1
        assert classify(model, np.array([0.7, -3.0])) == 1

    def test_no_thresholds_constant(self):
        model = MultithresholdModel(
            direction=X_AXIS, thresholds=np.empty(0), leftmost_sign=1
        )
        assert classify(model, np.array([123.0, 0.0])) == 1
        assert classify(model, np.array([-123.0, 0.0])) == 1

    def test_alternation_across_thresholds(self):
        model = MultithresholdModel(
            direction=X_AXIS,
            thresholds=np.array([0.0, 1.0, 2.0]),
            leftmost_sign=1,
        )
        xs = np.array([[-0.5, 0.0], [0.5, 0.0], [1.5, 0.0], [2.5, 0.0]])
        np.testing.assert_array_equal(classify(model, xs), [1, -1, 1, -1])

    def test_dimension_mismatch(self):
        model = MultithresholdModel(
            direction=X_AXIS, thresholds=np.empty(0), leftmost_sign=1
        )
        with pytest.raises(ValueError, match="dimension mismatch"):
            classify(model, np.array([1.0, 2.0, 3.0]))


class TestEmpiricalBalancedError:
    def test_perfect_model(self, rng):
        data = make_two_clouds(rng, separation=10.0)
        model = MultithresholdModel(
            direction=X_AXIS, thresholds=np.array([5.0]), leftmost_sign=-1
        )
        assert empirical_balanced_error(model, data) == 0.0

    def test_constant_model_is_half(self, rng):
        data = make_two_clouds(rng, separation=1.0)
        model = MultithresholdModel(
            direction=X_AXIS, thresholds=np.empty(0), leftmost_sign=1
        )
        assert empirical_balanced_error(model, data) == pytest.approx(0.5)

    def test_label_flip_complements(self, rng):
        data = make_two_clouds(rng, separation=0.8)
        model = MultithresholdModel(
            direction=X_AXIS, thresholds=np.array([0.4]), leftmost_sign=-1
        )
        flipped = MultithresholdModel(
            direction=X_AXIS, thresholds=np.array([0.4]), leftmost_sign=1
        )
        total = empirical_balanced_error(model, data) + empirical_balanced_error(
            flipped, data
        )
        assert total == pytest.approx(1.0)

    def test_training_error_tracks_bayes_risk(self, rng):
        # The extracted rule is pointwise optimal for the KDEs, so its
        # training error cannot exceed the quadrature risk by more than the
        # sampling noise at this size.
        from melc.kde import silverman_bandwidth

        data = make_two_clouds(rng, separation=0.8, sigma=0.5, n=1000)
        minus = data.points[data.labels == -1, 0]
        plus = data.points[data.labels == 1, 0]
        pair = ProjectedPair(
            Kde1d(minus, silverman_bandwidth(minus)),
            Kde1d(plus, silverman_bandwidth(plus)),
        )
        model = build_multithreshold_model(pair, X_AXIS)
        estimate = eaa_bayes_risk_for_direction(data, X_AXIS)
        empirical = empirical_balanced_error(model, data)
        assert empirical <= estimate.eaa_risk + 0.05


class TestBestSingleThresholdError:
    def test_separated_blocks(self):
        assert best_single_threshold_error([0.0, 1.0], [2.0, 3.0]) == 0.0

    def test_interleaved_matches_exhaustive(self, rng):
        for _ in range(20):
            minus = rng.normal(size=rng.integers(1, 12))
            plus = rng.normal(size=rng.integers(1, 12))
            result = best_single_threshold_error(minus, plus)
            merged = np.concatenate([minus, plus])
            grid = np.linspace(merged.min() - 1, merged.max() + 1, 4001)
            best = math.inf
            for t in grid:
                err_a = 0.5 * (np.mean(minus > t) + np.mean(plus <= t))
                err_b = 0.5 * (np.mean(minus < t) + np.mean(plus >= t))
                best = min(best, err_a, err_b)
            assert result == pytest.approx(best, abs=1e-12)

    def test_minimization_dominates_fixed_threshold(self, rng):
        minus = rng.normal(size=15)
        plus = rng.normal(size=15) + 0.7
        result = best_single_threshold_error(minus, plus)
        for t in rng.normal(size=20):
            err = 0.5 * (np.mean(minus > t) + np.mean(plus <= t))
            assert result <= err + 1e-12

    def test_empty_class_errors(self):
        with pytest.raises(ValueError):
            best_single_threshold_error([], [1.0])


class TestBoundCheck:
    def test_identical_single_center_pair(self):
        pair = rescaled_pair([0.0], [0.0], 1.0, 1.0, 5.0)
        result = bound_check(pair)
        # Rescale maps [-5, 5] to [0, 1]: bandwidths become 0.1, the squared
        # integral exceeds 1, so the right side is negative while the left is
        # the tiny tail mass outside [0, 1].
        assert result.rhs == pytest.approx(-0.5185364847547002, rel=1e-9)
        assert 0.0 < result.lhs < 1e-5
        assert result.holds and not result.separable

    def test_well_separated_pair(self):
        pair = rescaled_pair([0.0], [40.0], 0.5, 0.5, 5.0)
        result = bound_check(pair)
        assert result.holds
        assert result.lhs > 1.0 and result.rhs > 1.0

    def test_random_pairs_hold(self, rng):
        for _ in range(50):
            f = rng.normal(scale=2, size=rng.integers(1, 11))
            g = rng.normal(scale=2, size=rng.integers(1, 11))
            sf, sg = rng.uniform(0.05, 1.0, size=2)
            result = bound_check(rescaled_pair(f, g, sf, sg, 5.0))
            assert result.holds

    def test_underflow_reports_separable(self):
        pair = rescaled_pair([0.0], [1e6], 1e-4, 1e-4, 5.0)
        result = bound_check(pair)
        assert result.separable and result.holds

    def test_rejects_unrescaled_pair(self):
        pair = ProjectedPair(Kde1d([-3.0], 1.0), Kde1d([4.0], 1.0))
        with pytest.raises(ValueError, match="unit interval"):
            bound_check(pair)


class TestRiskEstimateInvariants:
    def test_eaa_must_be_half_overlap(self):
        with pytest.raises(ValueError):
            RiskEstimate(overlap=0.5, eaa_risk=0.3, grid_points=64)

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MultithresholdModel(
                direction=X_AXIS,
                thresholds=np.array([1.0, 1.0]),
                leftmost_sign=1,
            )


def direct_overlap(pair, window=None):
    """overlap_integral's quadrature with both densities from the direct
    evaluator."""
    if window is None:
        window = risk._pair_window(pair.f_minus, pair.f_plus)
    grid = np.linspace(window[0], window[1], DEFAULT_GRID_POINTS)
    fm = eval_on_sorted_grid(pair.f_minus, grid)
    fp = eval_on_sorted_grid(pair.f_plus, grid)
    return float(np.trapezoid(np.minimum(fm, fp), grid))


def uses_binned_densities(pair, window=None):
    if window is None:
        window = risk._pair_window(pair.f_minus, pair.f_plus)
    grid = np.linspace(window[0], window[1], DEFAULT_GRID_POINTS)
    return all(
        binned_density_on_grid(f, grid) is not None
        for f in (pair.f_minus, pair.f_plus)
    )


class TestBinnedOverlap:
    """overlap_integral with binned densities against the direct oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(300, 3000),
        st.integers(300, 3000),
        st.floats(0.0, 4.0),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_direct(self, n_minus, n_plus, distance, rescaled, seed):
        rng = np.random.default_rng(seed)
        minus = rng.normal(size=n_minus)
        plus = rng.normal(loc=distance, size=n_plus)
        pair = projected_pair(minus, plus)
        window = None
        if rescaled:
            pair = rescaled_pair(
                minus, plus, pair.f_minus.bandwidth, pair.f_plus.bandwidth, 5.0
            )
            window = (0.0, 1.0)
        assert uses_binned_densities(pair, window)
        expected = direct_overlap(pair, window)
        assert abs(overlap_integral(pair, window=window) - expected) <= 1e-13

    @pytest.mark.parametrize("bridge", [False, True])
    def test_small_overlap_is_direct_bit_for_bit(self, bridge, rng):
        # Without a bridge the center distances bound the overlap below 1e-3
        # up front; one plus point near the minus cloud voids that bound, so
        # the binned overlap is computed and then replaced.
        minus = rng.normal(size=800)
        plus = rng.normal(loc=11.0, size=800)
        if bridge:
            plus = np.concatenate([plus, [minus.max() + 0.8]])
        pair = projected_pair(minus, plus)
        width = np.subtract(*risk._pair_window(pair.f_minus, pair.f_plus)[::-1])
        bound = width * min_density_bound(pair.f_minus, pair.f_plus)
        assert (bound >= 1e-3) == bridge
        assert uses_binned_densities(pair)
        expected = direct_overlap(pair)
        assert expected < 1e-3
        assert overlap_integral(pair) == expected


@st.composite
def direct_path_pairs(draw):
    """Projected pairs whose overlap the direct path computes: clusters more
    than 40 bandwidths apart with the classes separated, or the four-line set
    on a random direction, whose lines interleave the classes; on the default
    window or rescaled to (0, 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = draw(st.sampled_from([None, 0.02, 1e-3, 1e-5]))
    if draw(st.booleans()):
        unit = sigma or 1.0
        minus = clusters(rng, unit, draw(st.integers(1, 3)))
        plus = clusters(rng, unit, draw(st.integers(1, 3)))
        plus += minus.max() - plus.min() + unit * rng.uniform(40.0, 400.0)
    else:
        data = generate(DatasetSpec("four-line", draw(st.integers(0, 1000)), draw(st.integers(2, 150))))
        minus, plus = project(data, UnitDirection.from_angle(rng.uniform(0.0, math.pi)))
    pair = projected_pair(minus, plus, sigma, sigma)
    if not draw(st.booleans()):
        return pair, risk._pair_window(pair.f_minus, pair.f_plus)
    pair = rescaled_pair(minus, plus, pair.f_minus.bandwidth, pair.f_plus.bandwidth, 5.0)
    return pair, (0.0, 1.0)


class TestDirectOverlap:
    """The direct overlap evaluates each density only where it can be the
    smaller, and returns the trapezoid sum of the elementwise minimum of the
    two oracle densities bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(direct_path_pairs())
    def test_equals_the_oracle_minimum(self, drawn):
        pair, window = drawn
        grid = np.linspace(window[0], window[1], DEFAULT_GRID_POINTS)
        expected = np.trapezoid(
            np.minimum(grid_density_oracle(pair.f_minus, grid), grid_density_oracle(pair.f_plus, grid)),
            grid,
        )
        with pytest.MonkeyPatch.context() as patch:
            # Without binned densities every pair takes the direct path.
            patch.setattr(risk, "binned_density_on_grid", lambda f, grid: None)
            assert overlap_integral(pair, window=window) == expected

    def test_evaluates_few_nodes(self, monkeypatch):
        # Four-line at sigma 0.02: the classes meet on a few narrow bands.
        data = generate(DatasetSpec("four-line", 901, 500))
        pair = projected_pair(*project(data, UnitDirection.from_angle(0.3)), 0.02, 0.02)
        grid = np.linspace(*risk._pair_window(pair.f_minus, pair.f_plus), DEFAULT_GRID_POINTS)
        expected = np.minimum(grid_density_oracle(pair.f_minus, grid), grid_density_oracle(pair.f_plus, grid))
        nodes = []

        def recording(f, x):
            nodes.append(x.size)
            return eval_on_sorted_grid(f, x)

        monkeypatch.setattr(kde, "eval_on_sorted_grid", recording)
        np.testing.assert_array_equal(kde._grid_minimum(pair.f_minus, pair.f_plus, grid), expected)
        assert np.count_nonzero(expected) > 0
        assert len(nodes) == 2 and sum(nodes) < 0.25 * grid.size


def direct_grid_signs(pair, grid):
    """The all-direct threshold scan: the sign of ln f_plus - ln f_minus from
    the band evaluator at every node."""
    return risk._signs(*(kde._LogBand(f, grid, grid)(grid) for f in (pair.f_plus, pair.f_minus)))


def kde_eval_bisection(pair, lo, hi, positive_left):
    """Joint bisection with the untruncated kde_eval at every midpoint.

    Returns the roots and, per bracket, whether kde_eval's densities ever fell
    below the smallest normal float at one of its midpoints."""
    underflowed = np.zeros(lo.shape, dtype=bool)
    for _ in range(200):
        if not np.any(hi - lo > risk.DEFAULT_REFINE_TOL):
            break
        mid = 0.5 * (lo + hi)
        plus, minus = kde_eval(pair.f_plus, mid), kde_eval(pair.f_minus, mid)
        underflowed |= np.minimum(plus, minus) < np.finfo(float).tiny
        go_right = (plus - minus > 0) == positive_left
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi), underflowed


def all_direct_model(pair, grid_points=DEFAULT_GRID_POINTS):
    """Thresholds and leftmost sign from the all-direct scan and bisection on
    the band evaluator."""
    window = risk._pair_window(pair.f_minus, pair.f_plus)
    grid = np.linspace(window[0], window[1], grid_points)
    signs = direct_grid_signs(pair, grid)
    nonzero = np.flatnonzero(signs != 0)
    if nonzero.size == 0:
        return np.empty(0), 1
    lo, hi, positive, exact = [], [], [], []
    for left, right in zip(nonzero[:-1], nonzero[1:]):
        if signs[left] == signs[right]:
            continue
        if right - left > 1:
            exact.append(0.5 * (grid[left] + grid[right]))
        else:
            lo.append(grid[left])
            hi.append(grid[right])
            positive.append(signs[left] > 0)
    roots = []
    if lo:
        roots = risk._bisect_roots(pair, np.array(lo), np.array(hi), np.array(positive)).tolist()
    return np.sort(np.asarray(roots + exact)), int(signs[nonzero[0]])


def log_density_oracle(f, x):
    """ln f at every x over all centers, untruncated: log-sum-exp in long
    double."""
    centers = np.asarray(f.centers, dtype=np.longdouble)
    sigma = np.longdouble(f.bandwidth)
    exponents = -np.square(centers - np.asarray(x, dtype=np.longdouble)[:, None]) / (2 * sigma * sigma)
    top = exponents.max(axis=1)
    two_pi = 2 * np.arccos(np.longdouble(-1.0))
    log_norm = np.log(centers.size * sigma * np.sqrt(two_pi))
    return top + np.log(np.exp(exponents - top[:, None]).sum(axis=1)) - log_norm


@st.composite
def threshold_pairs(draw):
    """Projected pairs of every kind the scan meets: wide and narrow
    bandwidths, duplicated and separated centers, identical mixtures, and one
    density binned while the other is not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["clouds", "duplicated", "identical", "mixed", "interleaved"]))
    n_minus, n_plus = draw(st.integers(2, 1500)), draw(st.integers(2, 1500))
    distance = draw(st.sampled_from([0.0, 0.5, 2.0, 6.0, 40.0]))
    minus = rng.normal(size=n_minus)
    plus = rng.normal(loc=distance, size=n_plus)
    if kind == "duplicated":
        minus = np.round(minus, 1)
        plus = np.repeat(plus[: max(1, n_plus // 3)], 3)
    elif kind == "interleaved":
        plus = np.concatenate([minus[: n_plus // 2] + 0.05, plus])
    sigma_minus = draw(st.sampled_from([None, 0.3, 0.02, 1e-3, 1e-5]))
    sigma_plus = sigma_minus if kind != "mixed" else draw(st.sampled_from([None, 0.3, 1e-3]))
    if kind == "identical":
        plus, sigma_plus = minus.copy(), sigma_minus
    try:
        return projected_pair(minus, plus, sigma_minus, sigma_plus)
    except DegenerateBandwidthError:  # a few equal points have no Silverman spread
        return projected_pair(minus, plus, 0.3, 0.3)


class TestCertifiedThresholdScan:
    """The threshold scan reads signs from binned densities only where they
    are certain; the rule it returns is the all-direct scan's, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(threshold_pairs(), st.sampled_from([DEFAULT_GRID_POINTS, 1024]))
    def test_signs_equal_the_direct_scan(self, pair, grid_points):
        window = risk._pair_window(pair.f_minus, pair.f_plus)
        grid = np.linspace(window[0], window[1], grid_points)
        np.testing.assert_array_equal(risk._grid_signs(pair, grid), direct_grid_signs(pair, grid))

    @settings(max_examples=40, deadline=None)
    @given(threshold_pairs())
    def test_model_equals_the_all_direct_model(self, pair):
        model = build_multithreshold_model(pair, X_AXIS)
        thresholds, leftmost = all_direct_model(pair)
        assert model.leftmost_sign == leftmost
        np.testing.assert_array_equal(model.thresholds, thresholds)

    @pytest.mark.parametrize("sigma", [None, 0.3, 1e-3])
    def test_few_nodes_are_evaluated_directly(self, sigma, rng, monkeypatch):
        pair = projected_pair(rng.normal(size=2000), rng.normal(loc=2.0, size=2000), sigma, sigma)
        window = risk._pair_window(pair.f_minus, pair.f_plus)
        grid = np.linspace(window[0], window[1], DEFAULT_GRID_POINTS)
        nodes = []

        class Recording(kde._LogBand):
            def __call__(self, x):
                nodes.append(x.size)
                return super().__call__(x)

        monkeypatch.setattr(risk, "_LogBand", Recording)
        risk._grid_signs(pair, grid)
        binned = sigma != 1e-3  # at 1e-3 the kernels are narrower than the grid step
        assert uses_binned_densities(pair) == binned
        if binned:
            assert max(nodes) < 0.2 * grid.size
        else:
            assert nodes == [grid.size, grid.size]

    def test_sorts_each_density_once(self, rng, monkeypatch):
        pair = projected_pair(rng.normal(size=2000), rng.normal(loc=2.0, size=1500))
        sorted_sizes = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def sort(a, *args, **kwargs):
                sorted_sizes.append(np.size(a))
                return np.sort(a, *args, **kwargs)

        monkeypatch.setattr(kde, "np", RecordingNumpy())
        model = build_multithreshold_model(pair, X_AXIS)
        assert model.thresholds.size >= 1
        assert sorted(sorted_sizes) == [1500, 2000]

    def test_margin_covers_far_offsets(self, rng):
        # Far from the origin the nodes' rounding dominates the binned error.
        for offset in (0.0, 1e4, 1e6):
            pair = projected_pair(
                rng.normal(loc=offset, size=3000), rng.normal(loc=offset + 0.5, size=3000), 0.2, 0.2
            )
            window = risk._pair_window(pair.f_minus, pair.f_plus)
            grid = np.linspace(window[0], window[1], DEFAULT_GRID_POINTS)
            assert uses_binned_densities(pair)
            np.testing.assert_array_equal(
                risk._grid_signs(pair, grid), direct_grid_signs(pair, grid)
            )


class TestThresholdCount:
    @pytest.mark.parametrize("sigma", [1e-3, 1e-5])
    def test_at_most_the_label_changes_of_the_sorted_centers(self, sigma):
        # With one shared bandwidth the Gaussian kernel is variation
        # diminishing (Schoenberg 1950; Karlin 1968): f_plus - f_minus changes
        # sign at most as often as the labels of the sorted centers do.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            minus = rng.normal(size=rng.integers(2, 801))
            plus = rng.normal(loc=rng.uniform(0.0, 2.0), size=rng.integers(2, 801))
            labels = np.concatenate([-np.ones(minus.size), np.ones(plus.size)])
            labels = labels[np.argsort(np.concatenate([minus, plus]))]
            changes = np.count_nonzero(labels[1:] != labels[:-1])
            model = build_multithreshold_model(projected_pair(minus, plus, sigma, sigma), X_AXIS)
            assert model.thresholds.size <= changes, seed


class TestWindowedBisection:
    """Bisection on per-bracket center windows returns kde_eval bisection's
    thresholds bit for bit wherever kde_eval's densities do not underflow,
    and sign changes of the untruncated log densities everywhere."""

    @staticmethod
    def brackets(pair):
        window = risk._pair_window(pair.f_minus, pair.f_plus)
        grid = np.linspace(window[0], window[1], DEFAULT_GRID_POINTS)
        signs = direct_grid_signs(pair, grid)
        left = np.flatnonzero((signs[:-1] * signs[1:]) < 0)
        return grid[left], grid[left + 1], signs[left] > 0

    @pytest.mark.parametrize(
        "sigma, n, distance",
        [(None, 2000, 2.0), (0.3, 500, 1.0), (0.02, 1000, 0.5), (1e-3, 4000, 2.0), (1e-5, 1000, 1.0)],
    )
    def test_thresholds_equal_kde_eval_bisection(self, sigma, n, distance, rng):
        # At sigma 1e-5 some brackets meet midpoints where kde_eval underflows;
        # there its bisection follows rounding, not f_plus - f_minus, and the
        # roots need only be sign changes of the log oracle.
        pair = projected_pair(rng.normal(size=n), rng.normal(loc=distance, size=n), sigma, sigma)
        lo, hi, positive = self.brackets(pair)
        assert lo.size >= 1
        expected, underflowed = kde_eval_bisection(pair, lo, hi, positive)
        assert underflowed.any() == (sigma == 1e-5)
        roots = risk._bisect_roots(pair, lo, hi, positive)
        np.testing.assert_array_equal(roots[~underflowed], expected[~underflowed])
        sides = [
            np.sign(log_density_oracle(pair.f_plus, x) - log_density_oracle(pair.f_minus, x))
            for x in (roots[underflowed] - risk.DEFAULT_REFINE_TOL, roots[underflowed] + risk.DEFAULT_REFINE_TOL)
        ]
        assert np.all(sides[0] * sides[1] == -1)

    def test_underflowing_tails_keep_kde_eval_signs(self, rng):
        # At sigma 1e-5 the grid step is hundreds of bandwidths: midpoints
        # far from every center underflow to exactly 0 in kde_eval. Where
        # both of kde_eval's densities are normal floats the band evaluator
        # keeps kde_eval's sign; where both are 0 it takes the log oracle's.
        pair = projected_pair(rng.normal(size=300), rng.normal(loc=1.0, size=300), 1e-5, 1e-5)
        lo, hi, _ = self.brackets(pair)
        mid = 0.5 * (lo + hi)
        plus, minus = kde_eval(pair.f_plus, mid), kde_eval(pair.f_minus, mid)
        signs = risk._signs(*(kde._LogBand(f, lo, hi)(mid) for f in (pair.f_plus, pair.f_minus)))
        normal = np.minimum(plus, minus) >= np.finfo(float).tiny
        zero = (plus == 0) & (minus == 0)
        assert np.any(normal) and np.any(zero)
        np.testing.assert_array_equal(signs[normal], np.sign(plus - minus)[normal])
        oracle = np.sign(
            log_density_oracle(pair.f_plus, mid[zero]) - log_density_oracle(pair.f_minus, mid[zero])
        )
        assert np.all(oracle != 0)
        np.testing.assert_array_equal(signs[zero], oracle)

    def test_thresholds_are_sign_changes_of_the_log_oracle(self, rng):
        # At sigma 1e-5 the grid step is hundreds of bandwidths, and kde_eval
        # underflows to 0 at some thresholds; each threshold still separates
        # two signs of ln f_plus - ln f_minus, untruncated in long double.
        pair = projected_pair(rng.normal(size=300), rng.normal(loc=1.0, size=300), 1e-5, 1e-5)
        thresholds = build_multithreshold_model(pair, X_AXIS).thresholds
        assert np.any((kde_eval(pair.f_plus, thresholds) == 0) & (kde_eval(pair.f_minus, thresholds) == 0))
        sides = [
            np.sign(log_density_oracle(pair.f_plus, x) - log_density_oracle(pair.f_minus, x))
            for x in (thresholds - risk.DEFAULT_REFINE_TOL, thresholds + risk.DEFAULT_REFINE_TOL)
        ]
        assert np.all(sides[0] * sides[1] == -1)

    def test_exact_ties_at_a_midpoint(self):
        # Mirror-image classes tie exactly at 0, the first midpoint of
        # [-1, 1]: kde_eval's difference is 0 there, while the windowed sums
        # add the same terms in the opposite order and may differ in the last
        # bit (seeds 10 and 18 among these).
        lo, hi = np.array([-1.0]), np.array([1.0])
        for seed in range(20):
            centers = np.random.default_rng(seed).uniform(0.2, 1.5, size=7)
            pair = ProjectedPair(Kde1d(-centers, 0.6), Kde1d(centers, 0.6))
            assert kde_eval(pair.f_plus, 0.0) == kde_eval(pair.f_minus, 0.0)
            positive = kde_eval(pair.f_plus, lo) > kde_eval(pair.f_minus, lo)
            np.testing.assert_array_equal(
                risk._bisect_roots(pair, lo, hi, positive),
                kde_eval_bisection(pair, lo, hi, positive)[0],
            )

    def test_exp_never_sees_an_underflowing_exponent(self, rng, monkeypatch):
        pair = projected_pair(rng.normal(size=3000), rng.normal(loc=2.0, size=3000), 1e-3, 1e-3)
        lo, hi, positive = self.brackets(pair)
        smallest = []
        real_exp = np.exp

        def exp(x, *args, **kwargs):
            smallest.append(float(np.min(x)))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(kde.np, "exp", exp)
        monkeypatch.setattr(kde, "kde_eval", lambda f, x: pytest.fail("kde_eval called"))
        risk._bisect_roots(pair, lo, hi, positive)
        assert smallest and min(smallest) >= -700.0


class TestSharedPairGrid:
    """A pair evaluates each density on its pair grid at most once: ``cip``,
    the default overlap quadrature and the threshold scan read the same
    binned values, and every result keeps a fresh pair's bits."""

    @staticmethod
    def recording(monkeypatch):
        """The (density, node count) of every binned density computed."""
        computed = []
        binned = kde._binned_density

        def recording(f, grid):
            computed.append((f, grid.size))
            return binned(f, grid)

        monkeypatch.setattr(kde, "_binned_density", recording)
        return computed

    def test_any_order_gives_a_fresh_pairs_bits(self, rng, monkeypatch):
        minus, plus = rng.normal(size=1000), rng.normal(loc=1.0, size=800)

        def fresh():
            return projected_pair(minus, plus)

        potential, overlap = cip(fresh()), overlap_integral(fresh())
        model = build_multithreshold_model(fresh(), X_AXIS)
        assert potential == cross_integral(fresh().f_minus, fresh().f_plus)
        computed = self.recording(monkeypatch)

        forward = fresh()
        assert cip(forward) == potential
        assert len(computed) == 2  # both densities, on the pair grid
        assert overlap_integral(forward) == overlap
        forward_model = build_multithreshold_model(forward, X_AXIS)
        assert len(computed) == 2

        reverse = fresh()
        reverse_model = build_multithreshold_model(reverse, X_AXIS)
        assert overlap_integral(reverse) == overlap
        assert cip(reverse) == potential
        assert len(computed) == 4
        assert [size for _, size in computed] == [DEFAULT_GRID_POINTS] * 4
        for got in (forward_model, reverse_model):
            assert got.leftmost_sign == model.leftmost_sign
            np.testing.assert_array_equal(got.thresholds, model.thresholds)

    def test_other_grids_share_nothing(self, rng, monkeypatch):
        minus, plus = rng.normal(size=1000), rng.normal(loc=1.0, size=800)
        window = (-6.0, 7.0)

        def fresh():
            return projected_pair(minus, plus)

        def rescaled():
            return rescaled_pair(minus, plus, None, None, 5.0)

        coarse = overlap_integral(fresh(), 2048)
        fixed = overlap_integral(fresh(), window=window)
        check = bound_check(rescaled())
        computed = self.recording(monkeypatch)
        pair = fresh()
        cip(pair)
        assert len(computed) == 2
        assert overlap_integral(pair, 2048) == coarse
        assert [size for _, size in computed[2:]] == [2048, 2048]
        assert overlap_integral(pair, window=window) == fixed
        assert len(computed) == 6
        # The overlap on [0, 1] and the potential on the pair grid.
        assert bound_check(rescaled()) == check
        assert len(computed) == 10
