import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melc import risk
from melc.geometry import LabeledDataset, UnitDirection, project
from melc.kde import (
    Kde1d,
    binned_density_on_grid,
    eval_on_sorted_grid,
    kde_eval,
    min_density_bound,
    silverman_bandwidth,
)
from melc.objectives import ProjectedPair, projected_pair, rescaled_pair
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

    def test_applied_map_is_used(self):
        mapping_model = MultithresholdModel(
            direction=X_AXIS,
            thresholds=np.array([0.5]),
            leftmost_sign=-1,
            applied_map=None,
        )
        from melc.geometry import AffineMap1d

        shifted = MultithresholdModel(
            direction=X_AXIS,
            thresholds=np.array([0.5]),
            leftmost_sign=-1,
            applied_map=AffineMap1d(scale=0.1, offset=0.0),
        )
        x = np.array([3.0, 0.0])
        assert classify(mapping_model, x) == 1  # 3.0 beyond 0.5
        assert classify(shifted, x) == -1  # rescaled to 0.3, below 0.5

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
        window = risk._pair_window(pair)
    grid = np.linspace(window[0], window[1], DEFAULT_GRID_POINTS)
    fm = eval_on_sorted_grid(pair.f_minus, grid)
    fp = eval_on_sorted_grid(pair.f_plus, grid)
    return float(np.trapezoid(np.minimum(fm, fp), grid))


def uses_binned_densities(pair, window=None):
    if window is None:
        window = risk._pair_window(pair)
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
        width = np.subtract(*risk._pair_window(pair)[::-1])
        bound = width * min_density_bound(pair.f_minus, pair.f_plus)
        assert (bound >= 1e-3) == bridge
        assert uses_binned_densities(pair)
        expected = direct_overlap(pair)
        assert expected < 1e-3
        assert overlap_integral(pair) == expected
