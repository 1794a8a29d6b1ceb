import math

import numpy as np
import pytest

from melc.geometry import UnitDirection
from melc.kde import Kde1d, silverman_bandwidth
from melc.objectives import (
    GaussianSpec,
    ProjectedPair,
    best_bias_hinge,
    cauchy_schwarz_divergence,
    cip,
    gaussian_cip_closed_form,
    projected_pair,
    renyi_cross_entropy,
    renyi_entropy,
    rescaled_pair,
)


def hinge_loss(margin_products) -> float:
    """Mean of max(0, 1 - p) over products p = prediction * label."""
    products = np.asarray(margin_products, dtype=np.float64)
    if products.size == 0:
        raise ValueError("hinge loss of an empty sample is undefined")
    return float(np.mean(np.maximum(0.0, 1.0 - products)))


def single_center_pair(distance, sigma=1.0):
    return ProjectedPair(Kde1d([0.0], sigma), Kde1d([distance], sigma))


class TestCip:
    def test_identical_single_center(self):
        assert cip(single_center_pair(0.0)) == pytest.approx(
            1 / math.sqrt(4 * math.pi), rel=1e-14
        )

    def test_unit_distance(self):
        expected = math.exp(-0.25) / math.sqrt(4 * math.pi)
        assert cip(single_center_pair(1.0)) == pytest.approx(expected, rel=1e-14)

    def test_far_separation_vanishes(self):
        assert cip(single_center_pair(50.0)) < 1e-12


class TestRenyiCrossEntropy:
    def test_value_at_coincident_centers(self):
        assert renyi_cross_entropy(single_center_pair(0.0)) == pytest.approx(
            1.2655121234846454, rel=1e-12
        )

    def test_zero_when_cip_is_one(self):
        # A pair engineered so the potential is exactly 1: shrink both
        # bandwidths so phi(0; 2 s^2) = 1 requires 2 pi (2 s^2) = 1.
        sigma = math.sqrt(1.0 / (4.0 * math.pi))
        pair = single_center_pair(0.0, sigma=sigma)
        assert cip(pair) == pytest.approx(1.0, rel=1e-14)
        assert renyi_cross_entropy(pair) == pytest.approx(0.0, abs=1e-13)

    def test_monotone_in_cip(self):
        pairs = [single_center_pair(d) for d in (0.0, 0.5, 1.5)]
        potentials = [cip(p) for p in pairs]
        entropies = [renyi_cross_entropy(p) for p in pairs]
        assert potentials == sorted(potentials, reverse=True)
        assert entropies == sorted(entropies)


class TestRenyiEntropy:
    def test_single_center_value(self):
        assert renyi_entropy(Kde1d([0.0], 1.0)) == pytest.approx(
            1.2655121234846454, rel=1e-12
        )

    def test_doubling_bandwidth_adds_ln2(self):
        f1 = Kde1d([3.0], 0.7)
        f2 = Kde1d([3.0], 1.4)
        assert renyi_entropy(f2) - renyi_entropy(f1) == pytest.approx(
            math.log(2), rel=1e-12
        )

    def test_translation_invariance(self, rng):
        centers = rng.normal(size=6)
        f = Kde1d(centers, 0.5)
        g = Kde1d(centers + 13.7, 0.5)
        assert renyi_entropy(f) == pytest.approx(renyi_entropy(g), rel=1e-12)


class TestCauchySchwarzDivergence:
    def test_identical_densities_zero(self, rng):
        centers = rng.normal(size=5)
        pair = ProjectedPair(Kde1d(centers, 0.4), Kde1d(centers.copy(), 0.4))
        assert cauchy_schwarz_divergence(pair) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(30):
            f = Kde1d(rng.normal(scale=2, size=rng.integers(1, 8)), rng.uniform(0.1, 1))
            g = Kde1d(rng.normal(scale=2, size=rng.integers(1, 8)), rng.uniform(0.1, 1))
            assert cauchy_schwarz_divergence(ProjectedPair(f, g)) >= -1e-12

    def test_perturbation_is_positive(self, rng):
        centers = rng.normal(size=5)
        pair = ProjectedPair(Kde1d(centers, 0.4), Kde1d(centers + 0.3, 0.4))
        assert cauchy_schwarz_divergence(pair) > 1e-4

    def test_grows_with_separation(self):
        values = [
            cauchy_schwarz_divergence(single_center_pair(d)) for d in (1.0, 5.0, 10.0)
        ]
        assert values[0] < values[1] < values[2]


class TestGaussianCipClosedForm:
    def test_coincident_means(self):
        g = GaussianSpec(np.array([1.0, 2.0]), 1.0)
        v = UnitDirection.from_angle(0.7)
        assert gaussian_cip_closed_form(g, g, v) == pytest.approx(
            1 / math.sqrt(4 * math.pi), rel=1e-14
        )

    def test_axis_aligned_unit_shift(self):
        g_minus = GaussianSpec(np.array([0.0, 0.0]), 1.0)
        g_plus = GaussianSpec(np.array([1.0, 0.0]), 1.0)
        v = UnitDirection.from_angle(0.0)
        expected = math.exp(-0.25) / math.sqrt(4 * math.pi)
        assert gaussian_cip_closed_form(g_minus, g_plus, v) == pytest.approx(
            expected, rel=1e-14
        )

    def test_minimizer_aligns_with_mean_difference(self):
        g_minus = GaussianSpec(np.array([0.5, -0.3]), 0.8)
        g_plus = GaussianSpec(np.array([2.0, 1.1]), 1.3)
        angles = np.linspace(0, math.pi, 720, endpoint=False)
        values = [
            gaussian_cip_closed_form(g_minus, g_plus, UnitDirection.from_angle(a))
            for a in angles
        ]
        best = UnitDirection.from_angle(angles[int(np.argmin(values))])
        target = UnitDirection.from_vector(g_plus.mean - g_minus.mean)
        assert abs(best.components @ target.components) >= math.cos(math.pi / 720)

    def test_matches_sampled_kde_potential(self):
        # Monte Carlo: project a large sample of each Gaussian and compare the
        # Silverman-KDE potential with the closed form.
        rng = np.random.default_rng(7)
        g_minus = GaussianSpec(np.array([0.0, 0.0]), 1.0)
        g_plus = GaussianSpec(np.array([1.2, 0.4]), 0.9)
        v = UnitDirection.from_vector([2.0, 1.0])
        m = 5000
        minus = rng.standard_normal((m, 2)) * g_minus.sigma + g_minus.mean
        plus = rng.standard_normal((m, 2)) * g_plus.sigma + g_plus.mean
        sampled = cip(
            projected_pair(minus @ v.components, plus @ v.components)
        )
        closed = gaussian_cip_closed_form(g_minus, g_plus, v)
        assert sampled == pytest.approx(closed, rel=0.10)

    def test_dimension_mismatch(self):
        g2 = GaussianSpec(np.array([0.0, 0.0]), 1.0)
        g3 = GaussianSpec(np.array([0.0, 0.0, 0.0]), 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            gaussian_cip_closed_form(g2, g3, UnitDirection.from_angle(0.0))


class TestHingeLoss:
    def test_beyond_margin(self):
        assert hinge_loss([2.0]) == 0.0

    def test_inside_margin(self):
        assert hinge_loss([0.5]) == pytest.approx(0.5)

    def test_wrong_side(self):
        assert hinge_loss([-1.0]) == pytest.approx(2.0)

    def test_mean_of_mixed(self):
        assert hinge_loss([2.0, 0.5, -1.0]) == pytest.approx((0.0 + 0.5 + 2.0) / 3)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            hinge_loss([])

    def test_upper_bounds_zero_one_rate(self, rng):
        for _ in range(30):
            products = rng.normal(size=50)
            rate = float(np.mean(products <= 0))
            assert rate <= hinge_loss(products) + 1e-12


def brute_force_hinge_bias(minus, plus, step=1e-3, pad=2.0):
    scalars = np.concatenate([minus, plus])
    grid = np.arange(scalars.min() - pad, scalars.max() + pad + step, step)
    losses = []
    for b in grid:
        scores = np.concatenate([-(minus - b), plus - b])  # y * (x - b)
        losses.append(float(np.mean(np.maximum(0.0, 1.0 - scores))))
    losses = np.asarray(losses)
    return losses.min()


class TestBestBiasHinge:
    def test_separated_by_full_margin(self):
        bias, loss = best_bias_hinge(np.array([-2.0]), np.array([2.0]))
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert bias == pytest.approx(-1.0)  # tie broken toward the smaller b

    def test_coincident_classes(self):
        bias, loss = best_bias_hinge(np.array([0.0]), np.array([0.0]))
        assert loss == pytest.approx(1.0)
        assert bias == pytest.approx(-1.0)

    def test_matches_grid_oracle(self, rng):
        for _ in range(10):
            minus = rng.normal(size=rng.integers(1, 9))
            plus = rng.normal(size=rng.integers(1, 9)) + rng.uniform(-1, 2)
            _, loss = best_bias_hinge(minus, plus)
            oracle = brute_force_hinge_bias(minus, plus)
            # The grid can only overshoot the exact optimum.
            assert loss <= oracle + 1e-9
            assert loss == pytest.approx(oracle, abs=1e-3)

    def test_zero_loss_implies_zero_errors(self, rng):
        minus = rng.normal(size=20) - 4.0
        plus = rng.normal(size=20) + 4.0
        bias, loss = best_bias_hinge(minus, plus)
        assert loss == 0.0
        scores = np.concatenate([-(minus - bias), plus - bias])
        assert np.all(scores > 0)

    def test_empty_class_errors(self):
        with pytest.raises(ValueError):
            best_bias_hinge(np.array([]), np.array([1.0]))


class TestRescaledPair:
    def test_centers_land_in_unit_interval(self, rng):
        minus = rng.normal(size=8)
        plus = rng.normal(size=5) + 2
        pair = rescaled_pair(minus, plus, 0.4, 0.6, 5.0)
        centers = np.concatenate([pair.f_minus.centers, pair.f_plus.centers])
        assert centers.min() >= 0.0 and centers.max() <= 1.0
        assert pair.applied_map is not None
        assert pair.f_minus.bandwidth == pytest.approx(0.4 * pair.applied_map.scale)

    def test_silverman_defaults_in_projected_pair(self, rng):
        minus = rng.normal(size=30)
        plus = rng.normal(size=40)
        pair = projected_pair(minus, plus)
        assert pair.f_minus.bandwidth == pytest.approx(silverman_bandwidth(minus))
        assert pair.f_plus.bandwidth == pytest.approx(silverman_bandwidth(plus))
        # rescaled_pair reads None the same way.
        sigmas = silverman_bandwidth(minus), silverman_bandwidth(plus)
        default = rescaled_pair(minus, plus, None, None, 5.0)
        explicit = rescaled_pair(minus, plus, *sigmas, 5.0)
        assert default.applied_map == explicit.applied_map
        for side in ("f_minus", "f_plus"):
            got, want = getattr(default, side), getattr(explicit, side)
            assert got.bandwidth == want.bandwidth
            np.testing.assert_array_equal(got.centers, want.centers)
