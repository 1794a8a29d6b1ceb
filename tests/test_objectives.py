import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import gaussian_cip_closed_form, tied_classes
from melc.geometry import UnitDirection
from melc.kde import Kde1d, kde_eval, silverman_bandwidth
from melc.objectives import (
    ProjectedPair,
    best_bias_hinge,
    cip,
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


def cauchy_schwarz_divergence(pair):
    """2 h2x - H(f_minus) - H(f_plus), the dcs column of ``sweep``."""
    return (
        2.0 * renyi_cross_entropy(pair)
        - renyi_entropy(pair.f_minus)
        - renyi_entropy(pair.f_plus)
    )


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
        v = UnitDirection.from_angle(0.7)
        assert gaussian_cip_closed_form([1.0, 2.0], 1.0, [1.0, 2.0], 1.0, v) == pytest.approx(
            1 / math.sqrt(4 * math.pi), rel=1e-14
        )

    def test_axis_aligned_unit_shift(self):
        v = UnitDirection.from_angle(0.0)
        expected = math.exp(-0.25) / math.sqrt(4 * math.pi)
        assert gaussian_cip_closed_form([0.0, 0.0], 1.0, [1.0, 0.0], 1.0, v) == pytest.approx(
            expected, rel=1e-14
        )

    def test_minimizer_aligns_with_mean_difference(self):
        m_minus, m_plus = np.array([0.5, -0.3]), np.array([2.0, 1.1])
        angles = np.linspace(0, math.pi, 720, endpoint=False)
        values = [
            gaussian_cip_closed_form(m_minus, 0.8, m_plus, 1.3, UnitDirection.from_angle(a))
            for a in angles
        ]
        best = UnitDirection.from_angle(angles[int(np.argmin(values))])
        target = UnitDirection.from_vector(m_plus - m_minus)
        assert abs(best.components @ target.components) >= math.cos(math.pi / 720)

    def test_matches_sampled_kde_potential(self):
        # Monte Carlo: project a large sample of each Gaussian and compare the
        # Silverman-KDE potential with the closed form.
        rng = np.random.default_rng(7)
        m_minus, s_minus = np.array([0.0, 0.0]), 1.0
        m_plus, s_plus = np.array([1.2, 0.4]), 0.9
        v = UnitDirection.from_vector([2.0, 1.0])
        m = 5000
        minus = rng.standard_normal((m, 2)) * s_minus + m_minus
        plus = rng.standard_normal((m, 2)) * s_plus + m_plus
        sampled = cip(
            projected_pair(minus @ v.components, plus @ v.components)
        )
        closed = gaussian_cip_closed_form(m_minus, s_minus, m_plus, s_plus, v)
        assert sampled == pytest.approx(closed, rel=0.10)


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


def hinge_scan_oracle(minus, plus):
    """``best_bias_hinge`` by one ``searchsorted`` per candidate and kink
    set: the loss at every distinct x - 1 and x + 1 from sorted kinks and
    their prefix sums."""
    minus = np.asarray(minus, dtype=np.float64)
    plus = np.asarray(plus, dtype=np.float64)
    points = np.concatenate([minus, plus])
    candidates = np.unique(np.concatenate([points - 1.0, points + 1.0]))
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


class TestHingeScanMatchesOracle:
    """The merge-based scan gives the per-candidate search's bits."""

    @settings(max_examples=300, deadline=None)
    @given(tied_classes())
    def test_tied_data(self, classes):
        minus, plus = classes
        got, want = best_bias_hinge(minus, plus), hinge_scan_oracle(minus, plus)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_projections(self, rng):
        for _ in range(50):
            minus = rng.normal(size=int(rng.integers(1, 2000)))
            plus = rng.normal(loc=rng.uniform(-2.0, 2.0), size=int(rng.integers(1, 2000)))
            got, want = best_bias_hinge(minus, plus), hinge_scan_oracle(minus, plus)
            assert np.array(got).tobytes() == np.array(want).tobytes()


class TestRescaledPair:
    def test_centers_land_in_unit_interval(self, rng):
        minus = rng.normal(size=8)
        plus = rng.normal(size=5) + 2
        pair = rescaled_pair(minus, plus, 0.4, 0.6, 5.0)
        centers = np.concatenate([pair.f_minus.centers, pair.f_plus.centers])
        assert centers.min() >= 0.0 and centers.max() <= 1.0
        # One scale for both densities keeps the bandwidth ratio.
        assert pair.f_minus.bandwidth / pair.f_plus.bandwidth == pytest.approx(0.4 / 0.6)

    def test_random_centers_land_in_unit_interval(self, rng):
        for _ in range(50):
            minus = rng.normal(scale=5.0, size=rng.integers(1, 6))
            plus = rng.normal(scale=5.0, size=rng.integers(1, 6))
            sm, sp = rng.uniform(0.01, 2.0, size=2)
            pair = rescaled_pair(minus, plus, sm, sp, rng.uniform(0.5, 6.0))
            centers = np.concatenate([pair.f_minus.centers, pair.f_plus.centers])
            assert centers.min() >= 0.0 - 1e-12
            assert centers.max() <= 1.0 + 1e-12

    def test_worked_example(self):
        pair = rescaled_pair([-1.0], [3.0], 0.5, 0.25, 3.0)
        # The buffered interval is [-2.5, 4.5], so x maps to (x + 2.5) / 7.
        assert pair.f_minus.centers[0] == pytest.approx(3 / 14)
        assert pair.f_plus.centers[0] == pytest.approx(11 / 14)
        assert pair.f_minus.bandwidth == pytest.approx(0.5 / 7)
        assert pair.f_plus.bandwidth == pytest.approx(0.25 / 7)

    @pytest.mark.parametrize("tail_k", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_tail_k(self, tail_k):
        with pytest.raises(ValueError, match="tail_k"):
            rescaled_pair([0.0], [1.0], 0.5, 0.5, tail_k)

    def test_cross_integral_scales_with_the_axis(self, rng):
        for _ in range(20):
            minus = rng.normal(scale=3.0, size=rng.integers(1, 11))
            plus = rng.normal(scale=3.0, size=rng.integers(1, 11))
            sm, sp = rng.uniform(0.1, 1.5, size=2)
            plain = projected_pair(minus, plus, sm, sp)
            pair = rescaled_pair(minus, plus, sm, sp, 5.0)
            scale = pair.f_minus.bandwidth / sm
            assert cip(pair) == pytest.approx(cip(plain) / scale, rel=1e-13)

    def test_density_changes_variables_pointwise(self, rng):
        minus = rng.normal(size=7)
        plus = rng.normal(size=4) + 3.0
        plain = projected_pair(minus, plus, 0.3, 0.7)
        pair = rescaled_pair(minus, plus, 0.3, 0.7, 3.0)
        # The buffered interval is [min - 2.1, max + 2.1].
        lo = min(minus.min(), plus.min()) - 2.1
        scale = 1.0 / (max(minus.max(), plus.max()) + 2.1 - lo)
        xs = rng.normal(size=20) + 1.5
        for side in ("f_minus", "f_plus"):
            np.testing.assert_allclose(
                kde_eval(getattr(pair, side), scale * (xs - lo)),
                kde_eval(getattr(plain, side), xs) / scale,
                rtol=1e-12,
            )

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
        ratio = default.f_minus.bandwidth / default.f_plus.bandwidth
        assert ratio == pytest.approx(sigmas[0] / sigmas[1])
        for side in ("f_minus", "f_plus"):
            got, want = getattr(default, side), getattr(explicit, side)
            assert got.bandwidth == want.bandwidth
            np.testing.assert_array_equal(got.centers, want.centers)


_EPS = np.finfo(np.float64).eps
# Each pair sum lies within 1e-13 relative of the direct sum, which lies
# within 1e-13 of the exact sum of its rounded inputs: two evaluations of
# the same exact sum differ by at most twice both.
_PAIR_SUM_REL = 4e-13


def _sum_rel(a, b, var_sum, shift, var_rel):
    """Relative change a pair sum over centers a and b can take when every
    pair distance moves by at most ``shift`` and the summed variance by
    ``var_rel`` of itself, plus the evaluators' own budget. A term at distance
    d <= D, D the widest pair distance, moves its exponent d^2 / (2 s^2) by at
    most (D shift + shift^2 / 2) / s^2 + var_rel D^2 / (2 s^2)."""
    widest = max(a.max(), b.max()) - min(a.min(), b.min())
    exponent = (widest * shift + 0.5 * shift * shift + 0.5 * var_rel * widest**2) / var_sum
    return math.expm1(exponent) + _PAIR_SUM_REL


def _pair_sums(pair):
    """cip, h2x and dcs, as ``sweep`` computes them."""
    return cip(pair), renyi_cross_entropy(pair), cauchy_schwarz_divergence(pair)


def _sum_tolerances(pair, shift, var_rel):
    """Tolerances for (cip relative, h2x absolute, dcs absolute) when every
    center of the pair moves by at most shift / 2 and every squared
    bandwidth by var_rel / 2 of itself; dcs adds the rounding of its two
    subtractions."""
    f, g = pair.f_minus, pair.f_plus

    def rel(a, b):
        return _sum_rel(a.centers, b.centers, a.bandwidth**2 + b.bandwidth**2, shift, var_rel)

    cross = rel(f, g)
    h2x = -math.log1p(-cross)
    selfs = [-math.log1p(-rel(d, d)) for d in (f, g)]
    values = [2.0 * renyi_cross_entropy(pair), *(renyi_entropy(d) for d in (f, g))]
    dcs = 2.0 * h2x + sum(selfs) + 2.0 * _EPS * sum(abs(v) for v in values)
    return cross, h2x, dcs


def _invariance_pairs():
    """Silverman bandwidths on 1000 + 1000 points (the binned regime), one
    fixed bandwidth on 300 + 200 points and sigma 1e-3 on 2000 + 2000 (the
    direct path), and unequal bandwidths."""
    rng = np.random.default_rng(20260)
    minus, plus = rng.normal(size=1000), rng.normal(loc=1.0, scale=0.8, size=1000)
    yield "silverman", projected_pair(minus, plus)
    yield "few", projected_pair(minus[:300], plus[:200], 0.2, 0.2)
    narrow = rng.normal(size=2000), rng.normal(loc=2.0, size=2000)
    yield "narrow", projected_pair(*narrow, 1e-3, 1e-3)
    yield "unequal", projected_pair(minus, 3.0 * plus, 0.1, 0.7)


_INVARIANCE_PAIRS = dict(_invariance_pairs())


class TestPairSumInvariance:
    """cip, h2x and dcs are invariant under translation, permutation and
    label swap, and scale with the axis, up to what rounding the moved
    inputs can change: every tolerance comes from the inputs' rounding and
    the evaluators' own budget."""

    @pytest.mark.parametrize("offset", [1e3, 1e6, -1e6])
    @pytest.mark.parametrize("name", sorted(_INVARIANCE_PAIRS))
    def test_translation(self, name, offset):
        pair = _INVARIANCE_PAIRS[name]
        f, g = pair.f_minus, pair.f_plus
        moved = ProjectedPair(*(Kde1d(d.centers + offset, d.bandwidth) for d in (f, g)))
        # Both sides round every moved center, and the evaluators round node
        # positions of that magnitude, each by at most eps / 2 of it.
        top = max(abs(d.centers).max() for d in (moved.f_minus, moved.f_plus))
        cross, h2x, dcs = _sum_tolerances(pair, 4.0 * _EPS * top, 0.0)
        want = _pair_sums(pair)
        got = _pair_sums(moved)
        assert got[0] == pytest.approx(want[0], rel=cross, abs=0.0)
        assert abs(got[1] - want[1]) <= h2x
        assert abs(got[2] - want[2]) <= dcs

    @pytest.mark.parametrize("scale", [1e6, 1e-6])
    @pytest.mark.parametrize("name", sorted(_INVARIANCE_PAIRS))
    def test_scaling(self, name, scale):
        pair = _INVARIANCE_PAIRS[name]
        f, g = pair.f_minus, pair.f_plus
        scaled = ProjectedPair(*(Kde1d(d.centers * scale, d.bandwidth * scale) for d in (f, g)))
        # Every scaled center and bandwidth rounds by eps / 2 of itself, and
        # the evaluators' node positions by as much again.
        top = max(abs(d.centers).max() for d in (f, g))
        cross, h2x, dcs = _sum_tolerances(pair, 4.0 * _EPS * top, 4.0 * _EPS)
        potential, entropy, divergence = _pair_sums(pair)
        got = _pair_sums(scaled)
        # The potential is a density: it scales as 1 / scale.
        assert got[0] * scale == pytest.approx(potential, rel=cross + 2.0 * _EPS, abs=0.0)
        log_scale = math.log(scale)
        assert abs(got[1] - log_scale - entropy) <= h2x + 2.0 * _EPS * abs(got[1])
        assert abs(got[2] - divergence) <= dcs

    @pytest.mark.parametrize("name", sorted(_INVARIANCE_PAIRS))
    def test_permutation(self, name):
        pair = _INVARIANCE_PAIRS[name]
        rng = np.random.default_rng(7)
        f, g = pair.f_minus, pair.f_plus
        shuffled = ProjectedPair(*(Kde1d(rng.permutation(d.centers), d.bandwidth) for d in (f, g)))
        cross, h2x, dcs = _sum_tolerances(pair, 0.0, 0.0)
        want = _pair_sums(pair)
        got = _pair_sums(shuffled)
        assert got[0] == pytest.approx(want[0], rel=cross, abs=0.0)
        assert abs(got[1] - want[1]) <= h2x
        assert abs(got[2] - want[2]) <= dcs

    @pytest.mark.parametrize("name", sorted(_INVARIANCE_PAIRS))
    def test_label_swap(self, name):
        pair = _INVARIANCE_PAIRS[name]
        swapped = ProjectedPair(pair.f_plus, pair.f_minus)
        potential, entropy, divergence = _pair_sums(pair)
        got = _pair_sums(swapped)
        assert got[0] == potential
        assert got[1] == entropy
        # The same three terms, subtracted in the other order: each side
        # rounds twice, by at most eps / 2 of its partial result.
        selfs = (renyi_entropy(d) for d in (pair.f_minus, pair.f_plus))
        terms = 2.0 * abs(entropy) + sum(abs(h) for h in selfs)
        assert abs(got[2] - divergence) <= 2.0 * _EPS * terms
