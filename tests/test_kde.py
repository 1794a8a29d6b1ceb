import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import trapezoid_product_integral
from melc import kde
from melc.geometry import AffineMap1d
from melc.kde import (
    DegenerateBandwidthError,
    Kde1d,
    binned_density_on_grid,
    cross_integral,
    eval_on_sorted_grid,
    kde_eval,
    min_density_bound,
    rescale_kde,
    self_integral,
    silverman_bandwidth,
)
from melc.objectives import cip, projected_pair, renyi_cross_entropy, rescaled_pair


def random_kde(rng, max_centers=10, spread=3.0):
    n = int(rng.integers(1, max_centers + 1))
    return Kde1d(rng.normal(scale=spread, size=n), float(rng.uniform(0.05, 1.0)))


class TestSilvermanBandwidth:
    def test_hundred_samples_unit_std(self):
        # 50 at -1 and 50 at +1: population std exactly 1.
        samples = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])
        expected = (4.0 / 300.0) ** 0.2  # = 0.42168460634274996
        assert silverman_bandwidth(samples) == pytest.approx(expected, rel=1e-14)
        assert silverman_bandwidth(samples) == pytest.approx(0.4216846, rel=1e-6)

    def test_equal_samples_error(self):
        with pytest.raises(DegenerateBandwidthError, match="degenerate bandwidth"):
            silverman_bandwidth(np.full(10, 3.0))

    def test_single_sample_error(self):
        with pytest.raises(DegenerateBandwidthError):
            silverman_bandwidth(np.array([1.0]))

    def test_scaling_homogeneity(self, rng):
        samples = rng.normal(size=40)
        base = silverman_bandwidth(samples)
        for c in (0.1, 2.0, 17.0):
            assert silverman_bandwidth(c * samples) == pytest.approx(c * base)


class TestKdeEval:
    def test_standard_normal_peak(self):
        f = Kde1d([0.0], 1.0)
        assert kde_eval(f, 0.0) == pytest.approx(0.3989422804014327, rel=1e-14)

    def test_standard_normal_at_one(self):
        f = Kde1d([0.0], 1.0)
        assert kde_eval(f, 1.0) == pytest.approx(0.24197072451914337, rel=1e-14)

    def test_mixture_linearity(self):
        f = Kde1d([-1.0, 1.0], 1.0)
        left = Kde1d([-1.0], 1.0)
        right = Kde1d([1.0], 1.0)
        x = 0.0
        expected = 0.5 * (kde_eval(left, x) + kde_eval(right, x))
        assert kde_eval(f, x) == pytest.approx(expected, rel=1e-14)

    def test_array_input_matches_scalar(self, rng):
        f = Kde1d(rng.normal(size=5), 0.4)
        xs = rng.normal(size=(3, 4))
        values = kde_eval(f, xs)
        assert values.shape == xs.shape
        for index in np.ndindex(xs.shape):
            assert values[index] == pytest.approx(kde_eval(f, float(xs[index])))

    def test_normalization_by_quadrature(self, rng):
        for _ in range(10):
            f = random_kde(rng)
            lo = f.centers.min() - 10 * f.bandwidth
            hi = f.centers.max() + 10 * f.bandwidth
            grid = np.linspace(lo, hi, 4097)
            mass = np.trapezoid(kde_eval(f, grid), grid)
            assert mass == pytest.approx(1.0, abs=1e-8)


class TestCrossIntegral:
    def test_coincident_single_centers(self):
        f = Kde1d([0.0], 1.0)
        g = Kde1d([0.0], 1.0)
        assert cross_integral(f, g) == pytest.approx(
            0.28209479177387814, rel=1e-14
        )

    def test_unit_distance_single_centers(self):
        f = Kde1d([0.0], 1.0)
        g = Kde1d([1.0], 1.0)
        expected = math.exp(-0.25) / math.sqrt(4 * math.pi)  # phi(1; 2)
        assert cross_integral(f, g) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.21969564473386122, rel=1e-14)

    def test_matches_quadrature_oracle(self, rng):
        for _ in range(25):
            f = random_kde(rng)
            g = random_kde(rng)
            oracle = trapezoid_product_integral(f, g)
            assert cross_integral(f, g) == pytest.approx(oracle, rel=1e-6)

    def test_symmetry_exact(self, rng):
        for _ in range(10):
            f = random_kde(rng)
            g = random_kde(rng)
            assert cross_integral(f, g) == cross_integral(g, f)

    def test_positivity(self, rng):
        for _ in range(10):
            f = random_kde(rng)
            g = random_kde(rng)
            assert cross_integral(f, g) > 0.0

    def test_far_separated_is_tiny(self):
        f = Kde1d([0.0], 0.5)
        g = Kde1d([100.0], 0.5)
        assert cross_integral(f, g) < 1e-12

    def test_cauchy_schwarz(self, rng):
        for _ in range(50):
            f = random_kde(rng)
            g = random_kde(rng)
            lhs = cross_integral(f, g) ** 2
            rhs = self_integral(f) * self_integral(g)
            assert lhs <= rhs * (1 + 1e-12)


class TestSelfIntegral:
    def test_single_center(self):
        f = Kde1d([0.0], 1.0)
        assert self_integral(f) == pytest.approx(1 / (2 * math.sqrt(math.pi)), rel=1e-14)

    def test_smoothing_decreases_self_integral(self, rng):
        centers = rng.normal(size=6)
        narrow = Kde1d(centers, 0.3)
        wide = Kde1d(centers, 0.9)
        assert self_integral(wide) < self_integral(narrow)

    def test_matches_quadrature_oracle(self, rng):
        for _ in range(10):
            f = random_kde(rng)
            oracle = trapezoid_product_integral(f, f)
            assert self_integral(f) == pytest.approx(oracle, rel=1e-6)


class TestRescaleKde:
    def test_identity_map(self, rng):
        f = random_kde(rng)
        g = rescale_kde(f, AffineMap1d.identity())
        np.testing.assert_array_equal(g.centers, f.centers)
        assert g.bandwidth == f.bandwidth

    def test_worked_example(self):
        mapping = AffineMap1d(scale=1 / 7, offset=2.5 / 7)
        f = Kde1d([-1.0], 0.5)
        g = rescale_kde(f, mapping)
        assert g.centers[0] == pytest.approx(3 / 14)
        assert g.bandwidth == pytest.approx(0.5 / 7)

    def test_change_of_variables_pointwise(self, rng):
        f = random_kde(rng)
        mapping = AffineMap1d(scale=0.37, offset=1.2)
        g = rescale_kde(f, mapping)
        xs = rng.normal(size=20)
        np.testing.assert_allclose(
            kde_eval(g, mapping.apply(xs)),
            kde_eval(f, xs) / mapping.scale,
            rtol=1e-12,
        )

    def test_cross_integral_change_of_variables(self, rng):
        f = random_kde(rng)
        g = random_kde(rng)
        mapping = AffineMap1d(scale=0.25, offset=-0.8)
        rescaled = cross_integral(rescale_kde(f, mapping), rescale_kde(g, mapping))
        assert rescaled == pytest.approx(cross_integral(f, g) / mapping.scale, rel=1e-12)


class TestKde1dValidation:
    def test_rejects_empty_centers(self):
        with pytest.raises(ValueError):
            Kde1d(np.array([]), 1.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            Kde1d([0.0], 0.0)


def _layout(rng, kind, size, width, loc):
    if kind == "all-equal":
        return np.full(size, loc + width * rng.uniform())
    centers = loc + width * rng.uniform(size=size)
    if kind == "duplicated":
        centers = rng.choice(centers[: max(1, size // 8)], size=size)
    return centers


@st.composite
def pair_sum_inputs(draw):
    """Two center sets and the summed variance of their kernels. The sets
    span up to 80 standard deviations of the pair kernel, on both sides of
    the 64 the binned sum accepts."""
    n_a = draw(st.integers(1, 3000))
    n_b = draw(st.integers(1, 3000))
    sigma_a = draw(st.floats(0.05, 1.0))
    sigma_b = draw(st.floats(0.05, 1.0))
    span_stds = draw(st.floats(0.0, 80.0))
    shift = draw(st.floats(-0.5, 0.5))
    loc = draw(st.floats(-10.0, 10.0))
    kind_a = draw(st.sampled_from(["spread", "duplicated", "all-equal"]))
    kind_b = draw(st.sampled_from(["spread", "duplicated", "all-equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    var_sum = sigma_a**2 + sigma_b**2
    width = span_stds * math.sqrt(var_sum)
    a = _layout(rng, kind_a, n_a, width, loc)
    b = _layout(rng, kind_b, n_b, width * (1.0 - abs(shift)), loc + shift * width)
    return a, b, var_sum


def _exact_pair_sum(a, b, var_sum):
    """sum_ij exp(-(a_i - b_j)^2 / (2 var_sum)) over every pair in extended
    precision. Only exponents more than one below the log of the smallest
    long double are skipped: their terms round to exactly 0 there."""
    a = np.asarray(a, dtype=np.longdouble)
    b = np.asarray(b, dtype=np.longdouble)
    scale = np.longdouble(0.5) / np.longdouble(var_sum)
    lowest = np.log(np.finfo(np.longdouble).smallest_subnormal) - 1
    total = np.longdouble(0.0)
    for j0 in range(0, b.size, 256):
        d = b[j0 : j0 + 256, None] - a[None, :]
        exponents = -(d * d) * scale
        total += np.exp(exponents[exponents > lowest]).sum()
    return total


@st.composite
def band_inputs(draw):
    """Ascending center sets and the summed variance for the direct pair sum,
    laid out in units of the pair kernel's standard deviation s: spread,
    duplicated or all equal over up to 400 s; in clumps at most 3 s wide with
    gaps wider than 20 s; or a sparse tail of ``b`` over a dense core of
    ``a``. Optionally ``b`` sits wholly above ``a``, up to 35 s away."""
    n_a = draw(st.integers(1, 3000))
    n_b = draw(st.integers(1, 3000))
    s = draw(st.floats(1e-4, 1.0))
    loc = draw(st.floats(-10.0, 10.0))
    layout = draw(st.sampled_from(["spread", "duplicated", "all-equal", "clumps", "tail"]))
    gap = draw(st.one_of(st.none(), st.floats(0.0, 35.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "clumps":
        spacing = 23.0 + draw(st.floats(0.0, 100.0))  # 3 s wide, > 20 s apart
        clumps = spacing * np.arange(draw(st.integers(1, 8)))
        a = rng.choice(clumps, n_a) + rng.uniform(0.0, 3.0, n_a)
        b = rng.choice(clumps, n_b) + rng.uniform(0.0, 3.0, n_b)
    elif layout == "tail":
        a = rng.normal(0.0, 2.0, n_a)
        b = np.where(rng.uniform(size=n_b) < 0.9, rng.uniform(-300.0, 300.0, n_b), 0.0)
    else:
        span = draw(st.floats(0.0, 400.0))
        a, b = (_layout(rng, layout, n, span, 0.0) for n in (n_a, n_b))
    a, b = np.sort(a), np.sort(b)
    if gap is not None:
        b = b + (a[-1] - b[0] + gap)
    return loc + s * a, loc + s * b, s * s


class TestDirectPairSum:
    """The banded direct pair sum against an untruncated extended-precision
    sum. Its truncation alone costs at most N_a N_b e^-50 relative, about
    2e-15 at 3000 x 3000 centers."""

    @settings(max_examples=40, deadline=None)
    @given(band_inputs())
    @example((np.array([0.0]), np.array([100.0]), 1.0))  # 0 in float64 only
    def test_matches_exact_sum(self, inputs):
        a, b, var_sum = inputs
        exact = _exact_pair_sum(a, b, var_sum)
        got = kde._direct_pair_sum(a, b, var_sum)
        # Below float64's range a term can only round to a multiple of the
        # smallest subnormal, or to 0.
        floor = a.size * b.size * np.finfo(np.float64).smallest_subnormal
        assert abs(got - exact) <= 1e-13 * exact + floor

    @settings(max_examples=25, deadline=None)
    @given(band_inputs())
    def test_self_pair_matches_full_sum(self, inputs):
        a, _, var_sum = inputs
        half = kde._direct_pair_sum(a, a, var_sum)  # i < j only
        full = kde._direct_pair_sum(a, a.copy(), var_sum)
        assert abs(half - full) <= 1e-14 * full
        assert abs(half - _exact_pair_sum(a, a, var_sum)) <= 1e-13 * full

    @pytest.mark.parametrize("distance", [38.7, 100.0, 1e6])
    def test_all_terms_underflow_to_exact_zero(self, distance):
        # exp(-38.7^2 / 2) underflows in float64; the sum and the potential
        # are exactly 0, so the cross entropy is infinite.
        a = np.array([0.0, -1.0])
        b = np.array([distance, distance + 0.5])
        assert kde._direct_pair_sum(a, b, 1.0) == 0.0
        pair = projected_pair(a, b, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        assert cip(pair) == 0.0
        assert renyi_cross_entropy(pair) == math.inf

    def test_smallest_terms_survive(self):
        # exp(-37.5^2 / 2) ~ 1e-305: near the float64 floor, yet not zero.
        got = kde._direct_pair_sum(np.array([0.0]), np.array([37.5, 38.0]), 1.0)
        assert got == pytest.approx(math.exp(-0.5 * 37.5**2) + math.exp(-0.5 * 38.0**2))

    @pytest.mark.parametrize("case", ["narrow", "wide", "tail", "separated", "self"])
    def test_block_budget_only_regroups(self, case, rng, monkeypatch):
        a = np.sort(rng.normal(size=2000))
        b = np.sort(rng.normal(loc=0.5, size=1500))
        var_sum = 2e-6
        if case == "wide":
            var_sum = 0.1
        elif case == "tail":
            b = np.sort(np.concatenate([b[:50] * 100.0, b[:1000] * 1e-3]))
        elif case == "separated":
            b = b - b[0] + a[-1] + 0.04  # the closest pair is 28 s apart
        elif case == "self":
            b = a
        default = kde._direct_pair_sum(a, b, var_sum)
        monkeypatch.setattr(kde, "_BAND_BUDGET", 64)
        assert kde._direct_pair_sum(a, b, var_sum) == pytest.approx(default, rel=1e-14)

    @pytest.mark.parametrize("distance", [0.0, 5.0, 27.0, 30.0, 38.0])
    def test_exp_never_sees_an_underflowing_exponent(self, distance, rng, monkeypatch):
        # numpy's exp is 15 to 100 times slower on results that underflow or
        # are subnormal, so the sum keeps every exponent above _EXP_FLOOR.
        lowest = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, *args, **kwargs):
                lowest.append(float(np.min(x)))
                return np.exp(x, *args, **kwargs)

        s = 1e-3
        a = np.sort(np.concatenate([rng.normal(size=1000), rng.uniform(-50.0, 50.0, 50)]))
        b = np.sort(rng.normal(size=800)) * 0.1
        b = b - b[0] + a[-1] + s * distance  # the closest pair is `distance` s apart
        monkeypatch.setattr(kde, "np", RecordingNumpy())
        assert kde._direct_pair_sum(a, b, s * s) > 0.0
        assert kde._direct_pair_sum(a, a, s * s) > 0.0
        assert min(lowest) >= kde._EXP_FLOOR


class TestBinnedPairSum:
    """The binned Hermite pair sum against the direct sum as the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(pair_sum_inputs())
    def test_matches_direct_and_dispatches(self, inputs):
        a, b, var_sum = inputs
        sa, sb = kde._canonical_pair(a, b)
        direct = kde._direct_pair_sum(sa, sb, var_sum)
        binned = kde._hermite_pair_sum(sa, sb, var_sum)
        # About 1e-16 absolute per pair, so 1e-13 relative on accepted sums.
        floor = kde._PAIR_MIN_SHARE * a.size * b.size
        assert abs(binned - direct) <= 1e-13 * max(direct, floor)

        # The dispatch returns the direct bits, or a binned sum it may accept.
        got = kde._gauss_pair_sum(a, b, var_sum)
        if got != direct:
            span = max(sa[-1], sb[-1]) - min(sa[0], sb[0])
            assert got == binned
            assert binned >= floor
            assert span < kde._PAIR_MAX_SPAN_STDS * math.sqrt(var_sum)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3000), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    def test_self_pair_matches_direct(self, size, sigma, seed):
        centers = np.sort(np.random.default_rng(seed).normal(size=size))
        var_sum = 2.0 * sigma * sigma
        direct = kde._direct_pair_sum(centers, centers, var_sum)
        assert kde._hermite_pair_sum(centers, centers, var_sum) == pytest.approx(
            direct, rel=1e-13
        )
        assert kde._hermite_pair_sum(
            centers, centers.copy(), var_sum
        ) == pytest.approx(direct, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(300, 1500),
        st.integers(300, 1500),
        st.floats(0.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_swap_symmetry_exact(self, n_f, n_g, distance, seed):
        rng = np.random.default_rng(seed)
        minus = rng.normal(size=n_f)
        plus = rng.normal(loc=distance, size=n_g)
        f = Kde1d(minus, silverman_bandwidth(minus))
        g = Kde1d(plus, silverman_bandwidth(plus))
        assert cross_integral(f, g) == cross_integral(g, f)

    def test_binned_at_silverman_bandwidths(self, rng):
        minus = rng.normal(size=1000)
        plus = rng.normal(loc=1.0, size=1000)
        sigma = silverman_bandwidth(minus)
        var_sum = 2.0 * sigma * sigma
        a, b = kde._canonical_pair(minus, plus)
        binned = kde._hermite_pair_sum(a, b, var_sum)
        assert kde._gauss_pair_sum(minus, plus, var_sum) == binned
        assert binned != kde._direct_pair_sum(a, b, var_sum)

    def test_derivative_table_slices_are_bit_equal(self):
        cap = kde._PAIR_MAX_BINS
        assert cap >= kde._PAIR_MAX_SPAN_STDS * kde._PAIR_BINS_PER_STD
        for nb in range(1, cap + 3):
            distances = np.arange(1 - nb, nb) / kde._PAIR_BINS_PER_STD
            expected = kde._gaussian_derivatives(distances, kde._PAIR_TERMS)
            assert np.array_equal(kde._pair_derivatives(nb), expected)

    def test_runs_past_the_table(self, rng):
        # A span of 80 standard deviations needs more bins than the table has.
        a = np.sort(rng.uniform(0.0, 80.0, size=2000))
        b = np.sort(rng.uniform(0.0, 80.0, size=1500))
        var_sum = 1.0
        assert 80.0 * kde._PAIR_BINS_PER_STD + 1 > kde._PAIR_MAX_BINS
        direct = kde._direct_pair_sum(a, b, var_sum)
        assert kde._hermite_pair_sum(a, b, var_sum) == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize(
        "case", ["narrow-kernel", "separable", "few-pairs", "wide-span"]
    )
    def test_direct_bits_outside_binned_regime(self, case, rng):
        minus = rng.normal(size=1000)
        plus = rng.normal(loc=1.0, size=1000)
        sigma = silverman_bandwidth(minus)
        if case == "narrow-kernel":
            sigma = 1e-3
        elif case == "separable":
            plus = plus + 11.0
        elif case == "few-pairs":
            minus, plus = minus[:300], plus[:300]
        elif case == "wide-span":
            plus = np.concatenate([plus, [40.0]])
        var_sum = 2.0 * sigma * sigma
        a, b = kde._canonical_pair(minus, plus)
        direct = kde._direct_pair_sum(a, b, var_sum)
        if case == "separable":
            assert kde._hermite_pair_sum(a, b, var_sum) < kde._PAIR_MIN_SHARE * a.size * b.size
        assert kde._gauss_pair_sum(minus, plus, var_sum) == direct
        assert kde._gauss_pair_sum(plus, minus, var_sum) == direct


def _exact_density(f, grid):
    """The direct sum in extended precision, as a reference for the rounding
    of both evaluators."""
    centers = f.centers.astype(np.longdouble)
    nodes = grid.astype(np.longdouble)
    sigma = np.longdouble(f.bandwidth)
    out = np.zeros(grid.size, dtype=np.longdouble)
    for i0 in range(0, centers.size, 256):
        z = (centers[i0 : i0 + 256, None] - nodes[None, :]) / sigma
        out += np.exp(-0.5 * z * z).sum(axis=0)
    return out / (centers.size * sigma * np.sqrt(2.0 * np.pi, dtype=np.longdouble))


class TestBinnedGridDensity:
    """The binned FFT density against the direct evaluator as the oracle."""

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="needs an extended-precision long double",
    )
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 1500),
        st.floats(0.3, 3.0),
        st.floats(-2.0, 2.0),
        st.floats(1.0 / 48.0, 2.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_on_exact_lattice(self, size, spread, loc, sigma, seed):
        # Nodes -8 + g/256 are exact in float64, so both evaluators see the
        # same uniform lattice and only their rounding differs.
        grid = np.linspace(-8.0, -8.0 + 4095.0 / 256.0, 4096)
        centers = np.clip(
            np.random.default_rng(seed).normal(loc, spread, size=size), -7.0, 7.0
        )
        f = Kde1d(centers, sigma)
        terms = kde._grid_terms(1.0 / 256.0 / sigma)
        binned = kde._binned_density(f, grid, terms)
        direct = eval_on_sorted_grid(f, grid)
        exact = _exact_density(f, grid)
        peak = float(exact.max())
        direct_rounding = float(np.max(np.abs(direct - exact)))
        assert float(np.max(np.abs(binned - exact))) <= 1e-15 * peak
        assert np.max(np.abs(binned - direct)) <= 1e-15 * peak + direct_rounding

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="needs an extended-precision long double",
    )
    @pytest.mark.parametrize("window", ["narrower-than-kernel", "tail-k-5"])
    def test_no_wrap_around(self, window, rng):
        # The transform is periodic: a kernel's images must stay beyond the
        # cutoff however wide the kernel is against the window.
        if window == "narrower-than-kernel":
            grid = np.linspace(-0.5, 0.5, 4096)
            f = Kde1d(rng.uniform(-0.5, 0.5, size=1000), 2.0)
        else:
            # bound_check's window: the centers end 5 bandwidths from its edges.
            minus = rng.normal(size=1000)
            plus = rng.normal(loc=1.0, size=1000)
            pair = rescaled_pair(
                minus, plus, silverman_bandwidth(minus), silverman_bandwidth(plus), 5.0
            )
            grid = np.linspace(0.0, 1.0, 4096)
            f = pair.f_minus
        terms = kde._grid_terms((grid[-1] - grid[0]) / (grid.size - 1) / f.bandwidth)
        exact = _exact_density(f, grid)
        binned = kde._binned_density(f, grid, terms)
        assert float(np.max(np.abs(binned - exact))) <= 1e-15 * float(exact.max())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**7))
    def test_transform_length_is_smallest_5_smooth(self, n):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        length = kde._transform_length(n)
        assert length >= n and smooth(length)
        assert not any(smooth(m) for m in range(n, length))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 200),
        st.floats(0.0, 6.0),
        st.floats(0.02, 1.0),
        st.floats(0.02, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_min_density_bound_holds(self, n_f, n_g, distance, s_f, s_g, seed):
        rng = np.random.default_rng(seed)
        f = Kde1d(rng.normal(size=n_f), s_f)
        g = Kde1d(rng.normal(loc=distance, size=n_g), s_g)
        x = np.linspace(-8.0, distance + 8.0, 20001)
        lowest = np.minimum(kde_eval(f, x), kde_eval(g, x))
        assert lowest.max() <= min_density_bound(f, g) * (1 + 1e-12)

    def test_terms_grow_with_step(self):
        terms = [kde._grid_terms(ratio) for ratio in (0.005, 0.02, 0.1, 0.19)]
        assert terms == sorted(terms)
        assert kde._grid_terms(0.5) is None

    def test_direct_only_outside_binned_regime(self, rng):
        centers = rng.normal(size=2000)
        grid = np.linspace(-6.0, 6.0, 4096)
        assert binned_density_on_grid(Kde1d(centers, 0.3), grid) is not None
        # Kernel narrower than a few grid steps.
        assert binned_density_on_grid(Kde1d(centers, 0.01), grid) is None
        # Too few kernel evaluations to pay for the transform.
        assert binned_density_on_grid(Kde1d(centers[:20], 0.3), grid) is None
        # A center outside the grid.
        outside = np.concatenate([centers, [9.0]])
        assert binned_density_on_grid(Kde1d(outside, 0.3), grid) is None
        # A descending window.
        assert binned_density_on_grid(Kde1d(centers, 0.3), grid[::-1]) is None
        # A window narrower than about 3.7 bandwidths needs a transform
        # longer than four grids; 5 bandwidths does not.
        inside = np.clip(centers, -0.5, 0.5)
        narrow = np.linspace(-0.5, 0.5, 4096)
        assert binned_density_on_grid(Kde1d(inside, 1.0 / 3.5), narrow) is None
        assert binned_density_on_grid(Kde1d(inside, 1.0 / 5.0), narrow) is not None
