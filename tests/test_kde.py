import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import trapezoid_product_integral
from melc import kde
from melc.kde import (
    DegenerateBandwidthError,
    Kde1d,
    binned_density_on_grid,
    cross_integral,
    kde_eval,
    min_density_bound,
    self_integral,
    silverman_bandwidth,
)
from melc.objectives import cip, projected_pair, renyi_cross_entropy, rescaled_pair

# The module, not the function that ``melc`` exports under the same name.
sweep_module = importlib.import_module("melc.sweep")


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

    @pytest.mark.parametrize("value", [0.0, 0.3, -2.7, 1e6])
    def test_rounding_spread_counts_as_zero(self, value):
        # Fifty copies of 0.3 have a mean of 0.30000000000000004 and a std of
        # 5.6e-17, the rounding of the mean, not a spread.
        with pytest.raises(
            DegenerateBandwidthError, match="^degenerate bandwidth: zero standard deviation$"
        ):
            silverman_bandwidth(np.full(50, value))

    def test_tiny_real_spread_gets_a_bandwidth(self, rng):
        samples = 0.3 + 1e-9 * rng.standard_normal(50)
        expected = (4.0 / 150.0) ** 0.2 * samples.std()
        assert silverman_bandwidth(samples) == pytest.approx(expected, rel=1e-12)
        assert 1e-10 < silverman_bandwidth(samples) < 1e-9

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


class TestKde1dValidation:
    def test_rejects_empty_centers(self):
        with pytest.raises(ValueError):
            Kde1d(np.array([]), 1.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            Kde1d([0.0], 0.0)

    @pytest.mark.parametrize("bandwidth", [1e-160, 1e-170, 1.4e-154])
    def test_rejects_bandwidth_whose_square_underflows(self, bandwidth):
        with pytest.raises(ValueError, match=f"bandwidth {bandwidth!r} is too small"):
            Kde1d([0.0], bandwidth)

    def test_accepts_bandwidth_just_above_the_floor(self):
        assert Kde1d([0.0], 1.5e-154).bandwidth == 1.5e-154


def _layout(rng, kind, size, width, loc):
    if kind == "all-equal":
        return np.full(size, loc + width * rng.uniform())
    centers = loc + width * rng.uniform(size=size)
    if kind == "duplicated":
        centers = rng.choice(centers[: max(1, size // 8)], size=size)
    return centers


@st.composite
def pair_sum_inputs(draw):
    """Two densities whose centers span up to 80 standard deviations of the
    pair kernel, on both sides of the 64 the grid path accepts."""
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
    width = span_stds * math.hypot(sigma_a, sigma_b)
    a = _layout(rng, kind_a, n_a, width, loc)
    b = _layout(rng, kind_b, n_b, width * (1.0 - abs(shift)), loc + shift * width)
    return Kde1d(a, sigma_a), Kde1d(b, sigma_b)


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
    # One dominant far pair, whose exponent (-608, and -358 where the reach's
    # exponent stays above _EXP_FLOOR) rounds by about |exponent| eps.
    @example((np.array([0.0020568920611029294]), np.array([0.03693155961685489]), 1e-6))
    @example((np.array([0.003963834433342464]), np.array([0.030717317736059103]), 1e-6))
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


def _direct_integral(f, g):
    """cross_integral's direct path: the direct pair sum, normalized."""
    var_sum = f.bandwidth**2 + g.bandwidth**2
    a, b = kde._canonical_pair(f.centers, g.centers)
    total = kde._direct_pair_sum(a, b, var_sum)
    return total / (a.size * b.size * math.sqrt(2.0 * math.pi * var_sum))


def _spectral_integral(f, g):
    """The spectral path's pair sum and its acceptance floor, apart from the
    span and cost gates; None where its lattice would be too long."""
    var_sum = f.bandwidth**2 + g.bandwidth**2
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kde, "_PAIR_MAX_SPAN_STDS", math.inf)
        patch.setattr(kde, "_PAIR_MIN_PAIRS", 0)
        patch.setattr(kde, "_PAIR_GRID_FLOOR", -math.inf)
        value = kde._spectral_pair_integral(f, g, var_sum)
    if value is None:
        return None
    peaks = (1.0 / f.bandwidth + 1.0 / g.bandwidth) / math.sqrt(2.0 * math.pi)
    return value, kde._PAIR_GRID_FLOOR * peaks


class TestBinnedPairSum:
    """Pair sums from the densities' Fourier coefficients against the direct
    sum as the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(pair_sum_inputs())
    def test_matches_direct_and_dispatches(self, pair):
        f, g = pair
        direct = _direct_integral(f, g)
        binned = _spectral_integral(f, g)
        # About 1e-16 of the kernel peaks, so 1e-13 relative on accepted sums.
        if binned is not None:
            value, floor = binned
            assert abs(value - direct) <= 1e-13 * max(direct, floor)

        # The dispatch returns the direct bits, or a grid sum it may accept.
        got = cross_integral(f, g)
        if got != direct:
            assert binned is not None
            assert got == binned[0]
            assert got >= binned[1]
            span = np.ptp(np.concatenate([f.centers, g.centers]))
            s = math.hypot(f.bandwidth, g.bandwidth)
            assert span < kde._PAIR_MAX_SPAN_STDS * s

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3000), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
    def test_self_pair_matches_direct(self, size, sigma, seed):
        centers = np.random.default_rng(seed).normal(size=size)
        f = Kde1d(centers, sigma)
        direct = _direct_integral(f, f)  # i < j only
        assert self_integral(f) == pytest.approx(direct, rel=1e-13)
        binned = _spectral_integral(f, f)
        if binned is not None:
            assert binned[0] == pytest.approx(direct, rel=1e-13)
        copy = Kde1d(centers.copy(), sigma)
        assert cross_integral(f, copy) == pytest.approx(direct, rel=1e-13)

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
        f, g = Kde1d(minus, sigma), Kde1d(plus, sigma)
        value, _ = _spectral_integral(f, g)
        assert cross_integral(f, g) == value
        assert value != _direct_integral(f, g)
        # Plain floats, as the direct path gives: callers count and format them.
        assert type(cross_integral(f, g)) is float
        assert type(self_integral(f)) is float

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1000, 2500),
        st.integers(1000, 2500),
        st.floats(0.05, 0.5),
        st.floats(-1.0, 1.0),
        st.floats(-10.0, 10.0),
        st.integers(0, 2**32 - 1),
    )
    def test_just_above_the_floor(self, n_f, n_g, sigma_f, log_ratio, loc, seed):
        # Bandwidths up to 10 times apart, and the second cloud shifted to
        # the largest offset whose sum the grid path still accepts.
        rng = np.random.default_rng(seed)
        sigma_g = sigma_f * 10.0**log_ratio
        s = math.hypot(sigma_f, sigma_g)
        minus = loc + s * rng.uniform(0.3, 2.0) * rng.normal(size=n_f)
        plus = loc + s * rng.uniform(0.3, 2.0) * rng.normal(size=n_g)
        f = Kde1d(minus, sigma_f)
        var_sum = s * s

        def accepted(offset):
            g = Kde1d(plus + offset, sigma_g)
            return kde._spectral_pair_integral(f, g, var_sum) is not None

        # Up to 15 s the centers span less than 64 s and the direct sum
        # would compute more pairs than the cost gate asks.
        lo, hi = 0.0, 15.0 * s
        assume(accepted(lo))
        assert not accepted(hi)
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        # The lattice fits just past the boundary, so the floor set it.
        assume(_spectral_integral(f, Kde1d(plus + hi, sigma_g)) is not None)
        g = Kde1d(plus + lo, sigma_g)
        direct = _direct_integral(f, g)
        got = cross_integral(f, g)
        assert got == kde._spectral_pair_integral(f, g, var_sum)
        assert abs(got - direct) <= 1e-13 * direct

    def test_no_inverse_transform(self, rng, fft_calls):
        # renyi_entropy and bound_check's rhs take their sums from Fourier
        # coefficients: forward transforms of the moments, nothing inverted.
        minus, plus = rng.normal(size=1000), rng.normal(loc=1.0, size=1000)
        pair = rescaled_pair(minus, plus, None, None, 5.0)
        want = [self_integral(pair.f_minus), renyi_cross_entropy(pair)]
        calls = fft_calls()
        assert [self_integral(pair.f_minus), renyi_cross_entropy(pair)] == want
        assert [name for name, *_ in calls] == ["rfft"] * 3

    def test_parseval_matches_the_lattice_trapezoid(self, rng):
        # The spectral sum is the trapezoid sum over one period of the node
        # values the coefficients invert to.
        f = Kde1d(rng.normal(size=1500), 0.3)
        g = Kde1d(rng.normal(loc=1.0, size=1200), 0.5)
        value, _ = _spectral_integral(f, g)
        lo, hi = kde._pair_window(f, g)
        step = kde._PAIR_STEP * 0.3
        wrap = math.ceil(kde._PAIR_WRAP_STDS * 0.5 / step)
        size = kde._transform_length(math.ceil((hi - lo) / step) + 1 + wrap)
        values = []
        for d in (f, g):
            coarse = np.rint((d.centers - lo) / step).astype(np.intp)
            anchors = lo + step * coarse
            spectrum = kde._binned_spectrum(d, coarse, anchors, step / d.bandwidth, 1, size)
            values.append(np.fft.irfft(spectrum, size) / (d.n_centers * step))
        assert step * float(np.sum(values[0] * values[1])) == pytest.approx(value, rel=1e-14)

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
        f, g = Kde1d(minus, sigma), Kde1d(plus, sigma)
        direct = _direct_integral(f, g)
        if case == "separable":
            value, floor = _spectral_integral(f, g)
            assert value < floor
        assert cross_integral(f, g) == direct
        assert cross_integral(g, f) == direct


@st.composite
def lower_bound_inputs(draw):
    """Two densities for the direction scan's lower bound: 1 to 3000
    centers each, spread, duplicated or all equal over up to 200 pair kernel
    standard deviations s (past the binned sum's cap of 64 s), bandwidths
    from 1e-5 to about 2 that differ by up to a factor of 10, centers up to
    10 from the origin, and optionally the second set wholly above the
    first, up to 60 s away, where the bound may be 0."""
    n_a = draw(st.integers(1, 3000))
    n_b = draw(st.integers(1, 3000))
    sigma_f = 10.0 ** draw(st.floats(-5.0, 0.0))
    sigma_g = sigma_f * 10.0 ** draw(st.floats(-1.0, 1.0))
    s = math.hypot(sigma_f, sigma_g)
    span = s * draw(st.floats(0.0, 200.0))
    loc = draw(st.floats(-10.0, 10.0))
    kind_a = draw(st.sampled_from(["spread", "duplicated", "all-equal"]))
    kind_b = draw(st.sampled_from(["spread", "duplicated", "all-equal"]))
    gap = draw(st.one_of(st.none(), st.floats(0.0, 60.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _layout(rng, kind_a, n_a, span, loc)
    b = _layout(rng, kind_b, n_b, span, loc)
    if gap is not None:
        b = b + (a.max() - b.min() + gap * s)
    return Kde1d(a, sigma_f), Kde1d(b, sigma_g)


class TestCipLowerBound:
    """``_cip_lower_bound``, the binned Jensen bound that orders and prunes
    the direction scan where the lattice screen does not apply."""

    @settings(max_examples=60, deadline=None)
    @given(lower_bound_inputs())
    def test_at_most_the_potential(self, pair):
        f, g = pair
        bound = kde._cip_lower_bound(f, g)
        # The scan's slack: the binned pair sum is 1e-12 relative, and the
        # bound is tight where every bin holds equal centers.
        assert 0.0 <= bound <= cross_integral(f, g) * (1.0 + sweep_module._BOUND_SLACK)
        assert kde._cip_lower_bound(g, f) == pytest.approx(bound, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(lower_bound_inputs())
    def test_closest_pair_term_at_most_the_potential(self, pair):
        # The scan's fallback where a bound is 0, separable pairs included.
        f, g = pair
        bound = kde._closest_pair_bound(f, g)
        assert 0.0 <= bound <= cross_integral(f, g) * (1.0 + sweep_module._BOUND_SLACK)
        assert kde._closest_pair_bound(g, f) == bound

    def test_closest_pair_term_where_the_bins_are_too_far(self):
        f = Kde1d(np.linspace(0.0, 1.0, 50), 1e-3)
        g = Kde1d(np.linspace(1.02, 2.0, 50), 1e-3)  # as in the test below
        assert kde._cip_lower_bound(f, g) == 0.0
        assert 0.0 < kde._closest_pair_bound(f, g) <= cross_integral(f, g)

    def test_zero_for_separable_classes(self):
        f = Kde1d(np.linspace(0.0, 1.0, 50), 1e-3)
        g = Kde1d(np.linspace(1.02, 2.0, 50), 1e-3)  # 14 pair kernel stds up
        assert kde._cip_lower_bound(f, g) == 0.0
        assert cross_integral(f, g) > 0.0

    def test_exact_for_single_centers(self):
        # One center a side within reach: Jensen's inequality is an equality.
        f, g = Kde1d([0.3], 1e-5), Kde1d([0.3 + 2e-5], 2e-5)
        assert kde._cip_lower_bound(f, g) == pytest.approx(cross_integral(f, g), rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(2000, 20000),
        st.integers(2000, 20000),
        st.floats(0.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_tight_on_well_sampled_gaussians(self, n_f, n_g, distance, seed):
        rng = np.random.default_rng(seed)
        f = Kde1d(rng.normal(size=n_f), 1e-3)
        g = Kde1d(rng.normal(loc=distance, size=n_g), 1e-3)
        assert kde._cip_lower_bound(f, g) >= 0.8 * cross_integral(f, g)


class TestCountCipBound:
    """``_count_cip_bound``, the cheap tier of the direction scan's bounds
    where the lattice screen does not apply."""

    @settings(max_examples=60, deadline=None)
    @given(lower_bound_inputs())
    def test_at_most_the_potential(self, pair):
        f, g = pair
        bound = kde._count_cip_bound(f, g)
        assert 0.0 <= bound <= cross_integral(f, g) * (1.0 + sweep_module._BOUND_SLACK)
        assert kde._count_cip_bound(g, f) == bound

    def test_single_bin(self):
        # Centers within one bin are at most one bin, s / 3, apart.
        f, g = Kde1d([0.3], 1e-5), Kde1d([0.3], 2e-5)
        bound = kde._count_cip_bound(f, g)
        assert bound == pytest.approx(math.exp(-1.0 / 18.0) * cross_integral(f, g), rel=1e-12)

    def test_zero_where_the_bins_outnumber_the_centers(self):
        f = Kde1d(np.linspace(0.0, 1.0, 50), 1e-3)
        g = Kde1d(np.linspace(0.5, 1.5, 50), 1e-3)
        assert kde._count_cip_bound(f, g) == 0.0
        assert kde._count_cip_bound(Kde1d(f.centers, 1.5e-154), Kde1d(g.centers, 1.5e-154)) == 0.0

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(15000, 20000),
        st.integers(15000, 20000),
        st.floats(0.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_tight_on_well_sampled_gaussians(self, n_f, n_g, distance, seed):
        # About 0.74 of the potential at narrow-sigma's size and bandwidth.
        rng = np.random.default_rng(seed)
        f = Kde1d(rng.normal(size=n_f), 1e-3)
        g = Kde1d(rng.normal(loc=distance, size=n_g), 1e-3)
        assert kde._count_cip_bound(f, g) >= 0.7 * cross_integral(f, g)


# One below the log of the smallest subnormal long double: exp of a smaller
# exponent rounds to 0 and so does exp(-inf), but long-double exp takes far
# longer on the former.
_LONGDOUBLE_EXP_FLOOR = np.log(np.finfo(np.longdouble).smallest_subnormal) - 1


def _exact_density(f, grid):
    """The untruncated sum in extended precision, the binned density's
    reference. Exponents below _LONGDOUBLE_EXP_FLOOR go to -inf, which
    leaves every term as it was."""
    centers = f.centers.astype(np.longdouble)
    nodes = grid.astype(np.longdouble)
    sigma = np.longdouble(f.bandwidth)
    out = np.zeros(grid.size, dtype=np.longdouble)
    for i0 in range(0, centers.size, 256):
        z = (centers[i0 : i0 + 256, None] - nodes[None, :]) / sigma
        exponent = -0.5 * z * z
        exponent[exponent < _LONGDOUBLE_EXP_FLOOR] = -np.inf
        out += np.exp(exponent).sum(axis=0)
    return out / (centers.size * sigma * np.sqrt(2.0 * np.pi, dtype=np.longdouble))


def _uncut_binned_density(f, grid):
    """The binned density with its spectra built out to xi = 39, where
    exp(-xi^2/2) underflows: the oracle for what the cut at
    ``kde._GRID_SPECTRUM_CUT`` leaves out."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kde, "_GRID_SPECTRUM_CUT", 39.0)
        return kde._binned_density(f, grid)


# The largest step, in bandwidths, at which each term count reaches the
# remainder, for q = 1 to kde._GRID_MAX_TERMS.
_TERM_EDGES = [
    2.0 * (kde._GRID_REMAINDER * math.factorial(q) / (q / math.e) ** (q / 2)) ** (1.0 / q)
    for q in range(1, kde._GRID_MAX_TERMS + 1)
]


@pytest.fixture
def fft_calls(monkeypatch):
    """A function that puts a recording stand-in for numpy into ``kde`` and
    returns the list it fills: (name, input, rows, length) for every real
    transform and inverse, ``rows`` transforms of ``length`` each."""

    def install():
        calls = []

        class RecordingFft:
            def __getattr__(self, name):
                return getattr(np.fft, name)

            @staticmethod
            def rfft(a, n=None, axis=-1, **kwargs):
                a = np.asarray(a)
                calls.append(("rfft", a, a.size // a.shape[axis], n or a.shape[axis]))
                return np.fft.rfft(a, n, axis, **kwargs)

            @staticmethod
            def irfft(a, n=None, axis=-1, **kwargs):
                a = np.asarray(a)
                calls.append(("irfft", a, a.size // a.shape[axis], n or 2 * (a.shape[axis] - 1)))
                return np.fft.irfft(a, n, axis, **kwargs)

        class RecordingNumpy:
            fft = RecordingFft()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(kde, "np", RecordingNumpy())
        return calls

    return install


class TestBinnedGridDensity:
    """The binned FFT density against an extended-precision sum as the
    oracle."""

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
        # Nodes -8 + g/256 are exact in float64, so the binned evaluator's
        # uniform lattice is the grid itself and only its rounding differs.
        grid = np.linspace(-8.0, -8.0 + 4095.0 / 256.0, 4096)
        centers = np.clip(
            np.random.default_rng(seed).normal(loc, spread, size=size), -7.0, 7.0
        )
        f = Kde1d(centers, sigma)
        binned = kde._binned_density(f, grid)
        exact = _exact_density(f, grid)
        assert float(np.max(np.abs(binned - exact))) <= 1e-15 * float(exact.max())

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
        exact = _exact_density(f, grid)
        binned = kde._binned_density(f, grid)
        assert float(np.max(np.abs(binned - exact))) <= 1e-15 * float(exact.max())

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="needs an extended-precision long double",
    )
    @pytest.mark.parametrize("factor", [2, 4, 10, 25])
    def test_coarsest_sub_lattice_with_centers_on_the_end_nodes(self, factor, rng):
        # The largest step the sub-lattice admits, D r just below 0.08. The
        # last node, 4095, is off every one of these sub-lattices, and a
        # center there sits nearest a sub-lattice node past the grid's end.
        grid = np.linspace(-8.0, -8.0 + 4095.0 / 256.0, 4096)
        ratio = kde._GRID_COARSE_STEP / factor * (1.0 - 1e-12)
        assert kde._grid_factor(ratio) == factor
        assert 4095 % factor and round(4095 / factor) * factor > 4095
        centers = np.concatenate([np.clip(rng.normal(0.0, 2.0, 1000), -7.0, 7.0), grid[[0, -1]]])
        f = Kde1d(centers, 1.0 / 256.0 / ratio)
        exact = _exact_density(f, grid)
        binned = kde._binned_density(f, grid)
        assert float(np.max(np.abs(binned - exact))) <= 1e-15 * float(exact.max())

    def test_one_full_length_transform(self, rng, fft_calls):
        # The moments' transforms are short; only the inverse transform
        # spans the grid.
        centers = rng.normal(size=1000)
        sigma = silverman_bandwidth(centers)
        grid = np.linspace(centers.min() - 8.0 * sigma, centers.max() + 8.0 * sigma, 4096)
        f = Kde1d(centers, sigma)
        expected = binned_density_on_grid(f, grid)
        calls = fft_calls()
        got = binned_density_on_grid(f, grid)
        assert sum(rows for _, _, rows, length in calls if length >= grid.size) == 1
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("sigma", [0.3, 0.05, 2.0 / 4095.0 / 0.19])
    def test_inverse_transform_reads_below_the_cut(self, sigma, rng, fft_calls):
        # Spectra built below xi = 10 inverse bandwidths only: column m of a
        # length-L transform sits at xi = 2 pi m / (L r).
        grid = np.linspace(-1.0, 1.0, 4096)
        f = Kde1d(np.clip(rng.normal(scale=0.3, size=1000), -0.9, 0.9), sigma)
        calls = fft_calls()
        kde._binned_density(f, grid)
        [(_, spectrum, _, size)] = [call for call in calls if call[0] == "irfft"]
        ratio = 2.0 / 4095.0 / sigma
        assert np.count_nonzero(spectrum) <= math.ceil(10.0 * size * ratio / (2.0 * math.pi))

    @pytest.mark.parametrize(
        "ratio",
        [1e-4, 0.002, 0.006, 0.0125, 0.04 * (1 - 1e-12), 0.0799, 0.12, _TERM_EDGES[-1] * (1 - 1e-9)],
    )
    def test_cut_spectra_match_uncut(self, ratio, rng):
        # Past xi = 10 the spectra add at most a few 1e-22 of a kernel's
        # peak, 1 / (sigma sqrt(2 pi)); the last ratio takes all 12 terms at
        # offsets up to 0.097 bandwidths, and the first makes the window
        # narrower than its kernel.
        grid = np.linspace(-0.5, 0.5, 4096)
        sigma = 1.0 / 4095.0 / ratio
        f = Kde1d(rng.uniform(-0.5, 0.5, size=1000), sigma)
        if ratio > 0.19:
            assert kde._grid_terms(ratio) == 12
        cut, uncut = kde._binned_density(f, grid), _uncut_binned_density(f, grid)
        assert float(np.max(np.abs(cut - uncut))) <= 1e-20 / (sigma * math.sqrt(2.0 * math.pi))

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ratio", [2.0, 1e200, math.inf, np.float64(1e300)])
    def test_no_terms_for_coarse_steps_without_overflow(self, ratio):
        assert kde._grid_terms(ratio) is None

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
