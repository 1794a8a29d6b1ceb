import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melc import kde, objectives
from melc.datasets import DatasetSpec, generate
from melc.geometry import LabeledDataset, UnitDirection, cosine_alignment, project
from melc.kde import DegenerateBandwidthError, silverman_bandwidth
from melc.objectives import cip, projected_pair, renyi_entropy, rescaled_pair
from melc.risk import BoundCheck, bound_check, overlap_integral
from melc.sweep import (
    ComparisonRow,
    SweepRecord,
    angle_grid,
    bound_summary,
    bound_sweep,
    compare,
    melc_direction,
    relative_error,
    select_best,
    sweep,
)


def gaussian_clouds(rng, m_minus, m_plus, sigma, n):
    minus = rng.standard_normal((n, 2)) * sigma + m_minus
    plus = rng.standard_normal((n, 2)) * sigma + m_plus
    return LabeledDataset.from_arrays(
        np.vstack([minus, plus]), np.concatenate([np.full(n, -1), np.full(n, 1)])
    )


class TestAngleGrid:
    def test_four_angles(self):
        angles = [angle for angle, _ in angle_grid(4)]
        np.testing.assert_allclose(
            angles, [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        )

    def test_directions_unit_norm(self):
        for _, direction in angle_grid(16):
            assert np.linalg.norm(direction.components) == pytest.approx(1.0)

    def test_360_step_half_degree(self):
        angles = [angle for angle, _ in angle_grid(360)]
        assert angles[1] - angles[0] == pytest.approx(math.radians(0.5))
        assert len(angles) == 360

    def test_too_few_angles(self):
        with pytest.raises(ValueError):
            angle_grid(1)


class TestSweep:
    def test_record_invariants(self, rng):
        data = gaussian_clouds(rng, (0, 0), (2, 1), 0.6, 40)
        records = sweep(data, 24)
        assert len(records) == 24
        for k, record in enumerate(records):
            assert record.angle == pytest.approx(k * math.pi / 24)
            np.testing.assert_allclose(
                record.direction.components,
                [math.cos(record.angle), math.sin(record.angle)],
            )
            assert record.eaa_risk == record.overlap / 2.0
            assert record.cip > 0

    def test_argmax_h2x_aligns_with_mean_difference(self, rng):
        # Coarse grid so the one-step tolerance dominates the sampling noise
        # of the empirical optimum at this sample size.
        data = gaussian_clouds(rng, (0, 0), (3, 3), 1.0, 400)
        records = sweep(data, 24)
        best = select_best(records, "h2x", minimize=False)
        step = math.pi / 24
        distance = abs(best.angle - math.pi / 4)
        assert min(distance, math.pi - distance) <= step + 1e-12

    def test_argmax_h2x_is_argmin_cip(self, rng):
        data = gaussian_clouds(rng, (0, 0), (1.5, 0.5), 0.8, 60)
        records = sweep(data, 36)
        assert select_best(records, "h2x", minimize=False) is select_best(
            records, "cip", minimize=True
        )

    def test_duplication_invariance_at_fixed_bandwidth(self, rng):
        data = gaussian_clouds(rng, (0, 0), (2, 0), 0.7, 30)
        doubled = LabeledDataset.from_arrays(
            np.vstack([data.points, data.points]),
            np.concatenate([data.labels, data.labels]),
        )
        a = sweep(data, 12, bandwidth_override=0.4)
        b = sweep(doubled, 12, bandwidth_override=0.4)
        for ra, rb in zip(a, b):
            assert ra.cip == pytest.approx(rb.cip, rel=1e-9)
            assert ra.overlap == pytest.approx(rb.overlap, abs=1e-9)

    def test_translation_invariance(self, rng):
        data = gaussian_clouds(rng, (0, 0), (1.2, 0.8), 0.6, 40)
        shifted = LabeledDataset.from_arrays(data.points + [31.0, -17.0], data.labels)
        a = sweep(data, 16)
        b = sweep(shifted, 16)
        for ra, rb in zip(a, b):
            for field in ("cip", "h2x", "dcs", "hinge", "linear01", "overlap"):
                assert getattr(ra, field) == pytest.approx(
                    getattr(rb, field), rel=1e-9, abs=1e-9
                )

    def test_rotation_shifts_curves(self, rng):
        n = 24
        shift = 5
        data = gaussian_clouds(rng, (0, 0), (1.5, 0.3), 0.5, 50)
        phi = shift * math.pi / n
        rotation = np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        rotated = LabeledDataset.from_arrays(data.points @ rotation.T, data.labels)
        base = [record.cip for record in sweep(data, n)]
        moved = [record.cip for record in sweep(rotated, n)]
        np.testing.assert_allclose(moved, np.roll(base, shift), rtol=1e-9)

    def test_reruns_identical_whatever_melc_threads(self, rng, monkeypatch):
        def values(records):
            return [
                (r.angle, r.direction.components.tolist(), *dataclasses.astuple(r)[2:])
                for r in records
            ]

        data = gaussian_clouds(rng, (0, 0), (2, 2), 1.0, 30)
        first = values(sweep(data, 8))
        assert values(sweep(data, 8)) == first
        # melc does not read MELC_THREADS, whatever its value.
        monkeypatch.setenv("MELC_THREADS", "2")
        assert values(sweep(data, 8)) == first
        monkeypatch.setenv("MELC_THREADS", "not-a-number")
        assert values(sweep(data, 8)) == first

    def test_two_densities_and_three_pair_sums_per_angle(self, rng, monkeypatch):
        # The overlap evaluates the pair's two densities on its pair grid;
        # cip and both self-integrals come from Fourier coefficients.
        data = gaussian_clouds(rng, (0, 0), (2, 2), 1.0, 1000)
        computed, sums = [], []
        binned, spectral = kde._binned_density, kde._spectral_pair_integral

        def recording(f, grid):
            computed.append((f, grid[0], grid[-1], grid.size))
            return binned(f, grid)

        def recording_sum(f, g, var_sum):
            sums.append(spectral(f, g, var_sum))
            return sums[-1]

        monkeypatch.setattr(kde, "_binned_density", recording)
        monkeypatch.setattr(kde, "_spectral_pair_integral", recording_sum)
        sweep(data, 12)
        assert len(computed) == 2 * 12
        assert len({(id(f), *grid) for f, *grid in computed}) == len(computed)
        assert len(sums) == 3 * 12
        assert None not in sums

    def test_requires_2d(self, rng):
        points = rng.normal(size=(10, 3))
        labels = np.array([-1, 1] * 5)
        data = LabeledDataset.from_arrays(points, labels)
        with pytest.raises(ValueError, match="2-D"):
            sweep(data, 8)

    def test_melc_direction_matches_sweep(self, rng):
        data = gaussian_clouds(rng, (0, 0), (2, 1), 0.7, 50)
        records = sweep(data, 36)
        angle, direction = melc_direction(data, 36)
        best = select_best(records, "h2x", minimize=False)
        assert angle == best.angle
        np.testing.assert_array_equal(direction.components, best.direction.components)


def hand_pairs(data, n, sigma):
    """(angle, direction, minus, plus, pair) per grid angle, the pair built by
    hand: one shared bandwidth, or the Silverman rule of each class."""
    out = []
    for angle, direction in angle_grid(n):
        minus, plus = project(data, direction)
        if sigma is None:
            pair = projected_pair(
                minus, plus, silverman_bandwidth(minus), silverman_bandwidth(plus)
            )
        else:
            pair = projected_pair(minus, plus, sigma, sigma)
        out.append((angle, direction, minus, plus, pair))
    return out


@pytest.mark.parametrize("sigma", [None, 0.3])
class TestBandwidthOverride:
    def test_sweep_matches_hand_built_pairs(self, rng, sigma):
        data = gaussian_clouds(rng, (0, 0), (1.5, 1), 0.8, 40)
        records = sweep(data, 12, bandwidth_override=sigma)
        for record, (angle, _, _, _, pair) in zip(records, hand_pairs(data, 12, sigma)):
            h2x = -math.log(cip(pair))
            assert record.angle == angle
            assert record.cip == cip(pair)
            h_minus, h_plus = renyi_entropy(pair.f_minus), renyi_entropy(pair.f_plus)
            assert record.dcs == 2.0 * h2x - h_minus - h_plus
            assert record.overlap == overlap_integral(pair)

    def test_melc_direction_matches_hand_built_pairs(self, rng, sigma):
        data = gaussian_clouds(rng, (0, 0), (2, -1), 0.8, 40)
        pairs = hand_pairs(data, 24, sigma)
        best = int(np.argmin([cip(pair) for *_, pair in pairs]))
        angle, direction = melc_direction(data, 24, bandwidth_override=sigma)
        assert angle == pairs[best][0]
        np.testing.assert_array_equal(direction.components, pairs[best][1].components)


# The module, not the function that ``melc`` exports under the same name.
sweep_module = importlib.import_module("melc.sweep")


@st.composite
def direction_inputs(draw, sigmas=(None, 0.3, 1e-3)):
    """A 2-D dataset, an angle count and a bandwidth for the direction scan.

    Each class has 2 to 3000 points (log-uniform): a rotated anisotropic
    Gaussian, or a row of up to four clusters along x alternating with the
    other class's (four-line-like). The classes may be pulled 10 to 40 apart,
    which leaves many angles below the screen's absolute error floor, and
    their points may be drawn with repetition from a few distinct ones. The
    bandwidth is drawn from ``sigmas``: Silverman (None), 0.3 (the lattice
    screen), or 1e-3 and 1e-5 (a lattice too fine to build)."""
    sizes = [int(round(2.0 ** draw(st.floats(1.0, math.log2(3000.0))))) for _ in range(2)]
    layout = draw(st.sampled_from(["gauss", "lines"]))
    separated = draw(st.booleans())
    duplicated = draw(st.booleans())
    n = draw(st.integers(2, 720))
    sigma = draw(st.sampled_from(sigmas))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = []
    for label, size in enumerate(sizes):
        if layout == "gauss":
            theta = rng.uniform(0.0, math.pi)
            rotation = np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
            points = rng.standard_normal((size, 2)) * rng.uniform(0.05, 3.0, 2) @ rotation.T
            points += rng.uniform(-2.0, 2.0, 2)
        else:
            x = 3.0 * (2 * rng.integers(0, 2, size) + label)
            points = np.column_stack([x + rng.normal(0.0, 0.4, size), rng.normal(0.0, 0.3, size)])
        if duplicated:
            points = points[rng.integers(0, max(2, size // 8), size) % size]
        classes.append(points)
    if separated:
        classes[1] += rng.uniform(10.0, 40.0) * np.array([1.0, rng.uniform(-0.5, 0.5)])
    labels = np.concatenate([np.full(sizes[0], -1), np.full(sizes[1], 1)])
    return LabeledDataset.from_arrays(np.vstack(classes), labels), n, sigma


def scan_values(data, n, sigma):
    """cip at every grid angle, each evaluated on its own."""
    return [
        cip(projected_pair(*project(data, direction), sigma, sigma))
        for _, direction in angle_grid(n)
    ]


class TestScreenedDirection:
    """``melc_direction`` screens all angles on a lattice and evaluates only
    the candidates in closed form; it must return what a scan of every angle
    returns."""

    @settings(max_examples=40, deadline=None)
    @given(direction_inputs())
    def test_returns_the_scan_argmin(self, inputs):
        data, n, sigma = inputs
        grid = angle_grid(n)
        try:
            values = scan_values(data, n, sigma)
        except DegenerateBandwidthError as error:
            with pytest.raises(DegenerateBandwidthError, match=f"^{error}$"):
                melc_direction(data, n, bandwidth_override=sigma)
            return
        best = int(np.argmin(values))
        angle, direction = melc_direction(data, n, bandwidth_override=sigma)
        assert angle == grid[best][0]
        np.testing.assert_array_equal(direction.components, grid[best][1].components)

    @settings(max_examples=30, deadline=None)
    @given(direction_inputs(sigmas=(None, 0.3)))
    def test_estimates_within_their_bounds(self, inputs):
        data, n, sigma = inputs
        directions = np.array([direction.components for _, direction in angle_grid(n)])
        screen = kde._lattice_cip_screen(*data.class_points(), directions, sigma)
        if screen is None:  # a zero projected spread, or a lattice too fine
            return
        values = np.array(scan_values(data, n, sigma))
        assert np.all(screen.cheap <= values)
        estimates, bounds = screen.tight(range(n))
        assert np.all(np.abs(estimates - values) <= bounds)

    def test_recheck_evaluates_few_angles(self, rng, monkeypatch):
        data = gaussian_clouds(rng, (0, 0), (2, 1), 0.8, 300)
        calls = []
        monkeypatch.setattr(sweep_module, "cip", lambda pair: calls.append(pair) or cip(pair))
        angle, _ = melc_direction(data, 180)
        assert 1 <= len(calls) <= 18
        assert angle == angle_grid(180)[int(np.argmin(scan_values(data, 180, None)))][0]

    @pytest.mark.parametrize("sigma", [None, 0.3])
    def test_failed_recheck_scans_every_angle(self, rng, monkeypatch, sigma):
        data = gaussian_clouds(rng, (0, 0), (2, 1), 0.8, 300)
        expected = melc_direction(data, 180, bandwidth_override=sigma)
        counted = record(monkeypatch, sweep_module, "_count_cip_bound")
        bounded = record(monkeypatch, sweep_module, "_cip_lower_bound")
        monkeypatch.setattr(kde, "_SCREEN_MARGIN", 0.0)  # bounds below every error
        angle, direction = melc_direction(data, 180, bandwidth_override=sigma)
        # The scan falls back to a pair of every angle, in angle order, and
        # takes the binned Jensen bound only where the counts leave it open.
        assert len(counted) == 180
        for (f, g), (_, grid_direction) in zip(counted, angle_grid(180)):
            expected_minus, expected_plus = project(data, grid_direction)
            np.testing.assert_array_equal(f.centers, expected_minus)
            np.testing.assert_array_equal(g.centers, expected_plus)
        assert 1 <= len(bounded) < 180
        assert angle == expected[0]
        np.testing.assert_array_equal(direction.components, expected[1].components)

    def test_zero_spread_class_raises_as_the_scan(self, rng):
        minus = np.column_stack([np.zeros(50), rng.standard_normal(50)])
        data = LabeledDataset.from_arrays(
            np.vstack([minus, rng.standard_normal((60, 2)) + 1.0]), [-1] * 50 + [1] * 60
        )
        message = "^degenerate bandwidth: zero standard deviation$"
        with pytest.raises(DegenerateBandwidthError, match=message):
            melc_direction(data, 36)

    def test_zero_bounds_rise_to_the_closest_pair(self, monkeypatch):
        # At sigma 0.02 most four-line potentials are below the screen's
        # absolute error, so its bounds are 0 there; the closest cross
        # pair's term prunes those angles (238 of 360 evaluated without it).
        data = generate(DatasetSpec("four-line", 7, 300))
        values = scan_values(data, 360, 0.02)
        calls = []
        monkeypatch.setattr(sweep_module, "cip", lambda pair: calls.append(pair) or cip(pair))
        angle, direction = melc_direction(data, 360, bandwidth_override=0.02)
        assert 1 <= len(calls) <= 10
        best = int(np.argmin(values))
        assert angle == angle_grid(360)[best][0]
        np.testing.assert_array_equal(direction.components, angle_grid(360)[best][1].components)

    @pytest.mark.parametrize("value", [0.0, 0.3])
    def test_constant_class_raises_at_any_offset(self, rng, value):
        # At angle 0 the minus class projects to fifty copies of `value`,
        # whose std is 0 or the rounding of their mean.
        minus = np.column_stack([np.full(50, value), rng.standard_normal(50)])
        data = LabeledDataset.from_arrays(
            np.vstack([minus, rng.standard_normal((50, 2)) + [2.0, 0.5]]), [-1] * 50 + [1] * 50
        )
        message = "^degenerate bandwidth: zero standard deviation$"
        with pytest.raises(DegenerateBandwidthError, match=message):
            melc_direction(data, 36)

    def test_one_point_class(self, rng):
        points = np.vstack([rng.standard_normal((1, 2)), rng.standard_normal((60, 2)) + 1.0])
        data = LabeledDataset.from_arrays(points, [-1] + [1] * 60)
        message = "^degenerate bandwidth: need at least 2 samples$"
        with pytest.raises(DegenerateBandwidthError, match=message):
            melc_direction(data, 36)
        best = angle_grid(36)[int(np.argmin(scan_values(data, 36, 0.3)))]
        angle, direction = melc_direction(data, 36, bandwidth_override=0.3)
        assert angle == best[0]
        np.testing.assert_array_equal(direction.components, best[1].components)

    def test_memory_within_1mb_of_the_scan(self, monkeypatch):
        rng = np.random.default_rng(600_000)
        data = gaussian_clouds(rng, (0, 0), (2, 2), 1.0, 2000)
        directions = np.array([direction.components for _, direction in angle_grid(720)])
        assert kde._lattice_cip_screen(*data.class_points(), directions) is not None
        # A scan of every angle holds one angle's pair and sum at a time.
        one_angle = max(
            traced_peak(lambda: cip(projected_pair(*project(data, direction))))
            for _, direction in angle_grid(720)[::90]
        )
        assert traced_peak(lambda: melc_direction(data, 720)) <= one_angle + 1_000_000
        monkeypatch.setattr(kde, "_SCREEN_MAX_NODES", 0)  # the binned bounds
        assert traced_peak(lambda: melc_direction(data, 720)) <= one_angle + 1_000_000


def record(monkeypatch, module, name):
    """Replace ``module.name`` with a stand-in that records its arguments."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def traced_peak(run):
    """Peak traced allocation of run(), in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mirrored_classes(seed, scale):
    """Two classes of 144 points, each 72 Gaussian points and their mirror
    images in x, ordered so that a mirrored projection permutes the halves.
    Every projection at angle pi - t is then the one at t permuted, and
    where the directions are exact mirrors the potentials, and Silverman's
    standard deviations of 2 x 72 points, are bit for bit equal."""
    rng = np.random.default_rng(seed)
    classes = []
    for _ in range(2):
        points = rng.standard_normal((72, 2)) * rng.uniform(0.2, 1.5, 2) + rng.uniform(-2, 2, 2)
        classes.append(np.vstack([points, points * [-1.0, 1.0]]) * scale)
    return LabeledDataset.from_arrays(np.vstack(classes), np.repeat([-1, 1], 144))


class TestBinnedBoundDirection:
    """``melc_direction`` where the lattice screen does not apply: angles are
    evaluated best first from binned lower bounds, and the answer must be
    the first-index argmin of a scan of every angle."""

    @settings(max_examples=30, deadline=None)
    @given(direction_inputs(sigmas=(None, 1e-3, 1e-5)))
    def test_returns_the_scan_argmin(self, inputs):
        data, n, sigma = inputs
        grid = angle_grid(n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kde, "_SCREEN_MAX_NODES", 0)
            try:
                values = scan_values(data, n, sigma)
            except DegenerateBandwidthError as error:
                with pytest.raises(DegenerateBandwidthError, match=f"^{error}$"):
                    melc_direction(data, n, bandwidth_override=sigma)
                return
            best = int(np.argmin(values))
            angle, direction = melc_direction(data, n, bandwidth_override=sigma)
        assert angle == grid[best][0]
        np.testing.assert_array_equal(direction.components, grid[best][1].components)

    @pytest.mark.parametrize("sigma, scale", [(None, 1.0), (1e-3, 0.02), (1e-5, 2e-4)])
    def test_mirror_tie_goes_to_the_first_angle(self, monkeypatch, sigma, scale):
        data = mirrored_classes(22, scale)
        values = scan_values(data, 12, sigma)
        # Angles 2 and 10 (30 and 150 degrees) tie bit for bit at the minimum.
        assert values[2] == values[10] == min(values)
        assert values.index(min(values)) == 2
        calls = []
        monkeypatch.setattr(kde, "_SCREEN_MAX_NODES", 0)
        monkeypatch.setattr(sweep_module, "cip", lambda pair: calls.append(pair) or cip(pair))
        angle, direction = melc_direction(data, 12, bandwidth_override=sigma)
        assert angle == angle_grid(12)[2][0]
        np.testing.assert_array_equal(direction.components, angle_grid(12)[2][1].components)
        assert 2 <= len(calls) < 12  # both tied angles, not every angle

    def test_degenerate_classes_raise_as_the_scan(self, rng, monkeypatch):
        monkeypatch.setattr(kde, "_SCREEN_MAX_NODES", 0)
        other = rng.standard_normal((60, 2)) + 1.0
        zero_spread = np.column_stack([np.zeros(50), rng.standard_normal(50)])
        constant = np.column_stack([np.full(50, 0.3), rng.standard_normal(50)])
        for minus, message in [
            (zero_spread, "zero standard deviation"),
            (constant, "zero standard deviation"),
            (rng.standard_normal((1, 2)), "need at least 2 samples"),
        ]:
            data = LabeledDataset.from_arrays(
                np.vstack([minus, other]), [-1] * len(minus) + [1] * 60
            )
            with pytest.raises(DegenerateBandwidthError, match=f"^degenerate bandwidth: {message}$"):
                melc_direction(data, 36)

    @pytest.mark.parametrize("sigma", [1e-3, 1e-5])
    def test_binned_fallback_memory_within_1mb_of_one_angle(self, sigma):
        rng = np.random.default_rng(600_001)
        data = gaussian_clouds(rng, (0, 0), (2, 2), 1.0, 20000)
        directions = np.array([direction.components for _, direction in angle_grid(360)])
        assert kde._lattice_cip_screen(*data.class_points(), directions, sigma) is None
        one_angle = max(
            traced_peak(lambda: cip(projected_pair(*project(data, direction), sigma, sigma)))
            for _, direction in angle_grid(360)[::90]
        )
        peak = traced_peak(lambda: melc_direction(data, 360, bandwidth_override=sigma))
        assert peak <= one_angle + 1_000_000


def tight_bounds(data, n, sigma):
    """Every angle's tight lower bound, as ``melc_direction`` refines it: the
    screen's estimate minus bound where the screen applies, else the binned
    Jensen bound, each raised to the closest pair's term where at most 0."""
    directions = np.array([direction.components for _, direction in angle_grid(n)])
    screen = kde._lattice_cip_screen(*data.class_points(), directions, sigma)
    pairs = [
        projected_pair(*project(data, direction), sigma, sigma) for _, direction in angle_grid(n)
    ]
    if screen is None:
        lower = [kde._cip_lower_bound(p.f_minus, p.f_plus) for p in pairs]
    else:
        estimates, bounds = screen.tight(range(n))
        lower = estimates - bounds
    return [
        bound if bound > 0.0 else kde._closest_pair_bound(p.f_minus, p.f_plus)
        for bound, p in zip(lower, pairs)
    ]


def every_angle_bound_scan(lower, values):
    """(first argmin, evaluations) of a best-first scan from a tight bound
    at every angle, in ascending order of (bound, index)."""
    best, best_k, evaluated = math.inf, None, 0
    for k in np.argsort(np.maximum(lower, 0.0), kind="stable"):
        if best == 0.0 or max(lower[k], 0.0) > best * (1.0 + sweep_module._BOUND_SLACK):
            break
        evaluated += 1
        if values[k] < best or (values[k] == best and k < best_k):
            best, best_k = values[k], int(k)
    return best_k, evaluated


class TwoTierRecord:
    """Recording stand-ins for both tight tiers and for ``cip``."""

    def __init__(self, monkeypatch):
        self.refined = []  # the screen's, as angle indices
        self.jensen = record(monkeypatch, sweep_module, "_cip_lower_bound")
        self.evaluated = []  # (pair, value)

        def evaluate(pair):
            self.evaluated.append((pair, cip(pair)))
            return self.evaluated[-1][1]

        monkeypatch.setattr(sweep_module, "cip", evaluate)
        tight = kde._CipScreen.tight

        def recording(screen, ks):
            self.refined.extend(int(k) for k in ks)
            return tight(screen, ks)

        monkeypatch.setattr(kde._CipScreen, "tight", recording)

    @staticmethod
    def angles(data, n, minus_projections):
        """The grid index of each minus-class projection."""
        index = {
            hash(project(data, direction)[0].tobytes()): k
            for k, (_, direction) in enumerate(angle_grid(n))
        }
        return [index[hash(minus.tobytes())] for minus in minus_projections]

    def evaluated_angles(self, data, n):
        return self.angles(data, n, [p.f_minus.centers for p, _ in self.evaluated])


class TestTwoTierBounds:
    """``melc_direction`` takes a cheap bound at every angle and a tight one
    only at the angles it pops: it must refine and evaluate few angles, each
    at most once, and return the full scan's first-index argmin."""

    def test_screen_refines_at_most_two_batches(self, monkeypatch):
        data = generate(DatasetSpec("two-gauss", 3, 2000))
        values = scan_values(data, 720, None)
        calls = TwoTierRecord(monkeypatch)
        angle, direction = melc_direction(data, 720)
        assert 1 <= len(calls.refined) <= 32
        assert len(set(calls.refined)) == len(calls.refined)
        assert calls.jensen == []
        best = int(np.argmin(values))
        assert angle == angle_grid(720)[best][0]
        np.testing.assert_array_equal(direction.components, angle_grid(720)[best][1].components)

    def test_jensen_bounds_fewer_than_half_the_angles(self, monkeypatch):
        rng = np.random.default_rng(600_001)
        data = gaussian_clouds(rng, (0, 0), (2, 2), 1.0, 20000)
        calls = TwoTierRecord(monkeypatch)
        angle, _ = melc_direction(data, 360, bandwidth_override=1e-3)
        assert calls.refined == []
        assert 1 <= len(calls.jensen) < 180
        refined = calls.angles(data, 360, [f.centers for f, _ in calls.jensen])
        assert len(set(refined)) == len(refined)
        evaluated = calls.evaluated_angles(data, 360)
        assert len(set(evaluated)) == len(evaluated)
        assert set(evaluated) <= set(refined)
        best = int(np.argmin([value for _, value in calls.evaluated]))
        assert angle == angle_grid(360)[evaluated[best]][0]

    @pytest.mark.parametrize(
        "case, sigma, screened",
        [
            ("gauss", None, True),
            ("gauss", 1e-3, False),
            ("four-line", 0.02, True),
            ("four-line", 1e-3, False),
            ("mirrored", None, True),
            ("mirrored", None, False),
            ("duplicated", 0.3, True),
            ("duplicated", 1e-3, False),
        ],
    )
    @pytest.mark.parametrize("zero_cheap", [False, True])
    def test_matches_an_every_angle_bound_scan(self, monkeypatch, case, sigma, screened, zero_cheap):
        rng = np.random.default_rng(600_002)
        if case == "gauss":
            data = gaussian_clouds(rng, (0, 0), (2, 1), 0.8, 300)
        elif case == "four-line":
            data = generate(DatasetSpec("four-line", 7, 100))
        else:
            # Angles 2 and 10 of 12 tie bit for bit at the minimum, also
            # with every point three times over.
            data = mirrored_classes(22, 1.0 if sigma != 1e-3 else 0.02)
            if case == "duplicated":
                data = LabeledDataset.from_arrays(np.tile(data.points, (3, 1)), np.tile(data.labels, 3))
        n = 90 if case in ("gauss", "four-line") else 12
        if not screened:
            monkeypatch.setattr(kde, "_SCREEN_MAX_NODES", 0)
        values = scan_values(data, n, sigma)
        if n == 12:
            assert values[2] == values[10] == min(values)
        expected, every_angle_calls = every_angle_bound_scan(tight_bounds(data, n, sigma), values)
        assert expected == int(np.argmin(values))
        if zero_cheap:
            monkeypatch.setattr(sweep_module, "_count_cip_bound", lambda f, g: 0.0)
            screen = kde._lattice_cip_screen

            def zeroed(*args):
                out = screen(*args)
                if out is not None:
                    out.cheap = np.zeros_like(out.cheap)
                return out

            monkeypatch.setattr(sweep_module, "_lattice_cip_screen", zeroed)
        calls = TwoTierRecord(monkeypatch)
        angle, direction = melc_direction(data, n, bandwidth_override=sigma)
        assert angle == angle_grid(n)[expected][0]
        np.testing.assert_array_equal(direction.components, angle_grid(n)[expected][1].components)
        if screened:
            assert calls.jensen == []
            refined = calls.refined
        else:
            assert calls.refined == []
            refined = calls.angles(data, n, [f.centers for f, _ in calls.jensen])
        assert len(set(refined)) == len(refined)
        evaluated = calls.evaluated_angles(data, n)
        assert len(set(evaluated)) == len(evaluated)
        assert 1 <= len(evaluated) <= every_angle_calls


class TestBoundSweep:
    @pytest.mark.parametrize("sigma", [None, 0.3])
    def test_matches_hand_built_rescaled_pairs(self, rng, sigma):
        data = gaussian_clouds(rng, (0, 0), (1.5, 1), 0.8, 40)
        results = bound_sweep(data, 12, bandwidth_override=sigma, tail_k=6.0)
        assert len(results) == 12
        for (angle, result), (expected_angle, _, minus, plus, pair) in zip(
            results, hand_pairs(data, 12, sigma)
        ):
            sigmas = (pair.f_minus.bandwidth, pair.f_plus.bandwidth)
            assert angle == expected_angle
            assert result == bound_check(rescaled_pair(minus, plus, *sigmas, 6.0))
            assert result.holds

    def test_requires_2d_and_both_classes(self, rng):
        flat = LabeledDataset.from_arrays(rng.normal(size=(10, 3)), [-1, 1] * 5)
        with pytest.raises(ValueError, match="2-D"):
            bound_sweep(flat, 8)
        one_class = LabeledDataset.from_arrays(rng.normal(size=(10, 2)), [1] * 10)
        with pytest.raises(ValueError, match="both classes"):
            bound_sweep(one_class, 8)


class TestBoundSummary:
    def test_counts_and_first_smallest_slack(self):
        results = [
            (0.0, BoundCheck(lhs=2.0, rhs=1.5, holds=True)),
            (0.5, BoundCheck(lhs=math.inf, rhs=math.inf, holds=True, separable=True)),
            (1.0, BoundCheck(lhs=1.0, rhs=1.25, holds=False)),
            (1.5, BoundCheck(lhs=2.0, rhs=2.25, holds=False)),
        ]
        assert results[1][1].slack == math.inf
        assert bound_summary(results) == {
            "violations": 2,
            "separable_angles": 1,
            "min_slack": -0.25,
            "min_slack_angle_rad": 1.0,
        }

    def test_all_separable_has_no_smallest_slack(self):
        separable = BoundCheck(lhs=math.inf, rhs=math.inf, holds=True, separable=True)
        assert bound_summary([(0.0, separable), (1.0, separable)]) == {
            "violations": 0,
            "separable_angles": 2,
            "min_slack": None,
            "min_slack_angle_rad": None,
        }


class TestSelectBest:
    def make_record(self, angle, value):
        return SweepRecord(
            angle=angle,
            direction=UnitDirection.from_angle(angle),
            cip=value,
            h2x=-math.log(value),
            dcs=0.0,
            hinge=value,
            hinge_bias=0.0,
            linear01=value,
            overlap=value,
            eaa_risk=value / 2,
        )

    def test_single_record(self):
        record = self.make_record(0.3, 1.0)
        assert select_best([record], "cip", minimize=True) is record

    def test_tie_prefers_smaller_angle(self):
        a = self.make_record(0.1, 2.0)
        b = self.make_record(0.5, 2.0)
        assert select_best([b, a], "cip", minimize=True) is a

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            select_best([], "cip", minimize=True)


class TestRelativeError:
    def test_zero_when_equal(self):
        assert relative_error(0.2, 0.2) == 0.0

    def test_six_percent(self):
        assert relative_error(1.06 * 0.5, 0.5) == pytest.approx(0.06)

    def test_thirty_four_percent(self):
        assert relative_error(1.34 * 0.25, 0.25) == pytest.approx(0.34)

    def test_zero_best_errors(self):
        with pytest.raises(ValueError, match="zero Bayes risk"):
            relative_error(0.2, 0.0)


def sweep_compare(data, n, bandwidth_override=None, name=""):
    """The comparison read off a full sweep: every column at every angle, and
    the entropy angle by ``select_best`` on h2x, whose ties go to the
    smaller angle."""
    records = sweep(data, n, bandwidth_override)
    return comparison_row(records, select_best(records, "h2x", minimize=False), name)


def comparison_row(records, at_entropy, name=""):
    at_hinge = select_best(records, "hinge", minimize=True)
    at_linear = select_best(records, "linear01", minimize=True)
    at_bayes = select_best(records, "eaa_risk", minimize=True)
    e_hinge, hinge_sep = sweep_module._error_and_flag(at_hinge.linear01, at_linear.linear01)
    e_melc, melc_sep = sweep_module._error_and_flag(at_entropy.eaa_risk, at_bayes.eaa_risk)
    return ComparisonRow(
        dataset=name,
        e_hinge=e_hinge,
        cos_hinge=cosine_alignment(at_hinge.direction, at_linear.direction),
        e_melc=e_melc,
        cos_melc=cosine_alignment(at_entropy.direction, at_bayes.direction),
        hinge_separable=hinge_sep,
        melc_separable=melc_sep,
    )


def comparison_inputs():
    """(label, data, sigma) parameters: separable and overlapping data at
    the Silverman rule, one wide and one narrow shared bandwidth."""
    rng = np.random.default_rng(515)
    datasets = [
        ("separable", gaussian_clouds(rng, (0, 0), (12, 0), 0.4, 60)),
        ("overlapping", gaussian_clouds(rng, (0, 0), (1.0, 0.5), 1.0, 80)),
        ("four-line", generate(DatasetSpec(name="four-line", seed=7, n_per_component=40))),
        ("four-mixed", generate(DatasetSpec(name="four-mixed", seed=901, n_per_component=40))),
    ]
    return [
        pytest.param(label, data, sigma, id=f"{label}-{sigma}")
        for sigma in (None, 0.02, 1e-3)
        for label, data in datasets
    ]


class TestCompare:
    @pytest.mark.parametrize("label, data, sigma", comparison_inputs())
    def test_matches_the_full_sweep(self, label, data, sigma):
        row = compare(data, 36, bandwidth_override=sigma, dataset_name=label)
        assert row == sweep_compare(data, 36, sigma, name=label)
        # Both regimes occur: four-line separates only under a shared bandwidth.
        separable = label == "separable" or label == "four-line" and sigma is not None
        assert row.melc_separable == separable

    def test_degenerate_class_raises_as_the_sweep(self, rng):
        # A zero x spread degenerates angle 0 only, which the direction scan
        # need not evaluate: the per-angle loop has to raise first.
        other = rng.standard_normal((60, 2)) + 1.0
        zero_spread = np.column_stack([np.zeros(50), rng.standard_normal(50)])
        for minus, message in [
            (zero_spread, "zero standard deviation"),
            (rng.standard_normal((1, 2)), "need at least 2 samples"),
        ]:
            data = LabeledDataset.from_arrays(
                np.vstack([minus, other]), [-1] * len(minus) + [1] * 60
            )
            pattern = f"^degenerate bandwidth: {message}$"
            for run in (sweep_compare, compare):
                with pytest.raises(DegenerateBandwidthError, match=pattern):
                    run(data, 8)

    def test_reads_no_entropy_column(self, monkeypatch):
        data = generate(DatasetSpec(name="two-gauss", seed=42, n_per_component=300))
        expected = sweep_compare(data, 90, name="two")

        def forbidden(*args, **kwargs):
            raise AssertionError("compare evaluated a column it does not compare")

        monkeypatch.setattr(sweep_module, "sweep", forbidden)
        monkeypatch.setattr(sweep_module, "renyi_entropy", forbidden)
        monkeypatch.setattr(objectives, "renyi_entropy", forbidden)
        monkeypatch.setattr(objectives, "self_integral", forbidden)
        monkeypatch.setattr(kde, "self_integral", forbidden)
        calls = []
        monkeypatch.setattr(sweep_module, "cip", lambda pair: calls.append(pair) or cip(pair))
        assert compare(data, 90, dataset_name="two") == expected
        assert 1 <= len(calls) < 90

    def test_h2x_tie_goes_to_the_smaller_cip(self):
        # Angles 3 and 4 of 7 (3 pi / 7 and 4 pi / 7) are mirror images whose
        # directions differ in the last bits, so their potentials differ by a
        # few ulps and round to one h2x.
        data = mirrored_classes(5, 1.0)
        values = scan_values(data, 7, None)
        assert values[4] < values[3] and values[4] == min(values)
        assert -math.log(values[3]) == -math.log(values[4]) == max(-math.log(v) for v in values)
        records = sweep(data, 7)
        assert select_best(records, "h2x", minimize=False) is records[3]
        assert melc_direction(data, 7)[0] == records[4].angle
        row = compare(data, 7)
        # The direction classify trains, not the smaller angle of the h2x tie.
        assert row == comparison_row(records, records[4])
        assert row != sweep_compare(data, 7)

    def test_aligned_separable_dataset(self, rng):
        data = gaussian_clouds(rng, (0, 0), (12, 0), 0.4, 60)
        row = compare(data, 36, dataset_name="aligned")
        assert row.dataset == "aligned"
        assert row.hinge_separable and row.melc_separable
        assert row.e_hinge == pytest.approx(0.0, abs=1e-9)
        assert row.e_melc == pytest.approx(0.0, abs=1e-6)
        assert row.cos_hinge >= 0.99
        assert row.cos_melc >= 0.99

    def test_overlapping_dataset_not_separable(self, rng):
        data = gaussian_clouds(rng, (0, 0), (1.0, 0.5), 1.0, 80)
        row = compare(data, 24)
        assert not row.hinge_separable and not row.melc_separable
        assert row.e_hinge >= 0.0 and row.e_melc >= 0.0
        assert 0.0 <= row.cos_hinge <= 1.0
        assert math.isfinite(row.e_melc)
