import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melc import kde
from melc.geometry import LabeledDataset, UnitDirection, cosine_alignment, project
from melc.kde import DegenerateBandwidthError, silverman_bandwidth
from melc.objectives import cip, projected_pair, renyi_entropy, rescaled_pair
from melc.risk import bound_check, overlap_integral
from melc.sweep import (
    ComparisonRow,
    SweepRecord,
    angle_grid,
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
    bandwidth is Silverman (None), 0.3 (the lattice screen) or 1e-3 (a
    lattice too fine to build)."""
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
        estimates, bounds = screen
        errors = np.abs(estimates - np.array(scan_values(data, n, sigma)))
        assert np.all(errors <= bounds)

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
        calls = []
        monkeypatch.setattr(sweep_module, "cip", lambda pair: calls.append(pair) or cip(pair))
        monkeypatch.setattr(kde, "_SCREEN_MARGIN", 0.0)  # bounds below every error
        angle, direction = melc_direction(data, 180, bandwidth_override=sigma)
        assert len(calls) > 180  # the candidates, then every angle
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

        def traced_peak():
            tracemalloc.start()
            try:
                melc_direction(data, 720)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        screened = traced_peak()
        monkeypatch.setattr(kde, "_SCREEN_MAX_NODES", 0)  # every angle in closed form
        assert screened <= traced_peak() + 1_000_000


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


class TestCompare:
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
