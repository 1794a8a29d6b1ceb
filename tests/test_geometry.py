import math

import numpy as np
import pytest

from melc.geometry import LabeledDataset, UnitDirection, cosine_alignment, project


def make_dataset(points, labels):
    return LabeledDataset.from_arrays(points, labels)


class TestLabeledDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            make_dataset([[0.0, 1.0]], [2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_dataset(np.empty((0, 2)), [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            make_dataset([[0.0, 1.0], [1.0, 0.0]], [1])

    def test_class_split_preserves_order(self):
        data = make_dataset([[0, 1], [2, 3], [4, 5], [6, 7]], [1, -1, 1, -1])
        minus, plus = data.class_points()
        np.testing.assert_array_equal(minus, [[2, 3], [6, 7]])
        np.testing.assert_array_equal(plus, [[0, 1], [4, 5]])
        assert data.class_counts() == (2, 2)


class TestUnitDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit norm"):
            UnitDirection(np.array([1.0, 1.0]))

    def test_from_vector_normalizes(self):
        v = UnitDirection.from_vector([3.0, 4.0])
        np.testing.assert_allclose(v.components, [0.6, 0.8])

    def test_from_vector_rejects_zero(self):
        with pytest.raises(ValueError):
            UnitDirection.from_vector([0.0, 0.0])

    def test_from_angle(self):
        v = UnitDirection.from_angle(math.pi / 2)
        np.testing.assert_allclose(v.components, [0.0, 1.0], atol=1e-15)


class TestProject:
    def test_axis_projection(self):
        data = make_dataset([[1, 0], [0, 1]], [-1, 1])
        minus, plus = project(data, UnitDirection.from_angle(0.0))
        np.testing.assert_allclose(minus, [1.0])
        np.testing.assert_allclose(plus, [0.0])

    def test_projection_onto_own_direction_gives_norm(self):
        data = make_dataset([[3.0, 4.0]], [1])
        minus, plus = project(data, UnitDirection(np.array([0.6, 0.8])))
        assert minus.size == 0
        np.testing.assert_allclose(plus, [5.0])

    def test_negated_direction_negates_output(self, rng):
        points = rng.normal(size=(20, 2))
        labels = np.where(rng.random(20) < 0.5, -1, 1)
        labels[0], labels[1] = -1, 1
        data = make_dataset(points, labels)
        up = UnitDirection(np.array([0.0, 1.0]))
        down = UnitDirection(np.array([0.0, -1.0]))
        for a, b in zip(project(data, up), project(data, down)):
            np.testing.assert_allclose(a, -b)

    def test_linearity_in_the_point(self, rng):
        v = UnitDirection.from_vector(rng.normal(size=3))
        x = rng.normal(size=3)
        for alpha in (-2.0, 0.5, 3.0):
            data = make_dataset([alpha * x], [1])
            _, plus = project(data, v)
            np.testing.assert_allclose(plus[0], alpha * float(v.components @ x))

    def test_dimension_mismatch(self):
        data = make_dataset([[1.0, 2.0, 3.0]], [1])
        with pytest.raises(ValueError, match="dimension mismatch"):
            project(data, UnitDirection.from_angle(0.0))


class TestCosineAlignment:
    def test_equal_directions(self):
        v = UnitDirection.from_angle(0.3)
        assert cosine_alignment(v, v) == pytest.approx(1.0)

    def test_orthogonal_directions(self):
        a = UnitDirection.from_angle(0.3)
        b = UnitDirection.from_angle(0.3 + math.pi / 2)
        assert cosine_alignment(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_negation_invariance(self, rng):
        for _ in range(20):
            a = UnitDirection.from_vector(rng.normal(size=4))
            b = UnitDirection.from_vector(rng.normal(size=4))
            minus_a = UnitDirection(-a.components)
            assert cosine_alignment(a, b) == pytest.approx(cosine_alignment(b, a))
            assert cosine_alignment(minus_a, b) == pytest.approx(
                cosine_alignment(a, b)
            )

    def test_opposite_direction_aligns(self):
        v = UnitDirection.from_angle(1.0)
        w = UnitDirection(-v.components)
        assert cosine_alignment(v, w) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        a = UnitDirection.from_angle(0.0)
        b = UnitDirection.from_vector([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_alignment(a, b)

