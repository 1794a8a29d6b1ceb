import numpy as np
import pytest

from melc.datasets import (
    DATASET_NAMES,
    DatasetSpec,
    generate,
    load_csv,
    load_libsvm,
    pca_top2,
    save_csv,
    save_libsvm,
)
from melc.geometry import LabeledDataset


class TestGenerate:
    def test_deterministic(self):
        spec = DatasetSpec(name="two-gauss", seed=12345, n_per_component=50)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shapes_and_labels(self):
        data = generate(DatasetSpec(name="four-mixed", seed=1, n_per_component=10))
        assert data.points.shape == (40, 2)
        assert data.class_counts() == (20, 20)

    def test_two_gauss_means_converge(self):
        data = generate(DatasetSpec(name="two-gauss", seed=9, n_per_component=100_000))
        minus, plus = data.class_points()
        np.testing.assert_allclose(minus.mean(axis=0), [0.0, 0.0], atol=0.02)
        np.testing.assert_allclose(plus.mean(axis=0), [2.0, 2.0], atol=0.02)

    def test_four_line_separates_along_x_at_small_bandwidth(self):
        from melc.geometry import UnitDirection
        from melc.risk import eaa_bayes_risk_for_direction

        data = generate(DatasetSpec(name="four-line", seed=3, n_per_component=100))
        estimate = eaa_bayes_risk_for_direction(
            data, UnitDirection.from_angle(0.0), bandwidth_override=0.02
        )
        assert estimate.eaa_risk < 1e-9

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="two-gauss"):
            DatasetSpec(name="sombrero", seed=0, n_per_component=10)

    def test_names_exposed(self):
        assert set(DATASET_NAMES) == {"two-gauss", "four-line", "four-mixed"}


class TestLibsvmFormat:
    def test_parse_dense_line(self, tmp_path):
        path = tmp_path / "data.libsvm"
        path.write_text("+1 1:0.5 2:-1\n")
        data = load_libsvm(path)
        np.testing.assert_allclose(data.points, [[0.5, -1.0]])
        np.testing.assert_array_equal(data.labels, [1])

    def test_sparse_fill(self, tmp_path):
        path = tmp_path / "data.libsvm"
        path.write_text("-1 2:3\n")
        data = load_libsvm(path)
        np.testing.assert_allclose(data.points, [[0.0, 3.0]])
        np.testing.assert_array_equal(data.labels, [-1])

    def test_label_mapping(self, tmp_path):
        path = tmp_path / "data.libsvm"
        path.write_text("0 1:1\n2 1:1\n-3 1:1\n")
        data = load_libsvm(path)
        np.testing.assert_array_equal(data.labels, [-1, 1, -1])

    def test_roundtrip(self, tmp_path, rng):
        points = rng.normal(size=(20, 4))
        points[rng.random(points.shape) < 0.3] = 0.0
        points[0, -1] = 1.0  # keep the last column occupied so dim survives
        labels = np.where(rng.random(20) < 0.5, -1, 1)
        data = LabeledDataset.from_arrays(points, labels)
        path = tmp_path / "round.libsvm"
        save_libsvm(data, path)
        loaded = load_libsvm(path)
        np.testing.assert_array_equal(loaded.points, data.points)
        np.testing.assert_array_equal(loaded.labels, data.labels)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("+1 1:0.5\n+1 broken\n")
        with pytest.raises(ValueError, match="line 2"):
            load_libsvm(path)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.libsvm"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_libsvm(path)


class TestCsvFormat:
    def test_parse_with_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5,-1,1\n")
        data = load_csv(path, label_column=2)
        np.testing.assert_allclose(data.points, [[0.5, -1.0]])
        np.testing.assert_array_equal(data.labels, [1])

    def test_zero_one_labels_map(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.labels, [-1, 1])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,label\n1.0,2.0,1\n")
        data = load_csv(path)
        assert data.n_points == 1

    def test_comment_line_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# name=demo seed=1\nx0,x1,label\n1.0,2.0,-1\n")
        data = load_csv(path)
        assert data.n_points == 1

    def test_ragged_row_errors(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,1\n3.0,1\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(path)

    def test_non_numeric_cell_errors(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,1\n3.0,spam,1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path)

    def test_roundtrip_preserves_values(self, tmp_path, rng):
        data = LabeledDataset.from_arrays(
            rng.normal(size=(15, 3)), np.where(rng.random(15) < 0.5, -1, 1)
        )
        path = tmp_path / "round.csv"
        save_csv(data, path, metadata={"name": "demo", "seed": 7})
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.points, data.points)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        assert path.read_text().startswith("# name=demo seed=7\n")


class TestPcaTop2:
    def test_axis_aligned_anisotropic(self, rng):
        coords = rng.standard_normal((500, 2)) * [3.0, 0.5]
        data = LabeledDataset.from_arrays(coords, np.where(rng.random(500) < 0.5, -1, 1))
        embedded, components = pca_top2(data)
        assert abs(components[0] @ [1.0, 0.0]) > 0.99
        assert abs(components[1] @ [0.0, 1.0]) > 0.99

    def test_variance_ordering(self, rng):
        coords = rng.standard_normal((300, 4)) * [1.0, 4.0, 0.3, 2.0]
        data = LabeledDataset.from_arrays(coords, np.where(rng.random(300) < 0.5, -1, 1))
        embedded, _ = pca_top2(data)
        variances = embedded.points.var(axis=0)
        assert variances[0] >= variances[1]

    def test_components_orthonormal(self, rng):
        coords = rng.standard_normal((200, 5)) @ rng.normal(size=(5, 5))
        data = LabeledDataset.from_arrays(coords, np.where(rng.random(200) < 0.5, -1, 1))
        _, components = pca_top2(data)
        np.testing.assert_allclose(np.linalg.norm(components, axis=1), 1.0, atol=1e-9)
        assert abs(components[0] @ components[1]) < 1e-6

    def test_matches_dense_eigendecomposition(self, rng):
        coords = rng.standard_normal((400, 5)) @ rng.normal(size=(5, 5))
        data = LabeledDataset.from_arrays(coords, np.where(rng.random(400) < 0.5, -1, 1))
        _, components = pca_top2(data)
        centered = coords - coords.mean(axis=0)
        cov = centered.T @ centered / centered.shape[0]
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        for rank, component in enumerate(components):
            reference = eigenvectors[:, -1 - rank]
            assert abs(component @ reference) == pytest.approx(1.0, abs=1e-6)

    def test_translation_invariance_up_to_sign(self, rng):
        coords = rng.standard_normal((100, 3)) * [2.0, 1.0, 0.2]
        labels = np.where(rng.random(100) < 0.5, -1, 1)
        a = pca_top2(LabeledDataset.from_arrays(coords, labels))[1]
        b = pca_top2(LabeledDataset.from_arrays(coords + [5.0, -3.0, 11.0], labels))[1]
        for row_a, row_b in zip(a, b):
            assert abs(row_a @ row_b) == pytest.approx(1.0, abs=1e-7)

    def test_needs_three_points(self):
        data = LabeledDataset.from_arrays([[0.0, 1.0], [1.0, 0.0]], [-1, 1])
        with pytest.raises(ValueError):
            pca_top2(data)
