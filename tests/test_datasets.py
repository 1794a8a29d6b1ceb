import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def csv_reader_oracle(path, label_column=None):
    """The csv.reader loop ``load_csv`` used before it parsed with np.loadtxt."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for lineno, cells in enumerate(csv.reader(handle), start=1):
            if not cells or (cells[0].lstrip().startswith("#")):
                continue
            try:
                row = list(map(float, cells))
            except ValueError:
                if width is None:
                    continue  # header row
                raise ValueError(f"{path}: non-numeric cell on line {lineno}") from None
            if width is None:
                width = len(row)
                if width < 2:
                    raise ValueError(f"{path}: need at least one feature and a label")
            elif len(row) != width:
                raise ValueError(f"{path}: ragged row on line {lineno}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    table = np.asarray(rows)
    column = table.shape[1] - 1 if label_column is None else label_column
    if not 0 <= column < table.shape[1]:
        raise ValueError(f"{path}: label column {column} out of range")
    labels = np.where(table[:, column] <= 0, -1, 1).astype(np.int64)
    points = np.delete(table, column, axis=1)
    return LabeledDataset.from_arrays(points, labels)


def outcome(loader, path, label_column=None):
    """Bit patterns of points and labels, or the error message."""
    try:
        data = loader(path, label_column)
    except ValueError as exc:
        return str(exc)
    return data.points.shape, data.points.tobytes(), data.labels.tobytes()


def number_text(value, style):
    if style == 0:
        return repr(value)
    if style == 1:
        return f"{value:.17g}"
    if style == 2:
        return f"{value:.6e}"
    return f"{value:.3f}"


# Cells as written into a row: a number in several spellings, quoted or with
# blanks around it, or damage that makes the row non-numeric.
cell_forms = st.sampled_from(["plain", "plain", "plain", "quoted", "blanks", "tab", "quoted-blanks"])
damage = st.sampled_from(["word", "empty", "ragged-short", "ragged-long", "hash", "spaces"])


@st.composite
def csv_texts(draw):
    width = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    n_rows = draw(st.integers(1, 12))
    damaged = draw(st.one_of(st.none(), st.integers(0, n_rows - 1)))
    lines = []
    if draw(st.booleans()):
        lines.append("# name=demo seed=1")
    if draw(st.booleans()):
        lines.append(",".join(f"x{j}" for j in range(width - 1)) + ",label")
    if draw(st.booleans()):
        lines.append('"x0","x,1",label')
    for row in range(n_rows):
        values = draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=width,
                max_size=width,
            )
        )
        label = draw(st.sampled_from(["-1", "1", "+1", "0", "0.0", " 1 "]))
        cells = []
        for value in values[:-1] or values[:0]:
            text = number_text(value, draw(st.integers(0, 3)))
            form = draw(cell_forms)
            if form == "quoted":
                text = f'"{text}"'
            elif form == "blanks":
                text = f"  {text} "
            elif form == "tab":
                text = f"\t{text}"
            elif form == "quoted-blanks":
                text = f'" {text}" '
            cells.append(text)
        cells.append(label)
        kind = draw(damage) if row == damaged else None
        if kind == "word":
            cells[draw(st.integers(0, len(cells) - 1))] = "spam"
        elif kind == "empty":
            cells[draw(st.integers(0, len(cells) - 1))] = ""
        elif kind == "ragged-short" and len(cells) > 1:
            cells.pop(0)
        elif kind == "ragged-long":
            cells.append("1.5")
        elif kind == "hash":
            cells[-1] = cells[-1] + " # note"
        lines.append(",".join(cells))
        if kind == "spaces":
            lines.append("   ")
        extra = draw(st.sampled_from([None, None, None, "blank", "comment", "quoted-comment"]))
        if extra == "blank":
            lines.append("")
        elif extra == "comment":
            lines.append("  # between rows, with, commas")
        elif extra == "quoted-comment":
            lines.append('"#quoted",comment')
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ending = draw(st.sampled_from(["", newline, newline + newline]))
    return newline.join(lines) + ending


class TestCsvMatchesCsvReader:
    """``load_csv`` gives the former csv.reader loop's arrays bit for bit, and
    its messages with the same line numbers."""

    CASES = {
        "plain": "1.0,2.0,1\n3.0,4.0,-1\n",
        "header": "x0,x1,label\n1.0,2.0,1\n",
        "two headers": "a,b,c\nx0,x1,label\n1.0,2.0,1\n",
        "comment and header": "# name=demo seed=1\nx0,x1,label\n0.1,0.2,-1\n",
        "blank lines": "\n\nx0,x1,label\n\n1.0,2.0,1\n\n\n3,4,0\n",
        "comment between rows": "1.0,2.0,1\n# note\n3.0,4.0,-1\n",
        "indented comment": "1.0,2.0,1\n   # note, more\n3.0,4.0,-1\n",
        "crlf": "x0,x1,label\r\n1.5,2.5,1\r\n3.5,4.5,0\r\n",
        "cr": "x0,x1,label\r1.5,2.5,1\r3.5,4.5,0\r",
        "quoted cells": '"x0","x1","label"\n"1.25","2.5",1\n"3","4","0"\n',
        "quoted comment": '1,2,1\n"#x",1\n3,4,1\n',
        "blanks around numbers": " 1.0 , 2.0 ,\t1\n\xa03.0\xa0,4.0, -1 \n",
        "zero one labels": "1.0,2.0,0\n3.0,4.0,1\n",
        "python float syntax": "1_000,2,1\ninfinity,-0,0\n",
        "exponents": "1e-320,2.5E+300,1\n-4.9406564584124654e-324,1e400,1\n",
        "width one": "1.0\n2.0\n",
        "width one then ragged": "1.0\n2.0,3.0\n",
        "ragged short": "1.0,2.0,1\n3.0,1\n",
        "ragged long": "1.0,2.0,1\n\n3.0,1,1,1\n",
        "non-numeric": "1.0,2.0,1\n3.0,spam,1\n",
        "empty cell": "x0,x1,label\n1.0,2.0,1\n3.0,,1\n",
        "trailing comma": "1.0,2.0,1\n3.0,2.0,1,\n",
        "spaces line": "1.0,2.0,1\n   \n3.0,2.0,1\n",
        "trailing hash": "1.0,2.0,1 # note\n",
        "quoted comma": '1.0,2.0,1\n"3,5",2.0,1\n',
        "escaped quote": '1.0,2.0,1\n"3""",2.0,1\n',
        "non-numeric before ragged": "1,2,1\n3,x\n",
        "only header": "x0,x1,label\n",
        "only comments": "# a\n# b\n",
        "empty": "",
        "bom": "\ufeff1.0,2.0,1\n3.0,4.0,1\n",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("label_column", [None, 0, 2])
    def test_cases(self, name, label_column, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(self.CASES[name].encode("utf-8"))
        assert outcome(load_csv, path, label_column) == outcome(
            csv_reader_oracle, path, label_column
        )

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(), label_column=st.sampled_from([None, 0, 1]))
    def test_generated_files(self, text, label_column, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path, label_column) == outcome(
            csv_reader_oracle, path, label_column
        )


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

    def test_close_top_eigenvalues(self):
        # The top two covariance eigenvalues lie 1e-6 apart, relatively.
        rng = np.random.default_rng(3)
        n = 400
        scores = rng.standard_normal((n, 4))
        scores -= scores.mean(axis=0)
        scores = np.linalg.qr(scores)[0] * np.sqrt(n)  # centered, identity covariance
        basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        variances = np.array([1.0, 1.0 - 1e-6, 0.3, 0.1])
        coords = (scores * np.sqrt(variances)) @ basis.T + [1.0, -2.0, 3.0, 0.5]
        data = LabeledDataset.from_arrays(coords, np.where(rng.random(n) < 0.5, -1, 1))
        embedded, components = pca_top2(data)
        for rank, component in enumerate(components):
            assert abs(component @ basis[:, rank]) == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(components @ components.T, np.eye(2), atol=1e-12)
        variances_found = embedded.points.var(axis=0)
        assert variances_found[0] > variances_found[1]

    def test_sign_convention(self, rng):
        # Each component's entry of largest magnitude is positive, so the
        # embedding of a point set does not depend on how it is mirrored.
        coords = rng.standard_normal((300, 3)) @ rng.normal(size=(3, 3))
        labels = np.where(rng.random(300) < 0.5, -1, 1)
        _, components = pca_top2(LabeledDataset.from_arrays(coords, labels))
        lead = components[np.arange(2), np.argmax(np.abs(components), axis=1)]
        assert np.all(lead > 0)
        _, mirrored = pca_top2(LabeledDataset.from_arrays(-coords, labels))
        np.testing.assert_allclose(mirrored, components, atol=1e-12)

    def test_needs_three_points(self):
        data = LabeledDataset.from_arrays([[0.0, 1.0], [1.0, 0.0]], [-1, 1])
        with pytest.raises(ValueError):
            pca_top2(data)
