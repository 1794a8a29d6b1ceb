import json
import math

import numpy as np
import pytest

from melc.cli import main
from melc.datasets import load_csv
from melc.sweep import bound_sweep


def run(argv):
    return main([str(a) for a in argv])


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture
def two_gauss_csv(tmp_path):
    path = tmp_path / "two.csv"
    assert run(["datagen", "--name", "two-gauss", "--seed", "42", "--n", "60",
                "--out", path]) == 0
    return path


class TestDatagen:
    def test_row_count_and_metadata(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["datagen", "--name", "two-gauss", "--seed", "42", "--n", "200",
                    "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# name=two-gauss seed=42 n=200")
        assert len(lines) == 402  # metadata + header + 400 rows

    def test_identical_runs_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["datagen", "--name", "four-mixed", "--seed", "7", "--n", "50",
                 "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_name_exits_nonzero_listing_names(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["datagen", "--name", "bogus", "--n", "10",
                 "--out", tmp_path / "x.csv"])
        assert excinfo.value.code != 0
        stderr = capsys.readouterr().err
        assert "two-gauss" in stderr and "four-line" in stderr


class TestSweepCommand:
    def test_csv_and_sidecar(self, tmp_path, two_gauss_csv):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--data", two_gauss_csv, "--out", out,
                    "--angles", "36"]) == 0
        header, rows = read_csv_rows(out)
        assert header == ["angle_rad", "cip", "sqrt_cip", "h2x", "dcs", "hinge",
                          "hinge_bias", "linear01", "overlap", "eaa_risk"]
        assert len(rows) == 36
        cips = [float(row[1]) for row in rows]
        sqrts = [float(row[2]) for row in rows]
        np.testing.assert_allclose(sqrts, np.sqrt(cips), rtol=1e-10)

        sidecar = json.loads((tmp_path / "sweep.json").read_text())
        h2xs = [float(row[3]) for row in rows]
        angles = [float(row[0]) for row in rows]
        best = int(np.argmax(h2xs))
        assert sidecar["max_h2x"]["angle_rad"] == pytest.approx(angles[best], rel=1e-10)

    def test_sidecar_is_strict_json_when_potential_underflows(self, tmp_path):
        # Two clouds 5 apart with spread 0.1 and --sigma 0.01: the CIP is 0.0
        # at every angle, so the best h2x is infinite.
        rng = np.random.default_rng(0)
        minus = rng.normal(size=(50, 2)) * 0.1
        plus = rng.normal(size=(50, 2)) * 0.1 + [5.0, 0.0]
        data = tmp_path / "clouds.csv"
        data.write_text(
            "".join(f"{x},{y},-1\n" for x, y in minus)
            + "".join(f"{x},{y},1\n" for x, y in plus)
        )
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--data", data, "--out", out, "--sigma", "0.01",
                    "--angles", "12"]) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        sidecar = json.loads((tmp_path / "sweep.json").read_text(),
                             parse_constant=refuse)
        assert sidecar["max_h2x"]["h2x"] is None
        assert sidecar["max_h2x"]["separable"] is True
        assert sidecar["min_cip"]["cip"] == 0.0

    def test_reruns_identical(self, tmp_path, two_gauss_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["sweep", "--data", two_gauss_csv, "--out", out, "--angles", "24"])
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_non_2d_without_pca2(self, tmp_path):
        path = tmp_path / "threed.csv"
        rows = ["1.0,2.0,3.0,1", "0.0,1.0,2.0,0", "2.0,0.0,1.0,1", "1.0,1.0,1.0,0"]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "s.csv"
        assert run(["sweep", "--data", path, "--out", out]) == 1

    def test_pca2_embeds_first(self, tmp_path, rng):
        path = tmp_path / "threed.csv"
        points = rng.standard_normal((40, 3)) * [3.0, 1.0, 0.05]
        labels = (np.arange(40) % 2)
        content = "\n".join(
            ",".join(repr(float(x)) for x in point) + f",{label}"
            for point, label in zip(points, labels)
        )
        path.write_text(content + "\n")
        out = tmp_path / "s.csv"
        assert run(["sweep", "--data", path, "--out", out, "--angles", "12",
                    "--pca2"]) == 0
        _, rows = read_csv_rows(out)
        assert len(rows) == 12


class TestTableCommand:
    def test_row_per_dataset_in_order(self, tmp_path, two_gauss_csv):
        mixed = tmp_path / "mixed.csv"
        run(["datagen", "--name", "four-mixed", "--seed", "3", "--n", "40",
             "--out", mixed])
        out = tmp_path / "table.csv"
        assert run(["table", "--data", two_gauss_csv, "--data", mixed,
                    "--out", out, "--angles", "30"]) == 0
        header, rows = read_csv_rows(out)
        assert header == ["dataset", "E_hinge", "cos_hinge", "E_melc", "cos_melc",
                          "hinge_separable", "melc_separable"]
        assert [row[0] for row in rows] == ["two.csv", "mixed.csv"]

    def test_four_line_flags_separable_with_small_sigma(self, tmp_path):
        line = tmp_path / "line.csv"
        run(["datagen", "--name", "four-line", "--seed", "11", "--n", "60",
             "--out", line])
        out = tmp_path / "table.csv"
        assert run(["table", "--data", line, "--out", out, "--angles", "60",
                    "--sigma", "0.02"]) == 0
        _, rows = read_csv_rows(out)
        assert rows[0][6] == "true"  # melc side is numerically separable
        assert float(rows[0][3]) == pytest.approx(0.0, abs=1e-9)


class TestBoundCheckCommand:
    def test_all_angles_hold(self, tmp_path, two_gauss_csv, capsys):
        out = tmp_path / "bound.csv"
        assert run(["bound-check", "--data", two_gauss_csv, "--out", out,
                    "--angles", "24"]) == 0
        header, rows = read_csv_rows(out)
        assert header == ["angle_rad", "lhs", "rhs", "slack", "holds", "separable"]
        assert len(rows) == 24
        assert all(row[4] == "true" for row in rows)
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["violations"] == 0
        assert summary["min_slack"] is not None
        assert summary["min_slack_angle_rad"] is not None

    def test_separable_angles_counted_as_holding(self, tmp_path, capsys):
        line = tmp_path / "line.csv"
        run(["datagen", "--name", "four-line", "--seed", "5", "--n", "50",
             "--out", line])
        out = tmp_path / "bound.csv"
        assert run(["bound-check", "--data", line, "--out", out, "--angles", "24",
                    "--sigma", "0.005"]) == 0
        _, rows = read_csv_rows(out)
        assert any(row[5] == "true" for row in rows)
        assert all(row[4] == "true" for row in rows)

    @pytest.mark.parametrize("sigma", [None, "0.4"])
    def test_rows_are_bound_sweep(self, tmp_path, two_gauss_csv, sigma):
        out = tmp_path / "bound.csv"
        argv = ["bound-check", "--data", two_gauss_csv, "--out", out, "--angles", "18",
                "--tail-k", "6"]
        assert run(argv + (["--sigma", sigma] if sigma else [])) == 0
        _, rows = read_csv_rows(out)
        results = bound_sweep(
            load_csv(two_gauss_csv), 18, None if sigma is None else float(sigma), 6.0
        )
        expected = [
            [f"{v:.12g}" for v in (angle, r.lhs, r.rhs, r.lhs - r.rhs)]
            + [str(r.holds).lower(), str(r.separable).lower()]
            for angle, r in results
        ]
        assert rows == expected


class TestClassifyCommand:
    def test_separable_training_error_zero(self, tmp_path):
        train = tmp_path / "train.csv"
        run(["datagen", "--name", "four-line", "--seed", "2", "--n", "40",
             "--out", train])
        out = tmp_path / "pred.csv"
        assert run(["classify", "--train", train, "--test", train, "--out", out,
                    "--angles", "90", "--sigma", "1e-3"]) == 0
        summary = json.loads((tmp_path / "pred.json").read_text())
        assert summary["balanced_error"] == 0.0
        assert summary["thresholds"]
        assert summary["bandwidths"] == [1e-3, 1e-3]

    def test_one_prediction_per_row(self, tmp_path, two_gauss_csv):
        out = tmp_path / "pred.csv"
        assert run(["classify", "--train", two_gauss_csv, "--test", two_gauss_csv,
                    "--out", out, "--angles", "36"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 121  # header + 120 test rows
        assert set(lines[1:]) <= {"+1", "-1"}


class TestErrorPaths:
    def test_missing_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--data", tmp_path / "nope.csv", "--out", out]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, message",
        [(["--angles", "1"], "--angles"), (["--grid-points", "10"], "--grid-points")],
    )
    @pytest.mark.parametrize("command", ["sweep", "table", "bound-check", "classify"])
    def test_rejects_too_few_angles_or_grid_points(
        self, tmp_path, two_gauss_csv, capsys, command, option, message
    ):
        out = tmp_path / "out.csv"
        if command == "classify":
            inputs = ["--train", two_gauss_csv, "--test", two_gauss_csv]
        else:
            inputs = ["--data", two_gauss_csv]
        capsys.readouterr()
        assert run([command, *inputs, "--out", out, *option]) == 1
        err = capsys.readouterr().err
        assert err.startswith("melc: error:") and message in err
        assert err.count("\n") == 1
        assert not out.exists()
