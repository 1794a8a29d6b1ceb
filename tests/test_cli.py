import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from melc import kde, risk
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

    def test_rejects_non_2d_without_pca2(self, tmp_path, capsys):
        path = tmp_path / "threed.csv"
        rows = ["1.0,2.0,3.0,1", "0.0,1.0,2.0,0", "2.0,0.0,1.0,1", "1.0,1.0,1.0,0"]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert run(["sweep", "--data", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "melc: error: dataset has dimension 3; pass --pca2 to embed it first\n"

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

    def test_dataset_names_are_quoted_csv_fields(self, tmp_path, two_gauss_csv):
        names = ['a,b.csv', 'say "hi".csv']
        for name in names:
            (tmp_path / name).write_bytes(two_gauss_csv.read_bytes())
        out = tmp_path / "table.csv"
        assert run(["table", "--data", tmp_path / names[0], "--data", tmp_path / names[1],
                    "--data", two_gauss_csv, "--out", out, "--angles", "12"]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [7] * 4
        assert [row[0] for row in rows[1:]] == names + ["two.csv"]
        assert rows[1][1:] == rows[2][1:] == rows[3][1:]
        # Names that need no quoting are written as before.
        assert out.read_text().splitlines()[3] == ",".join(rows[3])

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

    def test_zero_training_error_below_the_grid_step(self, tmp_path):
        # At sigma 1e-5 the default grid's step is about 150 bandwidths, and
        # both densities underflow at most nodes.
        train = tmp_path / "train.csv"
        assert run(["datagen", "--name", "two-gauss", "--seed", "42", "--n", "200",
                    "--out", train]) == 0
        out = tmp_path / "pred.csv"
        assert run(["classify", "--train", train, "--test", train, "--out", out,
                    "--angles", "360", "--sigma", "1e-5"]) == 0
        assert json.loads((tmp_path / "pred.json").read_text())["balanced_error"] == 0.0

    def test_one_prediction_per_row(self, tmp_path, two_gauss_csv):
        out = tmp_path / "pred.csv"
        assert run(["classify", "--train", two_gauss_csv, "--test", two_gauss_csv,
                    "--out", out, "--angles", "36"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 121  # header + 120 test rows
        assert set(lines[1:]) <= {"+1", "-1"}


FIXTURE = Path(__file__).parent / "data" / "classify_two_gauss_43_44.json"


class TestClassifyRegression:
    """Seeded classify runs against recorded outputs: two-gauss seed 43 to
    train, seed 44 to test, 2000 points a class, 720 angles. The Silverman
    entry was recorded with the all-direct threshold scan and kde_eval
    bisection; the sigma 1e-3 entry with the centers and their adjacent
    midpoints as extra candidates of the all-direct scan."""

    @pytest.mark.parametrize("case, sigma", [("silverman", None), ("sigma_1e-3", "0.001")])
    def test_matches_recorded_outputs(self, tmp_path, case, sigma, capsys):
        files = []
        for seed in (43, 44):
            path = tmp_path / f"two-gauss-{seed}.csv"
            assert run(["datagen", "--name", "two-gauss", "--seed", seed, "--n", 2000,
                        "--out", path]) == 0
            files.append(path)
        out = tmp_path / f"{case}.csv"
        argv = ["classify", "--train", files[0], "--test", files[1], "--out", out,
                "--angles", 720]
        assert run(argv + (["--sigma", sigma] if sigma else [])) == 0
        capsys.readouterr()
        side = json.loads(out.with_suffix(".json").read_text())
        labels = out.read_text().split()[1:]

        def fmt(value):
            return f"{value:.12g}"

        want = json.loads(FIXTURE.read_text())[case]
        assert fmt(side["angle_rad"]) == want["angle_rad"]
        assert [fmt(t) for t in side["thresholds"]] == want["thresholds"]
        assert side["leftmost_sign"] == want["leftmost_sign"]
        assert [fmt(b) for b in side["bandwidths"]] == want["bandwidths"]
        assert fmt(side["balanced_error"]) == want["balanced_error"]
        assert "".join("+" if label == "+1" else "-" for label in labels) == want["predictions"]


class TestNarrowTrainingError:
    """At narrow bandwidths the rule sign(f_plus - f_minus) separates the
    training set, also where two crossings share a grid cell: two-gauss
    seed 7, 300 points a class, trained and tested on the same file. With
    signs read only at the grid nodes it misclassified one point of a class
    (balanced error 0.0016667)."""

    @pytest.mark.parametrize("sigma", ["1e-5", "1e-3"])
    def test_trains_to_zero_error(self, tmp_path, sigma, capsys):
        data = tmp_path / "two-gauss-7.csv"
        assert run(["datagen", "--name", "two-gauss", "--seed", 7, "--n", 300, "--out", data]) == 0
        out = tmp_path / "out.csv"
        assert run(["classify", "--train", data, "--test", data, "--out", out,
                    "--angles", 90, "--sigma", sigma]) == 0
        capsys.readouterr()
        assert json.loads(out.with_suffix(".json").read_text())["balanced_error"] == 0.0


@pytest.fixture(scope="module")
def four_line_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("four-line") / "four-line-7.csv"
    assert run(["datagen", "--name", "four-line", "--seed", 7, "--n", 300, "--out", path]) == 0
    return path


class TestNarrowBandwidthRegression:
    """Seeded sweep, bound-check and table runs at narrow bandwidths, where
    the overlap takes its direct path, against CSVs recorded before that path
    evaluated each density only at some nodes: four-line seed 7, 300 points
    a component, 90 angles."""

    @pytest.mark.parametrize("sigma", ["0.02", "1e-3"])
    @pytest.mark.parametrize("command", ["sweep", "bound-check", "table"])
    def test_matches_recorded_csv(self, tmp_path, four_line_csv, command, sigma, capsys):
        out = tmp_path / "out.csv"
        assert run([command, "--data", four_line_csv, "--out", out, "--angles", 90,
                    "--sigma", sigma]) == 0
        capsys.readouterr()
        name = f"four_line_7_{command.replace('-', '_')}_sigma{sigma}.csv"
        assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


@pytest.fixture(scope="module")
def two_gauss_7_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("two-gauss") / "two-gauss-7.csv"
    assert run(["datagen", "--name", "two-gauss", "--seed", 7, "--n", 500, "--out", path]) == 0
    return path


class TestSilvermanRegression:
    """Seeded sweep and bound-check runs at Silverman bandwidths, where every
    pair sum comes from Fourier coefficients and every overlap from binned
    grid densities, against CSVs recorded before ``cip`` and the overlap
    shared the pair's densities: two-gauss seed 7, 500 points a class, 90
    angles."""

    @pytest.mark.parametrize("command", ["sweep", "bound-check"])
    def test_matches_recorded_csv(self, tmp_path, two_gauss_7_csv, command, capsys, monkeypatch):
        direct = []
        binned = []

        def recording(module, name, calls):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: calls.append(name) or fn(*args))

        recording(kde, "_direct_pair_sum", direct)
        recording(risk, "_grid_minimum", direct)
        recording(risk, "_direct_on_grid", direct)
        recording(kde, "_binned_density", binned)
        spectral = kde._spectral_pair_integral
        sums = []

        def recording_sum(*args):
            sums.append(spectral(*args))
            return sums[-1]

        monkeypatch.setattr(kde, "_spectral_pair_integral", recording_sum)
        out = tmp_path / "out.csv"
        assert run([command, "--data", two_gauss_7_csv, "--out", out, "--angles", 90]) == 0
        capsys.readouterr()
        assert direct == []
        # Per angle the overlap's two grid densities, and cip (and for
        # sweep both self-integrals) from Fourier coefficients.
        assert len(binned) == 2 * 90
        assert len(sums) == (3 if command == "sweep" else 1) * 90
        assert None not in sums
        name = f"two_gauss_7_{command.replace('-', '_')}_silverman.csv"
        assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


class TestRerunsIdentical:
    """Every output command run twice in one process to the same path gives
    byte-identical CSV, sidecar and stdout, at Silverman bandwidths (the
    lattice screen) and at sigma 1e-3 (the binned bounds)."""

    @pytest.mark.parametrize("sigma", [None, "1e-3"])
    @pytest.mark.parametrize("command", ["sweep", "table", "bound-check", "classify"])
    def test_same_bytes(self, tmp_path, two_gauss_csv, capsys, command, sigma):
        out = tmp_path / "out.csv"
        if command == "classify":
            inputs = ["--train", two_gauss_csv, "--test", two_gauss_csv]
        else:
            inputs = ["--data", two_gauss_csv]
        argv = [command, *inputs, "--out", out, "--angles", 36]
        runs = []
        for _ in range(2):
            capsys.readouterr()
            assert run(argv + (["--sigma", sigma] if sigma else [])) == 0
            sidecar = out.with_suffix(".json")
            runs.append(
                (
                    out.read_bytes(),
                    sidecar.read_bytes() if sidecar.exists() else None,
                    capsys.readouterr(),
                )
            )
        assert runs[0] == runs[1]


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


def write_rows(path, points, labels):
    path.write_text(
        "".join(
            ",".join(repr(float(x)) for x in point) + f",{label}\n"
            for point, label in zip(points, labels)
        )
    )
    return path


class TestClassifyInputErrors:
    """A classify run whose inputs do not fit gives a one-line error and
    writes no file."""

    @pytest.mark.parametrize("test_dim", [2, 4])
    def test_pca2_test_dimension_mismatch(self, tmp_path, rng, capsys, test_dim):
        labels = np.arange(60) % 2
        train = write_rows(tmp_path / "train.csv", rng.normal(size=(60, 3)), labels)
        test = write_rows(tmp_path / "test.csv", rng.normal(size=(60, test_dim)), labels)
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        assert run(["classify", "--train", train, "--test", test, "--out", out,
                    "--angles", 12, "--pca2"]) == 1
        err = capsys.readouterr().err
        assert err == "melc: error: test set dimension does not match the 3-D training set\n"
        assert list(tmp_path.glob("pred.*")) == []

    def test_non_2d_training_set_without_pca2(self, tmp_path, rng, capsys):
        labels = np.arange(60) % 2
        train = write_rows(tmp_path / "train.csv", rng.normal(size=(60, 3)), labels)
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        assert run(["classify", "--train", train, "--test", train, "--out", out,
                    "--angles", 12]) == 1
        err = capsys.readouterr().err
        assert err == "melc: error: training set has dimension 3; pass --pca2 to embed it first\n"
        assert list(tmp_path.glob("pred.*")) == []

    def test_one_class_test_set_leaves_no_output(self, tmp_path, two_gauss_csv, capsys):
        data = load_csv(two_gauss_csv)
        plus = data.labels == 1
        test = write_rows(tmp_path / "plus.csv", data.points[plus], data.labels[plus])
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        assert run(["classify", "--train", two_gauss_csv, "--test", test, "--out", out,
                    "--angles", 12]) == 1
        err = capsys.readouterr().err
        assert err.startswith("melc: error:") and "both classes" in err
        assert err.count("\n") == 1
        assert list(tmp_path.glob("pred.*")) == []


class TestBandwidthFloor:
    """A bandwidth whose square is below the smallest normal float is refused
    in one line that names it; one just above the floor runs clean."""

    @staticmethod
    def inputs(command, data):
        if command == "classify":
            return ["--train", data, "--test", data]
        return ["--data", data]

    @pytest.mark.parametrize("sigma", ["1e-160", "1e-170"])
    @pytest.mark.parametrize("command", ["sweep", "table", "bound-check", "classify"])
    def test_below_the_floor_is_a_one_line_error(
        self, tmp_path, two_gauss_csv, capsys, command, sigma
    ):
        out = tmp_path / "out.csv"
        capsys.readouterr()
        argv = [command, *self.inputs(command, two_gauss_csv), "--out", out]
        assert run([*argv, "--angles", "4", "--sigma", sigma]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"melc: error: bandwidth {sigma} is too small")
        assert err.count("\n") == 1

    def test_oversized_tail_k_is_a_one_line_error(self, tmp_path, two_gauss_csv, capsys):
        # The rescaled bandwidth is about 5e-301.
        capsys.readouterr()
        argv = ["bound-check", "--data", two_gauss_csv, "--out", tmp_path / "b.csv"]
        assert run([*argv, "--angles", "4", "--tail-k", "1e300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("melc: error: bandwidth ") and "too small" in err
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, sigma",
        # bound-check rescales the bandwidth by 0.12 to 0.24 on this input,
        # so its smallest, 1.51e-154, lands just above the floor.
        [("sweep", "1.5e-154"), ("table", "1.5e-154"), ("classify", "1.5e-154"),
         ("bound-check", "1.3e-153")],
    )
    def test_just_above_the_floor_runs_clean(
        self, tmp_path, two_gauss_csv, capsys, command, sigma
    ):
        capsys.readouterr()
        argv = [command, *self.inputs(command, two_gauss_csv), "--out", tmp_path / "out.csv"]
        assert run([*argv, "--angles", "4", "--sigma", sigma]) == 0
        assert capsys.readouterr().err == ""
