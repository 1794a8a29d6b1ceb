"""Tests of the benchmark itself: the dense reference, the replays, and the
metric names it promises in BENCHMARK.json."""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from melc import LabeledDataset, sweep  # noqa: E402
from melc.kde import Kde1d, cross_integral, kde_eval  # noqa: E402
from melc.sweep import SWEEP_FIELDS  # noqa: E402

TINY = harness.Workload(
    why="test",
    threads="1",
    files={
        "data": (harness.TWO_GAUSS, 40),
        "test": (harness.TWO_GAUSS, 30),
        "line": (harness.FOUR_LINE, 25),
    },
    commands=(
        harness.Command("sweep", ("data",), 10),
        harness.Command("bound-check", ("data",), 10),
        harness.Command("classify", ("data", "test"), 12, 0.3),
        harness.Command("table", ("line",), 12, 0.02),
    ),
)


# The per-layer metrics of the layer table in bench/README.md.
LAYER_TABLE = [
    *(
        f"{span}.{stat}"
        for span in (
            "objectives.cip",
            "objectives.renyi_entropy",
            "risk.overlap_integral",
            "risk.build_multithreshold_model",
            "risk.classify",
        )
        for stat in ("calls", "busy_s", "p50_ms", "tail_ms")
    ),
    "kde.pairs",
    "kde.pair_rate",
    "risk.grid_kernel_evals",
    "risk.thresholds",
    "regime.rule_mismatch",
    "objectives.best_bias_hinge.busy_s",
    "risk.best_single_threshold_error.busy_s",
    "objectives.rescaled_pair.busy_s",
    "risk.bound_check.busy_s",
    "geometry.project.busy_s",
    "kde.silverman_bandwidth.busy_s",
    "sweep.sweep.self_s",
    "sweep.melc_direction.busy_s",
    "sweep.compare.self_s",
    "parallel.speedup",
    "parallel.efficiency",
    "datasets.load_csv.busy_s",
    "cli.self_s",
    *(f"cli.{command}.angles_per_s" for command in ("sweep", "bound_check", "classify", "table")),
    "regime.tiny_cip_angles",
    "regime.separable_angles",
    *(f"accuracy.{name}.max_abs_dev" for name in ("h2x", "dcs", "overlap", "bound")),
    "trace.overhead_frac",
]


@pytest.mark.parametrize("gap, sigma", [(0.5, 0.4), (3.0, 0.05)])
def test_dense_reference_matches_cross_integral(gap, sigma):
    rng = np.random.default_rng(5)
    a = rng.standard_normal(30) * 0.3
    b = rng.standard_normal(40) * 0.3 + gap
    want = cross_integral(Kde1d(a, sigma), Kde1d(b, 1.5 * sigma))
    got = reference.cross(a, sigma, b, 1.5 * sigma)
    assert want > 0.0
    assert abs(reference.neg_log(got) - reference.neg_log(want)) <= 1e-12
    x = np.linspace(-1.0, gap + 1.0, 50)
    want = kde_eval(Kde1d(a, sigma), x)
    np.testing.assert_allclose(reference.density(a, sigma, x), want, rtol=1e-12, atol=0)


def test_traced_replay_equals_sweep():
    rng = np.random.default_rng(7)
    points, labels = harness.draw(harness.TWO_GAUSS, 40, rng)
    data = LabeledDataset.from_arrays(points, labels)
    tracer = tracing.Tracer()
    replayed = tracing.sweep_records(tracer, data, 12, range(12), None, 4096)
    fields = ("angle",) + SWEEP_FIELDS
    want = [[getattr(record, f) for f in fields] for record in sweep(data, 12)]
    assert [[getattr(replayed[k], f) for f in fields] for k in range(12)] == want
    stats = tracer.stats()
    assert stats["objectives.cip"]["calls"] == 12
    assert stats["objectives.renyi_entropy"]["work"] == 12 * 2 * 40 * 40


def test_grid_skipped_needs_two_sign_changes_in_a_cell():
    minus = np.array([0.0, 1.0])
    plus = np.array([0.5])
    # A plus spike 1e-5 wide between two wide minus kernels: both of its sign
    # changes sit inside one cell (1.4e-3 wide) of the 4096-node grid.
    assert harness.grid_skipped(minus, plus, 0.3, 1e-5, np.array([0.5]))[0]
    assert not harness.grid_skipped(minus, plus, 0.3, 1e-5, np.array([0.1]))[0]


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_declared_metric(trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    argv = ["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert harness.run(argv, tmp_path) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_metric_names_and_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    assert end_to_end == harness.END_TO_END
    assert per_layer == harness.per_layer_specs()
    assert set(LAYER_TABLE) <= {spec[0] for spec in per_layer}
    names = [spec[0] for spec in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in declared["workloads"]] == list(harness.WORKLOADS)
