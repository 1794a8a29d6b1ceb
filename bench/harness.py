"""Workloads, timed runs, traced runs and output checks of the benchmark.

Every input is drawn here from the run's seed and written to CSV; melc only
ever sees the files. Commands run in-process through ``melc.cli.main``.
"""

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import melc
import reference
import tracing
from melc import LabeledDataset, angle_grid, load_csv, melc_direction
from melc.sweep import SEPARABLE_TOL
from melc.cli import main as melc_main

GRID_POINTS = 4096
TAIL_K = 5.0
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SAMPLED_ANGLES = 12
DEV_TOL = 1e-12
TINY_CIP = 1e-100

# (mean, sigma, label) per radial Gaussian component: the program's two-gauss
# and four-line recipes, copied so that a change to melc.datasets cannot
# change a workload.
TWO_GAUSS = (((0.0, 0.0), 1.0, -1), ((2.0, 2.0), 1.0, 1))
FOUR_LINE = (
    ((0.0, 0.0), 0.1, -1),
    ((1.5, 0.0), 0.1, 1),
    ((3.0, 0.0), 0.1, -1),
    ((4.5, 0.0), 0.1, 1),
)


@dataclass(frozen=True)
class Command:
    kind: str
    inputs: tuple
    angles: int
    sigma: float | None = None

    @property
    def label(self):
        return self.kind.replace("-", "_")

    def argv(self, files, work):
        if self.kind == "classify":
            argv = ["classify", "--train", files[self.inputs[0]], "--test", files[self.inputs[1]]]
        else:
            argv = [self.kind, "--data", files[self.inputs[0]]]
        argv += ["--out", str(work / f"{self.label}.csv"), "--angles", str(self.angles)]
        if self.sigma is not None:
            argv += ["--sigma", repr(self.sigma)]
        return [str(a) for a in argv]


@dataclass(frozen=True)
class Workload:
    why: str
    threads: str | None  # MELC_THREADS; None means one per CPU
    files: dict  # key -> (recipe, points per component)
    commands: tuple


WORKLOADS = {
    "curves-silverman": Workload(
        why="sweep then bound-check, 1000+1000 two-gauss points, 360 angles, Silverman "
        "bandwidths, 1 thread: wide kernels, pair sums and grid evaluation share the time",
        threads="1",
        files={"data": (TWO_GAUSS, 1000)},
        commands=(Command("sweep", ("data",), 360), Command("bound-check", ("data",), 360)),
    ),
    "train-silverman": Workload(
        why="classify on 2000+2000 two-gauss points, 720 angles, one thread per CPU: the "
        "training path, all cip, bypasses every grid and scan layer",
        threads=None,
        files={"train": (TWO_GAUSS, 2000), "test": (TWO_GAUSS, 2000)},
        commands=(Command("classify", ("train", "test"), 720),),
    ),
    "narrow-sigma": Workload(
        why="classify --sigma 1e-3 on 20000+20000 points and table --sigma 0.02 on four-line, "
        "1 thread: kernels narrower than the grid step, tiny cross potentials",
        threads="1",
        files={
            "train": (TWO_GAUSS, 20000),
            "test": (TWO_GAUSS, 20000),
            "line": (FOUR_LINE, 500),
        },
        commands=(
            Command("classify", ("train", "test"), 360, 1e-3),
            Command("table", ("line",), 360, 0.02),
        ),
    ),
}

END_TO_END = [
    ("angles_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_FULL = ("calls", "busy_s", "p50_ms", "tail_ms")
_STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms"}
SPAN_METRICS = {
    "objectives.cip": _FULL,
    "objectives.renyi_entropy": _FULL,
    "risk.overlap_integral": _FULL,
    "risk.build_multithreshold_model": _FULL,
    "risk.classify": _FULL,
    "objectives.best_bias_hinge": ("busy_s",),
    "risk.best_single_threshold_error": ("busy_s",),
    "objectives.rescaled_pair": ("busy_s",),
    "risk.bound_check": ("busy_s",),
    "geometry.project": ("busy_s",),
    "kde.silverman_bandwidth": ("busy_s",),
    "datasets.load_csv": ("busy_s",),
    "sweep.sweep": ("self_s",),
    "sweep.melc_direction": ("busy_s",),
    "sweep.compare": ("self_s",),
}
OTHER_METRICS = [
    ("kde.pairs", "pairs-computed", "lower"),
    ("kde.pair_rate", "computed-pairs/s", "higher"),
    ("risk.grid_kernel_evals", "evals-computed", "lower"),
    ("risk.thresholds", "count", "lower"),
    ("regime.rule_mismatch", "count", "lower"),
    ("regime.tiny_cip_angles", "count", "lower"),
    ("regime.separable_angles", "count", "lower"),
    ("parallel.speedup", "ratio", "higher"),
    ("parallel.efficiency", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.sweep.angles_per_s", "1/s", "higher"),
    ("cli.bound_check.angles_per_s", "1/s", "higher"),
    ("cli.classify.angles_per_s", "1/s", "higher"),
    ("cli.table.angles_per_s", "1/s", "higher"),
    ("accuracy.h2x.max_abs_dev", "nats", "lower"),
    ("accuracy.dcs.max_abs_dev", "nats", "lower"),
    ("accuracy.overlap.max_abs_dev", "mass", "lower"),
    ("accuracy.bound.max_abs_dev", "nats", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def per_layer_specs():
    """(name, unit, better) of every metric a traced run emits."""
    specs = [
        (f"{span}.{stat}", _STAT_UNITS[stat], "lower")
        for span, stats in SPAN_METRICS.items()
        for stat in stats
    ]
    return specs + OTHER_METRICS


# ---------------------------------------------------------------- inputs


def draw(recipe, n, rng):
    """n points per component of the recipe, components in recipe order."""
    points = np.vstack([rng.standard_normal((n, 2)) * sigma + mean for mean, sigma, _ in recipe])
    labels = np.concatenate([np.full(n, label) for _, _, label in recipe])
    return points, labels


def write_inputs(workload, seed, work):
    """Draw every input of the workload and write it as CSV; returns the
    arrays and the file paths by key."""
    arrays, files = {}, {}
    for stream, (key, (recipe, n)) in enumerate(workload.files.items()):
        points, labels = draw(recipe, n, np.random.default_rng([seed, stream]))
        path = work / f"{key}.csv"
        np.savetxt(
            path,
            np.column_stack([points, labels]),
            fmt=["%.17g", "%.17g", "%d"],
            delimiter=",",
            header="x0,x1,label",
            comments="",
        )
        arrays[key] = LabeledDataset.from_arrays(points, labels)
        files[key] = str(path)
    return arrays, files


# ---------------------------------------------------------------- commands


def threads_for(workload):
    return workload.threads or str(nproc())


def nproc():
    return len(os.sched_getaffinity(0))


@contextmanager
def melc_threads(threads):
    """Set MELC_THREADS for the duration, restoring what was there."""
    saved = os.environ.get("MELC_THREADS")
    os.environ["MELC_THREADS"] = threads
    try:
        yield
    finally:
        if saved is None:
            del os.environ["MELC_THREADS"]
        else:
            os.environ["MELC_THREADS"] = saved


def run_command(argv, threads, tracer=None):
    """Run one melc command in-process: (exit status, seconds, stdout)."""
    captured = io.StringIO()
    started = time.perf_counter()
    try:
        with melc_threads(threads), redirect_stdout(captured):
            if tracer is None:
                status = melc_main(argv)
            else:
                status = tracer.call("cli.main", melc_main, argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash fails the command's checks, not the run
        print(f"bench: {argv[0]} raised {exc!r}", file=sys.stderr)
        status = 1
    return status, time.perf_counter() - started, captured.getvalue()


def snapshot(command, work, status, stdout):
    """What a command left behind: exit status, CSV, sidecar and stdout."""

    def text(path):
        return path.read_text(encoding="utf-8") if path.is_file() else None

    return {
        "status": status,
        "csv": text(work / f"{command.label}.csv"),
        "sidecar": text(work / f"{command.label}.json"),
        "stdout": stdout,
    }


# ---------------------------------------------------------------- checks


class Tally:
    """Checks attempted and failed, per group. ``known`` failures are the
    rule mismatches explained by the grid-skip defect listed in ROADMAP.md; they
    count as failed but leave ``correct`` true."""

    def __init__(self):
        self.groups = {}
        self.max_dev = {}
        self.messages = []

    def add(self, group, attempted, failed=0, known=0, message=""):
        entry = self.groups.setdefault(group, [0, 0, 0])
        entry[0] += attempted
        entry[1] += failed
        entry[2] += known
        if failed > known and message and len(self.messages) < 20:
            self.messages.append(f"{group}: {message}")

    def expect(self, group, ok, message=""):
        self.add(group, 1, 0 if ok else 1, message=message)

    def near(self, group, name, got, want, tol=DEV_TOL):
        dev = 0.0 if got == want else abs(got - want)
        if math.isnan(dev):
            dev = math.inf
        self.max_dev[name] = max(self.max_dev.get(name, 0.0), dev)
        self.expect(group, dev <= tol, f"{name} off by {dev:.3g} ({got!r} vs {want!r})")

    def merge(self, other, all_failed=False):
        """Add another tally; ``all_failed`` fails every check it holds (the
        command behind them raised or exited nonzero)."""
        for group, (attempted, failed, known) in other.groups.items():
            if all_failed:
                failed, known = attempted, 0
            self.add(group, attempted, failed, known, "its command failed" if all_failed else "")
        for name, dev in other.max_dev.items():
            self.max_dev[name] = max(self.max_dev.get(name, 0.0), dev)
        if not all_failed:
            self.messages += other.messages[: 20 - len(self.messages)]

    def totals(self):
        attempted = sum(entry[0] for entry in self.groups.values())
        failed = sum(entry[1] for entry in self.groups.values())
        unexplained = sum(entry[1] - entry[2] for entry in self.groups.values())
        return attempted, failed, unexplained


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, str):
        return value
    return f"{value:.12g}"


def csv_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def sweep_row(record):
    return [fmt(v) for v in (
        record.angle, record.cip, math.sqrt(record.cip), record.h2x, record.dcs, record.hinge,
        record.hinge_bias, record.linear01, record.overlap, record.eaa_risk,
    )]


def bound_row(angle, result):
    both_finite = math.isfinite(result.lhs) and math.isfinite(result.rhs)
    slack = result.lhs - result.rhs if both_finite else math.inf
    return [fmt(v) for v in (angle, result.lhs, result.rhs, slack, result.holds, result.separable)]


def split_projection(data, angle):
    scalars = data.points @ np.array([math.cos(angle), math.sin(angle)])
    neg = data.labels == -1
    return scalars[neg], scalars[~neg]


def sampled_ids(seed, angles):
    """Angle 0 (separable on four-line) plus a seeded sample of the rest."""
    rng = np.random.default_rng([seed, 99])
    rest = rng.choice(np.arange(1, angles), min(SAMPLED_ANGLES, angles) - 1, replace=False)
    return [0] + sorted(int(k) for k in rest)


def bandwidths(minus, plus, sigma):
    if sigma is None:
        return reference.silverman(minus), reference.silverman(plus)
    return sigma, sigma


def check_replayed_rows(tally, group, text, header, expected):
    """CSV rows at the given indices equal the replayed rows (12 digits)."""
    try:
        rows = csv_rows(text or "", header)
    except ValueError as exc:
        tally.add(group, len(expected), len(expected), message=str(exc))
        return None
    for k, want in expected.items():
        got = rows[k] if k < len(rows) else None
        tally.expect(group, got == want, f"row {k}: {got} != {want}")
    return rows


def check_objectives(tally, group, data, records, ids, sigma):
    """Replayed library values against the dense reference and brute force."""
    for k in ids:
        record = records[k]
        minus, plus = split_projection(data, record.angle)
        sigma_minus, sigma_plus = bandwidths(minus, plus, sigma)
        ref = reference.objectives(minus, plus, sigma_minus, sigma_plus, GRID_POINTS)
        for name in ("h2x", "dcs", "overlap"):
            tally.near(f"{group}.{name}", name, getattr(record, name), ref[name])
        best = reference.best_hinge(minus, plus)
        at_bias = float(reference.hinge_losses(minus, plus, record.hinge_bias)[0])
        tally.near(f"{group}.hinge", "hinge", record.hinge, best)
        tally.near(f"{group}.hinge", "hinge_bias", at_bias, best)
        linear01 = reference.best_single_threshold(minus, plus)
        tally.near(f"{group}.linear01", "linear01", record.linear01, linear01)


SWEEP_HEADER = "angle_rad,cip,sqrt_cip,h2x,dcs,hinge,hinge_bias,linear01,overlap,eaa_risk"
BOUND_HEADER = "angle_rad,lhs,rhs,slack,holds,separable"
TABLE_HEADER = "dataset,E_hinge,cos_hinge,E_melc,cos_melc,hinge_separable,melc_separable"


def check_sweep(tally, command, data, snap, records, ids):
    rows = check_replayed_rows(
        tally, "sweep.replay", snap["csv"], SWEEP_HEADER, {k: sweep_row(r) for k, r in records.items()}
    )
    tally.expect("sweep.csv", rows is not None and len(rows) == command.angles, "row count")
    try:
        strict_json(snap["sidecar"] or "")
        tally.expect("sweep.sidecar", True)
    except ValueError as exc:
        tally.expect("sweep.sidecar", False, str(exc))
    check_objectives(tally, "sweep", data, records, ids, command.sigma)


def check_bound(tally, command, data, snap, results, ids):
    rows = check_replayed_rows(
        tally, "bound.replay", snap["csv"], BOUND_HEADER,
        {k: bound_row(angle, result) for k, (angle, result) in results.items()},
    )
    tally.expect(
        "bound.csv",
        rows is not None and len(rows) == command.angles and all(r[4] == "true" for r in rows),
        "row count or a violated angle",
    )
    try:
        summary = strict_json(snap["stdout"] or "")
        tally.expect("bound.summary", summary.get("violations") == 0, f"summary {summary}")
    except ValueError as exc:
        tally.expect("bound.summary", False, str(exc))
    for k in ids:
        angle, result = results[k]
        minus, plus = split_projection(data, angle)
        sigma_minus, sigma_plus = bandwidths(minus, plus, command.sigma)
        lhs, rhs = reference.bound_sides(minus, plus, sigma_minus, sigma_plus, TAIL_K, GRID_POINTS)
        tally.near("bound.lhs", "bound", result.lhs, lhs)
        tally.near("bound.rhs", "bound", result.rhs, rhs)


def grid_skipped(minus, plus, sigma_minus, sigma_plus, points):
    """Which points lie in a cell of the program's threshold grid that holds
    two or more sign changes of f_plus - f_minus, which a rule read off the
    grid nodes cannot represent."""
    pad = reference.WINDOW_STDS * max(sigma_minus, sigma_plus)
    grid = np.linspace(
        min(minus.min(), plus.min()) - pad, max(minus.max(), plus.max()) + pad, GRID_POINTS
    )
    explained = []
    for point in points:
        k = int(np.searchsorted(grid, point, side="right")) - 1
        if not 0 <= k < GRID_POINTS - 1:
            explained.append(False)
            continue
        cell = np.sort(np.append(np.linspace(grid[k], grid[k + 1], 257), point))
        signs = np.sign(
            reference.density(plus, sigma_plus, cell) - reference.density(minus, sigma_minus, cell)
        )
        signs = signs[signs != 0]
        explained.append(np.count_nonzero(signs[1:] != signs[:-1]) >= 2)
    return np.asarray(explained, dtype=bool)


def check_classify(tally, command, train, test, snap, potentials, ids, expect_diagonal, replay=None):
    n_test = test.n_points
    try:
        rows = csv_rows(snap["csv"] or "", "prediction")
        predictions = np.array([int(r[0]) for r in rows])
        side = strict_json(snap["sidecar"] or "")
        strict_json(snap["stdout"] or "")
        angle = float(side["angle_rad"])
        direction = np.array(side["direction"], dtype=float)
        sigma_minus, sigma_plus = (float(s) for s in side["bandwidths"])
        thresholds = side["thresholds"]
        leftmost = side["leftmost_sign"]
        ok = predictions.size == n_test and np.all(np.abs(predictions) == 1)
        tally.expect("classify.outputs", ok, "prediction count or labels")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        tally.expect("classify.outputs", False, str(exc))
        fixed = ("classify.angle", "classify.bandwidths") + ("classify.direction",) * expect_diagonal
        for group in fixed:
            tally.expect(group, False, "no usable output")
        tally.add("classify.scan", len(ids), len(ids))
        tally.add("classify.rule", n_test, n_test)
        return 0

    k = round(angle * command.angles / math.pi)
    on_grid = 0 <= k < command.angles and angle_grid(command.angles)[k][0] == angle
    tally.expect("classify.angle", on_grid, f"angle {angle} is not on the grid")
    minus, plus = split_projection(train, angle)
    want = bandwidths(minus, plus, command.sigma)
    tally.expect(
        "classify.bandwidths",
        all(abs(g - w) <= DEV_TOL * w for g, w in zip((sigma_minus, sigma_plus), want)),
        f"{(sigma_minus, sigma_plus)} vs {want}",
    )
    if expect_diagonal:  # A6: the trained direction aligns with (1, 1)
        cosine = abs(direction @ np.array([1.0, 1.0])) / math.sqrt(2.0)
        tally.expect("classify.direction", cosine >= 0.99, f"cosine {cosine:.4f}")
    chosen = reference.cross(minus, sigma_minus, plus, sigma_plus)
    for j in ids:
        other_minus, other_plus = split_projection(train, j * math.pi / command.angles)
        s_minus, s_plus = bandwidths(other_minus, other_plus, command.sigma)
        other = reference.cross(other_minus, s_minus, other_plus, s_plus)
        tally.expect("classify.scan", chosen <= other * (1 + DEV_TOL), f"cip {chosen} > {other} at {j}")
        tally.near("classify.h2x", "h2x", reference.neg_log(potentials[j]), reference.neg_log(other))

    # Each prediction against sign(f_plus - f_minus) wherever that sign is
    # decided to 1e-9 relative.
    scalars = test.points @ direction
    f_minus = reference.density(minus, sigma_minus, scalars)
    f_plus = reference.density(plus, sigma_plus, scalars)
    decided = np.abs(f_plus - f_minus) > 1e-9 * (f_plus + f_minus)
    wrong = decided & (predictions != np.sign(f_plus - f_minus))
    explained = int(grid_skipped(minus, plus, sigma_minus, sigma_plus, scalars[wrong]).sum())
    tally.add(
        "classify.rule", int(decided.sum()), int(wrong.sum()), explained,
        f"{int(wrong.sum()) - explained} mismatches outside grid-skipped cells",
    )
    if replay is not None:
        r_angle, model, r_bandwidths, labels, _ = replay
        got = [fmt(angle), *map(fmt, thresholds), leftmost, fmt(sigma_minus), fmt(sigma_plus)]
        want = [fmt(r_angle), *map(fmt, model.thresholds), model.leftmost_sign, *map(fmt, r_bandwidths)]
        tally.expect("classify.replay", got == want, f"{got} != {want}")
        tally.expect("classify.replay", np.array_equal(labels, predictions), "labels differ")
    return len(thresholds)


def check_table(tally, command, data, snap, records, ids, replay_row=None):
    try:
        rows = csv_rows(snap["csv"] or "", TABLE_HEADER)
        tally.expect("table.csv", len(rows) == 1, "row count")
        tally.expect("table.separable", rows[0][6] == "true", f"row {rows[0]}")  # A7
    except (ValueError, IndexError) as exc:
        tally.add("table.csv", 2, 2, message=str(exc))
        rows = None
    if replay_row is not None:
        want = [fmt(v) for v in replay_row]
        tally.expect("table.replay", rows is not None and rows[0] == want, f"{rows} != {want}")
    check_objectives(tally, "table", data, records, ids, command.sigma)


def check_outputs(tally, command, arrays, snap, ids, library, replay=None):
    """All checks of one command's output; returns its threshold count."""
    data = arrays[command.inputs[0]]
    checks = Tally()
    thresholds = 0
    if command.kind == "sweep":
        check_sweep(checks, command, data, snap, library, ids)
    elif command.kind == "bound-check":
        check_bound(checks, command, data, snap, library, ids)
    elif command.kind == "table":
        check_table(checks, command, data, snap, library, ids, replay)
    else:
        thresholds = check_classify(
            checks, command, data, arrays[command.inputs[1]], snap, library, ids,
            expect_diagonal=command.sigma is None, replay=replay,
        )
    tally.merge(checks, all_failed=snap["status"] != 0)
    return thresholds


def library_values(tr, command, data, ids):
    """Replayed library values at the given angles, as the checks take them."""
    if command.kind == "bound-check":
        return tracing.bound_results(tr, data, command.angles, ids, command.sigma, TAIL_K, GRID_POINTS)
    if command.kind == "classify":
        return tracing.potentials(tr, data, command.angles, ids, command.sigma)
    return tracing.sweep_records(tr, data, command.angles, ids, command.sigma, GRID_POINTS)


# ---------------------------------------------------------------- runs


def environment(name, seed, threads, root):
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "workload": name,
        "seed": seed,
        "commit": commit(root),
        "melc": melc.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "MELC_THREADS": threads,
        "caches": caches,
    }


def commit(root):
    """The checked-out commit, read from .git when the checkout has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload, seed, work):
    """Draw and write the inputs, then read them back through melc, at least
    SETUP_REPEATS times and for at least SETUP_SECONDS; setup_s is the median.
    Returns (arrays, files, setup_s, whether every read-back matched)."""
    times = []
    first = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - first < SETUP_SECONDS:
        started = time.perf_counter()
        arrays, files = write_inputs(workload, seed, work)
        loaded = {key: load_csv(path) for key, path in files.items()}
        times.append(time.perf_counter() - started)
    same = all(
        np.array_equal(loaded[key].points, data.points)
        and np.array_equal(loaded[key].labels, data.labels)
        for key, data in arrays.items()
    )
    return arrays, files, statistics.median(times), same


def timed_run(workload, seconds, work, arrays, files):
    """Run the command mix until ``seconds`` have passed, alternating the
    order each round. Returns (per-round angles per second, per-command
    samples, first outputs, tally of exit and repeatability checks)."""
    threads = threads_for(workload)
    tally = Tally()
    rates, samples, first = [], {c.label: [] for c in workload.commands}, {}
    started = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < seconds:
        order = workload.commands if rounds % 2 == 0 else workload.commands[::-1]
        angles = elapsed = 0.0
        for command in order:
            status, took, stdout = run_command(command.argv(files, work), threads)
            snap = snapshot(command, work, status, stdout)
            first.setdefault(command.label, snap)
            same = snap == first[command.label]
            message = f"exit {status}, same output {same}"
            tally.expect(f"{command.label}.exit", status == 0 and same, message)
            samples[command.label].append(command.angles / took)
            angles += command.angles
            elapsed += took
        rates.append(angles / elapsed)
        rounds += 1
    return rates, samples, first, tally


def traced_run(workload, work, arrays, files, ids):
    """One traced pass at MELC_THREADS=1: each command once with spans at
    the cli-to-library boundary, then its replay with spans per call."""
    cli_tr, tr = tracing.Tracer(), tracing.Tracer()
    tally = Tally()
    extra = {"risk.thresholds": 0, "regime.tiny_cip_angles": 0, "regime.separable_angles": 0}
    with tracing.traced_imports(cli_tr, sys.modules["melc.cli"]):
        runs = {}
        for command in workload.commands:
            status, took, stdout = run_command(command.argv(files, work), "1", cli_tr)
            tally.expect(f"{command.label}.exit", status == 0, f"exit {status}")
            runs[command.label] = snapshot(command, work, status, stdout)
            extra[f"cli.{command.label}.angles_per_s"] = command.angles / took
    for command in workload.commands:
        data = tracing.load(tr, files[command.inputs[0]])
        angles, sigma, everything = command.angles, command.sigma, range(command.angles)
        replay = None
        if command.kind == "sweep":
            with tr.span("sweep.sweep"):
                library = tracing.sweep_records(tr, data, angles, everything, sigma, GRID_POINTS)
        elif command.kind == "bound-check":
            library = tracing.bound_results(tr, data, angles, everything, sigma, TAIL_K, GRID_POINTS)
        elif command.kind == "table":
            name = os.path.basename(files[command.inputs[0]])
            replay, library = tracing.comparison(tr, data, angles, sigma, GRID_POINTS, name)
        else:
            test = tracing.load(tr, files[command.inputs[1]])
            replay = tracing.trained_model(tr, data, test, command.angles, command.sigma, GRID_POINTS)
            library = replay[4]
        for value in library.values():
            if command.kind == "bound-check":
                extra["regime.separable_angles"] += value[1].separable
            elif command.kind == "classify":
                extra["regime.tiny_cip_angles"] += value < TINY_CIP
            else:
                extra["regime.separable_angles"] += value.eaa_risk <= SEPARABLE_TOL
                extra["regime.tiny_cip_angles"] += value.cip < TINY_CIP
        extra["risk.thresholds"] += check_outputs(
            tally, command, arrays, runs[command.label], ids[command.label], library, replay
        )
    tr.write(work / "spans.json")

    stats, cli_stats = tr.stats(), cli_tr.stats()
    metrics = {}
    for span, names in SPAN_METRICS.items():
        for stat in names:
            metrics[f"{span}.{stat}"] = stats.get(span, {}).get(stat, 0.0)
    pair_spans = [stats.get(s, {}) for s in ("objectives.cip", "objectives.renyi_entropy")]
    pairs = sum(s.get("work", 0) for s in pair_spans)
    pair_busy = sum(s.get("busy_s", 0.0) for s in pair_spans)
    metrics["kde.pairs"] = pairs
    metrics["kde.pair_rate"] = pairs / pair_busy if pair_busy else 0.0
    metrics["risk.grid_kernel_evals"] = sum(
        stats.get(s, {}).get("work", 0)
        for s in ("risk.overlap_integral", "risk.bound_check", "risk.build_multithreshold_model")
    )
    metrics["regime.rule_mismatch"] = tally.groups.get("classify.rule", [0, 0, 0])[1]
    main_stats = cli_stats.get("cli.main", {})
    metrics["cli.self_s"] = main_stats.get("self_s", 0.0)
    library_s = main_stats.get("busy_s", 0.0) - metrics["cli.self_s"]
    replay_s = sum(end - start for _, start, end, parent, _, _ in tr.spans if parent < 0)
    metrics["trace.overhead_frac"] = replay_s / library_s - 1.0 if library_s else 0.0
    metrics["parallel.speedup"] = metrics["parallel.efficiency"] = 0.0
    if workload.threads is None:  # one thread against one per CPU, untraced
        one = cli_stats.get("sweep.melc_direction", {}).get("busy_s", 0.0)
        command = workload.commands[0]
        with melc_threads(str(nproc())):
            started = time.perf_counter()
            melc_direction(arrays[command.inputs[0]], command.angles, command.sigma)
            many = time.perf_counter() - started
        metrics["parallel.speedup"] = one / many
        metrics["parallel.efficiency"] = one / many / nproc()
    for name in ("h2x", "dcs", "overlap", "bound"):
        metrics[f"accuracy.{name}.max_abs_dev"] = tally.max_dev.get(name, 0.0)
    for name, _, _ in OTHER_METRICS:
        metrics.setdefault(name, extra.get(name, 0.0))
    return metrics, tally


def run(argv, root):
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    work = root / "bench" / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    threads = "1" if args.trace else threads_for(workload)
    print(json.dumps({"environment": environment(args.workload, args.seed, threads, root)}))
    arrays, files, setup_s, inputs_ok = setup(workload, args.seed, work)
    ids = {c.label: sampled_ids(args.seed, c.angles) for c in workload.commands}
    if args.trace:
        metrics, tally = traced_run(workload, work, arrays, files, ids)
        units = {name: unit for name, unit, _ in per_layer_specs()}
    else:
        rates, samples, first, tally = timed_run(workload, args.seconds, work, arrays, files)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for command in workload.commands:
            data = arrays[command.inputs[0]]
            library = library_values(tracing.NullTracer(), command, data, ids[command.label])
            check_outputs(tally, command, arrays, first[command.label], ids[command.label], library)
            print(f"{command.kind}: {len(samples[command.label])} runs, median "
                  f"{statistics.median(samples[command.label]):.4g} angles/s")
        metrics = {
            "angles_per_s": statistics.median(rates),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}

    tally.expect("inputs.roundtrip", inputs_ok, "melc read back other values than were written")
    attempted, failed, unexplained = tally.totals()
    for group, (g_attempted, g_failed, g_known) in sorted(tally.groups.items()):
        if g_failed:
            print(f"checks {group}: {g_failed} of {g_attempted} failed ({g_known} known grid-skip)")
    for message in tally.messages:
        print(f"check failed: {message}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} checks)")
    print(json.dumps({
        "correct": unexplained == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0
