"""Spans recorded from outside the program, and the per-angle replays.

A replay calls melc's public functions in the order a command calls them and
wraps each call in a span. The run compares the replay's values with the
command's own output, so a replay that has drifted from the program fails the
traced run instead of timing code the command no longer runs.
"""

import inspect
import json
import math
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from melc import (
    SweepRecord,
    angle_grid,
    best_bias_hinge,
    best_single_threshold_error,
    bound_check,
    build_multithreshold_model,
    cip,
    classify,
    cosine_alignment,
    load_csv,
    overlap_integral,
    project,
    projected_pair,
    relative_error,
    renyi_entropy,
    rescaled_pair,
    select_best,
    silverman_bandwidth,
)
from melc.sweep import SEPARABLE_TOL


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, angle, work]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, angle=None, work=0):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent, angle, work]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def call(self, name, fn, *args, angle=None, work=0):
        with self.span(name, angle, work):
            return fn(*args)

    def stats(self):
        """Per span name: calls, busy_s, self_s, p50_ms, tail_ms and work.

        self_s is the span time not covered by child spans; tail_ms is the
        highest percentile with at least ten samples beyond it (0 below 11
        calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        grouped = {}
        for index, (name, start, end, _, _, work) in enumerate(self.spans):
            entry = grouped.setdefault(name, {"times": [], "self_s": 0.0, "work": 0})
            entry["times"].append(end - start)
            entry["self_s"] += end - start - child[index]
            entry["work"] += work
        out = {}
        for name, entry in grouped.items():
            times = sorted(entry.pop("times"))
            out[name] = entry | {
                "calls": len(times),
                "busy_s": math.fsum(times),
                "p50_ms": 1e3 * statistics.median(times),
                "tail_ms": 1e3 * times[-11] if len(times) >= 11 else 0.0,
            }
        return out

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, start - origin, end - origin, parent, angle]
            for name, start, end, parent, angle, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "angle"], "spans": rows}, handle)


class NullTracer:
    """Same calls as Tracer, recording nothing (for the untraced checks)."""

    def span(self, name, angle=None, work=0):
        return nullcontext()

    def call(self, name, fn, *args, angle=None, work=0):
        return fn(*args)


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1].lstrip('_')}.{fn.__name__}"


@contextmanager
def traced_imports(tracer, module):
    """Wrap every melc function ``module`` imported from another melc module in
    a span, so time the command spends outside the library shows as the
    caller's self time."""
    saved = {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__.startswith("melc.")
        and obj.__module__ != module.__name__
    }

    def wrap(fn):
        name = _span_name(fn)
        return lambda *args, **kwargs: tracer.call(name, lambda: fn(*args, **kwargs))

    for name, fn in saved.items():
        setattr(module, name, wrap(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def load(tr, path):
    return tr.call("datasets.load_csv", load_csv, path)


def _projected(tr, data, direction, sigma, k):
    minus, plus = tr.call("geometry.project", project, data, direction, angle=k)
    if sigma is None:
        sigma_minus = tr.call("kde.silverman_bandwidth", silverman_bandwidth, minus, angle=k)
        sigma_plus = tr.call("kde.silverman_bandwidth", silverman_bandwidth, plus, angle=k)
    else:
        sigma_minus = sigma_plus = sigma
    return minus, plus, sigma_minus, sigma_plus


def sweep_records(tr, data, angles, ids, sigma, grid_points):
    """The per-angle chain of ``sweep``: {angle index: SweepRecord}."""
    grid = angle_grid(angles)
    records = {}
    for k in ids:
        angle, direction = grid[k]
        minus, plus, sigma_minus, sigma_plus = _projected(tr, data, direction, sigma, k)
        pair = tr.call(
            "objectives.projected_pair", projected_pair, minus, plus, sigma_minus, sigma_plus, angle=k
        )
        potential = tr.call("objectives.cip", cip, pair, angle=k, work=minus.size * plus.size)
        bias, hinge = tr.call("objectives.best_bias_hinge", best_bias_hinge, minus, plus, angle=k)
        overlap = tr.call(
            "risk.overlap_integral",
            overlap_integral,
            pair,
            grid_points,
            angle=k,
            work=grid_points * (minus.size + plus.size),
        )
        h_minus = tr.call(
            "objectives.renyi_entropy", renyi_entropy, pair.f_minus, angle=k, work=minus.size**2
        )
        h_plus = tr.call(
            "objectives.renyi_entropy", renyi_entropy, pair.f_plus, angle=k, work=plus.size**2
        )
        linear01 = tr.call(
            "risk.best_single_threshold_error", best_single_threshold_error, minus, plus, angle=k
        )
        h2x = -math.log(potential) if potential > 0 else math.inf
        records[k] = SweepRecord(
            angle=angle,
            direction=direction,
            cip=potential,
            h2x=h2x,
            dcs=2.0 * h2x - h_minus - h_plus,
            hinge=hinge,
            hinge_bias=bias,
            linear01=linear01,
            overlap=overlap,
            eaa_risk=overlap / 2.0,
        )
    return records


def bound_results(tr, data, angles, ids, sigma, tail_k, grid_points):
    """The per-angle chain of ``bound-check``: {angle index: (angle, BoundCheck)}."""
    grid = angle_grid(angles)
    results = {}
    for k in ids:
        angle, direction = grid[k]
        minus, plus, sigma_minus, sigma_plus = _projected(tr, data, direction, sigma, k)
        pair = tr.call(
            "objectives.rescaled_pair",
            rescaled_pair,
            minus,
            plus,
            sigma_minus,
            sigma_plus,
            tail_k,
            angle=k,
        )
        result = tr.call(
            "risk.bound_check",
            bound_check,
            pair,
            grid_points,
            angle=k,
            work=grid_points * (minus.size + plus.size),
        )
        results[k] = (angle, result)
    return results


def potentials(tr, data, angles, ids, sigma):
    """The per-angle chain of the ``classify`` direction scan: {index: cip}."""
    grid = angle_grid(angles)
    values = {}
    for k in ids:
        minus, plus, sigma_minus, sigma_plus = _projected(tr, data, grid[k][1], sigma, k)
        pair = tr.call(
            "objectives.projected_pair", projected_pair, minus, plus, sigma_minus, sigma_plus, angle=k
        )
        values[k] = tr.call("objectives.cip", cip, pair, angle=k, work=minus.size * plus.size)
    return values


def trained_model(tr, train, test, angles, sigma, grid_points):
    """The chain of ``classify``: direction scan, threshold model, labels.

    Returns (angle, model, bandwidths, labels, cip per angle)."""
    with tr.span("sweep.melc_direction"):
        scanned = potentials(tr, train, angles, range(angles), sigma)
    angle, direction = angle_grid(angles)[int(np.argmin([scanned[k] for k in range(angles)]))]
    minus, plus, sigma_minus, sigma_plus = _projected(tr, train, direction, sigma, None)
    pair = projected_pair(minus, plus, sigma_minus, sigma_plus)
    model = tr.call(
        "risk.build_multithreshold_model",
        build_multithreshold_model,
        pair,
        direction,
        grid_points,
        work=grid_points * (minus.size + plus.size),
    )
    labels = tr.call("risk.classify", classify, model, test.points)
    return angle, model, (sigma_minus, sigma_plus), labels, scanned


def comparison(tr, data, angles, sigma, grid_points, name):
    """The chain of ``table`` for one dataset: (row fields, records)."""
    with tr.span("sweep.compare"):
        with tr.span("sweep.sweep"):
            records = sweep_records(tr, data, angles, range(angles), sigma, grid_points)
        listed = [records[k] for k in range(angles)]

        def best(field, minimize):
            return tr.call("sweep.select_best", select_best, listed, field, minimize)

        at_hinge = best("hinge", True)
        at_linear = best("linear01", True)
        at_entropy = best("h2x", False)
        at_bayes = best("eaa_risk", True)

    def gap(chosen, best_value):
        if best_value <= SEPARABLE_TOL:
            return chosen - best_value, True
        return relative_error(chosen, best_value), False

    e_hinge, hinge_separable = gap(at_hinge.linear01, at_linear.linear01)
    e_melc, melc_separable = gap(at_entropy.eaa_risk, at_bayes.eaa_risk)
    row = [
        name,
        e_hinge,
        cosine_alignment(at_hinge.direction, at_linear.direction),
        e_melc,
        cosine_alignment(at_entropy.direction, at_bayes.direction),
        hinge_separable,
        melc_separable,
    ]
    return row, records
