"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible under ``pytest -s``).

The radial-alignment robustness run (criterion 6) dominates the runtime of
the whole suite; everything else finishes in seconds.
"""

import math
import os
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import trapezoid_product_integral
from melc.datasets import DatasetSpec, generate, load_libsvm
from melc.geometry import LabeledDataset, UnitDirection, cosine_alignment, project
from melc.kde import Kde1d, cross_integral, kde_eval, silverman_bandwidth
from melc.objectives import (
    GaussianSpec,
    ProjectedPair,
    cip,
    gaussian_cip_closed_form,
    projected_pair,
    rescaled_pair,
)
from melc.risk import (
    bound_check,
    build_multithreshold_model,
    classify,
    eaa_bayes_risk_for_direction,
    empirical_balanced_error,
)
from melc.sweep import bound_sweep, compare, melc_direction, select_best, sweep


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def two_clouds(rng, m_minus, m_plus, sigma, n):
    minus = rng.standard_normal((n, 2)) * sigma + m_minus
    plus = rng.standard_normal((n, 2)) * sigma + m_plus
    return LabeledDataset.from_arrays(
        np.vstack([minus, plus]),
        np.concatenate([np.full(n, -1), np.full(n, 1)]),
    )


def test_a1_entropy_bound_on_overlap():
    """200 seeded random mixture pairs, rescaled with tail_k=5: the negative
    log overlap over [0,1] is at least half the quadratic cross entropy."""
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    holds = 0
    for _ in range(200):
        minus = rng.normal(scale=2.0, size=rng.integers(1, 11))
        plus = rng.normal(scale=2.0, size=rng.integers(1, 11))
        sigma_minus, sigma_plus = rng.uniform(0.05, 1.0, size=2)
        pair = rescaled_pair(minus, plus, sigma_minus, sigma_plus, 5.0)
        result = bound_check(pair)
        holds += result.holds
    elapsed = time.perf_counter() - started
    _report(
        "A1 entropy bound on overlap",
        holds == 200 and elapsed < 10.0,
        f"{holds}/200 hold, {elapsed:.1f} s",
    )


def test_a2_schwarz_inequality_on_grid_functions():
    """1000 random nonnegative grid functions on [0,1]:
    trapezoid(f) <= sqrt(trapezoid(f^2)) + 1e-9."""
    rng = np.random.default_rng(2)
    grid = np.linspace(0.0, 1.0, 257)
    ok = True
    for _ in range(1000):
        scale = rng.uniform(0.1, 20.0)
        shape = rng.integers(0, 3)
        if shape == 0:
            f = rng.uniform(0.0, scale, size=grid.size)
        elif shape == 1:
            f = scale * rng.random() * np.abs(np.sin(rng.uniform(1, 20) * grid))
        else:
            f = scale * np.exp(-((grid - rng.random()) ** 2) / rng.uniform(0.001, 1))
        if np.trapezoid(f, grid) > math.sqrt(np.trapezoid(f * f, grid)) + 1e-9:
            ok = False
            break
    _report("A2 Schwarz inequality on grid functions", ok)


def test_a3_closed_form_integrals_vs_quadrature():
    """cross_integral matches point-doubling trapezoid quadrature to 1e-6
    relative on 100 random pairs; the radial-Gaussian closed form matches the
    KDE potential of 20000 projected samples to 5% relative."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        f = Kde1d(rng.normal(scale=2, size=rng.integers(1, 11)), rng.uniform(0.05, 1))
        g = Kde1d(rng.normal(scale=2, size=rng.integers(1, 11)), rng.uniform(0.05, 1))
        exact = cross_integral(f, g)
        oracle = trapezoid_product_integral(f, g)
        worst = max(worst, abs(exact - oracle) / abs(oracle))
    quadrature_ok = worst <= 1e-6

    g_minus = GaussianSpec(np.array([0.0, 0.0]), 1.0)
    g_plus = GaussianSpec(np.array([1.5, 0.5]), 0.8)
    v = UnitDirection.from_vector([1.0, 0.4])
    m = 20000
    minus = rng.standard_normal((m, 2)) * g_minus.sigma + g_minus.mean
    plus = rng.standard_normal((m, 2)) * g_plus.sigma + g_plus.mean
    sampled = cip(projected_pair(minus @ v.components, plus @ v.components))
    closed = gaussian_cip_closed_form(g_minus, g_plus, v)
    sampling_error = abs(sampled - closed) / closed
    _report(
        "A3 closed-form integrals vs quadrature",
        quadrature_ok and sampling_error <= 0.05,
        f"worst quadrature rel {worst:.2e}, sampling rel {sampling_error:.3f}",
    )


def test_a4_zero_training_error_at_small_bandwidth():
    """50 seeded random consistent datasets in 2-5 dimensions (N <= 50),
    bandwidth forced to 1e-3: the extracted multithreshold rule reaches zero
    balanced training error every time. In 2D the direction comes from the
    angle sweep; in higher dimensions from 500 random unit directions."""
    sigma = 1e-3
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 6))
        n = int(rng.integers(10, 51))
        points = rng.standard_normal((n, dim)) * 2.0
        labels = np.where(rng.random(n) < 0.5, -1, 1)
        labels[0], labels[1] = -1, 1  # both classes nonempty
        data = LabeledDataset.from_arrays(points, labels)
        if dim == 2:
            _, direction = melc_direction(data, 360, bandwidth_override=sigma)
        else:
            best_value, direction = math.inf, None
            for _ in range(500):
                v = UnitDirection.from_vector(rng.standard_normal(dim))
                minus, plus = project(data, v)
                value = cip(ProjectedPair(Kde1d(minus, sigma), Kde1d(plus, sigma)))
                if value < best_value:
                    best_value, direction = value, v
        minus, plus = project(data, direction)
        pair = ProjectedPair(Kde1d(minus, sigma), Kde1d(plus, sigma))
        model = build_multithreshold_model(pair, direction, grid_points=16384)
        error = empirical_balanced_error(model, data)
        if error != 0.0:
            failures.append(seed)
    _report(
        "A4 zero training error at small bandwidth",
        not failures,
        f"failures: {failures}" if failures else "50/50 exact",
    )


def test_a5_separated_clouds_reach_zero_risk():
    """Two clouds separated by a margin far beyond the bandwidths: the
    cross-entropy maximizer attains eaa_risk < 1e-4 and cip < 1e-8."""
    rng = np.random.default_rng(99)
    data = two_clouds(rng, (0.0, 0.0), (8.0, 0.0), 0.4, 150)
    records = sweep(data, 360)
    best = select_best(records, "h2x", minimize=False)
    _report(
        "A5 separated clouds reach zero risk",
        best.eaa_risk < 1e-4 and best.cip < 1e-8,
        f"eaa {best.eaa_risk:.2e}, cip {best.cip:.2e}",
    )


def test_a6_radial_gaussian_alignment():
    """Radial Gaussian classes at (0,0) and (2,2), sigma 1, 2000 points per
    class, 720 angles: the trained direction aligns with the mean difference
    (cosine >= 0.99) in at least 95 of 100 seeds. Stops early once the
    outcome is decided."""
    target = UnitDirection.from_vector([1.0, 1.0])
    passes = 0
    failures = 0
    total = 100
    needed = 95
    for seed in range(total):
        rng = np.random.default_rng(600_000 + seed)
        data = two_clouds(rng, (0.0, 0.0), (2.0, 2.0), 1.0, 2000)
        _, direction = melc_direction(data, 720)
        if cosine_alignment(direction, target) >= 0.99:
            passes += 1
        else:
            failures += 1
        if passes >= needed or failures > total - needed:
            break
    ok = passes >= needed
    _report(
        "A6 radial Gaussian alignment",
        ok,
        f"{passes} aligned, {failures} misaligned (of {passes + failures} run)",
    )


def _fourclass_path():
    candidates = [os.environ.get("MELC_FOURCLASS", "")]
    here = os.path.dirname(__file__)
    candidates += [
        os.path.join(here, "data", "fourclass.libsvm"),
        os.path.join(here, "data", "fourclass.txt"),
        os.path.join(here, "data", "fourclass"),
    ]
    for candidate in candidates:
        if candidate and os.path.exists(candidate):
            return candidate
    return None


def test_a7_comparison_table_patterns():
    """Qualitative comparison-table reproduction on the synthetic benchmarks:
    the mixed four-cloud set shows a misaligned hinge optimum with a nearly
    optimal entropy optimum; the two-cloud set aligns everything; the in-line
    set raises the separable flag under a fine-bandwidth probe."""
    mixed = generate(DatasetSpec(name="four-mixed", seed=20240801, n_per_component=200))
    row_mixed = compare(mixed, 360, dataset_name="four-mixed")
    mixed_ok = (
        row_mixed.e_hinge >= 3.0 * row_mixed.e_melc
        and row_mixed.cos_melc >= 0.95
        and row_mixed.cos_hinge <= 0.8
        and not row_mixed.melc_separable
    )

    two = generate(DatasetSpec(name="two-gauss", seed=20240801, n_per_component=500))
    row_two = compare(two, 360, dataset_name="two-gauss")
    two_ok = row_two.cos_hinge >= 0.99 and row_two.cos_melc >= 0.99

    line = generate(DatasetSpec(name="four-line", seed=20240801, n_per_component=100))
    row_line = compare(line, 360, bandwidth_override=0.02, dataset_name="four-line")
    line_ok = row_line.melc_separable

    _report(
        "A7 comparison table patterns",
        mixed_ok and two_ok and line_ok,
        "mixed E_h=%.2f cos_h=%.2f E_m=%.3f cos_m=%.2f; two cos=%.3f/%.3f; line separable=%s"
        % (
            row_mixed.e_hinge,
            row_mixed.cos_hinge,
            row_mixed.e_melc,
            row_mixed.cos_melc,
            row_two.cos_hinge,
            row_two.cos_melc,
            row_line.melc_separable,
        ),
    )


def test_a7b_fourclass_near_optimal_error():
    """With a user-supplied fourclass file: the entropy-chosen direction's
    balanced Bayes risk is within 15% of the best over all angles, even if
    the two directions themselves differ."""
    path = _fourclass_path()
    if path is None:
        print("ACCEPTANCE A7b fourclass near-optimal error: SKIPPED (no file)")
        pytest.skip(
            "fourclass file not supplied; set MELC_FOURCLASS or put it in tests/data/"
        )
    data = load_libsvm(path)
    if data.dim != 2:
        from melc.datasets import pca_top2

        data, _ = pca_top2(data)
    records = sweep(data, 360)
    at_entropy = select_best(records, "h2x", minimize=False)
    at_bayes = select_best(records, "eaa_risk", minimize=True)
    e_melc = (at_entropy.eaa_risk - at_bayes.eaa_risk) / at_bayes.eaa_risk
    _report(
        "A7b fourclass near-optimal error",
        e_melc <= 0.15,
        f"e_melc {e_melc:.3f}, cos "
        f"{cosine_alignment(at_entropy.direction, at_bayes.direction):.3f}",
    )


def test_a8_decision_rule_and_risk_oracles():
    """The extracted threshold rule reproduces the density comparison away
    from thresholds on 10^4 points per model, and the overlap-based risk
    lower-bounds every enumerated classifier with up to 3 grid thresholds."""
    rng = np.random.default_rng(8)
    refine_tol = 1e-10
    rule_ok = True
    for _ in range(10):
        f = Kde1d(rng.normal(scale=2, size=rng.integers(2, 9)), rng.uniform(0.1, 1))
        g = Kde1d(rng.normal(scale=2, size=rng.integers(2, 9)), rng.uniform(0.1, 1))
        pair = ProjectedPair(f, g)
        direction = UnitDirection.from_angle(0.0)
        model = build_multithreshold_model(pair, direction)
        sigma_max = max(f.bandwidth, g.bandwidth)
        lo = min(f.centers.min(), g.centers.min()) - 8 * sigma_max
        hi = max(f.centers.max(), g.centers.max()) + 8 * sigma_max
        xs = rng.uniform(lo, hi, size=10_000)
        if model.thresholds.size:
            distance = np.min(np.abs(xs[:, None] - model.thresholds[None, :]), axis=1)
            xs = xs[distance > refine_tol]
        fm = kde_eval(f, xs)
        fp = kde_eval(g, xs)
        # Where both densities are below any statistical relevance the sign
        # of their difference is noise; the rule is only pinned where mass is.
        keep = np.maximum(fm, fp) >= 1e-12
        predicted = classify(model, np.column_stack([xs[keep], np.zeros(keep.sum())]))
        direct = np.sign(fp[keep] - fm[keep])
        if not np.array_equal(predicted, direct):
            rule_ok = False
            break

    risk_ok = True
    for _ in range(20):
        n = int(rng.integers(10, 30))
        data = two_clouds(rng, (0, 0), (rng.uniform(0.3, 2.0), 0.0), 0.4, n)
        direction = UnitDirection.from_angle(0.0)
        estimate = eaa_bayes_risk_for_direction(data, direction)
        minus, plus = project(data, direction)
        pair = ProjectedPair(
            Kde1d(minus, silverman_bandwidth(minus)),
            Kde1d(plus, silverman_bandwidth(plus)),
        )
        sigma_max = max(pair.f_minus.bandwidth, pair.f_plus.bandwidth)
        lo = min(minus.min(), plus.min()) - 8 * sigma_max
        hi = max(minus.max(), plus.max()) + 8 * sigma_max
        grid = np.linspace(lo, hi, 2048)
        fm = kde_eval(pair.f_minus, grid)
        fp = kde_eval(pair.f_plus, grid)
        candidates = np.linspace(lo, hi, 12)[1:-1]
        best = math.inf
        for count in range(4):
            for thresholds in combinations(candidates, count):
                below = np.searchsorted(np.asarray(thresholds), grid, side="left")
                for leftmost in (-1, 1):
                    signs = np.where(below % 2 == 0, leftmost, -leftmost)
                    err = 0.5 * np.trapezoid(np.where(signs == 1, fm, 0.0), grid)
                    err += 0.5 * np.trapezoid(np.where(signs == -1, fp, 0.0), grid)
                    best = min(best, float(err))
        if estimate.eaa_risk > best + 2e-4:
            risk_ok = False
            break
    _report(
        "A8 decision rule and risk oracles",
        rule_ok and risk_ok,
        f"rule={rule_ok} risk={risk_ok}",
    )


def test_a9_sweep_and_bound_check_runtime():
    """A full 360-angle sweep of 1000+1000 points finishes within 30 s and
    the matching per-angle bound check within 60 s."""
    rng = np.random.default_rng(9)
    data = two_clouds(rng, (0.0, 0.0), (1.5, 1.0), 1.0, 1000)

    started = time.perf_counter()
    records = sweep(data, 360)
    sweep_elapsed = time.perf_counter() - started
    assert len(records) == 360

    started = time.perf_counter()
    results = bound_sweep(data, 360)
    bound_elapsed = time.perf_counter() - started
    assert len(results) == 360
    violations = sum(not result.holds for _, result in results)

    _report(
        "A9 sweep and bound-check runtime",
        sweep_elapsed < 30.0 and bound_elapsed < 60.0 and violations == 0,
        f"sweep {sweep_elapsed:.1f} s, bound check {bound_elapsed:.1f} s, "
        f"{violations} violations",
    )
