"""Shared oracles for the density tests.

``trapezoid_product_integral`` integrates mixture products numerically and
independently of the closed forms it checks: plain trapezoid sums on
point-doubling grids. ``gaussian_cip_closed_form`` is the population cross
information potential that sampled class densities approach.
"""

import math

import numpy as np
import pytest

from melc.kde import kde_eval


def trapezoid_product_integral(f, g, stds=8.0, rel_tol=1e-9, max_points=2**21):
    """Integral of f*g by trapezoid quadrature with point doubling.

    The window spans both center ranges padded by ``stds`` of the larger
    bandwidth; the grid doubles until two successive estimates agree to
    ``rel_tol`` relatively.
    """
    lo = min(f.centers.min(), g.centers.min()) - stds * max(f.bandwidth, g.bandwidth)
    hi = max(f.centers.max(), g.centers.max()) + stds * max(f.bandwidth, g.bandwidth)
    previous = None
    points = 1024
    while points <= max_points:
        grid = np.linspace(lo, hi, points + 1)
        estimate = np.trapezoid(kde_eval(f, grid) * kde_eval(g, grid), grid)
        if previous is not None and abs(estimate - previous) <= rel_tol * abs(estimate):
            return estimate
        previous = estimate
        points *= 2
    return previous


def gaussian_cip_closed_form(mean_minus, sigma_minus, mean_plus, sigma_plus, v):
    """Cross information potential of two radial Gaussian classes projected
    on the unit direction v.

    Projections of radial Gaussians are 1-D Gaussians with the same sigmas,
    so the potential is

        exp(-(<v, m_minus> - <v, m_plus>)^2 / (2 (s_-^2 + s_+^2)))
            / sqrt(2 pi (s_-^2 + s_+^2)).
    """
    var_sum = sigma_minus**2 + sigma_plus**2
    delta = float(v.components @ (np.asarray(mean_minus) - np.asarray(mean_plus)))
    return math.exp(-(delta * delta) / (2.0 * var_sum)) / math.sqrt(2.0 * math.pi * var_sum)


def clusters(rng, unit, count):
    """``count`` normal clusters of 2 to 300 points, each 0.05 to 5 units
    wide, more than 40 units apart."""
    gaps = rng.uniform(40.0, 400.0, count)
    return np.concatenate(
        [
            rng.normal(loc, unit * rng.uniform(0.05, 5.0), int(rng.integers(2, 301)))
            for loc in unit * np.cumsum(gaps)
        ]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(42)
