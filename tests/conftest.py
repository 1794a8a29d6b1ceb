"""Shared oracles for the density tests.

``trapezoid_product_integral`` integrates mixture products numerically and
independently of the closed forms it checks: plain trapezoid sums on
point-doubling grids. ``gaussian_cip_closed_form`` is the population cross
information potential that sampled class densities approach.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

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


@st.composite
def tied_classes(draw):
    """Two nonempty classes of 1 to 40 scalars with many ties, within and
    across the classes and after shifts by +-1: values on a lattice of step
    1/2, 1 or 2 near 0, or of step 2^7 to 2^9 near 2^60 (where x +- 1
    rounds to x) or near 2^52 and 2^53 (where it rounds to even), each
    optionally negated, with a few draws of plain normal noise."""
    kind = draw(st.sampled_from(["small", "2^52", "2^53", "2^60", "noise"]))
    sizes = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    classes = []
    for n in sizes:
        if kind == "noise":
            values = rng.normal(size=n)
        elif kind == "small":
            values = rng.integers(-6, 7, n) * draw(st.sampled_from([0.5, 1.0, 2.0]))
        else:
            base = 2.0 ** {"2^52": 52, "2^53": 53, "2^60": 60}[kind]
            step = 2.0 ** draw(st.integers(7, 9) if kind == "2^60" else st.integers(-1, 9))
            values = base + rng.integers(-4, 5, n) * step
        classes.append(sign * values.astype(np.float64))
    return tuple(classes)
