"""Shared oracles for the density tests.

``trapezoid_product_integral`` integrates mixture products numerically and
independently of the closed forms it checks: plain trapezoid sums on
point-doubling grids. ``grid_density_oracle`` sums every term of a block at
every node in reach, underflowing ones included, with numpy summing each
block over all of its nodes at once; the direct grid evaluator must give its
bits.
"""

import numpy as np
import pytest

from melc import kde
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


def grid_density_oracle(f, grid):
    """Density values on an ascending grid from every kernel within
    _CUTOFF_STDS bandwidths of a block of _CHUNK sorted centers, each block
    summed by numpy over all of its nodes at once."""
    out = np.zeros(grid.size)
    centers = np.sort(f.centers)
    reach = kde._CUTOFF_STDS * f.bandwidth
    inv2s2 = 0.5 / (f.bandwidth * f.bandwidth)
    scratch = np.empty(min(kde._CHUNK, centers.size) * grid.size)
    for i0 in range(0, centers.size, kde._CHUNK):
        block = centers[i0 : i0 + kde._CHUNK]
        lo = np.searchsorted(grid, block[0] - reach, side="left")
        hi = np.searchsorted(grid, block[-1] + reach, side="right")
        if hi <= lo:
            continue
        nodes = grid[lo:hi]
        w = scratch[: block.size * nodes.size].reshape(block.size, nodes.size)
        np.subtract(block[:, None], nodes[None, :], out=w)
        np.square(w, out=w)
        w *= -inv2s2
        np.exp(w, out=w)
        out[lo:hi] += w.sum(axis=0)
    out /= centers.size * f.bandwidth * kde._SQRT_2PI
    return out


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
