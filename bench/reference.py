"""Independent references for the benchmark's correctness checks.

Nothing here imports melc. The kernel sums are untruncated: a term is left
out only where exp() underflows to exactly 0.0 in float64, so every sum
equals the full double sum up to summation order. The quadrature rule
(window of 8 maximal bandwidths, 4096-node trapezoid) is the one the program
documents; only the kernel evaluation behind it is independent.
"""

import math

import numpy as np

# exp(-x) is exactly 0.0 in float64 once x exceeds ~745.2, so a kernel farther
# than sqrt(2 * 746) standard deviations adds nothing to a sum.
_ZERO_STDS = math.sqrt(2.0 * 746.0)
_BLOCK_ELEMENTS = 1 << 20
WINDOW_STDS = 8.0


def gauss_sums(x, centers, var):
    """sum_j exp(-(x_i - c_j)^2 / (2 var)) for every x_i."""
    x = np.asarray(x, dtype=np.float64)
    centers = np.sort(np.asarray(centers, dtype=np.float64))
    order = np.argsort(x, kind="stable")
    xs = x[order]
    reach = _ZERO_STDS * math.sqrt(var)
    lo = np.searchsorted(centers, xs - reach, side="left")
    hi = np.searchsorted(centers, xs + reach, side="right")
    sums = np.empty(xs.size)
    i0 = 0
    while i0 < xs.size:
        # Largest block of rows whose shared center window fits the budget;
        # rows * window width grows with the block, so bisect on it.
        low, high = i0 + 1, xs.size
        while low < high:
            mid = (low + high + 1) // 2
            if (mid - i0) * int(hi[mid - 1] - lo[i0]) <= _BLOCK_ELEMENTS:
                low = mid
            else:
                high = mid - 1
        i1 = low
        d = xs[i0:i1, None] - centers[None, lo[i0] : hi[i1 - 1]]
        sums[i0:i1] = np.exp(-(d * d) / (2.0 * var)).sum(axis=1)
        i0 = i1
    out = np.empty_like(sums)
    out[order] = sums
    return out


def density(centers, sigma, x):
    """Uniform-weight Gaussian mixture with bandwidth ``sigma`` at ``x``."""
    centers = np.asarray(centers, dtype=np.float64)
    return gauss_sums(x, centers, sigma * sigma) / (
        centers.size * sigma * math.sqrt(2.0 * math.pi)
    )


def cross(a, sigma_a, b, sigma_b):
    """Closed-form integral of the product of two mixtures."""
    var = sigma_a * sigma_a + sigma_b * sigma_b
    total = float(gauss_sums(a, b, var).sum())
    return total / (np.size(a) * np.size(b) * math.sqrt(2.0 * math.pi * var))


def silverman(samples):
    samples = np.asarray(samples, dtype=np.float64)
    return (4.0 / (3.0 * samples.size)) ** 0.2 * float(samples.std())


def neg_log(value):
    return -math.log(value) if value > 0.0 else math.inf


def overlap(minus, sigma_minus, plus, sigma_plus, grid_points, window=None):
    """Trapezoid quadrature of min(f_minus, f_plus) on the program's grid."""
    if window is None:
        pad = WINDOW_STDS * max(sigma_minus, sigma_plus)
        window = (
            min(minus.min(), plus.min()) - pad,
            max(minus.max(), plus.max()) + pad,
        )
    grid = np.linspace(window[0], window[1], grid_points)
    low = np.minimum(
        density(minus, sigma_minus, grid), density(plus, sigma_plus, grid)
    )
    return float(np.trapezoid(low, grid))


def objectives(minus, plus, sigma_minus, sigma_plus, grid_points):
    """cip, h2x, dcs and overlap of one projection."""
    cip = cross(minus, sigma_minus, plus, sigma_plus)
    h2x = neg_log(cip)
    h_minus = neg_log(cross(minus, sigma_minus, minus, sigma_minus))
    h_plus = neg_log(cross(plus, sigma_plus, plus, sigma_plus))
    return {
        "cip": cip,
        "h2x": h2x,
        "dcs": 2.0 * h2x - h_minus - h_plus,
        "overlap": overlap(minus, sigma_minus, plus, sigma_plus, grid_points),
    }


def bound_sides(minus, plus, sigma_minus, sigma_plus, tail_k, grid_points):
    """(lhs, rhs) of the entropy bound on the axis rescaled to [0, 1]."""
    pad = tail_k * max(sigma_minus, sigma_plus)
    lo = min(minus.min(), plus.min()) - pad
    hi = max(minus.max(), plus.max()) + pad
    scale = 1.0 / (hi - lo)
    m, p = scale * minus - lo * scale, scale * plus - lo * scale
    sm, sp = sigma_minus * scale, sigma_plus * scale
    low = overlap(m, sm, p, sp, grid_points, window=(0.0, 1.0))
    return neg_log(low), 0.5 * neg_log(cross(m, sm, p, sp))


def _chunks(n, width):
    step = max(1, _BLOCK_ELEMENTS // max(1, width))
    return ((i, min(n, i + step)) for i in range(0, n, step))


def hinge_losses(minus, plus, biases):
    """Mean hinge loss of the score x - b, labels -1 / +1, for every b."""
    x = np.concatenate([minus, plus])
    y = np.concatenate([-np.ones(minus.size), np.ones(plus.size)])
    biases = np.atleast_1d(np.asarray(biases, dtype=np.float64))
    out = np.empty(biases.size)
    for i0, i1 in _chunks(biases.size, x.size):
        margins = y[None, :] * (x[None, :] - biases[i0:i1, None])
        out[i0:i1] = np.maximum(0.0, 1.0 - margins).mean(axis=1)
    return out


def best_hinge(minus, plus):
    """Smallest mean hinge loss over every kink of the piecewise-linear loss."""
    kinks = np.unique(np.concatenate([plus - 1.0, minus + 1.0]))
    return float(hinge_losses(minus, plus, kinks).min())


def best_single_threshold(minus, plus):
    """Smallest balanced error of a one-threshold rule, by direct counting."""
    values = np.unique(np.concatenate([minus, plus]))
    cuts = np.concatenate(
        [[values[0] - 1.0], 0.5 * (values[:-1] + values[1:]), [values[-1] + 1.0]]
    )
    best = math.inf
    for i0, i1 in _chunks(cuts.size, max(minus.size, plus.size)):
        t = cuts[i0:i1, None]
        plus_right = 0.5 * (
            (minus[None, :] > t).mean(axis=1) + (plus[None, :] <= t).mean(axis=1)
        )
        plus_left = 0.5 * (
            (minus[None, :] < t).mean(axis=1) + (plus[None, :] >= t).mean(axis=1)
        )
        best = min(best, float(plus_right.min()), float(plus_left.min()))
    return best
