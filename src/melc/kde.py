"""One-dimensional Gaussian-mixture kernel density estimation.

A ``Kde1d`` places one Gaussian kernel of a common bandwidth on every center
with uniform weight 1/N, so the density integrates to 1 analytically. Products
of two such mixtures integrate in closed form, which is what the objective
stack builds on: no quadrature is involved in ``cross_integral``.

The O(N^2) layers have two evaluators. The direct one sums every kernel
pair, or every kernel at every grid node, that lies within ``_CUTOFF_STDS``
standard deviations. For pair sums it visits only those pairs, target by
target, and keeps numpy's ``exp`` off the arguments that underflow or give
subnormals, which leave its vector loop and cost 15 to 100 times more per
element. The binned one serves wide kernels (Greengard & Strain
1991, the fast Gauss transform; Wand 1994, binned KDE): it assigns every
center to the nearest node of a uniform lattice, carries per-node Taylor
moments of the offsets from those nodes, and contracts them with the Gaussian
and its derivatives at the node distances. Its error is absolute, so it is
kept only where it is far below the result:

- Pair sums (``cross_integral``, ``self_integral``) use bins of a quarter of
  the pair kernel's standard deviation and 16 terms, when the centers span at
  most 64 standard deviations and the direct sum would compute more than
  2^17 + 8 * bins^2 pairs. The result is kept only when it is at least
  1e-4 per pair, which holds its absolute error of about 1e-16 per pair to
  1e-12 relative. Narrow kernels, small inputs and tiny or separable sums take
  the direct path and return its value bit for bit.
- ``binned_density_on_grid`` evaluates a density on a ``np.linspace`` grid by
  FFT convolution with closed-form kernel spectra when the grid step is small
  against the bandwidth (at most 12 terms reach a remainder of 1e-17 of a
  kernel's peak). Its error is about 1e-16 of the peak density at every node.

``kde_eval`` and ``eval_on_sorted_grid`` are always direct: threshold
extraction needs the sign of a density difference in the tails.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .geometry import AffineMap1d

__all__ = [
    "Kde1d",
    "DegenerateBandwidthError",
    "silverman_bandwidth",
    "kde_eval",
    "cross_integral",
    "self_integral",
    "rescale_kde",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# exp(-50) ~ 2e-22 per kernel; beyond this distance (relative to the closest
# pair) a term cannot move the double sum by more than 1e-15 relative.
_CUTOFF_STDS = 10.0

_CHUNK = 128

# Terms per block of the direct pair sum, which keeps its scratch in cache.
_BAND_BUDGET = 1 << 15
# numpy's exp leaves its vector loop for results that underflow (about 20 ns
# per element) or are subnormal (about 130 ns), against about 1.2 ns in range
# (measured on a 2-vCPU x86 host), so no smaller exponent is passed to it.
_EXP_FLOOR = -700.0

# Binned pair sums. Bins of a quarter standard deviation keep every center
# within 1/8 of its bin node, so a pair's offset from its bin distance is at
# most 1/4; with Cramer's bound |h_n| <= 1.09 sqrt(n!), the terms from 16 on
# add at most 6e-17 per pair.
_PAIR_BINS_PER_STD = 4
_PAIR_TERMS = 16
# Wider spans take the direct sum: the binned cost grows with the bins squared.
_PAIR_MAX_SPAN_STDS = 64.0
_PAIR_MAX_BINS = int(_PAIR_MAX_SPAN_STDS * _PAIR_BINS_PER_STD) + 1
# Cost model, measured on a 2-vCPU x86 host: the direct sum takes about
# 3.5 ns per pair within its reach at 1000 to 3000 centers a side (a self
# pair half that, as it visits i < j only; more below 1000 centers, where its
# fixed cost shows), the binned one about 0.3 ms plus 20 ns per pair of bins.
# The binned sum runs when the direct one would compute more than
# _PAIR_MIN_PAIRS + 8 * bins^2 pairs. That gate was set when the direct sum
# took 2.5 ns per pair, so it now leans towards the direct sum.
_PAIR_MIN_PAIRS = 1 << 17
# A binned sum below this share of N_a * N_b falls back to the direct sum: its
# absolute error would no longer be 1e-12 relative.
_PAIR_MIN_SHARE = 1e-4
# Terms per Toeplitz product: bounds the copied stack at 4 * bins^2 doubles.
_PAIR_BLOCK = 4
# _PAIR_SHIFT[n, q] = n - q for q <= n, else the index of an all-zero row.
_PAIR_SHIFT = np.fromfunction(
    lambda n, q: np.where(q <= n, n - q, _PAIR_TERMS),
    (_PAIR_TERMS, _PAIR_TERMS),
    dtype=int,
)

# Binned grid densities: the first omitted Taylor term stays below this share
# of a kernel's peak, with at most _GRID_MAX_TERMS terms; beyond that the grid
# step is too coarse for the expansion and the direct evaluator is used.
_GRID_REMAINDER = 1e-17
_GRID_MAX_TERMS = 12
# Below this many kernel evaluations (centers times grid nodes within reach)
# the direct evaluator is the cheaper one.
_GRID_MIN_EVALS = 1 << 18
# Longest transform, in grids: narrower windows than this allows go direct.
_GRID_MAX_LENGTH = 4


class DegenerateBandwidthError(ValueError):
    """Raised when a data-driven bandwidth cannot be formed (too few samples
    or zero spread). Callers may substitute an explicit bandwidth instead."""


@dataclass(frozen=True)
class Kde1d:
    """Gaussian mixture density: uniform-weight kernels at ``centers`` with a
    single positive ``bandwidth``."""

    centers: np.ndarray
    bandwidth: float

    def __post_init__(self):
        centers = np.atleast_1d(np.asarray(self.centers, dtype=np.float64))
        if centers.ndim != 1 or centers.size < 1:
            raise ValueError("centers must be a nonempty 1-D array")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be a positive finite number")
        object.__setattr__(self, "centers", centers)

    @property
    def n_centers(self) -> int:
        return self.centers.size


def silverman_bandwidth(samples) -> float:
    """Rule-of-thumb bandwidth (4 / (3 N))^(1/5) * std for 1-D Gaussian KDE.

    Uses the population (divide-by-N) standard deviation. Raises
    ``DegenerateBandwidthError`` for fewer than two samples or zero spread.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise DegenerateBandwidthError(
            "degenerate bandwidth: need at least 2 samples"
        )
    std = float(samples.std())
    if std <= 0.0:
        raise DegenerateBandwidthError("degenerate bandwidth: zero standard deviation")
    return (4.0 / (3.0 * samples.size)) ** 0.2 * std


def kde_eval(f: Kde1d, x):
    """Evaluate the mixture density at ``x`` (scalar or array).

    Returns (1/N) * sum_i exp(-(c_i - x)^2 / (2 sigma^2)) / (sqrt(2 pi) sigma).
    """
    x_arr = np.asarray(x, dtype=np.float64)
    flat = np.atleast_1d(x_arr).ravel()
    out = np.zeros(flat.size)
    inv2s2 = 0.5 / (f.bandwidth * f.bandwidth)
    buf = np.empty((min(_CHUNK, f.centers.size), flat.size))
    for i0 in range(0, f.centers.size, _CHUNK):
        block = f.centers[i0 : i0 + _CHUNK]
        w = buf[: block.size]
        np.subtract(block[:, None], flat[None, :], out=w)
        np.square(w, out=w)
        w *= -inv2s2
        np.exp(w, out=w)
        out += w.sum(axis=0)
    out /= f.centers.size * f.bandwidth * _SQRT_2PI
    if x_arr.ndim == 0:
        return float(out[0])
    return out.reshape(x_arr.shape)


def eval_on_sorted_grid(f: Kde1d, grid: np.ndarray) -> np.ndarray:
    """Density values on an ascending grid, skipping kernels farther than
    ``_CUTOFF_STDS`` bandwidths from a grid block (below 1e-15 relative)."""
    out = np.zeros(grid.size)
    centers = np.sort(f.centers)
    reach = _CUTOFF_STDS * f.bandwidth
    inv2s2 = 0.5 / (f.bandwidth * f.bandwidth)
    scratch = np.empty(min(_CHUNK, centers.size) * grid.size)
    for i0 in range(0, centers.size, _CHUNK):
        block = centers[i0 : i0 + _CHUNK]
        lo = np.searchsorted(grid, block[0] - reach, side="left")
        hi = np.searchsorted(grid, block[-1] + reach, side="right")
        if hi <= lo:
            continue
        w = scratch[: block.size * (hi - lo)].reshape(block.size, hi - lo)
        np.subtract(block[:, None], grid[None, lo:hi], out=w)
        np.square(w, out=w)
        w *= -inv2s2
        np.exp(w, out=w)
        out[lo:hi] += w.sum(axis=0)
    out /= centers.size * f.bandwidth * _SQRT_2PI
    return out


def _grid_terms(ratio: float) -> int | None:
    """Taylor terms for a grid of step ``ratio`` bandwidths: the smallest q
    whose term, max_u exp(-u^2/2) u^q / q! * (ratio/2)^q, is below
    _GRID_REMAINDER; None when more than _GRID_MAX_TERMS would be needed."""
    for q in range(1, _GRID_MAX_TERMS + 1):
        peak = (q / math.e) ** (q / 2) / math.factorial(q)
        if peak * (ratio / 2) ** q <= _GRID_REMAINDER:
            return q
    return None


def _transform_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c that is at least ``n`` (n >= 1)."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 * 2^k with 2^k >= ceil(n / p35)
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def binned_density_on_grid(f: Kde1d, grid: np.ndarray) -> np.ndarray | None:
    """Density values on ``grid = np.linspace(lo, hi, n)`` by the binned
    expansion, or None where the direct ``eval_on_sorted_grid`` must be used:
    the grid step is too coarse for the bandwidth, the window too narrow for
    a transform of at most _GRID_MAX_LENGTH grids, the problem too small to
    pay for the transform, or a center lies outside the grid."""
    ratio = (grid[-1] - grid[0]) / (grid.size - 1) / f.bandwidth
    if not ratio > 0:  # an empty or descending window
        return None
    terms = _grid_terms(ratio)
    reach = min(grid.size, 2.0 * _CUTOFF_STDS / ratio)
    too_long = (_CUTOFF_STDS + 1.0) / ratio > (_GRID_MAX_LENGTH - 1) * grid.size
    if terms is None or too_long or f.centers.size * reach < _GRID_MIN_EVALS:
        return None
    return _binned_density(f, grid, terms)


def _binned_density(f: Kde1d, grid: np.ndarray, terms: int) -> np.ndarray | None:
    """Density on a linspace grid from ``terms`` Taylor moments per node and
    one batched FFT convolution; None when a center lies outside the grid.

    Each center is assigned to its nearest node k, at an offset v from the
    node in bandwidths. With u the node distance g - k in bandwidths,

        exp(-(u - v)^2 / 2) = sum_q [u^q exp(-u^2/2) / q!] [v^q exp(-v^2/2)],

    so the density is a sum over q of per-node moments convolved with fixed
    kernels. The nodes are taken as exactly uniform, which np.linspace's
    nodes are up to their own rounding. For a step of r bandwidths the q-th
    kernel, wrapped with period L, has the DFT sqrt(2 pi) / r (-i)^q
    He_q(xi) / q! exp(-xi^2 / 2) at xi = 2 pi m / (L r), up to aliasing below
    1e-50 for every r that _grid_terms admits; L >= n + 11 / r keeps the
    wrapped images 11 bandwidths from every output node.
    """
    n = grid.size
    step = (grid[-1] - grid[0]) / (n - 1)
    ratio = step / f.bandwidth
    nodes = np.rint((f.centers - grid[0]) / step).astype(np.intp)
    if nodes.min() < 0 or nodes.max() >= n:
        return None
    offsets = (f.centers - grid[nodes]) / f.bandwidth
    # powers[q] = v^q exp(-v^2/2), summed per (term, node) by one bincount.
    powers = np.empty((terms, offsets.size))
    powers[0] = np.exp(-0.5 * offsets * offsets)
    for q in range(1, terms):
        np.multiply(powers[q - 1], offsets, out=powers[q])
    index = nodes + n * np.arange(terms)[:, None]
    moments = np.bincount(index.ravel(), weights=powers.ravel(), minlength=terms * n)
    size = _transform_length(n + math.ceil((_CUTOFF_STDS + 1.0) / ratio))
    # exp(-xi^2/2) underflows to zero from xi = 39 on, and so do the spectra.
    count = min(size // 2 + 1, math.ceil(39.0 * size * ratio / (2.0 * math.pi)))
    xi = np.arange(count) * (2.0 * math.pi / (size * ratio))
    # He_q(xi) exp(-xi^2/2) / q! times (-i)^q, by the Hermite recurrence.
    spectra = np.empty((terms, xi.size), dtype=complex)
    previous, current = 0.0, np.exp(-0.5 * xi * xi)
    for q in range(terms):
        spectra[q] = current * (-1j) ** q / math.factorial(q)
        previous, current = current, xi * current - q * previous
    spectra *= np.fft.rfft(moments.reshape(terms, n), size, axis=1)[:, : xi.size]
    density = np.fft.irfft(spectra.sum(axis=0), size)[:n]
    # sqrt(2 pi) / r over the mixture's N sigma sqrt(2 pi) is 1 / (N step).
    return density / (f.centers.size * step)


def _min_pair_distance(a_sorted: np.ndarray, b_sorted: np.ndarray) -> float:
    """Smallest |a_i - b_j| between two ascending arrays."""
    pos = np.searchsorted(a_sorted, b_sorted)
    padded = np.concatenate(([-np.inf], a_sorted, [np.inf]))
    below = np.min(b_sorted - padded[pos])
    above = np.min(padded[pos + 1] - b_sorted)
    return max(float(min(below, above)), 0.0)


def min_density_bound(f: Kde1d, g: Kde1d) -> float:
    """Upper bound on min(f(x), g(x)) over all x.

    Every x lies at least half the smallest center distance d between the two
    mixtures away from all centers of one of them, and a mixture is at most
    its kernel's value at that distance there."""
    half = 0.5 * _min_pair_distance(np.sort(f.centers), np.sort(g.centers))
    return max(
        math.exp(-0.5 * (half / h.bandwidth) ** 2) / (h.bandwidth * _SQRT_2PI)
        for h in (f, g)
    )


def _direct_pair_sum(a: np.ndarray, b: np.ndarray, var_sum: float) -> float:
    """sum_ij exp(-(a_i - b_j)^2 / (2 var_sum)) over ascending arrays, over
    the pairs within _CUTOFF_STDS standard deviations of the closest pair's
    distance; the others add less than 1e-15 of the dominant term.

    Each target b_j has a window of centers within that reach, found by
    ``searchsorted``. Targets go in blocks of about _BAND_BUDGET terms, each
    block as wide as its longest window and read from one strided view of the
    padded ``a``. Terms past a row's window are clamped at the reach and their
    known total is subtracted, so exp never sees an exponent below
    _EXP_FLOOR: where the reach's would be, all exponents are taken relative
    to the closest pair's and the sum is scaled back. A self pair (``b is
    a``) sums i < j only.
    """
    inv2s2 = 0.5 / var_sum
    d_min = 0.0 if b is a else _min_pair_distance(a, b)
    reach = d_min + _CUTOFF_STDS * math.sqrt(var_sum)
    reach2 = reach * reach
    shift, scale = 0.0, 1.0
    if reach2 * -inv2s2 < _EXP_FLOOR:
        shift = d_min * d_min * -inv2s2
        scale = math.exp(shift)
        if scale == 0.0:  # every term underflows
            return 0.0
    hi = np.searchsorted(a, b + reach, side="right")
    if b is a:
        lo = np.arange(1, a.size + 1)  # i < j
    else:
        lo = np.searchsorted(a, b - reach, side="left")
    counts = hi - lo
    rows = np.flatnonzero(counts)
    targets, lo, counts = b[rows], lo[rows], counts[rows]
    widest = int(counts.max(initial=0))
    padded = np.concatenate([a, np.full(widest, np.inf)])
    step = padded.itemsize
    windows = as_strided(padded, (a.size + 1, widest), (step, step), writeable=False)
    ends = np.cumsum(counts)
    total, clamped, start = 0.0, 0, 0
    while start < rows.size:
        first = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, first + _BAND_BUDGET, "right")))
        width = int(counts[start:stop].max())
        if width * (stop - start) > _BAND_BUDGET:
            stop = start + max(1, _BAND_BUDGET // width)
            width = int(counts[start:stop].max())
        w = windows[lo[start:stop], :width]
        w -= targets[start:stop, None]
        np.multiply(w, w, out=w)
        np.minimum(w, reach2, out=w)
        w *= -inv2s2
        if shift:
            w -= shift
        np.exp(w, out=w)
        total += float(w.sum())
        clamped += w.size - int(ends[stop - 1] - first)
        start = stop
    if clamped:
        total -= clamped * math.exp(reach2 * -inv2s2 - shift)
    total *= scale
    return a.size + 2.0 * total if b is a else total


def _gaussian_derivatives(x: np.ndarray, terms: int) -> np.ndarray:
    """h_n(x) = d^n/dx^n exp(-x^2/2) = (-1)^n He_n(x) exp(-x^2/2) for
    n < terms, zero beyond one standard deviation past the truncation reach."""
    h = np.zeros((terms, x.size))
    h[0] = np.exp(-0.5 * x * x)
    h[0, np.abs(x) > _CUTOFF_STDS + 1.0] = 0.0
    h[1] = -x * h[0]
    for n in range(1, terms - 1):
        h[n + 1] = -x * h[n] - n * h[n - 1]
    return h


def _pair_derivatives(n_bins: int) -> np.ndarray:
    """h_n at the bin distances (1 - n_bins .. n_bins - 1) / 4 for n < terms,
    sliced from a table that covers every span below the cap."""
    if n_bins > _PAIR_MAX_BINS:
        distances = np.arange(1 - n_bins, n_bins) / _PAIR_BINS_PER_STD
        return _gaussian_derivatives(distances, _PAIR_TERMS)
    first = _PAIR_MAX_BINS - n_bins
    return _PAIR_DERIVATIVES[:, first : first + 2 * n_bins - 1]


_PAIR_DERIVATIVES = _gaussian_derivatives(
    np.arange(1 - _PAIR_MAX_BINS, _PAIR_MAX_BINS) / _PAIR_BINS_PER_STD, _PAIR_TERMS
)
_PAIR_FACTORIALS = np.cumprod([1.0, *range(1, _PAIR_TERMS)])[:, None]


def _bin_moments(bins: np.ndarray, offsets: np.ndarray, n_bins: int) -> np.ndarray:
    """Per-bin sums of offset^m / m! for m < _PAIR_TERMS, shape (terms, bins),
    from one power table summed over each run of equal (ascending) bins."""
    powers = np.empty((_PAIR_TERMS, offsets.size))
    powers[0] = 1.0
    for m in range(1, _PAIR_TERMS):
        np.multiply(powers[m - 1], offsets, out=powers[m])
    starts = np.flatnonzero(np.diff(bins, prepend=-1))
    moments = np.zeros((_PAIR_TERMS, n_bins))
    moments[:, bins[starts]] = np.add.reduceat(powers, starts, axis=1) / _PAIR_FACTORIALS
    return moments


def _hermite_pair_sum(a: np.ndarray, b: np.ndarray, var_sum: float) -> float:
    """The pair sum of ascending ``a`` and ``b`` by binned Taylor expansion.

    In units of s = sqrt(var_sum) every center sits at its bin node k/4 plus
    an offset of at most 1/8. A pair at bin distance D = (k - l)/4 with
    offset t = alpha - beta contributes

        exp(-(D + t)^2 / 2) = sum_n h_n(D) t^n / n!
                            = sum_{m, q} h_{m+q}(D) alpha^m/m! (-beta)^q/q!,

    so per-bin moments of the offsets, contracted with the Gaussian
    derivatives h_n at every bin distance, give the sum. The cost is
    terms^2 * bins^2 instead of N_a * N_b.
    """
    scale = math.sqrt(var_sum)
    origin = min(a[0], b[0])
    ua = (a - origin) / scale
    bins_a = np.rint(ua * _PAIR_BINS_PER_STD).astype(np.intp)
    ub = ua if b is a else (b - origin) / scale
    bins_b = bins_a if b is a else np.rint(ub * _PAIR_BINS_PER_STD).astype(np.intp)
    n_bins = int(max(bins_a[-1], bins_b[-1])) + 1
    moments_a = _bin_moments(bins_a, ua - bins_a / _PAIR_BINS_PER_STD, n_bins)
    if b is a:
        # Equal offsets: the moments of -beta are those of alpha with the odd
        # ones negated.
        moments_b = moments_a * (-1.0) ** np.arange(_PAIR_TERMS)[:, None]
    else:
        moments_b = _bin_moments(bins_b, bins_b / _PAIR_BINS_PER_STD - ub, n_bins)
    h = _pair_derivatives(n_bins)
    # toeplitz[n, k, j] = h[n, k + j] = h_n((k - l) / 4) with l = n_bins - 1 - j.
    toeplitz = sliding_window_view(h, n_bins, axis=1)
    reversed_b = np.ascontiguousarray(moments_b[:, ::-1].T)
    # shifted[n, q, k] = moments_a[n - q, k], zero for q > n
    shifted = np.vstack([moments_a, np.zeros(n_bins)])[_PAIR_SHIFT]
    total = 0.0
    for n0 in range(0, _PAIR_TERMS, _PAIR_BLOCK):
        block = slice(n0, n0 + _PAIR_BLOCK)
        q_end = n0 + _PAIR_BLOCK  # shifted rows with q > n are zero
        # contracted[n, k, q] = sum_l h_n((k - l) / 4) * moments_b[q, l]
        contracted = np.ascontiguousarray(toeplitz[block]) @ reversed_b[:, :q_end]
        total += float(np.einsum("nqk,nkq->", shifted[block, :q_end], contracted))
    return total


def _canonical_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both arrays sorted, the smaller (by size, then bytes) first; a self
    pair (``b is a``) stays one array."""
    same = b is a
    a = np.sort(a)
    b = a if same else np.sort(b)
    if (a.size, a.tobytes()) > (b.size, b.tobytes()):
        a, b = b, a
    return a, b


def _gauss_pair_sum(a: np.ndarray, b: np.ndarray, var_sum: float) -> float:
    """sum_ij exp(-(a_i - b_j)^2 / (2 var_sum)).

    The arguments are put into a canonical order first, so the evaluation
    (and hence the rounding) is identical under argument swap and the result
    is exactly symmetric. The binned expansion runs when the centers span at
    most 64 standard deviations of the pair kernel and the direct sum would
    cost more; its result is kept when it is at least 1e-4 per pair.
    Otherwise the truncated direct sum runs."""
    a, b = _canonical_pair(a, b)
    span_stds = (max(a[-1], b[-1]) - min(a[0], b[0])) / math.sqrt(var_sum)
    # Pairs the direct sum computes if the centers are spread evenly.
    direct_pairs = a.size * b.size * min(1.0, 2.0 * _CUTOFF_STDS / max(span_stds, 1.0))
    n_bins = span_stds * _PAIR_BINS_PER_STD + 1.0
    if (
        span_stds < _PAIR_MAX_SPAN_STDS
        and direct_pairs >= _PAIR_MIN_PAIRS + 8.0 * n_bins * n_bins
    ):
        total = _hermite_pair_sum(a, b, var_sum)
        if total >= _PAIR_MIN_SHARE * a.size * b.size:
            return total
    return _direct_pair_sum(a, b, var_sum)


def cross_integral(f: Kde1d, g: Kde1d) -> float:
    """Integral over the real line of the product of two mixtures.

    Exact closed form: the product of two Gaussian kernels integrates to a
    Gaussian in the center difference with summed variances, so

        (1/(N_f N_g)) * sum_ij phi(c_i - d_j; sigma_f^2 + sigma_g^2),

    where phi(d; s^2) = exp(-d^2 / (2 s^2)) / sqrt(2 pi s^2).
    """
    var_sum = f.bandwidth * f.bandwidth + g.bandwidth * g.bandwidth
    total = _gauss_pair_sum(f.centers, g.centers, var_sum)
    norm = f.centers.size * g.centers.size * math.sqrt(2.0 * math.pi * var_sum)
    return total / norm


def self_integral(f: Kde1d) -> float:
    """Integral of the squared density, cross_integral(f, f)."""
    return cross_integral(f, f)


def rescale_kde(f: Kde1d, mapping: AffineMap1d) -> Kde1d:
    """Push the mixture through an affine map: centers are mapped, the
    bandwidth is multiplied by the scale, and the returned density g
    satisfies g(map(x)) = f(x) / map.scale pointwise."""
    return Kde1d(
        centers=mapping.apply(f.centers),
        bandwidth=f.bandwidth * mapping.scale,
    )
