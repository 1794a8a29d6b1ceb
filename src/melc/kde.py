"""One-dimensional Gaussian-mixture kernel density estimation.

A ``Kde1d`` places one Gaussian kernel of a common bandwidth on every center
with uniform weight 1/N, so the density integrates to 1 analytically. The
product of two such mixtures integrates in closed form to a sum over kernel
pairs, which is what the objective stack builds on.

The O(N^2) layers have two evaluators. The direct one sums every kernel
pair, or every kernel at every grid node, that lies within ``_CUTOFF_STDS``
standard deviations. For pair sums it visits only those pairs, target by
target, takes a far closest pair's exponent exactly and the others relative
to it, and keeps numpy's ``exp`` off the arguments that underflow or give
subnormals, which leave its vector loop and cost 15 to 100 times more per
element. The binned one, ``binned_density_on_grid``, serves wide kernels
(Wand 1994, binned KDE; Greengard & Strain 1991, the fast Gauss transform):
it evaluates a density on a ``np.linspace`` grid by FFT convolution of
per-node Taylor moments of the centers' offsets from the nodes with
closed-form kernel spectra, when the grid step is small against the
bandwidth (at most 12 terms reach a remainder of 1e-17 of a kernel's peak).
The moments sit on every D-th node, D r <= 0.08 for a step of r bandwidths,
so their transforms are D times shorter than the one inverse transform that
gives every node. Its error is absolute, about 1e-16 of the peak density at
every node. It serves the overlap quadrature and the threshold scan of
``melc.risk``, and the pair sums (``cross_integral``, ``self_integral``):
where the direct sum would cost more, those are the trapezoid sum of both
binned densities on the pair window, kept when far above their error
(``_grid_pair_integral``). Narrow kernels, small inputs and tiny or
separable sums take the direct path and return its value bit for bit.
A ``_PairGrid`` evaluates each of two densities on their pair grid at most
once. A ``ProjectedPair`` keeps its own, which ``cip``, the default overlap
quadrature and the threshold scan share; ``cross_integral`` on bare
densities, and so each self-integral on its own window, makes a new one.

``kde_eval`` truncates nothing; the tests take it as the oracle.
``eval_on_sorted_grid`` is always direct. It sums each node's terms in the
same order whichever other nodes it is given, so a subset of a grid gets the
full grid's bits, and it never passes ``exp`` an exponent whose result is
exactly 0. ``_grid_minimum`` uses that to give the overlap's direct minimum
of two densities bit for bit while evaluating each density only at the
nodes where it can be the smaller. ``_LogBand`` gives ln f, finite
where f underflows, at one point of each of a set of intervals, from the
centers within reach of the interval; it serves threshold extraction
(``melc.risk``) and shares its windowed block loop, ``_Band``, with the
direct pair sum.

``_lattice_cip_screen`` estimates the cross information potential of two
2-D classes projected on every direction of an angle grid at once, with an
error bound per direction: by the Gaussian semigroup, each is a sum of one
lattice correlation of the two Gaussian-smoothed point clouds against a
ridge Gaussian (the gridding of Greengard & Lee 2004). Where that lattice
is too fine to build, ``_cip_lower_bound`` bounds one projection's potential
from below in O(N log N): the centers are summarized per occupied bin of one
pair kernel standard deviation (count, mean, variance), and by Jensen's
inequality each pair of nearby bins adds at least its count product times
the kernel at its mean squared distance. The direction scan uses both only
to order the angles it evaluates in closed form and to stop early.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "Kde1d",
    "DegenerateBandwidthError",
    "silverman_bandwidth",
    "kde_eval",
    "cross_integral",
    "self_integral",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Every evaluator divides by the squared bandwidth; below this it is
# subnormal or 0, and its reciprocal overflows.
_MIN_SQUARED_BANDWIDTH = np.finfo(np.float64).tiny

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
# The direct pair sum's closest pair: below this exponent E its rounding,
# about 1.5 |E| eps of the sum, could pass 1e-14, so it is taken exactly.
_EXACT_EXP = -30.0
# exp of an exponent below -_EXP_ZERO is exactly 0: the smallest subnormal is
# exp(-744.4). The grid evaluator drops such terms instead.
_EXP_ZERO = 746.0
# _grid_minimum's bounds: an upper bound takes exponents of at least
# _BOUND_EXP, so that exp(_BOUND_EXP) / 85 covers a subnormal term's absolute
# rounding, and the bounds must differ by a factor of 1.02, which covers that
# and every other rounding.
_BOUND_EXP = -740.0
_BOUND_MARGIN = math.log(1.02)

# Pair sums on the grid (``_grid_pair_integral``): _PAIR_GRID_POINTS nodes
# over the centers padded by _WINDOW_STDS of the wider bandwidth, past which
# the product's tail is below 1e-15 of a pair's term. Centers spanning more
# pair standard deviations than _PAIR_MAX_SPAN_STDS take the direct sum.
_WINDOW_STDS = 8.0
_PAIR_GRID_POINTS = 4096
_PAIR_MAX_SPAN_STDS = 64.0
# Cost model, measured on a 2-vCPU x86 host: the direct sum takes 4.5 to 7 ns
# a pair within reach at 500 to 5000 centers a side (a self pair visits half
# the pairs), one binned density on the pair grid 0.35 ms up to 1000 centers
# and 0.66 ms at 2000. They meet at this many direct pairs.
_PAIR_MIN_PAIRS = 1 << 17
# A binned density is off by about 1e-16 of its peak at a node, so the
# trapezoid sum of f g, each integrating to at most 1, is off by about
# 1e-16 (max f + max g): at most 9.9e-17 (max f + max g) over 363 draws of
# 200 to 3000 centers a side, bandwidths up to 10 times apart. A sum is kept
# when twice that is at most 1e-13 of it.
_PAIR_GRID_FLOOR = 2e-3

# Direction screen (``_lattice_cip_screen``), in units of the smallest summed
# bandwidth s_min over the angles: the clouds are smoothed at s_min / 2,
# sampled on a lattice of step _SCREEN_STEP * s_min padded by _SCREEN_PAD
# smoothing deviations, and correlation cells below _SCREEN_CUTOFF of the
# peak are dropped.
_SCREEN_STEP = 0.28
_SCREEN_PAD = 9.0
_SCREEN_CUTOFF = 1e-16
# Cost model, measured on a 2-vCPU x86 host: at 720 angles the screen takes
# about 1 us per lattice node, nearly all in the per-angle sums, and the full
# scan 0.1 to 0.5 ms per angle at 40 to 2000 points a class. At this many
# nodes the screen takes about 140 ms against 70 ms or more for the scan;
# larger lattices are not built.
_SCREEN_MAX_NODES = 1 << 17
# Elements per block of per-angle exponentials, and multiply-adds per matrix
# product of lattice weights. OpenBLAS runs smaller products on one thread;
# threaded ones of this size took 2 to 350 ms instead of 0.07 ms each on a
# loaded 2-vCPU x86 host.
_SCREEN_BLOCK = 1 << 15
_SCREEN_GEMM = 1 << 18
# A class whose spread along some direction is below this share of its
# points' squared norms is left to the scan, which may find it degenerate.
_SCREEN_MIN_SPREAD = 1e-8
# A few units of rounding. Measured errors reach half the derived error
# terms (at 2 to 10 points a class), so the bounds are twice those terms.
_SCREEN_EPS = 1e-15
_SCREEN_MARGIN = 2.0

# Lower bound of the direction scan (``_cip_lower_bound``): bins one pair
# kernel standard deviation wide, and bin pairs at most this many bins apart.
# Farther pairs add at most e^-4.5 of a term each; at sigma 1e-3 on 20000
# two-gauss points a class the bound is 0.93 to 0.945 of the potential.
_LOWER_BOUND_BINS = 3

# Binned grid densities: the first omitted Taylor term stays below this share
# of a kernel's peak, with at most _GRID_MAX_TERMS terms; beyond that the grid
# step is too coarse for the expansion and the direct evaluator is used.
_GRID_REMAINDER = 1e-17
_GRID_MAX_TERMS = 12
# The moments sit on a sub-lattice of every D-th node, D the largest 5-smooth
# factor whose step is at most this many bandwidths (10 terms). Below pi / 39
# the kernel spectra, exp(-xi^2/2) times polynomials, underflow before the
# sub-lattice's Nyquist frequency.
_GRID_COARSE_STEP = 0.08
# (-1)^(q // 2) / q!: the sign of (-i)^q's nonzero part over q factorial.
_GRID_SIGNED_FACTORIALS = np.array(
    [(-1) ** (q // 2) / math.factorial(q) for q in range(_GRID_MAX_TERMS)]
)
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
    single positive ``bandwidth``, whose square must be a normal float."""

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
        if self.bandwidth * self.bandwidth < _MIN_SQUARED_BANDWIDTH:
            raise ValueError(
                f"bandwidth {self.bandwidth!r} is too small: its square is below "
                "the smallest normal float"
            )
        object.__setattr__(self, "centers", centers)

    @property
    def n_centers(self) -> int:
        return self.centers.size

    @cached_property
    def _sorted_centers(self) -> np.ndarray:
        """The centers in ascending order, sorted once per density and shared
        by every evaluator, so read-only."""
        centers = np.sort(self.centers)
        centers.flags.writeable = False
        return centers


def silverman_bandwidth(samples) -> float:
    """Rule-of-thumb bandwidth (4 / (3 N))^(1/5) * std for 1-D Gaussian KDE.

    Uses the population (divide-by-N) standard deviation. Raises
    ``DegenerateBandwidthError`` for fewer than two samples or zero spread.
    A spread within the rounding of the mean, N eps times the largest
    magnitude, counts as zero: equal samples have it or not depending on
    how their mean rounds.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise DegenerateBandwidthError(
            "degenerate bandwidth: need at least 2 samples"
        )
    std = float(samples.std())
    rounding = samples.size * np.finfo(np.float64).eps * float(np.max(np.abs(samples)))
    if std <= rounding:
        raise DegenerateBandwidthError("degenerate bandwidth: zero standard deviation")
    return _silverman_factor(samples.size) * std


def _silverman_factor(n: int) -> float:
    """(4 / (3 n))^(1/5), the Silverman bandwidth per standard deviation."""
    return (4.0 / (3.0 * n)) ** 0.2


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
    ``_CUTOFF_STDS`` bandwidths from a grid block (below 1e-15 relative).

    Every node's value is summed block by block, and within a block center
    by center, from the same terms whichever other nodes are given, so at
    any ascending subset of a grid it is the full grid's value bit for bit.
    Terms whose exponent is below -_EXP_ZERO are exactly 0 and are dropped
    before ``exp``, which would take its slow path on them."""
    out = np.zeros(grid.size)
    centers = f._sorted_centers
    reach = _CUTOFF_STDS * f.bandwidth
    inv2s2 = 0.5 / (f.bandwidth * f.bandwidth)
    lo, hi = _block_ranges(centers, reach, grid)
    scratch = np.empty(min(_CHUNK, centers.size) * grid.size)
    for k in np.flatnonzero(hi > lo):
        block = centers[k * _CHUNK : (k + 1) * _CHUNK]
        nodes = grid[lo[k] : hi[k]]
        underflows = _underflows(block, nodes, inv2s2)
        if underflows:
            # Centers whose nearest node is too far add only zeros.
            near = _nearest_distances(nodes, block)
            block = block[np.square(near) * inv2s2 <= _EXP_ZERO]
            if block.size == 0:
                continue
            underflows = _underflows(block, nodes, inv2s2)
        w = scratch[: block.size * nodes.size].reshape(block.size, nodes.size)
        np.subtract(block[:, None], nodes[None, :], out=w)
        np.square(w, out=w)
        w *= -inv2s2
        if underflows:
            keep = w >= -_EXP_ZERO
            w *= keep  # exp(-0.0) is 1, zeroed again below
            np.exp(w, out=w)
            w *= keep
        else:
            np.exp(w, out=w)
        # numpy sums one column pairwise and a wider block row by row.
        out[lo[k] : hi[k]] += w.sum(axis=0) if nodes.size > 1 else w.cumsum()[-1]
    out /= centers.size * f.bandwidth * _SQRT_2PI
    return out


def _underflows(block: np.ndarray, nodes: np.ndarray, inv2s2: float) -> bool:
    """Whether some exponent -(c - x)^2 inv2s2 of ascending centers and nodes
    is below -_EXP_ZERO: the farthest pair's, rounded as the terms are."""
    far = max(nodes[-1] - block[0], block[-1] - nodes[0])
    return far * far * inv2s2 > _EXP_ZERO


def _block_ranges(centers: np.ndarray, reach: float, grid: np.ndarray):
    """For each block of _CHUNK sorted centers, the first and one past the
    last node of the ascending grid within ``reach`` of the block."""
    firsts = centers[::_CHUNK]
    lasts = centers[_CHUNK - 1 :: _CHUNK]
    if centers.size % _CHUNK:
        lasts = np.append(lasts, centers[-1])
    lo = np.searchsorted(grid, firsts - reach, side="left")
    hi = np.searchsorted(grid, lasts + reach, side="right")
    return lo, hi


def _grid_minimum(f: Kde1d, g: Kde1d, grid: np.ndarray) -> np.ndarray:
    """np.minimum(eval_on_sorted_grid(f, grid), eval_on_sorted_grid(g, grid))
    bit for bit, evaluating each density only where it can be the smaller.

    Where one density's blocks do not reach a node, or its nearest center's
    term is exactly 0, that density and so the minimum are exactly 0. At the
    other nodes a density is skipped where it is certainly the larger one:
    its sum holds its nearest center's term, a normal number, when that
    center's block reaches the node, while the other density's sum is at
    most N of its own nearest center's terms. The quotients by the norms are
    rounded in order, so the skipped value cannot be the smaller."""
    pair = (f, g)
    ranges = [_block_ranges(d._sorted_centers, _CUTOFF_STDS * d.bandwidth, grid) for d in pair]
    reached = np.ones(grid.size, dtype=bool)
    for lo, hi in ranges:
        opened = np.bincount(lo, minlength=grid.size + 1) - np.bincount(hi, minlength=grid.size + 1)
        reached &= np.cumsum(opened[:-1]) > 0
    nodes = np.flatnonzero(reached)
    x = grid[nodes]
    zero = np.zeros(nodes.size, dtype=bool)
    lower, upper = [], []  # bounds on ln of each density's value
    for d, (lo, hi) in zip(pair, ranges):
        centers = d._sorted_centers
        right = np.minimum(np.searchsorted(centers, x), centers.size - 1)
        left = np.maximum(right - 1, 0)
        nearest = np.where(np.abs(centers[left] - x) < np.abs(centers[right] - x), left, right)
        # The nearest center's exponent, rounded as the evaluator rounds it.
        exponent = np.square(centers[nearest] - x) * (-0.5 / (d.bandwidth * d.bandwidth))
        zero |= exponent < -_EXP_ZERO
        block = nearest // _CHUNK
        held = (lo[block] <= nodes) & (nodes < hi[block]) & (exponent >= _EXP_FLOOR)
        log_norm = math.log(centers.size * d.bandwidth * _SQRT_2PI)
        lower.append(np.where(held, exponent - log_norm, -np.inf))
        upper.append(math.log(centers.size) + np.maximum(exponent, _BOUND_EXP) - log_norm)
    values = []
    for d, own, other in ((f, lower[0], upper[1]), (g, lower[1], upper[0])):
        wanted = ~zero & (own <= other + _BOUND_MARGIN)
        v = np.full(nodes.size, np.inf)
        v[wanted] = eval_on_sorted_grid(d, x[wanted])
        values.append(v)
    out = np.zeros(grid.size)
    out[nodes[~zero]] = np.minimum(*values)[~zero]
    return out


def _grid_terms(ratio: float) -> int | None:
    """Taylor terms for a grid of step ``ratio`` bandwidths: the smallest q
    whose term, max_u exp(-u^2/2) u^q / q! * (ratio/2)^q, is below
    _GRID_REMAINDER; None when more than _GRID_MAX_TERMS would be needed."""
    if not ratio < 2.0:  # (ratio/2)^q >= 1 and every peak is above 1e-5
        return None
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
    reach = min(grid.size, 2.0 * _CUTOFF_STDS / ratio)
    too_long = (_CUTOFF_STDS + 1.0) / ratio > (_GRID_MAX_LENGTH - 1) * grid.size
    if _grid_terms(ratio) is None or too_long or f.centers.size * reach < _GRID_MIN_EVALS:
        return None
    return _binned_density(f, grid)


def _grid_factor(ratio: float) -> int:
    """The sub-lattice factor for a grid of step ``ratio`` bandwidths: the
    largest 5-smooth D with D * ratio <= _GRID_COARSE_STEP, or 1."""
    factor = max(1, int(_GRID_COARSE_STEP / ratio))
    while _transform_length(factor) != factor:
        factor -= 1
    return factor


def _binned_density(f: Kde1d, grid: np.ndarray) -> np.ndarray | None:
    """Density on a linspace grid from Taylor moments on every D-th node and
    one full-length inverse FFT; None when a center lies outside the grid.

    Each center is assigned to its nearest node k of the sub-lattice of
    every D-th grid node, at an offset v from that node in bandwidths. With u
    the distance from k to a grid node in bandwidths,

        exp(-(u - v)^2 / 2) = sum_q [u^q exp(-u^2/2) / q!] [v^q exp(-v^2/2)],

    so the density is a sum over q of per-node moments, zero off the
    sub-lattice, convolved with fixed kernels sampled on the grid. The nodes
    are taken as exactly uniform, which np.linspace's nodes are up to their
    own rounding; the offsets are taken from the nodes themselves. For a step
    of r bandwidths the q-th kernel, wrapped with period L, has the DFT
    sqrt(2 pi) / r (-i)^q He_q(xi) / q! exp(-xi^2 / 2) at xi = 2 pi m / (L r),
    up to aliasing below 1e-50 for every r that _grid_terms admits. With L
    a multiple of D, the DFT of moments that are zero off the sub-lattice is
    the DFT of length L / D of the sub-lattice moments, repeated; since
    D r <= _GRID_COARSE_STEP < pi / 39, the spectra vanish before its
    Nyquist frequency, so the short transforms serve as they are. A center
    half a step past the last node may sit nearest a sub-lattice node less
    than D steps beyond it, and L >= n + D + 11 / r keeps every wrapped image
    11 bandwidths from every output node.
    """
    n = grid.size
    step = (grid[-1] - grid[0]) / (n - 1)
    ratio = step / f.bandwidth
    factor = _grid_factor(ratio)
    terms = _grid_terms(factor * ratio)
    scaled = (f.centers - grid[0]) / step
    nodes = np.rint(scaled)
    if nodes.min() < 0 or nodes.max() >= n:
        return None
    coarse = np.rint(scaled / factor).astype(np.intp)
    # The grid's nodes, and the sub-lattice nodes past its end.
    lattice = np.concatenate([grid, grid[-1] + step * np.arange(1, factor + 1)])
    offsets = (f.centers - lattice[factor * coarse]) / f.bandwidth
    short = _transform_length(-(-(n + factor + math.ceil((_CUTOFF_STDS + 1.0) / ratio)) // factor))
    size = factor * short
    # powers[q] = v^q exp(-v^2/2), summed per (term, node) by one bincount
    # into rows of the short transform's length.
    powers = np.empty((terms, offsets.size))
    powers[0] = np.exp(-0.5 * offsets * offsets)
    for q in range(1, terms):
        np.multiply(powers[q - 1], offsets, out=powers[q])
    index = coarse + short * np.arange(terms)[:, None]
    moments = np.bincount(index.ravel(), weights=powers.ravel(), minlength=terms * short)
    # exp(-xi^2/2) underflows to zero from xi = 39 on, and so do the spectra.
    count = min(short // 2 + 1, math.ceil(39.0 * size * ratio / (2.0 * math.pi)))
    xi = np.arange(count) * (2.0 * math.pi / (size * ratio))
    # hermite[q] = He_q(xi) exp(-xi^2/2) by the Hermite recurrence, then
    # times 1 / q! and the sign of (-i)^q's nonzero part, (-1)^(q // 2).
    hermite = np.empty((terms, count))
    hermite[0] = np.exp(-0.5 * xi * xi)
    np.multiply(xi, hermite[0], out=hermite[1])
    for q in range(1, terms - 1):
        np.multiply(xi, hermite[q], out=hermite[q + 1])
        hermite[q + 1] -= q * hermite[q - 1]
    hermite *= _GRID_SIGNED_FACTORIALS[:terms, None]
    transforms = np.fft.rfft(moments.reshape(terms, short), axis=1)[:, :count]
    transforms *= hermite
    # The even terms' factors (-i)^q are real and the odd terms' imaginary.
    spectrum = transforms[0::2].sum(axis=0) - 1j * transforms[1::2].sum(axis=0)
    density = np.fft.irfft(spectrum, size)[:n]
    # sqrt(2 pi) / r over the mixture's N sigma sqrt(2 pi) is 1 / (N step).
    return density / (f.centers.size * step)


def _nearest_distances(a_sorted: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance from each x to its nearest entry of the ascending array."""
    pos = np.searchsorted(a_sorted, x)
    padded = np.concatenate(([-np.inf], a_sorted, [np.inf]))
    return np.minimum(x - padded[pos], padded[pos + 1] - x)


def min_density_bound(f: Kde1d, g: Kde1d) -> float:
    """Upper bound on min(f(x), g(x)) over all x.

    Every x lies at least half the smallest center distance d between the two
    mixtures away from all centers of one of them, and a mixture is at most
    its kernel's value at that distance there."""
    half = 0.5 * float(_nearest_distances(f._sorted_centers, g.centers).min())
    return max(
        math.exp(-0.5 * (half / h.bandwidth) ** 2) / (h.bandwidth * _SQRT_2PI)
        for h in (f, g)
    )


class _Band:
    """Windows of an ascending array ``a``, one per row: the ``counts[r]``
    entries from ``a[first[r]]`` on. The rows go in blocks of about
    _BAND_BUDGET terms, each as wide as its longest window, read from one
    strided view of ``a`` padded with +inf."""

    def __init__(self, a: np.ndarray, first: np.ndarray, counts: np.ndarray):
        widest = int(counts.max(initial=0))
        padded = np.concatenate([a, np.full(widest, np.inf)])
        step = padded.itemsize
        self.windows = as_strided(padded, (a.size + 1, widest), (step, step), writeable=False)
        self.first = first
        self.blocks = []
        ends = np.cumsum(counts)
        start = 0
        while start < counts.size:
            begin = ends[start] - counts[start]
            stop = max(start + 1, int(np.searchsorted(ends, begin + _BAND_BUDGET, "right")))
            width = int(counts[start:stop].max())
            if width * (stop - start) > _BAND_BUDGET:
                stop = start + max(1, _BAND_BUDGET // width)
                width = int(counts[start:stop].max())
            self.blocks.append((slice(start, stop), width))
            start = stop

    def differences(self, targets: np.ndarray):
        """Per block, yields (rows, w): the slice of rows and a fresh array
        of a_i - targets[r] over row r's window, +inf past it."""
        for rows, width in self.blocks:
            w = self.windows[self.first[rows], :width]
            w -= targets[rows, None]
            yield rows, w

    def squared_distances(self, targets: np.ndarray):
        """As ``differences``, squared."""
        for rows, w in self.differences(targets):
            np.multiply(w, w, out=w)
            yield rows, w


class _LogBand(_Band):
    """ln f at one point of each of a set of ascending intervals [lo, hi]; a
    grid node is an interval of zero width.

    A point x of an interval whose nearest center lies at distance d_x has
    every center farther than sqrt(d_x^2 + (_CUTOFF_STDS sigma)^2) below
    e^-50 of its largest term. d_x is at most d + w/2, with d the distance
    from the interval's middle to its nearest center and w its width, so the
    centers within sqrt((d + w/2)^2 + (_CUTOFF_STDS sigma)^2) + w/2 of the
    middle cover every point of the interval. They are found once, here.
    """

    def __init__(self, f: Kde1d, lo: np.ndarray, hi: np.ndarray):
        centers = f._sorted_centers
        middle, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nearest = _nearest_distances(centers, middle)
        reach = np.hypot(nearest + half, _CUTOFF_STDS * f.bandwidth) + half
        first = np.searchsorted(centers, middle - reach, side="left")
        last = np.searchsorted(centers, middle + reach, side="right")
        super().__init__(centers, first, last - first)
        self.inv2s2 = 0.5 / (f.bandwidth * f.bandwidth)
        self.log_norm = math.log(centers.size * f.bandwidth * _SQRT_2PI)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """ln f at x[r], a point of interval r. Each row's exponents are
        taken relative to its largest and floored at _EXP_FLOOR, so exp never
        underflows and ln f is finite where f itself underflows; the floored
        terms are below the rounding of the row sum, which is at least 1."""
        out = np.empty(x.size)
        for rows, w in self.squared_distances(x):
            w *= -self.inv2s2
            top = w.max(axis=1)
            w -= top[:, None]
            np.maximum(w, _EXP_FLOOR, out=w)
            np.exp(w, out=w)
            out[rows] = top + np.log(w.sum(axis=1))
        return out - self.log_norm


def _direct_pair_sum(a: np.ndarray, b: np.ndarray, var_sum: float) -> float:
    """sum_ij exp(-(a_i - b_j)^2 / (2 var_sum)) over ascending arrays, over
    the pairs within _CUTOFF_STDS standard deviations of the closest pair's
    distance; the others add less than 1e-15 of the dominant term.

    Each target b_j has a window of centers within that reach, found by
    ``searchsorted`` and summed by ``_Band``. Terms past a row's window are
    clamped at the reach and their known total is subtracted. Where the
    closest pair's exponent is below _EXACT_EXP, its rounding would show in
    the sum, so it is taken exactly and every term relative to it: a pair at
    distance d adds exp(-(d - d_min)(d + d_min) / (2 var_sum)), which is 1
    for the closest pair, and the sum is scaled back once. exp then never
    sees an exponent below _EXP_FLOOR. A self pair (``b is a``) sums i < j
    only.
    """
    inv2s2 = 0.5 / var_sum
    d_min, scale = 0.0, 1.0
    if b is not a:
        gaps = _nearest_distances(a, b)
        j = int(np.argmin(gaps))
        d_min = float(gaps[j])
    relative = d_min * d_min * -inv2s2 < _EXACT_EXP
    if relative:
        scale = _closest_term(a, b[j], d_min, var_sum)
        if scale == 0.0:  # every term underflows
            return 0.0
    reach = d_min + _CUTOFF_STDS * math.sqrt(var_sum)
    hi = np.searchsorted(a, b + reach, side="right")
    if b is a:
        lo = np.arange(1, a.size + 1)  # i < j
    else:
        lo = np.searchsorted(a, b - reach, side="left")
    counts = hi - lo
    rows = np.flatnonzero(counts)
    counts = counts[rows]
    band = _Band(a, lo[rows], counts)
    if relative:
        pieces = band.differences(b[rows])
        edge = (reach - d_min) * (reach + d_min) * -inv2s2
    else:
        reach2 = reach * reach
        pieces = band.squared_distances(b[rows])
        edge = reach2 * -inv2s2
    total, clamped = 0.0, 0
    for block, w in pieces:
        if relative:  # (d - d_min)(d + d_min), d = |a_i - b_j| up to the reach
            np.abs(w, out=w)
            np.minimum(w, reach, out=w)
            far = w + d_min
            w -= d_min
            w *= far
        else:
            np.minimum(w, reach2, out=w)
        w *= -inv2s2
        np.exp(w, out=w)
        total += float(w.sum())
        clamped += w.size - int(counts[block].sum())
    if clamped:
        total -= clamped * math.exp(edge)
    total *= scale
    return a.size + 2.0 * total if b is a else total


def _closest_term(a: np.ndarray, x: float, d_min: float, var_sum: float) -> float:
    """exp(-(x - a_k)^2 / (2 var_sum)) for the a_k nearest to x, at distance
    d_min as rounded, from its exponent taken exactly and rounded to a
    double-double hi + lo: exp(hi) (1 + lo)."""
    k = int(np.searchsorted(a, x))
    nearest = a[k - 1] if k > 0 and x - a[k - 1] == d_min else a[k]
    exponent = -((Fraction(float(x)) - Fraction(float(nearest))) ** 2) / (2 * Fraction(var_sum))
    hi = float(exponent)
    return math.exp(hi) * (1.0 + float(exponent - Fraction(hi)))


def _canonical_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both arrays sorted, the smaller (by size, then bytes) first; a self
    pair (``b is a``) stays one array."""
    same = b is a
    a = np.sort(a)
    b = a if same else np.sort(b)
    if (a.size, a.tobytes()) > (b.size, b.tobytes()):
        a, b = b, a
    return a, b


def _pair_window(f: Kde1d, g: Kde1d) -> tuple[float, float]:
    """Both mixtures' centers, padded by _WINDOW_STDS of the wider bandwidth."""
    centers_lo = min(float(f.centers.min()), float(g.centers.min()))
    centers_hi = max(float(f.centers.max()), float(g.centers.max()))
    pad = _WINDOW_STDS * max(f.bandwidth, g.bandwidth)
    return centers_lo - pad, centers_hi + pad


class _PairGrid:
    """The pair grid of two mixtures f and g, _PAIR_GRID_POINTS nodes over
    ``_pair_window(f, g)``. The nodes and each mixture's
    ``binned_density_on_grid`` values there (None where the direct evaluator
    must be used) are computed on first use and kept, so the holder of one
    grid evaluates each density at most once. A ``ProjectedPair`` holds its
    pair's; any other caller makes its own."""

    def __init__(self, f: Kde1d, g: Kde1d):
        self.f, self.g = f, g
        self.window = _pair_window(f, g)

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.window[0], self.window[1], _PAIR_GRID_POINTS)

    @cached_property
    def f_values(self) -> np.ndarray | None:
        return binned_density_on_grid(self.f, self.nodes)

    @cached_property
    def g_values(self) -> np.ndarray | None:
        return self.f_values if self.g is self.f else binned_density_on_grid(self.g, self.nodes)


def _grid_pair_integral(
    f: Kde1d, g: Kde1d, var_sum: float, grid: _PairGrid | None = None
) -> float | None:
    """The integral of f g as the trapezoid sum of both binned densities on
    the pair grid, exactly symmetric in f and g; None where the direct sum
    must run. The densities come from ``grid``, the pair grid of f and g,
    where the caller holds one, else from a grid of its own. The rule's
    error is about exp(-2 pi^2 t^2 / h^2) for Gaussian mixtures (Trefethen &
    Weideman 2014), t the narrowest product kernel's deviation, and binned
    densities keep the step h below t / 3."""
    grid = _PairGrid(f, g) if grid is None else grid
    window = grid.window
    pad = 2.0 * _WINDOW_STDS * max(f.bandwidth, g.bandwidth)
    span_stds = (window[1] - window[0] - pad) / math.sqrt(var_sum)
    # Pairs the direct sum computes if the centers are spread evenly.
    direct_pairs = f.n_centers * g.n_centers * min(1.0, 2.0 * _CUTOFF_STDS / max(span_stds, 1.0))
    if span_stds >= _PAIR_MAX_SPAN_STDS or direct_pairs < _PAIR_MIN_PAIRS:
        return None
    fv = grid.f_values
    gv = None if fv is None else grid.g_values
    if gv is None:
        return None
    integral = float(np.trapezoid(fv * gv, grid.nodes))
    return integral if integral >= _PAIR_GRID_FLOOR * (fv.max() + gv.max()) else None


def cross_integral(f: Kde1d, g: Kde1d) -> float:
    """Integral over the real line of the product of two mixtures.

    The product of two Gaussian kernels integrates to a Gaussian in the
    center difference with summed variances, so the integral is the pair sum

        (1/(N_f N_g)) * sum_ij phi(c_i - d_j; sigma_f^2 + sigma_g^2),

    where phi(d; s^2) = exp(-d^2 / (2 s^2)) / sqrt(2 pi s^2). Wide kernels
    take it from a grid (``_grid_pair_integral``), others from the direct sum
    in a canonical order; either is exactly symmetric under argument swap.
    """
    return _cross_integral(_PairGrid(f, g))


def _cross_integral(grid: _PairGrid) -> float:
    """``cross_integral`` of the grid's two mixtures, whose binned densities
    on their pair grid come from ``grid``."""
    f, g = grid.f, grid.g
    var_sum = f.bandwidth * f.bandwidth + g.bandwidth * g.bandwidth
    integral = _grid_pair_integral(f, g, var_sum, grid)
    if integral is not None:
        return integral
    total = _direct_pair_sum(*_canonical_pair(f.centers, g.centers), var_sum)
    norm = f.centers.size * g.centers.size * math.sqrt(2.0 * math.pi * var_sum)
    return total / norm


def self_integral(f: Kde1d) -> float:
    """Integral of the squared density, cross_integral(f, f)."""
    return cross_integral(f, f)


def _bin_summaries(centers: np.ndarray, origin: float, width: float):
    """Per occupied bin of ``width`` from ``origin``, found as a run of the
    ascending centers: its index, count, first center, and the mean and
    variance of its centers' offsets from that first center."""
    bins = centers - origin
    bins /= width
    np.floor(bins, out=bins)
    starts = np.flatnonzero(np.concatenate(([True], bins[1:] != bins[:-1])))
    bins = bins[starts]
    counts = np.diff(starts, append=centers.size)
    firsts = centers[starts]
    offsets = np.repeat(firsts, counts)
    np.subtract(centers, offsets, out=offsets)
    means = np.add.reduceat(offsets, starts)
    means /= counts
    np.square(offsets, out=offsets)
    variances = np.add.reduceat(offsets, starts)
    variances /= counts
    variances -= means * means
    return bins, counts, firsts, means, np.maximum(variances, 0.0, out=variances)


def _cip_lower_bound(f: Kde1d, g: Kde1d) -> float:
    """A lower bound on ``cross_integral(f, g)`` in O(N log N).

    The sorted centers of each density are grouped into bins one pair
    kernel standard deviation s wide, s^2 = sigma_f^2 + sigma_g^2. Two bins
    of n and m centers, means mu and nu and variances v and w, have pairs of
    mean squared distance (mu - nu)^2 + v + w, and exp(-d2 / (2 s^2)) is
    convex in d2, so by Jensen's inequality their pairs sum to at least
    n m exp(-((mu - nu)^2 + v + w) / (2 s^2)). Only bin pairs at most
    _LOWER_BOUND_BINS apart are summed; the others would only add, and the
    summed exponents stay above -((_LOWER_BOUND_BINS + 1)^2 + 1/2) / 2, so
    exp never leaves its fast path. Means are kept as a first center plus
    an offset, so their distances round relative to s, not to the centers'
    magnitude.
    """
    a, b = f._sorted_centers, g._sorted_centers
    var_sum = f.bandwidth * f.bandwidth + g.bandwidth * g.bandwidth
    origin, width = min(a[0], b[0]), math.sqrt(var_sum)
    bins_a, counts_a, firsts_a, means_a, vars_a = _bin_summaries(a, origin, width)
    bins_b, counts_b, firsts_b, means_b, vars_b = _bin_summaries(b, origin, width)
    # Each bin of a meets one run of b's occupied bins.
    lo = np.searchsorted(bins_b, bins_a - _LOWER_BOUND_BINS, side="left")
    hi = np.searchsorted(bins_b, bins_a + _LOWER_BOUND_BINS, side="right")
    total = 0.0
    for j in range(2 * _LOWER_BOUND_BINS + 1):
        rows = np.flatnonzero(lo + j < hi)
        cols = lo[rows] + j
        d = (firsts_a[rows] - firsts_b[cols]) + (means_a[rows] - means_b[cols])
        exponents = (d * d + vars_a[rows] + vars_b[cols]) * (-0.5 / var_sum)
        total += float(np.dot(counts_a[rows] * counts_b[cols], np.exp(exponents)))
    return total / (a.size * b.size * math.sqrt(2.0 * math.pi * var_sum))


def _closest_pair_bound(f: Kde1d, g: Kde1d) -> float:
    """A lower bound on ``cross_integral(f, g)``: the closest cross pair's
    term alone, exp(-d^2 / (2 s^2)) / (N_f N_g sqrt(2 pi s^2)), as every
    other term is non-negative. Its relative rounding, about d^2 / (2 s^2)
    units, stays far inside the direction scan's slack of 1e-9."""
    var_sum = f.bandwidth * f.bandwidth + g.bandwidth * g.bandwidth
    d = float(_nearest_distances(f._sorted_centers, g._sorted_centers).min())
    norm = f.n_centers * g.n_centers * math.sqrt(2.0 * math.pi * var_sum)
    return math.exp(-0.5 * d * d / var_sum) / norm


def _lattice_cip_screen(minus, plus, directions, bandwidth=None):
    """Estimates of the cross information potential of the projected classes
    at every unit direction, with error bounds, from one lattice correlation;
    None where the screen does not apply: a class of fewer than two points, a
    projected Silverman spread near zero, a bandwidth ``Kde1d`` rejects, or
    a lattice of more than _SCREEN_MAX_NODES nodes.

    ``minus`` and ``plus`` are (N, 2) point arrays, ``directions`` is
    (angles, 2), and ``bandwidth`` is one bandwidth for both classes or None
    for the Silverman rule per class and direction. With x_i in minus, y_j in
    plus, s^2 the summed kernel variances at v and G_tau the isotropic 2-D
    Gaussian of variance tau^2 < s^2 per axis, the Gaussian semigroup gives

        N_- N_+ CIP(v) = integral C(z) phi(<v, z>; s^2 - tau^2) dz,
        C(z) = sum_ij G_tau(z - (y_j - x_i)).

    C is the correlation of the two clouds smoothed by G_(tau / sqrt 2). They
    are sampled on one lattice of step h, correlated by FFT at the offsets of
    the sub-lattice of step 2h, and the integral is the sum over those
    offsets. Returns (estimates, bounds), two arrays over the directions.
    """
    sizes = np.array([len(minus), len(plus)], dtype=np.float64)
    if sizes.min() < 2:
        return None
    if bandwidth is None:
        var_sum = 0.0
        var_error = 0.0  # relative error of var_sum against the projections'
        for points in (minus, plus):
            centered = points - points.mean(axis=0)
            spread = np.einsum("ai,ij,aj->a", directions, centered.T @ centered, directions)
            # Rounding in the centering and in v^T S v is relative to the
            # points' squared norms; near it, the scan's own projections may
            # have no spread at all.
            norm2 = float(np.sum(points * points))
            if not spread.min() > _SCREEN_MIN_SPREAD * norm2:
                return None
            var_sum = var_sum + _silverman_factor(len(points)) ** 2 / len(points) * spread
            var_error = np.maximum(var_error, _SCREEN_EPS * (1.0 + norm2 / spread))
    elif bandwidth > 0.0 and math.isfinite(bandwidth):
        var_sum = np.full(len(directions), 2.0 * bandwidth * bandwidth)
        var_error = 0.0
    else:
        return None
    s_min = math.sqrt(var_sum.min())
    if not s_min > 0.0:
        return None
    # tau^2 = s_min^2 / 2 maximizes the sub-lattice alias damping below at
    # s_min; each cloud is smoothed at tau / sqrt 2 = s_min / 2.
    tau2 = 0.5 * s_min * s_min
    smooth = 0.5 * s_min
    step = _SCREEN_STEP * s_min
    pad = _SCREEN_PAD * smooth
    points = np.vstack([minus, plus])
    lo = points.min(axis=0) - pad
    spans = [(float(extent) + 2.0 * pad) / step for extent in np.ptp(points, axis=0)]
    if not math.prod(span + 2.0 for span in spans) <= _SCREEN_MAX_NODES:
        return None
    shape = tuple(math.ceil(span) + 1 for span in spans)
    axes = [lo[d] + step * np.arange(shape[d]) for d in (0, 1)]
    reach = math.ceil(pad / step) + 1  # in nodes, from a point's nearest node

    def smoothed(cloud):
        # sum_i exp(-|w - x_i|^2 / (2 smooth^2)) at the nodes w within
        # `reach` nodes of x_i's nearest node along both axes; farther, a
        # factor is below exp(-_SCREEN_PAD^2 / 2). The points go in x order,
        # in blocks whose x nodes fit in one band of 3 reach + 1 rows.
        cloud = cloud[np.argsort(cloud[:, 0], kind="stable")]
        nearest = np.rint((cloud - lo) / step).astype(np.intp)
        out = np.zeros(shape)
        rows = max(1, _SCREEN_GEMM // ((3 * reach + 1) * shape[1]))
        start = 0
        while start < len(cloud):
            in_band = np.searchsorted(nearest[:, 0], nearest[start, 0] + reach, "right")
            stop = min(start + rows, int(in_band))
            band = []
            for d in (0, 1):
                first = max(int(nearest[start:stop, d].min()) - reach, 0)
                end = min(int(nearest[start:stop, d].max()) + reach + 1, shape[d])
                w = np.subtract.outer(cloud[start:stop, d], axes[d][first:end])
                w /= smooth
                w *= w
                w *= -0.5
                # Raised to exp(-350) at most, so that products stay normal.
                np.maximum(w, 0.5 * _EXP_FLOOR, out=w)
                band.append((slice(first, end), np.exp(w, out=w)))
            (rows_x, wx), (rows_y, wy) = band
            out[rows_x, rows_y] += wx.T @ wy
            start = stop
        return out

    grid_plus, grid_minus = smoothed(plus), smoothed(minus)
    norms = math.sqrt(np.sum(grid_plus * grid_plus) * np.sum(grid_minus * grid_minus))
    # Offsets 2h (u - u') pair nodes of equal parity, so the correlation on
    # the sub-lattice is the sum of the four parity classes' correlations.
    size = [_transform_length(2 * ((n + 1) // 2) - 1) for n in shape]
    spectrum = np.zeros((size[0], size[1] // 2 + 1), dtype=complex)
    for parity in [(slice(r0, None, 2), slice(r1, None, 2)) for r0 in (0, 1) for r1 in (0, 1)]:
        term = np.fft.rfft2(grid_plus[parity], size)
        other = np.fft.rfft2(grid_minus[parity], size)
        term *= np.conjugate(other, out=other)
        spectrum += term
    # Each stage's arrays are freed before the next one's are made.
    del grid_plus, grid_minus, term, other
    corr = np.fft.irfft2(spectrum, size)
    del spectrum
    peak = float(corr.max())
    keep = corr > _SCREEN_CUTOFF * peak
    rows, cols = np.nonzero(keep)
    sub_step = 2.0 * step
    offsets = [np.fft.fftfreq(n, 1.0 / n) * sub_step for n in size]
    z1, z2 = offsets[0][rows], offsets[1][cols]
    weights = corr[keep]
    del corr, keep

    # The exponent -<v, z>^2 / (2 q), q = s^2 - tau^2, is one product of the
    # per-angle coefficients of z1^2, z1 z2 and z2^2 with those monomials.
    rest = var_sum - tau2
    cos, sin = directions[:, 0], directions[:, 1]
    coefficients = np.column_stack([cos * cos, 2.0 * cos * sin, sin * sin])
    coefficients *= (-0.5 / rest)[:, None]
    monomials = np.stack([z1 * z1, z1 * z2, z2 * z2])
    sums = np.empty(len(directions))
    chunk = max(1, _SCREEN_BLOCK // len(weights))
    for k in range(0, len(directions), chunk):
        t = coefficients[k : k + chunk] @ monomials
        np.maximum(t, _EXP_FLOOR, out=t)
        sums[k : k + chunk] = np.einsum("ij,j->i", np.exp(t, out=t), weights)
    # C = h^2 / (2 pi smooth^2)^2 corr, and each offset weighs (2h)^2.
    scale = (step * sub_step / (2.0 * math.pi * smooth * smooth)) ** 2 / sizes.prod()
    ridge_peak = 1.0 / np.sqrt(2.0 * math.pi * rest)
    estimates = scale * ridge_peak * sums

    # Relative error. Aliasing of the lattice correlation: images at 2 pi / h
    # damped by a smoothed pair's variance tau^2 / 4. Aliasing of the offset
    # sum: images at 2 pi / (2h) damped by the variance tau^2 q / s^2 along v.
    # The error of var_sum, which moves ln CIP by at most
    # 1 - ln(CIP sqrt(2 pi s^2)) times its own. Rounding, and cancellation in
    # the exponents from |z|^2 / (2 q) where z is near normal to v.
    decay = (math.pi / step) ** 2 * tau2 / 2.0
    alias = 4.0 * math.exp(-decay) + 4.0 * np.exp(-decay * rest / var_sum)
    kernel_mean = np.clip(estimates * np.sqrt(2.0 * math.pi * var_sum), 1e-300, 1.0)
    radius2 = float(np.max(z1 * z1 + z2 * z2))
    relative = (
        alias
        + var_error * (1.0 - np.log(kernel_mean))
        + _SCREEN_EPS * (1.0 + radius2 / rest)
    )
    # Absolute error per offset, in units of corr: the cutoff; the FFT's
    # rounding; and the two cuts of the smoothed kernels (the lattice's edge
    # and `reach`), each dropping at most exp(-_SCREEN_PAD^2 / 2) of a pair's
    # lattice sum, itself at most 2 pi (smooth / h)^2. Summed against the
    # ridge over offsets spanning `span`, an error e per offset adds at most
    # e (span + 2h) (sqrt 2 + 2h phi_max) / (2h)^2.
    cell = (
        _SCREEN_CUTOFF * peak
        + _SCREEN_EPS * math.log2(size[0] * size[1]) * norms
        + 4.0 * math.pi * (smooth / step) ** 2 * sizes.prod() * math.exp(-0.5 * _SCREEN_PAD**2)
    )
    span = max(size) * sub_step
    floor = cell * (span + sub_step) * (math.sqrt(2.0) + sub_step * ridge_peak) / sub_step**2
    bounds = _SCREEN_MARGIN * (relative * estimates + scale * floor)
    return estimates, bounds
