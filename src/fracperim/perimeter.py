"""Assembly of fractional perimeters and Gagliardo seminorms on grids.

The perimeter of a cell set E splits at the box Q, the bounding box of E
grown by a margin, into two exactly-accounted parts:

  in-box:  sum over offsets d of K(d) * R(d), where K is the pair kernel
           over the whole offset box and R(d) = #{c in E : c + d in Q \\ E}
           is the exact integer count B(d) - A(d): B(d) = #{c in E :
           c + d in Q} from prefix sums, and the autocorrelation
           A(d) = #{c in E : c + d in E} from one forward FFT and its
           power spectrum, rounded and checked against its rounding
           residual (``quadrature``).  The table assembles
           K (``InteractionTable.offset_kernel``): its near window, built
           with the table, up to |d|_inf = 16, the far values beyond; which
           rule gives K(d) is decided in ``kernels`` alone;
  tail:    the complement beyond Q, reduced per cell to closed form: the
           exact antiderivative in one dimension; in two, an angular
           identity whose edge arcs are incomplete Beta functions, averaged
           over each cell by an order-4 Gauss rule.  The nodes are
           symmetric, so a cell's tail is eight values Phi_s(p, q) at
           integer offsets from the box edges, and the set's tail is
           sum over (p, q) of C(p, q) * Phi_s(p, q), the count C taken
           from the occupancy and its flips.  The arcs are evaluated in
           numpy (``_EdgeArc``, made with the table): a series in x below
           x = 1/2 and one in the complement y = 1 - x above, each a
           Chebyshev interpolant fitted once per s and within 4.5e-16
           relative of the true value, converted exactly to monomials
           and evaluated by Horner's rule.  Long runs of equal counts
           along a row of C are summed by parts (``_tail_2d``).

Nothing is kept between perimeters: the far rule is evaluated afresh for
each box, beyond |d|_inf = 16 as its multipole expansion
(``kernels._FarExpansion``), and the tail for each set.

The Gagliardo seminorm runs through the same kernel, with R the
autocorrelation of the grid function, taken by a cross-correlation of
two transforms, as its values are not rounded.  All sums run on the unit
lattice and the physical scale enters once through h^(dim-s).  Every sum
is exactly rounded in numpy (``_exact_sum``: integer mantissas binned by
exponent, one correctly rounded division), so it equals ``math.fsum`` of
the same multiset bit for bit.  Congruent sets give bit-identical values
without fixing a frame: a reflection or axis swap only permutes the
multisets, since K is bit-symmetric, R is an exact integer count and a
tail's count array C does not change.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import EmptySetError, MarginError
from .grids import GridSet
from .kernels import InteractionTable, KernelParams, _boundary_values
from .quadrature import (
    autocorrelation_counts,
    box_counts,
    chebyshev_monomials,
    convolve_window,
    gauss_unit,
)

__all__ = [
    "fractional_perimeter",
    "gagliardo_seminorm",
    "single_cell_perimeter",
]

DEFAULT_MARGIN = 4
MIN_MARGIN = 2

_TAIL_OUTER_ORDER = 4
_ARC_NODES = 20
# at x <= 1/2 the k-th series term is below 2^-k: 80 leave less than 1e-24
_SERIES_TERMS = 80
# see ``_tail_2d``
_PARTS_ROW = 16
_SHORT_RUN = 8
_RUN_TERMS = 12
_BINOMIAL_TERMS = 30
_FILL_BLOCK = 1 << 16
# Phi entries (16 arcs each) per array pass: temporaries stay in cache
_PHI_BLOCK = 1 << 10
# _exact_sum splits a value's 53-bit integer mantissa at bit _SPLIT and
# bins both halves at its frexp exponent + _EXP_SHIFT - 53, so that the
# least exponent of a finite float, -1073, lands in bin 0
_SPLIT = 26
_EXP_SHIFT = 1126


def _exact_sum(values: np.ndarray, counts: np.ndarray | None = None) -> float:
    """Correctly rounded sum of counts[i] * values[i] (counts default to 1).

    Each value is m 2^e with m a 53-bit integer (``np.frexp``).  m is split
    into a high half below 2^27 and a low half below 2^26, each exact in a
    float64, and each half times its count is binned by e with
    ``np.bincount``.  While a block's counts add up to at most 2^26, every
    partial sum of a bin is an integer below 2^53, so the bins are exact
    in any order.  They fold into one integer N with sum = N / 2^1126, and
    that one division rounds correctly: the result is ``math.fsum`` of the
    repeated values, bit for bit.  Blocks of _FILL_BLOCK entries keep each
    temporary at 512 KB.  A non-finite value raises ValueError.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if counts is not None:
        counts = np.asarray(counts).ravel()
        if (counts.shape != flat.shape or counts.dtype.kind not in "iu"
                or (counts.size and counts.min() < 0)):
            raise ValueError("counts must be non-negative integers, one per value")
    total = 0
    for k in range(0, flat.size, _FILL_BLOCK):
        block = flat[k:k + _FILL_BLOCK]
        if not np.isfinite(block).all():
            raise ValueError("exact sum of a non-finite value")
        mant, exp = np.frexp(block)
        exp += _EXP_SHIFT - 53
        mant *= 2.0**53
        high = np.trunc(mant * 2.0**-_SPLIT)
        mant -= high * 2.0**_SPLIT
        if counts is not None:
            weights = counts[k:k + _FILL_BLOCK]
            if int(weights.sum(dtype=np.int64)) > 2**_SPLIT:
                raise ValueError("counts too large for an exact block sum")
            high *= weights
            mant *= weights
        bins_high = np.bincount(exp, high)
        bins_low = np.bincount(exp, mant)
        for e in np.flatnonzero(bins_high):
            total += int(bins_high[e]) << (int(e) + _SPLIT)
        for e in np.flatnonzero(bins_low):
            total += int(bins_low[e]) << int(e)
    return total / (1 << _EXP_SHIFT)


# ---------------------------------------------------------------------------
# tail: integral over the complement of the box Q


def _tail_1d_units(xlo: np.ndarray, n: float, s: float) -> np.ndarray:
    """Tail of cells (x, x+1) against the complement of [0, n], unit lattice."""
    p = 1.0 - s
    x = np.asarray(xlo, dtype=np.float64)
    left = (x + 1.0) ** p - x**p
    right = (n - x) ** p - (n - x - 1.0) ** p
    return (left + right) / (s * p)


def _exact_series(first: float, ratios: np.ndarray,
                  denominators: np.ndarray) -> list[float]:
    """Per row, the exactly rounded sum of g_k / denominators[k].

    g_1 = first and g_k = g_(k-1) * ratios[k - 2]; ``np.cumprod``
    multiplies in sequence, so each g_k has the bits of that loop.
    """
    g = np.empty((len(ratios), ratios.shape[1] + 1))
    g[:, 0] = first
    g[:, 1:] = ratios
    np.cumprod(g, axis=1, out=g)
    g /= denominators
    return [math.fsum(row) for row in g.tolist()]


def _lower_rest(x, s: float) -> list[float]:
    """(P(x) - 1) / x at each point x, where sqrt(x) P(x) is the edge arc
    below x = 1/2.

    P(x) = sum_k (-c)_k / k! x^k / (2k + 1) with c = (s - 1)/2: the
    binomial series of (1 - t)^c times t^(-1/2) / 2, integrated over
    (0, x) term by term.  For 0 < s < 1 its terms are all positive.
    Summed to _SERIES_TERMS terms, exactly rounded.
    """
    c = 0.5 * (s - 1.0)
    k = np.arange(2.0, _SERIES_TERMS)
    x = np.asarray(x, dtype=np.float64)[:, None]
    return _exact_series(-c, (k - 1.0 - c) * x / k,
                         np.arange(3.0, 2 * _SERIES_TERMS, 2.0))


def _complement_rest(y, s: float) -> list[float]:
    """(Q(y) - 1/(s+1)) / y at each point y, where y^b Q(y) is the edge
    arc's complement.

    Q(y) = sum_k C(2k, k) / 4^k y^k / (s + 2k + 1): the binomial series of
    (1 - t)^(-1/2) times t^(b-1) / 2, integrated over (0, y) term by term.
    Its terms are all positive.  Summed to _SERIES_TERMS terms, exactly
    rounded.
    """
    k = np.arange(2.0, _SERIES_TERMS)
    y = np.asarray(y, dtype=np.float64)[:, None]
    return _exact_series(0.5, (2.0 * k - 1.0) * y / (2.0 * k),
                         np.concatenate([[s + 3.0], s + 2.0 * k + 1.0]))


def _arc_nodes() -> list[float]:
    """The _ARC_NODES Chebyshev points of [0, 1/2]."""
    n = _ARC_NODES
    return [0.25 * (1.0 + math.cos(math.pi * (2 * k + 1) / (2 * n)))
            for k in range(n)]


def _chebyshev_fits(*fxs: list[float]) -> list[np.ndarray]:
    """Per fx, the coefficients c_j of the interpolant sum_j c_j T_j(4x - 1).

    Each fx holds the values at ``_arc_nodes``.  Each coefficient is one
    ``math.fsum`` in a fixed order, and each angle pi j (2k+1) / (2n) is
    reduced modulo 2 pi in integers before ``math.cos`` sees it; the
    cosines are taken once for all fits.
    """
    n = _ARC_NODES
    cosines = [[math.cos(math.pi * (j * (2 * k + 1) % (4 * n)) / (2 * n))
                for k in range(n)] for j in range(n)]
    fits = []
    for fx in fxs:
        coef = [2.0 / n * math.fsum([v * c for v, c in zip(fx, row)])
                for row in cosines]
        coef[0] *= 0.5
        fits.append(np.array(coef))
    return fits


def _monomial_coefficients(coef: np.ndarray) -> np.ndarray:
    """The a_k with sum_j coef[j] T_j(u) = sum_k a_k u^k, each rounded once.

    The coefficients are dyadic, so over their largest denominator (a
    power of two) each a_k is an exact integer sum, and one integer
    division rounds it correctly.
    """
    ratios = [c.as_integer_ratio() for c in coef.tolist()]
    den = max(d for _, d in ratios)
    nums = [num * (den // d) for num, d in ratios]
    rows = chebyshev_monomials(len(nums))
    # u^k appears in T_j only for j = k, k + 2, ...
    return np.array([
        sum([nums[j] * rows[j][k] for j in range(k, len(nums), 2)]) / den
        for k in range(len(nums))
    ])


def _horner(mono: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k mono[k] u^k at u = 4x - 1, elementwise, by Horner's rule."""
    u = 4.0 * x
    u -= 1.0
    v = u * mono[-1]
    for a in mono[-2:0:-1]:
        v += a
        v *= u
    v += mono[0]
    return v


class _EdgeArc:
    """B_s I_x(1/2, b), b = (s + 1)/2: the kernel over one edge arc, in numpy.

    With x = sin^2(theta), B_s I_x = integral_0^theta cos^s, where
    B_s = B(1/2, b) / 2 is the integral over [0, pi/2].  Two forms, each
    on [0, 1/2]:

      lower(x)      = sqrt(x) P(x), the arc itself, for x <= 1/2;
      complement(y) = y^b Q(y),     B_s - B_s I_x at x = 1 - y, y <= 1/2.

    P and Q are power series with radius 1 (``_lower_rest``,
    ``_complement_rest``).  Each is kept as its constant term plus its
    variable times a Chebyshev interpolant of the rest, fitted once per s,
    so the fit's rounding enters only through that small rest.  Each fit
    is converted once to monomials in u = 4x - 1, each coefficient the
    exact sum rounded once (``_monomial_coefficients``), and evaluated by
    Horner's rule, two array passes per coefficient: about 18 ns a value
    on a 2-vCPU VM.  The arcs agree with Clenshaw's recurrence on the same
    fits to 2 ulps, and bit for bit at about 99% of points
    (``tests/oracles.py``).  B_s is the two forms' sum at x = y = 1/2, so
    they meet there.  Every step is elementwise: a value has the same bits in
    any array.  Against mpmath, both forms and B_s are within 4.5e-16
    relative for s from 0.01 to 0.99 and every x in [0, 1/2].
    """

    def __init__(self, s: float):
        self.s = s
        self.power = 0.5 * (s + 1.0)
        # both rests at the fit's nodes and at 1/2, where the forms meet
        at = [*_arc_nodes(), 0.5]
        lower, complement = _lower_rest(at, s), _complement_rest(at, s)
        self._lower_coef, self._complement_coef = _chebyshev_fits(
            lower[:-1], complement[:-1])
        self._lower_mono = _monomial_coefficients(self._lower_coef)
        self._complement_mono = _monomial_coefficients(self._complement_coef)
        root, half_b = math.sqrt(0.5), 0.5 ** self.power
        self.full = math.fsum([
            root, root * 0.5 * lower[-1],
            half_b / (s + 1.0), half_b * 0.5 * complement[-1],
        ])

    def lower(self, x: np.ndarray) -> np.ndarray:
        """B_s I_x for 0 <= x <= 1/2."""
        v = _horner(self._lower_mono, x)
        v *= x
        v += 1.0
        v *= np.sqrt(x)
        return v

    def complement(self, y: np.ndarray) -> np.ndarray:
        """B_s - B_s I_x at x = 1 - y, for 0 <= y <= 1/2."""
        v = _horner(self._complement_mono, y)
        v *= y
        v += 1.0 / (self.s + 1.0)
        v *= y ** self.power
        return v

    def below(self, lat2: np.ndarray, d2: np.ndarray) -> np.ndarray:
        """B_s I_x at x = lat2 / (lat2 + d2), for lat2 <= d2."""
        return self.lower(lat2 / (lat2 + d2))

    def above(self, lat2: np.ndarray, d2: np.ndarray) -> np.ndarray:
        """B_s I_x at x = lat2 / (lat2 + d2), for lat2 > d2, through the
        complement at y = d2 / (lat2 + d2), formed directly, not as 1 - x."""
        rest = self.complement(d2 / (lat2 + d2))
        return np.subtract(self.full, rest, out=rest)

    def __call__(self, lat2: np.ndarray, d2: np.ndarray) -> np.ndarray:
        """B_s I_x at x = lat2 / (lat2 + d2): ``below`` or ``above`` per entry."""
        lat2, d2 = np.broadcast_arrays(lat2, d2)
        low = lat2 <= d2
        high = ~low
        z = np.empty(low.shape)
        z[low] = self.below(lat2[low], d2[low])
        z[high] = self.above(lat2[high], d2[high])
        return z


def _phi(p: np.ndarray, q: np.ndarray, arc: _EdgeArc) -> np.ndarray:
    """Cell-averaged edge term Phi_s(p, q) of the 2D tail, elementwise.

    The kernel integrated over the rays from a point that leave the box
    through one edge at distance d, on one side of the foot of the
    perpendicular out to a corner at lateral distance t, is
    f(d, t) = d^-s * B_s * I(t^2 / (t^2 + d^2)): the arc integral of cos^s
    is a regularized incomplete Beta function, so f is exact.  ``arc``
    evaluates B_s * I in numpy to within 4.5e-16 relative (``_EdgeArc``).
    Then Phi(p, q) = sum_ab w_a w_b f(p + t_a, q + t_b) over the order-4
    Gauss nodes of (0, 1), for integer offsets p, q of a cell from the
    edge and from the corner.  p and q are arrays (broadcast together);
    every step is elementwise in a fixed order, so an entry has the same
    bits whatever the shapes it is computed in.

    Off the diagonal all 16 arcs of an entry take one branch of ``arc``:
    for integers q < p, q + t_b <= q + 1 <= p <= p + t_a, and rounding
    keeps that order, so lat2 <= d2 and ``arc.below`` applies; for q > p
    the gap (q + t_b) - (p + t_a) >= 1 - (t_4 - t_1) > 0.13 keeps
    lat2 > d2 below 2^40, so ``arc.above`` applies.  Those entries take
    their branch with no per-arc mask, in blocks of _PHI_BLOCK that keep
    the temporaries in cache; the rest (p == q, non-integers, 2^40 and
    beyond) take ``arc`` itself, which picks per arc.  Either way an arc
    sees the same operations, so the bits do not depend on the split.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    shape = np.broadcast_shapes(p.shape, q.shape)
    p = np.broadcast_to(p, shape).ravel()
    q = np.broadcast_to(q, shape).ravel()
    whole = (p == np.floor(p)) & (q == np.floor(q)) & (np.maximum(p, q) < 2.0**40)
    below, above = whole & (q < p), whole & (q > p)
    out = np.empty(p.size)
    for edge, mask in ((arc.below, below), (arc.above, above),
                       (arc, ~(below | above))):
        slots = np.flatnonzero(mask)
        for k in range(0, slots.size, _PHI_BLOCK):
            blk = slots[k:k + _PHI_BLOCK]
            out[blk] = _phi_sum(p[blk], q[blk], edge, arc.s)
    return out.reshape(shape)


def _phi_sum(p: np.ndarray, q: np.ndarray, edge, s: float) -> np.ndarray:
    """sum_ab w_a w_b (p + t_a)^-s edge((q + t_b)^2, (p + t_a)^2), per entry:
    one ``edge`` call over an (a, b, entry) array, summed over b, then a."""
    t, w = gauss_unit(_TAIL_OUTER_ORDER)
    d = p + t[:, None]
    arcs = edge(np.square(q + t[:, None])[None], (d * d)[:, None])
    arcs *= w[:, None]
    inner = functools.reduce(np.add, arcs.transpose(1, 0, 2))
    inner *= w[:, None] * d ** (-s)
    return functools.reduce(np.add, inner)


_BERNOULLI = ((1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42),
              (0, 1), (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730))


@functools.cache
def _run_weights() -> tuple[float, ...]:
    """beta_m = sum_b w_b B_m(t_b) / m!, m <= _RUN_TERMS, over the order-4
    rule's own floats (integers over ``scale``, a power of 2) and Bernoulli
    polynomials B_m(t) = sum_k C(m, k) B_k t^(m-k), B_k = num/den in
    _BERNOULLI; each exact and rounded once.  The rule is exact to degree 7, so beta_1 .. beta_7 vanish to
    rounding (below 3e-17); beta_8 = -5.6e-10."""
    t, w = (v.tolist() for v in gauss_unit(_TAIL_OUTER_ORDER))
    scale = max(v.as_integer_ratio()[1] for v in t + w)
    rule = [(int(a * scale), int(b * scale)) for a, b in zip(t, w)]
    lcm = math.lcm(*[den for _, den in _BERNOULLI])
    return tuple(
        sum(math.comb(m, k) * (num * lcm // den) * scale**k
            * sum(wb * tb ** (m - k) for tb, wb in rule)
            for k, (num, den) in enumerate(_BERNOULLI[:m + 1]))
        / (lcm * scale ** (m + 1) * math.factorial(m))
        for m in range(_RUN_TERMS + 1))


def _shrink(u: np.ndarray, s: float) -> np.ndarray:
    """((1 + u)^(-s/2) - 1) / s for u >= 0, elementwise; up to u = 1/4 by its
    binomial series, as the direct form loses low bits to a small s (terms
    past the _BINOMIAL_TERMS-th add under 4^-29 of the first)."""
    out = (np.float_power(u + 1.0, -0.5 * s) - 1.0) / s
    coef = np.cumprod([-0.5, *[(-0.5 * s - k) / (k + 1)
                               for k in range(1, _BINOMIAL_TERMS)]]).tolist()
    small = u <= 0.25
    v = u[small]
    series = v * coef[-1]
    for c in coef[-2::-1]:
        series += c
        series *= v
    out[small] = series
    return out


def _run_antiderivative(x: np.ndarray, d: np.ndarray, arc: _EdgeArc) -> np.ndarray:
    """H(x), so that sum_(q=q0..q1) sum_b w_b A((q + t_b)/d) = H(q1 + 1) - H(q0).

    A(r) is ``arc`` at lateral offset r d.  By the Euler-Maclaurin formula
    for the rule's offsets, H(x) = beta_0 d G(x/d) + sum_(m=1..12) beta_m
    d^(1-m) A^(m-1)(x/d), with G(r) = r A(r) + ((1 + r^2)^(-s/2) - 1)/s,
    G' = A.  A' = g = (1 + r^2)^-k, k = 1 + s/2, so (1 + r^2) g^(n+1) =
    -[(2n + 2k) r g^(n) + n (n - 1 + 2k) g^(n-1)].  Elementwise; past
    ``arc``, only + - * / and ``np.float_power``.
    """
    s = arc.s
    beta = _run_weights()
    a = arc(x * x, d * d)
    r = x / d
    u = r * r
    shrink = _shrink(u, s)
    u += 1.0
    # A^(0..11), then sum_(m>=1) beta_m d^(1-m) A^(m-1) by Horner in 1/d
    g = (1.0 + s * shrink) / u
    dA = [a, g, -(2.0 + s) * r * g / u]
    for n in range(1, _RUN_TERMS - 2):
        dA.append(-((2 * n + 2.0 + s) * r * dA[n + 1] + n * (n + 1.0 + s) * dA[n]) / u)
    inverse = 1.0 / d
    rest = beta[_RUN_TERMS] * dA[-1]
    for m in range(_RUN_TERMS - 1, 0, -1):
        rest *= inverse
        rest += beta[m] * dA[m - 1]
    return beta[0] * (x * a + d * shrink) + rest


def _tail_terms(occ: np.ndarray):
    """The tail's reads of Phi(p, q), C(p, q) = grid[p, q] + grid[q, p] with
    ``grid`` the occupancy plus its three flips, long side first (rows p
    beyond the short side read grid alone: no array is a square of the
    long side).  Returns the cells read one by one as (p, q, count), and
    for the runs summed by parts, the jumps c(x - 1) - c(x) of a row's
    counts at each x where they change, as (p, x, jump)."""
    grid = occ.astype(np.int8)
    grid = grid + grid[::-1]
    grid = grid + grid[:, ::-1]
    if grid.shape[0] < grid.shape[1]:
        grid = grid.T
    lo = grid.shape[1]
    head = grid.T.copy()
    head[:, :lo] += grid[:lo]
    cells, jumps = [], []
    for counts, first in ((head, 0), (grid[lo:], lo)):
        padded = np.pad(counts, ((0, 0), (1, 1)))
        row, x = np.nonzero(np.diff(padded))
        same = row[1:] == row[:-1]
        row, start, stop = row[:-1][same], x[:-1][same], x[1:][same]
        direct = (padded[row, start + 1] != 0) & (
            (stop - start < _SHORT_RUN) | (row + first < _PARTS_ROW))
        size = stop[direct] - start[direct]
        row = np.repeat(row[direct], size)
        col = np.repeat(start[direct] - np.cumsum(size) + size + 1, size)
        col += np.arange(col.size)
        cells.append((row + first, col - 1, padded[row, col]))
        padded[row, col] = 0
        steps = np.diff(padded)
        row, x = np.nonzero(steps)
        jumps.append((row + first, x, -steps[row, x]))
    return ([np.concatenate(part) for part in zip(*cells)],
            [np.concatenate(part) for part in zip(*jumps)])


def _tail_2d(occ: np.ndarray, arc: _EdgeArc) -> float:
    """Unit tail of an occupancy against the box [0,nx]x[0,ny] it fills.

    The Gauss nodes' symmetry under t -> 1 - t turns each of the eight
    edge arcs of a cell's tail into one Phi at its offsets from two edges,
    so s times the tail is sum_pq C(p, q) Phi(p, q) (``_tail_terms``).
    Along a row, Phi(p, q) = sum_a w_a d_a^-s sum_b w_b A((q + t_b)/d_a)
    with d_a = p + t_a, so a run of equal counts adds its count times
    sum_a w_a d_a^-s (H_a(end) - H_a(start)) (``_run_antiderivative``).

    Runs are summed so from row _PARTS_ROW = 16 on: a whole row agrees
    with its direct sum to rounding (at most 1.2e-15 of it, s = 0.05 to
    0.95) from row 8 on; at row 4 eight terms miss by 3e-14.
    _RUN_TERMS = 12 keeps every beta_m down to -5.5e-13, and the first
    term left out is below 1e-20 of H at d >= 16.  Runs under
    _SHORT_RUN = 8 cells read Phi: H grows with x, so its difference
    cancels, by up to 7e-15 of an 8-cell run and 5e-14 of one cell.  None
    is a setting.  All terms go into one exact sum.  C is the same for
    every reflection or axis swap of the occupancy: congruent sets give
    the same bits.
    """
    (p, q, cells), (bp, bx, jumps) = _tail_terms(occ)
    t, w = gauss_unit(_TAIL_OUTER_ORDER)
    d = bp + t[:, None]
    runs = _run_antiderivative(bx.astype(np.float64), d, arc)
    runs *= w[:, None] * np.float_power(d, -arc.s)
    runs[:, jumps < 0] *= -1.0
    values = np.concatenate([_phi(p, q, arc), runs.ravel()])
    counts = np.concatenate([cells, np.tile(np.abs(jumps), len(t))])
    return _exact_sum(values, counts) / arc.s


# ---------------------------------------------------------------------------
# in-box pair sums: one kernel over the offset box times one pair count


def _correlate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[d + n - 1] = sum_x a[x] * b[x + d] for every offset d of the box.

    That is the whole linear convolution of the flipped ``a`` with ``b``,
    two forward transforms and one inverse.  Only the seminorm takes it:
    its values are not rounded, and one transform's ``|X|^2`` would move
    their bits.
    """
    full = [2 * n - 1 for n in a.shape]
    return convolve_window(np.flip(a), b, [0] * a.ndim, full)


def fractional_perimeter(
    e: GridSet,
    table: InteractionTable,
    bounding_margin: int = DEFAULT_MARGIN,
) -> float:
    """Interaction of E with its complement for the kernel |x-y|^(-(dim+s)).

    The complement is split at the bounding box of E dilated by
    ``bounding_margin`` cells; inside, pair sums use the table and the far
    rule, outside the per-cell tail.  The result is invariant under
    translations, reflections and axis swaps of E (bit for bit) and scales
    as h^(dim-s) exactly.  The in-box part costs one forward FFT of the
    box at twice its size, an inverse over half the offsets, prefix sums
    for B, and one far value per sorted offset magnitude beyond the
    table's window.  The 2D tail costs 16 edge arcs per Phi it
    reads and 4 antiderivatives per jump of a run's count (``_tail_2d``):
    on the bench ``deficit`` sets at h = 1/128, 0.8k-3.3k Phi, 0.5k-2.2k
    jumps and 3-6 ms on a 2-vCPU VM.  In 1D it is one closed form per
    occupied cell.  Nothing is kept between calls.

    Accuracy: in 2D, agreement with ``gagliardo_seminorm(1_E) / 2`` is
    limited by one of two rules, depending on the set's size; the pair
    sums agree to rounding, and the tail summed by parts agrees with its
    per-Phi sum to 1e-15.  For small sets (up to 12 x 12 cells) it is the
    order-4 Gauss average of the tail over each cell:
    up to 9e-12 relative at the default ``bounding_margin=4``, and about
    1e-12 at a margin of 8.  For bench-sized sets it is the far rule's
    order (``FAR_RULE = 3``): on the h = 1/128 ellipse (51,439 cells)
    the gap is 1.5e-11 to 9.6e-11 for s = 0.25 to 0.75, while a margin of
    16 moves ``Ps`` by at most 2.5e-12.
    """
    if e.is_empty:
        raise EmptySetError("fractional perimeter of the empty set")
    table.check_grid(e.spec)
    if bounding_margin < MIN_MARGIN:
        raise MarginError(
            f"bounding_margin must be >= {MIN_MARGIN}; the tail reduction is "
            "singular next to the box boundary"
        )
    params = table.params
    occ = np.pad(e.trimmed().occupancy, bounding_margin)

    # R(d) = #{c in E : c + d in Q \ E} = B(d) - A(d), exact integer counts
    r = box_counts(occ)
    r -= autocorrelation_counts(occ)
    inbox = _exact_sum(table.offset_kernel(occ.shape) * r)

    if params.dim == 1:
        tail_units = _tail_1d_units(np.flatnonzero(occ), float(occ.size), params.s)
        tail = _exact_sum(tail_units)
    else:
        tail = _tail_2d(occ, table.edge_arc)
    return math.fsum([inbox, tail]) * table.scale_factor


def single_cell_perimeter(params: KernelParams) -> float:
    """Unit-lattice interaction of one cell with its whole complement.

    2 / (s (1 - s)) in 1D, the exact 4 s^-2 [V(0) - V(1)] of
    ``kernels._boundary_values`` in 2D: about 0.1 ms, so nothing is cached.
    """
    if params.dim == 1:
        return 2.0 / (params.s * (1.0 - params.s))
    return _boundary_values(params.s)[2]


def gagliardo_seminorm(g, table: InteractionTable) -> float:
    """Squared fractional seminorm of a nonnegative grid function.

    Computed from the algebraic split over ordered cell pairs:
      seminorm^2 = 2 * (P_cell * sum g_c^2 - sum_{d != 0} K(d) R(d))
    where P_cell is the single-cell perimeter, K the pair kernel of the
    perimeter engine and R(d) = sum_c g_c g_{c+d} the autocorrelation of g
    over its support box, taken by one FFT correlation (``_correlate``)
    and not rounded; the complement tail beyond the grid is exact in this
    form.  For an indicator this equals twice the fractional perimeter of
    the underlying set.  P_cell, K(1, 0) and K(1, 1), weighted by about
    |E|, are exact to rounding.
    """
    table.check_grid(g.spec)
    values = np.asarray(g.values, dtype=np.float64)
    support = np.nonzero(values)
    if len(support[0]) == 0:
        return 0.0
    box = values[tuple(slice(ix.min(), ix.max() + 1) for ix in support)]
    diag = single_cell_perimeter(table.params) * float(np.vdot(box, box))
    cross = _exact_sum(table.offset_kernel(box.shape) * _correlate(box, box))
    return 2.0 * (diag - cross) * table.scale_factor
