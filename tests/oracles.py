"""Independent reference computations used as test oracles.

Nothing here shares quadrature code with the package: pair values come from
plain midpoint rules, scipy adaptive quadrature, mpmath at 40 digits, or
closed forms derived by hand, so agreement with the engine is evidence
rather than tautology.  The
mirror oracle likewise maps cell centers by their coordinates, not by the
package's cell-index arithmetic.  The exceptions are the two lattice-count
oracles, ``complement_pair_counts`` and ``full_lattice_scan``, and the
tail oracle ``slot_tail_2d``: they are the package's earlier paths, kept
as references for the paths that replaced them (prefix sums and one
autocorrelation; a scan over the set's bounding box; rows of the tail
summed by parts).  ``cell_pair_integral``, ``same_region`` and
``translate_cells`` were public helpers that nothing but the tests called;
the first is the engine's own pair rule, which the tests pin bit for bit.
"""

import math

import mpmath
import numpy as np
from scipy import integrate, signal, special

from fracperim import GridSet, GridSpec, kernels
from fracperim.perimeter import _exact_sum, _phi
from fracperim.quadrature import convolve_window, rounded_counts


def _midpoint_pair(d, s, sub):
    # pair integral by sub x sub midpoints per cell; pure midpoint arithmetic
    t = (np.arange(sub) + 0.5) / sub
    x = t[:, None, None, None]
    y = t[None, :, None, None]
    u = d[0] + t[None, None, :, None] - x
    v = d[1] + t[None, None, None, :] - y
    r2 = u * u + v * v
    return float(np.sum(r2 ** (-0.5 * (2.0 + s)))) / sub**4


_TOUCH_CACHE: dict = {}


def _adaptive_touching(a, b, s):
    # scipy adaptive quadrature on the tent-reduced form; the singular
    # point is announced so QUADPACK resolves the algebraic blowup
    key = (a, b, s)
    if key not in _TOUCH_CACHE:
        def f(w1, w2):
            return (w1 * w1 + w2 * w2) ** (-0.5 * (2.0 + s)) * (
                1 - abs(w1 - a)
            ) * (1 - abs(w2 - b))

        val, _ = integrate.nquad(
            f,
            [[a - 1, a + 1], [b - 1, b + 1]],
            opts=[
                {"points": [0.0], "limit": 200},
                {"points": [0.0], "limit": 200},
            ],
        )
        _TOUCH_CACHE[key] = val
    return _TOUCH_CACHE[key]


def _brute_pair_value(d, s):
    dist = max(abs(d[0]), abs(d[1]))
    if dist == 1:
        return _adaptive_touching(abs(d[0]), abs(d[1]), s)
    if dist > 40:
        return (d[0] ** 2 + d[1] ** 2) ** (-0.5 * (2.0 + s))
    if dist > 16:
        return _midpoint_pair(d, s, 2)
    return _midpoint_pair(d, s, 8)


def touching_pair(b, s):
    """K(1, b) for b = 0 (edge neighbour) or 1 (corner neighbour), in mpmath.

    The tent form int (1 - |c - 1|)(1 - |t - b|) (c^2 + t^2)^-al dc dt,
    al = 1 + s/2, with the t integral in closed form: int_Y^inf (c^2 +
    t^2)^-al dt = Y^-(1+s) H(c^2 / Y^2) / (1 + s), H(z) = 2F1(al, al - 1/2;
    al + 1/2; -z), and int_0^Y t (c^2 + t^2)^-al dt elementary.  The c^-(1+s)
    part of the edge neighbour's inner integral is integrated exactly.  No
    boundary identity, so it checks ``kernels._boundary_values``.
    """
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        al = 1 + s / 2

        def hyp(z):
            return mpmath.hyp2f1(al, al - 0.5, al + 0.5, -z)

        def ends(c, y):  # int_0^y t (c^2 + t^2)^-al dt
            return ((c * c + y * y) ** (-s / 2) - c ** -s) / -s

        if b == 1:
            def inner(c):  # int_0^1 t g dt + int_1^2 (2 - t) g dt
                band = (hyp(c * c) - 2 ** (-1 - s) * hyp(c * c / 4)) / (1 + s)
                return 2 * band + 2 * ends(c, 1) - ends(c, 2)

            return +mpmath.quad(lambda c: (1 - abs(c - 1)) * inner(c), [0, 1, 2])
        # 2 int_0^1 (1 - t)(...) dt = 2 B c^-(1+s) - 2 H(c^2) / (1 + s) - 2 ends(c, 1)
        big = mpmath.sqrt(mpmath.pi) * mpmath.gamma(al - 0.5) / (2 * mpmath.gamma(al))

        def smooth(c):
            return -2 * hyp(c * c) / (1 + s) - 2 * ends(c, 1)

        # int_0^2 (1 - |c - 1|) c^-(1+s) dc
        singular = 1 / (1 - s) + 2 * (1 - 2 ** -s) / s - (2 ** (1 - s) - 1) / (1 - s)
        rest = mpmath.quad(lambda c: (1 - abs(c - 1)) * smooth(c), [0, 1, 2])
        return +(2 * big * singular + rest)


def cell_perimeter(s):
    """The unit square against its complement, in mpmath.

    By chords: P = (1 / (s (1 - s))) int over directions and lines of
    L^(1-s), L the chord length; for the square, 8 octants of
    int_0^(pi/4) cos^(s-1) t [cos t - sin t + 2 sin t / (2 - s)] dt.
    """
    with mpmath.workdps(40):
        s = mpmath.mpf(s)

        def octant(t):
            c, n = mpmath.cos(t), mpmath.sin(t)
            return c ** (s - 1) * (c - n + 2 * n / (2 - s))

        return +(8 / (s * (1 - s)) * mpmath.quad(octant, [0, mpmath.pi / 4]))


def pair_1d(d, s):
    """The 1D pair integral at distance d, (2 d^p - (d-1)^p - (d+1)^p) / (s p),
    p = 1 - s, in mpmath at 40 digits (28 or more left at d <= 2^20)."""
    with mpmath.workdps(40):
        s, d = mpmath.mpf(s), mpmath.mpf(d)
        p = 1 - s
        return +((2 * d**p - (d - 1) ** p - (d + 1) ** p) / (s * p))


def brute_perimeter_2d(e, s, reach=50):
    """Midpoint-quadrature oracle: pairs within a disk of ``reach`` cells,
    exact radial cap beyond (complement of a centered disk is rotationally
    reducible).  Shares no quadrature code with the engine."""
    occ = e.trimmed().occupancy
    nx, ny = occ.shape
    pad = reach + 1
    big = np.zeros((nx + 2 * pad, ny + 2 * pad), dtype=bool)
    big[pad : pad + nx, pad : pad + ny] = occ
    count = int(occ.sum())
    total = 0.0
    for dx in range(-reach, reach + 1):
        for dy in range(-reach, reach + 1):
            if dx == 0 and dy == 0:
                continue
            if dx * dx + dy * dy >= reach * reach:
                continue
            shifted = big[pad + dx : pad + dx + nx, pad + dy : pad + dy + ny]
            inside = int(np.count_nonzero(occ & shifted))
            pairs = count - inside
            if pairs:
                total += pairs * _brute_pair_value((dx, dy), s)
    total += count * (2.0 * math.pi / s) * float(reach) ** (-s)
    return total * e.spec.h ** (2.0 - s)


def interval_union_perimeter(intervals, s):
    """Closed form for a finite union of disjoint open intervals.

    Each interval contributes 2 L^{1-s}/(s(1-s)); each ordered gap removes
    twice the pairwise interaction, itself a four-term difference of the
    antiderivative t^{1-s}/(s(1-s)).  Derived by integrating the kernel by
    hand; no grid, no package code.
    """
    def phi(t):
        return t ** (1.0 - s) / (s * (1.0 - s)) if t > 0.0 else 0.0

    ivs = sorted((float(a), float(b)) for a, b in intervals)
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        if b1 >= a2:
            raise ValueError("intervals must be disjoint")
    total = sum(2.0 * (b - a) ** (1.0 - s) / (s * (1.0 - s)) for a, b in ivs)
    for i in range(len(ivs)):
        for j in range(i + 1, len(ivs)):
            a1, b1 = ivs[i]
            a2, b2 = ivs[j]
            gap = a2 - b1
            l1, l2 = b1 - a1, b2 - a2
            inter = phi(gap + l1) + phi(gap + l2) - phi(gap) - phi(gap + l1 + l2)
            total -= 2.0 * inter
    return total


def exhaustive_asymmetry_1d(e, steps_per_cell=64):
    """Dense center scan for the best-overlap asymmetry on the line.

    Scans window centers on a grid of h/steps_per_cell over the occupied
    bounding box dilated by the equivalent radius; counts occupied cell
    centers inside the open window directly.
    """
    idx = np.argwhere(e.occupancy)[:, 0].astype(np.float64)
    cs = e.spec.origin[0] + (idx + 0.5) * e.spec.h
    k = cs.size
    r = 0.5 * k * e.spec.h  # half the measure: |B_r| = 2r on the line
    lo, hi = cs.min() - r, cs.max() + r
    xs = np.arange(lo, hi + 1e-12, e.spec.h / steps_per_cell)
    counts = (np.abs(cs[None, :] - xs[:, None]) < r).sum(axis=1)
    best = int(counts.max())
    return 2.0 * (k - best) / k


def complement_pair_counts(occ):
    """R[d + n - 1] = #{c : occ[c] and not occ[c + d]} over the occupancy's box.

    One windowed FFT cross-correlation of the occupancy with its
    complement, the whole linear convolution of the flipped occupancy
    with the complement, rounded and checked.
    """
    occ = np.asarray(occ, dtype=bool)
    full = [2 * n - 1 for n in occ.shape]
    return rounded_counts(convolve_window(np.flip(occ), ~occ, [0] * occ.ndim, full))


def full_lattice_scan(e, r):
    """Best window count and its center over the whole grid dilated by m cells.

    The count of occupied cell centers in the open window of radius r at
    every cell center of the grid dilated by m = ceil(r/h) + 1 cells: the
    whole convolution of the occupancy with a ball stencil.  The first
    maximum in C order wins.
    """
    spec = e.spec
    h = spec.h
    m = int(math.ceil(r / h)) + 1
    off = np.arange(-m, m + 1, dtype=np.float64) * h
    d2 = off[:, None] ** 2 + off[None, :] ** 2
    stencil = (d2 < r * r).astype(np.float64)
    full = [n + 2 * m for n in spec.cells]
    counts = rounded_counts(convolve_window(e.occupancy, stencil, [0, 0], full))
    idx = np.unravel_index(int(np.argmax(counts)), counts.shape)
    center = np.array([spec.origin[k] + (idx[k] - m + 0.5) * h for k in (0, 1)])
    return int(counts[idx]), center


def elliptic_bump_gap(ratio, amp=1.0):
    """Continuum rearrangement energy gap for a stretched cosine bump.

    For g(x, y) = amp * cos^2(pi rho / 2) on rho < 1 with elliptic level
    sets rho^2 = x^2/a^2 + y^2/b^2 and ratio = a/b, the radial profile of
    the rearrangement preserves level-set areas, which gives

        E(g)  = pi (a/b + b/a) * amp^2 * pi^2 / 16
        E(g*) = 2 pi           * amp^2 * pi^2 / 16

    independent of the area scale, so the gap is
    (pi^3 / 16) * amp^2 * (ratio + 1/ratio - 2).
    """
    return math.pi**3 / 16.0 * amp * amp * (ratio + 1.0 / ratio - 2.0)


def order4_tail_2d(cells, nx, ny, s):
    """Per-cell tail of unit cells against the complement of [0,nx]x[0,ny].

    The pointwise complement integral is exact: split by the edge each ray
    leaves through, the angular integral of r^-s over one edge's arc is
    dist^-s * B * I(t^2/(t^2+dist^2)) per side of the perpendicular foot,
    with I the regularized incomplete Beta function.  It is averaged over
    each cell with an order-4 tensor Gauss rule placed at the cell itself,
    no tabulation.  ``cells`` holds lower corners, one row per cell.
    """
    x, w = np.polynomial.legendre.leggauss(4)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    a, b = 0.5, 0.5 * (s + 1.0)
    bconst = 0.5 * special.beta(a, b)

    def arc(t1, t2, dist):
        f1 = special.betainc(a, b, t1 * t1 / (t1 * t1 + dist * dist))
        f2 = special.betainc(a, b, t2 * t2 / (t2 * t2 + dist * dist))
        return dist ** (-s) * bconst * (f1 + f2)

    cells = np.asarray(cells, dtype=np.float64)
    u = cells[:, 0:1] + np.repeat(t, 4)[None, :]
    v = cells[:, 1:2] + np.tile(t, 4)[None, :]
    g = (
        arc(ny - v, v, nx - u) + arc(ny - v, v, u)
        + arc(nx - u, u, ny - v) + arc(nx - u, u, v)
    ) / s
    return g @ (w[:, None] * w[None, :]).reshape(-1)


def slot_tail_2d(occ, arc):
    """Unit 2D tail of an occupancy against its box, one Phi per slot.

    With ``grid`` the occupancy plus its three flips, s times the tail is
    the sum over every slot (p, q) of C(p, q) Phi(p, q), where
    C(p, q) = grid[p, q] + grid[q, p]; each Phi is ``perimeter._phi``, all
    in one exact sum.  This is how the tail was summed before its rows
    were summed by parts: the reference for that path.
    """
    grid = occ.astype(np.int64)
    grid = grid + grid[::-1]
    grid = grid + grid[:, ::-1]
    x, y = np.nonzero(grid)
    # each cell is read as grid[p, q] and as grid[q, p]; Phi once per slot
    p, q = np.concatenate([x, y]), np.concatenate([y, x])
    _, first, inverse = np.unique(p * grid.size + q, return_index=True,
                                  return_inverse=True)
    counts = np.bincount(inverse, np.concatenate([grid[x, y]] * 2))
    values = _phi(p[first], q[first], arc)
    return _exact_sum(values, counts.astype(np.int64)) / arc.s


def clenshaw_arc(coef, head, factor, x):
    """An edge arc with its Chebyshev fit summed by Clenshaw's recurrence,
    one coefficient per pass over the points.

    The arc is factor(x) * (head + x * sum_j coef[j] T_j(4x - 1)), with
    (head, factor) = (1, sqrt) for the lower form and (1/(s+1), y^b) for
    the complement.  This is how the edge arcs were evaluated before they
    were converted to monomials: the reference for those bits.
    """
    x = np.asarray(x, dtype=np.float64)
    u2 = 8.0 * x - 2.0
    b1, b2 = np.full_like(x, coef[-1]), np.zeros_like(x)
    for c in coef[-2:0:-1]:
        b1, b2 = u2 * b1 - b2 + c, b1
    fit = 0.5 * u2 * b1 - b2 + coef[0]
    return (fit * x + head) * factor(x)


def poisson_table_2d_full(s, h, z, m1, m2):
    """Lifting-kernel cell integrals over offsets [-m1..m1]x[-m2..m2], cell by cell.

    The package's two-node rule and panel counts, but every offset is
    evaluated on its own: no mirrored quadrant, no batching over cells.
    """
    inv = 1.0 / math.sqrt(3.0)

    def kernel(w1, w2):
        return z**s * (w1 * w1 + w2 * w2 + z * z) ** (-0.5 * (2 + s))

    dx = np.arange(-m1, m1 + 1, dtype=np.float64)
    dy = np.arange(-m2, m2 + 1, dtype=np.float64)
    nx = np.concatenate([dx - 0.5 * inv, dx + 0.5 * inv]) * h
    ny = np.concatenate([dy - 0.5 * inv, dy + 0.5 * inv]) * h
    vals = kernel(nx[:, None], ny[None, :])
    table = vals.reshape(2, dx.size, 2, dy.size).mean(axis=(0, 2)) * (h * h)
    r2 = (dx[:, None] * h) ** 2 + (dy[None, :] * h) ** 2 + z * z
    panels = np.ceil(8.0 * h / np.sqrt(r2)).astype(np.int64)
    for idx, idy in zip(*np.nonzero(panels > 1)):
        k = min(64, int(panels[idx, idy]))
        centers = (np.arange(k) + 0.5) / k - 0.5
        nodes = np.concatenate([centers - 0.5 * inv / k, centers + 0.5 * inv / k])
        w1 = (dx[idx] + nodes)[:, None] * h
        w2 = (dy[idy] + nodes)[None, :] * h
        table[idx, idy] = float(kernel(w1, w2).mean()) * (h * h)
    return table


def lift_level_fftconvolve(occupancy, table, lam):
    """One lift level the direct way: the full linear convolution of the
    occupancy with the whole kernel table, then its central window."""
    full = signal.fftconvolve(occupancy.astype(np.float64), table, mode="full")
    window = tuple(slice(n - 1, 2 * n - 1) for n in occupancy.shape)
    return np.clip(lam * full[window], 0.0, 1.0)


def lift_energy_dense(grid, s, datum, levels):
    """x_part, z_part and truncation_estimate of a lift's energy, the dense
    way: each level's lateral density on a full-grid array, rim sums
    through a boolean mask of the grid's rim cells."""
    h = grid.base.h
    n = grid.base.dim
    cells = grid.base.cells
    cell = h**n
    zs = grid.z_levels
    p = 2.0 - s

    def slab(a, b):
        return (b**p - a**p) / p

    rim = np.zeros(cells, dtype=bool)
    for axis in range(n):
        rim[(slice(None),) * axis + (0,)] = True
        rim[(slice(None),) * axis + (cells[axis] - 1,)] = True
    mids = [0.5 * (a + b) for a, b in zip(zs, zs[1:])]
    bounds = zip([0.0] + mids, mids + [zs[-1]])
    x_part = z_part = rim_energy = 0.0
    prev = np.asarray(datum, dtype=np.float64)
    prev_z = 0.0
    for (lo, hi), z, level in zip(bounds, zs, levels):
        density = np.zeros(cells)
        for axis in range(n):
            d = np.diff(level, axis=axis) / h
            density[(slice(None),) * axis + (slice(0, -1),)] += d * d
        x_part += slab(lo, hi) * cell * float(density.sum())
        rim_energy += slab(lo, hi) * cell * float(density[rim].sum())
        q2 = ((level - prev) / (z - prev_z)) ** 2
        z_part += slab(prev_z, z) * cell * float(q2.sum())
        rim_energy += slab(prev_z, z) * cell * float(q2[rim].sum())
        prev, prev_z = level, z
    half_extent = 0.5 * max(c * h for c in cells)
    lateral = rim_energy * half_extent / (h * (n + 2.0 * s))
    top_mass = cell * float((prev * prev).sum())
    top = 2.0 * n * n * top_mass * zs[-1] ** (-s) / (2.0 * n + s)
    return x_part, z_part, lateral + top


def mirror_oracle(e, axis, plane, half=None):
    """Cells of ``e`` mirrored across ``plane`` by their center coordinates.

    Each center x maps to ``2*plane - x`` along ``axis``; no index
    arithmetic of the package is used.  With ``half=None`` the region is
    the image alone (a reflection); with ``"upper"`` or ``"lower"`` it is
    the cells at or above (at or below) the plane united with their image
    (one half of a bisection; cells centered on the plane belong to both).
    Returns the region as a set on a grid fitted to its centers, and the
    span along ``axis`` of the input grid united with the image cells.
    """
    h = e.spec.h
    origin = np.asarray(e.spec.origin, dtype=np.float64)
    centers = origin + (np.argwhere(e.occupancy) + 0.5) * h
    x = centers[:, axis]
    if half == "upper":
        centers = centers[x > plane - 0.25 * h]
    elif half == "lower":
        centers = centers[x < plane + 0.25 * h]
    image = centers.copy()
    image[:, axis] = 2.0 * plane - image[:, axis]
    points = image if half is None else np.concatenate([centers, image])
    corner = points.min(axis=0) - 0.5 * h
    idx = np.rint((points - corner) / h - 0.5).astype(np.int64)
    spec = GridSpec(e.spec.dim, tuple(idx.max(axis=0) + 1), h, tuple(corner))
    occ = np.zeros(spec.cells, dtype=bool)
    occ[tuple(idx.T)] = True
    lo = origin[axis]
    hi = lo + e.spec.cells[axis] * h
    span = (
        min(lo, image[:, axis].min() - 0.5 * h),
        max(hi, image[:, axis].max() + 0.5 * h),
    )
    return GridSet(spec, occ), span


def cell_pair_integral(offset, params, h):
    # the engine's pair integral at one nonzero lattice offset, scaled by
    # h^(dim - s): every table entry and every single pair value
    unit = kernels._unit_pair_values([offset], params, kernels._SMOOTH_ORDER)[0]
    return float(unit) * h ** (params.dim - params.s)


def translate_cells(e, offset_cells):
    # a shift by whole cells, as an exact move of the anchor
    return GridSet(e.spec.window(offset_cells, e.spec.cells), e.occupancy)


def same_region(a, b):
    # the same cell size and the same occupied cells, anchored within 1e-9
    # of a cell, whatever the grids the two sets live on
    if a.spec.h != b.spec.h or a.spec.dim != b.spec.dim:
        return False
    if a.is_empty or b.is_empty:
        return a.is_empty and b.is_empty
    ta, tb = a.trimmed(), b.trimmed()
    if ta.spec.cells != tb.spec.cells:
        return False
    if any(abs(x - y) > 1e-9 * a.spec.h
           for x, y in zip(ta.spec.origin, tb.spec.origin)):
        return False
    return bool(np.array_equal(ta.occupancy, tb.occupancy))
