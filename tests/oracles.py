"""Independent reference computations used as test oracles.

Nothing here shares quadrature code with the package: pair values come from
plain midpoint rules, scipy adaptive quadrature, or closed forms derived by
hand, so agreement with the engine is evidence rather than tautology.
"""

import math

import numpy as np
from scipy import integrate, signal, special


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
