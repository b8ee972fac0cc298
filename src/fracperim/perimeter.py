"""Assembly of fractional perimeters and Gagliardo seminorms on grids.

The perimeter of a cell set E splits at the box Q, the bounding box of E
grown by a margin, into two exactly-accounted parts:

  in-box:  sum over offsets d of K(d) * R(d), where K is the pair kernel
           over the whole offset box (the table inside its cutoff window,
           the far rule beyond) and R(d) = #{c in E : c + d in Q \\ E} is an
           integer count read off one FFT cross-correlation, rounded and
           checked against its rounding residual;
  tail:    the complement beyond Q, reduced per cell to closed form: the
           exact antiderivative in one dimension, and in two an angular
           identity whose edge arcs are incomplete Beta functions.

The Gagliardo seminorm runs through the same kernel and correlation, with
R the autocorrelation of the grid function.  All sums run on the unit
lattice in a canonical frame (lexicographically smallest among reflections
and axis swaps of the occupancy), so congruent sets produce bit-identical
values; the physical scale enters once through h^(dim-s).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft, special

from .errors import EmptySetError, GridMismatchError, MarginError
from .grids import GridSet
from .kernels import InteractionTable, KernelParams, _pair_unit, far_kernel_unit
from .quadrature import gauss_unit, rounded_counts

__all__ = [
    "fractional_perimeter",
    "tail_integral",
    "gagliardo_seminorm",
    "single_cell_perimeter",
]

DEFAULT_MARGIN = 4

_TAIL_OUTER_ORDER = 4
_SELF_WINDOW = 8


def _canonical_occupancy(occ: np.ndarray, dim: int) -> np.ndarray:
    """Lexicographically smallest among all axis reflections (and swaps in 2D).

    Fixes the summation frame so congruent inputs sum in the same order and
    return bit-identical perimeters.
    """
    if dim == 1:
        cands = [occ, occ[::-1]]
    else:
        cands = []
        for base in (occ, occ.T):
            cands += [base, base[::-1, :], base[:, ::-1], base[::-1, ::-1]]
    best = None
    best_key = None
    for c in cands:
        arr = np.ascontiguousarray(c).astype(np.uint8)
        key = (arr.shape, arr.tobytes())
        if best_key is None or key < best_key:
            best_key = key
            best = arr
    return best.astype(bool)


# ---------------------------------------------------------------------------
# tail: integral over the complement of the box Q


def _tail_1d_units(xlo: np.ndarray, n: float, s: float) -> np.ndarray:
    """Tail of cells (x, x+1) against the complement of [0, n], unit lattice."""
    p = 1.0 - s
    x = np.asarray(xlo, dtype=np.float64)
    left = (x + 1.0) ** p - x**p
    right = (n - x) ** p - (n - x - 1.0) ** p
    return (left + right) / (s * p)


def _beta_const(s: float) -> float:
    return 0.5 * special.beta(0.5, 0.5 * (s + 1.0))


def _edge_arc(t1, t2, dist, s: float, bconst: float):
    """Integral of R(theta)^(-s) over the arc that exits through one edge.

    dist is the perpendicular distance to the edge, t1/t2 the lateral
    distances to its two corners; the arc integral of cos^s reduces to the
    regularized incomplete Beta function, so this is exact.
    """
    a, b = 0.5, 0.5 * (s + 1.0)
    f1 = special.betainc(a, b, t1 * t1 / (t1 * t1 + dist * dist))
    f2 = special.betainc(a, b, t2 * t2 / (t2 * t2 + dist * dist))
    return dist ** (-s) * bconst * (f1 + f2)


def _complement_density_2d(u, v, nx: float, ny: float, s: float):
    """Pointwise integral of the kernel over the complement of [0,nx]x[0,ny]."""
    bconst = _beta_const(s)
    a_r = nx - u
    a_l = u
    b_t = ny - v
    b_b = v
    g = _edge_arc(b_t, b_b, a_r, s, bconst)
    g += _edge_arc(b_t, b_b, a_l, s, bconst)
    g += _edge_arc(a_r, a_l, b_t, s, bconst)
    g += _edge_arc(a_r, a_l, b_b, s, bconst)
    return g / s


def _tail_2d_units(cells: np.ndarray, nx: int, ny: int, s: float) -> np.ndarray:
    """Tail of unit cells (given by lower corners) against [0,nx]x[0,ny]."""
    t, w = gauss_unit(_TAIL_OUTER_ORDER)
    ww = (w[:, None] * w[None, :]).reshape(-1)
    du = np.repeat(t, len(t))
    dv = np.tile(t, len(t))
    u = cells[:, 0:1] + du[None, :]
    v = cells[:, 1:2] + dv[None, :]
    g = _complement_density_2d(u, v, float(nx), float(ny), s)
    return g @ ww


def tail_integral(cell, box, params: KernelParams, h: float) -> float:
    """Interaction of one cell with everything beyond the box, exactly.

    ``cell`` is a lattice index; ``box`` gives per-axis index bounds
    (lo, hi) with hi exclusive, so the box spans lattice lengths
    [lo, hi] x h.  The cell must sit at least 2 cells inside the box:
    closer in, the complement integral turns singular and belongs to the
    tabulated pair terms instead.  Enlarging the box strictly decreases
    the result.
    """
    cell = tuple(int(c) for c in np.atleast_1d(cell))
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    if len(cell) != params.dim or len(box) != params.dim:
        raise ValueError("cell/box dimension does not match params.dim")
    if h <= 0:
        raise ValueError("h must be positive")
    for k, (lo, hi) in enumerate(box):
        if cell[k] - lo < 2 or (hi - 1) - cell[k] < 2:
            raise MarginError(
                f"cell {cell} is within 2 cells of the box boundary on axis {k}"
            )
    scale = h ** (params.dim - params.s)
    if params.dim == 1:
        (c,) = cell
        (lo, hi) = box[0]
        val = _tail_1d_units(np.array([c - lo], float), float(hi - lo), params.s)
        return float(val[0]) * scale
    (lx, hx), (ly, hy) = box
    rel = np.array([[cell[0] - lx, cell[1] - ly]], dtype=np.float64)
    val = _tail_2d_units(rel, hx - lx, hy - ly, params.s)
    return float(val[0]) * scale


# ---------------------------------------------------------------------------
# in-box pair sums: one kernel over the offset box times one correlation


def _offset_kernel(shape: tuple, table: InteractionTable) -> np.ndarray:
    """Unit pair values K[d + n - 1] for every offset d of a box of this shape.

    The table fills the near window (clipped to the box) and the far rule
    the rest; K is 0 at d = 0.  Far values are computed once per offset
    magnitude and mirrored, so K(d) = K(-d) bit for bit.
    """
    rc = table.cutoff_radius
    grids = np.meshgrid(*(np.arange(n) for n in shape), indexing="ij")
    far = np.maximum.reduce(grids) > rc
    quad = np.zeros(shape)
    offs = np.stack([g[far] for g in grids], axis=1)
    quad[far] = far_kernel_unit(offs, table.params, table.far_field_rule)
    k = quad[np.ix_(*(np.abs(np.arange(1 - n, n)) for n in shape))]
    w = [min(rc, n - 1) for n in shape]
    k[tuple(slice(n - 1 - wk, n + wk) for n, wk in zip(shape, w))] = (
        table.near_dense[tuple(slice(rc - wk, rc + wk + 1) for wk in w)]
    )
    return k


def _correlate(a: np.ndarray, b: np.ndarray, workers: int) -> np.ndarray:
    """c[d + n - 1] = sum_x a[x] * b[x + d] for every offset d of the box."""
    size = [fft.next_fast_len(2 * n - 1, real=True) for n in a.shape]
    fa = fft.rfftn(a, size, workers=workers)
    fb = fa if b is a else fft.rfftn(b, size, workers=workers)
    raw = fft.irfftn(np.conj(fa) * fb, size, workers=workers)
    return raw[np.ix_(*(np.arange(1 - n, n) % m for n, m in zip(a.shape, size)))]


def _pair_sum(k: np.ndarray, r: np.ndarray) -> float:
    """Exactly rounded sum of K(d) * R(d) over every offset of the box."""
    return math.fsum((k * r).ravel().tolist())


def _checked(e: GridSet, table: InteractionTable) -> None:
    if e.is_empty:
        raise EmptySetError("fractional perimeter of the empty set")
    if table.params.dim != e.spec.dim:
        raise GridMismatchError(
            f"table is {table.params.dim}d but the set is {e.spec.dim}d"
        )
    if table.h != e.spec.h:
        raise GridMismatchError(
            f"table cell size {table.h} does not match grid cell size {e.spec.h}"
        )


def fractional_perimeter(
    e: GridSet,
    table: InteractionTable,
    bounding_margin: int = DEFAULT_MARGIN,
    threads: int = 1,
) -> float:
    """Interaction of E with its complement for the kernel |x-y|^(-(dim+s)).

    The complement is split at the bounding box of E dilated by
    ``bounding_margin`` cells; inside, pair sums use the table and the far
    rule, outside the exact per-cell tail.  The result is invariant under
    translations, reflections and axis swaps of E (bit for bit) and scales
    as h^(dim-s) exactly.  The in-box part costs one FFT correlation over
    twice the box, with ``threads`` FFT workers, and one kernel evaluation
    per offset beyond the table cutoff; the tail costs one closed form per
    occupied cell.  The thread count never changes the result.
    """
    _checked(e, table)
    if bounding_margin < 2:
        raise MarginError(
            "bounding_margin must be >= 2; the tail reduction is singular "
            "next to the box boundary"
        )
    if threads < 1:
        raise ValueError("threads must be >= 1")
    params = table.params
    occ_t = e.trimmed().occupancy
    occ_c = _canonical_occupancy(occ_t, params.dim)
    m = bounding_margin
    shape_q = tuple(n + 2 * m for n in occ_c.shape)
    occ = np.zeros(shape_q, dtype=bool)
    occ[tuple(slice(m, m + n) for n in occ_c.shape)] = occ_c

    # R(d) = #{c in E : c + d in Q \ E}, an exact count once rounded
    r = rounded_counts(_correlate(occ, ~occ, threads))
    inbox = _pair_sum(_offset_kernel(shape_q, table), r)

    cells = np.argwhere(occ).astype(np.float64)
    if params.dim == 1:
        tail_units = _tail_1d_units(cells[:, 0], float(shape_q[0]), params.s)
    else:
        tail_units = _tail_2d_units(cells, *shape_q, params.s)
    tail = math.fsum(tail_units.tolist())
    return math.fsum([inbox, tail]) * table.scale_factor


_SELF_PERIM_CACHE: dict[tuple, float] = {}


def single_cell_perimeter(params: KernelParams) -> float:
    """Unit-lattice interaction of one cell with its whole complement."""
    key = (params.dim, params.s)
    if key in _SELF_PERIM_CACHE:
        return _SELF_PERIM_CACHE[key]
    if params.dim == 1:
        val = 2.0 / (params.s * (1.0 - params.s))
    else:
        k = _SELF_WINDOW
        pair_sum = math.fsum(
            _pair_unit((dx, dy), params)
            for dx in range(-k, k + 1)
            for dy in range(-k, k + 1)
            if (dx, dy) != (0, 0)
        )
        rel = np.array([[k, k]], dtype=np.float64)
        tail = float(_tail_2d_units(rel, 2 * k + 1, 2 * k + 1, params.s)[0])
        val = pair_sum + tail
    _SELF_PERIM_CACHE[key] = val
    return val


def gagliardo_seminorm(g, table: InteractionTable) -> float:
    """Squared fractional seminorm of a nonnegative grid function.

    Computed from the algebraic split over ordered cell pairs:
      seminorm^2 = 2 * (P_cell * sum g_c^2 - sum_{d != 0} K(d) R(d))
    where P_cell is the single-cell perimeter, K the pair kernel of the
    perimeter engine and R(d) = sum_c g_c g_{c+d} the autocorrelation of g
    over its support box, taken by one FFT; the complement tail beyond the
    grid is exact in this form.  For an indicator this equals twice the
    fractional perimeter of the underlying set.
    """
    values = np.asarray(g.values, dtype=np.float64)
    spec = g.spec
    if table.params.dim != spec.dim:
        raise GridMismatchError(
            f"table is {table.params.dim}d but the function is {spec.dim}d"
        )
    if table.h != spec.h:
        raise GridMismatchError(
            f"table cell size {table.h} does not match grid cell size {spec.h}"
        )
    support = np.nonzero(values)
    if len(support[0]) == 0:
        return 0.0
    box = values[tuple(slice(ix.min(), ix.max() + 1) for ix in support)]
    diag = single_cell_perimeter(table.params) * float(np.vdot(box, box))
    cross = _pair_sum(_offset_kernel(box.shape, table), _correlate(box, box, 1))
    return 2.0 * (diag - cross) * table.scale_factor
