"""Half-space lifts of lattice indicator data and their weighted energies.

A set E on an N-dimensional grid is lifted to u(x, z) on z > 0 by

    u(x, z) = lam(N, s) * sum_{c in E} int_c z^s / (|x - y|^2 + z^2)^((N+s)/2) dy

where lam(N, s) = Gamma((N+s)/2) / (pi^(N/2) * Gamma(s/2)) normalizes the
kernel to unit mass.  The lift is evaluated on a finite stack of
z-levels over an enlarged copy of the base grid, and its energy

    int z^(1-s) * |grad u|^2 dx dz

is assembled with forward differences in x, difference quotients between
consecutive levels in z (the boundary datum acts as the level at z = 0),
and the weight z^(1-s) integrated exactly over each z-slab.  The energy
of the lift of an indicator is proportional to the set's fractional
perimeter; the proportionality constant gamma is calibrated once against
a shape with a trusted perimeter value and then reused.

Cost: each level is one windowed FFT convolution of the set's bounding
box (transformed once per lift) with that level's kernel table over the
offsets by which the box reaches the grid; in 2D the table's quadrant is
evaluated and mirrored.  Since extension_domain pads the set by several
diagonals, the box is a small part of the grid and the FFT is about
n + k per axis (k box cells), not 2n.

An ExtensionField is one of two kinds.  A stored field holds its level
stack (8 bytes per cell per level).  A made field holds one source per
level and a function that makes the level from its source, checked,
clamped and read-only, on the field's ``threads`` level workers.  The
lift is a made field whose sources are the z-levels (each level one
table and one single-threaded FFT; a level in flight holds about six
times the level itself at its peak); horizontal_rearrange is a made
field over the sources of the field it rearranges, the rows of its stack
when that field is stored.
poisson_extend builds and keeps the lift's stack, and lift_energy sums
the lift's levels as they are made, with no stack.

Every pass over a field's levels (its energy, its trace) is one path,
_level_pass, on any worker count: each level is made and its task run
in one job on the workers, at most ``threads`` levels in flight, and no
job waits on another.  The levels and their task results come back in
level order; the calling thread takes what needs two levels (the energy's
difference between consecutive levels) and folds the results, so every
energy and trace has the same bits on any worker count.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._textio import (
    bit, format_block, g17, geometry_line, parse_block, parse_geometry, read_lines,
    strict, write_lines,
)
from .errors import (
    CalibrationError,
    EmptySetError,
    FormatError,
    GridMismatchError,
)
from .grids import GridSet, GridSpec, pad_domain
from .kernels import InteractionTable, KernelParams, build_table
from .perimeter import fractional_perimeter
from .quadrature import FFTOperand, convolve_window, window_size
from .rearrange import GridFunction, _rearranged, symmetric_rearrangement
from .shapes import auto_spec, format_shape, rasterize

__all__ = [
    "ExtensionEnergy",
    "ExtensionField",
    "GammaRecord",
    "HalfSpaceGrid",
    "TruncationWarning",
    "calibrate_gamma",
    "extension_domain",
    "extension_energy",
    "geometric_levels",
    "horizontal_rearrange",
    "lambda_constant",
    "lift_energy",
    "load_extension",
    "poisson_extend",
    "poisson_kernel_mass",
    "save_extension",
    "trace_check",
]

_INV_SQRT3 = 1.0 / math.sqrt(3.0)

# Panels per cell scale like _PANEL_SCALE * h / sqrt(|offset|^2 + z^2);
# two-node tensor Gauss rules per panel keep every table entry within
# about 2e-5 relative error (checked against adaptive quadrature).
_PANEL_SCALE = 8.0
_PANEL_CAP = 64
# share of the total energy past which the truncation estimate warns
_TRUNCATION_SHARE = 0.01
# the most z-levels a ladder may have, about 190 times the default ladder
# (53 levels on the unit ball at h = 1/16): each level holds a field on the
# base grid, and a ratio near 1 would build levels until memory ran out
MAX_LEVELS = 10_000


class TruncationWarning(RuntimeWarning):
    """The field had not decayed enough at the domain edge."""


# cephes Gamma: the rational approximation on [2, 3] that scipy.special
# evaluates, coefficients from highest degree down
_GAMMA_P = (
    1.60119522476751861407e-4, 1.19135147006586384913e-3,
    1.04213797561761569935e-2, 4.76367800457137231464e-2,
    2.07448227648435975150e-1, 4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5, 5.39605580493303397842e-4,
    -4.45641913851797240494e-3, 1.18139785222060435552e-2,
    3.58236398605498653373e-2, -2.34591795718243348568e-1,
    7.14304917030273074085e-2, 1.00000000000000000320e0,
)


def _gamma(x: float) -> float:
    """Gamma(x) for 0 < x < 3, the operations of cephes ``Gamma`` in order.

    The argument is shifted up into [2, 3) by the recurrence, and the
    rational approximation is taken there (below 1e-9, a first-order
    form), so the result has the bits of ``scipy.special.gamma``.
    """
    if not 0.0 < x < 3.0:
        raise ValueError(f"_gamma takes 0 < x < 3, not {x!r}")
    z = 1.0
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    p, q = _GAMMA_P[0], _GAMMA_Q[0]
    for c in _GAMMA_P[1:]:
        p = p * x + c
    for c in _GAMMA_Q[1:]:
        q = q * x + c
    return z * p / q


def lambda_constant(params: KernelParams) -> float:
    """Unit-mass normalization Gamma((N+s)/2) / (pi^(N/2) Gamma(s/2))."""
    n, s = params.dim, params.s
    return _gamma(0.5 * (n + s)) / (math.pi ** (0.5 * n) * _gamma(0.5 * s))


def poisson_kernel_mass(params: KernelParams, x, z: float) -> float:
    """Quadrature of lam * int z^s / (|x-y|^2 + z^2)^((N+s)/2) dy.

    Evaluates the mass of the lifting kernel centered at `x` at height
    `z` by adaptive quadrature after the substitution y = x + z*tan(t)
    (radial in two dimensions).  The exact value is 1 for every center
    and height; the point of evaluating it numerically is to confirm
    the normalization constant.
    """
    from scipy import integrate  # only here, so importing fracperim skips it

    if z <= 0.0:
        raise ValueError("kernel mass requires z > 0")
    lam = lambda_constant(params)
    s = params.s
    if params.dim == 1:
        x0 = float(np.asarray(x).reshape(()))

        def integrand(t: float) -> float:
            y = x0 + z * math.tan(t)
            r2 = (y - x0) ** 2 + z * z
            jac = z * (1.0 + math.tan(t) ** 2)
            return z**s * r2 ** (-0.5 * (1 + s)) * jac

        val, _ = integrate.quad(
            integrand, -0.5 * math.pi, 0.5 * math.pi, limit=200
        )
        return lam * val
    if params.dim == 2:

        def radial(t: float) -> float:
            rho = z * math.tan(t)
            r2 = rho * rho + z * z
            jac = z * (1.0 + math.tan(t) ** 2)
            return rho * z**s * r2 ** (-0.5 * (2 + s)) * jac

        val, _ = integrate.quad(radial, 0.0, 0.5 * math.pi, limit=200)
        return lam * 2.0 * math.pi * val
    raise ValueError("only dimensions 1 and 2 are supported")


@dataclass(frozen=True)
class HalfSpaceGrid:
    """A base grid plus a strictly increasing stack of z-levels.

    The first level must sit at or below one lateral cell width; the
    trace at z = 0 is never a level, it is read from the boundary datum.
    """

    base: GridSpec
    z_levels: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(z) for z in self.z_levels)
        object.__setattr__(self, "z_levels", levels)
        if not levels:
            raise ValueError("at least one z-level is required")
        if levels[0] <= 0.0:
            raise ValueError(
                "z = 0 is the trace line and is read from the boundary "
                "datum, not from the kernel; levels must be positive"
            )
        if any(not math.isfinite(z) for z in levels):
            raise ValueError("z-levels must be finite")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("z-levels must be strictly increasing")
        if levels[0] > self.base.h * (1.0 + 1e-12):
            raise ValueError("the first z-level must not exceed the cell width")

    @property
    def level_count(self) -> int:
        return len(self.z_levels)


def geometric_levels(z0: float, rho: float, top: float) -> tuple[float, ...]:
    """Levels z0 * rho^j up to and including the first one >= top."""
    if z0 <= 0.0 or top <= z0:
        raise ValueError("need 0 < z0 < top")
    if rho <= 1.0:
        raise ValueError("geometric ratio must exceed 1")
    # the loop makes ceil(steps) + 1 levels, up to rounding
    steps = math.log(top / z0) / math.log(rho)
    if steps > MAX_LEVELS - 1:
        raise ValueError(
            f"rho = {rho!r} would make about {steps + 1:.0f} z-levels from "
            f"{z0!r} to {top!r}, more than the {MAX_LEVELS} allowed"
        )
    levels = [z0]
    while levels[-1] < top:
        levels.append(levels[-1] * rho)
    return tuple(levels)


def _bbox_diameter(e: GridSet) -> float:
    box = e.bounding_cells()
    extents = [(hi - lo + 1) * e.spec.h for lo, hi in box]
    return math.sqrt(sum(x * x for x in extents))


def extension_domain(
    e: GridSet,
    *,
    z0: float | None = None,
    rho: float = 1.15,
    top_factor: float = 8.0,
    lateral_factor: float = 4.0,
) -> tuple[HalfSpaceGrid, GridSet]:
    """Build the half-space grid for a set and re-embed the set in it.

    The base grid is the set's bounding box dilated on every side by
    `lateral_factor` times the bounding-box diagonal; levels are graded
    geometrically from z0 (default: a quarter cell) up past
    `top_factor` times the diagonal.  Returns the grid and the same
    occupancy re-embedded in the enlarged base grid.
    """
    if e.is_empty:
        raise EmptySetError("cannot build an extension domain for an empty set")
    h = e.spec.h
    if z0 is None:
        z0 = 0.25 * h
    diam = _bbox_diameter(e)
    embedded = pad_domain(e, max(2, math.ceil(lateral_factor * diam / h)))
    levels = geometric_levels(z0, rho, top_factor * diam)
    return HalfSpaceGrid(embedded.spec, levels), embedded


class ExtensionField:
    """Lift values on a half-space grid together with their boundary datum.

    `levels()` yields u(., z_j) level by level, lowest first; `values` is
    the level stack, `values[j]` = u(., z_j) over the base grid; `datum`
    is the indicator the lift converges to as z drops to 0.

    A field is stored or made.  A stored field holds its one read-only
    level stack.  The constructor makes a stored field: it takes `values`
    as any iterable of per-level arrays (a 3D array is iterated along its
    first axis), allocates the stack and fills it level by level, each
    level checked for shape, finiteness and the [0, 1] window of
    indicator lifts up to roundoff, then clamped into its slot, so a
    producer that yields its levels one at a time never holds a second
    stack.  A made field (poisson_extend's lift, horizontal_rearrange)
    holds one source per level and makes each level from its source,
    checked, clamped and read-only, as the level is read.  It builds its
    stack the first time `values` is read, keeps it and is stored from
    then on.

    A field keeps its level workers (poisson_extend's ``threads``, and
    those of the field that horizontal_rearrange rearranges; 1 for a
    field built here or read by load_extension): its levels are made,
    and every pass over them (extension_energy, trace_check) runs one
    job per level, on that many workers, bit for bit as on one.
    """

    # a stored field's _sources is its stack and its _make is None; a made
    # field's level j is _make(_sources[j], scratch)
    __slots__ = ("grid", "params", "datum", "_sources", "_make", "_threads")

    def __init__(
        self,
        grid: HalfSpaceGrid,
        params: KernelParams,
        values,
        datum,
    ) -> None:
        if params.dim != grid.base.dim:
            raise GridMismatchError("kernel dimension differs from the grid")
        cells = grid.base.cells
        datum = _frozen_datum(grid, datum)
        stack = np.empty((grid.level_count,) + cells)
        count = 0
        for level in values:
            if count == len(stack):
                raise GridMismatchError(f"more than {len(stack)} levels given")
            level = np.asarray(level, dtype=np.float64)
            if level.shape != cells:
                raise GridMismatchError(
                    f"level {count} shape {level.shape} does not match {cells}"
                )
            _unit_clip(level, out=stack[count])
            del level  # the producer drops its reference too, so it is freed
            count += 1
        if count != len(stack):
            raise GridMismatchError(f"{count} levels given for {len(stack)} z-levels")
        stack.setflags(write=False)
        self._init(grid, params, datum, stack, None, 1)

    @classmethod
    def _made(cls, grid, params, datum, sources, make, threads):
        """A made field whose level j is make(sources[j], scratch).

        `make` must return a new checked, clamped, read-only float array
        shaped like the base grid, and may use `scratch` (a float buffer
        of one value per grid cell, which a level pass's task uses next;
        None, the default, when there is none) while it works.  The
        datum is copied.
        """
        field = object.__new__(cls)
        field._init(grid, params, _frozen_datum(grid, datum), sources, make, threads)
        return field

    def _init(self, *values) -> None:
        """Set the slots to `values`, in __slots__ order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def levels(self):
        """Iterate over u(., z_j) level by level, lowest first, read-only.

        A made field's levels are made on its workers, in level order.
        """
        if self._make is None:
            yield from self._sources
        else:
            yield from _ordered_map(self._make, self._sources, self._threads)

    @property
    def values(self) -> np.ndarray:
        """The read-only level stack; a made field builds it on the first read."""
        if self._make is not None:
            stack = np.empty((self.grid.level_count,) + self.grid.base.cells)
            for slot, level in zip(stack, self.levels(), strict=True):
                slot[...] = level
            stack.setflags(write=False)
            object.__setattr__(self, "_sources", stack)  # frees the old sources
            object.__setattr__(self, "_make", None)
        return self._sources

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionField is immutable")


def _frozen_datum(grid: HalfSpaceGrid, datum) -> np.ndarray:
    """A read-only bool copy of `datum`, which must be shaped like the base grid."""
    datum = np.array(datum, dtype=bool)
    if datum.shape != grid.base.cells:
        raise GridMismatchError("datum shape does not match the base grid")
    datum.setflags(write=False)
    return datum


def _rim_sum(a: np.ndarray, diff_axis: int | None = None) -> float:
    """Sum of `a` over its cells on the base grid's rim.

    `a` covers the whole grid, or with `diff_axis` the lower cells of the
    forward differences along that axis, whose last grid row it lacks.
    Each axis adds its two edge slices, taken inside the earlier axes'
    edges, so every rim cell counts once.
    """
    if a.size == 0:
        return 0.0
    total = 0.0
    inner = [slice(None)] * a.ndim
    for axis, n in enumerate(a.shape):
        edges = [0] if axis == diff_axis or n == 1 else [0, n - 1]
        for i in edges:
            inner[axis] = i
            total += float(a[tuple(inner)].sum())
        inner[axis] = slice(1, None) if axis == diff_axis else slice(1, -1)
    return total


def _beta_profile(w: np.ndarray, z: float, s: float) -> np.ndarray:
    """Antiderivative of z^s (w^2 + z^2)^(-(1+s)/2) in w, odd in w.

    With w = z*tan(theta) the integrand becomes cos(theta)^(s-1), whose
    integral from 0 is half a regularized incomplete Beta function.
    """
    from scipy import special  # only here, so importing fracperim skips it

    t = w * w / (w * w + z * z)
    vals = 0.5 * special.beta(0.5, 0.5 * s) * special.betainc(0.5, 0.5 * s, t)
    return np.copysign(vals, w)


def _poisson_table_1d(
    s: float, h: float, z: float, below: int, above: int
) -> np.ndarray:
    """Exact cell integrals of the lifting kernel for offsets -below..above."""
    edges = (np.arange(-below, above + 2) - 0.5) * h
    prof = _beta_profile(edges, z, s)
    return prof[1:] - prof[:-1]


def _poisson_table_2d(
    s: float, h: float, z: float, below: tuple[int, int], above: tuple[int, int]
) -> np.ndarray:
    """Cell integrals of the lifting kernel for offsets -below..above per axis.

    The kernel is even in each axis, so only the quadrant from 0 to
    max(below, above) per axis is evaluated and then mirrored into the
    requested, possibly lopsided, offset range.  A two-node tensor Gauss
    rule handles every cell in one separable pass; cells whose distance
    to the kernel peak is small compared to the cell width are redone
    with subdivided panels, in one batched pass per panel count.
    """

    def kernel(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        # z^s (w1^2 + w2^2 + z^2)^(-(2+s)/2), in place in one array
        out = w1 * w1 + w2 * w2
        out += z * z
        np.power(out, -0.5 * (2 + s), out=out)
        out *= z**s
        return out

    (b1, b2), (a1, a2) = below, above
    dx = np.arange(max(b1, a1) + 1, dtype=np.float64)
    dy = np.arange(max(b2, a2) + 1, dtype=np.float64)
    # Separable two-node pass: nodes at offset +- 1/(2*sqrt(3)) per axis.
    nx = np.concatenate([dx - 0.5 * _INV_SQRT3, dx + 0.5 * _INV_SQRT3]) * h
    ny = np.concatenate([dy - 0.5 * _INV_SQRT3, dy + 0.5 * _INV_SQRT3]) * h
    vals = kernel(nx[:, None], ny[None, :]).reshape(2, dx.size, 2, dy.size)
    quad = vals.mean(axis=(0, 2)) * (h * h)
    del vals  # the largest array of the pass; the mirrored table comes next
    # Redo peaked cells with k subdivided panels, two Gauss nodes each.
    # panels > 1 only where the peak is nearer than _PANEL_SCALE cells
    near = int(_PANEL_SCALE)
    r2 = (dx[:near, None] * h) ** 2 + (dy[None, :near] * h) ** 2 + z * z
    panels = np.minimum(_PANEL_CAP, np.ceil(_PANEL_SCALE * h / np.sqrt(r2)))
    # a set, not np.unique, whose first call would load numpy.ma in a worker
    for k in sorted({int(k) for k in panels[panels > 1].tolist()}):
        idx, idy = np.nonzero(panels == k)
        centers = (np.arange(k) + 0.5) / k - 0.5
        nodes = np.concatenate(
            [centers - 0.5 * _INV_SQRT3 / k, centers + 0.5 * _INV_SQRT3 / k]
        )
        w1 = (dx[idx, None] + nodes)[:, :, None] * h
        w2 = (dy[idy, None] + nodes)[:, None, :] * h
        quad[idx, idy] = kernel(w1, w2).mean(axis=(1, 2)) * (h * h)
    # offset -d takes the value of +d; row b1 and column b2 hold offset 0
    rows = (slice(b1, None), slice(0, a1 + 1)), (slice(0, b1), slice(b1, 0, -1))
    cols = (slice(b2, None), slice(0, a2 + 1)), (slice(0, b2), slice(b2, 0, -1))
    table = np.empty((b1 + a1 + 1, b2 + a2 + 1))
    for row_to, row_from in rows:
        for col_to, col_from in cols:
            table[row_to, col_to] = quad[row_from, col_from]
    return table


def _unit_clip(vals: np.ndarray, out: np.ndarray) -> None:
    """Check lift values to lie in [0, 1] up to roundoff, then clamp into `out`.

    NaN and infinities fail the min/max window too, so finiteness is
    only looked at to name the failure.  Clamping changes no bit of a
    value already in [0, 1], so values clamped in place that need no
    clamp are only checked, which keeps a level's making short.
    """
    lo, hi = vals.min(), vals.max()
    if not (lo >= -1e-9 and hi <= 1.0 + 1e-9):
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        raise ValueError("indicator lifts must stay within [0, 1]")
    if out is not vals or lo < 0.0 or hi > 1.0:
        np.clip(vals, 0.0, 1.0, out=out)


def _ordered_map(fn, items, workers: int):
    """Yield fn(item) for every item, in item order, from `workers` threads.

    At most `workers` items are in flight: the next item is submitted
    when a result is taken, so the caller works on one result while the
    workers compute the following ones.  An exception in fn is raised
    here with its type, in item order; closing the generator, or an
    exception, cancels the items not started yet and joins the workers.
    """
    items = iter(items)
    pool = ThreadPoolExecutor(workers, thread_name_prefix="fracperim-level")
    try:
        pending = deque(pool.submit(fn, item) for item in islice(items, workers))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield result
            del result  # the caller may drop it before the next one
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _level_pass(u: ExtensionField, task):
    """Yield (level, task(j, level, scratch)) for every level j of u, in level order.

    Each level is one job on u's workers.  The job takes a scratch
    buffer of its own (one float per grid cell), makes the level if u is
    made (the making may use the buffer) and runs the task, which may
    use it too.  No job waits on another and a task sees its own level
    only, so no bit depends on the worker count; what needs two levels
    the caller does with the levels it is handed.  A failing job is
    raised here, in level order, after the jobs not started are
    cancelled and the workers joined.
    """
    make = u._make
    cells = math.prod(u.grid.base.cells)

    def job(item):
        j, source = item
        scratch = np.empty(cells)
        level = source if make is None else make(source, scratch)
        return level, task(j, level, scratch)

    return _ordered_map(job, enumerate(u._sources), u._threads)


def _lift(e: GridSet, grid: HalfSpaceGrid, params: KernelParams, threads: int):
    """The lift of `e` as a made field over the z-levels, on ``threads`` workers.

    The empty set lifts to the stored zero field.

    Level z is a window of one convolution of the occupancy, trimmed to
    its bounding box, with the level's kernel table over the offsets that
    reach the grid from the box, scaled by lam, then checked and clamped
    in place.  The occupancy is transformed here, once, before the
    workers share it.
    """
    if e.spec != grid.base:
        raise GridMismatchError("set does not live on the grid's base spec")
    if params.dim != grid.base.dim:
        raise GridMismatchError("kernel dimension differs from the grid")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    s = params.s
    h = grid.base.h
    cells = grid.base.cells
    if e.is_empty:
        zeros = np.zeros((grid.level_count,) + cells)
        return ExtensionField(grid, params, zeros, e.occupancy)
    lam = lambda_constant(params)
    box = e.bounding_cells()
    occ = FFTOperand(e.occupancy[tuple(slice(lo, hi + 1) for lo, hi in box)])
    # Cells lo..hi reach grid cells 0..n-1 through offsets -hi..n-1-lo.
    # The table starts at offset -hi, so grid cell i is output i + hi - lo.
    below = tuple(hi for _, hi in box)
    above = tuple(n - 1 - lo for n, (lo, _) in zip(cells, box))
    start = [hi - lo for lo, hi in box]
    stop = [hi - lo + n for n, (lo, hi) in zip(cells, box)]
    table_shape = tuple(b + a + 1 for b, a in zip(below, above))
    occ.spectrum(window_size(occ.array.shape, table_shape, start, stop))

    def make(z: float, scratch=None) -> np.ndarray:
        if params.dim == 1:
            table = _poisson_table_1d(s, h, z, below[0], above[0])
        else:
            table = _poisson_table_2d(s, h, z, below, above)
        window = convolve_window(occ, table, start, stop)
        window *= lam
        _unit_clip(window, out=window)
        window.setflags(write=False)
        return window

    return ExtensionField._made(grid, params, e.occupancy, grid.z_levels, make, threads)


def poisson_extend(
    e: GridSet,
    grid: HalfSpaceGrid,
    params: KernelParams,
    *,
    threads: int = 1,
) -> ExtensionField:
    """Lift an indicator to every level of a half-space grid.

    The set must live on the grid's base spec (see extension_domain).
    Each level is one convolution of the occupancy with a table of exact
    or near-exact kernel cell integrals, so values are convex
    combinations of {0, 1} and stay strictly below 1.  The empty set
    lifts to the zero field.

    Cost per level on a base of n cells per axis whose set has the
    bounding box lo..hi (k = hi - lo + 1 cells) per axis: the kernel
    table's quadrant up to offset max(hi, n - 1 - lo) per axis, four
    Gauss nodes per cell (n + k - 1 closed forms in 1D), mirrored into
    the offsets -hi..n-1-lo; one real FFT of that table at the first
    5-smooth length >= n + k - 1 per axis and one inverse pruned to the base
    grid's window, on one thread.  The box's occupancy is transformed
    once per lift.

    The lift is a made field on ``threads`` level workers, each of which
    makes, checks and clamps whole levels; its stack is built here and
    kept, so the result is a stored field that keeps ``threads`` for its
    passes (extension_energy, trace_check, horizontal_rearrange).  The
    thread count does not change a single bit of the result, nor of
    those passes.

    Memory: besides the one stack (8 bytes per cell per level), up to
    ``threads`` levels are in flight, each with its table and FFT work
    (about six levels' worth of memory at its peak), plus the level
    being copied into the stack: two-balls(0.9) at h = 1/8 (50 levels)
    peaks at about 1.13 stacks on one worker and 1.21 on two.
    lift_energy sums the levels as they are made and holds no stack at
    all, and horizontal_rearrange of the field adds no second stack.
    """
    u = _lift(e, grid, params, threads)
    u.values  # builds and keeps the stack
    return u


@dataclass(frozen=True)
class ExtensionEnergy:
    """Weighted gradient energy split into lateral and vertical parts."""

    total: float
    x_part: float
    z_part: float
    truncation_estimate: float


def _slab_weight(a: float, b: float, s: float) -> float:
    """Exact integral of z^(1-s) over (a, b)."""
    p = 2.0 - s
    return (b**p - a**p) / p


def extension_energy(u: ExtensionField) -> ExtensionEnergy:
    """Assemble int z^(1-s) |grad u|^2 from the field's levels, in level order.

    Lateral gradients are forward differences at each level, weighted by
    the exact z^(1-s) mass of the slab the level represents (slabs meet
    at midpoints between consecutive levels).  Vertical gradients are
    difference quotients between consecutive levels, the boundary datum
    acting as the level at z = 0.  A decay-model estimate of the energy
    ignored outside the computed box is returned, and a TruncationWarning
    is issued when it exceeds _TRUNCATION_SHARE of the total.

    Each level's lateral differences and sums are one task of a level
    pass over the field, on its level workers, in a scratch buffer.  The
    calling thread takes the difference between each level and the one
    below, which the pass hands it in level order, and folds every sum
    into the energy in level order, so the result is the same bit for
    bit on any number of workers.  A made field is summed as its levels
    are made, with no stack.
    """
    return _energy(u)


def lift_energy(
    e: GridSet,
    grid: HalfSpaceGrid,
    params: KernelParams,
    *,
    threads: int = 1,
) -> ExtensionEnergy:
    """extension_energy(poisson_extend(e, grid, params)), bit for bit.

    It is the energy of the lift as a made field on ``threads`` level
    workers, so each level is summed as it is made and memory holds the
    levels in flight and a few level slices instead of the whole stack.
    """
    return _energy(_lift(e, grid, params, threads))


def _energy(u: ExtensionField) -> ExtensionEnergy:
    """extension_energy of u, warning at the caller of its public caller."""
    h = u.grid.base.h
    n = u.grid.base.dim
    s = u.params.s
    zs = u.grid.z_levels
    cell = h**n
    # lateral slabs meet at the midpoints between consecutive levels
    mids = [0.5 * (a + b) for a, b in zip(zs, zs[1:])]
    slabs = zip([0.0] + mids, mids + [zs[-1]])
    x_weights = [_slab_weight(lo, hi, s) for lo, hi in slabs]
    below_z = (0.0,) + zs[:-1]
    z_weights = [_slab_weight(lo, hi, s) for lo, hi in zip(below_z, zs)]
    top = len(zs) - 1

    def sums(j, level, scratch):
        # a level's lateral differences take turns in scratch
        x_sum = x_rim = 0.0
        for axis in range(n):
            # the forward difference sits on the lower cell of each pair
            lead = (slice(None),) * axis
            upper = level[lead + (slice(1, None),)]
            lower = level[lead + (slice(None, -1),)]
            d = scratch[: upper.size].reshape(upper.shape)
            np.subtract(upper, lower, out=d)
            d /= h
            d *= d
            x_sum += float(d.sum())
            x_rim += _rim_sum(d, axis)
        q = scratch.reshape(level.shape)
        top_sum = float(np.multiply(level, level, out=q).sum()) if j == top else 0.0
        return x_sum, x_rim, top_sum

    x_part = 0.0
    z_part = 0.0
    rim_energy = 0.0
    below = u.datum.astype(np.float64)
    q = np.empty(u.grid.base.cells)  # level - below, here on the calling thread
    with closing(_level_pass(u, sums)) as parts:
        for j, (level, (x_sum, x_rim, top_sum)) in enumerate(parts):
            np.subtract(level, below, out=q)
            below = level
            q /= zs[j] - below_z[j]
            q *= q
            w = x_weights[j]
            x_part += w * cell * x_sum
            rim_energy += w * cell * x_rim
            w = z_weights[j]
            z_part += w * cell * float(q.sum())
            rim_energy += w * cell * _rim_sum(q)

    # Decay model for the ignored exterior: laterally u ~ r^-(N+s) so the
    # outermost ring underestimates the exterior by about r/(h*(N+2s));
    # above the top level u ~ z^-N, integrated in closed form.
    half_extent = 0.5 * max(c * h for c in u.grid.base.cells)
    lateral_est = rim_energy * half_extent / (h * (n + 2.0 * s))
    z_top = zs[-1]
    top_mass = cell * top_sum  # the top level's squared sum
    top_est = 2.0 * n * n * top_mass * z_top ** (-s) / (2.0 * n + s)
    est = lateral_est + top_est

    total = x_part + z_part
    if total > 0.0 and est > _TRUNCATION_SHARE * total:
        warnings.warn(
            "field had not decayed at the domain edge: estimated "
            f"neglected energy {est:.3e} vs total {total:.3e}",
            TruncationWarning,
            stacklevel=3,
        )
    return ExtensionEnergy(total, x_part, z_part, est)


@dataclass(frozen=True)
class GammaRecord:
    """Calibrated energy-to-perimeter constant with its provenance."""

    value: float
    reference: str
    validation: str
    residual: float

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise ValueError("calibrated constant must be positive")
        if not 0.0 <= self.residual:
            raise ValueError("residual must be nonnegative")


def calibrate_gamma(
    reference,
    validation,
    params: KernelParams,
    h: float,
    *,
    table: InteractionTable | None = None,
    rtol: float = 0.02,
    threads: int = 1,
) -> GammaRecord:
    """Calibrate the energy-to-perimeter constant on a reference shape.

    gamma = 2 * perimeter(reference) / energy(lift of reference); the
    constant is accepted only if (gamma / 2) * energy predicts the
    perimeter of an independent validation shape within `rtol`,
    otherwise a CalibrationError carries both residuals.  Both shapes
    are lifted on extension_domain's default geometry.  ``threads`` is
    the number of level workers of each lift.  Returns gamma as a
    GammaRecord with both shapes' texts and the validation residual.
    """
    if table is None:
        table = build_table(params, h=h)

    def measure(shape) -> tuple[float, float]:
        e = rasterize(shape, auto_spec(shape, h))
        if e.is_empty:
            raise EmptySetError("calibration shape rasterized to nothing")
        perim = fractional_perimeter(e, table)
        grid, embedded = extension_domain(e)
        energy = lift_energy(embedded, grid, params, threads=threads)
        return perim, energy.total

    ref_perim, ref_energy = measure(reference)
    if ref_energy <= 0.0:
        raise CalibrationError("reference lift has no energy")
    gamma = 2.0 * ref_perim / ref_energy
    val_perim, val_energy = measure(validation)
    predicted = 0.5 * gamma * val_energy
    residual = abs(predicted - val_perim) / val_perim
    if residual > rtol:
        raise CalibrationError(
            f"validation residual {residual:.4f} exceeds {rtol:.4f} "
            f"(predicted {predicted:.6g}, measured {val_perim:.6g})"
        )
    return GammaRecord(
        gamma, format_shape(reference), format_shape(validation), residual
    )


def horizontal_rearrange(u: ExtensionField) -> ExtensionField:
    """Rearrange every level slice symmetrically, keeping level multisets.

    Each u(., z_j) is replaced by its symmetric decreasing rearrangement
    on the base grid; the boundary datum is rearranged the same way, so
    the new datum is the centered ball with the original cell count.

    Only the datum is rearranged here.  The result is a made field over
    the same sources as `u` (the rows of its stack, which it keeps
    alive), on `u`'s level workers: its level j is u's level j
    rearranged, checked and clamped, made in the level's job of the pass
    that reads it (after u's own making, if `u` is made too).  So
    extension_energy of the result holds a few level slices per worker
    besides `u` (two-balls(0.9) at h = 1/8: about 0.11 to 0.16 of a
    stack), no bit depends on the workers, and reading its `values`
    builds and keeps its own stack.
    """
    base = u.grid.base
    datum_fn = GridFunction(base, u.datum.astype(np.float64))
    new_datum = symmetric_rearrangement(datum_fn).values > 0.5

    def make(level: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
        # sorted in the scratch buffer when there is one; the levels are
        # checked already, so they skip the GridFunction copies
        out = _rearranged(base, level, scratch)
        _unit_clip(out, out=out)
        out.setflags(write=False)
        return out

    if u._make is not None:
        inner, outer = u._make, make

        def make(source, scratch=None):
            return outer(inner(source, scratch), scratch)

    return ExtensionField._made(u.grid, u.params, new_datum, u._sources, make,
                                u._threads)


def trace_check(u: ExtensionField) -> np.ndarray:
    """L2 distance from each level slice to the boundary datum.

    Returns one distance per level, in level order, each computed in its
    level's task of a level pass over the field.  For a lift built by
    poisson_extend the distances decrease toward 0 as z drops to the
    first level.  At least four levels are required for the sequence to
    say anything.
    """
    if u.grid.level_count < 4:
        raise ValueError("trace comparison needs at least four levels")
    ind = u.datum.astype(np.float64)
    cell = u.grid.base.h ** u.grid.base.dim

    def distance(j, level, scratch) -> float:
        diff = np.subtract(level, ind, out=scratch.reshape(level.shape))
        diff *= diff
        return math.sqrt(cell * float(diff.sum()))

    with closing(_level_pass(u, distance)) as pairs:
        dists = (dist for _, dist in pairs)
        return np.fromiter(dists, np.float64, u.grid.level_count)


def save_extension(u: ExtensionField, path) -> None:
    """FRACEXT v1 text dump.

    Header, geometry line (dim, s, h, origin, cells), a levels line, one
    row-major value block per level, then the boundary datum as a final
    0/1 block.  The text is formatted and written one level at a time.
    """

    def lines():
        yield "FRACEXT v1"
        yield geometry_line(u.grid.base, u.params.s)
        yield "levels " + " ".join(repr(float(z)) for z in u.grid.z_levels)
        for j, level in enumerate(u.levels()):
            yield f"level {j}"
            yield from format_block(level, g17)
        yield "datum"
        yield from format_block(u.datum.astype(int), str)

    write_lines(path, lines())


def load_extension(path) -> ExtensionField:
    """Read a lift from the FRACEXT v1 text format."""
    lines = read_lines(path, "FRACEXT v1")
    with strict("FRACEXT"):
        fields, (s,) = parse_geometry(lines[0], 1)
        spec = GridSpec(*fields)
        tag, *levels = lines[1].split()
        if tag != "levels":
            raise FormatError("missing levels line")
        grid = HalfSpaceGrid(spec, tuple(float(z) for z in levels))
        step = spec.cells[0] + 1
        blocks = [lines[at : at + step] for at in range(2, len(lines), step)]
        markers = [f"level {j}" for j in range(grid.level_count)] + ["datum"]
        if [b[0].strip() for b in blocks] != markers:
            raise FormatError("blocks are not 'level 0', 'level 1', ..., 'datum'")
        values = [parse_block(b[1:], spec.cells, float) for b in blocks[:-1]]
        datum = parse_block(blocks[-1][1:], spec.cells, bit)
        return ExtensionField(grid, KernelParams(spec.dim, s), values, datum)
