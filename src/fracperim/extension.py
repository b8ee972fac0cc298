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

Cost: the levels come from one generator, each level one windowed FFT
convolution of the set's bounding box (transformed once per lift) with
that level's kernel table over the offsets by which the box reaches the
grid; in 2D the table's quadrant is evaluated and mirrored.  Since
extension_domain pads the set by several diagonals, the box is a small
part of the grid and the FFT is about n + k per axis (k box cells), not
2n.  poisson_extend hands the levels to the ExtensionField, which checks
each level once and clamps it into the field's one stack (8 bytes per
cell per level); lift_energy consumes them one at a time, so its memory
does not grow with the level count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

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
from .grids import GridSet, GridSpec
from .kernels import InteractionTable, KernelParams, build_table
from .perimeter import fractional_perimeter
from .quadrature import FFTOperand, convolve_window
from .rearrange import GridFunction, _rearranged, symmetric_rearrangement
from .shapes import auto_spec, format_shape, rasterize

__all__ = [
    "ConstantsRegistry",
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


class TruncationWarning(RuntimeWarning):
    """The field had not decayed enough at the domain edge."""


def lambda_constant(params: KernelParams) -> float:
    """Unit-mass normalization Gamma((N+s)/2) / (pi^(N/2) Gamma(s/2))."""
    n, s = params.dim, params.s
    return float(
        special.gamma(0.5 * (n + s))
        / (math.pi ** (0.5 * n) * special.gamma(0.5 * s))
    )


def poisson_kernel_mass(params: KernelParams, x, z: float) -> float:
    """Quadrature of lam * int z^s / (|x-y|^2 + z^2)^((N+s)/2) dy.

    Evaluates the mass of the lifting kernel centered at `x` at height
    `z` by adaptive quadrature after the substitution y = x + z*tan(t)
    (radial in two dimensions).  The exact value is 1 for every center
    and height; the point of evaluating it numerically is to confirm
    the normalization constant.
    """
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
    spec = e.spec
    h = spec.h
    if z0 is None:
        z0 = 0.25 * h
    diam = _bbox_diameter(e)
    pad = max(2, math.ceil(lateral_factor * diam / h))
    box = e.bounding_cells()
    cells = tuple(hi - lo + 1 + 2 * pad for lo, hi in box)
    origin = tuple(
        spec.origin[k] + (box[k][0] - pad) * h for k in range(spec.dim)
    )
    base = GridSpec(spec.dim, cells, h, origin)
    occ = np.zeros(cells, dtype=bool)
    inner = tuple(slice(pad, pad + hi - lo + 1) for lo, hi in box)
    trim = tuple(slice(lo, hi + 1) for lo, hi in box)
    occ[inner] = e.occupancy[trim]
    levels = geometric_levels(z0, rho, top_factor * diam)
    return HalfSpaceGrid(base, levels), GridSet(base, occ)


class ExtensionField:
    """Lift values on a half-space grid together with their boundary datum.

    `values[j]` holds u(., z_j) over the base grid; `datum` is the
    indicator the lift converges to as z drops to 0.  The constructor
    takes `values` as any iterable of per-level arrays (a 3D array is
    iterated along its first axis), allocates the one level stack of the
    field and fills it level by level: each level is checked for shape,
    finiteness and the [0, 1] window of indicator lifts up to roundoff,
    then clamped into its slot.  So a producer that yields its levels
    one at a time never holds a second stack.
    """

    __slots__ = ("grid", "params", "values", "datum")

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
        datum_arr = np.asarray(datum, dtype=bool)
        if datum_arr.shape != cells:
            raise GridMismatchError("datum shape does not match the base grid")
        datum_arr = datum_arr.copy()
        datum_arr.setflags(write=False)
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
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "values", stack)
        object.__setattr__(self, "datum", datum_arr)

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionField is immutable")


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
    for k in np.unique(panels[panels > 1]).astype(np.int64):
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


def _unit_clip(vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Lift values checked to lie in [0, 1] up to roundoff, then clamped.

    NaN and infinities fail the min/max window too, so finiteness is
    only looked at to name the failure.
    """
    if not (vals.min() >= -1e-9 and vals.max() <= 1.0 + 1e-9):
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        raise ValueError("indicator lifts must stay within [0, 1]")
    return np.clip(vals, 0.0, 1.0, out=out)


def _lift_levels(e: GridSet, grid: HalfSpaceGrid, params: KernelParams, threads: int):
    """Yield (z, u(., z)) for every level of the grid, lowest first.

    Each level is a window of one convolution of the occupancy, trimmed
    to its bounding box, with the level's kernel table over the offsets
    that reach the grid from the box; the occupancy is transformed once.
    The levels are neither checked nor clamped: each consumer does that
    once per level (ExtensionField, or _unit_clip in lift_energy).
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
        for z in grid.z_levels:
            yield z, np.zeros(cells)
        return
    lam = lambda_constant(params)
    box = e.bounding_cells()
    occ = FFTOperand(e.occupancy[tuple(slice(lo, hi + 1) for lo, hi in box)])
    # Cells lo..hi reach grid cells 0..n-1 through offsets -hi..n-1-lo.
    # The table starts at offset -hi, so grid cell i is output i + hi - lo.
    below = tuple(hi for _, hi in box)
    above = tuple(n - 1 - lo for n, (lo, _) in zip(cells, box))
    start = [hi - lo for lo, hi in box]
    stop = [hi - lo + n for n, (lo, hi) in zip(cells, box)]

    def table(z: float) -> np.ndarray:
        if params.dim == 1:
            return _poisson_table_1d(s, h, z, below[0], above[0])
        return _poisson_table_2d(s, h, z, below, above)

    for z in grid.z_levels:
        window = convolve_window(occ, table(z), start, stop, workers=threads)
        window *= lam
        yield z, window
        del window  # the consumer may drop the level before the next FFT


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
    the offsets -hi..n-1-lo; one real FFT of that table at
    next_fast_len(n + k - 1) per axis and one inverse pruned to the base
    grid's window, with ``threads`` FFT workers.  The box's occupancy is
    transformed once per lift.  The thread count does not change a
    single bit of the result.

    Memory: the levels go straight into the ExtensionField, which checks
    each one once and clamps it into the field's one stack (8 bytes per
    cell per level), so besides that stack only one level's FFT work is
    alive.  lift_energy streams the levels and holds no stack at all.
    """
    levels = (level for _, level in _lift_levels(e, grid, params, threads))
    return ExtensionField(grid, params, levels, e.occupancy)


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


def extension_energy(
    u: ExtensionField, *, warn_threshold: float = 0.01
) -> ExtensionEnergy:
    """Assemble int z^(1-s) |grad u|^2 from the level stack.

    Lateral gradients are forward differences at each level, weighted by
    the exact z^(1-s) mass of the slab the level represents (slabs meet
    at midpoints between consecutive levels).  Vertical gradients are
    difference quotients between consecutive levels, the boundary datum
    acting as the level at z = 0.  A decay-model estimate of the energy
    ignored outside the computed box is returned, and a warning is
    issued when it is not small against the total.
    """
    return _energy(
        u.grid, u.params.s, u.datum, zip(u.grid.z_levels, u.values), warn_threshold
    )


def lift_energy(
    e: GridSet,
    grid: HalfSpaceGrid,
    params: KernelParams,
    *,
    threads: int = 1,
    warn_threshold: float = 0.01,
) -> ExtensionEnergy:
    """extension_energy(poisson_extend(e, grid, params)), bit for bit.

    The levels are lifted and consumed one at a time, so memory holds a
    few level slices instead of the whole stack.
    """
    levels = (
        (z, _unit_clip(level, out=level))
        for z, level in _lift_levels(e, grid, params, threads)
    )
    return _energy(grid, params.s, e.occupancy, levels, warn_threshold)


def _energy(
    grid: HalfSpaceGrid, s: float, datum, levels, warn_threshold: float
) -> ExtensionEnergy:
    """extension_energy over the (z, u(., z)) pairs of the grid's levels."""
    h = grid.base.h
    n = grid.base.dim
    zs = grid.z_levels
    cell = h**n
    # lateral slabs meet at the midpoints between consecutive levels
    mids = [0.5 * (a + b) for a, b in zip(zs, zs[1:])]
    slabs = zip([0.0] + mids, mids + [zs[-1]])

    x_part = 0.0
    z_part = 0.0
    rim_energy = 0.0
    prev = np.asarray(datum, dtype=np.float64)
    prev_z = 0.0
    for (lo, hi), (z, level) in zip(slabs, levels):
        w = _slab_weight(lo, hi, s)
        x_sum = x_rim = 0.0
        for axis in range(n):
            # the forward difference sits on the lower cell of each pair
            d = np.diff(level, axis=axis)
            d /= h
            d *= d
            x_sum += float(d.sum())
            x_rim += _rim_sum(d, axis)
        x_part += w * cell * x_sum
        rim_energy += w * cell * x_rim

        w = _slab_weight(prev_z, z, s)
        q = level - prev
        q /= z - prev_z
        q *= q
        z_part += w * cell * float(q.sum())
        rim_energy += w * cell * _rim_sum(q)
        prev = level
        prev_z = z

    # Decay model for the ignored exterior: laterally u ~ r^-(N+s) so the
    # outermost ring underestimates the exterior by about r/(h*(N+2s));
    # above the top level u ~ z^-N, integrated in closed form.
    half_extent = 0.5 * max(c * h for c in grid.base.cells)
    lateral_est = rim_energy * half_extent / (h * (n + 2.0 * s))
    z_top = zs[-1]
    top_mass = cell * float((prev * prev).sum())  # prev is the top level
    top_est = 2.0 * n * n * top_mass * z_top ** (-s) / (2.0 * n + s)
    est = lateral_est + top_est

    total = x_part + z_part
    if total > 0.0 and est > warn_threshold * total:
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


class ConstantsRegistry:
    """Analytic, calibrated, and measured constants keyed by (dim, s).

    The kernel normalization is analytic and computed on demand; the
    energy-to-perimeter constant is only available after a calibration
    recorded the reference shape and its cross-validation residual; the
    small-s/large-s limit slopes are measured values with a provenance
    string.
    """

    def __init__(self) -> None:
        self._gamma: dict[tuple[int, float], GammaRecord] = {}
        self._limits: dict[int, tuple[float, str]] = {}

    def record_gamma(
        self,
        params: KernelParams,
        value: float,
        *,
        reference: str,
        validation: str,
        residual: float,
    ) -> GammaRecord:
        rec = GammaRecord(float(value), reference, validation, float(residual))
        self._gamma[(params.dim, params.s)] = rec
        return rec

    def gamma_value(self, params: KernelParams) -> float:
        return self.gamma_record(params).value

    def gamma_record(self, params: KernelParams) -> GammaRecord:
        key = (params.dim, params.s)
        if key not in self._gamma:
            raise CalibrationError(
                f"no calibrated constant for dim={params.dim}, s={params.s}"
            )
        return self._gamma[key]

    def record_limit_constant(
        self, dim: int, value: float, *, source: str
    ) -> None:
        if not value > 0.0:
            raise ValueError("limit constant must be positive")
        self._limits[dim] = (float(value), source)

    def limit_constant(self, dim: int) -> tuple[float, str]:
        if dim not in self._limits:
            raise KeyError(f"no measured limit constant for dim={dim}")
        return self._limits[dim]


def calibrate_gamma(
    reference,
    validation,
    params: KernelParams,
    h: float,
    *,
    table: InteractionTable | None = None,
    registry: ConstantsRegistry | None = None,
    rtol: float = 0.02,
    z0: float | None = None,
    rho: float = 1.15,
    top_factor: float = 8.0,
    lateral_factor: float = 4.0,
    threads: int = 1,
) -> float:
    """Calibrate the energy-to-perimeter constant on a reference shape.

    gamma = 2 * perimeter(reference) / energy(lift of reference); the
    constant is accepted only if (gamma / 2) * energy predicts the
    perimeter of an independent validation shape within `rtol`,
    otherwise a CalibrationError carries both residuals.
    """
    if table is None:
        table = build_table(params, h=h)

    def measure(shape) -> tuple[float, float]:
        e = rasterize(shape, auto_spec(shape, h))
        if e.is_empty:
            raise EmptySetError("calibration shape rasterized to nothing")
        perim = fractional_perimeter(e, table, threads=threads)
        grid, embedded = extension_domain(
            e,
            z0=z0,
            rho=rho,
            top_factor=top_factor,
            lateral_factor=lateral_factor,
        )
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
    if registry is not None:
        registry.record_gamma(
            params,
            gamma,
            reference=format_shape(reference),
            validation=format_shape(validation),
            residual=residual,
        )
    return gamma


def horizontal_rearrange(u: ExtensionField) -> ExtensionField:
    """Rearrange every level slice symmetrically, keeping level multisets.

    Each u(., z_j) is replaced by its symmetric decreasing rearrangement
    on the base grid; the boundary datum is rearranged the same way, so
    the new datum is the centered ball with the original cell count.
    The rearranged levels go one at a time into the new field's one
    stack, which checks each once, so the peak is the two fields' stacks
    plus a few level slices.
    """
    base = u.grid.base
    datum_fn = GridFunction(base, u.datum.astype(np.float64))
    new_datum = symmetric_rearrangement(datum_fn).values > 0.5
    # the levels are checked already, so they skip the GridFunction copies
    levels = (_rearranged(base, level) for level in u.values)
    return ExtensionField(u.grid, u.params, levels, new_datum)


def trace_check(u: ExtensionField, target: GridSet | None = None) -> np.ndarray:
    """L2 distance from each level slice to a boundary indicator.

    Returns one distance per level, in level order.  For a lift built by
    poisson_extend the distances decrease toward 0 as z drops to the
    first level.  At least four levels are required for the sequence to
    say anything.
    """
    if u.grid.level_count < 4:
        raise ValueError("trace comparison needs at least four levels")
    if target is None:
        ind = u.datum.astype(np.float64)
    else:
        if target.spec != u.grid.base:
            raise GridMismatchError("target does not live on the base grid")
        ind = target.occupancy.astype(np.float64)
    cell = u.grid.base.h ** u.grid.base.dim
    out = np.empty(u.grid.level_count, dtype=np.float64)
    for j in range(u.grid.level_count):
        diff = u.values[j] - ind
        out[j] = math.sqrt(cell * float((diff * diff).sum()))
    return out


def save_extension(u: ExtensionField, path) -> None:
    """FRACEXT v1 text dump.

    Header, geometry line (dim, s, h, origin, cells), a levels line, one
    row-major value block per level, then the boundary datum as a final
    0/1 block.
    """
    lines = [
        "FRACEXT v1",
        geometry_line(u.grid.base, u.params.s),
        "levels " + " ".join(repr(float(z)) for z in u.grid.z_levels),
    ]
    for j, level in enumerate(u.values):
        lines += [f"level {j}", *format_block(level, g17)]
    lines += ["datum", *format_block(u.datum.astype(int), str)]
    write_lines(path, lines)


def load_extension(path) -> ExtensionField:
    """Read a lift from the FRACEXT v1 text format."""
    _, lines = read_lines(path, "FRACEXT v1")
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
