"""Uniform pixel grids and finite cell sets.

A grid covers a box with ``cells[k]`` cells of side ``h`` along axis ``k``,
anchored at ``origin``.  Cell ``i`` (a ``dim``-tuple) occupies the half-open
box ``origin + i*h .. origin + (i+1)*h`` and its center sits at
``origin + (i + 1/2)*h``.  Sets are stored as boolean occupancy arrays over
the full grid, axis 0 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainTooSmallError, EmptySetError, GridMismatchError

__all__ = [
    "GridSpec",
    "GridSet",
    "unit_ball_volume",
    "bisect_halves",
    "pad_domain",
]


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball: 2 on the line, pi in the plane."""
    if dim == 1:
        return 2.0
    if dim == 2:
        return math.pi
    raise ValueError(f"unsupported dimension {dim}")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform grid: dimension, cell counts, spacing, anchor."""

    dim: int
    cells: tuple[int, ...]
    h: float
    origin: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.cells) != self.dim or len(self.origin) != self.dim:
            raise ValueError("cells/origin length must equal dim")
        if any(int(n) != n or n <= 0 for n in self.cells):
            raise ValueError("cell counts must be positive integers")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError("cell size h must be positive and finite")
        if not all(math.isfinite(x) for x in self.origin):
            raise ValueError("origin must be finite")
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.cells[axis]
        return self.origin[axis] + (np.arange(n) + 0.5) * self.h

    def centers(self) -> np.ndarray:
        """All cell centers, shape (prod(cells), dim), axis-0-major order."""
        axes = [self.axis_centers(k) for k in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def extent(self) -> tuple[tuple[float, float], ...]:
        return tuple(
            (self.origin[k], self.origin[k] + self.cells[k] * self.h)
            for k in range(self.dim)
        )

    def center_cell(self) -> tuple[int, ...]:
        """Index of the cell that anchors center-based fills.

        The middle cell for odd extents; for even extents the cell just on
        the positive side of the geometric midline.
        """
        return tuple(n // 2 for n in self.cells)

    def window(self, lo, cells) -> "GridSpec":
        """The grid of ``cells`` cells whose cell 0 is this grid's cell ``lo``.

        ``lo`` may lie outside this grid.  Every re-embedding of a set goes
        through here, so a cell keeps its absolute position whichever way
        its grid was reached: the origin is ``origin + lo*h``, rounded once.
        """
        return GridSpec(
            self.dim,
            tuple(int(n) for n in cells),
            self.h,
            tuple(x + int(i) * self.h for x, i in zip(self.origin, lo)),
        )


class GridSet:
    """A finite union of grid cells, stored as a boolean occupancy array."""

    __slots__ = ("spec", "occupancy")

    def __init__(self, spec: GridSpec, occupancy: np.ndarray):
        occ = np.asarray(occupancy, dtype=bool)
        if occ.shape != spec.cells:
            raise GridMismatchError(
                f"occupancy shape {occ.shape} does not match grid cells {spec.cells}"
            )
        occ = occ.copy()
        occ.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "occupancy", occ)

    def __setattr__(self, name, value):
        raise AttributeError("GridSet is immutable")

    @classmethod
    def empty(cls, spec: GridSpec) -> "GridSet":
        return cls(spec, np.zeros(spec.cells, dtype=bool))

    @classmethod
    def from_cells(cls, spec: GridSpec, cells) -> "GridSet":
        occ = np.zeros(spec.cells, dtype=bool)
        for c in cells:
            index = tuple(np.atleast_1d(c).tolist())
            if len(index) != spec.dim:
                raise GridMismatchError(
                    f"cell {index} has {len(index)} indices on a "
                    f"{spec.dim}-dimensional grid"
                )
            if not all(0 <= i < n for i, n in zip(index, spec.cells)):
                raise DomainTooSmallError(
                    f"cell {index} lies outside the grid of cells {spec.cells}"
                )
            occ[index] = True
        return cls(spec, occ)

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.occupancy))

    @property
    def measure(self) -> float:
        return self.cell_count * self.spec.h**self.spec.dim

    @property
    def is_empty(self) -> bool:
        return not self.occupancy.any()

    def cells(self) -> np.ndarray:
        """Occupied cell indices, shape (count, dim), axis-0-major order."""
        idx = np.argwhere(self.occupancy)
        return idx.astype(np.int64)

    def bounding_cells(self) -> tuple[tuple[int, int], ...]:
        """Inclusive index range of occupied cells per axis."""
        if self.is_empty:
            raise EmptySetError("empty set has no bounding box")
        idx = np.argwhere(self.occupancy)
        return tuple(
            (int(idx[:, k].min()), int(idx[:, k].max())) for k in range(self.spec.dim)
        )

    def trimmed(self) -> "GridSet":
        """Copy restricted to the occupied bounding box."""
        bc = self.bounding_cells()
        spec = self.spec.window([lo for lo, _ in bc], [hi - lo + 1 for lo, hi in bc])
        return GridSet(spec, self.occupancy[tuple(slice(lo, hi + 1) for lo, hi in bc)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridSet):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(
            self.occupancy, other.occupancy
        )

    def __hash__(self):
        return hash((self.spec, self.occupancy.tobytes()))

    def __repr__(self):
        return (
            f"GridSet(dim={self.spec.dim}, cells={self.spec.cells}, "
            f"h={self.spec.h}, count={self.cell_count})"
        )


def _fitted(spec: GridSpec, idx: np.ndarray) -> GridSet:
    """Cells ``idx``, indexed on ``spec``, on ``spec`` grown just to hold them."""
    lo = np.minimum(idx.min(axis=0, initial=0), 0)
    hi = np.maximum(idx.max(axis=0, initial=-1) + 1, spec.cells)
    occ = np.zeros(hi - lo, dtype=bool)
    occ[tuple((idx - lo).T)] = True
    return GridSet(spec.window(lo, hi - lo), occ)


def _mirrored(idx: np.ndarray, axis: int, q: int) -> np.ndarray:
    """Cell indices mirrored across the plane ``q`` half-cells from the origin."""
    out = idx.copy()
    out[:, axis] = q - 1 - idx[:, axis]
    return out


def bisect_halves(e: GridSet, axis: int) -> tuple[float, GridSet, GridSet]:
    """Split a set by a half-lattice plane into reflected halves.

    Considers every grid line and every line of cell centers orthogonal to
    ``axis``, scores each by how far the two mirrored half counts stray
    from the original count, and keeps the best (ties resolved toward the
    smaller coordinate).  Returns ``(plane, upper half united with its
    mirror image, lower half united with its mirror image)``; cells on a
    cell-center plane belong to both halves and map to themselves, so a
    set symmetric about such a plane reproduces itself exactly.  Domains
    grow as needed so the mirrored halves always fit.
    """
    if e.is_empty:
        raise EmptySetError("cannot bisect an empty set")
    if not 0 <= axis < e.spec.dim:
        raise ValueError(f"axis {axis} out of range for dim {e.spec.dim}")
    spec = e.spec
    total = e.cell_count
    lo, hi = e.bounding_cells()[axis]
    if spec.dim == 1:
        line_counts = e.occupancy.astype(np.int64)
    else:
        line_counts = e.occupancy.sum(axis=1 - axis)
    # strictly-above counts indexed by doubled coordinate q: grid line at
    # index p <-> q = 2p, line of cell centers at index c <-> q = 2c + 1
    best_q, best_score = None, None
    for q in range(2 * lo, 2 * hi + 3):
        if q % 2 == 0:
            above = int(line_counts[q // 2 : hi + 1].sum())
            up_count, dn_count = 2 * above, 2 * (total - above)
        else:
            c = (q - 1) // 2
            on = int(line_counts[c])
            above = int(line_counts[c + 1 : hi + 1].sum())
            up_count = 2 * above + on
            dn_count = 2 * (total - above - on) + on
        score = max(abs(up_count - total), abs(dn_count - total))
        if best_score is None or score < best_score:
            best_q, best_score = q, score
    plane = spec.origin[axis] + best_q * 0.5 * spec.h

    idx = e.cells()
    if best_q % 2 == 0:
        sel_up = idx[:, axis] >= best_q // 2
        sel_dn = ~sel_up
    else:
        c = (best_q - 1) // 2
        sel_up = idx[:, axis] >= c
        sel_dn = idx[:, axis] <= c
    f_plus, f_minus = (
        _fitted(spec, np.concatenate([half, _mirrored(half, axis, best_q)]))
        for half in (idx[sel_up], idx[sel_dn])
    )
    return plane, f_plus, f_minus


def pad_domain(e: GridSet, pad: int) -> GridSet:
    """Re-embed a set so its bounding box has ``pad`` free cells per side.

    The set keeps its absolute position; only the domain is resized.  Useful
    before perimeter calls on sets whose domain grew flush to the occupancy.
    """
    if e.is_empty:
        raise EmptySetError("cannot pad the domain of an empty set")
    if pad < 0:
        raise ValueError("pad must be nonnegative")
    bc = e.bounding_cells()
    spec = e.spec.window(
        [lo - pad for lo, _ in bc], [hi - lo + 1 + 2 * pad for lo, hi in bc]
    )
    return GridSet(spec, np.pad(e.trimmed().occupancy, pad))

