"""Distribution functions, symmetric decreasing rearrangement, and the
discrete energy bookkeeping around it.

The rearrangement reassigns the sorted values of a grid function to cells
in increasing distance from the domain's center cell (ties broken by cell
index), so the value multiset is preserved exactly and the result is
radially nonincreasing along that fill order.  Gradient energies use
forward differences; the continuum decrease-under-rearrangement statement
only survives discretization up to a measured tolerance, which callers
track through refinement pairs rather than assume.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._textio import (
    format_block, g17, geometry_line, parse_block, parse_geometry, read_lines,
    strict, write_lines,
)
from .errors import GridMismatchError, MissingHaloError
from .grids import GridSpec

__all__ = [
    "GridFunction",
    "RearrangeReport",
    "distribution_function",
    "symmetric_rearrangement",
    "dirichlet_energy",
    "symmetry_defect",
    "polya_szego_report",
    "save_gridfunction",
    "load_gridfunction",
]


class GridFunction:
    """Nonnegative values attached to the cells of a grid.

    Superlevel sets automatically have finite measure here, so every
    distribution-function identity is available without hypotheses.
    """

    __slots__ = ("spec", "values")

    def __init__(self, spec: GridSpec, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != spec.cells:
            raise GridMismatchError(
                f"values shape {arr.shape} does not match grid cells {spec.cells}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid function values must be finite")
        if (arr < 0).any():
            raise ValueError("grid function values must be nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.spec, self.values.tobytes()))

    @property
    def support_count(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def support_measure(self) -> float:
        return self.support_count * self.spec.h**self.spec.dim

    @property
    def l1_norm(self) -> float:
        return float(self.values.sum()) * self.spec.h**self.spec.dim


@dataclass(frozen=True)
class RearrangeReport:
    """Both sides of the quantitative rearrangement comparison."""

    l1_distance: float
    support_measure: float
    energy_g: float
    energy_gsharp: float
    gap: float
    symmetry_defect: float


def distribution_function(g: GridFunction, t: float) -> float:
    """Measure of the superlevel set {g > t}; right-continuous, nonincreasing."""
    if t <= 0:
        raise ValueError("distribution function is defined for t > 0")
    return float(np.count_nonzero(g.values > t)) * g.spec.h**g.spec.dim


@functools.lru_cache(maxsize=8)
def _fill_order(spec: GridSpec) -> np.ndarray:
    """Flat cell indices sorted by squared distance from the center cell,
    ties by index; integer arithmetic only, so the order is exact.

    Cached per spec (a lift rearranges every level on one spec) and
    returned read-only, since every caller shares the array."""
    center = spec.center_cell()
    d2 = 0
    for axis, (n, c) in enumerate(zip(spec.cells, center)):
        shape = [1] * spec.dim
        shape[axis] = n
        d2 = d2 + ((np.arange(n) - c) ** 2).reshape(shape)
    # a stable sort breaks ties by flat index; one full-size temporary
    order = np.argsort(d2.reshape(-1), kind="stable")
    order.setflags(write=False)
    return order


def symmetric_rearrangement(g: GridFunction) -> GridFunction:
    """Equimeasurable radially nonincreasing rebuild of g.

    The sorted values land on cells in the deterministic center-out fill
    order; for an indicator this produces the discrete centered ball of the
    same cell count.
    """
    return GridFunction(g.spec, _rearranged(g.spec, g.values))


def _rearranged(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """The values sorted down and scattered in fill order, unchecked.

    The core of symmetric_rearrangement for callers whose values are
    already known to be finite, nonnegative and shaped like the grid.
    """
    # descending: sort the negation in place, then negate it back
    ordered = np.negative(values.reshape(-1))
    ordered.sort()
    np.negative(ordered, out=ordered)
    out = np.empty_like(ordered)
    out[_fill_order(spec)] = ordered
    return out.reshape(spec.cells)


def dirichlet_energy(g: GridFunction) -> float:
    """Forward-difference squared-gradient sum, scaled by h^(dim-2).

    The support must stay clear of the last cell along each axis; a value
    on that rim would need neighbors outside the grid for its forward
    difference, and silently dropping them understates the energy.
    """
    v = g.values
    spec = g.spec
    for axis in range(spec.dim):
        lead = np.take(v, [0, spec.cells[axis] - 1], axis=axis)
        if np.any(lead != 0.0):
            raise MissingHaloError(
                "support touches the grid rim: enlarge the domain before "
                "taking gradients"
            )
    scale = spec.h ** (spec.dim - 2)
    total = 0.0
    for axis in range(spec.dim):
        d = np.diff(v, axis=axis)
        total += float(np.sum(d * d))
    return total * scale


def symmetry_defect(g: GridFunction) -> float:
    """L1 distance to the worst coordinate reflection of the domain,
    normalized by twice the L1 norm; 0 for functions symmetric in every
    coordinate hyperplane through the domain center."""
    v = g.values
    norm = float(np.abs(v).sum())
    if norm == 0.0:
        return 0.0
    worst = 0.0
    for axis in range(g.spec.dim):
        flipped = np.flip(v, axis=axis)
        worst = max(worst, float(np.abs(v - flipped).sum()) / (2.0 * norm))
    return worst


def polya_szego_report(g: GridFunction) -> RearrangeReport:
    """Distance and energy comparison between g and its rearrangement.

    The gap can dip slightly negative at finite h; callers decide what
    tolerance that discretization earns (e.g. from a refinement pair).
    """
    gs = symmetric_rearrangement(g)
    hn = g.spec.h**g.spec.dim
    l1 = float(np.abs(g.values - gs.values).sum()) * hn
    e_g = dirichlet_energy(g)
    e_gs = dirichlet_energy(gs)
    return RearrangeReport(
        l1_distance=l1,
        support_measure=g.support_measure,
        energy_g=e_g,
        energy_gsharp=e_gs,
        gap=e_g - e_gs,
        symmetry_defect=symmetry_defect(g),
    )


def save_gridfunction(g: GridFunction, path) -> None:
    """FRACFUN v1 text: header, geometry line, then row-major values."""
    rows = format_block(g.values, g17)
    write_lines(path, ["FRACFUN v1", geometry_line(g.spec), *rows])


def load_gridfunction(path) -> GridFunction:
    """Read a grid function from the FRACFUN v1 text format."""
    _, lines = read_lines(path, "FRACFUN v1")
    with strict("FRACFUN"):
        fields, _ = parse_geometry(lines[0], 0)
        spec = GridSpec(*fields)
        return GridFunction(spec, parse_block(lines[1:], spec.cells, float))
