"""Isoperimetric deficit, best-overlap asymmetry, and symmetrization.

The deficit of a set compares its nonlocal perimeter against a reference
ball rasterized on the very same grid with the very same cell count, so the
systematic part of the quadrature error is shared by both terms and the
difference isolates the shape effect.  ``s_deficit`` is the one place that
measures a set: symmetrization reflects a set axis by axis and reads every
candidate's perimeter, deficit, budget and asymmetry off its report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._textio import csv_line
from .errors import EmptySetError, SymmetryDefectError
from .grids import GridSet, GridSpec, bisect_halves, pad_domain, unit_ball_volume
from .kernels import InteractionTable
from .perimeter import fractional_perimeter, single_cell_perimeter
from .quadrature import convolve_window, rounded_counts
from .rearrange import _fill_order

__all__ = [
    "DEFICIT_CSV_HEADER",
    "DeficitReport",
    "SymmetrizeAudit",
    "SymmetrizeCandidate",
    "SymmetrizeStep",
    "boundary_cell_count",
    "centered_sandwich_check",
    "equivalent_radius",
    "fraenkel_asymmetry",
    "n_symmetrize",
    "reference_ball",
    "s_deficit",
    "symmetry_defect_cells",
]

# Fields: identifier, dimension, s, h, perimeter of the set, equivalent
# radius, perimeter of the matched ball, relative deficit, asymmetry,
# best overlap center (cy blank on the line), relative error budget, flags.
DEFICIT_CSV_HEADER = "id,N,s,h,Ps,r,PsBall,Ds,A,cx,cy,err_budget,flags"

_REFLECTION_RTOL = 1e-9
# n_symmetrize's padding around each candidate, in cells: room for the
# count-matched reference ball
_PAD = 6


def equivalent_radius(e: GridSet) -> float:
    """Radius of the round set with the same measure as ``e``."""
    if e.is_empty:
        raise EmptySetError("equivalent radius of an empty set is undefined")
    return (e.measure / unit_ball_volume(e.spec.dim)) ** (1.0 / e.spec.dim)


def reference_ball(e: GridSet) -> GridSet:
    """Centered lattice ball with exactly the cell count of ``e``.

    Cells are taken nearest-center first, in the same order the symmetric
    rearrangement uses; the result is the rearrangement of the indicator of
    ``e``.  A set that already is a centered lattice ball is its own
    reference, which pins the deficit of such sets at exactly zero.
    """
    if e.is_empty:
        raise EmptySetError("reference ball of an empty set is undefined")
    occ = np.zeros(e.occupancy.size, dtype=bool)
    occ[_fill_order(e.spec)[: e.cell_count]] = True
    return GridSet(e.spec, occ.reshape(e.spec.cells))


def boundary_cell_count(e: GridSet) -> int:
    """Number of occupied cells with a face neighbor outside the set."""
    occ = e.occupancy
    padded = np.pad(occ, 1, constant_values=False)
    interior = np.ones_like(occ)
    for axis in range(occ.ndim):
        sl_lo = [slice(1, -1)] * occ.ndim
        sl_hi = [slice(1, -1)] * occ.ndim
        sl_lo[axis] = slice(0, -2)
        sl_hi[axis] = slice(2, None)
        interior &= padded[tuple(sl_lo)] & padded[tuple(sl_hi)]
    return int(np.count_nonzero(occ & ~interior))


def _relative_budget(e: GridSet, ball: GridSet, table: InteractionTable,
                     ps_ball: float) -> float:
    """Relative allowance for lattice effects in deficit comparisons.

    Flipping one cell moves the perimeter by at most one single-cell
    perimeter, and only boundary cells are ambiguous under a half-cell shift
    of the underlying region.  A quarter of that worst case is charged; the
    shared grid makes realized errors far smaller still.
    """
    per_cell = single_cell_perimeter(table.params) * table.scale_factor
    flips = boundary_cell_count(e) + boundary_cell_count(ball)
    return 0.25 * per_cell * flips / ps_ball


def _occupied_centers(e: GridSet) -> np.ndarray:
    idx = e.cells().astype(np.float64)
    origin = np.asarray(e.spec.origin)
    return origin + (idx + 0.5) * e.spec.h


def _overlap_count(pts: np.ndarray, x: np.ndarray, r: float) -> int:
    d2 = ((pts - x) ** 2).sum(axis=1)
    return int(np.count_nonzero(d2 < r * r))


def _lattice_scan(e: GridSet, r: float) -> tuple[int, np.ndarray]:
    """Best overlap count over every lattice-aligned window center (2D).

    The count of occupied cell centers inside the open window of radius
    ``r`` is a correlation of the occupancy with a symmetric ball stencil
    of 2m + 1 cells a side, taken here on the trimmed occupancy.  Beyond
    the bounding box dilated by m cells every count is 0, so the first
    maximum in C order over that dilated box is the whole grid's.  The
    window is read first over the centers of the bounding box only.
    Clamping a center onto the box moves it nearer to every occupied
    center, so it keeps at least its count, and a center outside that
    comes before an interior one in C order clamps onto a rim center that
    also comes before it.  So a first maximum inside the rim is the first
    over the dilated box.  One on the rim may be tied by an earlier
    center outside, and then the window widens to the whole dilated box.
    Either way the count, the center and so ``A`` are the full scan's.
    """
    h = e.spec.h
    m = int(math.ceil(r / h)) + 1
    off = np.arange(-m, m + 1, dtype=np.float64) * h
    d2 = off[:, None] ** 2 + off[None, :] ** 2
    stencil = (d2 < r * r).astype(np.float64)
    box = e.bounding_cells()
    lo = [b for b, _ in box]
    occ = e.occupancy[tuple(slice(b, c + 1) for b, c in box)]
    # window index i is the center cell lo + i + start - m
    inner = ([m, m], [m + n for n in occ.shape])
    dilated = ([0, 0], [n + 2 * m for n in occ.shape])
    for start, stop in (inner, dilated):
        counts = rounded_counts(convolve_window(occ, stencil, start, stop))
        flat = int(np.argmax(counts))  # first maximum in C order: deterministic
        idx = np.unravel_index(flat, counts.shape)
        if not any(i in (0, n - 1) for i, n in zip(idx, counts.shape)):
            break
    center = np.array([e.spec.origin[k] + (lo[k] + idx[k] + start[k] - m + 0.5) * h
                       for k in (0, 1)])
    return int(counts[idx]), center


def _pattern_search(pts: np.ndarray, x0: np.ndarray, r: float,
                    h: float) -> tuple[int, np.ndarray]:
    """Compass refinement of the overlap count, steps h/2 down to h/16."""
    x = x0.astype(np.float64).copy()
    best = _overlap_count(pts, x, r)
    dim = x.size
    for step in (h / 2, h / 4, h / 8, h / 16):
        moved = True
        while moved:
            moved = False
            for axis in range(dim):
                for sgn in (1.0, -1.0):
                    cand = x.copy()
                    cand[axis] += sgn * step
                    c = _overlap_count(pts, cand, r)
                    if c > best:
                        x, best = cand, c
                        moved = True
                        break
                if moved:
                    break
    return best, x


def _sliding_window_1d(pts: np.ndarray, r: float) -> tuple[int, np.ndarray]:
    """Exact best window on the line by a two-pointer sweep.

    The open window (x-r, x+r) holds centers i..j exactly when their spread
    is below 2r; the midpoint of the extreme members realizes the count.
    """
    cs = np.sort(pts[:, 0])
    k = cs.size
    best, best_x = 0, cs[0]
    j = 0
    for i in range(k):
        if j < i:
            j = i
        while j + 1 < k and cs[j + 1] - cs[i] < 2.0 * r:
            j += 1
        if j - i + 1 > best:
            best = j - i + 1
            best_x = 0.5 * (cs[i] + cs[j])
    return best, np.array([best_x])


def fraenkel_asymmetry(e: GridSet) -> tuple[float, tuple[float, ...]]:
    """Scaled best-overlap distance to a round window, and its center.

    Returns ``2 (|E| - max_x |E ∩ W_r(x)|) / |E|`` where ``W_r(x)`` is the
    open round window of the equivalent radius, with the overlap counted on
    cell centers, plus the best center found.  In the plane a lattice scan
    comes first: one FFT convolution of the trimmed occupancy with a disk
    stencil, read over the centers of the set's bounding box, and widened
    to the box dilated by the stencil's reach only when the best count
    sits on the box's rim (``_lattice_scan``), so its result is that of
    a scan over every center of the dilated box.  Then a compass pattern
    search refines the center below h/8.  On the line an exact
    sliding-window sweep alone gives the result of exhaustive search.

    The value is translation invariant: shifting the set by whole cells
    shifts the best center and leaves the value bit-identical.
    """
    if e.is_empty:
        raise EmptySetError("asymmetry of an empty set is undefined")
    r = equivalent_radius(e)
    pts = _occupied_centers(e)
    k = pts.shape[0]

    if e.spec.dim == 1:
        best, x = _sliding_window_1d(pts, r)
    else:
        _, x0 = _lattice_scan(e, r)
        best, x = _pattern_search(pts, x0, r, e.spec.h)
    value = 2.0 * (k - best) / k
    return value, tuple(float(v) for v in x)


@dataclass(frozen=True)
class DeficitReport:
    """Perimeter, deficit, and asymmetry of one set at one (N, s, h)."""

    set_id: str
    dim: int
    s: float
    h: float
    perimeter: float
    radius: float
    ball_perimeter: float
    deficit: float
    asymmetry: float
    center: tuple[float, ...]
    error_budget: float
    flags: tuple[str, ...]

    def csv_row(self) -> str:
        cx, cy = (*self.center, "")[:2]  # a blank cy on the line
        return csv_line(
            [self.set_id, self.dim, self.s, self.h, self.perimeter, self.radius,
             self.ball_perimeter, self.deficit, self.asymmetry, cx, cy,
             self.error_budget, ";".join(self.flags)]
        )


def _reaches_rim(e: GridSet) -> bool:
    """Whether ``e`` occupies a cell on the outer rim of its grid."""
    occ = e.occupancy
    return any(np.take(occ, [0, -1], axis=k).any() for k in range(occ.ndim))


def s_deficit(
    e: GridSet,
    table: InteractionTable,
    *,
    set_id: str = "set",
    threads: int = 1,
) -> DeficitReport:
    """Full deficit report against the count-matched centered ball.

    The reference ball lives on the same grid and is measured by the same
    engine and kernel table, so quadrature bias cancels in the deficit.  The
    error budget is expressed in deficit units: the deficit of any
    rasterized region is trusted down to ``-error_budget``.

    The ball fills the grid of ``e`` centre-out, so on a grid with little
    room around the set it can run into the rim and be cut off there; its
    perimeter is then too high and the deficit too low.  Such a report
    carries the flag ``ball-clipped``.

    ``threads`` is ignored: ``bench/workloads.py`` passes it, that file
    changes only with the benchmark as a whole, and ROADMAP item 7
    deletes it there and here.
    """
    ball = reference_ball(e)
    ps = fractional_perimeter(e, table)
    ps_ball = fractional_perimeter(ball, table)
    deficit = (ps - ps_ball) / ps_ball
    asym, center = fraenkel_asymmetry(e)
    flags = []
    if deficit > 1.0:
        flags.append("deficit-above-one")
    if _reaches_rim(ball):
        flags.append("ball-clipped")
    return DeficitReport(
        set_id=set_id,
        dim=e.spec.dim,
        s=table.params.s,
        h=e.spec.h,
        perimeter=ps,
        radius=equivalent_radius(e),
        ball_perimeter=ps_ball,
        deficit=deficit,
        asymmetry=asym,
        center=center,
        error_budget=_relative_budget(e, ball, table, ps_ball),
        flags=tuple(flags),
    )


def symmetry_defect_cells(e: GridSet) -> np.ndarray:
    """Cells that break reflection symmetry across the set's own midplanes.

    Each axis is tested against the midplane of the occupied bounding box,
    which lands on a cell-center line for odd extents and on a grid line
    for even ones: flipping the trimmed occupancy along the axis mirrors it
    there.
    """
    if e.is_empty:
        return np.zeros((0, e.spec.dim), dtype=np.int64)
    occ = e.trimmed().occupancy
    defect = np.zeros_like(occ)
    for axis in range(e.spec.dim):
        defect |= occ ^ np.flip(occ, axis=axis)
    return np.argwhere(defect) + [lo for lo, _ in e.bounding_cells()]


def _bbox_midpoint(e: GridSet) -> np.ndarray:
    bc = e.bounding_cells()
    return np.array(
        [
            e.spec.origin[k] + (bc[k][0] + bc[k][1] + 1) * 0.5 * e.spec.h
            for k in range(e.spec.dim)
        ]
    )


def centered_sandwich_check(e: GridSet) -> tuple[float, float]:
    """Asymmetry against the centered symmetric difference ratio.

    For a set symmetric across its own midplanes, the symmetric difference
    with the round window pinned at the symmetry center, divided by the
    window measure, must trap the asymmetry between itself and a third of
    itself: A <= ratio <= 3 A + tol.  Returns ``(A, ratio)``.

    Both sides count overlap with the same continuum window on cell
    centers, and the window measure equals the set measure by the choice
    of radius, so the lower bound is structural: the ratio evaluates the
    asymmetry objective at one particular center.  ``tol`` is the measure
    of one boundary layer of cells relative to the set's, the lattice
    analogue of an arbitrarily small perturbation.
    """
    if e.is_empty:
        raise EmptySetError("sandwich check needs a nonempty set")
    defects = symmetry_defect_cells(e)
    boundary = boundary_cell_count(e)
    allowed = max(boundary, 2 * e.spec.dim)
    if len(defects) > allowed:
        shown = [tuple(int(v) for v in row) for row in defects[:20]]
        raise SymmetryDefectError(
            f"{len(defects)} cells break center symmetry "
            f"(allowed {allowed}); first defects: {shown}",
            defect_cells=shown,
        )
    tol = boundary * e.spec.h**e.spec.dim / e.measure
    asym, _ = fraenkel_asymmetry(e)
    r = equivalent_radius(e)
    pts = _occupied_centers(e)
    at_center = _overlap_count(pts, _bbox_midpoint(e), r)
    ratio = 2.0 * (e.cell_count - at_center) / e.cell_count
    if not (asym <= ratio + 1e-12 and ratio <= 3.0 * asym + tol):
        raise SymmetryDefectError(
            f"sandwich violated: A={asym:.6g}, ratio={ratio:.6g}, tol={tol:.6g}"
        )
    return asym, ratio


@dataclass(frozen=True)
class SymmetrizeCandidate:
    """One reflected half-sum considered during symmetrization."""

    label: str
    perimeter: float
    deficit: float
    asymmetry: float
    deficit_bound_ok: bool
    selected: bool


@dataclass(frozen=True)
class SymmetrizeStep:
    """Everything measured while symmetrizing along one axis."""

    axis: int
    plane: float
    reflection_slack: float
    deficit_before: float
    candidates: tuple[SymmetrizeCandidate, ...]


@dataclass(frozen=True)
class SymmetrizeAudit:
    """Per-axis candidate measurements plus overall flags."""

    steps: tuple[SymmetrizeStep, ...]
    initial_deficit: float
    final_deficit: float
    bound_violated: bool


def _normalized(e: GridSet) -> GridSet:
    """Fresh domain: bounding box plus _PAD cells, centered at zero."""
    t = pad_domain(e, _PAD)
    spec = GridSpec(
        t.spec.dim,
        t.spec.cells,
        t.spec.h,
        tuple(-0.5 * n * t.spec.h for n in t.spec.cells),
    )
    return GridSet(spec, t.occupancy)


def n_symmetrize(
    e: GridSet,
    table: InteractionTable,
) -> tuple[GridSet, SymmetrizeAudit]:
    """Reflect the set axis by axis into a nearly symmetric competitor.

    Along each axis the set is split by the near-median grid line and both
    reflected half-sums are measured.  The start and every candidate are
    moved to a fresh centered domain and measured by ``s_deficit``, and
    the audit is read off those reports.  Among the candidates whose
    deficit stays below twice the current deficit plus the current
    ``error_budget``, the one with the larger asymmetry wins; if neither
    qualifies the one with the smaller deficit is kept and the audit is
    flagged, a sign that the discretization is too coarse for the halving
    bound.  Ties go to the upper half ``+``.

    Each step also checks that the mean candidate perimeter does not exceed
    the current perimeter, a structural reflection inequality on grids with
    the split plane on a lattice line.
    """
    table.check_grid(e.spec)
    if e.is_empty:
        raise EmptySetError("cannot symmetrize an empty set")

    def measured(f: GridSet) -> tuple[GridSet, DeficitReport]:
        f = _normalized(f)
        return f, s_deficit(f, table)

    cur, rep = measured(e)
    steps = []
    violated = False
    for axis in range(e.spec.dim):
        plane, f_plus, f_minus = bisect_halves(cur, axis)
        sets, reports = zip(measured(f_plus), measured(f_minus))
        slack = rep.perimeter - 0.5 * (reports[0].perimeter + reports[1].perimeter)
        if slack < -_REFLECTION_RTOL * rep.perimeter:
            raise SymmetryDefectError(
                f"reflection inequality violated on axis {axis}: "
                f"slack {slack:.3e} at perimeter {rep.perimeter:.6g}"
            )
        gate = 2.0 * rep.deficit + rep.error_budget
        ok = [r.deficit <= gate for r in reports]
        violated |= not any(ok)
        # a candidate under the gate first, then the larger asymmetry (with
        # none under it, the smaller deficit), then "+", which is index 0
        pick = max((0, 1), key=lambda i: (
            ok[i], reports[i].asymmetry if ok[i] else -reports[i].deficit, -i))
        candidates = tuple(
            SymmetrizeCandidate(label, r.perimeter, r.deficit, r.asymmetry,
                                ok[i], i == pick)
            for i, (label, r) in enumerate(zip("+-", reports))
        )
        steps.append(SymmetrizeStep(axis, plane, slack, rep.deficit, candidates))
        cur, rep = sets[pick], reports[pick]
    return cur, SymmetrizeAudit(
        steps=tuple(steps),
        initial_deficit=steps[0].deficit_before,
        final_deficit=rep.deficit,
        bound_violated=violated,
    )
