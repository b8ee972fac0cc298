import math

import numpy as np
import pytest

from fracperim import (
    DomainTooSmallError,
    EmptySetError,
    GridMismatchError,
    GridSet,
    GridSpec,
    bisect_halves,
    extension_domain,
    pad_domain,
    unit_ball_volume,
)
from fracperim.grids import _fitted, _mirrored
from oracles import mirror_oracle, same_region, translate_cells


def mirror(e, axis, q):
    # the mirror image bisect_halves builds, across the plane q half-cells
    # from the origin, on the grid grown just to hold it
    return _fitted(e.spec, _mirrored(e.cells(), axis, q))


def interval_set(cells, n=8, h=0.5, origin=0.0):
    spec = GridSpec(1, (n,), h, (origin,))
    return GridSet.from_cells(spec, [(c,) for c in cells])


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, (4, 4, 4), 1.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        GridSpec(1, (4,), -1.0, (0.0,))
    with pytest.raises(ValueError):
        GridSpec(2, (4,), 1.0, (0.0,))


def test_centers_and_measure():
    spec = GridSpec(1, (4,), 0.5, (0.0,))
    assert np.allclose(spec.axis_centers(0), [0.25, 0.75, 1.25, 1.75])
    e = GridSet.from_cells(spec, [(0,), (1,), (2,), (3,)])
    # cells covering (0, 2) at h = 1/2
    assert e.measure == pytest.approx(2.0, abs=0)
    assert e.cell_count == 4


def test_center_cell_convention():
    # odd: true middle; even: first cell past the midline
    assert GridSpec(1, (5,), 1.0, (0.0,)).center_cell() == (2,)
    assert GridSpec(1, (4,), 1.0, (0.0,)).center_cell() == (2,)
    assert GridSpec(2, (5, 4), 1.0, (0.0, 0.0)).center_cell() == (2, 2)


def test_occupancy_is_frozen():
    spec = GridSpec(1, (4,), 1.0, (0.0,))
    e = GridSet.from_cells(spec, [(1,)])
    with pytest.raises(ValueError):
        e.occupancy[0] = True


def test_from_cells_rejects_cells_off_the_grid():
    line = GridSpec(1, (4,), 1.0, (0.0,))
    with pytest.raises(DomainTooSmallError, match=r"\(-1,\)"):
        GridSet.from_cells(line, [(-1,)])  # would wrap to the last cell
    with pytest.raises(DomainTooSmallError, match=r"\(4,\)"):
        GridSet.from_cells(line, [(4,)])
    square = GridSpec(2, (3, 3), 1.0, (0.0, 0.0))
    with pytest.raises(GridMismatchError, match=r"\(1,\)"):
        GridSet.from_cells(square, [(1,)])  # would fill a whole row
    assert GridSet.from_cells(square, [(2, 0)]).cells().tolist() == [[2, 0]]


def test_shape_mismatch_raises():
    spec = GridSpec(2, (4, 5), 1.0, (0.0, 0.0))
    with pytest.raises(GridMismatchError):
        GridSet(spec, np.zeros((5, 4), dtype=bool))


def test_reflect_within_domain():
    # cells {0,1} about the plane through lattice position 2 -> {2,3}
    e = interval_set([0, 1], n=4, h=1.0)
    r = mirror(e, 0, 4)
    assert sorted(c[0] for c in r.cells()) == [2, 3]
    assert r.cell_count == e.cell_count
    assert r.measure == e.measure


def test_reflect_expands_domain():
    e = interval_set([0, 1], n=4, h=1.0)
    r = mirror(e, 0, 0)
    # image cells are {-2,-1} in the old frame; the domain grew to hold them
    assert r.cell_count == 2
    assert r.spec.origin == (-2.0,)
    # the plane sits 4 half-cells from the grown grid's origin
    assert same_region(mirror(r, 0, 4), e)


def test_reflect_is_involution_and_preserves_count():
    spec = GridSpec(2, (6, 5), 0.5, (0.0, 0.0))
    rng = np.random.default_rng(7)
    occ = rng.random((6, 5)) < 0.4
    e = GridSet(spec, occ)
    # the plane y = 1.25 sits 5 half-cells from the origin
    r = mirror(e, 1, 5)
    assert r.cell_count == e.cell_count
    assert same_region(mirror(r, 1, 5), e)


def test_bisect_even_split():
    # four occupied cells: the snap plane splits 2|2 and both halves mirror to 4
    e = interval_set([0, 1, 2, 3], n=4, h=1.0)
    plane, fplus, fminus = bisect_halves(e, 0)
    assert plane == pytest.approx(2.0)
    assert fplus.cell_count == 4
    assert fminus.cell_count == 4


def test_bisect_with_gap():
    # {0,1,2,5} on 6 cells: halves of 2 cells each, mirrored to 4-cell sets
    e = interval_set([0, 1, 2, 5], n=6, h=1.0)
    plane, fplus, fminus = bisect_halves(e, 0)
    assert fplus.cell_count == 4
    assert fminus.cell_count == 4
    assert fplus.cell_count + fminus.cell_count == 2 * e.cell_count


def test_translate_exact():
    spec = GridSpec(2, (4, 4), 0.25, (1.0, -1.0))
    e = GridSet.from_cells(spec, [(1, 2)])
    t = translate_cells(e, (2, -1))
    assert same_region(translate_cells(t, (-2, 1)), e)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == math.pi


def test_empty_set_guards():
    spec = GridSpec(1, (4,), 1.0, (0.0,))
    e = GridSet.empty(spec)
    assert e.is_empty
    with pytest.raises(EmptySetError):
        e.bounding_cells()


def _random_sets(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(1, 3))
        cells = tuple(int(n) for n in rng.integers(1, 10, size=dim))
        h = float(rng.choice([1.0, 0.5, 0.1, 1 / 3]))
        origin = tuple(float(x) for x in rng.uniform(-5.0, 5.0, size=dim))
        occ = rng.random(cells) < rng.uniform(0.2, 0.8)
        if occ.any():
            yield GridSet(GridSpec(dim, cells, h, origin), occ)


def _check_grown(result, e, axis, span):
    # the input grid, grown along ``axis`` just enough to hold the image
    lo, hi = result.spec.extent()[axis]
    assert lo == pytest.approx(span[0], abs=1e-9 * e.spec.h)
    assert hi == pytest.approx(span[1], abs=1e-9 * e.spec.h)
    for k in range(e.spec.dim):
        if k != axis:
            assert result.spec.cells[k] == e.spec.cells[k]
            assert result.spec.origin[k] == e.spec.origin[k]


def test_reflect_and_bisect_match_coordinate_mirror_oracle():
    for e in _random_sets(2024, 60):
        for axis in range(e.spec.dim):
            n = e.spec.cells[axis]
            for q in range(-2, 2 * n + 3):  # every half-lattice plane near the grid
                plane = e.spec.origin[axis] + 0.5 * q * e.spec.h
                region, span = mirror_oracle(e, axis, plane)
                r = mirror(e, axis, q)
                assert same_region(r, region)
                _check_grown(r, e, axis, span)
            plane, f_plus, f_minus = bisect_halves(e, axis)
            for half, f in (("upper", f_plus), ("lower", f_minus)):
                region, span = mirror_oracle(e, axis, plane, half)
                assert same_region(f, region)
                _check_grown(f, e, axis, span)


def test_bisect_far_from_the_origin():
    # a doubled plane index turned into a float plane and rounded back
    # fails out here: 1.4e8 / 0.003 cells is not a half-integer to 1e-6
    h = 0.003
    rng = np.random.default_rng(9)
    for _ in range(20):
        occ = rng.random((9, 11)) < 0.5
        if not occ.any():
            continue
        far = GridSet(GridSpec(2, (9, 11), h, (1.4e8, -1.4e8)), occ)
        near = GridSet(GridSpec(2, (9, 11), h, (0.0, 0.0)), occ)
        for axis in (0, 1):
            _, *far_halves = bisect_halves(far, axis)
            _, *near_halves = bisect_halves(near, axis)
            for a, b in zip(far_halves, near_halves):
                assert np.array_equal(a.trimmed().occupancy, b.trimmed().occupancy)


def test_reflect_across_bisect_plane_far_from_the_origin():
    # 1.4e8 carries about 3e-8 of rounding, some 1e-5 of a cell at h = 0.003:
    # the plane bisect_halves returns must still name its lattice line
    def half_cells(e, axis, plane):
        t = (plane - e.spec.origin[axis]) / (0.5 * h)
        assert abs(t - round(t)) < 1e-3
        return round(t)

    h = 0.003
    rng = np.random.default_rng(10)
    for _ in range(50):
        occ = rng.random((9, 11)) < 0.5
        if not occ.any():
            continue
        far = GridSet(GridSpec(2, (9, 11), h, (1.4e8, -1.4e8)), occ)
        near = GridSet(GridSpec(2, (9, 11), h, (0.0, 0.0)), occ)
        for axis in (0, 1):
            q = half_cells(far, axis, bisect_halves(far, axis)[0])
            assert q == half_cells(near, axis, bisect_halves(near, axis)[0])
            a = mirror(far, axis, q).trimmed().occupancy
            b = mirror(near, axis, q).trimmed().occupancy
            assert np.array_equal(a, b)


def test_every_re_embedding_keeps_cells_in_place():
    # one origin rule: a cell offset k from the grid lands at origin + k*h
    spec = GridSpec(2, (9, 7), 0.1, (0.3, -1.7))
    e = GridSet.from_cells(spec, [(2, 3), (5, 4), (6, 3)])
    assert e.trimmed().spec == spec.window((2, 3), (5, 2))
    assert pad_domain(e, 3).spec == spec.window((-1, 0), (11, 8))
    assert translate_cells(e, (4, -2)).spec == spec.window((4, -2), spec.cells)
    grid, embedded = extension_domain(e)
    pad = (grid.base.cells[0] - 5) // 2  # the bounding box spans 5 x 2 cells
    assert grid.base == embedded.spec == pad_domain(e, pad).spec
    for f in (e.trimmed(), pad_domain(e, 3), embedded):
        assert same_region(f, e)
