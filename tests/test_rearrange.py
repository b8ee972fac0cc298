"""Tests for grid functions, rearrangement, and Dirichlet energy."""

import math

import numpy as np
import pytest

from fracperim import (
    FormatError,
    GridFunction,
    GridMismatchError,
    GridSet,
    GridSpec,
    MissingHaloError,
    dirichlet_energy,
    load_gridfunction,
    polya_szego_report,
    save_gridfunction,
    symmetric_rearrangement,
    symmetry_defect,
)


def _gf(values, h=1.0, origin=None):
    arr = np.asarray(values, dtype=float)
    if origin is None:
        origin = (0.0,) * arr.ndim
    spec = GridSpec(arr.ndim, arr.shape, h, tuple(origin))
    return GridFunction(spec, arr)


class TestGridFunction:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _gf([0.0, -1.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            _gf([0.0, math.nan, 0.0])

    def test_rejects_shape_mismatch(self):
        spec = GridSpec(1, (4,), 1.0, (0.0,))
        with pytest.raises(GridMismatchError):
            GridFunction(spec, np.zeros(5))

    def test_values_read_only(self):
        g = _gf([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            g.values[0] = 7.0

    def test_support_and_l1(self):
        g = _gf([0.0, 3.0, 2.0, 0.0, 1.0], h=0.5)
        assert g.support_count == 3
        assert g.support_measure == pytest.approx(3 * 0.5)

    def test_equality_and_hash(self):
        a = _gf([0.0, 1.0, 2.0])
        b = _gf([0.0, 1.0, 2.0])
        c = _gf([0.0, 1.0, 3.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestSymmetricRearrangement:
    def test_1d_worked_example(self):
        # center cell of 4 cells is index 2; largest value lands there,
        # next-largest at the nearer neighbor (index 1 beats 3 on tie by lex order).
        g = _gf([0.0, 5.0, 0.0, 1.0])
        gs = symmetric_rearrangement(g)
        assert gs.values.tolist() == [0.0, 1.0, 5.0, 0.0]

    def test_equimeasurable_exact(self):
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 6, size=(9, 11)).astype(float)
        g = _gf(vals, h=0.5)
        gs = symmetric_rearrangement(g)
        assert sorted(g.values.ravel()) == sorted(gs.values.ravel())

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        g = _gf(rng.random((7, 7)))
        once = symmetric_rearrangement(g)
        twice = symmetric_rearrangement(once)
        assert np.array_equal(once.values, twice.values)

    def test_indicator_maps_to_nearest_center_cells(self):
        # indicator of k cells becomes indicator of the k cells closest to center
        spec = GridSpec(2, (9, 9), 1.0, (0.0, 0.0))
        vals = np.zeros((9, 9))
        vals[0, 0] = vals[0, 1] = vals[8, 8] = vals[4, 0] = vals[2, 7] = 1.0
        g = GridFunction(spec, vals)
        gs = symmetric_rearrangement(g)
        assert gs.values.sum() == 5.0
        # support must be {center, its 4 nearest neighbors}
        support = {tuple(ix) for ix in np.argwhere(gs.values > 0)}
        assert support == {(4, 4), (3, 4), (4, 3), (4, 5), (5, 4)}

    def test_radially_decreasing(self):
        rng = np.random.default_rng(11)
        g = _gf(rng.random(15))
        gs = symmetric_rearrangement(g)
        center = 7
        d2 = (np.arange(15) - center) ** 2
        order = np.argsort(d2, kind="stable")
        seq = gs.values[order]
        assert np.all(np.diff(seq) <= 1e-15)


class TestDirichletEnergy:
    def test_tent_1d(self):
        # forward differences of {0,1,2,1,0} are {1,1,-1,-1,0}; sum of squares = 4
        g = _gf([0.0, 1.0, 2.0, 1.0, 0.0])
        assert dirichlet_energy(g) == pytest.approx(4.0)

    def test_h_scaling_1d(self):
        # energy = sum |du|^2 h^{N-2}; halving h with same nodal values doubles it in 1D
        vals = [0.0, 1.0, 3.0, 1.0, 0.0]
        e1 = dirichlet_energy(_gf(vals, h=1.0))
        e2 = dirichlet_energy(_gf(vals, h=0.5))
        assert e2 == pytest.approx(2.0 * e1)

    def test_quadratic_scaling(self):
        vals = np.array([0.0, 2.0, 5.0, 1.0, 0.0])
        e1 = dirichlet_energy(_gf(vals))
        e3 = dirichlet_energy(_gf(3.0 * vals))
        assert e3 == pytest.approx(9.0 * e1)

    def test_2d_h_invariant(self):
        # in 2D the h^{N-2} factor is 1: nodal energies agree across h
        vals = np.zeros((6, 6))
        vals[2:4, 2:4] = 1.0
        assert dirichlet_energy(_gf(vals, h=1.0)) == pytest.approx(
            dirichlet_energy(_gf(vals, h=0.125))
        )

    def test_requires_zero_halo(self):
        g = _gf([1.0, 2.0, 0.0])
        with pytest.raises(MissingHaloError):
            dirichlet_energy(g)
        vals = np.zeros((4, 4))
        vals[3, 2] = 1.0
        with pytest.raises(MissingHaloError):
            dirichlet_energy(_gf(vals))


class TestPolyaSzego:
    def test_energy_drops_for_scattered_bumps(self):
        spec = GridSpec(2, (17, 17), 0.25, (0.0, 0.0))
        rng = np.random.default_rng(5)
        vals = np.zeros((17, 17))
        vals[2:15, 2:15] = rng.random((13, 13))
        g = GridFunction(spec, vals)
        rep = polya_szego_report(g)
        assert rep.energy_gsharp <= rep.energy_g + 1e-12
        assert rep.gap == pytest.approx(rep.energy_g - rep.energy_gsharp)
        assert rep.support_measure == pytest.approx(g.support_measure)

    def test_symmetric_input_zero_distance(self):
        g = _gf([0.0, 1.0, 5.0, 1.0, 0.0])
        rep = polya_szego_report(g)
        # already radially decreasing about center cell 2: rearrangement fixes it
        assert rep.l1_distance == 0.0
        assert rep.gap == pytest.approx(0.0, abs=1e-15)

    def test_defect_measured(self):
        g = _gf([0.0, 4.0, 1.0, 0.0, 0.0])
        assert symmetry_defect(g) > 0.0
        gs = symmetric_rearrangement(g)
        assert symmetry_defect(gs) <= 0.2 + 1e-12


class TestGridFunctionIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        g = _gf(rng.random((5, 8)), h=0.125, origin=(-0.5, 0.25))
        path = tmp_path / "f.fracfun"
        save_gridfunction(g, path)
        back = load_gridfunction(path)
        assert back.spec == g.spec
        assert np.array_equal(back.values, g.values)

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.fracfun"
        p.write_text("NOTFUN v9\n")
        with pytest.raises(FormatError):
            load_gridfunction(p)

    def test_rejects_truncated_values(self, tmp_path):
        g = _gf([0.0, 1.0, 2.0])
        p = tmp_path / "f.fracfun"
        save_gridfunction(g, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError):
            load_gridfunction(p)


class TestRearrangeOnGridSets:
    def test_indicator_energy_vs_ball(self):
        # rearranged indicator has no larger Dirichlet energy (discrete analogue)
        spec = GridSpec(2, (13, 13), 0.5, (0.0, 0.0))
        cells = {(1, 1), (1, 2), (2, 1), (9, 10), (10, 10), (10, 9), (5, 11)}
        e = GridSet.from_cells(spec, cells)
        g = GridFunction(spec, e.occupancy.astype(float))
        gs = symmetric_rearrangement(g)
        assert dirichlet_energy(gs) <= dirichlet_energy(g) + 1e-12


def _stretched_bump(h, n_cells, ratio, r=0.45, amp=1.0):
    a = r * math.sqrt(ratio)
    b = r / math.sqrt(ratio)
    spec = GridSpec(2, (n_cells, n_cells), h, (0.0, 0.0))
    xs = spec.axis_centers(0)
    xx, yy = np.meshgrid(xs, spec.axis_centers(1), indexing="ij")
    c = 0.5 * n_cells * h
    rho = np.sqrt((xx - c) ** 2 / a**2 + (yy - c) ** 2 / b**2)
    vals = amp * np.where(rho < 1.0, np.cos(0.5 * np.pi * rho) ** 2, 0.0)
    return GridFunction(spec, vals)


def test_energy_gap_converges_to_stretched_bump_closed_form():
    # distance-rank rearrangement carries a first order lattice bias; the
    # measured gap must close on the continuum value as h shrinks
    from oracles import elliptic_bump_gap

    want = elliptic_bump_gap(1.5)
    errs = []
    for h, n in ((1 / 16, 33), (1 / 32, 65), (1 / 64, 129)):
        rep = polya_szego_report(_stretched_bump(h, n, 1.5))
        errs.append(abs(rep.gap - want))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]
    assert errs[2] < 0.35 * errs[0]
    assert errs[2] < 0.1


def test_exactly_radial_bump_is_its_own_rearrangement():
    g = _stretched_bump(1 / 32, 65, 1.0)
    gs = symmetric_rearrangement(g)
    assert polya_szego_report(g).gap == 0.0
    assert np.array_equal(np.sort(g.values.ravel()), np.sort(gs.values.ravel()))
