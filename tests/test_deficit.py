"""Tests for deficit, asymmetry, reference balls, and symmetrization."""

import math

import numpy as np
import pytest

import fracperim.deficit
from fracperim import (
    AxisBox,
    Ball,
    EmptySetError,
    GridFunction,
    GridMismatchError,
    GridSet,
    GridSpec,
    Interval,
    SymmetryDefectError,
    auto_spec,
    generate_family,
    rasterize,
    symmetric_rearrangement,
)
from fracperim.deficit import (
    DEFICIT_CSV_HEADER,
    DeficitReport,
    boundary_cell_count,
    centered_sandwich_check,
    equivalent_radius,
    fraenkel_asymmetry,
    n_symmetrize,
    reference_ball,
    s_deficit,
    symmetry_defect_cells,
)
from fracperim.kernels import KernelParams, build_table
from fracperim.perimeter import fractional_perimeter
from fracperim.shapes import Ellipse, UnionShape
from oracles import (
    at_pin_versions,
    exhaustive_asymmetry_1d,
    full_lattice_scan,
    interval_union_perimeter,
)

# closed form for E = (0,1) u (2,3) at s = 1/2, derived by hand:
# each interval gives 8, the interaction removes 2*(8 sqrt2 - 4 - 4 sqrt3)
TWO_INTERVALS_PS = 24.0 + 8.0 * math.sqrt(3.0) - 16.0 * math.sqrt(2.0)
# the matched ball is one interval of length 2: 8 sqrt2
TWO_INTERVALS_DS = TWO_INTERVALS_PS / (8.0 * math.sqrt(2.0)) - 1.0


def _interval_union_set(intervals, h, pad=8):
    lo = min(a for a, _ in intervals)
    hi = max(b for _, b in intervals)
    n = round((hi - lo) / h) + 2 * pad
    spec = GridSpec(1, (n,), h, (lo - pad * h,))
    occ = np.zeros(n, dtype=bool)
    centers = spec.axis_centers(0)
    for a, b in intervals:
        occ |= (centers > a) & (centers < b)
    return GridSet(spec, occ)


def test_closed_form_two_intervals_matches_hand_derivation():
    # the oracle module must agree with the independent hand derivation
    assert interval_union_perimeter([(0, 1), (2, 3)], 0.5) == pytest.approx(
        TWO_INTERVALS_PS, rel=1e-14
    )
    assert interval_union_perimeter([(0, 2)], 0.5) == pytest.approx(
        8.0 * math.sqrt(2.0), rel=1e-14
    )


class TestEquivalentRadius:
    def test_1d(self):
        e = _interval_union_set([(0, 1), (2, 3)], 1 / 64)
        assert equivalent_radius(e) == pytest.approx(1.0)

    def test_2d(self):
        ball = Ball((0.0, 0.0), 1.0)
        e = rasterize(ball, auto_spec(ball, 1 / 64))
        # raster measure tracks pi within a boundary layer
        assert equivalent_radius(e) == pytest.approx(1.0, abs=2e-2)

    def test_empty_rejected(self):
        spec = GridSpec(1, (8,), 1.0, (0.0,))
        with pytest.raises(EmptySetError):
            equivalent_radius(GridSet.empty(spec))


class TestReferenceBall:
    def test_centered_raster_ball_is_fixed_point(self):
        ball = Ball((0.0, 0.0), 1.0)
        e = rasterize(ball, auto_spec(ball, 1 / 32))
        ref = reference_ball(e)
        assert np.array_equal(ref.occupancy, e.occupancy)

    def test_count_matched(self):
        rng = np.random.default_rng(2)
        spec = GridSpec(2, (21, 21), 0.25, (0.0, 0.0))
        occ = rng.random((21, 21)) < 0.3
        occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = False
        e = GridSet(spec, occ)
        ref = reference_ball(e)
        assert ref.cell_count == e.cell_count
        # nested in distance: every selected cell is at least as close to
        # the center as every rejected one, up to ties
        cc = spec.center_cell()
        idx = np.indices(spec.cells)
        d2 = sum((idx[k] - cc[k]) ** 2 for k in range(2))
        assert d2[ref.occupancy].max() <= d2[~ref.occupancy].min() + 1e-12

    @pytest.mark.parametrize("cells", [(7,), (8,), (9, 7), (8, 6), (7, 10)])
    def test_is_the_rearranged_indicator(self, cells):
        rng = np.random.default_rng(len(cells) * 100 + cells[-1])
        spec = GridSpec(len(cells), cells, 0.5, (0.0,) * len(cells))
        occ = rng.random(cells) < 0.4
        occ.flat[0] = True
        e = GridSet(spec, occ)
        ind = GridFunction(spec, occ.astype(np.float64))
        want = symmetric_rearrangement(ind).values > 0.5
        assert np.array_equal(reference_ball(e).occupancy, want)


def test_boundary_cell_count_square():
    spec = GridSpec(2, (12, 12), 1.0, (0.0, 0.0))
    occ = np.zeros((12, 12), dtype=bool)
    occ[3:8, 3:8] = True  # 5x5 block: boundary is all but the inner 3x3
    assert boundary_cell_count(GridSet(spec, occ)) == 25 - 9


def _scan_window_starts(monkeypatch):
    """A list that gets the start of every window the asymmetry scan convolves."""
    starts = []
    convolve = fracperim.deficit.convolve_window

    def spy(a, b, start, stop):
        starts.append(list(start))
        return convolve(a, b, start, stop)

    monkeypatch.setattr(fracperim.deficit, "convolve_window", spy)
    return starts


class TestFraenkelAsymmetry:
    def test_two_intervals_value_one(self):
        e = _interval_union_set([(0, 1), (2, 3)], 1 / 32)
        a, center = fraenkel_asymmetry(e)
        assert a == 1.0
        # returned center must realize the best overlap
        r = equivalent_radius(e)
        cs = e.spec.axis_centers(0)[e.occupancy]
        count = int(np.count_nonzero(np.abs(cs - center[0]) < r))
        assert count == e.cell_count // 2

    def test_ball_small(self):
        # the continuum-radius window can miss a boundary layer of raster
        # cells, so the value is bounded by that layer rather than zero
        ball = Ball((0.0, 0.0), 1.0)
        e = rasterize(ball, auto_spec(ball, 1 / 32))
        a, center = fraenkel_asymmetry(e)
        layer = boundary_cell_count(e) * e.spec.h**2 / e.measure
        assert 0.0 <= a <= layer
        assert center[0] == pytest.approx(0.0, abs=e.spec.h)
        assert center[1] == pytest.approx(0.0, abs=e.spec.h)

    def test_exact_interval_zero(self):
        # on the line an exactly rasterized interval has zero asymmetry:
        # the window radius is half the measure, so the centered window
        # strictly contains every cell center
        e = _interval_union_set([(0, 1.5)], 2.0**-6)
        a, _ = fraenkel_asymmetry(e)
        assert a == 0.0

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(9)
        spec = GridSpec(2, (30, 30), 0.5, (0.0, 0.0))
        occ = np.zeros((30, 30), dtype=bool)
        occ[5:12, 4:15] = rng.random((7, 11)) < 0.7
        e = GridSet(spec, occ)
        moved = GridSet(spec, np.roll(occ, (6, 5), axis=(0, 1)))
        a1, c1 = fraenkel_asymmetry(e)
        a2, c2 = fraenkel_asymmetry(moved)
        assert a1 == a2
        assert c2[0] - c1[0] == pytest.approx(6 * 0.5, abs=1e-9)
        assert c2[1] - c1[1] == pytest.approx(5 * 0.5, abs=1e-9)

    def test_matches_exhaustive_scan_1d(self):
        rng = np.random.default_rng(21)
        for trial in range(6):
            n = 80
            occ = rng.random(n) < 0.4
            occ[:2] = occ[-2:] = False
            if not occ.any():
                continue
            e = GridSet(GridSpec(1, (n,), 0.125, (-3.0,)), occ)
            a, _ = fraenkel_asymmetry(e)
            a_scan = exhaustive_asymmetry_1d(e)
            assert abs(a - a_scan) <= 1e-6

    def test_two_far_balls_asymmetry_near_one(self):
        shape = UnionShape(
            (Ball((-4.0, 0.0), math.sqrt(0.5)), Ball((4.0, 0.0), math.sqrt(0.5)))
        )
        e = rasterize(shape, auto_spec(shape, 1 / 16))
        a, _ = fraenkel_asymmetry(e)
        assert a == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_scan_of_a_bar_widens_to_the_dilated_box(self, transposed, monkeypatch):
        # cells (4, 10..49) of a 9 x 60 grid: a center one row off the bar
        # reaches the same 7 cells as one on it, so the first maximum in C
        # order lies outside the bar's box, and only the widened window
        # holds it
        occ = np.zeros((9, 60), dtype=bool)
        occ[4, 10:50] = True
        if transposed:
            occ = occ.T
        e = GridSet(GridSpec(2, occ.shape, 0.05, (0.0, 0.0)), occ)
        r = equivalent_radius(e)
        starts = _scan_window_starts(monkeypatch)
        count, center = fracperim.deficit._lattice_scan(e, r)
        want_count, want_center = full_lattice_scan(e, r)
        assert count == want_count == 7
        assert center.tolist() == want_center.tolist()
        m = math.ceil(r / e.spec.h) + 1
        assert starts == [[m, m], [0, 0]]
        # the full scan's first maximum: row 3 over the bar's row 4
        cell = np.round(want_center / e.spec.h - 0.5).astype(int).tolist()
        assert cell == ([13, 3] if transposed else [3, 13])

    def test_scan_of_a_ball_reads_its_box_only(self, monkeypatch):
        # the best count sits inside the box's rim: no second convolution
        ball = Ball((0.1, -0.2), 1.0)
        e = rasterize(ball, auto_spec(ball, 1 / 32))
        r = equivalent_radius(e)
        starts = _scan_window_starts(monkeypatch)
        count, center = fracperim.deficit._lattice_scan(e, r)
        want_count, want_center = full_lattice_scan(e, r)
        assert count == want_count
        assert center.tolist() == want_center.tolist()
        m = math.ceil(r / e.spec.h) + 1
        assert starts == [[m, m]]

    def test_scan_matches_the_full_window_scan(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            n0, n1 = rng.integers(1, 14, size=2)
            occ = np.zeros((n0 + 10, n1 + 12), dtype=bool)
            occ[5:5 + n0, 3:3 + n1] = rng.random((n0, n1)) < rng.uniform(0.2, 1.0)
            if not occ.any():
                continue
            e = GridSet(GridSpec(2, occ.shape, 0.25, (-1.0, 0.5)), occ)
            r = equivalent_radius(e)
            count, center = fracperim.deficit._lattice_scan(e, r)
            want_count, want_center = full_lattice_scan(e, r)
            assert count == want_count
            assert center.tolist() == want_center.tolist()

    def test_range(self):
        rng = np.random.default_rng(1)
        for trial in range(4):
            occ = rng.random((25, 25)) < 0.35
            occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = False
            e = GridSet(GridSpec(2, (25, 25), 0.3, (0.0, 0.0)), occ)
            a, _ = fraenkel_asymmetry(e)
            assert 0.0 <= a <= 2.0


def test_foreign_table_raises_grid_mismatch():
    shape = Ellipse((0.0, 0.0), 1.25, 0.8)
    e = rasterize(shape, auto_spec(shape, 1 / 8))
    tab = build_table(KernelParams(2, 0.5), h=1 / 8)
    for foreign in (tab.with_h(1 / 16), build_table(KernelParams(1, 0.5), h=1 / 8)):
        with pytest.raises(GridMismatchError):
            s_deficit(e, foreign)
        with pytest.raises(GridMismatchError):
            n_symmetrize(e, foreign)


class TestSDeficit:
    def test_two_intervals_against_closed_form(self):
        h = 2.0**-7
        e = _interval_union_set([(0, 1), (2, 3)], h)
        table = build_table(KernelParams(1, 0.5), h=h)
        rep = s_deficit(e, table, set_id="pair")
        assert rep.perimeter == pytest.approx(TWO_INTERVALS_PS, rel=1e-9)
        assert rep.ball_perimeter == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-9)
        assert rep.deficit == pytest.approx(TWO_INTERVALS_DS, rel=1e-8)
        assert rep.asymmetry == 1.0
        assert rep.radius == pytest.approx(1.0)
        assert rep.flags == ()

    def test_centered_ball_deficit_exactly_zero(self):
        h = 1 / 32
        ball = Ball((0.0, 0.0), 1.0)
        e = rasterize(ball, auto_spec(ball, h))
        table = build_table(KernelParams(2, 0.5), h=h)
        rep = s_deficit(e, table)
        assert rep.deficit == 0.0
        assert rep.asymmetry <= boundary_cell_count(e) * h * h / e.measure
        assert rep.error_budget > 0.0

    def test_flags_a_reference_ball_cut_off_at_the_grid_rim(self):
        # 477 cells in a strip 3 cells high: auto_spec leaves 21 rows, and
        # the count-matched ball (about 25 cells across) runs past them
        h = 1 / 8
        strip = AxisBox((0.0, 0.0), (20.0, 0.5))
        e = rasterize(strip, auto_spec(strip, h))
        table = build_table(KernelParams(2, 0.5), h=h)
        ball = reference_ball(e)
        assert ball.cell_count == e.cell_count
        rows = ball.occupancy.any(axis=0)
        assert rows[0] and rows[-1]
        assert "ball-clipped" in s_deficit(e, table).flags
        # a round set leaves its ball room
        disk = Ball((0.0, 0.0), 1.0)
        e = rasterize(disk, auto_spec(disk, h))
        assert "ball-clipped" not in s_deficit(e, table).flags

    def test_deficit_positive_for_eccentric_ellipse(self):
        h = 1 / 24
        shape = Ellipse((0.0, 0.0), 1.2, 1.0 / 1.2)
        e = rasterize(shape, auto_spec(shape, h))
        table = build_table(KernelParams(2, 0.5), h=h)
        rep = s_deficit(e, table, set_id="ellipse")
        assert rep.deficit > 0.0
        assert rep.asymmetry > 0.0
        assert rep.deficit >= -rep.error_budget

    @pytest.mark.slow
    def test_ellipse_against_brute_force(self):
        from oracles import brute_perimeter_2d

        # a/b = 1.44 with |E| = pi, coarse grid; both the perimeter and the
        # deficit must sit within the midpoint oracle's tolerance
        h = 1 / 8
        a_axis = 1.2
        shape = Ellipse((0.0, 0.0), a_axis, 1.0 / a_axis)
        e = rasterize(shape, auto_spec(shape, h))
        table = build_table(KernelParams(2, 0.5), h=h)
        rep = s_deficit(e, table)
        brute_e = brute_perimeter_2d(e, 0.5)
        brute_ball = brute_perimeter_2d(reference_ball(e), 0.5)
        assert rep.perimeter == pytest.approx(brute_e, rel=0.01)
        brute_ds = (brute_e - brute_ball) / brute_ball
        assert rep.deficit == pytest.approx(brute_ds, abs=5e-3)
        # at this raster scale the tiny true deficit can drown in
        # boundary-layer noise, but never below the budget
        assert rep.deficit >= -rep.error_budget

    def test_csv_row_layout(self):
        h = 2.0**-5
        e = _interval_union_set([(0, 1), (2, 3)], h)
        table = build_table(KernelParams(1, 0.5), h=h)
        rep = s_deficit(e, table, set_id="pair")
        assert DEFICIT_CSV_HEADER.count(",") == 12
        row = rep.csv_row()
        parts = row.split(",")
        assert len(parts) == 13
        assert parts[0] == "pair"
        assert parts[1] == "1"
        assert float(parts[4]) == rep.perimeter
        assert parts[10] == ""  # no cy on the line
        # byte determinism
        assert s_deficit(e, table, set_id="pair").csv_row() == row


class TestSandwich:
    def test_ball_both_near_zero(self):
        ball = Ball((0.0, 0.0), 1.0)
        e = rasterize(ball, auto_spec(ball, 1 / 32))
        a, ratio = centered_sandwich_check(e)
        layer = boundary_cell_count(e) * e.spec.h**2 / e.measure
        assert 0.0 <= a <= ratio <= layer

    def test_square_annulus(self):
        spec = GridSpec(2, (33, 33), 0.125, (0.0, 0.0))
        occ = np.zeros((33, 33), dtype=bool)
        occ[6:27, 6:27] = True
        occ[12:21, 12:21] = False
        e = GridSet(spec, occ)
        a, ratio = centered_sandwich_check(e)
        assert a <= ratio <= 3.0 * a + boundary_cell_count(e) * 0.125**2 / e.measure

    def test_cross_shape(self):
        spec = GridSpec(2, (33, 33), 0.125, (0.0, 0.0))
        occ = np.zeros((33, 33), dtype=bool)
        occ[13:20, 4:29] = True
        occ[4:29, 13:20] = True
        e = GridSet(spec, occ)
        a, ratio = centered_sandwich_check(e)
        assert a <= ratio <= 3.0 * a + 0.05

    def test_asymmetric_input_rejected_with_cells(self):
        spec = GridSpec(2, (21, 21), 0.25, (0.0, 0.0))
        occ = np.zeros((21, 21), dtype=bool)
        occ[3:10, 3:16] = True
        occ[10:16, 3:7] = True  # L shape: no midplane symmetry
        e = GridSet(spec, occ)
        assert len(symmetry_defect_cells(e)) > 0
        with pytest.raises(SymmetryDefectError) as err:
            centered_sandwich_check(e)
        assert len(err.value.defect_cells) > 0


class TestNSymmetrize:
    def test_symmetric_input_unchanged(self):
        h = 1 / 16
        ball = Ball((0.0, 0.0), 1.0)
        e = rasterize(ball, auto_spec(ball, h))
        table = build_table(KernelParams(2, 0.5), h=h)
        f, audit = n_symmetrize(e, table)
        assert f.cell_count == e.cell_count
        assert not audit.bound_violated
        assert audit.final_deficit == pytest.approx(audit.initial_deficit, abs=1e-12)
        for step in audit.steps:
            for cand in step.candidates:
                assert cand.perimeter == pytest.approx(
                    audit.steps[0].candidates[0].perimeter, rel=1e-12
                )

    def test_1d_two_intervals(self):
        h = 2.0**-6
        e = _interval_union_set([(0, 0.8), (1.9, 3.1)], h)
        table = build_table(KernelParams(1, 0.5), h=h)
        rep = s_deficit(e, table)
        f, audit = n_symmetrize(e, table)
        assert len(symmetry_defect_cells(f)) <= boundary_cell_count(f)
        assert abs(f.cell_count - e.cell_count) <= 1
        assert audit.final_deficit <= 2.0 * rep.deficit + rep.error_budget
        assert not audit.bound_violated

    def test_2d_offset_ellipse(self):
        h = 1 / 16
        shape = Ellipse((0.37, -0.21), 1.25, 0.8)
        e = rasterize(shape, auto_spec(shape, h))
        table = build_table(KernelParams(2, 0.5), h=h)
        rep = s_deficit(e, table)
        f, audit = n_symmetrize(e, table)
        assert len(audit.steps) == 2
        for step in audit.steps:
            assert len(step.candidates) == 2
            assert step.reflection_slack >= -1e-9 * rep.perimeter
            assert sum(c.selected for c in step.candidates) == 1
        # measure preserved up to the worst line of cells per axis
        occ = e.occupancy
        line_allowance = int(occ.sum(axis=1).max() + occ.sum(axis=0).max())
        assert abs(f.cell_count - e.cell_count) <= line_allowance
        # symmetric up to one cell layer
        assert len(symmetry_defect_cells(f)) <= boundary_cell_count(f)
        # the quadrupling bound with room for lattice effects
        assert audit.final_deficit <= 4.0 * rep.deficit + 2.0 * rep.error_budget

    def test_reflection_inequality_all_candidates(self):
        # every bisection candidate obeys the mean-perimeter bound
        h = 1 / 16
        table = build_table(KernelParams(2, 0.5), h=h)
        rng = np.random.default_rng(17)
        for trial in range(3):
            occ = np.zeros((40, 40), dtype=bool)
            occ[8:30, 8:30] = rng.random((22, 22)) < 0.6
            e = GridSet(GridSpec(2, (40, 40), h, (0.0, 0.0)), occ)
            if e.is_empty:
                continue
            _, audit = n_symmetrize(e, table)
            for step in audit.steps:
                assert step.reflection_slack >= -1e-8

    @pytest.mark.parametrize("reports, pick, violated", [
        # (deficit, asymmetry) of "+" and "-"; the gate is 2 * 0.1 + 0.05
        (((0.2, 0.3), (0.2, 0.5)), "-", False),
        (((0.2, 0.5), (0.1, 0.5)), "+", False),
        (((0.3, 0.9), (0.25, 0.1)), "-", False),
        (((0.9, 0.1), (0.8, 0.9)), "-", True),
        (((0.8, 0.1), (0.8, 0.9)), "+", True),
    ])
    def test_pick_follows_the_gate_then_asymmetry_then_plus(
        self, monkeypatch, reports, pick, violated
    ):
        def report(deficit, asymmetry):
            return DeficitReport("set", 1, 0.5, 0.25, 1.0, 1.0, 1.0, deficit,
                                 asymmetry, (0.0,), 0.05, ())

        queue = [report(0.1, 0.2)] + [report(*r) for r in reports]
        monkeypatch.setattr(fracperim.deficit, "s_deficit",
                            lambda *args, **kwargs: queue.pop(0))
        h = 0.25
        e = _interval_union_set([(0, 1), (1.5, 2)], h, pad=2)
        _, audit = n_symmetrize(e, build_table(KernelParams(1, 0.5), h=h))
        (step,) = audit.steps
        assert [c.label for c in step.candidates if c.selected] == [pick]
        assert [c.deficit_bound_ok for c in step.candidates] == [
            d <= 0.25 for d, _ in reports]
        assert audit.bound_violated is violated
        assert audit.final_deficit == dict(zip("+-", reports))[pick][0]


# float.hex pinned under numpy 2.4.6 / scipy 1.17.1: (initial_deficit,
# final_deficit), the picks, and per step (plane, reflection_slack,
# deficit_before) and per candidate (perimeter, deficit, asymmetry)
_AUDIT_PINS = {
    "offset-bump": (
        ("0x1.27c7c668823d4p-3", "0x1.1cd139083539ep-2"),
        "++",
        (("-0x1.a000000000000p-2", "0x1.fd68134709000p-3", "0x1.27c7c668823d4p-3"),
         ("0x0.0p+0", "0x0.0p+0", "0x1.1cd139083539ep-2")),
        (("0x1.4554b8b3d94c6p+6", "0x1.1cd139083539ep-2", "0x1.c666666666666p-1"),
         ("0x1.034702bed4035p+6", "0x1.42658a6c4acf1p-8", "0x1.5555555555555p-3"),
         ("0x1.4554b8b3d94c6p+6", "0x1.1cd139083539ep-2", "0x1.c666666666666p-1"),
         ("0x1.4554b8b3d94c6p+6", "0x1.1cd139083539ep-2", "0x1.c666666666666p-1")),
    ),
    "ellipse": (
        ("0x1.bf589b2b46bb4p-6", "0x1.d1b9e3c6a131ap-6"),
        "-+",
        (("0x1.0000000000000p-6", "0x1.6a15b00000000p-23", "0x1.bf589b2b46bb4p-6"),
         ("0x0.0p+0", "0x0.0p+0", "0x1.d1b9e3c6a131ap-6")),
        (("0x1.4bd258fb882efp+5", "0x1.acf3b8e9dda08p-6", "0x1.796a5d7c4f4dbp-2"),
         ("0x1.4cce4f92a565bp+5", "0x1.d1b9e3c6a131ap-6", "0x1.7b4d55b803782p-2"),
         ("0x1.4cce4f92a565bp+5", "0x1.d1b9e3c6a131ap-6", "0x1.7b4d55b803782p-2"),
         ("0x1.4cce4f92a565bp+5", "0x1.d1b9e3c6a131ap-6", "0x1.7b4d55b803782p-2")),
    ),
}


def test_symmetrize_audits_keep_their_pinned_bits():
    # demo 05's offset bump, and an ellipse whose raster is lopsided, so
    # that its first step picks "-" by the larger asymmetry
    bump = generate_family("offset-bump", (0.3,))[0].shape
    ellipse = Ellipse((0.37, -0.21), 1.0, 0.55)
    got = {}
    for name, shape, h in (("offset-bump", bump, 1 / 16), ("ellipse", ellipse, 1 / 32)):
        e = rasterize(shape, auto_spec(shape, h))
        _, audit = n_symmetrize(e, build_table(KernelParams(2, 0.5), h=h))
        cands = [c for st in audit.steps for c in st.candidates]
        got[name] = (
            (audit.initial_deficit, audit.final_deficit),
            "".join(c.label for c in cands if c.selected),
            tuple((st.plane, st.reflection_slack, st.deficit_before)
                  for st in audit.steps),
            tuple((c.perimeter, c.deficit, c.asymmetry) for c in cands),
        )
    if at_pin_versions("at 1e-12 relative"):
        hexed = {name: (tuple(v.hex() for v in ends), picks,
                        tuple(tuple(v.hex() for v in row) for row in steps),
                        tuple(tuple(v.hex() for v in row) for row in cands))
                 for name, (ends, picks, steps, cands) in got.items()}
        assert hexed == _AUDIT_PINS
        return
    for name, (ends, picks, steps, cands) in got.items():
        want_ends, want_picks, want_steps, want_cands = _AUDIT_PINS[name]
        assert picks == want_picks, name
        assert ends == pytest.approx([float.fromhex(v) for v in want_ends], rel=1e-12)
        for row, want in zip(steps + cands, want_steps + want_cands, strict=True):
            assert row == pytest.approx([float.fromhex(v) for v in want], rel=1e-12)


def test_interval_deficit_zero_for_single_interval():
    # one interval is the 1d ball: count-matched reference reproduces it
    h = 2.0**-6
    shape = Interval(0.0, 1.5)
    e = rasterize(shape, auto_spec(shape, h))
    table = build_table(KernelParams(1, 0.5), h=h)
    rep = s_deficit(e, table)
    assert rep.deficit == 0.0
    assert rep.asymmetry == 0.0
