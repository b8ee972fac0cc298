import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from fracperim import (
    AxisBox,
    Ball,
    Ellipse,
    EmptySetError,
    FracperimError,
    GridMismatchError,
    GridSet,
    GridSpec,
    Interval,
    MarginError,
    UnionShape,
    auto_spec,
    rasterize,
)
from fracperim.kernels import (
    CUTOFF,
    FAR_RULE,
    KernelParams,
    _far_kernel_unit,
    build_table,
)
from fracperim.perimeter import (
    _EdgeArc,
    _exact_sum,
    _monomial_coefficients,
    _phi,
    _run_weights,
    _tail_1d_units,
    _tail_2d,
    _tail_terms,
    fractional_perimeter,
    gagliardo_seminorm,
    single_cell_perimeter,
)
from fracperim.quadrature import gauss_unit, rounded_counts
from fracperim.rearrange import GridFunction
from oracles import (
    at_pin_versions,
    brute_perimeter_2d,
    cell_pair_integral,
    cell_perimeter,
    clenshaw_arc,
    order4_tail_2d,
    slot_tail_2d,
    translate_cells,
)


def interval_perimeter(length, s):
    # hand antiderivative of the 1d kernel over (0, L) x complement
    return 2.0 * length ** (1.0 - s) / (s * (1.0 - s))


def raster_interval(length, h, s):
    n = round(2 * length / h)
    spec = GridSpec(1, (n,), h, (-length / 2.0,))
    e = rasterize(Interval(0.0, length), spec)
    tab = build_table(KernelParams(1, s), h=h)
    return e, tab


def test_gold_oracle_interval():
    # (0,2), s=1/2: exact value 8*sqrt(2); criterion asks 1e-4 at h=2^-9,
    # the closed-form 1d path actually reproduces it to rounding
    e, tab = raster_interval(2.0, 2.0**-9, 0.5)
    ps = fractional_perimeter(e, tab)
    assert ps == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-4)
    assert ps == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-9)


@pytest.mark.parametrize(
    "length,s,expected",
    [
        (1.0, 0.25, 32.0 / 3.0),
        (1.0, 0.75, 32.0 / 3.0),
        (2.0, 0.25, 17.939123525412577),
        (2.0, 0.75, 12.684875893362357),
        (1.0, 0.5, 8.0),
    ],
)
def test_interval_closed_form_family(length, s, expected):
    assert interval_perimeter(length, s) == pytest.approx(expected, rel=1e-13)
    e, tab = raster_interval(length, 2.0**-7, s)
    assert fractional_perimeter(e, tab) == pytest.approx(expected, rel=1e-9)


def test_homogeneity_bit_exact():
    # the unit-lattice sum is shared, only the h^(1-s) prefactor moves, so
    # the cross-multiplied identity holds bit for bit even for lambda = 3
    s = 0.5
    h = 2.0**-5
    e, tab = raster_interval(2.0, h, s)
    lam = 3.0
    spec2 = GridSpec(1, e.spec.cells, lam * h, (-3.0,))
    e2 = GridSet(spec2, e.occupancy)
    p1 = fractional_perimeter(e, tab)
    p2 = fractional_perimeter(e2, tab.with_h(lam * h))
    assert p2 * h ** (1 - s) == p1 * (lam * h) ** (1 - s)
    assert p2 == pytest.approx(lam ** (1 - s) * p1, rel=5e-16)


def test_homogeneity_bit_exact_2d():
    spec = GridSpec(2, (12, 12), 0.5, (0.0, 0.0))
    occ = np.zeros((12, 12), dtype=bool)
    occ[3:9, 4:8] = True
    occ[5, 8] = True
    e = GridSet(spec, occ)
    tab = build_table(KernelParams(2, 0.3), h=0.5)
    base = fractional_perimeter(e, tab)
    spec2 = GridSpec(2, (12, 12), 1.0, (0.0, 0.0))
    e2 = GridSet(spec2, occ)
    scaled = fractional_perimeter(e2, tab.with_h(1.0))
    assert scaled * 0.5 ** (2 - 0.3) == base * 1.0 ** (2 - 0.3)
    assert scaled == pytest.approx(2.0 ** (2 - 0.3) * base, rel=5e-16)


def test_congruence_bit_exact():
    spec = GridSpec(2, (20, 20), 0.25, (0.0, 0.0))
    occ = np.zeros((20, 20), dtype=bool)
    occ[4:9, 5:7] = True
    occ[4:6, 7:12] = True
    e = GridSet(spec, occ)
    tab = build_table(KernelParams(2, 0.7), h=0.25)
    base = fractional_perimeter(e, tab)
    for variant in (occ[::-1, :], occ[:, ::-1], occ[::-1, ::-1], occ.T):
        assert fractional_perimeter(GridSet(
            GridSpec(2, variant.shape, 0.25, (0.0, 0.0)), variant.copy()
        ), tab) == base
    assert fractional_perimeter(translate_cells(e, (3, -2)), tab) == base


@pytest.mark.parametrize("s", [0.05, 0.35, 0.95])
def test_congruence_bit_exact_on_a_large_non_square_set(s):
    # a 40 x 90 box outgrows the cutoff window, so the far rule fills part
    # of K, and its tail has rows beyond 16, summed by parts
    rng = np.random.default_rng(11)
    occ = rng.random((40, 90)) < 0.6
    tab = build_table(KernelParams(2, s), h=0.125)

    def perim(a):
        spec = GridSpec(2, a.shape, 0.125, (0.0, 0.0))
        return fractional_perimeter(GridSet(spec, a.copy()), tab)

    base = perim(occ)
    for variant in (occ, occ.T):
        for flipped in (variant, variant[::-1], variant[:, ::-1],
                        variant[::-1, ::-1]):
            assert perim(flipped) == base


def test_margin_consistency_and_guard():
    e, tab = raster_interval(2.0, 2.0**-6, 0.5)
    p4 = fractional_perimeter(e, tab, bounding_margin=4)
    p8 = fractional_perimeter(e, tab, bounding_margin=8)
    assert abs(p4 - p8) / p4 < 1e-6
    with pytest.raises(MarginError):
        fractional_perimeter(e, tab, bounding_margin=1)

    spec = GridSpec(2, (10, 10), 0.5, (0.0, 0.0))
    occ = np.zeros((10, 10), dtype=bool)
    occ[3:7, 3:7] = True
    e2 = GridSet(spec, occ)
    tab2 = build_table(KernelParams(2, 0.5), h=0.5)
    p4 = fractional_perimeter(e2, tab2, bounding_margin=4)
    p8 = fractional_perimeter(e2, tab2, bounding_margin=8)
    assert abs(p4 - p8) / p4 < 1e-6


def test_error_guards():
    spec = GridSpec(1, (8,), 0.5, (0.0,))
    tab = build_table(KernelParams(1, 0.5), h=0.5)
    with pytest.raises(EmptySetError):
        fractional_perimeter(GridSet.empty(spec), tab)
    e = GridSet.from_cells(spec, [(4,)])
    with pytest.raises(GridMismatchError):
        fractional_perimeter(e, tab.with_h(0.25))
    tab2d = build_table(KernelParams(2, 0.5), h=0.5)
    with pytest.raises(GridMismatchError):
        fractional_perimeter(e, tab2d)
    g = GridFunction(spec, e.occupancy.astype(float))
    for foreign in (tab.with_h(0.25), tab2d):
        with pytest.raises(GridMismatchError):
            gagliardo_seminorm(g, foreign)


def test_positivity_on_random_sets():
    rng = np.random.default_rng(17)
    tab = build_table(KernelParams(2, 0.5), h=1.0)
    for _ in range(5):
        occ = rng.random((9, 9)) < 0.3
        if not occ.any():
            continue
        e = GridSet(GridSpec(2, (9, 9), 1.0, (0.0, 0.0)), occ)
        assert fractional_perimeter(e, tab) > 0.0


def test_square_value_is_resolution_stable():
    # the square rasterizes exactly at every h, so one continuum number
    # must come back from all engine paths (near table, far algebra, tail)
    sq = AxisBox((0.0, 0.0), (1.0, 1.0))
    p = KernelParams(2, 0.5)
    vals = []
    for k in range(0, 4):
        h = 2.0**-k
        pad = 5
        n = round(1 / h) + 2 * pad
        spec = GridSpec(2, (n, n), h, (-pad * h, -pad * h))
        e = rasterize(sq, spec)
        assert e.measure == pytest.approx(1.0, abs=1e-12)
        vals.append(fractional_perimeter(e, build_table(p, h=h)))
    assert vals[0] == pytest.approx(single_cell_perimeter(p), rel=1e-9)
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-9)


def _one_cell(cell, shape):
    occ = np.zeros(shape, dtype=bool)
    occ[tuple(cell)] = True
    return occ


def test_tail_integral_contract():
    # one cell's tail beyond a box on the unit lattice: a larger box leaves
    # less, by exactly the pair terms of the ring between the two boxes
    p2 = KernelParams(2, 0.6)
    arc = _EdgeArc(0.6)
    t_small = _tail_2d(_one_cell((3, 3), (7, 7)), arc)
    t_big = _tail_2d(_one_cell((6, 6), (13, 13)), arc)
    assert t_big < t_small
    ring = math.fsum(
        cell_pair_integral((x, y), p2, 1.0)
        for x in range(-6, 7)
        for y in range(-6, 7)
        if not (-3 <= x < 4 and -3 <= y < 4)
    )
    assert t_small == pytest.approx(t_big + ring, rel=1e-8)

    p1 = KernelParams(1, 0.35)
    scale = build_table(p1, h=0.5).scale_factor
    t1 = float(_tail_1d_units(np.array([2.0]), 5.0, p1.s)[0]) * scale
    t1big = float(_tail_1d_units(np.array([5.0]), 11.0, p1.s)[0]) * scale
    ring1 = math.fsum(
        cell_pair_integral((d,), p1, 0.5)
        for d in list(range(-5, -2)) + list(range(3, 6))
    )
    assert t1 == pytest.approx(t1big + ring1, rel=1e-12)


def test_tail_scale_factor():
    # a perimeter scales its unit tail by its table's h^(dim - s) exactly
    units = {
        1: float(_tail_1d_units(np.array([3.0]), 7.0, 0.6)[0]),
        2: _tail_2d(_one_cell((3, 3), (7, 7)), _EdgeArc(0.6)),
    }
    for dim, unit in units.items():
        t1, t2 = (
            unit * build_table(KernelParams(dim, 0.6), h=h).scale_factor
            for h in (1.0, 2.0)
        )
        assert t2 == 2.0 ** (dim - 0.6) * t1


@pytest.mark.parametrize("s", [0.1, 0.45, 0.9])
def test_gathered_tail_matches_order4_rule_per_cell(s):
    arc = build_table(KernelParams(2, s)).edge_arc
    rng = np.random.default_rng(int(100 * s))
    for _ in range(6):
        nx, ny = (int(n) for n in rng.integers(5, 48, 2))
        # occupied cells sit at least 2 cells inside the box, as in a perimeter
        cells = np.argwhere(rng.random((nx - 4, ny - 4)) < 0.5) + 2
        got = np.array([_tail_2d(_one_cell(cell, (nx, ny)), arc)
                        for cell in cells])
        want = order4_tail_2d(cells, nx, ny, s)
        assert np.max(np.abs(got - want) / want) <= 2e-15


def _tail_test_sets(rng):
    """A ragged blob, a disc with holes and a striped disc, each in a random
    box of up to 160 cells a side, 4 empty cells around it."""
    nx, ny = (int(n) for n in rng.integers(24, 153, 2))
    x, y = np.mgrid[:nx, :ny] - np.array([nx - 1, ny - 1])[:, None, None] / 2
    r, theta = np.hypot(x, y), np.arctan2(y, x)
    radius = 0.5 * min(nx, ny)
    wobble = sum(rng.uniform(-0.08, 0.08) * np.cos(k * theta + rng.uniform(0, 7))
                 for k in range(2, 7))
    blob = r + rng.normal(0.0, 1.0, r.shape) < radius * (1.0 + wobble)
    disc = r < radius
    holes = disc.copy()
    for _ in range(4):
        c = rng.uniform(-0.5, 0.5, 2) * radius
        holes &= np.hypot(x - c[0], y - c[1]) > rng.uniform(1.0, 0.2 * radius)
    width = int(rng.integers(1, 4))
    stripes = disc & ((y + 0.5 * ny) // width % 2 == 0)
    return [np.pad(occ, 4) for occ in (blob, holes, stripes)]


def test_run_weights_are_the_rules_bernoulli_moments():
    # beta_m = sum_b w_b B_m(t_b) / m!, with B_m from the recurrence
    # sum_(k<=m) C(m + 1, k) B_k = 0 and the rule's floats as fractions
    t, w = gauss_unit(4)
    bern = [Fraction(1)]
    for m in range(1, 13):
        bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    want = tuple(
        float(sum(Fraction(wb) * sum(math.comb(m, k) * bern[k] * Fraction(tb) ** (m - k)
                                     for k in range(m + 1))
                  for tb, wb in zip(t.tolist(), w.tolist())) / math.factorial(m))
        for m in range(13))
    assert _run_weights() == want
    # exact to degree 7: beta_1 .. beta_7 vanish to rounding
    assert max(abs(b) for b in want[1:8]) < 3e-17 and want[8] < -5e-10


@pytest.mark.parametrize("s", [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99])
def test_tail_summed_by_parts_matches_the_slot_sum(s):
    arc = _EdgeArc(s)
    rng = np.random.default_rng(int(1000 * s))
    for occ in _tail_test_sets(rng):
        want = slot_tail_2d(occ, arc)
        assert abs(_tail_2d(occ, arc) - want) <= 1e-15 * want


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
def test_tail_with_no_run_summed_by_parts_has_the_slot_sum_bits(s):
    # a cell's runs are single cells, and boxes of at most 16 cells have
    # no row p >= 16: every Phi is read directly, as the slot sum reads it
    arc = _EdgeArc(s)
    for shape, cell in (((7, 7), (3, 3)), ((40, 25), (30, 4)),
                        ((33, 90), (16, 70)), ((3009, 12), (2000, 5))):
        occ = _one_cell(cell, shape)
        assert _tail_2d(occ, arc) == slot_tail_2d(occ, arc)
    rng = np.random.default_rng(int(100 * s))
    for _ in range(4):
        nx, ny = (int(n) for n in rng.integers(5, 17, 2))
        occ = np.pad(rng.random((nx - 4, ny - 4)) < 0.6, 2)
        assert _tail_2d(occ, arc) == slot_tail_2d(occ, arc)


_ARC_POINTS = np.r_[np.linspace(0.0, 0.5, 401)[1:], 1e-300, 1e-30, 1e-12, 1e-6]


def _rel(got, want):
    return np.max(np.abs(got / want - 1.0))


def test_edge_arc_closed_forms():
    # b = (s + 1)/2 = 1/2, 1, 3/2: B_s I_x(1/2, b) is asin(sqrt x), sqrt x
    # and (asin(sqrt x) + sqrt(x(1 - x)))/2, with B_s = pi/2, 1 and pi/4
    x = _ARC_POINTS
    root, asin = np.sqrt(x), np.arcsin(np.sqrt(x))
    flat, line, square = _EdgeArc(0.0), _EdgeArc(1.0), _EdgeArc(2.0)
    assert flat.full == pytest.approx(math.pi / 2, rel=5e-16)
    assert line.full == pytest.approx(1.0, rel=5e-16)
    assert square.full == pytest.approx(math.pi / 4, rel=5e-16)
    assert _rel(flat.lower(x), asin) <= 5e-16
    assert _rel(line.lower(x), root) <= 5e-16
    assert _rel(square.lower(x), 0.5 * (asin + np.sqrt(x * (1 - x)))) <= 5e-16
    # x -> 1 through y = 1 - x: the complement keeps its digits
    y = x
    assert _rel(flat.complement(y), np.arcsin(np.sqrt(y))) <= 5e-16
    assert _rel(line.complement(y), y / (1.0 + np.sqrt(1.0 - y))) <= 5e-16
    near_one = 0.5 * (np.arccos(np.sqrt(y)) + np.sqrt(y * (1.0 - y)))
    assert _rel(square.full - square.complement(y), near_one) <= 5e-16
    # the call picks the branch from lat2 <= d2 and forms y from d2 itself;
    # at s = 0 the arc is the angle atan2(lat, d)
    lat2 = np.array([1.0, 3.0, 1e-40, 1.0, 1.0, 2.0])
    d2 = np.array([3.0, 1.0, 1.0, 1e-10, 1e-30, 2.0])
    want = np.arctan2(np.sqrt(lat2), np.sqrt(d2))
    assert _rel(flat(lat2, d2), want) <= 5e-16


@pytest.mark.parametrize("s", [0.05, 0.25, 0.45, 0.75, 0.95])
def test_edge_arc_matches_betainc(s):
    b = 0.5 * (s + 1.0)
    arc = _EdgeArc(s)
    x = _ARC_POINTS
    assert _rel(arc.full, 0.5 * special.beta(0.5, b)) <= 5e-16
    assert _rel(arc.lower(x) / arc.full, special.betainc(0.5, b, x)) <= 2e-15
    assert _rel(arc.complement(x) / arc.full, special.betainc(b, 0.5, x)) <= 2e-15


def test_edge_arc_monomials_are_the_fit_rounded_once():
    # an independent conversion: numpy's cheb2poly for T_j, Fraction sums
    for s in (0.05, 0.5, 0.95):
        arc = _EdgeArc(s)
        for coef, mono in ((arc._lower_coef, arc._lower_mono),
                           (arc._complement_coef, arc._complement_mono)):
            n = len(coef)
            rows = [[int(c) for c in np.polynomial.chebyshev.cheb2poly(np.eye(n)[j])]
                    for j in range(n)]
            want = [float(sum(Fraction(float(coef[j])) * rows[j][k]
                              for j in range(k, n))) for k in range(n)]
            assert mono.tolist() == want
            assert _monomial_coefficients(coef).tolist() == want


def test_edge_arc_horner_is_the_clenshaw_arc_to_rounding():
    # Horner on the monomials and Clenshaw on the pinned fit round apart:
    # the arcs agree to 2 ulps everywhere, and bit for bit at about 99.15%
    # of these 400,400 points (3,410 differ)
    x = np.r_[np.linspace(0.0, 0.5, 4001), 1e-300, 1e-30, 1e-12]
    differ = total = 0
    for s in np.linspace(0.01, 0.99, 50).tolist():
        arc = _EdgeArc(s)
        forms = (
            (arc.lower, arc._lower_coef, 1.0, np.sqrt),
            (arc.complement, arc._complement_coef, 1.0 / (s + 1.0),
             lambda y: y ** arc.power),
        )
        for form, coef, head, factor in forms:
            got, want = form(x), clenshaw_arc(coef, head, factor, x)
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want)), s
            differ += int(np.count_nonzero(got != want))
            total += x.size
    assert differ <= 0.01 * total


def test_phi_bits_do_not_depend_on_array_shape():
    arc = _EdgeArc(0.35)
    p = np.arange(60.0)[:, None]
    q = np.arange(45.0)[None, :]
    grid = _phi(p, q, arc)
    flat = np.broadcast_to(p, grid.shape).ravel(), np.broadcast_to(q, grid.shape).ravel()
    assert np.array_equal(_phi(*flat, arc), grid.ravel())
    pieces = [_phi(flat[0][k:k + 7], flat[1][k:k + 7], arc)
              for k in range(0, grid.size, 7)]
    assert np.array_equal(np.concatenate(pieces), grid.ravel())
    # one entry per call on row 0, column 0 and the diagonal, whose edge
    # arcs take both branches of _EdgeArc (lat2 <= d2 and above)
    branches = set()

    class Watched(_EdgeArc):
        def below(self, lat2, d2):
            branches.update((lat2 <= d2).ravel().tolist())
            return super().below(lat2, d2)

        def above(self, lat2, d2):
            branches.update((lat2 <= d2).ravel().tolist())
            return super().above(lat2, d2)

    watched = Watched(arc.s)
    rows, cols = np.divmod(np.arange(grid.size), grid.shape[1])
    picked = np.flatnonzero((rows == 0) | (cols == 0) | (rows == cols))
    pieces = [_phi(flat[0][k:k + 1], flat[1][k:k + 1], watched) for k in picked]
    assert np.array_equal(np.concatenate(pieces), grid.ravel()[picked])
    assert branches == {True, False}


def test_phi_fill_calls_no_betainc(monkeypatch):
    def refuse(*args):
        raise AssertionError("betainc called")

    e = rasterize(Ball((0.0, 0.0), 0.5), auto_spec(Ball((0.0, 0.0), 0.5), 1 / 16))
    want = fractional_perimeter(e, build_table(KernelParams(2, 0.4), h=1 / 16))
    monkeypatch.setattr(special, "betainc", refuse)
    table = build_table(KernelParams(2, 0.4), h=1 / 16)
    assert fractional_perimeter(e, table) == want


def test_perimeter_independent_of_table_history():
    params, h = KernelParams(2, 0.35), 1 / 8
    small = rasterize(Ball((0.0, 0.0), 0.5), auto_spec(Ball((0.0, 0.0), 0.5), h))
    large = rasterize(AxisBox((0.0, 0.0), (5.0, 2.0)),
                      auto_spec(AxisBox((0.0, 0.0), (5.0, 2.0)), h))
    # two cells far apart, measured after a large set and on fresh tables
    spec = GridSpec(2, (40, 40), h, (0.0, 0.0))
    sparse = GridSet.from_cells(spec, [(0, 0), (30, 5)])
    fresh = [fractional_perimeter(e, build_table(params, h=h))
             for e in (small, sparse)]
    table = build_table(params, h=h)
    fractional_perimeter(large, table)
    assert [fractional_perimeter(e, table) for e in (small, sparse)] == fresh


def test_tail_slots_count_eight_reads_per_cell():
    # the cells read one by one and the jumps of the runs summed by parts
    # give back every count C(p, q) = grid[p, q] + grid[q, p] of the
    # occupancy plus its flips: eight reads per occupied cell
    rng = np.random.default_rng(8)
    for shape in ((7, 7), (5, 13), (13, 5), (1, 1), (40, 90), (90, 40), (301, 4)):
        occ = rng.random(shape) < 0.4
        occ[:, :shape[1] // 2] |= rng.random((shape[0], 1)) < 0.5  # long runs
        grid = occ.astype(np.int64)
        grid = grid + grid[::-1]
        grid = grid + grid[:, ::-1]
        n = max(shape)
        want = np.zeros((n, n), dtype=np.int64)
        want[:shape[0], :shape[1]] += grid
        want[:shape[1], :shape[0]] += grid.T
        (p, q, cells), (bp, bx, jumps) = _tail_terms(occ)
        steps = np.zeros((n, n + 1), dtype=np.int64)
        steps[bp, bx] = -jumps
        rebuilt = np.cumsum(steps, axis=1)[:, :-1]
        assert not rebuilt[:16].any()  # rows p < 16 read every Phi
        assert np.all(rebuilt[p, q] == 0)
        rebuilt[p, q] = cells
        assert np.array_equal(rebuilt, want)
        assert int(want.sum()) == 8 * occ.sum()
        assert bp.size > 0 or min(shape) < 8  # no run of 8 without 8 columns


def test_tail_integral_equals_table_gather():
    # a one-cell tail is the fsum of the eight Phi it reads, over s: Phi(p, q)
    # and Phi(q, p) at the cell's offsets p from an x edge and q from a y edge
    rng = np.random.default_rng(5)
    for s in (0.2, 0.6):
        arc = _EdgeArc(s)
        for _ in range(20):
            nx, ny = (int(v) for v in rng.integers(5, 40, 2))
            x, y = int(rng.integers(2, nx - 2)), int(rng.integers(2, ny - 2))
            pairs = [(a, b) for a in (x, nx - 1 - x) for b in (y, ny - 1 - y)]
            p, q = np.array(pairs + [(b, a) for a, b in pairs], dtype=np.float64).T
            reads = _phi(p, q, arc).tolist()
            assert _tail_2d(_one_cell((x, y), (nx, ny)), arc) == math.fsum(reads) / s


def test_sparse_set_evaluates_only_the_phi_it_reads(monkeypatch):
    # two cells far apart in a 40 x 40 box read 8 Phi each, and none of
    # their runs is long enough to be summed by parts
    import fracperim.perimeter as perimeter

    spec = GridSpec(2, (40, 40), 1 / 8, (0.0, 0.0))
    sparse = GridSet.from_cells(spec, [(0, 0), (30, 5)])
    table = build_table(KernelParams(2, 0.35), h=1 / 8)
    evaluated, phi = [], perimeter._phi
    monkeypatch.setattr(perimeter, "_phi",
                        lambda p, q, arc: evaluated.append(np.size(p)) or phi(p, q, arc))
    fractional_perimeter(sparse, table)
    assert 0 < sum(evaluated) <= 16


def test_a_long_thin_box_reserves_no_square():
    # the tail's counts of a 3009 x 12 box hold no square of its long side
    spec = GridSpec(2, (3001, 4), 1 / 8, (0.0, 0.0))
    e = GridSet.from_cells(spec, [(0, 0), (3000, 3)])
    table = build_table(KernelParams(2, 0.5), h=1 / 8)
    fractional_perimeter(e, table)
    occ = np.pad(e.trimmed().occupancy, 4)
    tracemalloc.start()
    try:
        _tail_2d(occ, table.edge_arc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < occ.shape[0] ** 2 // 8


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_offset_kernel_bit_symmetric_under_axis_swap(s):
    # both boxes reach past the window, so the far values enter
    table = build_table(KernelParams(2, s), h=1.0)
    wide = table.offset_kernel((9, 40))
    assert np.array_equal(table.offset_kernel((40, 9)), wide.T)
    square = table.offset_kernel((30, 30))
    assert np.array_equal(square, square.T)


@pytest.mark.parametrize("dim,shape,larger", [
    (1, (40,), (97,)),
    (2, (9, 40), (25, 61)),
    (2, (40, 9), (61, 25)),
    (2, (23, 23), (24, 70)),
    # rows evaluated in blocks that start at other rows in the two boxes
    (2, (200, 150), (600, 300)),
])
def test_offset_kernel_is_the_central_slice_of_a_larger_box(dim, shape, larger):
    # a far value is evaluated afresh for each box: it must not depend on
    # the box, so a box's kernel is, bit for bit, the offsets it shares
    # with a larger box's kernel
    table = build_table(KernelParams(dim, 0.4))
    big = table.offset_kernel(larger)
    centre = tuple(slice(m - n, m + n - 1) for n, m in zip(shape, larger))
    assert np.array_equal(table.offset_kernel(shape), big[centre])


def test_threads_sharing_one_table_get_the_serial_values():
    params, h = KernelParams(2, 0.45), 1 / 8
    shapes = [Ball((0.0, 0.0), 1.0), AxisBox((0.0, 0.0), (4.0, 0.75)),
              AxisBox((0.0, 0.0), (0.5, 3.0)), Ball((0.0, 0.0), 0.4)]
    sets = [rasterize(sh, auto_spec(sh, h)) for sh in shapes]
    serial = [fractional_perimeter(e, build_table(params, h=h)) for e in sets]
    shared = build_table(params, h=h)
    start = threading.Barrier(2)
    got = {}

    def run(order):
        start.wait()
        for i in order:
            got[(order[0], i)] = fractional_perimeter(sets[i], shared)

    workers = [threading.Thread(target=run, args=(order,))
               for order in ([0, 1, 2, 3], [3, 2, 1, 0])]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert len(got) == 8
    assert all(v == serial[i] for (_, i), v in got.items())


@pytest.mark.slow
def test_disk_against_brute_force():
    s = 0.5
    h = 1.0 / 8.0
    disk = Ball((0.0, 0.0), 1.0)
    e = rasterize(disk, auto_spec(disk, h, pad=6))
    engine = fractional_perimeter(e, build_table(KernelParams(2, s), h=h))
    brute = brute_perimeter_2d(e, s)
    assert abs(engine - brute) / brute < 0.01


def test_single_cell_engine_identity():
    for params in (KernelParams(1, 0.5), KernelParams(2, 0.5), KernelParams(2, 0.85)):
        spec = GridSpec(params.dim, (9,) * params.dim, 1.0, (0.0,) * params.dim)
        one = GridSet.from_cells(spec, [(4,) * params.dim])
        tab = build_table(params, h=1.0)
        assert fractional_perimeter(one, tab) == pytest.approx(
            single_cell_perimeter(params), rel=1e-9
        )


@pytest.mark.parametrize("s", [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.95, 0.99])
def test_single_cell_perimeter_is_exact_to_rounding(s):
    # the closed form against the square's chord integral in mpmath; the
    # one-cell engine run before it was off by up to 8.2e-14 at s = 0.95
    want = float(cell_perimeter(s))
    got = single_cell_perimeter(KernelParams(2, s))
    assert abs(got - want) <= 2e-15 * want


def test_gagliardo_indicator_identity():
    s, h = 0.5, 2.0**-6
    e, tab = raster_interval(2.0, h, s)
    g = GridFunction(e.spec, e.occupancy.astype(float))
    gn = gagliardo_seminorm(g, tab)
    ps = fractional_perimeter(e, tab)
    assert gn == pytest.approx(2.0 * ps, rel=1e-12)
    assert gn == pytest.approx(16.0 * math.sqrt(2.0), rel=1e-3)


def test_gagliardo_quadratic_homogeneity_and_zero():
    s, h = 0.5, 2.0**-4
    e, tab = raster_interval(1.0, h, s)
    g = GridFunction(e.spec, e.occupancy.astype(float))
    g2 = GridFunction(e.spec, 2.0 * e.occupancy.astype(float))
    assert gagliardo_seminorm(g2, tab) == pytest.approx(
        4.0 * gagliardo_seminorm(g, tab), rel=1e-13
    )
    zero = GridFunction(e.spec, np.zeros(e.spec.cells))
    assert gagliardo_seminorm(zero, tab) == 0.0


def test_gagliardo_indicator_identity_2d():
    spec = GridSpec(2, (16, 16), 0.5, (0.0, 0.0))
    occ = np.zeros((16, 16), dtype=bool)
    occ[5:11, 4:12] = True
    occ[3:5, 7:9] = True
    e = GridSet(spec, occ)
    tab = build_table(KernelParams(2, 0.3), h=0.5)
    g = GridFunction(spec, occ.astype(float))
    assert gagliardo_seminorm(g, tab) == pytest.approx(
        2.0 * fractional_perimeter(e, tab), rel=1e-11
    )


def test_two_component_subadditivity():
    # disjoint split: P_s(E1 u E2) = P_s(E1) + P_s(E2) - 2 I(E1,E2) with
    # I > 0 the cross interaction, so the union is strictly subadditive
    # and the gap to the sum decays monotonically with separation
    from fracperim import UnionShape

    s, h = 0.4, 0.25
    tab = build_table(KernelParams(2, s), h=h)
    single = Ball((0.0, 0.0), 1.0)
    p_one = fractional_perimeter(
        rasterize(single, auto_spec(single, h, pad=5)), tab
    )
    cross = []
    for gap in (4.0, 6.0, 10.0):
        two = UnionShape(
            (Ball((-gap / 2.0, 0.0), 1.0), Ball((gap / 2.0, 0.0), 1.0))
        )
        e = rasterize(two, auto_spec(two, h, pad=5))
        p_two = fractional_perimeter(e, tab)
        cross.append(2.0 * p_one - p_two)
    assert cross[0] > cross[1] > cross[2] > 0.0


def test_rounded_counts_checks_its_residual():
    raw = np.array([[3.0, -2e-11], [7.0 + 4e-4, 1.0 - 1e-9]])
    assert rounded_counts(raw).tolist() == [[3, 0], [7, 1]]
    with pytest.raises(FracperimError, match="residual"):
        rounded_counts(raw + np.array([[0.0, 0.0], [0.0, 2e-3]]))


def _double_sum_seminorm(values, tab):
    # reference for the pair sum: every ordered pair of support cells
    params = tab.params
    coords = [tuple(int(c) for c in ix) for ix in np.argwhere(values > 0)]
    cross = []
    for c in coords:
        for c2 in coords:
            d = tuple(b - a for a, b in zip(c, c2))
            if max(abs(x) for x in d) == 0:
                continue
            if max(abs(x) for x in d) <= CUTOFF:
                j = tab.entries[d]
            else:
                j = _far_kernel_unit(np.array([d]), params, FAR_RULE)[0]
            cross.append(values[c] * values[c2] * j)
    diag = single_cell_perimeter(params) * math.fsum((values**2).ravel())
    return 2.0 * (diag - math.fsum(cross)) * tab.scale_factor


@pytest.mark.parametrize("dim,shape", [(1, (23,)), (2, (20, 9))])
def test_gagliardo_general_function_matches_double_sum(dim, shape):
    # supports wider than the window, so far offsets enter both sums
    rng = np.random.default_rng(11 + dim)
    tab = build_table(KernelParams(dim, 0.4), h=0.5)
    for _ in range(3):
        values = rng.random(shape) * (rng.random(shape) < 0.7)
        spec = GridSpec(dim, (30,) * dim, 0.5, (0.0,) * dim)
        padded = np.zeros(spec.cells)
        padded[tuple(slice(2, 2 + n) for n in shape)] = values
        got = gagliardo_seminorm(GridFunction(spec, padded), tab)
        want = _double_sum_seminorm(padded, tab)
        assert got == pytest.approx(want, rel=1e-12)


_PROPERTY_TABLE = build_table(KernelParams(2, 0.45), h=0.5)


@settings(max_examples=40, deadline=None)
@given(
    arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))).filter(
        lambda a: a.any()
    ),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_engine_properties_on_random_sets(occ, tx, ty):
    tab = _PROPERTY_TABLE

    def perim(a, **kw):
        spec = GridSpec(2, a.shape, 0.5, (0.0, 0.0))
        return fractional_perimeter(GridSet(spec, a.copy()), tab, **kw)

    base = perim(occ)
    for variant in (occ, occ.T):
        for flipped in (variant, variant[::-1], variant[:, ::-1],
                        variant[::-1, ::-1]):
            assert perim(flipped) == base
    moved = np.zeros((occ.shape[0] + tx + 1, occ.shape[1] + ty + 1), bool)
    moved[tx : tx + occ.shape[0], ty : ty + occ.shape[1]] = occ
    assert perim(moved) == base

    # at the default margin the order-4 tail rule alone sits near 1e-11
    # from the single-cell split; a margin of 8 brings it under 1e-12
    spec = GridSpec(2, occ.shape, 0.5, (0.0, 0.0))
    semi = gagliardo_seminorm(GridFunction(spec, occ.astype(float)), tab)
    assert semi / 2.0 == pytest.approx(perim(occ, bounding_margin=8), rel=1e-11)


# ---------------------------------------------------------------------------
# _exact_sum: correctly rounded, so == math.fsum of the repeated values

_WIDE_FLOATS = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000))
_FINITE = st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-(2.0**1000), max_value=2.0**1000)
_VALUES = st.one_of(_WIDE_FLOATS, _FINITE, st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-1022 - 5e-324, 2.0**1000]))


def _fsum_repeated(values, counts):
    return math.fsum(v for v, c in zip(values, counts) for _ in range(c))


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, max_size=60))
def test_exact_sum_equals_fsum(values):
    assert _exact_sum(np.array(values, dtype=np.float64)) == math.fsum(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=30), st.lists(_VALUES, max_size=5),
       st.randoms(use_true_random=False))
def test_exact_sum_under_heavy_cancellation(big, small, rnd):
    # each large value meets its negation: the sum is what small leaves
    values = big + [-v for v in big] + small
    rnd.shuffle(values)
    got = _exact_sum(np.array(values))
    assert got == math.fsum(values) == math.fsum(small)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_VALUES, st.integers(0, 9)), max_size=40))
def test_exact_sum_with_counts_equals_fsum_of_the_repeated_list(pairs):
    values = np.array([v for v, _ in pairs], dtype=np.float64)
    counts = np.array([c for _, c in pairs], dtype=np.uint8)
    want = _fsum_repeated(values.tolist(), counts.tolist())
    assert _exact_sum(values, counts) == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_VALUES, st.integers(0, 5)), max_size=30))
def test_exact_sum_across_block_edges(pairs):
    values = np.array([v for v, _ in pairs], dtype=np.float64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    with pytest.MonkeyPatch.context() as m:
        m.setattr("fracperim.perimeter._FILL_BLOCK", 7)
        plain, counted = _exact_sum(values), _exact_sum(values, counts)
    assert plain == math.fsum(values.tolist())
    assert counted == _fsum_repeated(values.tolist(), counts.tolist())


def test_exact_sum_of_nothing_is_zero():
    assert _exact_sum(np.zeros(0)) == 0.0
    assert _exact_sum(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)) == 0.0
    assert _exact_sum(np.array([0.0, -0.0])) == 0.0
    assert _exact_sum(np.array([2.5, 7.0]), np.array([0, 0])) == 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exact_sum_rejects_non_finite_values(bad):
    values = np.array([1.0, bad, -3.0])
    with pytest.raises(ValueError, match="non-finite"):
        _exact_sum(values)
    with pytest.raises(ValueError, match="non-finite"):
        _exact_sum(values, np.array([1, 0, 2]))


def test_exact_sum_checks_its_counts():
    values = np.ones(4)
    for counts in (np.array([1, 2, -1, 0]), np.ones(4), np.ones(3, dtype=int)):
        with pytest.raises(ValueError, match="counts"):
            _exact_sum(values, counts)
    # a block's counts above 2^26 could round the bins: refused, not rounded
    with pytest.raises(ValueError, match="counts"):
        _exact_sum(values, np.full(4, 2**25))


# ---------------------------------------------------------------------------
# bit pins: float.hex values computed with numpy 2.4.6 and scipy 1.17.1
# while every sum still ran through math.fsum over Python floats

_PIN_H = 1 / 16
_PINS = {
    ("ball", 0.05): "0x1.9003a10ff8416p+8",
    ("ellipse", 0.05): "0x1.61783379556acp+8",
    ("random", 0.05): "0x1.8f27a34e4c2e6p+5",
    ("two-cell", 0.05): "0x1.31a3bc4b3b153p+0",
    ("union", 0.05): "0x1.106a1a0733a44p+6",
    ("bump", 0.05): "0x1.ae78296a4f0e5p+6",
    ("ball", 0.5): "0x1.f62694f9c052fp+5",
    ("ellipse", 0.5): "0x1.d450aa2fd9960p+5",
    ("random", 0.5): "0x1.5d4b94c184f96p+4",
    ("two-cell", 0.5): "0x1.b363fa04be50bp-1",
    ("union", 0.5): "0x1.af033c4990b5ep+3",
    ("bump", 0.5): "0x1.19fddc6f00f88p+4",
    ("ball", 0.95): "0x1.3f0008494ed6ap+8",
    ("ellipse", 0.95): "0x1.3ce4c81f925dcp+8",
    ("random", 0.95): "0x1.73d2e9ad73d39p+8",
    ("two-cell", 0.95): "0x1.1ebd4edd188f2p+4",
    ("union", 0.95): "0x1.49c7e5e3b675cp+6",
    ("bump", 0.95): "0x1.49b1059de5eb4p+5",
}


def _pinned_inputs():
    h = _PIN_H
    ball, ellipse = Ball((0.0, 0.0), 1.0), Ellipse((0.1, -0.2), 1.25, 0.7)
    occ = np.random.default_rng(2024).random((12, 12)) < 0.5
    union = UnionShape((Interval(0.0, 1.0), Interval(1.5, 2.25)))
    spec = GridSpec(2, (24, 24), h, (0.0, 0.0))
    i, j = np.indices(spec.cells) - 11.5
    bump = np.maximum(0.0, 1.0 - (i * i + j * j) / 100.0)
    return {
        "ball": rasterize(ball, auto_spec(ball, h)),
        "ellipse": rasterize(ellipse, auto_spec(ellipse, h)),
        "random": GridSet(GridSpec(2, (12, 12), h, (0.0, 0.0)), occ),
        "two-cell": GridSet.from_cells(GridSpec(2, (3001, 4), h, (0.0, 0.0)),
                                       [(0, 0), (3000, 3)]),
        "union": rasterize(union, auto_spec(union, h)),
        "bump": GridFunction(spec, bump),
    }


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
def test_perimeters_keep_their_pinned_bits(s):
    tables = {dim: build_table(KernelParams(dim, s), h=_PIN_H) for dim in (1, 2)}
    got = {}
    for name, x in _pinned_inputs().items():
        table = tables[x.spec.dim]
        got[name] = (gagliardo_seminorm(x, table) if name == "bump"
                     else fractional_perimeter(x, table))
    want = {name: float.fromhex(_PINS[(name, s)]) for name in got}
    if at_pin_versions("at 1e-13 relative"):
        assert {n: v.hex() for n, v in got.items()} == {
            n: v.hex() for n, v in want.items()}
    else:
        for name, value in got.items():
            assert value == pytest.approx(want[name], rel=1e-13), name


def test_a_warm_long_thin_box_perimeter_stays_small():
    # a max(nx, ny)^2 count square would take this 3009 x 12 box to ~70 MB
    spec = GridSpec(2, (3001, 4), 1 / 8, (0.0, 0.0))
    e = GridSet.from_cells(spec, [(0, 0), (3000, 3)])
    table = build_table(KernelParams(2, 0.5), h=1 / 8)
    want = fractional_perimeter(e, table)
    tracemalloc.start()
    try:
        got = fractional_perimeter(e, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 8 * 2**20
