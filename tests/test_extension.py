"""Half-space lift, energy, and calibration checks.

Kernel cell integrals are compared against adaptive quadrature of the
literal integrand; calibration quality is judged against the interval
closed form 2 L^(1-s) / (s (1-s)).
"""

import itertools
import math
import sys
import threading
import time
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from scipy import integrate, special

import fracperim as fp
from fracperim.extension import (
    _gamma,
    _poisson_table_1d,
    _poisson_table_2d,
    _slab_weight,
)
from oracles import (
    at_pin_versions,
    interval_union_perimeter,
    lift_energy_dense,
    lift_level_fftconvolve,
    poisson_table_2d_full,
)


def lift_shape(shape, dim, h, s=0.5):
    params = fp.KernelParams(dim, s)
    e = fp.rasterize(shape, fp.auto_spec(shape, h))
    grid, embedded = fp.extension_domain(e)
    return fp.poisson_extend(embedded, grid, params), embedded


# ---------------------------------------------------------------- constants


def test_lambda_value_matches_independent_gamma_evaluation():
    want = math.gamma(0.75) / (math.sqrt(math.pi) * math.gamma(0.25))
    got = fp.lambda_constant(fp.KernelParams(1, 0.5))
    assert got == pytest.approx(want, rel=1e-14)


def test_lambda_value_2d_closed_form():
    # Gamma(1 + s/2) = (s/2) Gamma(s/2) collapses the ratio to s/(2 pi).
    for s in (0.25, 0.5, 0.75):
        got = fp.lambda_constant(fp.KernelParams(2, s))
        assert got == pytest.approx(s / (2 * math.pi), rel=1e-14)


def test_gamma_port_has_scipy_bits():
    # the range lambda_constant reads, s/2 and (N+s)/2, the first-order
    # branch below it and the rest of the port's domain above it
    xs = np.concatenate([
        np.linspace(5e-4, 1.5, 100_001),
        np.geomspace(1e-12, 1e-8, 101),
        np.linspace(1.5, 3.0, 1_001)[:-1],
    ])
    got = np.array([_gamma(x) for x in xs.tolist()])
    assert np.array_equal(got, special.gamma(xs))
    for x in (0.0, -0.5, 3.0, math.nan):
        with pytest.raises(ValueError):
            _gamma(x)


def test_lambda_value_has_the_bits_of_the_scipy_formula():
    for dim in (1, 2):
        for s in np.linspace(0.0, 1.0, 2_001)[1:-1].tolist():
            want = float(
                special.gamma(0.5 * (dim + s))
                / (math.pi ** (0.5 * dim) * special.gamma(0.5 * s))
            )
            assert fp.lambda_constant(fp.KernelParams(dim, s)) == want, (dim, s)


def test_lambda_positive_across_s():
    for dim in (1, 2):
        for s in (0.01, 0.3, 0.99):
            assert fp.lambda_constant(fp.KernelParams(dim, s)) > 0.0


def test_kernel_mass_is_one_at_arbitrary_centers():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = float(rng.uniform(-5, 5))
        z = float(rng.uniform(0.01, 4.0))
        mass = fp.poisson_kernel_mass(fp.KernelParams(1, 0.5), x, z)
        assert mass == pytest.approx(1.0, abs=1e-9)
    for _ in range(5):
        x = tuple(rng.uniform(-5, 5, size=2))
        z = float(rng.uniform(0.01, 4.0))
        mass = fp.poisson_kernel_mass(fp.KernelParams(2, 0.75), x, z)
        assert mass == pytest.approx(1.0, abs=1e-9)


def test_kernel_mass_rejects_zero_height():
    with pytest.raises(ValueError):
        fp.poisson_kernel_mass(fp.KernelParams(1, 0.5), 0.0, 0.0)


# ------------------------------------------------------------ kernel tables


def test_poisson_table_1d_matches_adaptive_quadrature():
    h, s = 1 / 16, 0.5
    for z in (h / 4, h, 2.0):
        table = _poisson_table_1d(s, h, z, 6, 6)
        for d in (-6, -1, 0, 3):
            f = lambda w: z**s * (w * w + z * z) ** (-0.5 * (1 + s))
            want, _ = integrate.quad(f, (d - 0.5) * h, (d + 0.5) * h)
            assert table[d + 6] == pytest.approx(want, rel=1e-12)


def test_poisson_table_2d_matches_adaptive_quadrature():
    h, s = 1 / 16, 0.5
    z = h / 4
    table = _poisson_table_2d(s, h, z, (8, 8), (8, 8))
    f = lambda w2, w1: z**s * (w1 * w1 + w2 * w2 + z * z) ** (-0.5 * (2 + s))
    for d in ((0, 0), (1, 0), (1, 1), (3, 2), (8, 5)):
        want, _ = integrate.dblquad(
            f,
            (d[0] - 0.5) * h,
            (d[0] + 0.5) * h,
            (d[1] - 0.5) * h,
            (d[1] + 0.5) * h,
            epsabs=1e-13,
            epsrel=1e-11,
        )
        got = table[d[0] + 8, d[1] + 8]
        assert got == pytest.approx(want, rel=5e-5)


def test_table_mass_stays_below_one():
    params = fp.KernelParams(1, 0.5)
    lam = fp.lambda_constant(params)
    h, s = 1 / 8, 0.5
    w_max = 400.5 * h
    for z in (h / 4, 1.0):
        total = lam * _poisson_table_1d(s, h, z, 400, 400).sum()
        # window mass misses at most the algebraic tail beyond w_max
        tail_bound = 2 * lam * z**s * w_max ** (-s) / s
        assert total < 1.0
        assert 1.0 - total < tail_bound


def test_quadrant_table_matches_full_table():
    # z from far below a cell (64 panels at the peak) to many cells up;
    # m1 != m2 and m = 0 cover the mirror's edges
    h, s = 1 / 16, 0.5
    for z in (h / 4096, h / 4, h / 3, 2.5 * h, 40 * h):
        for m1, m2 in ((9, 9), (12, 7), (0, 5), (0, 0)):
            got = _poisson_table_2d(s, h, z, (m1, m2), (m1, m2))
            want = poisson_table_2d_full(s, h, z, m1, m2)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * want)
            assert np.array_equal(got, got[::-1]) and np.array_equal(got, got[:, ::-1])


def test_lopsided_table_is_a_window_of_the_symmetric_table():
    # offsets -below..above per axis, as a lift of an off-centre box asks
    h, s = 1 / 16, 0.5
    for z in (h / 4096, h / 3, 40 * h):
        for below, above in (((3, 11), (12, 0)), ((0, 0), (9, 4)), ((7, 2), (7, 2))):
            got = _poisson_table_2d(s, h, z, below, above)
            m = [max(b, a) for b, a in zip(below, above)]
            full = _poisson_table_2d(s, h, z, m, m)
            want = full[m[0] - below[0] : m[0] + above[0] + 1,
                        m[1] - below[1] : m[1] + above[1] + 1]
            assert np.array_equal(got, want)
        for below, above in ((0, 9), (9, 0), (4, 6)):
            got = _poisson_table_1d(s, h, z, below, above)
            m = max(below, above)
            want = _poisson_table_1d(s, h, z, m, m)[m - below : m + above + 1]
            assert np.array_equal(got, want)


# ------------------------------------------------------------- grid objects


def test_half_space_grid_validation():
    base = fp.GridSpec(1, (8,), 0.125, (0.0,))
    with pytest.raises(ValueError):
        fp.HalfSpaceGrid(base, ())
    with pytest.raises(ValueError, match="trace"):
        fp.HalfSpaceGrid(base, (0.0, 0.1))
    with pytest.raises(ValueError):
        fp.HalfSpaceGrid(base, (0.1, 0.1))
    with pytest.raises(ValueError):
        fp.HalfSpaceGrid(base, (0.25,))  # above one cell width
    grid = fp.HalfSpaceGrid(base, (0.03125, 0.05, 0.1))
    assert grid.level_count == 3


def test_geometric_levels_cover_the_top():
    # the one ladder: a quarter cell times 1.15^j, up to and including the
    # first level at or above eight bounding-box diagonals
    h = 1 / 16
    e = fp.rasterize(fp.Interval(0.0, 1.0), fp.auto_spec(fp.Interval(0.0, 1.0), h))
    levels = fp.extension_domain(e)[0].z_levels
    top = 8.0 * e.cell_count * h  # the diagonal of a 1D set is its length
    assert levels[0] == 0.25 * h
    assert levels[-1] >= top > levels[-2]
    assert all(b == a * 1.15 for a, b in zip(levels, levels[1:]))
    assert len(levels) == 46  # log(32 * 15) / log(1.15), rounded up, plus one


def test_extension_domain_geometry():
    h = 1 / 16
    shape = fp.Interval(0.0, 1.0)
    e = fp.rasterize(shape, fp.auto_spec(shape, h))
    grid, embedded = fp.extension_domain(e)
    # same physical cells after re-embedding
    assert embedded.cell_count == e.cell_count
    old = {round(c / h) for (c,) in map(tuple, e.spec.centers()[e.occupancy])}
    new = {round(c / h) for (c,) in map(tuple, grid.base.centers()[embedded.occupancy])}
    assert old == new
    # lateral dilation by at least four raster diameters on each side
    box = embedded.bounding_cells()[0]
    extent = (box[1] - box[0] + 1) * h
    assert box[0] * h >= 4.0 * extent
    assert (grid.base.cells[0] - 1 - box[1]) * h >= 4.0 * extent
    assert grid.z_levels[0] == pytest.approx(h / 4)
    assert grid.z_levels[-1] >= 8.0 * extent
    with pytest.raises(fp.EmptySetError):
        fp.extension_domain(fp.GridSet.empty(e.spec))


# ------------------------------------------------------------------- lifts


def test_lift_of_interval_basic_properties():
    u, embedded = lift_shape(fp.Interval(0.0, 1.0), 1, 1 / 16)
    vals = u.values
    assert vals.min() >= 0.0
    assert vals.max() < 1.0  # strict maximum principle
    mid = int(np.argwhere(embedded.occupancy).mean())
    # center of the set at z0: misses only the two fat s=1/2 side tails
    assert vals[0, mid] > 0.8
    assert vals[-1].max() < 0.05  # decayed at the top
    # decay in |x| at fixed z
    row = vals[0]
    occ_idx = np.argwhere(embedded.occupancy).ravel()
    left, right = occ_idx.min(), occ_idx.max()
    assert np.all(np.diff(row[: left + 1]) >= -1e-15)
    assert np.all(np.diff(row[right:]) <= 1e-15)


def test_lift_symmetry_matches_set_symmetry():
    u, _ = lift_shape(fp.Interval(-1.0, 1.0), 1, 1 / 8)
    for j in (0, 5, u.grid.level_count - 1):
        row = u.values[j]
        assert np.max(np.abs(row - row[::-1])) < 1e-12


SMALL_LIFTS = [
    (fp.Interval(0.0, 1.0), 1, 1 / 8),
    (fp.UnionShape((fp.Interval(0.0, 0.8), fp.Interval(1.5, 2.7))), 1, 1 / 16),
    (fp.Ball((0.0, 0.0), 0.5), 2, 1 / 8),
    (fp.Ellipse((0.1, 0.0), 0.6, 0.3), 2, 1 / 8),
]


def test_lift_threads_do_not_change_bytes():
    for shape, dim, h in SMALL_LIFTS:
        params = fp.KernelParams(dim, 0.5)
        e = fp.rasterize(shape, fp.auto_spec(shape, h))
        grid, embedded = fp.extension_domain(e)
        u1 = fp.poisson_extend(embedded, grid, params, threads=1)
        energy = fp.lift_energy(embedded, grid, params, threads=1)
        for threads in (2, 3, 4):
            u = fp.poisson_extend(embedded, grid, params, threads=threads)
            assert u.values.tobytes() == u1.values.tobytes()
            assert fp.lift_energy(embedded, grid, params, threads=threads) == energy


def assert_lift_matches_full_fftconvolve(e, grid, s):
    # every level against the whole occupancy convolved with the whole
    # symmetric table, offsets 1-n..n-1
    params = fp.KernelParams(e.spec.dim, s)
    u = fp.poisson_extend(e, grid, params)
    lam = fp.lambda_constant(params)
    h = e.spec.h
    m = [n - 1 for n in e.spec.cells]
    for j, z in enumerate(grid.z_levels):
        if e.spec.dim == 1:
            table = _poisson_table_1d(s, h, z, m[0], m[0])
        else:
            table = poisson_table_2d_full(s, h, z, m[0], m[1])
        want = lift_level_fftconvolve(e.occupancy, table, lam)
        assert np.max(np.abs(u.values[j] - want)) <= 1e-14


@pytest.mark.parametrize("shape,dim,h", SMALL_LIFTS)
def test_lift_matches_full_fftconvolve(shape, dim, h):
    e = fp.rasterize(shape, fp.auto_spec(shape, h))
    grid, embedded = fp.extension_domain(e)
    assert_lift_matches_full_fftconvolve(embedded, grid, 0.5)


def _hand_built_set(cells, h, occupied):
    base = fp.GridSpec(len(cells), cells, h, (0.0,) * len(cells))
    occ = np.zeros(cells, dtype=bool)
    for index in occupied:
        occ[index] = True
    return fp.GridSet(base, occ)


# Off-centre sets on hand-built grids: the lift trims the occupancy to its
# bounding box, so its kernel table reaches further one way than the other.
OFF_CENTRE_SETS = {
    "lower-left corner": ((40, 33), [(i, j) for i in range(5) for j in range(3)]),
    "upper-right rim": ((37, 45), [(i, j) for i in range(30, 37) for j in range(38, 45)
                                   if (i - 33) ** 2 + (j - 41) ** 2 <= 12]),
    "single cell": ((29, 31), [(11, 4)]),
    "1D end": ((70,), [(i,) for i in range(62, 70) if i != 65]),
}


@pytest.mark.parametrize("name", OFF_CENTRE_SETS)
def test_off_centre_lift_matches_full_fftconvolve(name):
    cells, occupied = OFF_CENTRE_SETS[name]
    h = 1 / 8
    e = _hand_built_set(cells, h, occupied)
    grid = fp.HalfSpaceGrid(e.spec, (h / 4, h / 2, 1.5 * h, 6 * h, 30 * h))
    assert_lift_matches_full_fftconvolve(e, grid, 0.5)


def test_off_centre_lift_threads_do_not_change_bytes():
    cells, occupied = OFF_CENTRE_SETS["upper-right rim"]
    e = _hand_built_set(cells, 1 / 8, occupied)
    grid = fp.HalfSpaceGrid(e.spec, (1 / 32, 1 / 8, 1.0))
    params = fp.KernelParams(2, 0.5)
    u1 = fp.poisson_extend(e, grid, params, threads=1)
    u3 = fp.poisson_extend(e, grid, params, threads=3)
    assert u1.values.tobytes() == u3.values.tobytes()


@pytest.mark.parametrize("shape,dim,h", SMALL_LIFTS)
def test_streamed_energy_matches_stacked_energy_bit_for_bit(shape, dim, h):
    params = fp.KernelParams(dim, 0.5)
    e = fp.rasterize(shape, fp.auto_spec(shape, h))
    grid, embedded = fp.extension_domain(e)
    stacked = fp.extension_energy(fp.poisson_extend(embedded, grid, params))
    streamed = fp.lift_energy(embedded, grid, params, threads=2)
    assert streamed == stacked


def test_lift_rejects_thread_count_below_one():
    params = fp.KernelParams(1, 0.5)
    shape = fp.Interval(0.0, 1.0)
    e = fp.rasterize(shape, fp.auto_spec(shape, 1 / 8))
    grid, embedded = fp.extension_domain(e)
    with pytest.raises(ValueError, match="threads"):
        fp.poisson_extend(embedded, grid, params, threads=0)


def test_empty_set_lifts_to_zero_field():
    base = fp.GridSpec(1, (32,), 0.125, (-2.0,))
    grid = fp.HalfSpaceGrid(base, (0.03125, 0.06, 0.12, 0.25))
    u = fp.poisson_extend(fp.GridSet.empty(base), grid, fp.KernelParams(1, 0.5))
    assert np.all(u.values == 0.0)
    assert fp.extension_energy(u).total == 0.0


def test_lift_rejects_foreign_spec():
    params = fp.KernelParams(1, 0.5)
    shape = fp.Interval(0.0, 1.0)
    e = fp.rasterize(shape, fp.auto_spec(shape, 1 / 8))
    grid, _ = fp.extension_domain(e)
    with pytest.raises(fp.GridMismatchError):
        fp.poisson_extend(e, grid, params)


def test_field_validation_and_immutability():
    base = fp.GridSpec(1, (4,), 0.25, (0.0,))
    grid = fp.HalfSpaceGrid(base, (0.0625, 0.125))
    datum = np.array([0, 1, 1, 0], dtype=bool)
    good = fp.ExtensionField(grid, fp.KernelParams(1, 0.5), np.zeros((2, 4)), datum)
    with pytest.raises(AttributeError):
        good.values = None
    assert not good.values.flags.writeable
    with pytest.raises(fp.GridMismatchError):
        fp.ExtensionField(grid, fp.KernelParams(1, 0.5), np.zeros((3, 4)), datum)
    with pytest.raises(fp.GridMismatchError):
        fp.ExtensionField(grid, fp.KernelParams(2, 0.5), np.zeros((2, 4)), datum)
    with pytest.raises(ValueError):
        fp.ExtensionField(
            grid, fp.KernelParams(1, 0.5), np.full((2, 4), 1.5), datum
        )
    bad = np.zeros((2, 4))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        fp.ExtensionField(grid, fp.KernelParams(1, 0.5), bad, datum)


def test_field_from_level_generator_equals_field_from_stack():
    base = fp.GridSpec(2, (5, 3), 0.25, (0.0, 0.0))
    grid = fp.HalfSpaceGrid(base, (0.0625, 0.125, 0.25))
    params = fp.KernelParams(2, 0.5)
    datum = np.zeros((5, 3), dtype=bool)
    datum[2, 1] = True
    rng = np.random.default_rng(3)
    stack = rng.random((3, 5, 3))
    stack[0, 0, 0] = -5e-10  # roundoff outside [0, 1] is clamped
    stack[2, 4, 2] = 1.0 + 5e-10
    from_stack = fp.ExtensionField(grid, params, stack, datum)
    from_levels = fp.ExtensionField(grid, params, (lv for lv in stack), datum)
    from_list = fp.ExtensionField(grid, params, list(stack), datum)
    want = np.clip(stack, 0.0, 1.0)
    for u in (from_stack, from_levels, from_list):
        assert np.array_equal(u.values, want)
        assert not u.values.flags.writeable
        assert np.array_equal(u.datum, datum)
    assert from_levels.values.min() == 0.0 and from_levels.values.max() == 1.0


def test_field_rejects_wrong_level_counts_and_shapes():
    base = fp.GridSpec(1, (4,), 0.25, (0.0,))
    grid = fp.HalfSpaceGrid(base, (0.0625, 0.125, 0.25))
    params = fp.KernelParams(1, 0.5)
    datum = np.zeros(4, dtype=bool)
    level = np.full(4, 0.5)
    for levels in ([level] * 2, [level] * 4, iter([level] * 4), [level] * 3 + [[]]):
        with pytest.raises(fp.GridMismatchError, match="level"):
            fp.ExtensionField(grid, params, levels, datum)
    for shape in ((5,), (1, 4), ()):
        levels = [level, np.full(shape, 0.5), level]
        with pytest.raises(fp.GridMismatchError, match="shape"):
            fp.ExtensionField(grid, params, levels, datum)


@pytest.mark.parametrize("wrap", [list, iter])
@pytest.mark.parametrize("bad", [-2e-9, 1.0 + 2e-9, np.inf, np.nan])
def test_field_rejects_out_of_range_level(bad, wrap):
    base = fp.GridSpec(1, (4,), 0.25, (0.0,))
    grid = fp.HalfSpaceGrid(base, (0.0625, 0.125, 0.25))
    level = np.full(4, 0.5)
    spoiled = level.copy()
    spoiled[2] = bad
    levels = wrap([level, level, spoiled])
    with pytest.raises(ValueError, match="finite|within"):
        fp.ExtensionField(
            grid, fp.KernelParams(1, 0.5), levels, np.zeros(4, dtype=bool)
        )


@pytest.mark.parametrize("bad,message", [
    (np.nan, "field values must be finite"),
    (np.inf, "field values must be finite"),
    (-np.inf, "field values must be finite"),
    (1.1, "indicator lifts must stay within"),
    (-0.1, "indicator lifts must stay within"),
])
def test_bad_level_names_its_failure(bad, message, monkeypatch):
    base = fp.GridSpec(1, (4,), 0.25, (0.0,))
    grid = fp.HalfSpaceGrid(base, (0.0625, 0.125, 0.25))
    params = fp.KernelParams(1, 0.5)
    spoiled = np.full(4, 0.5)
    spoiled[1] = bad
    levels = [np.full(4, 0.5), spoiled, np.full(4, 0.25)]
    with pytest.raises(ValueError, match=message):
        fp.ExtensionField(grid, params, levels, np.zeros(4, dtype=bool))

    # the table and the FFT window of _lift's level making, which
    # poisson_extend's and lift_energy's level workers both run: level z's
    # window is the level before the lam scale
    by_z = dict(zip(grid.z_levels, levels))
    lam = fp.lambda_constant(params)
    monkeypatch.setattr(fp.extension, "_poisson_table_1d",
                        lambda s, h, z, below, above: z)
    monkeypatch.setattr(fp.extension, "convolve_window",
                        lambda occ, z, start, stop: by_z[z] / lam)
    e = fp.rasterize(fp.Interval(0.25, 0.5), base)
    for lift in (fp.poisson_extend, fp.lift_energy):
        with pytest.raises(ValueError, match=message):
            lift(e, grid, params, threads=2)


class LevelFailure(RuntimeError):
    pass


def _six_level_lift():
    cells, occupied = OFF_CENTRE_SETS["upper-right rim"]
    h = 1 / 8
    e = _hand_built_set(cells, h, occupied)
    grid = fp.HalfSpaceGrid(e.spec, (h / 4, h / 2, h, 4 * h, 16 * h, 64 * h))
    return e, grid, fp.KernelParams(2, 0.5)


def _watched_table_builder(monkeypatch, *, fail_at=None, scale=1.0):
    """Patch the 2D table builder to sleep briefly and record concurrency.

    The returned dict holds the largest number of levels building their
    table at once ("most"), the largest thread count seen ("threads") and
    the threads that built a table ("idents").
    """
    build = fp.extension._poisson_table_2d
    lock = threading.Lock()
    seen = {"now": 0, "most": 0, "threads": 0, "calls": 0, "idents": set()}

    def watched(s, h, z, below, above):
        with lock:
            seen["now"] += 1
            seen["calls"] += 1
            seen["most"] = max(seen["most"], seen["now"])
            seen["threads"] = max(seen["threads"], threading.active_count())
            seen["idents"].add(threading.get_ident())
        try:
            time.sleep(0.05)
            if z == fail_at:
                raise LevelFailure(f"level at z = {z}")
            return scale * build(s, h, z, below, above)
        finally:
            with lock:
                seen["now"] -= 1

    monkeypatch.setattr(fp.extension, "_poisson_table_2d", watched)
    return seen


def test_two_level_workers_compute_two_levels_at_once(monkeypatch):
    e, grid, params = _six_level_lift()
    want = fp.poisson_extend(e, grid, params, threads=1)
    seen = _watched_table_builder(monkeypatch)
    got = fp.poisson_extend(e, grid, params, threads=2)
    assert seen["calls"] == grid.level_count
    assert seen["most"] == 2
    assert got.values.tobytes() == want.values.tobytes()
    # while the consumer holds the first level, the workers go on with
    # the next two and stop there
    seen["calls"] = 0
    with closing(fp.extension._lift(e, grid, params, 2).levels()) as levels:
        first = next(levels)
        time.sleep(0.3)
        assert seen["calls"] == 3
        assert first.tobytes() == want.values[0].tobytes()


def test_failing_level_propagates_and_joins_the_workers(monkeypatch):
    e, grid, params = _six_level_lift()
    before = threading.active_count()
    seen = _watched_table_builder(monkeypatch, fail_at=grid.z_levels[3])
    # the workers are joined before the exception reaches the caller,
    # even while the caller keeps it (and its traceback's frames)
    lifts = [(fp.poisson_extend, 2), (fp.lift_energy, 1), (fp.lift_energy, 2)]
    for lift, threads in lifts:
        with pytest.raises(LevelFailure, match="level at z") as failure:
            lift(e, grid, params, threads=threads)
        assert threading.active_count() == before
        del failure
    assert threading.get_ident() not in seen["idents"]
    # a level that the consumer rejects stops the workers too
    _watched_table_builder(monkeypatch, scale=3.0)
    for lift, threads in lifts:
        with pytest.raises(ValueError, match="within") as failure:
            lift(e, grid, params, threads=threads)
        assert threading.active_count() == before
        del failure


def test_more_threads_than_levels_start_one_worker_per_level(monkeypatch):
    e, grid, params = _six_level_lift()
    want = fp.poisson_extend(e, grid, params, threads=1)
    before = threading.active_count()
    seen = _watched_table_builder(monkeypatch)
    got = fp.poisson_extend(e, grid, params, threads=64)
    assert seen["calls"] == grid.level_count == 6
    assert seen["threads"] - before <= 6
    assert 1 <= len(seen["idents"]) <= 6
    assert threading.get_ident() not in seen["idents"]
    assert threading.active_count() == before
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.filterwarnings("ignore::fracperim.extension.TruncationWarning")
@pytest.mark.parametrize("threads", [1, 2])
def test_workers_make_and_sum_each_level_while_the_calling_thread_differences(
    threads, monkeypatch
):
    # Each level is lifted or rearranged, and its lateral differences
    # summed, in one job on the level workers; the difference between
    # consecutive levels needs two of them and is taken on the calling
    # thread.  One worker or two, the split is the same.
    e, grid, params = _six_level_lift()
    u = fp.poisson_extend(e, grid, params, threads=threads)
    made, lateral, vertical = set(), set(), set()
    rim_sum = fp.extension._rim_sum

    def recorded(fn):
        def wrapped(*args, **kwargs):
            made.add(threading.current_thread().name)
            return fn(*args, **kwargs)
        return wrapped

    def rim(a, diff_axis=None):
        # a lateral difference sits on the lower cells along diff_axis
        names = vertical if diff_axis is None else lateral
        names.add(threading.current_thread().name)
        return rim_sum(a, diff_axis)

    for name in ("_poisson_table_2d", "_rearranged"):
        monkeypatch.setattr(fp.extension, name, recorded(getattr(fp.extension, name)))
    monkeypatch.setattr(fp.extension, "_rim_sum", rim)
    energies = (lambda: fp.lift_energy(e, grid, params, threads=threads),
                lambda: fp.extension_energy(fp.horizontal_rearrange(u)))
    for energy in energies:
        for names in (made, lateral, vertical):
            names.clear()
        energy()
        for names in (made, lateral):
            assert 1 <= len(names) <= threads
            assert all(name.startswith("fracperim-level") for name in names)
        assert vertical == {threading.current_thread().name}


def test_many_workers_share_one_box_spectrum(monkeypatch):
    # More workers than cores, switching threads as often as the
    # interpreter allows: the box is transformed once, before the workers
    # share it, and each level transforms only its own table.
    shape, dim, h = SMALL_LIFTS[3]
    params = fp.KernelParams(dim, 0.5)
    e = fp.rasterize(shape, fp.auto_spec(shape, h))
    grid, embedded = fp.extension_domain(e)
    want = fp.poisson_extend(embedded, grid, params, threads=1)
    forward = fp.quadrature._forward
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        time.sleep(0.002)  # widens the window in which a worker could race
        return forward(*args, **kwargs)

    monkeypatch.setattr(fp.quadrature, "_forward", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = fp.poisson_extend(embedded, grid, params, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == grid.level_count + 1
    assert got.values.tobytes() == want.values.tobytes()


def _traced_lift_and_rearrangement(threads):
    # Two-balls(0.9) at h = 1/8: 50 levels of 245 x 231 cells, 21.6 MiB a
    # stack.  Peaks of the lift, and of the rearrangement plus its energy
    # over what the lift holds, in stacks.
    shape = fp.generate_family("two-balls", (0.9,), h=1 / 8)[0].shape
    e = fp.rasterize(shape, fp.auto_spec(shape, 1 / 8))
    grid, embedded = fp.extension_domain(e)
    params = fp.KernelParams(2, 0.5)
    stack = 8 * grid.level_count * math.prod(grid.base.cells)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        u = fp.poisson_extend(embedded, grid, params, threads=threads)
        lift_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        fp.extension_energy(fp.horizontal_rearrange(u))
        rearrange_extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert u.values.nbytes == stack
    return lift_peak / stack, rearrange_extra / stack


def test_lift_on_two_workers_holds_one_stack_and_two_levels_of_work():
    # One stack, the level the consumer clamps and two levels' FFT work at
    # their peaks: about 1.25 stacks at worst, 1.20-1.22 measured.
    lift_peak, rearrange_extra = _traced_lift_and_rearrangement(2)
    assert lift_peak <= 1.30
    assert rearrange_extra <= 0.2


def test_lift_holds_one_stack_and_rearranged_energy_holds_none():
    # A lift keeps one stack plus one level's FFT work over the set's
    # bounding box (1.13 stacks).  The rearrangement is a made field over
    # the lift's stack, so its energy holds a few level slices at a time
    # (0.11-0.13 stacks: a job's scratch buffer and rearranged level, and
    # this thread's two levels and their difference; 0.13-0.16 on two
    # workers).
    lift_peak, rearrange_extra = _traced_lift_and_rearrangement(1)
    assert lift_peak <= 1.25
    assert rearrange_extra <= 0.2


# ------------------------------------------------------------------ energy


def test_slab_weight_matches_quadrature():
    for s in (0.25, 0.75):
        for a, b in ((0.0, 0.1), (0.2, 0.7)):
            want, _ = integrate.quad(lambda t: t ** (1 - s), a, b)
            assert _slab_weight(a, b, s) == pytest.approx(want, rel=1e-12)


@pytest.mark.filterwarnings("ignore::fracperim.extension.TruncationWarning")
def test_energy_of_hand_assembled_field():
    # Two cells, two levels, datum (1, 0); every term written out by hand.
    # The toy field is truncated on purpose, so the decay warning is expected.
    h, s = 0.5, 0.5
    base = fp.GridSpec(1, (2,), h, (0.0,))
    z1, z2 = 0.125, 0.375
    grid = fp.HalfSpaceGrid(base, (z1, z2))
    datum = np.array([True, False])
    vals = np.array([[0.8, 0.2], [0.5, 0.3]])
    u = fp.ExtensionField(grid, fp.KernelParams(1, s), vals, datum)
    en = fp.extension_energy(u)

    mid = 0.5 * (z1 + z2)
    w_lo = _slab_weight(0.0, mid, s)
    w_hi = _slab_weight(mid, z2, s)
    x_want = w_lo * h * (0.6 / h) ** 2 + w_hi * h * (0.2 / h) ** 2
    w0 = _slab_weight(0.0, z1, s)
    w1 = _slab_weight(z1, z2, s)
    z_want = (
        w0 * h * ((0.2 / z1) ** 2 + (0.2 / z1) ** 2)
        + w1 * h * ((0.3 / (z2 - z1)) ** 2 + (0.1 / (z2 - z1)) ** 2)
    )
    assert en.x_part == pytest.approx(x_want, rel=1e-12)
    assert en.z_part == pytest.approx(z_want, rel=1e-12)
    assert en.total == pytest.approx(x_want + z_want, rel=1e-12)


@pytest.mark.filterwarnings("ignore::fracperim.extension.TruncationWarning")
def test_energy_quadratic_in_field_values():
    base = fp.GridSpec(1, (16,), 0.25, (0.0,))
    grid = fp.HalfSpaceGrid(base, (0.0625, 0.125, 0.25, 0.5))
    x = np.linspace(0, 1, 16)
    bump = np.exp(-10 * (x - 0.5) ** 2)
    vals = np.stack([bump * w for w in (0.8, 0.5, 0.3, 0.1)])
    datum = np.zeros(16, dtype=bool)
    params = fp.KernelParams(1, 0.5)
    e1 = fp.extension_energy(fp.ExtensionField(grid, params, vals, datum))
    e2 = fp.extension_energy(fp.ExtensionField(grid, params, 0.5 * vals, datum))
    assert e2.total == pytest.approx(0.25 * e1.total, rel=1e-12)
    assert e2.x_part == pytest.approx(0.25 * e1.x_part, rel=1e-12)
    assert e2.z_part == pytest.approx(0.25 * e1.z_part, rel=1e-12)


@pytest.mark.filterwarnings("ignore::fracperim.extension.TruncationWarning")
def test_energy_parts_match_dense_density_oracle():
    # lifts of small sets, plus random fields on grids down to one cell
    # wide, whose rims cover most or all of their cells
    cases = []
    for shape, dim, h in SMALL_LIFTS:
        u, _ = lift_shape(shape, dim, h)
        cases.append(u)
    rng = np.random.default_rng(11)
    for cells in ((5, 3), (1, 4), (2, 2), (1, 1), (6,), (1,), (9, 7)):
        base = fp.GridSpec(len(cells), cells, 0.25, (0.0,) * len(cells))
        grid = fp.HalfSpaceGrid(base, (0.0625, 0.125, 0.3))
        datum = rng.random(cells) < 0.4
        vals = rng.random((3,) + cells)
        cases.append(fp.ExtensionField(grid, fp.KernelParams(len(cells), 0.5), vals, datum))
    for u in cases:
        en = fp.extension_energy(u)
        want = lift_energy_dense(u.grid, u.params.s, u.datum, u.values)
        got = (en.x_part, en.z_part, en.truncation_estimate)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-13, abs=0.0)


def test_truncation_warning_on_cramped_domain():
    # 0.4 diagonals (7 cells, 0.875) of room on the side and at the top,
    # against extension_domain's 4 and 8
    h = 1 / 8
    e = fp.rasterize(fp.Interval(0.0, 1.0), fp.auto_spec(fp.Interval(0.0, 1.0), h))
    embedded = fp.pad_domain(e, 3)
    levels = [0.25 * h]
    while levels[-1] < 0.35:
        levels.append(levels[-1] * 1.15)
    u = fp.poisson_extend(embedded, fp.HalfSpaceGrid(embedded.spec, tuple(levels)),
                          fp.KernelParams(1, 0.5))
    energies = (lambda: fp.extension_energy(u),
                lambda: fp.lift_energy(embedded, u.grid, u.params))
    for energy in energies:
        with pytest.warns(fp.TruncationWarning) as record:
            energy()
        # the warning names the line that asked for the energy
        assert {w.filename for w in record} == {__file__}


def test_comfortable_domain_reports_small_truncation():
    u, _ = lift_shape(fp.Interval(0.0, 1.0), 1, 1 / 16)
    en = fp.extension_energy(u)
    assert en.truncation_estimate < 0.01 * en.total


# ------------------------------------------------------------- calibration


def test_calibrate_gamma_against_interval_closed_form():
    params = fp.KernelParams(1, 0.5)
    rec = fp.calibrate_gamma(
        fp.Interval(0.0, 2.0),
        fp.Interval(0.0, 1.0),
        params,
        1 / 32,
    )
    gamma = rec.value
    assert gamma > 0.0
    assert "interval" in rec.reference
    assert "interval" in rec.validation
    assert rec.residual < 0.02

    # predicted perimeter of an edge-aligned unit interval vs the closed
    # form; edge alignment keeps the raster measure exactly 1
    h = 1 / 32
    spec = fp.GridSpec(1, (48,), h, (-0.25,))
    e = fp.rasterize(fp.Interval(0.0, 1.0), spec)
    assert e.measure == pytest.approx(1.0, abs=1e-12)
    grid, embedded = fp.extension_domain(e)
    u = fp.poisson_extend(embedded, grid, params)
    predicted = 0.5 * gamma * fp.extension_energy(u).total
    closed = interval_union_perimeter(((0.0, 1.0),), 0.5)
    assert predicted == pytest.approx(closed, rel=0.02)


def test_gamma_independent_of_reference_length():
    params = fp.KernelParams(1, 0.5)
    g_short = fp.calibrate_gamma(
        fp.Interval(0.0, 1.0), fp.Interval(0.0, 2.0), params, 1 / 32
    ).value
    g_long = fp.calibrate_gamma(
        fp.Interval(0.0, 4.0), fp.Interval(0.0, 2.0), params, 1 / 32
    ).value
    assert g_short == pytest.approx(g_long, rel=0.02)


def test_calibration_failure_raises():
    params = fp.KernelParams(1, 0.5)
    with pytest.raises(fp.CalibrationError, match="residual"):
        fp.calibrate_gamma(
            fp.Interval(0.0, 2.0),
            fp.Interval(0.0, 1.0),
            params,
            1 / 32,
            rtol=1e-7,
        )


# ---------------------------------------------------------- rearrangement


def test_horizontal_rearrange_preserves_level_multisets():
    shape = fp.UnionShape((fp.Interval(0.0, 0.8), fp.Interval(1.5, 2.7)))
    u, _ = lift_shape(shape, 1, 1 / 16)
    star = fp.horizontal_rearrange(u)
    for j in (0, 3, u.grid.level_count - 1):
        assert np.array_equal(
            np.sort(u.values[j].ravel()), np.sort(star.values[j].ravel())
        )
    # datum becomes the centered ball with the same count
    assert star.datum.sum() == u.datum.sum()
    d = star.datum
    assert np.array_equal(d, d[::-1]) or abs(int(d.sum())) % 2 == 0


def test_horizontal_rearrange_idempotent():
    shape = fp.UnionShape((fp.Interval(0.0, 0.8), fp.Interval(1.5, 2.7)))
    u, _ = lift_shape(shape, 1, 1 / 16)
    once = fp.horizontal_rearrange(u)
    twice = fp.horizontal_rearrange(once)
    assert np.array_equal(once.values, twice.values)
    assert np.array_equal(once.datum, twice.datum)


@pytest.mark.parametrize("shape,dim,h", SMALL_LIFTS)
def test_horizontal_rearrange_is_levelwise_rearrangement(shape, dim, h):
    u, _ = lift_shape(shape, dim, h)
    star = fp.horizontal_rearrange(u)
    for j in range(u.grid.level_count):
        level = fp.GridFunction(u.grid.base, u.values[j])
        want = fp.symmetric_rearrangement(level).values
        assert np.array_equal(star.values[j], want)


# float.hex of (total, x_part, z_part, truncation_estimate), pinned under
# numpy 2.4.6 / scipy 1.17.1 from the lift's stored stack and from a stack
# of its rearranged levels
_ENERGY_PINS = {
    ("union", "lift"): ("0x1.64ae981abd272p+0", "0x1.32aa0c92c5e88p-2",
                        "0x1.180414f60bad0p+0", "0x1.6340bfd8c586ep-9"),
    ("union", "rearranged"): ("0x1.409286d523a92p+0", "0x1.4e3d7631c0bcfp-3",
                              "0x1.16cad80eeb918p+0", "0x1.6b3fbf3e25d95p-9"),
    ("two-balls", "lift"): ("0x1.5f62cf9f98c2fp+1", "0x1.1580b09ff8619p-1",
                            "0x1.1a02a3779aaa9p+1", "0x1.a64a43944f888p-14"),
    ("two-balls", "rearranged"): ("0x1.47f6481311bdcp+1", "0x1.74f01c8567bcdp-2",
                                  "0x1.1958448264c62p+1", "0x1.a8e35a761a2dap-14"),
}


def _pinned_lifts():
    union = fp.UnionShape((fp.Interval(0.0, 0.8), fp.Interval(1.5, 2.7)))
    balls = fp.generate_family("two-balls", (0.9,), h=1 / 8)[0].shape
    return {"union": lift_shape(union, 1, 1 / 16)[0],
            "two-balls": lift_shape(balls, 2, 1 / 8)[0]}


def test_energies_before_and_after_rearrangement_keep_their_pinned_bits():
    got = {}
    for name, u in _pinned_lifts().items():
        for tag, field in (("lift", u), ("rearranged", fp.horizontal_rearrange(u))):
            en = fp.extension_energy(field)
            got[(name, tag)] = (en.total, en.x_part, en.z_part, en.truncation_estimate)
    if at_pin_versions("at 1e-13 relative"):
        assert {k: tuple(v.hex() for v in vals) for k, vals in got.items()} == {
            k: tuple(pins) for k, pins in _ENERGY_PINS.items()}
    else:
        for key, vals in got.items():
            want = [float.fromhex(p) for p in _ENERGY_PINS[key]]
            assert vals == pytest.approx(want, rel=1e-13), key


def test_rearranged_view_reads_like_a_stored_field(tmp_path):
    lifts = _pinned_lifts()
    for name, u in lifts.items():
        star = fp.horizontal_rearrange(u)
        # the view's own level passes, before `values` builds its stack
        energy, trace = fp.extension_energy(star), fp.trace_check(star)
        stored = fp.ExtensionField(star.grid, star.params, star.values, star.datum)
        assert not star.values.flags.writeable
        assert star.values is star.values  # built once, then kept
        assert star.values.tobytes() == stored.values.tobytes()
        assert fp.horizontal_rearrange(u).values.tobytes() == stored.values.tobytes()
        assert energy == fp.extension_energy(stored), name
        assert trace.tobytes() == fp.trace_check(stored).tobytes()
        # and the same once the view reads its kept stack
        assert fp.trace_check(star).tobytes() == trace.tobytes()
    # FRACEXT text of the view's made levels, of a stored copy and of the
    # view's kept stack, on the union and on a small 2D lift on two workers
    small = fp.poisson_extend(*_six_level_lift(), threads=2)
    for name, u in (("union", lifts["union"]), ("small", small)):
        star = fp.horizontal_rearrange(u)
        fp.save_extension(star, tmp_path / "view.fracext")
        stored = fp.ExtensionField(star.grid, star.params, star.values, star.datum)
        fp.save_extension(stored, tmp_path / "stored.fracext")
        fp.save_extension(star, tmp_path / "kept.fracext")
        view_bytes = (tmp_path / "view.fracext").read_bytes()
        assert view_bytes == (tmp_path / "stored.fracext").read_bytes(), name
        assert view_bytes == (tmp_path / "kept.fracext").read_bytes(), name


def _energy_hex(en):
    parts = (en.total, en.x_part, en.z_part, en.truncation_estimate)
    return tuple(v.hex() for v in parts)


def _level_pass_bits(u):
    star = fp.horizontal_rearrange(u)
    return {"energy": _energy_hex(fp.extension_energy(u)),
            "rearranged energy": _energy_hex(fp.extension_energy(star)),
            "trace": fp.trace_check(u).tobytes(),
            "rearranged trace": fp.trace_check(star).tobytes()}


def test_level_passes_keep_their_bits_at_any_worker_count(tmp_path):
    # A field's energy, rearrangement and trace run on the workers it was
    # lifted with, and lift_energy sums each level as it is made; one
    # worker or four, every float and every byte is the same.
    union = fp.UnionShape((fp.Interval(0.0, 0.8), fp.Interval(1.5, 2.7)))
    balls = fp.generate_family("two-balls", (0.9,), h=1 / 8)[0].shape
    for shape, dim, h in ((union, 1, 1 / 16), (balls, 2, 1 / 8)):
        params = fp.KernelParams(dim, 0.5)
        e = fp.rasterize(shape, fp.auto_spec(shape, h))
        grid, embedded = fp.extension_domain(e)
        got = {}
        for threads in (1, 2, 4):
            u = fp.poisson_extend(embedded, grid, params, threads=threads)
            got[threads] = _level_pass_bits(u)
            streamed = fp.lift_energy(embedded, grid, params, threads=threads)
            assert _energy_hex(streamed) == got[threads]["energy"]
            if threads == 2 and dim == 1:
                # a field read back from FRACEXT runs its passes on one worker
                fp.save_extension(u, tmp_path / "lift.fracext")
                loaded = fp.load_extension(tmp_path / "lift.fracext")
                assert _level_pass_bits(loaded) == got[threads]
        assert got[2] == got[1]
        assert got[4] == got[1]


def _watched_rearrangement(monkeypatch, *, spoil=None):
    """Patch the check of the rearranged levels to sleep briefly and record
    its threads; patch after the lift, whose levels it checks too.

    The level checked in call number `spoil` is raised by 1 first, so it
    fails its [0, 1] check.
    """
    check = fp.extension._unit_clip
    lock = threading.Lock()
    seen = {"calls": 0, "idents": set()}

    def watched(vals, out=None):
        with lock:
            seen["calls"] += 1
            seen["idents"].add(threading.get_ident())
            spoiled = seen["calls"] == spoil
        time.sleep(0.05)
        if spoiled:
            vals += 1.0
        return check(vals, out=out)

    monkeypatch.setattr(fp.extension, "_unit_clip", watched)
    return seen


def test_rearranged_level_failing_its_check_in_a_worker_joins_the_workers(monkeypatch):
    e, grid, params = _six_level_lift()
    u = fp.poisson_extend(e, grid, params, threads=2)
    star = fp.horizontal_rearrange(u)
    before = threading.active_count()
    for level_pass in (fp.extension_energy, fp.trace_check):
        seen = _watched_rearrangement(monkeypatch, spoil=4)
        with pytest.raises(ValueError, match="lifts must stay within") as failure:
            level_pass(star)
        assert threading.active_count() == before
        del failure
        assert threading.get_ident() not in seen["idents"]
        assert 1 <= len(seen["idents"]) <= 2


def test_refused_scratch_buffer_fails_the_energy_and_joins_the_workers(monkeypatch):
    # The first scratch buffer a job asks for is refused only after a
    # second job has its own, so the failure comes while another job is
    # at work.  No job waits on another: the failure must reach the caller
    # once the jobs not started are cancelled and the workers joined.  The
    # buffer the calling thread differences levels in is not counted.
    e, grid, params = _six_level_lift()
    u = fp.poisson_extend(e, grid, params, threads=2)
    for field in (u, fp.horizontal_rearrange(u)):
        second = threading.Event()
        calls = itertools.count()

        class RefusesFirstEmpty:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                if threading.current_thread().name.startswith("fracperim-level"):
                    if next(calls) == 0:
                        second.wait(10.0)
                        raise MemoryError("no scratch")
                    second.set()
                return np.empty(*args, **kwargs)

        monkeypatch.setattr(fp.extension, "np", RefusesFirstEmpty())
        before = threading.active_count()
        outcome = {}

        def energy():
            try:
                fp.extension_energy(field)
            except BaseException as exc:
                outcome["error"] = exc

        runner = threading.Thread(target=energy, daemon=True)
        runner.start()
        runner.join(60.0)
        assert not runner.is_alive(), "the level workers hung"
        assert second.is_set()
        assert isinstance(outcome.get("error"), MemoryError)
        assert threading.active_count() == before


def test_closing_a_views_levels_early_cancels_the_rest(monkeypatch):
    e, grid, params = _six_level_lift()
    u = fp.poisson_extend(e, grid, params, threads=2)
    want = fp.horizontal_rearrange(u).values
    before = threading.active_count()
    seen = _watched_rearrangement(monkeypatch)
    levels = fp.horizontal_rearrange(u).levels()
    first = next(levels)
    time.sleep(0.3)
    # the first level and the two the workers went on with, no more
    assert seen["calls"] == 3
    assert first.tobytes() == want[0].tobytes()
    levels.close()
    assert threading.active_count() == before
    time.sleep(0.1)
    assert seen["calls"] == 3
    assert threading.get_ident() not in seen["idents"]


def test_rearranged_lift_does_not_gain_energy():
    shape = fp.UnionShape((fp.Interval(0.0, 0.8), fp.Interval(1.5, 2.7)))
    u, _ = lift_shape(shape, 1, 1 / 32)
    star = fp.horizontal_rearrange(u)
    before = fp.extension_energy(u)
    after = fp.extension_energy(star)
    assert after.x_part <= before.x_part + 1e-12 * before.total
    assert after.z_part <= before.z_part + 1e-12 * before.total
    assert after.total <= before.total + 1e-12 * before.total


# ------------------------------------------------------------------- trace


def test_trace_distances_decrease_toward_bottom():
    h = 1 / 16
    u, _ = lift_shape(fp.Interval(0.0, 1.0), 1, h)
    dist = fp.trace_check(u)
    assert dist.shape == (u.grid.level_count,)
    assert np.all(np.diff(dist) > 0)  # grows with z, shrinks toward z0
    # half-layer bound: two endpoints, half a cell each
    assert dist[0] < math.sqrt(h)


def test_trace_needs_four_levels():
    base = fp.GridSpec(1, (8,), 0.25, (0.0,))
    grid = fp.HalfSpaceGrid(base, (0.0625, 0.125, 0.25))
    u = fp.ExtensionField(
        grid, fp.KernelParams(1, 0.5), np.zeros((3, 8)), np.zeros(8, bool)
    )
    with pytest.raises(ValueError):
        fp.trace_check(u)


def test_trace_resolution_refinement_shrinks_bottom_distance():
    d_coarse = fp.trace_check(lift_shape(fp.Interval(0.0, 1.0), 1, 1 / 16)[0])[0]
    d_fine = fp.trace_check(lift_shape(fp.Interval(0.0, 1.0), 1, 1 / 32)[0])[0]
    assert d_fine < d_coarse


def test_rearranged_trace_approaches_centered_ball():
    h = 1 / 32
    shape = fp.UnionShape((fp.Interval(0.0, 0.8), fp.Interval(1.5, 2.7)))
    u, _ = lift_shape(shape, 1, h)
    star = fp.horizontal_rearrange(u)
    dist = fp.trace_check(star)  # against the rearranged datum
    assert np.all(np.diff(dist) > 0)
    # the union has four endpoints worth of transition layer
    assert dist[0] < 2.0 * math.sqrt(h)


# ------------------------------------------------------------ serialization


def test_fracext_round_trip(tmp_path):
    u, _ = lift_shape(fp.Interval(0.0, 0.5), 1, 1 / 8)
    path = tmp_path / "lift.fracext"
    fp.save_extension(u, path)
    back = fp.load_extension(path)
    assert back.grid.z_levels == u.grid.z_levels
    assert back.params.dim == u.params.dim
    assert back.params.s == u.params.s
    assert np.array_equal(back.values, u.values)
    assert np.array_equal(back.datum, u.datum)


def test_fracext_round_trip_2d(tmp_path):
    u, _ = lift_shape(fp.Ball((0.0, 0.0), 0.4), 2, 1 / 4, s=0.75)
    path = tmp_path / "lift2.fracext"
    fp.save_extension(u, path)
    back = fp.load_extension(path)
    assert np.array_equal(back.values, u.values)
    assert np.array_equal(back.datum, u.datum)


def test_fracext_rejects_malformed_input(tmp_path):
    u, _ = lift_shape(fp.Interval(0.0, 0.5), 1, 1 / 8)
    path = tmp_path / "lift.fracext"
    fp.save_extension(u, path)
    text = path.read_text().splitlines()

    bad = tmp_path / "bad.fracext"
    bad.write_text("\n".join(["FRACFUN v1"] + text[1:]) + "\n")
    with pytest.raises(fp.FormatError):
        fp.load_extension(bad)

    no_datum = [ln for ln in text if ln.strip() != "datum"]
    bad.write_text("\n".join(no_datum) + "\n")
    with pytest.raises(fp.FormatError):
        fp.load_extension(bad)

    truncated = text[: len(text) // 2]
    bad.write_text("\n".join(truncated) + "\n")
    with pytest.raises(fp.FormatError):
        fp.load_extension(bad)
