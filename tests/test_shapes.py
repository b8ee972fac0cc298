import math

import numpy as np
import pytest
from scipy import integrate

from fracperim import (
    FAMILY_NAMES,
    AxisBox,
    Ball,
    DomainTooSmallError,
    Dumbbell,
    Ellipse,
    FormatError,
    FourierDisk,
    GridSpec,
    Interval,
    UnionShape,
    auto_spec,
    format_shape,
    generate_family,
    parse_shape,
    rasterize,
)


def test_interval_raster_matches_worked_example():
    # (0, 2) at h = 1/2 occupies exactly four cells of total measure 2
    spec = GridSpec(1, (8,), 0.5, (-1.0,))
    e = rasterize(Interval(0.0, 2.0), spec)
    assert sorted(c[0] for c in e.cells()) == [2, 3, 4, 5]
    assert e.measure == 2.0


def test_ball_volume_convergence():
    # center-membership raster: measure error O(h) for the unit disk
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        e = rasterize(Ball((0.0, 0.0), 1.0), auto_spec(Ball((0.0, 0.0), 1.0), h))
        errs.append(abs(e.measure - math.pi))
    assert errs[-1] <= errs[0]
    assert errs[-1] <= 4.0 * (1 / 64)


def test_exact_geometry_values():
    assert Ball((0.0,), 1.5).volume == 3.0
    assert Ball((0.0,), 1.5).perimeter == 2.0
    assert Ball((0.0, 0.0), 2.0).volume == pytest.approx(4 * math.pi, rel=1e-15)
    assert Ball((0.0, 0.0), 2.0).perimeter == pytest.approx(4 * math.pi, rel=1e-15)
    assert AxisBox((0.0, 0.0), (2.0, 1.0)).volume == 2.0
    assert AxisBox((0.0, 0.0), (2.0, 1.0)).perimeter == 6.0
    # circles as a round Fourier disk and a degenerate ellipse
    assert FourierDisk((0.0, 0.0), 0.7, 0.0, 3).perimeter == 2 * math.pi * 0.7
    assert Ellipse((0.0, 0.0), 1.0, 1.0).perimeter == pytest.approx(
        2 * math.pi, rel=1e-14
    )


def test_ellipse_perimeter_against_quadrature():
    a, b = 1.7, 0.6
    el = Ellipse((0.0, 0.0), a, b)

    def arc(t):
        return math.hypot(a * math.sin(t), b * math.cos(t))

    ref, _ = integrate.quad(arc, 0.0, 2 * math.pi, limit=200)
    assert el.perimeter == pytest.approx(ref, rel=1e-12)


def test_fourier_disk_volume_and_perimeter():
    fd = FourierDisk((0.0, 0.0), 1.0, 0.2, 5)
    ref, _ = integrate.quad(
        lambda t: 0.5 * (1.0 + 0.2 * math.cos(5 * t)) ** 2, 0, 2 * math.pi
    )
    assert fd.volume == pytest.approx(ref, rel=1e-13)
    assert fd.perimeter > Ball((0.0, 0.0), math.sqrt(fd.volume / math.pi)).perimeter


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("eps", [0.05, 0.3, 0.6, 0.9, 0.95, -0.5])
def test_fourier_disk_perimeter_against_quadrature(eps, k):
    r0 = 0.8

    def arc(t):
        r = r0 * (1.0 + eps * math.cos(k * t))
        return math.hypot(r, r0 * eps * k * math.sin(k * t))

    # quad refuses epsrel below 50 machine epsilons when epsabs is 0
    ref, _ = integrate.quad(arc, 0.0, 2 * math.pi, epsabs=0, epsrel=1.2e-14, limit=500)
    got = FourierDisk((0.3, -0.2), r0, eps, k).perimeter
    assert abs(got - ref) <= 1e-13 * ref


def test_dumbbell_closed_forms_against_raster():
    db = Dumbbell(0.5, 1.0, 0.2)
    h = 1 / 256
    e = rasterize(db, auto_spec(db, h, pad=2))
    assert abs(e.measure - db.volume) < db.perimeter * h
    # neck narrower than disks, arcs plus exposed edges
    assert db.perimeter < 2 * (2 * math.pi * 0.5) + 4 * 1.0


def test_union_disjointness_enforced():
    with pytest.raises(ValueError):
        UnionShape((Ball((0.0, 0.0), 1.0), Ball((1.5, 0.0), 1.0)))
    u = UnionShape((Ball((-2.0, 0.0), 1.0), Ball((2.0, 0.0), 1.0)))
    assert u.volume == pytest.approx(2 * math.pi)
    assert u.perimeter == pytest.approx(4 * math.pi)


def test_rasterize_domain_guard():
    spec = GridSpec(2, (8, 8), 0.25, (0.0, 0.0))
    with pytest.raises(DomainTooSmallError):
        rasterize(Ball((1.0, 1.0), 1.5), spec)


def test_auto_spec_centers_shape():
    shape = Ball((0.3, -0.2), 0.7)
    spec = auto_spec(shape, 0.1, pad=5)
    assert all(n % 2 == 1 for n in spec.cells)
    cx = [spec.axis_centers(k)[c] for k, c in enumerate(spec.center_cell())]
    assert cx[0] == pytest.approx(0.3, abs=1e-12)
    assert cx[1] == pytest.approx(-0.2, abs=1e-12)
    e = rasterize(shape, spec)
    assert e.cell_count > 0


@pytest.mark.parametrize(
    "shape",
    [
        Interval(0.0, 2.0),
        Ball((0.5,), 1.25),
        Ball((0.0, 0.0), 1.0),
        Ellipse((0.0, 0.0), 1.2, 0.8333),
        AxisBox((0.0,), (2.0,)),
        AxisBox((0.0, 0.0), (2.0, 1.0)),
        FourierDisk((0.0, 0.0), 1.0, 0.2, 5),
        Dumbbell(0.5, 1.0, 0.2),
        UnionShape((Ball((-2.0, 0.0), 1.0), Ball((2.0, 0.0), 1.0))),
        UnionShape((Interval(0.0, 1.0), Interval(2.0, 3.0), Interval(4.0, 4.5))),
    ],
)
def test_shape_text_round_trip(shape):
    assert parse_shape(format_shape(shape)) == shape


def test_fourier_disk_keeps_an_integer_k():
    # a whole float k is accepted and stored as an int, so the text form
    # writes k=3, which parse_shape reads back
    shape = FourierDisk((0.0, 0.0), 1.0, 0.2, 3.0)
    assert type(shape.k) is int
    assert " k=3 " in format_shape(shape)
    assert parse_shape(format_shape(shape)) == shape


def test_every_family_member_round_trips():
    params = {"ellipse-ecc": (0.0, 0.3), "fourier-disk": (0.1, 0.3),
              "dumbbell": (0.4,), "two-balls": (1.0,), "offset-bump": (0.25,),
              "two-intervals": (0.5,)}
    assert set(params) == set(FAMILY_NAMES)
    for name, values in params.items():
        for member in generate_family(name, values):
            assert parse_shape(format_shape(member.shape)) == member.shape


@pytest.mark.parametrize(
    "text,message",
    [
        ("kind=ball r=1.0 cx=0.0 cy=0.0 r=0.5", "'r' is given twice"),
        ("kind=interval a=0 a=0 b=1", "'a' is given twice"),
        ("kind=interval a=0 b=1 cy=3", "'interval' has no field 'cy'"),
        ("kind=axis_box x0=0 x1=1 y1=3", "'axis_box' missing field 'y0'"),
        ("kind=ball r=1 cx=0 0.kind=ball", "'ball' has no field '0.kind'"),
        ("kind=union n=1 0.kind=interval 0.a=0 0.b=1 0.cy=2",
         "'interval' has no field 'cy'"),
        ("kind=union n=1 0.kind=interval 0.a=0 0.b=1 x.kind=ball",
         "'union' has no field 'x.kind'"),
        ("kind=union n=2 0.kind=interval 0.a=0 0.b=1 1.kind=interval 1.a=2 "
         "1.b=3 2.kind=interval 2.a=4 2.b=5", "'2.kind' names member 2, but n = 2"),
        ("kind=union n=2 0.kind=interval 0.a=0 0.b=1 01.kind=interval 1.a=2 "
         "1.b=3", "'01.kind' names member 01, but n = 2"),
        ("kind=union n=3 0.kind=interval 0.a=0 0.b=1 1.kind=interval 1.a=2 "
         "1.b=3", r"union of n = 3 has no member 2 \(2\.kind\)"),
        ("kind=ball r=abc cx=0 cy=0", "shape key 'r' is not a number: 'abc'"),
        ("kind=fourier_disk r0=1 eps=0.2 k=x cx=0 cy=0",
         "shape key 'k' is not an integer: 'x'"),
        ("kind=fourier_disk r0=1 eps=0.2 k=3.0 cx=0 cy=0",
         "shape key 'k' is not an integer: '3.0'"),
        ("kind=union n=two 0.kind=interval 0.a=0 0.b=1",
         "shape key 'n' is not an integer: 'two'"),
    ],
)
def test_unknown_repeated_or_surplus_shape_keys_are_refused(text, message):
    with pytest.raises(FormatError, match=message):
        parse_shape(text)


def test_contains_is_vectorized():
    fd = FourierDisk((0.0, 0.0), 1.0, 0.3, 3)
    pts = np.array([[0.0, 0.0], [2.0, 2.0], [1.1, 0.0]])
    inside = fd.contains(pts)
    assert inside.tolist() == [True, False, True]
