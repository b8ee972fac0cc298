"""Analytic shape descriptions and their rasterization.

Every shape knows its exact volume and classical (boundary-length)
perimeter, so downstream checks never read those quantities from a raster,
where staircase boundaries would distort lengths.  Rasterization keeps the
cells whose centers fall strictly inside the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainTooSmallError, FormatError
from .grids import GridSet, GridSpec

__all__ = [
    "Interval",
    "Ball",
    "Ellipse",
    "AxisBox",
    "FourierDisk",
    "Dumbbell",
    "UnionShape",
    "rasterize",
    "auto_spec",
    "parse_shape",
    "format_shape",
]


def _finite(*values) -> None:
    """Raise ValueError unless every shape parameter is a finite number."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"shape parameters must be finite, got {values}")


@dataclass(frozen=True)
class Interval:
    """Open interval (a, b) on the line."""

    a: float
    b: float

    def __post_init__(self):
        _finite(self.a, self.b)
        if not self.b > self.a:
            raise ValueError("interval needs b > a")

    dim = 1

    @property
    def volume(self) -> float:
        return self.b - self.a

    @property
    def perimeter(self) -> float:
        return 2.0

    @property
    def bounding_box(self):
        return ((self.a, self.b),)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        x = pts[:, 0]
        return (x > self.a) & (x < self.b)


@dataclass(frozen=True)
class Ball:
    """Open ball; the line segment (cx - r, cx + r) in one dimension."""

    center: tuple[float, ...]
    r: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        _finite(*self.center, self.r)
        if self.r <= 0:
            raise ValueError("ball radius must be positive")
        if len(self.center) not in (1, 2):
            raise ValueError("ball center must have 1 or 2 coordinates")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return 2.0 * self.r if self.dim == 1 else math.pi * self.r**2

    @property
    def perimeter(self) -> float:
        return 2.0 if self.dim == 1 else 2.0 * math.pi * self.r

    @property
    def bounding_box(self):
        return tuple((c - self.r, c + self.r) for c in self.center)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d2 = np.zeros(len(pts))
        for k, c in enumerate(self.center):
            d2 += (pts[:, k] - c) ** 2
        return d2 < self.r**2


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned ellipse with semi-axes a (x) and b (y)."""

    center: tuple[float, float]
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        _finite(*self.center, self.a, self.b)
        if self.a <= 0 or self.b <= 0:
            raise ValueError("ellipse semi-axes must be positive")

    dim = 2

    @property
    def volume(self) -> float:
        return math.pi * self.a * self.b

    @property
    def perimeter(self) -> float:
        from scipy import special  # only here, so importing fracperim skips it

        big, small = max(self.a, self.b), min(self.a, self.b)
        return 4.0 * big * special.ellipe(1.0 - (small / big) ** 2)

    @property
    def bounding_box(self):
        cx, cy = self.center
        return ((cx - self.a, cx + self.a), (cy - self.b, cy + self.b))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        cx, cy = self.center
        return ((pts[:, 0] - cx) / self.a) ** 2 + (
            (pts[:, 1] - cy) / self.b
        ) ** 2 < 1.0


@dataclass(frozen=True)
class AxisBox:
    """Axis-aligned open box."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(c) for c in self.lo))
        object.__setattr__(self, "hi", tuple(float(c) for c in self.hi))
        _finite(*self.lo, *self.hi)
        if len(self.lo) != len(self.hi) or len(self.lo) not in (1, 2):
            raise ValueError("box corners must share dimension 1 or 2")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box needs hi > lo per axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return math.prod(h - l for l, h in zip(self.lo, self.hi))

    @property
    def perimeter(self) -> float:
        if self.dim == 1:
            return 2.0
        w = self.hi[0] - self.lo[0]
        t = self.hi[1] - self.lo[1]
        return 2.0 * (w + t)

    @property
    def bounding_box(self):
        return tuple(zip(self.lo, self.hi))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        ok = np.ones(len(pts), dtype=bool)
        for k in range(self.dim):
            ok &= (pts[:, k] > self.lo[k]) & (pts[:, k] < self.hi[k])
        return ok


# the rule stops here when the arc nearly has corners (|eps| within about
# 1e-6 of 1 at k = 3); against mpmath its error there stays below 1e-14
_ARC_MAX_NODES = 2**24
_ARC_BLOCK = 2**16


def _arc_sum(a: float, b: float, first: float, count: int) -> float:
    """Sum of |(1 + a cos w, b sin w)| at w = first + 2 pi j / count, j < count.

    Evaluated in blocks, so memory stays bounded however many nodes.
    """
    total = 0.0
    for lo in range(0, count, _ARC_BLOCK):
        w = first + 2.0 * math.pi / count * np.arange(lo, min(count, lo + _ARC_BLOCK))
        total += float(np.hypot(1.0 + a * np.cos(w), b * np.sin(w)).sum())
    return total


@dataclass(frozen=True)
class FourierDisk:
    """Star-shaped region with radius r0 * (1 + eps * cos(k * theta))."""

    center: tuple[float, float]
    r0: float
    eps: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        _finite(*self.center, self.r0, self.eps, self.k)
        if self.r0 <= 0:
            raise ValueError("base radius must be positive")
        if abs(self.eps) >= 1.0:
            raise ValueError("|eps| must stay below 1 to keep the radius positive")
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError("angular frequency k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))

    dim = 2

    @property
    def volume(self) -> float:
        # (1/2) * int r(theta)^2, the cosine cross term integrates to zero
        return math.pi * self.r0**2 * (1.0 + 0.5 * self.eps**2)

    @property
    def perimeter(self) -> float:
        # r0 * int_0^2pi |(1 + eps cos w, eps k sin w)| dw after w = k theta,
        # by the periodic trapezoid rule, which converges geometrically:
        # double the nodes, reusing the old ones, until two sums agree
        a, b = self.eps, self.eps * self.k
        n, old, total = 64, math.inf, _arc_sum(a, b, 0.0, 64)
        while True:
            new = 2.0 * math.pi / n * total
            if abs(new - old) <= 1e-15 * new or n >= _ARC_MAX_NODES:
                return self.r0 * new
            old, total = new, total + _arc_sum(a, b, math.pi / n, n)
            n *= 2

    @property
    def bounding_box(self):
        cx, cy = self.center
        rmax = self.r0 * (1.0 + abs(self.eps))
        return ((cx - rmax, cx + rmax), (cy - rmax, cy + rmax))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        dx = pts[:, 0] - self.center[0]
        dy = pts[:, 1] - self.center[1]
        rho = np.hypot(dx, dy)
        theta = np.arctan2(dy, dx)
        return rho < self.r0 * (1.0 + self.eps * np.cos(self.k * theta))


@dataclass(frozen=True)
class Dumbbell:
    """Two disks of radius rho at (+-halfspan, 0) joined by a straight neck.

    The neck is the box [-halfspan, halfspan] x [-neck/2, neck/2].  Volume
    and perimeter come from closed forms (disk areas plus neck area minus
    the two circular overlaps; outer arcs plus exposed neck edges).
    """

    rho: float
    halfspan: float
    neck: float

    def __post_init__(self):
        _finite(self.rho, self.halfspan, self.neck)
        if self.rho <= 0 or self.neck <= 0:
            raise ValueError("rho and neck width must be positive")
        if self.neck >= 2.0 * self.rho:
            raise ValueError("neck must be narrower than the disk diameter")
        if self.halfspan < self.rho:
            raise ValueError("disks must not overlap each other")

    dim = 2

    @property
    def _alpha(self) -> float:
        return math.asin(self.neck / (2.0 * self.rho))

    @property
    def _beta(self) -> float:
        return math.sqrt(self.rho**2 - (self.neck / 2.0) ** 2)

    @property
    def volume(self) -> float:
        w = self.neck
        overlap = 0.5 * w * self._beta + self.rho**2 * self._alpha
        return (
            2.0 * math.pi * self.rho**2
            + 2.0 * self.halfspan * w
            - 2.0 * overlap
        )

    @property
    def perimeter(self) -> float:
        arcs = 2.0 * self.rho * (2.0 * math.pi - 2.0 * self._alpha)
        edges = 2.0 * (2.0 * self.halfspan - 2.0 * self._beta)
        return arcs + edges

    @property
    def bounding_box(self):
        return (
            (-self.halfspan - self.rho, self.halfspan + self.rho),
            (-self.rho, self.rho),
        )

    def contains(self, pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        in_left = (x + self.halfspan) ** 2 + y**2 < self.rho**2
        in_right = (x - self.halfspan) ** 2 + y**2 < self.rho**2
        in_neck = (
            (np.abs(x) < self.halfspan) & (np.abs(y) < 0.5 * self.neck)
        )
        return in_left | in_right | in_neck

    def scaled(self, t: float) -> "Dumbbell":
        return Dumbbell(self.rho * t, self.halfspan * t, self.neck * t)


@dataclass(frozen=True)
class UnionShape:
    """Disjoint union of shapes; volume and perimeter are the plain sums."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(members) < 2:
            raise ValueError("union needs at least two members")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError("union members must share a dimension")
        _certify_disjoint(members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def volume(self) -> float:
        return sum(m.volume for m in self.members)

    @property
    def perimeter(self) -> float:
        return sum(m.perimeter for m in self.members)

    @property
    def bounding_box(self):
        boxes = [m.bounding_box for m in self.members]
        return tuple(
            (min(b[k][0] for b in boxes), max(b[k][1] for b in boxes))
            for k in range(self.dim)
        )

    def contains(self, pts: np.ndarray) -> np.ndarray:
        ok = np.zeros(len(pts), dtype=bool)
        for m in self.members:
            ok |= m.contains(pts)
        return ok


def _certify_disjoint(members) -> None:
    """Best-effort disjointness check: exact for balls, boxes otherwise."""
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            a, b = members[i], members[j]
            if isinstance(a, Ball) and isinstance(b, Ball):
                gap = math.dist(a.center, b.center) - (a.r + b.r)
                if gap <= 0:
                    raise ValueError("union members overlap (balls too close)")
                continue
            boxes_disjoint = any(
                a.bounding_box[k][1] <= b.bounding_box[k][0]
                or b.bounding_box[k][1] <= a.bounding_box[k][0]
                for k in range(a.dim)
            )
            if not boxes_disjoint:
                raise ValueError(
                    "cannot certify union members disjoint "
                    "(bounding boxes intersect)"
                )


def rasterize(shape, spec: GridSpec) -> GridSet:
    """Cells of ``spec`` whose centers lie inside the shape.

    The captured measure converges to the exact volume at first order in h.
    The shape must fit in the grid domain.
    """
    if shape.dim != spec.dim:
        raise ValueError(
            f"shape dimension {shape.dim} does not match grid dimension {spec.dim}"
        )
    ext = spec.extent()
    for k, (lo, hi) in enumerate(shape.bounding_box):
        if lo < ext[k][0] - 1e-12 or hi > ext[k][1] + 1e-12:
            raise DomainTooSmallError(
                f"shape bounding box exceeds grid extent along axis {k}: "
                f"[{lo}, {hi}] vs [{ext[k][0]}, {ext[k][1]}]"
            )
    inside = shape.contains(spec.centers())
    return GridSet(spec, inside.reshape(spec.cells))


def auto_spec(shape, h: float, pad: int = 8) -> GridSpec:
    """Grid that holds the shape with ``pad`` spare cells per side.

    The domain is centered on the shape's bounding box center with an odd
    cell count per axis, so the anchor cell coincides with the geometric
    center.
    """
    if pad < 0:
        raise ValueError("pad must be nonnegative")
    box = shape.bounding_box
    cells = []
    origin = []
    for lo, hi in box:
        mid = 0.5 * (lo + hi)
        half_need = 0.5 * (hi - lo) + pad * h
        n_half = math.ceil(half_need / h - 0.5)
        n = 2 * n_half + 1
        cells.append(n)
        origin.append(mid - 0.5 * n * h)
    return GridSpec(shape.dim, tuple(cells), h, tuple(origin))


# the keys of each shape kind besides "kind"; a union's members add "<i>.<key>"
_SHAPE_KEYS = {
    "interval": {"a", "b"},
    "ball": {"r", "cx", "cy"},
    "ellipse": {"a", "b", "cx", "cy"},
    "axis_box": {"x0", "x1", "y0", "y1"},
    "fourier_disk": {"r0", "eps", "k", "cx", "cy"},
    "dumbbell": {"rho", "halfspan", "neck"},
    "union": {"n"},
}


def format_shape(shape) -> str:
    """Flat key-value text form, e.g. ``kind=ball r=1.0 cx=0.0 cy=0.0``."""
    def f(x):
        return repr(float(x))

    if isinstance(shape, Interval):
        return f"kind=interval a={f(shape.a)} b={f(shape.b)}"
    if isinstance(shape, Ball):
        parts = [f"kind=ball r={f(shape.r)}", f"cx={f(shape.center[0])}"]
        if shape.dim == 2:
            parts.append(f"cy={f(shape.center[1])}")
        return " ".join(parts)
    if isinstance(shape, Ellipse):
        return (
            f"kind=ellipse a={f(shape.a)} b={f(shape.b)} "
            f"cx={f(shape.center[0])} cy={f(shape.center[1])}"
        )
    if isinstance(shape, AxisBox):
        if shape.dim == 1:
            return f"kind=axis_box x0={f(shape.lo[0])} x1={f(shape.hi[0])}"
        return (
            f"kind=axis_box x0={f(shape.lo[0])} x1={f(shape.hi[0])} "
            f"y0={f(shape.lo[1])} y1={f(shape.hi[1])}"
        )
    if isinstance(shape, FourierDisk):
        return (
            f"kind=fourier_disk r0={f(shape.r0)} eps={f(shape.eps)} "
            f"k={shape.k} cx={f(shape.center[0])} cy={f(shape.center[1])}"
        )
    if isinstance(shape, Dumbbell):
        return (
            f"kind=dumbbell rho={f(shape.rho)} halfspan={f(shape.halfspan)} "
            f"neck={f(shape.neck)}"
        )
    if isinstance(shape, UnionShape):
        parts = [f"kind=union n={len(shape.members)}"]
        for i, m in enumerate(shape.members):
            parts += [f"{i}.{tok}" for tok in format_shape(m).split()]
        return " ".join(parts)
    raise ValueError(f"unknown shape type {type(shape).__name__}")


def parse_shape(text: str):
    """Parse the flat key-value shape form produced by :func:`format_shape`.

    A key that the kind does not have, a key given twice and a union
    member numbered ``n`` or above are refused.
    """
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise FormatError(f"bad shape token {token!r}")
        key, val = token.split("=", 1)
        if key in fields:
            raise FormatError(f"shape key {key!r} is given twice")
        fields[key] = val
    return _shape_from_fields(fields)


def _shape_from_fields(fields: dict):
    kind = fields.get("kind")
    if kind not in _SHAPE_KEYS:
        raise FormatError(f"unknown shape kind {kind!r}")

    def num(key: str, parse=float):
        try:
            return parse(fields[key])
        except ValueError:
            what = "an integer" if parse is int else "a number"
            raise FormatError(
                f"shape key {key!r} is not {what}: {fields[key]!r}") from None

    try:
        n = num("n", int) if kind == "union" else 0
        members = {str(i): {} for i in range(n)}
        for key, val in fields.items():
            index, dot, rest = key.partition(".")
            if dot and index in members:
                members[index][rest] = val
            elif kind == "union" and dot and index.isdigit():
                raise FormatError(f"union key {key!r} names member {index}, but n = {n}")
            elif key != "kind" and key not in _SHAPE_KEYS[kind]:
                raise FormatError(f"shape kind {kind!r} has no field {key!r}")
        if kind == "interval":
            return Interval(num("a"), num("b"))
        if kind == "ball":
            center = (num("cx"), num("cy")) if "cy" in fields else (num("cx"),)
            return Ball(center, num("r"))
        if kind == "ellipse":
            return Ellipse((num("cx"), num("cy")), num("a"), num("b"))
        if kind == "axis_box":
            axes = "xy" if {"y0", "y1"} & fields.keys() else "x"
            return AxisBox(tuple(num(f"{a}0") for a in axes),
                           tuple(num(f"{a}1") for a in axes))
        if kind == "fourier_disk":
            return FourierDisk((num("cx"), num("cy")), num("r0"), num("eps"),
                               num("k", int))
        if kind == "dumbbell":
            return Dumbbell(num("rho"), num("halfspan"), num("neck"))
        for index, member in members.items():
            if "kind" not in member:
                raise FormatError(
                    f"union of n = {n} has no member {index} ({index}.kind)"
                )
        return UnionShape(tuple(map(_shape_from_fields, members.values())))
    except KeyError as exc:
        raise FormatError(f"shape kind {kind!r} missing field {exc}") from exc
