"""Cell-pair interaction integrals for the kernel |x - y|^(-(dim+s)).

All internal values live on the unit lattice (h = 1); physical scale enters
once through the exact prefactor h^(dim-s), so rescaling the grid rescales
every quantity bit-reproducibly.

Quadrature strategy per lattice offset d, one rule for each case:
  - dim 1: the exact antiderivative, as a one-signed series at d >= 2.
  - dim 2, touching cells (|d|_inf = 1): the boundary identity, 1D
    integrals over parallel edges (``_boundary_values``).
  - dim 2, |d|_inf >= 2: the pair integral equals a tent-weighted integral
    over [-1,1]^2 around d; tensor Gauss-Legendre per quadrant.
``_unit_pair_values`` alone picks the rule: the boundary identity for the
two touching classes, ``_far_kernel_unit`` (the series and the tent rule)
for the rest; at order 20 it gives the table window, every offset with
|d|_inf <= CUTOFF = 16.  That one boundary splits K in two bands.
Beyond it, in 2D, K is the multipole expansion (``_FarExpansion``) of the
tent rule of order FAR_RULE = 3, built from the rule's own moments: the
rule's values to rounding for one power per value instead of 36.  The
rule is at 1e-9 relative error there, where a single midpoint evaluation
would sit near 2e-3.  In 1D it is the exact series.
The table assembles K(d) over a box (``InteractionTable.offset_kernel``)
from its near window, laid out when the table is made, and the far
values of that box, evaluated afresh for each box.  A table is always
built, never read from a file: ``build_table`` makes a 2D one in 3 to
4 ms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .quadrature import chebyshev_monomials, gauss_unit

__all__ = [
    "KernelParams",
    "InteractionTable",
    "build_table",
    "window_offsets",
]

# the near window's |offset|_inf: beyond it the far values take the
# multipole expansion of the tent rule of order FAR_RULE, to total
# derivative degree 2 * _MULTIPOLE_TERMS
CUTOFF = 16
FAR_RULE = 3
_MULTIPOLE_TERMS = 6

_SMOOTH_ORDER = 20
# Gauss order of ``_boundary_values``: at rounding from 12, 2.5e-14 off at 10
_EDGE_ORDER = 16
# 1 / (k + 2)! for k < 20: (e^x - 1 - x) / x^2 to rounding at |x| <= 1.04
_REST_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(20))
# at d = 2, s in [0.001, 0.9999], 24 terms are 2.6e-16 off, 22 2.8e-15
_PAIR_1D_TERMS = 26
_FAR_BLOCK = 1 << 16
# far values per expansion pass: its temporaries stay in cache
_EXPANSION_BLOCK = 1 << 14


@dataclass(frozen=True)
class KernelParams:
    """Kernel exponent data: spatial dimension and order s in (0, 1)."""

    dim: int
    s: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must lie strictly inside (0, 1)")


def _boundary_values(s: float) -> tuple[float, float, float]:
    """K(1, 0), K(1, 1) and the single cell P_cell, exact to rounding.

    Cells A, B with disjoint interiors interact as K_AB = -s^-2 int int
    over dA x dB of (n_A . n_B) |x - y|^-s, as the Laplacian of |x|^-s is
    s^2 |x|^-(2+s).  With the parallel-edge integrals V(a) = int_{-1}^{1}
    (1 - |w|)(a^2 + w^2)^(-s/2) dw and D(a) = int_0^2 (1 - |w - 1|)(a^2 +
    w^2)^(-s/2) dw, K(1, 0) = -s^-2 [2V(1) - V(2) - V(0) + 2D(0) - 2D(1)],
    K(1, 1) = -2 s^-2 [2D(1) - D(2) - D(0)], P_cell = 4 s^-2 [V(0) - V(1)].
    Of r^-s = 1 - (s/2) log r^2 + R only R / s^2 is integrated (the rest
    cancels, but for P_cell's 2 pi / s): by its series in s log r^2 and
    Gauss rules on [0, 1] and [1, 2] where r >= 1, in closed form at r < 1.
    Within 2.5e-16 of mpmath, s in [0.01, 0.99]; no SIMD-dependent loop.
    """
    t, w = gauss_unit(_EDGE_ORDER)
    # r^2 at a^2 + t^2 (a = 1, 2), then at a^2 + (1 + t)^2 (a = 0, 1, 2)
    u2 = (1.0 + t) * (1.0 + t)
    r2 = np.stack([1.0 + t * t, 4.0 + t * t, u2, 1.0 + u2, 4.0 + u2])
    logs = np.array([math.log(v) for v in r2.ravel().tolist()]).reshape(r2.shape)
    x = -0.5 * s * logs
    series = np.full_like(x, _REST_SERIES[-1])
    for c in _REST_SERIES[-2::-1]:
        series *= x
        series += c
    rest = 0.25 * logs * logs * series
    # the rows times the tent weights w t on [0, 1] and w (1 - t) on [1, 2]
    n1, n2, f1, f2, f0, g1, g2 = [math.fsum(row) for row in np.vstack(
        [w * t * rest[:2], w * (1.0 - t) * rest]).tolist()]
    v0 = 2.0 / (1.0 - s) - 0.5 / (2.0 - s)
    v1, v2 = 2.0 * f1, 2.0 * f2
    d0 = math.fsum([0.25 / (2.0 - s), f0])
    d1, d2 = math.fsum([n1, g1]), math.fsum([n2, g2])
    edge = -math.fsum([2.0 * v1, -v2, -v0, 2.0 * d0, -2.0 * d1])
    corner = -2.0 * math.fsum([2.0 * d1, -d2, -d0])
    cell = math.fsum([2.0 * math.pi / s, 8.0 / (1.0 - s), -2.0 / (2.0 - s), -4.0 * v1])
    return edge, corner, cell


def _unit_pair_values(offsets, params: KernelParams, rule: int) -> np.ndarray:
    """Unit-lattice pair integrals at nonzero offsets: the one rule picker.

    In 2D the touching offsets (|d|_inf = 1) of both classes (1, 0) and
    (1, 1) take the boundary identity (``_boundary_values``); every other
    offset takes ``_far_kernel_unit`` at order ``rule``.  Each value depends
    on its own offset alone, so it has the same bits in any batch.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if params.dim == 1:
        return _far_kernel_unit(offsets, params, rule)
    mags = np.abs(offsets)
    hi, lo = mags.max(axis=1), mags.min(axis=1)
    values = np.empty(len(offsets))
    far = hi != 1
    values[far] = _far_kernel_unit(offsets[far], params, rule)
    if not far.all():
        values[~far] = np.array(_boundary_values(params.s)[:2])[lo[~far]]
    return values


def _window_values(params: KernelParams) -> dict[tuple, float]:
    """Unit pair integrals for every offset of ``window_offsets``.

    The rules see only sorted magnitudes a >= b, so each class is evaluated
    once and its offsets share the value, which has the bits that
    ``_unit_pair_values`` gives that offset alone.
    """
    dim = params.dim
    # |offset| in window_offsets order: the window in C order less its centre
    mags = np.abs(np.indices((2 * CUTOFF + 1,) * dim).reshape(dim, -1).T - CUTOFF)
    mags = -np.sort(-np.delete(mags, len(mags) // 2, axis=0), axis=1)
    keys = np.ravel_multi_index(mags.T, (CUTOFF + 1,) * dim)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    values = _unit_pair_values(mags[first], params, _SMOOTH_ORDER)
    return dict(zip(window_offsets(dim), values[inverse].tolist()))


def _pair_values_1d(d: np.ndarray, s: float) -> np.ndarray:
    """The 1D pair integral at distances d >= 1 (floats), exact to rounding.

    (2 d^p - (d - 1)^p - (d + 1)^p) / (s p), p = 1 - s, loses 2 log10(d)
    digits, so at d >= 2 it is (2 d^-s / (s p d)) sum_{k >= 1} |C(p, 2k)|
    d^(2 - 2k), one-signed, and at d = 1 2 (1 - 2^-s) / (s p) by expm1:
    within 3.4e-16 of mpmath up to d = 2^20, and SIMD-independent.
    """
    p = 1.0 - s
    # |C(p, n)| = |C(p, n - 1)| (n - 1 - p) / n, kept at even n
    coefficients, c = [], p
    for n in range(2, 2 * _PAIR_1D_TERMS + 1):
        c *= (n - 2 + s) / n
        if n % 2 == 0:
            coefficients.append(c)
    u = 1.0 / (d * d)
    out = np.full_like(u, coefficients[-1])
    for c in coefficients[-2::-1]:
        out *= u
        out += c
    out *= np.float_power(d, -s) / d
    out *= 2.0 / (s * p)
    out[d == 1.0] = -2.0 * math.expm1(-s * math.log(2.0)) / (s * p)
    return out


def _far_kernel_unit(offsets: np.ndarray, params: KernelParams,
                     rule: int) -> np.ndarray:
    """Unit-lattice pair integrals for many offsets at once.

    dim 1 is exact to rounding regardless of ``rule`` (``_pair_values_1d``);
    dim 2 applies the tent-weighted tensor rule of the given order per
    quadrant, which needs |offset|_inf >= 2, where the integrand is smooth.
    An offset where the rule does not hold (d = 0 in 1D, |d|_inf < 2 in 2D)
    raises ValueError, which names the first of them.  Each value depends
    on its own offset alone, so it has the same bits in any batch, and is
    symmetric bit for bit under sign flips and axis swaps.

    The offsets run along the last axis, so every elementwise step is one
    long pass: the squares of a +- x and b +- x are formed once and each
    quadrant adds them into ``r2`` and raises it to the power in place.
    The weighted sum stays ``np.einsum`` over a contiguous (m, rule, rule)
    copy, the layout it has always summed, since its order of additions
    depends on the layout and a plain sum gives other bits.
    """
    if rule < 1:
        raise ValueError("far-field rule order must be >= 1")
    offsets = np.asarray(offsets, dtype=np.int64).reshape(-1, params.dim)
    mags = np.abs(offsets)
    near = np.flatnonzero(mags.max(axis=1) < (1 if params.dim == 1 else 2))
    if near.size:
        raise ValueError(
            "the far rule is singular at offset "
            f"{tuple(offsets[near[0]].tolist())}"
        )
    if params.dim == 1:
        return _pair_values_1d(mags[:, 0].astype(np.float64), params.s)
    # sorted magnitudes, so that (a, b) and (b, a) give the same bits
    a = mags.max(axis=1).astype(np.float64)
    b = mags.min(axis=1).astype(np.float64)
    x, w = gauss_unit(rule)
    tent = w * (1.0 - x)
    ww = tent[:, None] * tent[None, :]
    power = -0.5 * (2.0 + params.s)
    out = np.zeros(len(offsets))
    step = max(1, _FAR_BLOCK // ww.size)  # bounds the temporaries
    for lo in range(0, len(offsets), step):
        blk = slice(lo, lo + step)
        # (rule, m): the squared node coordinates of each sign, per offset
        xs2 = [np.square(a[None, blk] + s1 * x[:, None]) for s1 in (1.0, -1.0)]
        ys2 = [np.square(b[None, blk] + s2 * x[:, None]) for s2 in (1.0, -1.0)]
        r2 = np.empty((rule, rule, xs2[0].shape[1]))
        for x2 in xs2:
            for y2 in ys2:
                np.add(x2[:, None, :], y2[None, :, :], out=r2)
                np.power(r2, power, out=r2)
                out[blk] += np.einsum(
                    "ij,mij->m", ww, np.ascontiguousarray(r2.transpose(2, 0, 1))
                )
    return out


@functools.cache
def _multipole_operator() -> tuple:
    """The integer part of the far rule's expansion: rows[n][j] lists (k, p, c).

    The tent rule of ``_far_kernel_unit`` is sum_ij ww_ij f(a +- x_i,
    b +- x_j) over the four sign pairs, f = |z|^(2 gamma), z = a + ib,
    gamma = -(2 + s)/2.  Its Taylor series is
    sum_kl M_kl d_a^2k d_b^2l f, with the rule's own moments
    M_kl = 4 sum_ij ww_ij x_i^2k x_j^2l / ((2k)! (2l)!).  With X = d/dz
    and Y = d/dz-bar, d_a^2k d_b^2l = (-1)^l (X + Y)^2k (X - Y)^2l, and
    for p + q = 2n X^p Y^q f = [gamma]_p [gamma]_q z^-p z-bar^-q f, whose
    real part is [gamma]_p [gamma]_q rho^n cos(2 (p - n) theta) f, with
    rho = 1/r^2 and falling factorials [gamma]_p.  The terms of (k, l) and
    (l, k) share M_kl = M_lk, and those of p and 2n - p share
    [gamma]_p [gamma]_q, so each pair is merged; merged, the odd harmonics
    cancel exactly, and cos(4 m theta) = T_m(cos 4 theta).  Hence the
    coefficient of rho^n (cos 4 theta)^j is the sum of
    c M_(k, n-k) [gamma]_p [gamma]_(2n-p) over rows[n][j].
    """
    cheb = chebyshev_monomials(_MULTIPOLE_TERMS // 2 + 1)
    rows = []
    for n in range(_MULTIPOLE_TERMS + 1):
        merged: dict[tuple[int, int], int] = {}
        for k in range(n + 1):
            l = n - k
            # (X + Y)^2k (X - Y)^2l by power of Y
            poly = [math.comb(2 * k, i) for i in range(2 * k + 1)]
            for _ in range(2 * l):
                poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
            for q, c in enumerate(poly):
                key = (abs(q - n), min(k, l))
                merged[key] = merged.get(key, 0) + (-1) ** l * c
        row = [[] for _ in range(n // 2 + 1)]
        for (h, k), c in sorted(merged.items()):
            if h % 2:
                assert c == 0, "an odd harmonic survived"
                continue
            for j, t in enumerate(cheb[h // 2]):
                if c * t:
                    row[j].append((k, n - h, c * t))
        rows.append(tuple(tuple(terms) for terms in row))
    return tuple(rows)


@functools.cache
def _far_rule_moments() -> tuple[dict, float, float]:
    """The moments M_kl of the tent rule at FAR_RULE, and M_00 as hi + lo.

    M_kl = 4 sum_ij ww_ij x_i^2k x_j^2l / ((2k)! (2l)!), over the weight
    products ww_ij that ``_far_kernel_unit`` forms, for k + l <= 6.
    """
    x, w = gauss_unit(FAR_RULE)
    tent = w * (1.0 - x)
    ww = (tent[:, None] * tent[None, :]).ravel().tolist()
    nodes = [(u, v) for u in x.tolist() for v in x.tolist()]
    fact = [math.factorial(2 * k) for k in range(_MULTIPOLE_TERMS + 1)]
    moment = {
        (k, l): 4.0 * math.fsum([c * u ** (2 * k) * v ** (2 * l)
                                 for c, (u, v) in zip(ww, nodes)])
        / (fact[k] * fact[l])
        for k in range(_MULTIPOLE_TERMS + 1)
        for l in range(_MULTIPOLE_TERMS + 1 - k)
    }
    lead = [4.0 * c for c in ww]
    high = math.fsum(lead)
    return moment, high, math.fsum([*lead, -high])


class _FarExpansion:
    """``_far_kernel_unit`` at order FAR_RULE, as its multipole expansion.

    K(a, b) = r^(2 gamma) sum_{n <= 6} rho^n P_n(c), with rho = 1/r^2 and
    c = cos 4 theta = (a^4 - 6 a^2 b^2 + b^4) / r^4, where each P_n, of
    degree n // 2, has the coefficients of ``_multipole_operator`` times
    the rule's moments (``_far_rule_moments``) and falling factorials
    (Greengard and Rokhlin, J. Comput. Phys. 73, 1987).  Each coefficient
    is one ``math.fsum`` of Python floats, once per s.  The leading one,
    M_00 = 4 sum ww, is kept as a sum of two floats: it is 1 + 2.37e-16,
    and rounded to 1 + 2^-52 it would bias every value by about a tenth
    of an ulp, enough to move a bench seminorm's last bit.  A value costs
    one ``np.float_power``, which has the same bits at every numpy SIMD
    level, and otherwise only + - * /, so it has those bits too.  Beyond
    |d|_inf = 16 it is within 1e-15 relative of the rule itself.
    """

    def __init__(self, s: float):
        moment, self.lead, self.lead_low = _far_rule_moments()
        self.power = -0.5 * (2.0 + s)
        falling = [1.0]
        for p in range(2 * _MULTIPOLE_TERMS):
            falling.append(falling[-1] * (self.power - p))
        # P_1 .. P_6; P_0 is the lead
        self.coefficients = tuple(
            tuple(math.fsum([c * moment[k, n - k] * (falling[p] * falling[2 * n - p])
                             for k, p, c in terms]) for terms in row)
            for n, row in enumerate(_multipole_operator()) if n)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """K at sorted magnitudes a >= b (floats), elementwise."""
        a2 = a * a
        b2 = b * b
        r2 = a2 + b2
        c = a2 - b2
        c *= c
        a2 *= b2
        a2 *= 4.0
        c -= a2  # a^4 - 6 a^2 b^2 + b^4
        np.multiply(r2, r2, out=b2)
        c /= b2
        rho = np.divide(1.0, r2)
        acc = np.zeros_like(rho)
        for poly in self.coefficients[::-1]:
            if len(poly) > 1:
                term = c * poly[-1]
                for d in poly[-2:0:-1]:
                    term += d
                    term *= c
                acc += term
            acc += poly[0]
            acc *= rho
        acc += self.lead_low
        acc += self.lead
        acc *= np.float_power(r2, self.power)
        return acc


def window_offsets(dim: int) -> list[tuple]:
    """All nonzero offsets with |offset|_inf <= CUTOFF, lexicographic."""
    side = range(-CUTOFF, CUTOFF + 1)
    if dim == 1:
        offsets = [(d,) for d in side]
    else:
        offsets = [(dx, dy) for dx in side for dy in side]
    del offsets[len(offsets) // 2]  # the zero offset, at the centre
    return offsets


def _finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class InteractionTable:
    """The pair kernel K(d): near-window integrals and the far expansion.

    ``entries`` maps every nonzero offset with |offset|_inf <= CUTOFF to
    its unit-lattice value, laid out by offset + CUTOFF in ``near_dense``
    when the table is made.  Offsets beyond take the far values, evaluated
    for each box by ``offset_kernel``, which joins the two.  A 2D table also
    fits the far rule's expansion and ``edge_arc``, the tail's edge arcs
    (``perimeter._EdgeArc``; None in 1D).  Nothing in a table changes
    once it is made, so threads share it.  The rules see only sorted
    magnitudes, so symmetry under sign flips and (dim 2) coordinate swaps
    holds bit for bit.  ``h`` only enters through the h^(dim-s) prefactor.
    """

    params: KernelParams
    h: float
    entries: dict

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("h must be positive and finite")
        from .perimeter import _EdgeArc

        # window_offsets is the C order of the window less its centre
        values = self._checked_values()
        half = values.size // 2
        near = np.insert(values, half, 0.0).reshape((2 * CUTOFF + 1,) * self.params.dim)
        near.setflags(write=False)
        object.__setattr__(self, "near_dense", near)
        for name, make in (("_expansion", _FarExpansion), ("edge_arc", _EdgeArc)):
            object.__setattr__(self, name,
                               make(self.params.s) if self.params.dim == 2 else None)

    def _checked_values(self) -> np.ndarray:
        """The entries' values in ``window_offsets`` order, checked.

        Raises ValueError naming the first key that is not an offset of the
        window, else the first offset of the window with no entry, else the
        first offset whose value is not a finite number.
        """
        offsets = window_offsets(self.params.dim)
        if self.entries.keys() != set(offsets):
            window = set(offsets)
            for key in self.entries:
                if key not in window:
                    raise ValueError(
                        f"table entry at {key!r} is not a nonzero "
                        f"{self.params.dim}D offset with |offset|_inf <= {CUTOFF}")
            missing = next(off for off in offsets if off not in self.entries)
            raise ValueError(f"table has no entry at offset {missing!r}")
        values = [self.entries[off] for off in offsets]
        try:
            checked = np.array(values, dtype=np.float64)
            if np.isfinite(checked).all():
                return checked
        except (TypeError, ValueError):  # a value that is not a number
            pass
        bad = next(off for off, v in zip(offsets, values) if not _finite(v))
        raise ValueError(
            f"table entry at {bad!r} is not a finite number: {self.entries[bad]!r}")

    @property
    def scale_factor(self) -> float:
        return self.h ** (self.params.dim - self.params.s)

    def check_grid(self, spec) -> None:
        """Raise GridMismatchError unless ``spec`` has this table's dim and h."""
        if self.params.dim != spec.dim or self.h != spec.h:
            raise GridMismatchError(
                f"table (dim={self.params.dim}, h={self.h}) does not match "
                f"grid (dim={spec.dim}, h={spec.h})"
            )

    def offset_kernel(self, shape) -> np.ndarray:
        """Unit pair values K[d + n - 1] for every offset d of a box of this shape.

        The near window fills the offsets within CUTOFF (clipped to the
        box) and the far values the rest; K is 0 at d = 0.  Far values are
        evaluated once per sorted offset magnitude and mirrored, so
        K(d) = K(-d) and K is symmetric under axis swaps bit for bit.
        """
        quad = self._far_quadrant(shape)
        k = quad[np.ix_(*(np.abs(np.arange(1 - n, n)) for n in shape))]
        w = [min(CUTOFF, n - 1) for n in shape]
        k[tuple(slice(n - 1 - wk, n + wk) for n, wk in zip(shape, w))] = (
            self.near_dense[tuple(slice(CUTOFF - wk, CUTOFF + wk + 1) for wk in w)]
        )
        return k

    def _far_quadrant(self, shape) -> np.ndarray:
        """The far values at every offset d >= 0 of a box of this shape.

        Offsets with |d|_inf <= CUTOFF, the table's window, are left 0.  In
        1D the far values are the exact series; in 2D each sorted pair
        a >= b beyond the window is evaluated once, by the expansion, in
        blocks of rows of about ``_EXPANSION_BLOCK`` entries; it is
        elementwise, so a value has the same bits in any box.
        """
        first = CUTOFF + 1
        if self.params.dim == 1:
            quad = np.zeros(shape)
            quad[first:] = _pair_values_1d(
                np.arange(first, shape[0], dtype=np.float64), self.params.s)
            return quad
        long, short = max(shape), min(shape)
        quad = np.zeros((long, short))
        # a block's columns run to its last row, so it holds every b <= a
        # of its rows and some b > a, which the mirror replaces
        edges = [*range(first, long, max(1, _EXPANSION_BLOCK // short)), long]
        for lo, hi in zip(edges, edges[1:]):
            a, b = np.meshgrid(np.arange(lo, hi, dtype=np.float64),
                               np.arange(min(hi, short), dtype=np.float64),
                               indexing="ij")
            quad[lo:hi, :a.shape[1]] = self._expansion(a, b)
        square = quad[:short]
        square[...] = np.tril(square) + np.triu(square.T, 1)
        return quad if shape[0] >= shape[1] else quad.T

    def with_h(self, h: float) -> "InteractionTable":
        """This table's unit-lattice values at cell size h."""
        return InteractionTable(self.params, h, self.entries)


def build_table(params: KernelParams, h: float = 1.0) -> InteractionTable:
    """Compute the near-window table; values come from ``_window_values``."""
    return InteractionTable(params, h, _window_values(params))
