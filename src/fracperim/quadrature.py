"""Small quadrature and counting helpers used by the numeric core.

Convolutions take ``numpy.fft``, which transforms a strided axis one
line at a time, so every pass here runs along contiguous rows.  A 2D
spectrum is kept transposed, with shape ``(size[1] // 2 + 1, size[0])``:
the real transform runs along the operand's rows and is written,
transposed, into that zero-padded buffer, and the complex transform runs
along the buffer's rows.  The inverse complex transform runs along the
same rows, and only the window's columns are transposed back for the
last, real, inverse pass.  Both transposing passes go _BLOCK rows at a
time, so that a block's real transform and its transposed copy stay in
cache, where whole-array copies of the lift's 549 x 493 tables do not.
Every line sees the arithmetic it sees in ``scipy.fft.rfftn`` and its
inverses, so the bits are theirs.  The exact lattice counts
(``autocorrelation_counts``, ``box_counts``) are integers: the first
rounds its own transforms and checks their residual, the second takes no
transform at all.
"""

from __future__ import annotations

import functools

import numpy as np
# both at import, so that no op loads them on its first call
from numpy import fft
from numpy.polynomial.legendre import leggauss

from .errors import FracperimError


@functools.lru_cache(maxsize=32)
def gauss_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1)."""
    if n < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.lru_cache(maxsize=8)
def chebyshev_monomials(n: int) -> tuple[tuple[int, ...], ...]:
    """The integer coefficients of T_0 .. T_(n-1) by power: row j, entry k
    is the coefficient of u^k in T_j(u), from T_j = 2u T_(j-1) - T_(j-2)."""
    rows = [(1,), (0, 1)][:n]
    while len(rows) < n:
        twice = (0, *(2 * c for c in rows[-1]))
        rows.append(tuple(c - (rows[-2][k] if k < len(rows[-2]) else 0)
                          for k, c in enumerate(twice)))
    return tuple(rows)


COUNT_RESIDUAL_BOUND = 1e-3


def rounded_counts(raw: np.ndarray) -> np.ndarray:
    """Integer counts from a floating-point correlation of 0/1 arrays.

    Rounding is exact only while every value sits near an integer, so the
    largest distance to one is checked against COUNT_RESIDUAL_BOUND.
    """
    counts = np.rint(raw)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN, refused below
        gap = raw - counts
    residual = float(np.max(np.abs(gap, out=gap), initial=0.0))
    # not "residual >= bound": a NaN residual must be refused too
    if not residual < COUNT_RESIDUAL_BOUND:
        raise FracperimError(
            f"correlation rounding residual {residual:.3g} is not below "
            f"{COUNT_RESIDUAL_BOUND:g}; the counts are not exact"
        )
    return counts.astype(np.int64)


# rows per block of the passes that transpose a 2D spectrum
_BLOCK = 64


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n, a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two that brings it to n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _forward(a: np.ndarray, size: tuple[int, ...]) -> np.ndarray:
    """The real FFT of ``a`` cut or zero-padded to ``size``, 2D ones transposed.

    An operand longer than its FFT is cut, as ``scipy.fft.rfftn`` cuts
    it; ``window_size`` allows that only where the window never reads
    the cut part.
    """
    if a.ndim == 1:
        return fft.rfft(a, size[0])
    n0 = min(len(a), size[0])
    spec = np.empty((size[1] // 2 + 1, size[0]), dtype=np.complex128)
    spec[:, n0:] = 0.0
    for lo in range(0, n0, _BLOCK):
        hi = min(lo + _BLOCK, n0)
        spec[:, lo:hi] = fft.rfft(a[lo:hi], size[1], axis=-1).T
    return fft.fft(spec, axis=-1, out=spec)


class FFTOperand:
    """A convolution operand that keeps its real FFT for reuse.

    The transform is taken at the first padded size asked for and kept
    while later calls ask for the same size, so a fixed operand
    convolved with many others is transformed once.  Taking it is not
    locked: an operand that threads share must have its spectrum taken
    at the shared size (``window_size``) before any thread uses it, after
    which every call only reads it.
    """

    __slots__ = ("array", "_size", "_spectrum")

    def __init__(self, array) -> None:
        self.array = np.asarray(array, dtype=np.float64)
        if self.array.ndim not in (1, 2):
            raise ValueError("convolution operands must have rank 1 or 2")
        self._size: tuple[int, ...] | None = None
        self._spectrum: np.ndarray | None = None

    def spectrum(self, size: tuple[int, ...]) -> np.ndarray:
        if size != self._size:
            self._spectrum = _forward(self.array, size)
            self._size = size
        return self._spectrum


def window_size(a_shape, b_shape, start, stop) -> tuple[int, ...]:
    """FFT lengths of convolve_window for operands of these shapes.

    Per axis the smallest fast length L at which no output of the window
    is aliased, ``L >= max(stop, na + nb - 1 - start)``: a circular output
    i collects the linear outputs i + jL, and only j = 0 lies inside the
    support for every i of the window.
    """
    if not len(a_shape) == len(b_shape) == len(start) == len(stop):
        raise ValueError("operands and window must have the same rank")
    full = [na + nb - 1 for na, nb in zip(a_shape, b_shape)]
    if any(not 0 <= lo < hi <= n for lo, hi, n in zip(start, stop, full)):
        raise ValueError(f"window {start}..{stop} is outside the convolution {full}")
    return tuple(
        _fast_len(max(hi, n - lo)) for lo, hi, n in zip(start, stop, full)
    )


def convolve_window(a, b, start, stop) -> np.ndarray:
    """Outputs ``start[k] <= i < stop[k]`` of the full linear convolution a * b.

    ``a`` may be an FFTOperand, whose transform is reused; ``b`` is
    transformed afresh.  The FFT lengths are ``window_size``'s.  In 2D
    the inverse complex pass runs over the whole transposed spectrum and
    the real one over the window's rows only, a block at a time.
    """
    fa = a if isinstance(a, FFTOperand) else FFTOperand(a)
    b = np.asarray(b, dtype=np.float64)
    size = window_size(fa.array.shape, b.shape, start, stop)
    # in place, so at most two padded spectra are alive besides a's
    spec = _forward(b, size)
    spec *= fa.spectrum(size)
    if b.ndim == 1:
        return fft.irfft(spec, size[0])[start[0] : stop[0]].copy()
    fft.ifft(spec, axis=-1, out=spec)
    out = np.empty((stop[0] - start[0], stop[1] - start[1]))
    for lo in range(start[0], stop[0], _BLOCK):
        hi = min(lo + _BLOCK, stop[0])
        rows = fft.irfft(np.ascontiguousarray(spec[:, lo:hi].T), size[1], axis=-1)
        out[lo - start[0] : hi - start[0]] = rows[:, start[1] : stop[1]]
    return out


def autocorrelation_counts(occ: np.ndarray) -> np.ndarray:
    """``A[d + n - 1] = #{x : occ[x] and occ[x + d]}`` for every offset d of the box.

    One forward transform X of the 0/1 occupancy at the unaliased length
    ``2n - 1`` (rounded up to a fast length), and its power spectrum
    ``|X|^2``, which is real and even, squared in X's own buffer.  In 2D
    the complex inverse pass along axis 0 of that real array is a real
    forward transform, whose column j is the inverse at d_0 = -j, so only
    the half-space d_0 <= 0 is written out, by a real inverse pass over
    its rows, a block at a time.  That half is rounded and checked
    (``rounded_counts``) and mirrored into the other by ``A(-d) = A(d)``.
    """
    a = np.asarray(occ, dtype=np.float64)
    n = a.shape
    size = tuple(_fast_len(2 * k - 1) for k in n)
    parts = _forward(a, size).view(np.float64)
    np.square(parts, out=parts)
    power = parts[..., 0::2]
    power += parts[..., 1::2]
    if a.ndim == 1:
        half = rounded_counts(fft.irfft(power, size[0])[: n[0]])
        return np.concatenate([half[:0:-1], half])
    cols = fft.rfft(power, axis=-1, norm="forward")
    del parts, power  # X's buffer is free before the inverse takes its own
    # low[j, d_1 + n_1 - 1] = A(-j, d_1)
    low = np.empty((n[0], 2 * n[1] - 1))
    for lo in range(0, n[0], _BLOCK):
        hi = min(lo + _BLOCK, n[0])
        rows = fft.irfft(np.ascontiguousarray(cols[:, lo:hi].T), size[1], axis=-1)
        low[lo:hi, : n[1] - 1] = rows[:, size[1] - n[1] + 1 :]
        low[lo:hi, n[1] - 1 :] = rows[:, : n[1]]
    low = rounded_counts(low)
    return np.concatenate([low[::-1], low[1:, ::-1]])


def box_counts(occ: np.ndarray) -> np.ndarray:
    """``B[d + n - 1] = #{x : occ[x] and x + d inside the box}`` for every offset d.

    Exact integers from prefix sums, one axis at a time: a cell x of a
    row of n counts at offset d >= 0 while x < n - d, a prefix, and at
    d < 0 while x >= -d, a suffix.  So the offsets d < 0 of an axis take
    the sums over its reversed rows and the offsets d >= 0 the reversed
    sums over its rows; both write the total at d = 0.
    """
    b = np.asarray(occ)
    for axis in range(b.ndim):
        m = b.shape[axis]
        out = np.empty(b.shape[:axis] + (2 * m - 1,) + b.shape[axis + 1:], np.int64)
        v, o = np.moveaxis(b, axis, 0), np.moveaxis(out, axis, 0)
        np.cumsum(v[::-1], axis=0, dtype=np.int64, out=o[:m])
        np.cumsum(v, axis=0, dtype=np.int64, out=o[m - 1:][::-1])
        b = out
    return b
