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
inverses, so the bits are theirs.
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
    residual = float(np.max(np.abs(raw - counts), initial=0.0))
    if residual >= COUNT_RESIDUAL_BOUND:
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
