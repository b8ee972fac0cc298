"""Small quadrature and counting helpers used by the numeric core."""

from __future__ import annotations

import functools

import numpy as np
from scipy import fft

from .errors import FracperimError


@functools.lru_cache(maxsize=32)
def gauss_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (0, 1)."""
    if n < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
        self._size: tuple[int, ...] | None = None
        self._spectrum: np.ndarray | None = None

    def spectrum(self, size: tuple[int, ...]) -> np.ndarray:
        if size != self._size:
            self._spectrum = fft.rfftn(self.array, size)
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
        fft.next_fast_len(max(hi, n - lo), real=True)
        for lo, hi, n in zip(start, stop, full)
    )


def convolve_window(a, b, start, stop) -> np.ndarray:
    """Outputs ``start[k] <= i < stop[k]`` of the full linear convolution a * b.

    ``a`` may be an FFTOperand, whose transform is reused; ``b`` is
    transformed afresh.  The FFT lengths are ``window_size``'s, and the
    inverse transform is pruned to the window axis by axis.
    """
    fa = a if isinstance(a, FFTOperand) else FFTOperand(a)
    b = np.asarray(b, dtype=np.float64)
    size = window_size(fa.array.shape, b.shape, start, stop)
    # in place, so at most two padded spectra are alive besides a's
    spec = fft.rfftn(b, size)
    spec *= fa.spectrum(size)
    # Invert one axis at a time, keeping only the window's part of each
    # axis once it is inverted, so later axes transform fewer lines.
    for axis in range(b.ndim - 1):
        spec = fft.ifft(spec, axis=axis, overwrite_x=True)
        spec = spec[(slice(None),) * axis + (slice(start[axis], stop[axis]),)]
    raw = fft.irfft(spec, size[-1], axis=-1)
    return raw[..., start[-1] : stop[-1]].copy()
