"""Small quadrature and counting helpers used by the numeric core."""

from __future__ import annotations

import functools

import numpy as np

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
