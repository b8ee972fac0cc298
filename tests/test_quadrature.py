"""The windowed FFT convolution against direct sums, and the exact lattice counts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import fft, signal

from fracperim.errors import FracperimError
from fracperim.quadrature import (
    FFTOperand,
    _fast_len,
    autocorrelation_counts,
    box_counts,
    convolve_window,
    rounded_counts,
)
from oracles import complement_pair_counts


def direct_full(a, b):
    return signal.convolve(a, b, mode="full", method="direct")


@pytest.mark.parametrize(
    "na,nb,start,stop",
    [
        ((7,), (13,), (6,), (13,)),  # the lift's central window
        ((9,), (5,), (0,), (13,)),  # the whole convolution
        ((8,), (3,), (2,), (4,)),
        ((8,), (8,), (2,), (4,)),  # aliased below length 13
        ((6, 5), (11, 9), (5, 4), (11, 9)),
        ((4, 7), (3, 3), (0, 0), (6, 9)),
        ((5, 6), (4, 2), (1, 3), (7, 5)),
        ((6, 5), (6, 5), (1, 1), (3, 3)),
    ],
)
def test_window_matches_direct_convolution(na, nb, start, stop):
    rng = np.random.default_rng(3)
    a = rng.random(na)
    b = rng.random(nb)
    want = direct_full(a, b)[tuple(slice(lo, hi) for lo, hi in zip(start, stop))]
    got = convolve_window(a, b, start, stop)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13


def test_reused_operand_gives_the_same_bits():
    rng = np.random.default_rng(5)
    a = rng.random((9, 8))
    op = FFTOperand(a)
    # the central window twice, then the whole convolution (a longer FFT)
    for start, stop in (((8, 7), (17, 15)), ((8, 7), (17, 15)), ((0, 0), (25, 22))):
        b = rng.random((17, 15))
        fresh = convolve_window(a, b, start, stop)
        assert np.array_equal(convolve_window(op, b, start, stop), fresh)


def test_window_outside_the_convolution_is_refused():
    a, b = np.ones(4), np.ones(3)
    for start, stop in (((0,), (7,)), ((-1,), (3,)), ((3,), (3,))):
        with pytest.raises(ValueError, match="window"):
            convolve_window(a, b, start, stop)
    with pytest.raises(ValueError, match="rank"):
        convolve_window(a, np.ones((3, 3)), (0,), (6,))
    with pytest.raises(ValueError, match="rank 1 or 2"):
        convolve_window(np.ones((2, 2, 2)), np.ones((2, 2, 2)), (0,) * 3, (3,) * 3)


def scipy_convolve_window(a, b, start, stop):
    # the scipy.fft path that numpy.fft's contiguous passes replaced: their
    # bits must be its bits
    full = [na + nb - 1 for na, nb in zip(a.shape, b.shape)]
    size = tuple(
        fft.next_fast_len(max(hi, n - lo), real=True)
        for lo, hi, n in zip(start, stop, full)
    )
    spec = fft.rfftn(b, size)
    spec *= fft.rfftn(a, size)
    for axis in range(b.ndim - 1):
        spec = fft.ifft(spec, axis=axis, overwrite_x=True)
        spec = spec[(slice(None),) * axis + (slice(start[axis], stop[axis]),)]
    raw = fft.irfft(spec, size[-1], axis=-1)
    return raw[..., start[-1] : stop[-1]].copy()


def test_fast_len_is_scipys_real_next_fast_len():
    for n in range(1, 2**16 + 1):
        assert _fast_len(n) == fft.next_fast_len(n, real=True), n


@pytest.mark.parametrize(
    "na,nb,start,stop",
    [
        # FFT lengths in the comments
        ((7,), (13,), (6,), (13,)),  # 15
        ((8,), (9,), (0,), (16,)),  # 16
        ((54,), (3,), (40,), (45,)),  # 45: the operand is cut to it
        ((9, 8), (17, 15), (8, 7), (17, 15)),  # 18 x 15, the lift's window
        ((9, 8), (17, 15), (0, 0), (25, 22)),  # 25 x 24
        ((7, 5), (9, 5), (0, 0), (15, 9)),  # 15 x 9
        ((16, 12), (12, 16), (3, 2), (20, 27)),  # 24 x 27
        ((5, 6), (4, 2), (1, 3), (7, 5)),  # 8 x 5
        ((60, 7), (3, 5), (40, 0), (45, 11)),  # 45 x 12: rows cut to 45
        ((150, 9), (140, 11), (20, 3), (270, 17)),  # 270 x 18: 64-row blocks
    ],
)
def test_window_has_the_bits_of_the_scipy_path(na, nb, start, stop):
    rng = np.random.default_rng(11)
    for a in (rng.random(na), (rng.random(na) < 0.5).astype(np.float64)):
        b = rng.random(nb)
        want = scipy_convolve_window(a, b, start, stop)
        assert np.array_equal(convolve_window(a, b, start, stop), want)
        op = FFTOperand(a)
        for _ in range(2):  # the spectrum is taken, then read
            assert np.array_equal(convolve_window(op, b, start, stop), want)


def _hollow(n0, n1):
    occ = np.ones((n0, n1), dtype=bool)
    occ[1:-1, 1:-1] = False
    return occ


_OCCUPANCIES = st.one_of(
    arrays(bool, st.tuples(st.integers(1, 40))),
    arrays(bool, st.tuples(st.integers(1, 14), st.integers(1, 14))),
)


@settings(max_examples=150, deadline=None)
@given(_OCCUPANCIES)
@example(np.ones((1, 1), dtype=bool))
@example(np.ones(1, dtype=bool))
@example(np.array([[True, False, True, True, False, True, True]]))
@example(np.array([[True], [True], [False], [True], [False]]))
@example(np.ones((5, 9), dtype=bool))
@example(np.ones(13, dtype=bool))
@example(_hollow(6, 8))
@example(_hollow(3, 3))
@example(np.zeros((4, 3), dtype=bool))
def test_pair_counts_are_the_complement_correlation(occ):
    # R = B - A, the complement correlation the perimeter sums K against
    a = autocorrelation_counts(occ)
    b = box_counts(occ)
    full = tuple(2 * n - 1 for n in occ.shape)
    assert a.shape == b.shape == full
    assert a.dtype == b.dtype == np.int64
    assert np.array_equal(b - a, complement_pair_counts(occ))
    # A(-d) = A(d), and A(0) and B(0) both count the cells
    assert np.array_equal(a, np.flip(a))
    centre = tuple(n - 1 for n in occ.shape)
    assert a[centre] == b[centre] == np.count_nonzero(occ)


def test_pair_counts_of_a_box_at_fast_and_slow_lengths():
    # a 64-row block edge and FFT lengths that are not powers of two
    for shape in ((70, 3), (3, 70), (129, 41), (41, 129)):
        occ = np.random.default_rng(sum(shape)).random(shape) < 0.6
        assert np.array_equal(box_counts(occ) - autocorrelation_counts(occ),
                              complement_pair_counts(occ))


def test_rounded_counts_refuses_nan_and_inf():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(FracperimError, match="residual"):
            rounded_counts(np.array([1.0, bad]))
