"""The windowed FFT convolution against direct sums."""

import numpy as np
import pytest
from scipy import signal

from fracperim.quadrature import FFTOperand, convolve_window


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
