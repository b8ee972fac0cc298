import math
import re

import numpy as np
import pytest
from scipy import integrate

from fracperim.kernels import (
    DEFAULT_CUTOFF,
    FAR_RULE,
    InteractionTable,
    KernelParams,
    _FarExpansion,
    _far_kernel_unit,
    _multipole_operator,
    build_table,
)
from oracles import cell_pair_integral, pair_1d, touching_pair

# frozen from the 1D antiderivative: values double-checked by hand
PAIR_1D_D1 = 4.0 * (2.0 - math.sqrt(2.0))  # 2.3431457505076194
PAIR_1D_D10 = 4.0 * (2.0 * math.sqrt(10.0) - 3.0 - math.sqrt(11.0))


def test_params_validation():
    with pytest.raises(ValueError):
        KernelParams(3, 0.5)
    with pytest.raises(ValueError):
        KernelParams(1, 0.0)
    with pytest.raises(ValueError):
        KernelParams(2, 1.0)


def test_1d_closed_form_values():
    p = KernelParams(1, 0.5)
    assert cell_pair_integral((1,), p, 1.0) == pytest.approx(PAIR_1D_D1, rel=1e-15)
    assert cell_pair_integral((10,), p, 1.0) == pytest.approx(PAIR_1D_D10, rel=1e-14)
    # sign symmetry
    assert cell_pair_integral((-7,), p, 1.0) == cell_pair_integral((7,), p, 1.0)


def test_1d_midpoint_agreement_at_distance():
    # at d=10 the midpoint value h^2 d^-(1+s) is already within half a percent
    p = KernelParams(1, 0.5)
    exact = cell_pair_integral((10,), p, 1.0)
    midpoint = 10.0 ** -(1.5)
    assert abs(midpoint - exact) / exact < 5e-3


def test_scaling_is_exact():
    # a table at h = 2 holds the unit values and scales them by h^(dim - s)
    for params, off in [(KernelParams(1, 0.3), (4,)), (KernelParams(2, 0.7), (3, 1))]:
        v1 = cell_pair_integral(off, params, 1.0)
        tab = build_table(params, h=2.0)
        assert tab.entries[off] == v1
        assert tab.entries[off] * tab.scale_factor == 2.0 ** (params.dim - params.s) * v1


def nquad_pair_2d(a, b, s):
    # independent reference: 4d integral reduced to the 2d tent form
    alpha = 2.0 + s

    def f(w1, w2):
        return (w1 * w1 + w2 * w2) ** (-alpha / 2) * (1 - abs(w1 - a)) * (
            1 - abs(w2 - b)
        )

    val, err = integrate.nquad(
        f,
        [[a - 1, a + 1], [b - 1, b + 1]],
        opts={"limit": 200, "epsabs": 1e-12, "epsrel": 1e-12},
    )
    return val


@pytest.mark.parametrize("offset", [(2, 0), (2, 2), (3, 1), (5, 4), (16, 16)])
def test_2d_separated_against_quadrature(offset):
    p = KernelParams(2, 0.5)
    ref = nquad_pair_2d(offset[0], offset[1], 0.5)
    assert cell_pair_integral(offset, p, 1.0) == pytest.approx(ref, rel=1e-10)


def test_2d_touching_against_quadrature():
    # the (1,0) and (1,1) entries carry the integrable singularity
    p = KernelParams(2, 0.5)
    for off in [(1, 0), (1, 1)]:
        def f(w1, w2, a=off[0], b=off[1]):
            return (w1 * w1 + w2 * w2) ** (-1.25) * (1 - abs(w1 - a)) * (
                1 - abs(w2 - b)
            )

        ref, _ = integrate.nquad(
            f,
            [[off[0] - 1, off[0] + 1], [off[1] - 1, off[1] + 1]],
            opts=[
                {"points": [0.0], "limit": 200},
                {"points": [0.0], "limit": 200},
            ],
        )
        assert cell_pair_integral(off, p, 1.0) == pytest.approx(ref, rel=1e-9)


# pinned once from the dyadic-corner scheme after cross-validation against
# adaptive quadrature (worst case 3e-13 relative, including s near 0 and 1)
_FROZEN_TOUCHING = {
    0.01: (1.8671581298303077, 0.6545221691129948),
    0.25: (2.4264756187395373, 0.6576135314422308),
    0.75: (7.497661167067116, 0.7165415435648944),
    0.99: (199.293296584047, 0.789060177537509),
}


@pytest.mark.parametrize("s", sorted(_FROZEN_TOUCHING))
def test_2d_touching_frozen_regression(s):
    p = KernelParams(2, s)
    edge, corner = _FROZEN_TOUCHING[s]
    assert cell_pair_integral((1, 0), p, 1.0) == pytest.approx(edge, rel=1e-12)
    assert cell_pair_integral((1, 1), p, 1.0) == pytest.approx(corner, rel=1e-12)


# float.hex of the touching pairs (1, 0) and (1, 1) at _FROZEN_TOUCHING's s,
# pinned under numpy 2.4.6 and scipy 1.17.1
_PIN_VERSIONS = ("2.4.6", "1.17.1")
_TOUCHING_PINS = {
    0.01: ("0x1.ddfe134014ea1p+0", "0x1.4f1d879db1d06p-1"),
    0.25: ("0x1.3696c0c9838b0p+1", "0x1.50b2b885e7244p-1"),
    0.75: ("0x1.dfd9ae3942be9p+2", "0x1.6ede887fac546p-1"),
    0.99: ("0x1.8e962af849367p+7", "0x1.93ffb21232f96p-1"),
}


@pytest.mark.parametrize("s", sorted(_FROZEN_TOUCHING))
def test_touching_pairs_keep_their_pinned_bits(s):
    import scipy

    p = KernelParams(2, s)
    got = [cell_pair_integral(off, p, 1.0) for off in ((1, 0), (1, 1))]
    if (np.__version__, scipy.__version__) == _PIN_VERSIONS:
        assert [v.hex() for v in got] == list(_TOUCHING_PINS[s])
    else:
        print(f"numpy {np.__version__} / scipy {scipy.__version__} are not the "
              f"pinned {_PIN_VERSIONS}: comparing at 1e-13 relative")
        want = [float.fromhex(v) for v in _TOUCHING_PINS[s]]
        assert got == pytest.approx(want, rel=1e-13)


# s from near 0 to near 1, where a plain rule cancels or the pair blows up
_EXACT_S = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.95, 0.99)


@pytest.mark.parametrize("s", _EXACT_S)
def test_touching_pairs_are_exact_to_rounding(s):
    # the boundary identity against the tent form in mpmath; the corner
    # rule before it was off by up to 1.1e-13 at s = 0.99
    p = KernelParams(2, s)
    for b in (0, 1):
        want = float(touching_pair(b, s))
        got = cell_pair_integral((1, b), p, 1.0)
        assert abs(got - want) <= 2e-15 * want, (b, got, want)


@pytest.mark.parametrize("s", _EXACT_S)
def test_1d_pair_is_exact_to_rounding_at_any_distance(s):
    # the closed form lost about 2 log10(d) digits: 1e-5 at d = 60000
    d = np.array([[2], [3], [10], [1000], [60000], [2**20]])
    got = _far_kernel_unit(d, KernelParams(1, s), FAR_RULE)
    for (dist,), value in zip(d.tolist(), got.tolist()):
        want = float(pair_1d(dist, s))
        assert abs(value - want) <= 2e-15 * want, (dist, value, want)


def _expansion_at(params, offsets):
    # the far rule's multipole expansion at sorted magnitudes a >= b
    mags = np.sort(np.abs(np.asarray(offsets, dtype=np.float64)), axis=1)
    return _FarExpansion(params.s)(mags[:, 1], mags[:, 0])


def test_beyond_the_cutoff_pairs_take_order_20_and_kernels_far_rule():
    # a single pair integral is the tent rule at order 20 at every offset
    # beyond the touching ones; the table's offset kernel holds the
    # multipole expansion of the rule at FAR_RULE beyond |d|_inf = 16,
    # within 1e-15 of the rule but not always its bits
    params = KernelParams(2, 0.5)
    table = build_table(params)
    shape = (40, 21)
    k = table.offset_kernel(shape)
    offsets = [(17, 0), (-17, 17), (24, -3), (3, 20), (-39, -20)]
    expansion = _expansion_at(params, offsets)
    for off, want in zip(offsets, expansion):
        assert max(map(abs, off)) > DEFAULT_CUTOFF
        single = cell_pair_integral(off, params, 1.0)
        assert single == _far_kernel_unit([off], params, 20)[0], off
        far = k[off[0] + shape[0] - 1, off[1] + shape[1] - 1]
        assert far == want, off
        rule = _far_kernel_unit([off], params, FAR_RULE)[0]
        assert abs(far - rule) <= 1e-15 * rule, off
    # the two orders differ there, so the check tells them apart
    assert k[17 + 39, 20] != cell_pair_integral((17, 0), params, 1.0)


def test_far_memo_takes_the_rule_itself_up_to_16():
    # a table whose cutoff is below 16 reads the rule itself there, and
    # the expansion only beyond
    params = KernelParams(2, 0.3)
    table = build_table(params, cutoff=3)
    shape = (30, 30)
    k = table.offset_kernel(shape)
    rule_offsets = [(4, 0), (5, -2), (16, 16), (-16, 9)]
    for off in rule_offsets:
        got = k[off[0] + shape[0] - 1, off[1] + shape[1] - 1]
        assert got == _far_kernel_unit([off], params, FAR_RULE)[0], off
    far_offsets = [(17, 0), (17, 17), (-29, 3)]
    got = [k[a + shape[0] - 1, b + shape[1] - 1] for a, b in far_offsets]
    assert got == _expansion_at(params, far_offsets).tolist()


@pytest.mark.parametrize("s", [0.01, 0.05, 0.5, 0.95, 0.99])
def test_far_expansion_is_the_rule_to_rounding(s):
    # 20k offsets per band of |d|_inf; the largest gap seen was 8.9e-16
    params = KernelParams(2, s)
    rng = np.random.default_rng(int(s * 100))
    for lo, hi in ((17, 24), (24, 48), (48, 2000)):
        a = rng.integers(lo, hi + 1, 20000)
        b = rng.integers(0, a + 1)
        offsets = np.stack([a, b], axis=1)
        got = _expansion_at(params, offsets)
        rule = _far_kernel_unit(offsets, params, FAR_RULE)
        assert np.max(np.abs(got - rule) / rule) <= 1e-15, (lo, hi)


def test_far_expansion_operator_is_built_in_integers():
    # every odd harmonic cancels exactly, and the coefficients at degree
    # 2n are integers that the per-s coefficients only scale
    rows = _multipole_operator()
    assert [len(row) for row in rows] == [1, 1, 2, 2, 3, 3, 4]
    # n = 1: d_a^2 + d_b^2 = 4 X Y, the Laplacian, with no cos 4 theta part
    assert rows[1] == (((0, 1, 4),),)
    for row in rows:
        for terms in row:
            assert all(isinstance(c, int) and c for _, _, c in terms)


def test_table_symmetry_classes():
    tab = build_table(KernelParams(2, 0.5), cutoff=4)
    assert tab.entries[(1, 0)] == tab.entries[(0, 1)]
    assert tab.entries[(1, 0)] == tab.entries[(-1, 0)]
    assert tab.entries[(3, 2)] == tab.entries[(-2, 3)] == tab.entries[(2, -3)]
    assert all(v > 0 for v in tab.entries.values())
    assert len(tab.entries) == (2 * 4 + 1) ** 2 - 1


@pytest.mark.parametrize("dim,s", [(1, 0.3), (2, 0.05), (2, 0.5), (2, 0.95)])
def test_table_entries_are_the_single_pair_rule(dim, s):
    # one rule: every window entry is exactly what cell_pair_integral gives
    params = KernelParams(dim, s)
    tab = build_table(params)
    for off, val in tab.entries.items():
        assert val == cell_pair_integral(off, params, 1.0), off


def _edited_entries(edit):
    entries = dict(build_table(KernelParams(1, 0.5), cutoff=2).entries)
    edit(entries)
    return entries


@pytest.mark.parametrize("edit,named", [
    # an offset beyond the cutoff on either side, in place of (2,)
    (lambda e: (e.pop((2,)), e.update({(-3,): 99.0})), "(-3,)"),
    (lambda e: (e.pop((2,)), e.update({(3,): 99.0})), "(3,)"),
    (lambda e: e.pop((1,)), "no entry at offset (1,)"),
    (lambda e: e.update({(1, 0): 1.0}), "(1, 0)"),
    (lambda e: e.update({(-1,): math.inf}), "(-1,) is not a finite number"),
    (lambda e: e.update({(2,): math.nan}), "(2,) is not a finite number"),
], ids=["beyond-negative", "beyond-positive", "missing", "wrong-dim", "inf", "nan"])
def test_table_refuses_entries_that_are_not_its_window(edit, named):
    with pytest.raises(ValueError) as err:
        InteractionTable(KernelParams(1, 0.5), 1.0, 2, _edited_entries(edit))
    assert named in str(err.value)


def test_table_lays_out_entries_given_in_any_order():
    tab = build_table(KernelParams(2, 0.35), cutoff=3)
    shuffled = dict(reversed(tab.entries.items()))
    again = InteractionTable(tab.params, tab.h, 3, shuffled)
    assert np.array_equal(again.near_dense, tab.near_dense)
    for (dx, dy), value in tab.entries.items():
        assert tab.near_dense[dx + 3, dy + 3] == value
    assert tab.near_dense[3, 3] == 0.0


def test_table_matches_1d_closed_form():
    tab = build_table(KernelParams(1, 0.5), cutoff=16)
    for d in range(1, 17):
        exact = cell_pair_integral((d,), KernelParams(1, 0.5), 1.0)
        assert tab.entries[(d,)] == pytest.approx(exact, rel=1e-12)


def test_far_rule_accuracy_outside_cutoff():
    p = KernelParams(2, 0.5)
    offsets = np.array([(17, 0), (17, 17), (24, 3), (40, 0)])
    approx = _far_kernel_unit(offsets, p, 3)
    for row, off in enumerate(offsets):
        exact = cell_pair_integral(tuple(off), p, 1.0)
        assert abs(approx[row] - exact) / exact < 1e-8


@pytest.mark.parametrize(
    "dim,offsets,named",
    [
        (2, [(1, 0)], "(1, 0)"),
        (2, [(2, 0), (1, 1)], "(1, 1)"),
        (2, [(0, 0)], "(0, 0)"),
        (2, [(5, 3), (0, -1), (1, 0)], "(0, -1)"),
        (1, [(0,)], "(0,)"),
        (1, [(3,), (0,)], "(0,)"),
    ],
)
def test_far_rule_refuses_offsets_where_it_is_singular(dim, offsets, named):
    # the tent rule needs |d|_inf >= 2 in 2D, the closed form d != 0 in 1D;
    # before, (1, 0) gave 2.948 against the pair integral 3.647 and (0, 0)
    # a finite 26.9, and (0,) a nan with a warning
    with pytest.raises(ValueError, match=re.escape(named)):
        _far_kernel_unit(np.array(offsets), KernelParams(dim, 0.5), 3)


def test_far_rule_1d_is_closed_form():
    p = KernelParams(1, 0.5)
    vals = _far_kernel_unit(np.array([[17], [-40]]), p, 3)
    assert vals[0] == cell_pair_integral((17,), p, 1.0)
    assert vals[1] == cell_pair_integral((40,), p, 1.0)
