"""Bit pins of the per-value evaluators: the tent rule and its multipole
expansion, Phi, the edge-arc fit and the near window of a built table.

float.hex taken under numpy 2.4.6 / scipy 1.17.1; under other versions
the values are compared at 1e-13 relative and the test says so.  The
evaluators are batched array passes; the plain loop forms at the end of
this file do the same floating-point operations in the same order one
quadrant, arc or term at a time, and must give the same bits on many
more inputs than the pins name.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import fracperim
from fracperim.kernels import KernelParams, _far_kernel_unit, build_table
from fracperim.perimeter import (
    _SERIES_TERMS,
    _EdgeArc,
    _complement_rest,
    _lower_rest,
    _phi,
    single_cell_perimeter,
)
from fracperim.quadrature import gauss_unit
from oracles import cell_pair_integral

_PIN_VERSIONS = ("2.4.6", "1.17.1")
_S = (0.05, 0.5, 0.95)
# (2, 0) and (2, 2) are the nearest offsets of the tent rule, (16, 16) the
# window's corner, (17, 0) the first far offset
_FAR_OFFSETS = ((2, 0), (2, 2), (16, 16), (17, 0), (40, 13), (300, 299))
# (p, q) with q < p, q > p and p == q
_PHI_SLOTS = ((0, 0), (1, 0), (0, 1), (3, 3), (5, 2), (2, 5), (40, 7), (7, 40),
              (300, 1), (1, 300), (200, 200))

_FAR_PINS = {
    (0.05, 3): (
        "0x1.0f608e66fb9fap-2", "0x1.fdad89b793592p-4", "0x1.b65d601aff3d2p-10",
        "0x1.8a1be38c32e26p-9", "0x1.ebc5f1fd8347fp-12", "0x1.14722ab5065aep-18",
    ),
    (0.05, 20): (
        "0x1.0f542d507d8a0p-2", "0x1.fdaf27e859620p-4", "0x1.b65d601b35954p-10",
        "0x1.8a1be389021d0p-9", "0x1.ebc5f1fd80de9p-12", "0x1.14722ab5065adp-18",
    ),
    (0.5, 3): (
        "0x1.a07e6de5ee972p-3", "0x1.46e328021ef04p-4", "0x1.aefa4c1aab644p-12",
        "0x1.b8ca0ae5315f0p-11", "0x1.6db3db61a93bfp-14", "0x1.22d132995e8c0p-22",
    ),
    (0.5, 20): (
        "0x1.a055497c61770p-3", "0x1.46e4ee88defecp-4", "0x1.aefa4c1b0b32fp-12",
        "0x1.b8ca0ade00f6bp-11", "0x1.6db3db61a58b4p-14", "0x1.22d132995e8bep-22",
    ),
    (0.95, 3): (
        "0x1.42dd03f84f580p-3", "0x1.a56f7adfc130ep-5", "0x1.a7be415c28406p-14",
        "0x1.ed0e679e61866p-13", "0x1.0ff4dc85e5785p-16", "0x1.31ef7ff9bcd5ap-26",
    ),
    (0.95, 20): (
        "0x1.429f66018d476p-3", "0x1.a5730de1a3eeap-5", "0x1.a7be415cc30b0p-14",
        "0x1.ed0e678f8ba4fp-13", "0x1.0ff4dc85e04fcp-16", "0x1.31ef7ff9bcd58p-26",
    ),
}
# the far rule's multipole expansion at the offsets of _FAR_OFFSETS beyond
# |d|_inf = 16; some share the rule's bits, some are an ulp off
_EXPANSION_PINS = {
    0.05: ("0x1.8a1be38c32e28p-9", "0x1.ebc5f1fd8347fp-12", "0x1.14722ab5065aep-18"),
    0.5: ("0x1.b8ca0ae5315f1p-11", "0x1.6db3db61a93bfp-14", "0x1.22d132995e8bfp-22"),
    0.95: ("0x1.ed0e679e61866p-13", "0x1.0ff4dc85e5784p-16", "0x1.31ef7ff9bcd5bp-26"),
}
_PHI_PINS = {
    0.05: (
        "0x1.a82a9d10b1881p-1", "0x1.42858332a2262p-2", "0x1.4be65520f8caep+0",
        "0x1.77bfb5f5cd2a2p-1", "0x1.909a71f3904cep-2", "0x1.145d17682390ap+0",
        "0x1.3790fda26c93bp-3", "0x1.3a7c59f6f3288p+0", "0x1.ebe1c1b7bc972p-9",
        "0x1.7c7a3d3b38198p+0", "0x1.32cf8d27cabc3p-1",
    ),
    0.5: (
        "0x1.784e24ebd423ap+0", "0x1.1023de8e56dc8p-2", "0x1.fdeeda5c4f4d2p+0",
        "0x1.98d6d27523a99p-2", "0x1.6f7a0f05e2260p-3", "0x1.4a26a0410a54fp-1",
        "0x1.d61d5f1d1cfabp-6", "0x1.acbd447cf9e67p-2", "0x1.2df08f481a78cp-12",
        "0x1.fc1930c3bcf8cp-1", "0x1.ae9be316e61b8p-5",
    ),
    0.95: (
        "0x1.8d92bcd6a5fcdp+1", "0x1.cebed2bac3c94p-3", "0x1.debf70fd5471ep+1",
        "0x1.be472f609b288p-3", "0x1.51521c4ce7fb3p-4", "0x1.8fcc545e292a9p-2",
        "0x1.62ad788fc8844p-8", "0x1.2d885ac4bf971p-3", "0x1.72b0608bde932p-16",
        "0x1.6ec5d1cad7ab0p-1", "0x1.2ec95e100ef68p-8",
    ),
}
# (full, lower coefficients, complement coefficients)
_ARC_PINS = {
    0.05: (
        "0x1.84cfc0897f556p+0",
        (
            "0x1.736919d9ef3b3p-3", "0x1.9cda75cb886e7p-6", "0x1.3d5a95d7813abp-9",
            "0x1.1cdadce6eda73p-12", "0x1.17e27fda52cd7p-15", "0x1.23ba84c84d333p-18",
            "0x1.3cf501419cccdp-21", "0x1.631bf748f3334p-24", "0x1.975e642eccccdp-27",
            "0x1.dc28551b33334p-30", "0x1.1a8bfcb333333p-32", "0x1.5391f46666667p-35",
            "0x1.9c72b055efb08p-38", "0x1.f982600000000p-41", "0x1.3834ccccccccdp-43",
            "0x1.83e0000000000p-46", "0x1.e3ccccccccccdp-49", "0x1.27ccccccccccdp-51",
            "0x1.4e66666666667p-54", "-0x1.199999999999ap-58",
        ),
        (
            "0x1.81e6edd325699p-3", "0x1.b7d7a0a62a402p-6", "0x1.56cac0bb55d77p-9",
            "0x1.368f94201e654p-12", "0x1.33445f68f6d8dp-15", "0x1.4209f7b37eccdp-18",
            "0x1.5f7c6b9d94ccdp-21", "0x1.8b52eb5086667p-24", "0x1.c708527800000p-27",
            "0x1.0aba753266667p-29", "0x1.3d64a74cccccdp-32", "0x1.7e5f14e666667p-35",
            "0x1.d175a9083d635p-38", "0x1.1dd2066666667p-40", "0x1.61b6333333334p-43",
            "0x1.b84cccccccccdp-46", "0x1.129999999999ap-48", "0x1.50e6666666667p-51",
            "0x1.8666666666667p-54", "-0x1.ccccccccccccdp-59",
        ),
    ),
    0.5: (
        "0x1.32b95184360ccp+0",
        (
            "0x1.7e3d3ab8c15d8p-4", "0x1.631f6fcd6fa53p-7", "0x1.ec0b979321f75p-11",
            "0x1.9aad692e1139ap-14", "0x1.7da788e12c645p-17", "0x1.7c4bcd10fcccdp-20",
            "0x1.8de42e7e26667p-23", "0x1.af9060d0ccccdp-26", "0x1.e1346a6666667p-29",
            "0x1.1235cd9666667p-31", "0x1.3e1a5c0000000p-34", "0x1.7678ac0000000p-37",
            "0x1.be4a53212fe52p-40", "0x1.0cbf533333333p-42", "0x1.4696666666667p-45",
            "0x1.8f66666666667p-48", "0x1.e900000000000p-51", "0x1.1fccccccccccdp-53",
            "0x1.5333333333334p-56", "-0x1.599999999999ap-57",
        ),
        (
            "0x1.52f4b58541f7dp-3", "0x1.978ffcc9b6f96p-6", "0x1.45110a18c66d2p-9",
            "0x1.2a40802c9f437p-12", "0x1.296dc08f216a9p-15", "0x1.3967e928a1667p-18",
            "0x1.576436a36599ap-21", "0x1.835988d7a6667p-24", "0x1.bedef818ccccdp-27",
            "0x1.066c3a42ccccdp-29", "0x1.38bc8f999999ap-32", "0x1.793b106666667p-35",
            "0x1.cbaf7ef18dccap-38", "0x1.1a87700000000p-40", "0x1.5dea000000000p-43",
            "0x1.b3f3333333334p-46", "0x1.10b3333333333p-48", "0x1.51ccccccccccdp-51",
            "0x1.9000000000000p-54", "0x0.0p+0",
        ),
    ),
    0.95: (
        "0x1.04044c0e26009p+0",
        (
            "0x1.2b2f1a00ed5f7p-7", "0x1.c196753677c2fp-11", "0x1.15e1c8814c78fp-14",
            "0x1.ad3818b67c1b4p-18", "0x1.7831d9e2f74fap-21", "0x1.65ad98a7d4ccdp-24",
            "0x1.67e462a4c3334p-27", "0x1.79846c071999ap-30", "0x1.98d4a3899999ap-33",
            "0x1.c6062cbcccccdp-36", "0x1.014b0cccccccdp-38", "0x1.288ea60000000p-41",
            "0x1.5aaad42e826d9p-44", "0x1.9a1fccccccccdp-47", "0x1.ea33333333334p-50",
            "0x1.269999999999ap-52", "0x1.6200000000000p-55", "0x1.8333333333334p-58",
            "0x1.ccccccccccccdp-62", "-0x1.b333333333334p-63",
        ),
        (
            "0x1.2e630b4463a80p-3", "0x1.7bd4073d19816p-6", "0x1.35246f25e0680p-9",
            "0x1.1ee9c22984740p-12", "0x1.20387c2953fb3p-15", "0x1.313ccd692b99ap-18",
            "0x1.4fac010238000p-21", "0x1.7bb31279f999ap-24", "0x1.b70120a133334p-27",
            "0x1.0241dbfb9999ap-29", "0x1.3437b86666667p-32", "0x1.743ab34cccccdp-35",
            "0x1.c60e8ddd92f54p-38", "0x1.1750d66666667p-40", "0x1.5a33ccccccccdp-43",
            "0x1.afa6666666667p-46", "0x1.0dc0000000000p-48", "0x1.4fe6666666667p-51",
            "0x1.9000000000000p-54", "0x1.3333333333334p-58",
        ),
    ),
}
_NEAR_DENSE_SHA256 = {
    (2, 0.05): "9ad09ee5d0677cdef5f9793dc00776de66beabd58484422cd1efb78d6119d568",
    (2, 0.5): "6231cfe7854a0697699ebd7b94a416d8cae187214ace5d03e7dacfd35efdd9f7",
    (2, 0.95): "5c5a2f0033c1581be406062283cdce65840caea4930608a0414d8e4851ef2e7d",
    (1, 0.5): "432d8de43b8a735c664919f7f92afcd3020cbc05d6d50d6f04eab526ba8790ac",
}


def _pinned(got, want_hex):
    """True under the pinned versions if the bits match; else 1e-13 relative."""
    got = [float(v) for v in got]
    if (np.__version__, scipy.__version__) == _PIN_VERSIONS:
        return [v.hex() for v in got] == list(want_hex)
    print(f"numpy {np.__version__} / scipy {scipy.__version__} are not the "
          f"pinned {_PIN_VERSIONS}: comparing at 1e-13 relative")
    return got == pytest.approx([float.fromhex(v) for v in want_hex], rel=1e-13)


@pytest.mark.parametrize("s", _S)
@pytest.mark.parametrize("rule", [3, 20])
def test_far_kernel_unit_keeps_its_pinned_bits(s, rule):
    got = _far_kernel_unit(np.array(_FAR_OFFSETS), KernelParams(2, s), rule)
    assert _pinned(got, _FAR_PINS[s, rule])


def _far_values(s, offsets):
    # a default-cutoff table's far values, read off the offset kernel of
    # the smallest square box that holds every offset
    offsets = np.asarray(offsets)
    n = int(np.abs(offsets).max()) + 1
    k = build_table(KernelParams(2, s)).offset_kernel((n, n))
    return k[offsets[:, 0] + n - 1, offsets[:, 1] + n - 1]


@pytest.mark.parametrize("s", _S)
def test_far_expansion_keeps_its_pinned_bits(s):
    beyond = [off for off in _FAR_OFFSETS if max(off) > 16]
    assert _pinned(_far_values(s, beyond), _EXPANSION_PINS[s])


@pytest.mark.parametrize("s", _S)
def test_phi_keeps_its_pinned_bits(s):
    p, q = np.array(_PHI_SLOTS, dtype=np.float64).T
    assert _pinned(_phi(p, q, _EdgeArc(s)), _PHI_PINS[s])


@pytest.mark.parametrize("s", _S)
def test_edge_arc_fit_keeps_its_pinned_bits(s):
    arc = _EdgeArc(s)
    full, lower, complement = _ARC_PINS[s]
    assert _pinned([arc.full], [full])
    assert _pinned(arc._lower_coef, lower)
    assert _pinned(arc._complement_coef, complement)


@pytest.mark.parametrize("dim,s", sorted(_NEAR_DENSE_SHA256))
def test_near_window_keeps_its_pinned_bytes(dim, s):
    table = build_table(KernelParams(dim, s))
    near = table.near_dense
    if (np.__version__, scipy.__version__) == _PIN_VERSIONS:
        digest = hashlib.sha256(near.tobytes()).hexdigest()
        assert digest == _NEAR_DENSE_SHA256[dim, s]
        return
    print(f"numpy {np.__version__} / scipy {scipy.__version__} are not the "
          f"pinned {_PIN_VERSIONS}: comparing window entries at 1e-13 relative")
    rc = table.cutoff_radius
    if dim == 1:
        d = np.abs(np.arange(-rc, rc + 1, dtype=np.float64))
        p = 1.0 - s
        with np.errstate(invalid="ignore"):
            want = (2.0 * d**p - (d - 1.0) ** p - (d + 1.0) ** p) / (s * p)
        want[rc] = 0.0
        assert near == pytest.approx(want, rel=1e-13)
        return
    # the in-window offsets of _FAR_OFFSETS, under every sign flip and swap
    for (a, b), want in zip(_FAR_OFFSETS[:3], _FAR_PINS[s, 20][:3]):
        for x, y in ((a, b), (-a, b), (a, -b), (-a, -b), (b, a), (-b, -a)):
            assert _pinned([near[x + rc, y + rc]], [want])


def _far_loop(offsets, s, rule):
    # the tent rule one quadrant at a time, offsets on the first axis
    mags = np.abs(np.asarray(offsets))
    a = mags.max(axis=1).astype(np.float64)
    b = mags.min(axis=1).astype(np.float64)
    x, w = gauss_unit(rule)
    tent = w * (1.0 - x)
    ww = tent[:, None] * tent[None, :]
    out = np.zeros(len(a))
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            xs = a[:, None] + s1 * x[None, :]
            ys = b[:, None] + s2 * x[None, :]
            r2 = xs[:, :, None] ** 2 + ys[:, None, :] ** 2
            out += np.einsum("ij,mij->m", ww, r2 ** (-0.5 * (2.0 + s)))
    return out


@pytest.mark.parametrize("rule", [3, 20])
def test_far_kernel_unit_equals_its_loop_form(rule):
    rng = np.random.default_rng(rule)
    offsets = np.concatenate([
        [(a, b) for a in range(2, 40) for b in range(a + 1)],
        rng.integers(-3000, 3000, size=(400, 2)),
    ])
    offsets = offsets[np.abs(offsets).max(axis=1) >= 2]
    for s in _S:
        got = _far_kernel_unit(offsets, KernelParams(2, s), rule)
        assert np.array_equal(got, _far_loop(offsets, s, rule))


def _phi_loop(p, q, arc):
    # all 16 arcs through the masked call, which picks a branch per arc
    t, w = gauss_unit(4)
    total = np.zeros(p.shape)
    for ta, wa in zip(t, w):
        d = p + ta
        arcs = np.zeros_like(total)
        for tb, wb in zip(t, w):
            lat = q + tb
            arcs += wb * arc(lat * lat, d * d)
        total += (wa * d ** (-arc.s)) * arcs
    return total


def test_phi_equals_its_loop_form():
    rng = np.random.default_rng(7)
    p = np.concatenate([np.arange(60.0).repeat(60), rng.integers(0, 3000, 3000)])
    q = np.concatenate([np.tile(np.arange(60.0), 60), rng.integers(0, 3000, 3000)])
    for s in _S:
        arc = _EdgeArc(s)
        assert np.array_equal(_phi(p, q, arc), _phi_loop(p, q, arc))


def _rests_loop(x, s):
    c = 0.5 * (s - 1.0)
    g, lower = -c, [-c / 3.0]
    for k in range(2, _SERIES_TERMS):
        g *= (k - 1 - c) * x / k
        lower.append(g / (2 * k + 1))
    g, complement = 0.5, [0.5 / (s + 3.0)]
    for k in range(2, _SERIES_TERMS):
        g *= (2 * k - 1) * x / (2 * k)
        complement.append(g / (s + 2 * k + 1))
    return math.fsum(lower), math.fsum(complement)


@pytest.mark.parametrize("s", _S)
def test_series_rests_equal_their_loop_form(s):
    x = [k / 64 for k in range(33)] + [0.1, 1 / 3, 0.4999999]
    want = [_rests_loop(v, s) for v in x]
    assert _lower_rest(x, s) == [lo for lo, _ in want]
    assert _complement_rest(x, s) == [co for _, co in want]


_SIMD_PROBE = """
import hashlib, json, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
sys.path.insert(0, sys.argv[1])
import test_evaluator_pins as pins
print(json.dumps({
    "enabled": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    "digests": pins.simd_free_digests(),
}))
"""


def simd_free_digests() -> dict:
    """SHA-256 of values that use no SIMD-dependent numpy loop, per s.

    The far values of a default table's offset kernel beyond 16
    (``_FarExpansion``: one ``np.float_power`` and + - * /) at every
    sorted offset with 17 <= |d|_inf < 200, ``_EdgeArc.lower`` (sqrt
    and + - * /) on a dense grid of [0, 1/2], the touching pairs K(1, 0)
    and K(1, 1) and the single cell (``math.log``, + - * /), and the 1D
    pair series (``np.float_power``, + - * /) at d from 1 to 4,999 and
    at a few large d.
    """
    a, b = np.tril_indices(200)  # a >= b
    far = a >= 17
    offsets = np.stack([a[far], b[far]], axis=1)
    x = np.r_[np.linspace(0.0, 0.5, 20001), 1e-300, 1e-30, 1e-12]
    line = np.r_[np.arange(1, 5000), 60000, 2**20, 2**26][:, None]
    digests = {}
    for s in (0.01, *_S, 0.99):
        plane = KernelParams(2, s)
        cells = np.array([cell_pair_integral((1, 0), plane, 1.0),
                          cell_pair_integral((1, 1), plane, 1.0),
                          single_cell_perimeter(plane)])
        for name, values in (("far", _far_values(s, offsets)),
                             ("lower", _EdgeArc(s).lower(x)),
                             ("cell", cells),
                             ("line", _far_kernel_unit(line, KernelParams(1, s), 3))):
            digests[f"{name} {s}"] = hashlib.sha256(values.tobytes()).hexdigest()
    return digests


def test_far_offset_kernel_and_lower_arc_keep_their_bits_with_no_simd_target():
    # a child process with every numpy dispatch target disabled takes the
    # baseline loops; these values use none whose bits depend on them
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    if not any(__cpu_features__.get(t) for t in __cpu_dispatch__):
        print("this process takes no numpy SIMD target either: the child "
              "runs the same loops, so the comparison shows nothing new")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
           "PYTHONPATH": str(Path(fracperim.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _SIMD_PROBE, str(Path(__file__).parent)],
        capture_output=True, text=True, check=True, env=env,
    )
    child = json.loads(out.stdout)
    assert child["enabled"] == []
    assert child["digests"] == simd_free_digests()
