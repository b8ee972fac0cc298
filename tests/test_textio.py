"""The four text formats: pinned writer bytes, strict loaders, round trips."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracperim as fp
from fracperim._textio import csv_line, csv_text
from fracperim.extension import ExtensionField, HalfSpaceGrid

# ------------------------------------------------------------- pinned bytes


def test_fracgrid_exact_text(tmp_path):
    path = tmp_path / "g.fracgrid"
    spec = fp.GridSpec(2, (2, 3), 0.1, (0.0, -1.5))
    fp.save_gridset(fp.GridSet(spec, [[1, 0, 1], [0, 1, 1]]), path)
    assert path.read_bytes() == b"FRACGRID v1\n2 0.1 0.0 -1.5 2 3\n101\n011\n"
    spec = fp.GridSpec(1, (4,), 0.25, (1.0,))
    fp.save_gridset(fp.GridSet(spec, [0, 1, 1, 0]), path)
    assert path.read_bytes() == b"FRACGRID v1\n1 0.25 1.0 4\n0110\n"


def test_fracfun_exact_text(tmp_path):
    path = tmp_path / "f.fracfun"
    spec = fp.GridSpec(2, (2, 2), 0.1, (0.0, 1.0))
    fp.save_gridfunction(fp.GridFunction(spec, [[0.1, 2.0], [0.0, 1 / 3]]), path)
    assert path.read_bytes() == (
        b"FRACFUN v1\n2 0.1 0.0 1.0 2 2\n"
        b"0.10000000000000001 2\n0 0.33333333333333331\n"
    )
    spec = fp.GridSpec(1, (3,), 0.5, (-1.0,))
    fp.save_gridfunction(fp.GridFunction(spec, [0.25, 1e-20, 3.0]), path)
    assert path.read_bytes() == (
        b"FRACFUN v1\n1 0.5 -1.0 3\n0.25\n9.9999999999999995e-21\n3\n"
    )


def test_fracext_exact_text(tmp_path):
    path = tmp_path / "u.fracext"
    grid = HalfSpaceGrid(fp.GridSpec(1, (2,), 0.5, (0.0,)), (0.125, 0.5))
    u = ExtensionField(
        grid, fp.KernelParams(1, 0.25), [[0.1, 1.0], [0.25, 0.0]], [True, False]
    )
    fp.save_extension(u, path)
    assert path.read_bytes() == (
        b"FRACEXT v1\n1 0.25 0.5 0.0 2\nlevels 0.125 0.5\n"
        b"level 0\n0.10000000000000001\n1\nlevel 1\n0.25\n0\n"
        b"datum\n1\n0\n"
    )


def test_csv_line_formats_by_type_and_quotes_only_where_needed():
    fields = ["a b", "", 3, np.int64(5), 0.1, np.float64(2.0),
              "x,y", 'q"', "l\nm", "c\rr"]
    assert csv_line(fields) == (
        'a b,,3,5,0.10000000000000001,2,"x,y","q""","l\nm","c\rr"'
    )
    assert csv_text("h,k", "1,2", "3,4") == "h,k\n1,2\n3,4\n"


# ------------------------------------------------------- malformed inputs

TAB = "FRACTAB v1 N=1 s=0.5 Rc=2\n-2 0.5\n-1 2.5\n1 2.5\n2 0.5\n"
GRID = "FRACGRID v1\n2 0.5 0.0 0.0 2 3\n101\n011\n"
FUN = "FRACFUN v1\n2 0.5 0.0 0.0 2 2\n0.5 1\n0 2\n"
EXT = (
    "FRACEXT v1\n1 0.5 0.5 0.0 2\nlevels 0.25 0.5\n"
    "level 0\n0.5\n0.25\nlevel 1\n0.25\n0.125\ndatum\n1\n0\n"
)

LOADERS = {
    "tab": fp.load_table,
    "grid": fp.load_gridset,
    "fun": fp.load_gridfunction,
    "ext": fp.load_extension,
}
VALID = {"tab": TAB, "grid": GRID, "fun": FUN, "ext": EXT}

MALFORMED = [
    # FRACTAB
    ("tab", "empty file", ""),
    ("tab", "wrong version", TAB.replace("v1", "v2")),
    ("tab", "header missing Rc", TAB.replace(" Rc=2", "")),
    ("tab", "extra header field", TAB.replace("Rc=2", "Rc=2 x=1")),
    ("tab", "non-numeric N", TAB.replace("N=1", "N=one")),
    ("tab", "N = 3", TAB.replace("N=1", "N=3")),
    ("tab", "s = 1.5", TAB.replace("s=0.5", "s=1.5")),
    ("tab", "s = nan", TAB.replace("s=0.5", "s=nan")),
    ("tab", "Rc = -2", TAB.replace("Rc=2", "Rc=-2")),
    ("tab", "Rc = 1", "FRACTAB v1 N=1 s=0.5 Rc=1\n-1 2.5\n1 2.5\n"),
    ("tab", "huge Rc", TAB.replace("Rc=2", "Rc=10000000")),
    ("tab", "non-numeric offset", TAB.replace("-1 2.5", "x 2.5")),
    ("tab", "fractional offset", TAB.replace("-1 2.5", "-1.0 2.5")),
    ("tab", "offsets out of order", TAB.replace("-2 0.5\n-1", "-1 0.5\n-2")),
    ("tab", "missing row", TAB.replace("\n2 0.5\n", "\n")),
    ("tab", "extra token", TAB.replace("1 2.5\n2", "1 2.5 7\n2")),
    ("tab", "negative value", TAB.replace("-1 2.5", "-1 -2.5")),
    ("tab", "zero value", TAB.replace("-1 2.5", "-1 0")),
    ("tab", "inf value", TAB.replace("-1 2.5", "-1 inf")),
    ("tab", "nan value", TAB.replace("-1 2.5", "-1 nan")),
    ("tab", "non-numeric value", TAB.replace("-1 2.5", "-1 big")),
    # FRACGRID
    ("grid", "header only", "FRACGRID v1\n"),
    ("grid", "wrong header", GRID.replace("FRACGRID", "FRACFUN")),
    ("grid", "h = nan", GRID.replace("2 0.5", "2 nan")),
    ("grid", "h = 0", GRID.replace("2 0.5", "2 0")),
    ("grid", "origin = inf", GRID.replace("0.0 0.0", "inf 0.0")),
    ("grid", "dim = 3", GRID.replace("2 0.5 0.0 0.0 2 3", "3 0.5 0 0 0 2 3 1")),
    ("grid", "non-numeric dim", GRID.replace("2 0.5", "two 0.5")),
    ("grid", "extra geometry field", GRID.replace("2 3\n", "2 3 9\n")),
    ("grid", "missing cell count", GRID.replace("2 3\n", "2\n")),
    ("grid", "zero cell count", GRID.replace("2 3\n", "2 0\n")),
    ("grid", "fractional cell count", GRID.replace("2 3\n", "2 3.5\n")),
    ("grid", "missing row", GRID.replace("011\n", "")),
    ("grid", "extra row", GRID + "111\n"),
    ("grid", "short row", GRID.replace("011", "01")),
    ("grid", "cell 2", GRID.replace("011", "021")),
    ("grid", "non-ascii byte", GRID.replace("011", "01é")),
    # FRACFUN
    ("fun", "header only", "FRACFUN v1\n"),
    ("fun", "header with suffix", FUN.replace("v1", "v1 extra")),
    ("fun", "extra geometry field", FUN.replace("2 2\n", "2 2 2\n")),
    ("fun", "h = -0.5", FUN.replace("2 0.5", "2 -0.5")),
    ("fun", "negative value", FUN.replace("0 2", "-1 2")),
    ("fun", "nan value", FUN.replace("0 2", "nan 2")),
    ("fun", "inf value", FUN.replace("0 2", "inf 2")),
    ("fun", "non-numeric value", FUN.replace("0 2", "zero 2")),
    ("fun", "missing row", FUN.replace("0 2\n", "")),
    ("fun", "long row", FUN.replace("0 2", "0 2 3")),
    # FRACEXT
    ("ext", "wrong header", EXT.replace("FRACEXT", "FRACFUN")),
    ("ext", "s = 1.5", EXT.replace("1 0.5 0.5", "1 1.5 0.5")),
    ("ext", "geometry without s", EXT.replace("1 0.5 0.5 0.0 2", "1 0.5 0.0 2")),
    ("ext", "extra geometry field", EXT.replace("0.0 2\n", "0.0 2 2\n")),
    ("ext", "levels not increasing", EXT.replace("0.25 0.5", "0.5 0.25")),
    ("ext", "first level above h", EXT.replace("0.25 0.5", "0.75 1.0")),
    ("ext", "nan level", EXT.replace("0.25 0.5", "nan 0.5")),
    ("ext", "no levels", EXT.replace("levels 0.25 0.5", "levels")),
    ("ext", "missing levels line", EXT.replace("levels 0.25 0.5\n", "")),
    ("ext", "value above 1", EXT.replace("0.125\n", "1.5\n")),
    ("ext", "nan value", EXT.replace("0.125\n", "nan\n")),
    ("ext", "non-numeric value", EXT.replace("0.125\n", "half\n")),
    ("ext", "missing level marker", EXT.replace("level 1\n", "")),
    ("ext", "missing datum marker", EXT.replace("datum\n", "")),
    ("ext", "datum cell 2", EXT.replace("datum\n1\n", "datum\n2\n")),
    ("ext", "truncated datum", EXT.replace("datum\n1\n0\n", "datum\n1\n")),
    ("ext", "truncated file", EXT[: EXT.index("level 1")]),
]


@pytest.mark.parametrize("kind", sorted(VALID))
def test_valid_sample_files_load(kind, tmp_path):
    path = tmp_path / kind
    path.write_text(VALID[kind], encoding="ascii")
    LOADERS[kind](path)


@pytest.mark.parametrize(
    "kind,text",
    [(kind, text) for kind, _, text in MALFORMED],
    ids=[f"{kind}-{case}" for kind, case, _ in MALFORMED],
)
def test_malformed_file_raises_format_error(kind, text, tmp_path):
    path = tmp_path / kind
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(fp.FormatError):
        LOADERS[kind](path)


def test_missing_file_stays_os_error(tmp_path):
    for load in LOADERS.values():
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "absent")


# -------------------------------------------------------------- round trips


@st.composite
def grid_specs(draw):
    dim = draw(st.integers(1, 2))
    cells = tuple(draw(st.integers(1, 6)) for _ in range(dim))
    h = draw(st.floats(1e-6, 1e3))
    origin = tuple(draw(st.floats(-1e6, 1e6)) for _ in range(dim))
    return fp.GridSpec(dim, cells, h, origin)


def _round_trip(obj, save, load):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obj.txt"
        save(obj, path)
        return load(path)


@settings(max_examples=60, deadline=None)
@given(grid_specs(), st.data())
def test_fracgrid_round_trip(spec, data):
    n = int(np.prod(spec.cells))
    bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    e = fp.GridSet(spec, np.reshape(bits, spec.cells))
    back = _round_trip(e, fp.save_gridset, fp.load_gridset)
    assert back == e
    assert back.spec == e.spec


@settings(max_examples=60, deadline=None)
@given(grid_specs(), st.data())
def test_fracfun_round_trip(spec, data):
    n = int(np.prod(spec.cells))
    values = data.draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n))
    g = fp.GridFunction(spec, np.reshape(values, spec.cells))
    back = _round_trip(g, fp.save_gridfunction, fp.load_gridfunction)
    assert back.spec == g.spec
    assert np.array_equal(back.values, g.values)
