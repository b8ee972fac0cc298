"""The two text formats: pinned writer bytes, strict loaders, round trips."""

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

FUN = "FRACFUN v1\n2 0.5 0.0 0.0 2 2\n0.5 1\n0 2\n"
FUN1 = "FRACFUN v1\n1 0.5 0.0 2\n0.5\n1\n"
EXT = (
    "FRACEXT v1\n1 0.5 0.5 0.0 2\nlevels 0.25 0.5\n"
    "level 0\n0.5\n0.25\nlevel 1\n0.25\n0.125\ndatum\n1\n0\n"
)

LOADERS = {
    "fun": fp.load_gridfunction,
    "ext": fp.load_extension,
}
VALID = {"fun": FUN, "ext": EXT}

MALFORMED = [
    # FRACFUN: the version line, the geometry line and the value blocks
    # that FRACEXT shares, and the bytes of the file
    ("fun", "empty file", ""),
    ("fun", "header only", "FRACFUN v1\n"),
    ("fun", "wrong version", FUN.replace("v1", "v2")),
    ("fun", "header with suffix", FUN.replace("v1", "v1 extra")),
    ("fun", "h = nan", FUN.replace("2 0.5", "2 nan")),
    ("fun", "h = 0", FUN.replace("2 0.5", "2 0")),
    ("fun", "h = -0.5", FUN.replace("2 0.5", "2 -0.5")),
    ("fun", "origin = inf", FUN.replace("0.0 0.0", "inf 0.0")),
    ("fun", "dim = 3", FUN.replace("2 0.5 0.0 0.0 2 2", "3 0.5 0 0 0 2 2 1")),
    ("fun", "non-numeric dim", FUN.replace("2 0.5", "two 0.5")),
    ("fun", "extra geometry field", FUN.replace("2 2\n", "2 2 2\n")),
    ("fun", "missing cell count", FUN.replace("0.0 2 2\n", "0.0 2\n")),
    ("fun", "zero cell count", FUN.replace("0.0 2 2\n", "0.0 2 0\n")),
    ("fun", "fractional cell count", FUN.replace("0.0 2 2\n", "0.0 2 2.5\n")),
    ("fun", "negative value", FUN.replace("\n0 2\n", "\n-1 2\n")),
    ("fun", "nan value", FUN.replace("\n0 2\n", "\nnan 2\n")),
    ("fun", "inf value", FUN.replace("\n0 2\n", "\ninf 2\n")),
    ("fun", "non-numeric value", FUN.replace("\n0 2\n", "\nzero 2\n")),
    ("fun", "missing row", FUN.replace("0 2\n", "")),
    ("fun", "extra row", FUN + "1 1\n"),
    ("fun", "long row", FUN.replace("\n0 2\n", "\n0 2 3\n")),
    ("fun", "short row", FUN.replace("\n0 2\n", "\n0\n")),
    ("fun", "non-ascii byte", FUN.replace("\n0 2\n", "\n0 \u00e9\n")),
    ("fun", "wrong header", FUN.replace("FRACFUN", "FRACEXT")),
    ("fun", "1d extra geometry field", FUN1.replace("0.0 2\n", "0.0 2 2\n")),
    ("fun", "1d missing row", FUN1.replace("\n1\n", "\n")),
    ("fun", "1d nan value", FUN1.replace("\n1\n", "\nnan\n")),
    ("fun", "1d non-numeric value", FUN1.replace("\n1\n", "\none\n")),
    # FRACEXT
    ("ext", "header only", "FRACEXT v1\n"),
    ("ext", "wrong header", EXT.replace("FRACEXT", "FRACFUN")),
    ("ext", "header with suffix", EXT.replace("v1", "v1 extra")),
    ("ext", "dim = 3", EXT.replace("1 0.5 0.5 0.0 2", "3 0.5 0.5 0 0 0 2 2 2")),
    ("ext", "non-numeric dim", EXT.replace("1 0.5 0.5", "one 0.5 0.5")),
    ("ext", "s = 1.5", EXT.replace("1 0.5 0.5", "1 1.5 0.5")),
    ("ext", "s = nan", EXT.replace("1 0.5 0.5", "1 nan 0.5")),
    ("ext", "s = 0", EXT.replace("1 0.5 0.5", "1 0 0.5")),
    ("ext", "geometry without s", EXT.replace("1 0.5 0.5 0.0 2", "1 0.5 0.0 2")),
    ("ext", "extra geometry field", EXT.replace("0.0 2\n", "0.0 2 2\n")),
    ("ext", "levels not increasing", EXT.replace("0.25 0.5", "0.5 0.25")),
    ("ext", "first level above h", EXT.replace("0.25 0.5", "0.75 1.0")),
    ("ext", "nan level", EXT.replace("0.25 0.5", "nan 0.5")),
    ("ext", "no levels", EXT.replace("levels 0.25 0.5", "levels")),
    ("ext", "missing levels line", EXT.replace("levels 0.25 0.5\n", "")),
    ("ext", "value above 1", EXT.replace("0.125\n", "1.5\n")),
    ("ext", "nan value", EXT.replace("0.125\n", "nan\n")),
    ("ext", "inf value", EXT.replace("0.125\n", "inf\n")),
    ("ext", "non-numeric value", EXT.replace("0.125\n", "half\n")),
    ("ext", "long row", EXT.replace("0.125\n", "0.125 0.5\n")),
    ("ext", "missing level row", EXT.replace("level 0\n0.5\n", "level 0\n")),
    ("ext", "missing level marker", EXT.replace("level 1\n", "")),
    ("ext", "missing datum marker", EXT.replace("datum\n", "")),
    ("ext", "datum cell 2", EXT.replace("datum\n1\n", "datum\n2\n")),
    ("ext", "datum cell 0.5", EXT.replace("datum\n1\n", "datum\n0.5\n")),
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
def test_fracfun_round_trip(spec, data):
    n = int(np.prod(spec.cells))
    values = data.draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n))
    g = fp.GridFunction(spec, np.reshape(values, spec.cells))
    back = _round_trip(g, fp.save_gridfunction, fp.load_gridfunction)
    assert back.spec == g.spec
    assert np.array_equal(back.values, g.values)
