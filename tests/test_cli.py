"""Command line behavior: flags, config precedence, exit codes, CSV shape."""

import numpy as np
import pytest

import fracperim as fp
from fracperim.cli import build_parser, main

INTERVAL = "kind=interval a=0.0 b=1.0"
ELLIPSE = "kind=ellipse a=1.25 b=0.8 cx=0.0 cy=0.0"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_has_all_subcommands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
    )
    names = set(sub.choices)
    assert names == {
        "perim", "asym", "deficit", "rearrange", "extend",
        "sweep-s", "exponent-study", "verify",
    }


def test_perim_csv(capsys):
    code, out, _ = run(
        ["perim", "--shape", INTERVAL, "--s", "0.5", "--h", "0.03125"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "set,N,s,h,cells,Ps"
    cols = lines[1].split(",")
    assert float(cols[5]) == pytest.approx(8.0, rel=0.05)


def test_asym_csv(capsys):
    code, out, _ = run(["asym", "--shape", ELLIPSE, "--h", "0.0625"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "set,N,h,A,cx,cy"
    a = float(lines[1].split(",")[3])
    assert 0.0 < a < 2.0


def test_deficit_csv(capsys):
    code, out, _ = run(
        ["deficit", "--shape", ELLIPSE, "--s", "0.5", "--h", "0.0625"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == fp.DEFICIT_CSV_HEADER


def test_extend_writes_field_and_summary(tmp_path, capsys):
    out_file = tmp_path / "field.txt"
    code, out, _ = run(
        [
            "extend", "--shape", INTERVAL, "--s", "0.5", "--h", "0.0625",
            "--z0", "0.015625", "--rho", "1.2", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("set,N,s,h,levels,z0,z_top,")
    assert float(row.split(",")[5]) == 0.015625
    u = fp.load_extension(out_file)
    assert u.grid.z_levels[0] == 0.015625


def test_rearrange_round_trip(tmp_path, capsys):
    spec = fp.GridSpec(1, (9,), 0.5, (0.0,))
    g = fp.GridFunction(
        spec, np.array([0.0, 1.0, 3.0, 2.0, 5.0, 1.0, 0.5, 0.25, 0.0])
    )
    src = tmp_path / "fun.txt"
    dst = tmp_path / "fun_star.txt"
    fp.save_gridfunction(g, src)
    code, out, _ = run(
        ["rearrange", "--infile", str(src), "--out", str(dst)], capsys
    )
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("infile,energy_before,energy_after,gap,")
    gap = float(row.split(",")[3])
    assert gap >= 0.0
    sharp = fp.load_gridfunction(dst)
    assert np.array_equal(
        np.sort(sharp.values), np.sort(g.values)
    )


def test_sweep_config_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "n = 2\ns = 0.5\nh = 0.125\nfamily = ellipse-ecc\n"
        "params = 0.6, 1.0\nthreads = 2\n"
    )
    out_a = tmp_path / "a.csv"
    code, _, _ = run(
        ["sweep-s", "--config", str(cfg), "--out", str(out_a)], capsys
    )
    assert code == 0
    text = out_a.read_text()
    assert text.splitlines()[0] == fp.SWEEP_CSV_HEADER
    assert len(text.splitlines()) == 3

    # flag overrides the config file value
    out_b = tmp_path / "b.csv"
    code, _, _ = run(
        ["sweep-s", "--config", str(cfg), "--params", "1.0", "--out", str(out_b)],
        capsys,
    )
    assert code == 0
    assert len(out_b.read_text().splitlines()) == 2


def test_sweep_byte_identical_across_threads(tmp_path, capsys):
    args = ["sweep-s", "--n", "2", "--family", "ellipse-ecc",
            "--params", "0.6,1.0", "--s", "0.5", "--h", "0.125"]
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t4.csv"
    assert run(args + ["--threads", "1", "--out", str(out1)], capsys)[0] == 0
    assert run(args + ["--threads", "4", "--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["perim", "deficit"])
@pytest.mark.parametrize("shape, h", [(ELLIPSE, "0.03125"), (INTERVAL, "0.015625")])
def test_stdout_byte_identical_across_threads(command, shape, h, capsys):
    args = [command, "--shape", shape, "--s", "0.5", "--h", h]
    code1, out1, _ = run(args + ["--threads", "1"], capsys)
    code2, out2, _ = run(args + ["--threads", "2"], capsys)
    assert code1 == code2 == 0
    assert out1.count("\n") == 2
    assert out1 == out2


def test_exponent_study_exit_and_summary(capsys):
    code, out, _ = run(
        [
            "exponent-study", "--n", "2", "--family", "fourier-disk",
            "--params", "0.05,0.1,0.2,0.3,0.45", "--s", "0.5", "--h", "0.03125",
        ],
        capsys,
    )
    assert code == 0
    assert "fourier-disk" in out
    assert "[ok]" in out


def test_exponent_study_degenerate_exits_nonzero(capsys):
    code, out, _ = run(
        [
            "exponent-study", "--n", "2", "--family", "ellipse-ecc",
            "--params", "0.2,0.4", "--s", "0.5", "--h", "0.125",
        ],
        capsys,
    )
    assert code == 1
    assert "degenerate" in out


def test_error_exit_codes(capsys):
    code, _, err = run(
        ["perim", "--shape", "kind=hexagon r=1", "--s", "0.5", "--h", "0.125"],
        capsys,
    )
    assert code == 2
    assert "error" in err

    code, _, err = run(
        ["perim", "--shape", INTERVAL, "--n", "2", "--s", "0.5", "--h", "0.125"],
        capsys,
    )
    assert code == 2
    assert "contradicts" in err

    code, _, err = run(
        ["sweep-s", "--config", "/nonexistent/path.cfg"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("source", ["config", "flag"])
def test_dimension_contradicting_shape_exits_2(source, tmp_path, capsys):
    args = ["perim", "--shape", "kind=ball r=1.0 cx=0.0 cy=0.0", "--s", "0.5",
            "--h", "0.25"]
    if source == "config":
        cfg = tmp_path / "one.cfg"
        cfg.write_text("n = 1\n")
        args += ["--config", str(cfg)]
    else:
        args += ["--n", "1"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert "contradicts a 2-dimensional shape" in err


def test_config_dimension_matching_shape_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("dim = 2\n")
    code, out, _ = run(
        ["asym", "--shape", ELLIPSE, "--h", "0.25", "--config", str(cfg)], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "set,N,h,A,cx,cy"


@pytest.mark.parametrize(
    "args,field",
    [
        (["perim", "--shape", INTERVAL, "--s", "0.5", "--h", "nan"], "h"),
        (["verify", "--seed", "-1"], "seed"),
        (["extend", "--shape", INTERVAL, "--rho", "inf"], "rho"),
    ],
)
def test_invalid_config_value_exits_2_naming_field(args, field, capsys):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert f"{field} must be" in err


@pytest.mark.parametrize(
    "shape",
    [
        "kind=ball r=inf cx=0 cy=0",
        "kind=ball r=nan cx=0 cy=0",
        "kind=ball r=1 cx=inf cy=0",
        "kind=interval a=0 b=inf",
    ],
)
def test_non_finite_shape_parameter_exits_2(shape, capsys):
    code, out, err = run(["asym", "--shape", shape, "--h", "0.25"], capsys)
    assert code == 2
    assert out == ""
    assert "shape parameters must be finite" in err


def test_non_ascii_config_exits_2_naming_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_bytes(b"family = two-intervals\nparams = 0.5 # \xe9\n")
    code, out, err = run(["sweep-s", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "sweep.cfg: line 2: non-ASCII byte 0xe9" in err


def test_malformed_infile_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.fracfun"
    bad.write_text("FRACFUN v1\n1 nan 0.0 2\n1\n2\n")
    code, _, err = run(["rearrange", "--infile", str(bad)], capsys)
    assert code == 2
    assert "FRACFUN" in err


def test_allocation_failure_exits_2(monkeypatch, capsys):
    def refuse(shape, spec):
        raise MemoryError("Unable to allocate 4.66 TiB for an array")

    monkeypatch.setattr("fracperim.cli.rasterize", refuse)
    code, out, err = run(
        ["asym", "--shape", "kind=ball r=1e5 cx=0 cy=0", "--h", "0.25"], capsys
    )
    assert code == 2
    assert out == ""
    assert "out of memory: Unable to allocate 4.66 TiB" in err


@pytest.mark.slow
def test_verify_subcommand_passes(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    code, stdout, _ = run(["verify", "--out", str(out)], capsys)
    assert code == 0
    assert "PASS" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "check,result,measured,bound,detail"
    assert all(",pass," in line for line in lines[1:])


@pytest.mark.parametrize(
    "args,setting",
    [
        (["sweep-s", "--family", ","], "family"),
        (["sweep-s", "--params", ""], "params"),
        (["exponent-study", "--family", ""], "family"),
    ],
)
def test_empty_sweep_exits_2_naming_the_empty_setting(args, setting, capsys):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert f"the sweep has no members: the {setting!r} setting lists none" in err


@pytest.mark.parametrize(
    "args,setting,value",
    [
        (["sweep-s", "--family", "ellipse-ecc,ellipse-ecc"], "family", "ellipse-ecc"),
        (["exponent-study", "--n", "2", "--family", "fourier-disk",
          "--params", "0.2,0.2,0.2,0.2", "--s", "0.5", "--h", "0.125"],
         "params", "0.2"),
        (["sweep-s", "--params", "0.1,0.4,0.1"], "params", "0.1"),
        (["sweep-s", "--s", "0.5,0.25,0.5"], "s", "0.5"),
        (["exponent-study", "--h", "0.125,0.125"], "h", "0.125"),
    ],
)
def test_repeated_sweep_member_exits_2_naming_setting_and_value(
    args, setting, value, capsys
):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert (f"the sweep repeats a member: the {setting!r} setting lists "
            f"{value} more than once") in err
