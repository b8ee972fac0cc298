"""Command line behavior: flags, config precedence, exit codes, CSV shape."""

import csv
import io

import numpy as np
import pytest

import fracperim as fp
from fracperim import cli
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
        ["extend", "--shape", INTERVAL, "--s", "0.5", "--h", "0.0625",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("set,N,s,h,levels,z0,z_top,")
    assert float(row.split(",")[5]) == 0.015625  # the first level, h/4
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


def _csv_rows(text):
    """The rows of a CSV text, each checked to have its header's width."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert len(rows) >= 2
    assert all(len(row) == len(rows[0]) for row in rows[1:]), rows
    return rows


def test_every_command_prints_csv_that_parses_to_its_header(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    union_1d = "kind=union n=2 0.kind=interval 0.a=0 0.b=1 1.kind=interval 1.a=1.5 1.b=3"
    stdout_commands = [
        ["perim", "--shape", INTERVAL, "--s", "0.5", "--h", "0.0625"],
        ["asym", "--shape", union_1d, "--h", "0.0625"],
        ["asym", "--shape", ELLIPSE, "--h", "0.125"],
        ["deficit", "--shape", INTERVAL, "--s", "0.5", "--h", "0.0625"],
        ["deficit", "--shape", ELLIPSE, "--s", "0.5", "--h", "0.125"],
        ["extend", "--shape", INTERVAL, "--s", "0.5", "--h", "0.125"],
        ["sweep-s", "--n", "2", "--family", "ellipse-ecc", "--params", "0.1,0.6",
         "--s", "0.5", "--h", "0.125"],
    ]
    for args in stdout_commands:
        code, out, _ = run(args, capsys)
        assert code == 0, args
        _csv_rows(out)
    # 1D sets leave cy blank
    assert _csv_rows(run(stdout_commands[1], capsys)[1])[1][5] == ""

    values = np.zeros((9, 7))
    values[2:7, 2:5] = np.arange(15.0).reshape(5, 3)
    g = fp.GridFunction(fp.GridSpec(2, (9, 7), 0.25, (0.0, 0.0)), values)
    fp.save_gridfunction(g, "a,b.txt")
    code, out, _ = run(["rearrange", "--infile", "a,b.txt"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith('"a,b.txt",')
    assert _csv_rows(out)[1][0] == "a,b.txt"

    code, _, _ = run(
        ["exponent-study", "--n", "2", "--family", "fourier-disk", "--params",
         "0.1,0.2,0.3,0.4,0.5", "--s", "0.5", "--h", "0.125", "--out", "exp.csv"],
        capsys,
    )
    assert code == 0
    rows = _csv_rows((tmp_path / "exp.csv").read_text())
    assert rows[0] == fp.SWEEP_CSV_HEADER.split(",")
    # a deficit <= 0 leaves ratio_theorem blank
    assert rows[1][5].startswith("-") and rows[1][7] == ""

    detail = "ValueError('a, b', \"c\")\nd"
    report = fp.VerifyReport(
        (fp.VerifyCheck("ok", True, 0.5, 1.0), fp.VerifyCheck("bad", False, 2.0, 1.0, detail))
    )
    monkeypatch.setattr("fracperim.cli.verify_suite", lambda cfg: report)
    code, out, _ = run(["verify"], capsys)
    assert code == 1
    rows = _csv_rows(out)
    assert rows[1] == ["ok", "pass", "0.5", "1", ""]
    assert rows[2] == ["bad", "FAIL", "2", "1", detail]


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


def test_exponent_study_degenerate_exits_nonzero(monkeypatch, capsys):
    # two parameters can never give a fit its four points: refused before
    # the sweep with exit 2 (a study that cannot be judged), not 1 (a
    # failed assertion), naming the count and the minimum
    monkeypatch.setattr("fracperim.experiments.sweep_s", None)  # not reached
    code, out, err = run(
        [
            "exponent-study", "--n", "2", "--family", "ellipse-ecc",
            "--params", "0.2,0.4", "--s", "0.5", "--h", "0.125",
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == ("fracperim: error: exponent-study fits one point per "
                   "parameter: 2 given, each fit needs 4\n")


def test_exponent_study_with_too_few_usable_points_exits_2(capsys):
    # four members at h = 1/8 leave two usable points: the summary, then
    # one stderr line naming the fit and its usable points, and exit 2
    code, out, err = run(
        [
            "exponent-study", "--n", "2", "--family", "ellipse-ecc",
            "--params", "0.2,0.4,0.6,0.8", "--s", "0.5", "--h", "0.125",
        ],
        capsys,
    )
    assert code == 2
    assert out.count("\n") == 1
    assert "points=2 slope=nan" in out and "[degenerate]" in out
    assert err == ("fracperim: error: ellipse-ecc s=0.5 h=0.125: "
                   "2 usable points, the fit needs 4\n")


def test_exponent_study_with_no_flags_exits_2(capsys):
    # the defaults list three parameters: refused before the sweep
    code, out, err = run(["exponent-study"], capsys)
    assert code == 2
    assert out == ""
    assert "3 given, each fit needs 4" in err


def _fit(family, slope, degenerate=False, divergent=False):
    nan = float("nan")
    return fp.ExponentFit(family, 0.5, 0.125, 2 if degenerate else 5,
                          nan if degenerate else slope, 0.0, 1.0, 1.0,
                          degenerate, divergent)


@pytest.mark.parametrize("fits,code", [
    ([_fit("a", 0.2)], 0),
    # the theorem's bound s/4 - 0.02 = 0.105 at s = 1/2
    ([_fit("a", 0.1)], 1),
    ([_fit("a", 0.2, divergent=True)], 1),
    ([_fit("a", 0.2), _fit("b", 0.0, degenerate=True)], 2),
    # a failed assertion outranks a fit that could not be made
    ([_fit("a", 0.1), _fit("b", 0.0, degenerate=True)], 1),
])
def test_exponent_study_exit_code_by_fit(monkeypatch, fits, code, capsys):
    monkeypatch.setattr("fracperim.cli.exponent_study",
                        lambda cfg: fp.ExponentSummary((), tuple(fits)))
    got, out, err = run(["exponent-study"], capsys)
    assert got == code
    assert out.count("\n") == len(fits)
    assert err.count("\n") == sum(f.degenerate for f in fits)


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


def test_repeated_shape_key_exits_2_and_prints_nothing(capsys):
    shape = "kind=ball r=1.0 cx=0.0 cy=0.0 r=0.5"
    code, out, err = run(["perim", "--shape", shape, "--s", "0.5", "--h", "0.25"],
                         capsys)
    assert code == 2
    assert out == ""
    assert "shape key 'r' is given twice" in err


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
    ],
)
def test_invalid_config_value_exits_2_naming_field(args, field, capsys):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert f"{field} must be" in err


# the discretization knobs that had one value in use: the halo margin,
# the near-window cutoff and the lift's level ladder
_REMOVED = (("margin", "deficit", "4"), ("cutoff", "perim", "16"),
            ("z0", "extend", "0.015625"), ("rho", "extend", "1.15"),
            ("top_factor", "extend", "8"), ("lateral_factor", "extend", "4"))


@pytest.mark.parametrize("key,command,value", _REMOVED)
def test_removed_flag_exits_2(key, command, value, capsys):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, "--shape", INTERVAL, "--s", "0.5", "--h", "0.0625",
              flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("key,command,value", _REMOVED)
def test_removed_config_key_exits_2(key, command, value, tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"s = 0.5\nh = 0.0625\n{key} = {value}\n")
    code, out, err = run([command, "--shape", INTERVAL, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"line 3: unknown config key '{key}'" in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("command", ["perim", "deficit", "extend"])
def test_overflowing_scale_exits_2_naming_the_command(command, capsys):
    # the raster's squared distances overflow; before, an OverflowError
    # traceback and exit 1
    code, out, err = run([command, "--shape", "kind=ball r=1e200 cx=0.0 cy=0.0",
                          "--s", "0.5", "--h", "1e200"], capsys)
    assert code == 2
    assert out == ""
    assert f"fracperim: error: {command} overflowed" in err


def test_lift_energy_past_double_precision_exits_2(capsys):
    # the slab weights times the cell area pass 1e308; before, the energies
    # printed as inf with exit 0
    code, out, err = run(["extend", "--shape", "kind=ball r=1e100 cx=0.0 cy=0.0",
                          "--s", "0.5", "--h", "1e100"], capsys)
    assert code == 2
    assert out == ""
    assert "the lift energy of a grid at h = 1e+100 is not finite" in err


@pytest.mark.parametrize(
    "args,message",
    [
        (["perim", "--shape", "kind=ball r=abc cx=0 cy=0", "--s", "0.5",
          "--h", "0.25"], "shape key 'r' is not a number: 'abc'"),
        (["perim", "--shape", INTERVAL, "--s", "0.5,abc", "--h", "0.25"],
         "config key 's' is not a comma list of numbers: '0.5,abc'"),
    ],
)
def test_malformed_number_exits_2_naming_its_key(args, message, capsys):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert message in err


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


def test_utf8_config_comment_exits_2_naming_its_first_byte(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes("s = 0.5\n# caf\u00e9 comment\nh = 0.125\n".encode("utf-8"))
    code, out, err = run(["sweep-s", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "cfg.txt: line 2: non-ASCII byte 0xc3" in err


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


def test_bare_memory_error_names_the_command(monkeypatch, capsys):
    # MemoryError() has an empty message; the line must still say what failed
    def refuse(args, cfg):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "perim", refuse)
    code, out, err = run(
        ["perim", "--shape", INTERVAL, "--s", "0.5", "--h", "0.25"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "fracperim: error: perim ran out of memory\n"


@pytest.mark.parametrize("command", ["sweep-s", "exponent-study"])
@pytest.mark.parametrize("source", ["flag", "n", "dim"])
@pytest.mark.parametrize("n,family,dim", [(1, "ellipse-ecc", 2),
                                          (2, "two-intervals", 1)])
def test_dimension_contradicting_families_exits_2(
    command, source, n, family, dim, tmp_path, capsys
):
    args = [command, "--family", family, "--params", "0.3", "--s", "0.5",
            "--h", "0.125"]
    if source == "flag":
        args += ["--n", str(n)]
    else:
        cfg = tmp_path / "dim.cfg"
        cfg.write_text(f"{source} = {n}\n")
        args += ["--config", str(cfg)]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert f"contradicts the {dim}-dimensional family '{family}'" in err


@pytest.mark.parametrize("dimension", [[], ["--n", "1"]])
def test_sweep_takes_the_families_dimension(dimension, capsys):
    code, out, _ = run(["sweep-s", "--family", "two-intervals", "--params", "0.3",
                        "--s", "0.5", "--h", "0.125", *dimension], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("two-intervals,")


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
