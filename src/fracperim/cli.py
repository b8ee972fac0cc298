"""Command line front end.

Eight subcommands: per-shape measurements (perim, asym, deficit),
function and field transforms (rearrange, extend), and batch studies
(sweep-s, exponent-study, verify).  Analysis output is CSV with a header
row; a --config file supplies defaults and explicit flags override it.
Exit code 0 means every assertion the command makes passed, 1 that one
failed, and 2 that the input was bad or the work did not fit in memory
or in double precision.
"""

from __future__ import annotations

import argparse
import sys

from ._textio import csv_line, csv_text, read_ascii
from .deficit import DEFICIT_CSV_HEADER, fraenkel_asymmetry, s_deficit
from .errors import FracperimError
from .experiments import (
    _SETTINGS,
    MIN_FIT_POINTS,
    ExperimentConfig,
    config_from_mapping,
    exponent_study,
    k_limit_estimate,
    parse_config_text,
    sweep_csv,
    sweep_s,
    verify_suite,
)
from .extension import (
    extension_domain,
    extension_energy,
    lift_energy,
    poisson_extend,
    save_extension,
)
from .kernels import KernelParams, build_table
from .perimeter import fractional_perimeter
from .rearrange import (
    load_gridfunction,
    polya_szego_report,
    save_gridfunction,
    symmetric_rearrangement,
)
from .shapes import auto_spec, parse_shape, rasterize

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="flat key=value defaults file")
    p.add_argument("--n", type=int, choices=(1, 2), help="ambient dimension")
    p.add_argument("--s", help="order in (0,1); comma list for sweeps")
    p.add_argument("--h", help="grid spacing; comma list for sweeps")
    p.add_argument("--threads", type=int, help="sweep record pool; extend level workers")
    p.add_argument("--seed", type=int, help="seed for randomized checks")
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fracperim",
        description="nonlocal perimeters, asymmetry, deficits, and lifts on grids",
    )
    sub = top.add_subparsers(dest="command", required=True)

    shape_help = 'shape text, e.g. "kind=ball r=1.0 cx=0.0 cy=0.0"'

    p = sub.add_parser("perim", help="fractional perimeter of one shape")
    p.add_argument("--shape", required=True, help=shape_help)
    _add_common(p)

    p = sub.add_parser("asym", help="round-window asymmetry of one shape")
    p.add_argument("--shape", required=True, help=shape_help)
    _add_common(p)

    p = sub.add_parser("deficit", help="deficit report for one shape")
    p.add_argument("--shape", required=True, help=shape_help)
    _add_common(p)

    p = sub.add_parser("rearrange", help="symmetric decreasing rearrangement")
    p.add_argument("--infile", required=True, help="grid function file (FRACFUN v1)")
    _add_common(p)

    p = sub.add_parser("extend", help="upper half space lift of one shape")
    p.add_argument("--shape", required=True, help=shape_help)
    _add_common(p)

    p = sub.add_parser("sweep-s", help="family sweep over s and h")
    p.add_argument("--family", help="comma list of family names")
    p.add_argument("--params", help="comma list of family parameters")
    _add_common(p)

    p = sub.add_parser("exponent-study", help="log-log exponent fits per family")
    p.add_argument("--family", help="comma list of family names")
    p.add_argument("--params", help="comma list of family parameters")
    _add_common(p)

    p = sub.add_parser("verify", help="run every built-in invariant check")
    _add_common(p)
    return top


def _merge_config(args) -> ExperimentConfig:
    """Config file first, explicit flags override, defaults fill the rest."""
    mapping: dict = {}
    if args.config:
        mapping = parse_config_text(read_ascii(args.config))
    for key in _SETTINGS:  # each setting's flag; --n gives dim
        value = getattr(args, "n" if key == "dim" else key, None)
        if value is not None:
            mapping[key] = value
    return config_from_mapping(mapping)


def _single(values, what: str) -> float:
    if len(values) != 1:
        raise ValueError(f"this command takes exactly one {what}, got {values}")
    return values[0]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _shape_setup(args, cfg: ExperimentConfig):
    shape = parse_shape(args.shape)
    if cfg.dim not in (None, shape.dim):  # a --n flag or a config n/dim
        raise ValueError(f"dimension n = {cfg.dim} contradicts a "
                         f"{shape.dim}-dimensional shape")
    h = _single(cfg.h_values, "h")
    e = rasterize(shape, auto_spec(shape, h))
    return shape, e, h


def _cmd_perim(args, cfg: ExperimentConfig) -> int:
    shape, e, h = _shape_setup(args, cfg)
    s = _single(cfg.s_values, "s")
    ps = fractional_perimeter(e, build_table(KernelParams(shape.dim, s), h=h))
    row = csv_line([args.shape, shape.dim, s, h, e.cell_count, ps])
    _emit(csv_text("set,N,s,h,cells,Ps", row), cfg.out)
    return 0


def _cmd_asym(args, cfg: ExperimentConfig) -> int:
    shape, e, h = _shape_setup(args, cfg)
    a, center = fraenkel_asymmetry(e)
    cx, cy = (*center, "")[:2]  # a blank cy on the line
    row = csv_line([args.shape, shape.dim, h, a, cx, cy])
    _emit(csv_text("set,N,h,A,cx,cy", row), cfg.out)
    return 0


def _cmd_deficit(args, cfg: ExperimentConfig) -> int:
    shape, e, h = _shape_setup(args, cfg)
    s = _single(cfg.s_values, "s")
    table = build_table(KernelParams(shape.dim, s), h=h)
    report = s_deficit(e, table, set_id=args.shape)
    _emit(csv_text(DEFICIT_CSV_HEADER, report.csv_row()), cfg.out)
    return 0


def _cmd_rearrange(args, cfg: ExperimentConfig) -> int:
    g = load_gridfunction(args.infile)
    sharp = symmetric_rearrangement(g)
    if cfg.out:
        save_gridfunction(sharp, cfg.out)
    report = polya_szego_report(g)
    row = csv_line(
        [args.infile, report.energy_g, report.energy_gsharp, report.gap,
         report.l1_distance, report.support_measure]
    )
    header = "infile,energy_before,energy_after,gap,l1_distance,support_measure"
    sys.stdout.write(csv_text(header, row))
    return 0


def _cmd_extend(args, cfg: ExperimentConfig) -> int:
    shape, e, h = _shape_setup(args, cfg)
    s = _single(cfg.s_values, "s")
    grid, embedded = extension_domain(e)
    params = KernelParams(shape.dim, s)
    if cfg.out:
        u = poisson_extend(embedded, grid, params, threads=cfg.threads)
        save_extension(u, cfg.out)
        energy = extension_energy(u)
    else:
        energy = lift_energy(embedded, grid, params, threads=cfg.threads)
    row = csv_line(
        [args.shape, shape.dim, s, h, grid.level_count, grid.z_levels[0],
         grid.z_levels[-1], energy.total, energy.x_part, energy.z_part,
         energy.truncation_estimate]
    )
    header = "set,N,s,h,levels,z0,z_top,energy,x_part,z_part,truncation_estimate"
    sys.stdout.write(csv_text(header, row))
    return 0


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    records = sweep_s(cfg)
    text = sweep_csv(records)
    _emit(text, cfg.out)
    if cfg.out:
        sys.stdout.write(f"{len(records)} records -> {cfg.out}\n")
        k_limit = csv_line(["K_limit_estimate", k_limit_estimate(records)])
        sys.stdout.write(k_limit + "\n")
    return 0


def _cmd_exponent(args, cfg: ExperimentConfig) -> int:
    summary = exponent_study(cfg)
    if cfg.out:
        _emit(sweep_csv(summary.records), cfg.out)
    for line in summary.summary_lines():
        sys.stdout.write(line + "\n")
    # a fit with too few points is a study that cannot be judged (2); a
    # divergent fit or a slope below the theorem's bound fails it (1)
    failed = any(fit.divergent or fit.slope < 0.25 * fit.s - 0.02
                 for fit in summary.fits if not fit.degenerate)
    degenerate = [fit for fit in summary.fits if fit.degenerate]
    for fit in degenerate:
        sys.stderr.write(
            f"fracperim: error: {fit.family} s={fit.s:g} h={fit.h:g}: "
            f"{fit.points} usable points, the fit needs {MIN_FIT_POINTS}\n")
    if failed:
        return 1
    return 2 if degenerate else 0


def _cmd_verify(args, cfg: ExperimentConfig) -> int:
    report = verify_suite(cfg)
    _emit(report.csv_text(), cfg.out)
    if cfg.out:
        status = "PASS" if report.passed else "FAIL"
        sys.stdout.write(f"{status}: {len(report.checks)} checks -> {cfg.out}\n")
    return 0 if report.passed else 1


_COMMANDS = {
    "perim": _cmd_perim,
    "asym": _cmd_asym,
    "deficit": _cmd_deficit,
    "rearrange": _cmd_rearrange,
    "extend": _cmd_extend,
    "sweep-s": _cmd_sweep,
    "exponent-study": _cmd_exponent,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](args, cfg)
    except (FracperimError, ValueError, OSError) as exc:
        sys.stderr.write(f"fracperim: error: {exc}\n")
        return 2
    except (MemoryError, OverflowError) as exc:  # a bare MemoryError() has no message
        what = "ran out of memory" if isinstance(exc, MemoryError) else "overflowed"
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"fracperim: error: {args.command} {what}{detail}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
