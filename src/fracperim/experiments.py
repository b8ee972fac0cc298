"""Parameter sweeps, the exponent study, and the whole-suite verifier.

Everything here is deterministic: a config plus a seed fixes every CSV
byte, independent of thread count.  Records are serialized in
(family, param, s, h) order with 17-significant-digit floats.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._textio import csv_line, csv_text
from .deficit import (
    centered_sandwich_check,
    n_symmetrize,
    equivalent_radius,
    fraenkel_asymmetry,
    reference_ball,
    s_deficit,
)
from .errors import DegenerateFitError, EmptySetError, FormatError
from .extension import (
    calibrate_gamma,
    extension_domain,
    extension_energy,
    horizontal_rearrange,
    lambda_constant,
    poisson_extend,
    poisson_kernel_mass,
    trace_check,
)
from .families import FAMILY_NAMES, generate_family
from .grids import GridSet, GridSpec, bisect_halves, unit_ball_volume
from .kernels import KernelParams, build_table
from .perimeter import fractional_perimeter
from .rearrange import (
    GridFunction,
    dirichlet_energy,
    polya_szego_report,
    symmetric_rearrangement,
)
from .shapes import Ball, Ellipse, Interval, UnionShape, auto_spec, rasterize

__all__ = [
    "SWEEP_CSV_HEADER",
    "ExperimentConfig",
    "ExponentFit",
    "ExponentSummary",
    "SweepRecord",
    "VerifyCheck",
    "VerifyReport",
    "config_from_mapping",
    "exponent_study",
    "k_limit_estimate",
    "parse_config_text",
    "sweep_csv",
    "sweep_s",
    "verify_suite",
]

# an exponent fit takes a family's records with 0 < Ds <= 1 and A > 0;
# with fewer than this many it is degenerate
MIN_FIT_POINTS = 4

SWEEP_CSV_HEADER = (
    "family,param,s,h,A,Ds,Ps,ratio_theorem,ratio_limit_s1,ratio_limit_s0,flags"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs for sweeps and studies; invalid values refuse to construct.

    `dim` None (the default) lets the shapes or families decide the
    dimension; a given one must agree with them.
    """

    dim: int | None = None
    s_values: tuple[float, ...] = (0.5,)
    h_values: tuple[float, ...] = (1 / 32,)
    family: str = "ellipse-ecc"
    params: tuple[float, ...] = (0.1, 0.2, 0.4)
    threads: int = 1
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_values", tuple(float(s) for s in self.s_values))
        object.__setattr__(self, "h_values", tuple(float(h) for h in self.h_values))
        object.__setattr__(self, "params", tuple(float(t) for t in self.params))
        if self.dim not in (None, 1, 2):
            raise ValueError("dim must be 1 or 2")
        if not self.s_values or any(not 0.0 < s < 1.0 for s in self.s_values):
            raise ValueError("every s must lie strictly inside (0, 1)")
        if not self.h_values or any(not 0.0 < h < math.inf for h in self.h_values):
            raise ValueError(f"every h must be positive and finite: {self.h_values}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def family_names(self) -> tuple[str, ...]:
        names = tuple(tok.strip() for tok in self.family.split(",") if tok.strip())
        for name in names:
            if name not in FAMILY_NAMES:
                raise ValueError(f"unknown family {name!r}")
        return names


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# every setting a config file or a flag may give: key -> (ExperimentConfig
# field, parser of its value); "n" is read as "dim" unless "dim" is given
_SETTINGS = {
    "dim": ("dim", int),
    "s": ("s_values", _floats),
    "h": ("h_values", _floats),
    "family": ("family", str),
    "params": ("params", _floats),
    "threads": ("threads", int),
    "seed": ("seed", int),
    "out": ("out", lambda value: str(value) or None),
}


_NUMBER_KINDS = {int: "an integer", _floats: "a comma list of numbers"}


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' comments and blank lines are skipped.

    A key given twice, or both ``n`` and ``dim``, is refused.
    """
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "n" and key not in _SETTINGS:
            raise FormatError(f"line {lineno}: unknown config key {key!r}")
        if key in mapping:
            raise FormatError(f"line {lineno}: config key {key!r} is given twice")
        other = {"n": "dim", "dim": "n"}.get(key)
        if other in mapping:
            raise FormatError(f"line {lineno}: {other} and {key} both set the dimension")
        mapping[key] = value
    return mapping


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """The config a mapping of settings gives; a malformed number names its key."""
    kw = {}
    for key, (field, parse) in _SETTINGS.items():
        name = "n" if key == "dim" and "dim" not in mapping else key
        if name in mapping:
            try:
                kw[field] = parse(mapping[name])
            except ValueError:
                raise FormatError(f"config key {name!r} is not "
                                  f"{_NUMBER_KINDS[parse]}: {mapping[name]!r}") from None
    return ExperimentConfig(**kw)


@dataclass(frozen=True)
class SweepRecord:
    """One (shape, s, h) measurement with the derived ratio columns."""

    family: str
    param: float
    s: float
    h: float
    asymmetry: float
    deficit: float
    perimeter: float
    ratio_theorem: float  # A / Ds^(s/4); nan when the deficit is <= 0
    ratio_limit_s1: float  # (1-s) Ps / P(E)
    ratio_limit_s0: float  # s Ps / (N |B| |E|)
    flags: tuple[str, ...] = ()

    def csv_row(self) -> str:
        ratio = "" if math.isnan(self.ratio_theorem) else self.ratio_theorem
        return csv_line(
            [self.family, self.param, self.s, self.h, self.asymmetry,
             self.deficit, self.perimeter, ratio, self.ratio_limit_s1,
             self.ratio_limit_s0, ";".join(self.flags)]
        )


def _record_sort_key(r: SweepRecord):
    return (r.family, r.param, r.s, r.h)


def _one_record(member, s, h, table, config) -> SweepRecord:
    shape = member.shape
    e = rasterize(shape, auto_spec(shape, h))
    report = s_deficit(e, table, set_id=f"{member.family}:{member.param:g}")
    dim = shape.dim
    flags = list(report.flags)
    if report.deficit > 0.0:
        ratio = report.asymmetry / report.deficit ** (0.25 * s)
    else:
        ratio = math.nan
        flags.append("nonpositive-deficit")
    limit_s1 = (1.0 - s) * report.perimeter / shape.perimeter
    limit_s0 = s * report.perimeter / (dim * unit_ball_volume(dim) * e.measure)
    return SweepRecord(
        member.family,
        member.param,
        s,
        h,
        report.asymmetry,
        report.deficit,
        report.perimeter,
        ratio,
        limit_s1,
        limit_s0,
        tuple(flags),
    )


def sweep_s(config: ExperimentConfig) -> list[SweepRecord]:
    """Measure every (family member, s, h) combination in the config.

    The records are computed on a pool of ``config.threads`` workers and
    come back in (family, param, s, h) order.  A setting that lists no
    value, or one value twice, is refused: a copy would be measured again
    and counted as one more point of a fit.  The families fix the
    dimension: a ``config.dim`` that contradicts one is refused.
    """
    members = _sweep_members(config)
    dim = members[0].dim
    # threads share each table: a table is not changed once it is made
    tables = {
        (s, h): build_table(KernelParams(dim, s), h=h)
        for s in config.s_values
        for h in config.h_values
    }
    tasks = [
        (member, s, h)
        for member in members
        for s in config.s_values
        for h in config.h_values
    ]

    def run(task) -> SweepRecord:
        member, s, h = task
        return _one_record(member, s, h, tables[(s, h)], config)

    with ThreadPoolExecutor(config.threads) as pool:
        records = list(pool.map(run, tasks))
    return sorted(records, key=_record_sort_key)


def _sweep_members(config: ExperimentConfig) -> list:
    """The config's family members, once ``sweep_s``'s checks pass."""
    names = config.family_names()
    for key, value in (("family", names), ("params", config.params),
                       ("s", config.s_values), ("h", config.h_values)):
        if not value:
            raise ValueError(
                f"the sweep has no members: the {key!r} setting lists none"
            )
        repeated = [v for i, v in enumerate(value) if v in value[:i]]
        if repeated:
            raise ValueError(
                f"the sweep repeats a member: the {key!r} setting lists "
                f"{repeated[0]} more than once"
            )
    members = []
    for name in names:
        for member in generate_family(name, config.params, h=min(config.h_values)):
            if config.dim not in (None, member.dim):
                raise ValueError(f"dimension n = {config.dim} contradicts the "
                                 f"{member.dim}-dimensional family {name!r}")
            members.append(member)
    if len({m.dim for m in members}) != 1:
        raise ValueError("all families in one sweep must share a dimension")
    return members


def sweep_csv(records) -> str:
    ordered = sorted(records, key=_record_sort_key)
    return csv_text(SWEEP_CSV_HEADER, *(r.csv_row() for r in ordered))


def k_limit_estimate(records) -> float:
    """Cross-shape mean of (1-s) Ps / P at the largest sampled s."""
    if not records:
        raise ValueError("no records to estimate from")
    s_max = max(r.s for r in records)
    vals = [r.ratio_limit_s1 for r in records if r.s == s_max]
    return float(np.mean(vals))


@dataclass(frozen=True)
class ExponentFit:
    """Log-log fit of asymmetry against deficit for one family."""

    family: str
    s: float
    h: float
    points: int
    slope: float
    intercept: float
    max_ratio: float
    ratio_at_min_deficit: float
    degenerate: bool
    divergent: bool


@dataclass(frozen=True)
class ExponentSummary:
    records: tuple[SweepRecord, ...]
    fits: tuple[ExponentFit, ...]

    def summary_lines(self) -> list[str]:
        out = []
        for f in self.fits:
            status = "degenerate" if f.degenerate else (
                "divergent" if f.divergent else "ok"
            )
            out.append(
                f"{f.family} s={f.s:g} h={f.h:g}: points={f.points} "
                f"slope={f.slope:.4f} max_ratio={f.max_ratio:.4f} "
                f"at_min_deficit={f.ratio_at_min_deficit:.4f} [{status}]"
            )
        return out


def _fit_family(records: list[SweepRecord], family: str, s: float, h: float) -> ExponentFit:
    # ball members land at (A, Ds) ~ (0, 0) and are excluded; the fit
    # window is the deficit regime Ds <= 1
    eligible = [
        r
        for r in records
        if r.family == family
        and r.s == s
        and r.h == h
        and r.deficit > 0.0
        and r.asymmetry > 0.0
        and r.deficit <= 1.0
    ]
    n = len(eligible)
    if n < MIN_FIT_POINTS:
        return ExponentFit(
            family, s, h, n, math.nan, math.nan, math.nan, math.nan, True, False
        )
    log_d = np.log([r.deficit for r in eligible])
    log_a = np.log([r.asymmetry for r in eligible])
    slope, intercept = np.polyfit(log_d, log_a, 1)
    ratios = [r.ratio_theorem for r in eligible]
    max_ratio = max(ratios)
    min_deficit_rec = min(eligible, key=lambda r: r.deficit)
    at_min = min_deficit_rec.ratio_theorem
    divergent = at_min == max_ratio and at_min > 2.0 * float(np.median(ratios))
    return ExponentFit(
        family,
        s,
        h,
        n,
        float(slope),
        float(intercept),
        float(max_ratio),
        float(at_min),
        False,
        divergent,
    )


def exponent_study(config: ExperimentConfig) -> ExponentSummary:
    """Sweep the config's families and fit log A against log Ds; a fit
    takes one record per parameter, so fewer than MIN_FIT_POINTS
    parameters are refused (DegenerateFitError) before the sweep."""
    _sweep_members(config)
    if len(config.params) < MIN_FIT_POINTS:
        raise DegenerateFitError(
            f"exponent-study fits one point per parameter: "
            f"{len(config.params)} given, each fit needs {MIN_FIT_POINTS}")
    records = sweep_s(config)
    fits = []
    for family in config.family_names():
        for s in config.s_values:
            for h in config.h_values:
                fits.append(_fit_family(records, family, s, h))
    return ExponentSummary(tuple(records), tuple(fits))


# ----------------------------------------------------------------- verify


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def csv_row(self) -> str:
        result = "pass" if self.passed else "FAIL"
        return csv_line([self.name, result, self.measured, self.bound, self.detail])


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def csv_text(self) -> str:
        header = "check,result,measured,bound,detail"
        return csv_text(header, *(c.csv_row() for c in self.checks))


# what each verify check returns: (passed, measured, bound)
_Outcome = tuple[bool, float, float]


def _interval_closed_form(length: float, s: float) -> float:
    return 2.0 * length ** (1.0 - s) / (s * (1.0 - s))


def _aligned_interval_set(h: float, pieces) -> GridSet:
    lo = min(a for a, _ in pieces) - 16 * h
    n = int(round((max(b for _, b in pieces) - lo) / h)) + 32
    spec = GridSpec(1, (n,), h, (lo,))
    occ = np.zeros(n, dtype=bool)
    centers = spec.axis_centers(0)
    for a, b in pieces:
        occ |= (centers > a) & (centers < b)
    return GridSet(spec, occ)


def _blob_2d(seed: int, h: float) -> GridSet:
    rng = np.random.default_rng(seed)
    spec = GridSpec(2, (48, 48), h, (0.0, 0.0))
    occ = np.zeros((48, 48), dtype=bool)
    occ[14:34, 14:34] = True
    idx = rng.integers(10, 38, size=(60, 2))
    occ[idx[:, 0], idx[:, 1]] = True
    return GridSet(spec, occ)


def verify_suite(config: ExperimentConfig | None = None) -> VerifyReport:
    """Run every module's invariants at pinned desk-scale resolutions.

    Failures are collected, never short-circuited; each check reports the
    measured value against its bound so a failure is diagnosable from the
    report alone.
    """
    if config is None:
        config = ExperimentConfig()
    checks: list[VerifyCheck] = []

    def add(name: str, fn) -> None:
        try:
            checks.append(VerifyCheck(name, *fn()))
        except Exception as exc:  # collected, not raised
            checks.append(
                VerifyCheck(name, False, math.nan, math.nan, repr(exc))
            )

    # --- perimeter engine against closed forms
    def chk_interval() -> _Outcome:
        h, s = 2.0**-8, 0.5
        e = _aligned_interval_set(h, ((0.0, 1.0),))
        table = build_table(KernelParams(1, s), h=h)
        got = fractional_perimeter(e, table)
        want = _interval_closed_form(1.0, s)
        rel = abs(got - want) / want
        return rel <= 1e-4, rel, 1e-4

    def chk_union() -> _Outcome:
        h, s = 2.0**-7, 0.5
        e = _aligned_interval_set(h, ((0.0, 1.0), (2.0, 3.0)))
        table = build_table(KernelParams(1, s), h=h)
        got = fractional_perimeter(e, table)
        want = 24.0 + 8.0 * math.sqrt(3.0) - 16.0 * math.sqrt(2.0)
        rel = abs(got - want) / want
        return rel <= 1e-6, rel, 1e-6

    def _scaling_check(e: GridSet, lam: int, dim: int) -> _Outcome:
        s = 0.5
        h = e.spec.h
        t1 = build_table(KernelParams(dim, s), h=h)
        t2 = t1.with_h(lam * h)
        p1 = fractional_perimeter(e, t1)
        big = GridSet(GridSpec(dim, e.spec.cells, lam * h, e.spec.origin), e.occupancy)
        p2 = fractional_perimeter(big, t2)
        power = dim - s
        lhs = p2 * h**power
        rhs = p1 * (lam * h) ** power
        ulp = math.ulp(max(abs(lhs), abs(rhs)))
        measured = abs(lhs - rhs) / ulp
        bound = float(8 * e.cell_count)
        return measured <= bound, measured, bound

    def chk_scaling_1d() -> _Outcome:
        e = _aligned_interval_set(1 / 16, ((0.0, 0.75),))
        return _scaling_check(e, 2, 1)

    def chk_scaling_2d() -> _Outcome:
        e = rasterize(Ball((0.0, 0.0), 0.5), auto_spec(Ball((0.0, 0.0), 0.5), 1 / 8))
        return _scaling_check(e, 4, 2)

    def chk_subadditive() -> _Outcome:
        h, s = 1 / 16, 0.5
        table = build_table(KernelParams(1, s), h=h)
        e1 = _aligned_interval_set(h, ((0.0, 1.0),))
        e2 = _aligned_interval_set(h, ((1.5, 2.5),))
        union = _aligned_interval_set(h, ((0.0, 1.0), (1.5, 2.5)))
        gap = (
            fractional_perimeter(e1, table)
            + fractional_perimeter(e2, table)
            - fractional_perimeter(union, table)
        )
        return gap > 0.0, gap, 0.0

    # --- deficit / asymmetry
    def chk_ball_deficit() -> _Outcome:
        h, s = 1 / 16, 0.5
        shape = Ball((0.0, 0.0), 1.0)
        e = rasterize(shape, auto_spec(shape, h))
        centered = reference_ball(e)
        table = build_table(KernelParams(2, s), h=h)
        report = s_deficit(centered, table)
        return report.deficit == 0.0, report.deficit, 0.0

    def chk_asym_range() -> _Outcome:
        e = _blob_2d(config.seed, 1 / 16)
        a, _ = fraenkel_asymmetry(e)
        ok = 0.0 <= a <= 2.0
        return ok, a, 2.0

    def chk_asym_far_union() -> _Outcome:
        rho = 1.0 / math.sqrt(2.0)
        shape = UnionShape((Ball((-4.0, 0.0), rho), Ball((4.0, 0.0), rho)))
        e = rasterize(shape, auto_spec(shape, 1 / 16))
        a, _ = fraenkel_asymmetry(e)
        err = abs(a - 1.0)
        return err <= 0.02, err, 0.02

    def chk_reflection() -> _Outcome:
        h, s = 1 / 16, 0.5
        e = _blob_2d(config.seed + 1, h)
        table = build_table(KernelParams(2, s), h=h)
        p_e = fractional_perimeter(e, table)
        worst = -math.inf
        for axis in range(2):
            _plane, plus, minus = bisect_halves(e, axis)
            avg = 0.5 * (
                fractional_perimeter(plus, table)
                + fractional_perimeter(minus, table)
            )
            worst = max(worst, (avg - p_e) / p_e)
        return worst <= 1e-9, worst, 1e-9

    def chk_sandwich() -> _Outcome:
        h = 1 / 16
        spec = GridSpec(2, (48, 48), h, (0.0, 0.0))
        occ = np.zeros((48, 48), dtype=bool)
        occ[8:40, 20:28] = True
        occ[20:28, 8:40] = True
        e = GridSet(spec, occ)
        asym, ratio = centered_sandwich_check(e)
        ok = asym <= ratio + 1e-12
        return ok, ratio - asym, 0.0

    def chk_symmetrize() -> _Outcome:
        h, s = 1 / 16, 0.5
        shape = Ellipse((0.37, -0.21), 1.25, 0.8)
        e = rasterize(shape, auto_spec(shape, h))
        table = build_table(KernelParams(2, s), h=h)
        before = s_deficit(e, table)
        sym, audit = n_symmetrize(e, table)
        bound = 4.0 * before.deficit + 2.0 * before.error_budget
        ok = (not audit.bound_violated) and audit.final_deficit <= bound
        return ok, audit.final_deficit, bound

    # --- rearrangement
    def chk_polya() -> _Outcome:
        # compact paraboloid bumps keep the support clear of the grid rim,
        # for both the function and its rearrangement
        spec = GridSpec(2, (33, 33), 1 / 16, (0.0, 0.0))
        xs = spec.axis_centers(0)
        xx, yy = np.meshgrid(xs, spec.axis_centers(1), indexing="ij")
        rng = np.random.default_rng(config.seed + 2)
        vals = np.zeros((33, 33))
        for _ in range(4):
            cx, cy = rng.uniform(0.8, 1.25, size=2)
            r = rng.uniform(0.2, 0.35)
            vals += np.maximum(0.0, 1.0 - ((xx - cx) ** 2 + (yy - cy) ** 2) / r**2)
        g = GridFunction(spec, vals)
        report = polya_szego_report(g)
        sharp = symmetric_rearrangement(g)
        equal = np.array_equal(
            np.sort(g.values.ravel()), np.sort(sharp.values.ravel())
        )
        ok = report.gap >= 0.0 and equal
        return ok, report.gap, 0.0

    def chk_dirichlet_oracle() -> _Outcome:
        spec = GridSpec(1, (5,), 1.0, (0.0,))
        g = GridFunction(spec, np.array([0.0, 1.0, 2.0, 1.0, 0.0]))
        got = dirichlet_energy(g)
        return got == 4.0, got, 4.0

    def chk_rearrange_example() -> _Outcome:
        spec = GridSpec(1, (4,), 1.0, (0.0,))
        g = GridFunction(spec, np.array([0.0, 5.0, 0.0, 1.0]))
        sharp = symmetric_rearrangement(g)
        want = np.array([0.0, 1.0, 5.0, 0.0])
        ok = np.array_equal(sharp.values, want)
        return ok, float(ok), 1.0

    # --- extension
    def chk_lambda() -> _Outcome:
        got = lambda_constant(KernelParams(2, 0.5))
        want = 0.5 / (2.0 * math.pi)
        err = abs(got - want)
        return err <= 1e-12, err, 1e-12

    def chk_kernel_mass() -> _Outcome:
        rng = np.random.default_rng(config.seed + 3)
        worst = 0.0
        for dim in (1, 2):
            for _ in range(3):
                x = rng.uniform(-3, 3, size=dim)
                z = float(rng.uniform(0.05, 2.0))
                x_arg = float(x[0]) if dim == 1 else tuple(x)
                mass = poisson_kernel_mass(KernelParams(dim, 0.5), x_arg, z)
                worst = max(worst, abs(mass - 1.0))
        return worst <= 1e-6, worst, 1e-6

    def chk_extension_identity() -> _Outcome:
        gamma = calibrate_gamma(
            Interval(0.0, 2.0),
            Interval(0.0, 1.0),
            KernelParams(1, 0.5),
            1 / 32,
            rtol=0.02,
        ).value
        return gamma > 0.0, gamma, 0.0

    def chk_rearranged_energy() -> _Outcome:
        shape = UnionShape((Interval(0.0, 0.8), Interval(1.5, 2.7)))
        e = rasterize(shape, auto_spec(shape, 1 / 32))
        grid, emb = extension_domain(e)
        u = poisson_extend(emb, grid, KernelParams(1, 0.5))
        star = horizontal_rearrange(u)
        before = extension_energy(u)
        after = extension_energy(star)
        worst = max(after.x_part - before.x_part, after.z_part - before.z_part)
        bound = 1e-12 * before.total
        return worst <= bound, worst, bound

    def chk_trace_monotone() -> _Outcome:
        shape = Interval(0.0, 1.0)
        e = rasterize(shape, auto_spec(shape, 1 / 16))
        grid, emb = extension_domain(e)
        u = poisson_extend(emb, grid, KernelParams(1, 0.5))
        dist = trace_check(u)
        rise = float(np.diff(dist).min())
        return rise > 0.0, rise, 0.0

    # --- families and plumbing
    def chk_family_norm() -> _Outcome:
        worst = 0.0
        grids = {
            "ellipse-ecc": (0.0, 0.3),
            "fourier-disk": (0.1, 0.3),
            "dumbbell": (0.4,),
            "two-balls": (1.0,),
            "offset-bump": (0.25,),
            "two-intervals": (0.5,),
        }
        for name, params in grids.items():
            for member in generate_family(name, params):
                target = unit_ball_volume(member.dim)
                worst = max(worst, abs(member.shape.volume - target))
        return worst <= 1e-8, worst, 1e-8

    def chk_tamper() -> _Outcome:
        # fault injection: a 1% dent in one table entry and its mirror must
        # push the closed-form reproduction outside the oracle tolerance
        h, s = 2.0**-8, 0.5
        oracle_tol = 1e-4
        e = _aligned_interval_set(h, ((0.0, 1.0),))
        table = build_table(KernelParams(1, s), h=h)
        entries = dict(table.entries)
        for key in ((1,), (-1,)):
            entries[key] = entries[key] * 1.01
        tampered = replace(table, entries=entries)
        want = _interval_closed_form(1.0, s)
        rel = abs(fractional_perimeter(e, tampered) - want) / want
        return rel > oracle_tol, rel, oracle_tol

    def chk_empty_errors() -> _Outcome:
        spec = GridSpec(1, (16,), 1 / 8, (0.0,))
        empty = GridSet.empty(spec)
        table = build_table(KernelParams(1, 0.5), h=1 / 8)
        probes = (
            lambda: equivalent_radius(empty),
            lambda: fractional_perimeter(empty, table),
            lambda: extension_domain(empty),
            lambda: n_symmetrize(empty, table),
        )
        hits = 0
        for probe in probes:
            try:
                probe()
            except EmptySetError:
                hits += 1
        return hits == len(probes), float(hits), float(len(probes))

    def chk_csv_determinism() -> _Outcome:
        tiny = replace(
            config,
            dim=2,
            family="ellipse-ecc",
            params=(0.2, 0.4),
            s_values=(0.5,),
            h_values=(1 / 8,),
            threads=1,
        )
        first = sweep_csv(sweep_s(tiny))
        second = sweep_csv(sweep_s(replace(tiny, threads=2)))
        same = first == second
        return same, float(same), 1.0

    for name, fn in (
        ("interval-closed-form", chk_interval),
        ("two-interval-closed-form", chk_union),
        ("scaling-1d", chk_scaling_1d),
        ("scaling-2d", chk_scaling_2d),
        ("union-subadditive", chk_subadditive),
        ("centered-ball-zero-deficit", chk_ball_deficit),
        ("asymmetry-range", chk_asym_range),
        ("asymmetry-far-union", chk_asym_far_union),
        ("reflection-inequality", chk_reflection),
        ("sandwich-cross", chk_sandwich),
        ("symmetrize-deficit-bound", chk_symmetrize),
        ("polya-szego", chk_polya),
        ("dirichlet-tent-oracle", chk_dirichlet_oracle),
        ("rearrange-worked-example", chk_rearrange_example),
        ("lambda-closed-form", chk_lambda),
        ("kernel-normalization", chk_kernel_mass),
        ("extension-identity", chk_extension_identity),
        ("rearranged-energy", chk_rearranged_energy),
        ("trace-monotone", chk_trace_monotone),
        ("family-normalization", chk_family_norm),
        ("tamper-detected", chk_tamper),
        ("empty-set-errors", chk_empty_errors),
        ("csv-determinism", chk_csv_determinism),
    ):
        add(name, fn)
    return VerifyReport(tuple(checks))
