"""Config parsing, sweep records, exponent fits, and the verify suite."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

import fracperim as fp
from fracperim.experiments import MIN_FIT_POINTS, ExponentFit, _fit_family
from fracperim.extension import extension_domain
from fracperim.kernels import DEFAULT_CUTOFF
from fracperim.perimeter import DEFAULT_MARGIN


# ------------------------------------------------------------------ config


def test_config_defaults_valid():
    cfg = fp.ExperimentConfig()
    assert cfg.dim is None  # the shapes or families decide
    assert cfg.threads == 1


def test_parse_config_text_round_trip():
    text = """
    # sweep setup
    n = 2
    s = 0.25, 0.5, 0.75   # three orders
    h = 0.0625
    family = ellipse-ecc, two-balls
    params = 0.8, 1.0
    margin = 5
    cutoff = 12
    threads = 3
    seed = 7
    out = run.csv
    z0 = 0.01
    rho = 1.2
    top_factor = 6.0
    lateral_factor = 3.0
    """
    cfg = fp.config_from_mapping(fp.parse_config_text(text))
    assert cfg.dim == 2
    assert cfg.s_values == (0.25, 0.5, 0.75)
    assert cfg.h_values == (0.0625,)
    assert cfg.family_names() == ("ellipse-ecc", "two-balls")
    assert cfg.params == (0.8, 1.0)
    assert cfg.margin == 5
    assert cfg.cutoff == 12
    assert cfg.threads == 3
    assert cfg.seed == 7
    assert cfg.out == "run.csv"
    assert cfg.z0 == 0.01
    assert cfg.rho == 1.2


def test_parse_config_rejects_unknown_key_and_bad_line():
    with pytest.raises(fp.FormatError, match="unknown config key"):
        fp.parse_config_text("zmax = 3")
    with pytest.raises(fp.FormatError, match="key = value"):
        fp.parse_config_text("just some words")


@pytest.mark.parametrize(
    "text,message",
    [
        ("s = 0.5\nh = 0.25\ns = 0.7\n", "line 3: config key 's' is given twice"),
        ("n = 1\n# the plane\ndim = 2\n", "line 3: n and dim both set the dimension"),
        ("dim = 2\nn = 2\n", "line 2: dim and n both set the dimension"),
    ],
)
def test_parse_config_rejects_a_setting_given_twice(text, message):
    with pytest.raises(fp.FormatError, match=message):
        fp.parse_config_text(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("margin = x", "config key 'margin' is not an integer: 'x'"),
        ("n = two", "config key 'n' is not an integer: 'two'"),
        ("rho = fast", "config key 'rho' is not a number: 'fast'"),
        ("s = 0.5,abc", "config key 's' is not a comma list of numbers: '0.5,abc'"),
    ],
)
def test_config_malformed_number_names_its_key(text, message):
    with pytest.raises(fp.FormatError, match=message):
        fp.config_from_mapping(fp.parse_config_text(text))


def test_config_defaults_are_the_library_defaults():
    cfg = fp.ExperimentConfig()
    assert (cfg.margin, cfg.cutoff) == (DEFAULT_MARGIN, DEFAULT_CUTOFF)
    domain = inspect.signature(extension_domain).parameters
    for name in ("z0", "rho", "top_factor", "lateral_factor"):
        assert getattr(cfg, name) == domain[name].default, name


def test_config_validation():
    with pytest.raises(ValueError):
        fp.ExperimentConfig(s_values=(1.0,))
    with pytest.raises(ValueError):
        fp.ExperimentConfig(s_values=())
    with pytest.raises(ValueError):
        fp.ExperimentConfig(h_values=(0.0,))
    with pytest.raises(ValueError):
        fp.ExperimentConfig(dim=3)
    with pytest.raises(ValueError):
        fp.ExperimentConfig(threads=0)
    with pytest.raises(ValueError):
        fp.ExperimentConfig(rho=1.0)
    with pytest.raises(ValueError):
        fp.ExperimentConfig(z0=-0.1)
    with pytest.raises(ValueError):
        fp.ExperimentConfig(family="hexagon").family_names()


@pytest.mark.parametrize(
    "field,value",
    [
        ("h_values", (math.nan,)),
        ("h_values", (math.inf,)),
        ("s_values", (math.nan,)),
        ("rho", math.inf),
        ("top_factor", math.nan),
        ("lateral_factor", math.inf),
        ("z0", math.inf),
        ("seed", -1),
    ],
)
def test_config_rejects_nonfinite_values_and_negative_seed(field, value):
    name = field.removesuffix("_values")
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        fp.ExperimentConfig(**{field: value})


def test_config_margin_uses_the_perimeter_bound():
    # a margin the perimeter would reject is refused when the config is built
    with pytest.raises(ValueError, match="margin must"):
        fp.ExperimentConfig(margin=1)
    assert fp.ExperimentConfig(margin=2).margin == 2


# ------------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def small_sweep():
    cfg = fp.ExperimentConfig(
        dim=2,
        family="ellipse-ecc",
        params=(0.6, 1.0),
        s_values=(0.5,),
        h_values=(1 / 16,),
    )
    return cfg, fp.sweep_s(cfg)


def test_sweep_record_contents(small_sweep):
    cfg, records = small_sweep
    assert len(records) == 2
    for rec in records:
        assert rec.family == "ellipse-ecc"
        assert rec.perimeter > 0.0
        assert 0.0 < rec.asymmetry < 2.0
        assert rec.ratio_limit_s1 > 0.0
        assert rec.ratio_limit_s0 > 0.0
    # more elongated ellipse is more asymmetric and more deficient
    assert records[1].asymmetry > records[0].asymmetry
    assert records[1].deficit > records[0].deficit


def test_sweep_sorted_and_csv_header(small_sweep):
    _, records = small_sweep
    text = fp.sweep_csv(records)
    lines = text.splitlines()
    assert lines[0] == fp.SWEEP_CSV_HEADER
    assert len(lines) == 3
    assert text.endswith("\n")
    params = [float(line.split(",")[1]) for line in lines[1:]]
    assert params == sorted(params)


def test_sweep_thread_count_does_not_change_bytes(small_sweep):
    cfg, records = small_sweep
    from dataclasses import replace

    threaded = fp.sweep_s(replace(cfg, threads=3))
    assert fp.sweep_csv(records) == fp.sweep_csv(threaded)


def test_ratio_theorem_blank_when_deficit_nonpositive():
    rec = fp.SweepRecord(
        "ellipse-ecc", 0.1, 0.5, 0.125, 0.01, -1e-3, 50.0,
        math.nan, 5.0, 1.6, ("nonpositive-deficit",),
    )
    row = rec.csv_row()
    cols = row.split(",")
    assert cols[7] == ""
    assert "nonpositive-deficit" in cols[10]


def test_k_limit_estimate_uses_largest_s(small_sweep):
    _, records = small_sweep
    est = fp.k_limit_estimate(records)
    vals = [r.ratio_limit_s1 for r in records]
    assert est == pytest.approx(float(np.mean(vals)))
    with pytest.raises(ValueError):
        fp.k_limit_estimate([])


def test_mixed_dimension_sweep_rejected():
    cfg = fp.ExperimentConfig(
        dim=2, family="ellipse-ecc,two-intervals", params=(0.8,),
        s_values=(0.5,), h_values=(1 / 8,),
    )
    with pytest.raises(ValueError, match="dimension"):
        fp.sweep_s(cfg)


@pytest.mark.parametrize("dim,family,family_dim", [(1, "ellipse-ecc", 2),
                                                  (2, "two-intervals", 1)])
def test_sweep_refuses_a_dimension_that_contradicts_its_families(
    dim, family, family_dim
):
    cfg = fp.ExperimentConfig(dim=dim, family=family, params=(0.3,),
                              s_values=(0.5,), h_values=(0.125,))
    message = (f"dimension n = {dim} contradicts the "
               f"{family_dim}-dimensional family '{family}'")
    for study in (fp.sweep_s, fp.exponent_study):
        with pytest.raises(ValueError, match=message):
            study(cfg)
    # with no dimension, or the families' own, the families decide
    free = fp.sweep_csv(fp.sweep_s(replace(cfg, dim=None)))
    assert fp.sweep_csv(fp.sweep_s(replace(cfg, dim=family_dim))) == free


# ---------------------------------------------------------------- exponent


def _fake_records(slope: float, n: int = 6):
    # synthetic power law A = D^slope over two decades of deficit
    recs = []
    for i in range(n):
        d = 10.0 ** (-2.0 + 2.0 * i / (n - 1))
        a = d**slope
        recs.append(
            fp.SweepRecord(
                "ellipse-ecc", float(i), 0.5, 0.0625, a, d, 60.0,
                a / d**0.125, 5.0, 1.6, (),
            )
        )
    return recs


def test_fit_recovers_synthetic_slope():
    fit = _fit_family(_fake_records(0.4), "ellipse-ecc", 0.5, 0.0625)
    assert not fit.degenerate
    assert fit.slope == pytest.approx(0.4, abs=1e-12)
    assert fit.points == 6


def test_fit_flags_degenerate_below_four_points():
    fit = _fit_family(_fake_records(0.4, n=3), "ellipse-ecc", 0.5, 0.0625)
    assert fit.degenerate
    assert math.isnan(fit.slope)


def test_fit_excludes_records_outside_regime():
    recs = _fake_records(0.4) + [
        fp.SweepRecord("ellipse-ecc", 99.0, 0.5, 0.0625, 0.5, 4.0, 60.0,
                       0.5 / 4.0**0.125, 5.0, 1.6, ("deficit-above-one",)),
        fp.SweepRecord("ellipse-ecc", 98.0, 0.5, 0.0625, 0.5, -0.1, 60.0,
                       math.nan, 5.0, 1.6, ("nonpositive-deficit",)),
    ]
    fit = _fit_family(recs, "ellipse-ecc", 0.5, 0.0625)
    assert fit.points == 6


def test_fit_divergence_flag():
    # ratio pinned at 1 except a 20x blow-up at the smallest deficit
    recs = []
    for i in range(6):
        d = 10.0 ** (-2.0 + 2.0 * i / 5.0)
        a = (20.0 if i == 0 else 1.0) * d**0.125
        recs.append(
            fp.SweepRecord(
                "ellipse-ecc", float(i), 0.5, 0.0625, a, d, 60.0,
                a / d**0.125, 5.0, 1.6, (),
            )
        )
    fit = _fit_family(recs, "ellipse-ecc", 0.5, 0.0625)
    assert fit.divergent
    assert fit.ratio_at_min_deficit == fit.max_ratio
    # the well-behaved family is not flagged
    ok = _fit_family(_fake_records(0.4), "ellipse-ecc", 0.5, 0.0625)
    assert not ok.divergent


def test_exponent_study_refuses_too_few_parameters_before_the_sweep(monkeypatch):
    cfg = fp.ExperimentConfig(dim=2, family="fourier-disk", params=(0.1, 0.2, 0.3),
                              s_values=(0.5,), h_values=(1 / 16,))
    monkeypatch.setattr("fracperim.experiments.sweep_s", None)  # not reached
    with pytest.raises(fp.DegenerateFitError,
                       match=f"3 given, each fit needs {MIN_FIT_POINTS}"):
        fp.exponent_study(cfg)


def test_exponent_study_end_to_end():
    cfg = fp.ExperimentConfig(
        dim=2, family="fourier-disk", params=(0.1, 0.2, 0.3, 0.4),
        s_values=(0.5,), h_values=(1 / 16,),
    )
    summary = fp.exponent_study(cfg)
    assert len(summary.records) == 4
    assert len(summary.fits) == 1
    fit = summary.fits[0]
    assert isinstance(fit, ExponentFit)
    assert len(summary.summary_lines()) == 1
    if not fit.degenerate:
        assert fit.slope > 0.0


# ------------------------------------------------------------------ verify


@pytest.mark.slow
def test_verify_suite_all_pass():
    report = fp.verify_suite()
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"failing checks: {failing}"
    assert len(report.checks) >= 20
    text = report.csv_text()
    assert text.splitlines()[0] == "check,result,measured,bound,detail"
    assert len(text.splitlines()) == len(report.checks) + 1


def test_verify_check_row_format():
    chk = fp.VerifyCheck("demo", False, 0.5, 0.25, "over budget")
    assert chk.csv_row() == "demo,FAIL,0.5,0.25,over budget"
