"""Nonlocal s-perimeters, rearrangements, and extension energies on pixel grids."""

from .errors import (
    CalibrationError,
    DegenerateFitError,
    DomainTooSmallError,
    EmptySetError,
    FormatError,
    FracperimError,
    GridMismatchError,
    MarginError,
    MissingHaloError,
    SymmetryDefectError,
)
from .deficit import (
    DEFICIT_CSV_HEADER,
    DeficitReport,
    SymmetrizeAudit,
    boundary_cell_count,
    centered_sandwich_check,
    equivalent_radius,
    fraenkel_asymmetry,
    n_symmetrize,
    reference_ball,
    s_deficit,
    symmetry_defect_cells,
)
from .experiments import (
    SWEEP_CSV_HEADER,
    ExperimentConfig,
    ExponentFit,
    ExponentSummary,
    SweepRecord,
    VerifyCheck,
    VerifyReport,
    config_from_mapping,
    exponent_study,
    k_limit_estimate,
    parse_config_text,
    sweep_csv,
    sweep_s,
    verify_suite,
)
from .extension import (
    ExtensionEnergy,
    ExtensionField,
    GammaRecord,
    HalfSpaceGrid,
    TruncationWarning,
    calibrate_gamma,
    extension_domain,
    extension_energy,
    geometric_levels,
    horizontal_rearrange,
    lambda_constant,
    lift_energy,
    load_extension,
    poisson_extend,
    poisson_kernel_mass,
    save_extension,
    trace_check,
)
from .families import (
    FAMILY_NAMES,
    FamilyMember,
    generate_family,
)
from .grids import (
    GridSet,
    GridSpec,
    bisect_halves,
    pad_domain,
    unit_ball_volume,
)
from .kernels import (
    InteractionTable,
    KernelParams,
    build_table,
)
from .perimeter import (
    fractional_perimeter,
    gagliardo_seminorm,
    single_cell_perimeter,
)
from .rearrange import (
    GridFunction,
    RearrangeReport,
    dirichlet_energy,
    load_gridfunction,
    polya_szego_report,
    save_gridfunction,
    symmetric_rearrangement,
    symmetry_defect,
)
from .shapes import (
    AxisBox,
    Ball,
    Dumbbell,
    Ellipse,
    FourierDisk,
    Interval,
    UnionShape,
    auto_spec,
    format_shape,
    parse_shape,
    rasterize,
)

__version__ = "0.1.0"
