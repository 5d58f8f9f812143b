"""Rank-one cutting-and-stacking constructions and weak-limit verification.

The package builds towers from cutting parameters (column counts and spacer
sequences), represents where base-stage levels sit inside later towers as
sparse integer position sets, and checks numerically that large-shift
correlations line up with the algebra generated by prescribed coefficient
series.
"""

from .construction import (
    ColumnGrowthPolicy,
    ConstructionParams,
    FrequencyReport,
    GenerationError,
    LevelOccupancy,
    SidonPolicy,
    SidonResult,
    StageParams,
    apply_sidon,
    expand_occupancy,
    gen_example,
    gen_p_construction,
    generator_series,
    heights,
    params_from_json,
    params_to_json,
    recheck_gates,
    sample_spacers,
    truncate_admissible,
    validate_params,
    verify_frequencies,
)
from .series import (
    AdmissibleSeries,
    FormalElement,
    SeriesValidationError,
    adjoint,
    convolve,
    enumerate_semigroup,
    make_admissible,
    power,
    validate_coeffs,
)
from .weaktop import (
    CorrCount,
    CorrelationPanel,
    DiscrepancyReport,
    HadicDecomposition,
    ScanEntry,
    ScanReport,
    SupportTooWideError,
    boundary_loss,
    corr,
    default_panel,
    excision_factor,
    hadic_decompose,
    pair_counts,
    predicted_element,
    sample_gap_shifts,
    scan_limits,
    strong_norm_sq,
    weak_discrepancy,
    write_scan_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
