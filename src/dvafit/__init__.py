"""Differential voltage analysis toolkit for battery formation diagnostics.

Fits half-cell reference potential curves to measured near-equilibrium
full-cell voltage data and derives per-cell manufacturing diagnostics:
electrode capacities, lithium consumed during formation, cyclable
lithium inventory, negative-to-positive ratios, and degradation metrics
between fitted states.
"""

from ._version import __version__
from .batch import (
    BatchSummary,
    CellRecord,
    CorrelationResult,
    correlate,
    metric_value,
    normalize_areal,
    summarize,
    summarize_by_batch,
)
from .curves import (
    CapacityVoltageSeries,
    RateCheckResult,
    ReferencePotentialCurve,
    SmoothingConfig,
    build_reference_curve,
    capacity_at_rate_check,
    differentiate,
    interpolate_potential,
    potential_slope,
    resample,
    smooth,
    validate_full_cell,
)
from .dataio import (
    Report,
    ToolkitConfig,
    load_config,
    parse_full_cell,
    parse_reference_curve,
    parse_report,
    read_report,
    serialize_report,
    write_full_cell,
    write_reference_curve,
    write_report,
)
from .errors import (
    ConfigError,
    DvafitError,
    GenerationError,
    InfeasibilityError,
    InputDataError,
    NonConvergenceError,
)
from .features import (
    ArealFeatures,
    CorrectionInputs,
    DegradationMetrics,
    DesignParams,
    FeatureSet,
    LithiumInventory,
    correct_to_true,
    degradation,
    derive_features,
    npr_conventional,
    npr_practical,
    npr_theoretical,
    observed_fraction,
    q_li,
    q_sei,
    theoretical_capacity,
)
from .fitting import (
    FitConfig,
    FitResult,
    ParameterBounds,
    fit,
    residuals,
)
from .model import (
    ElectrodeParams,
    StoichPair,
    charged_stoichiometries,
    predict_dvdq,
    predict_voltage,
    q_of_x,
    q_of_y,
    stoich_profiles,
    x_of_q,
    y_of_q,
)
from .synth import (
    DegradationSpec,
    SynthSpec,
    analytic_reference_curves,
    degrade,
    generate,
    grid_oracle,
    implied_v_min,
    random_feasible_theta,
)
