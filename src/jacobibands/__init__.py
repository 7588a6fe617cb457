"""Band-gap spectra of periodic Jacobi operators.

Builds the discriminant of a period-p Jacobi operator, extracts the p
spectral bands as the preimage of [-2, 2], cross-validates the band edges
against Floquet eigenvalues, computes capacity, Chebyshev number, Widom
factor and equilibrium band weights, and evaluates a suite of band/gap
estimates against the exact band data.
"""

from .bands import BandStructure, Interval, band_structure, bands_to_csv
from .bounds import BoundRecord, BoundsReport, evaluate_all_bounds
from .coefficients import (
    PeriodicCoefficients,
    ScalarSummary,
    load_operator,
    new_periodic,
    parse_operator,
    scalar_summary,
)
from .discriminant import (
    DiscriminantData,
    build_discriminant,
    eval_discriminant_exact,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleResult,
    TrialReport,
    run_ensemble,
    run_trial,
    sample_operator,
)
from .errors import (
    AlternationFailure,
    CapacityMismatch,
    ConfigInvalid,
    EdgeCountMismatch,
    JacobiBandsError,
    LengthMismatch,
    NonConvergence,
    NonFiniteEntry,
    NonPositiveOffDiagonal,
    PropertyViolation,
)
from .floquet import band_edges_oracle
from .potential import (
    AlternationData,
    AlternationPoint,
    PotentialReport,
    capacity_interval,
    potential_report,
)

__version__ = "0.1.0"

__all__ = [
    "AlternationData",
    "AlternationFailure",
    "AlternationPoint",
    "BandStructure",
    "BoundRecord",
    "BoundsReport",
    "CapacityMismatch",
    "ConfigInvalid",
    "DiscriminantData",
    "EdgeCountMismatch",
    "EnsembleConfig",
    "EnsembleResult",
    "Interval",
    "JacobiBandsError",
    "LengthMismatch",
    "NonConvergence",
    "NonFiniteEntry",
    "NonPositiveOffDiagonal",
    "PeriodicCoefficients",
    "PotentialReport",
    "PropertyViolation",
    "ScalarSummary",
    "TrialReport",
    "band_edges_oracle",
    "band_structure",
    "bands_to_csv",
    "build_discriminant",
    "capacity_interval",
    "eval_discriminant_exact",
    "evaluate_all_bounds",
    "load_operator",
    "new_periodic",
    "parse_operator",
    "potential_report",
    "run_ensemble",
    "run_trial",
    "sample_operator",
    "scalar_summary",
]
