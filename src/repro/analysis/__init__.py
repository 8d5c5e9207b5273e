"""Analysis helpers: CDFs, ambiguity and coverage reports, text tables,
the scenario matrix and the red-team sweep."""

from .ambiguity import AmbiguityReport, TwinPair, analyze_ambiguity
from .cdf import EmpiricalCdf
from .matrix import (
    FULL_PROFILE,
    SMOKE_PROFILE,
    FaultPlanSpec,
    LoadLevel,
    MatrixProfile,
    run_matrix,
    twin_confusion_rate,
    validate_matrix_document,
    write_matrix_artifacts,
)
from .comparison import SystemComparison, compare_systems
from .coverage import CoverageReport, LocationCoverage, analyze_coverage
from .redteam import GATE_RATIO, run_redteam
from .tables import format_cdf_series, format_table

__all__ = [
    "AmbiguityReport",
    "TwinPair",
    "analyze_ambiguity",
    "EmpiricalCdf",
    "SystemComparison",
    "compare_systems",
    "CoverageReport",
    "LocationCoverage",
    "analyze_coverage",
    "GATE_RATIO",
    "run_redteam",
    "format_cdf_series",
    "format_table",
    "LoadLevel",
    "FaultPlanSpec",
    "MatrixProfile",
    "SMOKE_PROFILE",
    "FULL_PROFILE",
    "run_matrix",
    "twin_confusion_rate",
    "validate_matrix_document",
    "write_matrix_artifacts",
]
