"""repro — a reproduction of "MoLoc: On Distinguishing Fingerprint Twins".

MoLoc (Sun et al., IEEE ICDCS 2013) augments WiFi RSS fingerprinting with
user motion — walking direction from the compass, offset from step
counting — to disambiguate *fingerprint twins*: distinct locations with
nearly identical fingerprints.

Package layout
--------------
``repro.core``
    The paper's contribution: fingerprint matching (Eq. 1-4), the
    crowdsourced motion database with sanitation (Sec. IV), motion
    matching (Eq. 5-6), the MoLoc localizer (Eq. 7), and baselines.
``repro.env``
    Geometry, floor plans, walkable aisle graphs, and the paper's
    40.8 m x 16 m office hall.
``repro.radio``
    Simulated WiFi: log-distance path loss, walls, correlated shadowing,
    temporal fading, and the site survey.
``repro.sensors``
    Synthetic accelerometer (walking signature) and compass.
``repro.motion``
    Pedestrians, step counting (DSC/CSC), heading estimation, RLMs.
``repro.sim``
    Scenario assembly, crowdsourcing, trace-driven evaluation, and one
    driver per paper figure/table.
``repro.analysis``
    Empirical CDFs and text tables.
``repro.robustness``
    Degradation-aware serving: scan sanitization, dead-AP masking,
    divergence/calibration watchdogs, and the graceful-fallback
    ``ResilientMoLocService``.
``repro.serving``
    Batched multi-session serving: many concurrent sessions through one
    vectorized step per tick, bitwise-equal to the sequential path.
``repro.observability``
    Zero-dependency metrics and span tracing; the serving
    stack surfaces one JSON snapshot via ``engine.metrics_snapshot()``.

Quickstart
----------
>>> from repro import prepare_study, evaluate_systems
>>> study = prepare_study(seed=7)
>>> results = evaluate_systems(study, n_aps=6)
>>> results["moloc"].accuracy > results["wifi"].accuracy
True
"""

from .core import (
    Fingerprint,
    FingerprintDatabase,
    MoLocConfig,
    MoLocLocalizer,
    MotionDatabase,
    MotionDatabaseBuilder,
    WiFiFingerprintingLocalizer,
)
from .env import FloorPlan, Point, WalkableGraph, office_hall
from .motion import MotionMeasurement, RlmObservation
from .radio import RadioEnvironment, RadioParameters, run_site_survey
from .robustness import (
    FaultType,
    HealthStatus,
    ResilientFix,
    ResilientMoLocService,
    ServingMode,
)
from .service import MoLocService
from .serving import BatchedServingEngine, IntervalEvent, SessionManager
from .sim import (
    Study,
    build_scenario,
    convergence_table,
    evaluate_localizer,
    evaluate_systems,
    large_error_comparison,
    motion_database_errors,
    prepare_study,
    step_signature,
)

__version__ = "1.0.0"

__all__ = [
    "Fingerprint",
    "FingerprintDatabase",
    "MoLocConfig",
    "MoLocLocalizer",
    "MotionDatabase",
    "MotionDatabaseBuilder",
    "WiFiFingerprintingLocalizer",
    "FloorPlan",
    "Point",
    "WalkableGraph",
    "office_hall",
    "MotionMeasurement",
    "RlmObservation",
    "RadioEnvironment",
    "RadioParameters",
    "run_site_survey",
    "MoLocService",
    "BatchedServingEngine",
    "IntervalEvent",
    "SessionManager",
    "ResilientMoLocService",
    "ResilientFix",
    "HealthStatus",
    "FaultType",
    "ServingMode",
    "Study",
    "build_scenario",
    "prepare_study",
    "step_signature",
    "motion_database_errors",
    "evaluate_systems",
    "evaluate_localizer",
    "large_error_comparison",
    "convergence_table",
    "__version__",
]
