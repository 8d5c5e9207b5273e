"""MoLoc core: fingerprinting, motion database, and motion-assisted localization."""

from .baselines import (
    HmmLocalizer,
    HorusLocalizer,
    NaiveFusionLocalizer,
    WiFiFingerprintingLocalizer,
)
from .builder import MotionDatabaseBuilder, SanitationReport
from .config import MoLocConfig
from .dead_reckoning import DeadReckoningLocalizer
from .fingerprint import Fingerprint, FingerprintDatabase
from .localizer import EvaluatedCandidate, LocationEstimate, MoLocLocalizer
from .matching import Candidate, select_candidates
from .motion_db import MotionDatabase, PairStatistics
from .motion_matching import (
    direction_probability,
    gaussian_interval_probability,
    offset_probability,
    pair_probability,
    set_transition_probability,
    stay_probability,
)
from .model_based import ModelBasedLocalizer, fit_log_distance_model
from .particle_filter import ParticleFilterLocalizer
from .smoothing import ViterbiSmoother

__all__ = [
    "MoLocConfig",
    "Fingerprint",
    "FingerprintDatabase",
    "Candidate",
    "select_candidates",
    "MotionDatabase",
    "PairStatistics",
    "MotionDatabaseBuilder",
    "SanitationReport",
    "direction_probability",
    "offset_probability",
    "pair_probability",
    "stay_probability",
    "set_transition_probability",
    "gaussian_interval_probability",
    "MoLocLocalizer",
    "LocationEstimate",
    "EvaluatedCandidate",
    "WiFiFingerprintingLocalizer",
    "HorusLocalizer",
    "HmmLocalizer",
    "NaiveFusionLocalizer",
    "ViterbiSmoother",
    "ParticleFilterLocalizer",
    "ModelBasedLocalizer",
    "DeadReckoningLocalizer",
    "fit_log_distance_model",
]
