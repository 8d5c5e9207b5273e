"""Input sanitization: validate scans and IMU streams before they match.

Two failure families reach a fielded serving path that the clean
evaluation never shows:

* **Scan corruption** — NaN/inf readings from a flaky driver, dBm values
  outside physical range, vectors of the wrong length, and *dead APs*: an
  AP that powered off does not vanish from the scan, its slot reads the
  sensitivity floor forever, and a floored slot against a live database
  column contributes a huge squared term to *every* Euclidean
  dissimilarity (Eq. 1), drowning the informative APs.  The sanitizer
  normalizes the recoverable corruptions, detects persistently-floored
  APs with per-AP rolling statistics, and emits an active-AP mask so
  matching simply ignores the dead slots.

* **IMU flat-lining** — a crashed sensor service replays a constant
  gravity-only signal.  A real idle accelerometer still shows sensor
  noise (a few tenths of m/s²); a *perfectly* flat magnitude stream is
  physically impossible and must not be interpreted as "the user stands
  still" (the paper's validity assumption (2) makes a confidently lying
  sensor worse than no sensor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.fingerprint import RSS_CEILING_DBM, RSS_FLOOR_DBM, Fingerprint
from ..motion.kernel import SegmentMotion, segment_motions
from ..sensors.imu import ImuSegment
from .health import FaultType

__all__ = ["ImuCheck", "SanitizedScan", "ScanSanitizer", "check_imu"]


@dataclass(frozen=True)
class SanitizedScan:
    """The outcome of sanitizing one RSS scan.

    Attributes:
        fingerprint: The cleaned fingerprint (floored/clipped values), or
            None when the scan is unusable.
        active_aps: Per-AP participation mask for matching (all True when
            nothing is masked); None when the scan is unusable.
        masked_ap_ids: APs diagnosed dead and excluded from matching.
        faults: Fault classes detected on this scan.
    """

    fingerprint: Optional[Fingerprint]
    active_aps: Optional[Tuple[bool, ...]]
    masked_ap_ids: Tuple[int, ...]
    faults: Tuple[FaultType, ...]

    @property
    def usable(self) -> bool:
        """Whether matching can run on this scan at all."""
        return self.fingerprint is not None


class ScanSanitizer:
    """Validates scans and tracks per-AP health across a session.

    Args:
        n_aps: Expected scan length (the database's AP count).
        floor_dbm: Receiver sensitivity floor; readings at or below
            ``floor_dbm + floor_margin_db`` count as floored.
        ceiling_dbm: Strongest physically plausible reading.
        dead_ap_scans: Consecutive floored scans after which an AP is
            diagnosed dead and masked.  A live AP naturally floors at
            locations far from it, but a walking user's consecutive scans
            decorrelate quickly; sustained flooring is the outage
            signature.
        floor_margin_db: Slack above the floor still counted as floored.
        min_active_aps: Never mask below this many active APs; if the
            dead-AP diagnosis would, the scan is treated as lost instead
            (matching on one AP is noise).
    """

    def __init__(
        self,
        n_aps: int,
        floor_dbm: float = RSS_FLOOR_DBM,
        ceiling_dbm: float = RSS_CEILING_DBM,
        dead_ap_scans: int = 3,
        floor_margin_db: float = 0.5,
        min_active_aps: int = 2,
    ) -> None:
        if n_aps < 1:
            raise ValueError(f"n_aps must be >= 1, got {n_aps}")
        if dead_ap_scans < 1:
            raise ValueError(f"dead_ap_scans must be >= 1, got {dead_ap_scans}")
        if min_active_aps < 1:
            raise ValueError(f"min_active_aps must be >= 1, got {min_active_aps}")
        self._n_aps = n_aps
        self._floor_dbm = floor_dbm
        self._ceiling_dbm = ceiling_dbm
        self._dead_ap_scans = dead_ap_scans
        self._floor_margin_db = floor_margin_db
        self._floored_threshold_dbm = floor_dbm + floor_margin_db
        self._min_active_aps = min_active_aps
        self._consecutive_floored: List[int] = [0] * n_aps

    @property
    def consecutive_floored(self) -> Tuple[int, ...]:
        """Per-AP count of consecutive floored scans (rolling state)."""
        return tuple(self._consecutive_floored)

    def reset(self) -> None:
        """Forget the rolling per-AP statistics (new session)."""
        self._consecutive_floored = [0] * self._n_aps

    def state_dict(self) -> dict:
        """The rolling per-AP statistics, as a JSON-compatible dict."""
        return {"consecutive_floored": list(self._consecutive_floored)}

    def load_state_dict(self, state: dict) -> None:
        """Restore rolling statistics captured by :meth:`state_dict`.

        Raises:
            ValueError: if the stored counters do not match this
                sanitizer's AP count.
        """
        counters = [int(c) for c in state["consecutive_floored"]]
        if len(counters) != self._n_aps:
            raise ValueError(
                f"checkpoint has {len(counters)} per-AP counters for a "
                f"{self._n_aps}-AP sanitizer"
            )
        self._consecutive_floored = counters

    def sanitize(self, scan: Optional[Sequence[float]]) -> SanitizedScan:
        """Validate one scan, update rolling statistics, emit the mask.

        Runs on plain Python scalars: scans are a handful of values, and
        this is the per-interval serving hot path — array round-trips
        cost more than the arithmetic.  (``math`` comparisons and
        ``min``/``max`` produce bit-identical values to the previous
        ``np.where``/``np.clip`` formulation.)
        """
        faults: List[FaultType] = []

        if scan is None:
            return self._lost((FaultType.SCAN_LOSS,))
        if isinstance(scan, np.ndarray):
            scan = scan.ravel()
        values = [float(v) for v in scan]
        if len(values) != self._n_aps:
            # A malformed vector cannot even be aligned with AP ids; its
            # readings say nothing about per-AP health, so the rolling
            # statistics are left untouched.
            return self._lost((FaultType.MALFORMED_SCAN, FaultType.SCAN_LOSS))

        floor = self._floor_dbm
        ceiling = self._ceiling_dbm
        if not all(math.isfinite(v) for v in values):
            faults.append(FaultType.NON_FINITE_SCAN)
            values = [v if math.isfinite(v) else floor for v in values]
        if any(v > ceiling or v < floor for v in values):
            faults.append(FaultType.OUT_OF_RANGE_SCAN)
            values = [min(max(v, floor), ceiling) for v in values]

        threshold = self._floored_threshold_dbm
        counters = self._consecutive_floored
        all_floored = True
        for i, v in enumerate(values):
            if v <= threshold:
                counters[i] += 1
            else:
                counters[i] = 0
                all_floored = False

        if all_floored:
            # The radio heard nothing at all: there is no information to
            # match on, floored or otherwise.
            faults.append(FaultType.SCAN_LOSS)
            return self._lost(tuple(faults))

        dead_scans = self._dead_ap_scans
        active = tuple(c < dead_scans for c in counters)
        masked_ids: Tuple[int, ...] = ()
        n_dead = self._n_aps - sum(active)
        if n_dead:
            if self._n_aps - n_dead >= self._min_active_aps:
                faults.append(FaultType.DEAD_AP)
                masked_ids = tuple(
                    i for i, alive in enumerate(active) if not alive
                )
            else:
                faults.append(FaultType.SCAN_LOSS)
                return self._lost(tuple(faults))

        return SanitizedScan(
            fingerprint=Fingerprint(tuple(values)),
            active_aps=active,
            masked_ap_ids=masked_ids,
            faults=tuple(faults),
        )

    def _lost(self, faults: Tuple[FaultType, ...]) -> SanitizedScan:
        return SanitizedScan(
            fingerprint=None, active_aps=None, masked_ap_ids=(), faults=faults
        )


_FLAT_LINE_ACCEL_STD = 1e-6
"""Accelerometer-magnitude standard deviation (m/s²) below which the
stream is a flat line no physical sensor produces.  A dead register
repeats one value exactly (std 0.0), while even the quietest MEMS
accelerometer resting on a table shows thermal noise orders of magnitude
above this; a standing user's quiescent noise (~0.008 m/s²) must not be
vetoed as a dropout — standing still is legitimate motion state, not a
sensor fault."""

_MAX_CREDIBLE_HEADING_STEP_DEG = 40.0
"""Mean absolute heading change between consecutive compass readings
(degrees) above which the stream is spoofed: a walking pedestrian's
readings wander by per-reading noise (a few degrees) around one course,
while a forged stream that whips the heading every reading shows mean
steps of the oscillation amplitude.  Clean synthetic segments sit well
under 10°; the margin keeps honest noisy compasses out of quarantine."""


class ImuCheck(NamedTuple):
    """The outcome of :func:`check_imu`, with the tripping check named.

    Attributes:
        usable: Whether motion may be extracted from the segment.
        faults: Fault classes to report (empty when usable).
        tripped: Which credibility check rejected the segment —
            ``"missing"``, ``"empty"``, ``"non-finite"``,
            ``"flat-line"`` or ``"heading-rate"`` — or None when the
            segment passed.  Distinguishes the dropout veto from the
            spoof veto in metrics: a flat-lined sensor and a lying one
            are different operational events.
    """

    usable: bool
    faults: Tuple[FaultType, ...]
    tripped: Optional[str]


def check_imu(
    imu: Optional[ImuSegment], motion: Optional[SegmentMotion] = None
) -> ImuCheck:
    """Whether an IMU segment is credible enough to extract motion from.

    Args:
        imu: The segment, or None when none arrived.
        motion: The segment's row of
            :func:`~repro.motion.kernel.segment_motions`, when the caller
            already computed it for a whole batch; computed here (a
            one-row call) otherwise.  The checks are scalar decisions
            over the row.

    Returns:
        An :class:`ImuCheck` — ``usable`` is False for a missing
        segment, empty or non-finite streams, a flat-lined
        accelerometer (all :data:`FaultType.IMU_DROPOUT`), or a
        physically impossible heading rate
        (:data:`FaultType.IMU_SPOOF`); ``tripped`` names the check
        that fired.
    """
    if imu is None:
        return ImuCheck(False, (FaultType.IMU_DROPOUT,), "missing")
    if len(imu.accel.samples) == 0 or len(imu.compass_readings) == 0:
        return ImuCheck(False, (FaultType.IMU_DROPOUT,), "empty")
    if motion is None:
        motion = segment_motions([imu])[0]
    if not (motion.steps.finite and motion.compass_finite):
        return ImuCheck(False, (FaultType.IMU_DROPOUT,), "non-finite")
    if motion.steps.std < _FLAT_LINE_ACCEL_STD:
        return ImuCheck(False, (FaultType.IMU_DROPOUT,), "flat-line")
    if (
        motion.heading_step_deg is not None
        and motion.heading_step_deg > _MAX_CREDIBLE_HEADING_STEP_DEG
    ):
        return ImuCheck(False, (FaultType.IMU_SPOOF,), "heading-rate")
    return ImuCheck(True, (), None)
