"""Failure injection: degrade traces the way deployments degrade.

A localization service in production faces faults the clean evaluation
never shows: an AP dies, a user re-grips their phone mid-walk (breaking
the placement-offset calibration), the system's step-length estimate for
a user is simply wrong, or the IMU stream for an interval is lost.
These injectors transform recorded :class:`~repro.motion.trace.WalkTrace`
objects so the robustness tests and benches can measure degradation
without touching the generators.

All injectors are pure: they return new traces and never mutate inputs.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

import numpy as np

from ..core.fingerprint import Fingerprint
from ..motion.trace import TraceHop, WalkTrace
from ..radio.propagation import SENSITIVITY_FLOOR_DBM
from ..sensors.imu import ImuSegment

__all__ = [
    "silence_ap",
    "inject_ap_outage",
    "inject_grip_shift",
    "inject_step_length_bias",
    "inject_imu_dropout",
]


def _check_ap_slot(ap_id: int, n_aps: int) -> None:
    """Validate an AP slot index against a fingerprint's AP count.

    Shared by every injector that strikes one AP slot — benign
    (:func:`silence_ap`) and adversarial
    (:mod:`repro.sim.adversary`) alike — so out-of-range ids fail with
    one message shape everywhere.

    Raises:
        ValueError: if ``ap_id`` is out of range.
    """
    if not 0 <= ap_id < n_aps:
        raise ValueError(
            f"ap_id {ap_id} out of range for {n_aps}-AP fingerprint"
        )


def silence_ap(
    fingerprint: Fingerprint,
    ap_id: int,
    floor_dbm: float = SENSITIVITY_FLOOR_DBM,
) -> Fingerprint:
    """The fingerprint as scanned with AP ``ap_id`` powered off.

    A dead AP does not vanish from the vector — the scan still has a slot
    for it — it reads the sensitivity floor.

    Raises:
        ValueError: if ``ap_id`` is out of range.
    """
    _check_ap_slot(ap_id, fingerprint.n_aps)
    values = list(fingerprint.rss)
    values[ap_id] = floor_dbm
    return Fingerprint.from_values(values)


def inject_ap_outage(
    trace: WalkTrace,
    ap_id: int,
    floor_dbm: float = SENSITIVITY_FLOOR_DBM,
) -> WalkTrace:
    """The trace as recorded with AP ``ap_id`` down for the whole walk."""
    return dataclasses.replace(
        trace,
        initial_fingerprint=silence_ap(trace.initial_fingerprint, ap_id, floor_dbm),
        hops=[
            dataclasses.replace(
                hop,
                arrival_fingerprint=silence_ap(
                    hop.arrival_fingerprint, ap_id, floor_dbm
                ),
            )
            for hop in trace.hops
        ],
    )


def inject_grip_shift(
    trace: WalkTrace, after_hop: int, shift_deg: float
) -> WalkTrace:
    """The user re-grips the phone after hop ``after_hop``.

    All compass readings of later hops rotate by ``shift_deg`` while the
    trace's placement-offset estimate (calibrated on the early hops)
    stays stale — exactly the failure Zee-style calibration suffers when
    a user moves the phone from hand to pocket mid-walk.

    Raises:
        ValueError: if ``after_hop`` is not a valid hop index.
    """
    if not 0 <= after_hop < len(trace.hops):
        raise ValueError(
            f"after_hop {after_hop} out of range for {len(trace.hops)}-hop trace"
        )
    hops: List[TraceHop] = []
    for index, hop in enumerate(trace.hops):
        if index <= after_hop:
            hops.append(hop)
            continue
        shifted = ImuSegment(
            accel=hop.imu.accel,
            compass_readings=(hop.imu.compass_readings + shift_deg) % 360.0,
            true_course_deg=hop.imu.true_course_deg,
            true_distance_m=hop.imu.true_distance_m,
            gyro_rates_dps=hop.imu.gyro_rates_dps,
        )
        hops.append(dataclasses.replace(hop, imu=shifted))
    return dataclasses.replace(trace, hops=hops)


def inject_step_length_bias(trace: WalkTrace, factor: float) -> WalkTrace:
    """The system's step-length belief for this user is off by ``factor``.

    Models a wrong height/weight profile: every offset the system derives
    scales by the same factor.

    Raises:
        ValueError: for a non-positive factor.
    """
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    return dataclasses.replace(
        trace, estimated_step_length_m=trace.estimated_step_length_m * factor
    )


def inject_imu_dropout(
    trace: WalkTrace, hop_indices: Sequence[int]
) -> WalkTrace:
    """The IMU stream for the given hops was lost.

    The accelerometer samples of those hops are replaced with an idle
    (gravity-only) signal, so step counting reports zero movement — the
    observable symptom of a sensor-service crash during the interval.

    Raises:
        ValueError: on an out-of-range hop index.
    """
    targets = set(hop_indices)
    for index in targets:
        if not 0 <= index < len(trace.hops):
            raise ValueError(
                f"hop index {index} out of range for {len(trace.hops)}-hop trace"
            )
    hops = []
    for index, hop in enumerate(trace.hops):
        if index not in targets:
            hops.append(hop)
            continue
        accel = hop.imu.accel
        flat = dataclasses.replace(
            accel,
            samples=np.full_like(accel.samples, 9.81),
            true_step_times=np.empty(0),
        )
        hops.append(
            dataclasses.replace(hop, imu=dataclasses.replace(hop.imu, accel=flat))
        )
    return dataclasses.replace(trace, hops=hops)
