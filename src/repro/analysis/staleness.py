"""Staleness sweep: localization accuracy vs database-epoch staleness.

The epochal database (:mod:`repro.db.epochs`) exists because the field
truth moves while the survey database stands still: APs die, get
power-cycled to a different transmit level, and the whole site drifts
seasonally.  This sweep quantifies what that staleness costs and what
one epoch advance buys back:

* **clean** — the environment never changes; the epoch-0 database
  describes the field exactly as surveyed.
* **stale** — churn events accumulate on an
  :class:`~repro.chaos.harness.EnvironmentOverlay` (the same
  environment-truth model the chaos harnesses use), every walk's scans
  come from the *changed* field, and serving still matches against the
  epoch-0 database.
* **refreshed** — the same changed field, but the database advanced one
  epoch with exactly :meth:`EnvironmentOverlay.repair_updates` — the
  "a surveyor re-measured the changed field" experiment.

The staleness axis is the number of accumulated churn events.  The
committed gate (``BENCH_staleness.json``): at full churn the epoch
advance must recover at least :data:`RECOVERY_GATE` of the
churn-induced mean-error increase,

    (stale - refreshed) / (stale - clean) >= 0.5,

while a fixed environment stays bitwise free: a
:class:`~repro.serving.engine.BatchedServingEngine` over an
:class:`~repro.db.epochs.EpochalDatabase` at epoch 0 must produce a fix
stream identical to the same engine over the frozen database.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from ..chaos.harness import EnvironmentOverlay
from ..chaos.plan import FaultKind, FaultSpec
from ..core.fingerprint import Fingerprint
from ..db.epochs import EpochalDatabase
from ..motion.pedestrian import BodyProfile
from ..service import MoLocService
from ..sim.evaluation import evaluate_service, multi_session_workload

__all__ = ["run_staleness", "churn_schedule", "RECOVERY_GATE"]

#: The bench gate: one epoch advance must claw back at least this
#: fraction of the churn-induced mean-error increase.
RECOVERY_GATE = 0.5


def churn_schedule(n_aps: int) -> List[FaultSpec]:
    """The canonical churn sequence the sweep accumulates, in order.

    Staleness level ``k`` activates the first ``k`` events: first the
    site-wide seasonal drift, then a power-cycled AP, then a dead one —
    the same vocabulary (and the same specs) a
    :attr:`~repro.chaos.plan.FaultKind.ENV_DRIFT` /
    ``ENV_AP_REPOWER`` / ``ENV_AP_DIE`` storm would schedule.
    """
    if n_aps < 3:
        raise ValueError(f"churn schedule needs >= 3 APs, got {n_aps}")
    return [
        FaultSpec(
            tick=1,
            session_id="environment",
            kind=FaultKind.ENV_DRIFT,
            magnitude=2.5,
        ),
        FaultSpec(
            tick=2,
            session_id="environment",
            kind=FaultKind.ENV_AP_REPOWER,
            ap_id=n_aps - 4 if n_aps >= 4 else 0,
            magnitude=-9.0,
        ),
        FaultSpec(
            tick=3,
            session_id="environment",
            kind=FaultKind.ENV_AP_DIE,
            ap_id=n_aps - 1,
        ),
    ]


def _churned_trace(trace, overlay: EnvironmentOverlay):
    """The walk as scanned in the overlay's changed field."""
    initial = Fingerprint(
        tuple(overlay.apply_scan(trace.initial_fingerprint.rss))
    )
    hops = [
        dataclasses.replace(
            hop,
            arrival_fingerprint=Fingerprint(
                tuple(overlay.apply_scan(hop.arrival_fingerprint.rss))
            ),
        )
        for hop in trace.hops
    ]
    return dataclasses.replace(
        trace, initial_fingerprint=initial, hops=hops
    )


def _session_factory(study, fingerprint_db, motion_db) -> Callable:
    def make_session(trace):
        service = MoLocService(
            fingerprint_db,
            motion_db,
            body=BodyProfile(height_m=1.72),
            config=study.config,
        )
        service._stride.step_length_m = trace.estimated_step_length_m
        service.calibrate_heading(
            [
                (hop.imu.compass_readings, hop.imu.true_course_deg)
                for hop in trace.hops[:2]
            ]
        )
        return service

    return make_session


def _epoch0_bitwise_identical(study, traces, fingerprint_db, motion_db) -> bool:
    """Frozen vs epoch-0 epochal engine: fix streams must match bitwise."""
    from ..serving import (
        BatchedServingEngine,
        build_session_services,
        fix_stream_checksum,
    )

    workload = multi_session_workload(
        traces, 6, corpus_size=min(4, len(traces)), stagger_ticks=2
    )

    def checksum(engine_db: object) -> str:
        engine = BatchedServingEngine(engine_db, motion_db, study.config)
        services = build_session_services(
            workload, fingerprint_db, motion_db, study.config
        )
        for session_id, service in services.items():
            engine.add_session(session_id, service)
        fixes: List[object] = []
        for tick in workload.ticks:
            events = list(tick)
            outcome = engine.tick_detailed(events)
            fixes.extend(fix for fix in outcome.fixes if fix is not None)
        return fix_stream_checksum(fixes)

    return checksum(fingerprint_db) == checksum(
        EpochalDatabase(fingerprint_db)
    )


def _spec_entry(spec: FaultSpec) -> Dict[str, object]:
    entry: Dict[str, object] = {"kind": spec.kind.value}
    if spec.ap_id is not None:
        entry["ap_id"] = spec.ap_id
    if spec.magnitude:
        entry["magnitude"] = spec.magnitude
    return entry


def run_staleness(
    study,
    smoke: bool = False,
    traces: Optional[Sequence] = None,
) -> Dict[str, object]:
    """Sweep accuracy vs epoch staleness and return the report document.

    Args:
        study: A prepared :class:`~repro.sim.experiments.Study`.
        smoke: Evaluate a handful of walks and gate on *mechanics*
            (churn hurts, the refresh helps, epoch 0 is bitwise free)
            instead of the calibrated recovery fraction, which only
            means something at full scale.
        traces: Override the evaluated walks (defaults to the study's
            held-out test set, or its first six in smoke mode).

    Returns:
        A JSON-plain document; see ``benchmarks/bench_staleness.py``
        for the committed shape.
    """
    if traces is None:
        traces = study.test_traces[:6] if smoke else study.test_traces
    traces = list(traces)
    plan = study.scenario.plan
    fingerprint_db = study.fingerprint_db(6)
    motion_db, _ = study.motion_db(6)
    n_aps = fingerprint_db.n_aps
    schedule = churn_schedule(n_aps)

    clean = evaluate_service(
        _session_factory(study, fingerprint_db, motion_db), traces, plan
    )
    epoch0_identical = _epoch0_bitwise_identical(
        study, traces, fingerprint_db, motion_db
    )

    document: Dict[str, object] = {
        "schema": 1,
        "smoke": smoke,
        "seed": study.scenario.seed,
        "n_traces": len(traces),
        "n_intervals": sum(1 + t.n_hops for t in traces),
        "recovery_gate": RECOVERY_GATE,
        "churn_schedule": [_spec_entry(spec) for spec in schedule],
        "clean": {
            "accuracy": clean.accuracy,
            "mean_error_m": clean.mean_error_m,
        },
        "epoch0_fix_stream_bitwise_identical": epoch0_identical,
        "levels": [],
    }

    top_recovered: Optional[float] = None
    top_stale: Optional[float] = None
    top_refreshed: Optional[float] = None
    for level in range(1, len(schedule) + 1):
        overlay = EnvironmentOverlay()
        for spec in schedule[:level]:
            overlay.activate(spec)
        degraded = [_churned_trace(trace, overlay) for trace in traces]

        stale = evaluate_service(
            _session_factory(study, fingerprint_db, motion_db),
            degraded,
            plan,
        )
        epochal = EpochalDatabase(fingerprint_db)
        snapshot = epochal.advance_epoch(overlay.repair_updates(n_aps))
        refreshed = evaluate_service(
            _session_factory(study, snapshot.database, motion_db),
            degraded,
            plan,
        )
        induced = stale.mean_error_m - clean.mean_error_m
        recovered = (
            (stale.mean_error_m - refreshed.mean_error_m) / induced
            if induced > 0
            else None
        )
        document["levels"].append(
            {
                "staleness": level,
                "churn": [_spec_entry(s) for s in schedule[:level]],
                "epoch_checksum": snapshot.checksum,
                "stale": {
                    "accuracy": stale.accuracy,
                    "mean_error_m": stale.mean_error_m,
                },
                "refreshed": {
                    "accuracy": refreshed.accuracy,
                    "mean_error_m": refreshed.mean_error_m,
                },
                "induced_error_m": induced,
                "recovered_fraction": recovered,
            }
        )
        top_recovered = recovered
        top_stale = stale.mean_error_m
        top_refreshed = refreshed.mean_error_m

    if smoke:
        # Mechanics only: churn hurts, the refresh helps, epoch 0 free.
        passed = (
            epoch0_identical
            and top_stale is not None
            and top_stale > clean.mean_error_m
            and top_refreshed is not None
            and top_refreshed < top_stale
        )
        document["gate"] = {"mode": "smoke", "passed": passed}
    else:
        passed = (
            epoch0_identical
            and top_recovered is not None
            and top_recovered >= RECOVERY_GATE
        )
        document["gate"] = {
            "mode": "full",
            "observed_recovered_fraction": top_recovered,
            "threshold_fraction": RECOVERY_GATE,
            "passed": passed,
        }
    return document
