"""Extension — adaptive fingerprint maintenance under an AP power change.

The paper builds its fingerprint database once with a classic site
survey (Sec. III-B) and leaves crowdsourced maintenance to future work.
This bench simulates the failure that motivates it: after deployment,
AP 2's transmit power drops by 8 dB (a firmware/config change).  The
static database is now wrong for one AP.  The adaptive arm serves from
an :class:`EpochalDatabase`: every confident motion-confirmed fix
becomes one crowdsourced ``Observation`` (``record_fix``), and after
each walk ``advance_epoch()`` folds them in and the next walk is
served from the new epoch.

Reported: accuracy of static vs adaptive MoLoc on post-change walks,
split into the first half (adaptation in progress) and second half
(adapted).  The timed operation is one recording locate (the feedback
path's overhead over plain MoLoc).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.tables import format_table
from repro.core.localizer import MoLocLocalizer
from repro.db.epochs import EpochalDatabase
from repro.motion.rlm import MotionMeasurement
from repro.radio.access_point import AccessPoint
from repro.radio.sampler import RadioEnvironment
from repro.sim.crowdsource import generate_traces
from repro.sim.evaluation import EvaluationResult, evaluate_localizer

_POWER_DROP_DB = 8.0
_CHANGED_AP = 2


def _degraded_environment(study) -> RadioEnvironment:
    """The same radio world with one AP's power dropped after deployment."""
    old = study.scenario.environment
    new_aps = [
        AccessPoint(
            ap_id=ap.ap_id,
            position=ap.position,
            tx_power_dbm=ap.tx_power_dbm
            - (_POWER_DROP_DB if ap.ap_id == _CHANGED_AP else 0.0),
        )
        for ap in old.aps
    ]
    # Same seed and parameters: identical shadowing fields and drift, so
    # the only change is the mean RSS of the degraded AP.
    return RadioEnvironment(
        study.scenario.plan,
        new_aps,
        path_loss=old.path_loss,
        parameters=old.parameters,
        seed=study.scenario.seed,
    )


class _RecordingLocalizer(MoLocLocalizer):
    """MoLoc bound to the current epoch, queueing its confirmed fixes."""

    def __init__(self, epochal: EpochalDatabase, motion_db, config) -> None:
        super().__init__(epochal.database, motion_db, config)
        self.epochal = epochal

    def locate(self, fingerprint, motion=None):
        estimate = super().locate(fingerprint, motion)
        self.epochal.record_fix(estimate, fingerprint)
        return estimate


def _serve_maintained(epochal, motion_db, config, traces, plan):
    """Evaluate walk by walk, advancing one epoch after each walk.

    Returns:
        ``(result, observations)``: the evaluation over all walks and
        the number of observations folded into the database.
    """
    evaluated, observations = [], 0
    for trace in traces:
        localizer = _RecordingLocalizer(epochal, motion_db, config)
        evaluated.extend(evaluate_localizer(localizer, [trace], plan).traces)
        observations += len(epochal.log)
        epochal.advance_epoch()
    return EvaluationResult(traces=evaluated), observations


def test_extension_adaptive_fingerprints(benchmark, study, report):
    degraded = _degraded_environment(study)
    scenario_after = dataclasses.replace(study.scenario, environment=degraded)
    walks = generate_traces(
        scenario_after,
        40,
        np.random.default_rng(77),
        start_time_s=10_000.0,
    )
    first_half, second_half = walks[:20], walks[20:]

    fingerprint_db = study.fingerprint_db(6)
    motion_db, _ = study.motion_db(6)
    plan = study.scenario.plan

    timed = _RecordingLocalizer(
        EpochalDatabase(fingerprint_db), motion_db, study.config
    )
    benchmark.pedantic(
        timed.locate,
        args=(
            study.test_traces[0].hops[0].arrival_fingerprint,
            MotionMeasurement(90.0, 5.7),
        ),
        rounds=50,
        iterations=1,
    )

    epochal = EpochalDatabase(fingerprint_db)
    applied = 0
    rows = []
    accuracies = {}
    for label, traces in (("walks 1-20", first_half), ("walks 21-40", second_half)):
        static_result = evaluate_localizer(
            MoLocLocalizer(fingerprint_db, motion_db, study.config), traces, plan
        )
        adaptive_result, observations = _serve_maintained(
            epochal, motion_db, study.config, traces, plan
        )
        applied += observations
        accuracies[label] = (static_result.accuracy, adaptive_result.accuracy)
        rows.append(
            [
                label,
                f"{static_result.accuracy:.0%}",
                f"{adaptive_result.accuracy:.0%}",
                f"{static_result.mean_error_m:.2f}",
                f"{adaptive_result.mean_error_m:.2f}",
            ]
        )
    rows.append(
        [
            "observations applied",
            "-",
            str(applied),
            "-",
            "-",
        ]
    )
    table = format_table(
        [f"after AP{_CHANGED_AP} -{_POWER_DROP_DB:.0f} dB", "static acc",
         "adaptive acc", "static mean err", "adaptive mean err"],
        rows,
    )
    report("Extension — adaptive fingerprint maintenance", table)

    static_late, adaptive_late = accuracies["walks 21-40"]
    assert applied > 50
    assert adaptive_late >= static_late
