"""Scenario-matrix runner: environment x load x fault x gait sweeps.

One number from one hall proves nothing about a localization system;
MoLoc's twin phenomenon is a property of the RSS field, which changes
with topology, AP density, and noise.  This module sweeps the full
cross-product of procedurally generated environments (see
:mod:`repro.env.procedural`), multi-session load levels, and seeded
fault/adversary plans, reusing the exact engines every other bench uses:

* per environment — bitwise reproducibility is *verified* (the world is
  generated twice and the checksums compared), a twin census counts the
  fingerprint twins the world actually exhibits (cells in twin-free
  worlds are flagged, keeping the harness honest), and MoLoc / WiFi
  accuracy plus the twin-confusion rate come from the standard
  evaluation protocol;
* per cell — the batched serving engine (optionally behind the chaos
  harness with a seeded fault storm) serves the session workload,
  yielding throughput, fault accounting, and a bit-level fix-stream
  checksum.

The result is one comparable ``BENCH_matrix.json`` document.  The
``smoke`` profile is sized to finish in well under a minute and gates
CI via ``python -m repro matrix --smoke``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..env.procedural import (
    EnvironmentSpec,
    GeneratedEnvironment,
    environment_checksum,
    generate_environment,
)
from ..sim.gait import MOTION_MIXES, gait_trace_config
from .ambiguity import analyze_ambiguity

__all__ = [
    "LoadLevel",
    "FaultPlanSpec",
    "MatrixProfile",
    "SMOKE_PROFILE",
    "FULL_PROFILE",
    "run_matrix",
    "validate_matrix_document",
    "twin_confusion_rate",
]

MATRIX_FORMAT_VERSION = 3

# Version 1 documents (no db_churn fault columns) remain fully valid;
# version 2 only *adds* the optional axis, and version 3 adds the
# motion-mix axis (cells gain a "motion_mix" label), so the validator
# accepts all three and existing cell checksums are untouched.
_SUPPORTED_MATRIX_VERSIONS = (1, 2, 3)

_DISTANT_TWIN_MIN_M = 6.0
"""Fig. 8's large-error threshold: twins at least this far apart."""


@dataclass(frozen=True)
class LoadLevel:
    """One session-load level of the matrix.

    Attributes:
        name: Row label, e.g. ``light``.
        n_sessions: Concurrent serving sessions.
        corpus_size: Distinct walks the sessions replay.
        stagger_ticks: Session start staggering, in ticks.
    """

    name: str
    n_sessions: int
    corpus_size: int
    stagger_ticks: int = 2

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError(f"n_sessions must be >= 1, got {self.n_sessions}")
        if not 1 <= self.corpus_size <= self.n_sessions:
            raise ValueError(
                f"corpus_size must be in [1, {self.n_sessions}], "
                f"got {self.corpus_size}"
            )
        if self.stagger_ticks < 0:
            raise ValueError(
                f"stagger_ticks must be >= 0, got {self.stagger_ticks}"
            )


@dataclass(frozen=True)
class FaultPlanSpec:
    """One fault column of the matrix.

    Attributes:
        name: Column label, e.g. ``storm``.
        kind: ``none`` (clean serving), ``faults`` (the default random
            storm pool), ``adversarial`` (adds the attack kinds and
            serves through trust-defended sessions), or ``db_churn``
            (environment-truth changes — AP death/repower and seasonal
            drift — accumulating against a stale database).
        rate: Expected faults per session-tick.
        chaos_seed: Seed of the drawn fault plan.
    """

    name: str
    kind: str = "none"
    rate: float = 0.0
    chaos_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "faults", "adversarial", "db_churn"):
            raise ValueError(
                "fault kind must be none|faults|adversarial|db_churn, "
                f"got {self.kind!r}"
            )
        if self.kind != "none" and self.rate <= 0.0:
            raise ValueError(f"{self.kind} plans need a positive rate")


@dataclass(frozen=True)
class MatrixProfile:
    """A complete sweep definition: what to generate and how hard to push.

    Attributes:
        name: Profile label (``smoke`` or ``full``).
        environments: The worlds to generate, as ``(env_seed, spec)``.
        loads: Session-load levels (every environment sees each).
        fault_plans: Fault columns (every environment x load sees each).
        motion_mixes: Named gait mixes (:data:`~repro.sim.gait.MOTION_MIXES`)
            the walk corpus is generated under; every environment is
            studied once per mix.  ``"paper-walk"`` is the legacy
            single-gait workload.
        samples_per_location: Site-survey scans per location.
        training_samples: Survey scans entering the database.
        n_training_traces: Crowdsourced motion-training walks.
        n_test_traces: Held-out evaluation walks.
        trace_hops: Hops per generated walk.
    """

    name: str
    environments: Tuple[Tuple[int, EnvironmentSpec], ...]
    loads: Tuple[LoadLevel, ...]
    fault_plans: Tuple[FaultPlanSpec, ...]
    motion_mixes: Tuple[str, ...] = ("paper-walk",)
    samples_per_location: int = 60
    training_samples: int = 40
    n_training_traces: int = 150
    n_test_traces: int = 34
    trace_hops: int = 15

    def __post_init__(self) -> None:
        if not self.motion_mixes:
            raise ValueError("a profile needs at least one motion mix")
        for mix in self.motion_mixes:
            if mix not in MOTION_MIXES:
                raise ValueError(
                    f"unknown motion mix {mix!r}; expected one of "
                    f"{tuple(sorted(MOTION_MIXES))}"
                )

    @property
    def n_cells(self) -> int:
        """Cells the sweep will produce."""
        return (
            len(self.environments)
            * len(self.loads)
            * len(self.fault_plans)
            * len(self.motion_mixes)
        )


SMOKE_PROFILE = MatrixProfile(
    name="smoke",
    environments=(
        (101, EnvironmentSpec(topology="tower", floors=2, rows=2, cols=3,
                              floor_width_m=24.0, floor_height_m=10.0,
                              n_aps=5, placement="grid")),
        (202, EnvironmentSpec(topology="mall", rows=4, cols=4,
                              floor_width_m=28.0, floor_height_m=16.0,
                              n_aps=5, placement="perimeter")),
        (303, EnvironmentSpec(topology="warehouse", rows=4, cols=3,
                              floor_width_m=20.0, floor_height_m=18.0,
                              n_aps=4, placement="sparse-adversarial")),
    ),
    loads=(
        LoadLevel("light", n_sessions=3, corpus_size=2),
        LoadLevel("heavy", n_sessions=6, corpus_size=3),
    ),
    fault_plans=(
        FaultPlanSpec("none"),
        FaultPlanSpec("storm", kind="faults", rate=0.15, chaos_seed=11),
    ),
    samples_per_location=12,
    training_samples=8,
    n_training_traces=24,
    n_test_traces=6,
    trace_hops=6,
)
"""3 topologies x 2 loads x 2 fault plans = 12 tiny cells, CI-gated."""


FULL_PROFILE = MatrixProfile(
    name="full",
    environments=(
        (101, EnvironmentSpec(topology="tower", floors=3, rows=3, cols=4,
                              floor_width_m=32.0, floor_height_m=12.0,
                              n_aps=12, placement="grid")),
        (202, EnvironmentSpec(topology="mall", rows=4, cols=7,
                              floor_width_m=44.0, floor_height_m=18.0,
                              n_aps=10, placement="perimeter")),
        (303, EnvironmentSpec(topology="warehouse", rows=6, cols=5,
                              floor_width_m=30.0, floor_height_m=28.0,
                              n_aps=8, placement="clustered")),
        (404, EnvironmentSpec(topology="stadium", rows=3, cols=16,
                              floor_width_m=48.0, floor_height_m=48.0,
                              n_aps=12, placement="perimeter")),
        (505, EnvironmentSpec(topology="corridor", rows=6, cols=8,
                              floor_width_m=36.0, floor_height_m=20.0,
                              n_aps=6, placement="sparse-adversarial")),
    ),
    loads=(
        LoadLevel("light", n_sessions=4, corpus_size=2),
        LoadLevel("heavy", n_sessions=12, corpus_size=4),
    ),
    fault_plans=(
        FaultPlanSpec("none"),
        FaultPlanSpec("storm", kind="faults", rate=0.15, chaos_seed=11),
        FaultPlanSpec("adversary", kind="adversarial", rate=0.2, chaos_seed=23),
        FaultPlanSpec("churn", kind="db_churn", rate=0.02, chaos_seed=31),
    ),
    samples_per_location=30,
    training_samples=20,
    motion_mixes=("paper-walk", "mixed-gait"),
    n_training_traces=60,
    n_test_traces=12,
    trace_hops=10,
)
"""5 topologies x 2 loads x 4 fault plans x 2 mixes = 80 cells, the
weekly sweep."""


def twin_confusion_rate(records: Sequence[Any], twins: Sequence[Any]) -> float:
    """The fraction of fixes confused with the true location's twin.

    A record counts as twin-confused when its ground-truth location is a
    member of a twin pair and the estimate landed exactly on that pair's
    other member — the paper's failure mode, isolated from garden-variety
    misses.  Returns 0.0 for empty record sets or twin-free worlds.
    """
    partners: Dict[int, set] = {}
    for pair in twins:
        partners.setdefault(pair.location_a, set()).add(pair.location_b)
        partners.setdefault(pair.location_b, set()).add(pair.location_a)
    if not records or not partners:
        return 0.0
    confused = sum(
        1
        for record in records
        if record.estimated_id in partners.get(record.true_id, ())
    )
    return confused / len(records)


def _census(study) -> Dict[str, Any]:
    """Twin-census one prepared study's survey database."""
    report = analyze_ambiguity(
        study.scenario.survey.database, study.scenario.plan
    )
    twins = report.twins
    return {
        "twin_threshold_db": report.twin_threshold_db,
        "n_twins": len(twins),
        "n_distant_twins": len(report.distant_twins(_DISTANT_TWIN_MIN_M)),
        "twin_free": not twins,
        "worst_pairs": [
            {
                "location_a": pair.location_a,
                "location_b": pair.location_b,
                "signal_gap_db": pair.signal_gap_db,
                "physical_distance_m": pair.physical_distance_m,
            }
            for pair in twins[:5]
        ],
    }, twins


def _serve_cell(
    study,
    environment: GeneratedEnvironment,
    load: LoadLevel,
    fault_plan: FaultPlanSpec,
) -> Dict[str, Any]:
    """Serve one (environment, load, fault) cell; return its serving block."""
    from ..chaos import ChaosHarness, FaultPlan
    from ..serving import (
        BatchedServingEngine,
        build_session_services,
        workload_checksum,
    )
    from ..serving.benchmark import ServeResult
    from ..sim.evaluation import multi_session_workload

    n_aps = environment.spec.n_aps
    fingerprint_db = study.fingerprint_db(n_aps)
    motion_db, _ = study.motion_db(n_aps)
    workload = multi_session_workload(
        study.test_traces,
        load.n_sessions,
        corpus_size=load.corpus_size,
        stagger_ticks=load.stagger_ticks,
    )
    make_service = None
    if fault_plan.kind == "adversarial":
        from ..motion.pedestrian import BodyProfile
        from ..robustness import ResilientMoLocService
        from ..robustness.trust import ApTrustMonitor

        def make_service(trace):
            # One monitor per session: trust state is per-user.
            return ResilientMoLocService(
                fingerprint_db,
                motion_db,
                body=BodyProfile(height_m=1.72),
                config=study.config,
                plan=study.scenario.plan,
                trust=ApTrustMonitor(n_aps=n_aps),
            )

    services = build_session_services(
        workload,
        fingerprint_db,
        motion_db,
        study.config,
        resilient=True,
        plan=study.scenario.plan,
        make_service=make_service,
    )
    engine = BatchedServingEngine(fingerprint_db, motion_db, study.config)
    totals = {
        "served": 0, "faulted": 0, "quarantined": 0, "duplicates": 0,
        "stale": 0, "shed": 0, "evicted": 0,
    }

    if fault_plan.kind == "none":
        from ..serving import serve_batched

        result = serve_batched(engine, workload, services)
        totals["served"] = result.n_intervals
        scheduled_faults = 0
    else:
        storm_kinds = None
        if fault_plan.kind == "adversarial":
            from ..chaos.plan import ADVERSARY_KINDS, DEFAULT_RANDOM_KINDS

            storm_kinds = list(DEFAULT_RANDOM_KINDS) + list(ADVERSARY_KINDS)
        elif fault_plan.kind == "db_churn":
            from ..chaos.plan import DB_CHURN_KINDS

            storm_kinds = list(DB_CHURN_KINDS)
        plan = FaultPlan.random(
            seed=fault_plan.chaos_seed,
            n_ticks=len(workload.ticks),
            session_ids=sorted(workload.sessions),
            rate=fault_plan.rate,
            kinds=storm_kinds,
            n_aps=(
                n_aps
                if fault_plan.kind in ("adversarial", "db_churn")
                else None
            ),
        )
        scheduled_faults = len(plan)
        harness = ChaosHarness(engine, plan)
        for session_id, service in services.items():
            engine.add_session(session_id, service)
        fixes: Dict[str, List[object]] = {sid: [] for sid in services}
        durations: List[float] = []
        n_intervals = 0
        for tick in workload.ticks:
            events = list(tick)
            started = time.perf_counter()
            outcome = harness.tick_detailed(events)
            durations.append(time.perf_counter() - started)
            for event, fix in zip(events, outcome.fixes):
                if fix is not None:
                    fixes[event.session_id].append(fix)
            totals["served"] += len(outcome.served)
            totals["faulted"] += len(outcome.faulted)
            totals["quarantined"] += len(outcome.quarantined)
            totals["duplicates"] += len(outcome.duplicates)
            totals["stale"] += len(outcome.stale)
            totals["shed"] += len(outcome.shed)
            totals["evicted"] += len(outcome.evicted)
            n_intervals += len(events)
        result = ServeResult(
            fixes=fixes, tick_durations_s=durations, n_intervals=n_intervals
        )

    return {
        "load": {
            "name": load.name,
            "n_sessions": load.n_sessions,
            "corpus_size": load.corpus_size,
            "stagger_ticks": load.stagger_ticks,
        },
        "fault_plan": {
            "name": fault_plan.name,
            "kind": fault_plan.kind,
            "rate": fault_plan.rate,
            "chaos_seed": fault_plan.chaos_seed,
            "scheduled_faults": scheduled_faults,
        },
        "throughput": {
            "n_intervals": result.n_intervals,
            "n_ticks": len(workload.ticks),
            "intervals_per_s": result.intervals_per_s,
            "p95_tick_ms": result.tick_percentile_ms(95.0),
        },
        "fault_accounting": totals,
        "fix_checksum": workload_checksum(result),
        "surviving_sessions": len(engine.sessions),
    }


def run_matrix(
    profile: MatrixProfile = FULL_PROFILE,
    seed: int = 7,
) -> Dict[str, Any]:
    """Run the whole sweep; return the ``BENCH_matrix.json`` document.

    Per environment the world is generated *twice* and the checksums
    compared, so every cell's ``bitwise_reproducible`` flag is evidence,
    not assertion.  Evaluation (accuracy, twin-confusion) runs once per
    (environment, motion mix) at the environment's full AP count —
    ``"paper-walk"`` is the bitwise-legacy workload, other mixes drive
    the same study through gait-scheduled walks — and serving runs per
    (load, fault) cell with freshly built services.  The per-environment
    record reports the profile's *first* mix (the baseline).
    """
    from ..sim.experiments import evaluate_systems, prepare_study

    environments: List[Dict[str, Any]] = []
    cells: List[Dict[str, Any]] = []
    started = time.perf_counter()

    for env_seed, spec in profile.environments:
        environment = generate_environment(spec, seed=env_seed)
        checksum = environment_checksum(environment)
        regenerated = environment_checksum(generate_environment(spec, seed=env_seed))
        reproducible = checksum == regenerated
        env_recorded = False

        for mix_name in profile.motion_mixes:
            study = prepare_study(
                seed=seed,
                n_training_traces=profile.n_training_traces,
                n_test_traces=profile.n_test_traces,
                trace_config=gait_trace_config(
                    mix_name, n_hops=profile.trace_hops
                ),
                hall=environment.hall,
                samples_per_location=profile.samples_per_location,
                training_samples=profile.training_samples,
            )
            census, twins = _census(study)
            results = evaluate_systems(study, spec.n_aps)
            moloc = results["moloc"]
            accuracy = {
                name: result.accuracy for name, result in results.items()
            }
            mean_error = {
                name: result.mean_error_m for name, result in results.items()
            }
            confusion = twin_confusion_rate(moloc.records, twins)

            if not env_recorded:
                env_recorded = True
                environments.append({
                    "name": spec.display_name,
                    "topology": spec.topology,
                    "env_seed": env_seed,
                    "spec": spec.to_dict(),
                    "n_locations": spec.n_locations,
                    "environment_checksum": checksum,
                    "bitwise_reproducible": reproducible,
                    "twin_census": census,
                    "motion_mix": mix_name,
                    "accuracy": accuracy,
                    "mean_error_m": mean_error,
                    "twin_confusion_rate": confusion,
                })

            for load in profile.loads:
                for fault_plan in profile.fault_plans:
                    cell = {
                        "environment": spec.display_name,
                        "topology": spec.topology,
                        "env_seed": env_seed,
                        "environment_checksum": checksum,
                        "bitwise_reproducible": reproducible,
                        "twin_free": census["twin_free"],
                        "motion_mix": mix_name,
                        "accuracy": accuracy,
                        "twin_confusion_rate": confusion,
                    }
                    cell.update(
                        _serve_cell(study, environment, load, fault_plan)
                    )
                    cells.append(cell)

    return {
        "report": "matrix",
        "format_version": MATRIX_FORMAT_VERSION,
        "profile": profile.name,
        "seed": seed,
        "study_scale": {
            "samples_per_location": profile.samples_per_location,
            "training_samples": profile.training_samples,
            "n_training_traces": profile.n_training_traces,
            "n_test_traces": profile.n_test_traces,
            "trace_hops": profile.trace_hops,
        },
        "n_environments": len(environments),
        "n_cells": len(cells),
        "environments": environments,
        "cells": cells,
        "elapsed_s": time.perf_counter() - started,
    }


_CELL_REQUIRED_KEYS = (
    "environment",
    "topology",
    "env_seed",
    "environment_checksum",
    "bitwise_reproducible",
    "twin_free",
    "accuracy",
    "twin_confusion_rate",
    "load",
    "fault_plan",
    "throughput",
    "fault_accounting",
    "fix_checksum",
)


def validate_matrix_document(document: Dict[str, Any]) -> List[str]:
    """Schema-check one matrix document; return the problems found.

    An empty list means the document is valid: correct report kind,
    every cell carries every required key, every environment verified
    bitwise-reproducible, and every environment's spec round-trips.
    CI gates on this (via the CLI exit code), so a regression in the
    artifact's shape or in determinism fails the build.
    """
    problems: List[str] = []
    if document.get("report") != "matrix":
        problems.append(f"not a matrix report: {document.get('report')!r}")
        return problems
    if document.get("format_version") not in _SUPPORTED_MATRIX_VERSIONS:
        problems.append(
            f"unsupported format_version {document.get('format_version')!r}"
        )
    cells = document.get("cells", [])
    if not isinstance(cells, list) or not cells:
        problems.append("document has no cells")
        return problems
    # The motion-mix label is required from version 3 on; older
    # documents predate the axis and stay valid without it.
    required_keys = _CELL_REQUIRED_KEYS
    if document.get("format_version", 0) >= 3:
        required_keys = required_keys + ("motion_mix",)
    for index, cell in enumerate(cells):
        for key in required_keys:
            if key not in cell:
                problems.append(f"cell {index} is missing {key!r}")
        if not cell.get("bitwise_reproducible", False):
            problems.append(
                f"cell {index} ({cell.get('environment')}) failed "
                "bitwise reproducibility"
            )
        throughput = cell.get("throughput", {})
        if throughput.get("n_intervals", 0) <= 0:
            problems.append(f"cell {index} served no intervals")
        accounting = cell.get("fault_accounting", {})
        if accounting.get("served", 0) <= 0:
            problems.append(f"cell {index} has no served fixes accounted")
    for index, environment in enumerate(document.get("environments", [])):
        spec_payload = environment.get("spec")
        try:
            EnvironmentSpec.from_dict(spec_payload)
        except (ValueError, KeyError, TypeError) as error:
            problems.append(f"environment {index} spec does not round-trip: {error}")
    return problems


def write_matrix_artifacts(
    document: Dict[str, Any],
    output: Path,
    specs_dir: Optional[Path] = None,
) -> None:
    """Write ``BENCH_matrix.json`` and, optionally, per-environment specs."""
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if specs_dir is not None:
        specs_dir.mkdir(parents=True, exist_ok=True)
        for environment in document.get("environments", []):
            slug = (
                f"{environment['topology']}_seed{environment['env_seed']}.json"
            )
            (specs_dir / slug).write_text(
                json.dumps(environment["spec"], indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
