"""Gait subsystem end to end: bitwise-free when off, honest when attacked.

The contract ``python -m repro gate gait`` enforces in CI, asserted here
at test scale:

* with ``speed_adaptive`` off (the default), serving a *mixed-gait*
  population batched is bitwise-identical to serving it sequentially —
  the subsystem costs zero bytes until enabled;
* session state carries the speed estimator only when enabled, and a
  checkpointed adaptive session resumes bitwise;
* a miscalibrated stride (``inject_step_length_bias``) surfaces as a
  proportional speed-estimate error rather than hiding;
* a spoofed IMU replaying a run-gait donor stride onto a slower victim
  is still vetoed by the heading-rate check, and the benched interval
  never reaches the speed estimator.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import MoLocConfig
from repro.motion.pedestrian import BodyProfile
from repro.robustness.health import FaultType
from repro.robustness.service import ResilientMoLocService
from repro.serving import (
    BatchedServingEngine,
    build_session_services,
    fix_stream_checksum,
    serve_batched,
    serve_sequential,
)
from repro.service import MoLocService
from repro.sim.adversary import inject_imu_spoof
from repro.sim.crowdsource import TraceGenerationConfig, generate_traces
from repro.sim.evaluation import multi_session_workload
from repro.sim.experiments import prepare_study
from repro.sim.failures import inject_step_length_bias
from repro.sim.gait import gait_trace_config

_N_APS = 6


@pytest.fixture(scope="module")
def gait_study():
    """A small study serving mixed-gait walkers from a paper-gait DB."""
    return prepare_study(
        seed=11,
        n_training_traces=24,
        n_test_traces=6,
        trace_config=gait_trace_config("paper-walk", n_hops=8),
        test_trace_config=gait_trace_config("mixed-gait", n_hops=8),
        samples_per_location=20,
        training_samples=12,
    )


def _service(study, config, trace, resilient=False):
    cls = ResilientMoLocService if resilient else MoLocService
    kwargs = {"plan": study.scenario.plan} if resilient else {}
    service = cls(
        study.fingerprint_db(_N_APS),
        study.motion_db(_N_APS)[0],
        body=BodyProfile(height_m=1.72),
        config=config,
        **kwargs,
    )
    service._stride.step_length_m = trace.estimated_step_length_m
    service.calibrate_heading(
        [
            (hop.imu.compass_readings, hop.imu.true_course_deg)
            for hop in trace.hops[:2]
        ]
    )
    return service


class TestDisabledPathIsBitwiseFree:
    def test_batched_equals_sequential_over_mixed_gait(self, gait_study):
        workload = multi_session_workload(
            gait_study.test_traces, 4, corpus_size=4, stagger_ticks=2
        )

        def services():
            return build_session_services(
                workload,
                gait_study.fingerprint_db(_N_APS),
                gait_study.motion_db(_N_APS)[0],
                gait_study.config,
                resilient=True,
                plan=gait_study.scenario.plan,
            )

        sequential = serve_sequential(workload, services())
        engine = BatchedServingEngine(
            gait_study.fingerprint_db(_N_APS),
            gait_study.motion_db(_N_APS)[0],
            gait_study.config,
        )
        batched = serve_batched(engine, workload, services())
        for session_id in workload.sessions:
            assert fix_stream_checksum(
                batched.fixes[session_id]
            ) == fix_stream_checksum(sequential.fixes[session_id]), session_id

    def test_adaptive_changes_the_mixed_gait_streams(self, gait_study):
        trace = gait_study.test_traces[0]
        fixed = _service(gait_study, gait_study.config, trace)
        adaptive = _service(
            gait_study,
            dataclasses.replace(gait_study.config, speed_adaptive=True),
            trace,
        )
        fixed_stream = [fixed.on_interval(trace.initial_fingerprint.rss)]
        adaptive_stream = [
            adaptive.on_interval(trace.initial_fingerprint.rss)
        ]
        for hop in trace.hops:
            fixed_stream.append(
                fixed.on_interval(hop.arrival_fingerprint.rss, hop.imu)
            )
            adaptive_stream.append(
                adaptive.on_interval(hop.arrival_fingerprint.rss, hop.imu)
            )
        assert adaptive.speed_estimator is not None
        assert adaptive.speed_estimator.samples > 0
        assert fixed.speed_estimator is None
        # The adaptive model actually steers scoring on this workload.
        assert fix_stream_checksum(adaptive_stream) != fix_stream_checksum(
            fixed_stream
        )


class TestSpeedStateInCheckpoints:
    def test_speed_key_present_only_when_enabled(self, gait_study):
        trace = gait_study.test_traces[0]
        fixed = _service(gait_study, gait_study.config, trace)
        adaptive = _service(
            gait_study,
            dataclasses.replace(gait_study.config, speed_adaptive=True),
            trace,
        )
        assert "speed" not in fixed.state_dict()
        assert "speed" in adaptive.state_dict()

    def test_restored_adaptive_session_resumes_bitwise(self, gait_study):
        config = dataclasses.replace(gait_study.config, speed_adaptive=True)
        trace = gait_study.test_traces[1]
        straight = _service(gait_study, config, trace)
        resumed = _service(gait_study, config, trace)
        straight.on_interval(trace.initial_fingerprint.rss)
        resumed.on_interval(trace.initial_fingerprint.rss)
        half = len(trace.hops) // 2
        for hop in trace.hops[:half]:
            straight.on_interval(hop.arrival_fingerprint.rss, hop.imu)
            resumed.on_interval(hop.arrival_fingerprint.rss, hop.imu)
        clone = _service(gait_study, config, trace)
        clone.load_state_dict(resumed.state_dict())
        tail_straight, tail_clone = [], []
        for hop in trace.hops[half:]:
            tail_straight.append(
                straight.on_interval(hop.arrival_fingerprint.rss, hop.imu)
            )
            tail_clone.append(
                clone.on_interval(hop.arrival_fingerprint.rss, hop.imu)
            )
        assert fix_stream_checksum(tail_clone) == fix_stream_checksum(
            tail_straight
        )


class TestFaultsSurfaceHonestly:
    def test_step_length_bias_shows_up_as_speed_error(self, gait_study):
        """A wrong stride belief must surface, not hide, in the estimate."""
        config = dataclasses.replace(gait_study.config, speed_adaptive=True)
        walk_config = TraceGenerationConfig(n_hops=8, gait="walk")
        trace = generate_traces(
            gait_study.scenario,
            1,
            np.random.default_rng(5),
            config=walk_config,
        )[0]
        factor = 1.3

        def final_speed(served_trace):
            service = _service(gait_study, config, served_trace)
            service.on_interval(served_trace.initial_fingerprint.rss)
            for hop in served_trace.hops:
                service.on_interval(hop.arrival_fingerprint.rss, hop.imu)
            return service.speed_estimator.speed_mps

        honest = final_speed(trace)
        biased = final_speed(inject_step_length_bias(trace, factor))
        true_speed = trace.hops[-1].true_speed_mps
        assert abs(honest - true_speed) < 0.25
        # The stride enters the speed sample twice (cadence scaling and
        # the length itself), so the bias amplifies to ~factor^2.
        assert biased > 1.4 * honest
        assert abs(biased - true_speed) > 4 * abs(honest - true_speed)

    def test_run_donor_replay_onto_slower_victim_still_caught(
        self, gait_study
    ):
        """Claiming a runner's stride does not smuggle speed evidence in."""
        config = dataclasses.replace(gait_study.config, speed_adaptive=True)
        stroll_config = TraceGenerationConfig(n_hops=8, gait="stroll")
        run_config = TraceGenerationConfig(n_hops=8, gait="run")
        rng = np.random.default_rng(9)
        victim = generate_traces(
            gait_study.scenario, 1, rng, config=stroll_config
        )[0]
        donor = generate_traces(
            gait_study.scenario, 1, rng, config=run_config
        )[0]
        # Graft the runner's accelerometer onto the spoofed tail: the
        # same compass oscillation the IMU spoof injector produces, with
        # a cross-gait donor stride instead of a same-trace hop.
        onset = 3
        spoofed = inject_imu_spoof(victim, onset)
        hops = list(spoofed.hops)
        for index in range(onset, len(hops)):
            hops[index] = dataclasses.replace(
                hops[index],
                imu=dataclasses.replace(
                    hops[index].imu, accel=donor.hops[0].imu.accel
                ),
            )
        attacked = dataclasses.replace(spoofed, hops=hops)

        service = _service(gait_study, config, attacked, resilient=True)
        service.on_interval(attacked.initial_fingerprint.rss)
        for hop in attacked.hops[:onset]:
            service.on_interval(hop.arrival_fingerprint.rss, hop.imu)
        samples_before = service.speed_estimator.samples
        spoof_faults = 0
        for hop in attacked.hops[onset:]:
            fix = service.on_interval(hop.arrival_fingerprint.rss, hop.imu)
            if FaultType.IMU_SPOOF in fix.health.faults:
                spoof_faults += 1
        # Every spoofed interval is vetoed, and none of them feed the
        # speed estimator — the runner's cadence never becomes evidence.
        assert spoof_faults == len(attacked.hops) - onset
        assert service.speed_estimator.samples == samples_before
