"""Tests for failure injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fingerprint import Fingerprint
from repro.radio.propagation import SENSITIVITY_FLOOR_DBM
from repro.sim.failures import (
    inject_ap_outage,
    inject_grip_shift,
    inject_imu_dropout,
    inject_step_length_bias,
    silence_ap,
)
from repro.motion.step_counting import count_steps_csc


@pytest.fixture()
def trace(small_study):
    return small_study.test_traces[0]


class TestSilenceAp:
    def test_reading_floored(self):
        fp = Fingerprint.from_values([-50.0, -60.0, -70.0])
        silenced = silence_ap(fp, 1)
        assert silenced.rss == (-50.0, SENSITIVITY_FLOOR_DBM, -70.0)

    def test_original_unchanged(self):
        fp = Fingerprint.from_values([-50.0, -60.0])
        silence_ap(fp, 0)
        assert fp.rss == (-50.0, -60.0)

    def test_out_of_range(self):
        fp = Fingerprint.from_values([-50.0])
        with pytest.raises(ValueError):
            silence_ap(fp, 1)
        with pytest.raises(ValueError):
            silence_ap(fp, -1)


class TestApOutage:
    def test_all_fingerprints_affected(self, trace):
        degraded = inject_ap_outage(trace, 3)
        assert degraded.initial_fingerprint.rss[3] == SENSITIVITY_FLOOR_DBM
        for hop in degraded.hops:
            assert hop.arrival_fingerprint.rss[3] == SENSITIVITY_FLOOR_DBM

    def test_other_aps_untouched(self, trace):
        degraded = inject_ap_outage(trace, 3)
        for original, modified in zip(trace.hops, degraded.hops):
            for ap in (0, 1, 2, 4, 5):
                assert (
                    modified.arrival_fingerprint.rss[ap]
                    == original.arrival_fingerprint.rss[ap]
                )

    def test_ground_truth_preserved(self, trace):
        degraded = inject_ap_outage(trace, 0)
        assert degraded.true_locations == trace.true_locations

    def test_original_trace_unchanged(self, trace):
        before = trace.initial_fingerprint.rss
        inject_ap_outage(trace, 0)
        assert trace.initial_fingerprint.rss == before


class TestGripShift:
    def test_later_hops_rotated(self, trace):
        shifted = inject_grip_shift(trace, after_hop=2, shift_deg=90.0)
        for index, (original, modified) in enumerate(
            zip(trace.hops, shifted.hops)
        ):
            if index <= 2:
                np.testing.assert_array_equal(
                    modified.imu.compass_readings, original.imu.compass_readings
                )
            else:
                expected = (original.imu.compass_readings + 90.0) % 360.0
                np.testing.assert_allclose(
                    modified.imu.compass_readings, expected
                )

    def test_offset_estimate_stays_stale(self, trace):
        shifted = inject_grip_shift(trace, 0, 45.0)
        assert (
            shifted.placement_offset_estimate_deg
            == trace.placement_offset_estimate_deg
        )

    def test_out_of_range(self, trace):
        with pytest.raises(ValueError):
            inject_grip_shift(trace, len(trace.hops), 10.0)


class TestStepLengthBias:
    def test_factor_applied(self, trace):
        biased = inject_step_length_bias(trace, 1.3)
        assert biased.estimated_step_length_m == pytest.approx(
            trace.estimated_step_length_m * 1.3
        )

    def test_invalid_factor(self, trace):
        with pytest.raises(ValueError):
            inject_step_length_bias(trace, 0.0)


class TestImuDropout:
    def test_dropped_hops_report_no_steps(self, trace):
        degraded = inject_imu_dropout(trace, [1, 3])
        assert count_steps_csc(degraded.hops[1].imu.accel) == 0.0
        assert count_steps_csc(degraded.hops[3].imu.accel) == 0.0
        assert count_steps_csc(degraded.hops[0].imu.accel) > 0.0

    def test_out_of_range(self, trace):
        with pytest.raises(ValueError):
            inject_imu_dropout(trace, [99])


class TestDegradationBehavior:
    """End-to-end: MoLoc degrades gracefully, never crashes."""

    def _accuracies(self, small_study, traces):
        from repro.core.localizer import MoLocLocalizer
        from repro.core.baselines import WiFiFingerprintingLocalizer
        from repro.sim.evaluation import evaluate_localizer

        fdb = small_study.fingerprint_db(6)
        mdb, _ = small_study.motion_db(6)
        plan = small_study.scenario.plan
        moloc = evaluate_localizer(
            MoLocLocalizer(fdb, mdb, small_study.config), traces, plan
        )
        wifi = evaluate_localizer(
            WiFiFingerprintingLocalizer(fdb), traces, plan
        )
        return moloc.accuracy, wifi.accuracy

    def test_ap_outage_degrades_but_moloc_still_wins(self, small_study):
        degraded = [
            inject_ap_outage(t, 5) for t in small_study.test_traces
        ]
        clean_moloc, _ = self._accuracies(small_study, small_study.test_traces)
        outage_moloc, outage_wifi = self._accuracies(small_study, degraded)
        assert outage_moloc <= clean_moloc + 0.02  # no free lunch
        assert outage_moloc > outage_wifi  # motion still helps

    def test_grip_shift_hurts_but_does_not_crash(self, small_study):
        degraded = [
            inject_grip_shift(t, 1, 120.0) for t in small_study.test_traces[:8]
        ]
        moloc_acc, wifi_acc = self._accuracies(small_study, degraded)
        clean_moloc, _ = self._accuracies(
            small_study, small_study.test_traces[:8]
        )
        assert moloc_acc < clean_moloc  # the fault genuinely hurts
        assert 0.0 <= moloc_acc <= 1.0

    def test_imu_dropout_falls_back_to_fingerprints(self, small_study):
        """With every IMU interval lost, MoLoc's fixes still complete."""
        degraded = [
            inject_imu_dropout(t, range(t.n_hops))
            for t in small_study.test_traces[:5]
        ]
        moloc_acc, wifi_acc = self._accuracies(small_study, degraded)
        assert 0.0 <= moloc_acc <= 1.0

    def test_step_length_bias_within_coarse_threshold_tolerated(
        self, small_study
    ):
        """A 5% step-length error moves offsets well within beta."""
        degraded = [
            inject_step_length_bias(t, 1.05) for t in small_study.test_traces
        ]
        biased_moloc, _ = self._accuracies(small_study, degraded)
        clean_moloc, _ = self._accuracies(small_study, small_study.test_traces)
        assert biased_moloc > clean_moloc - 0.1


class TestInjectorPurity:
    """Every injector is pure: new objects out, inputs never mutated.

    The robustness suites reuse one clean trace set across many
    injections; a single mutating injector would silently poison every
    later measurement, so purity is asserted across injectors on
    snapshots of the raw float payloads (numpy arrays included).
    """

    @staticmethod
    def _trace_snapshot(trace):
        return (
            trace.user,
            trace.true_start,
            trace.initial_fingerprint.rss,
            trace.placement_offset_estimate_deg,
            trace.estimated_step_length_m,
            tuple(
                (
                    hop.arrival_fingerprint.rss,
                    hop.imu.accel.samples.tobytes(),
                    hop.imu.accel.true_step_times.tobytes(),
                    hop.imu.compass_readings.tobytes(),
                    hop.imu.true_course_deg,
                    hop.imu.true_distance_m,
                )
                for hop in trace.hops
            ),
        )

    @pytest.mark.parametrize(
        "inject",
        [
            lambda t: inject_ap_outage(t, 2),
            lambda t: inject_grip_shift(t, 1, 75.0),
            lambda t: inject_step_length_bias(t, 1.4),
            lambda t: inject_imu_dropout(t, [0, 2]),
        ],
        ids=["ap_outage", "grip_shift", "step_length_bias", "imu_dropout"],
    )
    def test_trace_injectors_do_not_mutate(self, trace, inject):
        before = self._trace_snapshot(trace)
        inject(trace)
        assert self._trace_snapshot(trace) == before
