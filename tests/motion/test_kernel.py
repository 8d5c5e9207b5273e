"""The batched motion kernel against the per-segment definitions it replaced.

`segment_motions`, `detect_steps` and `circular_means` compute many
segments at once; every row must equal what the one-segment scalar code
computed, bit for bit.  The oracle below is a frozen copy of that scalar
code (step detection, CSC/DSC, the circular mean and the IMU
credibility check), so a kernel change that alters any row fails here.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.env.geometry import circular_mean, circular_means, normalize_bearing
from repro.io.serialize import motion_db_to_dict
from repro.motion.heading import estimate_placement_offset
from repro.motion.kernel import segment_motions
from repro.motion.rlm import extract_measurement
from repro.motion.step_counting import (
    count_steps_csc,
    count_steps_dsc,
    detect_step_times,
    detect_steps,
    is_walking,
)
from repro.robustness.sanitizer import check_imu
from repro.sensors.accelerometer import AccelerometerModel, AccelSignal
from repro.sensors.imu import ImuSegment
from repro.sim.experiments import prepare_study
from repro.sim.gait import gait_trace_config

# The oracle's numpy calls warn on infinite samples; the kernel does not.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

# ----------------------------------------------------------------------
# The oracle: the one-segment scalar definitions, frozen
# ----------------------------------------------------------------------


def _oracle_find_peaks(x, height, distance):
    x = np.asarray(x, dtype=np.float64)
    edges = np.flatnonzero(x[:-1] != x[1:])
    values, following = x[edges], x[edges + 1]
    heights = following[:-1]
    top = np.flatnonzero(
        (heights > values[:-1]) & (following[1:] < values[1:]) & (heights >= height)
    )
    peaks = (edges[top] + 1 + edges[top + 1]) // 2
    if peaks.size < 2:
        return peaks
    positions = peaks.tolist()
    keep = [True] * len(positions)
    for j in reversed(np.argsort(heights[top]).tolist()):
        if not keep[j]:
            continue
        k = j - 1
        while k >= 0 and positions[j] - positions[k] < distance:
            keep[k] = False
            k -= 1
        k = j + 1
        while k < len(positions) and positions[k] - positions[j] < distance:
            keep[k] = False
            k += 1
    return peaks[keep]


def _oracle_is_walking(signal):
    if len(signal.samples) == 0:
        return False
    return float(np.std(signal.samples)) > 1.0


def _oracle_step_times(signal):
    samples = signal.samples
    if len(samples) < 3 or not _oracle_is_walking(signal):
        return []
    threshold = float(samples.mean()) + 0.4 * float(samples.max() - samples.mean())
    min_distance = max(int(0.3 * signal.rate_hz), 1)
    times = []
    for idx in _oracle_find_peaks(samples, threshold, min_distance):
        refined = float(idx)
        if 0 < idx < len(samples) - 1:
            left, mid, right = samples[idx - 1], samples[idx], samples[idx + 1]
            denominator = left - 2.0 * mid + right
            if abs(denominator) > 1e-9:
                shift = 0.5 * (left - right) / denominator
                refined = idx + float(np.clip(shift, -0.5, 0.5))
        times.append(refined / signal.rate_hz)
    return times


def _oracle_csc(signal):
    times = _oracle_step_times(signal)
    if len(times) < 2:
        return float(len(times))
    first, last = times[0], times[-1]
    integral_intervals = len(times) - 1
    period = (last - first) / integral_intervals
    odd_time = first + (signal.duration_s - last)
    return integral_intervals + odd_time / period


def _oracle_circular_mean(bearings):
    if len(bearings) == 0:
        raise ValueError("circular mean of no bearings is undefined")
    sin_sum = sum(math.sin(math.radians(b)) for b in bearings)
    cos_sum = sum(math.cos(math.radians(b)) for b in bearings)
    if math.hypot(sin_sum, cos_sum) < 1e-12:
        raise ValueError("circular mean is undefined for uniformly opposed bearings")
    return normalize_bearing(math.degrees(math.atan2(sin_sum, cos_sum)))


def _oracle_check_imu(imu):
    samples = np.asarray(imu.accel.samples, dtype=float)
    readings = np.asarray(imu.compass_readings, dtype=float)
    if samples.size == 0 or readings.size == 0:
        return "empty"
    if not np.isfinite(samples).all() or not np.isfinite(readings).all():
        return "non-finite"
    if float(samples.std()) < 1e-6:
        return "flat-line"
    if readings.size >= 2:
        steps = np.abs((np.diff(readings) + 180.0) % 360.0 - 180.0)
        if float(steps.mean()) > 40.0:
            return "heading-rate"
    return None


def _bits(value: float) -> str:
    """A float's exact bits (NaN compares equal to NaN)."""
    return float(value).hex()


def _outcome(function, *args):
    """A value's exact bits, or the error a call raised."""
    try:
        return _bits(function(*args))
    except ValueError as error:
        return f"ValueError: {error}"


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_RATES = st.sampled_from([10.0, 20.0, 25.0, 50.0])
_floats = st.lists(st.floats(-8.0, 8.0, allow_nan=False), max_size=60)
# Rounding and small integers make equal adjacent samples: plateaus.
_rounded = _floats.map(lambda values: [round(v, 1) for v in values])
_small_integer = st.lists(st.integers(0, 4).map(float), max_size=60)
# Spikes two samples apart: peaks closer than the minimum step separation
# at every rate here, which the greedy pruning must thin.
_close_spikes = st.tuples(
    st.integers(2, 20), st.floats(3.0, 9.0), st.floats(-0.4, 0.4)
).map(
    lambda spec: [
        spec[1] + spec[2] * (i % 3) if i % 2 else 0.1 * (i % 5)
        for i in range(2 * spec[0] + 1)
    ]
)


@st.composite
def _model_samples(draw):
    """A synthetic walking or idle accelerometer signal, as a list."""
    model = AccelerometerModel(rate_hz=draw(_RATES))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    duration = draw(st.floats(0.1, 6.0))
    if draw(st.booleans()):
        signal = model.walking(duration, draw(st.floats(0.35, 0.7)), rng)
    else:
        signal = model.idle(duration, rng)
    return signal.samples.tolist()


def _poisoned(values):
    """A signal with a NaN or an infinity spliced in."""
    def splice(spec):
        signal, poison = spec
        middle = len(signal) // 2
        return signal[:middle] + [poison] + signal[middle:]

    return st.tuples(values, st.sampled_from([math.nan, math.inf, -math.inf])).map(splice)


_samples = st.one_of(
    _floats,
    _rounded,
    _small_integer,
    _close_spikes,
    _model_samples(),
    st.lists(st.floats(-8.0, 8.0, allow_nan=False), max_size=2),
    st.tuples(st.integers(0, 40), st.floats(-3.0, 12.0)).map(
        lambda spec: [spec[1]] * spec[0]
    ),
    _poisoned(_floats),
    _poisoned(_model_samples()),
)


@st.composite
def _signals(draw):
    """A batch of signals of mixed lengths and rates."""
    return [
        AccelSignal(
            samples=np.asarray(draw(_samples), dtype=np.float64),
            rate_hz=draw(_RATES),
            true_step_times=np.empty(0),
        )
        for _ in range(draw(st.integers(1, 12)))
    ]


_bearing = st.one_of(
    st.floats(-720.0, 720.0, allow_nan=False),
    # Either side of the 0/360 wrap.
    st.floats(-3.0, 3.0).map(lambda d: d % 360.0),
    st.sampled_from([0.0, -0.0, 90.0, 180.0, 270.0, 359.999999, 360.0]),
)


@st.composite
def _bearing_row(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        # Opposed pairs cancel: the mean is undefined.
        base = draw(st.lists(_bearing, min_size=1, max_size=4))
        return base + [b + 180.0 for b in base]
    if kind == 1:
        # A tight cluster straddling north.
        center = draw(st.floats(-5.0, 5.0))
        return [
            (center + draw(st.floats(-4.0, 4.0))) % 360.0
            for _ in range(draw(st.integers(1, 30)))
        ]
    if kind == 2:
        row = draw(st.lists(_bearing, min_size=1, max_size=20))
        return row[:-1] + [draw(st.sampled_from([math.nan, math.inf, -math.inf]))]
    return draw(st.lists(_bearing, max_size=30))


_readings = st.one_of(
    _bearing_row(),
    # Whipping headings: the spoof signature the heading-rate check vetoes.
    st.tuples(st.floats(0.0, 360.0), st.floats(20.0, 120.0), st.integers(2, 40)).map(
        lambda spec: [
            (spec[0] + spec[1] * (-1) ** i) % 360.0 for i in range(spec[2])
        ]
    ),
)


@st.composite
def _segments(draw):
    """A batch of IMU segments of mixed lengths, rates and faults."""
    segments = []
    for _ in range(draw(st.integers(1, 10))):
        samples = draw(_samples)
        if draw(st.integers(0, 4)) == 0:
            readings = draw(_readings)
        else:
            # One reading per sample, as the phone records them.
            course = draw(st.floats(0.0, 360.0))
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            readings = ((course + rng.normal(0.0, 6.0, len(samples))) % 360.0).tolist()
        segments.append(
            ImuSegment(
                accel=AccelSignal(
                    samples=np.asarray(samples, dtype=np.float64),
                    rate_hz=draw(_RATES),
                    true_step_times=np.empty(0),
                ),
                compass_readings=np.asarray(readings, dtype=np.float64),
                true_course_deg=0.0,
                true_distance_m=0.0,
            )
        )
    return segments


# ----------------------------------------------------------------------
# The oracle comparisons
# ----------------------------------------------------------------------


def _assert_step_row(detection, signal):
    assert detection.walking == _oracle_is_walking(signal)
    assert [_bits(t) for t in detection.step_times] == [
        _bits(t) for t in _oracle_step_times(signal)
    ]
    assert _bits(detection.csc_steps) == _bits(_oracle_csc(signal))
    assert _bits(detection.dsc_steps) == _bits(len(_oracle_step_times(signal)))
    if len(signal.samples):
        assert _bits(detection.std) == _bits(np.std(signal.samples))


class TestStepDetectionOracle:
    @given(signals=_signals())
    @settings(max_examples=300, deadline=None)
    def test_every_row_equals_the_one_signal_definition(self, signals):
        for detection, signal in zip(detect_steps(signals), signals):
            _assert_step_row(detection, signal)

    @given(signals=_signals())
    @settings(max_examples=60, deadline=None)
    def test_scalar_functions_are_one_row_calls(self, signals):
        for signal in signals:
            assert is_walking(signal) == _oracle_is_walking(signal)
            assert [_bits(t) for t in detect_step_times(signal)] == [
                _bits(t) for t in _oracle_step_times(signal)
            ]
            assert _bits(count_steps_csc(signal)) == _bits(_oracle_csc(signal))
            assert _bits(count_steps_dsc(signal)) == _bits(
                len(_oracle_step_times(signal))
            )

    def test_a_row_does_not_depend_on_its_batch(self):
        model = AccelerometerModel()
        rng = np.random.default_rng(5)
        signals = [model.walking(3.0, 0.5, rng) for _ in range(6)]
        alone = [detect_steps([signal])[0] for signal in signals]
        assert detect_steps(signals) == alone
        assert detect_steps(signals[::-1]) == alone[::-1]

    def test_close_peaks_are_pruned_like_the_scalar_path(self):
        samples = np.array([0.0, 6.0, 0.0, 7.0, 0.0, 6.5, 0.0, 0.0, 0.0, 8.0, 0.0])
        signal = AccelSignal(samples=samples, rate_hz=10.0, true_step_times=np.empty(0))
        _assert_step_row(detect_steps([signal])[0], signal)
        assert len(detect_step_times(signal)) == 2

    def test_plateau_peaks_take_the_exact_path(self):
        samples = np.array([0.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 6.0, 6.0, 0.0, 0.0])
        signal = AccelSignal(samples=samples, rate_hz=10.0, true_step_times=np.empty(0))
        _assert_step_row(detect_steps([signal])[0], signal)
        assert detect_step_times(signal) == [0.2, 0.75]

    def test_short_and_empty_signals(self):
        for samples in ([], [9.8], [0.0, 10.0]):
            signal = AccelSignal(
                samples=np.asarray(samples, dtype=float),
                rate_hz=10.0,
                true_step_times=np.empty(0),
            )
            detection = detect_steps([signal])[0]
            assert detection.step_times == ()
            assert detection.csc_steps == detection.dsc_steps == 0.0
            assert detection.walking == _oracle_is_walking(signal)

    def test_empty_batch(self):
        assert detect_steps([]) == []
        assert segment_motions([]) == []
        assert circular_means([]) == []


class TestCircularMeanOracle:
    @given(rows=st.lists(_bearing_row(), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_every_row_equals_the_sequential_definition(self, rows):
        for mean, row in zip(circular_means(rows), rows):
            expected = _outcome(_oracle_circular_mean, row)
            found = f"ValueError: {mean}" if isinstance(mean, str) else _bits(mean)
            assert found == expected
            assert _outcome(circular_mean, row) == expected

    def test_wraps_past_north(self):
        assert circular_mean([350.0, 10.0]) == _oracle_circular_mean([350.0, 10.0])
        assert circular_mean([350.0, 10.0]) == pytest.approx(0.0, abs=1e-9)

    def test_opposed_bearings_raise(self):
        with pytest.raises(ValueError, match="uniformly opposed"):
            circular_mean([90.0, 270.0])
        with pytest.raises(ValueError, match="no bearings"):
            circular_mean([])
        means = circular_means([[90.0, 270.0], [45.0]])
        assert isinstance(means[0], str) and means[1] == 45.0

    def test_negative_zero_sums_match_a_sum_from_zero(self):
        for row in ([-0.0], [-0.0, -0.0], [0.0, -0.0]):
            assert _outcome(circular_mean, row) == _outcome(_oracle_circular_mean, row)

    @given(
        calibration=st.lists(
            st.tuples(_bearing_row(), st.floats(0.0, 360.0)), max_size=5
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_placement_offset_equals_the_per_segment_loop(self, calibration):
        def oracle(pairs):
            offsets = [
                normalize_bearing(_oracle_circular_mean(readings) - course)
                for readings, course in pairs
            ]
            if not offsets:
                raise ValueError(
                    "placement-offset estimation needs at least one segment"
                )
            return _oracle_circular_mean(offsets)

        assert _outcome(estimate_placement_offset, calibration) == _outcome(
            oracle, calibration
        )


class TestSegmentKernelOracle:
    @given(segments=_segments())
    @settings(max_examples=250, deadline=None)
    def test_rows_equal_the_scalar_step_heading_and_check(self, segments):
        for motion, segment in zip(segment_motions(segments), segments):
            _assert_step_row(motion.steps, segment.accel)
            expected = _outcome(_oracle_circular_mean, segment.compass_readings)
            assert _outcome(motion.course_deg, 0.0) == expected
            tripped = _oracle_check_imu(segment)
            assert check_imu(segment, motion).tripped == tripped
            assert check_imu(segment).tripped == tripped

    @given(segments=_segments(), offset=st.floats(0.0, 360.0))
    @settings(max_examples=100, deadline=None)
    def test_extract_measurement_equals_the_scalar_composition(
        self, segments, offset
    ):
        for segment in segments:
            def oracle():
                steps = _oracle_csc(segment.accel)
                direction = normalize_bearing(
                    _oracle_circular_mean(segment.compass_readings) - offset
                )
                return direction, steps * 0.7

            try:
                expected = [_bits(v) for v in oracle()]
            except ValueError as error:
                with pytest.raises(ValueError, match=str(error)):
                    extract_measurement(segment, 0.7, offset)
                continue
            measurement = extract_measurement(segment, 0.7, offset)
            assert [
                _bits(measurement.direction_deg),
                _bits(measurement.offset_m),
            ] == expected

    def test_missing_segment_is_checked_without_the_kernel(self):
        assert check_imu(None).tripped == "missing"


# ----------------------------------------------------------------------
# The motion-database build, end to end
# ----------------------------------------------------------------------

# sha256 of the sorted-key JSON of motion_db_to_dict, recorded with the
# per-segment code the kernel replaced.
_DIGESTS = {
    ("paper-walk", 6, "csc"):
        "93bc73fd73ce6556d2bb2a83f47455d934b297b4c87a97f83c43dd021088a62b",
    ("paper-walk", 6, "dsc"):
        "0da4584b81554d907cf41af61983ea60c695a2b90862141d53a385528a27c089",
    ("paper-walk", 4, "csc"):
        "994c5c6f6cc15f9f8997074beca223a8a6e13e2aedbd5a2b017f337d8e66f153",
    ("dwell-heavy", 6, "csc"):
        "2a0345cbef419ae9256a28c0a173ea8afc636030c3ccd7eebccbf61973d65509",
    ("mixed-gait", 6, "csc"):
        "52cd1da424f79e39ff16b8f90e4310590bcab1f3e489556438b9198b750b31e2",
    ("cart-heavy", 6, "csc"):
        "d51a7c92e0f67f581ab33460e7a94d09e2021fe38584512c2373d20d8d9f18d7",
}


def _digest(database) -> str:
    document = json.dumps(motion_db_to_dict(database), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


class TestMotionDatabaseDigest:
    def test_paper_walks(self):
        study = prepare_study(seed=7, n_training_traces=40, n_test_traces=2)
        for n_aps, counting in ((6, "csc"), (6, "dsc"), (4, "csc")):
            database, _ = study.motion_db(n_aps, counting=counting)
            assert _digest(database) == _DIGESTS[("paper-walk", n_aps, counting)]

    @pytest.mark.parametrize("mix", ["dwell-heavy", "mixed-gait", "cart-heavy"])
    def test_gait_mixes(self, mix):
        study = prepare_study(
            seed=11,
            n_training_traces=30,
            n_test_traces=2,
            trace_config=gait_trace_config(mix),
        )
        database, _ = study.motion_db(6)
        assert _digest(database) == _DIGESTS[(mix, 6, "csc")]

    def test_batched_nearest_equals_nearest(self):
        study = prepare_study(seed=7, n_training_traces=10, n_test_traces=2)
        for n_aps in (4, 6):
            database = study.fingerprint_db(n_aps)
            queries: List = [
                fingerprint.truncated(n_aps)
                for trace in study.training_traces
                for fingerprint in [trace.initial_fingerprint]
                + [hop.arrival_fingerprint for hop in trace.hops]
            ]
            assert database.nearest_many(queries) == [
                database.nearest(query) for query in queries
            ]
