"""Tests for step detection, DSC, and CSC (paper Sec. IV-B1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.motion.step_counting import (
    _find_peaks,
    count_steps_csc,
    count_steps_dsc,
    detect_step_times,
    is_walking,
)
from repro.sensors.accelerometer import AccelerometerModel

try:
    from scipy.signal import find_peaks as scipy_find_peaks
except ImportError:  # scipy is only the test oracle, from the `test` extra
    scipy_find_peaks = None


def _flat_top_at_an_end(values):
    """A run of the signal's maximum touching the start or the end."""

    def attach(spec):
        signal, width, at_start = spec
        top = [max(signal, default=0.0)] * width
        return top + signal if at_start else signal + top

    return st.tuples(values, st.integers(1, 10), st.booleans()).map(attach)


_floats = st.lists(st.floats(-5.0, 5.0, allow_nan=False), max_size=80)
_rounded = _floats.map(lambda values: [round(v, 1) for v in values])
_small_integer = st.lists(st.integers(0, 3).map(float), max_size=80)
_signals = st.one_of(
    _floats,
    _rounded,
    _small_integer,
    st.tuples(st.integers(0, 60), st.integers(-3, 3)).map(
        lambda spec: [float(spec[1])] * spec[0]
    ),
    _flat_top_at_an_end(_rounded),
    _flat_top_at_an_end(_small_integer),
    st.lists(st.floats(-5.0, 5.0, allow_nan=False), max_size=2),
)


@st.composite
def _peak_problems(draw):
    """A signal, a height within (or just outside) its range, a distance."""
    samples = np.asarray(draw(_signals), dtype=np.float64)
    if samples.size and draw(st.booleans()):
        height = float(samples[draw(st.integers(0, samples.size - 1))])
    else:
        low, high = (samples.min(), samples.max()) if samples.size else (0.0, 0.0)
        height = float(low + draw(st.floats(-0.1, 1.1)) * (high - low))
    return samples, height, draw(st.integers(1, 40))


def _production_problem(signal):
    """The threshold and distance `detect_step_times` picks for a signal."""
    samples = signal.samples
    threshold = float(samples.mean()) + 0.4 * float(samples.max() - samples.mean())
    return samples, threshold, max(int(0.3 * signal.rate_hz), 1)


def _assert_matches_scipy(samples, height, distance):
    expected, _ = scipy_find_peaks(samples, height=height, distance=distance)
    found = _find_peaks(samples, height, distance)
    assert found.dtype == expected.dtype
    np.testing.assert_array_equal(found, expected)


@pytest.mark.skipif(scipy_find_peaks is None, reason="scipy is not installed")
class TestFindPeaksOracle:
    """`_find_peaks` returns exactly `scipy.signal.find_peaks`'s indices."""

    @given(problem=_peak_problems())
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy_on_synthetic_signals(self, problem):
        _assert_matches_scipy(*problem)

    @given(
        walking=st.booleans(),
        duration=st.floats(min_value=0.5, max_value=8.0),
        period=st.floats(min_value=0.4, max_value=0.7),
        rate_hz=st.sampled_from([10.0, 25.0, 50.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_on_accelerometer_signals(
        self, walking, duration, period, rate_hz, seed
    ):
        model = AccelerometerModel(rate_hz=rate_hz)
        rng = np.random.default_rng(seed)
        signal = model.walking(duration, period, rng) if walking else model.idle(duration, rng)
        if len(signal.samples):
            _assert_matches_scipy(*_production_problem(signal))


class TestFindPeaksRules:
    def test_plateau_peak_at_its_midpoint(self):
        samples = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 0.0])
        np.testing.assert_array_equal(_find_peaks(samples, 0.0, 1), [3])

    def test_runs_touching_an_end_are_never_peaks(self):
        samples = np.array([3.0, 3.0, 1.0, 2.0, 1.0, 3.0])
        np.testing.assert_array_equal(_find_peaks(samples, 0.0, 1), [3])

    def test_distance_keeps_the_higher_peak(self):
        samples = np.array([0.0, 2.0, 0.0, 3.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(_find_peaks(samples, 0.0, 3), [3])
        np.testing.assert_array_equal(_find_peaks(samples, 0.0, 2), [1, 3, 5])


@pytest.fixture()
def model() -> AccelerometerModel:
    return AccelerometerModel()


@pytest.fixture()
def quiet_model() -> AccelerometerModel:
    return AccelerometerModel(noise_std=0.05)


class TestWalkDetection:
    def test_walking_detected(self, model, rng):
        assert is_walking(model.walking(3.0, 0.5, rng))

    def test_idle_not_walking(self, model, rng):
        assert not is_walking(model.idle(3.0, rng))

    def test_empty_signal_not_walking(self, model, rng):
        signal = model.idle(0.1, rng)
        assert not is_walking(signal) or len(signal.samples) > 0


class TestStepDetection:
    def test_detects_all_steps_in_clean_signal(self, quiet_model, rng):
        signal = quiet_model.walking(5.0, 0.5, rng, start_phase_s=0.25)
        detected = detect_step_times(signal)
        assert len(detected) == len(signal.true_step_times)

    def test_detected_times_near_truth(self, quiet_model, rng):
        signal = quiet_model.walking(5.0, 0.5, rng, start_phase_s=0.25)
        detected = detect_step_times(signal)
        for found, truth in zip(detected, signal.true_step_times):
            assert abs(found - truth) < 0.15

    def test_no_steps_in_idle_signal(self, model, rng):
        assert detect_step_times(model.idle(5.0, rng)) == []

    def test_detection_off_by_at_most_one_with_noise(self, model, rng):
        signal = model.walking(6.0, 0.55, rng)
        detected = detect_step_times(signal)
        assert abs(len(detected) - len(signal.true_step_times)) <= 1

    @given(period=st.floats(min_value=0.42, max_value=0.68))
    @settings(max_examples=20, deadline=None)
    def test_detected_steps_respect_min_separation(self, period):
        model = AccelerometerModel()
        signal = model.walking(6.0, period, np.random.default_rng(1))
        times = detect_step_times(signal)
        assert all(b - a >= 0.25 for a, b in zip(times, times[1:]))


class TestDsc:
    def test_integer_count(self, quiet_model, rng):
        signal = quiet_model.walking(5.0, 0.5, rng, start_phase_s=0.25)
        assert count_steps_dsc(signal) == 10.0

    def test_dsc_misses_odd_time(self, quiet_model, rng):
        """With the first strike late in the period, DSC undercounts."""
        signal = quiet_model.walking(5.0, 0.5, rng, start_phase_s=0.45)
        true_elapsed_steps = 5.0 / 0.5
        assert count_steps_dsc(signal) < true_elapsed_steps


class TestCsc:
    def test_recovers_true_decimal_steps(self, quiet_model, rng):
        """CSC recovers duration/period regardless of start phase."""
        for phase in (0.05, 0.2, 0.4):
            signal = quiet_model.walking(5.0, 0.5, rng, start_phase_s=phase)
            assert count_steps_csc(signal) == pytest.approx(10.0, abs=0.4)

    def test_csc_beats_dsc_on_average(self, quiet_model):
        """Across random phases CSC's offset error is smaller than DSC's."""
        rng = np.random.default_rng(3)
        csc_err, dsc_err = [], []
        for _ in range(30):
            signal = quiet_model.walking(4.3, 0.55, rng)
            truth = 4.3 / 0.55
            csc_err.append(abs(count_steps_csc(signal) - truth))
            dsc_err.append(abs(count_steps_dsc(signal) - truth))
        assert float(np.mean(csc_err)) < float(np.mean(dsc_err))

    def test_zero_steps(self, model, rng):
        assert count_steps_csc(model.idle(3.0, rng)) == 0.0

    def test_single_detected_step_fallback(self, quiet_model, rng):
        signal = quiet_model.walking(0.6, 0.5, rng, start_phase_s=0.25)
        count = count_steps_csc(signal)
        assert count in (0.0, 1.0)

    @given(
        period=st.floats(min_value=0.45, max_value=0.65),
        duration=st.floats(min_value=2.5, max_value=8.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_csc_error_below_one_step(self, period, duration):
        model = AccelerometerModel(noise_std=0.2)
        signal = model.walking(duration, period, np.random.default_rng(7))
        truth = duration / period
        assert abs(count_steps_csc(signal) - truth) < 1.0
