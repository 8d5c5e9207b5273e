"""Step detection and counting: DSC and CSC (paper Sec. IV-B1).

The walked distance during a localization interval is step count times
step length.  The paper contrasts two counters:

* **Discrete Step Counting (DSC)** — the prior art: count detected step
  peaks.  It loses the *odd time* (the fractions of a step before the
  first detected peak and after the last one), which matters when an
  interval only contains a handful of steps.
* **Continuous Step Counting (CSC)** — the paper's refinement: estimate
  the step period from the detected peaks, convert the odd time into
  *decimal steps*, and add them to the integral count.

Both operate on the accelerometer-magnitude signal of
:mod:`repro.sensors.accelerometer`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..sensors.accelerometer import GRAVITY, AccelSignal

__all__ = [
    "detect_step_times",
    "is_walking",
    "count_steps_dsc",
    "count_steps_csc",
]

_MIN_STEP_SEPARATION_S = 0.3
"""No human walks faster than one step per 0.3 s; peaks closer are noise."""

_WALK_STD_THRESHOLD = 1.0
"""Signal standard deviation above which the user is considered walking."""


def _find_peaks(x: np.ndarray, height: float, distance: int) -> np.ndarray:
    """Indices of the local maxima of ``x`` at least ``height`` high and
    at least ``distance`` samples apart.

    The same indices as ``scipy.signal.find_peaks(x, height=height,
    distance=distance)``: a peak is a run of equal samples strictly
    higher than the runs on either side, indexed at its midpoint
    (rounded down); runs touching either end are never peaks.  Peaks
    below ``height`` are dropped, then the rest are pruned greedily,
    highest first (ties broken as ``np.argsort`` orders them), removing
    every peak closer than ``distance`` to one that was kept.
    """
    x = np.asarray(x, dtype=np.float64)
    # Run r ends at edges[r] and holds x[edges[r]]; run r + 1 holds
    # x[edges[r] + 1].  The first run has no run before it and the final
    # run has no edge, so neither is ever a peak.
    edges = np.flatnonzero(x[:-1] != x[1:])
    values, following = x[edges], x[edges + 1]
    # Run r + 1 is a peak when it rises from run r and falls to run r + 2.
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


def is_walking(signal: AccelSignal) -> bool:
    """Whether the signal shows the oscillation of walking (Sec. IV-B1).

    Idle accelerometer noise is a few tenths of m/s^2; walking swings
    several m/s^2 around gravity, so a variance test separates them.
    """
    if len(signal.samples) == 0:
        return False
    return float(np.std(signal.samples)) > _WALK_STD_THRESHOLD


def detect_step_times(signal: AccelSignal) -> List[float]:
    """Detected step (peak) instants, in seconds from signal start.

    Peaks are local maxima above an adaptive threshold (midway between
    the signal mean and its maximum) separated by at least the minimum
    human step interval; each peak time is refined by parabolic
    interpolation for sub-sample accuracy, which CSC's period estimate
    benefits from.
    """
    samples = signal.samples
    if len(samples) < 3 or not is_walking(signal):
        return []
    threshold = float(samples.mean()) + 0.4 * float(samples.max() - samples.mean())
    min_distance = max(int(_MIN_STEP_SEPARATION_S * signal.rate_hz), 1)
    indices = _find_peaks(samples, threshold, min_distance)

    times = []
    for idx in indices:
        refined = float(idx)
        if 0 < idx < len(samples) - 1:
            left, mid, right = samples[idx - 1], samples[idx], samples[idx + 1]
            denominator = left - 2.0 * mid + right
            if abs(denominator) > 1e-9:
                shift = 0.5 * (left - right) / denominator
                refined = idx + float(np.clip(shift, -0.5, 0.5))
        times.append(refined / signal.rate_hz)
    return times


def count_steps_dsc(signal: AccelSignal) -> float:
    """Discrete step count: the number of detected step peaks."""
    return float(len(detect_step_times(signal)))


def count_steps_csc(signal: AccelSignal) -> float:
    """Continuous step count: integral steps plus decimal odd-time steps.

    With peaks at ``t_1 < ... < t_n`` in an interval of duration ``D``,
    the step period is ``(t_n - t_1) / (n - 1)``; the odd time
    ``t_1 + (D - t_n)`` is divided by the period to recover the decimal
    steps the discrete counter drops, giving

        steps = (n - 1) + odd_time / period.

    For a walker of perfectly constant cadence this recovers ``D / period``
    exactly, independent of where the first heel strike fell.
    """
    times = detect_step_times(signal)
    if len(times) < 2:
        return float(len(times))
    first, last = times[0], times[-1]
    integral_intervals = len(times) - 1
    period = (last - first) / integral_intervals
    odd_time = first + (signal.duration_s - last)
    return integral_intervals + odd_time / period
