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

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..sensors.accelerometer import AccelSignal

__all__ = [
    "StepDetection",
    "detect_steps",
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


class StepDetection(NamedTuple):
    """Everything step counting reads off one accelerometer signal.

    Attributes:
        walking: Whether the signal shows the oscillation of walking.
        step_times: Detected step (peak) instants, seconds from start.
        csc_steps: The continuous step count (:func:`count_steps_csc`).
        dsc_steps: The discrete step count (:func:`count_steps_dsc`).
        std: The sample standard deviation (NaN for an empty signal).
        finite: Whether every sample is finite.
    """

    walking: bool
    step_times: Tuple[float, ...]
    csc_steps: float
    dsc_steps: float
    std: float
    finite: bool


def detect_steps(signals: Sequence[AccelSignal]) -> List[StepDetection]:
    """Step detection over many signals at once, in signal order.

    Signals are stacked by ``(length, rate)``, one matrix per stack, and
    every stage runs across the rows: the walking test, the peak
    threshold, the peak search, parabolic refinement and both counts.
    Each row equals the one-signal computation bit for bit: row
    statistics reduce along the contiguous last axis exactly as they do
    over a 1-D array, and a row with equal adjacent samples (a plateau)
    or with candidate peaks closer than the minimum step separation goes
    through the exact :func:`_find_peaks` instead of the vectorized
    strict-local-maximum test.
    """
    stacks: Dict[Tuple[int, float], List[int]] = {}
    for index, signal in enumerate(signals):
        stacks.setdefault((len(signal.samples), signal.rate_hz), []).append(index)
    detections: List[StepDetection] = [None] * len(signals)  # type: ignore[list-item]
    with np.errstate(invalid="ignore", over="ignore"):
        for (length, rate_hz), indices in stacks.items():
            samples = np.array(
                [signals[i].samples for i in indices], dtype=np.float64
            ).reshape(len(indices), length)
            for index, detection in zip(indices, _detect_stack(samples, rate_hz)):
                detections[index] = detection
    return detections


def _detect_stack(samples: np.ndarray, rate_hz: float) -> List[StepDetection]:
    """:func:`detect_steps` for one ``(n, L)`` stack sampled at ``rate_hz``."""
    n, length = samples.shape
    if length == 0:
        return [StepDetection(False, (), 0.0, 0.0, float("nan"), True)] * n
    std = samples.std(axis=1)
    walking = std > _WALK_STD_THRESHOLD
    finite = np.isfinite(samples).all(axis=1).tolist()
    counts = np.zeros(n, dtype=np.int64)
    csc = np.zeros(n)
    times: List[float] = []
    rows = np.flatnonzero(walking) if length >= 3 else np.zeros(0, dtype=np.int64)
    if rows.size:
        walk = samples[rows]
        mean = walk.mean(axis=1)
        threshold = mean + 0.4 * (walk.max(axis=1) - mean)
        peak_rows, peak_indices = _stack_peaks(
            walk, threshold, max(int(_MIN_STEP_SEPARATION_S * rate_hz), 1)
        )
        left = walk[peak_rows, peak_indices - 1]
        middle = walk[peak_rows, peak_indices]
        right = walk[peak_rows, peak_indices + 1]
        denominator = left - 2.0 * middle + right
        refine = np.abs(denominator) > 1e-9
        shift = np.zeros(denominator.shape)
        np.divide(0.5 * (left - right), denominator, out=shift, where=refine)
        step_times = (peak_indices + np.clip(shift, -0.5, 0.5)) / rate_hz
        row_counts = np.bincount(peak_rows, minlength=rows.size)
        counts[rows] = row_counts
        # CSC: (n - 1) + odd_time / period, for rows with two peaks or more.
        ends = np.cumsum(row_counts)
        several = row_counts >= 2
        first = step_times[(ends - row_counts)[several]]
        last = step_times[ends[several] - 1]
        intervals = row_counts[several] - 1
        period = (last - first) / intervals
        odd_time = first + (length / rate_hz - last)
        row_csc = row_counts.astype(np.float64)
        row_csc[several] = intervals + odd_time / period
        csc[rows] = row_csc
        times = step_times.tolist()
    detections = []
    offset = 0
    for walks, count, steps, deviation, whole in zip(
        walking.tolist(), counts.tolist(), csc.tolist(), std.tolist(), finite
    ):
        detections.append(
            StepDetection(
                walks,
                tuple(times[offset : offset + count]),
                steps,
                float(count),
                deviation,
                whole,
            )
        )
        offset += count
    return detections


def _stack_peaks(
    samples: np.ndarray, threshold: np.ndarray, distance: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row and sample index of every peak of every row, row-major.

    The peaks :func:`_find_peaks` returns for each row.  Without equal
    adjacent samples every run is one sample long, so a peak is a strict
    local maximum at least ``threshold`` high; if no two of a row's
    peaks are closer than ``distance`` the greedy pruning removes none.
    Rows with a plateau or with two candidates closer than ``distance``
    take :func:`_find_peaks` itself.
    """
    middle = samples[:, 1:-1]
    candidates = (
        (middle > samples[:, :-2])
        & (middle > samples[:, 2:])
        & (middle >= threshold[:, np.newaxis])
    )
    rows, indices = np.nonzero(candidates)
    close = (rows[1:] == rows[:-1]) & (indices[1:] - indices[:-1] < distance)
    exact = (samples[:, 1:] == samples[:, :-1]).any(axis=1)
    exact[rows[1:][close]] = True
    if exact.any():
        candidates[exact] = False
        for row in np.flatnonzero(exact).tolist():
            peaks = _find_peaks(samples[row], threshold[row], distance)
            candidates[row, peaks - 1] = True
        rows, indices = np.nonzero(candidates)
    return rows, indices + 1


def is_walking(signal: AccelSignal) -> bool:
    """Whether the signal shows the oscillation of walking (Sec. IV-B1).

    Idle accelerometer noise is a few tenths of m/s^2; walking swings
    several m/s^2 around gravity, so a variance test separates them.
    A one-row call of :func:`detect_steps`.
    """
    return detect_steps([signal])[0].walking


def detect_step_times(signal: AccelSignal) -> List[float]:
    """Detected step (peak) instants, in seconds from signal start.

    Peaks are local maxima above an adaptive threshold (midway between
    the signal mean and its maximum) separated by at least the minimum
    human step interval; each peak time is refined by parabolic
    interpolation for sub-sample accuracy, which CSC's period estimate
    benefits from.  A one-row call of :func:`detect_steps`.
    """
    return list(detect_steps([signal])[0].step_times)


def count_steps_dsc(signal: AccelSignal) -> float:
    """Discrete step count: the number of detected step peaks."""
    return detect_steps([signal])[0].dsc_steps


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
    return detect_steps([signal])[0].csc_steps
