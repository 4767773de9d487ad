"""Event-related skin-conductance response (ER-SCR) detection.

Three detector styles over a phasic trace:

    kim2004     rising segments of the signal (upward to downward
                zero-crossing of the derivative); amplitude threshold
                relative to the trace's peak-to-peak range.
    gamboa2008  same onset/peak rule with an absolute amplitude threshold;
                events closer than ``min_separation_s`` are merged.
    neurokit    local maxima selected by topographic prominence, onset at
                the preceding local minimum. Prominence comes from one
                range-maximum/minimum query over all peaks at once.

All methods discard events whose rise time falls outside
[rise_time_min_s, rise_time_max_s] (defaults 0.25 s and 5 s; SCRs are
expected to reach their peak within one to five seconds of the stimulus).
The ER-SCR count is the detector output length and is the quantity the
coefficient search minimizes.

Every detector runs over a stack of equal-length traces [m, n] at once:
rising runs come from each row's own differences, thresholds from each
row's own range, gamboa2008's merge restarts at each row, and one
prominence query covers all rows, a +inf sample between rows stopping
every search at its row's ends. `count_events` counts every row under
every detector; `detect_scr` and `count_er_scr` are its one-trace calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import Trace

METHODS = ("kim2004", "gamboa2008", "neurokit")


@dataclass(frozen=True)
class ScrEvent:
    """One detected ER-SCR: onset and peak sample indices with amplitude."""

    onset_idx: int
    peak_idx: int
    amplitude: float
    rise_time_s: float

    def __post_init__(self):
        if not self.onset_idx < self.peak_idx:
            raise ValueError("event onset must precede its peak")
        if not self.amplitude > 0:
            raise ValueError("event amplitude must be positive")


@dataclass(frozen=True)
class DetectorParams:
    """Thresholds for one detector method.

    ``min_amplitude`` is a fraction of the trace's peak-to-peak range for
    kim2004 and an absolute value (normalized units) for the other methods.
    ``min_separation_s`` applies to gamboa2008 only, ``prominence_frac`` to
    neurokit only.
    """

    method: str
    min_amplitude: float
    min_separation_s: float = 0.0
    prominence_frac: float = 0.1
    rise_time_min_s: float = 0.25
    rise_time_max_s: float = 5.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown detector method {self.method!r}; expected one of {METHODS}")
        if not self.min_amplitude > 0:
            raise ValueError("min_amplitude must be positive")
        if self.min_separation_s < 0:
            raise ValueError("min_separation_s must be non-negative")
        if not 0 < self.rise_time_min_s < self.rise_time_max_s:
            raise ValueError("rise-time band must satisfy 0 < min < max")


def default_detectors() -> tuple[DetectorParams, DetectorParams, DetectorParams]:
    """The three detectors at their documented default thresholds."""
    return (
        DetectorParams("kim2004", min_amplitude=0.05),
        DetectorParams("gamboa2008", min_amplitude=0.01, min_separation_s=1.0),
        DetectorParams("neurokit", min_amplitude=1e-6),
    )


def _rising_runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, onset and peak indices of the maximal strictly-rising segments of x [m, n].

    Runs come from each row's own differences, so none crosses a row; they
    are ordered by row, then by onset.
    """
    pos = np.diff(x, axis=1) > 0
    starts = pos.copy()
    starts[:, 1:] &= ~pos[:, :-1]
    ends = pos.copy()
    ends[:, :-1] &= ~pos[:, 1:]
    rows, onsets = np.nonzero(starts)
    return rows, onsets, np.nonzero(ends)[1] + 1


def _rise_ok(onsets: np.ndarray, peaks: np.ndarray, rate_hz: float, params: DetectorParams):
    """Mask of the events whose rise time lies in the inclusive band."""
    rise = (peaks - onsets) / rate_hz
    return (params.rise_time_min_s <= rise) & (rise <= params.rise_time_max_s)


def _detect_kim2004(x: np.ndarray, runs, rate_hz: float, params: DetectorParams):
    threshold = params.min_amplitude * np.ptp(x, axis=1)
    rows, onsets, peaks = runs
    keep = ((x[rows, peaks] - x[rows, onsets] >= threshold[rows])
            & _rise_ok(onsets, peaks, rate_hz, params))
    return rows[keep], onsets[keep], peaks[keep]


def _detect_gamboa2008(x: np.ndarray, runs, rate_hz: float, params: DetectorParams):
    rows, onsets, peaks = runs
    kept = x[rows, peaks] - x[rows, onsets] >= params.min_amplitude
    rows, onsets, peaks = rows[kept], onsets[kept], peaks[kept]
    # merge bursts whose onset follows the group's peak in the same row too
    # closely, moving the group's peak to any burst at least as high. A
    # group's peak never lies after the previous burst's peak, so a burst
    # that opens its row or starts min_separation_s after that peak starts
    # a group for certain; only the others need the sequential rule.
    sep = params.min_separation_s
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | ((onsets[1:] - peaks[:-1]) / rate_hz >= sep)
    group_peaks = peaks.copy()  # each group's peak, at its first burst
    starts, tops, heights = onsets.tolist(), peaks.tolist(), x[rows, peaks].tolist()
    for i in np.flatnonzero(~new).tolist():
        if new[i - 1]:  # the previous burst opened the group
            first, top, height = i - 1, tops[i - 1], heights[i - 1]
        if (starts[i] - top) / rate_hz < sep:
            if heights[i] >= height:
                top = group_peaks[first] = tops[i]
                height = heights[i]
        else:
            new[i] = True
            first, top, height = i, tops[i], heights[i]
    rows, onsets, peaks = rows[new], onsets[new], group_peaks[new]
    keep = _rise_ok(onsets, peaks, rate_hz, params)
    return rows[keep], onsets[keep], peaks[keep]


def _prominences(x: np.ndarray, peaks: np.ndarray, reach: int | None = None) -> np.ndarray:
    """Topographic prominence of each strict local maximum in ``peaks``.

    A peak's bases are the lowest samples between it and the nearest
    strictly higher sample on each side, or the trace end; equal heights do
    not stop the search. Sparse tables hold the maximum and minimum of every
    x[i : i + 2**k]. Binary lifting over the maxima finds both stops in
    O(log n) whole-array steps, and two overlapping blocks of the minima give
    each base, so the cost is O(n log n) on any trace. Minima are exact, and
    the prominence is one subtraction. ``reach``, when given, bounds how far
    from its peak a stop can lie (the row length of sentinel-joined rows),
    and the tables stop at the levels a search that long needs.
    """
    n = x.size
    levels = (n if reach is None else reach).bit_length()
    hi = np.empty((levels, n))
    lo = np.empty((levels, n))
    hi[0] = lo[0] = x
    for k in range(1, levels):
        half, m = 1 << (k - 1), n - (1 << k) + 1
        np.maximum(hi[k - 1, :m], hi[k - 1, half : half + m], out=hi[k, :m])
        np.minimum(lo[k - 1, :m], lo[k - 1, half : half + m], out=lo[k, :m])
    height = x[peaks]
    left = peaks.copy()  # x[left : peak] holds nothing higher than the peak
    right = peaks + 1  # nor does x[peak + 1 : right]
    for k in range(levels - 1, -1, -1):
        span, m = 1 << k, n - (1 << k) + 1
        start = left - span
        left = np.where((start >= 0) & (hi[k, np.maximum(start, 0)] <= height), start, left)
        grow = (right < m) & (hi[k, np.minimum(right, m - 1)] <= height)
        right = np.where(grow, right + span, right)

    def range_min(first, last):
        k = np.frexp(last - first + 1)[1] - 1
        return np.minimum(lo[k, first], lo[k, last - np.left_shift(1, k) + 1])

    return height - np.maximum(range_min(left, peaks), range_min(peaks, right - 1))


def _detect_neurokit(x: np.ndarray, runs, rate_hz: float, params: DetectorParams):
    m, n = x.shape
    threshold = params.prominence_frac * np.ptp(x, axis=1)
    # the strict local maxima are the rising-run peaks followed by a drop;
    # each one's onset is the start of its run
    rows, onsets, peaks = runs
    drop = x[rows, peaks] > x[rows, np.minimum(peaks + 1, n - 1)]
    rows, onsets, peaks = rows[drop], onsets[drop], peaks[drop]
    if peaks.size == 0:
        return rows, onsets, peaks
    amp = x[rows, peaks] - x[rows, onsets]
    # one prominence query over all rows: a +inf column after each row is
    # higher than any sample, so every search stops at its own row's ends
    joined = np.concatenate([x, np.full((m, 1), np.inf)], axis=1).ravel()
    keep = (
        (_prominences(joined, rows * (n + 1) + peaks, n) >= threshold[rows])
        & (amp >= params.min_amplitude) & (amp > 0)
        & _rise_ok(onsets, peaks, rate_hz, params)
    )
    return rows[keep], onsets[keep], peaks[keep]


# each takes finite rows x [m, n] with their `_rising_runs` and returns the
# (row, onset, peak) index arrays of their events, ordered by row, then by onset
_DETECTORS = {
    "kim2004": _detect_kim2004,
    "gamboa2008": _detect_gamboa2008,
    "neurokit": _detect_neurokit,
}


def count_events(x, rate_hz: float, detectors) -> np.ndarray:
    """ER-SCR counts [m, d] of each row of ``x`` [m, n] under each of the d ``detectors``.

    Every row is a trace of its own: each detector runs once over all rows,
    and no event, threshold or merge reaches across rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"traces must be [m, n], got shape {x.shape}")
    runs = _rising_runs(x)
    counts = np.empty((x.shape[0], len(detectors)), dtype=np.intp)
    for j, params in enumerate(detectors):
        rows = _DETECTORS[params.method](x, runs, rate_hz, params)[0]
        counts[:, j] = np.bincount(rows, minlength=x.shape[0])
    return counts


def detect_scr(phasic: Trace, params: DetectorParams) -> list[ScrEvent]:
    """Detect ER-SCR events in a phasic trace, ordered by onset."""
    x = phasic.samples[None]
    _, onsets, peaks = _DETECTORS[params.method](x, _rising_runs(x), phasic.rate_hz, params)
    return [
        ScrEvent(
            onset_idx=onset,
            peak_idx=peak,
            amplitude=float(x[0, peak] - x[0, onset]),
            rise_time_s=(peak - onset) / phasic.rate_hz,
        )
        for onset, peak in zip(onsets.tolist(), peaks.tolist())
    ]


def count_er_scr(phasic: Trace, params: DetectorParams) -> int:
    """Number of ER-SCR events under the given detector."""
    return int(count_events(phasic.samples[None], phasic.rate_hz, (params,))[0, 0])
