"""Event-related skin-conductance response (ER-SCR) detection.

Three detector styles over a phasic trace:

    kim2004     rising segments of the signal (upward to downward
                zero-crossing of the derivative); amplitude threshold
                relative to the trace's peak-to-peak range.
    gamboa2008  same onset/peak rule with an absolute amplitude threshold;
                events closer than ``min_separation_s`` are merged.
    neurokit    local maxima selected by topographic prominence, onset at
                the preceding local minimum. Prominence comes from one
                range-maximum/minimum query per block of rows.

All methods discard events whose rise time falls outside
[rise_time_min_s, rise_time_max_s] (defaults 0.25 s and 5 s; SCRs are
expected to reach their peak within one to five seconds of the stimulus).
The ER-SCR count is the detector output length and is the quantity the
coefficient search minimizes.

Every detector runs over a stack of equal-length traces [m, n] at once:
rising runs come from each row's own differences, thresholds from each
row's own range, gamboa2008's merge restarts at each row, and the
prominence query runs over blocks of rows whose sparse tables fit
``_PROMINENCE_BYTES``, a +inf after every row and the clamp at the
block's start stopping each search at its row's ends, so a row's events do
not depend on its block.
`count_events` counts every row under every detector; `detect_scr` lists
one trace's events under one detector.

`_count_with_margins` counts as `count_events` does and also returns each
row's margin: the least |lhs − rhs| over the float comparisons that set
its counts. They are the rise mask ``x[i+1] > x[i]`` on every adjacent
pair (neurokit's drop test ``top > x[peak + 1]`` compares the same pairs,
and a rise's ``amp > 0`` follows from them), each detector's amplitude
threshold on every run (neurokit's on every run that ends in a drop),
gamboa2008's merge test ``heights[i] >= height`` wherever it runs, and for
each neurokit peak that reaches the prominence query its two stops (the
stop sample − h, h − the largest sample between the stops) and
``prominence >= prominence_frac * ptp``. A comparison with a threshold
c * ptp moves by 2 (1 + c) ε when every sample moves by ε, so its
|lhs − rhs| is divided by 1 + c. Every other comparison moves by at most
2 ε. So a row y within ε of a row x in every sample counts as x does
where x's margin exceeds 3 ε: the third ε covers the roundings of the
comparisons' own subtractions and of the margin, which on rows in [0, 1]
stay below 4 u (1 + c) (u = 2⁻⁵³), once ε > 4 u. A row that makes no
comparison has margin +inf. The plain `count_events` computes none of
this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import Trace

METHODS = ("kim2004", "gamboa2008", "neurokit")

# The max and min sparse tables of one `_prominences` query stay within
# this many bytes, or cover one row where that alone takes more. A search's
# rows (10 x 960: 1.5 MB) and 3 rows of 900 s at 8 Hz (4.5 MB) stay one
# query: one row a query measured 0.47 -> 1.82 ms and 0.76 -> 1.10 ms a
# call there. 10 rows of an hour at 8 Hz would take 69 MB in one query;
# each row is a query of its own (6.9 MB).
_PROMINENCE_BYTES = 2**23


@dataclass(frozen=True)
class ScrEvent:
    """One detected ER-SCR: onset and peak sample indices with amplitude."""

    onset_idx: int
    peak_idx: int
    amplitude: float

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
        if not self.min_separation_s >= 0:
            raise ValueError("min_separation_s must be non-negative")
        if not self.prominence_frac >= 0:
            raise ValueError("prominence_frac must be non-negative")
        if not 0 < self.rise_time_min_s < self.rise_time_max_s:
            raise ValueError("rise-time band must satisfy 0 < min < max")


def default_detectors() -> tuple[DetectorParams, DetectorParams, DetectorParams]:
    """The three detectors at their documented default thresholds."""
    return (
        DetectorParams("kim2004", min_amplitude=0.05),
        DetectorParams("gamboa2008", min_amplitude=0.01, min_separation_s=1.0),
        DetectorParams("neurokit", min_amplitude=1e-6),
    )


def _rising_runs(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row, onset, peak, height and amplitude of the maximal strictly-rising runs of x [m, n].

    The edges of one rise mask, False before the first row and after each,
    alternate onset, peak in one ``nonzero``, ordered by row, then by onset;
    heights and amplitudes are gathered once, for every detector.
    """
    m, n = x.shape
    rise = np.zeros(m * n + 1, dtype=bool)
    np.greater(x[:, 1:], x[:, :-1], out=rise[1:].reshape(m, n)[:, :-1])
    rows, edges = np.nonzero((rise[1:] != rise[:-1]).reshape(m, n))
    rows, onsets, peaks = rows[::2], edges[::2], edges[1::2]
    flat, base = x.ravel(), rows * n
    heights = flat[base + peaks]
    return rows, onsets, peaks, heights, heights - flat[base + onsets]


def _lower(margins: np.ndarray, rows: np.ndarray, gaps, divisor: float = 1.0) -> None:
    """Lower ``margins[r]`` to the least of |``gaps``| / ``divisor`` over the entries of
    ``rows`` (ascending) that are r; the gaps may be overwritten. Division by
    a positive number is monotone, so the least quotient is the quotient of
    the least gap."""
    starts = np.searchsorted(rows, np.arange(margins.size + 1))
    present = np.flatnonzero(starts[:-1] < starts[1:])
    if present.size:
        least = np.minimum.reduceat(np.abs(gaps, out=gaps), starts[present]) / divisor
        margins[present] = np.minimum(margins[present], least)


def _rise_ok(onsets: np.ndarray, peaks: np.ndarray, rate_hz: float, params: DetectorParams):
    """Mask of the events whose rise time lies in the inclusive band."""
    rise = (peaks - onsets) / rate_hz
    return (params.rise_time_min_s <= rise) & (rise <= params.rise_time_max_s)


def _detect_kim2004(x: np.ndarray, runs, rate_hz: float, params: DetectorParams, margins=None):
    rows, onsets, peaks, _, amp = runs
    threshold = (params.min_amplitude * np.ptp(x, axis=1))[rows]
    if margins is not None:
        _lower(margins, rows, amp - threshold, 1.0 + params.min_amplitude)
    keep = (amp >= threshold) & _rise_ok(onsets, peaks, rate_hz, params)
    return rows[keep], onsets[keep], peaks[keep]


def _detect_gamboa2008(x: np.ndarray, runs, rate_hz: float, params: DetectorParams,
                       margins=None):
    rows, onsets, peaks, heights, amp = runs
    kept = amp >= params.min_amplitude
    if margins is not None:
        _lower(margins, rows, amp - params.min_amplitude)
    rows, onsets, peaks, heights = rows[kept], onsets[kept], peaks[kept], heights[kept]
    # merge bursts whose onset follows the group's peak in the same row too
    # closely, moving the group's peak to any burst at least as high. A
    # group's peak never lies after the previous burst's peak, so a burst
    # that opens its row or starts min_separation_s after that peak starts
    # a group for certain; only the others need the sequential rule.
    sep = params.min_separation_s
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | ((onsets[1:] - peaks[:-1]) / rate_hz >= sep)
    group_peaks = peaks.copy()  # each group's peak, at its first burst
    starts, tops, heights = onsets.tolist(), peaks.tolist(), heights.tolist()
    gaps = []  # with margins, each merged burst's height less its group's peak so far
    for i in np.flatnonzero(~new).tolist():
        if new[i - 1]:  # the previous burst opened the group
            first, top, height = i - 1, tops[i - 1], heights[i - 1]
        if (starts[i] - top) / rate_hz < sep:
            if margins is not None:
                gaps.append(heights[i] - height)
            if heights[i] >= height:
                top = group_peaks[first] = tops[i]
                height = heights[i]
        else:
            new[i] = True
            first, top, height = i, tops[i], heights[i]
    if margins is not None:
        _lower(margins, rows[~new], np.array(gaps, dtype=np.float64))
    rows, onsets, peaks = rows[new], onsets[new], group_peaks[new]
    keep = _rise_ok(onsets, peaks, rate_hz, params)
    return rows[keep], onsets[keep], peaks[keep]


def _prominences(x: np.ndarray, peaks: np.ndarray, reach: int, stops: bool = False):
    """Topographic prominence of each strict local maximum in ``peaks``.

    A peak's bases are the lowest samples between it and the nearest
    strictly higher sample on each side; equal heights do not stop the
    search. Contract: ``x`` ends with +inf, the peaks are finite, and each
    lies within ``reach`` samples of a +inf on its right and of a +inf or
    the start on its left (the row period of sentinel-joined rows). Sparse
    tables hold the maximum and minimum of every x[i : i + 2**k] and take
    2 * reach.bit_length() * x.size * 8 bytes. Binary lifting over the maxima
    finds both stops in O(log reach) steps; a window past the end is clamped
    onto one holding the +inf, which fails the height test, and one before
    the start onto x[:span], which passes only if x[:left] does.
    Two overlapping blocks of the exact minima give each base. This is
    scipy.signal.peak_prominences, but scipy.signal would take a fresh
    ``import edanav.cli`` from about 29 to 104 MB peak RSS.
    With ``stops``, it also returns each peak's stop margin: the least of
    the stop samples − h (+inf where a search ends at the start or at a
    +inf) and h − the largest sample between the stops, the peak aside,
    from the max tables; each peak must then have a lower sample on either
    side.
    """
    n = x.size
    levels = reach.bit_length()
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
        span = 1 << k
        start = np.maximum(left - span, 0)
        np.copyto(left, start, where=hi[k].take(start) <= height)
        np.add(right, span, out=right, where=hi[k].take(np.minimum(right, n - span)) <= height)

    def query(table, reduce, first, last):  # reduce of x[first : last + 1] from two blocks
        k = np.frexp(last - first + 1)[1] - 1
        at = k * n + first
        return reduce(table.take(at), table.take(at + (last - first + 1 - np.left_shift(1, k))))

    lo, hi = lo.ravel(), hi.ravel()
    prominence = height - np.maximum(query(lo, np.minimum, left, peaks),
                                     query(lo, np.minimum, peaks, right - 1))
    if not stops:
        return prominence
    inside = np.maximum(query(hi, np.maximum, left, peaks - 1),
                        query(hi, np.maximum, peaks + 1, right - 1))
    before = np.where(left > 0, x[left - 1], np.inf)
    return prominence, np.minimum(np.minimum(before, x[right]) - height, height - inside)


def _detect_neurokit(x: np.ndarray, runs, rate_hz: float, params: DetectorParams, margins=None):
    m, n = x.shape
    threshold = params.prominence_frac * np.ptp(x, axis=1)
    # the strict local maxima are the rising-run peaks followed by a drop;
    # each one's onset is the start of its run. The masks run drop, amplitude
    # (>= min_amplitude, > 0), rise time, then prominence for the peaks left
    rows, onsets, peaks, top, amp = runs
    drop = top > x.ravel()[rows * n + np.minimum(peaks + 1, n - 1)]
    if margins is not None:
        _lower(margins, rows[drop], amp[drop] - params.min_amplitude)
    cand = (drop & (amp >= params.min_amplitude) & (amp > 0)
            & _rise_ok(onsets, peaks, rate_hz, params))
    rows, onsets, peaks = rows[cand], onsets[cand], peaks[cand]
    if peaks.size == 0:
        return rows, onsets, peaks
    # one prominence query per block of rows: a +inf after every row is
    # higher than any sample, and the block's start clamps its first row's
    # search, so a peak's prominence does not depend on the block
    block = max(1, _PROMINENCE_BYTES // (2 * (n + 1).bit_length() * (n + 1) * 8))
    keep = np.empty(peaks.size, dtype=bool)
    for first in range(0, m, block):
        lo, hi = np.searchsorted(rows, (first, first + block)).tolist()
        if lo == hi:
            continue
        joined = np.full((min(block, m - first), n + 1), np.inf)
        joined[:, :n] = x[first : first + block]
        index = (rows[lo:hi] - first) * (n + 1) + peaks[lo:hi]
        limit = threshold[rows[lo:hi]]
        if margins is None:
            keep[lo:hi] = _prominences(joined.ravel(), index, n + 1) >= limit
            continue
        prominence, stops = _prominences(joined.ravel(), index, n + 1, stops=True)
        keep[lo:hi] = prominence >= limit
        _lower(margins, rows[lo:hi], prominence - limit, 1.0 + params.prominence_frac)
        _lower(margins, rows[lo:hi], stops)
    return rows[keep], onsets[keep], peaks[keep]


# each takes finite rows x [m, n] with their `_rising_runs` and returns the
# (row, onset, peak) index arrays of their events, ordered by row, then by
# onset; given ``margins`` [m], it lowers each row's by its comparisons
_DETECTORS = {
    "kim2004": _detect_kim2004,
    "gamboa2008": _detect_gamboa2008,
    "neurokit": _detect_neurokit,
}


def _count(x, rate_hz: float, detectors, margins=None) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"traces must be [m, n], got shape {x.shape}")
    runs = _rising_runs(x)
    counts = np.empty((x.shape[0], len(detectors)), dtype=np.intp)
    for j, params in enumerate(detectors):
        rows = _DETECTORS[params.method](x, runs, rate_hz, params, margins)[0]
        counts[:, j] = np.bincount(rows, minlength=x.shape[0])
    return counts


def count_events(x, rate_hz: float, detectors) -> np.ndarray:
    """ER-SCR counts [m, d] of each row of ``x`` [m, n] under each of the d ``detectors``.

    Every row is a trace of its own: each detector runs once over all rows,
    and no event, threshold or merge reaches across rows.
    """
    return _count(x, rate_hz, detectors)


def _count_with_margins(x: np.ndarray, rate_hz: float, detectors):
    """`count_events` of the rows ``x`` [m, n] and each row's margin [m] (module docstring)."""
    margins = np.abs(np.diff(x, axis=1)).min(axis=1, initial=np.inf)
    return _count(x, rate_hz, detectors, margins), margins


def detect_scr(phasic: Trace, params: DetectorParams) -> list[ScrEvent]:
    """Detect ER-SCR events in a phasic trace, ordered by onset."""
    x = phasic.samples[None]
    _, onsets, peaks = _DETECTORS[params.method](x, _rising_runs(x), phasic.rate_hz, params)
    return [
        ScrEvent(
            onset_idx=onset,
            peak_idx=peak,
            amplitude=float(x[0, peak] - x[0, onset]),
        )
        for onset, peak in zip(onsets.tolist(), peaks.tolist())
    ]
