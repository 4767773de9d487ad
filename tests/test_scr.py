"""Detector tests: agreement with the brute-force oracle plus edge behavior."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edanav.scr as scr_module
from edanav.scr import (
    _DETECTORS,
    METHODS,
    DetectorParams,
    ScrEvent,
    _count_with_margins,
    _prominences,
    _rising_runs,
    count_events,
    default_detectors,
    detect_scr,
)
from edanav.signals import Trace

from oracles import (
    _prominence_naive,
    _rising_runs_naive,
    bateman_pulse,
    brute_force_events,
    event_margins_naive,
)

RATE = 4.0


def _pulse_train(n, onsets_amps, rate_hz=RATE):
    """Sum of Bateman pulses as a phasic-like numpy array."""
    x = np.zeros(n)
    for onset_s, amp in onsets_amps:
        x += np.asarray(bateman_pulse(n, rate_hz, onset_s, amp))
    return x


def _random_phasic(rng, n=400):
    """Pulse train plus slow wave and mild noise; exercises all code paths."""
    onsets = rng.uniform(2.0, n / RATE - 10.0, rng.integers(2, 7))
    amps = rng.uniform(0.05, 0.8, len(onsets))
    x = _pulse_train(n, zip(onsets, amps))
    t = np.arange(n) / RATE
    x += 0.05 * np.sin(2 * np.pi * t / 37.0)
    x += rng.normal(0.0, rng.choice([0.0, 0.002, 0.01]), n)
    return x


def _params(method, **kw):
    defaults = {m.method: m for m in default_detectors()}[method]
    merged = {
        "min_amplitude": defaults.min_amplitude,
        "min_separation_s": defaults.min_separation_s,
        "prominence_frac": defaults.prominence_frac,
        "rise_time_min_s": defaults.rise_time_min_s,
        "rise_time_max_s": defaults.rise_time_max_s,
    }
    merged.update(kw)
    return DetectorParams(method=method, **merged)


def _count(x, params):
    """The event count of the one trace ``x`` under ``params``, from `count_events`."""
    return int(count_events(np.asarray(x)[None], RATE, (params,))[0, 0])


def _oracle(x, params):
    return brute_force_events(
        x,
        RATE,
        params.method,
        params.min_amplitude,
        min_separation_s=params.min_separation_s,
        prominence_frac=params.prominence_frac,
        rise_min_s=params.rise_time_min_s,
        rise_max_s=params.rise_time_max_s,
    )


def _assert_agrees(x, params):
    got = detect_scr(Trace(x, RATE), params)
    expected = _oracle(x, params)
    assert [(e.onset_idx, e.peak_idx) for e in got] == [(o, p) for o, p, _ in expected]
    for ev, (_, _, amp) in zip(got, expected):
        assert abs(ev.amplitude - amp) < 1e-12


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------

def test_agrees_with_oracle_on_random_traces():
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = _random_phasic(rng)
        for method in METHODS:
            _assert_agrees(x, _params(method))


def test_agrees_with_oracle_under_varied_thresholds():
    rng = np.random.default_rng(43)
    for _ in range(15):
        x = _random_phasic(rng)
        _assert_agrees(x, _params("kim2004", min_amplitude=float(rng.uniform(0.01, 0.3))))
        _assert_agrees(
            x,
            _params(
                "gamboa2008",
                min_amplitude=float(rng.uniform(0.005, 0.1)),
                min_separation_s=float(rng.uniform(0.0, 3.0)),
            ),
        )
        _assert_agrees(
            x, _params("neurokit", prominence_frac=float(rng.uniform(0.02, 0.4)))
        )


@st.composite
def _adversarial_traces(draw):
    """Plateaus, equal-height peaks, monotone ramps and length-3 traces.

    Few distinct levels make plateaus and equal peaks common; ramps are
    the longest base searches a scan per peak can meet.
    """
    kind = draw(st.sampled_from(["levels", "ramps", "sawtooth", "short", "any"]))
    if kind == "levels":
        n = draw(st.integers(3, 120))
        x = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n))
    elif kind == "ramps":
        pieces = []
        for _ in range(draw(st.integers(1, 5))):
            start, stop = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
            pieces.extend(np.linspace(start, stop, draw(st.integers(1, 60))).tolist())
        x = pieces + draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    elif kind == "sawtooth":
        height = draw(st.sampled_from([1.0, 0.5]))
        teeth = draw(st.lists(st.integers(1, 8), min_size=1, max_size=15))
        x = [0.0] + [height * k / t for t in teeth for k in range(1, t + 1)] + [0.0]
    elif kind == "short":
        x = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0]), min_size=3, max_size=3))
    else:
        n = draw(st.integers(3, 120))
        x = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    while len(x) < 3:
        x.append(0.0)
    return np.array(x, dtype=np.float64)


# the peaks whose stop is the start of the array or the trailing +inf: the
# highest sample just inside either end, and monotone ramps to either end,
# whose lifting windows start before the array or end past it
@example(np.array([0.0, 2.0, 0.0, 1.0, 0.0]))
@example(np.array([0.0, 1.0, 0.0, 2.0, 0.0]))
@example(np.append(np.linspace(0.0, 1.0, 16), 0.0))
@example(np.insert(np.linspace(1.0, 0.0, 16), 0, 0.0))
@example(np.concatenate([[0.0], np.linspace(1.0, 0.0, 30), np.linspace(0.0, 0.5, 33)]))
@settings(max_examples=400, deadline=None)
@given(_adversarial_traces())
def test_prominences_match_the_scan(x):
    # the input contract: +inf at the end, none at the start, so the clamp at
    # index 0 alone stops a left search that reaches the start
    padded = np.append(x, np.inf)
    peaks = np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1
    expected = [_prominence_naive(x.tolist(), int(p)) for p in peaks]
    assert _prominences(padded, peaks, padded.size - 1).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(_adversarial_traces(), st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_neurokit_matches_brute_force_on_adversarial_traces(x, prominence_frac):
    params = _params("neurokit", prominence_frac=prominence_frac, rise_time_max_s=60.0)
    _assert_agrees(x, params)


@settings(max_examples=200, deadline=None)
@given(_adversarial_traces(), st.sampled_from([0.25, 0.5, 1.0]),
       st.sampled_from([0.0, 0.5, 1.0]))
def test_rising_run_detectors_match_brute_force_on_adversarial_traces(
    x, min_amplitude, min_separation_s
):
    # the stepped traces make amplitudes that equal the threshold and
    # merged bursts whose peaks tie
    for method in ("kim2004", "gamboa2008"):
        _assert_agrees(x, _params(method, min_amplitude=min_amplitude,
                                  min_separation_s=min_separation_s, rise_time_max_s=60.0))


@st.composite
def _trace_rows(draw):
    """Rows [m, n] that test every place a batched detector could leak across rows.

    Rows may be constant, falling (no peaks), end on a strict rise or a
    plateau, or start on a peak; a row ending on a rise is often followed
    by a higher row. Lengths go down to n = 2, and the levels hold both
    zeros, which compare equal.
    """
    n = draw(st.sampled_from([2, 3, 4, 7, 20, 60]))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["levels", "constant", "falling", "rise_to_end",
                                     "plateau_end", "peak_start", "any"]))
        if kind == "constant":
            row = [draw(st.sampled_from([0.0, -0.0, 0.5, 1.0]))] * n
        elif kind == "falling":
            row = np.linspace(1.0, 0.0, n).tolist()
        elif kind == "any":
            row = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        else:
            row = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                                min_size=n, max_size=n))
            if kind == "rise_to_end":
                row[-2:] = [0.0, 0.5]
            elif kind == "plateau_end":
                row[-2:] = [1.0, 1.0]
            elif kind == "peak_start":
                row[0] = 2.0
        if rows and rows[-1][-1] == 0.5 and draw(st.booleans()):
            row[0] = 1.0  # higher than the previous row's last rise
        rows.append(row[:n])
    return np.array(rows, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(_trace_rows())
def test_rising_runs_match_the_scan_row_by_row(x):
    # one nonzero over the whole stack's edges: the runs are the scan's,
    # row by row, ordered by row, then by onset, with no onset of one row
    # paired with a peak of the next; heights and amplitudes are the bits
    # of the samples they are gathered from
    rows, onsets, peaks, heights, amps = _rising_runs(x)
    expected = [(i, o, p) for i, row in enumerate(x) for o, p in _rising_runs_naive(row.tolist())]
    assert list(zip(rows.tolist(), onsets.tolist(), peaks.tolist())) == expected
    assert heights.tobytes() == x[rows, peaks].tobytes()
    assert amps.tobytes() == (x[rows, peaks] - x[rows, onsets]).tobytes()


@settings(max_examples=300, deadline=None)
@given(_trace_rows(), st.sampled_from([0.0, 0.05, 0.3]), st.sampled_from([0.25, 0.5]),
       st.sampled_from([0.0, 1.0]))
def test_batched_detectors_match_brute_force_row_by_row(x, prominence_frac, min_amplitude,
                                                          min_separation_s):
    detectors = (
        _params("kim2004", min_amplitude=min_amplitude, rise_time_max_s=60.0),
        _params("gamboa2008", min_amplitude=min_amplitude, min_separation_s=min_separation_s,
                rise_time_max_s=60.0),
        _params("neurokit", prominence_frac=prominence_frac, rise_time_max_s=60.0),
    )
    counts = count_events(x, RATE, detectors)
    assert counts.shape == (x.shape[0], len(detectors))
    runs = _rising_runs(x)
    for j, params in enumerate(detectors):
        rows, onsets, peaks = _DETECTORS[params.method](x, runs, RATE, params)
        for i, row in enumerate(x):
            expected = [(o, p) for o, p, _ in _oracle(row, params)]
            mine = rows == i
            assert list(zip(onsets[mine].tolist(), peaks[mine].tolist())) == expected
            assert counts[i, j] == len(expected)


@st.composite
def _blocked_rows(draw):
    """Rows [m, n] of the shapes a prominence block meets at its edges.

    Each row is plateaus on a few levels, a train of equal peaks, a
    monotone ramp up or down, one candidate peak on a flat line, or free
    floats; lengths go down to rows of 2 and 3 samples.
    """
    n = draw(st.sampled_from([2, 3, 5, 12, 40]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["plateaus", "equal_peaks", "ramp", "one_peak", "any"]))
        if kind == "plateaus":
            row = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n))
        elif kind == "equal_peaks":
            tooth = [0.0] * draw(st.integers(1, 2)) + [0.5, 1.0]
            row = (tooth * n)[draw(st.integers(0, 3)):][:n]
        elif kind == "ramp":
            row = np.linspace(*draw(st.sampled_from([(0.0, 1.0), (1.0, 0.0)])), n).tolist()
        elif kind == "one_peak":
            row = [0.0] * n
            top = draw(st.integers(0, n - 1))
            row[max(top - 2, 0) : top + 1] = [0.25, 0.5, 1.0][-(top + 1):]
        else:
            row = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        rows.append(row)
    return np.array(rows, dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(_blocked_rows(), st.sampled_from([0.0, 0.05, 0.3]))
def test_prominence_blocks_count_as_the_whole_stack_and_brute_force(x, prominence_frac):
    # the prominence bound forced down to one row a query, then to two:
    # the counts equal the whole stack's in one query and brute force's
    # row by row
    detectors = (
        _params("kim2004", rise_time_max_s=60.0),
        _params("gamboa2008", rise_time_max_s=60.0),
        _params("neurokit", prominence_frac=prominence_frac, rise_time_max_s=60.0),
    )
    m, n = x.shape
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scr_module, "_PROMINENCE_BYTES", 2**40)
        whole = count_events(x, RATE, detectors)
    row_tables = 2 * (n + 1).bit_length() * (n + 1) * 8
    for per_query in (1, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scr_module, "_PROMINENCE_BYTES", per_query * row_tables)
            assert count_events(x, RATE, detectors).tobytes() == whole.tobytes()
    for i, row in enumerate(x):
        assert whole[i].tolist() == [len(_oracle(row, params)) for params in detectors]


def test_prominence_runs_one_query_per_block_of_rows(monkeypatch):
    # rows with a candidate peak each, under a bound of two rows' tables:
    # blocks of rows 0-1, 2-3 and 4, the rows of a block with no candidate
    # skipped; each block holds a +inf after each row
    x = np.tile(_pulse_train(120, [(5.0, 0.5), (18.0, 0.3)]), (5, 1))
    x[2:4] = 0.0
    queries = []
    real = scr_module._prominences

    def spy(joined, peaks, reach):
        queries.append(joined.size)
        return real(joined, peaks, reach)

    monkeypatch.setattr(scr_module, "_prominences", spy)
    monkeypatch.setattr(scr_module, "_PROMINENCE_BYTES", 2 * 2 * (120).bit_length() * 121 * 8)
    counts = count_events(x, RATE, default_detectors())
    assert queries == [2 * 121, 121]
    assert counts[:, 2].tolist() == [2, 2, 0, 0, 2]


def test_an_hour_stack_counts_within_the_prominence_bound():
    # 10 rows of 1 h at 8 Hz (28,800 samples): one prominence query over
    # all rows would build 69 MB of tables; in blocks within the bound the
    # peak stays below the bound plus twice the input, the rising runs and
    # the masks included, and each row counts as it does on its own
    rng = np.random.default_rng(8)
    x = rng.normal(size=(10, 28800)).cumsum(axis=1)
    x = (x - x.min()) / np.ptp(x)
    tracemalloc.start()
    try:
        counts = count_events(x, 8.0, default_detectors())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < scr_module._PROMINENCE_BYTES + 2 * x.nbytes
    assert counts.tolist() == [count_events(row[None], 8.0, default_detectors())[0].tolist()
                               for row in x]


@st.composite
def _dense_bursts(draw):
    """Rows [m, n] of back-to-back gamboa2008 bursts.

    Each burst drops to a low level for a few samples, then rises in one to
    four samples to a height from a small set, so gaps fall under and over
    min_separation_s, peaks tie, and chains of rising heights move a
    group's peak while falling ones leave it behind the previous burst.
    """
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = [0.0]
        for _ in range(draw(st.integers(1, 14))):
            row += [draw(st.sampled_from([0.0, 0.25]))] * draw(st.integers(1, 5))
            rise, top = draw(st.integers(1, 4)), draw(st.sampled_from([0.5, 1.0, 1.5]))
            row += np.linspace(row[-1], top, rise + 1)[1:].tolist()
        rows.append(row)
    n = max(map(len, rows))
    return np.array([row + [row[-1]] * (n - len(row)) for row in rows])


# burst 2 merges into burst 1 without moving its peak (index 2); burst 3
# trails burst 2's peak by 1 sample but burst 1's by 3 (= 0.75 s), so it
# opens a new event
@example(np.array([[0.0, 0.5, 1.0, 0.25, 0.75, 0.25, 0.75]]), 0.25, 0.75)
@settings(max_examples=200, deadline=None)
@given(_dense_bursts(), st.sampled_from([0.25, 0.5]), st.sampled_from([0.5, 0.75, 1.0, 2.0]))
def test_gamboa2008_merges_dense_bursts_as_brute_force(x, min_amplitude, min_separation_s):
    params = _params("gamboa2008", min_amplitude=min_amplitude,
                     min_separation_s=min_separation_s, rise_time_max_s=60.0)
    rows, onsets, peaks = _DETECTORS["gamboa2008"](x, _rising_runs(x), RATE, params)
    for i, row in enumerate(x):
        expected = [(o, p) for o, p, _ in _oracle(row, params)]
        mine = rows == i
        assert list(zip(onsets[mine].tolist(), peaks[mine].tolist())) == expected


@st.composite
def _zigzag_rows(draw):
    """Rows [m, n] whose rising runs are mostly one sample long.

    Each climb rises in one sample five times out of eight, else in two,
    three or six, then drops by a step from a small set, so prominences tie
    and climbs start below, at and above earlier peaks. Short rows end on a
    plateau at their last value.
    """
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = [0.0]
        for _ in range(draw(st.integers(1, 30))):
            steps = draw(st.sampled_from([1, 1, 1, 1, 1, 2, 3, 6]))
            top = row[-1] + draw(st.sampled_from([0.25, 0.5, 1.0]))
            row += np.linspace(row[-1], top, steps + 1)[1:].tolist()
            row.append(top - draw(st.sampled_from([0.25, 0.5, 1.5])))
        rows.append(row)
    n = max(map(len, rows))
    return np.array([row + [row[-1]] * (n - len(row)) for row in rows])


@settings(max_examples=200, deadline=None)
@given(_zigzag_rows(), st.sampled_from([0.0, 0.05, 0.3]), st.sampled_from([0.5, 0.75]),
       st.sampled_from([1e-6, 0.5]))
def test_neurokit_rejects_short_rises_before_prominence_as_brute_force(
    x, prominence_frac, rise_time_min_s, min_amplitude
):
    # at 4 Hz a one-sample rise lasts 0.25 s, below the rise-time floor, so
    # most peaks are dropped before the prominence query
    params = _params("neurokit", prominence_frac=prominence_frac, min_amplitude=min_amplitude,
                     rise_time_min_s=rise_time_min_s, rise_time_max_s=60.0)
    rows, onsets, peaks = _DETECTORS["neurokit"](x, _rising_runs(x), RATE, params)
    for i, row in enumerate(x):
        expected = [(o, p) for o, p, _ in _oracle(row, params)]
        mine = rows == i
        assert list(zip(onsets[mine].tolist(), peaks[mine].tolist())) == expected


def test_neurokit_skips_prominence_when_no_peak_passes_the_cheap_masks(monkeypatch):
    # peaks exist, but every one rises in one sample or by less than
    # min_amplitude: no prominence is looked up and no event is found,
    # as the brute force finds none
    def no_query(*args):
        raise AssertionError("prominence queried with no candidate peak")

    monkeypatch.setattr(scr_module, "_prominences", no_query)
    zigzag = np.tile([0.0, 1.0], 40)
    small_steps = np.tile([0.0, 0.1, 0.2, 0.0], 20)
    for x, params in (
        (zigzag, _params("neurokit", rise_time_min_s=0.5)),
        (small_steps, _params("neurokit", min_amplitude=0.5)),
    ):
        stack = np.stack([x, x[::-1]])
        assert _oracle(x, params) == _oracle(x[::-1], params) == []
        assert count_events(stack, RATE, (params,)).tolist() == [[0], [0]]
        assert detect_scr(Trace(x, RATE), params) == []


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------

@st.composite
def _margin_rows(draw):
    """Rows [m, n] that the margins meet in a prediction, and where they are small.

    Each row is pulses with noise clamped to [0, 1] (runs of exact 0.0 and
    1.0), plateaus on a few levels, a train of equal peaks, a monotone ramp,
    those levels broken by tiny steps (ties that are gaps of 2^-40 and
    more), free floats in [0, 1], or a knife edge: a zigzag on eighths
    whose samples are raised by distinct multiples of 2^-30, so adjacent
    samples lie far apart, no two samples tie but peaks nearly do, and
    amplitudes and prominences lie near 2^-20 from the thresholds of a
    quarter plus 2^-20 (`_MARGIN_DETECTORS`). Lengths go down to one sample.
    """
    n = draw(st.sampled_from([1, 2, 3, 5, 40, 160]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["clamped", "plateaus", "equal_peaks", "ramp", "near_ties",
                                     "any", "knife", "knife", "knife"]))
        if kind == "knife":
            levels = rng.integers(0, 9, n)
            for i in range(1, n):  # no two neighbours on one eighth
                while levels[i] == levels[i - 1]:
                    levels[i] = rng.integers(0, 9)
            row = levels / 8.0 + rng.permutation(n) * 2.0**-30
        elif kind == "clamped":
            pulses = _pulse_train(n, zip(rng.uniform(0.0, n / RATE, 4), rng.uniform(0.2, 1.5, 4)))
            row = np.clip(pulses - 0.1 + rng.normal(0.0, 0.02, n), 0.0, 1.0)
        elif kind == "ramp":
            row = np.linspace(*draw(st.sampled_from([(0.0, 1.0), (1.0, 0.2)])), n)
        elif kind == "any":
            row = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        else:
            tooth = [0.0, 0.25, 0.75, 0.5] if kind == "equal_peaks" else [0.0, 0.5, 1.0]
            row = np.array(tooth)[rng.integers(0, len(tooth), n)]
            if kind == "equal_peaks":
                row = np.resize(tooth, n)
            if kind == "near_ties":
                row = row + rng.integers(0, 4, n) * 2.0**-40 * draw(st.sampled_from([1, 2**20]))
        rows.append(row)
    return np.array(rows, dtype=np.float64)


QUARTER = 0.25 + 2.0**-20  # a threshold 2^-20 off the knife-edge rows' eighths

# detector sets whose margins come from different comparisons: the three
# defaults, stricter ones, and one detector at a time, so that no other
# detector's near ties hide a comparison the margins would leave out
_MARGIN_DETECTORS = {
    "default": default_detectors(),
    "strict": (_params("kim2004", min_amplitude=0.3, rise_time_max_s=60.0),
               _params("gamboa2008", min_amplitude=0.25, min_separation_s=1.0,
                       rise_time_max_s=60.0),
               _params("neurokit", prominence_frac=0.3, rise_time_max_s=60.0)),
    "kim2004": (_params("kim2004", min_amplitude=QUARTER, rise_time_max_s=60.0),),
    "gamboa2008": (_params("gamboa2008", min_amplitude=QUARTER, min_separation_s=1.0,
                           rise_time_max_s=60.0),),
    "gamboa2008 merges": (_params("gamboa2008", min_separation_s=1.5, rise_time_max_s=60.0),),
    "neurokit": (_params("neurokit", min_amplitude=QUARTER, prominence_frac=QUARTER,
                         rise_time_max_s=60.0),),
    "neurokit stops": (_params("neurokit", prominence_frac=0.3, rise_time_max_s=60.0),),
}


def _naive_margin(row, params):
    return event_margins_naive(row, RATE, params.method, params.min_amplitude,
                               min_separation_s=params.min_separation_s,
                               prominence_frac=params.prominence_frac,
                               rise_min_s=params.rise_time_min_s,
                               rise_max_s=params.rise_time_max_s)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_margin_rows(), _trace_rows(), _blocked_rows(), _dense_bursts(), _zigzag_rows()),
       st.sampled_from(["default", "strict", "kim2004", "neurokit"]), st.booleans())
def test_margins_equal_the_naive_scan(x, variant, one_row_a_query):
    # each detector's margins, and the least of the three, equal the plain
    # scan's row by row, with the prominence query over the whole stack or
    # one row at a time; the counts are those of `count_events`
    detectors = _MARGIN_DETECTORS[variant]
    row_tables = 2 * (x.shape[1] + 1).bit_length() * (x.shape[1] + 1) * 8
    per_query = row_tables if one_row_a_query else 2**40
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scr_module, "_PROMINENCE_BYTES", per_query)
        counts, margins = _count_with_margins(x, RATE, detectors)
        alone = [_count_with_margins(x, RATE, (params,))[1] for params in detectors]
    assert counts.tobytes() == count_events(x, RATE, detectors).tobytes()
    for i, row in enumerate(x):
        expected = [_naive_margin(row, params) for params in detectors]
        assert [float(m[i]) for m in alone] == expected
        assert float(margins[i]) == min(expected)


@pytest.mark.parametrize("variant", list(_MARGIN_DETECTORS))
@example(x=np.array([[0.0, 0.25, 0.5, 0.25, 0.5 + 2.0**-40, 0.0]]), seed=0)
@settings(max_examples=300, deadline=None)
@given(x=_margin_rows(), seed=st.integers(0, 2**16))
def test_counts_hold_within_a_third_of_the_margin(variant, x, seed):
    # every sample moved by at most a third of its row's margin, each by
    # -1, -1/2, 0, 1/2 or 1 times that, so both extremes and opposite moves
    # of neighbours occur, keeps every count; a move that the floats can
    # only round past the bound is dropped. A BLAS-free property: it holds
    # for any prediction whose rows lie within margin / 3 of these
    detectors = _MARGIN_DETECTORS[variant]
    counts, margins = _count_with_margins(x, RATE, detectors)
    bound = np.minimum(margins, 1.0)[:, None] / 3.0
    moves = np.random.default_rng(seed).choice([-1.0, -0.5, 0.0, 0.5, 1.0], x.shape)
    y = x + moves * bound
    y = np.where(np.abs(y - x) <= bound, y, x)
    assert count_events(y, RATE, detectors).tolist() == counts.tolist()


def test_margins_see_the_near_ties():
    # one row per kind of comparison, each decided by a gap of 2^-30 that no
    # other comparison of the row undercuts: a rise, a merge test between
    # two bursts' peaks, and a prominence search that passes a sample just
    # below its peak
    tiny = 2.0**-30
    for row, params in (
        ([0.0, 0.4, 0.8, 0.8 + tiny, 0.3, 0.0], _params("kim2004")),
        ([0.0, 0.5, 1.0, 0.5, 0.0, 0.5, 1.0 + tiny, 0.5, 0.0],
         _params("gamboa2008", min_separation_s=2.0)),
        ([0.0, 0.5, 1.0, 0.5, 0.25, 0.5, 1.0 - tiny, 0.5, 0.0],
         _params("neurokit", prominence_frac=0.0)),
    ):
        _, margins = _count_with_margins(np.array([row]), RATE, (params,))
        assert margins.tolist() == [tiny] == [_naive_margin(row, params)]


def test_fixture_counts_zero_one_two():
    n = 240
    flat_falling = np.linspace(1.0, 0.0, n)  # no rising segment anywhere
    one = _pulse_train(n, [(10.0, 0.6)])
    two = _pulse_train(n, [(10.0, 0.6), (35.0, 0.5)])
    for method in METHODS:
        params = _params(method)
        for x, expected in ((flat_falling, 0), (one, 1), (two, 2)):
            assert _count(x, params) == expected
            assert len(_oracle(x, params)) == expected


def test_slow_ramp_is_rejected_by_rise_time():
    # a single 8 s rise exceeds the 5 s rise-time ceiling for every method
    x = np.concatenate([np.zeros(20), np.linspace(0.0, 1.0, 33), np.full(20, 1.0)])
    for method in METHODS:
        assert _count(x, _params(method)) == 0


# ---------------------------------------------------------------------------
# Threshold and invariance properties
# ---------------------------------------------------------------------------

def test_count_monotone_in_amplitude_threshold():
    rng = np.random.default_rng(44)
    for _ in range(10):
        x = _random_phasic(rng)
        for method, grid in (
            ("kim2004", np.linspace(0.01, 0.9, 12)),
            ("gamboa2008", np.linspace(0.002, 0.5, 12)),
            ("neurokit", np.linspace(1e-6, 0.5, 12)),
        ):
            counts = [_count(x, _params(method, min_amplitude=float(a))) for a in grid]
            assert all(a >= b for a, b in zip(counts, counts[1:])), (method, counts)


def test_count_monotone_in_prominence():
    rng = np.random.default_rng(45)
    for _ in range(10):
        x = _random_phasic(rng)
        counts = [
            _count(x, _params("neurokit", prominence_frac=float(f)))
            for f in np.linspace(0.02, 0.8, 10)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_translation_invariance():
    rng = np.random.default_rng(46)
    for _ in range(10):
        x = _random_phasic(rng)
        for method in METHODS:
            params = _params(method)
            base = detect_scr(Trace(x, RATE), params)
            shifted = detect_scr(Trace(x + 3.7, RATE), params)
            assert [(e.onset_idx, e.peak_idx) for e in base] == [
                (e.onset_idx, e.peak_idx) for e in shifted
            ]
            for a, b in zip(base, shifted):
                assert abs(a.amplitude - b.amplitude) < 1e-9


def test_kim2004_scale_invariance():
    # the kim2004 threshold is relative to peak-to-peak range, so scaling by
    # a power of two (exact in floating point) must not change the events
    rng = np.random.default_rng(47)
    for _ in range(10):
        x = _random_phasic(rng)
        params = _params("kim2004")
        base = detect_scr(Trace(x, RATE), params)
        scaled = detect_scr(Trace(4.0 * x, RATE), params)
        assert [(e.onset_idx, e.peak_idx) for e in base] == [
            (e.onset_idx, e.peak_idx) for e in scaled
        ]


def test_gamboa2008_absolute_threshold_is_scale_sensitive():
    x = _pulse_train(240, [(10.0, 0.016)])
    params = _params("gamboa2008")
    assert _count(x, params) == 1
    assert _count(0.5 * x, params) == 0  # 0.008 < 0.01


def test_gamboa2008_merges_close_events():
    # two pulses whose second onset trails the first peak by < 1 s merge into
    # one event keeping the earlier onset and the higher peak
    x = _pulse_train(200, [(10.0, 0.3), (12.0, 0.5)])
    merged = detect_scr(Trace(x, RATE), _params("gamboa2008", min_separation_s=1.0))
    apart = detect_scr(Trace(x, RATE), _params("gamboa2008", min_separation_s=0.0))
    assert len(apart) == 2
    assert len(merged) == 1
    assert merged[0].onset_idx == apart[0].onset_idx
    assert merged[0].peak_idx == apart[1].peak_idx  # later pulse peaks higher
    _assert_agrees(x, _params("gamboa2008", min_separation_s=1.0))


def test_rise_time_band_is_inclusive():
    def ramp(rise_samples):
        up = np.linspace(0.0, 1.0, rise_samples + 1)
        return np.concatenate([np.zeros(8), up, np.full(8, 1.0)])

    params = _params("kim2004")
    assert _count(ramp(1), params) == 1  # 0.25 s, lower edge
    assert _count(ramp(20), params) == 1  # 5.0 s, upper edge
    assert _count(ramp(21), params) == 0  # 5.25 s, too slow


# ---------------------------------------------------------------------------
# Parameter and event plumbing
# ---------------------------------------------------------------------------

def test_default_detectors_cover_all_methods():
    detectors = default_detectors()
    assert tuple(d.method for d in detectors) == METHODS
    by_method = {d.method: d for d in detectors}
    assert by_method["kim2004"].min_amplitude == 0.05
    assert by_method["gamboa2008"].min_amplitude == 0.01
    assert by_method["gamboa2008"].min_separation_s == 1.0
    assert by_method["neurokit"].min_amplitude == 1e-6


def test_detector_params_validation():
    with pytest.raises(ValueError):
        DetectorParams("unknown", min_amplitude=0.1)
    with pytest.raises(ValueError):
        DetectorParams("kim2004", min_amplitude=0.0)
    with pytest.raises(ValueError):
        DetectorParams("kim2004", min_amplitude=0.1, rise_time_min_s=6.0, rise_time_max_s=5.0)
    # NaN fails every bound
    for key in ("min_separation_s", "prominence_frac"):
        for value in (-1.0, math.nan):
            with pytest.raises(ValueError, match=f"{key} must be non-negative"):
                DetectorParams("neurokit", min_amplitude=0.1, **{key: value})
    for key in ("min_amplitude", "rise_time_min_s", "rise_time_max_s"):
        with pytest.raises(ValueError):
            DetectorParams("neurokit", **{"min_amplitude": 0.1, key: math.nan})


def test_scr_event_validation():
    with pytest.raises(ValueError):
        ScrEvent(onset_idx=5, peak_idx=5, amplitude=0.1)
    with pytest.raises(ValueError):
        ScrEvent(onset_idx=0, peak_idx=4, amplitude=0.0)


def test_short_trace_has_no_events():
    for method in METHODS:
        assert detect_scr(Trace([1.0], RATE), _params(method)) == []
