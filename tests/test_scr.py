"""Detector tests: agreement with the brute-force oracle plus edge behavior."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edanav.scr import (
    _DETECTORS,
    METHODS,
    DetectorParams,
    ScrEvent,
    _prominences,
    _rising_runs,
    count_er_scr,
    count_events,
    default_detectors,
    detect_scr,
)
from edanav.signals import Trace, Unit

from oracles import _prominence_naive, bateman_pulse, brute_force_events

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


@settings(max_examples=400, deadline=None)
@given(_adversarial_traces())
def test_prominences_match_the_scan(x):
    peaks = np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1
    expected = [_prominence_naive(x.tolist(), int(p)) for p in peaks]
    assert _prominences(x, peaks).tolist() == expected


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
    by a higher row. Lengths go down to n = 2.
    """
    n = draw(st.sampled_from([2, 3, 4, 7, 20, 60]))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["levels", "constant", "falling", "rise_to_end",
                                     "plateau_end", "peak_start", "any"]))
        if kind == "constant":
            row = [draw(st.sampled_from([0.0, 0.5, 1.0]))] * n
        elif kind == "falling":
            row = np.linspace(1.0, 0.0, n).tolist()
        elif kind == "any":
            row = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        else:
            row = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n))
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


def test_fixture_counts_zero_one_two():
    n = 240
    flat_falling = np.linspace(1.0, 0.0, n)  # no rising segment anywhere
    one = _pulse_train(n, [(10.0, 0.6)])
    two = _pulse_train(n, [(10.0, 0.6), (35.0, 0.5)])
    for method in METHODS:
        params = _params(method)
        for x, expected in ((flat_falling, 0), (one, 1), (two, 2)):
            assert count_er_scr(Trace(x, RATE), params) == expected
            assert len(_oracle(x, params)) == expected


def test_slow_ramp_is_rejected_by_rise_time():
    # a single 8 s rise exceeds the 5 s rise-time ceiling for every method
    x = np.concatenate([np.zeros(20), np.linspace(0.0, 1.0, 33), np.full(20, 1.0)])
    for method in METHODS:
        assert count_er_scr(Trace(x, RATE), _params(method)) == 0


# ---------------------------------------------------------------------------
# Threshold and invariance properties
# ---------------------------------------------------------------------------

def test_count_monotone_in_amplitude_threshold():
    rng = np.random.default_rng(44)
    for _ in range(10):
        x = _random_phasic(rng)
        tr = Trace(x, RATE)
        for method, grid in (
            ("kim2004", np.linspace(0.01, 0.9, 12)),
            ("gamboa2008", np.linspace(0.002, 0.5, 12)),
            ("neurokit", np.linspace(1e-6, 0.5, 12)),
        ):
            counts = [count_er_scr(tr, _params(method, min_amplitude=float(a))) for a in grid]
            assert all(a >= b for a, b in zip(counts, counts[1:])), (method, counts)


def test_count_monotone_in_prominence():
    rng = np.random.default_rng(45)
    for _ in range(10):
        tr = Trace(_random_phasic(rng), RATE)
        counts = [
            count_er_scr(tr, _params("neurokit", prominence_frac=float(f)))
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
    assert count_er_scr(Trace(x, RATE), params) == 1
    assert count_er_scr(Trace(0.5 * x, RATE), params) == 0  # 0.008 < 0.01


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
    assert count_er_scr(Trace(ramp(1), RATE), params) == 1  # 0.25 s, lower edge
    assert count_er_scr(Trace(ramp(20), RATE), params) == 1  # 5.0 s, upper edge
    assert count_er_scr(Trace(ramp(21), RATE), params) == 0  # 5.25 s, too slow


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
        DetectorParams("kim2004", min_amplitude=0.1, min_separation_s=-1.0)
    with pytest.raises(ValueError):
        DetectorParams("kim2004", min_amplitude=0.1, rise_time_min_s=6.0, rise_time_max_s=5.0)


def test_scr_event_validation():
    with pytest.raises(ValueError):
        ScrEvent(onset_idx=5, peak_idx=5, amplitude=0.1, rise_time_s=0.0)
    with pytest.raises(ValueError):
        ScrEvent(onset_idx=0, peak_idx=4, amplitude=0.0, rise_time_s=1.0)


def test_short_trace_has_no_events():
    for method in METHODS:
        assert detect_scr(Trace([1.0], RATE), _params(method)) == []
