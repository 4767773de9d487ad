"""Tests for traces, normalization, EDA decomposition, and the sample CSV format."""

import builtins
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edanav import signals
from edanav.control import PidGains, write_gains
from edanav.errors import DegenerateInputError, FileFormatError
from edanav.metrics import (
    SessionStats,
    build_report,
    write_msdv_svg,
    write_per_session_csv,
    write_report_csv,
)
from edanav.optimize import OptimizeResult, Trial, write_history_csv
from edanav.signals import (
    DecompositionConfig,
    NormParams,
    Trace,
    Unit,
    decompose,
    format_float,
    read_samples_csv,
    read_trace_csv,
    trace_norm,
    write_samples_csv,
    write_trace_csv,
)
from edanav.surrogate import ClipNorm, SurrogateModel, write_model
from oracles import read_samples_rows_naive, tonic_scipy, write_samples_csv_naive


def _smooth_trace(rng, n=120, rate_hz=4.0, unit=Unit.MICROSIEMENS):
    """Random slow wave plus noise, vaguely EDA-shaped."""
    t = np.arange(n) / rate_hz
    x = (
        5.0
        + 0.4 * np.sin(2 * np.pi * t / rng.uniform(20.0, 60.0))
        + rng.normal(0.0, 0.02, n)
    )
    return Trace(x, rate_hz, unit)


# ---------------------------------------------------------------------------
# Trace container
# ---------------------------------------------------------------------------

def test_trace_basics():
    tr = Trace([1.0, 2.0, 3.0, 4.0, 5.0], 4.0, Unit.M_PER_S2)
    assert len(tr) == 5
    assert tr.duration_s == 1.0
    assert tr.samples.dtype == np.float64


def test_trace_samples_are_read_only():
    tr = Trace([1.0, 2.0], 4.0)
    with pytest.raises(ValueError):
        tr.samples[0] = 9.0


def test_trace_copies_input():
    raw = np.array([1.0, 2.0, 3.0])
    tr = Trace(raw, 4.0)
    raw[0] = 99.0
    assert tr.samples[0] == 1.0


def test_trace_rejects_bad_input():
    with pytest.raises(ValueError):
        Trace([], 4.0)
    with pytest.raises(ValueError):
        Trace([1.0, np.nan], 4.0)
    with pytest.raises(ValueError):
        Trace([1.0, np.inf], 4.0)
    with pytest.raises(ValueError):
        Trace([1.0], 0.0)
    with pytest.raises(ValueError):
        Trace([1.0], -4.0)


def test_trace_holds_one_dimension():
    # two stacked channels are not one 2n-sample trace, nor a scalar one sample
    a = np.arange(5.0)
    with pytest.raises(ValueError, match=r"1-D, got shape \(2, 5\)"):
        Trace(np.stack([a, -a]), 4.0)
    with pytest.raises(ValueError, match=r"1-D, got shape \(\)"):
        Trace(np.float64(3.0), 4.0)




def test_unit_round_trips_through_value():
    for unit in Unit:
        assert Unit(unit.value) is unit


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_hits_unit_interval_exactly():
    rng = np.random.default_rng(7)
    tr = _smooth_trace(rng)
    params = trace_norm([tr])
    normed = params.apply(tr.samples)
    assert float(np.min(normed)) == 0.0
    assert float(np.max(normed)) == 1.0
    assert params.vmin == float(np.min(tr.samples))
    assert params.vmax == float(np.max(tr.samples))


def test_normalize_rejects_constant_trace():
    with pytest.raises(DegenerateInputError):
        trace_norm([Trace(np.full(10, 3.3), 4.0)])


def test_norm_params_validation():
    with pytest.raises(DegenerateInputError):
        NormParams(1.0, 1.0)
    with pytest.raises(DegenerateInputError):
        NormParams(2.0, 1.0)
    with pytest.raises(ValueError):
        NormParams(0.0, np.inf)
    p = NormParams(2.0, 6.0)
    assert p.span == 4.0
    np.testing.assert_array_equal(p.apply([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])


# ---------------------------------------------------------------------------
# Tonic / phasic decomposition
# ---------------------------------------------------------------------------

def _tonic_naive(x, w_med, w_avg):
    """Centered moving-median then moving-average with replicate edges."""
    n = len(x)
    h = w_med // 2
    med = []
    for i in range(n):
        window = sorted(x[min(max(j, 0), n - 1)] for j in range(i - h, i + h + 1))
        med.append(window[h])
    g = w_avg // 2
    out = []
    for i in range(n):
        window = [med[min(max(j, 0), n - 1)] for j in range(i - g, i + g + 1)]
        out.append(sum(window) / w_avg)
    return np.asarray(out)


def test_decompose_matches_naive_filters():
    rng = np.random.default_rng(11)
    for _ in range(5):
        tr = _smooth_trace(rng, n=150)
        dec = decompose(tr)
        expected = _tonic_naive(tr.samples.tolist(), 33, 33)  # 8 s at 4 Hz, odd
        np.testing.assert_allclose(dec.tonic.samples, expected, rtol=1e-12, atol=1e-12)


@st.composite
def _tonic_row(draw, n):
    """n samples of one of six shapes; a seeded generator fills the shape in.

    "levels" rounds noise to a few values, so windows hold many ties;
    "plateaus" repeats values in runs; "constant" is one value throughout;
    "ramp" rises or falls monotonically; "zeros" mixes 0.0 and -0.0 with a
    few small integers. All but "zeros" take a scale from 1e-5 to 1e5 and
    an offset up to 1e6.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "levels", "plateaus", "constant", "ramp", "zeros"]))
    if kind == "zeros":
        x = np.copysign(np.zeros(n), rng.normal(size=n))
        some = rng.random(n) < 0.2
        x[some] = rng.integers(-2, 3, some.sum())
        return x
    if kind == "noise":
        x = rng.normal(size=n)
    elif kind == "levels":
        x = np.round(rng.normal(size=n) * 2.0)
    elif kind == "plateaus":
        x = np.repeat(rng.normal(size=n), rng.integers(1, 60, n))[:n]
    elif kind == "constant":
        x = np.full(n, rng.normal())
    else:
        x = np.linspace(0.0, draw(st.sampled_from([-1.0, 1.0])), n)
    scale = 10.0 ** draw(st.integers(-5, 5))
    return x * scale + draw(st.sampled_from([0.0, -0.0, 1.0, -1e3, 1e6]))


@st.composite
def _tonic_inputs(draw):
    """One trace of 2 to 2,000 samples (`_tonic_row`)."""
    return draw(_tonic_row(draw(st.integers(2, 2000))))


@st.composite
def _tonic_stacks(draw):
    """A stack [m, n] of 1 to 5 traces of 1 to 2,000 samples, each row of
    its own shape (`_tonic_row`)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 2000))
    return np.stack([draw(_tonic_row(n)) for _ in range(m)])


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # -0.0 vs 0.0


@settings(max_examples=150, deadline=None)
@given(_tonic_stacks(), st.integers(0, 600), st.integers(0, 600))
def test_tonic_filters_equal_scipy(x, h_med, h_avg):
    # odd windows of 1 to 1,201 samples, often longer than the trace
    w_med, w_avg = 2 * h_med + 1, 2 * h_avg + 1
    median = signals._moving_median(x, w_med)
    tonic = signals._moving_mean(median, w_avg)
    for row, row_median, row_tonic in zip(x, median, tonic):
        want_median, want_tonic = tonic_scipy(row, w_med, w_avg)
        # equal values: where 0.0 and -0.0 tie in the middle of a window
        # either zero may come out, and the moving mean gives the same bits
        # for both
        np.testing.assert_array_equal(row_median, want_median)
        _assert_same_bits(row_tonic, want_tonic)
        # a row of a stack has the bits it has filtered alone, zeros included
        alone = signals._moving_median(row[None], w_med)
        _assert_same_bits(row_median, alone[0])
        _assert_same_bits(row_tonic, signals._moving_mean(alone, w_avg)[0])


def _count_median_rows(monkeypatch) -> list[int]:
    """The row count of each `_moving_median` call, in call order."""
    rows = []
    real = signals._moving_median

    def spy(x, w):
        rows.append(len(x))
        return real(x, w)

    monkeypatch.setattr(signals, "_moving_median", spy)
    return rows


def _count_sorts(monkeypatch) -> list[np.ndarray]:
    """The input of each `np.sort` call, in call order."""
    sorts = []
    real = np.sort

    def spy(a, *args, **kwargs):
        sorts.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    return sorts


def test_a_stack_larger_than_one_sort_is_sorted_in_blocks_of_pairs(monkeypatch):
    rows = _count_median_rows(monkeypatch)
    sorts = _count_sorts(monkeypatch)
    rng = np.random.default_rng(21)
    # a 12-session, 900 s, 8 Hz group: w 65 over 7,200 samples gives each
    # row 3,600 cores of 64 uint16 ranks (460,800 bytes), 5.5 MB in all;
    # one median call sorts the rows' cores 1,365 pairs at a time
    x = np.round(rng.normal(size=(12, 7200)) * 20.0)
    tonic = signals.tonic_rows(x, 8.0, DecompositionConfig())
    assert rows == [12]
    assert [a.shape for a in sorts] == [(12, 1365, 64), (12, 1365, 64), (12, 870, 64)]
    assert all(a.nbytes <= signals._SORT_BYTES for a in sorts)
    # a bound of 14 pairs of 7 odd-length rows: blocks of 14, 14, 14 and 8;
    # below one pair of every row, a pair at a time
    y = np.round(rng.normal(size=(7, 99)) * 3.0)
    cases = [(x, tonic, 8.0, DecompositionConfig())]
    for bound, pairs in ((14 * 7 * 32, [14, 14, 14, 8]), (7 * 32 - 1, [1] * 50)):
        monkeypatch.setattr(signals, "_SORT_BYTES", bound)
        sorts.clear()
        cfg = DecompositionConfig(8.0, 2.0)
        cases.append((y, signals.tonic_rows(y, 4.0, cfg), 4.0, cfg))
        assert [a.shape for a in sorts] == [(7, p, 32) for p in pairs]
    assert rows[1:] == [7, 7]
    monkeypatch.undo()
    for stack, filtered, rate_hz, cfg in cases:
        for row, got in zip(stack, filtered):
            _assert_same_bits(got, signals.tonic_rows(row[None], rate_hz, cfg)[0])


@settings(max_examples=100, deadline=None)
@given(_tonic_stacks(), st.integers(1, 600), st.integers(1, 40))
def test_cores_sorted_in_blocks_of_pairs_equal_scipy(x, h, pairs):
    # a sort bound below one row's cores: each row's window pairs are
    # sorted ``pairs`` at a time (the last block shorter), the median still
    # scipy's and each row's bits those of one block
    m, n = x.shape
    median = signals._moving_median(x, 2 * h + 1)
    with pytest.MonkeyPatch.context() as patch:
        rank_bytes = np.min_scalar_type(n).itemsize
        patch.setattr(signals, "_SORT_BYTES", m * 2 * h * pairs * rank_bytes)
        blocked = signals._moving_median(x, 2 * h + 1)
    _assert_same_bits(blocked, median)
    for row, got in zip(x, blocked):
        np.testing.assert_array_equal(got, tonic_scipy(row, 2 * h + 1, 1)[0])


def test_a_long_median_window_sorts_within_the_bound():
    # a 900 s, 8 Hz trace with a 400 s median window: one row's cores hold
    # 3,600 x 3,200 uint16 ranks (23 MB); sorted in blocks of pairs, the
    # peak stays near one block, and the tonic is scipy's
    x = np.round(np.random.default_rng(5).normal(size=7200).cumsum(), 1)
    cfg = DecompositionConfig(400.0, 8.0)
    tracemalloc.start()
    try:
        tonic = signals.tonic_rows(x[None], 8.0, cfg)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < signals._SORT_BYTES + 2**20
    _assert_same_bits(tonic, tonic_scipy(x, 3201, 65)[1])


@settings(max_examples=100, deadline=None)
@given(_tonic_inputs(), st.sampled_from([1.0, 4.0, 8.0, 32.0]),
       st.floats(0.0, 0.5), st.floats(0.01, 200.0))
def test_decompose_tonic_equals_scipy(x, rate_hz, median_frac, average_window_s):
    # the median window spans up to half the trace, the limit decompose
    # allows; the average window reaches past the trace's ends
    trace = Trace(x, rate_hz)
    cfg = DecompositionConfig(max(median_frac * trace.duration_s, 1e-3), average_window_s)
    w_med = signals._odd_window(cfg.median_window_s, rate_hz)
    w_avg = signals._odd_window(cfg.average_window_s, rate_hz)
    _assert_same_bits(decompose(trace, cfg).tonic.samples, tonic_scipy(x, w_med, w_avg)[1])


def test_decompose_is_an_exact_split():
    rng = np.random.default_rng(12)
    tr = _smooth_trace(rng, n=200)
    dec = decompose(tr)
    np.testing.assert_array_equal(dec.tonic.samples + dec.phasic.samples, tr.samples)
    assert dec.original is tr
    assert len(dec.tonic) == len(dec.phasic) == len(tr)


def test_decompose_constant_shift_moves_only_tonic():
    rng = np.random.default_rng(13)
    tr = _smooth_trace(rng, n=150)
    shifted = Trace(tr.samples + 2.0, tr.rate_hz, tr.unit)
    dec = decompose(tr)
    dec_shifted = decompose(shifted)
    np.testing.assert_allclose(
        dec_shifted.tonic.samples, dec.tonic.samples + 2.0, rtol=1e-9, atol=1e-9
    )
    np.testing.assert_allclose(
        dec_shifted.phasic.samples, dec.phasic.samples, rtol=0, atol=1e-9
    )


def test_decompose_odd_window_sizes():
    # 8 s at 4 Hz rounds to 32 samples and is bumped to the next odd size;
    # the result must stay symmetric for a symmetric input.
    x = np.concatenate([np.zeros(70), [1.0], np.zeros(70)])
    dec = decompose(Trace(x + 5.0, 4.0))
    np.testing.assert_allclose(
        dec.tonic.samples, dec.tonic.samples[::-1], rtol=0, atol=1e-12
    )


def test_decompose_rejects_short_traces():
    with pytest.raises(DegenerateInputError):
        decompose(Trace(np.zeros(64), 4.0))  # 15.75 s < 2 * 8 s
    decompose(Trace(np.linspace(0, 1, 65), 4.0))  # exactly 16 s is allowed


def test_decompose_custom_windows():
    rng = np.random.default_rng(14)
    tr = _smooth_trace(rng, n=100)
    cfg = DecompositionConfig(median_window_s=4.0, average_window_s=2.0)
    dec = decompose(tr, cfg)
    expected = _tonic_naive(tr.samples.tolist(), 17, 9)
    np.testing.assert_allclose(dec.tonic.samples, expected, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        DecompositionConfig(median_window_s=0.0)
    # a NaN or infinite window would fail only later, converting to a sample count
    for windows in ((np.nan, 8.0), (8.0, np.nan), (np.inf, 8.0), (8.0, np.inf)):
        with pytest.raises(ValueError, match="windows must be positive and finite"):
            DecompositionConfig(*windows)


# ---------------------------------------------------------------------------
# Trace CSV round-trip
# ---------------------------------------------------------------------------

def test_format_float_round_trips():
    rng = np.random.default_rng(15)
    for v in [0.0, 1.0, -1.5, 0.1, 1e-12, 1e12, *rng.normal(size=50)]:
        assert float(format_float(v)) == float(v)


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    tr = _smooth_trace(rng, n=40, unit=Unit.MICROSIEMENS)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back.samples, tr.samples)
    assert back.rate_hz == tr.rate_hz
    assert back.unit == tr.unit


def test_trace_csv_layout(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(Trace([1.5, 2.0], 4.0, Unit.M_PER_S2), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# unit=m_per_s2 rate_hz=4.0"
    assert lines[1] == "t_s,value"
    assert lines[2] == "0.000000,1.5"
    assert lines[3] == "0.250000,2.0"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_trace_csv_errors(tmp_path):
    cases = [
        ("truncated.csv", "# unit=microsiemens rate_hz=4.0\nt_s,value\n", None),
        ("no_meta.csv", "unit=x\nt_s,value\n0.0,1.0\n", 1),
        ("bad_token.csv", "# unitmicrosiemens rate_hz=4.0\nt_s,value\n0.0,1.0\n", 1),
        ("bad_unit.csv", "# unit=volts rate_hz=4.0\nt_s,value\n0.0,1.0\n", 1),
        ("bad_rate.csv", "# unit=microsiemens rate_hz=fast\nt_s,value\n0.0,1.0\n", 1),
        ("dup_meta.csv", "# unit=microsiemens rate_hz=4.0 rate_hz=8.0\nt_s,value\n0.0,1.0\n", 1),
        ("extra_meta.csv", "# unit=microsiemens rate_hz=4.0 colour=blue\nt_s,value\n0.0,1.0\n", 1),
        ("bad_header.csv", "# unit=microsiemens rate_hz=4.0\ntime,v\n0.0,1.0\n", 2),
        ("bad_cols.csv", "# unit=microsiemens rate_hz=4.0\nt_s,value\n0.0,1.0,2.0\n", 3),
        ("bad_value.csv", "# unit=microsiemens rate_hz=4.0\nt_s,value\n0.0,1.0\n0.25,oops\n", 4),
    ]
    for name, text, line in cases:
        path = _write(tmp_path / name, text)
        with pytest.raises(FileFormatError) as excinfo:
            read_trace_csv(path)
        assert excinfo.value.line == line, name
        assert str(path) in str(excinfo.value)


def test_trace_csv_skips_blank_lines(tmp_path):
    path = _write(
        tmp_path / "blank.csv",
        "# unit=microsiemens rate_hz=4.0\nt_s,value\n0.0,1.0\n\n0.25,2.0\n",
    )
    tr = read_trace_csv(path)
    np.testing.assert_array_equal(tr.samples, [1.0, 2.0])


# ---------------------------------------------------------------------------
# Sample CSV body: one C-level parse and one format against per-cell oracles
# ---------------------------------------------------------------------------

_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1.7976931348623157e308]),
    st.integers(-(2**62), 2**62).map(float),
)


@st.composite
def _sample_tables(draw):
    n = draw(st.integers(1, 60))
    cols = draw(st.lists(st.lists(_FLOATS, min_size=n, max_size=n), min_size=1, max_size=3))
    return draw(st.sampled_from([4.0, 8.0, 3.7, 1000.0])), cols


_EDGE_POOL = (0.0, -0.0, 5e-324, -5e-324)


@st.composite
def _repetitive_tables(draw):
    # far fewer distinct values per column than rows, the signed zeros always
    # among them: a writer that merged -0.0 with 0.0 would misspell cells
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(draw(st.integers(1, 3))):
        edges = _EDGE_POOL[:draw(st.integers(2, 4))]
        pool = np.array([*edges, *draw(st.lists(_FLOATS, max_size=2))])
        col = pool[rng.integers(0, pool.size, n)]
        if draw(st.booleans()):  # many distinct values among the repeated ones
            fresh = rng.random(n) < draw(st.sampled_from([0.5, 0.9]))
            k = int(fresh.sum())
            col[fresh] = rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)
        cols.append(col.tolist())
    return draw(st.sampled_from([4.0, 8.0, 3.7, 1000.0])), cols


def _assert_writes_like_oracle(tmp_path_factory, rate_hz, cols):
    names = tuple(f"c{j}" for j in range(len(cols)))
    meta = {"unit": "normalized", "rate_hz": format_float(rate_hz)}
    path = tmp_path_factory.mktemp("table") / "table.csv"
    write_samples_csv(path, meta, rate_hz, dict(zip(names, map(np.array, cols))))
    assert path.read_bytes() == write_samples_csv_naive(meta, rate_hz, dict(zip(names, cols))).encode()
    back_rate, (unit,), values = read_samples_csv(path, "table", ("unit",), names)
    assert back_rate == rate_hz and unit == Unit.NORMALIZED
    assert values.tobytes() == np.array(cols).tobytes()  # bit-equal, -0.0 included


@settings(max_examples=200, deadline=None)
@given(_sample_tables())
def test_write_samples_csv_matches_per_float_oracle(tmp_path_factory, table):
    _assert_writes_like_oracle(tmp_path_factory, *table)


@settings(max_examples=100, deadline=None)
@given(_repetitive_tables())
def test_write_samples_csv_repeated_values_match_per_float_oracle(tmp_path_factory, table):
    _assert_writes_like_oracle(tmp_path_factory, *table)


_RATES = (4.0, 8.0, 3.0, 7.5, 1000.0)


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.sampled_from([1, 2]), st.integers(200, 400)),
    rates=st.lists(st.sampled_from(_RATES), min_size=2, max_size=2, unique=True),
)
def test_write_samples_csv_time_column_matches_per_row_oracle(tmp_path_factory, n, rates):
    # files of one length at two rates, one after the other: each must get
    # its own rate's time column
    values = np.arange(n) * 0.5
    for rate_hz in rates:
        meta = {"unit": "normalized", "rate_hz": format_float(rate_hz)}
        path = tmp_path_factory.mktemp("times") / "trace.csv"
        write_samples_csv(path, meta, rate_hz, {"value": values})
        assert path.read_bytes() == write_samples_csv_naive(meta, rate_hz, {"value": values}).encode()


_ACCEL_HEAD = "# rate_hz=4.0 unit_a_l=m_per_s2 unit_a_r=rad_per_s2\nt_s,a_l,a_r\n"
_BODIES = {
    "blank line": "0.0,1.0,2.0\n\n0.25,3.0,4.0\n",
    "whitespace-only line": "0.0,1.0,2.0\n  \t\n0.25,3.0,4.0\n",
    "extra column": "0.0,1.0,2.0\n0.25,3.0,4.0,5.0\n",
    "extra column on every row": "0.0,1.0,2.0,9.0\n0.25,3.0,4.0,5.0\n",
    "missing column": "0.0,1.0,2.0\n0.25,3.0\n",
    "missing column on every row": "0.0,1.0\n0.25,3.0\n",
    "underscore digits": "0.0,1_0,2.0\n0.25,3.0,4_000.5\n",
    "bad t_s cell": "zero,1.0,2.0\n0.25,3.0,4.0\n",
    "padded cells": " 0.0 , 1.0\t,\u00a02.0 \n0.25,3.0,  4.0\n",
    "crlf line ends": "0.0,1.0,2.0\r\n0.25,3.0,4.0\r\n",
    "inline comment": "0.0,1.0 # c,2.0\n",
    "single row": "0.0,-0.0,5e-324\n",
    "no rows": "\n\n",
    "empty cell": "0.0,,2.0\n",
    "bad value on a later line": "0.0,1.0,2.0\n\n0.5,3.0,oops\n",
    "unit separator": "0.0,\x1f1.0,2.0\n",
    # splitlines() used to break this line at the form feed; it is one row
    "form feed splits a line": "0.0,1.0\x0c,2.0\n",
    "form feed between rows": "0.0,1.0,2.0\x0c0.25,3.0,4.0\n",
    "record separator in a cell": "0.0,1.0\x1e,2.0\n0.25,3.0,4.0\n",
    "line separators pad cells": "0.0,\u20281.0,2.0\u2029\n0.25,3.0\x85,4.0\x1c\n",
    "no final newline": "0.0,1.0,2.0\n0.25,3.0,4.0",
}


@pytest.mark.parametrize("body", list(_BODIES.values()), ids=list(_BODIES))
def test_read_samples_csv_matches_per_line_oracle(tmp_path, body):
    text = _ACCEL_HEAD + body
    path = tmp_path / "accel.csv"
    path.write_bytes(text.encode("utf-8"))

    def read():
        return read_samples_csv(path, "acceleration", ("unit_a_l", "unit_a_r"), ("a_l", "a_r"))

    try:
        expected = read_samples_rows_naive(text, "acceleration", 2)
    except ValueError as exc:
        message, line = exc.args
        with pytest.raises(FileFormatError) as excinfo:
            read()
        assert excinfo.value.line == line
        where = str(path) if line is None else f"{path}:{line}"
        assert str(excinfo.value) == f"{where}: {message}"
    else:
        _, _, values = read()
        assert values.tobytes() == np.array(expected).tobytes()


def test_read_samples_csv_breaks_lines_only_at_newlines(tmp_path):
    # a form feed, U+001C-U+001E, U+0085 and U+2028/9 do not end a line, so
    # a row holding one fails, or reads, on its own physical line
    path = tmp_path / "eda.csv"
    head = "# unit=normalized rate_hz=4\nt_s,value\n"
    path.write_bytes((head + "0.0,1.0\f0.25,2.0\n0.5,3.0\n").encode("utf-8"))
    with pytest.raises(FileFormatError, match="expected 2 columns, got 3") as excinfo:
        read_trace_csv(path)
    assert excinfo.value.line == 3
    path.write_bytes((head + "0.0,1.0\f\n0.25,oops\n").encode("utf-8"))
    with pytest.raises(FileFormatError, match="bad trace value 'oops'") as excinfo:
        read_trace_csv(path)
    assert excinfo.value.line == 4
    for sep in "\x1c\x1d\x1e":
        path.write_bytes((head + f"0.0,1.0\n0.25,2.0{sep}\n").encode("utf-8"))
        with pytest.raises(FileFormatError, match="bad trace value") as excinfo:
            read_trace_csv(path)
        assert excinfo.value.line == 4
    path.write_bytes((head + "0.0,1.0\r\n0.25,2.0\u2028\r\n").encode("utf-8"))
    assert read_trace_csv(path).samples.tolist() == [1.0, 2.0]


def test_read_samples_csv_parses_a_clean_body_without_the_line_loop(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    write_trace_csv(Trace([1.5, -0.0, 2.0], 4.0), path)

    def no_loop(*args):
        raise AssertionError("per-line loop reached on a clean body")

    monkeypatch.setattr(signals, "_parse_rows", no_loop)
    assert read_trace_csv(path).samples.tobytes() == np.array([1.5, -0.0, 2.0]).tobytes()


class _HalfWriter:
    """A file that writes half of what it is given and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("disk full")


METHODS = ("kim2004", "gamboa2008", "neurokit")


def _model(bias):
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    return SurrogateModel(np.full((2, 13), bias), 0.5, 4.0, norm, 0.0)


def _sessions(k):
    return [SessionStats(f"s{i}", (k, 1, 2), (0, 1, 2), (1, 1, 1), (1.0, 0.5 * k), (2.0, 1.0))
            for i in range(3)]


def _history(k):
    trial = Trial(0, PidGains(K_Pl=0.1 * k), 50.0 * k, (50.0 * k, 0.0, 0.0))
    return OptimizeResult(trial, (trial,), METHODS)


# artifact writer -> (path, k) -> writes the k-th version of its artifact
WRITERS = {
    "trace": lambda path, k: write_trace_csv(Trace([1.0, 2.0, 3.0][: k + 1], 4.0 * k), path),
    "model": lambda path, k: write_model(_model(0.1 * k), path),
    "gains": lambda path, k: write_gains(PidGains(K_Pl=0.1 * k), path),
    "history": lambda path, k: write_history_csv(_history(k), path),
    "report": lambda path, k: write_report_csv(build_report(_sessions(k), METHODS), path),
    "per_session": lambda path, k: write_per_session_csv(_sessions(k), METHODS, path),
    "svg": lambda path, k: write_msdv_svg(_sessions(k), path),
}


@pytest.mark.parametrize("stage, writer", [
    pytest.param(stage, writer, id=stage if writer == "trace" else f"{stage}-{writer}")
    for writer in WRITERS for stage in ("write", "replace")
])
def test_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch, stage, writer):
    # every artifact writer goes through `write_text_atomic`
    path = tmp_path / "artifact"
    WRITERS[writer](path, 1)
    before = path.read_bytes()
    if stage == "write":
        monkeypatch.setattr(signals, "open",
                            lambda *a, **k: _HalfWriter(builtins.open(*a, **k)), raising=False)
    else:
        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(signals.os, "replace", fail)
    with pytest.raises(OSError):
        WRITERS[writer](path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    WRITERS[writer](path, 2)
    assert path.read_bytes() != before
