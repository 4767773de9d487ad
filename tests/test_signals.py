"""Tests for traces, normalization, EDA decomposition, and the sample CSV format."""

import builtins

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
from oracles import read_samples_rows_naive, write_samples_csv_naive


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


def test_with_samples_keeps_rate_and_unit():
    tr = Trace([1.0, 2.0], 8.0, Unit.RAD_PER_S2)
    out = tr.with_samples([3.0, 4.0, 5.0])
    assert out.rate_hz == 8.0
    assert out.unit == Unit.RAD_PER_S2
    assert len(out) == 3
    assert tr.with_samples([0.0], unit=Unit.NORMALIZED).unit == Unit.NORMALIZED


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
    shifted = tr.with_samples(tr.samples + 2.0)
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


@settings(max_examples=200, deadline=None)
@given(_sample_tables())
def test_write_samples_csv_matches_per_float_oracle(tmp_path_factory, table):
    rate_hz, cols = table
    names = tuple(f"c{j}" for j in range(len(cols)))
    meta = {"unit": "normalized", "rate_hz": format_float(rate_hz)}
    path = tmp_path_factory.mktemp("table") / "table.csv"
    write_samples_csv(path, meta, rate_hz, dict(zip(names, map(np.array, cols))))
    assert path.read_bytes() == write_samples_csv_naive(meta, rate_hz, dict(zip(names, cols))).encode()
    back_rate, (unit,), values = read_samples_csv(path, "table", ("unit",), names)
    assert back_rate == rate_hz and unit == Unit.NORMALIZED
    assert values.tobytes() == np.array(cols).tobytes()  # bit-equal, -0.0 included


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
