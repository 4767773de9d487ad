"""MSDV, chi-square / phi statistics, and report plumbing tests."""

import dataclasses
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edanav.control import AccelLimits
from edanav.errors import FileFormatError
from edanav.metrics import (
    MSDV_LONGITUDINAL,
    MSDV_ROTATIONAL,
    Report,
    SessionStats,
    StatResult,
    build_report,
    chi_square_phi,
    detector_stats,
    msdv,
    read_per_session_csv,
    write_msdv_svg,
    write_per_session_csv,
    write_report_csv,
)
from edanav.signals import Trace

from oracles import msdv_naive

METHODS = ("kim2004", "gamboa2008", "neurokit")


def _session(i, n_raw, n_adapted, msdv_l, msdv_r):
    return SessionStats(
        session_id=f"s{i:03d}",
        n_raw=n_raw,
        n_adapted=n_adapted,
        n_recorded=n_raw,
        msdv_l=msdv_l,
        msdv_r=msdv_r,
    )


# ---------------------------------------------------------------------------
# MSDV
# ---------------------------------------------------------------------------

def test_msdv_of_silence_is_zero():
    assert msdv(np.zeros(100), 0.25) == 0.0


def test_msdv_constant_analytic_values():
    # 960 samples at 4 Hz integrate a constant 1 over exactly 240 s
    assert abs(msdv(np.ones(960), 0.25) - math.sqrt(240.0)) < 1e-12
    # constant 2 over 100 s: (4 * 100) ** 0.5 = 20
    assert abs(msdv(np.full(1000, 2.0), 0.1) - 20.0) < 1e-12


def test_msdv_homogeneity():
    rng = np.random.default_rng(60)
    for _ in range(20):
        x = rng.normal(0.0, 2.0, 400)
        c = float(rng.uniform(-5.0, 5.0))
        if c == 0.0:
            continue
        assert abs(msdv(c * x, 0.25) - abs(c) * msdv(x, 0.25)) <= 1e-9 * (abs(c) * msdv(x, 0.25))


def test_msdv_sign_blind():
    x = np.array([1.0, -2.0, 3.0, -4.0])
    assert msdv(x, 0.25) == msdv(np.abs(x), 0.25)


def test_msdv_takes_one_dose_per_row():
    # [..., n] gives [...]; one row gives a 0-d array, and dt broadcasts per row
    x = np.arange(24.0).reshape(2, 3, 4)
    dt = np.array([[0.25], [0.5]])
    out = msdv(x, dt)
    assert out.shape == (2, 3) and msdv(x[0, 0], 0.25).shape == ()
    for i in range(2):
        for j in range(3):
            assert out[i, j] == msdv_naive(Trace(x[i, j], 1.0 / dt[i, 0]))


ACCEL_BOUNDS = (AccelLimits().max_longitudinal, AccelLimits().max_rotational)
SUBNORMALS = (5e-324, 2.2250738585072014e-308 / 3.0, math.ulp(0.0) * 7)
# rates whose dt = 1 / rate is inexact, or one ulp off an exact one
MSDV_RATES = (4.0, math.nextafter(4.0, 5.0), 3.0, 8.0, 7.3, 1e3)


@st.composite
def _msdv_stacks(draw):
    """A stack [m, 2, n] of finite accelerations, with zeros, -0.0, subnormals
    and values at the clamps, and one rate per row [m, 2]."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 64))
    special = st.sampled_from(
        [0.0, -0.0, *SUBNORMALS, *(-s for s in SUBNORMALS), *ACCEL_BOUNDS,
         *(-b for b in ACCEL_BOUNDS)]
    )
    values = st.one_of(special, st.floats(-ACCEL_BOUNDS[0], ACCEL_BOUNDS[0]))
    x = draw(arrays(np.float64, (m, 2, n), elements=values))
    rates = draw(arrays(np.float64, (m, 2), elements=st.sampled_from(MSDV_RATES)))
    return x, rates


def _assert_msdv_matches_oracle(x, rates):
    out = msdv(x, 1.0 / rates)
    assert out.shape == rates.shape
    for index in np.ndindex(rates.shape):
        ref = msdv_naive(Trace(x[index], rates[index]))
        assert out[index].tobytes() == np.float64(ref).tobytes()


@settings(max_examples=300, deadline=None)
@given(_msdv_stacks())
def test_group_msdv_matches_the_one_trace_oracle(stack):
    # one reduction over the stack gives each row the bits of its own
    # np.sum, times its own dt, and Python's root
    _assert_msdv_matches_oracle(*stack)


def test_group_msdv_takes_the_python_root():
    # np.sqrt rounds about 1 root in 1,000 of these doses differently from
    # Python's float ** 0.5; 20,000 rows hold some of them
    rng = np.random.default_rng(62)
    x = np.clip(rng.normal(0.0, 3.0, (10_000, 2, 6)), -5.0, 5.0)
    rates = rng.choice(MSDV_RATES, (10_000, 2))
    _assert_msdv_matches_oracle(x, rates)
    doses = np.sum(np.abs(x) ** 2, axis=-1) * (1.0 / rates)
    assert np.any(np.sqrt(doses) != msdv(x, 1.0 / rates))


def test_group_msdv_matches_the_one_trace_oracle_on_long_rows():
    # rows longer than numpy's pairwise block and its 8192-element buffer
    rng = np.random.default_rng(61)
    for n in (127, 128, 129, 7200, 8192, 8193, 20000):
        x = np.clip(rng.normal(0.0, 3.0, (3, 2, n)), -5.0, 5.0)
        rates = rng.choice(MSDV_RATES, (3, 2))
        _assert_msdv_matches_oracle(x, rates)


# ---------------------------------------------------------------------------
# Chi-square / phi
# ---------------------------------------------------------------------------

def test_reference_rows_reproduce():
    cases = [
        (36, 40, 25.6, 0.80, "p01", "improved"),
        (29, 40, 8.1, 0.45, "p01", "improved"),
        (40, 40, 40.0, 1.0, "p01", "improved"),
        (20, 40, 0.0, 0.0, "none", "even"),
    ]
    for positives, total, chi2, phi, sig, direction in cases:
        s = chi_square_phi(positives, total)
        assert abs(s.chi2 - chi2) < 1e-12
        assert abs(s.phi - phi) < 1e-12
        assert s.significant_at == sig
        assert s.direction == direction


def test_significance_buckets():
    # for n = 40 the chi-square crosses 3.841 between 26 and 27 positives
    # and 6.635 between 28 and 29
    assert chi_square_phi(26, 40).significant_at == "none"  # chi2 = 3.6
    assert chi_square_phi(27, 40).significant_at == "p05"  # chi2 = 4.9
    assert chi_square_phi(28, 40).significant_at == "p05"  # chi2 = 6.4
    assert chi_square_phi(29, 40).significant_at == "p01"  # chi2 = 8.1


def test_chi_square_symmetry_and_phi_identity():
    rng = np.random.default_rng(62)
    for _ in range(50):
        total = int(rng.integers(1, 200))
        k = int(rng.integers(0, total + 1))
        s = chi_square_phi(k, total)
        mirrored = chi_square_phi(total - k, total)
        assert abs(s.chi2 - mirrored.chi2) < 1e-12
        assert abs(s.phi - mirrored.phi) < 1e-12
        assert abs(s.phi**2 * total - s.chi2) < 1e-9
        if k * 2 > total:
            assert s.direction == "improved" and mirrored.direction == "worse"


def test_percentage():
    assert chi_square_phi(36, 40).percentage == 90.0
    assert chi_square_phi(0, 40).percentage == 0.0


def test_chi_square_validation():
    with pytest.raises(ValueError):
        chi_square_phi(1, 0)
    with pytest.raises(ValueError):
        chi_square_phi(-1, 10)
    with pytest.raises(ValueError):
        chi_square_phi(11, 10)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _cohort_sessions(improved_per_method, total):
    """Sessions where method d improved in the first improved_per_method[d]."""
    sessions = []
    for i in range(total):
        n_raw = tuple(6 for _ in METHODS)
        n_adapted = tuple(
            5 if i < improved_per_method[d] else 6 for d in range(len(METHODS))
        )
        sessions.append(_session(i, n_raw, n_adapted, (3.0, 2.5), (1.0, 0.8)))
    return sessions


def test_build_report_reproduces_reference_table():
    report = build_report(_cohort_sessions((36, 29, 36), 40), METHODS)
    assert abs(report.stats["kim2004"].chi2 - 25.6) < 0.05
    assert abs(report.stats["kim2004"].phi - 0.80) < 0.005
    assert abs(report.stats["gamboa2008"].chi2 - 8.1) < 0.05
    assert abs(report.stats["gamboa2008"].phi - 0.45) < 0.005
    assert report.stats["neurokit"].positives == 36
    # every constructed session strictly reduced both dose values
    for key in (MSDV_LONGITUDINAL, MSDV_ROTATIONAL):
        assert report.stats[key].positives == 40
        assert report.stats[key].direction == "improved"


def test_build_report_counts_strict_improvement_only():
    sessions = [
        _session(0, (3, 3, 3), (2, 3, 4), (1.0, 1.0), (1.0, 1.0)),  # kim improved
        _session(1, (3, 3, 3), (3, 3, 3), (1.0, 0.9), (1.0, 1.1)),  # msdv_l improved
    ]
    report = build_report(sessions, METHODS)
    assert report.stats["kim2004"].positives == 1
    assert report.stats["gamboa2008"].positives == 0
    assert report.stats["neurokit"].positives == 0  # counts rose, not fell
    assert report.stats[MSDV_LONGITUDINAL].positives == 1
    assert report.stats[MSDV_ROTATIONAL].positives == 0


def test_build_report_identical_conditions_go_negative():
    # a do-nothing adaptation improves no session, which the 50/50 test
    # flags as a significant effect in the wrong direction
    sessions = [_session(i, (4, 4, 4), (4, 4, 4), (1.0, 1.0), (1.0, 1.0)) for i in range(40)]
    report = build_report(sessions, METHODS)
    for method in METHODS:
        assert report.stats[method].positives == 0
        assert report.stats[method].direction == "worse"
        assert report.stats[method].significant_at == "p01"


def test_build_report_needs_sessions():
    with pytest.raises(ValueError):
        build_report([], METHODS)
    # rows are keyed by method, so a repeated method would overwrite a row
    with pytest.raises(ValueError, match="distinct"):
        build_report(_cohort_sessions((2, 1, 0), 4), ("kim2004", "kim2004", "neurokit"))


def test_detector_stats_are_the_report_rows():
    sessions = _cohort_sessions((5, 2, 0), 7)
    rows = detector_stats([s.n_raw for s in sessions], [s.n_adapted for s in sessions])
    report = build_report(sessions, METHODS)
    assert rows == [report.stats[m] for m in METHODS]
    assert [r.positives for r in rows] == [5, 2, 0]


def test_build_report_needs_one_count_per_method():
    short = [_session(0, (3, 3), (2, 3), (1.0, 1.0), (1.0, 1.0))]
    with pytest.raises(ValueError, match="one raw and one adapted count per method"):
        build_report(short, METHODS)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def test_report_csv_layout(tmp_path):
    report = build_report(_cohort_sessions((2, 1, 0), 4), METHODS)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,positives,total,percentage,chi2,significant_at,phi,direction"
    assert len(lines) == 1 + len(METHODS) + 2
    kim = lines[1].split(",")
    assert kim[0] == "kim2004" and kim[1] == "2" and kim[2] == "4"
    assert float(kim[3]) == 50.0
    assert lines[4].startswith(MSDV_LONGITUDINAL)
    assert lines[5].startswith(MSDV_ROTATIONAL)


def test_per_session_csv_round_trip(tmp_path):
    rng = np.random.default_rng(63)
    sessions = [
        _session(
            i,
            tuple(int(v) for v in rng.integers(0, 9, 3)),
            tuple(int(v) for v in rng.integers(0, 9, 3)),
            (float(rng.uniform(1, 5)), float(rng.uniform(1, 5))),
            (float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2))),
        )
        for i in range(7)
    ]
    path = tmp_path / "per_session.csv"
    write_per_session_csv(sessions, METHODS, path)
    methods, back = read_per_session_csv(path)
    assert methods == METHODS
    assert back == sessions


def test_per_session_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(FileFormatError, match="empty"):
        read_per_session_csv(path)
    path.write_text("session_id,nothing\n")
    with pytest.raises(FileFormatError, match="header"):
        read_per_session_csv(path)

    good = tmp_path / "good.csv"
    write_per_session_csv(
        [_session(0, (1, 1, 1), (0, 0, 0), (1.0, 0.5), (1.0, 0.5))], METHODS, good
    )
    lines = good.read_text().splitlines()
    (tmp_path / "cols.csv").write_text("\n".join([lines[0], "s000,1,2"]) + "\n")
    with pytest.raises(FileFormatError, match="columns"):
        read_per_session_csv(tmp_path / "cols.csv")
    (tmp_path / "numeric.csv").write_text(
        "\n".join([lines[0], lines[1].replace("1.0", "soon", 1)]) + "\n"
    )
    with pytest.raises(FileFormatError, match="bad numeric"):
        read_per_session_csv(tmp_path / "numeric.csv")
    row = lines[1].split(",")
    for column, value, message in ((1, "-3", "counts must be non-negative"),
                                   (-1, "nan", "MSDV"), (-2, "inf", "MSDV"), (-4, "-0.5", "MSDV")):
        cells = row.copy()
        cells[column] = value
        (tmp_path / "range.csv").write_text("\n".join([lines[0], ",".join(cells)]) + "\n")
        with pytest.raises(FileFormatError, match=message) as excinfo:
            read_per_session_csv(tmp_path / "range.csv")
        assert excinfo.value.line == 2
    (tmp_path / "eof.csv").write_text(lines[0] + "\n")
    with pytest.raises(FileFormatError, match="no sessions"):
        read_per_session_csv(tmp_path / "eof.csv")


def test_msdv_svg_output(tmp_path):
    sessions = _cohort_sessions((2, 1, 3), 5)
    path_a = tmp_path / "a.svg"
    path_b = tmp_path / "b.svg"
    write_msdv_svg(sessions, path_a)
    write_msdv_svg(sessions, path_b)
    svg = path_a.read_text()
    assert path_a.read_bytes() == path_b.read_bytes()  # deterministic
    assert svg.startswith("<svg ")
    assert "MSDV longitudinal" in svg and "MSDV rotational" in svg
    # one raw and one adapted bar per session per panel, plus two legend
    # swatches and the background
    assert svg.count("<rect") == 4 * len(sessions) + 3


def test_msdv_svg_escapes_session_ids(tmp_path):
    sessions = _cohort_sessions((2, 1, 3), 3)
    sessions[0] = dataclasses.replace(sessions[0], session_id="a&b<1")
    sessions[-1] = dataclasses.replace(sessions[-1], session_id="c>d")
    write_msdv_svg(sessions, tmp_path / "msdv.svg")
    root = ET.parse(tmp_path / "msdv.svg").getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts.count("a&b<1 .. c>d") == 2  # one range label per panel


def test_stat_result_is_frozen():
    s = chi_square_phi(3, 4)
    with pytest.raises(AttributeError):
        s.chi2 = 0.0
    assert isinstance(s, StatResult)
    assert isinstance(build_report([_session(0, (1, 1, 1), (0, 0, 0), (1, 0.5), (1, 0.5))], METHODS), Report)
