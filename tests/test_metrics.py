"""MSDV, chi-square / phi statistics, and report plumbing tests."""

import math

import numpy as np
import pytest

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
from edanav.signals import Trace, Unit

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
    assert msdv(Trace(np.zeros(100), 4.0)) == 0.0


def test_msdv_constant_analytic_values():
    # 960 samples at 4 Hz integrate a constant 1 over exactly 240 s
    ones = Trace(np.ones(960), 4.0, Unit.M_PER_S2)
    assert abs(msdv(ones) - math.sqrt(240.0)) < 1e-12
    # constant 2 over 100 s: (4 * 100) ** 0.5 = 20
    twos = Trace(np.full(1000, 2.0), 10.0)
    assert abs(msdv(twos) - 20.0) < 1e-12


def test_msdv_homogeneity():
    rng = np.random.default_rng(60)
    for _ in range(20):
        tr = Trace(rng.normal(0.0, 2.0, 400), 4.0)
        c = float(rng.uniform(-5.0, 5.0))
        if c == 0.0:
            continue
        scaled = Trace(c * tr.samples, tr.rate_hz, tr.unit)
        assert abs(msdv(scaled) - abs(c) * msdv(tr)) <= 1e-9 * (abs(c) * msdv(tr))


def test_msdv_sign_blind():
    x = np.array([1.0, -2.0, 3.0, -4.0])
    assert msdv(Trace(x, 4.0)) == msdv(Trace(np.abs(x), 4.0))


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


def test_stat_result_is_frozen():
    s = chi_square_phi(3, 4)
    with pytest.raises(AttributeError):
        s.chi2 = 0.0
    assert isinstance(s, StatResult)
    assert isinstance(build_report([_session(0, (1, 1, 1), (0, 0, 0), (1, 0.5), (1, 0.5))], METHODS), Report)
