"""Cybersickness metrics and cohort-level statistics.

MSDV is the motion-sickness dose value of an acceleration trace, the
square root of its time-integrated square: (sum a_i^2 * dt)^(1/2) with the
rectangle rule.

Cohort outcomes are scored against a 50/50 null: out of ``total``
sessions, ``positives`` improved under adaptation. The chi-square value
against that null, the phi effect size, and a significance bucket from
the usual 1-dof critical values are bundled in `StatResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .signals import Trace, format_float, write_text_atomic

CHI2_CRITICAL_P05 = 3.841
CHI2_CRITICAL_P01 = 6.635

MSDV_LONGITUDINAL = "msdv_longitudinal"
MSDV_ROTATIONAL = "msdv_rotational"


def msdv(trace: Trace) -> float:
    """Motion-sickness dose value, (sum a^2 dt)^(1/2)."""
    dt = 1.0 / trace.rate_hz
    total = float(np.sum(np.abs(trace.samples) ** 2) * dt)
    return total ** 0.5


@dataclass(frozen=True)
class StatResult:
    """Chi-square test of ``positives`` out of ``total`` against a 50/50 null."""

    positives: int
    total: int
    chi2: float
    phi: float
    significant_at: str  # "p01", "p05", or "none"
    direction: str  # "improved", "worse", or "even"

    @property
    def percentage(self) -> float:
        return 100.0 * self.positives / self.total


def chi_square_phi(positives: int, total: int) -> StatResult:
    """Score ``positives`` improved sessions out of ``total`` against 50/50."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= positives <= total:
        raise ValueError(f"positives must be in [0, {total}], got {positives}")
    expected = total / 2.0
    negatives = total - positives
    chi2 = (positives - expected) ** 2 / expected + (negatives - expected) ** 2 / expected
    phi = math.sqrt(chi2 / total)
    if chi2 >= CHI2_CRITICAL_P01:
        significant_at = "p01"
    elif chi2 >= CHI2_CRITICAL_P05:
        significant_at = "p05"
    else:
        significant_at = "none"
    if positives * 2 > total:
        direction = "improved"
    elif positives * 2 < total:
        direction = "worse"
    else:
        direction = "even"
    return StatResult(positives, total, chi2, phi, significant_at, direction)


# ---------------------------------------------------------------------------
# Per-session stats and cohort reports.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionStats:
    """The per-session numbers a report needs (no traces attached).

    ``n_raw``/``n_adapted``/``n_recorded`` are per-detector event counts in
    detector order; the msdv pairs are (raw, adapted).
    """

    session_id: str
    n_raw: tuple[int, ...]
    n_adapted: tuple[int, ...]
    n_recorded: tuple[int, ...]
    msdv_l: tuple[float, float]
    msdv_r: tuple[float, float]


@dataclass(frozen=True)
class Report:
    """Cohort outcome: one StatResult per detector plus the two MSDV rows."""

    methods: tuple[str, ...]
    stats: dict[str, StatResult]


def detector_stats(n_raw, n_adapted) -> list[StatResult]:
    """One `chi_square_phi` row per detector (column) of the [sessions,
    detectors] event counts: a session improved when its raw count
    strictly exceeds the adapted one."""
    improved = np.asarray(n_raw) > np.asarray(n_adapted)
    return [chi_square_phi(int(p), improved.shape[0]) for p in improved.sum(axis=0)]


def build_report(sessions, methods) -> Report:
    """Aggregate per-session outcomes into chi-square rows.

    A session counts as improved for a detector when its raw-condition
    event count strictly exceeds the adapted one, and for an MSDV row
    when the dose value strictly decreased.
    """
    sessions = tuple(sessions)
    methods = tuple(methods)
    if not sessions:
        raise ValueError("report needs at least one session")
    if len(set(methods)) != len(methods):
        raise ValueError(f"detector methods must be distinct, got {methods}")
    total = len(sessions)
    if any(len(s.n_raw) != len(methods) or len(s.n_adapted) != len(methods) for s in sessions):
        raise ValueError(f"every session needs one raw and one adapted count per method {methods}")
    stats = dict(zip(methods, detector_stats([s.n_raw for s in sessions],
                                             [s.n_adapted for s in sessions])))
    for key, idx in ((MSDV_LONGITUDINAL, "msdv_l"), (MSDV_ROTATIONAL, "msdv_r")):
        positives = sum(1 for s in sessions if getattr(s, idx)[1] < getattr(s, idx)[0])
        stats[key] = chi_square_phi(positives, total)
    return Report(methods, stats)


REPORT_HEADER = "method,positives,total,percentage,chi2,significant_at,phi,direction"


def write_report_csv(report: Report, path) -> None:
    lines = [REPORT_HEADER]
    for method in (*report.methods, MSDV_LONGITUDINAL, MSDV_ROTATIONAL):
        s = report.stats[method]
        lines.append(
            ",".join(
                (
                    method,
                    str(s.positives),
                    str(s.total),
                    format_float(s.percentage),
                    format_float(s.chi2),
                    s.significant_at,
                    format_float(s.phi),
                    s.direction,
                )
            )
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def _per_session_header(methods) -> str:
    cols = ["session_id"]
    for prefix in ("n_recorded", "n_raw", "n_adapted"):
        cols.extend(f"{prefix}_{m}" for m in methods)
    cols.extend(["msdv_raw_l", "msdv_adapted_l", "msdv_raw_r", "msdv_adapted_r"])
    return ",".join(cols)


def write_per_session_csv(sessions, methods, path) -> None:
    lines = [_per_session_header(methods)]
    for s in sessions:
        row = [s.session_id]
        row.extend(str(c) for c in s.n_recorded)
        row.extend(str(c) for c in s.n_raw)
        row.extend(str(c) for c in s.n_adapted)
        row.extend(
            format_float(v)
            for v in (s.msdv_l[0], s.msdv_l[1], s.msdv_r[0], s.msdv_r[1])
        )
        lines.append(",".join(row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_per_session_csv(path) -> tuple[tuple[str, ...], list[SessionStats]]:
    """Load per-session stats back; returns (methods, sessions)."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FileFormatError(path, "empty per-session file")
    cols = lines[0].split(",")
    methods = tuple(c[len("n_recorded_"):] for c in cols if c.startswith("n_recorded_"))
    if not methods or cols != _per_session_header(methods).split(","):
        raise FileFormatError(path, "unexpected per-session header", 1)
    k = len(methods)
    sessions = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 1 + 3 * k + 4:
            raise FileFormatError(path, f"expected {1 + 3 * k + 4} columns", lineno)
        try:
            counts = [int(v) for v in parts[1 : 1 + 3 * k]]
            m = [float(v) for v in parts[1 + 3 * k :]]
        except ValueError:
            raise FileFormatError(path, "bad numeric value", lineno) from None
        sessions.append(
            SessionStats(
                session_id=parts[0],
                n_recorded=tuple(counts[:k]),
                n_raw=tuple(counts[k : 2 * k]),
                n_adapted=tuple(counts[2 * k :]),
                msdv_l=(m[0], m[1]),
                msdv_r=(m[2], m[3]),
            )
        )
    if not sessions:
        raise FileFormatError(path, "per-session file lists no sessions")
    return methods, sessions


# ---------------------------------------------------------------------------
# MSDV bar chart (self-contained SVG, deterministic output).
# ---------------------------------------------------------------------------

_SVG_COLORS = {"raw": "#9aa0a6", "adapted": "#4a7fb5"}


def write_msdv_svg(sessions, path) -> None:
    """Grouped raw-vs-adapted MSDV bars, one panel per channel."""
    sessions = tuple(sessions)
    bar_w, gap, left, top = 9, 8, 58, 34
    panel_h, panel_gap, bottom = 150, 46, 30
    n = len(sessions)
    width = left + n * (2 * bar_w + gap) + 20
    height = top + 2 * panel_h + panel_gap + bottom
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    panels = (
        ("longitudinal (m/s^1.5)", [s.msdv_l for s in sessions]),
        ("rotational (rad/s^1.5)", [s.msdv_r for s in sessions]),
    )
    for p, (label, pairs) in enumerate(panels):
        y0 = top + p * (panel_h + panel_gap)
        vmax = max(max(raw, adapted) for raw, adapted in pairs)
        scale = panel_h / vmax if vmax > 0 else 0.0
        out.append(f'<text x="{left}" y="{y0 - 8}" font-weight="bold">MSDV {label}</text>')
        out.append(
            f'<line x1="{left - 4}" y1="{y0 + panel_h}" x2="{width - 12}" '
            f'y2="{y0 + panel_h}" stroke="#444" stroke-width="1"/>'
        )
        out.append(f'<text x="4" y="{y0 + 10}">{vmax:.2f}</text>')
        for i, (raw, adapted) in enumerate(pairs):
            x = left + i * (2 * bar_w + gap)
            for j, (value, kind) in enumerate(((raw, "raw"), (adapted, "adapted"))):
                h = value * scale
                out.append(
                    f'<rect x="{x + j * bar_w}" y="{y0 + panel_h - h:.2f}" '
                    f'width="{bar_w}" height="{h:.2f}" fill="{_SVG_COLORS[kind]}"/>'
                )
        out.append(
            f'<text x="{left}" y="{y0 + panel_h + 14}" font-size="9">'
            f"{sessions[0].session_id} .. {sessions[-1].session_id}</text>"
        )
    legend_y = height - 10
    out.append(
        f'<rect x="{left}" y="{legend_y - 9}" width="10" height="10" fill="{_SVG_COLORS["raw"]}"/>'
        f'<text x="{left + 14}" y="{legend_y}">raw</text>'
        f'<rect x="{left + 60}" y="{legend_y - 9}" width="10" height="10" '
        f'fill="{_SVG_COLORS["adapted"]}"/>'
        f'<text x="{left + 74}" y="{legend_y}">adapted</text>'
    )
    out.append("</svg>")
    write_text_atomic(path, "\n".join(out) + "\n")
