"""Session records, synthetic cohort generation, and the dataset disk layout.

A dataset directory holds one sub-directory per session::

    <dir>/manifest.csv      id,split rows (split is train or eval; each id
                            a plain directory name, listed once)
    <dir>/<id>/accel.csv    # rate_hz=<r> unit_a_l=m_per_s2 unit_a_r=rad_per_s2
                            t_s,a_l,a_r
    <dir>/<id>/eda.csv      trace CSV (microsiemens)

Synthetic sessions use sparse non-negative rectangular acceleration
pulses per channel (random count, onset, duration, amplitude) pushed
through the Bateman oracle; resting acceleration is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .signals import (
    Trace,
    Unit,
    format_float,
    read_samples_csv,
    read_trace_csv,
    write_samples_csv,
    write_text_atomic,
    write_trace_csv,
)
from .surrogate import OracleParams, synth_session

SPLITS = ("train", "eval")


@dataclass(frozen=True)
class SessionRecord:
    """One session: paired acceleration channels and the EDA they produced."""

    session_id: str
    a_l: Trace
    a_r: Trace
    eda: Trace
    split: str = "train"

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        n = len(self.a_l)
        if len(self.a_r) != n or len(self.eda) != n:
            raise ValueError(f"session {self.session_id}: traces must share length")
        if not (self.a_l.rate_hz == self.a_r.rate_hz == self.eda.rate_hz):
            raise ValueError(f"session {self.session_id}: traces must share rate")


def _onset_times(
    rng: np.random.Generator,
    duration_s: float,
    n_pulses: int,
    taken: list[float],
    dur_hi_s: float = 3.0,
    min_gap_s: float = 8.0,
) -> list[float]:
    """Rejection-sample pulse onsets separated from each other and `taken`.

    The shared gap keeps every event's electrodermal response well clear of
    its neighbours on both channels, so each pulse produces one separable
    response. Gives up after 1000 attempts and returns what it has.
    """
    onsets: list[float] = []
    attempts = 0
    while len(onsets) < n_pulses and attempts < 1000:
        t0 = float(rng.uniform(2.0, duration_s - dur_hi_s - 4.0))
        if all(abs(t0 - t) >= min_gap_s for t in taken) and all(
            abs(t0 - t) >= min_gap_s for t in onsets
        ):
            onsets.append(t0)
        attempts += 1
    return onsets


def _pulse_profile(
    rng: np.random.Generator,
    n: int,
    rate_hz: float,
    groups: list[tuple[list[float], float, float]],
    dur_lo_s: float = 1.0,
    dur_hi_s: float = 3.0,
) -> np.ndarray:
    """Rectangular pulses at pre-separated onsets; each group draws its
    amplitudes from its own (onsets, amp_lo, amp_hi) range.

    Resting periods sit at exactly zero, so the rectified stimulus the
    sessions were generated from stays linear in the profile.
    """
    profile = np.zeros(n)
    for onsets, amp_lo, amp_hi in groups:
        for t0 in sorted(onsets):
            dur = float(rng.uniform(dur_lo_s, dur_hi_s))
            amp = float(rng.uniform(amp_lo, amp_hi))
            i0 = int(round(t0 * rate_hz))
            i1 = min(n, i0 + max(1, int(round(dur * rate_hz))))
            profile[i0:i1] = amp
    return profile


def check_cohort_settings(n_sessions: int, train_frac: float) -> None:
    """Raise ValueError unless ``n_sessions`` >= 1 and ``train_frac`` lies in [0, 1]."""
    if n_sessions < 1:
        raise ValueError(f"n_sessions must be >= 1, got {n_sessions!r}")
    if not 0.0 <= train_frac <= 1.0:
        raise ValueError(f"train_frac must be in [0, 1], got {train_frac!r}")


def synth_cohort(
    n_sessions: int,
    duration_s: float,
    rate_hz: float,
    oracle: OracleParams = OracleParams(),
    seed: int = 0,
    train_frac: float = 0.75,
) -> list[SessionRecord]:
    """Generate a deterministic cohort of synthetic sessions.

    Per-session randomness derives from spawned child seeds of ``seed``;
    the oracle's noise seed is drawn from the same child, so the whole
    cohort is a pure function of (seed, parameters). The first
    round(train_frac * n) sessions are the train split.
    """
    check_cohort_settings(n_sessions, train_frac)
    n = int(round(duration_s * rate_hz))
    if n < 2:
        raise ValueError("session too short")
    n_train = int(round(train_frac * n_sessions))
    children = np.random.SeedSequence(seed).spawn(n_sessions)
    records = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        dur_s = n / rate_hz
        # Longitudinal: one near-top anchor pulse plus a few strong ones, so
        # every session spans most of the dynamic range. Rotational events
        # enter the stimulus at half weight; their three amplitude bands fill
        # out the small and middle of the response distribution.
        on_anchor = _onset_times(rng, dur_s, 1, [])
        on_big = _onset_times(rng, dur_s, int(rng.integers(3, 6)), on_anchor)
        taken = on_anchor + on_big
        on_mid = _onset_times(rng, dur_s, int(rng.integers(1, 3)), taken)
        taken += on_mid
        on_low = _onset_times(rng, dur_s, int(rng.integers(1, 3)), taken)
        taken += on_low
        on_tiny = _onset_times(rng, dur_s, int(rng.integers(2, 4)), taken)
        a_l = Trace(
            _pulse_profile(rng, n, rate_hz, [(on_anchor, 4.0, 4.5), (on_big, 1.5, 4.0)]),
            rate_hz,
            Unit.M_PER_S2,
        )
        a_r = Trace(
            _pulse_profile(
                rng,
                n,
                rate_hz,
                [(on_mid, 1.2, 1.6), (on_low, 0.6, 0.9), (on_tiny, 0.165, 0.24)],
            ),
            rate_hz,
            Unit.RAD_PER_S2,
        )
        oracle_i = replace(oracle, seed=int(rng.integers(0, 2**31 - 1)))
        eda = synth_session(a_l, a_r, oracle_i)
        records.append(
            SessionRecord(
                session_id=f"s{i:03d}",
                a_l=a_l,
                a_r=a_r,
                eda=eda,
                split="train" if i < n_train else "eval",
            )
        )
    return records


# ---------------------------------------------------------------------------
# Disk layout.
# ---------------------------------------------------------------------------

def _write_accel_csv(a_l: Trace, a_r: Trace, path: Path) -> None:
    meta = {"rate_hz": format_float(a_l.rate_hz), "unit_a_l": a_l.unit.value,
            "unit_a_r": a_r.unit.value}
    write_samples_csv(path, meta, a_l.rate_hz, {"a_l": a_l.samples, "a_r": a_r.samples})


def _read_accel_csv(path: Path) -> tuple[Trace, Trace]:
    rate_hz, (unit_l, unit_r), (a_l, a_r) = read_samples_csv(
        path, "acceleration", ("unit_a_l", "unit_a_r"), ("a_l", "a_r")
    )
    return Trace(a_l, rate_hz, unit_l), Trace(a_r, rate_hz, unit_r)


def save_dataset(records: list[SessionRecord], directory) -> None:
    """Write sessions and the manifest under ``directory``.

    Each file is written with `write_text_atomic`; the directory itself is
    not staged, so a failure part-way leaves the files written so far.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = ["id,split"]
    for rec in records:
        manifest.append(f"{rec.session_id},{rec.split}")
        session_dir = directory / rec.session_id
        session_dir.mkdir(exist_ok=True)
        _write_accel_csv(rec.a_l, rec.a_r, session_dir / "accel.csv")
        write_trace_csv(rec.eda, session_dir / "eda.csv")
    write_text_atomic(directory / "manifest.csv", "\n".join(manifest) + "\n")


def load_dataset(directory, splits=SPLITS) -> list[SessionRecord]:
    """Read the sessions of ``splits`` from a dataset written by `save_dataset`.

    The whole manifest is checked whatever ``splits`` holds: its header,
    each row's ``id,split`` shape and split name, and each id, which must
    be one plain path component (not empty, ``.`` or ``..``, no ``/`` or
    ``\\``) listed once. Only the files of sessions whose split is in
    ``splits`` are opened; they are returned in manifest order, so a
    selection no row falls in returns ``[]``.

    Raises
    ------
    FileNotFoundError
        If the manifest, or a selected session's file, is missing.
    FileFormatError
        If the manifest lists no sessions, a row is malformed, or a
        selected session's file is.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.csv"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no manifest at {manifest_path}")
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "id,split":
        raise FileFormatError(manifest_path, "expected header 'id,split'", 1)
    rows = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FileFormatError(manifest_path, "expected 'id,split'", lineno)
        session_id, split = parts
        if split not in SPLITS:
            raise FileFormatError(manifest_path, f"unknown split {split!r}", lineno)
        if session_id in ("", ".", "..") or "/" in session_id or "\\" in session_id:
            raise FileFormatError(
                manifest_path, f"session id {session_id!r} is not a plain name", lineno
            )
        if session_id in rows:
            raise FileFormatError(manifest_path, f"duplicate session id {session_id!r}", lineno)
        rows[session_id] = split
    if not rows:
        raise FileFormatError(manifest_path, "manifest lists no sessions")
    records = []
    for session_id, split in rows.items():
        if split not in splits:
            continue
        session_dir = directory / session_id
        a_l, a_r = _read_accel_csv(session_dir / "accel.csv")
        eda = read_trace_csv(session_dir / "eda.csv")
        records.append(SessionRecord(session_id, a_l, a_r, eda, split))
    return records
