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

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .signals import (
    Trace,
    Unit,
    format_float,
    read_samples_csv,
    read_trace_csv,
    same_rate,
    write_samples_csv,
    write_text_atomic,
    write_trace_csv,
)
from .surrogate import OracleParams, synth_session

SPLITS = ("train", "eval")
# synthetic pulses: the duration band (s) and the least gap between onsets (s)
PULSE_S = (1.0, 3.0)
MIN_GAP_S = 8.0
# the least time (s) before a pulse onset, and after the longest pulse's end
_ONSET_MARGINS_S = (2.0, 4.0)


@dataclass(frozen=True)
class SessionRecord:
    """One session: paired acceleration channels and the EDA they produced.

    ``missing_pulses`` counts the pulses `synth_cohort` drew for the
    session but could not place (`_onset_times`); it is 0 for a session
    read from disk. Two stores keep what the session's replays share, one
    entry each, which the next config or key replaces: ``phasics`` its
    phasic part (`pipeline.session_phasics`), and ``replays`` its row of the
    gain-independent replay state (`optimize.build_contexts`). Neither is
    an argument, and `dataclasses.replace` starts the new record with
    empty ones. None of the three takes part in equality or repr.
    """

    session_id: str
    a_l: Trace
    a_r: Trace
    eda: Trace
    split: str = "train"
    missing_pulses: int = field(default=0, repr=False, compare=False)
    phasics: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    replays: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        n = len(self.a_l)
        if len(self.a_r) != n or len(self.eda) != n:
            raise ValueError(f"session {self.session_id}: traces must share length")
        rate = self.a_l.rate_hz
        if not (same_rate(self.a_r.rate_hz, rate) and same_rate(self.eda.rate_hz, rate)):
            raise ValueError(f"session {self.session_id}: traces must share rate")


def _onset_times(
    rng: np.random.Generator,
    duration_s: float,
    n_pulses: int,
    taken: list[float],
) -> list[float]:
    """Rejection-sample pulse onsets separated from each other and `taken`.

    The shared gap keeps every event's electrodermal response well clear of
    its neighbours on both channels, so each pulse produces one separable
    response. Each onset leaves room for the longest pulse of ``PULSE_S``.
    Gives up after 1000 attempts and returns what it has; `synth_cohort`
    records the shortfall on the session (``missing_pulses``).
    """
    first, last = _ONSET_MARGINS_S
    onsets: list[float] = []
    attempts = 0
    while len(onsets) < n_pulses and attempts < 1000:
        t0 = float(rng.uniform(first, duration_s - PULSE_S[1] - last))
        if all(abs(t0 - t) >= MIN_GAP_S for t in taken) and all(
            abs(t0 - t) >= MIN_GAP_S for t in onsets
        ):
            onsets.append(t0)
        attempts += 1
    return onsets


def _pulse_profile(
    rng: np.random.Generator,
    n: int,
    rate_hz: float,
    groups: list[tuple[list[float], float, float]],
) -> np.ndarray:
    """Rectangular pulses at pre-separated onsets; each group draws its
    amplitudes from its own (onsets, amp_lo, amp_hi) range.

    Resting periods sit at exactly zero, so the rectified stimulus the
    sessions were generated from stays linear in the profile.
    """
    profile = np.zeros(n)
    for onsets, amp_lo, amp_hi in groups:
        for t0 in sorted(onsets):
            dur = float(rng.uniform(*PULSE_S))
            amp = float(rng.uniform(amp_lo, amp_hi))
            i0 = int(round(t0 * rate_hz))
            i1 = min(n, i0 + max(1, int(round(dur * rate_hz))))
            profile[i0:i1] = amp
    return profile


def check_cohort_settings(
    n_sessions: int, duration_s: float, rate_hz: float, train_frac: float
) -> None:
    """Raise ValueError unless `synth_cohort` can make a cohort of these settings.

    ``n_sessions`` must be >= 1, ``duration_s`` and ``rate_hz`` positive and
    finite, their product rounding to >= 2 samples, a finite session with
    room for a pulse onset (`_onset_times`), and ``train_frac`` in [0, 1].
    """
    if n_sessions < 1:
        raise ValueError(f"n_sessions must be >= 1, got {n_sessions!r}")
    for name, value in (("duration_s", duration_s), ("rate_hz", rate_hz)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if not 1.5 <= duration_s * rate_hz < math.inf:  # round() gives >= 2 samples, no overflow
        raise ValueError(f"session length: {duration_s!r} s at {rate_hz!r} Hz must give "
                         "a finite count of at least 2 samples")
    first, last = _ONSET_MARGINS_S
    dur_s = round(duration_s * rate_hz) / rate_hz
    if dur_s - PULSE_S[1] - last < first:
        raise ValueError(f"session duration {dur_s!r} s is below the {first + PULSE_S[1] + last} s "
                         "that a pulse onset and its margins need")
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
    check_cohort_settings(n_sessions, duration_s, rate_hz, train_frac)
    n = int(round(duration_s * rate_hz))
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
        # Each group's count is drawn just before its onsets, and each keeps
        # clear of the groups before it.
        groups, taken, missing = [], [], 0
        for counts in (None, (3, 6), (1, 3), (1, 3), (2, 4)):
            wanted = 1 if counts is None else int(rng.integers(*counts))
            onsets = _onset_times(rng, dur_s, wanted, taken)
            groups.append(onsets)
            taken = taken + onsets
            missing += wanted - len(onsets)
        on_anchor, on_big, on_mid, on_low, on_tiny = groups
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
                missing_pulses=missing,
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
    try:
        return Trace(a_l, rate_hz, unit_l), Trace(a_r, rate_hz, unit_r)
    except ValueError as exc:  # a value the traces reject
        raise FileFormatError(path, str(exc)) from None


def _session_id_problem(session_id: str, seen) -> str | None:
    """Why ``session_id`` cannot name a session beside the ids in ``seen``, or None.

    An id is one plain path component that fits in one manifest cell: not
    empty, ``.`` or ``..``, with no ``/``, ``\\``, comma or line break, and
    listed once.
    """
    if (session_id in ("", ".", "..") or any(c in session_id for c in "/\\,")
            or session_id.splitlines() != [session_id]):
        return f"session id {session_id!r} is not a plain name"
    if session_id in seen:
        return f"duplicate session id {session_id!r}"
    return None


def save_dataset(records: list[SessionRecord], directory) -> None:
    """Write sessions and the manifest under ``directory``.

    Every session id is checked first, with `load_dataset`'s rule, so a
    ValueError leaves nothing written. Each file is written with
    `write_text_atomic`; the directory itself is not staged, so a failure
    part-way leaves the files written so far.
    """
    seen: set[str] = set()
    for rec in records:
        problem = _session_id_problem(rec.session_id, seen)
        if problem:
            raise ValueError(problem)
        seen.add(rec.session_id)
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
    ``\\``) listed once (`_session_id_problem`, which `save_dataset` also
    applies). Only the files of sessions whose split is in
    ``splits`` are opened; they are returned in manifest order, so a
    selection no row falls in returns ``[]``.

    Raises
    ------
    FileNotFoundError
        If the manifest, or a selected session's file, is missing.
    FileFormatError
        If the manifest lists no sessions, a row is malformed, a selected
        session's file is, or its ``accel.csv`` and ``eda.csv`` differ in
        length or rate.
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
        problem = _session_id_problem(session_id, rows)
        if problem:
            raise FileFormatError(manifest_path, problem, lineno)
        rows[session_id] = split
    if not rows:
        raise FileFormatError(manifest_path, "manifest lists no sessions")
    records = []
    for session_id, split in rows.items():
        if split not in splits:
            continue
        accel_path = directory / session_id / "accel.csv"
        eda_path = accel_path.with_name("eda.csv")
        a_l, a_r = _read_accel_csv(accel_path)
        eda = read_trace_csv(eda_path)
        try:
            records.append(SessionRecord(session_id, a_l, a_r, eda, split))
        except ValueError as exc:  # the two files differ in length or rate
            raise FileFormatError(accel_path, f"{exc} with {eda_path}") from None
    return records
