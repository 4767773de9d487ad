"""Session replay, the P_pn objective, and gain search.

Every evaluation takes one path: `build_contexts` groups the sessions by
length and rate and gives each `SessionGroup` its gain-independent state
(the PID terms fed back from the recorded phasic, the raw counts), which
each record keeps as it keeps its phasic, so an evaluation after a search
on the same records recomputes none of it; `_simulate` replays the groups
under a block of gain sets and counts the events of each prediction.
`evaluate_sessions` runs a block of one and keeps each session's report row,
a `metrics.SessionStats`, with a group's raw and adapted MSDVs taken in one
`metrics.msdv` reduction; a search trial scores the counts alone with
`metrics.detector_stats`, the detector rows of `metrics.build_report`.
Sessions of one length are replayed, predicted and counted together in both
modes, with the bits of one session on its own: offline mode adapts them
against the recorded feedback in one `apply_gains` call and predicts them
in one `predict_sessions` call per gain set; closed-loop mode replays them
clip by clip under every gain set of the block, one step for all of them
(`_replay_clips`). One `count_events` call per length and gain set then
counts their events, so a search holds one trial's detector tables at a
time.
``n_raw`` counts events on the surrogate's offline prediction (stride 1)
for the unmodified acceleration, ``n_adapted`` on its prediction for the
adapted acceleration. Offline, both go through the identical pipeline and
zero gains give identical counts. Closed loop, they do not: the adapted
prediction there is made at stride L from windows whose future third holds
the newest sample, so zero gains can still change the counts (the first
acceptance eval session gives n_raw (7, 10, 5) and n_adapted (8, 80, 5)).
``n_recorded`` (events on the recorded, decomposed phasic) is reported
only: `evaluate_sessions` counts it, a search never does.

The objective P_pn sums, over detectors, the report's percentage of
sessions whose adapted event count dropped below the raw one; its range is
[0, 100 * n_detectors]. The optimizer is a seeded two-phase random search:
uniform exploration over the gain ranges, then Gaussian sampling around the
incumbent with the step size halved after every ``halve_after``
consecutive non-improving trials. Both phases hand `_simulate` blocks of up
to k = max(1, ``ROWS`` // m) trials, m the largest group of equal-length
sessions (closed loop replays a block in one clip loop), and record them in
index order. A phase-one block is one ``rng.uniform`` draw of shape [k, 11],
which gives the same doubles in the same order as k one-row draws. Phase
two is speculative: a Gaussian step does not depend on the incumbent, so a
block takes the next k steps and builds every candidate as if none of the
block's trials improves, the step size following the halving rule across
the block. At the first trial that strictly improves, the rest of the block
is dropped unrecorded and its steps, drawn but unused, lead the next block
around the new incumbent. Every step is drawn once, in order, and no
further than the budget, so each trial is the one a search of one trial at
a time gives; a dropped closed-loop trial costs its share of the block's
replay, a dropped offline one nothing past its candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .control import (
    DEFAULT_INTEGRAL_CLAMP,
    GAIN_KEYS,
    AccelLimits,
    PidGains,
    PidTerms,
    adapted_accel,
    apply_gains,
    clamped_sum,
    pid_law,
    pid_outputs,
    pid_terms,
)
from .metrics import SessionStats, detector_stats, msdv
from .scr import count_events, default_detectors
from .pipeline import check_model_rate, length_groups, session_phasics
from .signals import DecompositionConfig, format_float, write_text_atomic
from .surrogate import SurrogateModel, predict_rows, predict_sessions

MODES = ("offline", "closed_loop")
# rows of one closed-loop clip step: phase one of a search replays
# max(1, ROWS // m) trials at once, m the largest group of equal-length sessions
ROWS = 64


@dataclass(frozen=True, eq=False)
class SessionGroup:
    """The sessions of one sample count and rate and their gain-independent state.

    ``terms`` is the controller's PID state over the m sessions [m, ...],
    fed back from ``recorded``, the decomposed phasic in the model's
    normalized scale, clipped to [0, 1]; offline mode uses all of it,
    closed-loop mode its acceleration rows. The PID state and raw counts do
    not change across trials: a search computes them once, and each record
    keeps its row (`build_contexts`). Groups compare by identity.
    """

    members: list[int]  # positions in the input record list
    terms: PidTerms  # [m, ...]
    n_raw: np.ndarray  # [m, n_detectors]
    recorded: np.ndarray  # [m, n]; only `evaluate_sessions` counts its events (n_recorded)


@dataclass(frozen=True)
class SimulationResult:
    """One simulated session's report row."""

    stats: SessionStats


def build_contexts(records, model, detectors, decomposition, integral_clamp) -> list[SessionGroup]:
    """One `SessionGroup` per `length_groups` group, in order of first appearance.

    Each group's members keep their input order. A record keeps its row of
    one fill in its ``replays`` store, under the key (model, detectors,
    decomposition, integral_clamp). A group whose records hold rows 0..m-1
    of one fill under the key, in that order, takes that fill; any other is
    filled again, by one `pid_terms`, `predict_sessions` and `count_events`
    call (``recorded`` is left for `evaluate_sessions` to count), and the
    new fill replaces whatever its records held. The records that lack the
    key are decomposed first, so a short one raises before any is stored.
    """
    check_model_rate(records, model)
    key = (model, tuple(detectors), decomposition, integral_clamp)
    session_phasics([r for r in records if key not in r.replays], decomposition)
    groups = []
    for members in length_groups(records):
        group = [records[i] for i in members]
        stored = [r.replays.get(key) for r in group]
        fill = stored[0] and stored[0][0]
        if not fill or stored != [(fill, row) for row in range(len(fill.members))]:  # by identity
            phasics = session_phasics(group, decomposition)
            recorded = np.stack([model.norm.phasic.apply(p.samples) for p in phasics])
            accel = np.stack([(r.a_l.samples, r.a_r.samples) for r in group])
            terms = pid_terms(accel[:, 0], accel[:, 1], np.clip(recorded, 0.0, 1.0),
                              model.rate_hz, integral_clamp)
            n_raw = count_events(predict_sessions(model, accel), model.rate_hz, detectors)
            fill = SessionGroup(members, terms, n_raw, recorded)
            for row, record in enumerate(group):
                record.replays.clear()
                record.replays[key] = (fill, row)
        groups.append(replace(fill, members=members))
    return groups


def _replay_clips(
    terms: PidTerms, model: SurrogateModel, gains: np.ndarray, limits: AccelLimits
) -> tuple[np.ndarray, np.ndarray]:
    """Clip-granular loop over the m sessions of ``terms`` under each of B gain sets [B, 11].

    Returns adapted [B, m, 2, n] and predictions [B, m, n // L * L].

    The controller holds f at the last predicted sample of clip k-1 while
    adapting clip k; the model then predicts clip k from a window of
    [adapted clip k-1 | adapted clip k | hold of the newest sample], the
    future third being unknowable mid-run; the first clip's past is 0.0
    after scaling, the zero padding the model was trained with. Samples
    past the last full clip are adapted under the final hold but stay
    unpredicted, matching the offline prediction span. The acceleration
    channels see only the recording, so their PID outputs come from the
    session terms.

    Each step adapts and predicts clip k of all B * m replays at once, one
    row per (gain set, session), trial-major, each row carrying its own
    gain columns; every row gets the float operations of one
    sample-by-sample session replay under its own gains: the phasic error
    0 - hold is constant within a clip, one step of one sign, so its
    integral is one `clamped_sum` from the previous clip's last value; the
    error difference is 0.0 past the clip's first sample; and
    `predict_rows` predicts each row as on its own.
    """
    m, _, n = terms.accel.shape
    n_sets = len(gains)
    R = n_sets * m
    L = model.L
    covered = n // L * L
    dt, clamp = terms.dt, terms.integral_clamp
    row_gains = np.repeat(gains, m, axis=0)  # [R, 11]
    k_f = row_gains[:, 6:9]  # the phasic channel's (K_Pf, K_If, K_Df)
    base = (terms.accel + pid_outputs(terms, gains[:, None], channels=2)).reshape(R, 2, n)
    bound = limits.bound
    out = np.empty((R, 2, n))
    integral = prev_error = np.zeros((R, 1))

    def adapt(first: int, last: int, hold: np.ndarray) -> None:
        nonlocal integral, prev_error
        error = 0.0 - hold
        running = clamped_sum(integral, error * dt, last - first, clamp)
        delta = np.zeros_like(running)
        delta[:, :1] = error - prev_error
        psi_f = pid_law(k_f, error, running, delta, dt)
        out[:, :, first:last] = adapted_accel(base[:, :, first:last], psi_f[:, None],
                                              row_gains, bound)
        integral, prev_error = running[:, -1:], error

    rows = np.empty((R, 6 * L + 1))
    rows[:, -1] = 1.0
    window = rows[:, :-1].reshape(R, 2, 3 * L)
    window[:, :, L : 2 * L] = 0.0  # moves to the first clip's past
    preds = np.empty((R, covered))
    hold = np.zeros((R, 1))
    for first in range(0, covered, L):
        last = first + L
        adapt(first, last, hold)
        window[:, :, :L] = window[:, :, L : 2 * L]
        window[:, :, L : 2 * L] = model.norm.accel(out[:, :, first:last])
        window[:, :, 2 * L :] = window[:, :, 2 * L - 1 : 2 * L]
        preds[:, first:last] = predict_rows(model, rows)
        hold = preds[:, last - 1 : last]
    if covered < n:
        adapt(covered, n, hold)
    return out.reshape(n_sets, m, 2, n), preds.reshape(n_sets, m, covered)


def _simulate(
    groups: list[SessionGroup],
    gains: np.ndarray,
    model: SurrogateModel,
    detectors,
    mode: str,
    limits: AccelLimits,
):
    """Replay every group (from `build_contexts`) under each gain set of ``gains`` [B, 11].

    Yields, for each gain set in block order, one (adapted [m, 2, n],
    predictions [m, length], n_adapted [m, n_detectors]) per group. The
    sessions of a group replay, predict and count together. Closed loop,
    one `_replay_clips` call replays a group under the whole block, one
    clip step per clip. Offline, each gain set runs through one
    `apply_gains` and one `predict_sessions` call of its own: an offline
    trial is bound by flops and memory, not by numpy calls. Either way each
    gain set's sessions are counted by one `count_events` call, so a caller
    that keeps only the counts holds one trial's detector tables at a time.
    A caller may stop early: the gain sets it does not reach are never
    counted, nor, offline, replayed.
    """
    if mode == "closed_loop":
        replays = [_replay_clips(g.terms, model, gains, limits) for g in groups]
    for b, x in enumerate(gains):
        sims = []
        for j, g in enumerate(groups):
            if mode == "offline":
                adapted = apply_gains(g.terms, x, limits)
                preds = predict_sessions(model, adapted)
            else:
                adapted, preds = replays[j][0][b], replays[j][1][b]
            sims.append((adapted, preds, count_events(preds, model.rate_hz, detectors)))
        yield sims


def evaluate_sessions(
    records,
    gains: PidGains,
    model: SurrogateModel,
    mode: str = "offline",
    detectors=default_detectors(),
    limits: AccelLimits = AccelLimits(),
    integral_clamp: float = DEFAULT_INTEGRAL_CLAMP,
    decomposition: DecompositionConfig = DecompositionConfig(),
) -> list[SimulationResult]:
    """Replay each session under ``gains`` and score it with the surrogate."""
    check_search_settings(mode=mode)
    records = list(records)
    groups = build_contexts(records, model, detectors, decomposition, integral_clamp)
    results: list = [None] * len(records)
    [sims] = _simulate(groups, gains.as_array()[None], model, detectors, mode, limits)
    model_dt = 1.0 / model.rate_hz
    for g, (adapted, _, n_adapted) in zip(groups, sims):
        n_recorded = count_events(g.recorded, model.rate_hz, detectors)
        group = [records[i] for i in g.members]
        # a raw dose integrates over its own trace's rate, an adapted one over the model's
        dt = [[[1.0 / r.a_l.rate_hz, 1.0 / r.a_r.rate_hz] for r in group],
              [[model_dt, model_dt]] * len(group)]
        raw, new = msdv(np.stack([g.terms.accel, adapted]), np.array(dt)).tolist()
        for row, (i, record) in enumerate(zip(g.members, group)):
            results[i] = SimulationResult(SessionStats(
                session_id=record.session_id,
                n_raw=tuple(g.n_raw[row].tolist()),
                n_adapted=tuple(n_adapted[row].tolist()),
                n_recorded=tuple(n_recorded[row].tolist()),
                msdv_l=(raw[row][0], new[row][0]),
                msdv_r=(raw[row][1], new[row][1]),
            ))
    return results


# ---------------------------------------------------------------------------
# Gain search.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainRanges:
    """Per-gain search box, aligned with GAIN_KEYS order; the default is the
    acceptance criteria's box (README, "A note on the search box")."""

    lo: np.ndarray = (0.0,) * 11
    hi: np.ndarray = (0.5, 0.02, 0.05, 0.5, 0.005, 0.005, 0.5, 0.5, 0.5, 0.01, 0.01)

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != (len(GAIN_KEYS),) or hi.shape != (len(GAIN_KEYS),):
            raise ValueError(f"ranges must have {len(GAIN_KEYS)} entries")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("ranges must be finite")
        bad = np.nonzero(hi < lo)[0]
        if bad.size:
            raise ValueError(f"empty range for {GAIN_KEYS[bad[0]]}")
        if np.any(lo < 0):
            raise ValueError("gain ranges must be non-negative")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


# search setting -> (accepts the value, the rule it must satisfy)
_SEARCH_RULES = {
    "budget": (lambda v: v >= 1, "must be >= 1"),
    "mode": (lambda v: v in MODES, f"must be one of {MODES}"),
    "explore_frac": (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    "sigma_scale": (lambda v: 0.0 < v < math.inf, "must be positive and finite"),
    "halve_after": (lambda v: v >= 1, "must be >= 1"),
    "workers": (lambda v: v >= 1, "must be >= 1"),
}


def check_search_settings(**settings) -> None:
    """Raise ValueError for the first of ``settings`` outside its range.

    The names are `optimize`'s keywords budget, mode, explore_frac,
    sigma_scale, halve_after and workers; any subset may be given.
    """
    for name, value in settings.items():
        accepts, rule = _SEARCH_RULES[name]
        if not accepts(value):
            raise ValueError(f"{name} {rule}, got {value!r}")


@dataclass(frozen=True)
class Trial:
    index: int
    gains: PidGains
    objective: float
    percentages: tuple[float, ...]


@dataclass(frozen=True)
class OptimizeResult:
    best: Trial
    trials: tuple[Trial, ...]
    methods: tuple[str, ...]


def optimize(
    records,
    model: SurrogateModel,
    budget: int,
    seed: int = 0,
    ranges: GainRanges = GainRanges(),
    detectors=default_detectors(),
    mode: str = "offline",
    explore_frac: float = 0.6,
    sigma_scale: float = 0.2,
    halve_after: int = 10,
    workers: int = 1,
    limits: AccelLimits = AccelLimits(),
    integral_clamp: float = DEFAULT_INTEGRAL_CLAMP,
    decomposition: DecompositionConfig = DecompositionConfig(),
) -> OptimizeResult:
    """Two-phase random search for gains maximizing P_pn.

    Phase one draws max(1, round(budget * explore_frac)) uniform samples
    from the ranges; phase two samples Gaussians centred on the incumbent
    with per-gain sigma = sigma_scale * range width, clipped back into the
    box. Strict improvement moves the incumbent (ties keep the earliest),
    and sigma halves after ``halve_after`` consecutive phase-two trials
    without improvement. Each trial's percentages are those of
    `metrics.detector_stats` over the replayed sessions' raw and adapted
    counts, and its objective is their sum. Results are fully deterministic for a given seed.
    Trials run in blocks of up to max(1, ``ROWS`` // m), m the largest group of
    equal-length sessions; a phase-two block is built as if none of its
    trials improves and is cut after the first that does (the module
    docstring has the rule). The blocks leave every draw, its order and
    every score as one trial at a time would give them.
    ``workers`` must be >= 1 and has no effect: every trial runs in the
    calling thread. `check_search_settings` holds the bounds of every
    setting; the keyword defaults here are also the config file's.
    """
    check_search_settings(budget=budget, mode=mode, explore_frac=explore_frac,
                          sigma_scale=sigma_scale, halve_after=halve_after, workers=workers)
    records = list(records)
    if not records:
        raise ValueError("optimize needs at least one session")
    groups = build_contexts(records, model, detectors, decomposition, integral_clamp)
    n_raw = np.concatenate([g.n_raw for g in groups])
    methods = tuple(d.method for d in detectors)
    rng = np.random.default_rng(seed)
    n_explore = min(budget, max(1, int(round(budget * explore_frac))))
    sigma = sigma_scale * (ranges.hi - ranges.lo)
    best_x: np.ndarray | None = None
    best_obj = -np.inf
    best_index = 0
    stall = 0
    trials: list[Trial] = []
    block = max(1, ROWS // max(len(g.members) for g in groups))
    n_gains = len(GAIN_KEYS)
    zs = np.empty((0, n_gains))  # phase-two steps drawn but not yet recorded
    while len(trials) < budget:
        t0 = len(trials)
        if t0 < n_explore:  # phase one: uniform exploration, a block of draws at a time
            xs = rng.uniform(ranges.lo, ranges.hi, (min(block, n_explore - t0), n_gains))
        else:  # phase two: Gaussian steps around the incumbent, as if none of them improves
            zs = np.concatenate([zs, rng.standard_normal((min(block, budget - t0) - len(zs),
                                                          n_gains))])
            sigmas = np.empty_like(zs)
            for i in range(len(zs)):
                sigmas[i] = sigma
                stall += 1
                if stall >= halve_after:
                    sigma = sigma / 2.0
                    stall = 0
            xs = np.clip(best_x + zs * sigmas, ranges.lo, ranges.hi)
        # a new generator per block, so the last block's replays are freed before this one runs
        counts = (np.concatenate([sim[2] for sim in sims])
                  for sims in _simulate(groups, xs, model, detectors, mode, limits))
        for i, (x, n_adapted) in enumerate(zip(xs, counts)):
            t = t0 + i
            percentages = tuple(s.percentage for s in detector_stats(n_raw, n_adapted))
            trials.append(Trial(t, PidGains.from_array(x), sum(percentages), percentages))
            if trials[-1].objective > best_obj:
                best_obj = trials[-1].objective
                best_x = x
                best_index = t
                if t >= n_explore:  # the later candidates of the block assumed no improvement
                    sigma, stall = sigmas[i], 0
                    break
        zs = zs[len(trials) - t0 :]
    return OptimizeResult(best=trials[best_index], trials=tuple(trials), methods=methods)


def write_history_csv(result: OptimizeResult, path) -> None:
    header = ["trial", *GAIN_KEYS, "objective"]
    header.extend(f"pct_{m}" for m in result.methods)
    lines = [",".join(header)]
    for trial in result.trials:
        row = [str(trial.index)]
        row.extend(format_float(v) for v in trial.gains.as_array())
        row.append(format_float(trial.objective))
        row.extend(format_float(p) for p in trial.percentages)
        lines.append(",".join(row))
    write_text_atomic(path, "\n".join(lines) + "\n")
