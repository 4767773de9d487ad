"""Session replay, the P_pn objective, and gain search.

Every evaluation takes one path: `build_contexts` groups the sessions by
length and rate and gives each `SessionGroup` its gain-independent state
(the PID terms fed back from the recorded phasic, the raw and recorded
counts, the raw doses), once per call; `_simulate` replays the groups
under a block of gain sets and counts the events of each prediction. A
search trial scores the counts alone with `metrics.detector_stats`, the
detector rows of `metrics.build_report`. Each record keeps one report row,
a `metrics.SessionStats`, in its ``replays`` store under the tag of the
replay that made it (model, detectors, decomposition, clamp, gains, mode,
limits): a search writes every searched record's row at each new best
trial, and `evaluate_sessions` replays only the records that lack a row
under its tag. A row holds the bits of its session replayed alone, so it
serves any list that holds the record.
Sessions of one length are replayed, predicted and counted together in both
modes, with the bits of one session on its own: offline mode adapts them
against the recorded feedback in one `apply_gains` call and predicts them
in one `predict_sessions` call per gain set; closed-loop mode replays them
clip by clip under every gain set of the block, one step for all of them
(`_replay_clips`). One `count_events` call per length and gain set then
counts their events, so a search holds one trial's detector tables at a
time.
Offline, a group of at least ``_CERTIFIED_SAMPLES`` samples (and L >= 3)
takes a certified path instead (`_predict_and_count`):
`surrogate._predict_bounded` predicts it from one transposed gemm per
chunk of clips, each sample within a bound ε_row of `predict_sessions`
(its docstring derives ε_row = 2 γ_{6L+1} (D W₁ + B) + 2 γ_{L-1} + 2 u),
and `scr._count_with_margins` counts it with each row's margin, the least
gap of the comparisons that set its counts. A row whose margin exceeds
3 ε_row has the counts of its `predict_sessions` row; every other row is
predicted again by `predict_sessions` and counted by `count_events`. So
every count, history row, report row and digest is the exact path's, by
certificate. Only the predictions `_simulate` yields for such a group may
differ from `predict_sessions`, each certified row by at most its ε_row
in its last bits, the rows that fell back not at all. The raw predictions
of `build_contexts` (where idle all-zero windows tie exactly, margin 0),
closed-loop replays, `pipeline.held_out_mae` and shorter groups stay on
`predict_sessions`.
``n_raw`` counts events on the surrogate's offline prediction (stride 1)
for the unmodified acceleration, ``n_adapted`` on its prediction for the
adapted acceleration. Offline, both go through the identical pipeline and
zero gains give identical counts. Closed loop, they do not: the adapted
prediction there is made at stride L from windows whose future third holds
the newest sample, so zero gains can still change the counts (the first
acceptance eval session gives n_raw (7, 10, 5) and n_adapted (8, 80, 5)).
``n_recorded`` (events on the recorded, decomposed phasic) is reported
only; `build_contexts` counts it with the raw counts, once per group.

The objective P_pn sums, over detectors, the report's percentage of
sessions whose adapted event count dropped below the raw one; its range is
[0, 100 * n_detectors]. The optimizer is a seeded two-phase random search:
uniform exploration over the gain ranges, then Gaussian sampling around the
incumbent with the step size halved after every ``halve_after`` consecutive
non-improving trials. A search draws from its generator twice, before its
first trial: the phase-one points [n_explore, 11] in one ``rng.uniform``
call, then the phase-two steps [budget - n_explore, 11] in one
``rng.standard_normal`` call, the doubles of one draw per trial, in order.
Trial t reads row t of the points, or row t - n_explore of the steps,
whatever the block. Both phases hand `_simulate` blocks of up to
k = max(1, ``ROWS`` // m) trials, m the largest group of equal-length
sessions (closed loop replays a block in one clip loop), and record them in
index order. Phase two is speculative: a step does not depend on the
incumbent, so a block builds its candidates as if none of its trials
improves, the step size following the halving rule across the block. After
the first trial that strictly improves, the rest of the block is dropped
unrecorded and the next block starts around the new incumbent: each trial
is the one a search of one trial at a time gives. A dropped closed-loop
trial costs its share of the block's replay, a dropped offline one nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .scr import _count_with_margins, count_events, default_detectors
from .pipeline import check_model_rate, length_groups, session_phasics
from .signals import DecompositionConfig, format_float, write_text_atomic
from .surrogate import SurrogateModel, _predict_bounded, predict_rows, predict_sessions

MODES = ("offline", "closed_loop")
# rows of one closed-loop clip step: phase one of a search replays
# max(1, ROWS // m) trials at once, m the largest group of equal-length sessions
ROWS = 64
# offline groups of at least this many samples take the certified path of
# `_simulate` (`_predict_and_count`). Measured crossover, the certified
# path's time for one trial's prediction and counts over the exact path's,
# on 3 and on 10 sessions, two rounds: at 4 Hz 1.00-1.12 at 960 samples
# (the search workloads' groups), 0.95-1.03 at 1,440, 0.93-0.99 at 1,920
# and 0.88-0.95 at 2,880; at 8 Hz 0.82-0.97 from 960 on, and 0.69-0.74 at
# 7,200 (900 s)
_CERTIFIED_SAMPLES = 1920


@dataclass(frozen=True, eq=False)
class SessionGroup:
    """The sessions of one sample count and rate and their gain-independent state.

    ``terms`` is the controller's PID state over the m sessions [m, ...],
    fed back from their decomposed phasic in the model's normalized scale,
    clipped to [0, 1]; offline mode uses all of it, closed-loop mode its
    acceleration rows. None of it changes across trials, so a search
    computes it once (`build_contexts`). Groups compare by identity.
    """

    members: tuple[int, ...]  # positions in the input record list
    terms: PidTerms  # [m, ...]
    n_raw: np.ndarray  # [m, n_detectors]
    n_recorded: np.ndarray  # [m, n_detectors], on the unclipped scaled phasic
    raw_msdv: np.ndarray  # [m, 2], each at its own trace's rate


@dataclass(frozen=True)
class SimulationResult:
    """One simulated session's report row."""

    stats: SessionStats


def build_contexts(records, model, detectors, decomposition, integral_clamp) -> list[SessionGroup]:
    """One `SessionGroup` per `length_groups` group, in order of first appearance.

    Each group's members keep their input order. A group costs one
    `pid_terms` and one `predict_sessions` call, and one `count_events`
    call each for the raw prediction and the recorded phasic. Nothing is
    stored but the records' phasics (`session_phasics`, which decomposes
    every record that lacks one before any is stored).
    """
    check_model_rate(records, model)
    phasics = session_phasics(records, decomposition)
    groups = []
    for members in length_groups(records):
        group = [records[i] for i in members]
        recorded = np.stack([model.norm.phasic.apply(phasics[i].samples) for i in members])
        accel = np.stack([(r.a_l.samples, r.a_r.samples) for r in group])
        terms = pid_terms(accel[:, 0], accel[:, 1], np.clip(recorded, 0.0, 1.0),
                          model.rate_hz, integral_clamp)
        n_raw = count_events(predict_sessions(model, accel), model.rate_hz, detectors)
        # a raw dose integrates over its own trace's rate, an adapted one over the model's
        dt = np.array([[1.0 / r.a_l.rate_hz, 1.0 / r.a_r.rate_hz] for r in group])
        groups.append(SessionGroup(tuple(members), terms, n_raw,
                                   count_events(recorded, model.rate_hz, detectors),
                                   msdv(terms.accel, dt)))
    return groups


def _row_tag(model, detectors, decomposition, integral_clamp, x: np.ndarray, mode, limits):
    """The key of the report row that a replay under gains ``x`` [11] and these settings makes."""
    return (model, tuple(detectors), decomposition, integral_clamp, x.tobytes(), mode, limits)


def _keep_rows(records, groups, sims, model: SurrogateModel, tag) -> None:
    """Store each group member's report row under ``tag``, in place of its record's
    last one; ``sims`` is one gain set's (adapted, predictions, n_adapted) per group."""
    for g, (adapted, _, n_adapted) in zip(groups, sims):
        new = msdv(adapted, 1.0 / model.rate_hz).tolist()
        for row, (i, raw) in enumerate(zip(g.members, g.raw_msdv.tolist())):
            records[i].replays.clear()
            records[i].replays[tag] = SessionStats(
                records[i].session_id, tuple(g.n_raw[row].tolist()),
                tuple(n_adapted[row].tolist()), tuple(g.n_recorded[row].tolist()),
                msdv_l=(raw[0], new[row][0]), msdv_r=(raw[1], new[row][1]))


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

    A step costs numpy calls, not flops, so it works in contiguous blocks
    of one clip, allocated once per call and written through the law
    functions' ``out``: the integral, error difference and phasic output
    [R, L] and the adapted clip [R, 2, L], whose first columns serve the
    tail. Each adapted clip is copied once into the result, and the design
    rows [R, 6L+1] slide by one clip per step. The prediction stays the
    stacked gemv of `predict_rows`, one matrix-vector product per row:
    ``rows @ weights.T`` is one gemm, which rounds differently.
    """
    m, _, n = terms.accel.shape
    n_sets = len(gains)
    R = n_sets * m
    L = model.L
    covered = n // L * L
    dt, clamp = terms.dt, terms.integral_clamp
    row_gains = np.repeat(gains, m, axis=0)  # [R, 11]
    k_f = row_gains[:, 6:9]  # the phasic channel's (K_Pf, K_If, K_Df)
    # each clip of `out` holds its base (acceleration plus its channel's PID
    # output) until its step adapts it, so no separate base array is kept
    out = pid_outputs(terms, gains[:, None], channels=2)
    out = np.add(terms.accel, out, out=out).reshape(R, 2, n)
    # past a clip's first sample the error difference stays 0.0; the bound
    # is spread over the block so that its clamp runs as one loop
    running, delta, psi_f = np.empty((R, L)), np.zeros((R, L)), np.empty((R, L))
    adapted = np.empty((R, 2, L))
    bound = np.broadcast_to(limits.bound, adapted.shape).copy()
    integral = prev_error = np.zeros((R, 1))

    def adapt(first: int, last: int, hold: np.ndarray) -> np.ndarray:
        nonlocal integral, prev_error
        width = last - first
        error = 0.0 - hold
        clamped_sum(integral, error * dt, width, clamp, out=running[:, :width])
        delta[:, :1] = error - prev_error
        pid_law(k_f, error, running[:, :width], delta[:, :width], dt, out=psi_f[:, :width])
        block = adapted_accel(out[:, :, first:last], psi_f[:, None, :width], row_gains,
                              bound[:, :, :width], out=adapted[:, :, :width])
        out[:, :, first:last] = block
        integral, prev_error = running[:, width - 1 : width], error
        return block

    rows = np.empty((R, 6 * L + 1))
    rows[:, -1] = 1.0
    window = rows[:, :-1].reshape(R, 2, 3 * L)
    window[:, :, L : 2 * L] = 0.0  # moves to the first clip's past
    preds = np.empty((R, covered))
    hold = np.zeros((R, 1))
    for first in range(0, covered, L):
        last = first + L
        block = adapt(first, last, hold)
        window[:, :, :L] = window[:, :, L : 2 * L]
        window[:, :, L : 2 * L] = model.norm.accel(block)
        window[:, :, 2 * L :] = window[:, :, 2 * L - 1 : 2 * L]
        preds[:, first:last] = predict_rows(model, rows)
        hold = preds[:, last - 1 : last]
    if covered < n:
        adapt(covered, n, hold)
    return out.reshape(n_sets, m, 2, n), preds.reshape(n_sets, m, covered)


def _predict_and_count(model: SurrogateModel, adapted: np.ndarray, detectors):
    """Stride-1 predictions [m, n] of ``adapted`` [m, 2, n] and their counts [m, d],
    the counts those of `predict_sessions` by certificate.

    `surrogate._predict_bounded` predicts every row within ε of
    `predict_sessions`, and `scr._count_with_margins` counts it with its
    margin. Where the margin exceeds 3 ε, the row's counts are those of its
    `predict_sessions` row (`scr`'s module docstring shows why); every
    other row is predicted again with `predict_sessions` and counted with
    `count_events`. So the counts are exact, and each prediction row is
    either the exact one or within ε of it.
    """
    preds, eps = _predict_bounded(model, adapted)
    counts, margins = _count_with_margins(preds, model.rate_hz, detectors)
    redo = np.flatnonzero(~(margins > 3.0 * eps))
    if redo.size:
        preds[redo] = predict_sessions(model, adapted[redo])
        counts[redo] = count_events(preds[redo], model.rate_hz, detectors)
    return preds, counts


def _simulate(groups: list[SessionGroup], gains: np.ndarray, model: SurrogateModel, detectors,
              mode: str, limits: AccelLimits):
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
    An offline group of at least ``_CERTIFIED_SAMPLES`` samples is predicted
    and counted by `_predict_and_count` instead: its counts are exact, and
    its predictions are the exact ones or lie within ε_row of them (module
    docstring). A caller may stop early: the gain sets it does not reach
    are never counted, nor, offline, replayed.
    """
    if mode == "closed_loop":
        replays = [_replay_clips(g.terms, model, gains, limits) for g in groups]
    # ε is at least 2 γ_{L-1} + 2 u, over 6 u from L = 3: room for the
    # roundings of the comparisons themselves
    certified = [mode == "offline" and model.L >= 3
                 and g.terms.accel.shape[-1] >= _CERTIFIED_SAMPLES for g in groups]
    for b, x in enumerate(gains):
        sims = []
        for j, g in enumerate(groups):
            if mode == "offline":
                adapted = apply_gains(g.terms, x, limits)
                if certified[j]:
                    sims.append((adapted, *_predict_and_count(model, adapted, detectors)))
                    continue
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
    """Replay each session under ``gains`` and score it with the surrogate.

    A record that holds its report row under this call's tag (model,
    detectors, decomposition, clamp, gains bytes, mode, limits) is not
    replayed; the others are, in one `build_contexts` and one `_simulate`
    block, and keep their new rows. Results are in input order.
    """
    check_search_settings(mode=mode)
    records = list(records)
    x = gains.as_array()
    tag = _row_tag(model, detectors, decomposition, integral_clamp, x, mode, limits)
    missing = [r for r in records if tag not in r.replays]
    groups = build_contexts(missing, model, detectors, decomposition, integral_clamp)
    [sims] = _simulate(groups, x[None], model, detectors, mode, limits)
    _keep_rows(missing, groups, sims, model, tag)
    return [SimulationResult(r.replays[tag]) for r in records]


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
    Each new best trial leaves every record's report row under its tag, so
    `evaluate_sessions` of the best replays nothing.
    Both phases are drawn before the first trial: trial t reads row t of the
    points or row t - n_explore of the steps, whatever the block. Trials run
    in blocks of up to max(1, ``ROWS`` // m), m the largest group of
    equal-length sessions; a phase-two block is built as if none of its
    trials improves and is cut after the first that does (module docstring).
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
    # trial t reads row t of the points, or row t - n_explore of the steps
    points = rng.uniform(ranges.lo, ranges.hi, (n_explore, len(GAIN_KEYS)))
    steps = rng.standard_normal((budget - n_explore, len(GAIN_KEYS)))
    sigma = sigma_scale * (ranges.hi - ranges.lo)
    best: Trial | None = None
    stall = 0
    trials: list[Trial] = []
    block = max(1, ROWS // max(len(g.members) for g in groups))
    while len(trials) < budget:
        t0 = len(trials)
        if t0 < n_explore:  # phase one: uniform exploration
            xs = points[t0 : t0 + block]
        else:  # phase two: Gaussian steps around the incumbent, as if none of them improves
            z = steps[t0 - n_explore : t0 - n_explore + block]
            sigmas = np.empty_like(z)
            for i in range(len(z)):
                sigmas[i] = sigma
                stall += 1
                if stall >= halve_after:
                    sigma, stall = sigma / 2.0, 0
            xs = np.clip(best.gains.as_array() + z * sigmas, ranges.lo, ranges.hi)
        # a new generator per block, so the last block's replays are freed before this one runs
        for i, (x, sims) in enumerate(zip(xs, _simulate(groups, xs, model, detectors, mode,
                                                         limits))):
            n_adapted = np.concatenate([sim[2] for sim in sims])
            percentages = tuple(s.percentage for s in detector_stats(n_raw, n_adapted))
            trials.append(Trial(t0 + i, PidGains.from_array(x), sum(percentages), percentages))
            if best is None or trials[-1].objective > best.objective:
                best = trials[-1]
                tag = _row_tag(model, detectors, decomposition, integral_clamp, x, mode, limits)
                _keep_rows(records, groups, sims, model, tag)
                if t0 >= n_explore:  # the later candidates of the block assumed no improvement
                    sigma, stall = sigmas[i], 0
                    break
        del sims  # it holds views of the block's replays
    return OptimizeResult(best=best, trials=tuple(trials), methods=methods)


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
