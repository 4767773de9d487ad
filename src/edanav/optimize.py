"""Session replay, the P_pn objective, and gain search.

Every evaluation takes one path: `build_contexts` precomputes what does not
depend on the gains, `_simulate` replays the sessions under one gain set and
scores each with the phasic surrogate, and `metrics.build_report` turns the
per-session outcomes into per-detector statistics. Offline mode replays
each session on its own against the recorded feedback; closed-loop mode
replays sessions of one length together, one clip step for all of them.
``n_raw`` counts events on the surrogate's offline prediction (stride 1)
for the unmodified acceleration, ``n_adapted`` on its prediction for the
adapted acceleration. Offline, both go through the identical pipeline and
zero gains give identical counts. Closed loop, they do not: the adapted
prediction there is made at stride L from windows whose future third holds
the newest sample, so zero gains can still change the counts (the first
acceptance eval session gives n_raw (7, 10, 5) and n_adapted (8, 80, 5)).
``n_recorded`` (events on the recorded, decomposed phasic) is carried
along for reporting only.

The objective P_pn sums, over detectors, the report's percentage of
sessions whose adapted event count dropped below the raw one; its range is
[0, 100 * n_detectors]. The optimizer is a seeded two-phase random search:
uniform exploration over the gain ranges, then Gaussian sampling around the
incumbent with the step size halved after every ``halve_after``
consecutive non-improving trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import (
    DEFAULT_INTEGRAL_CLAMP,
    GAIN_KEYS,
    AccelLimits,
    PidGains,
    PidTerms,
    accel_coefficients,
    adapted_accel,
    apply_gains,
    constant_step_integral,
    pid_outputs,
    pid_terms,
)
from .dataset import SessionRecord
from .metrics import SessionStats, build_report, msdv
from .scr import DetectorParams, count_er_scr, default_detectors
from .signals import DecompositionConfig, Trace, Unit, decompose, format_float
from .surrogate import SurrogateModel, predict_rows, predict_session

MODES = ("offline", "closed_loop")


@dataclass(frozen=True)
class SessionContext:
    """Gain-independent precomputation for one session.

    ``terms`` is the controller's PID state over the session, fed back from
    the recorded phasic in the model's normalized scale, clipped to [0, 1];
    offline mode uses all of it, closed-loop mode its acceleration rows. The
    PID state, raw counts and dose values do not change across trials, so a
    search over gains computes them once.
    """

    record: SessionRecord
    terms: PidTerms
    n_raw: tuple[int, ...]
    n_recorded: tuple[int, ...]
    msdv_raw_l: float
    msdv_raw_r: float


@dataclass(frozen=True)
class SimulationResult:
    """Everything one simulated session produced."""

    session_id: str
    adapted_a_l: Trace
    adapted_a_r: Trace
    predicted_phasic: Trace
    n_raw: tuple[int, ...]
    n_adapted: tuple[int, ...]
    n_recorded: tuple[int, ...]
    msdv_l: tuple[float, float]  # (raw, adapted)
    msdv_r: tuple[float, float]

    @property
    def stats(self) -> SessionStats:
        return SessionStats(
            self.session_id, self.n_raw, self.n_adapted, self.n_recorded,
            self.msdv_l, self.msdv_r,
        )


def _count_all(phasic: Trace, detectors) -> tuple[int, ...]:
    return tuple(count_er_scr(phasic, d) for d in detectors)


def build_context(
    record: SessionRecord,
    model: SurrogateModel,
    detectors=None,
    decomposition: DecompositionConfig = DecompositionConfig(),
    integral_clamp: float = DEFAULT_INTEGRAL_CLAMP,
) -> SessionContext:
    if detectors is None:
        detectors = default_detectors()
    dec = decompose(record.eda, decomposition)
    phasic_scaled = model.norm.phasic.apply(dec.phasic.samples)
    recorded = Trace(phasic_scaled, record.eda.rate_hz, Unit.NORMALIZED)
    raw_pred = predict_session(model, record.a_l, record.a_r)
    f_feedback = np.clip(phasic_scaled, 0.0, 1.0)
    return SessionContext(
        record=record,
        terms=pid_terms(record.a_l.samples, record.a_r.samples, f_feedback,
                        record.a_l.rate_hz, integral_clamp),
        n_raw=_count_all(raw_pred, detectors),
        n_recorded=_count_all(recorded, detectors),
        msdv_raw_l=msdv(record.a_l),
        msdv_raw_r=msdv(record.a_r),
    )


def build_contexts(records, model, detectors=None, decomposition=DecompositionConfig(),
                   integral_clamp=DEFAULT_INTEGRAL_CLAMP) -> list[SessionContext]:
    return [build_context(r, model, detectors, decomposition, integral_clamp) for r in records]


def _adapted(ctx: SessionContext, out_l: np.ndarray, out_r: np.ndarray) -> tuple[Trace, Trace]:
    record = ctx.record
    rate = record.a_l.rate_hz
    return Trace(out_l, rate, record.a_l.unit), Trace(out_r, rate, record.a_r.unit)


def _offline_replay(ctx, model, gains, limits) -> tuple[Trace, Trace, Trace]:
    adapted_l, adapted_r = _adapted(ctx, *apply_gains(ctx.terms, gains, limits))
    return adapted_l, adapted_r, predict_session(model, adapted_l, adapted_r)


def _closed_loop_replay(contexts, model, gains, limits) -> list[tuple[Trace, Trace, Trace]]:
    """Closed-loop (adapted a_l, adapted a_r, prediction) of every context, in input order.

    Sessions of one length replay together, one clip step for all of them
    (`_replay_clips`).
    """
    groups: dict[int, list[int]] = {}
    for i, ctx in enumerate(contexts):
        groups.setdefault(ctx.terms.accel.shape[1], []).append(i)
    replays: list = [None] * len(contexts)
    for members in groups.values():
        out, preds = _replay_clips([contexts[i].terms for i in members], model, gains, limits)
        for row, i in enumerate(members):
            ctx = contexts[i]
            replays[i] = (*_adapted(ctx, out[row, 0], out[row, 1]),
                          Trace(preds[row], ctx.record.a_l.rate_hz, Unit.NORMALIZED))
    return replays


def _replay_clips(
    terms: list[PidTerms], model: SurrogateModel, gains: PidGains, limits: AccelLimits
) -> tuple[np.ndarray, np.ndarray]:
    """Clip-granular loop over m sessions of n samples: (adapted [m, 2, n], predictions).

    The controller holds f at the last predicted sample of clip k-1 while
    adapting clip k; the model then predicts clip k from a window of
    [adapted clip k-1 | adapted clip k | hold of the newest sample], the
    future third being unknowable mid-run. Samples past the last full clip
    are adapted under the final hold but stay unpredicted, matching the
    offline prediction span. The acceleration channels see only the
    recording, so their PID outputs come from the session terms.

    Each step adapts and predicts clip k of every session at once, with the
    float operations of one sample-by-sample session replay: the phasic
    error 0 - hold is constant within a clip, so its integral is
    `constant_step_integral`; the error difference is 0.0 past the clip's
    first sample; and `predict_rows` is `predict_clip` row by row.
    """
    m, n = len(terms), terms[0].accel.shape[1]
    L = model.L
    covered = n // L * L
    dt, clamp = terms[0].dt, terms[0].integral_clamp
    k_p, k_i, k_d = gains.K_Pf, gains.K_If, gains.K_Df
    base = np.stack([t.accel + pid_outputs(t, gains, channels=2) for t in terms])
    beta, bound = accel_coefficients(gains, limits)
    out = np.empty((m, 2, n))
    integral = prev_error = np.zeros((m, 1))

    def adapt(first: int, last: int, hold: np.ndarray) -> None:
        nonlocal integral, prev_error
        error = 0.0 - hold
        running = constant_step_integral(integral, error * dt, last - first, clamp)
        delta = np.zeros_like(running)
        delta[:, :1] = error - prev_error
        psi_f = k_p * error + k_i * running + k_d * delta / dt
        out[:, :, first:last] = adapted_accel(base[:, :, first:last], psi_f[:, None], beta, bound)
        integral, prev_error = running[:, -1:], error

    norm = model.norm
    vmin = np.array([[norm.a_l.vmin], [norm.a_r.vmin]])
    span = np.array([[norm.a_l.span], [norm.a_r.span]])
    rows = np.empty((m, 6 * L + 1))
    rows[:, -1] = 1.0
    window = rows[:, :-1].reshape(m, 2, 3 * L)
    window[:, :, L : 2 * L] = (0.0 - vmin) / span  # moves to the first clip's past
    preds = np.empty((m, covered))
    hold = np.zeros((m, 1))
    for first in range(0, covered, L):
        last = first + L
        adapt(first, last, hold)
        window[:, :, :L] = window[:, :, L : 2 * L]
        window[:, :, L : 2 * L] = (out[:, :, first:last] - vmin) / span
        window[:, :, 2 * L :] = window[:, :, 2 * L - 1 : 2 * L]
        preds[:, first:last] = predict_rows(model, rows)
        hold = preds[:, last - 1 : last]
    if covered < n:
        adapt(covered, n, hold)
    return out, preds


def _simulate(
    contexts: list[SessionContext],
    gains: PidGains,
    model: SurrogateModel,
    detectors,
    mode: str,
    limits: AccelLimits,
) -> list[SimulationResult]:
    """Replay every context under ``gains`` and score it; results in input order."""
    if mode == "offline":
        replays = [_offline_replay(ctx, model, gains, limits) for ctx in contexts]
    else:
        replays = _closed_loop_replay(contexts, model, gains, limits)
    return [
        SimulationResult(
            session_id=ctx.record.session_id,
            adapted_a_l=adapted_l,
            adapted_a_r=adapted_r,
            predicted_phasic=pred,
            n_raw=ctx.n_raw,
            n_adapted=_count_all(pred, detectors),
            n_recorded=ctx.n_recorded,
            msdv_l=(ctx.msdv_raw_l, msdv(adapted_l)),
            msdv_r=(ctx.msdv_raw_r, msdv(adapted_r)),
        )
        for ctx, (adapted_l, adapted_r, pred) in zip(contexts, replays)
    ]


def evaluate_sessions(
    records,
    gains: PidGains,
    model: SurrogateModel,
    mode: str = "offline",
    detectors=None,
    limits: AccelLimits = AccelLimits(),
    integral_clamp: float = DEFAULT_INTEGRAL_CLAMP,
    decomposition: DecompositionConfig = DecompositionConfig(),
) -> list[SimulationResult]:
    """Replay each session under ``gains`` and score it with the surrogate."""
    check_search_settings(mode=mode)
    if detectors is None:
        detectors = default_detectors()
    contexts = build_contexts(records, model, detectors, decomposition, integral_clamp)
    return _simulate(contexts, gains, model, detectors, mode, limits)


# ---------------------------------------------------------------------------
# Gain search.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GainRanges:
    """Per-gain search box, aligned with GAIN_KEYS order."""

    lo: np.ndarray
    hi: np.ndarray

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

    @staticmethod
    def default(
        k_lo: float = 0.0, k_hi: float = 0.5, beta_lo: float = 0.0, beta_hi: float = 0.01
    ) -> "GainRanges":
        """One bracket for the nine PID gains and one for the two betas."""
        return GainRanges(np.array([k_lo] * 9 + [beta_lo] * 2),
                          np.array([k_hi] * 9 + [beta_hi] * 2))


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
    ranges: GainRanges | None = None,
    detectors=None,
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
    `metrics.build_report` over the replayed sessions, and its objective is
    their sum. Results are fully deterministic for a given seed.
    ``workers`` must be >= 1 and has no effect: every trial runs in the
    calling thread. `check_search_settings` holds the bounds of every
    setting; the keyword defaults here are also the config file's.
    """
    check_search_settings(budget=budget, mode=mode, explore_frac=explore_frac,
                          sigma_scale=sigma_scale, halve_after=halve_after, workers=workers)
    records = list(records)
    if not records:
        raise ValueError("optimize needs at least one session")
    if ranges is None:
        ranges = GainRanges.default()
    if detectors is None:
        detectors = default_detectors()
    contexts = build_contexts(records, model, detectors, decomposition, integral_clamp)
    methods = tuple(d.method for d in detectors)
    rng = np.random.default_rng(seed)
    n_explore = min(budget, max(1, int(round(budget * explore_frac))))
    sigma = sigma_scale * (ranges.hi - ranges.lo)
    best_x: np.ndarray | None = None
    best_obj = -np.inf
    best_index = 0
    stall = 0
    trials: list[Trial] = []
    for t in range(budget):
        if t < n_explore:  # phase one: uniform exploration
            x = rng.uniform(ranges.lo, ranges.hi)
        else:  # phase two: Gaussian refinement around the incumbent
            x = np.clip(best_x + rng.standard_normal(len(GAIN_KEYS)) * sigma,
                        ranges.lo, ranges.hi)
        gains = PidGains.from_array(x)
        stats = [r.stats for r in _simulate(contexts, gains, model, detectors, mode, limits)]
        report = build_report(stats, methods)
        percentages = tuple(report.stats[m].percentage for m in methods)
        trials.append(Trial(t, gains, sum(percentages), percentages))
        if trials[-1].objective > best_obj:
            best_obj = trials[-1].objective
            best_x = x
            best_index = t
            stall = 0
        elif t >= n_explore:
            stall += 1
            if stall >= halve_after:
                sigma = sigma / 2.0
                stall = 0
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
