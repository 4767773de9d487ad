"""Session replay, the P_pn objective, and gain search.

Every evaluation takes one path: `build_contexts` precomputes what does not
depend on the gains, `_simulate` replays one session under one gain set and
scores it with the phasic surrogate, and `metrics.build_report` turns the
per-session outcomes into per-detector statistics. ``n_raw`` counts events
on the surrogate's prediction for the unmodified acceleration,
``n_adapted`` on its prediction for the adapted acceleration, so both
conditions go through the identical pipeline and zero gains give identical
counts. ``n_recorded`` (events on the recorded, decomposed phasic) is
carried along for reporting only.

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
    _pid,
    accel_coefficients,
    adapted_accel,
    apply_gains,
    pid_outputs,
    pid_terms,
)
from .dataset import SessionRecord
from .metrics import SessionStats, build_report, msdv
from .scr import DetectorParams, count_er_scr, default_detectors
from .signals import DecompositionConfig, Trace, Unit, decompose, format_float
from .surrogate import SurrogateModel, predict_clip, predict_session

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


def _closed_loop_adapt(
    ctx: SessionContext,
    model: SurrogateModel,
    gains: PidGains,
    limits: AccelLimits,
) -> tuple[np.ndarray, np.ndarray, Trace]:
    """Clip-granular loop: adapt clip k under the feedback predicted so far.

    The controller holds f at the last predicted sample of clip k-1 while
    adapting clip k; the model then predicts clip k from a window of
    [adapted clip k-1 | adapted clip k | hold of the newest sample], the
    future third being unknowable mid-run. Samples past the last full clip
    are adapted under the final hold but stay unpredicted, matching the
    offline prediction span. The acceleration channels see only the
    recording, so their PID outputs come from the session context; only the
    phasic channel runs sample by sample.
    """
    terms = ctx.terms
    rate = ctx.record.a_l.rate_hz
    L = model.L
    n = terms.accel.shape[1]
    n_clips = (n - L) // L + 1
    covered = n_clips * L
    base = terms.accel + pid_outputs(terms, gains, channels=2)
    beta, bound = accel_coefficients(gains, limits)
    out = np.empty((2, n))
    preds = np.empty(covered)
    psi_f = np.empty(n)
    integral = prev_error = f_hold = 0.0

    def adapt(first: int, last: int) -> None:
        nonlocal integral, prev_error
        for i in range(first, last):
            psi_f[i], integral, prev_error = _pid(
                integral, prev_error, 0.0 - f_hold, gains.K_Pf, gains.K_If, gains.K_Df,
                terms.dt, terms.integral_clamp,
            )
        out[:, first:last] = adapted_accel(base[:, first:last], psi_f[first:last], beta, bound)

    def normalized(accel: np.ndarray) -> np.ndarray:
        return np.stack([model.norm.a_l.apply(accel[0]), model.norm.a_r.apply(accel[1])])

    # normalization is element by element, so each adapted clip is
    # normalized once and the window is assembled from normalized pieces
    prev = normalized(np.zeros((2, L)))
    for k in range(n_clips):
        adapt(k * L, (k + 1) * L)
        cur = normalized(out[:, k * L : (k + 1) * L])
        window = np.concatenate([prev, cur, np.repeat(cur[:, -1:], L, axis=1)], axis=1)
        clip_pred = predict_clip(model, window)
        preds[k * L : (k + 1) * L] = clip_pred
        f_hold = float(clip_pred[-1])
        prev = cur
    adapt(covered, n)
    return out[0], out[1], Trace(preds, rate, Unit.NORMALIZED)


def _simulate(
    ctx: SessionContext,
    gains: PidGains,
    model: SurrogateModel,
    detectors,
    mode: str,
    limits: AccelLimits,
) -> SimulationResult:
    record = ctx.record
    rate = record.a_l.rate_hz
    if mode == "offline":
        out_l, out_r = apply_gains(ctx.terms, gains, limits)
        adapted_l = Trace(out_l, rate, record.a_l.unit)
        adapted_r = Trace(out_r, rate, record.a_r.unit)
        pred = predict_session(model, adapted_l, adapted_r)
    else:
        out_l, out_r, pred = _closed_loop_adapt(ctx, model, gains, limits)
        adapted_l = Trace(out_l, rate, record.a_l.unit)
        adapted_r = Trace(out_r, rate, record.a_r.unit)
    return SimulationResult(
        session_id=record.session_id,
        adapted_a_l=adapted_l,
        adapted_a_r=adapted_r,
        predicted_phasic=pred,
        n_raw=ctx.n_raw,
        n_adapted=_count_all(pred, detectors),
        n_recorded=ctx.n_recorded,
        msdv_l=(ctx.msdv_raw_l, msdv(adapted_l)),
        msdv_r=(ctx.msdv_raw_r, msdv(adapted_r)),
    )


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
    return [
        _simulate(ctx, gains, model, detectors, mode, limits)
        for ctx in build_contexts(records, model, detectors, decomposition, integral_clamp)
    ]


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
        stats = [_simulate(ctx, gains, model, detectors, mode, limits).stats for ctx in contexts]
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
