"""Simulation, objective, and gain-search tests on a small synthetic cohort."""

import gc
import importlib
import math
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edanav.control import (
    DEFAULT_INTEGRAL_CLAMP,
    GAIN_KEYS,
    AccelLimits,
    PidGains,
    apply_gains,
    pid_terms,
)
from edanav.dataset import synth_cohort
from edanav.metrics import (
    MSDV_LONGITUDINAL,
    MSDV_ROTATIONAL,
    build_report,
    detector_stats,
    write_per_session_csv,
)
from edanav.optimize import (
    MODES,
    ROWS,
    GainRanges,
    OptimizeResult,
    _simulate,
    build_contexts,
    evaluate_sessions,
    optimize,
    write_history_csv,
)
from edanav.pipeline import (
    check_model_rate,
    eval_split,
    held_out_mae,
    session_phasics,
    train_surrogate,
)
from edanav.scr import count_events, default_detectors
from edanav.signals import (
    DecompositionConfig,
    EdaDecomposition,
    NormParams,
    Trace,
    decompose,
    same_rate,
)
from edanav.surrogate import (
    OracleParams,
    SurrogateModel,
    make_clips,
    read_model,
    synth_session,
    write_model,
)

from oracles import (
    adapt_trace_naive,
    clamped_sum_naive,
    msdv_naive,
    predict_clip,
    predict_session_naive,
    search_naive,
)
from test_acceptance import ACCEL_RANGES
from test_scr import _oracle as scr_oracle

# the module itself: the package binds the name `optimize` to the function
optimize_module = importlib.import_module("edanav.optimize")
control_module = importlib.import_module("edanav.control")

TUNED_GAINS = PidGains(
    K_Pl=0.0113, K_Il=0.0065, K_Dl=0.0137,
    K_Pr=0.0098, K_Ir=0.0012, K_Dr=0.0011,
    K_Pf=0.0730, K_If=0.2283, K_Df=0.3724,
    beta_l=0.0017, beta_r=0.0012,
)


@pytest.fixture(scope="module")
def small():
    records = synth_cohort(8, 120.0, 4.0, seed=77)
    model, _ = train_surrogate(records)
    return records, model


# ---------------------------------------------------------------------------
# Session simulation
# ---------------------------------------------------------------------------

def _replay(records, gains, model, mode="offline", limits=AccelLimits(),
            integral_clamp=DEFAULT_INTEGRAL_CLAMP, decomposition=DecompositionConfig()):
    """Each record's adapted acceleration [2, n] and prediction, in input order.

    The replay `evaluate_sessions` scores under the same keywords:
    `build_contexts`, then one `_simulate` trial under ``gains``.
    """
    detectors = default_detectors()
    groups = build_contexts(records, model, detectors, decomposition, integral_clamp)
    [sims] = _simulate(groups, gains.as_array()[None], model, detectors, mode, limits)
    replays = [None] * len(records)
    for g, (adapted, preds, _) in zip(groups, sims):
        for row, i in enumerate(g.members):
            replays[i] = (adapted[row], preds[row])
    return replays


def _oracle_counts(x, detectors):
    """Each detector's event count on the one 4 Hz trace ``x``, by the brute-force oracle."""
    return tuple(len(scr_oracle(x, d)) for d in detectors)


def _oracle_prediction(model, a_l, a_r):
    """The oracle's stride-1 prediction [n] of raw acceleration ``a_l``, ``a_r``."""
    norm = model.norm
    return np.array(predict_session_naive(model.weights, norm.a_l.apply(a_l),
                                          norm.a_r.apply(a_r), model.L, 1))


def test_zero_gains_change_nothing(small):
    records, model = small
    result = evaluate_sessions([records[0]], PidGains(), model)[0]
    [(adapted, _)] = _replay([records[0]], PidGains(), model)
    np.testing.assert_array_equal(adapted[0], records[0].a_l.samples)
    np.testing.assert_array_equal(adapted[1], records[0].a_r.samples)
    assert result.stats.n_adapted == result.stats.n_raw
    assert result.stats.msdv_l[0] == result.stats.msdv_l[1]
    assert result.stats.msdv_r[0] == result.stats.msdv_r[1]


def test_simulation_stats_are_consistent(small):
    records, model = small
    detectors = default_detectors()
    result = evaluate_sessions([records[1]], TUNED_GAINS, model)[0]
    [(adapted, pred)] = _replay([records[1]], TUNED_GAINS, model)
    stats = result.stats
    assert stats.n_adapted == tuple(count_events(pred[None], model.rate_hz, detectors)[0])
    for raw, a, pair in ((records[1].a_l, adapted[0], stats.msdv_l),
                         (records[1].a_r, adapted[1], stats.msdv_r)):
        assert pair == (msdv_naive(raw), msdv_naive(Trace(a, model.rate_hz)))
    assert stats.session_id == records[1].session_id


def test_raw_msdv_integrates_at_the_record_rate(small):
    # a record whose longitudinal rate is one ulp above the model's passes
    # `same_rate`; its raw dose keeps that trace's own dt, the adapted dose
    # the model's, and each row of a group keeps its own
    records, model = small
    a_l = records[0].a_l
    moved = replace(records[0], a_l=Trace(a_l.samples, ONE_ULP_UP, a_l.unit))
    assert same_rate(moved.a_l.rate_hz, model.rate_hz)
    pair = [moved, records[1]]
    results = evaluate_sessions(pair, PidGains(), model)
    for record, result in zip(pair, results):
        stats = result.stats
        assert stats.msdv_l == (msdv_naive(record.a_l), msdv_naive(Trace(record.a_l.samples, 4.0)))
        assert stats.msdv_r == (msdv_naive(record.a_r), msdv_naive(Trace(record.a_r.samples, 4.0)))
    # the rates give different doses, so the test tells them apart
    assert results[0].stats.msdv_l[0] != results[0].stats.msdv_l[1]


def test_raw_counts_come_from_the_surrogate(small):
    records, model = small
    detectors = default_detectors()
    [group] = build_contexts([records[2]], model, detectors, DecompositionConfig(),
                             DEFAULT_INTEGRAL_CLAMP)
    pred = _oracle_prediction(model, records[2].a_l.samples, records[2].a_r.samples)
    assert tuple(group.n_raw[0]) == _oracle_counts(pred, detectors)
    f_prev = -group.terms.error[0, 2]
    assert np.all(f_prev >= 0.0) and np.all(f_prev <= 1.0)


def test_adapted_traces_respect_limits(small):
    records, model = small
    limits = AccelLimits(max_longitudinal=2.0, max_rotational=0.5)
    aggressive = PidGains.from_array(np.full(len(GAIN_KEYS), 5.0))
    [(adapted, _)] = _replay([records[0]], aggressive, model, limits=limits)
    assert float(np.max(np.abs(adapted[0]))) <= 2.0
    assert float(np.max(np.abs(adapted[1]))) <= 0.5


def test_tuned_gains_reduce_dose_everywhere(small):
    # mild damping must lower the motion-sickness dose of every session on
    # both channels, whatever it does to event counts
    records, model = small
    results = evaluate_sessions(records, TUNED_GAINS, model)
    assert [r.stats.session_id for r in results] == [r.session_id for r in records]
    report = build_report([r.stats for r in results], ("kim2004", "gamboa2008", "neurokit"))
    assert report.stats[MSDV_LONGITUDINAL].positives == len(records)
    assert report.stats[MSDV_ROTATIONAL].positives == len(records)


def test_closed_loop_mode(small):
    records, model = small
    detectors = default_detectors()
    result = evaluate_sessions([records[0]], PidGains(), model, mode="closed_loop")[0]
    [(adapted, pred)] = _replay([records[0]], PidGains(), model, mode="closed_loop")
    # with zero gains the adapted profile is untouched even in closed loop
    np.testing.assert_array_equal(adapted[0], records[0].a_l.samples)
    assert result.stats.n_adapted == tuple(count_events(pred[None], model.rate_hz, detectors)[0])
    with pytest.raises(ValueError, match="mode"):
        evaluate_sessions([records[0]], PidGains(), model, mode="online")


def _assert_follows_closed_loop_law(record, replay, gains, model,
                                    integral_clamp=DEFAULT_INTEGRAL_CLAMP, limits=AccelLimits()):
    """Check one closed-loop replay against the law stepped sample by sample, byte for byte.

    ``replay`` is the session's adapted acceleration [2, n] and prediction.
    Clip k is adapted under a hold of the last sample predicted for clip
    k-1 (0.0 before the first prediction), and predicted from the window
    [adapted k-1 | adapted k | hold of its newest sample] in the model's
    scale, whose past third is 0.0 after scaling for the first clip (the
    zero padding of training). Returns the feedback f the law read (step i
    reads f[i - 1], the hold at sample i).
    """
    L = model.L
    adapted, pred = replay
    n = len(record.a_l)
    rate = record.a_l.rate_hz
    assert pred.size == n // L * L
    hold = [float(pred[min(i // L, pred.size // L) * L - 1]) if i >= L else 0.0 for i in range(n)]
    f = np.array([*hold[1:], 0.0])
    a_l, a_r = record.a_l.samples, record.a_r.samples
    ref_l, ref_r = adapt_trace_naive(
        a_l, a_r, f, rate, gains.as_array(),
        limits.max_longitudinal, limits.max_rotational, integral_clamp,
    )
    assert adapted[0].tobytes() == np.array(ref_l).tobytes()
    assert adapted[1].tobytes() == np.array(ref_r).tobytes()
    terms = pid_terms(a_l, a_r, f, rate, integral_clamp)
    assert apply_gains(terms, gains.as_array(), limits).tobytes() == adapted.tobytes()
    norms = (model.norm.a_l, model.norm.a_r)
    for k in range(pred.size // L):
        prev = adapted[:, (k - 1) * L : k * L] if k else np.zeros((2, L))
        cur = adapted[:, k * L : (k + 1) * L]
        window = np.stack([
            norm.apply(np.concatenate([prev[c], cur[c], np.full(L, cur[c, -1])]))
            for c, norm in enumerate(norms)
        ])
        if not k:
            window[:, :L] = 0.0
        assert pred[k * L : (k + 1) * L].tobytes() == predict_clip(model, window).tobytes()
    return f


def test_closed_loop_follows_the_stepwise_law(small):
    records, model = small
    record = records[1]
    gains = PidGains.from_array(np.linspace(0.05, 0.6, len(GAIN_KEYS)))
    [replay] = _replay([record], gains, model, mode="closed_loop")
    _assert_follows_closed_loop_law(record, replay, gains, model)
    assert not np.array_equal(replay[0][0], record.a_l.samples)


def test_closed_loop_pads_the_first_clip_after_scaling(small):
    # a scale that does not map raw 0.0 to 0.0: the first clip's past is
    # still the 0.0 that training pads windows with
    records, model = small
    shift = replace(model.norm, a_l=NormParams(model.norm.a_l.vmin - 1.0, model.norm.a_l.vmax),
                    a_r=NormParams(model.norm.a_r.vmin - 0.5, model.norm.a_r.vmax))
    shifted = replace(model, norm=shift)
    assert shifted.norm.accel(np.zeros((2, 1))).min() > 0.0
    [replay] = _replay([records[1]], BINDING, shifted, mode="closed_loop")
    _assert_follows_closed_loop_law(records[1], replay, BINDING, shifted)


def _head(record, n, start=0):
    """The record's samples [start, start + n)."""
    def cut(tr):
        return Trace(tr.samples[start : start + n], tr.rate_hz, tr.unit)
    return replace(record, a_l=cut(record.a_l), a_r=cut(record.a_r), eda=cut(record.eda))


def _mixed_sessions(records, L):
    """Sessions of 3L, full (not a multiple of L), 3L+1, 5L+4 and again 3L samples."""
    lengths = [3 * L, len(records[1].a_l), 3 * L + 1, 5 * L + 4, 3 * L]
    assert len(records[1].a_l) % L
    return [_head(r, n) for r, n in zip(records, lengths)]


# short decomposition windows suit the short sessions; under BINDING the
# phasic integral hits the small clamp
MIXED_SETTINGS = dict(integral_clamp=0.05, decomposition=DecompositionConfig(1.0, 1.0))
BINDING = PidGains.from_array(np.linspace(0.05, 0.6, len(GAIN_KEYS)))


def _assert_equals_alone(sessions, results, replays, gains, model, settings):
    """Each result and replay of a joint replay equals its session's own, bit for bit."""
    assert [r.stats.session_id for r in results] == [r.session_id for r in sessions]
    for record, result, replay in zip(sessions, results, replays):
        alone = evaluate_sessions([record], gains, model, **settings)[0]
        [own_replay] = _replay([record], gains, model, **settings)
        for mine, own in zip(replay, own_replay, strict=True):  # adapted, prediction
            assert mine.shape == own.shape and mine.tobytes() == own.tobytes()
        assert result.stats == alone.stats


def test_offline_sessions_replay_together(small):
    # sessions of mixed lengths are adapted, predicted and counted in one
    # call per length; each result equals its own replay and the oracles'
    # per-session path (adapt_trace_naive, predict_session_naive,
    # brute_force_events)
    records, model = small
    sessions = _mixed_sessions(records, model.L)
    detectors = default_detectors()
    for gains in (BINDING, PidGains()):
        results = evaluate_sessions(sessions, gains, model, **MIXED_SETTINGS)
        replays = _replay(sessions, gains, model, **MIXED_SETTINGS)
        _assert_equals_alone(sessions, results, replays, gains, model, MIXED_SETTINGS)
        for record, result, (adapted, prediction) in zip(sessions, results, replays):
            # the recorded feedback: step i of the law reads f[i - 1]
            [group] = build_contexts([record], model, detectors, **MIXED_SETTINGS)
            f = np.concatenate([-group.terms.error[0, 2, 1:], [0.0]])
            limits = AccelLimits()
            out_l, out_r = adapt_trace_naive(record.a_l.samples, record.a_r.samples, f,
                                             record.a_l.rate_hz, gains.as_array(),
                                             limits.max_longitudinal, limits.max_rotational, 0.05)
            assert adapted[0].tobytes() == np.array(out_l).tobytes()
            assert adapted[1].tobytes() == np.array(out_r).tobytes()
            oracle = _oracle_prediction(model, adapted[0], adapted[1])
            assert prediction.tobytes() == oracle.tobytes()
            raw = _oracle_prediction(model, record.a_l.samples, record.a_r.samples)
            assert result.stats.n_adapted == _oracle_counts(prediction, detectors)
            assert result.stats.n_raw == _oracle_counts(raw, detectors)
            phasic = decompose(record.eda, MIXED_SETTINGS["decomposition"]).phasic
            recorded = model.norm.phasic.apply(phasic.samples)
            assert result.stats.n_recorded == _oracle_counts(recorded, detectors)


def test_closed_loop_sessions_replay_together(small):
    # sessions of mixed lengths replay in one call; each result equals its
    # own one-session replay and follows the stepwise law, under gains
    # whose phasic integral binds a small clamp and under zero gains
    records, model = small
    sessions = _mixed_sessions(records, model.L)
    settings = dict(mode="closed_loop", **MIXED_SETTINGS)
    for gains in (BINDING, PidGains()):
        results = evaluate_sessions(sessions, gains, model, **settings)
        replays = _replay(sessions, gains, model, **settings)
        _assert_equals_alone(sessions, results, replays, gains, model, settings)
        for record, replay in zip(sessions, replays):
            f = _assert_follows_closed_loop_law(record, replay, gains, model, 0.05)
            if gains == BINDING and record is sessions[1]:
                a_l, a_r = record.a_l.samples, record.a_r.samples
                integral = pid_terms(a_l, a_r, f, record.a_l.rate_hz, 0.05).integral[2]
                assert np.any(integral == -0.05)  # the clamp binds


def test_replay_blocks_equal_each_gain_set_alone(small):
    # a block of gain sets replays, predicts and counts each set to the
    # bytes of that set on its own, over sessions of mixed lengths, with
    # binding clamps and zero gains inside one block; blocks of 2 over the
    # five sets end on a partial block
    records, model = small
    sessions = _mixed_sessions(records, model.L)
    detectors, limits = default_detectors(), AccelLimits()
    groups = build_contexts(sessions, model, detectors, **MIXED_SETTINGS)
    box = GainRanges()
    sets = np.vstack([BINDING.as_array(), np.zeros(len(GAIN_KEYS)),
                      np.random.default_rng(3).uniform(box.lo, box.hi, (3, len(GAIN_KEYS)))])
    for mode in MODES:
        alone = [next(_simulate(groups, x[None], model, detectors, mode, limits)) for x in sets]
        for size in (1, 2, 5):
            for start in range(0, len(sets), size):
                block = sets[start : start + size]
                trials = list(_simulate(groups, block, model, detectors, mode, limits))
                assert len(trials) == len(block)
                for sims, own in zip(trials, alone[start:]):
                    for mine, theirs in zip(sims, own, strict=True):
                        for a, b in zip(mine, theirs, strict=True):  # adapted, preds, counts
                            assert a.shape == b.shape and a.tobytes() == b.tobytes()


# both acceleration clamps bind on the cohort's accelerations, and the
# phasic integral binds a clamp of 0.05 within a clip or two
TIGHT_LIMITS = AccelLimits(0.5, 0.3)
TIGHT_CLAMP = 0.05


def _replay_against_the_stepwise_law(records, model, n, start, sets):
    """Replay samples [start, start + n) of ``records`` under the gain block ``sets``
    [B, 11] with one `_replay_clips` call, and check every row against the
    stepwise oracle fed the row's own holds, then `predict_clip` clip by clip.

    Returns each row's adapted acceleration [2, n] and the phasic integral the
    law ran, [n], row by row.
    """
    sessions = [_head(r, n, start) for r in records]
    accel = np.stack([(r.a_l.samples, r.a_r.samples) for r in sessions])
    terms = pid_terms(accel[:, 0], accel[:, 1], np.zeros((len(sessions), n)), model.rate_hz,
                      TIGHT_CLAMP)
    adapted, preds = optimize_module._replay_clips(terms, model, sets, TIGHT_LIMITS)
    assert adapted.shape == (len(sets), len(sessions), 2, n)
    assert preds.shape == (len(sets), len(sessions), n // model.L * model.L)
    rows = []
    for b, x in enumerate(sets):
        for i, record in enumerate(sessions):
            gains = PidGains.from_array(x)
            f = _assert_follows_closed_loop_law(record, (adapted[b, i], preds[b, i]), gains,
                                                model, TIGHT_CLAMP, TIGHT_LIMITS)
            integral = pid_terms(record.a_l.samples, record.a_r.samples, f,
                                 model.rate_hz, TIGHT_CLAMP).integral[2]
            rows.append((adapted[b, i], integral))
    return rows


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2**8), st.integers(0, 2**8),
       st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True),
       st.lists(st.floats(0.0, 40.0), max_size=3), st.integers(0, 3), st.integers(0, 2**16))
def test_replay_clips_equals_the_stepwise_law(small, clips, tail, start, picks, scales,
                                              zero_at, seed):
    # one `_replay_clips` call over 1-3 sessions of 3L to 6L + L - 1 samples
    # (a tail of 0 to L - 1 samples past the last full clip) under a block
    # of 1-4 gain sets: an all-zero set, and sets drawn from the box scaled
    # by up to 40; the acceleration and integral clamps are tight. Every
    # adapted sample and prediction has the bytes of the stepwise oracle
    records, model = small
    L = model.L
    n = clips * L + tail % L
    start = start % (len(records[0].a_l) - n + 1)
    box = GainRanges()
    rng = np.random.default_rng(seed)
    sets = [rng.uniform(box.lo, box.hi) * scale for scale in scales]
    sets.insert(zero_at % (len(sets) + 1), np.zeros(len(GAIN_KEYS)))
    _replay_against_the_stepwise_law([records[i] for i in picks], model, n, start,
                                     np.array(sets))


def test_the_stepwise_replay_check_binds_both_clamps(small):
    # the settings of the property test above bind every clamp: the phasic
    # integral reaches -0.05, and each adapted channel reaches its limit
    records, model = small
    L = model.L
    box = GainRanges()
    rng = np.random.default_rng(0)
    sets = np.array([np.zeros(len(GAIN_KEYS)), *(rng.uniform(box.lo, box.hi) * scale
                                                 for scale in (1.0, 4.0, 40.0))])
    rows = _replay_against_the_stepwise_law(records[:3], model, 6 * L + L - 1, 0, sets)
    assert any(np.any(integral == -TIGHT_CLAMP) for _, integral in rows)
    for channel, limit in enumerate((TIGHT_LIMITS.max_longitudinal, TIGHT_LIMITS.max_rotational)):
        assert any(np.any(np.abs(adapted[channel]) == limit) for adapted, _ in rows)


@pytest.mark.parametrize("m, n", [(10, 960), (1, 28_800)])
def test_replay_clips_memory_stays_within_its_stacks(small, monkeypatch, m, n):
    # one `_replay_clips` call over 6 gain sets: the acceptance eval split's
    # shape (60 rows of 960 samples) and one 1 h session at 8 Hz (6 rows of
    # 28,800). A stack is R * n doubles, R = 6 * m rows. The result holds
    # three (adapted [R, 2, n], predictions [R, n]), and making the PID
    # outputs the adapted rows start from holds a fourth for a while. The
    # whole call stays under 5 stacks + 128 KiB, which a replay that kept
    # a separate base beside its result also meets. From the first clip
    # step on, only the result and one clip's blocks are held: a block as
    # long as the session would break 3 stacks + 128 KiB
    _, model = small
    rng = np.random.default_rng(6)
    a_l, a_r = rng.normal(0.0, 1.0, (2, m, n))
    terms = pid_terms(a_l, a_r, np.zeros((m, n)), model.rate_hz)
    box = GainRanges()
    sets = rng.uniform(box.lo, box.hi, (6, len(GAIN_KEYS)))
    setup_peaks = []

    def first_step(model, rows, _real=optimize_module.predict_rows):
        if not setup_peaks:
            setup_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        return _real(model, rows)

    monkeypatch.setattr(optimize_module, "predict_rows", first_step)
    tracemalloc.start()
    try:
        replay = optimize_module._replay_clips(terms, model, sets, AccelLimits())
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = 6 * m * n * 8
    assert sum(x.nbytes for x in replay) == 3 * stack - 6 * m * (n % model.L) * 8
    assert max(setup_peaks[0], step_peak) < 5 * stack + 2**17
    assert step_peak < 3 * stack + 2**17


def test_build_contexts_groups_sessions_by_length(small):
    # one group per sample count, members in input order; each member's row
    # of the stacked state equals that session's state built on its own
    records, model = small
    sessions = _mixed_sessions(records, model.L)
    detectors = default_detectors()
    groups = build_contexts(sessions, model, detectors, **MIXED_SETTINGS)
    assert [g.members for g in groups] == [(0, 4), (1,), (2,), (3,)]
    for g in groups:
        assert g.n_raw.shape == g.n_recorded.shape == (len(g.members), 3)
        assert g.raw_msdv.shape == (len(g.members), 2)
        for row, i in enumerate(g.members):
            [alone] = build_contexts([sessions[i]], model, detectors, **MIXED_SETTINGS)
            for name in ("accel", "error", "integral", "delta"):
                assert getattr(g.terms, name)[row].tobytes() == getattr(alone.terms, name).tobytes()
            assert g.n_raw[row].tolist() == alone.n_raw[0].tolist()
            assert g.n_recorded[row].tolist() == alone.n_recorded[0].tolist()
            assert g.raw_msdv[row].tobytes() == alone.raw_msdv[0].tobytes()


def test_each_build_counts_the_recorded_phasic_once(small, monkeypatch):
    # every `build_contexts` call, a search's included, counts the events of
    # each group's scaled recorded phasic in one `count_events` call, beside
    # the one for its raw prediction, and stores nothing on the records
    records, model = small
    sessions = _mixed_sessions(records, model.L)
    decomposition = MIXED_SETTINGS["decomposition"]
    phasics = session_phasics(sessions, decomposition)
    builds, counted = [], []
    real_build, real_count = optimize_module.build_contexts, optimize_module.count_events

    def build(records, *args):
        first = len(counted)
        groups = real_build(records, *args)
        builds.append((groups, counted[first:]))
        return groups

    def count(x, *args):
        counted.append(np.array(x))
        return real_count(x, *args)

    monkeypatch.setattr(optimize_module, "build_contexts", build)
    monkeypatch.setattr(optimize_module, "count_events", count)
    for mode in MODES:
        optimize(sessions, model, budget=4, seed=5, mode=mode, **MIXED_SETTINGS)
    evaluate_sessions(sessions, TUNED_GAINS, model, **MIXED_SETTINGS)
    assert len(builds) == 3
    for groups, calls in builds:
        assert len(groups) == 4 and len(calls) == 2 * len(groups)
        for g in groups:
            recorded = np.stack([model.norm.phasic.apply(phasics[i].samples) for i in g.members])
            assert sum(x.tobytes() == recorded.tobytes() for x in calls) == 1
    assert all(len(r.replays) == 1 for r in sessions)


# the calls that replay a trial: closed loop one `_replay_clips`, offline one
# `apply_gains` and one adapted `predict_sessions`, per length group; each
# group's `build_contexts` adds one `pid_terms` and one raw `predict_sessions`
REPLAY_STEPS = ("pid_terms", "_replay_clips", "apply_gains", "predict_sessions")


def _replays(mode, n_groups) -> Counter:
    """The `REPLAY_STEPS` calls of replaying ``n_groups`` length groups once."""
    steps = (Counter(apply_gains=1, predict_sessions=1) if mode == "offline"
             else Counter(_replay_clips=1))
    return Counter({name: n * n_groups for name, n in
                    (steps + Counter(pid_terms=1, predict_sessions=1)).items()})


def _count_replay_calls(monkeypatch, built: list) -> Counter:
    """Calls of `REPLAY_STEPS`, by name; ``built`` gets the record list of
    each `build_contexts` call."""
    calls = Counter()
    for name in REPLAY_STEPS:
        def spy(*args, _real=getattr(optimize_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(optimize_module, name, spy)

    def build(records, *args, _real=optimize_module.build_contexts):
        built.append(list(records))
        return _real(records, *args)

    monkeypatch.setattr(optimize_module, "build_contexts", build)
    return calls


def _two_lengths(records, L):
    """Six sessions of two lengths, interleaved: full, and L + 3 samples shorter."""
    n = len(records[0].a_l)
    return [_head(r, n - (L + 3) * (i % 2)) for i, r in enumerate(records[:6])]


def _check_replays(monkeypatch, sessions, model, group, gains, replayed, **settings):
    """Evaluate ``group``: exactly the records ``replayed`` are replayed, in one
    `build_contexts` call, once per length group, and every result equals
    that of fresh copies, whose stores are empty."""
    built = []
    calls = _count_replay_calls(monkeypatch, built)
    kept = evaluate_sessions(group, gains, model, **settings)
    monkeypatch.undo()
    assert [list(map(id, b)) for b in built] == [list(map(id, replayed))], (gains, settings)
    n_groups = len({len(r.eda) for r in replayed})
    assert calls == _replays(settings.get("mode", "offline"), n_groups), (gains, settings)
    fresh = evaluate_sessions([replace(r) for r in group], gains, model, **settings)
    assert [r.stats for r in kept] == [r.stats for r in fresh]
    assert all(len(r.replays) == 1 and len(r.phasics) == 1 for r in sessions)


@pytest.mark.parametrize("mode", MODES)
def test_evaluation_reuses_the_search_replay_state(small, monkeypatch, mode):
    # after optimize, evaluating its best gains on the searched list, its
    # reverse, a reordered subset or a fresh list of the same records
    # replays nothing: each record holds its own report row under the
    # best's tag. Other gains replay exactly the records that lack a row
    # under their tag, and each new row replaces its record's last one
    records, model = small
    sessions = _two_lengths(records, model.L)
    best = optimize(sessions, model, budget=4, seed=1, mode=mode).best.gains
    subset = [sessions[i] for i in (5, 2, 3, 0)]
    for group in (sessions, sessions[::-1], subset, list(sessions)):
        _check_replays(monkeypatch, sessions, model, group, best, [], mode=mode)
    _check_replays(monkeypatch, sessions, model, subset, TUNED_GAINS, subset, mode=mode)
    _check_replays(monkeypatch, sessions, model, sessions, TUNED_GAINS,
                   [sessions[1], sessions[4]], mode=mode)
    _check_replays(monkeypatch, sessions, model, sessions[::-1], TUNED_GAINS, [], mode=mode)
    _check_replays(monkeypatch, sessions, model, subset, best, subset, mode=mode)
    assert all(not replace(r).replays for r in sessions)


@pytest.mark.parametrize("mode", MODES)
def test_evaluation_takes_the_search_best_from_its_groups(small, monkeypatch, mode):
    # right after a search, evaluating its best gains on the same records
    # replays nothing: the search left each record the row of its best
    # trial. Other gains, other limits, the other mode, a best gain one ulp
    # away or another clamp replay every record once per length group, and
    # then the best replays too, its rows replaced; a later search leaves
    # its own best's rows
    records, model = small
    sessions = _two_lengths(records, model.L)

    def check(group, gains, replayed, **settings):
        _check_replays(monkeypatch, sessions, model, group, gains, replayed, **settings)

    first = optimize(sessions, model, budget=6, seed=1, mode=mode).best.gains
    nudged = first.as_array()
    nudged[6] = np.nextafter(nudged[6], np.inf)
    other = MODES[1 - MODES.index(mode)]
    check(sessions, first, [], mode=mode)
    check(sessions, TUNED_GAINS, sessions, mode=mode)
    check(sessions, first, sessions, mode=mode)
    check(sessions, first, sessions, mode=mode, limits=AccelLimits(2.0, 1.0))
    check(sessions, first, sessions, mode=other)
    check(sessions, PidGains.from_array(nudged), sessions, mode=mode)
    check(sessions, first, sessions, mode=mode, integral_clamp=0.05)
    check(sessions, first, sessions, mode=mode)
    check(sessions, first, [], mode=mode)
    best = optimize(sessions, model, budget=6, seed=2, mode=mode).best.gains
    assert best != first
    check(sessions[::-1], best, [], mode=mode)
    check(sessions, first, sessions, mode=mode)
    check(sessions, best, sessions, mode=mode)


def _tie_objectives(monkeypatch, best, ties):
    """Score trial ``best`` and each trial of ``ties`` (later ones) with trial
    ``best``'s detector rows, and every other trial 0, in recording order."""
    recorded = iter(range(10**6))
    rows = {}

    def stub(n_raw, n_adapted):
        t = next(recorded)
        if t == best:
            rows[t] = detector_stats(n_raw, n_adapted)
        return rows[best] if t == best or t in ties else [SimpleNamespace(percentage=0.0)]

    monkeypatch.setattr(optimize_module, "detector_stats", stub)


@pytest.mark.parametrize("mode", MODES)
def test_a_tied_later_trial_leaves_the_first_in_the_groups(small, monkeypatch, mode):
    # trial 1 scores its own percentages, trials 9 (phase one) and 24 (a
    # phase-two block) tie it, and every other trial scores 0: each record
    # keeps trial 1's row, as the search's best does, so evaluating it
    # replays nothing. Its report's positives are the best trial's
    # percentages times the session count / 100, the check perfbench's
    # `check_positives` makes on the written report
    records, model = small
    sessions = _two_lengths(records, model.L)
    _tie_objectives(monkeypatch, 1, {9, 24})
    result = optimize(sessions, model, budget=30, seed=0, mode=mode)
    monkeypatch.undo()
    best = result.best
    assert best.index == 1 and best.objective > 0
    assert [t.index for t in result.trials if t.objective == best.objective] == [1, 9, 24]
    tag = (model, default_detectors(), DecompositionConfig(), DEFAULT_INTEGRAL_CLAMP,
           best.gains.as_array().tobytes(), mode, AccelLimits())
    assert all(list(r.replays) == [tag] for r in sessions)
    built = []
    calls = _count_replay_calls(monkeypatch, built)
    stats = [r.stats for r in evaluate_sessions(sessions, best.gains, model, mode=mode)]
    assert calls == Counter() and built == [[]]
    monkeypatch.undo()
    fresh = evaluate_sessions([replace(r) for r in sessions], best.gains, model, mode=mode)
    assert stats == [r.stats for r in fresh]
    report = build_report(stats, result.methods)
    for method, percentage in zip(result.methods, best.percentages, strict=True):
        assert report.stats[method].positives == pytest.approx(percentage * len(stats) / 100)


@pytest.fixture(scope="module")
def hour():
    """Three 1 h, 8 Hz eval sessions (28,800 samples each), already
    decomposed, and a model trained on short 8 Hz sessions."""
    model, _ = train_surrogate(synth_cohort(4, 300.0, 8.0, seed=7))
    sessions = [replace(r, split="eval") for r in synth_cohort(3, 3600.0, 8.0, seed=8)]
    session_phasics(sessions, DecompositionConfig())
    return sessions, model


@pytest.mark.parametrize("mode", MODES)
def test_hour_sessions_keep_only_their_report_rows(hour, mode):
    # after a search the records hold one report row each, not the replay
    # state (PID terms and scaled phasic, about 8 MiB), and evaluating the
    # best reads the rows without replaying. Fresh records that share the
    # phasics, so no state of another search is on them
    records, model = hour
    sessions = [replace(r) for r in records]
    for copy, record in zip(sessions, records):
        copy.phasics.update(record.phasics)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        best = optimize(sessions, model, budget=2, seed=0, mode=mode).best.gains
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        results = evaluate_sessions(sessions, best, model, mode=mode)
        added = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert held < 2**16 and added < 2**16
    assert [r.stats for r in results] == [r.replays[next(iter(r.replays))] for r in sessions]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.permutations(range(6)), st.integers(1, 6)), min_size=1, max_size=3),
       st.sampled_from(MODES))
def test_evaluation_after_a_search_equals_fresh_records(small, subsets, mode):
    # successive permutations and subsets of a two-length cohort, evaluated
    # after a search on it, each reading or replacing its records' rows: the
    # results are those of fresh copies, and every record holds one report
    # row and one phasic entry
    records, model = small
    sessions = _two_lengths(records, model.L)
    result = optimize(sessions, model, budget=2, seed=1, mode=mode)
    for order, size in subsets:
        group = [sessions[i] for i in order[:size]]
        for gains in (TUNED_GAINS, result.best.gains):
            kept = evaluate_sessions(group, gains, model, mode=mode)
            fresh = evaluate_sessions([replace(r) for r in group], gains, model, mode=mode)
            assert [r.stats for r in kept] == [r.stats for r in fresh]
            assert all(len(r.replays) == 1 and len(r.phasics) == 1 for r in sessions)


def test_another_key_refills_the_replay_state(small, tmp_path, monkeypatch):
    # a row is tagged by the model object, the detectors, the decomposition
    # and the clamp besides the gains, mode and limits: another model object
    # with the same weights, another clamp, another detector tuple or
    # another decomposition replays each record, and a list of the same
    # detectors does not. Each replay replaces the record's row, so the
    # first key replays too once another has been used
    records, model = small
    sessions = _two_lengths(records, model.L)
    write_model(model, tmp_path / "model.csv")
    twin = read_model(tmp_path / "model.csv")
    detectors = default_detectors()
    evaluate_sessions(sessions, TUNED_GAINS, model)
    other = DecompositionConfig(median_window_s=4.0, average_window_s=6.0)
    for key, refills in (
        (dict(model=model, detectors=list(detectors)), False),
        (dict(model=twin), True),
        (dict(model=model, integral_clamp=0.05), True),
        (dict(model=model, detectors=detectors[:2]), True),
        (dict(model=model, detectors=(replace(detectors[0], min_amplitude=0.1),
                                      *detectors[1:])), True),
        (dict(model=model, decomposition=other), True),
        (dict(model=model), True),
        (dict(model=model, detectors=list(detectors)), False),
    ):
        calls = _count_replay_calls(monkeypatch, [])
        kept = evaluate_sessions(sessions, TUNED_GAINS, **key)
        assert calls["pid_terms"] == (2 if refills else 0), key
        monkeypatch.undo()
        fresh = evaluate_sessions([replace(r) for r in sessions], TUNED_GAINS, **key)
        assert [r.stats for r in kept] == [r.stats for r in fresh]
        # one entry in each store, the key just used and its decomposition
        decomposition = key.get("decomposition", DecompositionConfig())
        for r in sessions:
            assert len(r.replays) == 1 and set(r.phasics) == {decomposition}
            assert next(iter(r.replays))[0] is key["model"]


def test_a_replaced_model_can_be_collected(small, tmp_path):
    # a record's store keeps the model of its one key alive, and no longer
    # once the records are evaluated with another model
    records, model = small
    sessions = _two_lengths(records, model.L)
    write_model(model, tmp_path / "model.csv")
    first = read_model(tmp_path / "model.csv")
    evaluate_sessions(sessions, TUNED_GAINS, first)
    gone = weakref.ref(first)
    del first
    gc.collect()
    assert gone() is not None
    evaluate_sessions(sessions, TUNED_GAINS, model)
    gc.collect()
    assert gone() is None


def test_model_weights_are_a_read_only_copy(small):
    # a model tags the report rows by identity, so its weights cannot change
    # under the tag; the caller's array is copied, not frozen
    _, model = small
    weights = np.array(model.weights)
    twin = SurrogateModel(weights, model.clip_len_s, model.rate_hz, model.norm, model.train_mae)
    assert weights.flags.writeable and twin.weights is not weights
    with pytest.raises(ValueError):
        twin.weights[0, 0] = 1.0
    weights[0, 0] += 1.0
    assert twin.weights[0, 0] == model.weights[0, 0]
    assert twin != model and len({model, twin, model}) == 2


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(70, 400)), min_size=1, max_size=2),
       st.integers(0, 2**16))
def test_zero_gains_score_zero_offline(small, cohorts, seed):
    # a controller switched off leaves the scored session as recorded: on
    # short cohorts of one or two lengths (65 samples at 4 Hz is the
    # shortest the default decomposition takes) every session counts as
    # many adapted events as raw ones, and every trial of a search in a box
    # of zero gains scores 0
    _, model = small
    sessions = [r for i, (n, samples) in enumerate(cohorts)
                for r in synth_cohort(n, samples / model.rate_hz, model.rate_hz, seed=seed + i)]
    zero = GainRanges(np.zeros(len(GAIN_KEYS)), np.zeros(len(GAIN_KEYS)))
    result = optimize(sessions, model, budget=3, seed=seed, ranges=zero)
    assert [t.objective for t in result.trials] == [0.0, 0.0, 0.0]
    for r in evaluate_sessions(sessions, PidGains(), model):
        assert r.stats.n_adapted == r.stats.n_raw


def test_build_contexts_integral_matches_the_scalar_loop(monkeypatch):
    # the acceptance eval sessions: every row of the stacked integral has the
    # bytes of clamping after every step, and every longitudinal row sits at
    # -clamp for a long run; no row changes sign and reaches the clamp, so
    # none is redone one step at a time
    records = synth_cohort(40, 240.0, 4.0, seed=12345)
    model, _ = train_surrogate(records)
    clamp = DEFAULT_INTEGRAL_CLAMP

    def no_loop(*args):
        raise AssertionError("scalar update reached on an acceptance row")

    monkeypatch.setattr(control_module, "_clamp_each_step", no_loop)
    groups = build_contexts(eval_split(records), model, default_detectors(),
                            DecompositionConfig(), clamp)
    for terms in (g.terms for g in groups):
        for row in np.ndindex(terms.error.shape[:-1]):
            expected = clamped_sum_naive(0.0, (terms.error[row] * terms.dt).tolist(), clamp)
            assert terms.integral[row].tobytes() == np.array(expected).tobytes()
        n = terms.integral.shape[-1]
        assert np.all(np.sum(terms.integral[:, 0] == -clamp, axis=-1) > n // 5)


ONE_ULP_UP = math.nextafter(4.0, 5.0)


def _rate_checks(record, model, rate):
    """Each rate check of the package, as a call whose traces disagree with 4 Hz at ``rate``."""
    def at_rate(tr):
        return Trace(tr.samples, rate, tr.unit)
    a_l, a_r, eda = record.a_l, record.a_r, record.eda
    moved = {k: at_rate(getattr(record, k)) for k in ("a_l", "a_r", "eda")}
    moved_phasic = at_rate(decompose(eda).phasic)
    return [
        (lambda: replace(record, eda=moved["eda"]), "traces must share rate"),
        (lambda: EdaDecomposition(eda, decompose(eda).tonic, moved_phasic),
         "decomposition traces must share rate"),
        (lambda: make_clips(a_l, a_r, moved_phasic, model.norm), "traces must share rate"),
        (lambda: check_model_rate([replace(record, **moved)], model), "does not match model rate"),
        (lambda: held_out_mae(model, [replace(record, **moved)]), "does not match model rate"),
        (lambda: synth_session(a_l, moved["a_r"], OracleParams()), "traces must be aligned"),
        (lambda: build_contexts([replace(record, **moved)], model, default_detectors(),
                                DecompositionConfig(), DEFAULT_INTEGRAL_CLAMP),
         "does not match model rate"),
    ]


def test_rate_checks_take_a_rate_one_ulp_away(small):
    # every rate check compares with `same_rate`: one ulp passes, 4 Hz
    # against 8 Hz raises as before
    records, model = small
    assert model.rate_hz == 4.0 and same_rate(4.0, ONE_ULP_UP) and not same_rate(4.0, 8.0)
    for check, _ in _rate_checks(records[0], model, ONE_ULP_UP):
        check()
    for check, message in _rate_checks(records[0], model, 8.0):
        with pytest.raises(ValueError, match=message):
            check()


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def test_objective_is_zero_for_zero_gains(small):
    records, model = small
    methods = ("kim2004", "gamboa2008", "neurokit")
    results = evaluate_sessions(eval_split(records), PidGains(), model)
    report = build_report([r.stats for r in results], methods)
    assert [report.stats[m].percentage for m in methods] == [0.0, 0.0, 0.0]


def test_objective_counts_strict_reductions(small):
    # a search over a one-point box scores that point exactly as the
    # report of its replay does
    records, model = small
    sessions = eval_split(records)
    g = TUNED_GAINS.as_array()
    result = optimize(sessions, model, budget=3, seed=4, ranges=GainRanges(g, g))
    report = build_report([r.stats for r in evaluate_sessions(sessions, TUNED_GAINS, model)],
                          result.methods)
    percentages = tuple(report.stats[m].percentage for m in result.methods)
    for trial in result.trials:
        assert trial.gains == TUNED_GAINS
        assert trial.percentages == percentages
        assert trial.objective == sum(percentages)
    assert 0.0 < result.best.objective <= 300.0


def test_closed_loop_trial_scores_its_replay(small):
    # the trial loop reads only event counts; they give the report's rows
    records, model = small
    sessions = eval_split(records)
    g = TUNED_GAINS.as_array()
    result = optimize(sessions, model, budget=2, seed=4, ranges=GainRanges(g, g),
                      mode="closed_loop")
    results = evaluate_sessions(sessions, TUNED_GAINS, model, mode="closed_loop")
    report = build_report([r.stats for r in results], result.methods)
    percentages = tuple(report.stats[m].percentage for m in result.methods)
    assert [t.percentages for t in result.trials] == [percentages, percentages]


# ---------------------------------------------------------------------------
# Gain search
# ---------------------------------------------------------------------------

def test_optimize_is_deterministic(small):
    records, model = small
    sessions = eval_split(records)
    a = optimize(sessions, model, budget=10, seed=5)
    b = optimize(sessions, model, budget=10, seed=5)
    assert len(a.trials) == 10
    assert a.best.index == b.best.index
    for ta, tb in zip(a.trials, b.trials):
        np.testing.assert_array_equal(ta.gains.as_array(), tb.gains.as_array())
        assert ta.objective == tb.objective
    c = optimize(sessions, model, budget=10, seed=6)
    assert any(
        not np.array_equal(ta.gains.as_array(), tc.gains.as_array())
        for ta, tc in zip(a.trials, c.trials)
    )


def test_optimize_bookkeeping(small):
    records, model = small
    result = optimize(eval_split(records), model, budget=14, seed=1)
    assert isinstance(result, OptimizeResult)
    assert [t.index for t in result.trials] == list(range(14))
    assert result.best.objective == max(t.objective for t in result.trials)
    assert result.methods == ("kim2004", "gamboa2008", "neurokit")
    # the reported best is the earliest trial achieving the best value
    first_best = next(
        t.index for t in result.trials if t.objective == result.best.objective
    )
    assert result.best.index == first_best


def _assert_follows_schedule(result, seed, n_explore, halve_after):
    """Replay the documented schedule from the trial objectives of a search in the default box."""
    box = GainRanges()
    rng = np.random.default_rng(seed)
    sigma = 0.2 * (box.hi - box.lo)
    best_x, best_obj, stall = None, -np.inf, 0
    for t, trial in enumerate(result.trials):
        assert trial.index == t
        if t < n_explore:
            x = rng.uniform(box.lo, box.hi)
        else:
            x = np.clip(best_x + rng.standard_normal(len(GAIN_KEYS)) * sigma, box.lo, box.hi)
        assert trial.gains.as_array().tolist() == x.tolist()
        if trial.objective > best_obj:
            best_x, best_obj, stall = x, trial.objective, 0
        elif t >= n_explore:
            stall += 1
            if stall == halve_after:
                sigma, stall = sigma / 2.0, 0
    assert result.best.objective == best_obj


def test_search_follows_its_schedule(small):
    # replay the documented schedule from the trial objectives: uniform
    # draws in phase one, then Gaussian steps around the incumbent whose
    # sigma halves after every halve_after phase-two trials without a strict
    # improvement; phase-one trials never count toward a halving
    records, model = small
    result = optimize(eval_split(records), model, budget=24, seed=8, explore_frac=0.25,
                      halve_after=2)
    _assert_follows_schedule(result, 8, 6, 2)


def test_closed_loop_search_follows_its_schedule_across_blocks(small, monkeypatch):
    # closed loop, phase one replays max(1, ROWS // m) trials per block, m
    # the largest group of equal-length sessions; here phase one spans two
    # full blocks and a partial one, and every trial still follows the
    # schedule and scores as its own replay does
    records, model = small
    sessions = _mixed_sessions(records, model.L)
    block = max(1, ROWS // max(Counter(len(r.a_l) for r in sessions).values()))
    n_explore = 2 * block + block // 2 + 1
    budget = n_explore + 8
    blocks = []

    def spy(terms, model, gains, limits):
        blocks.append(len(gains))
        return replay(terms, model, gains, limits)

    replay = optimize_module._replay_clips
    monkeypatch.setattr(optimize_module, "_replay_clips", spy)
    settings = dict(mode="closed_loop", **MIXED_SETTINGS)
    result = optimize(sessions, model, budget=budget, seed=9, explore_frac=n_explore / budget,
                      halve_after=2, **settings)
    monkeypatch.undo()
    # phase two replays the next min(block, trials left) candidates in one
    # call and drops those after its first strict improvement
    phase_two, t = [], n_explore
    best = max(trial.objective for trial in result.trials[:n_explore])
    while t < budget:
        size = min(block, budget - t)
        phase_two.append(size)
        for trial in result.trials[t : t + size]:
            t += 1
            if trial.objective > best:
                best = trial.objective
                break
    n_groups = len(set(len(r.a_l) for r in sessions))
    assert blocks == ([block] * n_groups * 2 + [block // 2 + 1] * n_groups
                      + [size for size in phase_two for _ in range(n_groups)])
    _assert_follows_schedule(result, 9, n_explore, 2)
    for trial in result.trials:
        results = evaluate_sessions(sessions, trial.gains, model, **settings)
        expected = detector_stats([r.stats.n_raw for r in results],
                                  [r.stats.n_adapted for r in results])
        assert trial.percentages == tuple(s.percentage for s in expected)
        assert trial.objective == sum(trial.percentages)


def _one_length(records, L):
    """16 sessions of 3L samples: one group, so a block holds ROWS // 16 = 4 trials."""
    assert ROWS // 16 == 4
    return [_head(records[i % len(records)], 3 * L) for i in range(16)]


def _stub_objectives(monkeypatch, improving):
    """Score trial t as t if t is in ``improving``, else 0.0, in recording order."""
    recorded = iter(range(10**6))

    def stub(n_raw, n_adapted):
        t = next(recorded)
        return [SimpleNamespace(percentage=float(t) if t in improving else 0.0)]

    monkeypatch.setattr(optimize_module, "detector_stats", stub)


@pytest.mark.parametrize("improving, halve_after, starts", [
    ({1}, 10, [0, 1, 2, 6]),  # the first trial of a phase-two block moves the incumbent
    ({2}, 10, [0, 1, 3, 7]),  # a middle trial
    ({4}, 10, [0, 1, 5]),  # the last trial: nothing to drop
    ({3}, 2, [0, 1, 4, 8]),  # sigma halves after trial 2, before the move at trial 3
])
def test_phase_two_blocks_drop_the_trials_after_a_move(small, monkeypatch, improving,
                                                       halve_after, starts):
    # blocks of 4 trials; phase one is trial 0 and phase two trials 1-8. A
    # block is built as if none of its trials improves; after the first
    # that does, the rest of the block is replayed but dropped, and its
    # steps are rebuilt around the new incumbent in the next block. Offline,
    # a dropped trial is never replayed
    records, model = small
    sessions = _one_length(records, model.L)
    budget = 9
    calls, applied = [], []

    def spy(terms, model, gains, limits):
        calls.append(gains.copy())
        return replay(terms, model, gains, limits)

    def spy_apply(terms, x, limits):
        applied.append(x)
        return apply(terms, x, limits)

    replay, apply = optimize_module._replay_clips, optimize_module.apply_gains
    monkeypatch.setattr(optimize_module, "_replay_clips", spy)
    monkeypatch.setattr(optimize_module, "apply_gains", spy_apply)
    results = {}
    for mode in MODES:
        _stub_objectives(monkeypatch, improving)
        results[mode] = optimize(sessions, model, budget=budget, seed=11,
                                 explore_frac=1 / budget, halve_after=halve_after, mode=mode,
                                 **MIXED_SETTINGS)
    monkeypatch.undo()
    result = results["closed_loop"]
    _assert_follows_schedule(result, 11, 1, halve_after)
    assert result.best.index == max(improving)
    assert results["offline"].trials == result.trials
    assert len(applied) == budget
    sizes = [len(gains) for gains in calls]
    assert sizes == [min(4 if s else 1, budget - s) for s in starts]
    ends = starts[1:] + [budget]
    for gains, start, end in zip(calls, starts, ends):
        recorded = [t.gains.as_array() for t in result.trials[start:end]]
        np.testing.assert_array_equal(gains[: end - start], recorded)
        # the dropped candidates were built around the old incumbent
        for row, trial in zip(gains[end - start :], result.trials[end:]):
            assert row.tolist() != trial.gains.as_array().tolist()


def test_search_frees_each_block_before_the_next_replay(small, monkeypatch):
    # the replays of one block are gone before the next block's replay runs,
    # so a search holds one block's replay arrays at a time, and the last
    # block's are gone when it returns
    records, model = small
    refs = []  # (block, weak reference to a replay array)
    blocks = []

    def spy_simulate(groups, gains, *args):
        blocks.append(len(gains))
        return simulate(groups, gains, *args)

    def spy_replay(terms, model, gains, limits):
        assert [b for b, ref in refs if b < len(blocks) and ref() is not None] == []
        out = replay(terms, model, gains, limits)
        # a view keeps its owner alive, and the owner holds the memory
        refs.extend((len(blocks), weakref.ref(a if a.base is None else a.base))
                    for a in out)
        return out

    simulate, replay = optimize_module._simulate, optimize_module._replay_clips
    monkeypatch.setattr(optimize_module, "_simulate", spy_simulate)
    monkeypatch.setattr(optimize_module, "_replay_clips", spy_replay)
    _stub_objectives(monkeypatch, {0, 5, 14})
    optimize(_one_length(records, model.L), model, budget=20, seed=2, mode="closed_loop",
             **MIXED_SETTINGS)
    monkeypatch.undo()
    assert blocks == [4, 4, 4, 4, 4, 1] and len(refs) == 2 * len(blocks)
    # and none outlives the search: the groups keep doses and counts only
    assert [b for b, ref in refs if ref() is not None] == []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cohort", ["small", "mixed"])
def test_search_history_equals_the_naive_search(small, tmp_path, mode, cohort):
    # optimize's blocks, speculative in phase two, leave every draw,
    # candidate, score and incumbent of one trial at a time; on the small
    # cohort with seed 3 phase two moves the incumbent at trials 24, 29 and
    # 33 (offline, budget 40), 240 (offline, 400), 28, 29 and 34 (closed
    # loop, 40) and 240 and 248 (closed loop, 400)
    records, model = small
    if cohort == "small":
        sessions, settings, seed = records, {}, 3
    else:
        sessions, settings, seed = _mixed_sessions(records, model.L), MIXED_SETTINGS, 0
    for budget in (10, 40, 400):
        write_history_csv(optimize(sessions, model, budget, seed=seed, mode=mode, **settings),
                          tmp_path / "fast.csv")
        write_history_csv(search_naive(sessions, model, budget, seed, mode, **settings),
                          tmp_path / "naive.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "naive.csv").read_bytes()


@pytest.mark.parametrize("mode", MODES)
def test_search_history_does_not_depend_on_the_block(small, tmp_path, monkeypatch, mode):
    # the 8 sessions of the small cohort share one length, so ROWS 1, 40 and
    # 640 give blocks of 1, 5 and 80 trials beside the default 8: at seed 3
    # (budget 40) phase two starts at trial 24 and moves the incumbent at
    # trials 24, 29 and 33 offline, so the blocks of 5 start at a move, end
    # at one and cut one in the middle, and a block of 80 holds all of phase one
    records, model = small
    for budget in (10, 40):
        write_history_csv(optimize(records, model, budget, seed=3, mode=mode),
                          tmp_path / "default.csv")
        for rows in (1, 40, 640):
            monkeypatch.setattr(optimize_module, "ROWS", rows)
            write_history_csv(optimize(records, model, budget, seed=3, mode=mode),
                              tmp_path / "blocked.csv")
            monkeypatch.undo()
            assert ((tmp_path / "blocked.csv").read_bytes()
                    == (tmp_path / "default.csv").read_bytes()), (budget, rows)


def _search_and_report(sessions, model, tmp_path, name, settings, threshold, fall_back):
    """history.csv and per_session.csv of an offline budget-40 search and of
    `evaluate_sessions` of its best on fresh records, with the certified
    path's threshold at ``threshold`` samples and, with ``fall_back``, every
    row's margin forced to 0 and its fast prediction turned upside down, so
    that only the fallback gives the exact counts; and the (ε, margins) of
    each certified group."""
    certified = []
    real_margins = optimize_module._count_with_margins
    real_bounded = optimize_module._predict_bounded

    def margins(x, *args):
        counts, found = real_margins(x, *args)
        certified[-1].append(np.zeros_like(found) if fall_back else found)
        return counts, certified[-1][-1]

    def bounded(*args):
        preds, eps = real_bounded(*args)
        certified.append([eps])
        return (1.0 - preds if fall_back else preds), eps

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize_module, "_CERTIFIED_SAMPLES", threshold)
        patch.setattr(optimize_module, "_count_with_margins", margins)
        patch.setattr(optimize_module, "_predict_bounded", bounded)
        result = optimize([replace(r) for r in sessions], model, 40, seed=3, **settings)
        write_history_csv(result, tmp_path / f"{name}.history.csv")
        rows = evaluate_sessions([replace(r) for r in sessions], result.best.gains, model,
                                 **settings)
        write_per_session_csv([r.stats for r in rows], result.methods,
                              tmp_path / f"{name}.per_session.csv")
    return ((tmp_path / f"{name}.history.csv").read_bytes(),
            (tmp_path / f"{name}.per_session.csv").read_bytes(), certified)


@pytest.mark.parametrize("cohort", ["small", "mixed"])
def test_certified_counts_leave_the_search_and_its_report_alone(small, tmp_path, cohort):
    # offline budget-40 searches and the evaluation of their best: with the
    # threshold above every group's length (today's path), at the long
    # groups' length (the small cohort's one length; the mixed cohort's
    # 5L+4 and full-length groups, its 3L and 3L+1 groups staying exact),
    # and there with every margin forced to 0, so every row falls back.
    # history.csv and per_session.csv are byte-equal in all three; the
    # certified runs certify rows, and the forced ones certify none
    records, model = small
    if cohort == "small":
        sessions, settings, threshold = records, {}, len(records[0].a_l)
    else:
        sessions, settings = _mixed_sessions(records, model.L), MIXED_SETTINGS
        threshold = 5 * model.L + 4
    exact = _search_and_report(sessions, model, tmp_path, "exact", settings, 10**9, False)
    assert exact[2] == []
    long_groups = 1 if cohort == "small" else 2
    for name, fall_back in (("certified", False), ("fallback", True)):
        history, per_session, certified = _search_and_report(
            sessions, model, tmp_path, name, settings, threshold, fall_back)
        assert (history, per_session) == exact[:2], name
        assert len(certified) == 41 * long_groups  # 40 trials, then the evaluation
        kept = sum(int(np.sum(margins > 3 * eps)) for eps, margins in certified)
        assert kept == 0 if fall_back else kept > 0.9 * sum(len(eps) for eps, _ in certified)


def test_optimize_ties_keep_earliest_trial(small):
    records, model = small
    frozen = GainRanges(np.zeros(len(GAIN_KEYS)), np.zeros(len(GAIN_KEYS)))
    result = optimize(eval_split(records), model, budget=5, seed=2, ranges=frozen)
    assert result.best.index == 0
    assert all(t.objective == 0.0 for t in result.trials)


def test_optimize_validation(small):
    records, model = small
    sessions = eval_split(records)
    with pytest.raises(ValueError):
        optimize([], model, budget=5)
    with pytest.raises(ValueError):
        optimize(sessions, model, budget=0)
    with pytest.raises(ValueError):
        optimize(sessions, model, budget=5, mode="online")
    with pytest.raises(ValueError):
        optimize(sessions, model, budget=5, explore_frac=0.0)
    with pytest.raises(ValueError):
        optimize(sessions, model, budget=5, workers=0)
    for sigma_scale in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="sigma_scale"):
            optimize(sessions, model, budget=5, sigma_scale=sigma_scale)
    with pytest.raises(ValueError, match="halve_after"):
        optimize(sessions, model, budget=5, halve_after=0)
    with pytest.raises(ValueError, match="mode"):
        evaluate_sessions(sessions, PidGains(), model, mode="online")
    with pytest.raises(ValueError, match="integral_clamp"):
        optimize(sessions, model, budget=5, integral_clamp=-1.0)


def test_gain_ranges_validation():
    n = len(GAIN_KEYS)
    with pytest.raises(ValueError, match="entries"):
        GainRanges(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="empty range for K_Pr"):
        hi = np.full(n, 0.5)
        hi[3] = -0.1
        GainRanges(np.zeros(n), hi)
    with pytest.raises(ValueError, match="non-negative"):
        GainRanges(np.full(n, -1.0), np.zeros(n))
    with pytest.raises(ValueError, match="finite"):
        GainRanges(np.zeros(n), np.full(n, np.inf))
    box = GainRanges()
    np.testing.assert_array_equal(box.lo, np.zeros(n))
    np.testing.assert_array_equal(box.hi, ACCEL_RANGES.hi)  # the acceptance box
    with pytest.raises(ValueError):
        box.hi[0] = 9.0  # frozen


def test_history_csv(small, tmp_path):
    records, model = small
    result = optimize(eval_split(records), model, budget=6, seed=3)
    path = tmp_path / "history.csv"
    write_history_csv(result, path)
    lines = path.read_text().splitlines()
    expected_header = (
        "trial," + ",".join(GAIN_KEYS) + ",objective,pct_kim2004,pct_gamboa2008,pct_neurokit"
    )
    assert lines[0] == expected_header
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert first[0] == "0"
    np.testing.assert_array_equal(
        [float(v) for v in first[1 : 1 + len(GAIN_KEYS)]],
        result.trials[0].gains.as_array(),
    )
    assert float(first[1 + len(GAIN_KEYS)]) == result.trials[0].objective
