"""Simulation, objective, and gain-search tests on a small synthetic cohort."""

import importlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from edanav.control import (
    DEFAULT_INTEGRAL_CLAMP,
    GAIN_KEYS,
    AccelLimits,
    PidGains,
    adapt_trace,
    pid_terms,
)
from edanav.dataset import synth_cohort
from edanav.metrics import MSDV_LONGITUDINAL, MSDV_ROTATIONAL, build_report, detector_stats, msdv
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
from edanav.pipeline import eval_split, train_surrogate
from edanav.scr import count_er_scr, default_detectors
from edanav.signals import DecompositionConfig, NormParams, Trace, decompose
from edanav.surrogate import predict_session

from oracles import adapt_trace_naive, predict_clip

# the module itself: the package binds the name `optimize` to the function
optimize_module = importlib.import_module("edanav.optimize")

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

def test_zero_gains_change_nothing(small):
    records, model = small
    result = evaluate_sessions([records[0]], PidGains(), model)[0]
    np.testing.assert_array_equal(result.adapted_a_l.samples, records[0].a_l.samples)
    np.testing.assert_array_equal(result.adapted_a_r.samples, records[0].a_r.samples)
    assert result.stats.n_adapted == result.stats.n_raw
    assert result.stats.msdv_l[0] == result.stats.msdv_l[1]
    assert result.stats.msdv_r[0] == result.stats.msdv_r[1]


def test_simulation_stats_are_consistent(small):
    records, model = small
    detectors = default_detectors()
    result = evaluate_sessions([records[1]], TUNED_GAINS, model)[0]
    stats = result.stats
    assert stats.n_adapted == tuple(
        count_er_scr(result.predicted_phasic, d) for d in detectors
    )
    assert stats.msdv_l == (msdv(records[1].a_l), msdv(result.adapted_a_l))
    assert stats.msdv_r == (msdv(records[1].a_r), msdv(result.adapted_a_r))
    assert stats.session_id == records[1].session_id


def test_raw_counts_come_from_the_surrogate(small):
    records, model = small
    detectors = default_detectors()
    [group] = build_contexts([records[2]], model)
    pred = predict_session(model, records[2].a_l, records[2].a_r)
    assert tuple(group.n_raw[0]) == tuple(count_er_scr(pred, d) for d in detectors)
    f_prev = -group.terms.error[0, 2]
    assert np.all(f_prev >= 0.0) and np.all(f_prev <= 1.0)


def test_adapted_traces_respect_limits(small):
    records, model = small
    limits = AccelLimits(max_longitudinal=2.0, max_rotational=0.5)
    aggressive = PidGains.from_array(np.full(len(GAIN_KEYS), 5.0))
    result = evaluate_sessions([records[0]], aggressive, model, limits=limits)[0]
    assert float(np.max(np.abs(result.adapted_a_l.samples))) <= 2.0
    assert float(np.max(np.abs(result.adapted_a_r.samples))) <= 0.5


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
    # with zero gains the adapted profile is untouched even in closed loop
    np.testing.assert_array_equal(result.adapted_a_l.samples, records[0].a_l.samples)
    assert result.stats.n_adapted == tuple(
        count_er_scr(result.predicted_phasic, d) for d in detectors
    )
    with pytest.raises(ValueError, match="mode"):
        evaluate_sessions([records[0]], PidGains(), model, mode="online")


def _assert_follows_closed_loop_law(record, result, gains, model,
                                    integral_clamp=DEFAULT_INTEGRAL_CLAMP):
    """Check one closed-loop replay against the law stepped sample by sample.

    Clip k is adapted under a hold of the last sample predicted for clip
    k-1 (0.0 before the first prediction), and predicted from the window
    [adapted k-1 | adapted k | hold of its newest sample] in the model's
    scale, whose past third is 0.0 after scaling for the first clip (the
    zero padding of training). Returns the feedback f the law read (step i
    reads f[i - 1], the hold at sample i).
    """
    L = model.L
    pred = result.predicted_phasic.samples
    n = len(record.a_l)
    rate = record.a_l.rate_hz
    assert pred.size == n // L * L
    hold = [float(pred[min(i // L, pred.size // L) * L - 1]) if i >= L else 0.0 for i in range(n)]
    f = np.array([*hold[1:], 0.0])
    a_l, a_r = record.a_l.samples, record.a_r.samples
    limits = AccelLimits()
    ref_l, ref_r = adapt_trace_naive(
        a_l, a_r, f, rate, gains.as_array(),
        limits.max_longitudinal, limits.max_rotational, integral_clamp,
    )
    assert result.adapted_a_l.samples.tolist() == ref_l
    assert result.adapted_a_r.samples.tolist() == ref_r
    out_l, out_r = adapt_trace(a_l, a_r, f, rate, gains, limits, integral_clamp)
    assert np.array_equal(out_l, result.adapted_a_l.samples)
    assert np.array_equal(out_r, result.adapted_a_r.samples)
    adapted = np.stack([result.adapted_a_l.samples, result.adapted_a_r.samples])
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
        assert np.array_equal(pred[k * L : (k + 1) * L], predict_clip(model, window))
    return f


def test_closed_loop_follows_the_stepwise_law(small):
    records, model = small
    record = records[1]
    gains = PidGains.from_array(np.linspace(0.05, 0.6, len(GAIN_KEYS)))
    result = evaluate_sessions([record], gains, model, mode="closed_loop")[0]
    _assert_follows_closed_loop_law(record, result, gains, model)
    assert not np.array_equal(result.adapted_a_l.samples, record.a_l.samples)


def test_closed_loop_pads_the_first_clip_after_scaling(small):
    # a scale that does not map raw 0.0 to 0.0: the first clip's past is
    # still the 0.0 that training pads windows with
    records, model = small
    shift = replace(model.norm, a_l=NormParams(model.norm.a_l.vmin - 1.0, model.norm.a_l.vmax),
                    a_r=NormParams(model.norm.a_r.vmin - 0.5, model.norm.a_r.vmax))
    shifted = replace(model, norm=shift)
    assert shifted.norm.accel(np.zeros((2, 1))).min() > 0.0
    result = evaluate_sessions([records[1]], BINDING, shifted, mode="closed_loop")[0]
    _assert_follows_closed_loop_law(records[1], result, BINDING, shifted)


def _head(record, n):
    return replace(record, **{k: getattr(record, k).with_samples(getattr(record, k).samples[:n])
                              for k in ("a_l", "a_r", "eda")})


def _mixed_sessions(records, L):
    """Sessions of 3L, full (not a multiple of L), 3L+1, 5L+4 and again 3L samples."""
    lengths = [3 * L, len(records[1].a_l), 3 * L + 1, 5 * L + 4, 3 * L]
    assert len(records[1].a_l) % L
    return [_head(r, n) for r, n in zip(records, lengths)]


# short decomposition windows suit the short sessions; under BINDING the
# phasic integral hits the small clamp
MIXED_SETTINGS = dict(integral_clamp=0.05, decomposition=DecompositionConfig(1.0, 1.0))
BINDING = PidGains.from_array(np.linspace(0.05, 0.6, len(GAIN_KEYS)))


def _assert_equals_alone(sessions, results, gains, model, settings):
    """Each result of a joint replay equals its session's own replay, bit for bit."""
    assert [r.stats.session_id for r in results] == [r.session_id for r in sessions]
    for record, result in zip(sessions, results):
        alone = evaluate_sessions([record], gains, model, **settings)[0]
        for trace in ("adapted_a_l", "adapted_a_r", "predicted_phasic"):
            mine, own = getattr(result, trace), getattr(alone, trace)
            assert mine.samples.tobytes() == own.samples.tobytes()
        assert result.stats == alone.stats


def test_offline_sessions_replay_together(small):
    # sessions of mixed lengths are adapted, predicted and counted in one
    # call per length; each result equals its own replay and the plain
    # per-session path (adapt_trace, predict_session, count_er_scr)
    records, model = small
    sessions = _mixed_sessions(records, model.L)
    detectors = default_detectors()
    for gains in (BINDING, PidGains()):
        results = evaluate_sessions(sessions, gains, model, **MIXED_SETTINGS)
        _assert_equals_alone(sessions, results, gains, model, MIXED_SETTINGS)
        for record, result in zip(sessions, results):
            # the recorded feedback: step i of the law reads f[i - 1]
            [group] = build_contexts([record], model, **MIXED_SETTINGS)
            f = np.concatenate([-group.terms.error[0, 2, 1:], [0.0]])
            out_l, out_r = adapt_trace(record.a_l.samples, record.a_r.samples, f,
                                       record.a_l.rate_hz, gains, integral_clamp=0.05)
            assert result.adapted_a_l.samples.tobytes() == out_l.tobytes()
            assert result.adapted_a_r.samples.tobytes() == out_r.tobytes()
            pred = predict_session(model, result.adapted_a_l, result.adapted_a_r)
            assert result.predicted_phasic.samples.tobytes() == pred.samples.tobytes()
            raw = predict_session(model, record.a_l, record.a_r)
            assert result.stats.n_adapted == tuple(count_er_scr(pred, d) for d in detectors)
            assert result.stats.n_raw == tuple(count_er_scr(raw, d) for d in detectors)
            phasic = decompose(record.eda, MIXED_SETTINGS["decomposition"]).phasic
            recorded = Trace(model.norm.phasic.apply(phasic.samples), record.eda.rate_hz)
            assert result.stats.n_recorded == tuple(count_er_scr(recorded, d) for d in detectors)


def test_closed_loop_sessions_replay_together(small):
    # sessions of mixed lengths replay in one call; each result equals its
    # own one-session replay and follows the stepwise law, under gains
    # whose phasic integral binds a small clamp and under zero gains
    records, model = small
    sessions = _mixed_sessions(records, model.L)
    settings = dict(mode="closed_loop", **MIXED_SETTINGS)
    for gains in (BINDING, PidGains()):
        results = evaluate_sessions(sessions, gains, model, **settings)
        _assert_equals_alone(sessions, results, gains, model, settings)
        for record, result in zip(sessions, results):
            f = _assert_follows_closed_loop_law(record, result, gains, model, 0.05)
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
    box = GainRanges.default()
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


def test_build_contexts_groups_sessions_by_length(small):
    # one group per sample count, members in input order; each member's row
    # of the stacked state equals that session's state built on its own
    records, model = small
    sessions = _mixed_sessions(records, model.L)
    groups = build_contexts(sessions, model, **MIXED_SETTINGS)
    assert [g.members for g in groups] == [[0, 4], [1], [2], [3]]
    for g in groups:
        assert g.records == [sessions[i] for i in g.members]
        assert g.n_raw.shape == g.n_recorded.shape == (len(g.members), 3)
        for row, i in enumerate(g.members):
            [alone] = build_contexts([sessions[i]], model, **MIXED_SETTINGS)
            for name in ("accel", "error", "integral", "delta"):
                assert getattr(g.terms, name)[row].tobytes() == getattr(alone.terms, name).tobytes()
            assert g.n_raw[row].tolist() == alone.n_raw[0].tolist()
            assert g.n_recorded[row].tolist() == alone.n_recorded[0].tolist()
            assert g.msdv_raw[row] == alone.msdv_raw[0]


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
    box = GainRanges.default()
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
    n_groups = len(set(len(r.a_l) for r in sessions))
    assert blocks == ([block] * n_groups * 2 + [block // 2 + 1] * n_groups
                      + [1] * n_groups * (budget - n_explore))
    _assert_follows_schedule(result, 9, n_explore, 2)
    for trial in result.trials:
        results = evaluate_sessions(sessions, trial.gains, model, **settings)
        expected = detector_stats([r.stats.n_raw for r in results],
                                  [r.stats.n_adapted for r in results])
        assert trial.percentages == tuple(s.percentage for s in expected)
        assert trial.objective == sum(trial.percentages)


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
    box = GainRanges.default()
    assert box.lo.shape == (n,)
    np.testing.assert_array_equal(box.hi, [0.5] * 9 + [0.01] * 2)
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
