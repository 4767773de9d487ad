"""The per-record phasic store: one decomposition per record and config."""

import importlib
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from edanav.control import PidGains
from edanav.dataset import synth_cohort
from edanav.errors import DegenerateInputError
from edanav.optimize import MODES, evaluate_sessions, optimize
from edanav.pipeline import eval_split, session_phasics, train_split, train_surrogate
from edanav.signals import DecompositionConfig, Trace, decompose
from edanav.surrogate import clip_samples

from oracles import fit_naive

# the module itself: the package binds the names of some functions over their modules
pipeline_module = importlib.import_module("edanav.pipeline")

CONFIGS = (DecompositionConfig(), DecompositionConfig(median_window_s=4.0, average_window_s=6.0))


@pytest.fixture
def records():
    return synth_cohort(6, 120.0, 4.0, seed=31)


def _spy_on_the_filter(monkeypatch, records) -> Counter:
    """Count the rows `session_phasics` filters, per (record position, config),
    and the filter calls, under key "calls"."""
    calls: Counter = Counter()
    position = {r.eda.samples.tobytes(): i for i, r in enumerate(records)}
    real = pipeline_module.tonic_rows

    def spy(eda, rate_hz, config):
        calls["calls"] += 1
        for row in eda:
            calls[position[row.tobytes()], config] += 1
        return real(eda, rate_hz, config)

    monkeypatch.setattr(pipeline_module, "tonic_rows", spy)
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_train_search_and_evaluate_decompose_each_record_once_per_config(
    records, monkeypatch, mode
):
    calls = _spy_on_the_filter(monkeypatch, records)
    held = eval_split(records)
    for config in CONFIGS:
        model, _ = train_surrogate(records, decomposition=config)
        result = optimize(held, model, budget=2, mode=mode, decomposition=config)
        evaluate_sessions(held, result.best.gains, model, mode=mode, decomposition=config)
        evaluate_sessions(held, PidGains(), model, mode=mode, decomposition=config)
    # one filter call per config fills the one length group, train and eval
    expected = Counter({(i, c): 1 for i in range(len(records)) for c in CONFIGS})
    assert calls == expected + Counter({"calls": len(CONFIGS)})


def test_stored_phasic_is_a_fresh_decomposition_per_config(records):
    # each config's phasic has the bits of a fresh decomposition, and is
    # kept until another config's replaces it: asked for again, the first
    # config is decomposed again, to the same bits
    record = records[0]
    stored = []
    for config in CONFIGS:
        stored.append(session_phasics([record], config)[0])
        assert session_phasics([record], config)[0] is stored[-1]
        assert set(record.phasics) == {config}
    for config, phasic in zip(CONFIGS, stored):
        fresh = decompose(record.eda, config).phasic
        assert phasic.samples.tobytes() == fresh.samples.tobytes()
        assert phasic.rate_hz == fresh.rate_hz and phasic.unit == fresh.unit
    # the two configs do not collide: each gives its own, different phasic
    assert not np.array_equal(stored[0].samples, stored[1].samples)
    again = session_phasics([record], CONFIGS[0])[0]
    assert again is not stored[0] and again.samples.tobytes() == stored[0].samples.tobytes()
    assert set(record.phasics) == {CONFIGS[0]}


def test_a_group_fill_equals_each_record_decomposed_alone():
    # lengths and rates interleaved, one record already filled: each stored
    # phasic has the bits of its own decomposition, returned in input order
    mixed = [*synth_cohort(3, 120.0, 4.0, seed=5), *synth_cohort(2, 97.75, 4.0, seed=6),
             *synth_cohort(2, 120.0, 8.0, seed=7)]
    mixed = [mixed[i] for i in (0, 3, 5, 1, 4, 6, 2)]
    config = CONFIGS[1]
    first = session_phasics(mixed[2:3], config)[0]
    phasics = session_phasics(mixed, config)
    assert phasics[2] is first
    for record, phasic in zip(mixed, phasics):
        assert record.phasics[config] is phasic
        fresh = decompose(record.eda, config).phasic
        assert phasic.samples.tobytes() == fresh.samples.tobytes()
        assert phasic.rate_hz == fresh.rate_hz and phasic.unit == fresh.unit


def test_a_short_record_fails_before_any_group_is_filtered():
    long = synth_cohort(2, 120.0, 4.0, seed=5)
    short = [*synth_cohort(1, 12.0, 4.0, seed=6), *synth_cohort(1, 10.0, 4.0, seed=7)]
    # the first short record in input order names its duration, and no
    # record, not even one of an earlier group, is filtered
    with pytest.raises(DegenerateInputError, match=r"trace duration 11\.75s"):
        session_phasics([long[0], *short, long[1]], DecompositionConfig())
    assert all(r.phasics == {} for r in [*long, *short])


def test_replace_starts_an_empty_store_and_the_store_is_not_compared(records):
    record = records[0]
    session_phasics([record], CONFIGS[0])
    other_eda = records[1].eda
    moved = replace(record, eda=other_eda)
    assert moved.phasics == {} and len(record.phasics) == 1
    # the new record's phasic is its own EDA's, never the stale stored one
    assert (session_phasics([moved], CONFIGS[0])[0].samples.tobytes()
            == decompose(other_eda).phasic.samples.tobytes())
    copy = replace(record)
    assert copy == record and repr(copy) == repr(record)
    assert "phasics" not in repr(record)


def _cut(record, n):
    """``record`` with its three traces cut to their first ``n`` samples."""
    return replace(record, **{name: Trace(getattr(record, name).samples[:n],
                                          getattr(record, name).rate_hz,
                                          getattr(record, name).unit)
                              for name in ("a_l", "a_r", "eda")})


@pytest.mark.parametrize("stride, ridge_lambda", [(None, 1e-6), (1, 1e-6), (5, 1e-3)])
def test_train_surrogate_fits_the_rows_of_the_concatenated_clips(records, stride, ridge_lambda):
    # train sessions of four lengths, so each writes its own number of
    # rows into the design buffer: the weights and train MAE have the
    # bytes of a fit on every session's clips copied and concatenated
    records = [_cut(r, n) for r, n in zip(records, (480, 451, 480, 300, 479, 480))]
    model, _ = train_surrogate(records, stride_samples=stride, ridge_lambda=ridge_lambda)
    train = train_split(records)
    weights, mae = fit_naive(train, [p.samples for p in session_phasics(train, CONFIGS[0])],
                             model.norm, model.L, stride or model.L, ridge_lambda)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.train_mae.hex() == mae.hex()


def test_the_fit_of_hour_sessions_holds_its_design_once():
    # three 1 h, 8 Hz train sessions (28,800 samples each): the design
    # [N, 6L+1] and targets [N, L] are written once, beside the read-only
    # clip views (3 doubles a sample), where copying and concatenating the
    # clips held the windows three times
    records = [replace(r, split="train") for r in synth_cohort(3, 3600.0, 8.0, seed=7)]
    session_phasics(records, DecompositionConfig())
    L, n = clip_samples(2.25, 8.0), len(records[0].eda)
    rows = len(records) * ((n - L) // L + 1)
    design, targets, views = rows * (6 * L + 1) * 8, rows * L * 8, len(records) * 3 * n * 8
    tracemalloc.start()
    try:
        train_surrogate(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < design + targets + views + 2**18
