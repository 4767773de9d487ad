"""The per-record phasic store: one decomposition per record and config."""

import importlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from edanav.control import PidGains
from edanav.dataset import synth_cohort
from edanav.optimize import MODES, evaluate_sessions, optimize
from edanav.pipeline import eval_split, session_phasic, train_surrogate
from edanav.signals import DecompositionConfig, decompose

# the module itself: the package binds the names of some functions over their modules
pipeline_module = importlib.import_module("edanav.pipeline")

CONFIGS = (DecompositionConfig(), DecompositionConfig(median_window_s=4.0, average_window_s=6.0))


@pytest.fixture
def records():
    return synth_cohort(6, 120.0, 4.0, seed=31)


def _spy_on_decompose(monkeypatch) -> Counter:
    """Count `edanav.pipeline.decompose` calls per (EDA trace id, config)."""
    calls: Counter = Counter()
    real = pipeline_module.decompose

    def spy(eda, config=DecompositionConfig()):
        calls[id(eda), config] += 1
        return real(eda, config)

    monkeypatch.setattr(pipeline_module, "decompose", spy)
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_train_search_and_evaluate_decompose_each_record_once_per_config(
    records, monkeypatch, mode
):
    calls = _spy_on_decompose(monkeypatch)
    held = eval_split(records)
    for config in CONFIGS:
        model, _ = train_surrogate(records, decomposition=config)
        result = optimize(held, model, budget=2, mode=mode, decomposition=config)
        evaluate_sessions(held, result.best.gains, model, mode=mode, decomposition=config)
        evaluate_sessions(held, PidGains(), model, mode=mode, decomposition=config)
    assert calls == Counter({(id(r.eda), c): 1 for r in records for c in CONFIGS})


def test_stored_phasic_is_a_fresh_decomposition_per_config(records):
    record = records[0]
    stored = [session_phasic(record, c) for c in CONFIGS]
    assert session_phasic(record, CONFIGS[0]) is stored[0]
    for config, phasic in zip(CONFIGS, stored):
        fresh = decompose(record.eda, config).phasic
        assert phasic.samples.tobytes() == fresh.samples.tobytes()
        assert phasic.rate_hz == fresh.rate_hz and phasic.unit == fresh.unit
    # the two configs do not collide: each keeps its own, different phasic
    assert set(record.phasics) == set(CONFIGS)
    assert not np.array_equal(stored[0].samples, stored[1].samples)


def test_replace_starts_an_empty_store_and_the_store_is_not_compared(records):
    record = records[0]
    session_phasic(record, CONFIGS[0])
    other_eda = records[1].eda
    moved = replace(record, eda=other_eda)
    assert moved.phasics == {} and len(record.phasics) == 1
    # the new record's phasic is its own EDA's, never the stale stored one
    assert (session_phasic(moved, CONFIGS[0]).samples.tobytes()
            == decompose(other_eda).phasic.samples.tobytes())
    copy = replace(record)
    assert copy == record and repr(copy) == repr(record)
    assert "phasics" not in repr(record)
