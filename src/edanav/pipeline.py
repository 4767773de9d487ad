"""High-level steps shared by the command-line harness and scripted runs."""

from __future__ import annotations

import math

import numpy as np

from .signals import DecompositionConfig, decompose
from .surrogate import (
    DEFAULT_CLIP_LEN_S,
    DEFAULT_RIDGE_LAMBDA,
    SurrogateModel,
    corpus_clip_norm,
    fit_surrogate,
    make_clips,
    predict_session,
)


def train_split(records):
    return [r for r in records if r.split == "train"]


def eval_split(records):
    return [r for r in records if r.split == "eval"]


def _phasics(records, decomposition):
    return [decompose(r.eda, decomposition).phasic for r in records]


def held_out_mae(
    model: SurrogateModel,
    records,
    decomposition: DecompositionConfig = DecompositionConfig(),
) -> float:
    """Mean absolute error of the predicted phasic on sessions the fit never saw.

    Each session is predicted with `predict_session` at stride L, the
    geometry of the training clips, and scored against its phasic under the
    model's frozen normalization; the up to L-1 trailing samples that no
    clip covers are not scored.
    """
    records = list(records)
    if not records:
        return math.nan
    errors = []
    for record, phasic in zip(records, _phasics(records, decomposition)):
        pred = predict_session(model, record.a_l, record.a_r, model.L).samples
        errors.append(np.abs(pred - model.norm.phasic.apply(phasic.samples)[: len(pred)]))
    return float(np.mean(np.concatenate(errors)))


def train_surrogate(
    records,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    stride_samples: int | None = None,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    decomposition: DecompositionConfig = DecompositionConfig(),
) -> tuple[SurrogateModel, float]:
    """Fit the windowed-linear phasic model on the train split.

    Normalization parameters come from the train split only and are frozen
    into the model. Returns (model, held-out MAE on the eval split; NaN if
    the dataset has no eval sessions).
    """
    train = train_split(records)
    if not train:
        raise ValueError("dataset has no train sessions")
    phasics = _phasics(train, decomposition)
    norm = corpus_clip_norm(
        [r.a_l for r in train], [r.a_r for r in train], phasics
    )
    clips = [
        make_clips(
            record.a_l, record.a_r, phasic,
            clip_len_s=clip_len_s, stride_samples=stride_samples, norm=norm,
        )
        for record, phasic in zip(train, phasics)
    ]
    model = fit_surrogate(
        np.concatenate([windows for windows, _, _ in clips]),
        np.concatenate([targets for _, targets, _ in clips]),
        ridge_lambda,
        rate_hz=train[0].eda.rate_hz,
        clip_len_s=clip_len_s,
        norm=norm,
    )
    return model, held_out_mae(model, eval_split(records), decomposition)
