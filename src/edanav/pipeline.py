"""High-level steps shared by the command-line harness and scripted runs."""

from __future__ import annotations

import math

import numpy as np

from .signals import DecompositionConfig, Trace, same_rate, tonic_rows
from .surrogate import (
    DEFAULT_CLIP_LEN_S,
    DEFAULT_RIDGE_LAMBDA,
    SurrogateModel,
    corpus_clip_norm,
    fit_surrogate,
    make_clips,
    predict_sessions,
)


def train_split(records):
    return [r for r in records if r.split == "train"]


def eval_split(records):
    return [r for r in records if r.split == "eval"]


def session_phasics(records, decomposition: DecompositionConfig) -> list[Trace]:
    """The phasic part of each record's EDA under ``decomposition``, in input order.

    The only code that decomposes a session. Each record keeps its phasic
    in its ``phasics`` store, so training, scoring and every replay of one
    record share it; the store holds one config's, and a record decomposed
    under another config drops it. The records that lack it are decomposed
    together, one `tonic_rows` call per `length_groups` group, each row with
    the bits of its session on its own. Every group's length is checked
    before any is filtered, so a record too short for the median window
    raises `DegenerateInputError`, the first such record in input order,
    and nothing is stored.
    """
    missing = [r for r in records if decomposition not in r.phasics]
    groups = [[missing[i] for i in members] for members in length_groups(missing)]
    for group in groups:
        decomposition.windows(len(group[0].eda), group[0].eda.rate_hz)
    for group in groups:
        eda = np.stack([r.eda.samples for r in group])
        tonic = tonic_rows(eda, group[0].eda.rate_hz, decomposition)
        for record, phasic in zip(group, eda - tonic):
            record.phasics.clear()
            record.phasics[decomposition] = Trace(phasic, record.eda.rate_hz, record.eda.unit)
    return [r.phasics[decomposition] for r in records]


def check_model_rate(records, model: SurrogateModel) -> None:
    """Raise ValueError unless every record's traces are at ``model``'s rate."""
    for record in records:
        if not same_rate(record.a_l.rate_hz, model.rate_hz):
            raise ValueError(f"session {record.session_id}: trace rate {record.a_l.rate_hz}Hz "
                             f"does not match model rate {model.rate_hz}Hz")


def length_groups(records) -> list[list[int]]:
    """Positions in ``records`` grouped by sample count and EDA rate, in
    order of first appearance; each group keeps its input order."""
    groups: dict[tuple[int, float], list[int]] = {}
    for i, record in enumerate(records):
        groups.setdefault((len(record.eda), record.eda.rate_hz), []).append(i)
    return list(groups.values())


def held_out_mae(
    model: SurrogateModel,
    records,
    decomposition: DecompositionConfig = DecompositionConfig(),
) -> float:
    """Mean absolute error of the predicted phasic on sessions the fit never saw.

    The sessions of one length are predicted in one `predict_sessions` call
    at stride L, the geometry of the training clips, which gives each row
    the bits of its session on its own. Each is scored against its phasic
    under the model's frozen normalization; the up to L-1 trailing samples
    that no clip covers are not scored. The mean runs over the errors of
    all sessions in record order.
    """
    records = list(records)
    if not records:
        return math.nan
    check_model_rate(records, model)
    phasics = session_phasics(records, decomposition)
    errors = [None] * len(records)
    for members in length_groups(records):
        accel = np.stack([(records[i].a_l.samples, records[i].a_r.samples) for i in members])
        for i, pred in zip(members, predict_sessions(model, accel, model.L)):
            errors[i] = np.abs(pred - model.norm.phasic.apply(phasics[i].samples)[: len(pred)])
    return float(np.mean(np.concatenate(errors)))


def check_train_settings(clip_len_s: float, stride_samples: int | None,
                         ridge_lambda: float) -> None:
    """Raise ValueError unless ``clip_len_s`` > 0, ``stride_samples`` is None
    or >= 1 and ``ridge_lambda`` >= 0, both floats finite: the bounds of
    `train_surrogate`."""
    if not clip_len_s > 0:
        raise ValueError(f"clip_len_s must be positive, got {clip_len_s!r}")
    if stride_samples is not None and stride_samples < 1:
        raise ValueError(f"stride_samples must be >= 1 when set, got {stride_samples!r}")
    if not ridge_lambda >= 0:
        raise ValueError(f"ridge_lambda must be >= 0, got {ridge_lambda!r}")
    for name, value in (("clip_len_s", clip_len_s), ("ridge_lambda", ridge_lambda)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _clip_design(train, phasics, norm, clip_len_s, stride_samples):
    """Every train session's clips as one design buffer [N, 6L+1], each
    flattened window then 1.0, and one target buffer [N, L], in record
    order: the rows of concatenating every session's clips. Each window is
    written once, straight from its `make_clips` view."""
    clips = [
        make_clips(
            record.a_l, record.a_r, phasic, norm,
            clip_len_s=clip_len_s, stride_samples=stride_samples,
        )
        for record, phasic in zip(train, phasics)
    ]
    n, L = sum(len(targets) for _, targets in clips), clips[0][1].shape[1]
    design, targets = np.empty((n, 6 * L + 1)), np.empty((n, L))
    design[:, -1] = 1.0
    first = 0
    for session_windows, session_targets in clips:
        last = first + len(session_targets)
        design[first:last, : 3 * L] = session_windows[:, 0]
        design[first:last, 3 * L : -1] = session_windows[:, 1]
        targets[first:last] = session_targets
        first = last
    return design, targets


def train_surrogate(
    records,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    stride_samples: int | None = None,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    decomposition: DecompositionConfig = DecompositionConfig(),
) -> tuple[SurrogateModel, float]:
    """Fit the windowed-linear phasic model on the train split.

    Every record, train and eval, is decomposed first (`session_phasics`),
    so one call per length group fills both splits' stores. Normalization
    parameters come from the train split only and are frozen into the
    model. Each train session's `make_clips` views are written straight
    into one design buffer [N, 6L+1] (bias column included) and one
    target buffer [N, L] (`_clip_design`), which `fit_surrogate` reads in
    place: the rows, and so the weights, of a fit on every session's
    clips concatenated, with each clip copied once. Returns (model,
    held-out MAE on the eval split; NaN if the dataset has no eval
    sessions).
    """
    check_train_settings(clip_len_s, stride_samples, ridge_lambda)
    train = train_split(records)
    if not train:
        raise ValueError("dataset has no train sessions")
    session_phasics(records, decomposition)
    phasics = session_phasics(train, decomposition)
    norm = corpus_clip_norm(
        [r.a_l for r in train], [r.a_r for r in train], phasics
    )
    model = fit_surrogate(
        *_clip_design(train, phasics, norm, clip_len_s, stride_samples),
        ridge_lambda,
        rate_hz=train[0].eda.rate_hz,
        clip_len_s=clip_len_s,
        norm=norm,
    )
    return model, held_out_mae(model, eval_split(records), decomposition)
