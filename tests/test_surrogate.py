"""Surrogate tests: clip geometry, ridge fit, session prediction, oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import edanav.surrogate as surrogate_module
from edanav.errors import DegenerateInputError, FileFormatError
from edanav.signals import NormParams, Trace, Unit
from edanav.surrogate import (
    ClipNorm,
    OracleParams,
    SurrogateModel,
    bateman_kernel,
    clip_samples,
    corpus_clip_norm,
    fit_surrogate,
    make_clips,
    predict_rows,
    _overlap_average,
    _predict_bounded,
    predict_sessions,
    read_model,
    synth_session,
    write_model,
)

from oracles import (
    bateman_pulse,
    design_rows,
    predict_clip,
    predict_session_naive,
    reconstruct_naive,
)

RATE = 4.0
L = 9  # 2.25 s at 4 Hz


def _accel_pair(rng, n=960):
    """Non-negative pulse-like channels with resting zeros."""
    def channel(n_pulses, hi):
        x = np.zeros(n)
        for _ in range(n_pulses):
            i0 = int(rng.integers(8, n - 20))
            x[i0 : i0 + int(rng.integers(4, 13))] = rng.uniform(0.3, hi)
        return x

    a_l = Trace(channel(6, 4.5), RATE, Unit.M_PER_S2)
    a_r = Trace(channel(4, 1.5), RATE, Unit.RAD_PER_S2)
    return a_l, a_r


# ---------------------------------------------------------------------------
# Clip geometry
# ---------------------------------------------------------------------------

def test_clip_samples():
    assert clip_samples(2.25, 4.0) == L
    assert clip_samples(0.5, 4.0) == 2
    assert clip_samples(1.0, 8.0) == 8
    with pytest.raises(ValueError):
        clip_samples(0.05, 4.0)


def _session_clips(a_l, a_r, phasic, **kwargs):
    """`make_clips` under the session's own normalization: (windows, targets, norm)."""
    norm = corpus_clip_norm([a_l], [a_r], [phasic])
    return (*make_clips(a_l, a_r, phasic, norm, **kwargs), norm)


def _one_session(a_l, a_r):
    """The acceleration traces as a one-session stack [1, 2, n] for `predict_sessions`."""
    return np.stack([a_l.samples, a_r.samples])[None]


def test_make_clips_count_and_shapes():
    rng = np.random.default_rng(20)
    a_l, a_r = _accel_pair(rng)
    phasic = Trace(rng.uniform(0.0, 0.5, 960), RATE)
    windows, targets, norm = _session_clips(a_l, a_r, phasic)
    assert windows.shape == (106, 2, 3 * L)  # (960 - 9) // 9 + 1 clips
    assert targets.shape == (106, L)
    assert norm.a_l.vmin == float(np.min(a_l.samples))
    assert norm.a_l.vmax == float(np.max(a_l.samples))


def test_make_clips_window_alignment():
    rng = np.random.default_rng(21)
    a_l, a_r = _accel_pair(rng, n=90)
    phasic = Trace(rng.uniform(0.0, 0.5, 90), RATE)
    windows, targets, norm = _session_clips(a_l, a_r, phasic)
    al_n = norm.a_l.apply(a_l.samples)
    phasic_n = norm.phasic.apply(phasic.samples)
    # leading third of the first window crosses the session start: zero pad
    np.testing.assert_array_equal(windows[0, :, :L], np.zeros((2, L)))
    for k in (1, 3, 5):
        s = k * L
        np.testing.assert_array_equal(windows[k, 0, L : 2 * L], al_n[s : s + L])
        np.testing.assert_array_equal(windows[k, 0, : L], al_n[s - L : s])
        np.testing.assert_array_equal(targets[k], phasic_n[s : s + L])
    # trailing third of the last window crosses the session end
    assert np.all(windows[-1, :, 2 * L :] == 0.0)


def test_make_clips_validation():
    rng = np.random.default_rng(22)
    a_l, a_r = _accel_pair(rng, n=90)
    phasic = Trace(rng.uniform(0.0, 1.0, 90), RATE)
    norm = corpus_clip_norm([a_l], [a_r], [phasic])
    with pytest.raises(ValueError, match="share length"):
        make_clips(a_l, Trace(a_r.samples[:-1], RATE), Trace(phasic.samples[:-1], RATE), norm)
    with pytest.raises(ValueError, match="share rate"):
        make_clips(a_l, Trace(a_r.samples, 8.0), phasic, norm)
    with pytest.raises(ValueError, match="stride_samples"):
        make_clips(a_l, a_r, phasic, norm, stride_samples=0)
    with pytest.raises(ValueError, match="shorter"):
        short = Trace(np.arange(20.0), RATE)
        make_clips(short, short, short, norm)
    with pytest.raises(DegenerateInputError):
        _session_clips(a_l, Trace(np.full(90, 1.0), RATE), phasic)  # constant channel


def test_clip_shape_validation():
    # clips of L = 3 (0.75 s at 4 Hz): design rows [n, 19], targets [n, 3]
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    for design, targets in ((design_rows(np.zeros((1, 2, 10))), np.zeros((1, 3))),
                            (design_rows(np.zeros((1, 2, 9))), np.zeros((1, 4))),
                            (design_rows(np.zeros((2, 2, 9))), np.zeros((1, 3))),
                            (np.zeros((1, 2, 9)), np.zeros((1, 3)))):  # windows, not rows
        with pytest.raises(ValueError, match="clips must be"):
            fit_surrogate(design, targets, rate_hz=RATE, clip_len_s=0.75, norm=norm)


def test_corpus_norm_spans_all_traces():
    t1 = Trace([0.0, 2.0], RATE)
    t2 = Trace([1.0, 5.0], RATE)
    norm = corpus_clip_norm([t1, t2], [t1, t2], [t1, t2])
    assert norm.a_l.vmin == 0.0 and norm.a_l.vmax == 5.0
    with pytest.raises(DegenerateInputError):
        corpus_clip_norm([Trace([1.0, 1.0], RATE)], [t1], [t1])


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def _reconstruct(preds, stride):
    """One session's clips overlap-averaged, as `predict_sessions` reassembles them."""
    return _overlap_average(preds[None], stride)[0]


def test_reconstruct_stride_L_concatenates():
    preds = np.arange(27.0).reshape(3, 9)
    out = _reconstruct(preds, 9)
    np.testing.assert_array_equal(out, np.arange(27.0))


def test_reconstruct_overlap_average():
    preds = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    out = _reconstruct(preds, 1)
    np.testing.assert_array_equal(out, [0.0, 0.5, 0.5, 1.0])


@st.composite
def _clip_stacks(draw):
    width = draw(st.integers(1, 8))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
    preds = draw(arrays(np.float64, (draw(st.integers(1, 12)), width), elements=value))
    return preds, draw(st.integers(1, width))


@settings(max_examples=300, deadline=None)
@given(_clip_stacks())
def test_reconstruct_matches_clip_loop(stack):
    # every stride from 1 to L (concatenation)
    preds, stride = stack
    out = _reconstruct(preds, stride)
    expected = np.array(reconstruct_naive(preds.tolist(), stride), dtype=np.float64)
    assert out.tobytes() == expected.tobytes()


@st.composite
def _clip_row_stacks(draw):
    """Clips [m, n_clips, L] of m >= 2 sessions, each row its own values, and a stride."""
    m, n_clips, width = draw(st.integers(2, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
    preds = draw(arrays(np.float64, (m, n_clips, width), elements=value))
    # later rows offset from the first (which keeps its -0.0), so a sample
    # added into the wrong row shows
    preds[1:] += np.arange(1, m)[:, None, None] * draw(st.sampled_from([1.0, 1e3]))
    return preds, draw(st.integers(1, width))


@settings(max_examples=300, deadline=None)
@given(_clip_row_stacks())
def test_overlap_average_keeps_rows_apart(stack):
    # each row of a stack equals its clips overlap-averaged on their own,
    # at every stride from 1 to L
    preds, stride = stack
    out = _overlap_average(preds, stride)
    assert out.shape == (len(preds), stride * (preds.shape[1] - 1) + preds.shape[2])
    for row, clips in zip(out, preds):
        expected = np.array(reconstruct_naive(clips.tolist(), stride), dtype=np.float64)
        assert row.tobytes() == expected.tobytes()


def test_clip_reconstruct_round_trip():
    # targets cut at stride L and reassembled reproduce the normalized
    # phasic over the covered span
    rng = np.random.default_rng(23)
    a_l, a_r = _accel_pair(rng)
    phasic = Trace(rng.uniform(0.0, 0.5, 960), RATE)
    for stride in (L, 3, 1):
        _, targets, norm = _session_clips(a_l, a_r, phasic, stride_samples=stride)
        out = _reconstruct(targets, stride)
        expected = norm.phasic.apply(phasic.samples)[: len(out)]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Ridge fit
# ---------------------------------------------------------------------------

def _planted_session(rng, n=960):
    """Session whose normalized phasic is an exact affine map of the windows."""
    a_l, a_r = _accel_pair(rng, n)
    placeholder = Trace(np.linspace(0.0, 1.0, n), RATE)
    windows, _, _ = _session_clips(a_l, a_r, placeholder)
    w_true = rng.uniform(-0.005, 0.005, (L, 6 * L + 1))
    w_true[:, -1] = 0.5  # bias keeps targets well inside (0, 1)
    phasic = np.full(n, 0.5)
    for k, window in enumerate(windows):
        x = np.concatenate([window.ravel(), [1.0]])
        phasic[k * L : (k + 1) * L] = w_true @ x
    return a_l, a_r, Trace(phasic, RATE)


def test_fit_recovers_planted_linear_map():
    rng = np.random.default_rng(24)
    a_l, a_r, phasic = _planted_session(rng)
    windows, targets, norm = _session_clips(a_l, a_r, phasic)
    assert not windows.flags.writeable and not targets.flags.writeable
    model = fit_surrogate(design_rows(windows), targets, rate_hz=RATE, norm=norm)
    assert model.train_mae < 1e-6
    pred = predict_sessions(model, _one_session(a_l, a_r), model.L)[0]
    mae = float(np.mean(np.abs(pred - targets.ravel())))
    assert mae < 1e-6


def test_fit_rejects_degenerate_input():
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    with pytest.raises(DegenerateInputError):
        fit_surrogate(design_rows(np.zeros((0, 2, 3 * L))), np.zeros((0, L)), rate_hz=RATE,
                      norm=norm)

    # a feature column that is identically zero makes the unregularized
    # normal equations exactly singular
    rng = np.random.default_rng(25)
    windows = []
    targets = []
    for _ in range(20):
        window = rng.uniform(0.0, 1.0, (2, 6))
        window[0, 0] = 0.0
        windows.append(window)
        targets.append(rng.uniform(0.0, 1.0, 2))
    with pytest.raises(DegenerateInputError):
        fit_surrogate(design_rows(windows), targets, 0.0, rate_hz=RATE, clip_len_s=0.5,
                      norm=norm)
    model = fit_surrogate(design_rows(windows), targets, 1e-6, rate_hz=RATE, clip_len_s=0.5,
                          norm=norm)
    assert model.weights.shape == (2, 13)


def test_fit_validation():
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    design, targets = design_rows(np.zeros((1, 2, 6))), np.zeros((1, 2))
    for ridge_lambda in (-1.0, np.nan):
        with pytest.raises(ValueError, match="ridge_lambda must be >= 0"):
            fit_surrogate(design, targets, ridge_lambda, rate_hz=RATE, clip_len_s=0.5, norm=norm)
    with pytest.raises(ValueError, match=r"clips must be design rows \[n, 55\]"):
        fit_surrogate(design, targets, rate_hz=RATE, clip_len_s=2.25, norm=norm)
    # design rows [n, 6L+1] must end in the bias column of 1.0
    with pytest.raises(ValueError, match=r"design rows \[n, 13\] ending in 1.0"):
        fit_surrogate(np.zeros((1, 13)), targets, rate_hz=RATE, clip_len_s=0.5, norm=norm)


def test_predictions_are_clamped():
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    weights = np.zeros((2, 13))
    weights[0, -1] = 5.0  # bias far above the valid range
    weights[1, -1] = -5.0
    model = SurrogateModel(weights, 0.5, RATE, norm, 0.0)
    row = np.concatenate([np.full(12, 0.5), [1.0]])  # a flattened window, then 1.0
    out = predict_rows(model, row[None])
    np.testing.assert_array_equal(out, [[1.0, 0.0]])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4.0, 8.0]), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_predict_rows_is_predict_clip_row_by_row(rate, m, seed):
    # The closed-loop replay predicts every session's clip with one stacked
    # matmul and relies on it being bit-equal to the oracle `predict_clip`'s
    # matrix-vector product for each row. numpy runs a stacked matmul as one
    # BLAS gemv per row; if a numpy or BLAS upgrade changes that dispatch,
    # this test fails instead of a bare closed-loop digest mismatch.
    rng = np.random.default_rng(seed)
    L = clip_samples(2.25, rate)  # 9 at 4 Hz, 18 at 8 Hz
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    weights = rng.normal(0.0, 0.25 / (6 * L), (L, 6 * L + 1))
    weights[:, -1] = rng.uniform(0.4, 0.6, L)  # keeps outputs inside the clamp
    windows = rng.uniform(0.0, 1.0, (m, 2, 3 * L))
    kinds = rng.integers(0, 4, m)
    windows[kinds == 1] = 0.0
    windows[kinds == 2] = rng.integers(0, 2, (int(np.sum(kinds == 2)), 2, 3 * L))
    edges = rng.random((m, 2, 3 * L)) < 0.3
    windows[(kinds == 3)[:, None, None] & edges] = 1.0  # some entries at the top edge
    rows = np.concatenate([windows.reshape(m, -1), np.ones((m, 1))], axis=1)
    # fit_surrogate leaves the weights column-major, read_model row-major
    for layout in (np.ascontiguousarray, np.asfortranarray):
        model = SurrogateModel(layout(weights), 2.25, rate, norm, 0.0)
        out = predict_rows(model, rows)
        assert out.shape == (m, L)
        for window, row in zip(windows, out):
            assert np.array_equal(row, predict_clip(model, window))
        assert np.all((out > 0.0) & (out < 1.0))


# ---------------------------------------------------------------------------
# Session prediction
# ---------------------------------------------------------------------------

def _small_model(rng):
    a_l, a_r, phasic = _planted_session(rng, n=360)
    windows, targets, norm = _session_clips(a_l, a_r, phasic)
    return fit_surrogate(design_rows(windows), targets, rate_hz=RATE, norm=norm), a_l, a_r


def test_predict_session_dense_covers_whole_session():
    rng = np.random.default_rng(26)
    model, a_l, a_r = _small_model(rng)
    [out] = predict_sessions(model, _one_session(a_l, a_r))  # stride 1 by default
    assert len(out) == len(a_l)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_predict_session_stride_L_tiles():
    rng = np.random.default_rng(27)
    model, a_l, a_r = _small_model(rng)
    [out] = predict_sessions(model, _one_session(a_l, a_r), stride_samples=L)
    n_clips = (len(a_l) - L) // L + 1
    assert len(out) == n_clips * L
    # tiling means each clip is an independent prediction of its window
    al_n = model.norm.a_l.apply(a_l.samples)
    ar_n = model.norm.a_r.apply(a_r.samples)
    k = 3
    window = np.stack(
        [
            np.concatenate([al_n[(k - 1) * L : (k + 2) * L]]),
            np.concatenate([ar_n[(k - 1) * L : (k + 2) * L]]),
        ]
    )
    np.testing.assert_allclose(
        out[k * L : (k + 1) * L], predict_clip(model, window), rtol=0, atol=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4.0, 8.0]), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_predict_sessions_matches_the_per_session_oracle(rate, m, seed):
    # every row of a batched prediction is bit-equal to the plain
    # per-session path: windows gathered by index, one 2-D gemm, clamping
    # and a clip-by-clip overlap average, at strides from 1 to L
    rng = np.random.default_rng(seed)
    L = clip_samples(2.25, rate)  # 9 at 4 Hz, 18 at 8 Hz
    n = 3 * L + int(rng.integers(0, 4 * L))
    norm = ClipNorm(NormParams(-1.0, 4.0), NormParams(0.5, 2.0), NormParams(0, 1))
    weights = rng.normal(0.0, 1.0 / (6 * L), (L, 6 * L + 1))
    weights[:, -1] = rng.uniform(-0.2, 1.2, L)  # some outputs clamp at each end
    accel = rng.uniform(-2.0, 5.0, (m, 2, n))
    accel[rng.random(m) < 0.3] = 0.0  # idle sessions
    for layout in (np.ascontiguousarray, np.asfortranarray):
        model = SurrogateModel(layout(weights), 2.25, rate, norm, 0.0)
        for stride in sorted({1, 2, L // 2, L}):
            out = predict_sessions(model, accel, stride)
            for row, session in zip(out, accel):
                expected = predict_session_naive(
                    model.weights, norm.a_l.apply(session[0]), norm.a_r.apply(session[1]),
                    L, stride,
                )
                assert row.tobytes() == np.array(expected).tobytes()
            single = predict_sessions(model, accel[:1], stride)
            assert single.tobytes() == out[:1].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4.0, 8.0]), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_predict_sessions_in_blocks_matches_the_per_session_oracle(rate, m, seed):
    # the prediction bound forced down to one session a block, then to two
    # (so an odd stack ends on a block of one): every row keeps the bits of
    # the per-session oracle and of the whole stack predicted as one block
    rng = np.random.default_rng(seed)
    L = clip_samples(2.25, rate)
    n = 3 * L + int(rng.integers(0, 4 * L))
    norm = ClipNorm(NormParams(-1.0, 4.0), NormParams(0.5, 2.0), NormParams(0, 1))
    weights = rng.normal(0.0, 1.0 / (6 * L), (L, 6 * L + 1))
    weights[:, -1] = rng.uniform(-0.2, 1.2, L)
    model = SurrogateModel(weights, 2.25, rate, norm, 0.0)
    accel = rng.uniform(-2.0, 5.0, (m, 2, n))
    for stride in sorted({1, 2, L}):
        whole = predict_sessions(model, accel, stride)
        session_bytes = ((n - L) // stride + 1) * L * 8
        for per_block in (1, 2):
            blocks = []

            def spy(preds, stride):
                blocks.append(len(preds))
                return _overlap_average(preds, stride)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(surrogate_module, "_PREDICT_BYTES", per_block * session_bytes)
                patch.setattr(surrogate_module, "_overlap_average", spy)
                out = predict_sessions(model, accel, stride)
            assert blocks == [min(per_block, m - i) for i in range(0, m, per_block)]
            assert out.tobytes() == whole.tobytes()
        for row, session in zip(out, accel):
            expected = predict_session_naive(
                weights, norm.a_l.apply(session[0]), norm.a_r.apply(session[1]), L, stride
            )
            assert row.tobytes() == np.array(expected).tobytes()


def test_an_hour_stack_predicts_one_block_at_a_time():
    # 3 sessions of 1 h at 8 Hz (28,800 samples): beside the design
    # [n_clips, 6L+1] and the output, one session's clip predictions
    # [1, n_clips, L] are alive, not the stack's; 2 MiB covers one block's
    # normalized and padded channels and its overlap sums
    rng = np.random.default_rng(33)
    L, n = clip_samples(2.25, 8.0), 28800
    weights = rng.normal(0.0, 1.0 / (6 * L), (L, 6 * L + 1))
    norm = ClipNorm(NormParams(-1.0, 4.0), NormParams(0.5, 2.0), NormParams(0, 1))
    model = SurrogateModel(weights, 2.25, 8.0, norm, 0.0)
    accel = rng.uniform(-1.0, 4.0, (3, 2, n))
    n_clips = n - L + 1
    design, block, output = n_clips * (6 * L + 1) * 8, n_clips * L * 8, 3 * n * 8
    tracemalloc.start()
    try:
        predict_sessions(model, accel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < design + block + output + 2 * 2**20


def _bound(model, accel):
    """The bound of `_predict_bounded`'s docstring, ε_row = 2 γ_{6L+1} (D W₁ + B)
    + 2 γ_{L-1} + 2 u, from the normalized acceleration of each session."""
    u = 2.0**-53
    L = model.L

    def gamma(k):
        return k * u / (1 - k * u)

    scaled = np.stack([np.stack([model.norm.a_l.apply(s[0]), model.norm.a_r.apply(s[1])])
                       for s in accel])
    D = np.abs(scaled).max(axis=(1, 2))
    W1 = np.abs(model.weights[:, :-1]).sum(axis=1).max()
    B = np.abs(model.weights[:, -1]).max()
    return 2 * gamma(6 * L + 1) * (D * W1 + B) + 2 * gamma(L - 1) + 2 * u


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4.0, 8.0]), st.integers(1, 4), st.sampled_from([1e-3, 1.0, 1e3]),
       st.sampled_from([1.0, 1e3]), st.booleans(), st.integers(0, 2**32 - 1))
def test_bounded_prediction_lies_within_its_bound(rate, m, scale, reach, small_blocks, seed):
    # weights over six decades with biases that clamp at either end, and
    # accelerations up to 1000 times past the normalization range with idle
    # all-zero sessions among them: every sample lies in [0, 1] and within
    # its row's ε of `predict_sessions`, with the gemm in one chunk of
    # clips or in chunks of a few clips and one session a block
    rng = np.random.default_rng(seed)
    L = clip_samples(2.25, rate)
    n = 3 * L + int(rng.integers(0, 40 * L))
    norm = ClipNorm(NormParams(-1.0, 4.0), NormParams(0.5, 2.0), NormParams(0, 1))
    weights = rng.normal(0.0, scale / (6 * L), (L, 6 * L + 1))
    weights[:, -1] = rng.uniform(-0.2, 1.2, L)
    model = SurrogateModel(weights, 2.25, rate, norm, 0.0)
    accel = rng.uniform(-reach, reach, (m, 2, n))
    accel[rng.random(m) < 0.3] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        if small_blocks:
            patch.setattr(surrogate_module, "_PREDICT_BYTES", (6 * L + 1) * 8 * 7)
        fast, eps = _predict_bounded(model, accel)
    exact = predict_sessions(model, accel)
    np.testing.assert_allclose(eps, _bound(model, accel), rtol=1e-12, atol=0)
    assert fast.shape == exact.shape and np.all((fast >= 0.0) & (fast <= 1.0))
    assert np.all(np.abs(fast - exact) <= eps[:, None])


def test_bounded_prediction_of_an_hour_stays_within_its_blocks():
    # 3 sessions of 1 h at 8 Hz: beside the output, one chunk of the
    # transposed design [6L+1, chunk] within `_PREDICT_BYTES` and its clips,
    # and one session's normalized and padded channels are alive
    rng = np.random.default_rng(34)
    L, n = clip_samples(2.25, 8.0), 28800
    weights = rng.normal(0.0, 1.0 / (6 * L), (L, 6 * L + 1))
    norm = ClipNorm(NormParams(-1.0, 4.0), NormParams(0.5, 2.0), NormParams(0, 1))
    model = SurrogateModel(weights, 2.25, 8.0, norm, 0.0)
    accel = rng.uniform(-1.0, 4.0, (3, 2, n))
    tracemalloc.start()
    try:
        _predict_bounded(model, accel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < surrogate_module._PREDICT_BYTES + 3 * n * 8 + 2 * 2**20


_VMIN = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
_SPAN = st.floats(1e-3, 20.0)


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 3), st.just(2), st.integers(1, 6)),
           elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))),
    _VMIN, _SPAN, _VMIN, _SPAN,
)
def test_clip_norm_accel_equals_each_channel_scale(accel, vmin_l, span_l, vmin_r, span_r):
    # the stacked scale of ClipNorm.accel has the bits of NormParams.apply
    # on each channel of each session
    norm = ClipNorm(NormParams(vmin_l, vmin_l + span_l), NormParams(vmin_r, vmin_r + span_r),
                    NormParams(0, 1))
    expected = np.stack([(norm.a_l.apply(a[0]), norm.a_r.apply(a[1])) for a in accel])
    assert norm.accel(accel).tobytes() == expected.tobytes()


def test_predict_sessions_rejects_a_stride_past_L():
    # past L, samples between the clips would go unpredicted (NaN); L itself
    # tiles, and training clips still take any stride >= 1
    rng = np.random.default_rng(29)
    model, a_l, a_r = _small_model(rng)
    accel = _one_session(a_l, a_r)
    for stride in (L + 1, 2 * L):
        with pytest.raises(ValueError, match=r"stride_samples must be in \[1, L = 9\]"):
            predict_sessions(model, accel, stride)
    assert np.all(np.isfinite(predict_sessions(model, accel, L)))
    phasic = Trace(np.linspace(0.0, 1.0, len(a_l)), RATE)
    windows, targets = make_clips(a_l, a_r, phasic, model.norm, stride_samples=2 * L)
    assert windows.shape[0] == targets.shape[0] == (len(a_l) - L) // (2 * L) + 1


def test_predict_session_validation():
    rng = np.random.default_rng(28)
    model, a_l, a_r = _small_model(rng)
    accel = _one_session(a_l, a_r)
    with pytest.raises(ValueError, match="stride"):
        predict_sessions(model, accel, stride_samples=0)
    with pytest.raises(ValueError, match="stride"):
        predict_sessions(model, accel, stride_samples=L + 1)
    with pytest.raises(ValueError, match="shorter"):
        predict_sessions(model, accel[..., :20])
    with pytest.raises(ValueError, match=r"\[m, 2, n\]"):
        predict_sessions(model, np.zeros((1, 3, 40)))


# ---------------------------------------------------------------------------
# Model file
# ---------------------------------------------------------------------------

def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    model, _, _ = _small_model(rng)
    path = tmp_path / "model.csv"
    write_model(model, path)
    back = read_model(path)
    np.testing.assert_array_equal(back.weights, model.weights)
    assert back.clip_len_s == model.clip_len_s
    assert back.rate_hz == model.rate_hz
    assert back.train_mae == model.train_mae
    assert back.norm == model.norm


def test_model_file_errors(tmp_path):
    rng = np.random.default_rng(30)
    model, _, _ = _small_model(rng)
    good = tmp_path / "model.csv"
    write_model(model, good)
    lines = good.read_text().splitlines()

    def variant(name, new_lines):
        path = tmp_path / name
        path.write_text("\n".join(new_lines) + "\n")
        return path

    with pytest.raises(FileFormatError, match="missing 'weights' marker"):
        read_model(variant("nomarker.csv", [l for l in lines if l != "weights"][:6]))
    with pytest.raises(FileFormatError, match="missing header keys"):
        read_model(variant("nohdr.csv", lines[1:]))
    with pytest.raises(FileFormatError, match="badnum.csv:1: bad numeric header"):
        read_model(variant("badnum.csv", ["clip_len_s=soon"] + lines[1:]))
    with pytest.raises(FileFormatError, match="infrate.csv:2: bad numeric header value rate_hz"):
        read_model(variant("infrate.csv", lines[:1] + ["rate_hz=inf"] + lines[2:]))
    with pytest.raises(FileFormatError, match="duphdr.csv:2: duplicate header key 'clip_len_s'"):
        read_model(variant("duphdr.csv", lines[:1] + ["clip_len_s=4.5"] + lines[1:]))
    with pytest.raises(FileFormatError, match="extra.csv:7: unknown header key 'colour'"):
        read_model(variant("extra.csv", lines[:6] + ["colour=blue"] + lines[6:]))
    with pytest.raises(FileFormatError, match="badbound.csv:3: bad normalization bounds"):
        bounds = ["norm_a_l=low,1.0" if l.startswith("norm_a_l=") else l for l in lines]
        read_model(variant("badbound.csv", bounds))
    with pytest.raises(FileFormatError, match="ragged.csv:9: weight row has 3 values"):
        read_model(variant("ragged.csv", lines[:8] + ["1.0,2.0,3.0"] + lines[9:]))
    with pytest.raises(FileFormatError, match="bad weight row"):
        bad = lines[:7] + ["1.0,oops"] + lines[8:]
        read_model(variant("badrow.csv", bad))
    with pytest.raises(FileFormatError, match="no weight rows"):
        read_model(variant("norows.csv", lines[:7]))
    with pytest.raises(FileFormatError, match="expected 'vmin,vmax'"):
        swapped = ["norm_a_l=1.0" if l.startswith("norm_a_l=") else l for l in lines]
        read_model(variant("badnorm.csv", swapped))
    # files that parse but do not make a valid model
    with pytest.raises(FileFormatError, match=r"fewrows.csv: weights must be \[9, 55\]"):
        read_model(variant("fewrows.csv", lines[:-1]))
    with pytest.raises(FileFormatError, match="shortclip.csv: clip length 0.01s"):
        read_model(variant("shortclip.csv", ["clip_len_s=0.01"] + lines[1:]))
    with pytest.raises(FileFormatError, match="zerorate.csv: clip length 2.25s at 0.0Hz"):
        read_model(variant("zerorate.csv", lines[:1] + ["rate_hz=0.0"] + lines[2:]))
    with pytest.raises(FileFormatError, match="negmae.csv: train_mae must be >= 0"):
        read_model(variant("negmae.csv", lines[:5] + ["train_mae=-1.0"] + lines[6:]))


def test_model_file_rejects_non_finite_weights(tmp_path):
    rng = np.random.default_rng(31)
    model, _, _ = _small_model(rng)
    good = tmp_path / "model.csv"
    write_model(model, good)
    lines = good.read_text().splitlines()
    for bad in ("nan", "inf", "-inf"):
        row = lines[7].split(",")
        row[3] = bad
        path = tmp_path / f"{bad}.csv"
        path.write_text("\n".join(lines[:7] + [",".join(row)] + lines[8:]) + "\n")
        with pytest.raises(FileFormatError, match="weights must be finite"):
            read_model(path)


def test_model_shape_validation():
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    with pytest.raises(ValueError, match="weights must be"):
        SurrogateModel(np.zeros((9, 10)), 2.25, RATE, norm, 0.0)
    with pytest.raises(ValueError, match="train_mae"):
        SurrogateModel(np.zeros((9, 55)), 2.25, RATE, norm, -0.1)


# ---------------------------------------------------------------------------
# Synthetic oracle
# ---------------------------------------------------------------------------

def test_bateman_kernel_matches_reference_shape():
    kernel = bateman_kernel(0.75, 2.0, RATE)
    assert len(kernel) == 65  # 8 * tau_decay at 4 Hz, plus the t = 0 sample
    assert kernel[0] == 0.0
    assert kernel.max() == 1.0
    reference = np.asarray(bateman_pulse(65, RATE, 0.0, 1.0))
    np.testing.assert_allclose(kernel, reference / reference.max(), rtol=0, atol=1e-12)


def test_bateman_kernel_validation():
    with pytest.raises(ValueError):
        bateman_kernel(2.0, 0.75, RATE)
    with pytest.raises(ValueError):
        bateman_kernel(1.0, 1.0, RATE)


def test_synth_session_is_deterministic():
    rng = np.random.default_rng(31)
    a_l, a_r = _accel_pair(rng, n=480)
    params = OracleParams(seed=5)
    first = synth_session(a_l, a_r, params)
    second = synth_session(a_l, a_r, params)
    np.testing.assert_array_equal(first.samples, second.samples)
    assert first.unit == Unit.MICROSIEMENS
    other = synth_session(a_l, a_r, OracleParams(seed=6))
    assert not np.array_equal(first.samples, other.samples)


def test_synth_session_latency():
    # a noise-free impulse at sample 10 with 1 s latency first registers at
    # sample 15: one sample for the kernel to leave zero, four for the delay
    n = 120
    quiet = OracleParams(baseline_us=0.0, tonic_drift=0.0, noise_sd=0.0)
    a_l = np.zeros(n)
    a_l[10] = 1.0
    eda = synth_session(Trace(a_l, RATE), Trace(np.zeros(n), RATE), quiet)
    assert np.all(eda.samples[:15] == 0.0)
    assert eda.samples[15] > 0.0


def test_synth_session_stimulus_weighting():
    # rotational acceleration enters the stimulus at half weight
    n = 120
    params = OracleParams(seed=2)
    a = np.zeros(n)
    a[30:34] = 1.0
    from_l = synth_session(Trace(a, RATE), Trace(np.zeros(n), RATE), params)
    from_r = synth_session(Trace(np.zeros(n), RATE), Trace(2.0 * a, RATE), params)
    np.testing.assert_array_equal(from_l.samples, from_r.samples)


def test_oracle_params_validation():
    with pytest.raises(ValueError):
        OracleParams(tau_rise_s=2.0, tau_decay_s=0.75)
    with pytest.raises(ValueError):
        OracleParams(latency_s=-1.0)
    with pytest.raises(ValueError):
        OracleParams(noise_sd=-0.1)
    with pytest.raises(ValueError):
        synth_session(
            Trace(np.zeros(10), RATE), Trace(np.zeros(10), 8.0), OracleParams()
        )
