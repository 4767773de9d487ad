"""Surrogate tests: clip geometry, ridge fit, session prediction, oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    predict_session,
    predict_sessions,
    read_model,
    reconstruct,
    synth_session,
    write_model,
)

from oracles import bateman_pulse, predict_clip, predict_session_naive, reconstruct_naive

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


def test_make_clips_count_and_shapes():
    rng = np.random.default_rng(20)
    a_l, a_r = _accel_pair(rng)
    phasic = Trace(rng.uniform(0.0, 0.5, 960), RATE)
    windows, targets, norm = make_clips(a_l, a_r, phasic)
    assert windows.shape == (106, 2, 3 * L)  # (960 - 9) // 9 + 1 clips
    assert targets.shape == (106, L)
    assert norm.a_l.vmin == float(np.min(a_l.samples))
    assert norm.a_l.vmax == float(np.max(a_l.samples))


def test_make_clips_window_alignment():
    rng = np.random.default_rng(21)
    a_l, a_r = _accel_pair(rng, n=90)
    phasic = Trace(rng.uniform(0.0, 0.5, 90), RATE)
    windows, targets, norm = make_clips(a_l, a_r, phasic)
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
    with pytest.raises(ValueError, match="share length"):
        make_clips(a_l, Trace(a_r.samples[:-1], RATE), Trace(phasic.samples[:-1], RATE))
    with pytest.raises(ValueError, match="share rate"):
        make_clips(a_l, Trace(a_r.samples, 8.0), phasic)
    with pytest.raises(ValueError, match="stride_samples"):
        make_clips(a_l, a_r, phasic, stride_samples=0)
    with pytest.raises(ValueError, match="shorter"):
        short = Trace(np.arange(20.0), RATE)
        make_clips(short, short, short)
    with pytest.raises(DegenerateInputError):
        make_clips(a_l, Trace(np.full(90, 1.0), RATE), phasic)  # constant channel


def test_clip_shape_validation():
    # clips of L = 3 (0.75 s at 4 Hz): windows [n, 2, 9], targets [n, 3]
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    with pytest.raises(ValueError, match="clips must be"):
        fit_surrogate(np.zeros((1, 2, 10)), np.zeros((1, 3)), rate_hz=RATE, clip_len_s=0.75,
                      norm=norm)
    with pytest.raises(ValueError, match="clips must be"):
        fit_surrogate(np.zeros((1, 2, 9)), np.zeros((1, 4)), rate_hz=RATE, clip_len_s=0.75,
                      norm=norm)
    with pytest.raises(ValueError, match="clips must be"):
        fit_surrogate(np.zeros((2, 2, 9)), np.zeros((1, 3)), rate_hz=RATE, clip_len_s=0.75,
                      norm=norm)


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

def test_reconstruct_stride_L_concatenates():
    preds = np.arange(27.0).reshape(3, 9)
    out = reconstruct(preds, 9, RATE)
    np.testing.assert_array_equal(out.samples, np.arange(27.0))
    assert out.rate_hz == RATE and out.unit == Unit.NORMALIZED


def test_reconstruct_overlap_average():
    preds = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    out = reconstruct(preds, 1, RATE)
    np.testing.assert_array_equal(out.samples, [0.0, 0.5, 0.5, 1.0])
    stacked = reconstruct(preds, 0, RATE)
    np.testing.assert_array_equal(stacked.samples, [0.5, 0.5, 0.5])


def test_reconstruct_validation():
    with pytest.raises(ValueError):
        reconstruct(np.zeros((0, 3)), 1, RATE)
    with pytest.raises(ValueError):
        reconstruct(np.zeros(5), 1, RATE)
    with pytest.raises(ValueError):
        reconstruct(np.zeros((2, 3)), -1, RATE)


@st.composite
def _clip_stacks(draw):
    width = draw(st.integers(1, 8))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
    preds = draw(arrays(np.float64, (draw(st.integers(1, 12)), width), elements=value))
    return preds, draw(st.integers(0, width))


@settings(max_examples=300, deadline=None)
@given(_clip_stacks())
def test_reconstruct_matches_clip_loop(stack):
    # every stride from 0 (all clips on one span) to L (concatenation)
    preds, stride = stack
    out = reconstruct(preds, stride, RATE)
    expected = np.array(reconstruct_naive(preds.tolist(), stride), dtype=np.float64)
    assert out.samples.tobytes() == expected.tobytes()


def test_clip_reconstruct_round_trip():
    # targets cut at stride L and reassembled reproduce the normalized
    # phasic over the covered span
    rng = np.random.default_rng(23)
    a_l, a_r = _accel_pair(rng)
    phasic = Trace(rng.uniform(0.0, 0.5, 960), RATE)
    for stride in (L, 3, 1):
        _, targets, norm = make_clips(a_l, a_r, phasic, stride_samples=stride)
        out = reconstruct(targets, stride, RATE)
        expected = norm.phasic.apply(phasic.samples)[: len(out)]
        np.testing.assert_allclose(out.samples, expected, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Ridge fit
# ---------------------------------------------------------------------------

def _planted_session(rng, n=960):
    """Session whose normalized phasic is an exact affine map of the windows."""
    a_l, a_r = _accel_pair(rng, n)
    placeholder = Trace(np.linspace(0.0, 1.0, n), RATE)
    windows, _, _ = make_clips(a_l, a_r, placeholder)
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
    windows, targets, norm = make_clips(a_l, a_r, phasic)
    model = fit_surrogate(windows, targets, rate_hz=RATE, norm=norm)
    assert model.train_mae < 1e-6
    pred = predict_session(model, a_l, a_r, model.L).samples
    mae = float(np.mean(np.abs(pred - targets.ravel())))
    assert mae < 1e-6


def test_fit_rejects_degenerate_input():
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    with pytest.raises(DegenerateInputError):
        fit_surrogate(np.zeros((0, 2, 3 * L)), np.zeros((0, L)), rate_hz=RATE, norm=norm)

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
        fit_surrogate(windows, targets, 0.0, rate_hz=RATE, clip_len_s=0.5, norm=norm)
    model = fit_surrogate(windows, targets, 1e-6, rate_hz=RATE, clip_len_s=0.5, norm=norm)
    assert model.weights.shape == (2, 13)


def test_fit_validation():
    norm = ClipNorm(NormParams(0, 1), NormParams(0, 1), NormParams(0, 1))
    windows, targets = np.zeros((1, 2, 6)), np.zeros((1, 2))
    with pytest.raises(ValueError, match="ridge_lambda"):
        fit_surrogate(windows, targets, -1.0, rate_hz=RATE, clip_len_s=0.5, norm=norm)
    with pytest.raises(ValueError, match=r"clips must be windows \[n, 2, 27\]"):
        fit_surrogate(windows, targets, rate_hz=RATE, clip_len_s=2.25, norm=norm)


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
    windows, targets, norm = make_clips(a_l, a_r, phasic)
    return fit_surrogate(windows, targets, rate_hz=RATE, norm=norm), a_l, a_r


def test_predict_session_dense_covers_whole_session():
    rng = np.random.default_rng(26)
    model, a_l, a_r = _small_model(rng)
    out = predict_session(model, a_l, a_r)  # stride 1 by default
    assert len(out) == len(a_l)
    assert out.unit == Unit.NORMALIZED
    assert np.all(out.samples >= 0.0) and np.all(out.samples <= 1.0)


def test_predict_session_stride_L_tiles():
    rng = np.random.default_rng(27)
    model, a_l, a_r = _small_model(rng)
    out = predict_session(model, a_l, a_r, stride_samples=L)
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
        out.samples[k * L : (k + 1) * L], predict_clip(model, window), rtol=0, atol=1e-12
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
            single = predict_session(model, Trace(accel[0, 0], rate), Trace(accel[0, 1], rate),
                                     stride)
            assert single.samples.tobytes() == out[0].tobytes()


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


def test_predict_session_validation():
    rng = np.random.default_rng(28)
    model, a_l, a_r = _small_model(rng)
    with pytest.raises(ValueError, match="share length"):
        predict_session(model, a_l, Trace(a_r.samples[:-1], RATE))
    with pytest.raises(ValueError, match="does not match model rate"):
        predict_session(model, Trace(a_l.samples, 8.0), Trace(a_r.samples, 8.0))
    with pytest.raises(ValueError, match="stride"):
        predict_session(model, a_l, a_r, stride_samples=0)
    with pytest.raises(ValueError, match="shorter"):
        predict_session(model, Trace(a_l.samples[:20], RATE), Trace(a_r.samples[:20], RATE))
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
