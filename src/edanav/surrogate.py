"""The simulated user: windowed linear surrogate from acceleration to phasic EDA.

Clip construction follows the moving-window scheme: the phasic target on
[kS, kS+L) is predicted from the bi-channel acceleration window
[kS-L, kS+2L) (previous, current, and next clip), zero-padded where the
window crosses a session edge. The regressor is a ridge-regularized linear
map fit in closed form; predictions are clamped to [0, 1] and put back
into a sequence by `_overlap_average`: concatenation at stride = L, the
mean of overlapping clips at stride < L, one strided add per clip column.

`predict_sessions` predicts a stack of equal-length sessions in blocks of
rows whose clip predictions fit ``_PREDICT_BYTES``: one normalization and
one overlap average per block, windows written from a sliding view into
one design buffer, and one 2-D gemm per session (never one across
sessions, which would round differently). The fit reads one design
buffer too: `fit_surrogate` takes the design rows that
`pipeline.train_surrogate` fills from each session's `make_clips` views.
`_predict_bounded` is the stride-1 prediction of long offline replays
(`optimize._simulate`): one ``weights @ designᵀ`` gemm per chunk of
clips, which may round each clip value in another order, with a bound
ε_row on each row's distance from `predict_sessions`; those predictions
alone may differ from `predict_sessions` in their last bits, and the
replay's counts stay exact by certificate (`scr`'s margins).

Also provides a synthetic physiological oracle (`synth_session`) that turns
acceleration into EDA through a Bateman difference-of-exponentials kernel,
used to manufacture ground-truth cohorts for testing and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy._core.umath import clip as _clip  # np.clip's ufunc, without its Python wrapper
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateInputError, FileFormatError
from .signals import (
    NormParams,
    Trace,
    Unit,
    format_float,
    parse_items,
    same_rate,
    trace_norm,
    write_text_atomic,
)

DEFAULT_CLIP_LEN_S = 2.25
DEFAULT_RIDGE_LAMBDA = 1e-6

# The clip predictions [b, n_clips, L] of one `predict_sessions` block stay
# within this many bytes, or hold one session where that alone holds more.
# A search's group (10 sessions of 960 samples at 4 Hz: 0.7 MB) is one
# block: one session a block measured 0.76 -> 1.19 ms a call there. A 900 s
# session at 8 Hz (1.0 MB) or an hour (4.1 MB) is a block of its own, which
# measured faster on 3 sessions of 900 s (5.20 -> 4.84 ms a call).
_PREDICT_BYTES = 2**20


def clip_samples(clip_len_s: float, rate_hz: float) -> int:
    """Samples per clip, L = round(clip_len_s * rate_hz); must be >= 1."""
    L = int(round(clip_len_s * rate_hz))
    if L < 1:
        raise ValueError(f"clip length {clip_len_s}s at {rate_hz}Hz yields no samples")
    return L


@dataclass(frozen=True)
class ClipNorm:
    """Frozen min-max parameters for the two acceleration channels and phasic."""

    a_l: NormParams
    a_r: NormParams
    phasic: NormParams
    # the two acceleration scales as [2, 1] columns, built once
    _vmin: np.ndarray = field(init=False, repr=False, compare=False)
    _span: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_vmin", np.array([[self.a_l.vmin], [self.a_r.vmin]]))
        object.__setattr__(self, "_span", np.array([[self.a_l.span], [self.a_r.span]]))

    def accel(self, values: np.ndarray) -> np.ndarray:
        """Acceleration ``values`` [..., 2, n] (a_l row, then a_r) scaled to the model.

        Each channel gets the bits of its `NormParams.apply`.
        """
        return (values - self._vmin) / self._span


def _windows(channels: np.ndarray, L: int, stride: int) -> np.ndarray:
    """Every window of the normalized ``channels`` [..., 2, n] as a view [..., n_clips, 2, 3L].

    Window k covers session samples [k * stride - L, k * stride + 2L),
    zero-padded past the session edges. The view is read-only.
    """
    n = channels.shape[-1]
    padded = np.zeros((*channels.shape[:-1], n + 3 * L))
    padded[..., L : L + n] = channels
    starts = slice(0, (n - L) // stride * stride + 1, stride)
    return np.moveaxis(sliding_window_view(padded, 3 * L, axis=-1)[..., starts, :], -2, -3)


def corpus_clip_norm(a_l_traces, a_r_traces, phasic_traces) -> ClipNorm:
    """Per-corpus normalization parameters, computed once on the train split."""
    return ClipNorm(
        a_l=trace_norm(a_l_traces),
        a_r=trace_norm(a_r_traces),
        phasic=trace_norm(phasic_traces),
    )


def make_clips(
    a_l: Trace,
    a_r: Trace,
    phasic: Trace,
    norm: ClipNorm,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    stride_samples: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cut one session into clips: (windows [n, 2, 3L], targets [n, L]).

    Row k pairs the acceleration window around the k-th phasic target.
    Targets step by ``stride_samples`` (default L, non-overlapping) and
    always lie fully inside the session; the surrounding window is
    zero-padded where it crosses an edge. Values are min-max normalized
    with ``norm``, the corpus's `corpus_clip_norm`. Both are read-only
    sliding views over the session's normalized samples, so a session's
    clips take memory linear in its samples until a caller copies them
    (`fit_surrogate`'s design buffer).
    """
    if not (len(a_l) == len(a_r) == len(phasic)):
        raise ValueError("traces must share length")
    if not (same_rate(a_r.rate_hz, a_l.rate_hz) and same_rate(phasic.rate_hz, a_l.rate_hz)):
        raise ValueError("traces must share rate")
    L = clip_samples(clip_len_s, a_l.rate_hz)
    stride = L if stride_samples is None else int(stride_samples)
    if stride < 1:
        raise ValueError("stride_samples must be >= 1")
    n = len(a_l)
    if n < 3 * L:
        raise ValueError(f"session of {n} samples is shorter than one full window (3L = {3 * L})")
    windows = _windows(norm.accel(np.stack([a_l.samples, a_r.samples])), L, stride)
    targets = sliding_window_view(norm.phasic.apply(phasic.samples), L)[::stride]
    return windows, targets


@dataclass(frozen=True, eq=False)
class SurrogateModel:
    """Linear windowed regressor with frozen normalization parameters.

    ``weights`` is [L, 6L+1]: each output sample is an affine function of
    the flattened bi-channel window (a_l row then a_r row) plus a bias.
    The model keeps a read-only copy of them and hashes by identity, so
    it tags the report rows a record keeps (`optimize.evaluate_sessions`).
    """

    weights: np.ndarray
    clip_len_s: float
    rate_hz: float
    norm: ClipNorm
    train_mae: float

    def __post_init__(self):
        L = clip_samples(self.clip_len_s, self.rate_hz)
        weights = np.array(self.weights, dtype=np.float64)
        if weights.shape != (L, 6 * L + 1):
            raise ValueError(
                f"weights must be [{L}, {6 * L + 1}] for clip_len_s={self.clip_len_s} "
                f"at {self.rate_hz}Hz, got {weights.shape}"
            )
        if not self.train_mae >= 0:
            raise ValueError("train_mae must be >= 0")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def L(self) -> int:
        return int(self.weights.shape[0])


def fit_surrogate(
    design,
    targets,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    *,
    rate_hz: float,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    norm: ClipNorm,
) -> SurrogateModel:
    """Closed-form ridge fit of the windowed regressor on design rows.

    ``design`` is X [n, 6L+1], each clip's flattened `make_clips` window
    (a_l row then a_r row), then 1.0, as `pipeline.train_surrogate` writes
    it, and is read in place; ``targets`` is [n, L]. Minimizes
    ||T - X W^T||^2 + lambda ||W||^2 over all weights including the bias
    column. ``train_mae`` records the mean absolute error of the clamped
    predictions on the training clips.
    """
    if not ridge_lambda >= 0:
        raise ValueError(f"ridge_lambda must be >= 0, got {ridge_lambda!r}")
    X = np.asarray(design, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if X.size == 0 or Y.size == 0:
        raise DegenerateInputError("cannot fit on an empty clip set")
    L = clip_samples(clip_len_s, rate_hz)
    d = 6 * L + 1
    if X.shape[1:] != (d,) or not np.all(X[:, -1] == 1.0) or Y.shape != (len(X), L):
        raise ValueError(
            f"clips must be design rows [n, {d}] ending in 1.0 and targets [n, {L}], "
            f"got {X.shape} and {Y.shape}"
        )
    A = X.T @ X + ridge_lambda * np.eye(d)
    B = X.T @ Y
    try:
        Wt = np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        raise DegenerateInputError(
            "normal equations are singular; supply more clips or ridge_lambda > 0"
        ) from None
    # clamped predictions, then their errors, in one buffer the size of Y
    errors = np.matmul(X, Wt)
    _clip(errors, 0.0, 1.0, out=errors)
    np.subtract(errors, Y, out=errors)
    train_mae = float(np.mean(np.abs(errors, out=errors)))
    return SurrogateModel(
        weights=Wt.T, clip_len_s=clip_len_s, rate_hz=rate_hz, norm=norm, train_mae=train_mae
    )


def predict_rows(model: SurrogateModel, rows: np.ndarray) -> np.ndarray:
    """Clamped phasic clips [m, L] of the rows ``rows`` [m, 6L+1] (a flattened window, then 1.0).

    A stacked `np.matmul` runs one matrix-vector product ``weights @ row``
    per row, so each output row has the bits of that row's window predicted
    on its own; ``rows @ weights.T`` does not.
    """
    return _clip(np.matmul(model.weights[None], rows[:, :, None])[:, :, 0], 0.0, 1.0)


def _overlap_average(preds: np.ndarray, stride: int) -> np.ndarray:
    """Rows [m, stride * (n_clips - 1) + L] reassembled from clips ``preds`` [m, n_clips, L].

    Each sample sums its clips in clip order from 0.0, then divides by their
    count: clip k's column j lands on sample k * stride + j, so one strided
    add per column, from column L-1 down to 0, keeps that order.
    """
    m, n_clips, L = preds.shape
    length = stride * (n_clips - 1) + L
    acc = np.zeros((m, length))
    count = np.zeros(length)
    for j in range(L - 1, -1, -1):
        span = slice(j, j + stride * (n_clips - 1) + 1, stride)
        acc[:, span] += preds[:, :, j]
        count[span] += 1.0
    return acc / count


def predict_sessions(model: SurrogateModel, accel, stride_samples: int = 1) -> np.ndarray:
    """Normalized phasic predictions [m, length] for m sessions of raw acceleration [m, 2, n].

    Row i of ``accel`` holds session i's a_l and a_r in raw units; the rows
    are normalized with the model's frozen parameters, windowed at
    ``stride_samples`` and predicted, clamped to [0, 1] and
    overlap-averaged back into rows by `_overlap_average` (length =
    stride * (n_clips - 1) + L, which is n at stride 1).

    The rows run in blocks whose clip predictions [b, n_clips, L] hold at
    most ``_PREDICT_BYTES``, or one session where that alone holds more,
    so one block's predictions are alive at a time. Each session gets its
    own 2-D gemm over a design buffer [n_clips, 6L+1] that every session
    of the call reuses. A gemm over the rows of several sessions at once
    would round differently, so every row equals its one-session
    prediction bit for bit, whatever the block.
    """
    accel = np.asarray(accel, dtype=np.float64)
    if accel.ndim != 3 or accel.shape[1] != 2:
        raise ValueError(f"accel must be [m, 2, n], got {accel.shape}")
    stride = int(stride_samples)
    L = model.L
    if not 1 <= stride <= L:
        raise ValueError(f"stride_samples must be in [1, L = {L}], or samples go unpredicted")
    m, _, n = accel.shape
    if n < 3 * L:
        raise ValueError("session shorter than one full window")
    n_clips = (n - L) // stride + 1
    block = max(1, _PREDICT_BYTES // (n_clips * L * 8))
    design = np.empty((n_clips, 6 * L + 1))
    design[:, -1] = 1.0
    preds = np.empty((min(block, m), n_clips, L))
    out = np.empty((m, stride * (n_clips - 1) + L))
    weights_t = model.weights.T
    for first in range(0, m, block):
        windows = _windows(model.norm.accel(accel[first : first + block]), L, stride)
        b = len(windows)
        for i in range(b):
            design[:, : 3 * L] = windows[i, :, 0]
            design[:, 3 * L : -1] = windows[i, :, 1]
            np.matmul(design, weights_t, out=preds[i])
        _clip(preds[:b], 0.0, 1.0, out=preds[:b])
        out[first : first + b] = _overlap_average(preds[:b], stride)
    return out


_U = 2.0**-53  # the unit roundoff of float64


def _gamma(k: int) -> float:
    """γ_k = k u / (1 - k u): k roundings err by at most γ_k times the magnitudes."""
    return k * _U / (1.0 - k * _U)


def _predict_bounded(model: SurrogateModel, accel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 predictions [m, n] of raw acceleration ``accel`` [m, 2, n] and each row's
    bound ε [m] on its distance from `predict_sessions`, sample by sample.

    Per session and chunk of clips, one ``weights @ designᵀ`` gemm over a
    design [6L+1, chunk] whose rows are copied from contiguous rows of a
    sliding view over the padded, normalized channels (row r is window
    offset r), so clip k is column k. The chunk holds as many clips as fit
    ``_PREDICT_BYTES`` in the design. The clips [L, chunk] are clamped and
    overlap-added by L contiguous row adds, from row L-1 down to 0, chunk
    after chunk, then divided by one count vector: the order of
    `_overlap_average`. Sessions are normalized in the blocks of
    `predict_sessions`.

    Only the gemm's rounding differs from `predict_sessions`, whose
    ``design @ weights.T`` may sum each clip value in another order. Each of
    the two sums the same 6L+1 products, so each lies within
    γ_{6L+1} Σ|w_i x_i| <= γ_{6L+1} (D W₁ + B) of the exact value, where D
    is the row's largest |normalized acceleration| (the padding is 0.0),
    W₁ the largest row sum of |weights| without the bias column and B the
    largest |bias|. The clamp to [0, 1] does not widen the gap. A sample
    averages c <= L clamped clips: the exact means of the two paths differ
    by at most the largest clip gap, and each computed mean lies within
    γ_{c-1} + u of its exact one, since the c - 1 additions of values in
    [0, 1] err by at most γ_{c-1} c in the sum (floating-point addition is
    monotone, so the sum is at most c) and the division by at most u. So

        ε = 2 γ_{6L+1} (D W₁ + B) + 2 γ_{L-1} + 2 u,   u = 2⁻⁵³.
    """
    m, _, n = accel.shape
    L = model.L
    n_clips = n - L + 1
    block = max(1, _PREDICT_BYTES // (n_clips * L * 8))
    chunk = min(n_clips, max(1, _PREDICT_BYTES // ((6 * L + 1) * 8)))
    design = np.empty((6 * L + 1, chunk))
    design[-1] = 1.0
    clips = np.empty((L, chunk))
    count = np.zeros(n)
    for j in range(L):
        count[j : j + n_clips] += 1.0
    out = np.zeros((m, n))
    reach = np.empty(m)
    for first in range(0, m, block):
        scaled = model.norm.accel(accel[first : first + block])
        b = len(scaled)
        reach[first : first + b] = np.maximum(scaled.max(axis=(1, 2)), -scaled.min(axis=(1, 2)))
        padded = np.zeros((b, 2, n + 3 * L + chunk))  # zeros past the end for the last chunk
        padded[..., L : L + n] = scaled
        del scaled
        rows = sliding_window_view(padded, chunk, axis=-1)  # [i, c, s] = padded[i, c, s:][:chunk]
        for i in range(b):
            row = out[first + i]
            for k in range(0, n_clips, chunk):
                width = min(chunk, n_clips - k)
                part, values = design[:, :width], clips[:, :width]
                part[: 3 * L] = rows[i, 0, k : k + 3 * L, :width]
                part[3 * L : -1] = rows[i, 1, k : k + 3 * L, :width]
                np.matmul(model.weights, part, out=values)
                _clip(values, 0.0, 1.0, out=values)
                for j in range(L - 1, -1, -1):
                    row[k + j : k + j + width] += values[j]
        out[first : first + b] /= count
    w = np.abs(model.weights)
    gemm = 2.0 * _gamma(6 * L + 1) * (reach * w[:, :-1].sum(axis=1).max() + w[:, -1].max())
    return out, gemm + 2.0 * _gamma(L - 1) + 2.0 * _U


# ---------------------------------------------------------------------------
# Model file: plain-text header then row-major weight matrix in CSV.
# ---------------------------------------------------------------------------

def write_model(model: SurrogateModel, path) -> None:
    lines = [
        f"clip_len_s={format_float(model.clip_len_s)}",
        f"rate_hz={format_float(model.rate_hz)}",
        f"norm_a_l={format_float(model.norm.a_l.vmin)},{format_float(model.norm.a_l.vmax)}",
        f"norm_a_r={format_float(model.norm.a_r.vmin)},{format_float(model.norm.a_r.vmax)}",
        f"norm_phasic={format_float(model.norm.phasic.vmin)},{format_float(model.norm.phasic.vmax)}",
        f"train_mae={format_float(model.train_mae)}",
        "weights",
    ]
    for row in model.weights:
        lines.append(",".join(format_float(v) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _parse_norm(text: str, path, lineno: int) -> NormParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise FileFormatError(path, f"expected 'vmin,vmax', got {text!r}", lineno)
    try:
        return NormParams(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise FileFormatError(path, f"bad normalization bounds {text!r} ({exc})", lineno) from None


def _parse_number(header: dict, key: str, path) -> float:
    """The finite float of header ``key``, else a FileFormatError naming its line."""
    value, lineno = header[key]
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise FileFormatError(path, f"bad numeric header value {key}={value!r}", lineno)
    return number


def read_model(path) -> SurrogateModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if "weights" not in lines:
        raise FileFormatError(path, "missing 'weights' marker")
    row_start = lines.index("weights") + 1  # the marker's line number
    required = ("clip_len_s", "rate_hz", "norm_a_l", "norm_a_r", "norm_phasic", "train_mae")
    header = parse_items(path, enumerate(lines[: row_start - 1], start=1), "header", required)
    clip_len_s, rate_hz, train_mae = (
        _parse_number(header, key, path) for key in ("clip_len_s", "rate_hz", "train_mae")
    )
    norm = ClipNorm(
        a_l=_parse_norm(header["norm_a_l"][0], path, header["norm_a_l"][1]),
        a_r=_parse_norm(header["norm_a_r"][0], path, header["norm_a_r"][1]),
        phasic=_parse_norm(header["norm_phasic"][0], path, header["norm_phasic"][1]),
    )
    rows = []
    for lineno, line in enumerate(lines[row_start:], start=row_start + 1):
        if not line:
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise FileFormatError(path, "bad weight row", lineno) from None
        if rows and len(row) != len(rows[0]):
            raise FileFormatError(
                path, f"weight row has {len(row)} values, the first has {len(rows[0])}", lineno
            )
        rows.append(row)
    if not rows:
        raise FileFormatError(path, "model file has no weight rows")
    weights = np.asarray(rows)
    if not np.all(np.isfinite(weights)):
        raise FileFormatError(path, "model weights must be finite")
    try:
        return SurrogateModel(
            weights=weights, clip_len_s=clip_len_s, rate_hz=rate_hz,
            norm=norm, train_mae=train_mae,
        )
    except ValueError as exc:  # a shape or value the model rejects
        raise FileFormatError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# Synthetic physiological oracle.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleParams:
    """Ground-truth generator parameters.

    EDA = baseline + drift * t + gain * (stimulus ~ Bateman kernel, delayed
    by latency) + Gaussian noise, with stimulus |a_l| + 0.5 |a_r|.
    """

    baseline_us: float = 5.0
    tau_rise_s: float = 0.75
    tau_decay_s: float = 2.0
    gain: float = 0.3
    latency_s: float = 1.0
    tonic_drift: float = 0.001  # microsiemens per second
    noise_sd: float = 0.005
    seed: int = 0

    def __post_init__(self):
        for name in ("baseline_us", "tau_rise_s", "tau_decay_s", "gain", "latency_s",
                     "tonic_drift", "noise_sd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0 < self.tau_rise_s < self.tau_decay_s:
            raise ValueError("need 0 < tau_rise_s < tau_decay_s")
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")


def bateman_kernel(tau_rise_s: float, tau_decay_s: float, rate_hz: float) -> np.ndarray:
    """Difference-of-exponentials impulse response over 8 * tau_decay_s, unit peak."""
    if not 0 < tau_rise_s < tau_decay_s:
        raise ValueError("need 0 < tau_rise_s < tau_decay_s")
    t = np.arange(int(round(8.0 * tau_decay_s * rate_hz)) + 1) / rate_hz
    h = np.exp(-t / tau_decay_s) - np.exp(-t / tau_rise_s)
    return h / h.max()


def synth_session(a_l: Trace, a_r: Trace, params: OracleParams) -> Trace:
    """Generate a microsiemens EDA trace from acceleration via the oracle."""
    if len(a_l) != len(a_r) or not same_rate(a_l.rate_hz, a_r.rate_hz):
        raise ValueError("acceleration traces must be aligned")
    rate = a_l.rate_hz
    n = len(a_l)
    stimulus = np.abs(a_l.samples) + 0.5 * np.abs(a_r.samples)
    h = bateman_kernel(params.tau_rise_s, params.tau_decay_s, rate)
    response = np.convolve(stimulus, h)[:n] / rate
    lag = int(round(params.latency_s * rate))
    delayed = np.concatenate([np.zeros(lag), response[: n - lag]]) if lag else response
    t = np.arange(n) / rate
    rng = np.random.default_rng(params.seed)
    eda = (
        params.baseline_us
        + params.tonic_drift * t
        + params.gain * delayed
        + rng.normal(0.0, params.noise_sd, n)
    )
    return Trace(eda, rate, Unit.MICROSIEMENS)
