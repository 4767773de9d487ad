"""The simulated user: windowed linear surrogate from acceleration to phasic EDA.

Clip construction follows the moving-window scheme: the phasic target on
[kS, kS+L) is predicted from the bi-channel acceleration window
[kS-L, kS+2L) (previous, current, and next clip), zero-padded where the
window crosses a session edge. The regressor is a ridge-regularized linear
map fit in closed form; predictions are clamped to [0, 1] and reconstructed
back into a sequence by concatenation (stride = L) or overlap-averaging
(stride < L), one `np.bincount` over all clips.

`predict_sessions` predicts a stack of equal-length sessions: one
normalization for all of them, windows written from a sliding view into
one design buffer, one 2-D gemm per session (never one across sessions,
which would round differently) and one reconstruction for all rows.
`predict_session` is its one-session call.

Also provides a synthetic physiological oracle (`synth_session`) that turns
acceleration into EDA through a Bateman difference-of-exponentials kernel,
used to manufacture ground-truth cohorts for testing and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateInputError, FileFormatError
from .signals import NormParams, Trace, Unit, format_float, trace_norm, write_text_atomic

DEFAULT_CLIP_LEN_S = 2.25
DEFAULT_RIDGE_LAMBDA = 1e-6


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
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    stride_samples: int | None = None,
    norm: ClipNorm | None = None,
) -> tuple[np.ndarray, np.ndarray, ClipNorm]:
    """Cut one session into clips: (windows [n, 2, 3L], targets [n, L], norm).

    Row k pairs the acceleration window around the k-th phasic target.
    Targets step by ``stride_samples`` (default L, non-overlapping) and
    always lie fully inside the session; the surrounding window is
    zero-padded where it crosses an edge. Values are min-max normalized
    with ``norm``; when ``norm`` is None the parameters are computed from
    these traces and returned alongside the clips.
    """
    if not (len(a_l) == len(a_r) == len(phasic)):
        raise ValueError("traces must share length")
    if not (a_l.rate_hz == a_r.rate_hz == phasic.rate_hz):
        raise ValueError("traces must share rate")
    L = clip_samples(clip_len_s, a_l.rate_hz)
    stride = L if stride_samples is None else int(stride_samples)
    if stride < 1:
        raise ValueError("stride_samples must be >= 1")
    n = len(a_l)
    if n < 3 * L:
        raise ValueError(f"session of {n} samples is shorter than one full window (3L = {3 * L})")
    if norm is None:
        norm = corpus_clip_norm([a_l], [a_r], [phasic])
    windows = _windows(norm.accel(np.stack([a_l.samples, a_r.samples])), L, stride).copy()
    index = (np.arange(windows.shape[0]) * stride)[:, None] + np.arange(L)[None, :]
    return windows, norm.phasic.apply(phasic.samples)[index], norm


@dataclass(frozen=True)
class SurrogateModel:
    """Linear windowed regressor with frozen normalization parameters.

    ``weights`` is [L, 6L+1]: each output sample is an affine function of
    the flattened bi-channel window (a_l row then a_r row) plus a bias.
    """

    weights: np.ndarray
    clip_len_s: float
    rate_hz: float
    norm: ClipNorm
    train_mae: float

    def __post_init__(self):
        L = clip_samples(self.clip_len_s, self.rate_hz)
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (L, 6 * L + 1):
            raise ValueError(
                f"weights must be [{L}, {6 * L + 1}] for clip_len_s={self.clip_len_s} "
                f"at {self.rate_hz}Hz, got {weights.shape}"
            )
        if not self.train_mae >= 0:
            raise ValueError("train_mae must be >= 0")
        object.__setattr__(self, "weights", weights)

    @property
    def L(self) -> int:
        return int(self.weights.shape[0])


def fit_surrogate(
    windows,
    targets,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
    *,
    rate_hz: float,
    clip_len_s: float = DEFAULT_CLIP_LEN_S,
    norm: ClipNorm,
) -> SurrogateModel:
    """Closed-form ridge fit of the windowed regressor on clips from `make_clips`.

    ``windows`` is [n, 2, 3L] and ``targets`` [n, L]. Minimizes
    ||T - X W^T||^2 + lambda ||W||^2 over all weights including the bias
    column. ``train_mae`` records the mean absolute error of the clamped
    predictions on the training clips.
    """
    if ridge_lambda < 0:
        raise ValueError("ridge_lambda must be >= 0")
    windows = np.asarray(windows, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    if windows.size == 0 or Y.size == 0:
        raise DegenerateInputError("cannot fit on an empty clip set")
    L = clip_samples(clip_len_s, rate_hz)
    if windows.shape[1:] != (2, 3 * L) or Y.shape != (windows.shape[0], L):
        raise ValueError(
            f"clips must be windows [n, 2, {3 * L}] and targets [n, {L}], "
            f"got {windows.shape} and {Y.shape}"
        )
    X = np.concatenate([windows.reshape(len(windows), -1), np.ones((len(windows), 1))], axis=1)
    d = X.shape[1]
    A = X.T @ X + ridge_lambda * np.eye(d)
    B = X.T @ Y
    try:
        Wt = np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        raise DegenerateInputError(
            "normal equations are singular; supply more clips or ridge_lambda > 0"
        ) from None
    preds = np.clip(X @ Wt, 0.0, 1.0)
    train_mae = float(np.mean(np.abs(preds - Y)))
    return SurrogateModel(
        weights=Wt.T, clip_len_s=clip_len_s, rate_hz=rate_hz, norm=norm, train_mae=train_mae
    )


def predict_rows(model: SurrogateModel, rows: np.ndarray) -> np.ndarray:
    """Clamped phasic clips [m, L] of the rows ``rows`` [m, 6L+1] (a flattened window, then 1.0).

    A stacked `np.matmul` runs one matrix-vector product ``weights @ row``
    per row, so each output row has the bits of that row's window predicted
    on its own; ``rows @ weights.T`` does not.
    """
    return np.clip(np.matmul(model.weights[None], rows[:, :, None])[:, :, 0], 0.0, 1.0)


def _overlap_average(preds: np.ndarray, stride: int) -> np.ndarray:
    """Rows [m, stride * (n_clips - 1) + L] reassembled from clips ``preds`` [m, n_clips, L].

    Each sample sums its clips in clip order, starting from 0.0, then
    divides by their count: `np.bincount` adds its weights in input order,
    and every row's clips occupy their own span of bins.
    """
    m, n_clips, L = preds.shape
    length = stride * (n_clips - 1) + L
    index = (np.arange(n_clips) * stride)[:, None] + np.arange(L)
    rows = (np.arange(m) * length)[:, None, None] + index
    acc = np.bincount(rows.ravel(), weights=preds.ravel(), minlength=m * length)
    return acc.reshape(m, length) / np.bincount(index.ravel(), minlength=length)


def reconstruct(predictions, stride_samples: int, rate_hz: float) -> Trace:
    """Reassemble predicted clips into one normalized trace.

    stride = L concatenates; stride < L averages overlapping samples
    (stride 0 stacks all clips onto one span). Output length is
    stride * (n_clips - 1) + L. Each sample sums its clips in clip order,
    starting from 0.0.
    """
    if not isinstance(predictions, np.ndarray):
        predictions = list(predictions)
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.ndim != 2 or preds.shape[0] == 0:
        raise ValueError("need a non-empty sequence of equal-length clips")
    stride = int(stride_samples)
    if stride < 0:
        raise ValueError("stride_samples must be >= 0")
    return Trace(_overlap_average(preds[None], stride)[0], rate_hz, Unit.NORMALIZED)


def predict_sessions(model: SurrogateModel, accel, stride_samples: int = 1) -> np.ndarray:
    """Normalized phasic predictions [m, length] for m sessions of raw acceleration [m, 2, n].

    Row i of ``accel`` holds session i's a_l and a_r in raw units; all rows
    are normalized with the model's frozen parameters in one operation,
    windowed at ``stride_samples`` and predicted, clamped to [0, 1] and
    reconstructed as `reconstruct` does (length = stride * (n_clips - 1)
    + L, which is n at stride 1).

    Each session gets its own 2-D gemm over a design buffer [n_clips, 6L+1]
    that every session of the call reuses. A gemm over the rows of several
    sessions at once would round differently, so every row equals its
    one-session prediction bit for bit.
    """
    accel = np.asarray(accel, dtype=np.float64)
    if accel.ndim != 3 or accel.shape[1] != 2:
        raise ValueError(f"accel must be [m, 2, n], got {accel.shape}")
    stride = int(stride_samples)
    if stride < 1:
        raise ValueError("stride_samples must be >= 1")
    L = model.L
    m, _, n = accel.shape
    if n < 3 * L:
        raise ValueError("session shorter than one full window")
    windows = _windows(model.norm.accel(accel), L, stride)
    n_clips = windows.shape[1]
    design = np.empty((n_clips, 6 * L + 1))
    design[:, -1] = 1.0
    preds = np.empty((m, n_clips, L))
    weights_t = model.weights.T
    for i in range(m):
        design[:, : 3 * L] = windows[i, :, 0]
        design[:, 3 * L : -1] = windows[i, :, 1]
        np.matmul(design, weights_t, out=preds[i])
    np.clip(preds, 0.0, 1.0, out=preds)
    return _overlap_average(preds, stride)


def predict_session(
    model: SurrogateModel, a_l: Trace, a_r: Trace, stride_samples: int = 1
) -> Trace:
    """Predict a session's normalized phasic from raw-unit acceleration traces.

    The one-session call of `predict_sessions`. The default stride of 1
    predicts a window at every sample and averages the overlaps, covering
    the whole session; stride = model.L tiles the training geometry instead
    and leaves up to L-1 trailing samples unpredicted when the length does
    not divide evenly.
    """
    if len(a_l) != len(a_r):
        raise ValueError("acceleration traces must share length")
    if a_l.rate_hz != model.rate_hz or a_r.rate_hz != model.rate_hz:
        raise ValueError(
            f"trace rate {a_l.rate_hz}Hz does not match model rate {model.rate_hz}Hz"
        )
    accel = np.stack([a_l.samples, a_r.samples])[None]
    return Trace(predict_sessions(model, accel, stride_samples)[0], model.rate_hz, Unit.NORMALIZED)


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
    header = {}
    row_start = None
    for lineno, line in enumerate(lines, start=1):
        if line == "weights":
            row_start = lineno
            break
        if "=" not in line:
            raise FileFormatError(path, f"expected 'key=value' header line, got {line!r}", lineno)
        key, _, value = line.partition("=")
        if key in header:
            raise FileFormatError(path, f"duplicate header key {key!r}", lineno)
        header[key] = (value, lineno)
    if row_start is None:
        raise FileFormatError(path, "missing 'weights' marker")
    required = ("clip_len_s", "rate_hz", "norm_a_l", "norm_a_r", "norm_phasic", "train_mae")
    missing = [k for k in required if k not in header]
    if missing:
        raise FileFormatError(path, f"missing header keys: {', '.join(missing)}")
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
    if len(a_l) != len(a_r) or a_l.rate_hz != a_r.rate_hz:
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
