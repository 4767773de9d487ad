"""The simulated user: windowed linear surrogate from acceleration to phasic EDA.

Clip construction follows the moving-window scheme: the phasic target on
[kS, kS+L) is predicted from the bi-channel acceleration window
[kS-L, kS+2L) (previous, current, and next clip), zero-padded where the
window crosses a session edge. The regressor is a ridge-regularized linear
map fit in closed form; predictions are clamped to [0, 1] and reconstructed
back into a sequence by concatenation (stride = L) or overlap-averaging
(stride < L), one `np.bincount` over all clips.

Also provides a synthetic physiological oracle (`synth_session`) that turns
acceleration into EDA through a Bateman difference-of-exponentials kernel,
used to manufacture ground-truth cohorts for testing and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, FileFormatError
from .signals import NormParams, Trace, Unit, format_float

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


def _window_stack(a_l: np.ndarray, a_r: np.ndarray, L: int, stride: int) -> np.ndarray:
    """All acceleration windows as an array [n_clips, 2, 3L] (zero-padded edges)."""
    n = a_l.size
    n_clips = (n - L) // stride + 1
    padded_l = np.concatenate([np.zeros(L), a_l, np.zeros(2 * L)])
    padded_r = np.concatenate([np.zeros(L), a_r, np.zeros(2 * L)])
    idx = (np.arange(n_clips) * stride)[:, None] + np.arange(3 * L)[None, :]
    return np.stack([padded_l[idx], padded_r[idx]], axis=1)


def trace_norm(traces) -> NormParams:
    """Min-max parameters over a collection of traces (one channel)."""
    vmin = min(float(np.min(t.samples)) for t in traces)
    vmax = max(float(np.max(t.samples)) for t in traces)
    if vmax == vmin:
        raise DegenerateInputError("channel is constant across the corpus")
    return NormParams(vmin, vmax)


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
        norm = ClipNorm(
            a_l=trace_norm([a_l]), a_r=trace_norm([a_r]), phasic=trace_norm([phasic])
        )
    windows = _window_stack(norm.a_l.apply(a_l.samples), norm.a_r.apply(a_r.samples), L, stride)
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


def _design_matrix(windows: np.ndarray) -> np.ndarray:
    n = windows.shape[0]
    flat = windows.reshape(n, -1)
    return np.concatenate([flat, np.ones((n, 1))], axis=1)


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
    X = _design_matrix(windows)
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


def predict_clip(model: SurrogateModel, accel_window) -> np.ndarray:
    """Predict one phasic clip from one [2, 3L] normalized window; clamped to [0, 1]."""
    window = np.asarray(accel_window, dtype=np.float64)
    if window.shape != (2, 3 * model.L):
        raise ValueError(f"window must be [2, {3 * model.L}], got {window.shape}")
    x = np.concatenate([window.ravel(), [1.0]])
    return np.clip(model.weights @ x, 0.0, 1.0)


def predict_rows(model: SurrogateModel, rows: np.ndarray) -> np.ndarray:
    """`predict_clip` of every row of ``rows`` [m, 6L+1] (a flattened window, then 1.0).

    A stacked `np.matmul` runs one matrix-vector product per row, the
    product `predict_clip` computes, so each output row equals
    `predict_clip` of its window bit for bit; ``rows @ weights.T`` does not.
    """
    return np.clip(np.matmul(model.weights[None], rows[:, :, None])[:, :, 0], 0.0, 1.0)


def predict_windows(model: SurrogateModel, windows: np.ndarray) -> np.ndarray:
    """Vectorized `predict_clip` over a [n, 2, 3L] stack."""
    return np.clip(_design_matrix(windows) @ model.weights.T, 0.0, 1.0)


def reconstruct(predictions, stride_samples: int, rate_hz: float) -> Trace:
    """Reassemble predicted clips into one normalized trace.

    stride = L concatenates; stride < L averages overlapping samples
    (stride 0 stacks all clips onto one span). Output length is
    stride * (n_clips - 1) + L. Each sample sums its clips in clip order,
    starting from 0.0: `np.bincount` adds its weights in input order, and
    the predictions are flattened clip by clip.
    """
    if not isinstance(predictions, np.ndarray):
        predictions = list(predictions)
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.ndim != 2 or preds.shape[0] == 0:
        raise ValueError("need a non-empty sequence of equal-length clips")
    n_clips, L = preds.shape
    stride = int(stride_samples)
    if stride < 0:
        raise ValueError("stride_samples must be >= 0")
    length = stride * (n_clips - 1) + L
    index = (np.arange(n_clips) * stride)[:, None] + np.arange(L)[None, :]
    acc = np.bincount(index.ravel(), weights=preds.ravel(), minlength=length)
    cnt = np.bincount(index.ravel(), minlength=length)
    return Trace(acc / cnt, rate_hz, Unit.NORMALIZED)


def predict_session(
    model: SurrogateModel, a_l: Trace, a_r: Trace, stride_samples: int = 1
) -> Trace:
    """Predict a session's normalized phasic from raw-unit acceleration traces.

    Channels are normalized with the model's frozen parameters, windowed at
    the given stride, predicted, and reconstructed. The default stride of 1
    predicts a window at every sample and averages the overlaps, covering the
    whole session; stride = model.L tiles the training geometry instead and
    leaves up to L-1 trailing samples unpredicted when the length does not
    divide evenly.
    """
    if len(a_l) != len(a_r):
        raise ValueError("acceleration traces must share length")
    if a_l.rate_hz != model.rate_hz or a_r.rate_hz != model.rate_hz:
        raise ValueError(
            f"trace rate {a_l.rate_hz}Hz does not match model rate {model.rate_hz}Hz"
        )
    stride = int(stride_samples)
    if stride < 1:
        raise ValueError("stride_samples must be >= 1")
    L = model.L
    if len(a_l) < 3 * L:
        raise ValueError("session shorter than one full window")
    windows = _window_stack(
        model.norm.a_l.apply(a_l.samples), model.norm.a_r.apply(a_r.samples), L, stride
    )
    return reconstruct(predict_windows(model, windows), stride, model.rate_hz)


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_norm(text: str, path, lineno: int) -> NormParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise FileFormatError(path, f"expected 'vmin,vmax', got {text!r}", lineno)
    return NormParams(float(parts[0]), float(parts[1]))


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
        header[key] = (value, lineno)
    if row_start is None:
        raise FileFormatError(path, "missing 'weights' marker")
    required = ("clip_len_s", "rate_hz", "norm_a_l", "norm_a_r", "norm_phasic", "train_mae")
    missing = [k for k in required if k not in header]
    if missing:
        raise FileFormatError(path, f"missing header keys: {', '.join(missing)}")
    try:
        clip_len_s = float(header["clip_len_s"][0])
        rate_hz = float(header["rate_hz"][0])
        train_mae = float(header["train_mae"][0])
    except ValueError as exc:
        raise FileFormatError(path, f"bad numeric header value ({exc})") from None
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
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise FileFormatError(path, "bad weight row", lineno) from None
    if not rows:
        raise FileFormatError(path, "model file has no weight rows")
    weights = np.asarray(rows)
    if not np.all(np.isfinite(weights)):
        raise FileFormatError(path, "model weights must be finite")
    return SurrogateModel(
        weights=weights, clip_len_s=clip_len_s, rate_hz=rate_hz,
        norm=norm, train_mae=train_mae,
    )


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


def bateman_kernel(
    tau_rise_s: float, tau_decay_s: float, rate_hz: float, duration_s: float | None = None
) -> np.ndarray:
    """Difference-of-exponentials impulse response, normalized to unit peak."""
    if not 0 < tau_rise_s < tau_decay_s:
        raise ValueError("need 0 < tau_rise_s < tau_decay_s")
    if duration_s is None:
        duration_s = 8.0 * tau_decay_s
    t = np.arange(int(round(duration_s * rate_hz)) + 1) / rate_hz
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
