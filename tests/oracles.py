"""Independent reference implementations used only by the test suite.

Everything here is written as plainly as possible (explicit Python loops,
no vectorization, no shared code with the package) so it can serve as an
oracle for the production implementations. The exceptions are the
predictors, whose matrix products must be numpy's own: `predict_session_naive`
and `held_out_mae_naive` run one 2-D gemm per session and `predict_clip` one
gemv, and the properties they pin are that batching sessions or rows leaves
those products' bits alone.
"""

import math

import numpy as np


def bateman_pulse(n, rate_hz, onset_s, amplitude, tau_rise_s=0.75, tau_decay_s=2.0):
    """Difference-of-exponentials pulse with unit-peak shape scaled to ``amplitude``.

    Returns a plain list of n samples; zero before ``onset_s``.
    """
    # peak time of exp(-t/td) - exp(-t/tr)
    t_peak = (
        math.log(tau_decay_s / tau_rise_s)
        * (tau_rise_s * tau_decay_s)
        / (tau_decay_s - tau_rise_s)
    )
    peak = math.exp(-t_peak / tau_decay_s) - math.exp(-t_peak / tau_rise_s)
    out = []
    for i in range(n):
        t = i / rate_hz - onset_s
        if t < 0:
            out.append(0.0)
        else:
            h = math.exp(-t / tau_decay_s) - math.exp(-t / tau_rise_s)
            out.append(amplitude * h / peak)
    return out


def _rising_runs_naive(x):
    """All (onset, peak) pairs where the signal strictly rises, found by scanning."""
    runs = []
    n = len(x)
    i = 0
    while i < n - 1:
        if x[i + 1] > x[i]:
            onset = i
            j = i + 1
            while j < n - 1 and x[j + 1] > x[j]:
                j += 1
            runs.append((onset, j))
            i = j
        else:
            i += 1
    return runs


def _local_maxima_naive(x):
    return [i for i in range(1, len(x) - 1) if x[i] > x[i - 1] and x[i] > x[i + 1]]


def _prominence_naive(x, i):
    n = len(x)
    left_min = x[i]
    j = i - 1
    while j >= 0 and x[j] <= x[i]:
        if x[j] < left_min:
            left_min = x[j]
        j -= 1
    right_min = x[i]
    j = i + 1
    while j < n and x[j] <= x[i]:
        if x[j] < right_min:
            right_min = x[j]
        j += 1
    return x[i] - max(left_min, right_min)


def _preceding_minimum_naive(x, i):
    j = i
    while j > 0 and x[j - 1] < x[j]:
        j -= 1
    return j


def _rise_ok(onset, peak, rate_hz, rise_min_s, rise_max_s):
    rise = (peak - onset) / rate_hz
    return rise_min_s <= rise <= rise_max_s


def brute_force_events(
    x,
    rate_hz,
    method,
    min_amplitude,
    min_separation_s=0.0,
    prominence_frac=0.1,
    rise_min_s=0.25,
    rise_max_s=5.0,
):
    """Exhaustive-scan ER-SCR detection; mirrors the documented thresholds.

    Returns a list of (onset_idx, peak_idx, amplitude) tuples.
    """
    x = [float(v) for v in x]
    ptp = max(x) - min(x)
    events = []
    if method == "kim2004":
        for onset, peak in _rising_runs_naive(x):
            amp = x[peak] - x[onset]
            if amp >= min_amplitude * ptp and _rise_ok(onset, peak, rate_hz, rise_min_s, rise_max_s):
                events.append((onset, peak, amp))
    elif method == "gamboa2008":
        kept = []
        for onset, peak in _rising_runs_naive(x):
            if x[peak] - x[onset] >= min_amplitude:
                kept.append((onset, peak))
        merged = []
        for onset, peak in kept:
            if merged and (onset - merged[-1][1]) / rate_hz < min_separation_s:
                prev_onset, prev_peak = merged.pop()
                best_peak = peak if x[peak] >= x[prev_peak] else prev_peak
                merged.append((prev_onset, best_peak))
            else:
                merged.append((onset, peak))
        for onset, peak in merged:
            if _rise_ok(onset, peak, rate_hz, rise_min_s, rise_max_s):
                events.append((onset, peak, x[peak] - x[onset]))
    elif method == "neurokit":
        for peak in _local_maxima_naive(x):
            if _prominence_naive(x, peak) < prominence_frac * ptp:
                continue
            onset = _preceding_minimum_naive(x, peak)
            amp = x[peak] - x[onset]
            if amp >= min_amplitude and amp > 0 and _rise_ok(onset, peak, rate_hz, rise_min_s, rise_max_s):
                events.append((onset, peak, amp))
    else:
        raise ValueError(method)
    return events


def adapt_trace_naive(a_l, a_r, f, rate_hz, gains, max_l, max_r, clamp):
    """The adaptation law one sample at a time over plain floats.

    ``gains`` is the eleven coefficients in canonical order (K_P, K_I, K_D
    for the longitudinal, rotational and phasic channels, then beta_l,
    beta_r). Step i reads f[i-1], 0.0 at the first step. Returns two lists.
    """
    dt = 1.0 / rate_hz
    k = [float(g) for g in gains]
    integral = [0.0, 0.0, 0.0]
    prev = [0.0, 0.0, 0.0]
    out_l = []
    out_r = []
    for i in range(len(a_l)):
        f_prev = float(f[i - 1]) if i > 0 else 0.0
        errors = [0.0 - float(a_l[i]), 0.0 - float(a_r[i]), 0.0 - f_prev]
        psi = []
        for c in range(3):
            e = errors[c]
            integral[c] = integral[c] + e * dt
            if integral[c] > clamp:
                integral[c] = clamp
            elif integral[c] < -clamp:
                integral[c] = -clamp
            psi.append(k[3 * c] * e + k[3 * c + 1] * integral[c] + k[3 * c + 2] * (e - prev[c]) / dt)
            prev[c] = e
        for value, beta, bound, out in (
            (float(a_l[i]) + psi[0], k[9], max_l, out_l),
            (float(a_r[i]) + psi[1], k[10], max_r, out_r),
        ):
            value = value + beta * psi[2]
            if value > bound:
                value = bound
            elif value < -bound:
                value = -bound
            out.append(value)
    return out_l, out_r


def clamped_sum_naive(start, steps, clamp):
    """Running sum from ``start``, clamped to [-clamp, clamp] after every step; a list."""
    integral = float(start)
    sums = []
    for step in steps:
        integral = integral + float(step)
        if integral > clamp:
            integral = clamp
        elif integral < -clamp:
            integral = -clamp
        sums.append(integral)
    return sums


def reconstruct_naive(predictions, stride):
    """Overlap-average of equal-length clips placed ``stride`` apart, clip by clip."""
    n_clips = len(predictions)
    L = len(predictions[0])
    length = stride * (n_clips - 1) + L
    acc = [0.0] * length
    cnt = [0.0] * length
    for k in range(n_clips):
        for j in range(L):
            acc[k * stride + j] += float(predictions[k][j])
            cnt[k * stride + j] += 1.0
    return [a / c for a, c in zip(acc, cnt)]


def predict_clip(model, window):
    """One phasic clip from one normalized window [2, 3L], clamped to [0, 1].

    The window is flattened a_l then a_r with a trailing 1.0 and multiplied
    by ``model.weights`` [L, 6L+1] in one matrix-vector product.
    """
    x = np.concatenate([np.asarray(window, dtype=np.float64).ravel(), [1.0]])
    return np.clip(model.weights @ x, 0.0, 1.0)


def predict_session_naive(weights, a_l, a_r, L, stride):
    """One session's prediction the plain way; a list.

    ``a_l`` and ``a_r`` are the normalized channels. The windows around
    every ``stride``-th sample are gathered by index from the zero-padded
    channels, flattened a_l then a_r with a trailing 1.0, multiplied by
    ``weights`` [L, 6L+1] in one 2-D gemm, clamped to [0, 1] and
    overlap-averaged by `reconstruct_naive`.
    """
    n = len(a_l)
    n_clips = (n - L) // stride + 1
    padded_l = np.concatenate([np.zeros(L), a_l, np.zeros(2 * L)])
    padded_r = np.concatenate([np.zeros(L), a_r, np.zeros(2 * L)])
    index = (np.arange(n_clips) * stride)[:, None] + np.arange(3 * L)[None, :]
    windows = np.stack([padded_l[index], padded_r[index]], axis=1)
    design = np.concatenate([windows.reshape(n_clips, -1), np.ones((n_clips, 1))], axis=1)
    preds = np.clip(design @ np.asarray(weights).T, 0.0, 1.0)
    return reconstruct_naive(preds.tolist(), stride)


def time_cells_naive(n, rate_hz):
    """The time column of an n-row sample CSV, one row at a time."""
    return ["%.6f" % (i / rate_hz) for i in range(n)]


def write_samples_csv_naive(meta, rate_hz, columns):
    """The text of a sample CSV, formatted one float at a time.

    Row i is the time i / rate_hz with six decimals (`time_cells_naive`),
    then repr(float(v)) of each column's i-th value.
    """
    lines = ["# " + " ".join(f"{key}={value}" for key, value in meta.items()),
             ",".join(["t_s", *columns])]
    cols = [list(values) for values in columns.values()]
    times = time_cells_naive(len(cols[0]), rate_hz)
    for i in range(len(cols[0])):
        row = [times[i]]
        for col in cols:
            row.append(repr(float(col[i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def read_samples_rows_naive(text, kind, n_names):
    """The value columns of a sample CSV's body, one line at a time.

    ``text`` is the whole file; its first two lines (metadata and header)
    are skipped unread. Lines end at "\n", "\r\n" or a lone "\r" and
    nowhere else. Empty lines are skipped, the time column is ignored and
    every other cell goes through float(). Returns ``n_names`` lists of
    floats, or raises ValueError(message, line) for the first bad line
    (line None when the body holds no row).
    """
    cols = [[] for _ in range(n_names)]
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines[2:], start=3):
        if line == "":
            continue
        cells = line.split(",")
        if len(cells) != n_names + 1:
            raise ValueError(f"expected {n_names + 1} columns, got {len(cells)}", lineno)
        for j, cell in enumerate(cells[1:]):
            try:
                cols[j].append(float(cell))
            except ValueError:
                raise ValueError(f"bad {kind} value {cell!r}", lineno) from None
    if not cols[0]:
        raise ValueError(f"{kind} file contains no samples", None)
    return cols


def held_out_mae_naive(model, records, phasics):
    """Mean absolute error of non-overlapping clip predictions on ``records``.

    Each session's channels and ``phasics`` [n] are scaled with the model's
    frozen min-max parameters; `predict_session_naive` at stride L predicts
    every clip that lies inside the session, and the errors of all sessions
    are averaged in one mean.
    """
    L = len(model.weights)
    norm = model.norm
    errors = []
    for record, phasic in zip(records, phasics):
        a_l = (record.a_l.samples - norm.a_l.vmin) / (norm.a_l.vmax - norm.a_l.vmin)
        a_r = (record.a_r.samples - norm.a_r.vmin) / (norm.a_r.vmax - norm.a_r.vmin)
        target = (np.asarray(phasic) - norm.phasic.vmin) / (norm.phasic.vmax - norm.phasic.vmin)
        pred = np.asarray(predict_session_naive(model.weights, a_l, a_r, L, L))
        errors.append(np.abs(pred - target[: len(pred)]))
    return float(np.mean(np.concatenate(errors)))
