"""Independent reference implementations used only by the test suite.

Everything here is written as plainly as possible (explicit Python loops,
no vectorization, no shared code with the package) so it can serve as an
oracle for the production implementations. The exceptions are the
predictors, whose matrix products must be numpy's own: `predict_session_naive`
and `held_out_mae_naive` run one 2-D gemm per session and `predict_clip` one
gemv, and the properties they pin are that batching sessions or rows leaves
those products' bits alone. `fit_naive` is one too: it solves the normal
equations with numpy's products and solver on clips it gathers, copies and
concatenates itself, and what it pins is that the fit's one design buffer
holds those rows. `msdv_naive` is another: it is the MSDV of one `Trace`,
one `np.sum`, whose pairwise order the group reduction of `metrics.msdv`
must keep. `search_naive` is the last: it is the
gain search one trial at a time, and it scores each trial with the
package's own replay (`build_contexts`, `_simulate`, `detector_stats`), so
what it pins is the search's schedule of draws, candidates and incumbents.
`event_margins_naive` scans as `brute_force_events` does and keeps the
least gap of its comparisons.
`tonic_scipy` is scipy.ndimage's pair of filters, the tonic estimator the
package's numpy filters must reproduce bit for bit; scipy is a test
dependency only.
"""

import math

import numpy as np
from scipy.ndimage import median_filter, uniform_filter1d

from edanav.control import DEFAULT_INTEGRAL_CLAMP, GAIN_KEYS, AccelLimits, PidGains
from edanav.metrics import detector_stats
from edanav.optimize import GainRanges, OptimizeResult, Trial, _simulate, build_contexts
from edanav.scr import default_detectors
from edanav.signals import DecompositionConfig


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


def tonic_scipy(x, w_med, w_avg):
    """(moving median over ``w_med``, then its moving mean over ``w_avg``) of ``x``,
    both by scipy.ndimage with replicate ("nearest") edges."""
    median = median_filter(x, size=w_med, mode="nearest")
    return median, uniform_filter1d(median, size=w_avg, mode="nearest")


def msdv_naive(trace):
    """Motion-sickness dose value of one `Trace`: one ``np.sum`` of the squares
    times 1 / rate, then the Python root."""
    total = float(np.sum(np.abs(trace.samples) ** 2) * (1.0 / trace.rate_hz))
    return total ** 0.5


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


def event_margins_naive(
    x,
    rate_hz,
    method,
    min_amplitude,
    min_separation_s=0.0,
    prominence_frac=0.1,
    rise_min_s=0.25,
    rise_max_s=5.0,
):
    """The least |lhs - rhs| over the float comparisons that set ``x``'s count
    under one detector, scanned as `brute_force_events` scans; +inf if none.

    The comparisons: the rise test of every adjacent pair (a strict local
    maximum compares two of them), the amplitude threshold of every rising
    run (neurokit: of every strict local maximum), gamboa2008's merge test
    of each burst that joins a group against the group's peak so far, and,
    for each neurokit maximum that passes its amplitude threshold and the
    rise-time band, every sample its prominence scans pass (each at most
    the peak), the samples that stop them and the prominence threshold.
    brute_force_events scans every maximum's prominence before its
    amplitude; its events are the same in either order. A threshold
    c * ptp divides its |lhs - rhs| by 1 + c.
    """
    x = [float(v) for v in x]
    n = len(x)
    ptp = max(x) - min(x)
    gaps = [abs(x[i + 1] - x[i]) for i in range(n - 1)]
    if method == "kim2004":
        for onset, peak in _rising_runs_naive(x):
            amp = x[peak] - x[onset]
            gaps.append(abs(amp - min_amplitude * ptp) / (1.0 + min_amplitude))
    elif method == "gamboa2008":
        merged = []
        for onset, peak in _rising_runs_naive(x):
            amp = x[peak] - x[onset]
            gaps.append(abs(amp - min_amplitude))
            if amp < min_amplitude:
                continue
            if merged and (onset - merged[-1][1]) / rate_hz < min_separation_s:
                prev_onset, prev_peak = merged.pop()
                gaps.append(abs(x[peak] - x[prev_peak]))
                merged.append((prev_onset, peak if x[peak] >= x[prev_peak] else prev_peak))
            else:
                merged.append((onset, peak))
    elif method == "neurokit":
        for peak in _local_maxima_naive(x):
            onset = _preceding_minimum_naive(x, peak)
            amp = x[peak] - x[onset]
            gaps.append(abs(amp - min_amplitude))
            if amp < min_amplitude or not _rise_ok(onset, peak, rate_hz, rise_min_s, rise_max_s):
                continue
            for step in (-1, 1):
                j = peak + step
                while 0 <= j < n and x[j] <= x[peak]:
                    gaps.append(x[peak] - x[j])
                    j += step
                if 0 <= j < n:
                    gaps.append(x[j] - x[peak])
            prominence = _prominence_naive(x, peak)
            gaps.append(abs(prominence - prominence_frac * ptp) / (1.0 + prominence_frac))
    else:
        raise ValueError(method)
    return min(gaps, default=math.inf)


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


def design_rows(windows):
    """Design rows [n, 2W+1] of clip windows [n, 2, W]: each window's a_l
    row, then its a_r row, then 1.0, the rows `fit_surrogate` reads."""
    windows = np.asarray(windows, dtype=np.float64)
    n, _, width = windows.shape
    rows = np.ones((n, 2 * width + 1))
    for k in range(n):
        rows[k, :width] = windows[k, 0]
        rows[k, width : 2 * width] = windows[k, 1]
    return rows


def fit_naive(records, phasics, norm, L, stride, ridge_lambda):
    """Weights [L, 6L+1] and train MAE of the ridge fit on the sessions' clips.

    Each session's channels and ``phasics`` are scaled with ``norm``; the
    windows around every ``stride``-th sample are gathered by index from
    the zero-padded channels and the targets from the phasic, each
    session's clips copied, then all sessions' concatenated, then the
    windows concatenated again with a column of 1.0. The normal equations
    (X^T X + lambda I) W^T = X^T T are solved with numpy, and the MAE is
    that of the predictions clamped to [0, 1].
    """
    windows, targets = [], []
    for record, phasic in zip(records, phasics):
        a_l = (record.a_l.samples - norm.a_l.vmin) / (norm.a_l.vmax - norm.a_l.vmin)
        a_r = (record.a_r.samples - norm.a_r.vmin) / (norm.a_r.vmax - norm.a_r.vmin)
        target = (np.asarray(phasic) - norm.phasic.vmin) / (norm.phasic.vmax - norm.phasic.vmin)
        n_clips = (len(a_l) - L) // stride + 1
        padded_l = np.concatenate([np.zeros(L), a_l, np.zeros(2 * L)])
        padded_r = np.concatenate([np.zeros(L), a_r, np.zeros(2 * L)])
        index = (np.arange(n_clips) * stride)[:, None] + np.arange(3 * L)[None, :]
        windows.append(np.stack([padded_l[index], padded_r[index]], axis=1).copy())
        targets.append(target[index[:, :L]].copy())
    windows, T = np.concatenate(windows), np.concatenate(targets)
    X = np.concatenate([windows.reshape(len(windows), -1), np.ones((len(windows), 1))], axis=1)
    Wt = np.linalg.solve(X.T @ X + ridge_lambda * np.eye(X.shape[1]), X.T @ T)
    mae = float(np.mean(np.abs(np.clip(X @ Wt, 0.0, 1.0) - T)))
    return np.ascontiguousarray(Wt.T), mae


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


def search_naive(records, model, budget, seed, mode, explore_frac=0.6, sigma_scale=0.2,
                 halve_after=10, integral_clamp=DEFAULT_INTEGRAL_CLAMP,
                 decomposition=DecompositionConfig()):
    """The two-phase random search in the default box, one draw and one replay per trial.

    Phase one draws each trial uniformly with its own ``uniform`` call. Phase
    two draws one ``standard_normal(11)`` step per trial around the incumbent
    of that moment; sigma halves after ``halve_after`` phase-two trials in a
    row without a strict improvement. Every trial is one `_simulate` call of
    one gain set.
    """
    detectors = default_detectors()
    groups = build_contexts(list(records), model, detectors, decomposition, integral_clamp)
    n_raw = np.concatenate([g.n_raw for g in groups])
    box = GainRanges()
    rng = np.random.default_rng(seed)
    n_explore = min(budget, max(1, int(round(budget * explore_frac))))
    sigma = sigma_scale * (box.hi - box.lo)
    best_x, best_obj, best_index, stall = None, -math.inf, 0, 0
    trials = []
    for t in range(budget):
        if t < n_explore:
            x = rng.uniform(box.lo, box.hi)
        else:
            x = np.clip(best_x + rng.standard_normal(len(GAIN_KEYS)) * sigma, box.lo, box.hi)
        [sims] = _simulate(groups, x[None], model, detectors, mode, AccelLimits())
        n_adapted = np.concatenate([sim[2] for sim in sims])
        percentages = tuple(s.percentage for s in detector_stats(n_raw, n_adapted))
        trials.append(Trial(t, PidGains.from_array(x), sum(percentages), percentages))
        if trials[-1].objective > best_obj:
            best_x, best_obj, best_index, stall = x, trials[-1].objective, t, 0
        elif t >= n_explore:
            stall += 1
            if stall == halve_after:
                sigma, stall = sigma / 2.0, 0
    return OptimizeResult(trials[best_index], tuple(trials), tuple(d.method for d in detectors))
