"""Independent reference implementations used only by the test suite.

Everything here is written as plainly as possible (explicit Python loops,
no vectorization, no shared code with the package) so it can serve as an
oracle for the production implementations.
"""

import math


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
