"""Adaptive-navigation control laws.

The adaptation law is a bi-channel acceleration update. Each acceleration
channel gets its own setpoint-tracking PID (setpoint 0), plus a shared
phasic-driven PID whose output enters both channels scaled by beta_l /
beta_r; outputs are clamped to comfort limits. Every PID integrates with
the rectangle rule, clamps the integral to +-integral_clamp before use
(anti-windup) and differentiates backward over one tick.

Over a recorded session the PID state does not depend on the gains: every
error, clamped integral and error difference comes from the recording.
`pid_terms` computes them once, for one session or for a stack of
sessions of one length; `apply_gains` turns them into the adapted
accelerations for one gain set with whole-array arithmetic, and
`adapt_trace` is the two in sequence for one session.
`constant_step_integral` is the same integral over a stretch of constant
error, as in the closed loop, where the feedback is held clip by clip.
`pid_law` is the one place the PID output is written; the gain helpers
take a `PidGains` or a gain array [..., 11] (a block of gain sets, one per
leading index).

The controller runs at the EDA tick (dt = 1/rate, 0.25 s at 4 Hz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError
from .signals import write_text_atomic

DEFAULT_INTEGRAL_CLAMP = 10.0
DEFAULT_MAX_LONGITUDINAL = 5.0  # m/s^2
DEFAULT_MAX_ROTATIONAL = 3.0  # rad/s^2

# canonical coefficient order, also the gains-file key set
GAIN_KEYS = (
    "K_Pl", "K_Il", "K_Dl",
    "K_Pr", "K_Ir", "K_Dr",
    "K_Pf", "K_If", "K_Df",
    "beta_l", "beta_r",
)


@dataclass(frozen=True)
class PidGains:
    """The eleven adaptation coefficients (all non-negative).

    K_*l act on longitudinal acceleration error, K_*r on rotational error,
    K_*f on the phasic-EDA error; beta_l / beta_r weigh the phasic PID
    output per channel.
    """

    K_Pl: float = 0.0
    K_Il: float = 0.0
    K_Dl: float = 0.0
    K_Pr: float = 0.0
    K_Ir: float = 0.0
    K_Dr: float = 0.0
    K_Pf: float = 0.0
    K_If: float = 0.0
    K_Df: float = 0.0
    beta_l: float = 0.0
    beta_r: float = 0.0

    def __post_init__(self):
        for key in GAIN_KEYS:
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"gain {key} must be finite and >= 0, got {value}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, key) for key in GAIN_KEYS], dtype=np.float64)

    @classmethod
    def from_array(cls, values) -> "PidGains":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(GAIN_KEYS),):
            raise ValueError(f"expected {len(GAIN_KEYS)} gains, got shape {values.shape}")
        return cls(**{key: float(v) for key, v in zip(GAIN_KEYS, values)})


@dataclass(frozen=True)
class AccelLimits:
    """Magnitude clamps applied to adapted accelerations."""

    max_longitudinal: float = DEFAULT_MAX_LONGITUDINAL
    max_rotational: float = DEFAULT_MAX_ROTATIONAL

    def __post_init__(self):
        if self.max_longitudinal <= 0 or self.max_rotational <= 0:
            raise ValueError("acceleration limits must be positive")


@dataclass(frozen=True)
class PidTerms:
    """Per-sample PID state of recorded sessions, independent of the gains.

    Rows of ``error``, ``integral`` and ``delta`` are the longitudinal,
    rotational and phasic channels. `pid_terms` gives one session's state,
    or that of a stack of sessions of one length along a leading session
    axis, which `pid_outputs` and `apply_gains` carry through.
    """

    accel: np.ndarray  # [..., 2, n]
    error: np.ndarray  # [..., 3, n], 0 - a_l, 0 - a_r, 0 - f_prev
    integral: np.ndarray  # [..., 3, n], clamped rectangle-rule sums of error * dt
    delta: np.ndarray  # [..., 3, n], error - previous error
    dt: float
    integral_clamp: float


def _clamped_running_sum(steps: np.ndarray, clamp: float) -> np.ndarray:
    """The anti-windup integral: s[i] = clamp(s[i-1] + steps[i]) from s = 0.0."""
    sums = []
    integral = 0.0
    for step in steps.tolist():
        integral = integral + step
        if integral > clamp:
            integral = clamp
        elif integral < -clamp:
            integral = -clamp
        sums.append(integral)
    return np.array(sums)


def constant_step_integral(
    start: np.ndarray, step: np.ndarray, width: int, clamp: float
) -> np.ndarray:
    """The anti-windup integral [m, width] from ``start`` [m, 1] under a constant ``step`` [m, 1].

    With every step of one sign and ``start`` inside [-clamp, clamp], the
    clamp is absorbing: clamping the plain running sum once makes the same
    additions, in the same order, as clamping after every step.
    """
    sums = np.empty((start.shape[0], width + 1))
    sums[:, :1] = start
    sums[:, 1:] = step
    return np.clip(np.cumsum(sums, axis=1)[:, 1:], -clamp, clamp)


def check_integral_clamp(integral_clamp: float) -> None:
    """Raise ValueError unless the anti-windup clamp is positive."""
    if not integral_clamp > 0:
        raise ValueError(f"integral_clamp must be positive, got {integral_clamp}")


def pid_terms(
    a_l: np.ndarray,
    a_r: np.ndarray,
    f: np.ndarray,
    rate_hz: float,
    integral_clamp: float = DEFAULT_INTEGRAL_CLAMP,
) -> PidTerms:
    """PID state of whole sessions fed back from the recorded phasic ``f``.

    ``a_l``, ``a_r`` and ``f`` are [..., n]: one session, or a stack of
    sessions of one length, each row its own session. Step i reads f[i-1]
    (0.0 at the first step, idle start). Each channel's integral is the
    sum of error * dt, clamped after every step to [-integral_clamp,
    +integral_clamp], which must be positive.
    """
    check_integral_clamp(integral_clamp)
    accel = np.stack([a_l, a_r], axis=-2, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    f_prev = np.concatenate([np.zeros_like(f[..., :1]), f[..., :-1]], axis=-1)
    dt = 1.0 / rate_hz
    error = 0.0 - np.concatenate([accel, f_prev[..., None, :]], axis=-2)
    integral = np.empty_like(error)
    for row in np.ndindex(error.shape[:-1]):
        integral[row] = _clamped_running_sum(error[row] * dt, integral_clamp)
    delta = error - np.concatenate([np.zeros_like(error[..., :1]), error[..., :-1]], axis=-1)
    return PidTerms(accel, error, integral, delta, dt, integral_clamp)


def _gain_array(gains) -> np.ndarray:
    """``gains`` as an array [..., 11] in GAIN_KEYS order; a `PidGains` is its one-row case."""
    if isinstance(gains, PidGains):
        return gains.as_array()
    return np.asarray(gains, dtype=np.float64)


def pid_law(k: np.ndarray, error, integral, delta, dt: float) -> np.ndarray:
    """The PID output k_P * error + k_I * integral + k_D * delta / dt.

    ``k`` holds (k_P, k_I, k_D) along its last axis [..., 3]; each gain
    column broadcasts against its term.
    """
    return k[..., :1] * error + k[..., 1:2] * integral + k[..., 2:] * delta / dt


def pid_outputs(terms: PidTerms, gains, channels: int = 3) -> np.ndarray:
    """PID outputs psi [..., channels, n] of the first ``channels`` channels under ``gains``.

    ``gains`` is a `PidGains` or an array [..., 11] whose leading axes
    broadcast against the terms': a block [B, 1, 11] over sessions stacked
    [m, 3, n] gives [B, m, channels, n], with the bits of each gain set alone.
    """
    g = _gain_array(gains)
    k = g[..., : 3 * channels].reshape(*g.shape[:-1], channels, 3)
    error, integral, delta = (
        t[..., :channels, :] for t in (terms.error, terms.integral, terms.delta)
    )
    return pid_law(k, error, integral, delta, terms.dt)


def accel_coefficients(gains, limits: AccelLimits) -> tuple[np.ndarray, np.ndarray]:
    """(beta [..., 2, 1], bound [2, 1]) of the longitudinal and rotational channels.

    ``gains`` is a `PidGains` ([2, 1] beta) or an array [..., 11].
    """
    return (
        _gain_array(gains)[..., 9:11, None],
        np.array([[limits.max_longitudinal], [limits.max_rotational]]),
    )


def adapted_accel(
    base: np.ndarray, psi_f: np.ndarray, beta: np.ndarray, bound: np.ndarray
) -> np.ndarray:
    """base + beta * psi_f per channel, clamped to +-bound.

    ``base`` is [..., 2, n]: each acceleration plus its own channel's PID
    output; ``beta`` and ``bound`` come from `accel_coefficients`.
    """
    return np.clip(base + beta * psi_f, -bound, bound)


def apply_gains(
    terms: PidTerms, gains, limits: AccelLimits = AccelLimits()
) -> np.ndarray:
    """Adapted accelerations [..., 2, n] (a_l' then a_r') of the sessions ``terms`` describes.

    ``gains`` is a `PidGains` or a gain array, as for `pid_outputs`. Every
    operation is elementwise, so each session of a stack adapts to the same
    bits as on its own.
    """
    psi = pid_outputs(terms, gains)
    return adapted_accel(terms.accel + psi[..., :2, :], psi[..., 2:, :],
                         *accel_coefficients(gains, limits))


def adapt_trace(
    a_l: np.ndarray,
    a_r: np.ndarray,
    f: np.ndarray,
    rate_hz: float,
    gains: PidGains,
    limits: AccelLimits = AccelLimits(),
    integral_clamp: float = DEFAULT_INTEGRAL_CLAMP,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the adaptation law over whole sessions.

    ``f`` holds the normalized phasic feedback aligned with the samples;
    step i reads f[i-1] (0.0 at the first step, idle start). The result is
    identical, bit for bit, to stepping the law one sample at a time.
    """
    out = apply_gains(pid_terms(a_l, a_r, f, rate_hz, integral_clamp), gains, limits)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Gains file: flat key-value text, exactly the eleven canonical keys.
# ---------------------------------------------------------------------------

def write_gains(gains: PidGains, path) -> None:
    """Write gains as ``key = value`` lines in canonical order."""
    lines = [f"{key} = {repr(float(getattr(gains, key)))}" for key in GAIN_KEYS]
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_gains(path) -> PidGains:
    """Read a gains file; requires exactly the eleven canonical keys."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FileFormatError(path, f"expected 'key = value', got {line!r}", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in GAIN_KEYS:
                raise FileFormatError(path, f"unknown gain key {key!r}", lineno)
            if key in values:
                raise FileFormatError(path, f"duplicate gain key {key!r}", lineno)
            try:
                values[key] = float(value.strip())
            except ValueError:
                raise FileFormatError(path, f"bad value for {key}: {value.strip()!r}", lineno) from None
    missing = [key for key in GAIN_KEYS if key not in values]
    if missing:
        raise FileFormatError(path, f"missing gain keys: {', '.join(missing)}")
    return PidGains(**values)
