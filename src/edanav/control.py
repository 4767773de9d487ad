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
accelerations for one gain set with whole-array arithmetic.
Every clamped integral is `clamped_sum`: one in-order running sum
(`np.add.accumulate`), then one clip to the clamp, which has the bits of
clamping after every step wherever a row's steps share one sign. The
closed loop holds the feedback clip by clip, so its steps are constant.
Over a recording, `pid_terms` redoes one step at a time only each row
whose steps change sign and that reaches the clamp, from its first sum
there on.
`pid_law` is the one place the PID output is written; the gain helpers
take a gain array [..., 11] in GAIN_KEYS order (a block of gain sets, one
per leading index), such as `PidGains.as_array`. `clamped_sum`, `pid_law`
and `adapted_accel` write into an ``out`` buffer when given one, as the
closed loop does with one clip's blocks. Every clamp calls the ufunc that
np.clip calls, for the same bits: on a block of one clip, np.clip's
Python wrapper costs more than the clamp.

The controller runs at the EDA tick (dt = 1/rate, 0.25 s at 4 Hz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy._core.umath import clip as _clip  # np.clip's ufunc, without its Python wrapper

from .errors import FileFormatError
from .signals import parse_items, write_text_atomic

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
        if not (self.max_longitudinal > 0 and self.max_rotational > 0):
            raise ValueError("acceleration limits must be positive")

    @property
    def bound(self) -> np.ndarray:
        """The clamp column [2, 1]: longitudinal, then rotational."""
        return np.array([[self.max_longitudinal], [self.max_rotational]])


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


def clamped_sum(
    start: np.ndarray, steps: np.ndarray, width: int, clamp: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The running sum [..., width] of ``steps`` from ``start`` [..., 1], clipped to +-clamp.

    ``steps`` is [..., width], or [..., 1] for a constant step. The one
    `np.add.accumulate` adds in order, so up to a row's first sum at
    +-clamp these are the bits of clamping after every step. With ``start``
    inside the clamp and all of a row's steps of one sign (signed zeros
    count as either), the clamp is absorbing and the whole row has those
    bits: the plain sum never comes back inside the clamp, nor does the
    clamped one leave it. The result goes to ``out`` [..., width] if given.
    """
    sums = np.empty((*start.shape[:-1], width + 1))
    sums[..., :1] = start
    sums[..., 1:] = steps
    return _clip(np.add.accumulate(sums, axis=-1, out=sums)[..., 1:], -clamp, clamp, out=out)


def _clamp_each_step(start: float, steps: np.ndarray, clamp: float) -> list[float]:
    """The running sum of ``steps`` from ``start``, clamped to +-clamp after every step."""
    integral = start
    sums = []
    for step in steps.tolist():
        integral = integral + step
        if integral > clamp:
            integral = clamp
        elif integral < -clamp:
            integral = -clamp
        sums.append(integral)
    return sums


def _clamped_integral(steps: np.ndarray, clamp: float) -> np.ndarray:
    """The anti-windup integral [..., n] of ``steps`` [..., n] from 0.0, with the loop's bits.

    One `clamped_sum` gives every row up to its first sum at the clamp, and
    every row whose steps share one sign. The rest of a row whose steps
    change sign, or hold a NaN, is redone with `_clamp_each_step` from its
    first sum at the clamp. Overflow and inf - inf in the plain sums come
    only past that sum, so they warn of nothing, as in the loop.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = clamped_sum(np.zeros((*steps.shape[:-1], 1)), steps, steps.shape[-1], clamp)
    at_clamp = np.abs(sums) == clamp
    one_sign = np.all(steps >= 0.0, axis=-1) | np.all(steps <= 0.0, axis=-1)
    for row in map(tuple, np.argwhere(at_clamp.any(axis=-1) & ~one_sign)):
        i = int(at_clamp[row].argmax())
        sums[row][i + 1 :] = _clamp_each_step(float(sums[row][i]), steps[row][i + 1 :], clamp)
    return sums


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
    integral = _clamped_integral(error * dt, integral_clamp)
    delta = error - np.concatenate([np.zeros_like(error[..., :1]), error[..., :-1]], axis=-1)
    return PidTerms(accel, error, integral, delta, dt, integral_clamp)


def pid_law(
    k: np.ndarray, error, integral, delta, dt: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The PID output k_P * error + k_I * integral + k_D * delta / dt.

    ``k`` holds (k_P, k_I, k_D) along its last axis [..., 3]; each gain
    column broadcasts against its term, and k_I * integral has the output's
    shape. The sums run left to right; the output goes to ``out`` if given.
    """
    psi = np.multiply(k[..., 1:2], integral, out=out)
    np.add(k[..., :1] * error, psi, out=psi)
    d_term = k[..., 2:] * delta
    return np.add(psi, np.divide(d_term, dt, out=d_term), out=psi)


def pid_outputs(terms: PidTerms, gains: np.ndarray, channels: int = 3) -> np.ndarray:
    """PID outputs psi [..., channels, n] of the first ``channels`` channels under ``gains``.

    ``gains`` is a gain array [..., 11] whose leading axes broadcast
    against the terms': a block [B, 1, 11] over sessions stacked [m, 3, n]
    gives [B, m, channels, n], with the bits of each gain set alone.
    """
    k = gains[..., : 3 * channels].reshape(*gains.shape[:-1], channels, 3)
    error, integral, delta = (
        t[..., :channels, :] for t in (terms.error, terms.integral, terms.delta)
    )
    return pid_law(k, error, integral, delta, terms.dt)


def adapted_accel(
    base: np.ndarray, psi_f: np.ndarray, gains: np.ndarray, bound: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """base + beta * psi_f per channel, clamped to +-bound.

    ``base`` is [..., 2, n]: each acceleration plus its own channel's PID
    output, the output's shape; beta is (beta_l, beta_r) of the gain array
    ``gains`` [..., 11] as a column [..., 2, 1], and ``bound`` broadcasts
    against the output, such as `AccelLimits.bound`. The output goes to
    ``out`` if given.
    """
    x = np.add(base, np.multiply(gains[..., 9:11, None], psi_f, out=out), out=out)
    return _clip(x, -bound, bound, out=x)


def apply_gains(terms: PidTerms, gains: np.ndarray, limits: AccelLimits) -> np.ndarray:
    """Adapted accelerations [..., 2, n] (a_l' then a_r') of the sessions ``terms`` describes.

    ``gains`` is a gain array, as for `pid_outputs`. Every operation is
    elementwise, so each session of a stack adapts to the same bits as on
    its own, which are those of stepping the law one sample at a time.
    """
    psi = pid_outputs(terms, gains)
    return adapted_accel(terms.accel + psi[..., :2, :], psi[..., 2:, :], gains, limits.bound)


# ---------------------------------------------------------------------------
# Gains file: flat key-value text, exactly the eleven canonical keys.
# ---------------------------------------------------------------------------

def write_gains(gains: PidGains, path) -> None:
    """Write gains as ``key = value`` lines in canonical order."""
    lines = [f"{key} = {repr(float(getattr(gains, key)))}" for key in GAIN_KEYS]
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_gains(path) -> PidGains:
    """Read a gains file; requires exactly the eleven canonical keys."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, raw.strip()) for lineno, raw in enumerate(fh, start=1)]
    items = parse_items(path, [(n, line) for n, line in lines if line and line[0] != "#"],
                        "gain", GAIN_KEYS)
    values = {}
    for key, (value, lineno) in items.items():
        try:
            values[key] = float(value)
        except ValueError:
            raise FileFormatError(path, f"bad value for {key}: {value!r}", lineno) from None
    try:
        return PidGains(**values)
    except ValueError as exc:  # a value the gains reject
        raise FileFormatError(path, str(exc)) from None
