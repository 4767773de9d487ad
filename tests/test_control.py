"""Controller tests: frozen PID values, adaptation properties, gains file I/O.

The four ``run_*`` property checks are shared with the acceptance suite,
which re-runs them at its mandated case count. Each runs the law both step
by step and as one whole-session `adapt_trace` call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edanav.control import (
    DEFAULT_INTEGRAL_CLAMP,
    GAIN_KEYS,
    AccelLimits,
    ControlFrame,
    PidChannelState,
    PidGains,
    PidState,
    adapt_step,
    adapt_trace,
    pid_step,
    pid_terms,
    plouzeau_step,
    read_gains,
    write_gains,
)
from edanav.errors import FileFormatError

from oracles import adapt_trace_naive

DT = 0.25

# the reference tuning this package is built around; per-channel PID gains
# for longitudinal, rotational, and phasic error plus the two beta weights
TUNED_GAINS = PidGains(
    K_Pl=0.0113, K_Il=0.0065, K_Dl=0.0137,
    K_Pr=0.0098, K_Ir=0.0012, K_Dr=0.0011,
    K_Pf=0.0730, K_If=0.2283, K_Df=0.3724,
    beta_l=0.0017, beta_r=0.0012,
)


# ---------------------------------------------------------------------------
# Frozen single-step values
# ---------------------------------------------------------------------------

def test_pure_integral_sequence():
    # K_I = 1, dt = 0.25, constant unit error: the integral accumulates
    # before use, so the outputs are 0.25, 0.5, 0.75, 1.0
    state = PidChannelState()
    outs = [pid_step(state, 1.0, 0.0, 1.0, 0.0, DT) for _ in range(4)]
    np.testing.assert_allclose(outs, [0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-12)


def test_tuned_longitudinal_one_step():
    # one tick from rest with a_l = 1 m/s^2 under the tuned gains:
    # e = -1, psi = -(K_P + K_I * 0.25 + K_D / 0.25), a' = 1 + psi
    state = PidState()
    frame = ControlFrame(a_l=1.0, a_r=0.0, f_prev=0.0, dt=DT)
    a_l, a_r = adapt_step(state, frame, TUNED_GAINS)
    assert abs(a_l - 0.932275) < 1e-12
    assert abs(a_r - 0.0) < 1e-12  # rotational channel saw zero error


def test_integral_clamps_at_plus_minus_ten():
    state = PidChannelState()
    for _ in range(50):
        pid_step(state, 1.0, 0.0, 1.0, 0.0, DT)
    assert state.integral == DEFAULT_INTEGRAL_CLAMP
    for _ in range(200):
        pid_step(state, -1.0, 0.0, 1.0, 0.0, DT)
    assert state.integral == -DEFAULT_INTEGRAL_CLAMP


def test_derivative_term_uses_previous_error():
    state = PidChannelState()
    out1 = pid_step(state, 1.0, 0.0, 0.0, 1.0, DT)  # (1 - 0) / 0.25
    out2 = pid_step(state, 1.0, 0.0, 0.0, 1.0, DT)  # (1 - 1) / 0.25
    assert out1 == 4.0
    assert out2 == 0.0


def test_pid_step_input_validation():
    state = PidChannelState()
    with pytest.raises(ValueError):
        pid_step(state, np.nan, 1.0, 0.0, 0.0, DT)
    with pytest.raises(ValueError):
        pid_step(state, 1.0, 1.0, 0.0, 0.0, 0.0)


def test_plouzeau_step():
    assert plouzeau_step(2.0, 1.0) == 1.5
    assert plouzeau_step(0.0, -0.5) == 0.25
    # under a monotone EDA slope the prior law walks off without bound
    a = 0.0
    for _ in range(100):
        a = plouzeau_step(a, 1.0)
    assert a == -50.0
    with pytest.raises(ValueError):
        plouzeau_step(np.nan, 0.0)


# ---------------------------------------------------------------------------
# Property checks (shared with the acceptance suite)
# ---------------------------------------------------------------------------

def _replay(frames, gains, limits=AccelLimits(), clamp=DEFAULT_INTEGRAL_CLAMP):
    """The outputs `adapt_trace` gives for a sequence of frames.

    A leading all-zero sample is a fixed point of the law, so it leaves the
    state at rest and lets sample i + 1 read frame i's f_prev.
    """
    a_l = np.array([0.0] + [fr.a_l for fr in frames])
    a_r = np.array([0.0] + [fr.a_r for fr in frames])
    f = np.array([fr.f_prev for fr in frames] + [0.0])
    out_l, out_r = adapt_trace(a_l, a_r, f, 1.0 / DT, gains, limits, clamp)
    return list(zip(out_l[1:].tolist(), out_r[1:].tolist()))


def _random_gains(rng, hi=0.5, beta_hi=0.01):
    return PidGains.from_array(
        np.concatenate([rng.uniform(0.0, hi, 9), rng.uniform(0.0, beta_hi, 2)])
    )


def run_zero_input_fixpoint(n_cases, seed):
    """All-zero inputs are a fixed point: zero outputs, untouched state."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        gains = _random_gains(rng, hi=float(rng.uniform(0.1, 5.0)))
        state = PidState()
        frames = [ControlFrame(a_l=0.0, a_r=0.0, f_prev=0.0, dt=DT)] * int(rng.integers(1, 6))
        for frame in frames:
            assert adapt_step(state, frame, gains) == (0.0, 0.0)
        assert state.a_l.integral == 0.0 and state.a_l.prev_error == 0.0
        assert state.a_r.integral == 0.0 and state.f.integral == 0.0
        assert _replay(frames, gains) == [(0.0, 0.0)] * len(frames)


def run_geometric_decay(n_cases, seed):
    """Pure proportional feedback contracts geometrically for K_P in (0, 2)."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        k_p = float(rng.uniform(1e-3, 2.0 - 1e-3))
        a0 = float(rng.uniform(0.1, 1.0))
        gains = PidGains(K_Pl=k_p)
        state = PidState()
        a = a0
        frames = []
        outputs = []
        steps = int(rng.integers(3, 30))
        for k in range(1, steps + 1):
            frames.append(ControlFrame(a, 0.0, 0.0, DT))
            a, _ = adapt_step(state, frames[-1], gains)
            outputs.append((a, 0.0))
            expected = a0 * (1.0 - k_p) ** k
            assert abs(a - expected) <= 1e-9 * max(1.0, abs(expected))
        assert abs(a) < a0  # strictly contracted after >= 3 steps
        assert _replay(frames, gains) == outputs


def run_channel_symmetry(n_cases, seed):
    """Swapping channel gains and inputs swaps the outputs, step for step."""
    rng = np.random.default_rng(seed)
    limits = AccelLimits(max_longitudinal=4.0, max_rotational=4.0)
    for _ in range(n_cases):
        k = rng.uniform(0.0, 0.5, 3)
        beta = float(rng.uniform(0.0, 0.01))
        k_f = rng.uniform(0.0, 0.5, 3)
        gains = PidGains(
            K_Pl=k[0], K_Il=k[1], K_Dl=k[2],
            K_Pr=k[0], K_Ir=k[1], K_Dr=k[2],
            K_Pf=k_f[0], K_If=k_f[1], K_Df=k_f[2],
            beta_l=beta, beta_r=beta,
        )
        state_a = PidState()
        state_b = PidState()
        frames_a = []
        frames_b = []
        for _ in range(int(rng.integers(1, 8))):
            u, v = rng.uniform(-3.0, 3.0, 2)
            f = float(rng.uniform(0.0, 1.0))
            frames_a.append(ControlFrame(u, v, f, DT))
            frames_b.append(ControlFrame(v, u, f, DT))
            out_a = adapt_step(state_a, frames_a[-1], gains, limits)
            out_b = adapt_step(state_b, frames_b[-1], gains, limits)
            assert out_a == (out_b[1], out_b[0])
        replay_a = _replay(frames_a, gains, limits)
        replay_b = _replay(frames_b, gains, limits)
        assert replay_a == [(r, l) for l, r in replay_b]


def run_clamp_respect(n_cases, seed):
    """Outputs stay inside the comfort limits and integrals inside the clamp."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        gains = _random_gains(rng, hi=float(rng.uniform(0.1, 50.0)), beta_hi=2.0)
        limits = AccelLimits(
            max_longitudinal=float(rng.uniform(0.5, 6.0)),
            max_rotational=float(rng.uniform(0.5, 4.0)),
        )
        clamp = float(rng.uniform(0.5, 20.0))
        state = PidState(integral_clamp=clamp)
        frames = []
        for _ in range(int(rng.integers(1, 10))):
            frames.append(ControlFrame(
                float(rng.uniform(-10.0, 10.0)),
                float(rng.uniform(-10.0, 10.0)),
                float(rng.uniform(-1.0, 1.0)),
                DT,
            ))
            a_l, a_r = adapt_step(state, frames[-1], gains, limits)
            assert abs(a_l) <= limits.max_longitudinal
            assert abs(a_r) <= limits.max_rotational
        for channel in (state.a_l, state.a_r, state.f):
            assert abs(channel.integral) <= clamp
        for a_l, a_r in _replay(frames, gains, limits, clamp):
            assert abs(a_l) <= limits.max_longitudinal
            assert abs(a_r) <= limits.max_rotational
        terms = pid_terms(
            np.array([fr.a_l for fr in frames]), np.array([fr.a_r for fr in frames]),
            np.array([fr.f_prev for fr in frames]), 1.0 / DT, clamp,
        )
        assert np.all(np.abs(terms.integral) <= clamp)


def test_zero_input_fixpoint():
    run_zero_input_fixpoint(1000, seed=101)


def test_geometric_decay():
    run_geometric_decay(1000, seed=102)


def test_channel_symmetry():
    run_channel_symmetry(1000, seed=103)


def test_clamp_respect():
    run_clamp_respect(1000, seed=104)


# ---------------------------------------------------------------------------
# Whole-session adaptation
# ---------------------------------------------------------------------------

def test_adapt_trace_matches_stepwise_loop():
    rng = np.random.default_rng(105)
    n = 200
    a_l = rng.uniform(-2.0, 4.0, n)
    a_r = rng.uniform(-1.0, 2.0, n)
    f = rng.uniform(0.0, 1.0, n)
    out_l, out_r = adapt_trace(a_l, a_r, f, 4.0, TUNED_GAINS)
    state = PidState()
    for i in range(n):
        f_prev = f[i - 1] if i > 0 else 0.0
        frame = ControlFrame(float(a_l[i]), float(a_r[i]), float(f_prev), DT)
        step_l, step_r = adapt_step(state, frame, TUNED_GAINS)
        assert out_l[i] == step_l
        assert out_r[i] == step_r


# zeros of both signs, values large enough to bind the clamps, and the rest
_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)
_GAINS = st.one_of(st.just(0.0), st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False))


@st.composite
def _sessions(draw):
    a_l, a_r, f = draw(arrays(np.float64, (3, draw(st.integers(1, 40))), elements=_SAMPLES))
    gains = draw(arrays(np.float64, len(GAIN_KEYS), elements=_GAINS))
    limits = AccelLimits(draw(st.floats(0.1, 60.0)), draw(st.floats(0.1, 60.0)))
    clamp = draw(st.sampled_from([0.05, 1.0, DEFAULT_INTEGRAL_CLAMP]) | st.floats(0.01, 100.0))
    rate = draw(st.sampled_from([1.0, 3.0, 4.0, 8.0]))
    return a_l, a_r, f, rate, gains, limits, clamp


@settings(max_examples=200, deadline=None)
@given(_sessions())
def test_adapt_trace_matches_scalar_oracle(session):
    # bit for bit, signed zeros included, whether or not the clamps bind
    a_l, a_r, f, rate, gains, limits, clamp = session
    out_l, out_r = adapt_trace(a_l, a_r, f, rate, PidGains.from_array(gains), limits, clamp)
    ref_l, ref_r = adapt_trace_naive(
        a_l, a_r, f, rate, gains, limits.max_longitudinal, limits.max_rotational, clamp
    )
    assert out_l.tobytes() == np.array(ref_l, dtype=np.float64).tobytes()
    assert out_r.tobytes() == np.array(ref_r, dtype=np.float64).tobytes()


def test_adapt_trace_zero_gains_is_identity():
    rng = np.random.default_rng(106)
    a_l = rng.uniform(-2.0, 2.0, 100)
    a_r = rng.uniform(-1.0, 1.0, 100)
    f = rng.uniform(0.0, 1.0, 100)
    out_l, out_r = adapt_trace(a_l, a_r, f, 4.0, PidGains())
    np.testing.assert_array_equal(out_l, a_l)
    np.testing.assert_array_equal(out_r, a_r)


def test_adapt_step_state_progression():
    state = PidState()
    adapt_step(state, ControlFrame(1.0, -2.0, 0.5, DT), TUNED_GAINS)
    assert state.a_l.integral == -0.25
    assert state.a_r.integral == 0.5
    assert state.f.integral == -0.125
    assert state.a_l.prev_error == -1.0
    state.reset()
    assert state.a_l.integral == 0.0 and state.f.prev_error == 0.0


# ---------------------------------------------------------------------------
# Gains container and file format
# ---------------------------------------------------------------------------

def test_gains_array_round_trip():
    rng = np.random.default_rng(107)
    values = rng.uniform(0.0, 1.0, len(GAIN_KEYS))
    gains = PidGains.from_array(values)
    np.testing.assert_array_equal(gains.as_array(), values)
    assert gains.K_Pl == values[0]
    assert gains.beta_r == values[-1]


def test_gains_validation():
    with pytest.raises(ValueError):
        PidGains(K_Pl=-0.1)
    with pytest.raises(ValueError):
        PidGains(K_If=np.nan)
    with pytest.raises(ValueError):
        PidGains.from_array(np.zeros(10))


def test_gains_file_round_trip(tmp_path):
    path = tmp_path / "gains.txt"
    write_gains(TUNED_GAINS, path)
    back = read_gains(path)
    assert back == TUNED_GAINS
    lines = path.read_text().splitlines()
    assert lines[0] == "K_Pl = 0.0113"
    assert len(lines) == len(GAIN_KEYS)


def test_gains_file_tolerates_comments_and_blanks(tmp_path):
    path = tmp_path / "gains.txt"
    write_gains(PidGains(), path)
    text = "# tuned by hand\n\n" + path.read_text()
    path.write_text(text)
    assert read_gains(path) == PidGains()


def test_gains_file_errors(tmp_path):
    base = {key: "0.0" for key in GAIN_KEYS}

    def write(name, lines):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    ok = [f"{k} = {v}" for k, v in base.items()]
    with pytest.raises(FileFormatError, match="unknown gain key"):
        read_gains(write("unknown.txt", ok + ["K_Px = 1.0"]))
    with pytest.raises(FileFormatError, match="duplicate"):
        read_gains(write("dup.txt", ok + ["K_Pl = 0.5"]))
    with pytest.raises(FileFormatError, match="missing gain keys"):
        read_gains(write("missing.txt", ok[:-1]))
    with pytest.raises(FileFormatError, match="bad value"):
        read_gains(write("bad.txt", ok[:-1] + ["beta_r = fast"]))
    with pytest.raises(FileFormatError, match="expected 'key = value'"):
        read_gains(write("noeq.txt", ok[:-1] + ["beta_r 0.0"]))


def test_frame_and_limit_validation():
    with pytest.raises(ValueError):
        ControlFrame(a_l=1.0, a_r=0.0, f_prev=0.0, dt=0.0)
    with pytest.raises(ValueError):
        ControlFrame(a_l=np.inf, a_r=0.0, f_prev=0.0, dt=DT)
    with pytest.raises(ValueError):
        AccelLimits(max_longitudinal=0.0)
    with pytest.raises(ValueError):
        PidState(integral_clamp=0.0)
