"""Controller tests: frozen PID values, adaptation properties, gains file I/O.

The four ``run_*`` property checks are shared with the acceptance suite,
which re-runs them at its mandated case count. Each steps the law one
sample at a time through the scalar oracle (`oracles.adapt_trace_naive`)
and requires the whole-session `adapt_trace` to match it bit for bit.
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
    PidGains,
    adapt_trace,
    apply_gains,
    constant_step_integral,
    pid_outputs,
    pid_terms,
    read_gains,
    write_gains,
)
from edanav.errors import FileFormatError

from oracles import adapt_trace_naive, clamped_sum_naive

DT = 0.25

# the reference tuning this package is built around; per-channel PID gains
# for longitudinal, rotational, and phasic error plus the two beta weights
TUNED_GAINS = PidGains(
    K_Pl=0.0113, K_Il=0.0065, K_Dl=0.0137,
    K_Pr=0.0098, K_Ir=0.0012, K_Dr=0.0011,
    K_Pf=0.0730, K_If=0.2283, K_Df=0.3724,
    beta_l=0.0017, beta_r=0.0012,
)


def _longitudinal_terms(errors):
    """PID terms of a session whose longitudinal channel sees ``errors``."""
    a_l = -np.asarray(errors, dtype=np.float64)
    zeros = np.zeros(a_l.size)
    return pid_terms(a_l, zeros, zeros, 1.0 / DT)


# ---------------------------------------------------------------------------
# Frozen single-step values
# ---------------------------------------------------------------------------

def test_pure_integral_sequence():
    # K_I = 1, dt = 0.25, constant unit error: the integral accumulates
    # before use, so the outputs are 0.25, 0.5, 0.75, 1.0
    outs = pid_outputs(_longitudinal_terms([1.0] * 4), PidGains(K_Il=1.0))[0]
    np.testing.assert_allclose(outs, [0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-12)


def test_tuned_longitudinal_one_step():
    # one tick from rest with a_l = 1 m/s^2 under the tuned gains:
    # e = -1, psi = -(K_P + K_I * 0.25 + K_D / 0.25), a' = 1 + psi
    a_l, a_r = adapt_trace(np.array([1.0]), np.array([0.0]), np.array([0.0]), 1.0 / DT,
                           TUNED_GAINS)
    assert abs(a_l[0] - 0.932275) < 1e-12
    assert abs(a_r[0] - 0.0) < 1e-12  # rotational channel saw zero error


def test_integral_clamps_at_plus_minus_ten():
    integral = _longitudinal_terms([1.0] * 50 + [-1.0] * 200).integral[0]
    assert integral[49] == DEFAULT_INTEGRAL_CLAMP
    assert integral[-1] == -DEFAULT_INTEGRAL_CLAMP


def test_derivative_term_uses_previous_error():
    outs = pid_outputs(_longitudinal_terms([1.0, 1.0]), PidGains(K_Dl=1.0))[0]
    assert outs[0] == 4.0  # (1 - 0) / 0.25
    assert outs[1] == 0.0  # (1 - 1) / 0.25


def test_non_positive_integral_clamp_is_rejected():
    # a clamp of -1 would flip the integral between -1 and +1 every step
    ones = np.ones(4)
    for clamp in (0.0, -1.0):
        with pytest.raises(ValueError, match="integral_clamp"):
            pid_terms(ones, ones, ones, 4.0, clamp)
        with pytest.raises(ValueError, match="integral_clamp"):
            adapt_trace(ones, ones, ones, 4.0, TUNED_GAINS, integral_clamp=clamp)


# ---------------------------------------------------------------------------
# Property checks (shared with the acceptance suite)
# ---------------------------------------------------------------------------

def _step(a_l, a_r, f_prev, gains, limits=AccelLimits(), clamp=DEFAULT_INTEGRAL_CLAMP):
    """Outputs (a_l', a_r') of the law for samples whose phasic feedback is ``f_prev``.

    Steps the scalar oracle and requires `adapt_trace` to give the same
    floats. A leading all-zero sample is a fixed point of the law, so it
    leaves the state at rest and lets sample i + 1 read f_prev[i].
    """
    a_l = np.array([0.0, *a_l])
    a_r = np.array([0.0, *a_r])
    f = np.array([*f_prev, 0.0])
    ref_l, ref_r = adapt_trace_naive(
        a_l, a_r, f, 1.0 / DT, gains.as_array(),
        limits.max_longitudinal, limits.max_rotational, clamp,
    )
    out_l, out_r = adapt_trace(a_l, a_r, f, 1.0 / DT, gains, limits, clamp)
    assert out_l.tolist() == ref_l and out_r.tolist() == ref_r
    return list(zip(ref_l[1:], ref_r[1:]))


def _random_gains(rng, hi=0.5, beta_hi=0.01):
    return PidGains.from_array(
        np.concatenate([rng.uniform(0.0, hi, 9), rng.uniform(0.0, beta_hi, 2)])
    )


def run_zero_input_fixpoint(n_cases, seed):
    """All-zero inputs are a fixed point: zero outputs, untouched state."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        gains = _random_gains(rng, hi=float(rng.uniform(0.1, 5.0)))
        zeros = [0.0] * int(rng.integers(1, 6))
        assert _step(zeros, zeros, zeros, gains) == [(0.0, 0.0)] * len(zeros)
        terms = pid_terms(np.array(zeros), np.array(zeros), np.array(zeros), 1.0 / DT)
        assert not np.any(terms.integral) and not np.any(terms.error)


def run_geometric_decay(n_cases, seed):
    """Pure proportional feedback contracts geometrically for K_P in (0, 2)."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        k_p = float(rng.uniform(1e-3, 2.0 - 1e-3))
        a0 = float(rng.uniform(0.1, 1.0))
        gains = PidGains(K_Pl=k_p)
        a = a0
        inputs = []
        outputs = []
        steps = int(rng.integers(3, 30))
        for k in range(1, steps + 1):
            # each output is the next input: the law runs on its own output
            inputs.append(a)
            out_l, _ = adapt_trace_naive(inputs, [0.0] * k, [0.0] * k, 1.0 / DT,
                                         gains.as_array(), 5.0, 3.0, DEFAULT_INTEGRAL_CLAMP)
            a = out_l[-1]
            outputs.append((a, 0.0))
            expected = a0 * (1.0 - k_p) ** k
            assert abs(a - expected) <= 1e-9 * max(1.0, abs(expected))
        assert abs(a) < a0  # strictly contracted after >= 3 steps
        assert _step(inputs, [0.0] * steps, [0.0] * steps, gains) == outputs


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
        us, vs, fs = [], [], []
        for _ in range(int(rng.integers(1, 8))):
            u, v = rng.uniform(-3.0, 3.0, 2)
            us.append(float(u))
            vs.append(float(v))
            fs.append(float(rng.uniform(0.0, 1.0)))
        out_a = _step(us, vs, fs, gains, limits)
        out_b = _step(vs, us, fs, gains, limits)
        assert out_a == [(r, l) for l, r in out_b]


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
        frames = np.array([
            [float(rng.uniform(-10.0, 10.0)), float(rng.uniform(-10.0, 10.0)),
             float(rng.uniform(-1.0, 1.0))]
            for _ in range(int(rng.integers(1, 10)))
        ])
        a_l, a_r, f_prev = frames.T
        for out_l, out_r in _step(a_l, a_r, f_prev, gains, limits, clamp):
            assert abs(out_l) <= limits.max_longitudinal
            assert abs(out_r) <= limits.max_rotational
        terms = pid_terms(np.array([0.0, *a_l]), np.array([0.0, *a_r]),
                          np.array([*f_prev, 0.0]), 1.0 / DT, clamp)
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
    ref_l, ref_r = adapt_trace_naive(a_l, a_r, f, 4.0, TUNED_GAINS.as_array(), 5.0, 3.0,
                                     DEFAULT_INTEGRAL_CLAMP)
    assert out_l.tolist() == ref_l
    assert out_r.tolist() == ref_r


# zeros of both signs, values large enough to bind the clamps, and the rest
_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)
_GAINS = st.one_of(st.just(0.0), st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False))


@st.composite
def _sessions(draw):
    """A stack of 1-4 equal-length sessions: a_l, a_r and f each [m, n]."""
    shape = (3, draw(st.integers(1, 4)), draw(st.integers(1, 40)))
    a_l, a_r, f = draw(arrays(np.float64, shape, elements=_SAMPLES))
    gains = draw(arrays(np.float64, len(GAIN_KEYS), elements=_GAINS))
    limits = AccelLimits(draw(st.floats(0.1, 60.0)), draw(st.floats(0.1, 60.0)))
    clamp = draw(st.sampled_from([0.05, 1.0, DEFAULT_INTEGRAL_CLAMP]) | st.floats(0.01, 100.0))
    rate = draw(st.sampled_from([1.0, 3.0, 4.0, 8.0]))
    return a_l, a_r, f, rate, gains, limits, clamp


def _oracle_bytes(a_l, a_r, f, rate, gains, limits, clamp):
    """The scalar oracle's (a_l', a_r') of one session, as float64 bytes."""
    ref = adapt_trace_naive(
        a_l, a_r, f, rate, gains, limits.max_longitudinal, limits.max_rotational, clamp
    )
    return tuple(np.array(out, dtype=np.float64).tobytes() for out in ref)


@settings(max_examples=200, deadline=None)
@given(_sessions())
def test_adapt_trace_matches_scalar_oracle(session):
    # bit for bit, signed zeros included, whether or not the clamps bind
    a_l, a_r, f, rate, gains, limits, clamp = session
    for row in zip(a_l, a_r, f):
        out_l, out_r = adapt_trace(*row, rate, PidGains.from_array(gains), limits, clamp)
        assert (out_l.tobytes(), out_r.tobytes()) == _oracle_bytes(
            *row, rate, gains, limits, clamp
        )


@settings(max_examples=200, deadline=None)
@given(_sessions())
def test_stacked_pid_terms_match_scalar_oracle(session):
    # `pid_terms` over a stack [m, n], then `apply_gains`, gives each row
    # the bytes of that session stepped alone through the scalar law
    a_l, a_r, f, rate, gains, limits, clamp = session
    terms = pid_terms(a_l, a_r, f, rate, clamp)
    assert terms.integral.shape == (len(a_l), 3, a_l.shape[1])
    out = apply_gains(terms, gains, limits)
    for adapted, row in zip(out, zip(a_l, a_r, f)):
        assert (adapted[0].tobytes(), adapted[1].tobytes()) == _oracle_bytes(
            *row, rate, gains, limits, clamp
        )


def test_stacked_pid_terms_bind_the_clamps():
    # a stack whose rows bind the integral clamp at different steps, and
    # one that never does, matches the oracle row by row
    n, clamp = 12, 0.5
    a_l = np.array([np.full(n, 1.0), np.full(n, -3.0), np.zeros(n)])
    a_r = np.array([np.full(n, -2.0), np.linspace(-1.0, 1.0, n), np.zeros(n)])
    f = np.array([np.full(n, 1.0), np.zeros(n), np.full(n, 0.01)])
    terms = pid_terms(a_l, a_r, f, 4.0, clamp)
    bound = np.abs(terms.integral) == clamp
    assert np.any(bound[0]) and np.any(bound[1]) and not np.any(bound[2])
    gains = np.linspace(0.05, 0.6, len(GAIN_KEYS))
    limits = AccelLimits(0.4, 0.3)
    out = apply_gains(terms, gains, limits)
    assert np.any(np.abs(out) == 0.4) and np.any(np.abs(out) == 0.3)  # the limits bind too
    for adapted, row in zip(out, zip(a_l, a_r, f)):
        assert (adapted[0].tobytes(), adapted[1].tobytes()) == _oracle_bytes(
            *row, 4.0, gains, limits, clamp
        )


@st.composite
def _constant_step_runs(draw):
    clamp = draw(st.sampled_from([0.05, 1.0, DEFAULT_INTEGRAL_CLAMP]) | st.floats(0.01, 100.0))
    m = draw(st.integers(1, 4))
    starts = st.sampled_from([0.0, -0.0, clamp, -clamp]) | st.floats(-clamp, clamp)
    steps = st.sampled_from([0.0, -0.0]) | st.floats(-3.0 * clamp, 3.0 * clamp)
    start = draw(arrays(np.float64, (m, 1), elements=starts))
    step = draw(arrays(np.float64, (m, 1), elements=steps))
    return start, step, draw(st.integers(1, 40)), clamp


@settings(max_examples=300, deadline=None)
@given(_constant_step_runs())
def test_constant_step_integral_matches_scalar_clamp(run):
    # each row adds one constant step, of either sign or a signed zero, from
    # a start inside the clamp (at +-clamp included): clamping the plain
    # running sum once equals clamping after every step, bit for bit
    start, step, width, clamp = run
    out = constant_step_integral(start, step, width, clamp)
    assert out.shape == (start.shape[0], width)
    for row, s0, d in zip(out, start[:, 0], step[:, 0]):
        ref = clamped_sum_naive(s0, [d] * width, clamp)
        assert row.tobytes() == np.array(ref, dtype=np.float64).tobytes()


def test_adapt_trace_zero_gains_is_identity():
    rng = np.random.default_rng(106)
    a_l = rng.uniform(-2.0, 2.0, 100)
    a_r = rng.uniform(-1.0, 1.0, 100)
    f = rng.uniform(0.0, 1.0, 100)
    out_l, out_r = adapt_trace(a_l, a_r, f, 4.0, PidGains())
    np.testing.assert_array_equal(out_l, a_l)
    np.testing.assert_array_equal(out_r, a_r)


def test_adapt_step_state_progression():
    # the state after one step from rest, a_l = 1, a_r = -2, f_prev = 0.5
    terms = pid_terms(np.array([0.0, 1.0]), np.array([0.0, -2.0]), np.array([0.5, 0.0]),
                      1.0 / DT)
    assert terms.integral[:, 1].tolist() == [-0.25, 0.5, -0.125]
    assert terms.error[:, 1].tolist() == [-1.0, 2.0, -0.5]  # the next step's previous error


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
        AccelLimits(max_longitudinal=0.0)
    with pytest.raises(ValueError):
        AccelLimits(max_rotational=-1.0)
