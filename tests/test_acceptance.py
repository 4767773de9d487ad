"""Release checklist: the guarantees this package ships against.

Each test prints one ``[criterion N] name: PASS/FAIL`` line so a full run
(`pytest -v tests/test_acceptance.py`) reads as a checklist even when
output capture is on, then asserts so failures stay red.
"""

import math
import time

import numpy as np
import pytest

from edanav.cli import main
from edanav.dataset import synth_cohort
from edanav.metrics import chi_square_phi, msdv
from edanav.optimize import GainRanges, evaluate_sessions, optimize
from edanav.pipeline import eval_split, train_surrogate
from edanav.scr import METHODS, detect_scr
from edanav.signals import Trace
from edanav.surrogate import _overlap_average, fit_surrogate, predict_sessions

from oracles import design_rows
from test_control import (
    run_channel_symmetry,
    run_clamp_respect,
    run_geometric_decay,
    run_zero_input_fixpoint,
)
from test_scr import _assert_agrees, _oracle, _params, _pulse_train, _random_phasic
from test_surrogate import _accel_pair, _one_session, _planted_session, _session_clips

RATE = 4.0

# The search box brackets the integral and derivative gains on the two
# acceleration channels a few multiples above their typical tuned values.
# Wider boxes admit integrator-windup solutions that flatten the whole
# profile: those delete events (scoring well on the count objective) while
# worsening the dose value, so they cannot satisfy the both-channel MSDV
# requirement checked below.
ACCEL_RANGES = GainRanges(
    lo=np.zeros(11),
    hi=np.array([0.5, 0.02, 0.05, 0.5, 0.005, 0.005, 0.5, 0.5, 0.5, 0.01, 0.01]),
)


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} — {name}: {detail}"


@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def cohort(timings):
    start = time.perf_counter()
    records = synth_cohort(40, 240.0, 4.0, seed=12345)
    timings["synth"] = time.perf_counter() - start
    return records


@pytest.fixture(scope="module")
def trained(cohort, timings):
    start = time.perf_counter()
    model, heldout = train_surrogate(cohort)
    timings["train"] = time.perf_counter() - start
    return model, heldout


@pytest.fixture(scope="module")
def optimized(cohort, trained, timings):
    model, _ = trained
    start = time.perf_counter()
    result = optimize(
        eval_split(cohort), model, budget=400, seed=20260816, ranges=ACCEL_RANGES
    )
    timings["optimize"] = time.perf_counter() - start
    return result


def test_criterion_1_chi_square_reference_rows(capsys):
    rows = [(36, 40, 25.6, 0.80), (29, 40, 8.1, 0.45), (40, 40, 40.0, 1.0)]
    worst_chi2 = worst_phi = 0.0
    for positives, total, chi2, phi in rows:
        r = chi_square_phi(positives, total)
        worst_chi2 = max(worst_chi2, abs(r.chi2 - chi2))
        worst_phi = max(worst_phi, abs(r.phi - phi))
    ok = worst_chi2 <= 0.05 and worst_phi <= 0.005
    _report(capsys, 1, "chi-square and phi reproduce the reference rows", ok,
            f"max |chi2 err| {worst_chi2:.4f} <= 0.05, max |phi err| {worst_phi:.5f} <= 0.005")


def test_criterion_2_msdv_reference_and_homogeneity(capsys):
    dt = 1.0 / RATE
    rel = abs(msdv(np.ones(960), dt) - math.sqrt(240.0)) / math.sqrt(240.0)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(25):
        x = rng.normal(0.0, 2.0, 300)
        c = float(rng.uniform(0.25, 8.0))
        worst = max(worst, abs(msdv(c * x, dt) - c * msdv(x, dt)) / (c * msdv(x, dt)))
    ok = rel <= 1e-3 and worst <= 1e-9
    _report(capsys, 2, "MSDV constant-input value and homogeneity", ok,
            f"sqrt(240) rel err {rel:.2e} <= 1e-3, homogeneity rel err {worst:.2e} <= 1e-9")


def test_criterion_3_surrogate_recovery_and_round_trip(capsys):
    rng = np.random.default_rng(31)
    a_l, a_r, phasic = _planted_session(rng)
    windows, targets, norm = _session_clips(a_l, a_r, phasic)
    model = fit_surrogate(design_rows(windows), targets, rate_hz=RATE, norm=norm)
    pred = predict_sessions(model, _one_session(a_l, a_r), model.L)[0]
    mae = float(np.mean(np.abs(pred - targets.ravel())))

    a_l2, a_r2 = _accel_pair(rng)
    wiggle = Trace(rng.uniform(0.0, 0.5, 960), RATE)
    _, targets2, norm2 = _session_clips(a_l2, a_r2, wiggle, stride_samples=model.L)
    rebuilt = _overlap_average(targets2[None], model.L)[0]
    expected = norm2.phasic.apply(wiggle.samples)[: len(rebuilt)]
    round_err = float(np.max(np.abs(rebuilt - expected)))

    ok = mae < 1e-6 and round_err <= 1e-9
    _report(capsys, 3, "noiseless linear recovery and clip round trip", ok,
            f"planted-map MAE {mae:.2e} < 1e-6, round-trip err {round_err:.2e} <= 1e-9")


def test_criterion_4_cohort_training_accuracy_and_speed(capsys, cohort, trained, timings):
    _, heldout = trained
    elapsed = timings["synth"] + timings["train"]
    ok = heldout <= 0.03 and elapsed <= 60.0
    _report(capsys, 4, "40-session cohort trains fast and generalizes", ok,
            f"held-out MAE {heldout:.5f} <= 0.03, synth+train {elapsed:.1f}s <= 60s")


def test_criterion_5_optimizer_beats_baseline_everywhere(capsys, cohort, trained,
                                                         optimized, timings):
    model, _ = trained
    sessions = eval_split(cohort)
    results = evaluate_sessions(sessions, optimized.best.gains, model)
    reduced = sum(
        1 for r in results
        if r.stats.msdv_l[1] < r.stats.msdv_l[0] and r.stats.msdv_r[1] < r.stats.msdv_r[0]
    )
    objective = optimized.best.objective
    elapsed = timings["optimize"]
    ok = objective >= 200.0 and reduced == len(results) and elapsed <= 600.0
    pcts = ", ".join(
        f"{m}={p:.0f}%" for m, p in zip(optimized.methods, optimized.best.percentages)
    )
    _report(capsys, 5, "budget-400 search finds broadly protective gains", ok,
            f"objective {objective:.1f} >= 200 ({pcts}), MSDV down in "
            f"{reduced}/{len(results)} sessions on both channels, {elapsed:.1f}s <= 600s")


def test_criterion_6_controller_properties(capsys):
    checks = [
        ("zero-input fixpoint", run_zero_input_fixpoint, 1061),
        ("geometric proportional decay", run_geometric_decay, 1062),
        ("channel symmetry", run_channel_symmetry, 1063),
        ("clamp respect", run_clamp_respect, 1064),
    ]
    failed = []
    for name, check, seed in checks:
        try:
            check(1000, seed)
        except AssertionError:
            failed.append(name)
    ok = not failed
    detail = "4 x 1000 randomized cases" if ok else "failed: " + ", ".join(failed)
    _report(capsys, 6, "controller property checks", ok, detail)


def test_criterion_7_detectors_match_brute_force(capsys):
    failed = []

    rng = np.random.default_rng(71)
    try:
        for _ in range(30):
            x = _random_phasic(rng)
            for method in METHODS:
                _assert_agrees(x, _params(method))
    except AssertionError:
        failed.append("random fixtures vs brute force")

    staged = [
        (np.linspace(1.0, 0.0, 48), 0),
        (_pulse_train(200, [(10.0, 0.5)]), 1),
        (_pulse_train(320, [(10.0, 0.5), (45.0, 0.4)]), 2),
    ]
    for x, want in staged:
        for method in METHODS:
            params = _params(method)
            got = len(detect_scr(Trace(x, RATE), params))
            if not (got == want == len(_oracle(x, params))):
                failed.append(f"{want}-event fixture under {method}")

    try:
        base = _random_phasic(np.random.default_rng(72))
        for method in METHODS:
            last = None
            for thr in np.linspace(0.002, 0.4, 10):
                n = len(detect_scr(Trace(base, RATE), _params(method, min_amplitude=thr)))
                if last is not None and n > last:
                    raise AssertionError
                last = n
    except AssertionError:
        failed.append("monotone in threshold")

    try:
        shifted = base + 3.7
        for method in METHODS:
            a = detect_scr(Trace(base, RATE), _params(method))
            b = detect_scr(Trace(shifted, RATE), _params(method))
            if [(e.onset_idx, e.peak_idx) for e in a] != [(e.onset_idx, e.peak_idx) for e in b]:
                raise AssertionError
    except AssertionError:
        failed.append("translation invariance")

    ok = not failed
    detail = "30 random + 3 staged fixtures, all detectors" if ok else "failed: " + ", ".join(failed)
    _report(capsys, 7, "event detectors agree with the brute-force oracle", ok, detail)


def test_criterion_8_pipeline_is_byte_deterministic(capsys, tmp_path):
    flags = [
        "--set", "dataset.n_sessions=8",
        "--set", "dataset.duration_s=120",
        "--set", "optimizer.budget=24",
        "--set", "run.seed=424",
        "--set", "optimizer.seed=7",
    ]
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        for command in ("synth", "train", "optimize", "evaluate"):
            assert main([command, "--output-dir", str(out), *flags]) == 0
        outputs.append(out)
    names = ["gains.txt", "report.csv", "model.csv", "history.csv", "per_session.csv",
             "msdv.svg"]
    diffs = [n for n in names
             if (outputs[0] / n).read_bytes() != (outputs[1] / n).read_bytes()]
    ok = not diffs
    detail = "two runs, six artifacts byte-identical" if ok else "differs: " + ", ".join(diffs)
    _report(capsys, 8, "repeated pipeline runs are byte-identical", ok, detail)
