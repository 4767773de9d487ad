"""The benchmark's workloads: one pass of each, and the checks on what it wrote.

A pass runs the whole chain once, from data to report, into a fresh output
directory: set-up (make the cohort, train and write the model), one gain
search (write gains and history), and evaluation (replay the best gains,
build and write the report). The search workloads call edanav's public
functions; ``pipeline-long`` calls the ``edanav.cli.main`` entry point.
Everything runs in this process with one caller and ``workers=1``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

cli = importlib.import_module("edanav.cli")
control = importlib.import_module("edanav.control")
dataset = importlib.import_module("edanav.dataset")
metrics = importlib.import_module("edanav.metrics")
opt = importlib.import_module("edanav.optimize")  # the package rebinds edanav.optimize
pipeline = importlib.import_module("edanav.pipeline")
surrogate = importlib.import_module("edanav.surrogate")

# The acceptance seeds; ``--seed n`` offsets both by n, so seed 0 is the
# acceptance point, where the artifacts are checked against recorded digests.
COHORT_SEED = 12345
OPTIMIZER_SEED = 20260816

# The acceptance search box (tests/test_acceptance.py), in GAIN_KEYS order.
ACCEL_HI = (0.5, 0.02, 0.05, 0.5, 0.005, 0.005, 0.5, 0.5, 0.5, 0.01, 0.01)
ACCEL_RANGES = opt.GainRanges(lo=np.zeros(len(ACCEL_HI)), hi=np.array(ACCEL_HI))
EXPLORE_FRAC = 0.6  # optimize()'s default, used to count phase-one trials

ARTIFACTS = ("model.csv", "gains.txt", "history.csv", "report.csv", "per_session.csv", "msdv.svg")
DATASET = "dataset"  # digest over every file of the CLI's dataset directory


@dataclass(frozen=True)
class Workload:
    n_sessions: int
    duration_s: float
    rate_hz: float
    budget: int
    mode: str
    via_cli: bool

    @property
    def n_eval(self) -> int:
        return self.n_sessions - int(round(0.75 * self.n_sessions))


# Why each workload was chosen is its ``why`` in BENCHMARK.json.
WORKLOADS = {
    "search-offline": Workload(40, 240.0, 4.0, 10, "offline", False),
    "search-closed-loop": Workload(40, 240.0, 4.0, 10, "closed_loop", False),
    "pipeline-long": Workload(12, 900.0, 8.0, 2, "offline", True),
}


@dataclass(frozen=True)
class Seeds:
    cohort: int
    optimizer: int

    @staticmethod
    def from_offset(n: int) -> "Seeds":
        return Seeds(COHORT_SEED + n, OPTIMIZER_SEED + n)

    @property
    def acceptance(self) -> bool:
        return self == Seeds.from_offset(0)


def _direct(name, fn, /, *args, **kwargs):
    return fn(*args, **kwargs)


def _api_pass(w: Workload, seeds: Seeds, out: Path, tracer) -> dict[str, float]:
    call = tracer.call if tracer is not None else _direct
    t0 = time.perf_counter()
    records = call("dataset.synth_cohort", dataset.synth_cohort,
                   w.n_sessions, w.duration_s, w.rate_hz, seed=seeds.cohort)
    model, _ = call("pipeline.train_surrogate", pipeline.train_surrogate, records)
    call("surrogate.write_model", surrogate.write_model, model, out / "model.csv")
    t1 = time.perf_counter()
    sessions = pipeline.eval_split(records)
    result = call("optimize.optimize", opt.optimize, sessions, model, budget=w.budget,
                  seed=seeds.optimizer, ranges=ACCEL_RANGES, mode=w.mode, workers=1)
    call("control.write_gains", control.write_gains, result.best.gains, out / "gains.txt")
    call("optimize.write_history_csv", opt.write_history_csv, result, out / "history.csv")
    t2 = time.perf_counter()
    results = call("optimize.evaluate_sessions", opt.evaluate_sessions,
                   sessions, result.best.gains, model, mode=w.mode)
    stats = [r.stats for r in results]
    report = call("metrics.build_report", metrics.build_report, stats, result.methods)
    call("metrics.write_report_csv", metrics.write_report_csv, report, out / "report.csv")
    call("metrics.write_per_session_csv", metrics.write_per_session_csv,
         stats, result.methods, out / "per_session.csv")
    call("metrics.write_msdv_svg", metrics.write_msdv_svg, stats, out / "msdv.svg")
    t3 = time.perf_counter()
    return {"setup_s": t1 - t0, "search_s": t2 - t1, "evaluate_s": t3 - t2}


def _cli_flags(w: Workload, seeds: Seeds) -> list[str]:
    settings = {
        "run.seed": seeds.cohort,
        "dataset.n_sessions": w.n_sessions,
        "dataset.duration_s": w.duration_s,
        "dataset.rate_hz": w.rate_hz,
        "optimizer.seed": seeds.optimizer,
        "optimizer.budget": w.budget,
        "optimizer.mode": w.mode,
        "run.workers": 1,
    }
    settings.update(
        {f"optimizer.hi_{key}": hi for key, hi in zip(control.GAIN_KEYS, ACCEL_HI)}
    )
    flags = []
    for key, value in settings.items():
        flags += ["--set", f"{key}={value}"]
    return flags


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


CLI_STAGES = (
    ("setup_s", ("synth", "train")),
    ("search_s", ("optimize",)),
    ("evaluate_s", ("evaluate", "report")),
)


def _cli_pass(w: Workload, seeds: Seeds, out: Path, tracer) -> dict[str, float]:
    call = tracer.call if tracer is not None else _direct
    flags = _cli_flags(w, seeds)
    times = {}
    for stage, commands in CLI_STAGES:
        start = time.perf_counter()
        for command in commands:
            code = call(f"cli.{command}", _quiet_main, [command, "--output-dir", str(out), *flags])
            if code != 0:
                raise RuntimeError(f"edanav {command} exited with code {code}")
        times[stage] = time.perf_counter() - start
    return times


def run_pass(w: Workload, seeds: Seeds, out: Path, tracer=None) -> dict[str, float]:
    """One pass into the empty directory ``out``; returns the stage wall times."""
    out.mkdir(parents=True)
    return (_cli_pass if w.via_cli else _api_pass)(w, seeds, out, tracer)


def warm_up(w: Workload, out: Path) -> None:
    """A small pass of the same kind, so lazy imports and first calls are paid untimed.

    It always uses the acceptance seeds: much smaller cohorts can come out
    degenerate (a channel constant across the train split) at some seeds.
    """
    run_pass(replace(w, n_sessions=8, duration_s=120.0, budget=2), Seeds.from_offset(0), out)


def digests(w: Workload, out: Path) -> dict[str, str]:
    """sha256 of every artifact a pass writes (and, for the CLI, of the dataset)."""
    found = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
    if w.via_cli:
        h = hashlib.sha256()
        root = out / DATASET
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
        found[DATASET] = h.hexdigest()
    return found


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def search_work(w: Workload, out: Path) -> dict[str, int]:
    """Exact counts of the search, read back from its history file."""
    best = -float("inf")
    moves = 0
    trials = _rows(out / "history.csv")
    for row in trials:
        if float(row["objective"]) > best:
            best = float(row["objective"])
            moves += 1
    return {
        "trials": len(trials),
        "phase_one_trials": min(len(trials), max(1, int(round(len(trials) * EXPLORE_FRAC)))),
        "incumbent_moves": moves,
        "session_trials": len(trials) * w.n_eval,
    }


def check_positives(w: Workload, out: Path) -> list[str]:
    """The report's per-detector positives must equal the search's best percentages.

    The best trial is the first one with the highest objective; each of its
    pct_<method> columns times the session count / 100 is the number of
    sessions whose event count the evaluate stage must also see drop.
    """
    history = _rows(out / "history.csv")
    best = max(history, key=lambda row: float(row["objective"]))  # first of ties
    report = {row["method"]: row for row in _rows(out / "report.csv")}
    columns = [c for c in best if c.startswith("pct_")]
    if not columns:
        return ["history has no pct_<method> columns"]
    problems = []
    for column in columns:
        method = column[len("pct_"):]
        pct = best[column]
        expected = float(pct) * w.n_eval / 100.0
        got = int(report[method]["positives"]) if method in report else None
        if got is None or abs(got - expected) > 1e-6 or int(report[method]["total"]) != w.n_eval:
            problems.append(f"{method}: report has {got} positives, search found {expected:g}")
    return problems
