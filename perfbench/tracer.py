"""Span tracing from outside the package, and the per-layer metrics built on it.

The tracer never edits edanav. It rebinds the names that ``edanav.optimize``,
``edanav.pipeline`` and ``edanav.cli`` call at run time with wrappers that
record one span per call (name, start, end, parent) plus exact work counts,
and restores the original bindings afterwards. Self time is a span's
duration minus the time its child spans cover, so the self times of all
spans under the root add up to the root's duration by construction (an
identity, printed as a diagnostic, not a check): whatever is left unwrapped
shows up as self time of the nearest wrapped caller, e.g. the
search loop itself as ``optimize.optimize`` self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

ROOT_SPAN = "bench.pass"

# A per-layer time is reported only where every workload runs it, so no
# time reads 0 on some workload. Counts may be 0: they show where a function
# runs at all, and its time is then inside its layer's self time.

# The modules edanav is split into, with their self ms per session-trial.
# ``cli`` runs only on pipeline-long, so it gets a call count alone.
LAYERS = (
    "dataset", "signals", "surrogate", "control", "scr",
    "metrics", "optimize", "pipeline",
)

# Functions that every workload calls many times: calls, ms/call, self
# ms/session-trial.
HOT = (
    "surrogate.predict_session",
    "scr.kim2004",
    "scr.gamboa2008",
    "scr.neurokit",
    "metrics.msdv",
    "signals.decompose",
)

# Both surrogate predictors together: predict_session (offline, and the
# context build of closed loop) plus predict_clip (the closed-loop step loop).
PREDICT = ("surrogate.predict_session", "surrogate.predict_clip")

# Stage-sized calls reported as inclusive milliseconds per traced pass.
STAGES = (
    "optimize.build_contexts",
    "optimize.optimize",
    "optimize.evaluate_sessions",
    "optimize.write_history_csv",
    "metrics.build_report",
    "metrics.write_report_csv",
    "metrics.write_per_session_csv",
    "metrics.write_msdv_svg",
    "dataset.synth_cohort",
    "pipeline.train_surrogate",
    "pipeline.held_out_mae",
    "surrogate.fit_surrogate",
    "surrogate.make_clips",
    "surrogate.write_model",
    "signals.decompose",
)

# Exact counts: they repeat bit for bit at a given seed. GFLOP is computed
# from the matmul shapes, not measured.
COUNTS = (
    ("optimize.session_trials", "count"),
    ("optimize.trials", "count"),
    ("optimize.phase_one_trials", "count"),
    ("optimize.phase_two_trials", "count"),
    ("optimize.incumbent_moves", "count"),
    ("surrogate.predict_session.windows", "count"),
    ("surrogate.predict.gflop", "GFLOP"),
    ("scr.kim2004.events_per_call", "events/call"),
    ("scr.gamboa2008.events_per_call", "events/call"),
    ("scr.neurokit.events_per_call", "events/call"),
    ("dataset.bytes_written", "bytes"),
    ("dataset.bytes_read", "bytes"),
    ("dataset.load_dataset.calls", "count"),
    ("dataset.save_dataset.calls", "count"),
    ("surrogate.predict_clip.calls", "count"),
    ("control.adapt_trace.calls", "count"),
    ("cli.calls", "count"),
)

# Wall times of the traced passes and of the untraced pass run just before
# each. Both passes of a pair are scaled by the pair's mean calibration scale
# (calibration.py), and each is the median over the pairs, the overhead too.
TRACE = (
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.absent_names", "count"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: dict[str, str] = {}
    for name in HOT:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms_per_call"] = "ms"
        units[f"{name}.self_ms_per_session_trial"] = "ms"
    units["surrogate.predict.self_ms_per_session_trial"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms_per_session_trial"] = "ms"
    for name in STAGES:
        units[f"{name}.ms"] = "ms"
    units.update(COUNTS)
    units.update(TRACE)
    return units


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _count_predict_session(counts, span, args, kwargs, result):
    model, a_l = args[0], args[1]
    stride = kwargs.get("stride_samples", args[3] if len(args) > 3 else 1)
    windows = (len(a_l) - model.L) // int(stride) + 1
    counts["surrogate.predict_session.windows"] += windows
    counts["surrogate.predict.flop"] += 2 * windows * model.weights.size


def _count_predict_clip(counts, span, args, kwargs, result):
    counts["surrogate.predict.flop"] += 2 * args[0].weights.size


def _count_events(counts, span, args, kwargs, result):
    counts[f"{span}.events"] += int(result)


def _count_written(counts, span, args, kwargs, result):
    counts["dataset.bytes_written"] += _dir_bytes(args[1])


def _count_read(counts, span, args, kwargs, result):
    counts["dataset.bytes_read"] += _dir_bytes(args[0])


def _detector_span(args, kwargs):
    return f"scr.{args[1].method}"


# (module, name as bound there, span name or span-name function, counter)
WRAPS = (
    ("edanav.optimize", "adapt_trace", "control.adapt_trace", None),
    ("edanav.optimize", "predict_session", "surrogate.predict_session", _count_predict_session),
    ("edanav.optimize", "predict_clip", "surrogate.predict_clip", _count_predict_clip),
    ("edanav.optimize", "count_er_scr", _detector_span, _count_events),
    ("edanav.optimize", "msdv", "metrics.msdv", None),
    ("edanav.optimize", "decompose", "signals.decompose", None),
    ("edanav.optimize", "build_contexts", "optimize.build_contexts", None),
    ("edanav.pipeline", "decompose", "signals.decompose", None),
    ("edanav.pipeline", "corpus_clip_norm", "surrogate.corpus_clip_norm", None),
    ("edanav.pipeline", "make_clips", "surrogate.make_clips", None),
    ("edanav.pipeline", "fit_surrogate", "surrogate.fit_surrogate", None),
    ("edanav.pipeline", "predict_windows", "surrogate.predict_windows", None),
    ("edanav.pipeline", "held_out_mae", "pipeline.held_out_mae", None),
    ("edanav.cli", "synth_cohort", "dataset.synth_cohort", None),
    ("edanav.cli", "save_dataset", "dataset.save_dataset", _count_written),
    ("edanav.cli", "load_dataset", "dataset.load_dataset", _count_read),
    ("edanav.cli", "train_surrogate", "pipeline.train_surrogate", None),
    ("edanav.cli", "write_model", "surrogate.write_model", None),
    ("edanav.cli", "read_model", "surrogate.read_model", None),
    ("edanav.cli", "optimize", "optimize.optimize", None),
    ("edanav.cli", "write_history_csv", "optimize.write_history_csv", None),
    ("edanav.cli", "evaluate_sessions", "optimize.evaluate_sessions", None),
    ("edanav.cli", "write_gains", "control.write_gains", None),
    ("edanav.cli", "read_gains", "control.read_gains", None),
    ("edanav.cli", "build_report", "metrics.build_report", None),
    ("edanav.cli", "write_report_csv", "metrics.write_report_csv", None),
    ("edanav.cli", "write_per_session_csv", "metrics.write_per_session_csv", None),
    ("edanav.cli", "write_msdv_svg", "metrics.write_msdv_svg", None),
    ("edanav.cli", "read_per_session_csv", "metrics.read_per_session_csv", None),
)


class Tracer:
    """In-memory span recorder; ``install`` rebinds WRAPS, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def call(self, name: str, fn, /, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, original, name, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            result = self.call(span, original, *args, **kwargs)
            if counter is not None:
                counter(self.counts, span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        # import_module, not ``import edanav.optimize as m``: the package
        # rebinds the attribute ``edanav.optimize`` to the function.
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - covered
        return out


def per_layer_metrics(tracer: Tracer, work: dict, walls: dict[str, float]) -> dict[str, float]:
    """All per-layer metric values of one traced pass.

    ``work`` holds the search's exact counts (trials, phase_one_trials,
    incumbent_moves, session_trials) taken from its history file; ``walls``
    the scaled ``traced``, ``untraced`` and ``overhead`` seconds (see TRACE).
    """
    spans = tracer.summary()
    st = max(1, work["session_trials"])
    empty = {"calls": 0, "total": 0.0, "self": 0.0}
    values: dict[str, float] = {}
    for name in HOT:
        s = spans.get(name, empty)
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.ms_per_call"] = 1e3 * s["total"] / s["calls"] if s["calls"] else 0.0
        values[f"{name}.self_ms_per_session_trial"] = 1e3 * s["self"] / st
    predict_self = sum(spans.get(name, empty)["self"] for name in PREDICT)
    values["surrogate.predict.self_ms_per_session_trial"] = 1e3 * predict_self / st
    for layer in LAYERS:
        members = [s for n, s in spans.items() if n.split(".", 1)[0] == layer]
        values[f"{layer}.calls"] = sum(s["calls"] for s in members)
        values[f"{layer}.self_ms_per_session_trial"] = 1e3 * sum(s["self"] for s in members) / st
    for name in STAGES:
        values[f"{name}.ms"] = 1e3 * spans.get(name, empty)["total"]
    c = tracer.counts
    values["optimize.session_trials"] = work["session_trials"]
    values["optimize.trials"] = work["trials"]
    values["optimize.phase_one_trials"] = work["phase_one_trials"]
    values["optimize.phase_two_trials"] = work["trials"] - work["phase_one_trials"]
    values["optimize.incumbent_moves"] = work["incumbent_moves"]
    values["surrogate.predict_session.windows"] = c["surrogate.predict_session.windows"]
    values["surrogate.predict.gflop"] = c["surrogate.predict.flop"] / 1e9
    for method in ("kim2004", "gamboa2008", "neurokit"):
        calls = spans.get(f"scr.{method}", empty)["calls"]
        values[f"scr.{method}.events_per_call"] = c[f"scr.{method}.events"] / calls if calls else 0.0
    values["dataset.bytes_written"] = c["dataset.bytes_written"]
    values["dataset.bytes_read"] = c["dataset.bytes_read"]
    for name in ("dataset.load_dataset", "dataset.save_dataset", "surrogate.predict_clip",
                 "control.adapt_trace"):
        values[f"{name}.calls"] = spans.get(name, empty)["calls"]
    values["cli.calls"] = sum(s["calls"] for n, s in spans.items() if n.startswith("cli."))
    values["trace.wall_ms"] = 1e3 * walls["traced"]
    values["trace.untraced_wall_ms"] = 1e3 * walls["untraced"]
    values["trace.overhead_ms"] = 1e3 * walls["overhead"]
    values["trace.spans"] = len(tracer.spans)
    values["trace.absent_names"] = len(tracer.absent)
    return values


def self_time_identity(tracer: Tracer) -> str:
    """A diagnostic line: self times telescope to the root span by construction."""
    spans = tracer.summary()
    self_sum = sum(s["self"] for s in spans.values())
    glue = spans[ROOT_SPAN]["self"]
    return (f"{len(tracer.spans)} spans, self times sum to {1e3 * self_sum:.3f} ms = root span "
            f"{1e3 * spans[ROOT_SPAN]['total']:.3f} ms, of which benchmark glue "
            f"({ROOT_SPAN} self) {1e3 * glue:.3f} ms")
