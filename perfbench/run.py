"""edanav benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload search-offline --seed 0 --seconds 40 --trace 0

Workloads (sizes in workloads.py, reasons in BENCHMARK.json):
``search-offline``, ``search-closed-loop`` and ``pipeline-long``. A run
repeats whole passes (set-up, one gain search, evaluation) for about
``--seconds`` seconds, at least three, each into a fresh directory under
``.perfbench_work/``, and reports medians over the passes. Each pass's
stage times are scaled by the calibration loop timed around it
(calibration.py), so the end-to-end times are seconds on the reference
machine; the unscaled stage medians and the median scale are printed on a
``# raw`` line as JSON.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
pass with the median scaled wall time. Every pass is checked: its artifacts must be
byte-identical to the first pass's (so traced equals untraced), the report's
positives must match the search's best percentages, and at ``--seed 0`` (the
acceptance seeds) the artifacts must match reference_digests.json. A pass
that raises, exits non-zero or fails a check counts as failed. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
``perfbench/suite.py`` runs every workload over several seeds.
"""

from __future__ import annotations

import os

# Single-threaded BLAS so the one caller owns one core and runs repeat.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import REFERENCE_S, Calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
MAX_PASSES = 500
STAGES = ("setup_s", "search_s", "evaluate_s")


def _import_edanav():
    """Import edanav from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import edanav
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import edanav from {SRC}: {exc}") from None
    if Path(edanav.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported edanav from {edanav.__file__}, not {SRC}")


def _environment(workload: str, seeds) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v, "") for v in THREAD_VARS},
        "workload": workload,
        "cohort_seed": seeds.cohort,
        "optimizer_seed": seeds.optimizer,
    }


class Runner:
    """Runs and checks the passes of one workload and keeps their results."""

    def __init__(self, name: str, seeds, work_dir: Path, trace: bool):
        from workloads import WORKLOADS

        self.name = name
        self.w = WORKLOADS[name]
        self.seeds = seeds
        self.work_dir = work_dir
        self.trace = trace
        self.reference = None
        if seeds.acceptance:
            refs = json.loads((HERE / "reference_digests.json").read_text(encoding="utf-8"))
            self.reference = refs.get(name, {})
        self.first = None  # digests of the first good pass
        self.work = None  # exact search counts of the first good pass
        self.calibration = Calibration()
        self.last_loop_s = 0.0  # calibration loop time after the previous pass
        self.untraced: list[tuple[float, dict, float]] = []  # (wall, stage times, scale)
        # (wall, tracer, wall of the untraced pass just before, the pair's mean scale)
        self.traced: list[tuple[float, object, float, float]] = []
        self.walls: list[float] = []  # unscaled wall of every good pass
        self.attempted = 0
        self.failed = 0

    def _check(self, out: Path, traced: bool) -> list[str]:
        import workloads

        found = workloads.digests(self.w, out)
        problems = workloads.check_positives(self.w, out)
        if self.reference is not None:
            bad = sorted(k for k in found if self.reference.get(k) != found[k])
            if bad:
                problems.append("differs from the reference digests: " + ", ".join(bad))
        if self.first is None:
            print("# digests " + json.dumps({self.name: found}, sort_keys=True))
            self.first = found
            self.work = workloads.search_work(self.w, out)
        else:
            bad = sorted(k for k in found if self.first.get(k) != found[k])
            if bad:
                kind = "traced" if traced else "untraced"
                problems.append(f"{kind} pass differs from pass 1: " + ", ".join(bad))
        return problems

    def one_pass(self) -> None:
        import workloads
        from tracer import ROOT_SPAN, Tracer

        self.attempted += 1
        traced = self.trace and self.attempted % 2 == 0
        out = self.work_dir / f"pass{self.attempted}"
        tracer = Tracer() if traced else None
        try:
            if tracer is not None:
                tracer.install()
                try:
                    start = time.perf_counter()
                    tracer.call(ROOT_SPAN, workloads.run_pass, self.w, self.seeds, out, tracer)
                    wall = time.perf_counter() - start
                finally:
                    tracer.uninstall()
            else:
                start = time.perf_counter()
                stages = workloads.run_pass(self.w, self.seeds, out)
                wall = time.perf_counter() - start
            problems = self._check(out, traced)
        except Exception:
            problems = [traceback.format_exc()]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        loop_s = self.calibration.measure()
        scale = REFERENCE_S / (0.5 * (self.last_loop_s + loop_s))
        self.last_loop_s = loop_s
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: pass {self.attempted} failed: {problem}", file=sys.stderr)
        elif tracer is not None:
            self.walls.append(wall)
            if self.untraced:
                before, _, before_scale = self.untraced[-1]
                self.traced.append((wall, tracer, before, 0.5 * (scale + before_scale)))
            print(f"# pass {self.attempted}: traced wall {wall:.4f} s, scale {scale:.4f}")
        else:
            self.walls.append(wall)
            self.untraced.append((wall, stages, scale))
            print(f"# pass {self.attempted}: wall {wall:.4f} s, scale {scale:.4f}, "
                  + ", ".join(f"{k} {v:.4f}" for k, v in stages.items()))

    def run(self, seconds: float) -> None:
        import workloads

        try:
            workloads.warm_up(self.w, self.work_dir / "warm-up")
        except Exception:
            self.attempted += 1
            self.failed += 1
            print(f"perfbench: warm-up failed: {traceback.format_exc()}", file=sys.stderr)
        self.last_loop_s = self.calibration.measure()
        start = time.perf_counter()
        while self.attempted < MAX_PASSES:
            if self.attempted >= MIN_PASSES:
                pass_s = statistics.median(self.walls) if self.walls else 0.0
                if time.perf_counter() - start + pass_s > seconds:
                    break
            self.one_pass()

    def stage_medians(self, scaled: bool) -> dict[str, float]:
        return {
            stage: statistics.median(
                times[stage] * (scale if scaled else 1.0) for _, times, scale in self.untraced
            )
            for stage in STAGES
        }

    def raw(self) -> dict[str, float]:
        """Unscaled stage medians in seconds and the median scale applied to them."""
        if not self.untraced:
            return {}
        raw = self.stage_medians(scaled=False)
        raw["scale"] = statistics.median(scale for _, _, scale in self.untraced)
        return raw

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        if not self.untraced:
            return {}
        med = self.stage_medians(scaled=True)
        return {
            "setup_s": (med["setup_s"], "s"),
            "search_s": (med["search_s"], "s"),
            "session_trials_per_s": (self.work["session_trials"] / med["search_s"], "1/s"),
            "evaluate_s": (med["evaluate_s"], "s"),
            "total_s": (sum(med.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        from tracer import per_layer_metrics, per_layer_units, self_time_identity

        if not self.traced:
            return {}
        ranked = sorted(self.traced, key=lambda item: item[0] * item[3])
        tracer = ranked[(len(ranked) - 1) // 2][1]
        walls = {  # both passes of a pair scaled alike, so the host's drift cancels
            "traced": statistics.median(wall * k for wall, _, _, k in self.traced),
            "untraced": statistics.median(before * k for _, _, before, k in self.traced),
            "overhead": statistics.median((wall - before) * k for wall, _, before, k in self.traced),
        }
        values = per_layer_metrics(tracer, self.work, walls)
        print("# trace: " + self_time_identity(tracer))
        if tracer.absent:
            print("# absent names: " + ", ".join(tracer.absent))
        return {name: (values[name], unit) for name, unit in per_layer_units().items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="offset added to the acceptance seeds")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_edanav()
    from workloads import WORKLOADS, Seeds

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    seeds = Seeds.from_offset(args.seed)
    print("# env " + json.dumps(_environment(args.workload, seeds), sort_keys=True))
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, seeds, work_dir, bool(args.trace))
    try:
        runner.run(args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = runner.per_layer() if args.trace else runner.end_to_end()
    print("# raw " + json.dumps(runner.raw(), sort_keys=True))
    failed = runner.failed
    if not metrics:
        failed = max(failed, 1)
    print(f"# {args.workload}: {runner.attempted} passes, {failed} failed, "
          f"failed_frac {failed / max(1, runner.attempted):g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<48} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, runner.attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
